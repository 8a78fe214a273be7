//! The orderings the paper's text states, checked on the numbers of the
//! regenerated tables and figures rather than on their printed text.
//!
//! Each test runs one experiment in process through
//! `scan_bench::experiments::ALL` and asserts on the values of its
//! numeric cells. Only orderings are checked, never the absolute values:
//! the circuits are generated stand-ins for the paper's netlists
//! (DESIGN.md §5), so the paper's numbers are not a target. A claim that
//! fails here is a finding to report, not a threshold or seed to tune.

use scan_bench::experiments;
use scan_bench::report::{Cell, Item, Report};

fn run(name: &str) -> Report {
    let experiment = experiments::find(name).unwrap_or_else(|| panic!("`{name}` is registered"));
    (experiment.run)()
}

/// The numbers of the column headed `header` in the report's first
/// table, top to bottom.
fn column(report: &Report, header: &str) -> Vec<f64> {
    let table = report.tables().next().expect("the report has a table");
    table
        .column(header)
        .unwrap_or_else(|| panic!("no column `{header}`"))
        .iter()
        .map(|cell| {
            cell.value()
                .unwrap_or_else(|| panic!("`{header}` cell {:?} is not a number", cell.as_str()))
        })
        .collect()
}

/// The first column's text: the row labels.
fn labels(report: &Report) -> Vec<String> {
    let table = report.tables().next().expect("the report has a table");
    table
        .rows()
        .iter()
        .map(|row| row[0].as_str().to_owned())
        .collect()
}

/// Table 1's claims: (a) with few partitions interval-based beats
/// random selection, (b) with many partitions random selection beats
/// interval-based, (c) two-step is the best scheme at every partition
/// count. (c) is `≤`, not `<`: two-step's first partition *is* the
/// interval partition, so at one partition the two are equal.
#[test]
fn table1_interval_wins_early_random_wins_late_two_step_always() {
    let report = run("table1");
    let interval = column(&report, "DR (interval-based)");
    let random = column(&report, "DR (random-selection)");
    let two_step = column(&report, "DR (two-step)");
    assert_eq!(interval.len(), 8, "Table 1 covers 1..=8 partitions");
    assert!(
        interval[0] < random[0],
        "(a) at 1 partition interval {} is not below random {}",
        interval[0],
        random[0]
    );
    assert!(
        random[7] < interval[7],
        "(b) at 8 partitions random {} is not below interval {}",
        random[7],
        interval[7]
    );
    for k in 0..interval.len() {
        assert!(
            two_step[k] <= interval[k].min(random[k]),
            "(c) at {} partition(s) two-step {} is above interval {} or random {}",
            k + 1,
            two_step[k],
            interval[k],
            random[k]
        );
    }
}

/// Tables 2–4: two-step beats random selection in every row, with and
/// without pruning, and pruning never raises a scheme's DR.
fn two_step_wins_and_pruning_never_raises_dr(name: &str) {
    let report = run(name);
    let rows = labels(&report);
    let random = column(&report, "DR random");
    let two_step = column(&report, "DR two-step");
    let random_pruned = column(&report, "DR random (pruned)");
    let two_step_pruned = column(&report, "DR two-step (pruned)");
    assert!(!rows.is_empty(), "{name} has no rows");
    for (i, row) in rows.iter().enumerate() {
        assert!(
            two_step[i] < random[i],
            "{name} {row}: two-step {} is not below random {}",
            two_step[i],
            random[i]
        );
        assert!(
            two_step_pruned[i] < random_pruned[i],
            "{name} {row}: pruned two-step {} is not below pruned random {}",
            two_step_pruned[i],
            random_pruned[i]
        );
        assert!(
            random_pruned[i] <= random[i],
            "{name} {row}: pruning raised random from {} to {}",
            random[i],
            random_pruned[i]
        );
        assert!(
            two_step_pruned[i] <= two_step[i],
            "{name} {row}: pruning raised two-step from {} to {}",
            two_step[i],
            two_step_pruned[i]
        );
    }
}

#[test]
fn table2_two_step_wins_and_pruning_never_raises_dr() {
    two_step_wins_and_pruning_never_raises_dr("table2");
}

#[test]
fn table3_two_step_wins_and_pruning_never_raises_dr() {
    two_step_wins_and_pruning_never_raises_dr("table3");
}

#[test]
fn table4_two_step_wins_and_pruning_never_raises_dr() {
    two_step_wins_and_pruning_never_raises_dr("table4");
}

/// Figure 3: one interval-based partition leaves fewer suspects than
/// one random-selection partition on the paper's worked example.
#[test]
fn figure3_interval_leaves_fewer_suspects_than_random() {
    let report = run("figure3");
    let mut scheme = String::new();
    let mut suspects = Vec::new();
    for item in report.items() {
        let Item::Line(cells) = item else { continue };
        let text: String = cells.iter().map(Cell::as_str).collect();
        if let Some(name) = text.strip_suffix(" partitioning:") {
            scheme = name.to_owned();
        }
        if let [Cell::Text(label), count] = cells.as_slice() {
            if label.trim() == "suspect failing scan cells:" {
                let count = count.value().expect("the suspect count is a number");
                suspects.push((scheme.clone(), count));
            }
        }
    }
    let schemes: Vec<&str> = suspects.iter().map(|(s, _)| s.as_str()).collect();
    assert_eq!(schemes, ["interval-based", "random-selection"]);
    assert!(
        suspects[0].1 < suspects[1].1,
        "interval leaves {} suspects, random {}",
        suspects[0].1,
        suspects[1].1
    );
}
