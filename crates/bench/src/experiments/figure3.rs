//! Figure 3: the paper's worked example on s953 — a single stuck-at
//! fault observed under one pattern produces two clustered failing scan
//! cells; a single 4-group interval-based partition isolates them far
//! better than a single random-selection partition.
//!
//! The experiment reproduces the figure's artifacts: the true
//! failing-cell bitmap, each scheme's groups, and the resulting suspect
//! counts.

use scan_bist::Scheme;
use scan_diagnosis::{diagnose, BistConfig, ChainLayout, DiagnosisPlan};
use scan_netlist::{generate, ScanView};
use scan_sim::PpsfpSimulator;

use crate::report::{Cell, Report};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let circuit = generate::benchmark("s953");
    let view = ScanView::natural(&circuit, true);
    let patterns = scan_diagnosis::lfsr_patterns(&circuit, 200, 0xACE1);
    let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns).expect("shapes match");

    // Find a fault and a detecting pattern with a small cluster of
    // failing cells, like the paper's example (2 failing cells). The
    // paper's instance has the cluster inside one interval, so require
    // that of the interval partition we are about to show.
    let interval_plan = DiagnosisPlan::new(
        ChainLayout::single_chain(view.len()),
        200,
        &BistConfig::new(4, 1, Scheme::IntervalBased),
    )
    .expect("plan builds");
    let interval_partition = &interval_plan.partitions()[0];
    let sample = psim.sample_detected_with_maps(200, 2003);
    let mut chosen: Option<(scan_sim::Fault, usize, Vec<usize>)> = None;
    'outer: for (fault, errors) in &sample {
        for pattern in 0..errors.num_patterns() {
            let cells: Vec<usize> = (0..view.len())
                .filter(|&pos| errors.bit(pos, pattern))
                .collect();
            // The paper's example has two *adjacent* failing cells — the
            // clustered case Fig. 2 predicts — falling into a single
            // interval.
            if cells.len() == 2
                && cells[1] - cells[0] == 1
                && interval_partition.group_of(cells[0]) == interval_partition.group_of(cells[1])
            {
                chosen = Some((*fault, pattern, cells));
                break 'outer;
            }
        }
    }
    let (fault, pattern, failing) = chosen.expect("an example fault exists");
    report.line(format!(
        "Figure 3 — s953 ({} observation positions), fault {}, pattern {}",
        view.len(),
        fault.describe(&circuit),
        pattern
    ));
    report.line(format!("True failing scan cells: {}", join(&failing, ", ")));
    report.line(
        (0..view.len())
            .map(|pos| if failing.contains(&pos) { '1' } else { '0' })
            .collect::<String>(),
    );
    report.line("");

    let words: Vec<(usize, usize, u64)> = failing
        .iter()
        .map(|&pos| (pos, pattern / 64, 1 << (pattern % 64)))
        .collect();
    for scheme in [Scheme::IntervalBased, Scheme::RandomSelection] {
        let plan = DiagnosisPlan::new(
            ChainLayout::single_chain(view.len()),
            200,
            &BistConfig::new(4, 1, scheme),
        )
        .expect("plan builds");
        let outcome = plan.analyze_packed(words.iter().copied());
        let diag = diagnose(&plan, &outcome);
        report.line(format!("{} partitioning:", scheme.name()));
        let partition = &plan.partitions()[0];
        for g in 0..partition.num_groups() {
            let members: Vec<usize> = partition.members(g).collect();
            let span = if partition.is_interval() {
                format!("{}-{}", members[0], members[members.len() - 1])
            } else {
                join(&members, ",")
            };
            let verdict = if outcome.failed(0, g) { "FAIL" } else { "pass" };
            report.line(format!("  group {g} [{verdict}]: {span}"));
        }
        report.line_cells(vec![
            Cell::text("  suspect failing scan cells: "),
            Cell::count(diag.num_candidates()),
        ]);
        report.line("");
    }
    report
}

fn join(cells: &[usize], separator: &str) -> String {
    cells
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(separator)
}
