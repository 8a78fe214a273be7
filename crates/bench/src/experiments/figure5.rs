//! Figure 5: the number of partitions needed to reach a diagnostic
//! resolution of 0.5 (without pruning) on SOC 1 with a single meta scan
//! chain, for random-selection vs two-step partitioning, per failing
//! core. Fewer partitions means shorter diagnosis time.

use scan_diagnosis::soc_diag::diagnose_each_core;
use scan_soc::d695;

use crate::report::{Cell, Report};
use crate::{table3_spec, PAPER_SCHEMES};

const TARGET_DR: f64 = 0.5;
const MAX_PARTITIONS: usize = 16;

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let mut spec = table3_spec();
    spec.partitions = MAX_PARTITIONS;
    let soc = d695::soc1().expect("SOC 1 builds");
    report.line(format!(
        "Figure 5 — partitions to reach DR ≤ {TARGET_DR} (no pruning), SOC 1, {} groups, up to {MAX_PARTITIONS} partitions",
        spec.groups
    ));
    report.line("");
    let rows_data = diagnose_each_core(&soc, &spec, &PAPER_SCHEMES, 0).expect("SOC campaign runs");
    let cell = |n: Option<usize>| n.map_or_else(|| Cell::text(format!(">{MAX_PARTITIONS}")), Cell::count);
    let rows = rows_data
        .iter()
        .map(|row| {
            vec![
                Cell::text(row.core.clone()),
                cell(row.reports[0].partitions_to_reach(TARGET_DR)),
                cell(row.reports[1].partitions_to_reach(TARGET_DR)),
            ]
        })
        .collect();
    report.table(&["failing core", "random-selection", "two-step"], rows);
    report
}
