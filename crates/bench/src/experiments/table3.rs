//! Table 3: SOC diagnostic resolution with a single meta scan chain.
//! SOC 1 stitches the six largest ISCAS-89 cores onto one `TestRail`
//! meta chain; for each core assumed faulty, 500 stuck-at faults are
//! injected and diagnosed with 32 groups per partition and 8
//! partitions.

use scan_diagnosis::soc_diag::diagnose_each_core;
use scan_soc::d695;

use crate::report::{Cell, Report};
use crate::{table3_spec, PAPER_SCHEMES};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let spec = table3_spec();
    let soc = d695::soc1().expect("SOC 1 builds");
    report.line(format!(
        "Table 3 — SOC 1 (single meta chain of {} cells), {} groups, {} partitions, {} faults/core",
        soc.total_positions(),
        spec.groups,
        spec.partitions,
        spec.num_faults
    ));
    report.line("");
    let rows_data = diagnose_each_core(&soc, &spec, &PAPER_SCHEMES, 0).expect("SOC campaign runs");
    let rows = rows_data
        .iter()
        .map(|row| {
            let random = &row.reports[0];
            let two_step = &row.reports[1];
            vec![
                Cell::text(row.core.clone()),
                Cell::dr(random.dr),
                Cell::dr(two_step.dr),
                Cell::dr(random.dr_pruned),
                Cell::dr(two_step.dr_pruned),
            ]
        })
        .collect();
    report.table(
        &[
            "failing core",
            "DR random",
            "DR two-step",
            "DR random (pruned)",
            "DR two-step (pruned)",
        ],
        rows,
    );
    report
}
