//! Table 3: SOC diagnostic resolution with a single meta scan chain.
//! SOC 1 stitches the six largest ISCAS-89 cores onto one TestRail meta
//! chain; for each core assumed faulty, 500 stuck-at faults are
//! injected and diagnosed with 32 groups per partition and 8
//! partitions.

use scan_bench::{fmt_dr, render_table, table3_spec, ObsSession, PAPER_SCHEMES};
use scan_diagnosis::soc_diag::diagnose_each_core;
use scan_soc::d695;

fn main() {
    let (obs, _rest) = ObsSession::start("table3");
    let spec = table3_spec();
    let soc = d695::soc1().expect("SOC 1 builds");
    println!(
        "Table 3 — SOC 1 (single meta chain of {} cells), {} groups, {} partitions, {} faults/core",
        soc.total_positions(),
        spec.groups,
        spec.partitions,
        spec.num_faults
    );
    println!();
    let rows_data =
        diagnose_each_core(&soc, &spec, &PAPER_SCHEMES, 0).expect("SOC campaign runs");
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|row| {
            let random = &row.reports[0];
            let two_step = &row.reports[1];
            vec![
                row.core.clone(),
                fmt_dr(random.dr),
                fmt_dr(two_step.dr),
                fmt_dr(random.dr_pruned),
                fmt_dr(two_step.dr_pruned),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "failing core",
                "DR random",
                "DR two-step",
                "DR random (pruned)",
                "DR two-step (pruned)",
            ],
            &rows
        )
    );
    obs.finish();
}
