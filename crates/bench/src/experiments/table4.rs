//! Table 4: SOC diagnostic resolution with multiple meta scan chains.
//! SOC 2 is the d695 variant: the eight full-scan ISCAS-89 modules
//! daisy-chained over an 8-bit TAM into 8 balanced meta scan chains;
//! 8 groups per partition, 8 partitions, 500 faults per failing core.
//! The paper's table reports the six largest cores; the harness prints
//! every core and marks the reported six.

use scan_diagnosis::soc_diag::diagnose_each_core;
use scan_netlist::generate::SIX_LARGEST;
use scan_soc::d695;

use crate::report::{Cell, Report};
use crate::{table4_spec, PAPER_SCHEMES};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let spec = table4_spec();
    let soc = d695::soc2().expect("SOC 2 builds");
    report.line(format!(
        "Table 4 — SOC 2 (d695 variant, {} meta chains, longest {} cells), {} groups, {} partitions, {} faults/core",
        soc.num_chains(),
        soc.max_chain_len(),
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
            let marker = if SIX_LARGEST.contains(&row.core.as_str()) {
                "*"
            } else {
                ""
            };
            vec![
                Cell::text(format!("{}{marker}", row.core)),
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
    report.line("(* = one of the six largest cores reported in the paper's table)");
    report
}
