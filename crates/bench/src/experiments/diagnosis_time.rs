//! Diagnosis time in tester clock cycles: Fig. 5's partition counts
//! converted through the scan geometry, plus the §5 comparison of the
//! `TestRail` against a per-core test bus with pattern reloads.

use scan_diagnosis::cost::{soc_access_cost, DiagnosisCostModel};
use scan_diagnosis::soc_diag::diagnose_each_core;
use scan_soc::d695;

use crate::report::{Cell, Report};
use crate::{table3_spec, PAPER_SCHEMES};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let mut spec = table3_spec();
    spec.partitions = 16;
    let soc = d695::soc1().expect("SOC 1 builds");
    let model = DiagnosisCostModel {
        chain_len: soc.max_chain_len(),
        num_patterns: spec.num_patterns,
        groups: spec.groups,
        signature_unload: 16,
    };
    report.line(format!(
        "Diagnosis time — SOC 1, {} groups, {} patterns/session, chain {} cells",
        spec.groups,
        spec.num_patterns,
        soc.max_chain_len()
    ));
    report.line(format!(
        "(one partition = {} sessions = {:.2} Mcycles)",
        spec.groups,
        model.partition_cycles() as f64 / 1e6
    ));
    report.line("");

    let rows_data = diagnose_each_core(&soc, &spec, &PAPER_SCHEMES, 0).expect("SOC campaign runs");
    let cycles = |parts: Option<usize>| {
        Cell::text(parts.map_or_else(
            || "-".to_owned(),
            |p| format!("{p} ({:.1} Mcy)", model.diagnosis_cycles(p) as f64 / 1e6),
        ))
    };
    let rows = rows_data
        .iter()
        .map(|row| {
            vec![
                Cell::text(row.core.clone()),
                cycles(row.reports[0].partitions_to_reach(0.5)),
                cycles(row.reports[1].partitions_to_reach(0.5)),
            ]
        })
        .collect();
    report.table(
        &[
            "failing core",
            "random: partitions (time)",
            "two-step: partitions (time)",
        ],
        rows,
    );

    // TestRail vs per-core test bus (§5's dismissed alternative).
    let core_lens: Vec<usize> = soc
        .cores()
        .iter()
        .map(scan_soc::CoreModule::num_positions)
        .collect();
    let access = soc_access_cost(&core_lens, spec.num_patterns, spec.groups, 8, 16, 1_000_000);
    report.line("");
    report.line(format!(
        "8-partition diagnosis, TestRail: {:.1} Mcycles; per-core test bus (1 Mcycle reload/core): {:.1} Mcycles",
        access.testrail_cycles as f64 / 1e6,
        access.test_bus_cycles as f64 / 1e6
    ));
    report
}
