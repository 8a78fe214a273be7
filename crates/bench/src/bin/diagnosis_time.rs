//! Diagnosis time in tester clock cycles: Fig. 5's partition counts
//! converted through the scan geometry, plus the §5 comparison of the
//! TestRail against a per-core test bus with pattern reloads.

use scan_bench::{render_table, table3_spec, ObsSession, PAPER_SCHEMES};
use scan_diagnosis::cost::{soc_access_cost, DiagnosisCostModel};
use scan_diagnosis::soc_diag::diagnose_each_core;
use scan_soc::d695;

fn main() {
    let (obs, _rest) = ObsSession::start("diagnosis_time");
    let mut spec = table3_spec();
    spec.partitions = 16;
    let soc = d695::soc1().expect("SOC 1 builds");
    let model = DiagnosisCostModel {
        chain_len: soc.max_chain_len(),
        num_patterns: spec.num_patterns,
        groups: spec.groups,
        signature_unload: 16,
    };
    println!(
        "Diagnosis time — SOC 1, {} groups, {} patterns/session, chain {} cells",
        spec.groups,
        spec.num_patterns,
        soc.max_chain_len()
    );
    println!(
        "(one partition = {} sessions = {:.2} Mcycles)",
        spec.groups,
        model.partition_cycles() as f64 / 1e6
    );
    println!();

    let rows_data = diagnose_each_core(&soc, &spec, &PAPER_SCHEMES, 0).expect("SOC campaign runs");
    let fmt_cycles = |parts: Option<usize>| {
        parts.map_or_else(
            || "-".to_owned(),
            |p| format!("{p} ({:.1} Mcy)", model.diagnosis_cycles(p) as f64 / 1e6),
        )
    };
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|row| {
            vec![
                row.core.clone(),
                fmt_cycles(row.reports[0].partitions_to_reach(0.5)),
                fmt_cycles(row.reports[1].partitions_to_reach(0.5)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "failing core",
                "random: partitions (time)",
                "two-step: partitions (time)"
            ],
            &rows
        )
    );

    // TestRail vs per-core test bus (§5's dismissed alternative).
    let core_lens: Vec<usize> = soc
        .cores()
        .iter()
        .map(scan_soc::CoreModule::num_positions)
        .collect();
    let access = soc_access_cost(&core_lens, spec.num_patterns, spec.groups, 8, 16, 1_000_000);
    println!();
    println!(
        "8-partition diagnosis, TestRail: {:.1} Mcycles; per-core test bus (1 Mcycle reload/core): {:.1} Mcycles",
        access.testrail_cycles as f64 / 1e6,
        access.test_bus_cycles as f64 / 1e6
    );
    obs.finish();
}
