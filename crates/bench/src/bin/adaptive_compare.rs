//! Baseline comparison: adaptive binary search (\[6\] in the paper) vs
//! partition-based diagnosis.
//!
//! The adaptive scheme reaches exact resolution in ~2·f·log2(n)
//! sessions but interrupts test application after every round; the
//! partition schemes run a fixed precomputed schedule of
//! `partitions × groups` sessions. This experiment reports, per
//! scheme, the sessions executed and the resolution reached, on the
//! same fault evidence.

use scan_bench::{render_table, ObsSession};
use scan_bist::Scheme;
use scan_diagnosis::adaptive::adaptive_binary_search;
use scan_diagnosis::{
    diagnose, lfsr_patterns, BistConfig, ChainLayout, DiagnosisPlan, DrAccumulator, ResponseModel,
};
use scan_netlist::{generate, ScanView};
use scan_sim::PpsfpSimulator;

fn main() {
    let (obs, _rest) = ObsSession::start("adaptive_compare");
    let circuit = generate::benchmark("s5378");
    let view = ScanView::natural(&circuit, true);
    let num_patterns = 128usize;
    let patterns = lfsr_patterns(&circuit, num_patterns, 0xACE1);
    let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns).expect("shapes match");
    let cases = psim.sample_detected_with_maps(300, 2003);
    println!(
        "Adaptive binary search vs partition-based diagnosis — s5378 ({} cells), {} faults",
        view.len(),
        cases.len()
    );
    println!();

    let mut rows = Vec::new();

    // Partition-based schemes: fixed schedule of partitions × groups.
    for (label, scheme, partitions, groups) in [
        ("random 8x8", Scheme::RandomSelection, 8usize, 8u16),
        ("two-step 8x8", Scheme::TWO_STEP_DEFAULT, 8, 8),
        ("two-step 4x8", Scheme::TWO_STEP_DEFAULT, 4, 8),
    ] {
        let plan = DiagnosisPlan::new(
            ChainLayout::single_chain(view.len()),
            num_patterns,
            &BistConfig::new(groups, partitions, scheme),
        )
        .expect("plan builds");
        let mut acc = DrAccumulator::new();
        for (_, errors) in &cases {
            let outcome = plan.analyze(errors.iter_bits());
            let diag = diagnose(&plan, &outcome);
            acc.add(diag.num_candidates(), errors.failing_positions().len());
        }
        rows.push(vec![
            label.to_owned(),
            (partitions * usize::from(groups)).to_string(),
            "fixed".to_owned(),
            format!("{:.3}", acc.dr()),
        ]);
    }

    // Adaptive binary search: session count varies per fault.
    for budget in [64usize, 256, 4096] {
        let model = ResponseModel::new(ChainLayout::single_chain(view.len()), num_patterns, 16)
            .expect("model builds");
        let mut acc = DrAccumulator::new();
        let mut total_sessions = 0usize;
        for (_, errors) in &cases {
            let outcome = adaptive_binary_search(&model, errors.iter_bits(), budget);
            total_sessions += outcome.sessions_used;
            acc.add(outcome.candidates.len(), errors.failing_positions().len());
        }
        rows.push(vec![
            format!("adaptive (budget {budget})"),
            format!("{:.0}", total_sessions as f64 / cases.len() as f64),
            "adaptive".to_owned(),
            format!("{:.3}", acc.dr()),
        ]);
    }

    println!(
        "{}",
        render_table(&["scheme", "sessions/fault", "schedule", "DR"], &rows)
    );
    println!();
    println!("fixed = precomputed schedule (no interruptions); adaptive = masks recomputed between rounds");
    obs.finish();
}
