//! Extension experiment: weighted pseudo-random BIST patterns.
//!
//! Uniform pseudorandom patterns struggle with random-pattern-resistant
//! faults (deep AND/OR structures need improbable input combinations).
//! Biasing each stimulus bit toward the non-controlling value its
//! fanout wants (weights suggested by the SCOAP module) recovers some
//! of that coverage for free. This experiment compares uniform vs
//! weighted stuck-at coverage at equal pattern counts.

use scan_bench::render_table;
use scan_diagnosis::lfsr_patterns;
use scan_netlist::scoap::suggested_input_weights;
use scan_netlist::{generate, ScanView};
use scan_sim::{FaultUniverse, PatternSet, PpsfpSimulator};

fn main() {
    let obs = scan_bench::start_session("weighted");
    println!(
        "Uniform vs weighted pseudo-random coverage (collapsed stuck-at faults, 128 patterns)"
    );
    println!();
    let mut rows = Vec::new();
    for name in ["s298", "s953", "s5378", "s9234"] {
        let circuit = generate::benchmark(name);
        let view = ScanView::natural(&circuit, true);
        let universe = FaultUniverse::collapsed(&circuit);
        let coverage = |patterns: &PatternSet| -> f64 {
            let mut psim = PpsfpSimulator::new(&circuit, &view, patterns).expect("shapes match");
            let detected = universe
                .faults()
                .iter()
                .filter(|f| psim.detects(f))
                .count();
            100.0 * detected as f64 / universe.len().max(1) as f64
        };
        let uniform = coverage(&lfsr_patterns(&circuit, 128, 0xACE1));
        let (pi_w, state_w) = suggested_input_weights(&circuit);
        let weighted = coverage(&PatternSet::weighted(128, 0xACE1, &pi_w, &state_w));
        rows.push(vec![
            name.to_owned(),
            universe.len().to_string(),
            format!("{uniform:.1}%"),
            format!("{weighted:.1}%"),
            format!("{:+.1}", weighted - uniform),
        ]);
        eprintln!("  {name}: done");
    }
    println!(
        "{}",
        render_table(
            &["circuit", "faults", "uniform", "weighted", "delta (pts)"],
            &rows
        )
    );
    obs.finish(false);
}
