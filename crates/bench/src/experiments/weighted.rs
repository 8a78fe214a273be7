//! Extension experiment: weighted pseudo-random BIST patterns.
//!
//! Uniform pseudorandom patterns struggle with random-pattern-resistant
//! faults (deep AND/OR structures need improbable input combinations).
//! Biasing each stimulus bit toward the non-controlling value its
//! fanout wants (weights suggested by the SCOAP module) recovers some
//! of that coverage for free. This experiment compares uniform vs
//! weighted stuck-at coverage at equal pattern counts.

use scan_diagnosis::lfsr_patterns;
use scan_netlist::scoap::suggested_input_weights;
use scan_netlist::{generate, ScanView};
use scan_sim::{FaultUniverse, PatternSet, PpsfpSimulator};

use crate::report::{Cell, Report};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    report.line(
        "Uniform vs weighted pseudo-random coverage (collapsed stuck-at faults, 128 patterns)",
    );
    report.line("");
    let mut rows = Vec::new();
    for name in ["s298", "s953", "s5378", "s9234"] {
        let circuit = generate::benchmark(name);
        let view = ScanView::natural(&circuit, true);
        let universe = FaultUniverse::collapsed(&circuit);
        let coverage = |patterns: &PatternSet| -> f64 {
            let mut psim = PpsfpSimulator::new(&circuit, &view, patterns).expect("shapes match");
            let detected = universe.faults().iter().filter(|f| psim.detects(f)).count();
            100.0 * detected as f64 / universe.len().max(1) as f64
        };
        let uniform = coverage(&lfsr_patterns(&circuit, 128, 0xACE1));
        let (pi_w, state_w) = suggested_input_weights(&circuit);
        let weighted = coverage(&PatternSet::weighted(128, 0xACE1, &pi_w, &state_w));
        let delta = weighted - uniform;
        rows.push(vec![
            Cell::text(name),
            Cell::count(universe.len()),
            Cell::percent(uniform, 1),
            Cell::percent(weighted, 1),
            Cell::Num(delta, format!("{delta:+.1}")),
        ]);
        eprintln!("  {name}: done");
    }
    report.table(
        &["circuit", "faults", "uniform", "weighted", "delta (pts)"],
        rows,
    );
    report
}
