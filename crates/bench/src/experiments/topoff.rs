//! Pattern-source comparison: pseudorandom BIST patterns vs
//! deterministic ATPG, and the deterministic top-off a hybrid flow
//! would store.
//!
//! For each circuit: the coverage of 128 pseudorandom patterns, the
//! coverage and pattern count of pure PODEM with fault dropping, and
//! the number of deterministic cubes needed to top off the
//! random-resistant faults.

use scan_atpg::{run_atpg, Podem, PodemLimits, PodemResult};
use scan_diagnosis::lfsr_patterns;
use scan_netlist::{generate, ScanView};
use scan_sim::{FaultUniverse, PpsfpSimulator};

use crate::report::{Cell, Report};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    report.line("Pseudorandom vs deterministic pattern sources (collapsed stuck-at faults)");
    report.line("");
    let mut rows = Vec::new();
    for name in ["s27", "s298", "s386", "s953"] {
        let circuit = generate::benchmark(name);
        let view = ScanView::natural(&circuit, true);
        let universe = FaultUniverse::collapsed(&circuit);

        // Pseudorandom BIST session.
        let patterns = lfsr_patterns(&circuit, 128, 0xACE1);
        let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns).expect("shapes match");
        let random_detected: Vec<bool> =
            universe.faults().iter().map(|f| psim.detects(f)).collect();
        let random_cov =
            random_detected.iter().filter(|&&d| d).count() as f64 / universe.len().max(1) as f64;

        // Pure deterministic ATPG.
        let atpg = run_atpg(&circuit, &PodemLimits::default(), 1);

        // Top-off: PODEM only for the faults the random session missed.
        let mut podem = Podem::new(&circuit);
        let mut topoff_cubes = 0usize;
        let mut still_undetected = 0usize;
        for (fault, &hit) in universe.faults().iter().zip(&random_detected) {
            if hit || !scan_sim::site_has_fanout(&circuit, fault) {
                continue;
            }
            match podem.generate(fault, &PodemLimits::default()) {
                PodemResult::Test(_) => topoff_cubes += 1,
                PodemResult::Untestable => {}
                PodemResult::Aborted => still_undetected += 1,
            }
        }

        rows.push(vec![
            Cell::text(name),
            Cell::count(universe.len()),
            Cell::percent(random_cov * 100.0, 1),
            Cell::percent(atpg.coverage() * 100.0, 1),
            Cell::count(atpg.patterns.len()),
            Cell::count(atpg.redundant),
            Cell::count(topoff_cubes),
            Cell::count(still_undetected),
        ]);
        eprintln!("  {name}: done");
    }
    report.table(
        &[
            "circuit",
            "faults",
            "random cov (128)",
            "ATPG cov",
            "ATPG patterns",
            "redundant",
            "top-off cubes",
            "aborted",
        ],
        rows,
    );
    report.line("");
    report.line("top-off cubes = deterministic tests for faults the 128 pseudorandom patterns miss");
    report
}
