//! BIST pattern-set quality: stuck-at fault coverage vs pseudorandom
//! pattern count, per benchmark — the substrate statistic behind the
//! "detected faults" sampled by every diagnosis campaign.

use scan_diagnosis::lfsr_patterns;
use scan_netlist::{generate, ScanView};
use scan_sim::{FaultUniverse, PpsfpSimulator};

use crate::report::{Cell, Report};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let budgets = [16usize, 32, 64, 128, 256];
    report.line("Pseudorandom stuck-at coverage (collapsed faults, LFSR PRPG seed 0xACE1)");
    report.line("");
    let mut rows = Vec::new();
    for name in ["s27", "s298", "s953", "s5378"] {
        let circuit = generate::benchmark(name);
        let view = ScanView::natural(&circuit, true);
        let universe = FaultUniverse::collapsed(&circuit);
        let mut cells = vec![Cell::text(name), Cell::count(universe.len())];
        for &n in &budgets {
            let patterns = lfsr_patterns(&circuit, n, 0xACE1);
            let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns).expect("shapes match");
            let detected = universe.faults().iter().filter(|f| psim.detects(f)).count();
            cells.push(Cell::percent(
                100.0 * detected as f64 / universe.len() as f64,
                1,
            ));
        }
        rows.push(cells);
        eprintln!("  {name}: done");
    }
    let headers: Vec<String> = ["circuit".to_owned(), "faults".to_owned()]
        .into_iter()
        .chain(budgets.iter().map(|n| format!("{n} pat")))
        .collect();
    report.table(&headers, rows);
    report
}
