//! BIST pattern-set quality: stuck-at fault coverage vs pseudorandom
//! pattern count, per benchmark — the substrate statistic behind the
//! "detected faults" sampled by every diagnosis campaign.

use scan_bench::{render_table, ObsSession};
use scan_diagnosis::lfsr_patterns;
use scan_netlist::{generate, ScanView};
use scan_sim::{FaultUniverse, PpsfpSimulator};

fn main() {
    let (obs, _rest) = ObsSession::start("coverage");
    let budgets = [16usize, 32, 64, 128, 256];
    println!("Pseudorandom stuck-at coverage (collapsed faults, LFSR PRPG seed 0xACE1)");
    println!();
    let mut rows = Vec::new();
    for name in ["s27", "s298", "s953", "s5378"] {
        let circuit = generate::benchmark(name);
        let view = ScanView::natural(&circuit, true);
        let universe = FaultUniverse::collapsed(&circuit);
        let mut cells = vec![name.to_owned(), universe.len().to_string()];
        for &n in &budgets {
            let patterns = lfsr_patterns(&circuit, n, 0xACE1);
            let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns).expect("shapes match");
            let detected = universe
                .faults()
                .iter()
                .filter(|f| psim.detects(f))
                .count();
            cells.push(format!(
                "{:.1}%",
                100.0 * detected as f64 / universe.len() as f64
            ));
        }
        rows.push(cells);
        eprintln!("  {name}: done");
    }
    let headers: Vec<String> = ["circuit".to_owned(), "faults".to_owned()]
        .into_iter()
        .chain(budgets.iter().map(|n| format!("{n} pat")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", render_table(&header_refs, &rows));
    obs.finish();
}
