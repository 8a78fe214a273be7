//! A small DFT flow: measure pseudorandom BIST coverage, prove the
//! leftover faults redundant or top them off with PODEM cubes, and
//! export the circuit to structural Verilog for inspection.
//!
//! ```sh
//! cargo run --release --example atpg_flow [circuit]
//! ```

use scan_atpg::{run_atpg, Podem, PodemLimits, PodemResult};
use scan_bist_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "s953".to_owned());
    let circuit = scan_bist_suite::netlist::generate::benchmark(&name);
    let view = ScanView::natural(&circuit, true);
    println!(
        "{name}: {} gates, {} FFs, depth {}",
        circuit.num_gates(),
        circuit.num_dffs(),
        circuit.depth()
    );

    // 1. Pseudorandom BIST session.
    let patterns = scan_bist_suite::diagnosis::lfsr_patterns(&circuit, 128, 0xACE1);
    let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns)?;
    let universe = FaultUniverse::collapsed(&circuit);
    let missed: Vec<Fault> = universe
        .faults()
        .iter()
        .filter(|f| !psim.detects(f))
        .copied()
        .collect();
    println!(
        "128 pseudorandom patterns detect {}/{} collapsed faults",
        universe.len() - missed.len(),
        universe.len()
    );

    // 2. Resolve the leftovers deterministically.
    let mut podem = Podem::new(&circuit);
    let (mut cubes, mut redundant, mut aborted) = (0usize, 0usize, 0usize);
    for fault in &missed {
        match podem.generate(fault, &PodemLimits::default()) {
            PodemResult::Test(_) => cubes += 1,
            PodemResult::Untestable => redundant += 1,
            PodemResult::Aborted => aborted += 1,
        }
    }
    println!(
        "top-off: {cubes} deterministic cubes, {redundant} proven redundant, {aborted} aborted"
    );

    // 3. Full standalone ATPG for comparison.
    let atpg = run_atpg(&circuit, &PodemLimits::default(), 1);
    println!(
        "pure ATPG: {} patterns, coverage {:.1}%, efficiency {:.1}%",
        atpg.patterns.len(),
        atpg.coverage() * 100.0,
        atpg.efficiency() * 100.0
    );

    // 4. Export for external tools.
    let verilog = scan_bist_suite::netlist::verilog::to_verilog(&circuit);
    let path = std::env::temp_dir().join(format!("{name}.v"));
    std::fs::write(&path, verilog)?;
    println!("wrote structural Verilog to {}", path.display());
    Ok(())
}
