//! Quickstart: parse a `.bench` netlist, inject a stuck-at fault, and
//! identify the failing scan cells with two-step partitioning.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use scan_bist_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A circuit: the real ISCAS-89 s27 netlist, full-scan.
    let circuit = scan_bist_suite::netlist::bench::s27();
    let view = ScanView::natural(&circuit, true);
    println!(
        "{}: {} gates, {} scan cells (+{} POs observed)",
        circuit.name(),
        circuit.num_gates(),
        circuit.num_dffs(),
        circuit.num_outputs()
    );

    // 2. A BIST session: 64 pseudo-random patterns from the LFSR PRPG.
    let patterns = scan_bist_suite::diagnosis::lfsr_patterns(&circuit, 64, 0xACE1);
    let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns)?;

    // 3. Inject a fault the tester doesn't know about.
    let net = circuit.find_net("G10").expect("net exists");
    let fault = Fault::stem(net, true);
    let errors = psim.error_map(&fault);
    let truth: Vec<usize> = errors.failing_positions().iter().collect();
    println!(
        "injected {}: true failing cells {truth:?}",
        fault.describe(&circuit)
    );

    // 4. Diagnose from signatures only: 2 groups per partition, 3
    //    partitions, two-step scheme.
    let plan = DiagnosisPlan::new(
        ChainLayout::single_chain(view.len()),
        64,
        &BistConfig::new(2, 3, Scheme::TWO_STEP_DEFAULT),
    )?;
    let outcome = plan.analyze_packed(errors.iter_words());
    let diag = diagnose_checked(&plan, &outcome)?;
    let suspects: Vec<usize> = diag.candidates().iter().collect();
    println!("diagnosed candidate failing cells: {suspects:?}");

    // 5. The candidates always contain the truth (no false negatives
    //    without signature aliasing).
    for cell in &truth {
        assert!(diag.candidates().contains(*cell));
    }
    println!("all true failing cells are in the candidate set ✓");
    Ok(())
}
