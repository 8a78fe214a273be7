//! Run the diagnosis the way the silicon does: drive the Fig. 1
//! selection hardware and a stepwise MISR through every BIST session
//! with `VirtualTester`, and confirm the fast superposition engine
//! reaches the identical verdicts and candidates.
//!
//! ```sh
//! cargo run --release --example hardware_tester
//! ```

use scan_bist_suite::diagnosis::tester::VirtualTester;
use scan_bist_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = scan_bist_suite::netlist::generate::benchmark("s953");
    let view = ScanView::natural(&circuit, true);
    let num_patterns = 32usize;
    let patterns = scan_bist_suite::diagnosis::lfsr_patterns(&circuit, num_patterns, 0xACE1);
    let config = BistConfig::new(4, 3, Scheme::TWO_STEP_DEFAULT);

    let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns)?;
    let (fault, errors) = psim.sample_detected_with_maps(1, 42).remove(0);
    println!(
        "injecting {} into {} ({} cells under diagnosis)",
        fault.describe(&circuit),
        circuit.name(),
        view.len()
    );

    // Hardware path: cycle-accurate selection logic + stepwise MISR.
    let tester = VirtualTester::new(&circuit, &view, &patterns, config)?;
    let hw = tester.diagnose(&fault);
    println!(
        "hardware path: {} sessions, {} candidates",
        hw.sessions,
        hw.candidates.len()
    );

    // Fast path: linear superposition over the sparse error map.
    let plan = DiagnosisPlan::new(ChainLayout::single_chain(view.len()), num_patterns, &config)?;
    let outcome = plan.analyze_packed(errors.iter_words());
    let engine = diagnose_checked(&plan, &outcome)?;
    println!("fast engine:  {} candidates", engine.num_candidates());

    assert_eq!(&hw.candidates, engine.candidates());
    println!("both paths agree bit-for-bit ✓");
    Ok(())
}
