//! Scan chain integrity checking: the step that comes *before* logic
//! diagnosis. A stuck shift stage floods the response with constants;
//! flush tests localize it exactly, after which logic diagnosis can be
//! trusted.
//!
//! ```sh
//! cargo run --release --example chain_integrity
//! ```

use scan_bist_suite::prelude::*;
use scan_bist_suite::sim::chain_fault::flush_observation;
use scan_bist_suite::sim::{locate_chain_fault, simulate_chain_fault, ChainFault};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = scan_bist_suite::netlist::generate::benchmark("s953");
    let view = ScanView::natural(&circuit, true);
    let chain_cells = view.num_cells();
    println!("{}: scan chain of {chain_cells} cells", circuit.name());

    // A manufacturing defect breaks the shift path at cell 11.
    let defect = ChainFault {
        position: 11,
        stuck: true,
    };

    // Step 1: flush tests (no capture) — the standard chain integrity
    // check run before any logic test.
    let zeros = flush_observation(chain_cells, Some(&defect), false);
    let ones = flush_observation(chain_cells, Some(&defect), true);
    match locate_chain_fault(&zeros, &ones) {
        Some(found) => {
            println!(
                "flush test: chain defect at position {} stuck-at-{} — located exactly: {}",
                found.position,
                u8::from(found.stuck),
                found == defect
            );
            assert_eq!(found, defect);
        }
        None => println!("flush test: chain healthy"),
    }

    // Step 2: what the BIST session would have observed through the
    // broken chain — and why logic diagnosis must not run on it.
    let patterns = scan_bist_suite::diagnosis::lfsr_patterns(&circuit, 64, 0xACE1);
    let observed = simulate_chain_fault(&circuit, &view, &patterns, &defect)?;
    let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns)?;
    let flooded = observed.xor(psim.golden()).failing_positions().len();
    println!(
        "uncaught, the defect would look like {flooded} failing positions of {} — \
         far beyond any single logic fault",
        view.len()
    );

    // Step 3: with the chain repaired (or the defect known), logic
    // diagnosis proceeds normally.
    let (fault, errors) = psim.sample_detected_with_maps(1, 7).remove(0);
    let plan = DiagnosisPlan::new(
        ChainLayout::single_chain(view.len()),
        64,
        &BistConfig::new(4, 4, Scheme::TWO_STEP_DEFAULT),
    )?;
    let diag = diagnose_checked(&plan, &plan.analyze(errors.iter_bits()))?;
    println!(
        "healthy chain: logic fault {} narrows to {} candidate cells",
        fault.describe(&circuit),
        diag.num_candidates()
    );
    Ok(())
}
