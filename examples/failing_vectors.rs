//! Time-domain diagnosis: identify the failing test *vectors* (which
//! patterns exposed the defect) from the same BIST signatures used for
//! failing-cell identification — the companion scheme of the paper's
//! reference [4].
//!
//! ```sh
//! cargo run --release --example failing_vectors
//! ```

use scan_bist_suite::diagnosis::vector_diag::{actual_failing_vectors, VectorDiagnosisPlan};
use scan_bist_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = scan_bist_suite::netlist::generate::benchmark("s953");
    let view = ScanView::natural(&circuit, true);
    let num_patterns = 128usize;
    let patterns = scan_bist_suite::diagnosis::lfsr_patterns(&circuit, num_patterns, 0xACE1);
    let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns)?;

    // One fault; which patterns exposed it?
    let (fault, errors) = psim.sample_detected_with_maps(1, 2003).remove(0);
    let bits: Vec<(usize, usize)> = errors.iter_bits().collect();
    let actual = actual_failing_vectors(num_patterns, bits.iter().copied());
    println!(
        "fault {}: {} of {num_patterns} patterns actually failed",
        fault.describe(&circuit),
        actual.len()
    );

    // Diagnose from pattern-axis sessions: 8 pattern-groups, 4
    // partitions, two-step.
    let model = ResponseModel::new(ChainLayout::single_chain(view.len()), num_patterns, 16)?;
    let plan = VectorDiagnosisPlan::new(model, 8, 4, Scheme::TWO_STEP_DEFAULT, 16, 1)?;
    let outcome = plan.analyze(bits.iter().copied());
    let candidates = plan.diagnose(&outcome);
    println!(
        "diagnosed {} candidate failing vectors: {:?}",
        candidates.len(),
        candidates.iter().take(16).collect::<Vec<_>>()
    );
    assert!(actual.is_subset(&candidates), "no false negatives");
    println!("every actually-failing vector is among the candidates ✓");
    Ok(())
}
