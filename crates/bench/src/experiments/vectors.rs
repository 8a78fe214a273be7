//! Extension experiment: failing test *vector* identification — the
//! time-domain companion scheme of the paper's reference \[4\] (Liu,
//! Chakrabarty & Gössel, DATE 2002), reproduced on the same fault
//! evidence as the failing-cell experiments.
//!
//! Sessions mask whole patterns; partitions group pattern indices;
//! intersecting failing groups identifies the failing vectors. The
//! resolution metric mirrors DR with vectors in place of cells.

use scan_bist::Scheme;
use scan_diagnosis::vector_diag::{actual_failing_vectors, VectorDiagnosisPlan};
use scan_diagnosis::{lfsr_patterns, ChainLayout, DrAccumulator, ResponseModel};
use scan_netlist::{generate, ScanView};
use scan_sim::PpsfpSimulator;

use crate::report::{Cell, Report};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    report.line(
        "Failing-vector identification — 128 patterns, 8 pattern-groups, 4 partitions, 300 faults",
    );
    report.line("");
    let mut rows = Vec::new();
    for name in ["s953", "s5378", "s9234"] {
        let circuit = generate::benchmark(name);
        let view = ScanView::natural(&circuit, true);
        let patterns = lfsr_patterns(&circuit, 128, 0xACE1);
        let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns).expect("shapes match");
        let cases = psim.sample_detected_with_maps(300, 2003);

        let mut row = vec![Cell::text(name)];
        for scheme in [
            Scheme::IntervalBased,
            Scheme::RandomSelection,
            Scheme::TWO_STEP_DEFAULT,
        ] {
            let model = ResponseModel::new(ChainLayout::single_chain(view.len()), 128, 16)
                .expect("model builds");
            let plan = VectorDiagnosisPlan::new(model, 8, 4, scheme, 16, 1).expect("plan builds");
            let mut acc = DrAccumulator::new();
            for (_, errors) in &cases {
                let bits: Vec<(usize, usize)> = errors.iter_bits().collect();
                let outcome = plan.analyze(bits.iter().copied());
                let candidates = plan.diagnose(&outcome);
                let actual = actual_failing_vectors(128, bits.iter().copied());
                acc.add(candidates.len(), actual.len());
            }
            row.push(Cell::dr(acc.dr()));
        }
        rows.push(row);
        eprintln!("  {name}: done");
    }
    report.table(
        &[
            "circuit",
            "vector-DR interval",
            "vector-DR random",
            "vector-DR two-step",
        ],
        rows,
    );
    report.line("");
    report.line(
        "vector-DR = (Σ candidate vectors − Σ actual failing vectors) / Σ actual failing vectors",
    );
    report
}
