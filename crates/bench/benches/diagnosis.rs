//! End-to-end diagnosis benchmarks: session signature analysis,
//! candidate intersection, and pruning for one fault, plus the
//! per-scheme ablation the paper's comparison rests on.

use std::hint::black_box;

use scan_bench::timing::Bench;
use scan_bist::Scheme;
use scan_diagnosis::{
    diagnose, lfsr_patterns, prune_by_cover, BistConfig, ChainLayout, DiagnosisPlan,
};
use scan_netlist::{generate, ScanView};
use scan_sim::{ErrorMap, PpsfpSimulator};

fn prepared_error_map() -> (usize, ErrorMap) {
    let circuit = generate::benchmark("s5378");
    let view = ScanView::natural(&circuit, true);
    let patterns = lfsr_patterns(&circuit, 128, 0xACE1);
    let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns).expect("shapes match");
    let (_, errors) = psim.sample_detected_with_maps(1, 2003).remove(0);
    (view.len(), errors)
}

fn bench_plan_construction(b: &Bench) {
    for (label, scheme) in [
        ("random", Scheme::RandomSelection),
        ("two_step", Scheme::TWO_STEP_DEFAULT),
    ] {
        b.run(&format!("plan_construction_{label}"), || {
            black_box(
                DiagnosisPlan::new(
                    ChainLayout::single_chain(228),
                    128,
                    &BistConfig::new(8, 8, scheme),
                )
                .expect("plan builds"),
            )
        });
    }
}

fn bench_single_fault_diagnosis(b: &Bench) {
    let (chain_len, errors) = prepared_error_map();
    for (label, scheme) in [
        ("random", Scheme::RandomSelection),
        ("interval", Scheme::IntervalBased),
        ("two_step", Scheme::TWO_STEP_DEFAULT),
    ] {
        let plan = DiagnosisPlan::new(
            ChainLayout::single_chain(chain_len),
            128,
            &BistConfig::new(8, 8, scheme),
        )
        .expect("plan builds");
        b.run(&format!("single_fault_diagnosis_s5378_{label}"), || {
            let outcome = plan.analyze(errors.iter_bits());
            let diag = diagnose(&plan, &outcome);
            let pruned = prune_by_cover(&plan, &outcome, diag.candidates());
            black_box((diag.num_candidates(), pruned.len()))
        });
    }
}

fn main() {
    let b = Bench::new("diagnosis", 30);
    bench_plan_construction(&b);
    bench_single_fault_diagnosis(&b);
}
