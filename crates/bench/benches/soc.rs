//! Benchmarks for the SOC pipeline: SOC construction, campaign
//! preparation (pattern generation + fault sampling + error maps), and
//! meta-chain diagnosis of one fault on the paper's SOC 1 — including
//! the serial-vs-parallel campaign comparison the `parallel` module
//! exists for.

use std::hint::black_box;

use scan_bench::timing::Bench;
use scan_bist::Scheme;
use scan_diagnosis::{diagnose, CampaignSpec, ChainLayout, DiagnosisPlan, PreparedCampaign};
use scan_sim::PpsfpSimulator;
use scan_soc::d695;

fn bench_soc_construction(b: &Bench) {
    b.run("soc1_construction_six_largest", || {
        black_box(d695::soc1().expect("SOC 1 builds"))
    });
}

fn bench_campaign_preparation(b: &Bench) {
    let soc = d695::soc1().expect("SOC 1 builds");
    let mut spec = CampaignSpec::new(128, 32, 8);
    spec.num_faults = 50;
    b.run("campaign_prep_s9234_core_50_faults", || {
        black_box(PreparedCampaign::from_soc(&soc, 0, &spec).expect("campaign prepares"))
    });
}

fn bench_campaign_run_serial_vs_parallel(b: &Bench) {
    let soc = d695::soc1().expect("SOC 1 builds");
    let mut spec = CampaignSpec::new(128, 32, 8);
    spec.num_faults = 50;
    let campaign = PreparedCampaign::from_soc(&soc, 0, &spec).expect("campaign prepares");
    b.run("campaign_run_serial_50_faults", || {
        black_box(campaign.run(Scheme::TWO_STEP_DEFAULT).expect("runs"))
    });
    b.run("campaign_run_parallel_auto_50_faults", || {
        black_box(
            campaign
                .run_parallel(Scheme::TWO_STEP_DEFAULT, 0)
                .expect("runs"),
        )
    });
}

fn bench_meta_chain_diagnosis(b: &Bench) {
    let soc = d695::soc1().expect("SOC 1 builds");
    let core = &soc.cores()[0];
    let patterns = scan_diagnosis::lfsr_patterns(core.netlist(), 128, 0xACE1);
    let mut psim = PpsfpSimulator::new(core.netlist(), core.view(), &patterns).expect("shapes");
    let (_, errors) = psim.sample_detected_with_maps(1, 1).remove(0);
    let mut local_to_global = vec![usize::MAX; core.view().len()];
    for (global, (cell, _, _)) in soc.layout().into_iter().enumerate() {
        if cell.core == 0 {
            local_to_global[cell.local as usize] = global;
        }
    }
    let bits: Vec<(usize, usize)> = errors
        .iter_bits()
        .map(|(pos, pat)| (local_to_global[pos], pat))
        .collect();
    let plan = DiagnosisPlan::new(
        ChainLayout::from_soc(&soc),
        128,
        &scan_diagnosis::BistConfig::new(32, 8, Scheme::TWO_STEP_DEFAULT),
    )
    .expect("plan builds");
    b.run("meta_chain_diagnosis_one_fault_7244_cells", || {
        let outcome = plan.analyze(bits.iter().copied());
        black_box(diagnose(&plan, &outcome).num_candidates())
    });
}

fn main() {
    let b = Bench::new("soc", 10);
    bench_soc_construction(&b);
    bench_campaign_preparation(&b);
    bench_campaign_run_serial_vs_parallel(&b);
    bench_meta_chain_diagnosis(&b);
}
