//! Integration: descriptor-driven SOC flows — from `.soc` text through
//! campaign, localization, and chain-masked diagnosis.

use scan_bist_suite::diagnosis::chain_mask::{analyze_chain_masked, diagnose_chain_masked};
use scan_bist_suite::prelude::*;

const TRIO_SOC: &str = "
# three small cores on a 2-bit TAM
soc trio
tam 2
core s298
core s344
core s386
";

#[test]
fn descriptor_to_localization() {
    let descriptor = SocDescriptor::parse(TRIO_SOC).expect("descriptor parses");
    assert_eq!(descriptor.tam_width, 2);
    let soc = descriptor.build().expect("SOC builds");
    assert_eq!(soc.num_chains(), 2);

    let mut spec = CampaignSpec::new(64, 4, 5);
    spec.num_faults = 25;
    for faulty in 0..soc.cores().len() {
        let campaign = PreparedCampaign::from_soc(&soc, faulty, &spec).expect("campaign prepares");
        let report = campaign
            .run_localization(Scheme::TWO_STEP_DEFAULT)
            .expect("localization runs");
        assert!(
            report.top1_accuracy >= 0.6,
            "core {faulty}: accuracy {}",
            report.top1_accuracy
        );
    }
}

#[test]
fn chain_masking_beats_baseline_on_multi_chain_soc() {
    let soc = SocDescriptor::parse(TRIO_SOC)
        .unwrap()
        .build()
        .expect("SOC builds");
    let layout = ChainLayout::from_soc(&soc);
    let plan = DiagnosisPlan::new(layout, 64, &BistConfig::new(4, 5, Scheme::TWO_STEP_DEFAULT))
        .expect("plan builds");

    // Evidence from one fault in core 1.
    let core = &soc.cores()[1];
    let patterns = scan_bist_suite::diagnosis::lfsr_patterns(core.netlist(), 64, 7);
    let fsim = FaultSimulator::new(core.netlist(), core.view(), &patterns).expect("shapes");
    let fault = fsim.sample_detected_faults(1, 3)[0];
    let mut local_to_global = vec![usize::MAX; core.view().len()];
    for (global, (cell, _, _)) in soc.layout().into_iter().enumerate() {
        if cell.core == 1 {
            local_to_global[cell.local as usize] = global;
        }
    }
    let words: Vec<(usize, usize, u64)> = fsim
        .error_map(&fault)
        .iter_words()
        .map(|(pos, w, bits)| (local_to_global[pos], w, bits))
        .collect();

    let baseline = scan_bist_suite::diagnosis::diagnose_checked(
        &plan,
        &plan.analyze_packed(words.iter().copied()),
    )
    .expect("injected chain fault yields a consistent failing history");
    let masked = diagnose_chain_masked(&plan, &analyze_chain_masked(&plan, words.iter().copied()));
    assert!(masked.is_subset(baseline.candidates()));
    for &(cell, _, _) in &words {
        assert!(masked.contains(cell), "lost error cell {cell}");
    }
}

#[test]
fn descriptor_errors_are_reported() {
    assert!(SocDescriptor::parse("tam 4\ncore s27\n").is_err()); // missing soc name
    assert!(SocDescriptor::parse("soc x\ncore mystery9000\n").is_err());
}
