//! Cross-crate integration tests: the full pipeline from netlist text
//! to diagnosed failing cells, exercised end to end.

use scan_bist_suite::netlist::{bench, generate};
use scan_bist_suite::prelude::*;

fn s953() -> Netlist {
    generate::benchmark("s953")
}

#[test]
fn diagnosis_contains_truth_for_every_s27_fault() {
    // Without signature aliasing, the candidate set must contain every
    // true failing cell; verify for the whole collapsed universe of the
    // real s27 netlist under all schemes.
    let circuit = bench::s27();
    let view = ScanView::natural(&circuit, true);
    let patterns = scan_bist_suite::diagnosis::lfsr_patterns(&circuit, 64, 1);
    let fsim = FaultSimulator::new(&circuit, &view, &patterns).unwrap();
    for scheme in [
        Scheme::RandomSelection,
        Scheme::IntervalBased,
        Scheme::TWO_STEP_DEFAULT,
        Scheme::FixedInterval,
    ] {
        let plan = DiagnosisPlan::new(
            ChainLayout::single_chain(view.len()),
            64,
            &BistConfig::new(2, 3, scheme),
        )
        .unwrap();
        for fault in FaultUniverse::collapsed(&circuit).faults() {
            let errors = fsim.error_map(fault);
            if !errors.is_detected() {
                continue;
            }
            let outcome = plan.analyze(errors.iter_bits());
            let diag = diagnose_checked(&plan, &outcome)
                .expect("a detected fault yields a consistent failing history");
            for cell in errors.failing_positions().iter() {
                // A 16-bit MISR aliases with probability ~2^-16 per
                // session; none of s27's few dozen faults hits it.
                assert!(
                    diag.candidates().contains(cell),
                    "scheme {scheme:?}, fault {} lost true cell {cell}",
                    fault.describe(&circuit)
                );
            }
        }
    }
}

#[test]
fn two_step_beats_random_selection_at_few_partitions() {
    // The paper's headline: with few partitions, two-step (clustering-
    // aware) resolves better than pure random selection on a circuit
    // with clustered failing cells.
    let circuit = s953();
    let mut spec = CampaignSpec::new(128, 4, 4);
    spec.num_faults = 150;
    let campaign = PreparedCampaign::from_circuit(&circuit, &spec).unwrap();
    let random = campaign.run(Scheme::RandomSelection).unwrap();
    let two_step = campaign.run(Scheme::TWO_STEP_DEFAULT).unwrap();
    assert!(
        two_step.dr_by_prefix[0] < random.dr_by_prefix[0],
        "after 1 partition: two-step {} vs random {}",
        two_step.dr_by_prefix[0],
        random.dr_by_prefix[0]
    );
    assert!(
        two_step.dr <= random.dr * 1.15,
        "after 4 partitions two-step must stay competitive: {} vs {}",
        two_step.dr,
        random.dr
    );
}

#[test]
fn interval_saturates_but_random_keeps_improving() {
    // Section 3's motivation: interval-only partitioning loses to
    // random selection once many partitions are used.
    let circuit = s953();
    let mut spec = CampaignSpec::new(128, 4, 8);
    spec.num_faults = 100;
    let campaign = PreparedCampaign::from_circuit(&circuit, &spec).unwrap();
    let random = campaign.run(Scheme::RandomSelection).unwrap();
    let interval = campaign.run(Scheme::IntervalBased).unwrap();
    assert!(
        random.dr < interval.dr,
        "8 partitions: random {} must beat interval {}",
        random.dr,
        interval.dr
    );
}

#[test]
fn pruning_improves_or_preserves_dr() {
    let circuit = s953();
    let mut spec = CampaignSpec::new(128, 8, 4);
    spec.num_faults = 100;
    let campaign = PreparedCampaign::from_circuit(&circuit, &spec).unwrap();
    for scheme in [Scheme::RandomSelection, Scheme::TWO_STEP_DEFAULT] {
        let report = campaign.run(scheme).unwrap();
        assert!(
            report.dr_pruned <= report.dr + 1e-12,
            "{scheme:?}: pruned {} > unpruned {}",
            report.dr_pruned,
            report.dr
        );
    }
}

#[test]
fn fixed_interval_gains_nothing_from_extra_partitions() {
    // Every fixed-interval partition is identical, so partitions 2..n
    // cannot refine the candidate set.
    let circuit = s953();
    let mut spec = CampaignSpec::new(64, 4, 5);
    spec.num_faults = 50;
    let campaign = PreparedCampaign::from_circuit(&circuit, &spec).unwrap();
    let report = campaign.run(Scheme::FixedInterval).unwrap();
    for w in report.dr_by_prefix.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-12, "prefix DRs differ: {w:?}");
    }
}

#[test]
fn bench_roundtrip_preserves_behaviour() {
    // Writing a netlist to .bench text and re-parsing it must preserve
    // functional behaviour: identical golden responses and identical
    // diagnosis for the same named fault. (Net *numbering* may change,
    // so sampled fault campaigns are not expected to be bit-identical.)
    let original = generate::benchmark("s386");
    let reparsed =
        Netlist::from_bench("s386", &original.to_bench_string()).expect("roundtrip parses");
    let view_a = ScanView::natural(&original, true);
    let view_b = ScanView::natural(&reparsed, true);
    let patterns_a = scan_bist_suite::diagnosis::lfsr_patterns(&original, 64, 5);
    let patterns_b = scan_bist_suite::diagnosis::lfsr_patterns(&reparsed, 64, 5);
    let fsim_a = FaultSimulator::new(&original, &view_a, &patterns_a).unwrap();
    let fsim_b = FaultSimulator::new(&reparsed, &view_b, &patterns_b).unwrap();
    assert_eq!(fsim_a.golden(), fsim_b.golden(), "golden responses differ");

    // Same named net, same stuck value → identical error maps.
    let name = "d3";
    let fault_a = Fault::stem(original.find_net(name).unwrap(), true);
    let fault_b = Fault::stem(reparsed.find_net(name).unwrap(), true);
    assert_eq!(fsim_a.error_map(&fault_a), fsim_b.error_map(&fault_b));
}

#[test]
fn multi_chain_soc_diagnosis_locates_faulty_core_region() {
    // On a balanced multi-chain SOC, the diagnosed candidates for a
    // fault in core k should be dominated by core k's cells once enough
    // partitions are used.
    use scan_bist_suite::soc::Soc;
    let cores = vec![
        CoreModule::new(generate::benchmark("s344")),
        CoreModule::new(generate::benchmark("s298")),
        CoreModule::new(generate::benchmark("s386")),
    ];
    let soc = Soc::balanced("trio", cores, 2).unwrap();
    let mut spec = CampaignSpec::new(64, 4, 6);
    spec.num_faults = 30;
    let faulty = 2usize;
    let campaign = PreparedCampaign::from_soc(&soc, faulty, &spec).unwrap();
    let report = campaign.run(Scheme::TWO_STEP_DEFAULT).unwrap();
    // Strong-but-robust property: mean candidates stays well below the
    // total SOC positions (the other cores are mostly pruned).
    assert!(
        report.mean_candidates < soc.total_positions() as f64 / 2.0,
        "mean candidates {} vs {} positions",
        report.mean_candidates,
        soc.total_positions()
    );
}

#[test]
fn campaign_prefix_equals_shorter_campaign() {
    // dr_by_prefix[k-1] of an n-partition run must equal the DR of a
    // k-partition run (prefix property of all schemes).
    let circuit = generate::benchmark("s386");
    let mut spec8 = CampaignSpec::new(64, 4, 6);
    spec8.num_faults = 40;
    let mut spec3 = spec8;
    spec3.partitions = 3;
    for scheme in [
        Scheme::RandomSelection,
        Scheme::IntervalBased,
        Scheme::TWO_STEP_DEFAULT,
    ] {
        let long = PreparedCampaign::from_circuit(&circuit, &spec8)
            .unwrap()
            .run(scheme)
            .unwrap();
        let short = PreparedCampaign::from_circuit(&circuit, &spec3)
            .unwrap()
            .run(scheme)
            .unwrap();
        assert!(
            (long.dr_by_prefix[2] - short.dr).abs() < 1e-12,
            "{scheme:?}: prefix {} vs short-run {}",
            long.dr_by_prefix[2],
            short.dr
        );
    }
}
