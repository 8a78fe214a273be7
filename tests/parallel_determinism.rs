//! Serial and parallel diagnosis campaigns over the same injected
//! fault set must produce bit-identical reports at any thread count —
//! the determinism guarantee of `scan_diagnosis::parallel`.

#![allow(clippy::float_cmp)] // bit-identical results are the contract

use scan_bist_suite::bist::Scheme;
use scan_bist_suite::diagnosis::{CampaignSpec, PreparedCampaign};
use scan_bist_suite::netlist::generate;
use scan_bist_suite::soc::{CoreModule, Soc};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

const SCHEMES: [Scheme; 4] = [
    Scheme::RandomSelection,
    Scheme::IntervalBased,
    Scheme::TWO_STEP_DEFAULT,
    Scheme::FixedInterval,
];

fn circuit_campaign() -> PreparedCampaign {
    let circuit = generate::benchmark("s953");
    let mut spec = CampaignSpec::new(100, 4, 4);
    spec.num_faults = 60;
    PreparedCampaign::from_circuit(&circuit, &spec).expect("campaign prepares")
}

#[test]
fn parallel_dr_is_bit_identical_across_thread_counts() {
    let campaign = circuit_campaign();
    for scheme in SCHEMES {
        let serial = campaign.run(scheme).expect("serial run");
        for threads in THREAD_COUNTS {
            let par = campaign
                .run_parallel(scheme, threads)
                .expect("parallel run");
            assert_eq!(
                par.dr, serial.dr,
                "{scheme:?} DR differs at {threads} threads"
            );
            assert_eq!(par.dr_pruned, serial.dr_pruned);
            assert_eq!(par.dr_by_prefix, serial.dr_by_prefix);
            assert_eq!(par.mean_candidates, serial.mean_candidates);
            assert_eq!(par.mean_actual, serial.mean_actual);
            assert_eq!(par.lost_cells, serial.lost_cells);
            assert_eq!(par.faults, serial.faults);
        }
    }
}

#[test]
fn parallel_x_masked_campaign_stays_deterministic() {
    let circuit = generate::benchmark("s953");
    let mut spec = CampaignSpec::new(64, 4, 4);
    spec.num_faults = 40;
    spec.x_mask_fraction = 0.1;
    let campaign = PreparedCampaign::from_circuit(&circuit, &spec).expect("campaign prepares");
    let serial = campaign.run(Scheme::TWO_STEP_DEFAULT).expect("serial run");
    for threads in THREAD_COUNTS {
        let par = campaign
            .run_parallel(Scheme::TWO_STEP_DEFAULT, threads)
            .expect("parallel run");
        assert_eq!(par.dr, serial.dr);
        assert_eq!(par.dr_pruned, serial.dr_pruned);
        assert_eq!(par.lost_cells, serial.lost_cells);
    }
}

#[test]
fn parallel_soc_localization_is_bit_identical() {
    let cores = vec![
        CoreModule::new(generate::benchmark("s298")),
        CoreModule::new(generate::benchmark("s344")),
        CoreModule::new(generate::benchmark("s386")),
    ];
    let soc = Soc::single_chain("trio", cores).expect("soc builds");
    let mut spec = CampaignSpec::new(64, 8, 6);
    spec.num_faults = 25;
    let campaign = PreparedCampaign::from_soc(&soc, 1, &spec).expect("campaign prepares");
    let serial_loc = campaign
        .run_localization(Scheme::TWO_STEP_DEFAULT)
        .expect("serial localization");
    let serial_dr = campaign.run(Scheme::TWO_STEP_DEFAULT).expect("serial run");
    for threads in THREAD_COUNTS {
        let par_loc = campaign
            .run_localization_parallel(Scheme::TWO_STEP_DEFAULT, threads)
            .expect("parallel localization");
        assert_eq!(par_loc.top1_accuracy, serial_loc.top1_accuracy);
        assert_eq!(par_loc.mean_margin, serial_loc.mean_margin);
        let par_dr = campaign
            .run_parallel(Scheme::TWO_STEP_DEFAULT, threads)
            .expect("parallel run");
        assert_eq!(par_dr.dr, serial_dr.dr);
        assert_eq!(par_dr.dr_by_prefix, serial_dr.dr_by_prefix);
    }
}

#[test]
fn parallel_robust_campaign_is_bit_identical_under_noise() {
    use scan_bist_suite::diagnosis::{NoiseConfig, NoiseModel, RobustPolicy};
    let campaign = circuit_campaign();
    let mut cfg = NoiseConfig::noiseless(17);
    cfg.flip_rate = 0.03;
    cfg.dropout_rate = 0.01;
    cfg.intermittent_rate = 0.1;
    cfg.intermittent_miss = 0.4;
    cfg.x_corrupt_fraction = 0.02;
    let noise = NoiseModel::new(cfg).expect("valid noise config");
    let policy = RobustPolicy::default();
    let serial = campaign
        .run_robust(Scheme::TWO_STEP_DEFAULT, &noise, &policy)
        .expect("serial robust run");
    assert!(serial.exact < serial.faults, "noise must perturb something");
    for threads in THREAD_COUNTS {
        let par = campaign
            .run_robust_parallel(Scheme::TWO_STEP_DEFAULT, &noise, &policy, threads)
            .expect("parallel robust run");
        assert_eq!(
            par.exact, serial.exact,
            "exact differs at {threads} threads"
        );
        assert_eq!(par.degraded, serial.degraded);
        assert_eq!(par.inconclusive, serial.inconclusive);
        assert_eq!(par.dr, serial.dr);
        assert_eq!(par.mean_candidates, serial.mean_candidates);
        assert_eq!(par.retry_rounds, serial.retry_rounds);
        assert_eq!(par.retried_sessions, serial.retried_sessions);
        assert_eq!(par.fallbacks, serial.fallbacks);
        assert_eq!(par.strict_failures, serial.strict_failures);
        assert_eq!(par.recovered, serial.recovered);
        assert_eq!(par.hits, serial.hits);
    }
}

#[test]
fn auto_thread_count_is_deterministic_too() {
    let campaign = circuit_campaign();
    let serial = campaign.run(Scheme::IntervalBased).expect("serial run");
    let auto = campaign
        .run_parallel(Scheme::IntervalBased, 0)
        .expect("auto run");
    assert_eq!(auto.dr, serial.dr);
    assert_eq!(auto.dr_by_prefix, serial.dr_by_prefix);
}
