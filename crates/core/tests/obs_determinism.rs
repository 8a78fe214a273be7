//! Observability must never perturb results: every RNG stream and every
//! diagnosis aggregate must be bit-identical with instrumentation fully
//! enabled or fully disabled. This test lives in its own integration
//! binary so the process-global obs state it toggles cannot leak into
//! neighbouring tests.

use scan_bist::Scheme;
use scan_diagnosis::{CampaignAudit, CampaignSpec, PreparedCampaign, SchemeReport};
use scan_netlist::generate;
use scan_obs::ObsConfig;

fn spec() -> CampaignSpec {
    let mut spec = CampaignSpec::new(64, 4, 4);
    spec.num_faults = 40;
    spec
}

struct Baseline {
    report: SchemeReport,
    parallel: SchemeReport,
    candidates: Vec<Vec<usize>>,
    audit: CampaignAudit,
}

fn run_once() -> Baseline {
    let netlist = generate::benchmark("s953");
    let campaign = PreparedCampaign::from_circuit(&netlist, &spec()).expect("campaign prepares");
    Baseline {
        report: campaign.run(Scheme::TWO_STEP_DEFAULT).expect("serial run"),
        parallel: campaign
            .run_parallel(Scheme::TWO_STEP_DEFAULT, 4)
            .expect("parallel run"),
        candidates: campaign
            .candidate_sets(Scheme::TWO_STEP_DEFAULT)
            .expect("candidate sets"),
        audit: campaign
            .audit(Scheme::TWO_STEP_DEFAULT)
            .expect("audit replay"),
    }
}

#[allow(clippy::float_cmp)] // bit-identical results are the contract
fn assert_identical(a: &Baseline, b: &Baseline) {
    for (x, y) in [(&a.report, &b.report), (&a.parallel, &b.parallel)] {
        assert_eq!(x.dr, y.dr);
        assert_eq!(x.dr_pruned, y.dr_pruned);
        assert_eq!(x.dr_by_prefix, y.dr_by_prefix);
        assert_eq!(x.mean_candidates, y.mean_candidates);
        assert_eq!(x.mean_actual, y.mean_actual);
        assert_eq!(x.lost_cells, y.lost_cells);
        assert_eq!(x.faults, y.faults);
    }
    assert_eq!(a.candidates, b.candidates);
    assert_eq!(a.audit, b.audit);
    assert_eq!(a.audit.to_ndjson(), b.audit.to_ndjson());
}

#[test]
fn results_are_bit_identical_with_observability_on_or_off() {
    // Baseline: everything off (the default process state).
    scan_obs::reset();
    let disabled = run_once();

    // Everything on: tracing, metrics, progress, and span profiling
    // all recording. (`profile_path` stays unset so `finish` is never
    // needed; recording is what could perturb results.)
    let config = ObsConfig {
        trace: true,
        metrics: true,
        progress: true,
        profile: true,
        ..ObsConfig::disabled()
    };
    scan_obs::init(&config);
    let enabled = run_once();
    let snapshot = scan_obs::snapshot();
    scan_obs::reset();

    assert_identical(&disabled, &enabled);

    // The instrumented run must actually have recorded something —
    // otherwise this test proves nothing.
    assert!(snapshot.counters["diagnosis.cases"] > 0);
    assert!(snapshot.counters["fault_sim.error_maps"] > 0);
    assert!(snapshot.span_stats.keys().any(|p| p.contains("fault_sim")));
    assert!(snapshot.span_stats.keys().any(|p| p.contains("diagnose")));
    // Worker spans are roots on their own threads (each thread keeps
    // its own span stack).
    assert!(snapshot.span_stats.contains_key("worker"));
    assert!(snapshot.counters.contains_key("parallel.worker0.cases"));
    assert!(snapshot
        .histograms
        .contains_key("diagnosis.candidates_per_fault"));
    // The audit replay is itself instrumented and internally coherent.
    assert!(snapshot.span_stats.keys().any(|p| p.contains("audit")));
    for fault in &enabled.audit.faults {
        assert_eq!(fault.steps.len(), spec().partitions);
        assert_eq!(
            fault.steps.last().map(|s| s.candidates),
            Some(fault.final_candidates),
            "no X-masking here, so the last step is the final set"
        );
    }
    // The profiler view of the same snapshot is valid folded output.
    let profile = scan_obs::Profile::from_snapshot(&snapshot);
    scan_obs::profile::check_folded(&profile.folded()).expect("folded profile validates");

    // And a fresh uninstrumented run still matches (state fully reset).
    let after = run_once();
    assert_identical(&disabled, &after);
}
