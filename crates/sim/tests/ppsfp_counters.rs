//! The PPSFP engine's work counters keep their meaning.
//!
//! `ppsfp.words_swept` counts (fault, pattern word) sweeps,
//! `ppsfp.gate_evals` the (gate, word) evaluations they make,
//! `ppsfp.faults_dropped` the `detects` calls that stop before the last
//! word, and `fault_sim.faults_tried` the candidates a sampler
//! simulates. This test pins all four on a fixed `s953` workload, so a
//! change to how the engine sweeps cannot change what they count. It
//! lives in its own integration binary because the metrics it reads
//! are process-global.

use scan_bist::Prpg;
use scan_netlist::{generate, ScanView};
use scan_obs::ObsConfig;
use scan_sim::{FaultUniverse, PatternSet, PpsfpSimulator};

#[test]
fn ppsfp_counters_are_pinned_on_s953() {
    let netlist = generate::benchmark("s953");
    let view = ScanView::natural(&netlist, true);
    // 200 patterns: four words, the last one partial.
    let mut prpg = Prpg::new(0xACE1).unwrap();
    let patterns =
        PatternSet::from_bit_stream(netlist.num_inputs(), netlist.num_dffs(), 200, || {
            prpg.next_bit()
        });

    scan_obs::init(&ObsConfig {
        metrics: true,
        ..ObsConfig::disabled()
    });
    let mut psim = PpsfpSimulator::new(&netlist, &view, &patterns).expect("shapes match");
    let _ = psim.sample_detected_with_maps(40, 3);
    let _ = psim.sample_detected_multiplets_with_maps(10, 2, 4);
    for fault in FaultUniverse::collapsed(&netlist).faults() {
        let _ = psim.detects(fault);
    }
    let snapshot = scan_obs::snapshot();
    scan_obs::reset();

    let got: Vec<(&str, u64)> = PINS
        .iter()
        .map(|&(name, _)| (name, snapshot.counters.get(name).copied().unwrap_or(0)))
        .collect();
    assert_eq!(got, PINS);
}

const PINS: &[(&str, u64)] = &[
    ("ppsfp.words_swept", 4758),
    ("ppsfp.gate_evals", 23890),
    ("ppsfp.faults_dropped", 1552),
    ("fault_sim.faults_tried", 71),
];
