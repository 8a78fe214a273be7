//! Integration tests proving the three layers of BIST modelling agree:
//! the cycle-level selection hardware (Fig. 1), the algebraic partition
//! derivation, and the linear-superposition signature analysis.

use scan_bist_suite::bist::seed::find_interval_seed;
use scan_bist_suite::bist::selection::{SelectionHardware, SelectionMode};
use scan_bist_suite::netlist::generate;
use scan_bist_suite::prelude::*;

#[test]
fn hardware_masks_reproduce_two_step_partitions() {
    // Build a two-step plan, then replay the Fig. 1 hardware for each
    // partition and check every session mask matches the plan's groups.
    let chain_len = 228; // s5378 view
    let groups = 8u16;
    let plan = DiagnosisPlan::new(
        ChainLayout::single_chain(chain_len),
        16,
        &BistConfig::new(groups, 4, Scheme::TWO_STEP_DEFAULT),
    )
    .unwrap();
    let partitions = plan.partitions();

    // Partition 0: interval mode with the covering seed the plan found.
    let found = find_interval_seed(chain_len, groups, 16, 0).expect("cover exists");
    let mut hw = SelectionHardware::new(
        Lfsr::new(16).unwrap(),
        found.seed,
        groups,
        SelectionMode::Interval {
            k_bits: found.k_bits,
        },
    );
    for g in 0..groups {
        let mask = hw.session_mask(g, chain_len);
        for (pos, &selected) in mask.iter().enumerate() {
            assert_eq!(
                selected,
                partitions[0].group_of(pos) == g,
                "interval partition, group {g}, position {pos}"
            );
        }
    }

    // Partitions 1..: random-selection mode chained through the IVR.
    let mut hw = SelectionHardware::new(
        Lfsr::new(16).unwrap(),
        1,
        groups,
        SelectionMode::RandomSelection,
    );
    for partition in &partitions[1..] {
        for g in 0..groups {
            let mask = hw.session_mask(g, chain_len);
            for (pos, &selected) in mask.iter().enumerate() {
                assert_eq!(
                    selected,
                    partition.group_of(pos) == g,
                    "random partition, group {g}, position {pos}"
                );
            }
        }
        hw.finish_partition(chain_len);
    }
}

#[test]
fn superposition_analysis_matches_full_misr_replay() {
    // Diagnose a real fault two ways: (a) the plan's superposition
    // analysis of the sparse error map, (b) a bit-true replay of every
    // BIST session through a stepwise MISR on the full golden/faulty
    // response streams. Verdicts must agree exactly.
    let circuit = generate::benchmark("s953");
    let view = ScanView::natural(&circuit, true);
    let num_patterns = 40usize;
    let patterns = scan_bist_suite::diagnosis::lfsr_patterns(&circuit, num_patterns, 0xACE1);
    let fsim = FaultSimulator::new(&circuit, &view, &patterns).unwrap();
    let faults = fsim.sample_detected_faults(5, 1);
    let plan = DiagnosisPlan::new(
        ChainLayout::single_chain(view.len()),
        num_patterns,
        &BistConfig::new(4, 3, Scheme::TWO_STEP_DEFAULT),
    )
    .unwrap();

    for fault in &faults {
        let golden = fsim.golden();
        let faulty = fsim.response(fault);
        let errors = faulty.xor(golden);
        let outcome = plan.analyze(errors.iter_bits());

        for (p, partition) in plan.partitions().iter().enumerate() {
            for g in 0..partition.num_groups() {
                let mut misr_golden = Misr::from_model(plan.misr());
                let mut misr_faulty = Misr::from_model(plan.misr());
                for t in 0..num_patterns {
                    for pos in 0..view.len() {
                        let selected = partition.group_of(pos) == g;
                        let gb = golden.bit(pos, t) && selected;
                        let fb = faulty.bit(pos, t) && selected;
                        misr_golden.clock(u64::from(gb));
                        misr_faulty.clock(u64::from(fb));
                    }
                }
                let hw_failed = misr_golden.signature() != misr_faulty.signature();
                assert_eq!(
                    outcome.failed(p, g),
                    hw_failed,
                    "fault {}, partition {p}, group {g}",
                    fault.describe(&circuit)
                );
            }
        }
    }
}

#[test]
fn prpg_stream_reproducibility_across_layers() {
    // The pattern set consumed by the simulator equals the raw PRPG
    // stream in scan-application order.
    let circuit = generate::benchmark("s298");
    let n = 10usize;
    let patterns = scan_bist_suite::diagnosis::lfsr_patterns(&circuit, n, 42);
    let mut prpg = Prpg::new(42).unwrap();
    for p in 0..n {
        for ff in 0..circuit.num_dffs() {
            assert_eq!(
                patterns.state_bit(ff, p),
                prpg.next_bit(),
                "ff {ff} pat {p}"
            );
        }
        for pi in 0..circuit.num_inputs() {
            assert_eq!(patterns.pi_bit(pi, p), prpg.next_bit(), "pi {pi} pat {p}");
        }
    }
}
