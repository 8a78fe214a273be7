//! Differential harness between the production fault-simulation engine
//! ([`PpsfpSimulator`]) and the reference oracle ([`FaultSimulator`]).
//!
//! A diagnosis campaign reads nothing from fault simulation but its
//! case list: the sampled detected faults (or fault multiplets) and
//! their error maps. Every session verdict, MISR signature and
//! diagnosis downstream is a pure function of that list. These tests
//! drive both engines over `scan_rng::testkit`-generated circuits,
//! pattern counts, scan orderings, fault seeds and multiplet sizes, and
//! require *bit-identical* results:
//!
//! * golden responses and per-fault error maps, with fault dropping
//!   giving the same detection verdict;
//! * the single-pass samplers' case lists against the oracle's
//!   sample-then-simulate lists, for single faults and multiplets.

use scan_netlist::generate::{generate_with, profile, GeneratorConfig};
use scan_netlist::{Netlist, ScanOrdering, ScanView};
use scan_rng::testkit::{Gen, Runner};
use scan_sim::{FaultSimulator, FaultUniverse, PatternSet, PpsfpSimulator};

fn random_circuit(g: &mut Gen) -> Netlist {
    let name = g.pick("profile", &["s298", "s344", "s386"]);
    let seed = g.u64("circuit_seed", 0, 31);
    generate_with(profile(name).unwrap(), seed, &GeneratorConfig::default())
}

/// A campaign-shaped setup: a natural or shuffled scan view and a
/// pattern count that is usually not a multiple of 64, so the ragged
/// last word is always in play.
fn random_setup(g: &mut Gen, n: &Netlist) -> (ScanView, PatternSet) {
    let ordering = if g.bool("shuffled_chain") {
        ScanOrdering::Shuffled(g.u64("chain_seed", 0, 1 << 10))
    } else {
        ScanOrdering::Natural
    };
    let view = ScanView::ordered(n, ordering, true);
    let num_patterns = g.usize("patterns", 33, 130);
    let pat_seed = g.u64("pattern_seed", 0, 1 << 20);
    let patterns = PatternSet::pseudo_random(n.num_inputs(), n.num_dffs(), num_patterns, pat_seed);
    (view, patterns)
}

/// Both engines agree on the golden response and on every fault's error
/// map, at pattern widths that exercise the masked tail.
#[test]
fn error_maps_bit_identical_across_engines() {
    Runner::new(10).run("error_maps_bit_identical_across_engines", |g| {
        let n = random_circuit(g);
        let view = ScanView::natural(&n, true);
        let num_patterns = g.usize("patterns", 1, 200);
        let pat_seed = g.u64("pattern_seed", 0, 1 << 20);
        let patterns =
            PatternSet::pseudo_random(n.num_inputs(), n.num_dffs(), num_patterns, pat_seed);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        assert_eq!(fsim.golden(), psim.golden());
        for fault in FaultUniverse::collapsed(&n).faults().iter().take(40) {
            let reference = fsim.error_map(fault);
            assert_eq!(reference, psim.error_map(fault), "ppsfp engine diverged");
            assert_eq!(
                reference.is_detected(),
                psim.detects(fault),
                "fault dropping changed the verdict"
            );
        }
    });
}

/// Single-fault campaigns see the same case list on either engine: the
/// single-pass sampler returns exactly the oracle's detected faults,
/// in order, each with the oracle's error map.
#[test]
fn single_fault_campaigns_identical_across_engines() {
    Runner::new(8).run("single_fault_campaigns_identical_across_engines", |g| {
        let n = random_circuit(g);
        let (view, patterns) = random_setup(g, &n);
        let count = g.usize("faults", 10, 40);
        let seed = g.u64("fault_seed", 0, 1 << 20);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let reference: Vec<_> = fsim
            .sample_detected_faults(count, seed)
            .into_iter()
            .map(|fault| (fault, fsim.error_map(&fault)))
            .collect();
        assert!(!reference.is_empty());
        assert_eq!(reference, psim.sample_detected_with_maps(count, seed));
    });
}

/// Multiple-fault campaigns agree as well: the PPSFP multi-fault sweep
/// samples the oracle's multiplets, each with the oracle's error map.
#[test]
fn multiplet_campaigns_identical_across_engines() {
    Runner::new(6).run("multiplet_campaigns_identical_across_engines", |g| {
        let n = random_circuit(g);
        let (view, patterns) = random_setup(g, &n);
        let count = g.usize("faults", 10, 40);
        let size = g.usize("multiplet_size", 2, 3);
        let seed = g.u64("fault_seed", 0, 1 << 20);
        let fsim = FaultSimulator::new(&n, &view, &patterns).unwrap();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let reference: Vec<_> = fsim
            .sample_detected_multiplets(count, size, seed)
            .into_iter()
            .map(|faults| {
                let map = fsim.error_map_multi(&faults);
                (faults, map)
            })
            .collect();
        assert!(!reference.is_empty());
        assert_eq!(
            reference,
            psim.sample_detected_multiplets_with_maps(count, size, seed)
        );
    });
}
