//! Property tests for the bit-packing primitives under the PPSFP
//! engine: the pattern transpose, the masked ragged tail, and the
//! statelessness of fault dropping. All on the in-workspace
//! shrink-free `scan_rng::testkit` harness.

use scan_netlist::generate::{generate_with, profile, GeneratorConfig};
use scan_netlist::ScanView;
use scan_rng::testkit::{Gen, Runner};
use scan_sim::{FaultUniverse, PatternSet, PpsfpSimulator};

/// Packing a bit stream into 64-wide words and reading it back bit by
/// bit is lossless — the transpose round-trips for any (PIs, FFs,
/// patterns) shape, ragged tails included.
#[test]
fn pattern_pack_unpack_round_trip() {
    Runner::new(24).run("pattern_pack_unpack_round_trip", |g| {
        let num_pis = g.usize("pis", 1, 9);
        let num_ffs = g.usize("ffs", 0, 9);
        let num_patterns = g.usize("patterns", 1, 200);
        let seed = g.u64("seed", 0, 1 << 30);
        // The scan-application order from_bit_stream consumes: per
        // pattern, the scan-chain load bits (FF 0..F−1), then the
        // primary inputs (PI 0..P−1).
        let mut rng = scan_rng::ScanRng::seed_from_u64(seed);
        let stream: Vec<bool> = (0..num_patterns * (num_pis + num_ffs))
            .map(|_| rng.next_u64() & 1 == 1)
            .collect();
        let mut cursor = stream.iter().copied();
        let packed = PatternSet::from_bit_stream(num_pis, num_ffs, num_patterns, || {
            cursor.next().expect("stream long enough")
        });
        assert_eq!(packed.num_patterns(), num_patterns);
        assert_eq!(packed.num_words(), num_patterns.div_ceil(64));
        for pat in 0..num_patterns {
            let base = pat * (num_pis + num_ffs);
            for ff in 0..num_ffs {
                assert_eq!(
                    packed.state_bit(ff, pat),
                    stream[base + ff],
                    "ff {ff} pat {pat}"
                );
            }
            for pi in 0..num_pis {
                assert_eq!(
                    packed.pi_bit(pi, pat),
                    stream[base + num_ffs + pi],
                    "pi {pi} pat {pat}"
                );
            }
        }
        // Word accessors never expose lanes beyond the tail mask.
        let last = packed.num_words() - 1;
        let mask = packed.lane_mask(last);
        for pi in 0..num_pis {
            assert_eq!(packed.pi_word(pi, last) & !mask, 0, "stray tail lanes");
        }
    });
}

/// Tail lanes never leak into verdicts: simulating a prefix-identical
/// pattern set with N extra patterns yields the same error bits for
/// the shared prefix, and no error map ever reports a pattern index
/// past `num_patterns`.
#[test]
fn masked_tail_bits_never_leak() {
    Runner::new(12).run("masked_tail_bits_never_leak", |g| {
        let name = g.pick("profile", &["s298", "s344"]);
        let n = generate_with(
            profile(name).unwrap(),
            g.u64("circuit_seed", 0, 15),
            &GeneratorConfig::default(),
        );
        let view = ScanView::natural(&n, true);
        // A short set whose last word is ragged, and a longer set
        // sharing the same leading bit stream.
        let short_len = g.usize("short", 1, 150);
        let extra = g.usize("extra", 1, 80);
        let seed = g.u64("pattern_seed", 0, 1 << 20);
        let short = PatternSet::pseudo_random(n.num_inputs(), n.num_dffs(), short_len, seed);
        let long = PatternSet::pseudo_random(n.num_inputs(), n.num_dffs(), short_len + extra, seed);
        let mut psim_short = PpsfpSimulator::new(&n, &view, &short).unwrap();
        let mut psim_long = PpsfpSimulator::new(&n, &view, &long).unwrap();
        for fault in FaultUniverse::collapsed(&n).faults().iter().take(25) {
            let map_short = psim_short.error_map(fault);
            let map_long = psim_long.error_map(fault);
            for (pos, pat) in map_short.iter_bits() {
                assert!(pat < short_len, "error bit past num_patterns");
                assert!(
                    map_long.bit(pos, pat),
                    "prefix error bit ({pos},{pat}) lost when tail grows"
                );
            }
            for (pos, pat) in map_long.iter_bits() {
                assert!(pat < short_len + extra, "error bit past num_patterns");
                if pat < short_len {
                    assert!(
                        map_short.bit(pos, pat),
                        "tail lanes leaked error ({pos},{pat}) into the short set"
                    );
                }
            }
        }
    });
}

/// Dropping a fault never changes another fault's outcome: any
/// interleaving of early-exit `detects` probes and full `error_map`
/// sweeps leaves the engine in a state where every fault still
/// produces its fresh-engine error map.
#[test]
fn fault_dropping_leaves_no_residue() {
    Runner::new(12).run("fault_dropping_leaves_no_residue", |g| {
        let n = generate_with(
            profile("s298").unwrap(),
            g.u64("circuit_seed", 0, 15),
            &GeneratorConfig::default(),
        );
        let view = ScanView::natural(&n, true);
        let patterns = PatternSet::pseudo_random(
            n.num_inputs(),
            n.num_dffs(),
            g.usize("patterns", 65, 190),
            g.u64("pattern_seed", 0, 1 << 20),
        );
        let universe = FaultUniverse::collapsed(&n);
        let mut dirty = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let mut fresh = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let probes: Vec<usize> = (0..g.usize("ops", 5, 25))
            .map(|i| g.usize(&format!("probe_{i}"), 0, universe.len() - 1))
            .collect();
        for (i, &probe) in probes.iter().enumerate() {
            let fault = universe.faults()[probe];
            let expected = fresh.error_map(&fault);
            if interleave(g, i) {
                // Early-exit probe first, then the full map on the
                // same (possibly dirty) engine.
                assert_eq!(dirty.detects(&fault), expected.is_detected());
            }
            assert_eq!(
                dirty.error_map(&fault),
                expected,
                "residue after {i} prior sweeps"
            );
        }
    });
}

fn interleave(g: &mut Gen, i: usize) -> bool {
    g.bool(&format!("interleave_{i}"))
}
