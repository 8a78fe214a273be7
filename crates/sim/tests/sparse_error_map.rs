//! Differential tests of the sparse [`ErrorMap`] against a dense
//! reference: two random [`ResponseMap`]s (a "faulty" and a "golden"
//! response) are XOR-ed word by word into a plain `Vec<u64>`, and every
//! accessor of `faulty.xor(&golden)` must agree with that dense image,
//! as must `==` across the other constructors. Pattern counts cover a
//! single lane, one lane short of a word, exactly one word, one lane
//! past it, and a multi-word map with a ragged tail.

use scan_rng::testkit::{Gen, Runner};
use scan_sim::{ErrorMap, ResponseMap};

const PATTERN_COUNTS: [usize; 5] = [1, 63, 64, 65, 200];

/// A random response of `positions × patterns`, lane-masked like every
/// simulator's output. `density` of 0 gives all-zero words.
fn random_response(g: &mut Gen, label: &str, positions: usize, patterns: usize) -> ResponseMap {
    let words = patterns.div_ceil(64);
    let mut map = ResponseMap::zeroed(positions, patterns);
    let density = g.usize(&format!("{label}.density"), 0, 3);
    for pos in 0..positions {
        for w in 0..words {
            let rng = g.rng();
            // Most words stay zero, so the error map is sparse.
            if density == 0 || rng.gen_range(0, 8) >= density {
                continue;
            }
            let mut bits = rng.next_u64();
            if rng.gen_range(0, 2) == 0 {
                bits &= rng.next_u64() & rng.next_u64();
            }
            map.set_word(pos, w, bits & lane_mask(patterns, w));
        }
    }
    map
}

fn lane_mask(patterns: usize, word: usize) -> u64 {
    let lanes = (patterns - word * 64).min(64);
    if lanes == 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// The dense reference: `faulty ⊕ golden`, row-major.
fn dense_xor(faulty: &ResponseMap, golden: &ResponseMap) -> Vec<u64> {
    let words = faulty.num_patterns().div_ceil(64);
    (0..faulty.num_positions())
        .flat_map(|pos| (0..words).map(move |w| faulty.word(pos, w) ^ golden.word(pos, w)))
        .collect()
}

#[test]
fn sparse_map_matches_dense_reference_on_every_accessor() {
    Runner::new(40).run("sparse_map_matches_dense_reference", |g| {
        let patterns = g.pick("patterns", &PATTERN_COUNTS);
        let positions = g.usize("positions", 1, 40);
        let words = patterns.div_ceil(64);
        let faulty = random_response(g, "faulty", positions, patterns);
        let golden = random_response(g, "golden", positions, patterns);
        let dense = dense_xor(&faulty, &golden);
        let err = faulty.xor(&golden);

        assert_eq!(err.num_positions(), positions);
        assert_eq!(err.num_patterns(), patterns);
        assert_eq!(err.is_detected(), dense.iter().any(|&w| w != 0));
        assert_eq!(
            err.num_error_bits(),
            dense.iter().map(|w| w.count_ones() as usize).sum::<usize>()
        );

        let mut want_words = Vec::new();
        let mut want_bits = Vec::new();
        let mut want_failing = Vec::new();
        for pos in 0..positions {
            let row = &dense[pos * words..(pos + 1) * words];
            if row.iter().any(|&w| w != 0) {
                want_failing.push(pos);
            }
            let mut row_patterns = Vec::new();
            for (w, &bits) in row.iter().enumerate() {
                if bits != 0 {
                    want_words.push((pos, w, bits));
                }
                for lane in 0..64 {
                    if bits >> lane & 1 != 0 {
                        row_patterns.push(w * 64 + lane);
                    }
                }
            }
            for pattern in 0..patterns {
                let want = row[pattern / 64] >> (pattern % 64) & 1 != 0;
                assert_eq!(err.bit(pos, pattern), want, "bit ({pos}, {pattern})");
            }
            assert_eq!(
                err.errors_at(pos).collect::<Vec<_>>(),
                row_patterns,
                "row {pos}"
            );
            want_bits.extend(row_patterns.into_iter().map(|pattern| (pos, pattern)));
        }
        assert_eq!(err.iter_words().collect::<Vec<_>>(), want_words);
        assert_eq!(err.iter_bits().collect::<Vec<_>>(), want_bits);
        assert_eq!(
            err.failing_positions().iter().collect::<Vec<_>>(),
            want_failing
        );

        // Every constructor reaches the same canonical map.
        let mut dense_map = ResponseMap::zeroed(positions, patterns);
        for (i, &bits) in dense.iter().enumerate() {
            dense_map.set_word(i / words, i % words, bits);
        }
        assert_eq!(ErrorMap::from(dense_map), err);
        assert_eq!(
            ErrorMap::from_bits(positions, patterns, err.iter_bits()),
            err
        );
        // Bits given in reverse, every odd pattern's bit twice, still
        // canonicalize to the same map: repeats OR together, they do
        // not cancel.
        let shuffled: Vec<(usize, usize)> = want_bits
            .iter()
            .rev()
            .flat_map(|&b| std::iter::repeat_n(b, 1 + b.1 % 2))
            .collect();
        assert_eq!(ErrorMap::from_bits(positions, patterns, shuffled), err);
        if !err.is_detected() {
            assert_eq!(err, ErrorMap::empty(positions, patterns));
        }
    });
}

#[test]
fn sparse_equality_follows_dense_equality() {
    Runner::new(40).run("sparse_equality_follows_dense_equality", |g| {
        let patterns = g.pick("patterns", &PATTERN_COUNTS);
        let positions = g.usize("positions", 1, 24);
        let a = random_response(g, "a", positions, patterns);
        let b = random_response(g, "b", positions, patterns);
        let c = random_response(g, "c", positions, patterns);
        let zero = ResponseMap::zeroed(positions, patterns);
        assert_eq!(
            a.xor(&c) == b.xor(&c),
            dense_xor(&a, &c) == dense_xor(&b, &c),
            "a^c vs b^c"
        );
        assert_eq!(a.xor(&zero) == b.xor(&zero), a == b, "a vs b");
        // Flipping one bit always breaks equality.
        let pos = g.usize("flip.pos", 0, positions - 1);
        let pattern = g.usize("flip.pattern", 0, patterns - 1);
        let mut flipped = a.clone();
        let w = pattern / 64;
        flipped.set_word(pos, w, a.word(pos, w) ^ 1 << (pattern % 64));
        assert_ne!(flipped.xor(&c), a.xor(&c));
        // Maps of different shapes never compare equal.
        assert_ne!(
            ErrorMap::empty(positions, patterns),
            ErrorMap::empty(positions + 1, patterns)
        );
    });
}
