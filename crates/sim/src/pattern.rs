//! Bit-packed stimulus sets for full-scan test application.
//!
//! Under full scan, each test pattern is independent: the scan chain is
//! loaded with pseudo-random state bits, the primary inputs are driven
//! with pseudo-random values, and one capture clock latches the
//! combinational response. [`PatternSet`] stores the stimuli bit-packed,
//! 64 patterns per word, so the simulator can evaluate 64 patterns per
//! pass.

use scan_rng::ScanRng;

/// A bit-packed set of full-scan test patterns.
///
/// Bit `p % 64` of word `p / 64` holds the stimulus of pattern `p`.
///
/// # Examples
///
/// ```
/// use scan_sim::PatternSet;
///
/// let ps = PatternSet::pseudo_random(4, 3, 100, 42);
/// assert_eq!(ps.num_patterns(), 100);
/// assert_eq!(ps.num_words(), 2);
/// let _first_pi_word = ps.pi_word(0, 0);
/// ```
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct PatternSet {
    num_patterns: usize,
    pi_bits: Vec<Vec<u64>>,
    state_bits: Vec<Vec<u64>>,
}

impl PatternSet {
    /// Builds a pattern set by drawing stimulus bits from `next_bit` in
    /// scan-application order: for each pattern, first the scan-chain
    /// load values (flip-flop 0 .. F−1), then the primary input values
    /// (PI 0 .. P−1).
    ///
    /// This ordering matches a serial PRPG filling the chain and then
    /// the input register, so the same generator seed always produces
    /// the same test session.
    pub fn from_bit_stream<F>(
        num_pis: usize,
        num_ffs: usize,
        num_patterns: usize,
        mut next_bit: F,
    ) -> Self
    where
        F: FnMut() -> bool,
    {
        let words = num_patterns.div_ceil(64);
        let mut pi_bits = vec![vec![0u64; words]; num_pis];
        let mut state_bits = vec![vec![0u64; words]; num_ffs];
        for p in 0..num_patterns {
            let (w, b) = (p / 64, p % 64);
            for ff in &mut state_bits {
                ff[w] |= u64::from(next_bit()) << b;
            }
            for pi in &mut pi_bits {
                pi[w] |= u64::from(next_bit()) << b;
            }
        }
        PatternSet {
            num_patterns,
            pi_bits,
            state_bits,
        }
    }

    /// Builds a pseudo-random pattern set from a portable seeded RNG
    /// (convenience; experiments use
    /// [`PatternSet::from_bit_stream`] with an LFSR PRPG).
    #[must_use]
    pub fn pseudo_random(num_pis: usize, num_ffs: usize, num_patterns: usize, seed: u64) -> Self {
        let mut rng = ScanRng::seed_from_u64(seed);
        Self::from_bit_stream(num_pis, num_ffs, num_patterns, || rng.next_bool())
    }

    /// Builds a *weighted* pseudo-random pattern set: stimulus bit `i`
    /// of each pattern is 1 with the given probability (classical
    /// weighted-random BIST, which detects random-pattern-resistant
    /// faults that uniform patterns miss).
    ///
    /// `state_weights` biases the scan-load bits (one weight per
    /// flip-flop), `pi_weights` the primary inputs.
    ///
    /// # Panics
    ///
    /// Panics if the weight vectors are mis-sized or any weight is
    /// outside `[0, 1]`.
    #[must_use]
    pub fn weighted(
        num_patterns: usize,
        seed: u64,
        pi_weights: &[f64],
        state_weights: &[f64],
    ) -> Self {
        for &w in pi_weights.iter().chain(state_weights) {
            assert!((0.0..=1.0).contains(&w), "weight {w} outside [0, 1]");
        }
        let mut rng = ScanRng::seed_from_u64(seed);
        let words = num_patterns.div_ceil(64);
        let mut pi_bits = vec![vec![0u64; words]; pi_weights.len()];
        let mut state_bits = vec![vec![0u64; words]; state_weights.len()];
        for p in 0..num_patterns {
            let (w, b) = (p / 64, p % 64);
            for (row, &weight) in state_bits.iter_mut().zip(state_weights) {
                if rng.gen_bool(weight) {
                    row[w] |= 1 << b;
                }
            }
            for (row, &weight) in pi_bits.iter_mut().zip(pi_weights) {
                if rng.gen_bool(weight) {
                    row[w] |= 1 << b;
                }
            }
        }
        PatternSet {
            num_patterns,
            pi_bits,
            state_bits,
        }
    }

    /// Number of patterns.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Number of 64-pattern words.
    #[must_use]
    pub fn num_words(&self) -> usize {
        self.num_patterns.div_ceil(64)
    }

    /// Number of primary input streams.
    #[must_use]
    pub fn num_pis(&self) -> usize {
        self.pi_bits.len()
    }

    /// Number of flip-flop load streams.
    #[must_use]
    pub fn num_ffs(&self) -> usize {
        self.state_bits.len()
    }

    /// The packed word of primary input `pi` for word index `word`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn pi_word(&self, pi: usize, word: usize) -> u64 {
        self.pi_bits[pi][word]
    }

    /// The packed scan-load word of flip-flop `ff` for word index
    /// `word`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn state_word(&self, ff: usize, word: usize) -> u64 {
        self.state_bits[ff][word]
    }

    /// Mask of valid pattern lanes in the given word (all ones except in
    /// the final partial word).
    #[must_use]
    pub fn lane_mask(&self, word: usize) -> u64 {
        let full_words = self.num_patterns / 64;
        if word < full_words {
            !0
        } else {
            let rem = self.num_patterns % 64;
            if rem == 0 {
                0
            } else {
                (1u64 << rem) - 1
            }
        }
    }

    /// The scan-load bit of flip-flop `ff` in pattern `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn state_bit(&self, ff: usize, pattern: usize) -> bool {
        assert!(pattern < self.num_patterns, "pattern out of range");
        self.state_bits[ff][pattern / 64] >> (pattern % 64) & 1 != 0
    }

    /// The primary-input bit of `pi` in pattern `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn pi_bit(&self, pi: usize, pattern: usize) -> bool {
        assert!(pattern < self.num_patterns, "pattern out of range");
        self.pi_bits[pi][pattern / 64] >> (pattern % 64) & 1 != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bit_stream_consumes_in_scan_order() {
        // 1 PI, 2 FFs, 2 patterns: consumption order is
        // p0: ff0, ff1, pi0 — p1: ff0, ff1, pi0.
        let stream = [true, false, true, false, true, false];
        let mut it = stream.iter().copied();
        let ps = PatternSet::from_bit_stream(1, 2, 2, || it.next().unwrap());
        assert!(ps.state_bit(0, 0));
        assert!(!ps.state_bit(1, 0));
        assert!(ps.pi_bit(0, 0));
        assert!(!ps.state_bit(0, 1));
        assert!(ps.state_bit(1, 1));
        assert!(!ps.pi_bit(0, 1));
    }

    #[test]
    fn pseudo_random_deterministic() {
        let a = PatternSet::pseudo_random(5, 7, 130, 9);
        let b = PatternSet::pseudo_random(5, 7, 130, 9);
        assert_eq!(a, b);
        let c = PatternSet::pseudo_random(5, 7, 130, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn lane_masks() {
        let ps = PatternSet::pseudo_random(1, 1, 130, 0);
        assert_eq!(ps.num_words(), 3);
        assert_eq!(ps.lane_mask(0), !0);
        assert_eq!(ps.lane_mask(1), !0);
        assert_eq!(ps.lane_mask(2), 0b11);
        let exact = PatternSet::pseudo_random(1, 1, 128, 0);
        assert_eq!(exact.lane_mask(1), !0);
    }

    #[test]
    fn weighted_biases_bits() {
        let ps = PatternSet::weighted(1000, 3, &[0.9, 0.1], &[0.5]);
        let ones = |f: &dyn Fn(usize) -> bool| (0..1000).filter(|&p| f(p)).count();
        let high = ones(&|p| ps.pi_bit(0, p));
        let low = ones(&|p| ps.pi_bit(1, p));
        let mid = ones(&|p| ps.state_bit(0, p));
        assert!(high > 850, "high-weight input: {high}");
        assert!(low < 150, "low-weight input: {low}");
        assert!((400..=600).contains(&mid), "balanced state: {mid}");
    }

    #[test]
    fn weighted_extremes_are_constant() {
        let ps = PatternSet::weighted(100, 1, &[1.0, 0.0], &[]);
        assert!((0..100).all(|p| ps.pi_bit(0, p)));
        assert!((0..100).all(|p| !ps.pi_bit(1, p)));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn weighted_rejects_bad_weight() {
        let _ = PatternSet::weighted(10, 1, &[1.5], &[]);
    }

    #[test]
    fn word_bit_consistency() {
        let ps = PatternSet::pseudo_random(3, 4, 200, 5);
        for p in [0usize, 63, 64, 127, 199] {
            for pi in 0..3 {
                assert_eq!(
                    ps.pi_bit(pi, p),
                    ps.pi_word(pi, p / 64) >> (p % 64) & 1 != 0
                );
            }
            for ff in 0..4 {
                assert_eq!(
                    ps.state_bit(ff, p),
                    ps.state_word(ff, p / 64) >> (p % 64) & 1 != 0
                );
            }
        }
    }
}
