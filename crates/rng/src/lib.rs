//! Deterministic pseudo-random numbers for the scan-BIST workspace.
//!
//! Every experiment in this workspace must be reproducible bit-for-bit:
//! the diagnostic-resolution tables are only meaningful if the same
//! seed always yields the same synthetic circuit, the same fault
//! sample, and the same pattern set — on every machine, at every
//! thread count, forever. Leaning on an external registry crate for
//! that guarantee couples the whole reproduction to a network
//! dependency and to someone else's stream-stability policy, so the
//! workspace vendors its own generator instead.
//!
//! The design is deliberately boring and well-studied:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer. Used to
//!   expand a single `u64` seed into full generator state (every bit
//!   of the seed affects every bit of the state) and to derive
//!   decorrelated per-index child seeds for parallel work sharding
//!   (see [`derive`](fn@derive)).
//! * [`ScanRng`] — Blackman & Vigna's xoshiro256\*\*, a 256-bit-state
//!   generator with period 2²⁵⁶ − 1 that passes `BigCrush`. This is the
//!   workspace's one and only general-purpose stream.
//! * [`testkit`] — a shrink-free property-test harness driven by
//!   [`ScanRng`] case generation, replacing the external `proptest`
//!   dependency for the workspace's invariant tests.
//!
//! The stream produced by a given seed is **frozen**: regression tests
//! pin the first outputs of several seeds, so any edit that would
//! silently re-randomize every experiment in the workspace fails CI
//! instead.
//!
//! # Examples
//!
//! ```
//! use scan_rng::ScanRng;
//!
//! let mut rng = ScanRng::seed_from_u64(2003);
//! let a = rng.next_u64();
//! let mut again = ScanRng::seed_from_u64(2003);
//! assert_eq!(a, again.next_u64()); // same seed ⇒ same stream
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate, clippy::module_name_repetitions)]
// Narrow-on-purpose casts are the business of an RNG: high-bits
// extraction and mantissa scaling truncate by design.
#![allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]

pub mod testkit;

/// Steele–Lea–Flood `SplitMix64`: a tiny, full-period (2⁶⁴) generator
/// whose real job here is *seeding* — expanding one `u64` into
/// well-mixed state words for [`ScanRng`] and deriving decorrelated
/// child seeds for parallel sharding.
///
/// # Examples
///
/// ```
/// use scan_rng::SplitMix64;
///
/// let mut sm = SplitMix64::new(0);
/// let first = sm.next_u64();
/// assert_ne!(first, SplitMix64::new(1).next_u64());
/// ```
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw 64-bit seed.
    #[must_use]
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Derives a decorrelated child seed for stream `index` of a family
/// rooted at `seed`.
///
/// This is the workspace's parallel-sharding primitive: when a
/// campaign fans out over faults, trials, or worker shards, shard `i`
/// seeds its private [`ScanRng`] with `derive(seed, i)` instead of
/// splitting one sequential stream — so results are independent of how
/// work is assigned to threads, and serial and parallel runs are
/// bit-identical.
///
/// Both arguments pass through `SplitMix64` mixing (not a bare XOR), so
/// `(seed, index)` families do not collide in the obvious ways —
/// `derive(0, 1)`, `derive(1, 0)` and `derive(1, 1)` are unrelated.
///
/// # Examples
///
/// ```
/// use scan_rng::derive;
///
/// assert_ne!(derive(2003, 0), derive(2003, 1));
/// assert_ne!(derive(0, 1), derive(1, 0));
/// ```
#[must_use]
#[inline]
pub fn derive(seed: u64, index: u64) -> u64 {
    let root = SplitMix64::new(seed).next_u64();
    SplitMix64::new(root ^ index).next_u64()
}

/// Blackman–Vigna xoshiro256\*\*: the workspace's deterministic
/// general-purpose generator.
///
/// 256 bits of state, period 2²⁵⁶ − 1, and excellent statistical
/// quality (BigCrush-clean). Seeded from a single `u64` via
/// [`SplitMix64`] expansion, as the xoshiro authors recommend.
///
/// The API is the small surface the workspace actually uses: raw
/// words, uniform integers in a range, Bernoulli draws, unit-interval
/// floats, Fisher–Yates shuffling, and element choice.
///
/// # Examples
///
/// ```
/// use scan_rng::ScanRng;
///
/// let mut rng = ScanRng::seed_from_u64(42);
/// let die = rng.gen_range_inclusive(1, 6);
/// assert!((1..=6).contains(&die));
/// let mut deck: Vec<u8> = (0..52).collect();
/// rng.shuffle(&mut deck);
/// assert_eq!(deck.len(), 52);
/// ```
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct ScanRng {
    s: [u64; 4],
}

impl ScanRng {
    /// Creates a generator whose 256-bit state is expanded from `seed`
    /// by four `SplitMix64` steps.
    ///
    /// The expansion guarantees a nonzero state for every seed
    /// (`SplitMix64` visits zero exactly once over its 2⁶⁴ period, so at
    /// most one of the four words can be zero).
    #[must_use]
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        ScanRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The next 64-bit output word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The next 32-bit output (the high half of a 64-bit word, which
    /// carries xoshiro's best-mixed bits).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A fair coin flip.
    #[inline]
    pub fn next_bool(&mut self) -> bool {
        // The top bit of the output word.
        self.next_u64() >> 63 != 0
    }

    /// A uniform float in `[0, 1)` with 53 random mantissa bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits / 2^53: the standard xoshiro double recipe.
        #[allow(clippy::cast_precision_loss)] // value fits in 53 bits
        let mantissa = (self.next_u64() >> 11) as f64;
        mantissa * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to
    /// `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        // lint:allow(L012): documented `# Panics` contract on a caller-supplied argument
        assert!(!p.is_nan(), "gen_bool probability is NaN");
        self.next_f64() < p
    }

    /// A uniform `u64` in `[0, bound)`, via Lemire's unbiased
    /// multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn gen_u64_below(&mut self, bound: u64) -> u64 {
        // lint:allow(L012): documented `# Panics` contract on a caller-supplied argument
        assert!(bound > 0, "gen_u64_below bound must be nonzero");
        // Lemire 2018: draw x, take hi 64 bits of x*bound; reject the
        // small biased slice of the bottom range.
        // lint:allow(L012): `bound > 0` is asserted on entry
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let wide = u128::from(x) * u128::from(bound);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// A uniform index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[inline]
    pub fn gen_index(&mut self, len: usize) -> usize {
        #[allow(clippy::cast_possible_truncation)] // bound fits in usize
        {
            self.gen_u64_below(len as u64) as usize
        }
    }

    /// A uniform `usize` in the half-open range `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, low: usize, high: usize) -> usize {
        // lint:allow(L012): documented `# Panics` contract on a caller-supplied argument
        assert!(low < high, "gen_range range {low}..{high} is empty");
        low + self.gen_index(high - low)
    }

    /// A uniform `usize` in the closed range `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    #[inline]
    pub fn gen_range_inclusive(&mut self, low: usize, high: usize) -> usize {
        assert!(
            low <= high,
            "gen_range_inclusive range {low}..={high} is empty"
        );
        #[allow(clippy::cast_possible_truncation)] // width fits in usize
        {
            low + self.gen_u64_below((high - low) as u64 + 1) as usize
        }
    }

    /// A uniform `u64` in the half-open range `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "gen_range_u64 range {low}..{high} is empty");
        low + self.gen_u64_below(high - low)
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_index(slice.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_advances() {
        let mut sm = SplitMix64::new(7);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        let mut first = ScanRng::seed_from_u64(1);
        let mut twin = ScanRng::seed_from_u64(1);
        let mut other = ScanRng::seed_from_u64(2);
        let same = first.next_u64();
        assert_eq!(same, twin.next_u64());
        assert_ne!(same, other.next_u64());
    }

    #[test]
    fn state_is_never_all_zero() {
        for seed in 0..64u64 {
            let rng = ScanRng::seed_from_u64(seed);
            assert_ne!(rng.s, [0; 4], "seed {seed} expanded to zero state");
        }
    }

    #[test]
    fn gen_u64_below_respects_bound() {
        let mut rng = ScanRng::seed_from_u64(3);
        for bound in [1u64, 2, 3, 7, 64, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.gen_u64_below(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_u64_below_one_is_zero() {
        let mut rng = ScanRng::seed_from_u64(4);
        assert_eq!(rng.gen_u64_below(1), 0);
    }

    #[test]
    fn ranges_cover_their_support() {
        let mut rng = ScanRng::seed_from_u64(5);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.gen_range_inclusive(1, 6) - 1] = true;
        }
        assert!(seen.iter().all(|&s| s), "die faces missing: {seen:?}");
        for _ in 0..100 {
            let v = rng.gen_range(10, 12);
            assert!(v == 10 || v == 11);
        }
        assert_eq!(rng.gen_range_inclusive(9, 9), 9);
    }

    #[test]
    fn gen_range_u64_stays_in_range() {
        let mut rng = ScanRng::seed_from_u64(11);
        for _ in 0..200 {
            let v = rng.gen_range_u64(1 << 40, (1 << 40) + 17);
            assert!((1 << 40..(1 << 40) + 17).contains(&v));
        }
    }

    #[test]
    fn next_f64_is_a_unit_float() {
        let mut rng = ScanRng::seed_from_u64(6);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = ScanRng::seed_from_u64(7);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = ScanRng::seed_from_u64(8);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2600..=3400).contains(&hits), "p=0.3 gave {hits}/10000");
    }

    #[test]
    fn fair_coin_is_roughly_fair() {
        let mut rng = ScanRng::seed_from_u64(9);
        let heads = (0..10_000).filter(|_| rng.next_bool()).count();
        assert!((4600..=5400).contains(&heads), "coin gave {heads}/10000");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = ScanRng::seed_from_u64(10);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left identity");
    }

    #[test]
    fn shuffle_handles_degenerate_slices() {
        let mut rng = ScanRng::seed_from_u64(12);
        let mut empty: [u8; 0] = [];
        rng.shuffle(&mut empty);
        let mut one = [42u8];
        rng.shuffle(&mut one);
        assert_eq!(one, [42]);
    }

    #[test]
    fn choose_is_none_only_on_empty() {
        let mut rng = ScanRng::seed_from_u64(13);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        let items = [1, 2, 3];
        for _ in 0..50 {
            assert!(items.contains(rng.choose(&items).unwrap()));
        }
    }

    #[test]
    fn derive_decorrelates_indices_and_seeds() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8u64 {
            for index in 0..8u64 {
                assert!(
                    seen.insert(derive(seed, index)),
                    "collision at ({seed},{index})"
                );
            }
        }
    }

    #[test]
    fn derive_is_stable() {
        assert_eq!(derive(2003, 5), derive(2003, 5));
    }
}
