//! Search for interval-covering LFSR seeds.
//!
//! Interval-based partitioning needs a seed such that the `b`
//! pseudo-random interval lengths read from the LFSR cover the whole
//! scan chain: the first `b − 1` intervals must end strictly before the
//! chain end and the `b`-th must reach (or pass) it. The paper notes
//! that "usually there exist a number of such seeds for a given
//! circuit"; this module finds them by deterministic search and prefers
//! balanced covers.
//!
//! The search tests each candidate without allocating: it steps a copy
//! of the register and reads each length through per-byte lookup
//! tables ([`read_length`]'s spread stages, at most 4 × 256 words,
//! built once per search), and it stops a candidate at the first
//! interval that is empty, reaches the chain end early, or leaves too
//! few intervals to reach it. Only a candidate that beats the best
//! cover so far has its lengths collected by [`lengths_from_seed`], the
//! reference reader. The search ends after one period of its seed walk
//! (2^degree candidates), and at once when no seed can cover the chain;
//! both give the result the whole budget would.

use crate::error::FindSeedError;
use crate::lfsr::Lfsr;

/// A covering seed together with the interval lengths it generates.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct FoundSeed {
    /// The LFSR seed (IVR value).
    pub seed: u64,
    /// Number of selected LFSR bits read per interval length.
    pub k_bits: u32,
    /// The `b` interval lengths (the last one is the nominal length; the
    /// partition truncates it at the chain end).
    pub lengths: Vec<usize>,
}

/// Number of selected bits used to read an interval length, chosen so
/// the mean length `2^(k−1)` is close to the target `chain_len / groups`.
#[must_use]
pub fn length_bits(chain_len: usize, groups: u16, lfsr_degree: u32) -> u32 {
    let target = (chain_len / usize::from(groups)).max(1);
    // Smallest k with 2^(k−1) ≥ target, so the mean length ~2^(k−1) is at
    // or just above the target and `groups` draws can plausibly cover the
    // chain with the boundary crossed at the last interval.
    let k = target.next_power_of_two().trailing_zeros() + 1;
    k.clamp(1, lfsr_degree)
}

/// Reads an interval length from `k` stages spread across the register.
///
/// The paper associates the seed "with a number of bits from the LFSR";
/// spreading the taps decorrelates successive reads (the LFSR shifts
/// only once between intervals).
#[must_use]
pub fn read_length(lfsr: &Lfsr, k_bits: u32) -> usize {
    let degree = lfsr.degree();
    let state = lfsr.state();
    let mut value = 0usize;
    for j in 0..k_bits {
        let pos = (j * degree) / k_bits;
        value |= (((state >> pos) & 1) as usize) << j;
    }
    value
}

/// Generates the `groups` interval lengths for a given seed, stepping the
/// LFSR once per interval (the Fig. 1 carry-driven shift).
///
/// # Panics
///
/// Panics if `lfsr_degree` is outside the tabulated range (2..=32).
#[must_use]
pub fn lengths_from_seed(seed: u64, groups: u16, k_bits: u32, lfsr_degree: u32) -> Vec<usize> {
    let mut lfsr = Lfsr::new(lfsr_degree).expect("supported degree");
    lfsr.load(seed);
    let mut lengths = Vec::with_capacity(usize::from(groups));
    for _ in 0..groups {
        lengths.push(read_length(&lfsr, k_bits));
        lfsr.step();
    }
    lengths
}

/// How many valid candidates the search weighs before picking the most
/// balanced one.
const CANDIDATE_POOL: usize = 64;
/// Seed-search budget.
const SEARCH_LIMIT: u64 = 1 << 20;

/// Finds a covering seed for an interval partition of `chain_len`
/// positions into `groups` groups, using a degree-`lfsr_degree` LFSR.
///
/// `salt` offsets the deterministic search so different partitions get
/// different seeds. Among the first valid candidates the seed with the
/// smallest maximum interval (most balanced cover) is returned.
///
/// # Errors
///
/// Returns [`FindSeedError`] if the search budget is exhausted without a
/// cover (only possible for pathological `chain_len`/`groups`
/// combinations).
///
/// # Panics
///
/// Panics if `groups < 2`, there are more groups than chain positions,
/// or `lfsr_degree` is outside the tabulated range (2..=32).
pub fn find_interval_seed(
    chain_len: usize,
    groups: u16,
    lfsr_degree: u32,
    salt: u64,
) -> Result<FoundSeed, FindSeedError> {
    assert!(groups >= 2, "interval cover needs at least two groups");
    assert!(
        usize::from(groups) <= chain_len,
        "more groups than chain positions"
    );
    let lfsr = Lfsr::new(lfsr_degree).expect("supported degree");
    let k_bits = length_bits(chain_len, groups, lfsr_degree);
    let exhausted = FindSeedError {
        chain_len,
        groups,
        examined: SEARCH_LIMIT,
    };
    // `groups` intervals of at most 2^k − 1 positions each cannot
    // cover the chain whatever the seed.
    let max_len = (1usize << k_bits) - 1;
    if usize::from(groups) * max_len < chain_len {
        return Err(exhausted);
    }
    let reader = SpreadReader::new(lfsr_degree, k_bits);
    // The lengths `seed` generates, read and checked one interval at a
    // time; the largest if they cover the chain exactly at the last.
    let cover_max = |seed: u64| -> Option<usize> {
        let mut lfsr = lfsr;
        lfsr.load(seed);
        let mut sum = 0usize;
        let mut max = 0usize;
        for i in 1..=groups {
            let len = reader.read(lfsr.state());
            sum += len;
            max = max.max(len);
            // Not a cover: an empty interval, an earlier interval
            // already reaching the chain end (fewer than `groups` groups
            // would be used), or intervals too few to still reach it.
            if len == 0
                || (i < groups && sum >= chain_len)
                || sum + usize::from(groups - i) * max_len < chain_len
            {
                return None;
            }
            lfsr.step();
        }
        Some(max)
    };
    let mut best: Option<FoundSeed> = None;
    let mut best_max = usize::MAX;
    let mut valid_found = 0usize;
    let mut examined = 0u64;
    // Golden-ratio stride walks the seed space without short cycles.
    // The stride is odd, so the masked seeds repeat with period
    // 2^degree: once a search has walked one period it has seen every
    // seed it will ever see, the repeats cannot improve its best cover,
    // and a search that found no cover would find none in the rest of
    // its budget either.
    let stride = 0x9E37_79B9_7F4A_7C15u64 | 1;
    let mut candidate = salt.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(1);
    while examined < SEARCH_LIMIT.min(1 << lfsr_degree) {
        examined += 1;
        candidate = candidate.wrapping_add(stride);
        let seed = candidate & lfsr.mask();
        if seed == 0 {
            continue;
        }
        if let Some(max) = cover_max(seed) {
            valid_found += 1;
            if max < best_max {
                best_max = max;
                best = Some(FoundSeed {
                    seed,
                    k_bits,
                    lengths: lengths_from_seed(seed, groups, k_bits, lfsr_degree),
                });
            }
            if valid_found >= CANDIDATE_POOL {
                break;
            }
        }
    }
    best.ok_or(exhausted)
}

/// [`read_length`] as four per-byte lookup tables: entry `v` of table
/// `b` holds the length bits that byte `b` of the state contributes
/// when its value is `v`.
struct SpreadReader {
    tables: [[u32; 256]; 4],
}

impl SpreadReader {
    fn new(degree: u32, k_bits: u32) -> Self {
        let mut tables = [[0u32; 256]; 4];
        for j in 0..k_bits {
            let pos = (j * degree) / k_bits;
            let table = &mut tables[(pos / 8) as usize];
            for (v, entry) in table.iter_mut().enumerate() {
                if v >> (pos % 8) & 1 != 0 {
                    *entry |= 1 << j;
                }
            }
        }
        SpreadReader { tables }
    }

    fn read(&self, state: u64) -> usize {
        let [t0, t1, t2, t3] = &self.tables;
        let byte = |b: u32| (state >> (8 * b) & 0xFF) as usize;
        (t0[byte(0)] | t1[byte(1)] | t2[byte(2)] | t3[byte(3)]) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_bits_targets_mean() {
        // chain 52, 4 groups → target 13 → k = 5 (mean 16 ≥ 13).
        assert_eq!(length_bits(52, 4, 16), 5);
        // chain 1000, 8 groups → target 125 → k = 8 (mean 128 ≥ 125).
        assert_eq!(length_bits(1000, 8, 16), 8);
        assert_eq!(length_bits(4, 4, 16), 1);
    }

    #[test]
    fn found_seed_covers_paper_sized_chain() {
        // s953 view: 29 cells + 23 POs = 52 positions, 4 groups.
        let found = find_interval_seed(52, 4, 16, 0).expect("cover exists");
        assert_eq!(found.lengths.len(), 4);
        let sum: usize = found.lengths.iter().sum();
        assert!(sum >= 52);
        let prefix: usize = found.lengths[..3].iter().sum();
        assert!(prefix < 52);
        assert!(found.lengths.iter().all(|&l| l > 0));
    }

    #[test]
    fn found_seed_reproducible() {
        let a = find_interval_seed(500, 8, 16, 7).unwrap();
        let b = find_interval_seed(500, 8, 16, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn salt_changes_seed() {
        let a = find_interval_seed(500, 8, 16, 0).unwrap();
        let b = find_interval_seed(500, 8, 16, 1).unwrap();
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn large_chain_many_groups() {
        // SOC 1 scale: ~7000 positions, 32 groups.
        let found = find_interval_seed(7244, 32, 16, 0).expect("cover exists");
        assert_eq!(found.lengths.len(), 32);
        let sum: usize = found.lengths.iter().sum();
        assert!(sum >= 7244);
    }

    #[test]
    fn tiny_chain() {
        let found = find_interval_seed(4, 2, 16, 0).expect("cover exists");
        let sum: usize = found.lengths.iter().sum();
        assert!(sum >= 4 && found.lengths[0] < 4);
    }

    #[test]
    fn spread_reader_matches_read_length() {
        for degree in [2u32, 8, 13, 16, 24, 32] {
            for k_bits in 1..=degree.min(20) {
                let reader = SpreadReader::new(degree, k_bits);
                let mut lfsr = Lfsr::new(degree).unwrap();
                lfsr.load(0xACE1_2003);
                for _ in 0..500 {
                    assert_eq!(
                        reader.read(lfsr.state()),
                        read_length(&lfsr, k_bits),
                        "degree {degree} k {k_bits} state {:#x}",
                        lfsr.state()
                    );
                    lfsr.step();
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "supported degree")]
    fn unsupported_degree_panics() {
        let _ = find_interval_seed(52, 4, 40, 0);
    }

    #[test]
    fn lengths_follow_hardware_stepping() {
        let found = find_interval_seed(200, 4, 16, 0).unwrap();
        let regen = lengths_from_seed(found.seed, 4, found.k_bits, 16);
        assert_eq!(found.lengths, regen);
    }
}
