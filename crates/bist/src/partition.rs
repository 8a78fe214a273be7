//! Scan chain partitioning schemes.
//!
//! A *partition* splits the positions of a scan chain into `b`
//! non-overlapping groups; one BIST session is run per group, compacting
//! only the cells of that group into the MISR. The paper compares:
//!
//! * **random-selection** partitioning \[Rajski & Tyszer\]: each cell's
//!   group is a pseudo-random label read from an LFSR as the chain
//!   shifts;
//! * **interval-based** partitioning (this paper): each group is a run
//!   of *consecutive* cells whose pseudo-random lengths come from an
//!   LFSR seeded with a precomputed covering seed;
//! * **fixed-interval** partitioning \[Bayraktaroglu & Orailoglu\]:
//!   equal-length intervals (deterministic baseline);
//! * **two-step** partitioning (the paper's contribution): a few
//!   interval-based partitions followed by random-selection partitions.

use crate::error::FindSeedError;
use crate::lfsr::Lfsr;
use crate::seed::find_interval_seed;

/// One partition of a scan chain into non-overlapping groups.
///
/// `assignment[pos]` is the group index of chain position `pos`; every
/// position belongs to exactly one group, so the groups cover the chain.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct Partition {
    num_groups: u16,
    assignment: Vec<u16>,
}

impl Partition {
    /// Builds a partition from an explicit assignment vector.
    ///
    /// # Panics
    ///
    /// Panics if any entry is `>= num_groups` or the assignment is empty.
    #[must_use]
    pub fn from_assignment(num_groups: u16, assignment: Vec<u16>) -> Self {
        assert!(!assignment.is_empty(), "partition of an empty chain");
        assert!(
            assignment.iter().all(|&g| g < num_groups),
            "group index out of range"
        );
        Partition {
            num_groups,
            assignment,
        }
    }

    /// Builds an interval partition from consecutive group lengths.
    ///
    /// The lengths must sum to at least the chain length; the last
    /// interval is truncated at the chain end. Unused trailing lengths
    /// are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the lengths cannot cover `chain_len` positions or if
    /// more than `u16::MAX` intervals are needed.
    #[must_use]
    pub fn from_interval_lengths(chain_len: usize, lengths: &[usize]) -> Self {
        let mut assignment = Vec::with_capacity(chain_len);
        let mut group: u16 = 0;
        for &len in lengths {
            for _ in 0..len {
                if assignment.len() == chain_len {
                    break;
                }
                assignment.push(group);
            }
            if assignment.len() == chain_len {
                break;
            }
            group = group.checked_add(1).expect("too many intervals");
        }
        assert_eq!(
            assignment.len(),
            chain_len,
            "interval lengths do not cover the chain"
        );
        Partition {
            num_groups: group + 1,
            assignment,
        }
    }

    /// Number of groups (BIST sessions per partition).
    #[must_use]
    pub fn num_groups(&self) -> u16 {
        self.num_groups
    }

    /// Chain length covered by the partition.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Returns `true` if the partition covers no positions (never true
    /// for constructed partitions).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The group of a chain position.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    #[must_use]
    pub fn group_of(&self, pos: usize) -> u16 {
        self.assignment[pos]
    }

    /// The full assignment vector.
    #[must_use]
    pub fn assignment(&self) -> &[u16] {
        &self.assignment
    }

    /// Iterates over the positions belonging to a group.
    pub fn members(&self, group: u16) -> impl Iterator<Item = usize> + '_ {
        self.assignment
            .iter()
            .enumerate()
            .filter(move |&(_, &g)| g == group)
            .map(|(pos, _)| pos)
    }

    /// Size of each group.
    #[must_use]
    pub fn group_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; usize::from(self.num_groups)];
        for &g in &self.assignment {
            sizes[usize::from(g)] += 1;
        }
        sizes
    }

    /// Returns `true` if every group is a single run of consecutive
    /// positions (an interval partition).
    #[must_use]
    pub fn is_interval(&self) -> bool {
        let mut seen = vec![false; usize::from(self.num_groups)];
        let mut prev: Option<u16> = None;
        for &g in &self.assignment {
            if prev != Some(g) {
                if seen[usize::from(g)] {
                    return false;
                }
                seen[usize::from(g)] = true;
                prev = Some(g);
            }
        }
        true
    }
}

/// Configuration shared by the partition generators.
#[derive(Clone, Copy, Debug)]
pub struct PartitionConfig {
    /// Scan chain length (number of observation positions).
    pub chain_len: usize,
    /// Number of groups per partition (`b`).
    pub groups: u16,
    /// Degree of the partition-generating LFSR (the paper uses 16).
    pub lfsr_degree: u32,
    /// Initial IVR seed for random-selection label generation.
    pub seed: u64,
}

impl PartitionConfig {
    /// A configuration with the paper's defaults: degree-16 LFSR,
    /// seed 1.
    #[must_use]
    pub fn new(chain_len: usize, groups: u16) -> Self {
        PartitionConfig {
            chain_len,
            groups,
            lfsr_degree: 16,
            seed: 1,
        }
    }

    fn validate(&self) {
        assert!(self.chain_len > 0, "chain must be non-empty");
        assert!(self.groups >= 1, "at least one group required");
        assert!(
            usize::from(self.groups) <= self.chain_len,
            "more groups than chain positions"
        );
    }
}

/// Generates `count` random-selection partitions, emulating the IVR/LFSR
/// chaining of the selection hardware: partition `k+1` reuses the LFSR
/// state left by partition `k` as its IVR value.
///
/// Each position's label is the low `⌈log2 b⌉` bits of the LFSR state
/// after `pos` steps from the partition's IVR seed, reduced modulo `b`.
///
/// # Panics
///
/// Panics if the configuration is invalid (empty chain, zero groups,
/// more groups than positions) or the LFSR degree is unsupported.
#[must_use]
pub fn random_selection_partitions(config: &PartitionConfig, count: usize) -> Vec<Partition> {
    config.validate();
    let mut lfsr = Lfsr::new(config.lfsr_degree).expect("supported LFSR degree");
    let label_bits = label_bits_for(config.groups).min(config.lfsr_degree);
    let mut ivr = config.seed;
    let mut partitions = Vec::with_capacity(count);
    for _ in 0..count {
        lfsr.load(ivr);
        let mut assignment = Vec::with_capacity(config.chain_len);
        for _ in 0..config.chain_len {
            let label = if config.groups == 1 {
                0
            } else {
                (lfsr.low_bits(label_bits) % u64::from(config.groups)) as u16
            };
            assignment.push(label);
            lfsr.step();
        }
        ivr = lfsr.state();
        partitions.push(Partition::from_assignment(config.groups, assignment));
    }
    partitions
}

fn label_bits_for(groups: u16) -> u32 {
    if groups <= 1 {
        1
    } else {
        u32::from(groups)
            .next_power_of_two()
            .trailing_zeros()
            .max(1)
    }
}

/// Generates one interval-based partition from a covering seed found by
/// [`find_interval_seed`].
///
/// `salt` decorrelates successive interval partitions (it offsets the
/// seed search so each partition uses a different covering seed).
///
/// # Errors
///
/// Returns [`FindSeedError`] if no covering seed exists within the
/// search budget (pathological chain-length/group combinations).
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn interval_partition(config: &PartitionConfig, salt: u64) -> Result<Partition, FindSeedError> {
    config.validate();
    if config.groups == 1 {
        return Ok(Partition::from_assignment(1, vec![0; config.chain_len]));
    }
    let found = find_interval_seed(config.chain_len, config.groups, config.lfsr_degree, salt)?;
    Ok(Partition::from_interval_lengths(
        config.chain_len,
        &found.lengths,
    ))
}

/// Generates the deterministic fixed-interval partition: all groups the
/// same length except the last, which absorbs the remainder.
///
/// # Panics
///
/// Panics if the configuration is invalid.
#[must_use]
pub fn fixed_interval_partition(config: &PartitionConfig) -> Partition {
    config.validate();
    let b = usize::from(config.groups);
    let base = config.chain_len / b;
    let rem = config.chain_len % b;
    // Distribute the remainder over the first `rem` groups so lengths
    // differ by at most one.
    let lengths: Vec<usize> = (0..b).map(|i| base + usize::from(i < rem)).collect();
    Partition::from_interval_lengths(config.chain_len, &lengths)
}

/// The partitioning schemes compared in the paper.
#[derive(Clone, Copy, Eq, PartialEq, Hash, Debug)]
pub enum Scheme {
    /// All partitions by random selection (the baseline of \[5\]).
    RandomSelection,
    /// All partitions interval-based with pseudo-random lengths.
    IntervalBased,
    /// The paper's contribution: the first `interval_partitions`
    /// partitions interval-based, the rest random-selection.
    TwoStep {
        /// How many leading partitions are interval-based (the paper's
        /// experiments use 1).
        interval_partitions: usize,
    },
    /// All partitions equal-length fixed intervals (deterministic
    /// baseline of \[8\]); every partition is identical, so extra
    /// partitions add no information.
    FixedInterval,
}

impl Scheme {
    /// The paper's default two-step scheme (one interval partition).
    pub const TWO_STEP_DEFAULT: Scheme = Scheme::TwoStep {
        interval_partitions: 1,
    };

    /// Short human-readable name used in experiment tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scheme::RandomSelection => "random-selection",
            Scheme::IntervalBased => "interval-based",
            Scheme::TwoStep { .. } => "two-step",
            Scheme::FixedInterval => "fixed-interval",
        }
    }
}

/// Generates the sequence of partitions a scheme uses.
///
/// Interval partitions that cannot find a covering seed fall back to the
/// fixed-interval partition (deterministic and always valid), keeping
/// experiment campaigns total.
///
/// # Panics
///
/// Panics if the configuration is invalid.
#[must_use]
pub fn generate_partitions(
    config: &PartitionConfig,
    scheme: Scheme,
    count: usize,
) -> Vec<Partition> {
    config.validate();
    let _span = scan_obs::span!("generate_partitions");
    let parts = generate_partitions_inner(config, scheme, count);
    if scan_obs::enabled() {
        for part in &parts {
            for size in part.group_sizes() {
                scan_obs::metrics::record_pow2("partition.group_size", size as u64);
            }
        }
    }
    parts
}

fn generate_partitions_inner(
    config: &PartitionConfig,
    scheme: Scheme,
    count: usize,
) -> Vec<Partition> {
    match scheme {
        Scheme::RandomSelection => random_selection_partitions(config, count),
        Scheme::IntervalBased => (0..count)
            .map(|k| {
                interval_partition(config, k as u64)
                    .unwrap_or_else(|_| fixed_interval_partition(config))
            })
            .collect(),
        Scheme::TwoStep {
            interval_partitions,
        } => {
            let ni = interval_partitions.min(count);
            let mut parts: Vec<Partition> = (0..ni)
                .map(|k| {
                    interval_partition(config, k as u64)
                        .unwrap_or_else(|_| fixed_interval_partition(config))
                })
                .collect();
            parts.extend(random_selection_partitions(config, count - ni));
            parts
        }
        Scheme::FixedInterval => (0..count)
            .map(|_| fixed_interval_partition(config))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(chain_len: usize, groups: u16) -> PartitionConfig {
        PartitionConfig::new(chain_len, groups)
    }

    #[test]
    fn from_interval_lengths_paper_example() {
        // The paper's 16-cell example: lengths 5, 6, 3, 2.
        let p = Partition::from_interval_lengths(16, &[5, 6, 3, 2]);
        assert_eq!(p.num_groups(), 4);
        assert_eq!(p.group_sizes(), vec![5, 6, 3, 2]);
        assert_eq!(p.group_of(0), 0);
        assert_eq!(p.group_of(4), 0);
        assert_eq!(p.group_of(5), 1);
        assert_eq!(p.group_of(10), 1);
        assert_eq!(p.group_of(11), 2);
        assert_eq!(p.group_of(14), 3);
        assert!(p.is_interval());
    }

    #[test]
    fn from_interval_lengths_truncates_last() {
        let p = Partition::from_interval_lengths(10, &[4, 4, 8]);
        assert_eq!(p.group_sizes(), vec![4, 4, 2]);
    }

    #[test]
    #[should_panic(expected = "do not cover")]
    fn short_lengths_rejected() {
        let _ = Partition::from_interval_lengths(10, &[3, 3]);
    }

    #[test]
    fn random_selection_covers_and_varies() {
        let parts = random_selection_partitions(&cfg(100, 4), 3);
        assert_eq!(parts.len(), 3);
        for p in &parts {
            assert_eq!(p.len(), 100);
            assert_eq!(p.num_groups(), 4);
            // All groups present for a 100-cell chain, 4 labels.
            assert!(p.group_sizes().iter().all(|&s| s > 0));
        }
        // Successive partitions differ (IVR chaining).
        assert_ne!(parts[0], parts[1]);
        assert_ne!(parts[1], parts[2]);
    }

    #[test]
    fn random_selection_is_deterministic() {
        let a = random_selection_partitions(&cfg(64, 8), 2);
        let b = random_selection_partitions(&cfg(64, 8), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn random_selection_single_group() {
        let parts = random_selection_partitions(&cfg(10, 1), 1);
        assert!(parts[0].assignment().iter().all(|&g| g == 0));
    }

    #[test]
    fn random_selection_non_power_of_two_groups() {
        let parts = random_selection_partitions(&cfg(200, 6), 1);
        assert_eq!(parts[0].num_groups(), 6);
        assert!(parts[0].assignment().iter().all(|&g| g < 6));
        assert!(parts[0].group_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn interval_partition_covers_chain() {
        let p = interval_partition(&cfg(52, 4), 0).expect("seed exists");
        assert_eq!(p.len(), 52);
        assert_eq!(p.num_groups(), 4);
        assert!(p.is_interval());
        assert!(p.group_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn interval_partitions_with_different_salts_differ() {
        let a = interval_partition(&cfg(500, 8), 0).unwrap();
        let b = interval_partition(&cfg(500, 8), 1).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn fixed_interval_balanced() {
        let p = fixed_interval_partition(&cfg(10, 3));
        assert_eq!(p.group_sizes(), vec![4, 3, 3]);
        assert!(p.is_interval());
    }

    #[test]
    fn two_step_mixes_schemes() {
        let parts = generate_partitions(&cfg(128, 4), Scheme::TWO_STEP_DEFAULT, 4);
        assert_eq!(parts.len(), 4);
        assert!(parts[0].is_interval(), "first partition interval-based");
        // Random-selection partitions are essentially never intervals for
        // a 128-cell chain with 4 groups.
        assert!(!parts[1].is_interval());
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::RandomSelection.name(), "random-selection");
        assert_eq!(Scheme::TWO_STEP_DEFAULT.name(), "two-step");
    }

    #[test]
    fn is_interval_detects_fragmentation() {
        let p = Partition::from_assignment(2, vec![0, 1, 0]);
        assert!(!p.is_interval());
    }

    #[test]
    #[should_panic(expected = "more groups than chain positions")]
    fn too_many_groups_rejected() {
        let _ = random_selection_partitions(&cfg(3, 4), 1);
    }
}
