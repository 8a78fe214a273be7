//! Failing test *vector* identification — the time-domain companion of
//! failing-cell diagnosis.
//!
//! The paper's reference \[4\] (Liu, Chakrabarty & Gössel, DATE 2002)
//! applies the same interval idea along the *pattern axis*: BIST
//! sessions mask whole patterns instead of cells, partitions group
//! pattern indices, and intersecting failing groups identifies the
//! failing vectors. This module reproduces that scheme on top of the
//! shared [`ResponseModel`], so space diagnosis (which cells) and time
//! diagnosis (which vectors) can be run from the same fault evidence.

use scan_bist::partition::{generate_partitions, PartitionConfig};
use scan_bist::{primitive_poly, Partition, Scheme};
use scan_netlist::BitSet;

use crate::error::BuildPlanError;
use crate::session::{ResponseModel, SessionOutcome};

/// A diagnosis setup over the pattern axis: partitions group *pattern
/// indices*; session `(p, g)` compacts the full responses of exactly
/// the patterns in group `g` of partition `p`.
#[derive(Clone, Debug)]
pub struct VectorDiagnosisPlan {
    model: ResponseModel,
    partitions: Vec<Partition>,
}

impl VectorDiagnosisPlan {
    /// Builds the plan: `partitions` partitions of the pattern indices
    /// into `groups` groups under `scheme`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPlanError`] if the configuration is degenerate,
    /// asks for more groups than patterns, or a degree is unsupported.
    pub fn new(
        model: ResponseModel,
        groups: u16,
        partitions: usize,
        scheme: Scheme,
        partition_lfsr_degree: u32,
        partition_seed: u64,
    ) -> Result<Self, BuildPlanError> {
        if partitions == 0 || groups == 0 {
            return Err(BuildPlanError::DegenerateConfig);
        }
        if usize::from(groups) > model.num_patterns() {
            return Err(BuildPlanError::TooManyGroups {
                groups,
                positions: model.num_patterns(),
            });
        }
        if primitive_poly(partition_lfsr_degree).is_err() {
            return Err(BuildPlanError::UnsupportedDegree {
                degree: partition_lfsr_degree,
            });
        }
        let mut config = PartitionConfig::new(model.num_patterns(), groups);
        config.lfsr_degree = partition_lfsr_degree;
        config.seed = partition_seed;
        let partitions = generate_partitions(&config, scheme, partitions);
        Ok(VectorDiagnosisPlan { model, partitions })
    }

    /// The underlying response model.
    #[must_use]
    pub fn model(&self) -> &ResponseModel {
        &self.model
    }

    /// The pattern-axis partitions.
    #[must_use]
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Runs every session over a sparse error map and returns pass/fail
    /// verdicts per (partition, pattern-group).
    #[must_use]
    pub fn analyze<I>(&self, error_bits: I) -> SessionOutcome
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let groups = usize::from(
            self.partitions
                .iter()
                .map(Partition::num_groups)
                .max()
                .unwrap_or(0),
        );
        let mut signatures = vec![vec![0u64; groups]; self.partitions.len()];
        for (cell, pattern) in error_bits {
            let contribution = self.model.contribution(cell, pattern);
            for (p, partition) in self.partitions.iter().enumerate() {
                let g = usize::from(partition.group_of(pattern));
                signatures[p][g] ^= contribution;
            }
        }
        SessionOutcome::from_signatures(signatures)
    }

    /// Intersects failing pattern-groups across partitions, returning
    /// the candidate failing vectors.
    #[must_use]
    pub fn diagnose(&self, outcome: &SessionOutcome) -> BitSet {
        let n = self.model.num_patterns();
        let mut candidates = BitSet::full(n);
        for (p, partition) in self.partitions.iter().enumerate() {
            let mut keep = BitSet::new(n);
            for pattern in &candidates {
                if outcome.failed(p, partition.group_of(pattern)) {
                    keep.insert(pattern);
                }
            }
            candidates = keep;
        }
        candidates
    }
}

/// The set of patterns that actually produced at least one error bit.
#[must_use]
pub fn actual_failing_vectors<I>(num_patterns: usize, error_bits: I) -> BitSet
where
    I: IntoIterator<Item = (usize, usize)>,
{
    let mut set = BitSet::new(num_patterns);
    for (_, pattern) in error_bits {
        set.insert(pattern);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ChainLayout;

    fn model(chain_len: usize, patterns: usize) -> ResponseModel {
        ResponseModel::new(ChainLayout::single_chain(chain_len), patterns, 16).unwrap()
    }

    fn plan(
        chain_len: usize,
        patterns: usize,
        groups: u16,
        parts: usize,
        scheme: Scheme,
    ) -> VectorDiagnosisPlan {
        VectorDiagnosisPlan::new(model(chain_len, patterns), groups, parts, scheme, 16, 1).unwrap()
    }

    #[test]
    fn unsupported_partition_degree_is_a_typed_error() {
        for scheme in [Scheme::RandomSelection, Scheme::TWO_STEP_DEFAULT] {
            let err = VectorDiagnosisPlan::new(model(20, 64), 4, 3, scheme, 40, 1);
            assert_eq!(
                err.err(),
                Some(BuildPlanError::UnsupportedDegree { degree: 40 })
            );
        }
    }

    #[test]
    fn failing_vectors_are_found() {
        let plan = plan(40, 64, 4, 4, Scheme::RandomSelection);
        let bits = [(3usize, 7usize), (10, 7), (5, 40)];
        let outcome = plan.analyze(bits.iter().copied());
        let candidates = plan.diagnose(&outcome);
        assert!(candidates.contains(7));
        assert!(candidates.contains(40));
        let actual = actual_failing_vectors(64, bits.iter().copied());
        assert!(actual.is_subset(&candidates));
    }

    #[test]
    fn passing_groups_prune_vectors() {
        let plan = plan(40, 64, 8, 6, Scheme::TWO_STEP_DEFAULT);
        let bits = [(3usize, 7usize)];
        let outcome = plan.analyze(bits.iter().copied());
        let candidates = plan.diagnose(&outcome);
        // Only groups containing pattern 7 fail; with 6 partitions of 8
        // groups the candidate count is far below 64.
        assert!(candidates.contains(7));
        assert!(candidates.len() < 16, "got {}", candidates.len());
    }

    #[test]
    fn interval_scheme_clusters_burst_failures() {
        // A burst of consecutive failing patterns (e.g. an intermittent
        // defect window): one interval partition confines candidates.
        let random = plan(40, 128, 4, 1, Scheme::RandomSelection);
        let interval = plan(40, 128, 4, 1, Scheme::IntervalBased);
        let bits: Vec<(usize, usize)> = (30..36).map(|t| (5usize, t)).collect();
        let c_random = random.diagnose(&random.analyze(bits.iter().copied()));
        let c_interval = interval.diagnose(&interval.analyze(bits.iter().copied()));
        assert!(
            c_interval.len() <= c_random.len(),
            "interval {} vs random {}",
            c_interval.len(),
            c_random.len()
        );
    }

    #[test]
    fn no_errors_no_failing_vectors() {
        let plan = plan(16, 32, 4, 2, Scheme::RandomSelection);
        let outcome = plan.analyze(std::iter::empty());
        assert!(plan.diagnose(&outcome).is_empty());
    }

    #[test]
    fn too_many_groups_rejected() {
        let err = VectorDiagnosisPlan::new(model(16, 4), 8, 2, Scheme::RandomSelection, 16, 1);
        assert!(matches!(
            err,
            Err(BuildPlanError::TooManyGroups {
                groups: 8,
                positions: 4
            })
        ));
    }
}
