//! Test program export: the complete, self-contained description of a
//! diagnosis run that a tester (or the on-chip BIST controller) needs.
//!
//! A partition-based diagnosis is fully determined by a handful of
//! seeds and counts — that is the paper's operational advantage over
//! adaptive schemes ("the entire diagnosis process can be carried out
//! without interruptions or manual intervention"). [`TestProgram`]
//! materializes that description: per partition, the selection mode and
//! seed; globally, the PRPG seed, pattern count, and MISR polynomial.
//! Rendering it yields a human-auditable program listing.

use std::fmt;

use scan_bist::seed::find_interval_seed;
use scan_bist::{primitive_poly, Scheme};

use crate::error::BuildPlanError;
use crate::session::BistConfig;

/// The selection-hardware setup of one partition.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub enum PartitionProgram {
    /// Interval mode: IVR seed and the number of selected length bits.
    Interval {
        /// IVR value.
        seed: u64,
        /// Stages read per interval length.
        k_bits: u32,
    },
    /// Fixed-interval fallback (no per-partition state needed).
    FixedInterval,
    /// Random-selection mode; the IVR chains from the previous random
    /// partition, so only the first seed is stored.
    RandomSelection {
        /// IVR value at the start of this partition.
        ivr: u64,
    },
}

/// A complete diagnosis test program.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct TestProgram {
    /// Scan chain length (shift cycles per pattern).
    pub chain_len: usize,
    /// Patterns per session.
    pub num_patterns: usize,
    /// PRPG seed for stimulus generation.
    pub prpg_seed: u64,
    /// Groups per partition.
    pub groups: u16,
    /// MISR feedback polynomial (coefficient mask).
    pub misr_poly: u64,
    /// Partition LFSR feedback polynomial.
    pub partition_poly: u64,
    /// Per-partition hardware setup, in execution order.
    pub partitions: Vec<PartitionProgram>,
}

impl TestProgram {
    /// Derives the program for a single-chain configuration, running
    /// the same seed search and IVR chaining the diagnosis plan uses.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPlanError`] on degenerate configurations, more
    /// groups than chain positions, or unsupported register widths.
    pub fn generate(
        chain_len: usize,
        num_patterns: usize,
        prpg_seed: u64,
        config: &BistConfig,
    ) -> Result<Self, BuildPlanError> {
        if chain_len == 0 || num_patterns == 0 || config.partitions == 0 || config.groups == 0 {
            return Err(BuildPlanError::DegenerateConfig);
        }
        if usize::from(config.groups) > chain_len {
            return Err(BuildPlanError::TooManyGroups {
                groups: config.groups,
                positions: chain_len,
            });
        }
        let misr_poly =
            primitive_poly(config.misr_degree).map_err(|_| BuildPlanError::UnsupportedDegree {
                degree: config.misr_degree,
            })?;
        let partition_poly = primitive_poly(config.partition_lfsr_degree).map_err(|_| {
            BuildPlanError::UnsupportedDegree {
                degree: config.partition_lfsr_degree,
            }
        })?;
        let interval_count = match config.scheme {
            Scheme::IntervalBased => config.partitions,
            Scheme::TwoStep {
                interval_partitions,
            } => interval_partitions.min(config.partitions),
            Scheme::FixedInterval => {
                return Ok(TestProgram {
                    chain_len,
                    num_patterns,
                    prpg_seed,
                    groups: config.groups,
                    misr_poly,
                    partition_poly,
                    partitions: vec![PartitionProgram::FixedInterval; config.partitions],
                })
            }
            Scheme::RandomSelection => 0,
        };
        let mut partitions = Vec::with_capacity(config.partitions);
        for salt in 0..interval_count {
            match find_interval_seed(
                chain_len,
                config.groups,
                config.partition_lfsr_degree,
                salt as u64,
            ) {
                Ok(found) => partitions.push(PartitionProgram::Interval {
                    seed: found.seed,
                    k_bits: found.k_bits,
                }),
                Err(_) => partitions.push(PartitionProgram::FixedInterval),
            }
        }
        if partitions.len() < config.partitions {
            // Random partitions chain through the IVR; record each
            // partition's starting IVR for auditability.
            let mut lfsr = scan_bist::Lfsr::new(config.partition_lfsr_degree).map_err(|_| {
                BuildPlanError::UnsupportedDegree {
                    degree: config.partition_lfsr_degree,
                }
            })?;
            let mut ivr = config.partition_seed;
            while partitions.len() < config.partitions {
                partitions.push(PartitionProgram::RandomSelection { ivr });
                lfsr.load(ivr);
                for _ in 0..chain_len {
                    lfsr.step();
                }
                ivr = lfsr.state();
            }
        }
        Ok(TestProgram {
            chain_len,
            num_patterns,
            prpg_seed,
            groups: config.groups,
            misr_poly,
            partition_poly,
            partitions,
        })
    }
}

impl fmt::Display for TestProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# scan-BIST diagnosis test program")?;
        writeln!(f, "chain_len    {}", self.chain_len)?;
        writeln!(f, "patterns     {}", self.num_patterns)?;
        writeln!(f, "prpg_seed    {:#010x}", self.prpg_seed)?;
        writeln!(f, "groups       {}", self.groups)?;
        writeln!(f, "misr_poly    {:#x}", self.misr_poly)?;
        writeln!(f, "part_poly    {:#x}", self.partition_poly)?;
        for (i, p) in self.partitions.iter().enumerate() {
            match p {
                PartitionProgram::Interval { seed, k_bits } => {
                    writeln!(f, "partition {i}: interval seed={seed:#06x} k={k_bits}")?;
                }
                PartitionProgram::FixedInterval => {
                    writeln!(f, "partition {i}: fixed-interval")?;
                }
                PartitionProgram::RandomSelection { ivr } => {
                    writeln!(f, "partition {i}: random ivr={ivr:#06x}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_groups_than_chain_positions_is_a_typed_error() {
        let config = BistConfig::new(8, 2, Scheme::TWO_STEP_DEFAULT);
        assert_eq!(
            TestProgram::generate(4, 32, 1, &config).err(),
            Some(BuildPlanError::TooManyGroups {
                groups: 8,
                positions: 4
            })
        );
    }

    #[test]
    fn two_step_program_structure() {
        let config = BistConfig::new(4, 5, Scheme::TWO_STEP_DEFAULT);
        let program = TestProgram::generate(228, 128, 0xACE1, &config).unwrap();
        assert_eq!(program.partitions.len(), 5);
        assert!(matches!(
            program.partitions[0],
            PartitionProgram::Interval { .. }
        ));
        for p in &program.partitions[1..] {
            assert!(matches!(p, PartitionProgram::RandomSelection { .. }));
        }
    }

    #[test]
    fn random_partitions_chain_ivrs() {
        let config = BistConfig::new(4, 3, Scheme::RandomSelection);
        let program = TestProgram::generate(100, 16, 1, &config).unwrap();
        let ivrs: Vec<u64> = program
            .partitions
            .iter()
            .map(|p| match p {
                PartitionProgram::RandomSelection { ivr } => *ivr,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ivrs[0], 1);
        assert_ne!(ivrs[0], ivrs[1]);
        assert_ne!(ivrs[1], ivrs[2]);
    }

    #[test]
    fn program_matches_plan_partitions() {
        // The recorded interval seed regenerates exactly the plan's
        // first partition.
        use crate::layout::ChainLayout;
        use crate::session::DiagnosisPlan;
        use scan_bist::partition::Partition;
        use scan_bist::seed::lengths_from_seed;
        let config = BistConfig::new(8, 2, Scheme::TWO_STEP_DEFAULT);
        let chain_len = 300;
        let program = TestProgram::generate(chain_len, 32, 1, &config).unwrap();
        let plan = DiagnosisPlan::new(ChainLayout::single_chain(chain_len), 32, &config).unwrap();
        if let PartitionProgram::Interval { seed, k_bits } = program.partitions[0] {
            let lengths = lengths_from_seed(seed, 8, k_bits, config.partition_lfsr_degree);
            let rebuilt = Partition::from_interval_lengths(chain_len, &lengths);
            assert_eq!(&rebuilt, &plan.partitions()[0]);
        } else {
            panic!("first partition must be interval mode");
        }
    }

    #[test]
    fn display_lists_every_partition() {
        let config = BistConfig::new(2, 4, Scheme::FixedInterval);
        let program = TestProgram::generate(64, 8, 7, &config).unwrap();
        let text = program.to_string();
        assert_eq!(text.matches("fixed-interval").count(), 4);
        assert!(text.contains("prpg_seed"));
    }
}
