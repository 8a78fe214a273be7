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

    /// Total BIST sessions the program executes.
    #[must_use]
    pub fn total_sessions(&self) -> usize {
        self.partitions.len() * usize::from(self.groups)
    }

    /// Total tester storage for the program in bits: seeds, counts, and
    /// per-session reference signatures.
    #[must_use]
    pub fn storage_bits(&self, misr_degree: u32) -> usize {
        let seeds: usize = self
            .partitions
            .iter()
            .map(|p| match p {
                PartitionProgram::Interval { .. } | PartitionProgram::RandomSelection { .. } => 16,
                PartitionProgram::FixedInterval => 0,
            })
            .sum();
        // PRPG seed (32) + counts (~48) + one golden signature per
        // session.
        32 + 48 + seeds + self.total_sessions() * misr_degree as usize
    }
}

/// Computes the fault-free reference signature of every session of a
/// plan — the values the tester compares against (the dominant part of
/// [`TestProgram::storage_bits`]).
///
/// Uses the same linear superposition machinery as diagnosis: the
/// golden signature of a session is the MISR image of the golden `1`
/// bits it compacts, so it is [`DiagnosisPlan::analyze_packed`] over
/// the golden response's words, with no stepwise replay.
///
/// Returns `signatures[partition][group]`.
///
/// [`DiagnosisPlan::analyze_packed`]: crate::session::DiagnosisPlan::analyze_packed
#[must_use]
pub fn golden_signatures(
    plan: &crate::session::DiagnosisPlan,
    golden: &scan_sim::ResponseMap,
) -> Vec<Vec<u64>> {
    let words = golden.num_patterns().div_ceil(64);
    let outcome = plan.analyze_packed(
        (0..plan.layout().num_cells())
            .flat_map(|cell| (0..words).map(move |w| (cell, w, golden.word(cell, w)))),
    );
    (0..outcome.num_partitions())
        .map(|p| {
            (0..outcome.num_groups(p) as u16)
                .map(|g| outcome.error_signature(p, g))
                .collect()
        })
        .collect()
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
        assert_eq!(program.total_sessions(), 20);
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
    fn golden_signatures_match_stepwise_misr() {
        use crate::layout::ChainLayout;
        use crate::lfsr_patterns;
        use crate::session::DiagnosisPlan;
        use scan_bist::Misr;
        use scan_netlist::{bench, ScanView};
        use scan_sim::FaultSimulator;

        let circuit = bench::s27();
        let view = ScanView::natural(&circuit, true);
        let num_patterns = 20usize;
        let patterns = lfsr_patterns(&circuit, num_patterns, 0xACE1);
        let fsim = FaultSimulator::new(&circuit, &view, &patterns).unwrap();
        let config = BistConfig::new(2, 2, Scheme::TWO_STEP_DEFAULT);
        let plan = DiagnosisPlan::new(ChainLayout::single_chain(view.len()), num_patterns, &config)
            .unwrap();
        let fast = super::golden_signatures(&plan, fsim.golden());
        for (p, partition) in plan.partitions().iter().enumerate() {
            for g in 0..partition.num_groups() {
                let mut misr = Misr::new(config.misr_degree).unwrap();
                for t in 0..num_patterns {
                    for pos in 0..view.len() {
                        let bit = fsim.golden().bit(pos, t) && partition.group_of(pos) == g;
                        misr.clock(u64::from(bit));
                    }
                }
                assert_eq!(
                    fast[p][usize::from(g)],
                    misr.signature(),
                    "partition {p} group {g}"
                );
            }
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

    #[test]
    fn storage_is_modest() {
        let config = BistConfig::new(32, 8, Scheme::TWO_STEP_DEFAULT);
        let program = TestProgram::generate(7244, 128, 1, &config).unwrap();
        // 256 sessions × 16-bit signatures + seeds: well under 1 KB.
        assert!(program.storage_bits(16) < 8 * 1024);
    }
}
