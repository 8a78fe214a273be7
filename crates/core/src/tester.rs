//! A virtual tester: the complete scan-BIST diagnosis flow executed
//! through the *hardware* path.
//!
//! Everything else in this crate computes session verdicts through the
//! linear MISR model; [`VirtualTester`] instead replays what the silicon
//! and the ATE actually do, cycle by cycle:
//!
//! 1. the PRPG loads the chain and drives the PIs for every pattern;
//! 2. the circuit captures; the chain shifts out through the Fig. 1
//!    selection logic ([`SelectionHardware`]) into a stepwise
//!    [`Misr`];
//! 3. the tester compares each session signature against the
//!    fault-free reference and records pass/fail;
//! 4. failing groups are intersected across partitions.
//!
//! It is the executable specification the fast engine is tested
//! against (see `tests/hardware_consistency.rs` and the unit tests
//! here), and a debugging aid when hardware behaviour is in question.
//! It supports a single scan chain (the configuration of the paper's
//! Tables 1 and 2).

use scan_bist::selection::{SelectionHardware, SelectionMode};
use scan_bist::{Lfsr, Misr, Scheme};
use scan_netlist::{BitSet, Netlist, ScanView};
use scan_sim::{Fault, FaultSimulator, PatternSet, ResponseMap};

use crate::error::BuildPlanError;
use crate::session::BistConfig;

/// The hardware-path diagnosis flow for a single-chain circuit.
pub struct VirtualTester<'a> {
    /// Reference oracle: only it returns the whole faulty responses the tester compacts.
    fsim: FaultSimulator<'a>,
    view: &'a ScanView,
    patterns: &'a PatternSet,
    config: BistConfig,
}

/// The tester's observations for one fault: per-session verdicts and
/// the resulting candidate set.
#[derive(Clone, Debug)]
pub struct TesterRun {
    /// `fails[partition][group]`.
    pub fails: Vec<Vec<bool>>,
    /// Cells in a failing group of every partition.
    pub candidates: BitSet,
    /// BIST sessions executed.
    pub sessions: usize,
}

impl<'a> VirtualTester<'a> {
    /// Creates a tester for the circuit/patterns/BIST configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BuildPlanError::DegenerateConfig`] for empty configs,
    /// [`BuildPlanError::TooManyGroups`] for more groups than scan
    /// positions, [`BuildPlanError::UnsupportedDegree`] for bad
    /// register widths,
    /// or [`BuildPlanError::PatternShape`] if `patterns` does not match
    /// the netlist interface.
    pub fn new(
        netlist: &'a Netlist,
        view: &'a ScanView,
        patterns: &'a PatternSet,
        config: BistConfig,
    ) -> Result<Self, BuildPlanError> {
        if config.partitions == 0 || config.groups == 0 || patterns.num_patterns() == 0 {
            return Err(BuildPlanError::DegenerateConfig);
        }
        if usize::from(config.groups) > view.len() {
            return Err(BuildPlanError::TooManyGroups {
                groups: config.groups,
                positions: view.len(),
            });
        }
        if Misr::new(config.misr_degree).is_err() {
            return Err(BuildPlanError::UnsupportedDegree {
                degree: config.misr_degree,
            });
        }
        if Lfsr::new(config.partition_lfsr_degree).is_err() {
            return Err(BuildPlanError::UnsupportedDegree {
                degree: config.partition_lfsr_degree,
            });
        }
        let fsim =
            FaultSimulator::new(netlist, view, patterns).map_err(BuildPlanError::PatternShape)?;
        Ok(VirtualTester {
            fsim,
            view,
            patterns,
            config,
        })
    }

    /// Executes the full diagnosis flow for one injected fault,
    /// replaying every session through the selection hardware and a
    /// stepwise MISR.
    ///
    /// # Panics
    ///
    /// Never in practice: [`new`](Self::new) checks both register
    /// degrees.
    #[must_use]
    pub fn diagnose(&self, fault: &Fault) -> TesterRun {
        let golden = self.fsim.golden();
        let faulty = self.fsim.response(fault);
        let chain_len = self.view.len();

        let mut fails: Vec<Vec<bool>> = Vec::with_capacity(self.config.partitions);
        let mut sessions = 0usize;

        // Interval-based partitions first (two-step/interval schemes).
        let interval_count = match self.config.scheme {
            Scheme::IntervalBased => self.config.partitions,
            Scheme::TwoStep {
                interval_partitions,
            } => interval_partitions.min(self.config.partitions),
            _ => 0,
        };
        for salt in 0..interval_count {
            let found = scan_bist::seed::find_interval_seed(
                chain_len,
                self.config.groups,
                self.config.partition_lfsr_degree,
                salt as u64,
            );
            let Ok(found) = found else {
                // Mirror the engine's fallback: fixed intervals need no
                // hardware randomness, so emulate them with a mask
                // directly.
                fails.push(self.fixed_interval_partition_fails(golden, &faulty, &mut sessions));
                continue;
            };
            let mut hw = SelectionHardware::new(
                Lfsr::new(self.config.partition_lfsr_degree).expect("degree checked"),
                found.seed,
                self.config.groups,
                SelectionMode::Interval {
                    k_bits: found.k_bits,
                },
            );
            fails.push(self.run_partition(&mut hw, golden, &faulty, &mut sessions));
        }

        // Random-selection partitions for the remainder.
        let remaining = self.config.partitions - fails.len();
        if remaining > 0 || matches!(self.config.scheme, Scheme::FixedInterval) {
            if self.config.scheme == Scheme::FixedInterval {
                for _ in 0..self.config.partitions {
                    fails.push(self.fixed_interval_partition_fails(golden, &faulty, &mut sessions));
                }
            } else {
                let mut hw = SelectionHardware::new(
                    Lfsr::new(self.config.partition_lfsr_degree).expect("degree checked"),
                    self.config.partition_seed,
                    self.config.groups,
                    SelectionMode::RandomSelection,
                );
                for _ in 0..remaining {
                    fails.push(self.run_partition(&mut hw, golden, &faulty, &mut sessions));
                    hw.finish_partition(chain_len);
                }
            }
        }

        // Intersect failing groups. Group membership per position comes
        // from replaying the masks once more — the tester knows its own
        // schedule, not the engine's partition tables.
        let mut candidates = BitSet::full(chain_len);
        // Rebuild masks in the same order to attribute positions.
        let masks = self.all_session_masks();
        for (p, partition_fails) in fails.iter().enumerate() {
            let mut keep = BitSet::new(chain_len);
            for (g, &failed) in partition_fails.iter().enumerate() {
                if failed {
                    for (pos, &selected) in masks[p][g].iter().enumerate() {
                        if selected && candidates.contains(pos) {
                            keep.insert(pos);
                        }
                    }
                }
            }
            candidates = keep;
        }

        TesterRun {
            fails,
            candidates,
            sessions,
        }
    }

    fn run_partition(
        &self,
        hw: &mut SelectionHardware,
        golden: &ResponseMap,
        faulty: &ResponseMap,
        sessions: &mut usize,
    ) -> Vec<bool> {
        let chain_len = self.view.len();
        (0..self.config.groups)
            .map(|g| {
                *sessions += 1;
                let mask = hw.session_mask(g, chain_len);
                self.session_fails(&mask, golden, faulty)
            })
            .collect()
    }

    fn fixed_interval_partition_fails(
        &self,
        golden: &ResponseMap,
        faulty: &ResponseMap,
        sessions: &mut usize,
    ) -> Vec<bool> {
        let chain_len = self.view.len();
        let partition = scan_bist::partition::fixed_interval_partition(
            &scan_bist::PartitionConfig::new(chain_len, self.config.groups),
        );
        (0..self.config.groups)
            .map(|g| {
                *sessions += 1;
                let mask: Vec<bool> = (0..chain_len)
                    .map(|pos| partition.group_of(pos) == g)
                    .collect();
                self.session_fails(&mask, golden, faulty)
            })
            .collect()
    }

    /// One BIST session: shift every pattern's response through the
    /// masked single-input MISR, for both machines; compare signatures.
    fn session_fails(&self, mask: &[bool], golden: &ResponseMap, faulty: &ResponseMap) -> bool {
        let mut misr_golden = Misr::new(self.config.misr_degree).expect("degree checked");
        let mut misr_faulty = Misr::new(self.config.misr_degree).expect("degree checked");
        for t in 0..self.patterns.num_patterns() {
            for (pos, &selected) in mask.iter().enumerate() {
                misr_golden.clock(u64::from(golden.bit(pos, t) && selected));
                misr_faulty.clock(u64::from(faulty.bit(pos, t) && selected));
            }
        }
        misr_golden.signature() != misr_faulty.signature()
    }

    /// Replays all session masks in schedule order (used to attribute
    /// chain positions to groups during intersection).
    fn all_session_masks(&self) -> Vec<Vec<Vec<bool>>> {
        let chain_len = self.view.len();
        let mut masks = Vec::with_capacity(self.config.partitions);
        let interval_count = match self.config.scheme {
            Scheme::IntervalBased => self.config.partitions,
            Scheme::TwoStep {
                interval_partitions,
            } => interval_partitions.min(self.config.partitions),
            _ => 0,
        };
        for salt in 0..interval_count {
            match scan_bist::seed::find_interval_seed(
                chain_len,
                self.config.groups,
                self.config.partition_lfsr_degree,
                salt as u64,
            ) {
                Ok(found) => {
                    let mut hw = SelectionHardware::new(
                        Lfsr::new(self.config.partition_lfsr_degree).expect("degree checked"),
                        found.seed,
                        self.config.groups,
                        SelectionMode::Interval {
                            k_bits: found.k_bits,
                        },
                    );
                    masks.push(
                        (0..self.config.groups)
                            .map(|g| hw.session_mask(g, chain_len))
                            .collect(),
                    );
                }
                Err(_) => masks.push(self.fixed_masks(chain_len)),
            }
        }
        if self.config.scheme == Scheme::FixedInterval {
            for _ in 0..self.config.partitions {
                masks.push(self.fixed_masks(chain_len));
            }
        } else {
            let mut hw = SelectionHardware::new(
                Lfsr::new(self.config.partition_lfsr_degree).expect("degree checked"),
                self.config.partition_seed,
                self.config.groups,
                SelectionMode::RandomSelection,
            );
            for _ in 0..self.config.partitions - masks.len() {
                masks.push(
                    (0..self.config.groups)
                        .map(|g| hw.session_mask(g, chain_len))
                        .collect(),
                );
                hw.finish_partition(chain_len);
            }
        }
        masks
    }

    fn fixed_masks(&self, chain_len: usize) -> Vec<Vec<bool>> {
        let partition = scan_bist::partition::fixed_interval_partition(
            &scan_bist::PartitionConfig::new(chain_len, self.config.groups),
        );
        (0..self.config.groups)
            .map(|g| {
                (0..chain_len)
                    .map(|pos| partition.group_of(pos) == g)
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::diagnose;
    use crate::layout::ChainLayout;
    use crate::lfsr_patterns;
    use crate::session::DiagnosisPlan;
    use scan_netlist::generate;

    #[test]
    fn virtual_tester_agrees_with_fast_engine() {
        // The headline consistency result: the hardware path and the
        // superposition engine produce identical verdicts and identical
        // candidate sets, fault for fault, for every scheme.
        let circuit = generate::benchmark("s953");
        let view = ScanView::natural(&circuit, true);
        let patterns = lfsr_patterns(&circuit, 24, 0xACE1);
        let fsim = FaultSimulator::new(&circuit, &view, &patterns).unwrap();
        let faults = fsim.sample_detected_faults(4, 7);
        for scheme in [
            Scheme::RandomSelection,
            Scheme::IntervalBased,
            Scheme::TWO_STEP_DEFAULT,
            Scheme::FixedInterval,
        ] {
            let config = BistConfig::new(4, 3, scheme);
            let tester = VirtualTester::new(&circuit, &view, &patterns, config).unwrap();
            let plan =
                DiagnosisPlan::new(ChainLayout::single_chain(view.len()), 24, &config).unwrap();
            for fault in &faults {
                let hw_run = tester.diagnose(fault);
                let outcome = plan.analyze_packed(fsim.error_map(fault).iter_words());
                for (p, partition) in plan.partitions().iter().enumerate() {
                    for g in 0..partition.num_groups() {
                        assert_eq!(
                            hw_run.fails[p][usize::from(g)],
                            outcome.failed(p, g),
                            "{scheme:?} fault {} partition {p} group {g}",
                            fault.describe(&circuit)
                        );
                    }
                }
                let engine = diagnose(&plan, &outcome);
                assert_eq!(
                    &hw_run.candidates,
                    engine.candidates(),
                    "{scheme:?} fault {} candidate sets differ",
                    fault.describe(&circuit)
                );
            }
        }
    }

    #[test]
    fn session_count_matches_schedule() {
        let circuit = generate::benchmark("s386");
        let view = ScanView::natural(&circuit, true);
        let patterns = lfsr_patterns(&circuit, 16, 1);
        let config = BistConfig::new(4, 3, Scheme::TWO_STEP_DEFAULT);
        let tester = VirtualTester::new(&circuit, &view, &patterns, config).unwrap();
        let fsim = FaultSimulator::new(&circuit, &view, &patterns).unwrap();
        let fault = fsim.sample_detected_faults(1, 1)[0];
        let run = tester.diagnose(&fault);
        assert_eq!(run.sessions, 3 * 4);
    }

    #[test]
    fn degenerate_config_rejected() {
        let circuit = generate::benchmark("s386");
        let view = ScanView::natural(&circuit, true);
        let patterns = lfsr_patterns(&circuit, 16, 1);
        let config = BistConfig::new(0, 3, Scheme::RandomSelection);
        assert!(VirtualTester::new(&circuit, &view, &patterns, config).is_err());
    }

    #[test]
    fn mismatched_patterns_rejected() {
        // Patterns shaped for another circuit are a typed error at
        // construction, not a panic in `diagnose`.
        let circuit = generate::benchmark("s386");
        let view = ScanView::natural(&circuit, true);
        let patterns = lfsr_patterns(&generate::benchmark("s953"), 16, 1);
        let config = BistConfig::new(4, 3, Scheme::RandomSelection);
        let err = VirtualTester::new(&circuit, &view, &patterns, config).err();
        assert!(matches!(
            err,
            Some(BuildPlanError::PatternShape(shape))
                if shape.expected_pis == circuit.num_inputs() && shape.found_pis == patterns.num_pis()
        ));
    }
}
