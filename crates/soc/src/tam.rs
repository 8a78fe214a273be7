//! Test access mechanism (TAM) modelling: `TestRail` daisy-chain schedules
//! and bypass accounting.
//!
//! The paper's SOC experiments use a `TestRail` \[Marinissen et al.\]: meta
//! scan chains threaded through the cores' internal chains. Patterns are
//! transported to all cores in one session; when a core runs out of test
//! patterns it is *bypassed* (a 1-bit register replaces its chain
//! segment), shortening subsequent shifts. This module computes those
//! schedules and cycle counts; the diagnosis experiments themselves use
//! uniform pattern budgets (see `DESIGN.md` §5).

use crate::meta_chain::Soc;

/// Per-core test requirements for schedule computation.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub struct CoreTestPlan {
    /// Number of BIST patterns this core needs.
    pub patterns: usize,
}

/// One phase of a daisy-chain schedule: the set of still-active cores
/// and the per-pattern shift length while they are active.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct SchedulePhase {
    /// Cores still receiving patterns (indices into [`Soc::cores`]).
    pub active_cores: Vec<usize>,
    /// Patterns applied during this phase.
    pub patterns: usize,
    /// Shift cycles per pattern (longest active chain segment; bypassed
    /// cores contribute one cycle each).
    pub shift_cycles: usize,
}

/// A complete daisy-chain test schedule.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct TestSchedule {
    phases: Vec<SchedulePhase>,
}

impl TestSchedule {
    /// Computes the daisy-chain schedule for an SOC given each core's
    /// pattern budget: all cores start active; after each phase the
    /// core(s) with the smallest remaining budget are bypassed.
    ///
    /// # Panics
    ///
    /// Panics if `plans.len()` differs from the SOC's core count.
    #[must_use]
    pub fn daisy_chain(soc: &Soc, plans: &[CoreTestPlan]) -> Self {
        assert_eq!(
            plans.len(),
            soc.cores().len(),
            "one test plan per core required"
        );
        let mut remaining: Vec<(usize, usize)> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.patterns))
            .collect();
        let mut applied = 0usize;
        let mut phases = Vec::new();
        loop {
            remaining.retain(|&(_, budget)| budget > applied);
            if remaining.is_empty() {
                break;
            }
            let next_stop = remaining.iter().map(|&(_, b)| b).min().expect("non-empty");
            let active: Vec<usize> = remaining.iter().map(|&(i, _)| i).collect();
            let shift_cycles = Self::phase_shift_cycles(soc, &active);
            phases.push(SchedulePhase {
                active_cores: active,
                patterns: next_stop - applied,
                shift_cycles,
            });
            applied = next_stop;
        }
        TestSchedule { phases }
    }

    fn phase_shift_cycles(soc: &Soc, active: &[usize]) -> usize {
        // Per chain: active cores contribute their full segment length,
        // bypassed cores one bypass flop.
        let active_set: std::collections::BTreeSet<usize> = active.iter().copied().collect();
        soc.chains()
            .iter()
            .map(|chain| {
                let mut cycles = 0usize;
                let mut bypassed_seen: std::collections::BTreeSet<u32> =
                    std::collections::BTreeSet::new();
                for cell in chain {
                    if active_set.contains(&(cell.core as usize)) {
                        cycles += 1;
                    } else if bypassed_seen.insert(cell.core) {
                        cycles += 1; // the bypass register
                    }
                }
                cycles
            })
            .max()
            .unwrap_or(0)
    }

    /// The schedule phases in application order.
    #[must_use]
    pub fn phases(&self) -> &[SchedulePhase] {
        &self.phases
    }

    /// Total scan shift cycles over the whole schedule (excluding
    /// capture cycles).
    #[must_use]
    pub fn total_shift_cycles(&self) -> usize {
        self.phases
            .iter()
            .map(|p| p.patterns * p.shift_cycles)
            .sum()
    }

    /// Total patterns applied (the maximum core budget).
    #[must_use]
    pub fn total_patterns(&self) -> usize {
        self.phases.iter().map(|p| p.patterns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_module::CoreModule;
    use scan_netlist::generate::{generate, profile};

    fn soc3() -> Soc {
        let cores = vec![
            CoreModule::new(generate(profile("s298").unwrap(), 1)),
            CoreModule::new(generate(profile("s344").unwrap(), 1)),
            CoreModule::new(generate(profile("s386").unwrap(), 1)),
        ];
        Soc::single_chain("trio", cores).unwrap()
    }

    #[test]
    fn uniform_budgets_single_phase() {
        let soc = soc3();
        let plans = vec![CoreTestPlan { patterns: 100 }; 3];
        let sched = TestSchedule::daisy_chain(&soc, &plans);
        assert_eq!(sched.phases().len(), 1);
        assert_eq!(sched.total_patterns(), 100);
        assert_eq!(
            sched.phases()[0].shift_cycles,
            soc.total_positions(),
            "single chain: every position shifts"
        );
    }

    #[test]
    fn bypass_shortens_later_phases() {
        let soc = soc3();
        let plans = vec![
            CoreTestPlan { patterns: 50 },
            CoreTestPlan { patterns: 100 },
            CoreTestPlan { patterns: 100 },
        ];
        let sched = TestSchedule::daisy_chain(&soc, &plans);
        assert_eq!(sched.phases().len(), 2);
        let p0 = &sched.phases()[0];
        let p1 = &sched.phases()[1];
        assert_eq!(p0.patterns, 50);
        assert_eq!(p1.patterns, 50);
        assert!(p1.shift_cycles < p0.shift_cycles);
        // Bypassing core 0 (s298 view: 14 FFs + 6 POs = 20 positions)
        // replaces 20 cells with 1 bypass flop.
        assert_eq!(p0.shift_cycles - p1.shift_cycles, 20 - 1);
    }

    #[test]
    fn distinct_budgets_three_phases() {
        let soc = soc3();
        let plans = vec![
            CoreTestPlan { patterns: 10 },
            CoreTestPlan { patterns: 20 },
            CoreTestPlan { patterns: 30 },
        ];
        let sched = TestSchedule::daisy_chain(&soc, &plans);
        assert_eq!(sched.phases().len(), 3);
        assert_eq!(sched.total_patterns(), 30);
        assert_eq!(sched.phases()[2].active_cores, vec![2]);
        let total = sched.total_shift_cycles();
        assert!(total > 0);
    }

    #[test]
    fn zero_budget_core_never_active() {
        let soc = soc3();
        let plans = vec![
            CoreTestPlan { patterns: 0 },
            CoreTestPlan { patterns: 5 },
            CoreTestPlan { patterns: 5 },
        ];
        let sched = TestSchedule::daisy_chain(&soc, &plans);
        assert!(sched.phases().iter().all(|p| !p.active_cores.contains(&0)));
    }
}
