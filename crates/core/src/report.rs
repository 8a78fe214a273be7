//! Human-readable per-fault diagnosis reports.
//!
//! Campaigns aggregate thousands of faults into one DR number; a
//! failure analyst debugging *one* part wants the opposite: which
//! sessions failed, which chain intervals remain suspect, and how the
//! evidence narrowed. [`FaultReport`] captures that and renders it as
//! text (used by `scanbist diagnose --fault`).

use std::fmt;

use scan_netlist::BitSet;

use crate::diagnose::{diagnose, Diagnosis};
use crate::pruning::prune_by_cover;
use crate::session::{DiagnosisPlan, SessionOutcome};

/// The full evidence trail of diagnosing one fault.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// Displayable fault name (e.g. `G10/SA1`).
    pub fault: String,
    /// Actually failing observation positions (ground truth, when
    /// available from simulation).
    pub actual: Vec<usize>,
    /// Failing groups per partition.
    pub failing_groups: Vec<Vec<u16>>,
    /// Candidate count after each partition prefix.
    pub prefix_counts: Vec<usize>,
    /// Final candidate positions, as maximal runs `[start, end]`.
    pub candidate_runs: Vec<(usize, usize)>,
    /// Candidates after cover pruning, as maximal runs.
    pub pruned_runs: Vec<(usize, usize)>,
}

impl FaultReport {
    /// Diagnoses one fault's packed error words (`ErrorMap::iter_words`
    /// triples, see [`DiagnosisPlan::analyze_packed`]) under `plan` and
    /// assembles the report. `fault` is a display name; `actual` the
    /// ground-truth failing positions (empty slice when unknown).
    #[must_use]
    pub fn build<I>(
        fault: impl Into<String>,
        plan: &DiagnosisPlan,
        error_words: I,
        actual: &[usize],
    ) -> Self
    where
        I: IntoIterator<Item = (usize, usize, u64)>,
    {
        let outcome = plan.analyze_packed(error_words);
        let diag = diagnose(plan, &outcome);
        let pruned = prune_by_cover(plan, &outcome, diag.candidates());
        Self::from_parts(fault, plan, &outcome, &diag, &pruned, actual)
    }

    /// Assembles a report from already-computed diagnosis artifacts.
    #[must_use]
    pub fn from_parts(
        fault: impl Into<String>,
        plan: &DiagnosisPlan,
        outcome: &SessionOutcome,
        diag: &Diagnosis,
        pruned: &BitSet,
        actual: &[usize],
    ) -> Self {
        let failing_groups = (0..plan.partitions().len())
            .map(|p| outcome.failing_groups(p).collect())
            .collect();
        FaultReport {
            fault: fault.into(),
            actual: actual.to_vec(),
            failing_groups,
            prefix_counts: diag.prefix_counts().to_vec(),
            candidate_runs: runs(diag.candidates()),
            pruned_runs: runs(pruned),
        }
    }

    /// Number of final candidates.
    #[must_use]
    pub fn num_candidates(&self) -> usize {
        self.candidate_runs.iter().map(|&(s, e)| e - s + 1).sum()
    }
}

/// Collapses a set of positions into maximal inclusive runs.
#[must_use]
pub fn runs(set: &BitSet) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    for cell in set {
        match out.last_mut() {
            Some((_, end)) if *end + 1 == cell => *end = cell,
            _ => out.push((cell, cell)),
        }
    }
    out
}

fn fmt_runs(runs: &[(usize, usize)]) -> String {
    if runs.is_empty() {
        return "(none)".to_owned();
    }
    runs.iter()
        .map(|&(s, e)| {
            if s == e {
                s.to_string()
            } else {
                format!("{s}-{e}")
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fault {}", self.fault)?;
        if !self.actual.is_empty() {
            writeln!(f, "  true failing positions: {:?}", self.actual)?;
        }
        for (p, groups) in self.failing_groups.iter().enumerate() {
            writeln!(f, "  partition {p}: failing groups {groups:?}")?;
        }
        writeln!(
            f,
            "  candidates by partition prefix: {:?}",
            self.prefix_counts
        )?;
        writeln!(
            f,
            "  final candidates ({}): {}",
            self.num_candidates(),
            fmt_runs(&self.candidate_runs)
        )?;
        writeln!(f, "  after pruning: {}", fmt_runs(&self.pruned_runs))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ChainLayout;
    use crate::session::BistConfig;
    use scan_bist::Scheme;
    use scan_netlist::BitSet;

    #[test]
    fn runs_collapse_consecutive_cells() {
        let mut set = BitSet::new(20);
        for i in [1usize, 2, 3, 7, 10, 11] {
            set.insert(i);
        }
        assert_eq!(runs(&set), vec![(1, 3), (7, 7), (10, 11)]);
        assert_eq!(runs(&BitSet::new(5)), vec![]);
    }

    #[test]
    fn report_renders_evidence_trail() {
        let plan = DiagnosisPlan::new(
            ChainLayout::single_chain(64),
            16,
            &BistConfig::new(4, 3, Scheme::TWO_STEP_DEFAULT),
        )
        .unwrap();
        let report = FaultReport::build(
            "demo/SA1",
            &plan,
            [(20usize, 0usize, 1u64 << 3), (21, 0, 1 << 4)],
            &[20, 21],
        );
        assert_eq!(report.failing_groups.len(), 3);
        assert!(report.num_candidates() >= 2);
        let text = report.to_string();
        assert!(text.contains("fault demo/SA1"));
        assert!(text.contains("partition 0"));
        assert!(text.contains("after pruning"));
        assert!(text.contains("true failing positions"));
    }

    #[test]
    fn candidate_count_matches_runs() {
        let plan = DiagnosisPlan::new(
            ChainLayout::single_chain(32),
            8,
            &BistConfig::new(2, 2, Scheme::RandomSelection),
        )
        .unwrap();
        let report = FaultReport::build("x", &plan, [(5usize, 0usize, 1u64 << 1)], &[]);
        let total: usize = report.candidate_runs.iter().map(|&(s, e)| e - s + 1).sum();
        assert_eq!(total, report.num_candidates());
    }
}
