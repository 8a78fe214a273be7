//! Candidate computation from session outcomes.

use std::convert::Infallible;

use scan_netlist::BitSet;

use crate::cancel::CancelToken;
use crate::error::DiagnoseError;
use crate::session::{DiagnosisPlan, SessionOutcome};

/// Consistency classification of an intersection run — the explicit
/// outcome behind what used to be an ambiguous empty candidate set.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub enum DiagnosisStatus {
    /// At least one session failed and the intersection is nonempty.
    Consistent,
    /// No session of any partition failed: nothing to diagnose.
    AllPassed,
    /// Sessions failed, but intersecting this partition emptied the
    /// candidate set — the history contradicts itself.
    Contradictory {
        /// The 0-based partition whose step first emptied the set.
        partition: usize,
    },
}

/// The result of intersecting failing groups across partitions.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct Diagnosis {
    candidates: BitSet,
    prefix_counts: Vec<usize>,
    status: DiagnosisStatus,
}

impl Diagnosis {
    /// The candidate failing cells after all partitions: a cell remains
    /// a candidate iff it lies in a *failing* group of **every**
    /// partition (the inclusion–exclusion pruning of \[5\]).
    #[must_use]
    pub fn candidates(&self) -> &BitSet {
        &self.candidates
    }

    /// Number of candidates after all partitions.
    #[must_use]
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Candidate count after only the first `k` partitions
    /// (`prefix_counts()[k−1]`); used to measure how quickly a scheme
    /// converges (the paper's Fig. 5).
    #[must_use]
    pub fn prefix_counts(&self) -> &[usize] {
        &self.prefix_counts
    }

    /// Removes known-unobservable cells (e.g. X-masked positions) from
    /// the candidate set. Prefix counts keep reporting the raw
    /// intersection sizes.
    #[must_use]
    pub fn without_cells(mut self, excluded: &scan_netlist::BitSet) -> Self {
        self.candidates.difference_with(excluded);
        self
    }

    /// Consistency classification of this intersection run.
    ///
    /// An empty candidate set is ambiguous on its own; the status says
    /// whether it means "nothing failed" ([`DiagnosisStatus::AllPassed`])
    /// or "the history contradicts itself"
    /// ([`DiagnosisStatus::Contradictory`]).
    #[must_use]
    pub fn status(&self) -> DiagnosisStatus {
        self.status
    }
}

/// Intersects failing groups across partitions to produce the candidate
/// set.
///
/// Cells in a passing group of any partition are pruned; what remains
/// after each successive partition is recorded in
/// [`Diagnosis::prefix_counts`]. The work is proportional to the
/// candidates: the first partition's failing groups seed them, and
/// each later partition filters the survivors.
#[must_use]
pub fn diagnose(plan: &DiagnosisPlan, outcome: &SessionOutcome) -> Diagnosis {
    let Ok(diagnosis) = intersect(plan, outcome, &mut |_| Ok::<(), Infallible>(()));
    diagnosis
}

/// Like [`diagnose`], but polls `cancel` **between partition sessions**
/// so a deadline reaper or draining service can stop a long
/// intersection run cooperatively. The cancelled prefix is discarded —
/// a partial intersection over-approximates the candidate set and must
/// not be mistaken for a diagnosis.
///
/// # Errors
///
/// Returns [`DiagnoseError::Cancelled`] (with the number of partitions
/// fully intersected) when `cancel` fires before the run completes.
pub(crate) fn diagnose_cancellable(
    plan: &DiagnosisPlan,
    outcome: &SessionOutcome,
    cancel: &CancelToken,
) -> Result<Diagnosis, DiagnoseError> {
    intersect(plan, outcome, &mut |p| poll_cancel(cancel, p))
}

/// The poll of a cancellable run: [`DiagnoseError::Cancelled`] once
/// `cancel` has fired, reporting `completed` partitions fully
/// intersected.
pub(crate) fn poll_cancel(cancel: &CancelToken, completed: usize) -> Result<(), DiagnoseError> {
    if cancel.is_cancelled() {
        Err(DiagnoseError::Cancelled {
            completed_partitions: completed,
        })
    } else {
        Ok(())
    }
}

/// The intersection loop behind [`diagnose`]: `poll(p)` runs before
/// partition `p` is intersected, and its first `Err` ends the run.
pub(crate) fn intersect<E>(
    plan: &DiagnosisPlan,
    outcome: &SessionOutcome,
    poll: &mut impl FnMut(usize) -> Result<(), E>,
) -> Result<Diagnosis, E> {
    let num_partitions = plan.partitions().len();
    let mut candidates: Vec<u32> = Vec::new();
    let mut prefix_counts = Vec::with_capacity(num_partitions);
    let mut first_empty: Option<usize> = None;
    for p in 0..num_partitions {
        poll(p)?;
        if p == 0 {
            // The first partition's failing groups seed the candidates;
            // groups past its group count hold no cells.
            for group in outcome.failing_groups(0) {
                candidates.extend_from_slice(plan.first_partition_cells(group));
            }
        } else {
            let groups = plan.cell_groups(p);
            let verdicts = outcome.row(p);
            candidates.retain(|&cell| verdicts[usize::from(groups[cell as usize])] != 0);
        }
        scan_obs::metrics::record_pow2("diagnose.candidates_per_step", candidates.len() as u64);
        prefix_counts.push(candidates.len());
        if candidates.is_empty() && first_empty.is_none() {
            first_empty = Some(p);
        }
    }
    let status = if outcome.all_passed() {
        DiagnosisStatus::AllPassed
    } else {
        match first_empty {
            Some(partition) => DiagnosisStatus::Contradictory { partition },
            None => DiagnosisStatus::Consistent,
        }
    };
    let mut set = BitSet::new(plan.layout().num_cells());
    for cell in candidates {
        set.insert(cell as usize);
    }
    Ok(Diagnosis {
        candidates: set,
        prefix_counts,
        status,
    })
}

/// Like [`diagnose`], but surfaces histories that cannot yield a
/// meaningful candidate set as explicit errors instead of silently
/// returning an empty [`Diagnosis`].
///
/// # Errors
///
/// Returns [`DiagnoseError::AllSessionsPassed`] when no session of any
/// partition failed, and [`DiagnoseError::ContradictoryHistory`] when
/// intersecting some partition's failing groups empties the candidate
/// set even though sessions did fail.
pub fn diagnose_checked(
    plan: &DiagnosisPlan,
    outcome: &SessionOutcome,
) -> Result<Diagnosis, DiagnoseError> {
    let diagnosis = diagnose(plan, outcome);
    match diagnosis.status() {
        DiagnosisStatus::Consistent => Ok(diagnosis),
        DiagnosisStatus::AllPassed => Err(DiagnoseError::AllSessionsPassed),
        DiagnosisStatus::Contradictory { partition } => {
            Err(DiagnoseError::ContradictoryHistory { partition })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ChainLayout;
    use crate::session::BistConfig;
    use scan_bist::Scheme;

    fn plan(chain_len: usize, groups: u16, partitions: usize) -> DiagnosisPlan {
        DiagnosisPlan::new(
            ChainLayout::single_chain(chain_len),
            8,
            &BistConfig::new(groups, partitions, Scheme::RandomSelection),
        )
        .unwrap()
    }

    #[test]
    fn candidates_contain_true_failing_cell() {
        let plan = plan(100, 4, 6);
        let outcome = plan.analyze([(42usize, 3usize), (42, 5)]);
        let diag = diagnose(&plan, &outcome);
        assert!(diag.candidates().contains(42));
    }

    #[test]
    fn prefix_counts_monotonically_shrink() {
        let plan = plan(200, 8, 6);
        let outcome = plan.analyze([(13usize, 0usize), (150, 2)]);
        let diag = diagnose(&plan, &outcome);
        let counts = diag.prefix_counts();
        assert_eq!(counts.len(), 6);
        for w in counts.windows(2) {
            assert!(w[1] <= w[0], "candidate counts must be non-increasing");
        }
        assert_eq!(*counts.last().unwrap(), diag.num_candidates());
    }

    #[test]
    fn single_error_narrows_to_one_group_intersection() {
        let plan = plan(64, 8, 1);
        let outcome = plan.analyze([(20usize, 1usize)]);
        let diag = diagnose(&plan, &outcome);
        // One partition: candidates = the failing group's cells.
        let group = plan.partitions()[0].group_of(20);
        let expected: Vec<usize> = plan.partitions()[0].members(group).collect();
        assert_eq!(diag.candidates().iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn no_errors_no_candidates() {
        let plan = plan(64, 4, 3);
        let outcome = plan.analyze(std::iter::empty());
        let diag = diagnose(&plan, &outcome);
        assert_eq!(diag.num_candidates(), 0);
        assert_eq!(diag.status(), DiagnosisStatus::AllPassed);
        assert_eq!(
            diagnose_checked(&plan, &outcome),
            Err(DiagnoseError::AllSessionsPassed)
        );
    }

    #[test]
    fn consistent_history_has_consistent_status() {
        let plan = plan(100, 4, 6);
        let outcome = plan.analyze([(42usize, 3usize), (42, 5)]);
        let diag = diagnose(&plan, &outcome);
        assert_eq!(diag.status(), DiagnosisStatus::Consistent);
        let checked = diagnose_checked(&plan, &outcome).expect("consistent history");
        assert_eq!(checked, diag);
    }

    #[test]
    fn contradictory_history_names_first_empty_partition() {
        let plan = plan(64, 8, 3);
        // Fabricate a contradiction: partition 0 says group of cell 20
        // failed, partition 1 says a group *not* containing cell 20 (or
        // any of its co-group cells) failed. Build it directly from
        // per-session verdicts.
        let p0 = plan.partitions()[0].group_of(20);
        let g0: Vec<usize> = plan.partitions()[0].members(p0).collect();
        // Pick a partition-1 group containing none of g0's cells, if
        // one exists; the random partitions at 8 groups on 64 cells
        // make this overwhelmingly likely.
        let p1_groups: std::collections::BTreeSet<usize> = g0
            .iter()
            .map(|&c| usize::from(plan.partitions()[1].group_of(c)))
            .collect();
        let disjoint = (0..usize::from(plan.partitions()[1].num_groups()))
            .find(|g| !p1_groups.contains(g))
            .expect("some partition-1 group avoids all of g0");
        let num_partitions = plan.partitions().len();
        let max_groups = plan
            .partitions()
            .iter()
            .map(scan_bist::Partition::num_groups)
            .max()
            .unwrap() as usize;
        let mut failed = vec![vec![false; max_groups]; num_partitions];
        failed[0][p0 as usize] = true;
        failed[1][disjoint] = true;
        let outcome = SessionOutcome::from_verdicts(failed);
        let diag = diagnose(&plan, &outcome);
        assert_eq!(diag.num_candidates(), 0);
        assert_eq!(
            diag.status(),
            DiagnosisStatus::Contradictory { partition: 1 }
        );
        assert_eq!(
            diagnose_checked(&plan, &outcome),
            Err(DiagnoseError::ContradictoryHistory { partition: 1 })
        );
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_partition() {
        let plan = plan(100, 4, 6);
        let outcome = plan.analyze([(42usize, 3usize)]);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            diagnose_cancellable(&plan, &outcome, &token),
            Err(DiagnoseError::Cancelled {
                completed_partitions: 0
            })
        );
    }

    #[test]
    fn live_token_is_bit_identical_to_plain_diagnose() {
        let plan = plan(200, 8, 6);
        let outcome = plan.analyze([(13usize, 0usize), (150, 2)]);
        let baseline = diagnose(&plan, &outcome);
        let cancellable = diagnose_cancellable(&plan, &outcome, &CancelToken::new())
            .expect("live token never cancels");
        assert_eq!(baseline, cancellable);
    }

    #[test]
    fn more_partitions_refine() {
        let plan1 = plan(300, 4, 1);
        let plan8 = plan(300, 4, 8);
        let bits = [(7usize, 0usize), (8, 1), (9, 2)];
        let d1 = diagnose(&plan1, &plan1.analyze(bits.iter().copied()));
        let d8 = diagnose(&plan8, &plan8.analyze(bits.iter().copied()));
        assert!(d8.num_candidates() <= d1.num_candidates());
        for b in &bits {
            assert!(d8.candidates().contains(b.0));
        }
    }
}
