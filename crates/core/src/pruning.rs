//! Post-processing pruning of the candidate set.
//!
//! The paper refines the intersection-based candidate set with the
//! superposition technique of Bayraktaroglu & Orailoglu \[7\]. This
//! module implements a *cover-based* refinement with the same role (see
//! `DESIGN.md` §3/§5): every failing session must be *explained* by at
//! least one error-capturing cell it compacts, so
//!
//! 1. a failing group whose only remaining candidate is `c` *confirms*
//!    `c` (it must be failing);
//! 2. a candidate is pruned when every failing group containing it is
//!    already explained by a confirmed cell;
//! 3. pruning can create new single-candidate groups, so the two rules
//!    iterate to a fixpoint.
//!
//! The refinement is conservative for isolated errors and, like \[7\],
//! heuristic in general: it never removes the last possible explanation
//! of any failing session.

use scan_netlist::BitSet;

use crate::session::{DiagnosisPlan, SessionOutcome};

/// Prunes a candidate set using failing-group cover analysis.
///
/// `candidates` is the intersection-based candidate set from
/// [`diagnose`](crate::diagnose::diagnose); the result is a subset that
/// still explains every failing session.
///
/// The fixpoint runs on bit masks indexed by candidate, one per failing
/// group that holds a candidate, all in one flat buffer: its cost
/// follows the candidates and their failing groups, never the chain.
#[must_use]
pub fn prune_by_cover(
    plan: &DiagnosisPlan,
    outcome: &SessionOutcome,
    candidates: &BitSet,
) -> BitSet {
    let cells: Vec<usize> = candidates.iter().collect();
    let words = cells.len().div_ceil(64).max(1);

    // One mask of candidate indices per failing group with a candidate
    // member. `row_of[g]` is group g's row if it lies at or past the
    // current partition's first row, and stale otherwise.
    let mut groups: Vec<u64> = Vec::new();
    let mut row_of = vec![usize::MAX; plan.max_groups()];
    for p in 0..plan.partitions().len() {
        let first_row = groups.len() / words;
        let cell_groups = plan.cell_groups(p);
        let verdicts = outcome.row(p);
        for (i, &cell) in cells.iter().enumerate() {
            let group = usize::from(cell_groups[cell]);
            if verdicts[group] == 0 {
                continue;
            }
            let row = &mut row_of[group];
            if *row == usize::MAX || *row < first_row {
                *row = groups.len() / words;
                groups.resize(groups.len() + words, 0);
            }
            groups[*row * words + i / 64] |= 1 << (i % 64);
        }
    }

    let mut current = vec![0u64; words];
    for i in 0..cells.len() {
        current[i / 64] |= 1 << (i % 64);
    }
    let mut confirmed = vec![0u64; words];
    let mut next = vec![0u64; words];
    loop {
        // Rule 1: single-candidate groups confirm their cell.
        confirmed.fill(0);
        for group in groups.chunks_exact(words) {
            if let Some(i) = sole_member(group, &current) {
                confirmed[i / 64] |= 1 << (i % 64);
            }
        }
        // Rule 2: keep confirmed cells plus every member of a group not
        // yet explained by a confirmed cell.
        next.copy_from_slice(&confirmed);
        for group in groups.chunks_exact(words) {
            let explained = group.iter().zip(&confirmed).any(|(g, c)| g & c != 0);
            if !explained {
                for ((n, g), c) in next.iter_mut().zip(group).zip(&current) {
                    *n |= g & c;
                }
            }
        }
        if next == current {
            break;
        }
        std::mem::swap(&mut current, &mut next);
    }

    let mut pruned = BitSet::new(candidates.capacity());
    for (i, &cell) in cells.iter().enumerate() {
        if current[i / 64] >> (i % 64) & 1 != 0 {
            pruned.insert(cell);
        }
    }
    pruned
}

/// The index of the one candidate in both `group` and `current`, if
/// there is exactly one.
fn sole_member(group: &[u64], current: &[u64]) -> Option<usize> {
    let mut sole = None;
    for (w, (g, c)) in group.iter().zip(current).enumerate() {
        let live = g & c;
        if live == 0 {
            continue;
        }
        if sole.is_some() || live & (live - 1) != 0 {
            return None;
        }
        sole = Some(w * 64 + live.trailing_zeros() as usize);
    }
    sole
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::diagnose;
    use crate::layout::ChainLayout;
    use crate::session::BistConfig;
    use scan_bist::Scheme;

    fn plan(chain_len: usize, groups: u16, partitions: usize, scheme: Scheme) -> DiagnosisPlan {
        DiagnosisPlan::new(
            ChainLayout::single_chain(chain_len),
            16,
            &BistConfig::new(groups, partitions, scheme),
        )
        .unwrap()
    }

    #[test]
    fn pruning_never_grows_the_set() {
        let plan = plan(128, 4, 4, Scheme::RandomSelection);
        let bits = [(10usize, 0usize), (11, 1), (90, 3)];
        let outcome = plan.analyze(bits.iter().copied());
        let diag = diagnose(&plan, &outcome);
        let pruned = prune_by_cover(&plan, &outcome, diag.candidates());
        assert!(pruned.is_subset(diag.candidates()));
    }

    #[test]
    fn pruning_keeps_every_session_explained() {
        let plan = plan(200, 8, 6, Scheme::TWO_STEP_DEFAULT);
        let bits = [(20usize, 2usize), (21, 2), (22, 4), (160, 1)];
        let outcome = plan.analyze(bits.iter().copied());
        let diag = diagnose(&plan, &outcome);
        let pruned = prune_by_cover(&plan, &outcome, diag.candidates());
        // Every failing group retains at least one pruned candidate —
        // unless the failing group had no candidates at all (aliasing),
        // which cannot happen for these explicit error bits.
        for (p, partition) in plan.partitions().iter().enumerate() {
            for g in outcome.failing_groups(p) {
                let has = partition.members(g).any(|pos| pruned.contains(pos));
                assert!(has, "partition {p} group {g} lost all explanations");
            }
        }
    }

    #[test]
    fn isolated_single_error_is_confirmed_not_pruned() {
        let plan = plan(100, 4, 6, Scheme::RandomSelection);
        let outcome = plan.analyze([(55usize, 3usize)]);
        let diag = diagnose(&plan, &outcome);
        let pruned = prune_by_cover(&plan, &outcome, diag.candidates());
        assert!(pruned.contains(55), "true failing cell must survive");
    }

    #[test]
    fn pruning_handles_empty_candidates() {
        let plan = plan(64, 4, 2, Scheme::RandomSelection);
        let outcome = plan.analyze(std::iter::empty());
        let diag = diagnose(&plan, &outcome);
        let pruned = prune_by_cover(&plan, &outcome, diag.candidates());
        assert!(pruned.is_empty());
    }
}
