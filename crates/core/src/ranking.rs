//! Suspect ranking: ordering candidate cells by evidence strength.
//!
//! The intersection-based candidate set is flat — every surviving cell
//! is equally suspect. Failure analysis benefits from an ordering:
//! physical inspection starts at the most likely cell. This module
//! scores each candidate by how *selective* the failing groups
//! containing it are (a cell that explains several small failing groups
//! outranks one that merely tags along in large ones), the same
//! evidence the cover pruning uses, kept as a ranking instead of a cut.

use scan_netlist::BitSet;

use crate::session::{DiagnosisPlan, SessionOutcome};

/// A ranked list of suspect cells, strongest evidence first.
#[derive(Clone, Debug)]
pub struct SuspectRanking {
    ranked: Vec<(usize, f64)>,
}

impl SuspectRanking {
    /// Scores and sorts the candidate cells.
    ///
    /// Each candidate's score is `Σ 1 / |failing group ∩ candidates|`
    /// over the failing groups containing it (one per partition): being
    /// one of few possible explanations of a session is strong
    /// evidence; sharing a big failing group is weak evidence. Ties
    /// break toward lower cell ids for determinism.
    #[must_use]
    pub fn compute(plan: &DiagnosisPlan, outcome: &SessionOutcome, candidates: &BitSet) -> Self {
        let cells: Vec<usize> = candidates.iter().collect();
        let rows: Vec<(&[u16], &[u64])> = (0..plan.partitions().len())
            .map(|p| (plan.cell_groups(p), outcome.row(p)))
            .collect();
        // Candidate count per (partition, group), row-major with one
        // row of `stride` groups per partition.
        let stride = plan.max_groups();
        let mut group_sizes = vec![0usize; rows.len() * stride];
        for ((groups, _), sizes) in rows.iter().zip(group_sizes.chunks_exact_mut(stride)) {
            for &cell in &cells {
                sizes[usize::from(groups[cell])] += 1;
            }
        }
        let mut ranked: Vec<(usize, f64)> = cells
            .iter()
            .map(|&cell| {
                let score: f64 = rows
                    .iter()
                    .zip(group_sizes.chunks_exact(stride))
                    .map(|((groups, verdicts), sizes)| {
                        let g = usize::from(groups[cell]);
                        if verdicts[g] != 0 {
                            1.0 / sizes[g].max(1) as f64
                        } else {
                            0.0
                        }
                    })
                    .sum();
                (cell, score)
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        SuspectRanking { ranked }
    }

    /// The ranked suspects as `(cell, score)`, strongest first.
    #[must_use]
    pub fn suspects(&self) -> &[(usize, f64)] {
        &self.ranked
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact sentinel values are the contract
mod tests {
    use super::*;
    use crate::diagnose::diagnose;
    use crate::layout::ChainLayout;
    use crate::session::BistConfig;
    use scan_bist::Scheme;

    fn plan(chain_len: usize, groups: u16, partitions: usize) -> DiagnosisPlan {
        DiagnosisPlan::new(
            ChainLayout::single_chain(chain_len),
            16,
            &BistConfig::new(groups, partitions, Scheme::TWO_STEP_DEFAULT),
        )
        .unwrap()
    }

    #[test]
    fn true_cell_ranks_first_for_isolated_error() {
        let plan = plan(100, 8, 5);
        let outcome = plan.analyze([(42usize, 3usize)]);
        let diag = diagnose(&plan, &outcome);
        let ranking = SuspectRanking::compute(&plan, &outcome, diag.candidates());
        // With an isolated error, every candidate shares exactly the
        // same failing groups as cell 42, so 42 is among the top ties;
        // it must at least be present and carry the maximum score.
        let top_score = ranking.suspects()[0].1;
        let rank42 = ranking
            .suspects()
            .iter()
            .position(|&(cell, _)| cell == 42)
            .expect("true cell is a suspect");
        assert!(
            (ranking.suspects()[rank42].1 - top_score).abs() < 1e-12,
            "true cell must carry the top score"
        );
    }

    #[test]
    fn scores_are_sorted_and_deterministic() {
        let plan = plan(200, 8, 4);
        let bits = [(10usize, 0usize), (11, 1), (150, 2)];
        let outcome = plan.analyze(bits.iter().copied());
        let diag = diagnose(&plan, &outcome);
        let a = SuspectRanking::compute(&plan, &outcome, diag.candidates());
        let b = SuspectRanking::compute(&plan, &outcome, diag.candidates());
        assert_eq!(a.suspects(), b.suspects());
        for w in a.suspects().windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn mean_rank_reflects_quality() {
        let plan = plan(100, 4, 6);
        let bits = [(20usize, 1usize), (21, 2)];
        let outcome = plan.analyze(bits.iter().copied());
        let diag = diagnose(&plan, &outcome);
        let ranking = SuspectRanking::compute(&plan, &outcome, diag.candidates());
        let rank = |truth: usize| {
            ranking
                .suspects()
                .iter()
                .position(|&(cell, _)| cell == truth)
                .expect("true cell is a suspect")
        };
        let mean = (rank(20) + rank(21)) as f64 / 2.0;
        // The true cells should sit in the upper half of the list.
        assert!(
            mean <= diag.num_candidates() as f64 / 2.0,
            "mean rank {mean} of {} candidates",
            diag.num_candidates()
        );
    }

    #[test]
    fn empty_candidates_empty_ranking() {
        let plan = plan(50, 4, 2);
        let outcome = plan.analyze(std::iter::empty());
        let diag = diagnose(&plan, &outcome);
        let ranking = SuspectRanking::compute(&plan, &outcome, diag.candidates());
        assert!(ranking.suspects().is_empty());
    }
}
