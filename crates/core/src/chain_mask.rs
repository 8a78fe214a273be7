//! Per-chain session masking: a selection-hardware variant for
//! multi-chain TAMs.
//!
//! The baseline selection logic gates *shift cycles*, so on a `w`-chain
//! TAM the `w` cells at the same position of different chains always
//! share a group — they are indistinguishable at group granularity, and
//! Table 4's diagnostic resolution has a floor of about `w − 1` extra
//! suspects per true failing cell. Adding a chain-select compare to the
//! selection logic (one more comparator against a chain counter) splits
//! every session per chain: `partitions × groups × chains` sessions,
//! each compacting one group of one chain. The `ablation_chain_mask`
//! experiment quantifies the resolution/time trade.

use scan_netlist::BitSet;

use crate::session::DiagnosisPlan;

/// Pass/fail verdicts of chain-masked sessions:
/// `failed(partition, group, chain)`.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct ChainMaskedOutcome {
    groups: usize,
    chains: usize,
    /// Verdicts, indexed `(partition · groups + group) · chains + chain`.
    fails: Vec<bool>,
}

impl ChainMaskedOutcome {
    /// Whether the session for (`partition`, `group`, `chain`) failed.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn failed(&self, partition: usize, group: u16, chain: usize) -> bool {
        assert!(
            usize::from(group) < self.groups && chain < self.chains,
            "session index out of range"
        );
        self.fails[(partition * self.groups + usize::from(group)) * self.chains + chain]
    }
}

/// Runs every chain-masked session over packed error words
/// (`(global cell, word_index, bits)` triples, as
/// [`DiagnosisPlan::analyze_packed`] takes them): each cell's words
/// compact into one signature, which lands in the session of its group
/// on its chain in every partition.
///
/// # Panics
///
/// Panics if a cell or an encoded pattern is out of range.
#[must_use]
pub fn analyze_chain_masked<I>(plan: &DiagnosisPlan, error_words: I) -> ChainMaskedOutcome
where
    I: IntoIterator<Item = (usize, usize, u64)>,
{
    let chains = plan.layout().num_chains();
    let groups = plan.max_groups();
    let mut signatures = vec![0u64; plan.partitions().len() * groups * chains];
    plan.model().compact_cells(error_words, |cell, signature| {
        let (chain, pos) = plan.layout().coord(cell);
        for (p, partition) in plan.partitions().iter().enumerate() {
            let g = usize::from(partition.group_of(pos as usize));
            signatures[(p * groups + g) * chains + chain as usize] ^= signature;
        }
    });
    ChainMaskedOutcome {
        groups,
        chains,
        fails: signatures.iter().map(|&s| s != 0).collect(),
    }
}

/// Candidate cells under chain masking: a cell survives iff, in every
/// partition, the session of *its group on its chain* failed. Each
/// partition reads the plan's cell→group row, as
/// [`diagnose`](crate::diagnose::diagnose) does.
#[must_use]
pub fn diagnose_chain_masked(plan: &DiagnosisPlan, outcome: &ChainMaskedOutcome) -> BitSet {
    let layout = plan.layout();
    let mut candidates: Vec<(u32, u32)> = (0..layout.num_cells())
        .map(|cell| (cell as u32, layout.coord(cell).0))
        .collect();
    for p in 0..plan.partitions().len() {
        let groups = plan.cell_groups(p);
        candidates
            .retain(|&(cell, chain)| outcome.failed(p, groups[cell as usize], chain as usize));
    }
    let mut set = BitSet::new(layout.num_cells());
    for (cell, _) in candidates {
        set.insert(cell as usize);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ChainLayout;
    use crate::session::BistConfig;
    use scan_bist::Scheme;

    fn multi_chain_plan(chains: usize, len: usize) -> DiagnosisPlan {
        let mut coords = Vec::new();
        for c in 0..chains {
            for p in 0..len {
                coords.push((c as u32, p as u32));
            }
        }
        DiagnosisPlan::new(
            ChainLayout::from_coords(coords),
            8,
            &BistConfig::new(4, 3, Scheme::RandomSelection),
        )
        .unwrap()
    }

    #[test]
    fn chain_masking_separates_twin_cells() {
        let plan = multi_chain_plan(4, 32);
        // One error on chain 2, position 10.
        let cell = 2 * 32 + 10;
        let outcome = analyze_chain_masked(&plan, [(cell, 0usize, 1u64 << 3)]);
        let candidates = diagnose_chain_masked(&plan, &outcome);
        assert!(candidates.contains(cell));
        // The same-position cells on other chains are pruned — unlike
        // the shift-position-only architecture.
        for other_chain in [0usize, 1, 3] {
            assert!(!candidates.contains(other_chain * 32 + 10));
        }
    }

    #[test]
    fn chain_masked_never_worse_than_baseline() {
        use crate::diagnose::diagnose;
        let plan = multi_chain_plan(3, 40);
        let words = [
            (5usize, 0usize, 1u64 << 1),
            (47, 0, 1 << 2),
            (100, 0, 1 << 6),
        ];
        let masked =
            diagnose_chain_masked(&plan, &analyze_chain_masked(&plan, words.iter().copied()));
        let baseline = diagnose(&plan, &plan.analyze_packed(words.iter().copied()));
        assert!(masked.is_subset(baseline.candidates()));
        for &(cell, _, _) in &words {
            assert!(masked.contains(cell));
        }
    }
}
