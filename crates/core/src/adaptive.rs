//! Adaptive binary-search diagnosis — the interruption-heavy baseline
//! the paper contrasts against.
//!
//! Ghosh-Dastidar & Touba's scheme (\[6\] in the paper) locates failing
//! cells by *adaptive* sessions: start with the whole chain as one
//! suspect region, split every failing region in half, and re-run BIST
//! sessions for the halves, recursing until regions are single cells.
//! It converges in `O(f · log n)` sessions for `f` failing cells but —
//! as the paper emphasizes — requires interrupting test application
//! after every round to compute the next masks, whereas partition-based
//! diagnosis runs a fixed, precomputed session schedule.
//!
//! The implementation uses the same [`ResponseModel`] signature oracle
//! as the partition schemes, so the comparison (sessions used vs
//! resolution reached) is apples-to-apples, including signature
//! aliasing.

use scan_netlist::BitSet;

use crate::session::ResponseModel;

/// Outcome of an adaptive binary-search diagnosis.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct AdaptiveOutcome {
    /// Candidate failing cells when the search stopped.
    pub candidates: BitSet,
    /// BIST sessions executed.
    pub sessions_used: usize,
    /// `true` if the search refined every region to a single cell
    /// within the session budget.
    pub converged: bool,
}

/// Runs adaptive binary-search diagnosis over a fault's error bits.
///
/// Each *session* asks the signature oracle whether the cells of one
/// contiguous shift-position region captured any error (nonzero error
/// signature — aliasing can hide a region, exactly as in hardware).
/// Regions that fail are split in half and re-examined; the search
/// stops when all failing regions are single cells or `max_sessions` is
/// exhausted (remaining multi-cell regions are reported wholesale, like
/// an aborted hardware run would).
#[must_use]
pub fn adaptive_binary_search<I>(
    model: &ResponseModel,
    error_bits: I,
    max_sessions: usize,
) -> AdaptiveOutcome
where
    I: IntoIterator<Item = (usize, usize)>,
{
    let bits: Vec<(usize, usize)> = error_bits.into_iter().collect();
    let len = model.layout().max_len();
    let num_cells = model.layout().num_cells();
    let mut sessions_used = 0usize;
    // Regions are half-open shift-position ranges.
    let mut work: Vec<(usize, usize)> = vec![(0, len)];
    let mut confirmed: Vec<(usize, usize)> = Vec::new();
    let mut aborted: Vec<(usize, usize)> = Vec::new();

    while let Some((lo, hi)) = work.pop() {
        if sessions_used >= max_sessions {
            aborted.push((lo, hi));
            continue;
        }
        sessions_used += 1;
        let signature = model.masked_signature(bits.iter().copied(), |cell, _| {
            let (_, pos) = model.layout().coord(cell);
            (lo..hi).contains(&(pos as usize))
        });
        if signature == 0 {
            continue;
        }
        if hi - lo == 1 {
            confirmed.push((lo, hi));
        } else {
            let mid = lo + (hi - lo) / 2;
            work.push((lo, mid));
            work.push((mid, hi));
        }
    }

    let mut candidates = BitSet::new(num_cells);
    for cell in 0..num_cells {
        let (_, pos) = model.layout().coord(cell);
        let pos = pos as usize;
        let inside =
            |ranges: &[(usize, usize)]| ranges.iter().any(|&(lo, hi)| (lo..hi).contains(&pos));
        if inside(&confirmed) || inside(&aborted) {
            candidates.insert(cell);
        }
    }
    AdaptiveOutcome {
        candidates,
        sessions_used,
        converged: aborted.is_empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ChainLayout;

    fn model(chain_len: usize, patterns: usize) -> ResponseModel {
        ResponseModel::new(ChainLayout::single_chain(chain_len), patterns, 16).unwrap()
    }

    #[test]
    fn finds_isolated_failing_cell_exactly() {
        let m = model(64, 8);
        let outcome = adaptive_binary_search(&m, [(37usize, 2usize)], 1000);
        assert!(outcome.converged);
        assert_eq!(outcome.candidates.iter().collect::<Vec<_>>(), vec![37]);
        // log2(64) levels ⇒ far fewer than exhaustive sessions.
        assert!(outcome.sessions_used <= 2 * 7 + 1);
    }

    #[test]
    fn finds_multiple_failing_cells() {
        let m = model(128, 4);
        let cells = [3usize, 64, 90];
        let bits: Vec<(usize, usize)> = cells.iter().map(|&c| (c, 1usize)).collect();
        let outcome = adaptive_binary_search(&m, bits, 1000);
        assert!(outcome.converged);
        let found: Vec<usize> = outcome.candidates.iter().collect();
        assert_eq!(found, vec![3, 64, 90]);
    }

    #[test]
    fn budget_exhaustion_reports_regions_wholesale() {
        let m = model(256, 4);
        let bits: Vec<(usize, usize)> = (0..16).map(|c| (c * 16, 0usize)).collect();
        let outcome = adaptive_binary_search(&m, bits.iter().copied(), 10);
        assert!(!outcome.converged);
        // Every true failing cell is still inside a reported region.
        for &(cell, _) in &bits {
            assert!(outcome.candidates.contains(cell), "lost cell {cell}");
        }
        assert!(outcome.sessions_used <= 10);
    }

    #[test]
    fn no_errors_one_session() {
        let m = model(64, 4);
        let outcome = adaptive_binary_search(&m, std::iter::empty(), 100);
        assert!(outcome.converged);
        assert!(outcome.candidates.is_empty());
        assert_eq!(outcome.sessions_used, 1);
    }

    #[test]
    fn sessions_scale_logarithmically() {
        // One failing cell on progressively longer chains: sessions grow
        // like ~2·log2(n), not n.
        let mut last = 0usize;
        for exp in [6u32, 8, 10] {
            let n = 1usize << exp;
            let m = model(n, 2);
            let outcome = adaptive_binary_search(&m, [(n / 3, 1usize)], 10_000);
            assert!(outcome.converged);
            assert!(
                outcome.sessions_used <= 2 * exp as usize + 2,
                "chain {n}: {} sessions",
                outcome.sessions_used
            );
            assert!(outcome.sessions_used >= last);
            last = outcome.sessions_used;
        }
    }
}
