//! Windowed signature analysis: using time *and* space information.
//!
//! The paper's reference \[2\] (Ghosh-Dastidar, Das & Touba) improves
//! scan-BIST diagnosis by reading intermediate MISR snapshots during a
//! session instead of one final signature. Snapshot `w` taken every
//! `window` patterns localizes errors in time: by MISR linearity, the
//! window's own error contribution is nonzero iff the snapshot sequence
//! deviates from the fault-free one at that point — so each session
//! yields one pass/fail verdict *per window*, at the cost of unloading
//! the signature register more often.
//!
//! Combined with the paper's cell-axis partitions this gives
//! `(partition, group, window)` granularity: failing cells from the
//! space axis, failing pattern windows from the time axis.

use scan_netlist::BitSet;

use crate::session::DiagnosisPlan;

/// Per-window pass/fail verdicts for every session of a plan.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct WindowedOutcome {
    /// `fails[partition][group][window]`.
    fails: Vec<Vec<Vec<bool>>>,
    window: usize,
    num_patterns: usize,
}

impl WindowedOutcome {
    /// Whether window `w` of group `g` in partition `p` failed.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn failed(&self, partition: usize, group: u16, window: usize) -> bool {
        self.fails[partition][usize::from(group)][window]
    }

    /// Patterns per window.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of windows per session.
    #[must_use]
    pub fn num_windows(&self) -> usize {
        self.num_patterns.div_ceil(self.window)
    }

    /// Candidate failing vectors: the union over sessions of patterns
    /// inside failing windows, intersected across partitions.
    #[must_use]
    pub fn candidate_vectors(&self) -> BitSet {
        let mut candidates = BitSet::full(self.num_patterns);
        for partition in &self.fails {
            let mut this = BitSet::new(self.num_patterns);
            for group in partition {
                for (w, &failed) in group.iter().enumerate() {
                    if failed {
                        let start = w * self.window;
                        let end = ((w + 1) * self.window).min(self.num_patterns);
                        for t in start..end {
                            this.insert(t);
                        }
                    }
                }
            }
            candidates.intersect_with(&this);
        }
        candidates
    }
}

/// Analyzes a sparse error map with intermediate snapshots every
/// `window` patterns.
///
/// # Panics
///
/// Panics if `window` is zero or any error bit is out of range.
#[must_use]
pub fn analyze_windows<I>(plan: &DiagnosisPlan, window: usize, error_bits: I) -> WindowedOutcome
where
    I: IntoIterator<Item = (usize, usize)>,
{
    assert!(window >= 1, "window must be at least one pattern");
    let num_patterns = plan.num_patterns();
    let num_windows = num_patterns.div_ceil(window);
    let groups = usize::from(
        plan.partitions()
            .iter()
            .map(scan_bist::Partition::num_groups)
            .max()
            .unwrap_or(0),
    );
    let mut signatures = vec![vec![vec![0u64; num_windows]; groups]; plan.partitions().len()];
    for (cell, pattern) in error_bits {
        let (_, pos) = plan.layout().coord(cell);
        let contribution = plan.contribution(cell, pattern);
        let w = pattern / window;
        for (p, partition) in plan.partitions().iter().enumerate() {
            let g = usize::from(partition.group_of(pos as usize));
            signatures[p][g][w] ^= contribution;
        }
    }
    let fails = signatures
        .iter()
        .map(|partition| {
            partition
                .iter()
                .map(|group| group.iter().map(|&s| s != 0).collect())
                .collect()
        })
        .collect();
    WindowedOutcome {
        fails,
        window,
        num_patterns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ChainLayout;
    use crate::session::BistConfig;
    use scan_bist::Scheme;

    fn plan(chain_len: usize, patterns: usize) -> DiagnosisPlan {
        DiagnosisPlan::new(
            ChainLayout::single_chain(chain_len),
            patterns,
            &BistConfig::new(4, 2, Scheme::TWO_STEP_DEFAULT),
        )
        .unwrap()
    }

    #[test]
    fn windows_localize_errors_in_time() {
        let plan = plan(40, 64);
        let outcome = analyze_windows(&plan, 16, [(5usize, 20usize)]);
        assert_eq!(outcome.num_windows(), 4);
        // The error at pattern 20 is in window 1 only.
        for p in 0..plan.partitions().len() {
            let g = plan.partitions()[p].group_of(5);
            assert!(outcome.failed(p, g, 1));
            assert!(!outcome.failed(p, g, 0));
            assert!(!outcome.failed(p, g, 2));
        }
    }

    #[test]
    fn candidate_vectors_are_window_bounded() {
        let plan = plan(40, 64);
        let outcome = analyze_windows(&plan, 8, [(5usize, 20usize), (30, 55)]);
        let candidates = outcome.candidate_vectors();
        assert!(candidates.contains(20));
        assert!(candidates.contains(55));
        // Patterns in untouched windows are excluded.
        assert!(!candidates.contains(0));
        assert!(!candidates.contains(40));
        // Resolution is window-granular: the whole window of 20 remains.
        assert!(candidates.contains(16) && candidates.contains(23));
    }

    #[test]
    fn window_one_gives_exact_vectors_without_aliasing() {
        let plan = plan(40, 32);
        let bits = [(3usize, 7usize), (9, 19)];
        let outcome = analyze_windows(&plan, 1, bits.iter().copied());
        let candidates = outcome.candidate_vectors();
        assert_eq!(candidates.iter().collect::<Vec<_>>(), vec![7, 19]);
    }

    #[test]
    fn finer_windows_never_lose_failing_vectors() {
        let plan = plan(64, 64);
        let bits: Vec<(usize, usize)> = vec![(1, 4), (2, 4), (17, 40), (60, 63)];
        for window in [1usize, 4, 16, 64] {
            let outcome = analyze_windows(&plan, window, bits.iter().copied());
            let candidates = outcome.candidate_vectors();
            for &(_, t) in &bits {
                assert!(candidates.contains(t), "window {window} lost pattern {t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "window must be at least one pattern")]
    fn zero_window_rejected() {
        let plan = plan(8, 8);
        let _ = analyze_windows(&plan, 0, std::iter::empty());
    }
}
