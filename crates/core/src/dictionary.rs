//! Cause–effect fault dictionaries over partition-session syndromes.
//!
//! The paper's effect–cause flow identifies failing *cells*; the
//! classical complement is a *fault dictionary*: simulate every modelled
//! fault in advance, record the syndrome it would produce, and match
//! the observed syndrome against the dictionary to name suspect
//! *faults*. In a partition-based scan-BIST setup the natural syndrome
//! is the matrix of per-session error signatures (or, coarser, the
//! pass/fail bits) across all partitions and groups — so dictionary
//! resolution is another lens on how much diagnostic information a
//! partitioning scheme extracts.
//!
//! Syndrome maps are `BTreeMap`s, not `HashMap`s: the expected-suspect
//! statistics sum `f64` class weights in iteration order, and hash
//! iteration order varies per map instance — a determinism hazard
//! (lint `L004`) that would let the reported resolution drift between
//! otherwise identical runs.

use std::collections::BTreeMap;

use scan_sim::{ErrorMap, Fault};

use crate::session::{DiagnosisPlan, SessionOutcome};

/// A prebuilt dictionary of syndrome classes: how many faults produce
/// each syndrome.
#[derive(Clone, Debug)]
pub struct FaultDictionary {
    /// Exact-signature syndrome → number of faults.
    exact: BTreeMap<Vec<u64>, usize>,
    /// Pass/fail-only syndrome → number of faults.
    passfail: BTreeMap<Vec<u64>, usize>,
    total: usize,
}

impl FaultDictionary {
    /// Replays every fault's error map under `plan` and records both
    /// the exact-signature and the pass/fail syndromes. `cases` is the
    /// shape `PpsfpSimulator::sample_detected_with_maps` returns.
    #[must_use]
    pub fn build(plan: &DiagnosisPlan, cases: &[(Fault, ErrorMap)]) -> Self {
        let mut exact: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
        let mut passfail: BTreeMap<Vec<u64>, usize> = BTreeMap::new();
        for (_, errors) in cases {
            let outcome = plan.analyze_packed(errors.iter_words());
            *exact.entry(Self::exact_key(plan, &outcome)).or_default() += 1;
            *passfail
                .entry(Self::passfail_key(plan, &outcome))
                .or_default() += 1;
        }
        FaultDictionary {
            exact,
            passfail,
            total: cases.len(),
        }
    }

    fn exact_key(plan: &DiagnosisPlan, outcome: &SessionOutcome) -> Vec<u64> {
        let mut key = Vec::new();
        for (p, partition) in plan.partitions().iter().enumerate() {
            for g in 0..partition.num_groups() {
                key.push(outcome.error_signature(p, g));
            }
        }
        key
    }

    fn passfail_key(plan: &DiagnosisPlan, outcome: &SessionOutcome) -> Vec<u64> {
        let mut key = Vec::new();
        for (p, partition) in plan.partitions().iter().enumerate() {
            let mut word = 0u64;
            for g in 0..partition.num_groups().min(64) {
                if outcome.failed(p, g) {
                    word |= 1 << g;
                }
            }
            key.push(word);
        }
        key
    }

    /// Number of faults in the dictionary.
    #[must_use]
    pub fn num_faults(&self) -> usize {
        self.total
    }

    /// Number of distinct exact-signature syndromes (equivalence
    /// classes).
    #[must_use]
    pub fn num_exact_classes(&self) -> usize {
        self.exact.len()
    }

    /// Number of distinct pass/fail syndromes.
    #[must_use]
    pub fn num_passfail_classes(&self) -> usize {
        self.passfail.len()
    }

    /// Expected suspect-list size when the observed fault is drawn
    /// uniformly from the dictionary and matched by exact syndrome:
    /// `Σ |class|² / total`.
    #[must_use]
    pub fn expected_exact_suspects(&self) -> f64 {
        Self::expected(&self.exact, self.total)
    }

    /// Expected suspect-list size under pass/fail matching.
    #[must_use]
    pub fn expected_passfail_suspects(&self) -> f64 {
        Self::expected(&self.passfail, self.total)
    }

    fn expected(map: &BTreeMap<Vec<u64>, usize>, total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        map.values()
            .map(|&class| (class * class) as f64)
            .sum::<f64>()
            / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ChainLayout;
    use crate::lfsr_patterns;
    use crate::session::BistConfig;
    use scan_bist::Scheme;
    use scan_netlist::{bench, ScanView};
    use scan_sim::{PatternSet, PpsfpSimulator};

    fn setup() -> (scan_netlist::Netlist, ScanView, PatternSet) {
        let n = bench::s27();
        let view = ScanView::natural(&n, true);
        let patterns = lfsr_patterns(&n, 64, 0xACE1);
        (n, view, patterns)
    }

    #[test]
    fn exact_syndromes_refine_passfail() {
        let (n, view, patterns) = setup();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let cases = psim.sample_detected_with_maps(30, 2);
        let plan = DiagnosisPlan::new(
            ChainLayout::single_chain(view.len()),
            64,
            &BistConfig::new(2, 2, Scheme::RandomSelection),
        )
        .unwrap();
        let dict = FaultDictionary::build(&plan, &cases);
        assert_eq!(dict.num_faults(), cases.len());
        assert!(dict.num_exact_classes() >= dict.num_passfail_classes());
        assert!(dict.expected_exact_suspects() <= dict.expected_passfail_suspects() + 1e-9);
        let _ = n;
    }

    /// Pins the determinism contract behind the `BTreeMap` switch
    /// (lint `L004`): the expected-suspect statistics are `f64` sums
    /// taken in syndrome iteration order, so they must be bit-identical
    /// however the dictionary was populated. With `HashMap` syndrome
    /// storage each map instance iterates in its own order and this
    /// test's exact-equality assertions would flake.
    #[test]
    fn suspect_statistics_independent_of_insertion_order() {
        let (n, view, patterns) = setup();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let cases = psim.sample_detected_with_maps(30, 5);
        let mut reversed = cases.clone();
        reversed.reverse();
        let plan = DiagnosisPlan::new(
            ChainLayout::single_chain(view.len()),
            64,
            &BistConfig::new(2, 3, Scheme::TWO_STEP_DEFAULT),
        )
        .unwrap();
        let forward = FaultDictionary::build(&plan, &cases);
        let backward = FaultDictionary::build(&plan, &reversed);
        assert_eq!(forward.num_exact_classes(), backward.num_exact_classes());
        assert_eq!(
            forward.expected_exact_suspects().to_bits(),
            backward.expected_exact_suspects().to_bits(),
            "exact-suspect expectation must not depend on insertion order"
        );
        assert_eq!(
            forward.expected_passfail_suspects().to_bits(),
            backward.expected_passfail_suspects().to_bits(),
            "pass/fail-suspect expectation must not depend on insertion order"
        );
        let _ = n;
    }

    #[test]
    fn more_partitions_refine_classes() {
        let (n, view, patterns) = setup();
        let mut psim = PpsfpSimulator::new(&n, &view, &patterns).unwrap();
        let cases = psim.sample_detected_with_maps(30, 4);
        let classes = |partitions: usize| {
            let plan = DiagnosisPlan::new(
                ChainLayout::single_chain(view.len()),
                64,
                &BistConfig::new(2, partitions, Scheme::RandomSelection),
            )
            .unwrap();
            FaultDictionary::build(&plan, &cases).num_passfail_classes()
        };
        assert!(classes(4) >= classes(1));
        let _ = n;
    }
}
