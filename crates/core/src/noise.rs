//! Seeded noise injection over per-session BIST verdicts.
//!
//! The paper's intersection diagnosis assumes every session returns a
//! perfect pass/fail verdict. Real ATE runs do not: verdicts flip,
//! sessions abort, intermittent faults fire on only a fraction of
//! patterns, and X-generating cells corrupt signatures. This module
//! models those effects as a deterministic perturbation layer between
//! the true [`SessionOutcome`] and what the diagnosis engine observes.
//!
//! # Determinism contract
//!
//! Every random decision is drawn from a dedicated `scan-rng` stream
//! seeded by a [`scan_rng::derive`] chain over
//! `(seed ⊕ tag, fault, attempt, session)`. A session's observed
//! verdict therefore depends only on those four coordinates — never on
//! the order sessions are evaluated in or the thread that evaluates
//! them — so serial and sharded runs are bit-identical and the streams
//! can be frozen by pinned regression tests.

use std::ops::Range;
use std::sync::Arc;

use scan_netlist::BitSet;
use scan_rng::{ScanRng, SplitMix64};

use crate::error::NoiseConfigError;
use crate::session::SessionOutcome;

/// Domain-separation tag for per-session verdict streams ("VERD").
const TAG_VERDICT: u64 = 0x5645_5244;
/// Domain-separation tag for the per-fault intermittency draw ("INTM").
const TAG_INTERMITTENT: u64 = 0x494E_544D;
/// Domain-separation tag for the X-corrupted cell selection ("XNOI").
const TAG_X_CELLS: u64 = 0x584E_4F49;

/// What the tester reports for one BIST session.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub enum Verdict {
    /// The session's signature matched the fault-free signature.
    Pass,
    /// The session's signature differed from the fault-free signature.
    Fail,
    /// The session aborted (tester dropout) and produced no verdict.
    Lost,
}

impl Verdict {
    /// The verdict a noiseless tester would report.
    #[must_use]
    pub fn from_truth(failed: bool) -> Self {
        if failed {
            Verdict::Fail
        } else {
            Verdict::Pass
        }
    }

    /// Stable lowercase label used in NDJSON audit records.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
            Verdict::Lost => "lost",
        }
    }
}

/// Noise rates applied to a diagnosis run. All probabilities are per
/// session (or per cell for [`x_corrupt_fraction`]) and must lie in
/// `[0, 1]`.
///
/// [`x_corrupt_fraction`]: NoiseConfig::x_corrupt_fraction
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NoiseConfig {
    /// Root seed of every noise stream.
    pub seed: u64,
    /// Probability that a session's pass/fail verdict is inverted
    /// (MISR aliasing glitches, comparator noise).
    pub flip_rate: f64,
    /// Probability that a session aborts and reports [`Verdict::Lost`].
    pub dropout_rate: f64,
    /// Fraction of faults that behave intermittently: their failing
    /// sessions are observed passing with probability
    /// [`intermittent_miss`](NoiseConfig::intermittent_miss).
    pub intermittent_rate: f64,
    /// For an intermittent fault, the probability that a truly failing
    /// session is observed as passing (the fault did not fire).
    pub intermittent_miss: f64,
    /// Fraction of scan cells whose captured values are X-corrupted;
    /// selected exactly like the campaign's `x_mask_fraction` cells and
    /// excluded from candidate reasoning.
    pub x_corrupt_fraction: f64,
}

impl NoiseConfig {
    /// A configuration that perturbs nothing (all rates zero).
    #[must_use]
    pub fn noiseless(seed: u64) -> Self {
        NoiseConfig {
            seed,
            flip_rate: 0.0,
            dropout_rate: 0.0,
            intermittent_rate: 0.0,
            intermittent_miss: 0.0,
            x_corrupt_fraction: 0.0,
        }
    }

    /// Whether every rate is exactly zero, i.e. observed verdicts are
    /// guaranteed to equal the truth.
    #[must_use]
    pub fn is_noiseless(&self) -> bool {
        self.flip_rate == 0.0
            && self.dropout_rate == 0.0
            && (self.intermittent_rate == 0.0 || self.intermittent_miss == 0.0)
            && self.x_corrupt_fraction == 0.0
    }

    /// Validates that every rate is a probability in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseConfigError::InvalidRate`] naming the first field
    /// that is NaN or outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), NoiseConfigError> {
        let fields = [
            ("flip_rate", self.flip_rate),
            ("dropout_rate", self.dropout_rate),
            ("intermittent_rate", self.intermittent_rate),
            ("intermittent_miss", self.intermittent_miss),
            ("x_corrupt_fraction", self.x_corrupt_fraction),
        ];
        for (field, value) in fields {
            if !(0.0..=1.0).contains(&value) {
                return Err(NoiseConfigError::InvalidRate { field, value });
            }
        }
        Ok(())
    }
}

/// Pass/fail/lost verdicts of every session of one (possibly noisy)
/// diagnosis attempt.
///
/// The verdicts are stored row-major in one buffer over the row
/// offsets of the [`SessionOutcome`] they were drawn from, so a
/// session's position in the buffer is its noise-stream session index.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct ObservedOutcome {
    /// Row `p` is `verdicts[offsets[p]..offsets[p + 1]]`.
    offsets: Arc<[usize]>,
    /// Every session's observed verdict, row-major.
    verdicts: Vec<Verdict>,
}

impl ObservedOutcome {
    /// The grid a noiseless tester would report: the truth, verbatim.
    #[must_use]
    pub fn from_truth(truth: &SessionOutcome) -> Self {
        ObservedOutcome {
            offsets: Arc::clone(truth.offsets()),
            verdicts: truth
                .signatures()
                .iter()
                .map(|&s| Verdict::from_truth(s != 0))
                .collect(),
        }
    }

    /// The sessions of partition `partition`, as indices into the
    /// row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub(crate) fn row_range(&self, partition: usize) -> Range<usize> {
        self.offsets[partition]..self.offsets[partition + 1]
    }

    /// Every session's verdict, row-major.
    pub(crate) fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// The observed verdict of group `g` of partition `p`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn verdict(&self, partition: usize, group: u16) -> Verdict {
        self.verdicts[self.row_range(partition)][usize::from(group)]
    }

    /// Number of partitions.
    #[must_use]
    pub fn num_partitions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of session groups recorded for one partition.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    #[must_use]
    pub fn num_groups(&self, partition: usize) -> usize {
        self.row_range(partition).len()
    }

    /// Number of sessions that reported [`Verdict::Lost`].
    #[must_use]
    pub fn num_lost(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|&&v| v == Verdict::Lost)
            .count()
    }

    /// Collapses the verdict grid into a [`SessionOutcome`] for the
    /// strict intersection, mapping [`Verdict::Fail`] to failing and
    /// both [`Verdict::Pass`] and [`Verdict::Lost`] to passing.
    /// Callers that care about lost sessions (the robust engine) must
    /// inspect the [`Verdict::Lost`] entries separately.
    #[must_use]
    pub fn to_outcome(&self) -> SessionOutcome {
        SessionOutcome::from_flat(
            Arc::clone(&self.offsets),
            self.verdicts
                .iter()
                .map(|&v| u64::from(v == Verdict::Fail))
                .collect(),
        )
    }

    /// Replaces one session's verdict (used by the robust engine after
    /// a majority vote resolves a retried session).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn set_verdict(&mut self, partition: usize, group: u16, verdict: Verdict) {
        let row = self.row_range(partition);
        self.verdicts[row][usize::from(group)] = verdict;
    }
}

/// The noise stream of one `(fault, attempt)`: the first two links of
/// every session seed's derive chain, the first half of the third, and
/// the fault's intermittency, evaluated once for all the sessions drawn
/// from it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AttemptStream {
    /// The first `SplitMix64` output of the attempt seed
    /// `derive(derive(seed ^ TAG_VERDICT, fault), attempt)`: session
    /// `s`'s seed `derive(attempt_seed, s)` is then one more output,
    /// `SplitMix64::new(root ^ s).next_u64()`.
    root: u64,
    /// [`NoiseModel::is_intermittent`] of the fault.
    intermittent: bool,
}

/// A validated noise configuration ready to perturb session verdicts.
#[derive(Clone, Copy, Debug)]
pub struct NoiseModel {
    config: NoiseConfig,
}

impl NoiseModel {
    /// Validates `config` and builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`NoiseConfigError`] if any rate is NaN or outside
    /// `[0, 1]`.
    pub fn new(config: NoiseConfig) -> Result<Self, NoiseConfigError> {
        config.validate()?;
        Ok(NoiseModel { config })
    }

    /// The configuration this model was built from.
    #[must_use]
    pub fn config(&self) -> &NoiseConfig {
        &self.config
    }

    /// Whether this model perturbs nothing (see
    /// [`NoiseConfig::is_noiseless`]).
    #[must_use]
    pub fn is_noiseless(&self) -> bool {
        self.config.is_noiseless()
    }

    /// The seed of the verdict stream for one
    /// `(fault, attempt, session)` coordinate. Exposed so pinned-stream
    /// regression tests can freeze the derivation chain.
    #[must_use]
    pub fn session_seed(&self, fault: u64, attempt: u64, session: u64) -> u64 {
        scan_rng::derive(self.attempt_seed(fault, attempt), session)
    }

    /// The first two links of [`session_seed`](Self::session_seed)'s
    /// chain, shared by every session of one attempt.
    fn attempt_seed(&self, fault: u64, attempt: u64) -> u64 {
        let per_fault = scan_rng::derive(self.config.seed ^ TAG_VERDICT, fault);
        scan_rng::derive(per_fault, attempt)
    }

    /// The noise stream of attempt `attempt` of fault `fault`.
    pub(crate) fn attempt_stream(&self, fault: u64, attempt: u64) -> AttemptStream {
        AttemptStream {
            root: SplitMix64::new(self.attempt_seed(fault, attempt)).next_u64(),
            intermittent: self.is_intermittent(fault),
        }
    }

    /// Whether fault number `fault` behaves intermittently. A per-fault
    /// property: the same fault is intermittent in every session and
    /// every retry, which is what makes retrying informative.
    #[must_use]
    pub fn is_intermittent(&self, fault: u64) -> bool {
        if self.config.intermittent_rate <= 0.0 {
            return false;
        }
        let seed = scan_rng::derive(self.config.seed ^ TAG_INTERMITTENT, fault);
        ScanRng::seed_from_u64(seed).gen_bool(self.config.intermittent_rate)
    }

    /// The verdict the tester reports for one session whose true
    /// outcome is `failed`, on attempt `attempt` of fault `fault`.
    ///
    /// `session` is the session's row-major index in the grid
    /// (`partition · groups + group` when every partition has `groups`
    /// groups). The three noise draws (dropout, intermittent miss,
    /// flip) are taken unconditionally in a fixed order from a stream
    /// seeded only by `(seed, fault, attempt, session)`, so the result
    /// is independent of evaluation order and thread count.
    #[must_use]
    pub fn observe_verdict(&self, failed: bool, fault: u64, attempt: u64, session: u64) -> Verdict {
        self.draw(self.attempt_stream(fault, attempt), session, failed)
    }

    /// One session's verdict from its attempt's stream: the draws of
    /// [`observe_verdict`](Self::observe_verdict), from the stream
    /// seeded by [`session_seed`](Self::session_seed).
    pub(crate) fn draw(&self, stream: AttemptStream, session: u64, failed: bool) -> Verdict {
        let mut rng = ScanRng::seed_from_u64(SplitMix64::new(stream.root ^ session).next_u64());
        let dropout = rng.gen_bool(self.config.dropout_rate);
        let miss = rng.gen_bool(self.config.intermittent_miss);
        let flip = rng.gen_bool(self.config.flip_rate);
        if dropout {
            return Verdict::Lost;
        }
        let mut observed = failed;
        if observed && miss && stream.intermittent {
            observed = false;
        }
        if flip {
            observed = !observed;
        }
        Verdict::from_truth(observed)
    }

    /// Perturbs a full true outcome into the verdict grid the tester
    /// reports on attempt `attempt` of fault `fault`. Sessions are
    /// numbered in grid order (partition-major), so the grid is
    /// identical however it is computed.
    #[must_use]
    pub fn observe(&self, truth: &SessionOutcome, fault: u64, attempt: u64) -> ObservedOutcome {
        let stream = self.attempt_stream(fault, attempt);
        ObservedOutcome {
            offsets: Arc::clone(truth.offsets()),
            verdicts: truth
                .signatures()
                .iter()
                .zip(0u64..)
                .map(|(&s, session)| self.draw(stream, session, s != 0))
                .collect(),
        }
    }

    /// The deterministic set of X-corrupted cells for a layout of
    /// `num_cells` cells — the same shuffle-prefix selection the
    /// campaign uses for `x_mask_fraction`, on a dedicated stream.
    /// These cells' captures are untrustworthy and are excluded from
    /// candidate sets exactly like X-masked cells.
    #[must_use]
    pub fn corrupted_cells(&self, num_cells: usize) -> BitSet {
        let mut set = BitSet::new(num_cells);
        if self.config.x_corrupt_fraction <= 0.0 || num_cells == 0 {
            return set;
        }
        #[allow(clippy::cast_sign_loss)] // fraction is validated ≥ 0
        let count =
            ((num_cells as f64 * self.config.x_corrupt_fraction).round() as usize).min(num_cells);
        let mut order: Vec<usize> = (0..num_cells).collect();
        let mut rng = ScanRng::seed_from_u64(self.config.seed ^ TAG_X_CELLS);
        rng.shuffle(&mut order);
        for &cell in order.iter().take(count) {
            set.insert(cell);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ChainLayout;
    use crate::session::{BistConfig, DiagnosisPlan};
    use scan_bist::Scheme;

    #[test]
    fn attempt_stream_root_reproduces_session_seeds() {
        // `draw` expands the last `derive` link by hand; it must agree
        // with the pinned derivation chain.
        let model = NoiseModel::new(NoiseConfig::noiseless(2003)).unwrap();
        for (fault, attempt, session) in [(0, 0, 0), (3, 1, 7), (9, 4, 100)] {
            let stream = model.attempt_stream(fault, attempt);
            assert_eq!(
                SplitMix64::new(stream.root ^ session).next_u64(),
                model.session_seed(fault, attempt, session)
            );
        }
    }

    fn truth() -> (DiagnosisPlan, SessionOutcome) {
        let plan = DiagnosisPlan::new(
            ChainLayout::single_chain(100),
            8,
            &BistConfig::new(4, 4, Scheme::RandomSelection),
        )
        .unwrap();
        let outcome = plan.analyze([(42usize, 3usize), (42, 5), (17, 1)]);
        (plan, outcome)
    }

    fn noisy(seed: u64) -> NoiseModel {
        NoiseModel::new(NoiseConfig {
            seed,
            flip_rate: 0.3,
            dropout_rate: 0.2,
            intermittent_rate: 0.5,
            intermittent_miss: 0.5,
            x_corrupt_fraction: 0.1,
        })
        .unwrap()
    }

    #[test]
    fn noiseless_model_reports_the_truth() {
        let (_, outcome) = truth();
        let model = NoiseModel::new(NoiseConfig::noiseless(7)).unwrap();
        assert!(model.is_noiseless());
        let observed = model.observe(&outcome, 0, 0);
        assert_eq!(observed.num_lost(), 0);
        for p in 0..outcome.num_partitions() {
            for g in 0..observed.num_groups(p) {
                assert_eq!(
                    observed.verdict(p, g as u16),
                    Verdict::from_truth(outcome.failed(p, g as u16))
                );
            }
        }
        assert_eq!(
            observed.to_outcome().num_partitions(),
            outcome.num_partitions()
        );
    }

    #[test]
    fn same_seed_same_grid_different_seed_differs() {
        let (_, outcome) = truth();
        let a = noisy(11).observe(&outcome, 3, 1);
        let b = noisy(11).observe(&outcome, 3, 1);
        let c = noisy(12).observe(&outcome, 3, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn verdicts_are_order_independent() {
        // Drawing one session's verdict directly matches the grid —
        // the contract that makes sharded runs bit-identical.
        let (_, outcome) = truth();
        let model = noisy(11);
        let grid = model.observe(&outcome, 5, 2);
        let mut session = 0u64;
        for p in 0..outcome.num_partitions() {
            for g in 0..grid.num_groups(p) {
                let direct = model.observe_verdict(outcome.failed(p, g as u16), 5, 2, session);
                assert_eq!(grid.verdict(p, g as u16), direct, "p={p} g={g}");
                session += 1;
            }
        }
    }

    #[test]
    fn attempts_and_faults_use_distinct_streams() {
        let (_, outcome) = truth();
        let model = noisy(11);
        assert_ne!(model.observe(&outcome, 0, 0), model.observe(&outcome, 0, 1));
        assert_ne!(model.observe(&outcome, 0, 0), model.observe(&outcome, 1, 0));
    }

    #[test]
    fn full_dropout_loses_every_session() {
        let (_, outcome) = truth();
        let mut config = NoiseConfig::noiseless(3);
        config.dropout_rate = 1.0;
        let model = NoiseModel::new(config).unwrap();
        let observed = model.observe(&outcome, 0, 0);
        let sessions: usize = (0..observed.num_partitions())
            .map(|p| observed.num_groups(p))
            .sum();
        assert_eq!(observed.num_lost(), sessions);
        assert!(observed.to_outcome().all_passed());
    }

    #[test]
    fn full_flip_inverts_every_verdict() {
        let (_, outcome) = truth();
        let mut config = NoiseConfig::noiseless(3);
        config.flip_rate = 1.0;
        let model = NoiseModel::new(config).unwrap();
        let observed = model.observe(&outcome, 0, 0);
        for p in 0..outcome.num_partitions() {
            for g in 0..observed.num_groups(p) {
                assert_eq!(
                    observed.verdict(p, g as u16),
                    Verdict::from_truth(!outcome.failed(p, g as u16))
                );
            }
        }
    }

    #[test]
    fn intermittent_fault_misses_all_failures_at_full_rates() {
        let (_, outcome) = truth();
        let mut config = NoiseConfig::noiseless(3);
        config.intermittent_rate = 1.0;
        config.intermittent_miss = 1.0;
        let model = NoiseModel::new(config).unwrap();
        assert!(model.is_intermittent(0));
        let observed = model.observe(&outcome, 0, 0);
        assert!(observed.to_outcome().all_passed());
        // A non-intermittent configuration leaves failures visible.
        let clean = NoiseModel::new(NoiseConfig::noiseless(3)).unwrap();
        assert!(!clean.observe(&outcome, 0, 0).to_outcome().all_passed());
    }

    #[test]
    fn corrupted_cells_are_deterministic_and_sized() {
        let model = noisy(9);
        let a = model.corrupted_cells(200);
        let b = model.corrupted_cells(200);
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        assert_eq!(a.len(), 20);
        assert!(a.iter().all(|c| c < 200));
        let none = NoiseModel::new(NoiseConfig::noiseless(9)).unwrap();
        assert!(none.corrupted_cells(200).is_empty());
    }

    #[test]
    fn invalid_rates_are_rejected() {
        let mut config = NoiseConfig::noiseless(1);
        config.flip_rate = 1.5;
        assert_eq!(
            NoiseModel::new(config).unwrap_err(),
            crate::error::NoiseConfigError::InvalidRate {
                field: "flip_rate",
                value: 1.5
            }
        );
        config.flip_rate = f64::NAN;
        assert!(NoiseModel::new(config).is_err());
        config.flip_rate = 0.0;
        config.x_corrupt_fraction = -0.1;
        assert!(config.validate().is_err());
    }

    #[test]
    fn intermittency_is_a_per_fault_property() {
        let mut config = NoiseConfig::noiseless(41);
        config.intermittent_rate = 0.5;
        config.intermittent_miss = 0.5;
        let model = NoiseModel::new(config).unwrap();
        let flags: Vec<bool> = (0..64).map(|f| model.is_intermittent(f)).collect();
        assert!(
            flags.iter().any(|&f| f),
            "some fault should be intermittent"
        );
        assert!(flags.iter().any(|&f| !f), "some fault should be solid");
        // Stable across calls.
        assert_eq!(
            flags,
            (0..64)
                .map(|f| model.is_intermittent(f))
                .collect::<Vec<_>>()
        );
    }

    /// A grid whose first row is shorter than its second: a group past
    /// row 0 must not read row 1.
    fn ragged_grid() -> ObservedOutcome {
        ObservedOutcome::from_truth(&SessionOutcome::from_signatures(vec![
            vec![0, 1],
            vec![1, 0, 1],
        ]))
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn verdict_past_its_row_panics() {
        let _ = ragged_grid().verdict(0, 2);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn set_verdict_past_its_row_panics() {
        ragged_grid().set_verdict(0, 2, Verdict::Lost);
    }
}
