//! Fault-tolerant diagnosis over noisy session verdicts.
//!
//! The strict intersection of [`diagnose`](crate::diagnose) collapses
//! the moment a single verdict is wrong: one flipped session can empty
//! the candidate set with no indication of what went astray. This
//! module layers a production-style recovery loop on top:
//!
//! 1. **Detect** — classify the observed history via
//!    [`DiagnosisStatus`]: consistent, all-passed, or contradictory.
//! 2. **Retry** — re-run the sessions implicated by a contradiction
//!    (every session of the partitions up to and including the first
//!    contradictory one) plus any aborted ([`Verdict::Lost`]) session,
//!    taking a best-of-*n* majority vote per session, up to a bounded
//!    number of rounds.
//! 3. **Degrade** — if retries cannot restore consistency, fall back
//!    from strict intersection to *weighted group voting*: each cell is
//!    scored by the vote-confidence-weighted number of partitions whose
//!    failing verdict covers it, and the top-scoring cells become the
//!    candidate set.
//!
//! The result always carries a [`Confidence`] so callers can tell an
//! exact diagnosis from a degraded or inconclusive one instead of
//! receiving an ambiguous empty set.
//!
//! With a noiseless model the engine short-circuits to the plain
//! intersection — bit-identical candidates, zero retries,
//! [`Confidence::Exact`] — except that an all-passed history is graded
//! [`Confidence::Inconclusive`] with [`InconclusiveReason::AllPassed`],
//! as [`diagnose_reported`] grades it.

use std::convert::Infallible;

use scan_netlist::BitSet;

use crate::cancel::CancelToken;
use crate::diagnose::{diagnose_cancellable, intersect, poll_cancel, Diagnosis, DiagnosisStatus};
use crate::error::DiagnoseError;
use crate::noise::{AttemptStream, NoiseModel, ObservedOutcome, Verdict};
use crate::session::{DiagnosisPlan, SessionOutcome};

/// How trustworthy a robust diagnosis is.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub enum Confidence {
    /// The attempt-0 history was consistent with no lost sessions: the
    /// result equals what the strict engine would report.
    Exact,
    /// Noise interfered, but retries/voting (or the weighted-voting
    /// fallback) produced a usable candidate set.
    Degraded,
    /// No usable candidate set could be produced; see
    /// [`InconclusiveReason`].
    Inconclusive,
}

impl Confidence {
    /// Stable lowercase label used in NDJSON audit records and JSON
    /// summaries.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Confidence::Exact => "exact",
            Confidence::Degraded => "degraded",
            Confidence::Inconclusive => "inconclusive",
        }
    }
}

/// Why a robust diagnosis gave up.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
pub enum InconclusiveReason {
    /// Every resolved verdict was a pass: the fault is invisible to
    /// this run (undetected, aliased, or intermittently silent).
    AllPassed,
    /// Every session stayed [`Verdict::Lost`] through all retries.
    AllLost,
    /// The weighted-voting fallback found no cell with positive
    /// support.
    NoSupport,
}

impl InconclusiveReason {
    /// Stable lowercase label for audit records.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            InconclusiveReason::AllPassed => "all-passed",
            InconclusiveReason::AllLost => "all-lost",
            InconclusiveReason::NoSupport => "no-support",
        }
    }
}

/// Retry/voting budget of the robust engine.
#[derive(Clone, Copy, Debug)]
pub struct RobustPolicy {
    /// Maximum detect-and-retry rounds before falling back to weighted
    /// voting.
    pub max_retry_rounds: usize,
    /// Ballots per retried session (normalized up to the next odd
    /// number so majorities cannot tie on full turnout).
    pub votes: usize,
}

impl Default for RobustPolicy {
    /// Two retry rounds of best-of-3 voting — enough to outvote a
    /// few-percent flip rate without masking systematic failures.
    fn default() -> Self {
        RobustPolicy {
            max_retry_rounds: 2,
            votes: 3,
        }
    }
}

impl RobustPolicy {
    /// The effective (odd) ballot count per retried session.
    #[must_use]
    pub fn effective_votes(&self) -> usize {
        let v = self.votes.max(1);
        if v.is_multiple_of(2) {
            v + 1
        } else {
            v
        }
    }
}

/// One recovery action taken by the robust engine, in order. These map
/// 1:1 onto the `retry` / `vote` / `fallback` NDJSON audit records.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RobustEvent {
    /// A retry round was launched over `sessions` flagged sessions.
    Retry {
        /// 0-based retry round.
        round: usize,
        /// Number of sessions re-executed this round.
        sessions: usize,
    },
    /// A retried session was resolved by majority vote.
    Vote {
        /// Partition of the voted session.
        partition: usize,
        /// Group of the voted session.
        group: u16,
        /// Ballots that said *fail*.
        fail_votes: usize,
        /// Ballots that said *pass*.
        pass_votes: usize,
        /// Ballots lost to dropout (they do not vote).
        lost_votes: usize,
        /// The winning verdict (ties break to *fail*; all-lost stays
        /// lost).
        verdict: Verdict,
    },
    /// Strict intersection was abandoned for weighted group voting.
    Fallback {
        /// The partition whose intersection step first emptied the
        /// candidate set in the final strict attempt.
        partition: usize,
        /// The winning support score (sum of verdict weights).
        support: f64,
        /// Number of cells sharing the winning score.
        candidates: usize,
    },
}

/// The outcome of a fault-tolerant diagnosis.
#[derive(Clone, PartialEq, Debug)]
pub struct RobustDiagnosis {
    /// How trustworthy the candidate set is.
    pub confidence: Confidence,
    /// The candidate failing cells (empty iff inconclusive).
    pub candidates: BitSet,
    /// Candidate counts after each partition of the final strict
    /// intersection attempt (the same shape as
    /// [`Diagnosis::prefix_counts`](crate::Diagnosis::prefix_counts)).
    pub prefix_counts: Vec<usize>,
    /// Retry rounds actually executed.
    pub retry_rounds: usize,
    /// Total sessions re-executed across all rounds.
    pub retried_sessions: usize,
    /// Whether the weighted-voting fallback produced the candidates.
    pub used_fallback: bool,
    /// Why the diagnosis is inconclusive, when it is.
    pub inconclusive: Option<InconclusiveReason>,
    /// Ordered recovery actions, for audit trails.
    pub events: Vec<RobustEvent>,
    /// The final per-session verdict grid after all retries resolved
    /// (the truth grid on the noiseless path) — what audit trails
    /// report as the evidence behind the candidates.
    pub verdicts: ObservedOutcome,
}

impl RobustDiagnosis {
    /// The exact, recovery-free result of a strict intersection over
    /// `verdicts`: the shape every robust run starts from before its
    /// final status is graded.
    fn exact(strict: &Diagnosis, verdicts: ObservedOutcome) -> Self {
        RobustDiagnosis {
            confidence: Confidence::Exact,
            candidates: strict.candidates().clone(),
            prefix_counts: strict.prefix_counts().to_vec(),
            retry_rounds: 0,
            retried_sessions: 0,
            used_fallback: false,
            inconclusive: None,
            events: Vec::new(),
            verdicts,
        }
    }

    /// Number of candidate cells.
    #[must_use]
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the diagnosis produced a usable candidate set.
    #[must_use]
    pub fn is_conclusive(&self) -> bool {
        self.confidence != Confidence::Inconclusive
    }
}

/// The sessions to re-execute given the latest strict classification:
/// every lost session, plus — on a contradiction at partition `p` —
/// every session of partitions `0..=p` (the wrong verdict can hide in
/// any of them). Each is `(partition, group, session)`, `session` being
/// its row-major index in the grid.
fn flagged_sessions(
    observed: &ObservedOutcome,
    status: DiagnosisStatus,
) -> Vec<(usize, u16, usize)> {
    let mut flagged = Vec::new();
    let suspect_partitions = match status {
        DiagnosisStatus::Contradictory { partition } => partition + 1,
        DiagnosisStatus::Consistent | DiagnosisStatus::AllPassed => 0,
    };
    for p in 0..observed.num_partitions() {
        for (g, session) in observed.row_range(p).enumerate() {
            if p < suspect_partitions || observed.verdicts()[session] == Verdict::Lost {
                flagged.push((p, g as u16, session));
            }
        }
    }
    flagged
}

/// Weighted group voting: scores every cell by the summed weight of
/// failing sessions that cover it (weight 1 each when `weights` is
/// `None`; otherwise one weight per session, row-major like the grid)
/// and returns the top-scoring cells.
fn weighted_vote(
    plan: &DiagnosisPlan,
    observed: &ObservedOutcome,
    weights: Option<&[f64]>,
) -> (BitSet, f64) {
    let num_cells = plan.layout().num_cells();
    let mut support = vec![0.0f64; num_cells];
    for p in 0..plan.partitions().len() {
        let row = observed.row_range(p);
        let verdicts = &observed.verdicts()[row.clone()];
        let row_weights = weights.map(|w| &w[row]);
        for (score, &group) in support.iter_mut().zip(plan.cell_groups(p)) {
            let group = usize::from(group);
            if verdicts[group] == Verdict::Fail {
                *score += row_weights.map_or(1.0, |w| w[group]);
            }
        }
    }
    let best = support.iter().copied().fold(0.0f64, f64::max);
    let mut candidates = BitSet::new(num_cells);
    if best > 0.0 {
        for (cell, &s) in support.iter().enumerate() {
            // Exact comparison is intended: ties share the identical
            // sum of the identical weights, in the same order.
            #[allow(clippy::float_cmp)]
            if s == best {
                candidates.insert(cell);
            }
        }
    }
    (candidates, best)
}

/// Re-executes one flagged session once per ballot stream, drawing
/// each ballot from `session`'s place in that attempt's stream.
fn tally_ballots(
    noise: &NoiseModel,
    ballots: &[AttemptStream],
    failed: bool,
    session: u64,
) -> (usize, usize, usize) {
    let (mut fail_votes, mut pass_votes, mut lost_votes) = (0usize, 0usize, 0usize);
    for &stream in ballots {
        match noise.draw(stream, session, failed) {
            Verdict::Fail => fail_votes += 1,
            Verdict::Pass => pass_votes += 1,
            Verdict::Lost => lost_votes += 1,
        }
    }
    (fail_votes, pass_votes, lost_votes)
}

/// Majority resolution of a retried session's ballots. Lost ballots
/// abstain; ties break to *fail* (keeping cells is the conservative
/// direction for an intersection); a session whose every ballot
/// aborted stays lost with weight 0. The weight is the winning-ballot
/// fraction of the turnout.
fn resolve_ballots(fail_votes: usize, pass_votes: usize) -> (Verdict, f64) {
    let turnout = fail_votes + pass_votes;
    if turnout == 0 {
        return (Verdict::Lost, 0.0);
    }
    let verdict = if fail_votes >= pass_votes {
        Verdict::Fail
    } else {
        Verdict::Pass
    };
    #[allow(clippy::cast_precision_loss)] // ballot counts are tiny
    let weight = fail_votes.max(pass_votes) as f64 / turnout as f64;
    (verdict, weight)
}

/// Runs the fault-tolerant diagnosis loop for one fault.
///
/// `truth` is the fault's true session outcome (from
/// [`DiagnosisPlan::analyze`]); `fault` numbers the fault within the
/// campaign so every fault gets decorrelated noise streams. Retried
/// sessions draw fresh verdicts from later attempt indices of the same
/// streams, so the whole procedure is deterministic under a fixed seed
/// and independent of evaluation order or thread count.
#[must_use]
pub fn diagnose_robust(
    plan: &DiagnosisPlan,
    truth: &SessionOutcome,
    noise: &NoiseModel,
    policy: &RobustPolicy,
    fault: u64,
) -> RobustDiagnosis {
    let Ok(robust) = recover(plan, truth, noise, policy, fault, &mut |_| {
        Ok::<(), Infallible>(())
    });
    robust
}

/// Like [`diagnose_robust`], but polls `cancel` between partition
/// sessions (inside every strict intersection pass) and between retry
/// rounds, so a deadline reaper or draining service can stop a
/// long-running recovery loop cooperatively.
///
/// With a live (never-fired) token the result is bit-identical to
/// [`diagnose_robust`].
///
/// # Errors
///
/// Returns [`DiagnoseError::Cancelled`] when `cancel` fires before the
/// engine converges. Partial retry state is discarded.
pub fn diagnose_robust_cancellable(
    plan: &DiagnosisPlan,
    truth: &SessionOutcome,
    noise: &NoiseModel,
    policy: &RobustPolicy,
    fault: u64,
    cancel: &CancelToken,
) -> Result<RobustDiagnosis, DiagnoseError> {
    recover(plan, truth, noise, policy, fault, &mut |p| {
        poll_cancel(cancel, p)
    })
}

/// The detect–retry–degrade loop behind [`diagnose_robust`]: `poll(p)`
/// runs between partition sessions (with `p` partitions intersected)
/// and between retry rounds, and its first `Err` ends the run.
///
/// With a noiseless model it short-circuits to the strict engine,
/// bit-identically, grading only an all-passed history (inconclusive,
/// as everywhere else). (Clean histories can still intersect to empty
/// under MISR aliasing; that is the strict engine's documented
/// behavior and is preserved rather than misreported as noise.)
fn recover<E>(
    plan: &DiagnosisPlan,
    truth: &SessionOutcome,
    noise: &NoiseModel,
    policy: &RobustPolicy,
    fault: u64,
    poll: &mut impl FnMut(usize) -> Result<(), E>,
) -> Result<RobustDiagnosis, E> {
    let _span = scan_obs::span!("diagnose_robust");
    if noise.is_noiseless() {
        let strict = intersect(plan, truth, poll)?;
        let mut result = RobustDiagnosis::exact(&strict, ObservedOutcome::from_truth(truth));
        if strict.status() == DiagnosisStatus::AllPassed {
            grade_final_status(plan, strict.status(), true, None, &mut result);
        }
        return Ok(result);
    }

    let mut observed = noise.observe(truth, fault, 0);
    // Per-session vote-confidence weights, row-major like the grid: 1.0
    // for sessions never retried, the winning-ballot fraction for voted
    // sessions, 0.0 for sessions that stayed lost.
    let mut weights: Vec<f64> = observed
        .verdicts()
        .iter()
        .map(|&v| if v == Verdict::Lost { 0.0 } else { 1.0 })
        .collect();
    let mut events = Vec::new();
    let mut retried_sessions = 0usize;
    let mut retry_rounds = 0usize;
    let mut next_attempt = 1u64;
    let votes = policy.effective_votes();
    let mut ballots = Vec::with_capacity(votes);

    let mut strict = intersect(plan, &observed.to_outcome(), poll)?;
    let attempt0_clean = strict.status() == DiagnosisStatus::Consistent && observed.num_lost() == 0;

    for round in 0..policy.max_retry_rounds {
        poll(plan.partitions().len())?;
        let flagged = flagged_sessions(&observed, strict.status());
        if flagged.is_empty() {
            break;
        }
        scan_obs::metrics::incr("robust.retry_rounds");
        events.push(RobustEvent::Retry {
            round,
            sessions: flagged.len(),
        });
        retry_rounds = round + 1;
        retried_sessions += flagged.len();
        // Ballot `k` of every session this round draws from attempt
        // `next_attempt + k`.
        ballots.clear();
        ballots.extend(
            (next_attempt..)
                .take(votes)
                .map(|a| noise.attempt_stream(fault, a)),
        );
        for &(p, g, session) in &flagged {
            let failed = truth.failed(p, g);
            let (fail_votes, pass_votes, lost_votes) =
                tally_ballots(noise, &ballots, failed, session as u64);
            let (verdict, weight) = resolve_ballots(fail_votes, pass_votes);
            observed.set_verdict(p, g, verdict);
            weights[session] = weight;
            scan_obs::metrics::incr("robust.votes");
            events.push(RobustEvent::Vote {
                partition: p,
                group: g,
                fail_votes,
                pass_votes,
                lost_votes,
                verdict,
            });
        }
        // Every retried session consumed ballot attempts from the same
        // window, so one bump keeps attempt indices deterministic.
        next_attempt += votes as u64;
        strict = intersect(plan, &observed.to_outcome(), poll)?;
    }

    let mut result = RobustDiagnosis {
        retry_rounds,
        retried_sessions,
        events,
        ..RobustDiagnosis::exact(&strict, observed)
    };
    grade_final_status(
        plan,
        strict.status(),
        attempt0_clean,
        Some(&weights),
        &mut result,
    );
    Ok(result)
}

/// Folds the final strict status into the result's confidence,
/// candidates, and fallback fields: the last step of every robust run.
/// `weights` of `None` votes every session at weight 1.
fn grade_final_status(
    plan: &DiagnosisPlan,
    status: DiagnosisStatus,
    attempt0_clean: bool,
    weights: Option<&[f64]>,
    result: &mut RobustDiagnosis,
) {
    match status {
        DiagnosisStatus::Consistent => {
            if !attempt0_clean {
                result.confidence = Confidence::Degraded;
            }
        }
        DiagnosisStatus::AllPassed => {
            let all_lost = result
                .verdicts
                .verdicts()
                .iter()
                .all(|&v| v == Verdict::Lost);
            let reason = if all_lost {
                InconclusiveReason::AllLost
            } else {
                InconclusiveReason::AllPassed
            };
            scan_obs::metrics::incr("robust.inconclusive");
            result.confidence = Confidence::Inconclusive;
            result.candidates = BitSet::new(plan.layout().num_cells());
            result.inconclusive = Some(reason);
        }
        DiagnosisStatus::Contradictory { partition } => {
            scan_obs::metrics::incr("robust.fallbacks");
            let (candidates, support) = weighted_vote(plan, &result.verdicts, weights);
            result.events.push(RobustEvent::Fallback {
                partition,
                support,
                candidates: candidates.len(),
            });
            result.used_fallback = true;
            if candidates.is_empty() {
                scan_obs::metrics::incr("robust.inconclusive");
                result.confidence = Confidence::Inconclusive;
                result.inconclusive = Some(InconclusiveReason::NoSupport);
            } else {
                result.confidence = Confidence::Degraded;
            }
            result.candidates = candidates;
        }
    }
}

/// Service-style diagnosis of an **as-reported** outcome grid: the
/// evidence is whatever the tester already sent — there is no noise
/// model to re-draw verdicts from and no retry budget, so recovery is
/// limited to the weighted-voting fallback (at unit weights).
///
/// This is the entry point for a diagnosis *service* (one that receives
/// signatures over the wire rather than simulating them):
///
/// - a consistent grid yields [`Confidence::Exact`] candidates,
///   bit-identical to [`diagnose`](crate::diagnose::diagnose);
/// - an all-passed grid yields [`Confidence::Inconclusive`] with
///   [`InconclusiveReason::AllPassed`] (an answer, not an error — a
///   fault-free unit is a legitimate service response);
/// - a contradictory grid falls back to unit-weight group voting,
///   yielding [`Confidence::Degraded`] candidates (or
///   [`InconclusiveReason::NoSupport`] if no cell has positive
///   support).
///
/// # Errors
///
/// Returns [`DiagnoseError::Cancelled`] when `cancel` fires between
/// partition sessions.
pub fn diagnose_reported(
    plan: &DiagnosisPlan,
    outcome: &SessionOutcome,
    cancel: &CancelToken,
) -> Result<RobustDiagnosis, DiagnoseError> {
    let _span = scan_obs::span!("diagnose_reported");
    let strict = diagnose_cancellable(plan, outcome, cancel)?;
    let mut result = RobustDiagnosis::exact(&strict, ObservedOutcome::from_truth(outcome));
    grade_final_status(plan, strict.status(), true, None, &mut result);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::diagnose;
    use crate::layout::ChainLayout;
    use crate::noise::NoiseConfig;
    use crate::session::BistConfig;
    use scan_bist::Scheme;

    fn plan() -> DiagnosisPlan {
        DiagnosisPlan::new(
            ChainLayout::single_chain(100),
            8,
            &BistConfig::new(4, 6, Scheme::RandomSelection),
        )
        .unwrap()
    }

    fn model(config: NoiseConfig) -> NoiseModel {
        NoiseModel::new(config).unwrap()
    }

    #[test]
    fn noiseless_matches_strict_engine_exactly() {
        let plan = plan();
        let truth = plan.analyze([(42usize, 3usize), (42, 5)]);
        let strict = diagnose(&plan, &truth);
        let robust = diagnose_robust(
            &plan,
            &truth,
            &model(NoiseConfig::noiseless(7)),
            &RobustPolicy::default(),
            0,
        );
        assert_eq!(robust.confidence, Confidence::Exact);
        assert_eq!(&robust.candidates, strict.candidates());
        assert_eq!(robust.prefix_counts, strict.prefix_counts());
        assert_eq!(robust.retry_rounds, 0);
        assert_eq!(robust.retried_sessions, 0);
        assert!(!robust.used_fallback);
        assert!(robust.events.is_empty());
    }

    #[test]
    fn clean_noisy_attempt_is_exact() {
        // Nonzero rates but a seed under which attempt 0 happens to be
        // clean would be fragile; instead use tiny rates and scan for a
        // fault index whose attempt-0 grid is unperturbed.
        let plan = plan();
        let truth = plan.analyze([(42usize, 3usize), (42, 5)]);
        let mut config = NoiseConfig::noiseless(13);
        config.flip_rate = 0.01;
        let noise = model(config);
        let strict = diagnose(&plan, &truth);
        // A noiseless model's grid is the truth, independent of fault.
        let truth_grid = model(NoiseConfig::noiseless(0)).observe(&truth, 0, 0);
        let clean_fault = (0..200u64)
            .find(|&f| noise.observe(&truth, f, 0) == truth_grid)
            .expect("some fault sees a clean attempt 0 at 1% flip");
        let robust = diagnose_robust(&plan, &truth, &noise, &RobustPolicy::default(), clean_fault);
        assert_eq!(robust.confidence, Confidence::Exact);
        assert_eq!(&robust.candidates, strict.candidates());
    }

    #[test]
    fn contradiction_recovers_via_retry_votes() {
        // Find a fault index where attempt 0 is contradictory at a low
        // flip rate; the retry votes should restore the strict result.
        let plan = plan();
        let truth = plan.analyze([(42usize, 3usize), (42, 5)]);
        let strict = diagnose(&plan, &truth);
        assert_eq!(strict.status(), DiagnosisStatus::Consistent);
        let mut config = NoiseConfig::noiseless(3);
        config.flip_rate = 0.05;
        let noise = model(config);
        let policy = RobustPolicy::default();
        let contradictory: Vec<u64> = (0..400u64)
            .filter(|&f| {
                let observed = noise.observe(&truth, f, 0);
                matches!(
                    diagnose(&plan, &observed.to_outcome()).status(),
                    DiagnosisStatus::Contradictory { .. }
                )
            })
            .collect();
        assert!(
            !contradictory.is_empty(),
            "5% flips must contradict somewhere"
        );
        let mut recovered_exactly = 0usize;
        for &f in &contradictory {
            let robust = diagnose_robust(&plan, &truth, &noise, &policy, f);
            assert!(robust.retry_rounds > 0, "fault {f} must retry");
            assert!(
                robust
                    .events
                    .iter()
                    .any(|e| matches!(e, RobustEvent::Retry { .. })),
                "fault {f} records a retry event"
            );
            if robust.candidates == *strict.candidates() && !robust.used_fallback {
                recovered_exactly += 1;
            }
        }
        // Best-of-3 at 5% flip recovers the strict result for the
        // overwhelming majority of contradictions.
        assert!(
            recovered_exactly * 10 >= contradictory.len() * 8,
            "only {recovered_exactly}/{} contradictions recovered",
            contradictory.len()
        );
    }

    #[test]
    fn robust_is_deterministic() {
        let plan = plan();
        let truth = plan.analyze([(10usize, 1usize), (90, 7)]);
        let mut config = NoiseConfig::noiseless(99);
        config.flip_rate = 0.1;
        config.dropout_rate = 0.1;
        let noise = model(config);
        let policy = RobustPolicy::default();
        for fault in 0..20u64 {
            let a = diagnose_robust(&plan, &truth, &noise, &policy, fault);
            let b = diagnose_robust(&plan, &truth, &noise, &policy, fault);
            assert_eq!(a, b, "fault {fault}");
        }
    }

    #[test]
    fn undetected_fault_is_inconclusive_all_passed() {
        let plan = plan();
        let truth = plan.analyze(std::iter::empty());
        let mut config = NoiseConfig::noiseless(5);
        config.dropout_rate = 0.01;
        let robust = diagnose_robust(&plan, &truth, &model(config), &RobustPolicy::default(), 0);
        assert_eq!(robust.confidence, Confidence::Inconclusive);
        assert!(matches!(
            robust.inconclusive,
            Some(InconclusiveReason::AllPassed | InconclusiveReason::AllLost)
        ));
        assert!(robust.candidates.is_empty());
    }

    #[test]
    fn noiseless_all_passed_grid_is_graded_like_reported() {
        let plan = plan();
        let truth = plan.analyze(std::iter::empty());
        let robust = diagnose_robust(
            &plan,
            &truth,
            &model(NoiseConfig::noiseless(5)),
            &RobustPolicy::default(),
            0,
        );
        assert_eq!(robust.confidence, Confidence::Inconclusive);
        assert_eq!(robust.inconclusive, Some(InconclusiveReason::AllPassed));
        assert!(robust.candidates.is_empty());
        assert_eq!(robust.retry_rounds, 0);
        let reported = diagnose_reported(&plan, &truth, &CancelToken::new()).expect("live token");
        assert_eq!(robust, reported);
    }

    #[test]
    fn total_dropout_is_inconclusive_all_lost() {
        let plan = plan();
        let truth = plan.analyze([(42usize, 3usize)]);
        let mut config = NoiseConfig::noiseless(5);
        config.dropout_rate = 1.0;
        let robust = diagnose_robust(&plan, &truth, &model(config), &RobustPolicy::default(), 0);
        assert_eq!(robust.confidence, Confidence::Inconclusive);
        assert_eq!(robust.inconclusive, Some(InconclusiveReason::AllLost));
        // Every session retried every round.
        assert!(robust.retried_sessions > 0);
    }

    #[test]
    fn exhausted_retries_fall_back_to_weighted_voting() {
        // A permanently flipped *true* failing group cannot happen via
        // noise streams (votes converge), so force fallback with a
        // zero-retry policy and a contradictory attempt 0.
        let plan = plan();
        let truth = plan.analyze([(42usize, 3usize), (42, 5)]);
        let mut config = NoiseConfig::noiseless(3);
        config.flip_rate = 0.05;
        let noise = model(config);
        let policy = RobustPolicy {
            max_retry_rounds: 0,
            votes: 3,
        };
        let f = (0..400u64)
            .find(|&f| {
                let observed = noise.observe(&truth, f, 0);
                matches!(
                    diagnose(&plan, &observed.to_outcome()).status(),
                    DiagnosisStatus::Contradictory { .. }
                )
            })
            .expect("a contradictory fault exists");
        let robust = diagnose_robust(&plan, &truth, &noise, &policy, f);
        assert!(robust.used_fallback);
        assert_eq!(robust.confidence, Confidence::Degraded);
        assert!(!robust.candidates.is_empty());
        assert!(robust
            .events
            .iter()
            .any(|e| matches!(e, RobustEvent::Fallback { .. })));
        // Weighted voting should still cover the true failing cell:
        // 5 of 6 partitions voted for its groups at full weight.
        assert!(robust.candidates.contains(42), "fallback keeps cell 42");
    }

    #[test]
    fn cancellable_with_live_token_matches_uncancellable() {
        let plan = plan();
        let truth = plan.analyze([(10usize, 1usize), (90, 7)]);
        let mut config = NoiseConfig::noiseless(99);
        config.flip_rate = 0.1;
        let noise = model(config);
        let policy = RobustPolicy::default();
        for fault in 0..8u64 {
            let baseline = diagnose_robust(&plan, &truth, &noise, &policy, fault);
            let cancellable = diagnose_robust_cancellable(
                &plan,
                &truth,
                &noise,
                &policy,
                fault,
                &CancelToken::new(),
            )
            .expect("live token never cancels");
            assert_eq!(baseline, cancellable, "fault {fault}");
        }
    }

    #[test]
    fn pre_cancelled_robust_run_reports_cancellation() {
        let plan = plan();
        let truth = plan.analyze([(42usize, 3usize)]);
        let token = CancelToken::new();
        token.cancel();
        let err = diagnose_robust_cancellable(
            &plan,
            &truth,
            &model(NoiseConfig::noiseless(7)),
            &RobustPolicy::default(),
            0,
            &token,
        )
        .expect_err("cancelled token must stop the run");
        assert!(matches!(err, DiagnoseError::Cancelled { .. }), "{err:?}");
    }

    #[test]
    fn reported_consistent_grid_is_exact_and_strict_identical() {
        let plan = plan();
        let truth = plan.analyze([(42usize, 3usize), (42, 5)]);
        let strict = diagnose(&plan, &truth);
        let reported = diagnose_reported(&plan, &truth, &CancelToken::new()).expect("live token");
        assert_eq!(reported.confidence, Confidence::Exact);
        assert_eq!(&reported.candidates, strict.candidates());
        assert_eq!(reported.prefix_counts, strict.prefix_counts());
        assert!(!reported.used_fallback);
    }

    #[test]
    fn reported_all_passed_grid_is_inconclusive_not_an_error() {
        let plan = plan();
        let truth = plan.analyze(std::iter::empty());
        let reported = diagnose_reported(&plan, &truth, &CancelToken::new()).expect("live token");
        assert_eq!(reported.confidence, Confidence::Inconclusive);
        assert_eq!(reported.inconclusive, Some(InconclusiveReason::AllPassed));
        assert!(reported.candidates.is_empty());
    }

    #[test]
    fn reported_contradictory_grid_degrades_via_unit_weight_voting() {
        // Fabricate a contradiction directly from verdicts: cell 42's
        // groups fail in 5 of 6 partitions, an unrelated group fails in
        // the remaining one.
        let plan = plan();
        let truth = plan.analyze([(42usize, 3usize), (42, 5)]);
        let num_partitions = plan.partitions().len();
        let max_groups = plan
            .partitions()
            .iter()
            .map(scan_bist::Partition::num_groups)
            .max()
            .unwrap() as usize;
        let mut failed = vec![vec![false; max_groups]; num_partitions];
        for (p, partition) in plan.partitions().iter().enumerate() {
            let (_, pos) = plan.layout().coord(42);
            failed[p][usize::from(partition.group_of(pos as usize))] = true;
        }
        // Contradict partition 0: move its failing verdict to a group
        // not containing cell 42.
        let (_, pos42) = plan.layout().coord(42);
        let g42 = usize::from(plan.partitions()[0].group_of(pos42 as usize));
        failed[0][g42] = false;
        failed[0][(g42 + 1) % max_groups] = true;
        let outcome = SessionOutcome::from_verdicts(failed);
        assert!(matches!(
            diagnose(&plan, &outcome).status(),
            DiagnosisStatus::Contradictory { .. }
        ));
        let reported = diagnose_reported(&plan, &outcome, &CancelToken::new()).expect("live token");
        assert_eq!(reported.confidence, Confidence::Degraded);
        assert!(reported.used_fallback);
        assert!(
            reported.candidates.contains(42),
            "5-of-6 unit-weight support keeps cell 42"
        );
        assert!(reported
            .events
            .iter()
            .any(|e| matches!(e, RobustEvent::Fallback { .. })));
        let _ = truth;
    }

    #[test]
    fn policy_normalizes_votes_to_odd() {
        assert_eq!(
            RobustPolicy {
                max_retry_rounds: 1,
                votes: 0
            }
            .effective_votes(),
            1
        );
        assert_eq!(
            RobustPolicy {
                max_retry_rounds: 1,
                votes: 3
            }
            .effective_votes(),
            3
        );
        assert_eq!(
            RobustPolicy {
                max_retry_rounds: 1,
                votes: 4
            }
            .effective_votes(),
            5
        );
    }
}
