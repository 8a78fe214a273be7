//! Per-fault diagnosis audit traces.
//!
//! A [`SchemeReport`](crate::SchemeReport) compresses a campaign into
//! aggregate DR numbers; an audit trace keeps the evidence. For every
//! injected fault it records, per partition, the partition *kind*
//! (interval vs random-selection), which groups failed their BIST
//! session, and how large the candidate set was after intersecting
//! that partition — the full convergence curve behind Fig. 5, one
//! fault at a time.
//!
//! Traces serialize to NDJSON (`scanbist --audit-out <path> diagnose …`),
//! are validated by `obs-check`, and are summarized back into a
//! human-readable report by `scanbist explain <audit.ndjson>` via
//! [`summarize_ndjson`]. Auditing is a separate replay pass over the
//! prepared campaign — the diagnosis hot path is untouched, so audited
//! and unaudited campaigns stay bit-identical.

use std::fmt::Write as _;

use scan_obs::json::{self, Value};

use crate::noise::NoiseConfig;
use crate::robust::{Confidence, InconclusiveReason, RobustEvent};

/// One partition's contribution to a fault's diagnosis.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct AuditStep {
    /// Partition index within the scheme (0-based).
    pub partition: usize,
    /// Partition kind: `"interval"` or `"random-selection"`.
    pub kind: &'static str,
    /// Groups whose BIST session signature mismatched.
    pub failing_groups: Vec<u16>,
    /// Candidate-set size after intersecting this partition (the raw
    /// intersection, before X-mask exclusion).
    pub candidates: usize,
}

/// The audit record of one injected fault.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct FaultAudit {
    /// Fault case index within the campaign.
    pub index: usize,
    /// Observable truly-failing cells.
    pub actual: usize,
    /// Final candidate count (after all partitions and X-mask
    /// exclusion).
    pub final_candidates: usize,
    /// One step per partition, in intersection order.
    pub steps: Vec<AuditStep>,
}

/// A full campaign audit: metadata plus one record per fault.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct CampaignAudit {
    /// Scheme name (e.g. `two-step(1+3)`).
    pub scheme: String,
    /// Groups per partition.
    pub groups: u16,
    /// Partitions per scheme.
    pub partitions: usize,
    /// Per-fault records, in fault-index order.
    pub faults: Vec<FaultAudit>,
}

impl CampaignAudit {
    /// Renders the NDJSON stream: a `meta` line followed by one `fault`
    /// line per record. The shape is what `obs-check` validates.
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"{{"type":"meta","version":1,"kind":"diagnosis-audit","scheme":"{}","groups":{},"partitions":{},"faults":{}}}"#,
            self.scheme,
            self.groups,
            self.partitions,
            self.faults.len()
        );
        for fault in &self.faults {
            let _ = write!(
                out,
                r#"{{"type":"fault","index":{},"actual":{},"final":{},"steps":["#,
                fault.index, fault.actual, fault.final_candidates
            );
            for (i, step) in fault.steps.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let groups = step
                    .failing_groups
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = write!(
                    out,
                    r#"{{"partition":{},"kind":"{}","failing_groups":[{groups}],"candidates":{}}}"#,
                    step.partition, step.kind, step.candidates
                );
            }
            out.push_str("]}\n");
        }
        out
    }
}

/// The robust-audit record of one injected fault: the strict
/// convergence evidence plus every recovery action the fault-tolerant
/// engine took.
#[derive(Clone, PartialEq, Debug)]
pub struct RobustFaultAudit {
    /// Fault case index within the campaign.
    pub index: usize,
    /// Observable truly-failing cells.
    pub actual: usize,
    /// Final candidate count (after mask exclusion).
    pub final_candidates: usize,
    /// Confidence of the resolved diagnosis.
    pub confidence: Confidence,
    /// Why the fault is inconclusive, when it is.
    pub inconclusive: Option<InconclusiveReason>,
    /// Retry rounds executed for this fault.
    pub retry_rounds: usize,
    /// Whether the candidates came from the weighted-voting fallback.
    pub used_fallback: bool,
    /// Ordered recovery actions (serialized as `retry`/`vote`/
    /// `fallback` NDJSON records preceding the `fault` record).
    pub events: Vec<RobustEvent>,
    /// One step per partition of the final strict attempt.
    pub steps: Vec<AuditStep>,
}

/// A full fault-tolerant campaign audit.
#[derive(Clone, PartialEq, Debug)]
pub struct RobustAudit {
    /// Scheme name.
    pub scheme: String,
    /// Groups per partition.
    pub groups: u16,
    /// Partitions per scheme.
    pub partitions: usize,
    /// The noise configuration the campaign ran under.
    pub noise: NoiseConfig,
    /// Effective (odd) ballots per retried session.
    pub votes: usize,
    /// Retry-round budget.
    pub max_retry_rounds: usize,
    /// Per-fault records, in fault-index order.
    pub faults: Vec<RobustFaultAudit>,
}

/// Serializes one recovery action as its NDJSON record.
fn write_event(out: &mut String, fault_index: usize, event: &RobustEvent) {
    match *event {
        RobustEvent::Retry { round, sessions } => {
            let _ = writeln!(
                out,
                r#"{{"type":"retry","fault":{fault_index},"round":{round},"sessions":{sessions}}}"#,
            );
        }
        RobustEvent::Vote {
            partition,
            group,
            fail_votes,
            pass_votes,
            lost_votes,
            verdict,
        } => {
            let _ = writeln!(
                out,
                concat!(
                    r#"{{"type":"vote","fault":{fault_index},"partition":{partition},"#,
                    r#""group":{group},"fail":{fail},"pass":{pass},"#,
                    r#""lost":{lost},"verdict":"{verdict}"}}"#
                ),
                fault_index = fault_index,
                partition = partition,
                group = group,
                fail = fail_votes,
                pass = pass_votes,
                lost = lost_votes,
                verdict = verdict.label(),
            );
        }
        RobustEvent::Fallback {
            partition,
            support,
            candidates,
        } => {
            let _ = writeln!(
                out,
                concat!(
                    r#"{{"type":"fallback","fault":{fault_index},"partition":{partition},"#,
                    r#""support":{support},"candidates":{candidates}}}"#
                ),
                fault_index = fault_index,
                partition = partition,
                support = support,
                candidates = candidates,
            );
        }
    }
}

impl RobustAudit {
    /// Renders the NDJSON stream: a `meta` line (kind `robust-audit`),
    /// then per fault its `retry`/`vote`/`fallback` event records
    /// followed by the `fault` record. The shape is what `obs-check`
    /// validates.
    #[must_use]
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            concat!(
                r#"{{"type":"meta","version":1,"kind":"robust-audit","scheme":"{}","#,
                r#""groups":{},"partitions":{},"faults":{},"noise_seed":{},"#,
                r#""flip_rate":{},"dropout_rate":{},"intermittent_rate":{},"#,
                r#""intermittent_miss":{},"x_corrupt_fraction":{},"votes":{},"#,
                r#""max_retry_rounds":{}}}"#
            ),
            self.scheme,
            self.groups,
            self.partitions,
            self.faults.len(),
            self.noise.seed,
            self.noise.flip_rate,
            self.noise.dropout_rate,
            self.noise.intermittent_rate,
            self.noise.intermittent_miss,
            self.noise.x_corrupt_fraction,
            self.votes,
            self.max_retry_rounds,
        );
        for fault in &self.faults {
            for event in &fault.events {
                write_event(&mut out, fault.index, event);
            }
            let reason = fault
                .inconclusive
                .map_or(String::new(), |r| format!(r#","reason":"{}""#, r.label()));
            let _ = write!(
                out,
                concat!(
                    r#"{{"type":"fault","index":{},"actual":{},"final":{},"#,
                    r#""confidence":"{}"{},"retry_rounds":{},"fallback":{},"steps":["#
                ),
                fault.index,
                fault.actual,
                fault.final_candidates,
                fault.confidence.label(),
                reason,
                fault.retry_rounds,
                fault.used_fallback,
            );
            for (i, step) in fault.steps.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let groups = step
                    .failing_groups
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = write!(
                    out,
                    r#"{{"partition":{},"kind":"{}","failing_groups":[{groups}],"candidates":{}}}"#,
                    step.partition, step.kind, step.candidates
                );
            }
            out.push_str("]}\n");
        }
        out
    }
}

/// Summarizes an NDJSON audit trace (as written by `--audit-out`) into
/// the human-readable report printed by `scanbist explain`.
///
/// # Errors
///
/// Returns a message if the stream is not parseable NDJSON or contains
/// no `fault` events.
pub fn summarize_ndjson(text: &str) -> Result<String, String> {
    let mut scheme = String::from("?");
    // (actual, final, per-step candidate counts, per-step kinds)
    let mut faults: Vec<(u64, u64, Vec<u64>, Vec<String>)> = Vec::new();
    // Robust-audit extras: confidence tallies and recovery-event counts.
    let mut confidences: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    let mut retries = 0usize;
    let mut votes = 0usize;
    let mut fallbacks = 0usize;
    for (index, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|e| format!("line {}: {e}", index + 1))?;
        match value.get("type").and_then(Value::as_str) {
            Some("meta") => {
                if let Some(name) = value.get("scheme").and_then(Value::as_str) {
                    name.clone_into(&mut scheme);
                }
            }
            Some("fault") => {
                if let Some(level) = value.get("confidence").and_then(Value::as_str) {
                    *confidences.entry(level.to_owned()).or_insert(0) += 1;
                }
                faults.push(parse_fault(&value).map_err(|e| format!("line {}: {e}", index + 1))?);
            }
            Some("retry") => retries += 1,
            Some("vote") => votes += 1,
            Some("fallback") => fallbacks += 1,
            Some(other) => return Err(format!("line {}: unknown event type `{other}`", index + 1)),
            None => return Err(format!("line {}: missing \"type\"", index + 1)),
        }
    }
    if faults.is_empty() {
        return Err("no fault events in audit trace".into());
    }

    let n = faults.len() as f64;
    let sum_actual: u64 = faults.iter().map(|f| f.0).sum();
    let sum_final: u64 = faults.iter().map(|f| f.1).sum();
    let steps = faults.iter().map(|f| f.2.len()).max().unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "diagnosis audit: {} fault(s), scheme {scheme}",
        faults.len()
    );
    let _ = writeln!(
        out,
        "  mean actual failing cells {:.2}, mean final candidates {:.2}",
        sum_actual as f64 / n,
        sum_final as f64 / n
    );
    if sum_actual > 0 {
        let dr = (sum_final as f64 - sum_actual as f64) / sum_actual as f64;
        let _ = writeln!(out, "  diagnostic resolution (DR) {dr:.3}");
    }
    let _ = writeln!(out, "  convergence (mean candidates after each partition):");
    for k in 0..steps {
        let with_step: Vec<&(u64, u64, Vec<u64>, Vec<String>)> =
            faults.iter().filter(|f| f.2.len() > k).collect();
        let mean =
            with_step.iter().map(|f| f.2[k]).sum::<u64>() as f64 / with_step.len().max(1) as f64;
        let kind = with_step
            .first()
            .and_then(|f| f.3.get(k).cloned())
            .unwrap_or_else(|| "?".into());
        let _ = writeln!(out, "    partition {:>2} [{kind:<16}] {mean:>10.1}", k + 1);
    }
    if let Some((index, f)) = faults
        .iter()
        .enumerate()
        .max_by_key(|(_, f)| f.1.saturating_sub(f.0))
    {
        let _ = writeln!(
            out,
            "  worst fault: #{index} ({} candidates for {} actual failing cell(s))",
            f.1, f.0
        );
    }
    if !confidences.is_empty() {
        let levels = confidences
            .iter()
            .map(|(level, count)| format!("{level} {count}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "  confidence: {levels}");
        let _ = writeln!(
            out,
            "  recovery: {retries} retry round(s), {votes} session vote(s), {fallbacks} fallback(s)"
        );
    }
    Ok(out)
}

#[allow(clippy::type_complexity)] // one private tuple, named in the caller
#[allow(clippy::cast_sign_loss)] // counts are clamped non-negative before the cast
fn parse_fault(value: &Value) -> Result<(u64, u64, Vec<u64>, Vec<String>), String> {
    let num = |member: &str| -> Result<u64, String> {
        value
            .get(member)
            .and_then(Value::as_f64)
            .map(|v| v.max(0.0) as u64)
            .ok_or_else(|| format!("fault event missing numeric \"{member}\""))
    };
    let actual = num("actual")?;
    let final_candidates = num("final")?;
    let steps = value
        .get("steps")
        .and_then(Value::as_array)
        .ok_or("fault event missing \"steps\" array")?;
    let mut counts = Vec::with_capacity(steps.len());
    let mut kinds = Vec::with_capacity(steps.len());
    for step in steps {
        counts.push(
            step.get("candidates")
                .and_then(Value::as_f64)
                .map(|v| v.max(0.0) as u64)
                .ok_or("audit step missing numeric \"candidates\"")?,
        );
        kinds.push(
            step.get("kind")
                .and_then(Value::as_str)
                .ok_or("audit step missing \"kind\"")?
                .to_owned(),
        );
    }
    Ok((actual, final_candidates, counts, kinds))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignAudit {
        CampaignAudit {
            scheme: "two-step(1+1)".into(),
            groups: 4,
            partitions: 2,
            faults: vec![
                FaultAudit {
                    index: 0,
                    actual: 2,
                    final_candidates: 5,
                    steps: vec![
                        AuditStep {
                            partition: 0,
                            kind: "interval",
                            failing_groups: vec![1, 3],
                            candidates: 40,
                        },
                        AuditStep {
                            partition: 1,
                            kind: "random-selection",
                            failing_groups: vec![0],
                            candidates: 5,
                        },
                    ],
                },
                FaultAudit {
                    index: 1,
                    actual: 1,
                    final_candidates: 3,
                    steps: vec![
                        AuditStep {
                            partition: 0,
                            kind: "interval",
                            failing_groups: vec![2],
                            candidates: 20,
                        },
                        AuditStep {
                            partition: 1,
                            kind: "random-selection",
                            failing_groups: vec![1],
                            candidates: 3,
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn ndjson_golden() {
        let expected = concat!(
            r#"{"type":"meta","version":1,"kind":"diagnosis-audit","scheme":"two-step(1+1)","groups":4,"partitions":2,"faults":2}"#,
            "\n",
            r#"{"type":"fault","index":0,"actual":2,"final":5,"steps":[{"partition":0,"kind":"interval","failing_groups":[1,3],"candidates":40},{"partition":1,"kind":"random-selection","failing_groups":[0],"candidates":5}]}"#,
            "\n",
            r#"{"type":"fault","index":1,"actual":1,"final":3,"steps":[{"partition":0,"kind":"interval","failing_groups":[2],"candidates":20},{"partition":1,"kind":"random-selection","failing_groups":[1],"candidates":3}]}"#,
            "\n",
        );
        assert_eq!(sample().to_ndjson(), expected);
    }

    #[test]
    fn ndjson_lines_parse_back() {
        for line in sample().to_ndjson().lines() {
            json::parse(line).expect("audit NDJSON must be valid JSON");
        }
    }

    #[test]
    fn summarize_round_trip() {
        let text = sample().to_ndjson();
        let summary = summarize_ndjson(&text).unwrap();
        assert!(summary.contains("2 fault(s)"), "{summary}");
        assert!(summary.contains("scheme two-step(1+1)"), "{summary}");
        assert!(summary.contains("interval"), "{summary}");
        assert!(summary.contains("random-selection"), "{summary}");
        // Mean after partition 1 = (40+20)/2 = 30.0.
        assert!(summary.contains("30.0"), "{summary}");
        // DR = (8 − 3) / 3.
        assert!(summary.contains("1.667"), "{summary}");
    }

    #[test]
    fn summarize_rejects_garbage() {
        assert!(summarize_ndjson("not json\n").is_err());
        assert!(summarize_ndjson("").is_err());
        assert!(summarize_ndjson(r#"{"type":"meta"}"#).is_err(), "no faults");
        assert!(summarize_ndjson(r#"{"type":"fault","actual":1}"#).is_err());
        assert!(
            summarize_ndjson(r#"{"type":"mystery"}"#).is_err(),
            "unknown kinds still rejected"
        );
    }

    fn robust_sample() -> RobustAudit {
        RobustAudit {
            scheme: "two-step(1+1)".into(),
            groups: 4,
            partitions: 2,
            noise: {
                let mut config = NoiseConfig::noiseless(7);
                config.flip_rate = 0.02;
                config
            },
            votes: 3,
            max_retry_rounds: 2,
            faults: vec![RobustFaultAudit {
                index: 0,
                actual: 2,
                final_candidates: 5,
                confidence: Confidence::Degraded,
                inconclusive: None,
                retry_rounds: 1,
                used_fallback: false,
                events: vec![
                    RobustEvent::Retry {
                        round: 0,
                        sessions: 4,
                    },
                    RobustEvent::Vote {
                        partition: 1,
                        group: 2,
                        fail_votes: 2,
                        pass_votes: 1,
                        lost_votes: 0,
                        verdict: crate::noise::Verdict::Fail,
                    },
                    RobustEvent::Fallback {
                        partition: 1,
                        support: 1.5,
                        candidates: 5,
                    },
                ],
                steps: vec![AuditStep {
                    partition: 0,
                    kind: "interval",
                    failing_groups: vec![1],
                    candidates: 5,
                }],
            }],
        }
    }

    #[test]
    fn robust_ndjson_lines_parse_back() {
        let text = robust_sample().to_ndjson();
        let mut kinds = Vec::new();
        for line in text.lines() {
            let value = json::parse(line).expect("robust audit NDJSON must be valid JSON");
            kinds.push(
                value
                    .get("type")
                    .and_then(Value::as_str)
                    .expect("every line has a type")
                    .to_owned(),
            );
        }
        assert_eq!(kinds, ["meta", "retry", "vote", "fallback", "fault"]);
        let meta = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(
            meta.get("kind").and_then(Value::as_str),
            Some("robust-audit")
        );
        assert_eq!(meta.get("flip_rate").and_then(Value::as_f64), Some(0.02));
    }

    #[test]
    fn robust_summarize_reports_confidence_and_recovery() {
        let summary = summarize_ndjson(&robust_sample().to_ndjson()).unwrap();
        assert!(summary.contains("confidence: degraded 1"), "{summary}");
        assert!(
            summary.contains("1 retry round(s), 1 session vote(s), 1 fallback(s)"),
            "{summary}"
        );
    }

    #[test]
    fn robust_fault_records_satisfy_strict_fault_shape() {
        // The `fault` records of a robust audit must stay parseable by
        // the plain-audit fault parser (obs-check shares the shape).
        let text = robust_sample().to_ndjson();
        let fault_line = text
            .lines()
            .find(|l| l.contains(r#""type":"fault""#))
            .unwrap();
        let value = json::parse(fault_line).unwrap();
        parse_fault(&value).expect("robust fault keeps the strict shape");
        assert_eq!(
            value.get("confidence").and_then(Value::as_str),
            Some("degraded")
        );
    }
}
