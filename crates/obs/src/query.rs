//! The NDJSON query engine behind `scanbist obs query`.
//!
//! A multi-process campaign leaves a pile of NDJSON streams — per
//! worker traces, audit trails, flight-recorder dumps. Interrogating
//! them ("which counters moved?", "what were the ten slowest spans
//! across the whole tree?", "sum `robust.retries` per process") should
//! not require jq or python: this module evaluates one declarative
//! [`QuerySpec`] over any number of streams and renders a single JSON
//! document to stdout.
//!
//! A query is a filter pipeline followed by one aggregation:
//!
//! * **filter** — by record `type`, by trace id (the `"trace"` stamp),
//!   by span-path glob (`*` wildcards), and by `--since`/`--until`
//!   bounds on the monotonic epoch clock (spans use `start_ns`;
//!   `alert`/`delta`/`tick` records use `at_ns`; records with no
//!   timestamp are excluded only when a bound is given);
//! * **group** — by any record field (`--group-by name` buckets
//!   counters per counter name);
//! * **aggregate** — `count`, or `sum`/`min`/`max`/nearest-rank
//!   `p<N>` quantiles over a numeric `--field`;
//! * **top-N slowest** — the N largest-`dur_ns` span records among the
//!   matches, a post-mortem staple.
//!
//! Counter totals aggregate bit-identically to the registry snapshot
//! they were exported from: integral values format without a
//! fractional part, and sums of u64 counters stay exact in `f64` well
//! past any realistic campaign (pinned by the `scan_rng::testkit`
//! property test in `crates/cli`).

use std::collections::BTreeMap;
use std::fmt;

use crate::json::escape;
use crate::json::{self, Value};
use crate::slo::fmt_num;

/// The aggregation applied to each group.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub enum Agg {
    /// Number of matching records (the default; needs no `--field`).
    #[default]
    Count,
    /// Sum of the field over the group.
    Sum,
    /// Smallest field value in the group.
    Min,
    /// Largest field value in the group.
    Max,
    /// Nearest-rank percentile (1–100) of the field values.
    Quantile(u8),
}

impl Agg {
    /// Parses `count|sum|min|max|p<N>`.
    ///
    /// # Errors
    ///
    /// Returns a message for anything else.
    pub fn parse(text: &str) -> Result<Agg, String> {
        match text {
            "count" => Ok(Agg::Count),
            "sum" => Ok(Agg::Sum),
            "min" => Ok(Agg::Min),
            "max" => Ok(Agg::Max),
            _ => text
                .strip_prefix('p')
                .and_then(|p| p.parse::<u8>().ok())
                .filter(|&p| (1..=100).contains(&p))
                .map(Agg::Quantile)
                .ok_or_else(|| {
                    format!("unknown aggregation `{text}` (expected count|sum|min|max|p1..p100)")
                }),
        }
    }

    fn name(self) -> String {
        match self {
            Agg::Count => "count".to_owned(),
            Agg::Sum => "sum".to_owned(),
            Agg::Min => "min".to_owned(),
            Agg::Max => "max".to_owned(),
            Agg::Quantile(p) => format!("p{p}"),
        }
    }
}

/// One declarative query over a set of NDJSON streams.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QuerySpec {
    /// Keep only these record types (empty = all types).
    pub types: Vec<String>,
    /// Keep only records stamped with this trace id.
    pub trace: Option<String>,
    /// Keep only records whose `path` matches this glob (`*`
    /// wildcards); records without a `path` are dropped.
    pub span_glob: Option<String>,
    /// Keep only records timestamped at or after this epoch offset.
    pub since_ns: Option<u64>,
    /// Keep only records timestamped at or before this epoch offset.
    pub until_ns: Option<u64>,
    /// Bucket matches by this field's value (missing → `(none)`).
    pub group_by: Option<String>,
    /// The aggregation per group.
    pub agg: Agg,
    /// Numeric field the aggregation reads (required for everything
    /// but `count`).
    pub field: Option<String>,
    /// Also report the N slowest span records among the matches.
    pub top_slowest: Option<usize>,
}

/// A query failure: malformed input or an inconsistent spec.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct QueryError(pub String);

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for QueryError {}

/// Matches `text` against `pattern`, where `*` matches any (possibly
/// empty) run of characters. The only metacharacter — span paths use
/// `[`/`]` literally (`experiment[s27]`), so no character classes.
#[must_use]
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut mark) = (None::<usize>, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some(pi);
            mark = ti;
            pi += 1;
        } else if let Some(s) = star {
            pi = s + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

/// The timestamp a record filters on, if it has one.
fn record_time(record: &Value) -> Option<u64> {
    let time_field = match record.get("type").and_then(Value::as_str) {
        Some("span") => "start_ns",
        Some("alert" | "delta" | "tick" | "flight") => "at_ns",
        _ => return None,
    };
    record.get(time_field).and_then(Value::as_f64).map(|v| {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            v.max(0.0) as u64
        }
    })
}

/// The group key of a record under `group_by`.
fn group_key(record: &Value, group_by: &str) -> String {
    match record.get(group_by) {
        Some(Value::String(s)) => s.clone(),
        Some(Value::Number(n)) => fmt_num(*n),
        Some(Value::Bool(b)) => b.to_string(),
        Some(Value::Null) | None => "(none)".to_owned(),
        Some(Value::Array(_)) => "(array)".to_owned(),
        Some(Value::Object(_)) => "(object)".to_owned(),
    }
}

struct Group {
    n: usize,
    values: Vec<f64>,
}

/// Runs `spec` over `streams` (label, NDJSON text) and renders the
/// result document (one JSON object, no trailing newline).
///
/// # Errors
///
/// Returns [`QueryError`] for unparseable lines (named by stream label
/// and line number) or a spec that needs a `--field` and has none.
pub fn run(streams: &[(String, String)], spec: &QuerySpec) -> Result<String, QueryError> {
    if spec.field.is_none() && spec.agg != Agg::Count {
        return Err(QueryError(format!(
            "aggregation `{}` needs `--field <name>`",
            spec.agg.name()
        )));
    }
    let mut records = 0usize;
    let mut matched = 0usize;
    let mut groups: BTreeMap<String, Group> = BTreeMap::new();
    let mut slowest: Vec<(u64, String, String)> = Vec::new();
    for (label, text) in streams {
        for (idx, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record =
                json::parse(line).map_err(|e| QueryError(format!("{label}:{}: {e}", idx + 1)))?;
            records += 1;
            if !matches(&record, spec) {
                continue;
            }
            matched += 1;
            let key = spec
                .group_by
                .as_deref()
                .map_or_else(|| "all".to_owned(), |g| group_key(&record, g));
            let group = groups.entry(key).or_insert_with(|| Group {
                n: 0,
                values: Vec::new(),
            });
            group.n += 1;
            if let Some(field) = &spec.field {
                if let Some(v) = record.get(field).and_then(Value::as_f64) {
                    group.values.push(v);
                }
            }
            if spec.top_slowest.is_some()
                && record.get("type").and_then(Value::as_str) == Some("span")
            {
                if let (Some(path), Some(dur)) = (
                    record.get("path").and_then(Value::as_str),
                    record.get("dur_ns").and_then(Value::as_f64),
                ) {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    slowest.push((dur.max(0.0) as u64, path.to_owned(), label.clone()));
                }
            }
        }
    }
    Ok(render(
        spec,
        streams.len(),
        records,
        matched,
        &groups,
        slowest,
    ))
}

fn matches(record: &Value, spec: &QuerySpec) -> bool {
    if !spec.types.is_empty() {
        let ty = record.get("type").and_then(Value::as_str).unwrap_or("");
        if !spec.types.iter().any(|t| t == ty) {
            return false;
        }
    }
    if let Some(trace) = &spec.trace {
        if record.get("trace").and_then(Value::as_str) != Some(trace.as_str()) {
            return false;
        }
    }
    if let Some(glob) = &spec.span_glob {
        let Some(path) = record.get("path").and_then(Value::as_str) else {
            return false;
        };
        if !glob_match(glob, path) {
            return false;
        }
    }
    if spec.since_ns.is_some() || spec.until_ns.is_some() {
        let Some(t) = record_time(record) else {
            return false;
        };
        if spec.since_ns.is_some_and(|since| t < since)
            || spec.until_ns.is_some_and(|until| t > until)
        {
            return false;
        }
    }
    true
}

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// `ceil(p/100 * n)`, 1-based.
fn nearest_rank(sorted: &[f64], p: u8) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank =
        ((f64::from(p) / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

fn aggregate(agg: Agg, group: &Group) -> Option<f64> {
    match agg {
        #[allow(clippy::cast_precision_loss)]
        Agg::Count => Some(group.n as f64),
        Agg::Sum => Some(group.values.iter().sum()),
        Agg::Min => group.values.iter().copied().reduce(f64::min),
        Agg::Max => group.values.iter().copied().reduce(f64::max),
        Agg::Quantile(p) => {
            let mut sorted = group.values.clone();
            sorted.sort_by(f64::total_cmp);
            nearest_rank(&sorted, p)
        }
    }
}

fn render(
    spec: &QuerySpec,
    files: usize,
    records: usize,
    matched: usize,
    groups: &BTreeMap<String, Group>,
    mut slowest: Vec<(u64, String, String)>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"version\":1,\"files\":{files},\"records\":{records},\"matched\":{matched},\"agg\":{}",
        escape(&spec.agg.name())
    );
    if let Some(field) = &spec.field {
        let _ = write!(out, ",\"field\":{}", escape(field));
    }
    if let Some(group_by) = &spec.group_by {
        let _ = write!(out, ",\"group_by\":{}", escape(group_by));
    }
    out.push_str(",\"groups\":[");
    for (i, (key, group)) in groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let value = aggregate(spec.agg, group).map_or_else(|| "null".to_owned(), fmt_num);
        let _ = write!(
            out,
            "{{\"key\":{},\"n\":{},\"value\":{value}}}",
            escape(key),
            group.n
        );
    }
    out.push(']');
    if let Some(n) = spec.top_slowest {
        slowest.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        slowest.truncate(n);
        out.push_str(",\"top_slowest\":[");
        for (i, (dur_ns, path, file)) in slowest.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":{},\"dur_ns\":{dur_ns},\"file\":{}}}",
                escape(path),
                escape(file)
            );
        }
        out.push(']');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(text: &str) -> Vec<(String, String)> {
        vec![("test.ndjson".to_owned(), text.to_owned())]
    }

    #[test]
    fn glob_matches_span_paths() {
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a/*/c", "a/b/c"));
        assert!(glob_match("experiment[*]", "experiment[s27]"));
        assert!(glob_match("*fault_sim", "campaign/fault_sim"));
        assert!(glob_match("a*b*c", "axxbyyc"));
        assert!(!glob_match("a/*/c", "a/c"));
        assert!(!glob_match("abc", "abd"));
        assert!(!glob_match("abc", "abcd"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
    }

    #[test]
    fn counter_sum_groups_by_name() {
        let text = "\
{\"type\":\"counter\",\"name\":\"a\",\"value\":3}\n\
{\"type\":\"counter\",\"name\":\"b\",\"value\":10}\n\
{\"type\":\"counter\",\"name\":\"a\",\"value\":4}\n\
{\"type\":\"span\",\"path\":\"x\",\"start_ns\":0,\"end_ns\":5,\"dur_ns\":5}\n";
        let spec = QuerySpec {
            types: vec!["counter".into()],
            group_by: Some("name".into()),
            agg: Agg::Sum,
            field: Some("value".into()),
            ..QuerySpec::default()
        };
        let out = run(&stream(text), &spec).expect("query runs");
        let doc = crate::json::parse(&out).expect("valid json");
        assert_eq!(doc.get("records").and_then(Value::as_f64), Some(4.0));
        assert_eq!(doc.get("matched").and_then(Value::as_f64), Some(3.0));
        let groups = doc.get("groups").and_then(Value::as_array).expect("groups");
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].get("key").and_then(Value::as_str), Some("a"));
        assert_eq!(groups[0].get("value").and_then(Value::as_f64), Some(7.0));
        assert_eq!(groups[1].get("key").and_then(Value::as_str), Some("b"));
        assert_eq!(groups[1].get("value").and_then(Value::as_f64), Some(10.0));
    }

    #[test]
    fn filters_compose() {
        let text = "\
{\"trace\":\"00000000000000aa\",\"type\":\"span\",\"path\":\"c/fault_sim\",\"start_ns\":100,\"end_ns\":200,\"dur_ns\":100}\n\
{\"trace\":\"00000000000000bb\",\"type\":\"span\",\"path\":\"c/fault_sim\",\"start_ns\":100,\"end_ns\":300,\"dur_ns\":200}\n\
{\"trace\":\"00000000000000aa\",\"type\":\"span\",\"path\":\"c/diagnose\",\"start_ns\":900,\"end_ns\":950,\"dur_ns\":50}\n\
{\"trace\":\"00000000000000aa\",\"type\":\"counter\",\"name\":\"n\",\"value\":1}\n";
        let spec = QuerySpec {
            types: vec!["span".into()],
            trace: Some("00000000000000aa".into()),
            span_glob: Some("c/*".into()),
            since_ns: Some(0),
            until_ns: Some(500),
            ..QuerySpec::default()
        };
        let out = run(&stream(text), &spec).expect("query runs");
        let doc = crate::json::parse(&out).expect("valid json");
        // Only the first span survives: trace bb fails the trace
        // filter, start_ns 900 fails --until, the counter fails --type.
        assert_eq!(doc.get("matched").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn top_slowest_and_quantiles() {
        use std::fmt::Write as _;
        let mut text = String::new();
        for (i, dur) in [50u64, 300, 100, 200, 250].iter().enumerate() {
            let _ = writeln!(
                text,
                "{{\"type\":\"span\",\"path\":\"s{i}\",\"start_ns\":0,\"end_ns\":{dur},\"dur_ns\":{dur}}}"
            );
        }
        let spec = QuerySpec {
            types: vec!["span".into()],
            agg: Agg::Quantile(50),
            field: Some("dur_ns".into()),
            top_slowest: Some(2),
            ..QuerySpec::default()
        };
        let out = run(&stream(&text), &spec).expect("query runs");
        let doc = crate::json::parse(&out).expect("valid json");
        let groups = doc.get("groups").and_then(Value::as_array).expect("groups");
        // Nearest-rank p50 of {50,100,200,250,300} = 200.
        assert_eq!(groups[0].get("value").and_then(Value::as_f64), Some(200.0));
        let top = doc
            .get("top_slowest")
            .and_then(Value::as_array)
            .expect("top");
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].get("dur_ns").and_then(Value::as_f64), Some(300.0));
        assert_eq!(top[1].get("dur_ns").and_then(Value::as_f64), Some(250.0));
    }

    #[test]
    fn min_max_and_empty_groups() {
        let text = "{\"type\":\"counter\",\"name\":\"a\",\"value\":5}\n";
        let min = QuerySpec {
            agg: Agg::Min,
            field: Some("value".into()),
            ..QuerySpec::default()
        };
        let out = run(&stream(text), &min).expect("runs");
        assert!(out.contains("\"value\":5"), "{out}");
        let missing = QuerySpec {
            agg: Agg::Max,
            field: Some("nope".into()),
            ..QuerySpec::default()
        };
        let out = run(&stream(text), &missing).expect("runs");
        assert!(out.contains("\"value\":null"), "{out}");
    }

    #[test]
    fn rejects_bad_input_and_specs() {
        let err =
            run(&stream("{\"type\":\"counter\"\n"), &QuerySpec::default()).expect_err("bad json");
        assert!(err.0.contains("test.ndjson:1"), "{err}");
        let err = run(
            &stream(""),
            &QuerySpec {
                agg: Agg::Sum,
                ..QuerySpec::default()
            },
        )
        .expect_err("sum without field");
        assert!(err.0.contains("--field"), "{err}");
        assert!(Agg::parse("p95") == Ok(Agg::Quantile(95)));
        assert!(Agg::parse("p0").is_err());
        assert!(Agg::parse("p101").is_err());
        assert!(Agg::parse("median").is_err());
    }
}
