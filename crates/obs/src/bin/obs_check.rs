//! `obs-check` — validates observability export files.
//!
//! Usage: `obs-check <file>…` where each file is one of
//!
//! * an NDJSON stream (`.ndjson`): every line must parse as a JSON
//!   object with a known `type` — trace events (`meta`/`span`/
//!   `counter`/`hist`), live-telemetry records (`ts` time series,
//!   `context` trace correlation), diagnosis audit events (`fault`),
//!   fault-tolerant recovery events (`retry`/`vote`/`fallback`),
//!   static-analysis events from `scan-lint` (`finding`/`lint`), SLO
//!   alert transitions (`alert`), and flight-recorder records
//!   (`flight` header, `delta` counter movements, `tick` markers) are
//!   all accepted; an optional `"trace"` stamp on any line must be
//!   consistent across the stream;
//! * a collapsed-stack profile (`.folded`, or any non-JSON text):
//!   every line must be `frame[;frame…] <count>`;
//! * a daemon goodput document (JSON with a `scenarios` array, written
//!   by `scanbistd-loadgen`): every scenario carries its offered rate,
//!   outcome counts, latency percentiles — and zero real failures;
//! * a bench baseline (JSON with `suite`/`kernels` members): every
//!   kernel must carry numeric `median_ns`/`p95_ns`/`iqr_ns`;
//! * a JSON metrics snapshot (any other JSON: one object with
//!   `counters` / `histograms` / `spans` members).
//!
//! Two extra modes:
//!
//! * `obs-check --join <trace.ndjson>…` — verifies a *merged
//!   multi-process trace*: every stream shares one trace id, exactly
//!   one stream is the root (no `parent_span`), and every other
//!   stream's `parent_span` resolves to a span recorded in another
//!   stream reachable from the root (no orphans, no cycles).
//! * `obs-check --scrape <host:port>` — a std-only HTTP client for the
//!   live `--serve-metrics` endpoint: GETs `/healthz`, `/metrics`
//!   (validated as Prometheus text exposition), `/metrics.json`
//!   (validated as a metrics snapshot), and `/alerts.json` (validated
//!   as a versioned alert-status document), then sends `HEAD /metrics`
//!   and requires a `200` with an empty body.
//!
//! Exits nonzero with a message on the first failure —
//! `scripts/verify.sh` runs this against an instrumented smoke
//! campaign, a live scrape, a multi-process trace join, and a
//! quick-mode bench run.

use std::process::ExitCode;

use scan_obs::json::{parse, Value};

fn check_ndjson(path: &str, text: &str) -> Result<(), String> {
    let mut spans = 0usize;
    let mut faults = 0usize;
    let mut recoveries = 0usize;
    let mut findings = 0usize;
    let mut series = 0usize;
    let mut contexts = 0usize;
    let mut alerts = 0usize;
    let mut flights = 0usize;
    let mut graph_fns = 0usize;
    let mut graph_edges = 0usize;
    let mut lines = 0usize;
    let mut stamp: Option<String> = None;
    for (index, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        lines += 1;
        let value = parse(line).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
        if let Some(trace) = value.get("trace").and_then(Value::as_str) {
            match &stamp {
                None => stamp = Some(trace.to_owned()),
                Some(seen) if seen == trace => {}
                Some(seen) => {
                    return Err(format!(
                        "{path}:{}: trace stamp `{trace}` conflicts with `{seen}`",
                        index + 1
                    ))
                }
            }
        }
        let kind = value
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: missing \"type\"", index + 1))?;
        match kind {
            "meta" | "counter" | "hist" => {}
            "ts" => {
                check_ts_event(&value).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
                series += 1;
            }
            "context" => {
                check_context_event(&value).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
                contexts += 1;
            }
            "span" => {
                let start = value.get("start_ns").and_then(Value::as_f64);
                let end = value.get("end_ns").and_then(Value::as_f64);
                let path_ok = value.get("path").and_then(Value::as_str).is_some();
                match (start, end, path_ok) {
                    (Some(s), Some(e), true) if s <= e => spans += 1,
                    _ => return Err(format!("{path}:{}: malformed span event", index + 1)),
                }
            }
            "fault" => {
                check_fault_event(&value).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
                faults += 1;
            }
            "retry" | "vote" | "fallback" => {
                check_recovery_event(kind, &value)
                    .map_err(|e| format!("{path}:{}: {e}", index + 1))?;
                recoveries += 1;
            }
            "finding" => {
                check_finding_event(&value).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
                findings += 1;
            }
            "lint" => {
                check_lint_summary(&value).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
            }
            "graph_fn" => {
                check_graph_fn(&value).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
                graph_fns += 1;
            }
            "graph_edge" => {
                check_graph_edge(&value).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
                graph_edges += 1;
            }
            "graph" => {
                check_graph_summary(&value, graph_fns, graph_edges)
                    .map_err(|e| format!("{path}:{}: {e}", index + 1))?;
            }
            "alert" => {
                check_alert_event(&value).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
                alerts += 1;
            }
            "flight" => {
                check_flight_event(&value).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
                flights += 1;
            }
            "delta" => {
                check_delta_event(&value).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
            }
            "tick" => {
                check_tick_event(&value).map_err(|e| format!("{path}:{}: {e}", index + 1))?;
            }
            other => {
                return Err(format!(
                    "{path}:{}: unknown event type `{other}`",
                    index + 1
                ))
            }
        }
    }
    if lines == 0 {
        return Err(format!("{path}: empty NDJSON stream"));
    }
    if contexts > 1 {
        return Err(format!(
            "{path}: {contexts} context records (want at most 1)"
        ));
    }
    if flights > 1 {
        return Err(format!("{path}: {flights} flight headers (want at most 1)"));
    }
    eprintln!(
        "obs-check: {path}: {lines} event(s), {spans} span(s), {faults} fault audit(s), \
         {recoveries} recovery event(s), {findings} lint finding(s), {alerts} alert(s), \
         {series} series, {contexts} context(s) OK"
    );
    Ok(())
}

/// An SLO alert transition from `scan_obs::slo`: the rule and series
/// it fired on, a `firing`/`resolved` state, the observed value, the
/// configured threshold, and the epoch offset of the transition.
fn check_alert_event(value: &Value) -> Result<(), String> {
    for member in ["rule", "series"] {
        if value.get(member).and_then(Value::as_str).is_none() {
            return Err(format!("alert event missing string \"{member}\""));
        }
    }
    let state = value.get("state").and_then(Value::as_str);
    if !matches!(state, Some("firing" | "resolved")) {
        return Err("alert event missing state firing|resolved".to_owned());
    }
    for member in ["value", "threshold"] {
        if value.get(member).and_then(Value::as_f64).is_none() {
            return Err(format!("alert event missing numeric \"{member}\""));
        }
    }
    let at_ok = value
        .get("at_ns")
        .and_then(Value::as_f64)
        .is_some_and(|v| v >= 0.0);
    if !at_ok {
        return Err("alert event missing non-negative \"at_ns\"".to_owned());
    }
    Ok(())
}

/// The flight-recorder dump header: a known format version, the dump
/// reason, the dumping process, and the number of ring events that
/// follow.
fn check_flight_event(value: &Value) -> Result<(), String> {
    let version = value.get("version").and_then(Value::as_f64);
    if version != Some(1.0) {
        return Err("flight event missing \"version\" 1".to_owned());
    }
    let reason = value.get("reason").and_then(Value::as_str);
    if !matches!(reason, Some("panic" | "error")) {
        return Err("flight event missing reason panic|error".to_owned());
    }
    if value.get("process").and_then(Value::as_str).is_none() {
        return Err("flight event missing string \"process\"".to_owned());
    }
    for member in ["at_ns", "events"] {
        let ok = value
            .get(member)
            .and_then(Value::as_f64)
            .is_some_and(|v| v >= 0.0);
        if !ok {
            return Err(format!("flight event missing non-negative \"{member}\""));
        }
    }
    Ok(())
}

/// One counter movement captured by the flight recorder between two
/// sampler ticks: the counter name, the increment, and the running
/// total after it.
fn check_delta_event(value: &Value) -> Result<(), String> {
    if value.get("name").and_then(Value::as_str).is_none() {
        return Err("delta event missing string \"name\"".to_owned());
    }
    for member in ["delta", "total", "at_ns"] {
        let ok = value
            .get(member)
            .and_then(Value::as_f64)
            .is_some_and(|v| v >= 0.0);
        if !ok {
            return Err(format!("delta event missing non-negative \"{member}\""));
        }
    }
    Ok(())
}

/// A sampler-tick marker in the flight ring: when it happened and how
/// many counters/histograms the snapshot held.
fn check_tick_event(value: &Value) -> Result<(), String> {
    for member in ["at_ns", "counters", "histograms"] {
        let ok = value
            .get(member)
            .and_then(Value::as_f64)
            .is_some_and(|v| v >= 0.0);
        if !ok {
            return Err(format!("tick event missing non-negative \"{member}\""));
        }
    }
    Ok(())
}

/// A `ts` time-series record: a name plus `[offset_ns, value]` sample
/// pairs whose offsets ascend (the sampler's monotonic guarantee).
fn check_ts_event(value: &Value) -> Result<(), String> {
    if value.get("name").and_then(Value::as_str).is_none() {
        return Err("ts event missing string \"name\"".to_owned());
    }
    let samples = value
        .get("samples")
        .and_then(Value::as_array)
        .ok_or("ts event missing \"samples\" array")?;
    let mut prev: Option<f64> = None;
    for (i, pair) in samples.iter().enumerate() {
        let Some(pair) = pair.as_array() else {
            return Err(format!("ts sample {i} is not an array"));
        };
        let offset = pair.first().and_then(Value::as_f64);
        let val = pair.get(1).and_then(Value::as_f64);
        let (Some(offset), Some(_)) = (offset, val) else {
            return Err(format!("ts sample {i} is not [offset_ns, value]"));
        };
        if prev.is_some_and(|p| offset < p) {
            return Err(format!("ts sample {i} offset went backwards"));
        }
        prev = Some(offset);
    }
    Ok(())
}

/// A `context` trace-correlation record: a 16-hex-digit trace id, a
/// process name, and an optional parent span path.
fn check_context_event(value: &Value) -> Result<(), String> {
    let trace_id = value
        .get("trace_id")
        .and_then(Value::as_str)
        .ok_or("context event missing string \"trace_id\"")?;
    if !scan_obs::context::is_valid_trace_id(trace_id) {
        return Err(format!(
            "context trace_id `{trace_id}` is not 16 hex digits"
        ));
    }
    if value.get("process").and_then(Value::as_str).is_none() {
        return Err("context event missing string \"process\"".to_owned());
    }
    match value.get("parent_span") {
        None | Some(Value::Null) => Ok(()),
        Some(v) if v.as_str().is_some_and(|s| !s.is_empty()) => Ok(()),
        Some(_) => Err("context parent_span must be null or a non-empty string".to_owned()),
    }
}

/// One static-analysis finding from a `scan-lint --out` stream: a rule
/// identifier, a severity, and the source span it anchors to (see
/// `docs/LINTS.md`).
fn check_finding_event(value: &Value) -> Result<(), String> {
    for member in ["rule", "name", "file", "message"] {
        if value.get(member).and_then(Value::as_str).is_none() {
            return Err(format!("finding event missing string \"{member}\""));
        }
    }
    let severity = value.get("severity").and_then(Value::as_str);
    if !matches!(severity, Some("deny" | "warn")) {
        return Err("finding event missing severity deny|warn".to_owned());
    }
    for member in ["line", "col"] {
        let ok = value
            .get(member)
            .and_then(Value::as_f64)
            .is_some_and(|v| v >= 1.0);
        if !ok {
            return Err(format!("finding event missing positive \"{member}\""));
        }
    }
    // Semantic findings (L009, L012-L014) may carry a witness chain:
    // the call path from the root to the offending site. Optional, but
    // when present every hop must be fully addressed.
    if let Some(chain) = value.get("chain") {
        let hops = chain
            .as_array()
            .ok_or("finding \"chain\" must be an array")?;
        for hop in hops {
            for member in ["fn", "file"] {
                if hop.get(member).and_then(Value::as_str).is_none() {
                    return Err(format!("chain hop missing string \"{member}\""));
                }
            }
            let line_ok = hop
                .get("line")
                .and_then(Value::as_f64)
                .is_some_and(|v| v >= 1.0);
            if !line_ok {
                return Err("chain hop missing positive \"line\"".to_owned());
            }
        }
    }
    Ok(())
}

/// One function node from a `scan-lint --graph` export: a stable
/// numeric id, the fully-qualified name, its definition site, and the
/// per-node fact counts the semantic rules traverse.
fn check_graph_fn(value: &Value) -> Result<(), String> {
    for member in ["fn", "file"] {
        if value.get(member).and_then(Value::as_str).is_none() {
            return Err(format!("graph_fn record missing string \"{member}\""));
        }
    }
    if !matches!(value.get("test"), Some(Value::Bool(_))) {
        return Err("graph_fn record missing bool \"test\"".to_owned());
    }
    for member in ["id", "line", "calls", "panics", "locks", "io", "taints"] {
        let ok = value
            .get(member)
            .and_then(Value::as_f64)
            .is_some_and(|v| v >= 0.0);
        if !ok {
            return Err(format!("graph_fn record missing non-negative \"{member}\""));
        }
    }
    Ok(())
}

/// One resolved call edge from a `scan-lint --graph` export. The
/// `from`/`to` ids refer back to earlier `graph_fn` records; the
/// qualified names ride along so the stream reads standalone.
fn check_graph_edge(value: &Value) -> Result<(), String> {
    for member in ["from_fn", "to_fn", "file"] {
        if value.get(member).and_then(Value::as_str).is_none() {
            return Err(format!("graph_edge record missing string \"{member}\""));
        }
    }
    for member in ["from", "to", "line"] {
        let ok = value
            .get(member)
            .and_then(Value::as_f64)
            .is_some_and(|v| v >= 0.0);
        if !ok {
            return Err(format!(
                "graph_edge record missing non-negative \"{member}\""
            ));
        }
    }
    Ok(())
}

/// The trailing `scan-lint --graph` summary: totals that must agree
/// with the `graph_fn`/`graph_edge` records streamed above it.
fn check_graph_summary(value: &Value, fns: usize, edges: usize) -> Result<(), String> {
    for member in [
        "files",
        "functions",
        "edges",
        "unresolved",
        "panic_sites",
        "lock_sites",
        "taint_sites",
    ] {
        let ok = value
            .get(member)
            .and_then(Value::as_f64)
            .is_some_and(|v| v >= 0.0);
        if !ok {
            return Err(format!("graph summary missing non-negative \"{member}\""));
        }
    }
    let functions = value.get("functions").and_then(Value::as_f64);
    if functions != Some(fns as f64) {
        return Err(format!(
            "graph summary claims {functions:?} functions, stream carried {fns}"
        ));
    }
    let edge_total = value.get("edges").and_then(Value::as_f64);
    if edge_total != Some(edges as f64) {
        return Err(format!(
            "graph summary claims {edge_total:?} edges, stream carried {edges}"
        ));
    }
    Ok(())
}

/// The trailing `scan-lint` run summary — emitted exactly once per
/// stream, even when the workspace is clean, so a lint export is never
/// an empty NDJSON file.
fn check_lint_summary(value: &Value) -> Result<(), String> {
    for member in [
        "files",
        "manifests",
        "findings",
        "suppressed",
        "unsafe_sites",
    ] {
        let ok = value
            .get(member)
            .and_then(Value::as_f64)
            .is_some_and(|v| v >= 0.0);
        if !ok {
            return Err(format!("lint summary missing non-negative \"{member}\""));
        }
    }
    Ok(())
}

/// A fault-tolerant recovery event from a robust audit stream: a
/// `retry` round, a per-session `vote` tally, or a weighted-voting
/// `fallback` (see `docs/ROBUSTNESS.md`).
fn check_recovery_event(kind: &str, value: &Value) -> Result<(), String> {
    let numeric: &[&str] = match kind {
        "retry" => &["fault", "round", "sessions"],
        "vote" => &["fault", "partition", "group", "fail", "pass", "lost"],
        _ => &["fault", "partition", "support", "candidates"],
    };
    for member in numeric {
        if value.get(member).and_then(Value::as_f64).is_none() {
            return Err(format!("{kind} event missing numeric \"{member}\""));
        }
    }
    if kind == "vote" {
        let verdict = value.get("verdict").and_then(Value::as_str);
        if !matches!(verdict, Some("pass" | "fail" | "lost")) {
            return Err("vote event missing verdict pass|fail|lost".to_owned());
        }
    }
    Ok(())
}

/// A diagnosis audit event: per-fault candidate-set convergence with
/// one step per partition (see `docs/OBSERVABILITY.md`).
fn check_fault_event(value: &Value) -> Result<(), String> {
    for member in ["index", "actual", "final"] {
        if value.get(member).and_then(Value::as_f64).is_none() {
            return Err(format!("fault event missing numeric \"{member}\""));
        }
    }
    let steps = value
        .get("steps")
        .and_then(Value::as_array)
        .ok_or("fault event missing \"steps\" array")?;
    for (i, step) in steps.iter().enumerate() {
        let kind_ok = step.get("kind").and_then(Value::as_str).is_some();
        let cand_ok = step.get("candidates").and_then(Value::as_f64).is_some();
        let groups_ok = step
            .get("failing_groups")
            .and_then(Value::as_array)
            .is_some_and(|g| g.iter().all(|v| v.as_f64().is_some()));
        if !(kind_ok && cand_ok && groups_ok) {
            return Err(format!("malformed audit step {i}"));
        }
    }
    Ok(())
}

fn check_bench(path: &str, value: &Value) -> Result<(), String> {
    if value.get("version").and_then(Value::as_f64).is_none() {
        return Err(format!(
            "{path}: bench baseline missing numeric \"version\""
        ));
    }
    let suite = value
        .get("suite")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: bench baseline missing \"suite\""))?;
    let kernels = value
        .get("kernels")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{path}: bench baseline missing \"kernels\" object"))?;
    if kernels.is_empty() {
        return Err(format!("{path}: bench baseline has no kernels"));
    }
    for (name, kernel) in kernels {
        for member in ["median_ns", "p95_ns", "iqr_ns"] {
            let ok = kernel
                .get(member)
                .and_then(Value::as_f64)
                .is_some_and(|v| v >= 0.0);
            if !ok {
                return Err(format!(
                    "{path}: kernel `{name}` missing non-negative \"{member}\""
                ));
            }
        }
    }
    eprintln!(
        "obs-check: {path}: bench baseline OK (suite `{suite}`, {} kernel(s))",
        kernels.len()
    );
    Ok(())
}

/// A `scanbistd-loadgen` goodput document (`BENCH_daemon.json`):
/// per-scenario overload evidence instead of per-kernel timings.
fn check_daemon_bench(path: &str, value: &Value) -> Result<(), String> {
    if value.get("version").and_then(Value::as_f64).is_none() {
        return Err(format!("{path}: daemon bench missing numeric \"version\""));
    }
    let suite = value
        .get("suite")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: daemon bench missing \"suite\""))?;
    let scenarios = value
        .get("scenarios")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: daemon bench missing \"scenarios\" array"))?;
    if scenarios.is_empty() {
        return Err(format!("{path}: daemon bench has no scenarios"));
    }
    let mut real_failures = 0.0;
    for (i, scenario) in scenarios.iter().enumerate() {
        let label = scenario
            .get("label")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: scenario {i} missing \"label\""))?;
        for member in [
            "offered_rps",
            "sent",
            "ok",
            "shed_429",
            "deadline_504",
            "real_failures",
            "max_queue_depth",
            "goodput_rps",
        ] {
            let ok = scenario
                .get(member)
                .and_then(Value::as_f64)
                .is_some_and(|v| v >= 0.0);
            if !ok {
                return Err(format!(
                    "{path}: scenario `{label}` missing non-negative \"{member}\""
                ));
            }
        }
        let latency = scenario
            .get("latency_us")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}: scenario `{label}` missing \"latency_us\""))?;
        for member in ["p50", "p95", "p99"] {
            if latency.get(member).and_then(Value::as_f64).is_none() {
                return Err(format!(
                    "{path}: scenario `{label}` latency missing \"{member}\""
                ));
            }
        }
        real_failures += scenario
            .get("real_failures")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
    }
    if real_failures > 0.0 {
        return Err(format!(
            "{path}: daemon bench records {real_failures} non-injected failure(s)"
        ));
    }
    eprintln!(
        "obs-check: {path}: daemon goodput document OK (suite `{suite}`, {} scenario(s), 0 real failures)",
        scenarios.len()
    );
    Ok(())
}

fn check_folded(path: &str, text: &str) -> Result<(), String> {
    let lines = scan_obs::profile::check_folded(text).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("obs-check: {path}: folded profile OK ({lines} stack(s))");
    Ok(())
}

fn check_metrics(path: &str, value: &Value) -> Result<(), String> {
    for member in ["counters", "histograms", "spans"] {
        if value.get(member).and_then(Value::as_object).is_none() {
            return Err(format!("{path}: missing object member \"{member}\""));
        }
    }
    let counters = value
        .get("counters")
        .and_then(Value::as_object)
        .map_or(0, std::collections::BTreeMap::len);
    eprintln!("obs-check: {path}: metrics snapshot OK ({counters} counter(s))");
    Ok(())
}

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if path.ends_with(".ndjson") {
        return check_ndjson(path, &text);
    }
    if path.ends_with(".folded") {
        return check_folded(path, &text);
    }
    // Dispatch the rest on content: JSON documents are either a bench
    // baseline (`suite`/`kernels`) or a metrics snapshot; anything that
    // is not JSON is expected to be a collapsed-stack profile.
    if text.trim_start().starts_with('{') {
        let value = parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if value.get("kernels").is_some() {
            return check_bench(path, &value);
        }
        if value.get("scenarios").is_some() {
            return check_daemon_bench(path, &value);
        }
        return check_metrics(path, &value);
    }
    check_folded(path, &text)
}

/// One parsed per-process stream in a `--join` set.
struct JoinStream {
    path: String,
    trace_id: Option<String>,
    parent_span: Option<String>,
    process: String,
    span_paths: std::collections::BTreeSet<String>,
}

fn load_join_stream(path: &str) -> Result<JoinStream, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    // Full per-stream validation first, so join errors are about the
    // join, not about malformed lines.
    check_ndjson(path, &text)?;
    let mut stream = JoinStream {
        path: path.to_owned(),
        trace_id: None,
        parent_span: None,
        process: path.to_owned(),
        span_paths: std::collections::BTreeSet::new(),
    };
    for line in text.lines().filter(|l| !l.is_empty()) {
        let value = parse(line).map_err(|e| format!("{path}: {e}"))?;
        match value.get("type").and_then(Value::as_str) {
            Some("context") => {
                stream.trace_id = value
                    .get("trace_id")
                    .and_then(Value::as_str)
                    .map(str::to_owned);
                stream.parent_span = value
                    .get("parent_span")
                    .and_then(Value::as_str)
                    .map(str::to_owned);
                if let Some(process) = value.get("process").and_then(Value::as_str) {
                    stream.process = process.to_owned();
                }
            }
            Some("span") => {
                if let Some(span_path) = value.get("path").and_then(Value::as_str) {
                    stream.span_paths.insert(span_path.to_owned());
                }
            }
            _ => {}
        }
    }
    Ok(stream)
}

/// Verifies a merged multi-process trace: one shared trace id, exactly
/// one root stream, and every child's `parent_span` resolving to a
/// span in another stream reachable from the root.
fn check_join(paths: &[String]) -> Result<(), String> {
    if paths.len() < 2 {
        return Err("--join needs at least 2 trace streams".to_owned());
    }
    let streams = paths
        .iter()
        .map(|p| load_join_stream(p))
        .collect::<Result<Vec<_>, _>>()?;
    let trace_id = streams[0]
        .trace_id
        .clone()
        .ok_or_else(|| format!("{}: no context record (no trace id)", streams[0].path))?;
    for s in &streams {
        match &s.trace_id {
            None => return Err(format!("{}: no context record (no trace id)", s.path)),
            Some(id) if *id == trace_id => {}
            Some(id) => {
                return Err(format!(
                    "{}: trace id `{id}` does not match `{trace_id}`",
                    s.path
                ))
            }
        }
    }
    let roots: Vec<usize> = (0..streams.len())
        .filter(|&i| streams[i].parent_span.is_none())
        .collect();
    let [root] = roots.as_slice() else {
        return Err(format!(
            "want exactly 1 root stream (no parent_span), found {}",
            roots.len()
        ));
    };
    // Attach each child to the stream that recorded its parent span.
    let mut parent_of: Vec<Option<usize>> = vec![None; streams.len()];
    for (i, s) in streams.iter().enumerate() {
        let Some(parent_span) = &s.parent_span else {
            continue;
        };
        let owner =
            (0..streams.len()).find(|&j| j != i && streams[j].span_paths.contains(parent_span));
        match owner {
            Some(j) => parent_of[i] = Some(j),
            None => {
                return Err(format!(
                    "{}: orphan: parent span `{parent_span}` not recorded by any other stream",
                    s.path
                ))
            }
        }
    }
    // Every stream must reach the root through its parents (no cycles).
    for (i, s) in streams.iter().enumerate() {
        let mut cursor = i;
        let mut hops = 0;
        while cursor != *root {
            cursor = parent_of[cursor]
                .ok_or_else(|| format!("{}: does not reach the root stream", s.path))?;
            hops += 1;
            if hops > streams.len() {
                return Err(format!("{}: parent chain contains a cycle", s.path));
            }
        }
    }
    eprintln!(
        "obs-check: joined trace `{trace_id}` OK: {} process(es)",
        streams.len()
    );
    for (i, s) in streams.iter().enumerate() {
        let indent = if i == *root { "" } else { "  " };
        match &s.parent_span {
            None => eprintln!("obs-check:   {indent}{} (root)", s.process),
            Some(p) => eprintln!("obs-check:   {indent}{} under `{p}`", s.process),
        }
    }
    Ok(())
}

/// A std-only HTTP/1.1 request against the live metrics endpoint;
/// returns the status and the body.
fn http_request(addr: &str, method: &str, target: &str) -> Result<(u16, String), String> {
    use std::io::{Read as _, Write as _};
    let mut conn = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    conn.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write!(
        conn,
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("write to `{addr}` failed: {e}"))?;
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .map_err(|e| format!("read from `{addr}` failed: {e}"))?;
    let status = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("`{addr}{target}`: malformed status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// Scrapes a live `--serve-metrics` endpoint, validates its four GET
/// routes, and checks that `HEAD /metrics` answers with no body.
fn check_scrape(addr: &str) -> Result<(), String> {
    let (status, health) = http_request(addr, "GET", "/healthz")?;
    if status != 200 || !health.contains("\"status\":\"ok\"") {
        return Err(format!("/healthz: status {status}, body `{health}`"));
    }
    let (status, text) = http_request(addr, "GET", "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics: status {status}"));
    }
    let samples = scan_obs::serve::validate_exposition(&text)
        .map_err(|e| format!("/metrics exposition invalid: {e}"))?;
    let (status, json) = http_request(addr, "GET", "/metrics.json")?;
    if status != 200 {
        return Err(format!("/metrics.json: status {status}"));
    }
    let value = parse(&json).map_err(|e| format!("/metrics.json: {e}"))?;
    check_metrics(&format!("{addr}/metrics.json"), &value)?;
    let (status, json) = http_request(addr, "GET", "/alerts.json")?;
    if status != 200 {
        return Err(format!("/alerts.json: status {status}"));
    }
    let value = parse(&json).map_err(|e| format!("/alerts.json: {e}"))?;
    if value.get("version").and_then(Value::as_f64) != Some(1.0) {
        return Err("/alerts.json: missing \"version\" 1".to_owned());
    }
    if value.get("alerts").and_then(Value::as_array).is_none() {
        return Err("/alerts.json: missing \"alerts\" array".to_owned());
    }
    let (status, body) = http_request(addr, "HEAD", "/metrics")?;
    if status != 200 || !body.is_empty() {
        return Err(format!(
            "HEAD /metrics: status {status}, {} body byte(s) (want 200, none)",
            body.len()
        ));
    }
    eprintln!("obs-check: scrape {addr} OK ({samples} exposition sample(s))");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: obs-check <trace.ndjson|metrics.json>… \
             | obs-check --join <trace.ndjson>… | obs-check --scrape <host:port>"
        );
        return ExitCode::from(2);
    }
    let result = match args[0].as_str() {
        "--join" => check_join(&args[1..]),
        "--scrape" => match args.get(1) {
            Some(addr) if args.len() == 2 => check_scrape(addr),
            _ => Err("--scrape takes exactly one <host:port>".to_owned()),
        },
        _ => args.iter().try_for_each(|path| check(path)),
    };
    if let Err(message) = result {
        eprintln!("obs-check: FAILED: {message}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
