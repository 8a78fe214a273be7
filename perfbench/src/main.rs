//! The repository benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-large|campaign-mix|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! It prints every metric as `metric <name> <value> <unit>`, a `meta`
//! JSON line (nproc, commit, seed, rustc), and as its last line one
//! JSON object `{"correct","attempted","failed","metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced pass with `--trace 1`. It exits 1 when any output
//! differs from its oracle and 2 on a usage error. `--saturate` sends
//! the `serve-mixed` schedule closed-loop instead, to measure the
//! daemon's saturation throughput on it. See `README.md`.

mod batch;
mod chain;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;

use stats::{highest_supported_percentile, median, now, percentile, steal_ms, Fnv};
use trace::Tracer;

/// Outputs of the commit that introduced the benchmark.
const REFERENCE: &str = include_str!("../reference.txt");

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    saturate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: false,
        saturate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record" => args.record = true,
            "--saturate" => args.saturate = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["paper-large", "campaign-mix", "serve-mixed"].contains(&args.workload.as_str()) {
        return Err("--workload must be paper-large, campaign-mix or serve-mixed".to_owned());
    }
    if args.saturate && args.workload != "serve-mixed" {
        return Err("--saturate applies to serve-mixed only".to_owned());
    }
    Ok(args)
}

/// A metric value with its unit.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The checked outcome of a run.
struct Verdict {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

fn emit(line: &str) {
    let mut out = std::io::stdout().lock();
    // lint:allow(L006): the benchmark's metric lines and result object are its stdout payload
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "1e300".to_owned()
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The program's identity: the git commit when run from a clone, and a
/// digest of the workspace sources either way.
fn commit_and_source() -> (String, String) {
    let commit = if std::path::Path::new(".git").exists() {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_owned(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
            )
    } else {
        "none (not a git checkout)".to_owned()
    };
    let mut files = Vec::new();
    let mut stack = vec![std::path::PathBuf::from("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut h = Fnv::default();
    for file in ["Cargo.toml".into(), "Cargo.lock".into()]
        .iter()
        .chain(&files)
    {
        let path: &std::path::Path = file;
        h.bytes(path.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(path).unwrap_or_default());
    }
    (commit, h.hex())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Checks a batch workload's facts against the recorded reference.
fn check_facts(workload: &str, measured: &batch::Measured) -> Verdict {
    let prefix = format!("{workload}/");
    let reference: BTreeMap<&str, &str> = REFERENCE
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter(|(k, _)| k.starts_with(&prefix))
        .collect();
    let mut verdict = Verdict {
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    let mut check = |ok: bool, note: String| {
        verdict.attempted += 1;
        if !ok {
            verdict.failed += 1;
            if verdict.notes.len() < 20 {
                verdict.notes.push(note);
            }
        }
    };
    if reference.is_empty() {
        check(false, format!("no reference recorded for {workload}"));
    }
    for (key, expected) in &reference {
        let got = measured.facts.get(*key);
        check(
            got.map(String::as_str) == Some(*expected),
            format!("{key}: got {got:?}, reference {expected}"),
        );
    }
    for key in measured.facts.keys() {
        check(
            reference.contains_key(key.as_str()),
            format!("{key}: not in the reference"),
        );
    }
    for later in &measured.later {
        for (key, value) in later {
            check(
                measured.facts.get(key) == Some(value),
                format!("{key}: a later pass gave {value}"),
            );
        }
    }
    for v in &measured.violations {
        check(false, v.clone());
    }
    if measured.violations.is_empty() {
        check(true, String::new());
    }
    verdict
}

/// Per-layer metrics from the traced spans, plus overhead and residual
/// of the traced pass against the untraced median pass.
fn layer_metrics(tracer: &Tracer, untraced_pass_s: f64) -> Metrics {
    let spans = tracer.spans();
    let self_s = trace::self_times(&spans);
    let layer = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| tracer.count(name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = Metrics::new();
    m.insert("netlist.generate_s", (layer("netlist.generate"), "s"));
    m.insert("netlist.gates", (count("netlist.gates"), "count"));
    m.insert(
        "netlist.gates_per_s",
        (
            ratio(count("netlist.gates"), layer("netlist.generate")),
            "1/s",
        ),
    );
    m.insert("sim.init_s", (layer("sim.init"), "s"));
    m.insert("sim.fault_sim_s", (layer("sim.fault_sim"), "s"));
    m.insert("sim.faults", (count("sim.faults"), "count"));
    m.insert(
        "sim.us_per_fault",
        (
            ratio(layer("sim.fault_sim") * 1e6, count("sim.faults")),
            "us",
        ),
    );
    m.insert("core.plan_s", (layer("core.plan"), "s"));
    m.insert("core.analyze_s", (layer("core.analyze"), "s"));
    m.insert("core.error_bits", (count("core.error_bits"), "count"));
    m.insert(
        "core.ns_per_error_bit",
        (
            ratio(layer("core.analyze") * 1e9, count("core.error_bits")),
            "ns",
        ),
    );
    m.insert("core.diagnose_s", (layer("core.diagnose"), "s"));
    m.insert("core.candidates", (count("core.candidates"), "count"));
    m.insert("core.prune_s", (layer("core.prune"), "s"));
    m.insert("core.rank_s", (layer("core.rank"), "s"));
    m.insert("core.robust_s", (layer("core.robust"), "s"));
    m.insert(
        "core.robust_conclusive_frac",
        (
            ratio(
                count("core.robust_conclusive"),
                count("core.robust_attempts"),
            ),
            "frac",
        ),
    );
    m.insert("soc.localize_s", (layer("soc.localize"), "s"));
    // The traced pass (root span `pass`) against the same code run with
    // the recorder off.
    let pass_s: f64 = spans
        .iter()
        .filter(|s| s.name == "pass" && s.parent == 0)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum();
    if pass_s > 0.0 {
        let in_pass = trace::self_times(&pass_subtree(&spans));
        let attributed: f64 = in_pass
            .iter()
            .filter(|(name, _)| name.contains('.'))
            .map(|(_, s)| s)
            .sum();
        m.insert(
            "trace.overhead_frac",
            (ratio(pass_s - untraced_pass_s, untraced_pass_s), "frac"),
        );
        m.insert(
            "trace.unexplained_frac",
            (ratio(pass_s - attributed, pass_s), "frac"),
        );
    }
    m
}

/// The spans under the root `pass` spans.
fn pass_subtree(spans: &[trace::Span]) -> Vec<trace::Span> {
    let mut keep = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for s in spans {
        if (s.name == "pass" && s.parent == 0) || keep.contains(&s.parent) {
            keep.insert(s.id);
            out.push(s.clone());
        }
    }
    out
}

fn daemon_layer_zeros(m: &mut Metrics) {
    for (name, unit) in DAEMON_LAYERS {
        m.insert(name, (0.0, unit));
    }
}

const DAEMON_LAYERS: [(&str, &str); 17] = [
    ("daemon.latency_p50_ms", "ms"),
    ("daemon.latency_p90_ms", "ms"),
    ("daemon.latency_p99_ms", "ms"),
    ("daemon.job_us_p50", "us"),
    ("daemon.transport_ms_p50", "ms"),
    ("daemon.send_wait_ms_p99", "ms"),
    ("daemon.queue_depth_max", "count"),
    ("daemon.worker_busy_frac", "frac"),
    ("daemon.status_429", "count"),
    ("daemon.status_503", "count"),
    ("daemon.status_504", "count"),
    ("daemon.lines_error", "count"),
    ("daemon.lines_degraded", "count"),
    ("daemon.parse_line_us", "us"),
    ("daemon.render_us", "us"),
    ("daemon.plan_warm_s", "s"),
    ("daemon.warmup_504", "count"),
];

fn write_spans(tracer: &Tracer, args: &Args) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_owned()),
    )
    .join("perfbench-trace");
    let path = dir.join(format!("{}-seed{}.ndjson", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_ndjson(&mut out)?;
        out.flush()
    });
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

fn run_batch(args: &Args, tracer: &Tracer) -> (Metrics, Verdict) {
    let threads = threads();
    let mut local = tracer.local();
    // The kept set-up runs first (traced in a traced run); the extra
    // set-ups that make `setup_s` a median run after the measured
    // phase, so the peak RSS covers one set-up and the measured work.
    let setup = |l: &mut trace::Local<'_>| {
        if args.workload == "paper-large" {
            batch::paper_setup(threads);
            None
        } else {
            Some(batch::mix_setup(l))
        }
    };
    let start = now();
    let state = setup(&mut local);
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    // A traced run checks one untraced pass, then times the traced
    // decomposition with the recorder off and on.
    let seconds = if args.trace { 0.0 } else { args.seconds };
    let steal_before = steal_ms();
    let measured = match &state {
        None => batch::paper_measure(args.seed, seconds, threads),
        Some(s) => batch::mix_measure(s, args.seed, seconds, threads),
    };
    let steal = steal_ms() - steal_before;
    let mut verdict = check_facts(&args.workload, &measured);
    if let Some(table) = &measured.table {
        let pinned = std::fs::read_to_string("results/table2.txt");
        let note = match pinned {
            Ok(p) if p == *table => "matches",
            Ok(_) => "differs from",
            Err(_) => "cannot be compared with (missing)",
        };
        eprintln!("perfbench: the regenerated Table 2 {note} results/table2.txt\n{table}");
        emit(&format!(
            "info table2_vs_results {}",
            note.split(' ').next().unwrap_or(note)
        ));
    }
    let wall = batch::wall_s(&measured);
    let mut m = Metrics::new();
    if args.trace {
        // The decomposition runs on this thread, traced and untraced.
        let decompose = |l: &mut trace::Local<'_>| match &state {
            None => batch::paper_traced(l, args.seed),
            Some(s) => batch::mix_traced(l, s, args.seed),
        };
        let start = now();
        let untraced = decompose(&mut Tracer::new(false).local());
        let untraced_s = start.elapsed().as_secs_f64();
        let traced = decompose(&mut local);
        drop(local);
        if traced != untraced {
            verdict.attempted += 1;
            verdict.failed += 1;
            verdict
                .notes
                .push("the traced and untraced decompositions differ".to_owned());
        }
        for note in batch::traced_mismatches(&traced, &measured.facts) {
            verdict.attempted += 1;
            verdict.failed += 1;
            verdict.notes.push(note);
        }
        verdict.attempted += traced.len();
        m = layer_metrics(tracer, untraced_s);
        daemon_layer_zeros(&mut m);
    } else {
        m.insert("wall_s", (wall, "s"));
        #[allow(clippy::cast_precision_loss)]
        let ok = 1.0 - verdict.failed as f64 / verdict.attempted.max(1) as f64;
        m.insert("ok_frac", (ok, "frac"));
        m.insert("peak_rss_mib", (peak_rss_mib(), "MiB"));
        for _ in 1..SETUP_REPS {
            let start = now();
            std::hint::black_box(setup(&mut Tracer::new(false).local()));
            setup_s.push(start.elapsed().as_secs_f64());
        }
        m.insert("setup_s", (median(&setup_s).unwrap_or(0.0), "s"));
    }
    eprintln!(
        "perfbench: {} passes; pass seconds min {:.4} median {:.4} max {:.4}; host steal {steal:.0} ms during the measured phase",
        measured.passes_s.len(),
        percentile(&measured.passes_s, 0.0).unwrap_or(0.0),
        median(&measured.passes_s).unwrap_or(0.0),
        percentile(&measured.passes_s, 100.0).unwrap_or(0.0),
    );
    (m, verdict)
}

fn run_serve(args: &Args, tracer: &Tracer) -> Result<(Metrics, Verdict), String> {
    let threads = threads();
    // As in the batch workloads, the kept set-up comes first and the
    // extra ones run after the measured phase.
    let start = now();
    let mut state = if args.trace {
        let mut local = tracer.local();
        local.enter("pass");
        let built = serve::setup(&mut local, args.seed, args.seconds, threads);
        local.exit();
        built
    } else {
        serve::setup(
            &mut Tracer::new(false).local(),
            args.seed,
            args.seconds,
            threads,
        )
    }?;
    let first_setup_s = start.elapsed().as_secs_f64();
    let steal_before = steal_ms();
    let served = serve::measure(&state, threads, args.saturate);
    let steal = steal_ms() - steal_before;
    state.shutdown();
    let rss = peak_rss_mib();
    let mut extra_setup_s = Vec::new();
    for _ in 1..SETUP_REPS {
        let start = now();
        let mut again = serve::setup(
            &mut Tracer::new(false).local(),
            args.seed,
            args.seconds,
            threads,
        )?;
        extra_setup_s.push(start.elapsed().as_secs_f64());
        again.shutdown();
    }

    let lines: usize = state.batches.iter().map(|b| b.lines.len()).sum();
    let ok: usize = served.checked.iter().map(|c| c.ok).sum();
    let mut verdict = Verdict {
        attempted: lines,
        failed: lines - ok,
        notes: Vec::new(),
    };
    for (i, (reply, checked)) in served.replies.iter().zip(&served.checked).enumerate() {
        let note = match reply {
            Err(e) => Some(format!("batch {i}: {e}")),
            Ok(r) if r.status != 200 => Some(format!("batch {i}: HTTP {}", r.status)),
            Ok(_) => checked.first_mismatch.clone(),
        };
        if let Some(note) = note {
            if verdict.notes.len() < 20 {
                verdict.notes.push(note);
            }
        }
    }
    let latencies = serve::latencies_ms(&state, &served);
    let lateness_ms: Vec<f64> = state
        .batches
        .iter()
        .zip(&served.timings)
        .map(|(b, t)| (t.sent_s - b.due_s) * 1e3)
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let batches_per_s = state.batches.len() as f64 / served.phase_s.max(1e-9);
    let busy = serve::worker_busy_frac(&state, &served);
    let daemon_cpu_s = serve::daemon_cpu_lq_s(&state, &served);
    let depth = served
        .replies
        .iter()
        .filter_map(|r| r.as_ref().ok()?.queue_depth)
        .max()
        .unwrap_or(0);
    eprintln!(
        "perfbench: {} batches {} over {} connections, {lines} lines in {:.3} s ({batches_per_s:.1} batches/s); daemon CPU {:.2} s (lower-quartile window rate: {:.2} s), client CPU {:.2} s; worker busy {:.1}%, max queue depth {depth}",
        state.batches.len(),
        if args.saturate {
            "closed-loop (--saturate)".to_owned()
        } else {
            format!("at {} /s", serve::RATE_PER_S)
        },
        threads,
        served.phase_s,
        served.daemon_cpu_s(),
        daemon_cpu_s,
        served.client_cpu_s(),
        busy * 100.0,
    );
    eprintln!(
        "perfbench: generator lateness p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms; warm-up {:.3} s with {} x 504; host steal {steal:.0} ms during the measured phase",
        percentile(&lateness_ms, 50.0).unwrap_or(0.0),
        percentile(&lateness_ms, 99.0).unwrap_or(0.0),
        percentile(&lateness_ms, 100.0).unwrap_or(0.0),
        state.warm_s,
        state.warm_504,
    );
    let windows = serve::windows(&state, &latencies);
    let per_window = |q| {
        windows
            .iter()
            .map(|w| format!("{:.3}", percentile(w, q).unwrap_or(0.0)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "perfbench: daemon CPU per line per {} s window (us): {}",
        serve::WINDOW_S,
        serve::daemon_cpu_per_line_s(&state, &served)
            .iter()
            .map(|s| format!("{:.1}", s * 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!(
        "perfbench: p50 per {} s window (ms): {}",
        serve::WINDOW_S,
        per_window(50.0)
    );
    eprintln!(
        "perfbench: p90 per {} s window (ms): {}",
        serve::WINDOW_S,
        per_window(90.0)
    );
    eprintln!(
        "perfbench: {} latency samples (highest percentile with 10 beyond it: {}); plain p50 {:.3} ms, p90 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
        latencies.len(),
        highest_supported_percentile(latencies.len()).map_or_else(|| "none".to_owned(), |q| format!("p{q}")),
        percentile(&latencies, 50.0).unwrap_or(0.0),
        percentile(&latencies, 90.0).unwrap_or(0.0),
        percentile(&latencies, 95.0).unwrap_or(0.0),
        percentile(&latencies, 99.0).unwrap_or(0.0),
    );
    let mut m = Metrics::new();
    if args.trace {
        let untraced = median(&extra_setup_s).unwrap_or(0.0);
        m = layer_metrics(tracer, 0.0);
        let path = serve::path_layers(&state, &served);
        m.insert(
            "trace.overhead_frac",
            (
                if untraced > 0.0 {
                    first_setup_s / untraced - 1.0
                } else {
                    0.0
                },
                "frac",
            ),
        );
        m.insert("trace.unexplained_frac", (path.unexplained_frac, "frac"));
        #[allow(clippy::cast_precision_loss)]
        {
            let status = |code: u16| path.status.get(&code).copied().unwrap_or(0) as f64;
            for (name, value) in [
                (
                    "daemon.latency_p50_ms",
                    serve::windowed_percentile(&windows, 50.0),
                ),
                (
                    "daemon.latency_p90_ms",
                    serve::windowed_percentile(&windows, 90.0),
                ),
                (
                    "daemon.latency_p99_ms",
                    percentile(&latencies, 99.0).unwrap_or(0.0),
                ),
                ("daemon.job_us_p50", path.job_us_p50),
                ("daemon.transport_ms_p50", path.transport_ms_p50),
                ("daemon.send_wait_ms_p99", path.send_wait_ms_p99),
                ("daemon.queue_depth_max", path.queue_depth_max),
                ("daemon.worker_busy_frac", busy),
                ("daemon.status_429", status(429)),
                ("daemon.status_503", status(503)),
                ("daemon.status_504", status(504)),
                ("daemon.lines_error", path.lines_error as f64),
                ("daemon.lines_degraded", path.lines_degraded as f64),
                ("daemon.parse_line_us", path.parse_line_us),
                ("daemon.render_us", path.render_us),
                ("daemon.plan_warm_s", state.warm_s),
                ("daemon.warmup_504", state.warm_504 as f64),
            ] {
                let unit = DAEMON_LAYERS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or("count", |(_, u)| u);
                m.insert(name, (value, unit));
            }
        }
    } else {
        extra_setup_s.push(first_setup_s);
        // The open-loop schedule fixes the phase's wall time, so the
        // program's figure is the CPU time the daemon spent serving it.
        m.insert("wall_s", (daemon_cpu_s, "s"));
        m.insert("setup_s", (median(&extra_setup_s).unwrap_or(0.0), "s"));
        #[allow(clippy::cast_precision_loss)]
        m.insert("ok_frac", (ok as f64 / lines.max(1) as f64, "frac"));
        m.insert("peak_rss_mib", (rss, "MiB"));
    }
    Ok((m, verdict))
}

fn record(args: &Args) {
    let threads = threads();
    let measured = if args.workload == "paper-large" {
        batch::paper_measure(args.seed, args.seconds, threads)
    } else {
        let off = Tracer::new(false);
        let state = batch::mix_setup(&mut off.local());
        batch::mix_measure(&state, args.seed, args.seconds, threads)
    };
    for v in &measured.violations {
        eprintln!("perfbench: invariant violated: {v}");
    }
    for (key, value) in &measured.facts {
        emit(&format!("{key} {value}"));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload paper-large|campaign-mix|serve-mixed --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    if args.record {
        if args.workload == "serve-mixed" {
            eprintln!("perfbench: serve-mixed computes its oracle in set-up; nothing to record");
            std::process::exit(2);
        }
        record(&args);
        return;
    }
    let (commit, source) = commit_and_source();
    let tracer = Tracer::new(args.trace);
    let result = if args.workload == "serve-mixed" {
        run_serve(&args, &tracer)
    } else {
        Ok(run_batch(&args, &tracer))
    };
    let (metrics, verdict) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        write_spans(&tracer, &args);
    }
    for note in &verdict.notes {
        eprintln!("perfbench: MISMATCH {note}");
    }
    for (name, (value, unit)) in &metrics {
        emit(&format!("metric {name} {} {unit}", json_number(*value)));
    }
    emit(&format!(
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"commit\":\"{commit}\",\"source_fnv\":\"{source}\",\"rustc\":\"{}\",\"serve_rate_per_s\":{},\"setup_reps\":{SETUP_REPS}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads(),
        rustc_version(),
        serve::RATE_PER_S,
    ));
    let correct = verdict.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    emit(&format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        verdict.attempted.max(1),
        verdict.failed,
        body.join(",")
    ));
    if !correct {
        std::process::exit(1);
    }
}
