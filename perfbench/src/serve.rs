//! `serve-mixed`: an in-process daemon under an open-loop Poisson load.
//!
//! Set-up generates the circuits, simulates real detected faults with
//! PPSFP, turns them into session evidence, draws the request schedule
//! from the seed, computes every expected answer with the engine's
//! public calls, starts `Daemon::start` and warms its plan cache
//! through HTTP with the daemon's default deadline. The measured phase
//! then sends NDJSON batches at a fixed absolute rate, each timed from
//! its due time, and checks every response line against the expected
//! answer.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use scan_bist::Scheme;
use scan_daemon::protocol::{DiagnoseRequest, OkLine};
use scan_daemon::{Daemon, DaemonConfig};
use scan_diagnosis::ranking::SuspectRanking;
use scan_diagnosis::{
    diagnose_reported, diagnose_robust_cancellable, lfsr_patterns, BistConfig, CancelToken,
    ChainLayout, DiagnosisPlan, NoiseConfig, NoiseModel, RobustDiagnosis, RobustPolicy,
    SessionOutcome,
};
use scan_netlist::{generate, Netlist, ScanView};
use scan_rng::ScanRng;
use scan_sim::PpsfpSimulator;

use crate::stats::{
    lower_quartile, median, now, percentile, process_cpu_ticks, thread_cpu_ticks, TICKS_PER_S,
};
use crate::trace::Local;

/// A hot circuit configuration: every field that shapes the daemon's
/// cached plan. All of them fit the default plan cache (8 entries).
struct Config {
    circuit: &'static str,
    groups: u16,
    partitions: usize,
    patterns: usize,
    scheme: &'static str,
}

/// `s38417` stays first: its cold plan takes longer than the default
/// deadline to build, and warm-up must show that.
const CONFIGS: [Config; 6] = [
    Config {
        circuit: "s38417",
        groups: 16,
        partitions: 16,
        patterns: 64,
        scheme: "two-step",
    },
    Config {
        circuit: "s13207",
        groups: 16,
        partitions: 12,
        patterns: 64,
        scheme: "random",
    },
    Config {
        circuit: "s9234",
        groups: 8,
        partitions: 16,
        patterns: 128,
        scheme: "two-step",
    },
    Config {
        circuit: "s5378",
        groups: 16,
        partitions: 8,
        patterns: 64,
        scheme: "interval",
    },
    Config {
        circuit: "s1423",
        groups: 8,
        partitions: 8,
        patterns: 64,
        scheme: "two-step",
    },
    Config {
        circuit: "s953",
        groups: 4,
        partitions: 8,
        patterns: 64,
        scheme: "fixed",
    },
];
/// Detected faults simulated per configuration.
const FAULTS_PER_CONFIG: usize = 16;
/// Robust-replay noise seeds a line may ask for (`1..=ROBUST_SEEDS`).
const ROBUST_SEEDS: u64 = 4;
const ROBUST_FLIP: f64 = 0.02;
const ROBUST_DROPOUT: f64 = 0.01;
const ROBUST_RETRIES: usize = 2;
const ROBUST_VOTES: usize = 3;
/// Offered load, batches per second. Fixed, never calibrated, so every
/// commit sees the same load.
pub const RATE_PER_S: f64 = 780.0;
/// Lines per batch are uniform in `1..=MAX_LINES`.
const MAX_LINES: usize = 16;
/// Give up warming one configuration after this long.
const WARM_LIMIT: Duration = Duration::from_secs(60);

fn scheme_of(label: &str) -> Scheme {
    match label {
        "random" => Scheme::RandomSelection,
        "interval" => Scheme::IntervalBased,
        "fixed" => Scheme::FixedInterval,
        _ => Scheme::TWO_STEP_DEFAULT,
    }
}

/// One fault's evidence in both wire encodings.
struct Evidence {
    signatures: Vec<Vec<u64>>,
    failing: Vec<Vec<usize>>,
}

struct ConfigState {
    plan: DiagnosisPlan,
    cells: usize,
    faults: Vec<Evidence>,
}

/// What one request line asks for; the oracle is keyed by it (minus
/// `top`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LineSpec {
    config: usize,
    fault: usize,
    signatures: bool,
    /// `0` for a plain request, else the robust-replay noise seed.
    robust_seed: u64,
    top: usize,
}

impl LineSpec {
    fn key(self) -> (usize, usize, bool, u64) {
        (self.config, self.fault, self.signatures, self.robust_seed)
    }
}

/// An expected answer, before `top` truncation.
#[derive(Clone, Debug)]
pub struct Answer {
    confidence: &'static str,
    reason: Option<&'static str>,
    ranked: Vec<(usize, f64)>,
    cells: usize,
}

impl Answer {
    /// The exact line the daemon must send, with the server-chosen
    /// `elapsed_us` and `trace` filled in from the response.
    fn render(&self, id: &str, mode: &str, top: usize, elapsed_us: u64, trace: &str) -> String {
        let candidates: Vec<(usize, f64)> = self.ranked.iter().take(top).copied().collect();
        OkLine {
            id,
            mode,
            confidence: self.confidence,
            reason: self.reason,
            candidates: &candidates,
            cells: self.cells,
            elapsed_us,
            trace,
        }
        .render()
    }
}

/// Expected answers keyed by [`LineSpec::key`].
pub type Oracle = BTreeMap<(usize, usize, bool, u64), Expected>;

/// Full-service and degraded-mode answers of one line. Robust lines
/// admitted into a half-full queue are answered without replay, in
/// `degraded` mode; that is the daemon's documented load shedding.
pub struct Expected {
    full: Answer,
    degraded: Option<Answer>,
}

/// One scheduled batch.
pub struct Batch {
    pub due_s: f64,
    pub lines: Vec<LineSpec>,
}

/// Everything set-up builds; the daemon is running when this exists.
pub struct ServeState {
    configs: Vec<ConfigState>,
    pub batches: Vec<Batch>,
    oracle: Oracle,
    daemon: Option<Daemon>,
    addr: String,
    pub workers: usize,
    pub warm_s: f64,
    pub warm_504: usize,
}

impl ServeState {
    /// Drains the daemon and joins its threads.
    pub fn shutdown(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            daemon.shutdown();
        }
    }
}

fn request_line(configs: &[ConfigState], id: &str, spec: LineSpec) -> String {
    let c = &CONFIGS[spec.config];
    let evidence = &configs[spec.config].faults[spec.fault];
    let grid = |rows: Vec<String>| format!("[{}]", rows.join(","));
    let encoded = if spec.signatures {
        let rows = evidence
            .signatures
            .iter()
            .map(|row| grid(row.iter().map(u64::to_string).collect()))
            .collect();
        format!("\"signatures\":{}", grid(rows))
    } else {
        let rows = evidence
            .failing
            .iter()
            .map(|row| grid(row.iter().map(usize::to_string).collect()))
            .collect();
        format!("\"failing\":{}", grid(rows))
    };
    let robust = if spec.robust_seed == 0 {
        String::new()
    } else {
        format!(
            ",\"robust\":{{\"flip\":{ROBUST_FLIP},\"dropout\":{ROBUST_DROPOUT},\"seed\":{},\"retries\":{ROBUST_RETRIES},\"votes\":{ROBUST_VOTES}}}",
            spec.robust_seed
        )
    };
    format!(
        "{{\"id\":\"{id}\",\"circuit\":\"{}\",\"groups\":{},\"partitions\":{},\"patterns\":{},\"scheme\":\"{}\",\"top\":{},{encoded}{robust}}}",
        c.circuit, c.groups, c.partitions, c.patterns, c.scheme, spec.top
    )
}

fn line_id(batch: usize, index: usize) -> String {
    format!("b{batch}-{index}")
}

/// The NDJSON body of batch `b`.
fn batch_body(configs: &[ConfigState], b: usize, lines: &[LineSpec]) -> String {
    let mut body = String::new();
    for (i, spec) in lines.iter().enumerate() {
        body.push_str(&request_line(configs, &line_id(b, i), *spec));
        body.push('\n');
    }
    body
}

/// Uniform in (0, 1].
fn uniform(rng: &mut ScanRng) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        rng.gen_range_u64(1, 1 << 53) as f64 / (1u64 << 53) as f64
    }
}

/// The request schedule: Poisson arrivals at [`RATE_PER_S`] over
/// `seconds`, with line mixes drawn from the seed.
fn schedule(seed: u64, seconds: f64) -> Vec<(f64, Vec<LineSpec>)> {
    let mut rng = ScanRng::seed_from_u64(scan_rng::derive(seed, 0x5E7E));
    let mut out = Vec::new();
    let mut at = 0.0f64;
    loop {
        at += -uniform(&mut rng).ln() / RATE_PER_S;
        if at >= seconds {
            break;
        }
        let lines = (0..rng.gen_range_inclusive(1, MAX_LINES))
            .map(|_| LineSpec {
                config: rng.gen_index(CONFIGS.len()),
                fault: rng.gen_index(FAULTS_PER_CONFIG),
                signatures: rng.next_bool(),
                robust_seed: if rng.next_bool() {
                    rng.gen_range_u64(1, ROBUST_SEEDS + 1)
                } else {
                    0
                },
                top: [8, 16, 32][rng.gen_index(3)],
            })
            .collect();
        out.push((at, lines));
    }
    out
}

fn outcome_of(evidence: &Evidence, groups: u16, signatures: bool) -> SessionOutcome {
    if signatures {
        SessionOutcome::from_signatures(evidence.signatures.clone())
    } else {
        SessionOutcome::from_verdicts(
            evidence
                .failing
                .iter()
                .map(|row| {
                    let mut flags = vec![false; usize::from(groups)];
                    for &g in row {
                        flags[g] = true;
                    }
                    flags
                })
                .collect(),
        )
    }
}

fn answer_of(
    local: &mut Local<'_>,
    plan: &DiagnosisPlan,
    cells: usize,
    diagnosis: &RobustDiagnosis,
) -> Answer {
    let ranked = local.time("core.rank", || {
        SuspectRanking::compute(
            plan,
            &diagnosis.verdicts.to_outcome(),
            &diagnosis.candidates,
        )
        .suspects()
        .to_vec()
    });
    local.add("core.candidates", diagnosis.candidates.len() as f64);
    Answer {
        confidence: diagnosis.confidence.label(),
        reason: diagnosis
            .inconclusive
            .map(scan_diagnosis::InconclusiveReason::label),
        ranked,
        cells,
    }
}

/// The expected answers of one line key, computed with the engine's
/// public calls: `diagnose_reported` for plain lines and the degraded
/// mode, `diagnose_robust_cancellable` for robust replay.
fn expect(
    local: &mut Local<'_>,
    configs: &[ConfigState],
    key: (usize, usize, bool, u64),
) -> Expected {
    let (config, fault, signatures, robust_seed) = key;
    let state = &configs[config];
    let outcome = outcome_of(&state.faults[fault], CONFIGS[config].groups, signatures);
    let reported = local
        .time("core.diagnose", || {
            diagnose_reported(&state.plan, &outcome, &CancelToken::new())
        })
        .expect("a fresh token is never cancelled");
    let reported = answer_of(local, &state.plan, state.cells, &reported);
    if robust_seed == 0 {
        return Expected {
            full: reported,
            degraded: None,
        };
    }
    let noise = NoiseModel::new(NoiseConfig {
        seed: robust_seed,
        flip_rate: ROBUST_FLIP,
        dropout_rate: ROBUST_DROPOUT,
        ..NoiseConfig::noiseless(robust_seed)
    })
    .expect("valid noise config");
    let policy = RobustPolicy {
        max_retry_rounds: ROBUST_RETRIES,
        votes: ROBUST_VOTES,
    };
    let robust = local
        .time("core.robust", || {
            diagnose_robust_cancellable(
                &state.plan,
                &outcome,
                &noise,
                &policy,
                robust_seed,
                &CancelToken::new(),
            )
        })
        .expect("a fresh token is never cancelled");
    local.add("core.robust_attempts", 1.0);
    if robust.is_conclusive() {
        local.add("core.robust_conclusive", 1.0);
    }
    Expected {
        full: answer_of(local, &state.plan, state.cells, &robust),
        degraded: Some(reported),
    }
}

/// One HTTP exchange as the client saw it.
#[derive(Clone, Debug, Default)]
pub struct Reply {
    pub status: u16,
    pub queue_depth: Option<usize>,
    pub body: String,
}

/// Sends one `POST /diagnose` and reads the whole response.
fn post(addr: &str, body: &str) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "POST /diagnose HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let text = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("no header terminator")?;
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("no status line")?;
    let queue_depth = head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("x-queue-depth")
            .then(|| value.trim().parse().ok())
            .flatten()
    });
    Ok(Reply {
        status,
        queue_depth,
        body: body.to_owned(),
    })
}

/// The verdict on one response.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checked {
    /// Lines that matched the expected answer.
    pub ok: usize,
    /// Of those, lines answered in degraded mode.
    pub degraded: usize,
    /// Lines that came back as protocol error lines.
    pub error_lines: usize,
    /// Server-reported job time of each matched line, microseconds.
    pub elapsed_us: Vec<u64>,
    /// The first mismatch, for the log.
    pub first_mismatch: Option<String>,
}

/// Checks a `200` response body line by line against the oracle; the
/// server's `elapsed_us` and `trace` are the only fields taken from the
/// response itself.
pub fn check_body(batch_index: usize, lines: &[LineSpec], oracle: &Oracle, body: &str) -> Checked {
    let mut checked = Checked::default();
    let got: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
    if got.len() != lines.len() {
        checked.first_mismatch = Some(format!(
            "batch {batch_index}: {} response lines for {} request lines",
            got.len(),
            lines.len()
        ));
    }
    for (index, (spec, line)) in lines.iter().zip(got.iter().copied()).enumerate() {
        let id = line_id(batch_index, index);
        let mut note = |m: String| {
            if checked.first_mismatch.is_none() {
                checked.first_mismatch = Some(m);
            }
        };
        let Ok(value) = scan_obs::json::parse(line) else {
            note(format!("{id}: unparsable line {line}"));
            continue;
        };
        if value.get("status").and_then(|v| v.as_str()) != Some("ok") {
            checked.error_lines += 1;
            note(format!("{id}: error line {line}"));
            continue;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let elapsed_us = value
            .get("elapsed_us")
            .and_then(|v| v.as_f64())
            .unwrap_or(-1.0) as u64;
        let trace = value.get("trace").and_then(|v| v.as_str()).unwrap_or("");
        let Some(expected) = oracle.get(&spec.key()) else {
            note(format!("{id}: no oracle entry"));
            continue;
        };
        if line
            == expected
                .full
                .render(&id, "full", spec.top, elapsed_us, trace)
        {
            checked.ok += 1;
            checked.elapsed_us.push(elapsed_us);
        } else if expected
            .degraded
            .as_ref()
            .is_some_and(|d| line == d.render(&id, "degraded", spec.top, elapsed_us, trace))
        {
            checked.ok += 1;
            checked.degraded += 1;
            checked.elapsed_us.push(elapsed_us);
        } else {
            note(format!("{id}: got {line}"));
        }
    }
    if got.len() != lines.len() {
        // A missing, extra or duplicated line makes the whole batch wrong.
        checked.ok = 0;
        checked.degraded = 0;
        checked.elapsed_us.clear();
    }
    checked
}

/// Set-up: circuits, evidence, schedule, oracle, daemon, warm-up.
pub fn setup(
    local: &mut Local<'_>,
    seed: u64,
    seconds: f64,
    workers: usize,
) -> Result<ServeState, String> {
    let mut circuits: BTreeMap<&str, Netlist> = BTreeMap::new();
    for c in &CONFIGS {
        if !circuits.contains_key(c.circuit) {
            let netlist = local.time("netlist.generate", || generate::benchmark(c.circuit));
            local.add("netlist.gates", netlist.num_gates() as f64);
            circuits.insert(c.circuit, netlist);
        }
    }
    let mut configs = Vec::new();
    for (i, c) in CONFIGS.iter().enumerate() {
        let netlist = &circuits[c.circuit];
        local.enter("sim.init");
        // The daemon's own scan view: natural order, outputs observed.
        let view = ScanView::natural(netlist, true);
        let patterns = lfsr_patterns(netlist, c.patterns, 0xACE1);
        let mut psim = PpsfpSimulator::new(netlist, &view, &patterns).map_err(|e| e.to_string())?;
        local.exit();
        let maps = local.time("sim.fault_sim", || {
            psim.sample_detected_with_maps(FAULTS_PER_CONFIG, scan_rng::derive(seed, i as u64))
        });
        local.add("sim.faults", maps.len() as f64);
        if maps.len() < FAULTS_PER_CONFIG {
            return Err(format!(
                "{}: only {} detected faults",
                c.circuit,
                maps.len()
            ));
        }
        let plan = local
            .time("core.plan", || {
                DiagnosisPlan::new(
                    ChainLayout::single_chain(view.len()),
                    c.patterns,
                    &BistConfig::new(c.groups, c.partitions, scheme_of(c.scheme)),
                )
            })
            .map_err(|e| e.to_string())?;
        let faults = maps
            .iter()
            .map(|(_, map)| {
                local.add("core.error_bits", map.num_error_bits() as f64);
                let outcome = local.time("core.analyze", || plan.analyze_packed(map.iter_words()));
                Evidence {
                    signatures: (0..c.partitions)
                        .map(|p| {
                            (0..c.groups)
                                .map(|g| outcome.error_signature(p, g))
                                .collect()
                        })
                        .collect(),
                    failing: (0..c.partitions)
                        .map(|p| outcome.failing_groups(p).map(usize::from).collect())
                        .collect(),
                }
            })
            .collect();
        configs.push(ConfigState {
            plan,
            cells: view.len(),
            faults,
        });
    }
    drop(circuits);

    let mut oracle = BTreeMap::new();
    let mut batches = Vec::new();
    for (due_s, lines) in schedule(seed, seconds) {
        for spec in &lines {
            if let Entry::Vacant(slot) = oracle.entry(spec.key()) {
                slot.insert(expect(local, &configs, spec.key()));
            }
        }
        batches.push(Batch { due_s, lines });
    }

    let daemon = Daemon::start(DaemonConfig {
        workers,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let addr = daemon.addr().to_string();
    let mut state = ServeState {
        configs,
        batches,
        oracle,
        daemon: Some(daemon),
        addr,
        workers,
        warm_s: 0.0,
        warm_504: 0,
    };
    match warm_up(local, &mut state) {
        Ok(()) => Ok(state),
        Err(e) => {
            state.shutdown();
            Err(e)
        }
    }
}

/// Sends one single-line batch per configuration through HTTP with the
/// daemon's default deadline, retrying after each `504` until the
/// configuration's plan is cached.
fn warm_up(local: &mut Local<'_>, state: &mut ServeState) -> Result<(), String> {
    let warm = now();
    for (config, c) in CONFIGS.iter().enumerate() {
        let spec = LineSpec {
            config,
            fault: 0,
            signatures: true,
            robust_seed: 0,
            top: 8,
        };
        if let Entry::Vacant(slot) = state.oracle.entry(spec.key()) {
            slot.insert(expect(local, &state.configs, spec.key()));
        }
        let body = request_line(&state.configs, &line_id(usize::MAX, 0), spec);
        let started = now();
        loop {
            let reply = post(&state.addr, &body)?;
            match reply.status {
                200 => {
                    let checked = check_body(usize::MAX, &[spec], &state.oracle, &reply.body);
                    if let Some(m) = checked.first_mismatch {
                        return Err(format!("warm-up {}: {m}", c.circuit));
                    }
                    break;
                }
                504 => state.warm_504 += 1,
                other => return Err(format!("warm-up {}: status {other}", c.circuit)),
            }
            if started.elapsed() > WARM_LIMIT {
                return Err(format!("warm-up {}: plan never became ready", c.circuit));
            }
        }
    }
    state.warm_s = warm.elapsed().as_secs_f64();
    Ok(())
}

/// When one scheduled request was sent and answered, in seconds since
/// the schedule's origin.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub sent_s: f64,
    pub done_s: f64,
}

/// Process and client-thread CPU ticks read at one instant of the
/// open loop.
#[derive(Clone, Copy, Debug)]
pub struct CpuSample {
    pub process_ticks: u64,
    pub client_ticks: u64,
}

/// Open-loop driver: request `i` is due at `due_s[i]` after `origin`
/// and goes out on the first of `connections` client threads that is
/// free at or after that time. A stalled request therefore delays the
/// ones behind it, and their latency, timed from the due time,
/// includes the wait. `prepare(i)` builds the request before its due
/// time; `send` is timed. Meanwhile the calling thread samples the
/// process's and the clients' CPU ticks at the start, every `sample_s`
/// seconds from `origin` before the last due time, and when the last
/// client is done.
pub fn open_loop<P, R, Pf, Sf>(
    due_s: &[f64],
    connections: usize,
    origin: Instant,
    sample_s: f64,
    prepare: Pf,
    send: Sf,
) -> (Vec<(Timing, R)>, Vec<CpuSample>)
where
    R: Send,
    Pf: Fn(usize) -> P + Sync,
    Sf: Fn(P) -> R + Sync,
{
    let connections = connections.max(1);
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    // Each client's CPU ticks since it started, updated per request.
    let client_ticks: Vec<AtomicU64> = (0..connections).map(|_| AtomicU64::new(0)).collect();
    let sample = || CpuSample {
        process_ticks: process_cpu_ticks(),
        client_ticks: client_ticks.iter().map(|t| t.load(Ordering::SeqCst)).sum(),
    };
    let mut samples = vec![sample()];
    let mut done: Vec<(usize, Timing, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = client_ticks
            .iter()
            .map(|ticks| {
                let (next, finished) = (&next, &finished);
                let (prepare, send) = (&prepare, &send);
                scope.spawn(move || {
                    let start_ticks = thread_cpu_ticks();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&due) = due_s.get(i) else { break };
                        let request = prepare(i);
                        // Sleeping, not polling, keeps the client's CPU
                        // off the cores the daemon runs on; the timer
                        // wake-up shows as lateness.
                        let due_at = origin + Duration::from_secs_f64(due);
                        let before = now();
                        if due_at > before {
                            std::thread::sleep(due_at - before);
                        }
                        let sent_s = origin.elapsed().as_secs_f64();
                        let reply = send(request);
                        let done_s = origin.elapsed().as_secs_f64();
                        mine.push((i, Timing { sent_s, done_s }, reply));
                        ticks.store(thread_cpu_ticks() - start_ticks, Ordering::SeqCst);
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    mine
                })
            })
            .collect();
        let last_due = due_s.iter().copied().fold(0.0, f64::max);
        let mut boundary = sample_s;
        while finished.load(Ordering::SeqCst) < connections {
            std::thread::sleep(Duration::from_millis(10));
            if boundary < last_due && now() >= origin + Duration::from_secs_f64(boundary) {
                samples.push(sample());
                boundary += sample_s;
            }
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    samples.push(sample());
    done.sort_by_key(|(i, _, _)| *i);
    (done.into_iter().map(|(_, t, r)| (t, r)).collect(), samples)
}

/// Per-request results of the measured phase.
pub struct Served {
    pub timings: Vec<Timing>,
    pub replies: Vec<Result<Reply, String>>,
    pub checked: Vec<Checked>,
    /// Wall seconds from the start of the open loop to its last reply.
    pub phase_s: f64,
    /// CPU ticks of the process and of the client threads, sampled
    /// every [`WINDOW_S`] seconds of the phase.
    pub cpu: Vec<CpuSample>,
}

impl Served {
    /// CPU seconds the process used in the phase less the client
    /// threads': the daemon's accept, connection, worker and telemetry
    /// threads.
    #[must_use]
    pub fn daemon_cpu_s(&self) -> f64 {
        let (first, last) = (self.cpu[0], self.cpu[self.cpu.len() - 1]);
        #[allow(clippy::cast_precision_loss)]
        let ticks = (last.process_ticks - first.process_ticks)
            .saturating_sub(last.client_ticks - first.client_ticks) as f64;
        ticks / TICKS_PER_S
    }

    /// CPU seconds of the load generator's client threads.
    #[must_use]
    pub fn client_cpu_s(&self) -> f64 {
        let (first, last) = (self.cpu[0], self.cpu[self.cpu.len() - 1]);
        #[allow(clippy::cast_precision_loss)]
        let ticks = (last.client_ticks - first.client_ticks) as f64;
        ticks / TICKS_PER_S
    }
}

/// The measured phase: the open loop, then the check of every reply,
/// which is outside the timed phase. With `closed_loop` every request
/// is due at once, so each client sends its next batch as soon as the
/// last one is answered: the daemon's saturation throughput on this
/// mix.
pub fn measure(state: &ServeState, connections: usize, closed_loop: bool) -> Served {
    let due: Vec<f64> = state
        .batches
        .iter()
        .map(|b| if closed_loop { 0.0 } else { b.due_s })
        .collect();
    let start = now();
    let (results, cpu) = open_loop(
        &due,
        connections,
        start + Duration::from_millis(5),
        WINDOW_S,
        |i| batch_body(&state.configs, i, &state.batches[i].lines),
        |body| post(&state.addr, &body),
    );
    let mut served = Served {
        timings: Vec::new(),
        replies: Vec::new(),
        checked: Vec::new(),
        phase_s: start.elapsed().as_secs_f64(),
        cpu,
    };
    for (i, (timing, reply)) in results.into_iter().enumerate() {
        let checked = match &reply {
            Ok(r) if r.status == 200 => {
                check_body(i, &state.batches[i].lines, &state.oracle, &r.body)
            }
            _ => Checked::default(),
        };
        served.timings.push(timing);
        served.replies.push(reply);
        served.checked.push(checked);
    }
    served
}

/// The daemon's CPU seconds for the phase's lines at the lower-quartile
/// rate over [`WINDOW_S`] windows: each window's daemon CPU ticks over
/// the lines due in it. Interference from other tenants only adds CPU
/// time (a stolen cycle can still be charged to the thread it stole
/// from), and only to the windows it lands in. The last sample, taken
/// when the clients are done, closes the last window.
#[must_use]
pub fn daemon_cpu_lq_s(state: &ServeState, served: &Served) -> f64 {
    let per_line = daemon_cpu_per_line_s(state, served);
    let lines: usize = state.batches.iter().map(|b| b.lines.len()).sum();
    #[allow(clippy::cast_precision_loss)]
    lower_quartile(&per_line).map_or(0.0, |rate| rate * lines as f64)
}

/// Each [`WINDOW_S`] window's daemon CPU seconds per line due in it.
#[must_use]
pub fn daemon_cpu_per_line_s(state: &ServeState, served: &Served) -> Vec<f64> {
    let mut lines_due: Vec<usize> = vec![0; served.cpu.len().saturating_sub(1)];
    for batch in &state.batches {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let k = ((batch.due_s / WINDOW_S).floor() as usize).min(lines_due.len().saturating_sub(1));
        if let Some(n) = lines_due.get_mut(k) {
            *n += batch.lines.len();
        }
    }
    #[allow(clippy::cast_precision_loss)]
    served
        .cpu
        .windows(2)
        .zip(&lines_due)
        .filter(|(_, &n)| n > 0)
        .map(|(w, &n)| {
            let ticks = (w[1].process_ticks - w[0].process_ticks)
                .saturating_sub(w[1].client_ticks - w[0].client_ticks);
            ticks as f64 / TICKS_PER_S / n as f64
        })
        .collect()
}

/// Share of the phase the daemon's workers spent on jobs: the lines'
/// server-reported `elapsed_us` over `workers` x the phase.
#[must_use]
pub fn worker_busy_frac(state: &ServeState, served: &Served) -> f64 {
    let job_us: u64 = served.checked.iter().flat_map(|c| &c.elapsed_us).sum();
    #[allow(clippy::cast_precision_loss)]
    let capacity_s = state.workers.max(1) as f64 * served.phase_s;
    #[allow(clippy::cast_precision_loss)]
    if capacity_s > 0.0 {
        job_us as f64 * 1e-6 / capacity_s
    } else {
        0.0
    }
}

/// Latency percentiles are taken per window of this many seconds of
/// due time (~1560 batches a window at the fixed rate).
pub const WINDOW_S: f64 = 2.0;

/// The latencies of each [`WINDOW_S`] window of due time.
#[must_use]
pub fn windows(state: &ServeState, latencies_ms: &[f64]) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = Vec::new();
    for (batch, &latency) in state.batches.iter().zip(latencies_ms) {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let k = (batch.due_s / WINDOW_S).floor() as usize;
        if out.len() <= k {
            out.resize_with(k + 1, Vec::new);
        }
        out[k].push(latency);
    }
    out
}

/// The lower quartile over windows of each window's percentile `q`.
#[must_use]
pub fn windowed_percentile(windows: &[Vec<f64>], q: f64) -> f64 {
    let per_window: Vec<f64> = windows.iter().filter_map(|w| percentile(w, q)).collect();
    lower_quartile(&per_window).unwrap_or(0.0)
}

/// Latency of each batch in ms from its due time; a batch with any
/// missing or wrong line counts as missing every latency limit.
#[must_use]
pub fn latencies_ms(state: &ServeState, served: &Served) -> Vec<f64> {
    state
        .batches
        .iter()
        .zip(&served.timings)
        .zip(&served.checked)
        .map(|((batch, t), c)| {
            if c.ok == batch.lines.len() {
                (t.done_s - batch.due_s) * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Per-layer numbers of the request path.
pub struct PathLayers {
    pub job_us_p50: f64,
    pub transport_ms_p50: f64,
    pub send_wait_ms_p99: f64,
    pub queue_depth_max: f64,
    pub status: BTreeMap<u16, usize>,
    pub lines_error: usize,
    pub lines_degraded: usize,
    pub parse_line_us: f64,
    pub render_us: f64,
    pub unexplained_frac: f64,
}

/// Splits each answered batch's latency into send wait, job time (the
/// lines' `elapsed_us` summed and spread over the workers that can
/// serve them) and the transport residual; parse and render costs come
/// from replaying the workload's lines through the daemon's protocol
/// code.
#[must_use]
pub fn path_layers(state: &ServeState, served: &Served) -> PathLayers {
    let mut job_us = Vec::new();
    let mut transport_ms = Vec::new();
    let mut send_wait_ms = Vec::new();
    let mut status = BTreeMap::new();
    let mut depth = 0usize;
    let (mut lat_sum, mut wait_sum, mut job_sum) = (0.0, 0.0, 0.0);
    for (i, batch) in state.batches.iter().enumerate() {
        let t = served.timings[i];
        send_wait_ms.push((t.sent_s - batch.due_s) * 1e3);
        let Ok(reply) = &served.replies[i] else {
            continue;
        };
        *status.entry(reply.status).or_insert(0) += 1;
        depth = depth.max(reply.queue_depth.unwrap_or(0));
        let checked = &served.checked[i];
        if reply.status != 200 || checked.ok != batch.lines.len() {
            continue;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            job_us.extend(checked.elapsed_us.iter().map(|&u| u as f64));
            let spread = batch.lines.len().min(state.workers.max(1)) as f64;
            let job_ms = checked.elapsed_us.iter().sum::<u64>() as f64 / 1e3 / spread;
            let latency = (t.done_s - batch.due_s) * 1e3;
            let wait = (t.sent_s - batch.due_s) * 1e3;
            transport_ms.push(latency - wait - job_ms);
            lat_sum += latency;
            wait_sum += wait;
            job_sum += job_ms;
        }
    }
    let (parse_line_us, render_us) = replay_protocol(state);
    let lines: usize = state.batches.iter().map(|b| b.lines.len()).sum();
    #[allow(clippy::cast_precision_loss)]
    let codec_ms = lines as f64 * (parse_line_us + render_us) / 1e3;
    PathLayers {
        job_us_p50: median(&job_us).unwrap_or(0.0),
        transport_ms_p50: median(&transport_ms).unwrap_or(0.0),
        send_wait_ms_p99: percentile(&send_wait_ms, 99.0).unwrap_or(0.0),
        #[allow(clippy::cast_precision_loss)]
        queue_depth_max: depth as f64,
        status,
        lines_error: served.checked.iter().map(|c| c.error_lines).sum(),
        lines_degraded: served.checked.iter().map(|c| c.degraded).sum(),
        parse_line_us,
        render_us,
        unexplained_frac: if lat_sum > 0.0 {
            ((lat_sum - wait_sum - job_sum - codec_ms) / lat_sum).max(0.0)
        } else {
            0.0
        },
    }
}

/// Mean microseconds per line of `DiagnoseRequest::parse_line` and of
/// `OkLine::render`, over every line of the workload.
fn replay_protocol(state: &ServeState) -> (f64, f64) {
    let bodies: Vec<String> = state
        .batches
        .iter()
        .enumerate()
        .map(|(b, batch)| batch_body(&state.configs, b, &batch.lines))
        .collect();
    let lines: Vec<&str> = bodies.iter().flat_map(|b| b.lines()).collect();
    let start = now();
    for line in &lines {
        std::hint::black_box(DiagnoseRequest::parse_line(line).is_ok());
    }
    let parse_s = start.elapsed().as_secs_f64();
    let specs: Vec<(String, LineSpec)> = state
        .batches
        .iter()
        .enumerate()
        .flat_map(|(b, batch)| {
            batch
                .lines
                .iter()
                .enumerate()
                .map(move |(i, s)| (line_id(b, i), *s))
        })
        .collect();
    let start = now();
    for (id, spec) in &specs {
        let answer = &state.oracle[&spec.key()].full;
        std::hint::black_box(
            answer
                .render(id, "full", spec.top, 1234, "0123456789abcdef")
                .len(),
        );
    }
    let render_s = start.elapsed().as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let n = lines.len().max(1) as f64;
    (parse_s * 1e6 / n, render_s * 1e6 / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_due_and_a_stall_penalises_later_requests() {
        // One connection, requests due every 10 ms, the first stalls
        // for 200 ms: the ones due during the stall go out late and
        // their latency from the due time includes the wait.
        let due: Vec<f64> = (0..6).map(|i| f64::from(i) * 0.010).collect();
        let (out, _) = open_loop(
            &due,
            1,
            now(),
            1.0,
            |i| i,
            |i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(200));
                }
            },
        );
        assert_eq!(out.len(), 6);
        for (i, (t, ())) in out.iter().enumerate().skip(1) {
            let latency = t.done_s - due[i];
            assert!(
                t.sent_s >= 0.2,
                "request {i} went out before the stall ended"
            );
            assert!(
                latency >= 0.2 - due[i] - 1e-3,
                "request {i} latency {latency}"
            );
        }
        // Without the stall nothing is late by more than a few ms.
        let (calm, _) = open_loop(&due, 1, now(), 1.0, |i| i, |_| ());
        for (i, (t, ())) in calm.iter().enumerate() {
            assert!(
                t.sent_s - due[i] < 0.05,
                "request {i} late by {}",
                t.sent_s - due[i]
            );
        }
    }

    #[test]
    fn open_loop_uses_every_connection() {
        // Two connections, two requests due at once that each take
        // 100 ms: both finish by ~100 ms, not 200 ms.
        let (out, _) = open_loop(
            &[0.0, 0.0],
            2,
            now(),
            1.0,
            |i| i,
            |_| {
                std::thread::sleep(Duration::from_millis(100));
            },
        );
        assert!(out.iter().all(|(t, ())| t.done_s < 0.19), "{out:?}");
    }

    fn tiny_oracle() -> (Vec<LineSpec>, Oracle, String) {
        let spec = LineSpec {
            config: 0,
            fault: 0,
            signatures: true,
            robust_seed: 0,
            top: 2,
        };
        let answer = Answer {
            confidence: "exact",
            reason: None,
            ranked: vec![(17, 1.5), (20, 0.5), (31, 0.25)],
            cells: 125,
        };
        let body = answer.render(&line_id(3, 0), "full", 2, 412, "00000000000000ab") + "\n";
        let mut oracle = BTreeMap::new();
        oracle.insert(
            spec.key(),
            Expected {
                full: answer,
                degraded: None,
            },
        );
        (vec![spec], oracle, body)
    }

    #[test]
    fn oracle_accepts_the_expected_line_whatever_the_timing_fields() {
        let (lines, oracle, body) = tiny_oracle();
        let checked = check_body(3, &lines, &oracle, &body);
        assert_eq!(checked.ok, 1, "{checked:?}");
        assert_eq!(checked.elapsed_us, vec![412]);
        assert!(checked.first_mismatch.is_none());
    }

    #[test]
    fn corrupted_response_lines_trip_the_oracle() {
        let (lines, oracle, body) = tiny_oracle();
        for corrupted in [
            body.replace("[17,", "[18,"),
            body.replace("1.500000", "1.500001"),
            body.replace("\"exact\"", "\"degraded\""),
            body.replace("\"full\"", "\"degraded\""),
            body.replace("\"b3-0\"", "\"b3-1\""),
            body.replace("\"cells\":125", "\"cells\":124"),
            body.replace(",[20,0.500000]", ""),
            body.repeat(2),
            body.clone() + &body.replace("\"b3-0\"", "\"b3-1\""),
            String::new(),
        ] {
            let checked = check_body(3, &lines, &oracle, &corrupted);
            assert_eq!(checked.ok, 0, "accepted {corrupted}");
            assert!(checked.first_mismatch.is_some(), "{corrupted}");
        }
        let error = "{\"id\":\"b3-0\",\"status\":\"error\",\"error\":{\"code\":\"deadline\",\"http\":504,\"message\":\"x\"}}\n";
        let checked = check_body(3, &lines, &oracle, error);
        assert_eq!((checked.ok, checked.error_lines), (0, 1));
    }
}
