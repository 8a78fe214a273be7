//! `scanbistd-loadgen` — an open-loop load generator for `scanbistd`.
//!
//! Closed-loop clients (send, wait, send) self-throttle under
//! overload and hide exactly the failure this daemon is engineered
//! for. This generator is **open-loop**: arrivals follow a Poisson
//! process at the offered rate regardless of how the daemon is doing,
//! so when capacity is exceeded the queue bound, the `429` shedding
//! path, and the deadline machinery actually get exercised.
//!
//! A run calibrates daemon capacity with a short closed-loop burst,
//! then sweeps offered load at 0.5x / 1x / 2x the estimate and writes
//! per-scenario results — goodput, shed counts, admitted-request
//! latency percentiles, peak queue depth — to a `BENCH_daemon.json`
//! evidence file. Chaos-injected failures are separated from real
//! ones via the `X-Scanbist-Chaos` response header.
//!
//! ```text
//! scanbistd-loadgen --addr 127.0.0.1:9321 --out BENCH_daemon.json
//! scanbistd-loadgen --addr 127.0.0.1:9321 --drain
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use scan_rng::ScanRng;

/// One parsed HTTP response, just enough for scoring.
struct Reply {
    status: u16,
    chaos: Option<String>,
    queue_depth: Option<usize>,
    truncated: bool,
    latency: Duration,
}

/// Scorecard of one offered-load scenario.
#[derive(Default)]
struct Scorecard {
    sent: usize,
    ok: usize,
    shed_429: usize,
    unavailable_503: usize,
    deadline_504: usize,
    other_status: usize,
    connect_failures: usize,
    chaos_injected: usize,
    truncated: usize,
    max_queue_depth: usize,
    /// Latencies of admitted (HTTP 200) requests, microseconds.
    ok_latencies_us: Vec<u64>,
}

impl Scorecard {
    fn absorb(&mut self, reply: &Reply) {
        self.sent += 1;
        if reply.chaos.is_some() {
            self.chaos_injected += 1;
        }
        if reply.truncated {
            self.truncated += 1;
            return;
        }
        if let Some(depth) = reply.queue_depth {
            self.max_queue_depth = self.max_queue_depth.max(depth);
        }
        match reply.status {
            200 => {
                self.ok += 1;
                #[allow(clippy::cast_possible_truncation)]
                self.ok_latencies_us.push(reply.latency.as_micros() as u64);
            }
            429 => self.shed_429 += 1,
            503 => self.unavailable_503 += 1,
            504 => self.deadline_504 += 1,
            _ => self.other_status += 1,
        }
    }

    /// Real (non-injected) server-side failures: any status outside
    /// the engineered set {200, 429, 503, 504}. The verify smoke
    /// asserts zero.
    fn real_failures(&self) -> usize {
        self.other_status
    }
}

/// Nearest-rank percentile over an ascending-sorted sample.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation,
        clippy::cast_precision_loss
    )]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct Options {
    addr: String,
    out: Option<String>,
    circuit: String,
    groups: u64,
    partitions: u64,
    patterns: u64,
    deadline_ms: u64,
    duration_ms: u64,
    seed: u64,
    drain: bool,
    /// Explicit offered rates (requests/s); empty means calibrate.
    rates: Vec<f64>,
    robust: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: String::new(),
            out: None,
            circuit: "s953".to_owned(),
            groups: 8,
            partitions: 6,
            patterns: 64,
            deadline_ms: 1_500,
            duration_ms: 2_000,
            seed: 1,
            drain: false,
            rates: Vec::new(),
            robust: true,
        }
    }
}

const USAGE: &str = "usage: scanbistd-loadgen --addr HOST:PORT [options]\n\
  --out PATH          write BENCH_daemon.json-style evidence here\n\
  --circuit NAME      benchmark circuit per request (default s953)\n\
  --groups N          session groups (default 8)\n\
  --partitions N      partitions (default 6)\n\
  --patterns N        BIST patterns (default 64)\n\
  --deadline-ms N     per-request deadline (default 1500)\n\
  --duration-ms N     per-scenario duration (default 2000)\n\
  --rates A,B,C       offered rates in req/s (default: calibrate, then 0.5x/1x/2x)\n\
  --seed N            workload RNG seed (default 1)\n\
  --no-robust         omit the robust block from request lines\n\
  --drain             POST /admin/drain and exit";

fn parse_args() -> Result<Options, String> {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => options.addr = value("--addr")?,
            "--out" => options.out = Some(value("--out")?),
            "--circuit" => options.circuit = value("--circuit")?,
            "--groups" => {
                options.groups = value("--groups")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--partitions" => {
                options.partitions = value("--partitions")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--patterns" => {
                options.patterns = value("--patterns")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--deadline-ms" => {
                options.deadline_ms = value("--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--duration-ms" => {
                options.duration_ms = value("--duration-ms")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--seed" => options.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--rates" => {
                options.rates = value("--rates")?
                    .split(',')
                    .map(|r| r.trim().parse::<f64>().map_err(|e| format!("{e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--no-robust" => options.robust = false,
            "--drain" => options.drain = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if options.addr.is_empty() {
        return Err(format!("--addr is required\n{USAGE}"));
    }
    Ok(options)
}

/// One NDJSON request line with a deterministic failing-group pattern.
fn request_line(options: &Options, rng: &mut ScanRng, index: usize) -> String {
    let mut failing = String::from("[");
    #[allow(clippy::cast_possible_truncation)]
    let groups = options.groups as usize;
    for p in 0..options.partitions {
        if p > 0 {
            failing.push(',');
        }
        // One or two failing groups per partition: noisy-but-plausible
        // evidence that exercises the voting fallback.
        let g1 = rng.gen_range(0, groups);
        if rng.gen_bool(0.3) {
            let g2 = rng.gen_range(0, groups);
            failing.push_str(&format!("[{g1},{g2}]"));
        } else {
            failing.push_str(&format!("[{g1}]"));
        }
    }
    failing.push(']');
    let robust = if options.robust {
        format!(",\"robust\":{{\"flip\":0.02,\"seed\":{}}}", options.seed)
    } else {
        String::new()
    };
    format!(
        "{{\"id\":\"lg-{index}\",\"circuit\":\"{}\",\"groups\":{},\"partitions\":{},\"patterns\":{},\"failing\":{failing},\"deadline_ms\":{}{robust},\"top\":8}}",
        options.circuit, options.groups, options.partitions, options.patterns, options.deadline_ms
    )
}

/// Sends one POST /diagnose and parses the response head.
fn send_once(addr: &str, body: &str) -> Result<Reply, String> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "POST /diagnose HTTP/1.1\r\nHost: scanbistd\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let latency = started.elapsed();
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("no status line")?;
    let mut chaos = None;
    let mut queue_depth = None;
    let mut declared_len = None;
    for line in text.lines().skip(1) {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "x-scanbist-chaos" => chaos = Some(value.to_owned()),
                "x-queue-depth" => queue_depth = value.parse().ok(),
                "content-length" => declared_len = value.parse::<usize>().ok(),
                _ => {}
            }
        }
    }
    let body_received = text
        .split_once("\r\n\r\n")
        .map_or(0, |(_, body)| body.len());
    let truncated = declared_len.is_some_and(|declared| body_received < declared);
    Ok(Reply {
        status,
        chaos,
        queue_depth,
        truncated,
        latency,
    })
}

/// Closed-loop capacity estimate: `senders` clients hammer serially
/// for `duration`; completed 200s per second approximate capacity.
fn calibrate(options: &Options, senders: usize, duration: Duration) -> f64 {
    let done = Arc::new(AtomicUsize::new(0));
    let deadline = Instant::now() + duration;
    std::thread::scope(|scope| {
        for s in 0..senders {
            let done = Arc::clone(&done);
            let mut rng = ScanRng::seed_from_u64(scan_rng::derive(options.seed, s as u64));
            scope.spawn(move || {
                let mut index = 0usize;
                while Instant::now() < deadline {
                    let line = request_line(options, &mut rng, index);
                    index += 1;
                    if let Ok(reply) = send_once(&options.addr, &line) {
                        if reply.status == 200 {
                            done.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
    });
    let completed = done.load(Ordering::SeqCst);
    #[allow(clippy::cast_precision_loss)]
    let rate = completed as f64 / duration.as_secs_f64();
    rate.max(4.0)
}

/// Uniform in (0, 1]: 53 random bits, never exactly zero.
fn rng_uniform(rng: &mut ScanRng) -> f64 {
    let bits = rng.gen_range_u64(1, 1 << 53);
    #[allow(clippy::cast_precision_loss)]
    {
        bits as f64 / (1u64 << 53) as f64
    }
}

/// One open-loop Poisson scenario at `rate` requests per second.
fn run_scenario(options: &Options, rate: f64, label: &str) -> Scorecard {
    // Pre-draw the Poisson arrival schedule.
    let mut rng = ScanRng::seed_from_u64(scan_rng::derive(options.seed ^ 0x00D1_55ED, 0));
    let horizon = Duration::from_millis(options.duration_ms);
    let mut arrivals = Vec::new();
    let mut at = Duration::ZERO;
    loop {
        // Exponential inter-arrival: -ln(U)/rate.
        let gap = (-rng_uniform(&mut rng).ln() / rate).min(1.0);
        at += Duration::from_secs_f64(gap);
        if at >= horizon {
            break;
        }
        arrivals.push(at);
    }
    let scorecard = Mutex::new(Scorecard::default());
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let sender_count = 64usize;
    std::thread::scope(|scope| {
        for s in 0..sender_count {
            let scorecard = &scorecard;
            let next = &next;
            let arrivals = &arrivals;
            let mut rng = ScanRng::seed_from_u64(scan_rng::derive(options.seed, 1_000 + s as u64));
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                let Some(at) = arrivals.get(index) else {
                    break;
                };
                let now = start.elapsed();
                if *at > now {
                    std::thread::sleep(*at - now);
                }
                let line = request_line(options, &mut rng, index);
                match send_once(&options.addr, &line) {
                    Ok(reply) => {
                        if let Ok(mut card) = scorecard.lock() {
                            card.absorb(&reply);
                        }
                    }
                    Err(_) => {
                        if let Ok(mut card) = scorecard.lock() {
                            card.sent += 1;
                            card.connect_failures += 1;
                        }
                    }
                }
            });
        }
    });
    let mut card = scorecard.into_inner().unwrap_or_default();
    card.ok_latencies_us.sort_unstable();
    #[allow(clippy::cast_precision_loss)]
    let goodput = card.ok as f64 / start.elapsed().as_secs_f64();
    println!(
        "scenario {label}: offered {rate:.0}/s sent {} ok {} 429 {} 503 {} 504 {} other {} chaos {} truncated {} goodput {goodput:.1}/s p99 {} us depth<= {}",
        card.sent,
        card.ok,
        card.shed_429,
        card.unavailable_503,
        card.deadline_504,
        card.other_status,
        card.chaos_injected,
        card.truncated,
        percentile(&card.ok_latencies_us, 0.99),
        card.max_queue_depth,
    );
    card
}

fn scenario_json(label: &str, rate: f64, duration_ms: u64, card: &Scorecard) -> String {
    #[allow(clippy::cast_precision_loss)]
    let goodput = card.ok as f64 / (duration_ms as f64 / 1_000.0);
    format!(
        "{{\"label\":\"{label}\",\"offered_rps\":{rate:.2},\"duration_ms\":{duration_ms},\
\"sent\":{},\"ok\":{},\"shed_429\":{},\"unavailable_503\":{},\"deadline_504\":{},\
\"other_status\":{},\"connect_failures\":{},\"chaos_injected\":{},\"truncated\":{},\
\"real_failures\":{},\"max_queue_depth\":{},\"goodput_rps\":{goodput:.2},\
\"latency_us\":{{\"p50\":{},\"p95\":{},\"p99\":{}}}}}",
        card.sent,
        card.ok,
        card.shed_429,
        card.unavailable_503,
        card.deadline_504,
        card.other_status,
        card.connect_failures,
        card.chaos_injected,
        card.truncated,
        card.real_failures(),
        card.max_queue_depth,
        percentile(&card.ok_latencies_us, 0.50),
        percentile(&card.ok_latencies_us, 0.95),
        percentile(&card.ok_latencies_us, 0.99),
    )
}

fn post_drain(addr: &str) -> Result<u16, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .write_all(
            b"POST /admin/drain HTTP/1.1\r\nHost: scanbistd\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    raw.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "no status line".to_owned())
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if options.drain {
        match post_drain(&options.addr) {
            Ok(status) => {
                println!("drain: HTTP {status}");
                std::process::exit(i32::from(status != 200));
            }
            Err(e) => {
                eprintln!("drain failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let (rates, capacity): (Vec<(String, f64)>, f64) = if options.rates.is_empty() {
        let capacity = calibrate(&options, 8, Duration::from_millis(700));
        println!("calibrated capacity ~{capacity:.0} req/s");
        (
            vec![
                ("underload".to_owned(), capacity * 0.5),
                ("saturation".to_owned(), capacity),
                ("overload".to_owned(), capacity * 2.0),
            ],
            capacity,
        )
    } else {
        (
            options
                .rates
                .iter()
                .enumerate()
                .map(|(i, &r)| (format!("rate-{i}"), r))
                .collect(),
            0.0,
        )
    };
    let mut results = Vec::new();
    let mut real_failures = 0usize;
    for (label, rate) in &rates {
        let card = run_scenario(&options, *rate, label);
        real_failures += card.real_failures();
        results.push(scenario_json(label, *rate, options.duration_ms, &card));
    }
    if let Some(out) = &options.out {
        let json = format!(
            "{{\"version\":1,\"suite\":\"daemon\",\"circuit\":\"{}\",\"groups\":{},\"partitions\":{},\"patterns\":{},\"deadline_ms\":{},\"calibrated_rps\":{capacity:.2},\"scenarios\":[{}]}}\n",
            options.circuit,
            options.groups,
            options.partitions,
            options.patterns,
            options.deadline_ms,
            results.join(",")
        );
        if let Err(e) = std::fs::write(out, json) {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
        println!("wrote {out}");
    }
    std::process::exit(i32::from(real_failures > 0));
}
