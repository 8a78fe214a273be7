//! End-to-end tests against a live `scanbistd` on an ephemeral port:
//! happy-path NDJSON batches, bounded-queue backpressure (429),
//! deadline expiry (504), a cold plan for the largest circuit inside the
//! default deadline, drain semantics (/readyz flip + 503),
//! deterministic chaos injection, the connection cap (503), `HEAD`
//! without a body, and a long run of sequential batches through the
//! pooled handlers.
//!
//! The daemon publishes readiness through process-global scan-obs
//! state, so every test serializes on [`lock`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use scan_daemon::{ChaosConfig, Daemon, DaemonConfig};

fn lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn lines(&self) -> Vec<&str> {
        self.body.lines().filter(|l| !l.trim().is_empty()).collect()
    }
}

fn roundtrip(addr: std::net::SocketAddr, raw: &str) -> Reply {
    try_roundtrip(addr, raw).expect("roundtrip")
}

fn try_roundtrip(addr: std::net::SocketAddr, raw: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(raw.as_bytes())?;
    let mut buffer = Vec::new();
    stream.read_to_end(&mut buffer)?;
    let text = String::from_utf8_lossy(&buffer).into_owned();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in: {text:?}"));
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {status_line}"));
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
        .collect();
    Ok(Reply {
        status,
        headers,
        body: body.to_owned(),
    })
}

fn post_diagnose(addr: std::net::SocketAddr, ndjson: &str) -> Reply {
    let raw = format!(
        "POST /diagnose HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{}",
        ndjson.len(),
        ndjson
    );
    roundtrip(addr, &raw)
}

fn get(addr: std::net::SocketAddr, path: &str) -> Reply {
    roundtrip(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// One valid request line against the tiny s27 circuit (4 scan
/// cells): partition 0 reports group 1 failing, the rest pass.
fn s27_line(id: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"circuit\":\"s27\",\"groups\":2,\"partitions\":3,\
         \"patterns\":16,\"failing\":[[1],[],[]]}}"
    )
}

/// One valid request line against the largest ISCAS-89 stand-in
/// (1 742 scan cells).
fn s38417_line(id: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"circuit\":\"s38417\",\"groups\":8,\"partitions\":6,\
         \"patterns\":64,\"failing\":[[1],[2],[],[],[],[]]}}"
    )
}

/// A request line against s38417 that asks for robust replay: every
/// partition's evidence is replayed under noise with retries and
/// voting, milliseconds of work per line even from a cached plan.
/// Only a job admitted below half the queue's capacity replays; deeper
/// jobs answer in degraded mode.
fn s38417_robust_line(id: &str, deadline_ms: Option<u64>) -> String {
    let deadline = deadline_ms.map_or(String::new(), |ms| format!("\"deadline_ms\":{ms},"));
    format!(
        "{{\"id\":\"{id}\",\"circuit\":\"s38417\",\"groups\":8,\"partitions\":6,\
         \"patterns\":64,{deadline}\"robust\":{{\"flip\":0.05,\"seed\":3}},\
         \"failing\":[[1],[2],[],[],[],[]]}}"
    )
}

/// Polls `/statz` until the admission queue is empty.
fn wait_for_empty_queue(addr: std::net::SocketAddr) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while field(&get(addr, "/statz").body, "queue_depth") != Some("0") {
        assert!(
            std::time::Instant::now() < deadline,
            "admission queue never drained"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\":");
    let rest = &line[line.find(&marker)? + marker.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

#[test]
fn happy_path_batch_returns_ranked_candidates() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig::default()).expect("start");
    let addr = daemon.addr();

    let batch = format!("{}\n{}\n", s27_line("a"), s27_line("b"));
    let reply = post_diagnose(addr, &batch);
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    assert_eq!(
        reply.header("content-type"),
        Some("application/x-ndjson"),
        "NDJSON content type"
    );
    assert!(
        reply.header("x-scanbist-trace").is_some(),
        "trace id header"
    );
    let lines = reply.lines();
    assert_eq!(lines.len(), 2, "one response line per request line");
    for line in &lines {
        assert_eq!(field(line, "status"), Some("ok"), "line: {line}");
        assert!(line.contains("\"candidates\":["), "line: {line}");
        assert_eq!(field(line, "cells"), Some("4"), "s27 scan view has 4 cells");
    }
    // Request ids round-trip in order.
    assert_eq!(field(lines[0], "id"), Some("a"));
    assert_eq!(field(lines[1], "id"), Some("b"));

    daemon.shutdown();
}

#[test]
fn obs_routes_and_statz_are_mounted() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig::default()).expect("start");
    let addr = daemon.addr();

    assert_eq!(get(addr, "/healthz").status, 200);
    assert_eq!(get(addr, "/readyz").status, 200, "ready while serving");
    assert_eq!(get(addr, "/metrics").status, 200);
    let statz = get(addr, "/statz");
    assert_eq!(statz.status, 200);
    assert!(statz.body.contains("\"queue_depth\""), "{}", statz.body);
    assert!(statz.body.contains("\"queue_capacity\""), "{}", statz.body);
    assert_eq!(get(addr, "/nope").status, 404);

    // Wrong methods on the two POST routes.
    let bad = roundtrip(addr, "PUT /diagnose HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(bad.status, 405);

    daemon.shutdown();
}

#[test]
fn head_answers_with_the_get_head_and_no_body() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig::default()).expect("start");
    let addr = daemon.addr();

    let full = get(addr, "/readyz");
    let head = roundtrip(addr, "HEAD /readyz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(head.status, full.status);
    assert_eq!(
        head.headers, full.headers,
        "HEAD must carry the GET headers"
    );
    assert_eq!(
        head.header("Content-Length"),
        Some(full.body.len().to_string().as_str())
    );
    assert_eq!(head.body, "", "nothing may follow the blank line");

    for path in ["/metrics", "/statz"] {
        let head = roundtrip(addr, &format!("HEAD {path} HTTP/1.1\r\nHost: t\r\n\r\n"));
        assert_eq!(head.status, 200, "{path}");
        assert_ne!(head.header("Content-Length"), Some("0"), "{path}");
        assert_eq!(head.body, "", "{path}: nothing may follow the blank line");
    }

    daemon.shutdown();
}

#[test]
fn malformed_lines_get_error_lines_not_connection_drops() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig::default()).expect("start");
    let addr = daemon.addr();

    // Line 1 is valid, line 2 is garbage, line 3 references a circuit
    // that does not exist.
    let batch = format!(
        "{}\nnot json at all\n{{\"id\":\"c\",\"circuit\":\"sNOPE\",\"groups\":2,\
         \"partitions\":3,\"patterns\":16,\"failing\":[[1],[],[]]}}\n",
        s27_line("a")
    );
    let reply = post_diagnose(addr, &batch);
    assert_eq!(
        reply.status, 200,
        "batch survives bad lines: {}",
        reply.body
    );
    let lines = reply.lines();
    assert_eq!(lines.len(), 3);
    assert_eq!(field(lines[0], "status"), Some("ok"));
    assert_eq!(field(lines[1], "status"), Some("error"));
    assert_eq!(field(lines[2], "status"), Some("error"));
    assert_eq!(field(lines[2], "id"), Some("c"), "id echoes even on error");
    assert_eq!(field(lines[2], "code"), Some("unknown-circuit"));

    // More groups than s27's 4 positions is a typed plan error, not a
    // worker panic.
    let too_many = "{\"id\":\"g\",\"circuit\":\"s27\",\"groups\":8,\"partitions\":3,\
                    \"patterns\":16,\"failing\":[[1],[],[]]}\n";
    let reply = post_diagnose(addr, too_many);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let line = reply.lines()[0];
    assert_eq!(field(line, "status"), Some("error"), "line: {line}");
    assert_eq!(field(line, "code"), Some("bad-plan"), "line: {line}");
    assert_eq!(field(line, "http"), Some("400"), "line: {line}");

    // An empty batch is a request-level 400.
    assert_eq!(post_diagnose(addr, "\n\n").status, 400);

    daemon.shutdown();
}

#[test]
fn full_queue_sheds_the_batch_with_429_and_retry_after() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        queue_capacity: 4,
        default_deadline_ms: 30_000,
        ..DaemonConfig::default()
    })
    .expect("start");
    let addr = daemon.addr();

    // One batch with more lines than the queue can hold. The first
    // line is admitted into an empty queue, so it runs a robust replay
    // that pins the single worker for milliseconds, while admission
    // needs microseconds to hit the bound.
    let mut batch = String::new();
    for i in 0..8 {
        batch.push_str(&format!("{}\n", s38417_robust_line(&format!("q{i}"), None)));
    }
    let reply = post_diagnose(addr, &batch);
    assert_eq!(reply.status, 429, "body: {}", reply.body);
    assert_eq!(
        reply.header("retry-after"),
        Some("1"),
        "shed says when to retry"
    );
    assert!(reply.body.contains("queue-full"), "{}", reply.body);
    assert!(reply.header("x-scanbist-trace").is_some());

    // The daemon is still healthy afterwards: once the lines admitted
    // before the shed have drained (cancelled, they are skipped or stop
    // between partitions), a small batch succeeds.
    wait_for_empty_queue(addr);
    let ok = post_diagnose(addr, &format!("{}\n", s27_line("after")));
    assert_eq!(ok.status, 200, "body: {}", ok.body);

    daemon.shutdown();
}

#[test]
fn expired_deadline_returns_504_and_cancels_work() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        queue_capacity: 256,
        ..DaemonConfig::default()
    })
    .expect("start");
    let addr = daemon.addr();

    // A full batch of robust replays on one worker cannot finish
    // inside the batch deadline of 1 ms that its first line sets.
    let mut batch = format!("{}\n", s38417_robust_line("late", Some(1)));
    for i in 1..256 {
        batch.push_str(&format!("{}\n", s38417_robust_line(&format!("l{i}"), None)));
    }
    let reply = post_diagnose(addr, &batch);
    assert_eq!(reply.status, 504, "body: {}", reply.body);
    assert!(reply.body.contains("deadline"), "{}", reply.body);
    assert!(reply.header("x-scanbist-trace").is_some());

    daemon.shutdown();
}

#[test]
fn cold_large_plan_meets_default_deadline() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig::default()).expect("start");
    let addr = daemon.addr();

    // A fresh daemon has no cached plan: this line pays the whole plan
    // build (partition synthesis for the scan length the circuit's
    // profile gives) inside the default deadline.
    let reply = post_diagnose(addr, &format!("{}\n", s38417_line("cold")));
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    let lines = reply.lines();
    assert_eq!(lines.len(), 1, "{}", reply.body);
    assert_eq!(field(lines[0], "status"), Some("ok"), "line: {}", lines[0]);
    assert_eq!(field(lines[0], "cells"), Some("1742"), "s38417 scan view");

    daemon.shutdown();
}

#[test]
fn drain_flips_readyz_sheds_new_work_and_exits_cleanly() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig {
        drain_ms: 2_000,
        ..DaemonConfig::default()
    })
    .expect("start");
    let addr = daemon.addr();
    assert_eq!(get(addr, "/readyz").status, 200);

    let drain = roundtrip(
        addr,
        "POST /admin/drain HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(drain.status, 200);
    assert!(drain.body.contains("draining"), "{}", drain.body);

    // Readiness goes false immediately; new diagnosis work is shed
    // with a retryable 503.
    assert_eq!(get(addr, "/readyz").status, 503, "draining is not ready");
    let shed = post_diagnose(addr, &format!("{}\n", s27_line("x")));
    assert_eq!(shed.status, 503);
    assert_eq!(shed.header("retry-after"), Some("1"));

    // wait() observes the drain request and joins everything.
    daemon.wait();
}

#[test]
fn chaos_injections_are_labeled_and_contained() {
    let _gate = lock();
    // latency=1.0 and panic=1.0 fire on every request: the response
    // carries the chaos header, and the injected worker panic becomes
    // a line-level `injected-panic` error inside an HTTP 200 — never
    // a crash, never an unlabeled 5xx.
    let chaos =
        ChaosConfig::parse("seed=11,latency=1.0,latency_ms=1,panic=1.0").expect("valid chaos spec");
    let daemon = Daemon::start(DaemonConfig {
        chaos: Some(chaos),
        ..DaemonConfig::default()
    })
    .expect("start");
    let addr = daemon.addr();

    let batch = format!("{}\n{}\n", s27_line("a"), s27_line("b"));
    let reply = post_diagnose(addr, &batch);
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    let chaos_header = reply.header("x-scanbist-chaos").expect("chaos header");
    assert!(chaos_header.contains("latency"), "{chaos_header}");
    let lines = reply.lines();
    assert_eq!(lines.len(), 2);
    // Exactly one injected panic per batch: the first job dies with a
    // labeled error, the second still completes.
    assert_eq!(field(lines[0], "status"), Some("error"));
    assert_eq!(field(lines[0], "code"), Some("injected-panic"));
    assert_eq!(field(lines[1], "status"), Some("ok"), "line: {}", lines[1]);

    daemon.shutdown();
}

/// Reads whatever the daemon sends on a connection that sent nothing.
fn read_unprompted(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut buffer = Vec::new();
    stream.read_to_end(&mut buffer).expect("read");
    String::from_utf8_lossy(&buffer).into_owned()
}

#[test]
fn connection_cap_refuses_the_excess_and_recovers() {
    let _gate = lock();
    let daemon = Daemon::start(DaemonConfig {
        max_connections: 2,
        ..DaemonConfig::default()
    })
    .expect("start");
    let addr = daemon.addr();

    // Two idle connections take both slots (each handler waits up to
    // its 2 s read timeout for a request that never comes). The accept
    // thread admits connections in order, so the third is the excess.
    let held: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let refused = read_unprompted(addr);
    assert!(
        refused.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
        "{refused}"
    );
    assert!(refused.contains("\r\nRetry-After: 1\r\n"), "{refused}");
    assert!(refused.contains("\"code\":\"overloaded\""), "{refused}");

    // Closing the held connections frees their slots (and parks their
    // handlers); a request is then served.
    // Until the handlers notice, a request may still be refused; the
    // refusal does not read the request, so the client may see a reset
    // or broken pipe instead of the 503.
    drop(held);
    let line = format!("{}\n", s27_line("after"));
    let raw = format!(
        "POST /diagnose HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{line}",
        line.len()
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match try_roundtrip(addr, &raw) {
            Ok(reply) if reply.status == 200 => {
                assert_eq!(field(&reply.body, "status"), Some("ok"), "{}", reply.body);
                break;
            }
            Ok(reply) => assert_eq!(reply.status, 503, "only the cap may refuse: {}", reply.body),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ),
                "{e}"
            ),
        }
        assert!(std::time::Instant::now() < deadline, "slots never freed");
        std::thread::sleep(Duration::from_millis(5));
    }

    daemon.shutdown();
}

fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0)
}

#[test]
fn sequential_batches_reuse_the_pool_and_are_all_counted() {
    let _gate = lock();
    scan_obs::init(&scan_obs::ObsConfig {
        metrics: true,
        ..scan_obs::ObsConfig::disabled()
    });
    let daemon = Daemon::start(DaemonConfig {
        max_connections: 4,
        ..DaemonConfig::default()
    })
    .expect("start");
    let addr = daemon.addr();

    let candidates = |line: &str| {
        let start = line.find("\"candidates\":").expect("candidates");
        let end = line[start..]
            .find("]]")
            .map_or(line.len(), |e| start + e + 2);
        line[start..end].to_owned()
    };
    let reference = post_diagnose(addr, &format!("{}\n", s27_line("ref")));
    assert_eq!(reference.status, 200, "{}", reference.body);
    let want = candidates(&reference.body);

    const BATCHES: usize = 120;
    for b in 0..BATCHES {
        let ids: Vec<String> = (0..=b % 3).map(|i| format!("seq{b}-{i}")).collect();
        let batch: String = ids.iter().map(|id| s27_line(id) + "\n").collect();
        let reply = post_diagnose(addr, &batch);
        assert_eq!(reply.status, 200, "batch {b}: {}", reply.body);
        let lines = reply.lines();
        assert_eq!(lines.len(), ids.len(), "batch {b}: {}", reply.body);
        for (line, id) in lines.iter().zip(&ids) {
            assert_eq!(field(line, "id"), Some(id.as_str()), "batch {b}: {line}");
            assert_eq!(field(line, "status"), Some("ok"), "batch {b}: {line}");
            assert_eq!(candidates(line), want, "batch {b}: {line}");
        }
    }

    // Handlers flush their counters after each connection. Park an idle
    // connection on a handler that served batches, so the scrapes below
    // land on other handlers and see only flushed counts. Scrapes count
    // as requests too, so the exact check is on batches. The polling
    // stops short of the 2 s read timeout that would free the parked
    // handler.
    std::thread::sleep(Duration::from_millis(50));
    let hold = TcpStream::connect(addr).expect("connect");
    let deadline = std::time::Instant::now() + Duration::from_millis(1500);
    loop {
        let metrics = get(addr, "/metrics").body;
        let batches = counter(&metrics, "scanbist_daemon_batches");
        assert!(batches <= BATCHES as u64 + 1, "{batches} batches counted");
        if batches == BATCHES as u64 + 1 {
            let requests = counter(&metrics, "scanbist_daemon_requests");
            assert!(requests > BATCHES as u64, "{requests} requests counted");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon.batches stuck at {batches} of {}",
            BATCHES + 1
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(hold);

    daemon.shutdown();
    scan_obs::reset();
}
