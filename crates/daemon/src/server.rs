//! `scanbistd` — the diagnosis-as-a-service daemon.
//!
//! Three kinds of thread:
//!
//! * **Accept** — one thread owns the listener. A connection past
//!   `max_connections` gets `503 overloaded` at once; any other is
//!   handed to an idle connection handler through a [`BoundedQueue`]
//!   of capacity `max_connections`, or to a newly spawned handler when
//!   none is idle.
//! * **Connection handlers** — a pool that grows on demand up to
//!   `max_connections` and never shrinks. A handler reads one request,
//!   decodes and admits its lines, waits for the batch, writes the
//!   response, flushes its thread-local telemetry, and parks on the
//!   queue for the next connection. Drain closes the queue once the
//!   accept thread has exited, which releases the parked handlers.
//! * **Workers** — a fixed pool draining the bounded admission queue
//!   of diagnosis jobs, one job per request line.
//!
//! The daemon is engineered to degrade instead of falling over:
//!
//! * **Backpressure** — admission goes through a [`BoundedQueue`];
//!   when it is full the batch is refused with `429` and
//!   `Retry-After`, never buffered.
//! * **Deadlines** — each batch carries a deadline (the minimum of its
//!   lines' `deadline_ms` and the configured default). The connection
//!   handler waits no longer; on expiry it cancels the batch's
//!   [`CancelToken`] (workers stop between partition sessions) and
//!   answers `504`.
//! * **Load shedding** — before refusing work the daemon sheds
//!   *quality*: a job admitted into a queue at or beyond half capacity
//!   runs in degraded mode, dropping the robust retry/voting budget
//!   and answering from the single-pass reported-evidence path.
//! * **Drain** — `POST /admin/drain` (or [`Daemon::shutdown`]) flips
//!   `/readyz` to 503, refuses new diagnosis batches, finishes or
//!   times out in-flight work, stops accepting, releases the handler
//!   pool, closes the admission queue, joins the workers, and flushes
//!   telemetry.
//!
//! GET routes are shared with the rest of the workspace by mounting
//! [`scan_obs::serve::route`] (`/metrics`, `/metrics.json`, `/alerts.json`,
//! `/healthz`, `/readyz`, dashboards) next to the daemon's own
//! `/statz`. The [`crate::chaos`] layer, when enabled, injects its
//! faults in this module's connection and worker paths.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scan_diagnosis::ranking::SuspectRanking;
use scan_diagnosis::{
    diagnose_reported, diagnose_robust_cancellable, CancelToken, DiagnoseError, NoiseModel,
};
use scan_obs::http::{parse_request, write_reply, write_response, HttpError, Limits, Request};
use scan_obs::metrics;

use crate::cache::{CachedPlan, PlanCache};
use crate::chaos::{ChaosConfig, ChaosPlan};
use crate::protocol::{scheme_from_label, DiagnoseRequest, ErrorBody, OkLine};
use crate::queue::BoundedQueue;

/// Socket read/write timeout (slow-loris guard).
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Maximum request lines per batch.
const MAX_BATCH: usize = 256;

/// Daemon tuning knobs; `Default` is sized for tests and small hosts.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral one).
    pub addr: String,
    /// Worker threads; `0` means [`scan_diagnosis::parallel::available_threads`].
    pub workers: usize,
    /// Admission queue capacity (jobs, not batches).
    pub queue_capacity: usize,
    /// Maximum concurrent connections; excess get an immediate `503`.
    pub max_connections: usize,
    /// Default per-batch deadline when no line carries `deadline_ms`.
    pub default_deadline_ms: u64,
    /// How long [`Daemon::shutdown`] waits for in-flight batches.
    pub drain_ms: u64,
    /// Plan-cache capacity (distinct circuit configurations).
    pub cache_capacity: usize,
    /// Fault injection, from `SCANBIST_CHAOS`.
    pub chaos: Option<ChaosConfig>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            queue_capacity: 64,
            max_connections: 64,
            default_deadline_ms: 2_000,
            drain_ms: 5_000,
            cache_capacity: 8,
            chaos: None,
        }
    }
}

/// One queued diagnosis job (one NDJSON line of one batch).
struct Job {
    batch: Arc<Batch>,
    index: usize,
    request: DiagnoseRequest,
    /// Shedding tier at admission: `0` full service, `1` degraded.
    tier: u8,
    /// Chaos: panic the worker instead of diagnosing.
    injected_panic: bool,
}

/// Shared state of one in-flight batch.
struct Batch {
    state: Mutex<BatchState>,
    /// Signalled once, when the last queued line completes.
    done: Condvar,
    cancel: CancelToken,
    trace: String,
}

/// Response lines (parse errors filled in up front) and the number of
/// queued lines still out. Every update leaves both valid, so a
/// poisoned lock is still safe to read.
struct BatchState {
    results: Vec<Option<String>>,
    remaining: usize,
}

impl Batch {
    fn complete(&self, index: usize, line: String) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slot) = state.results.get_mut(index) {
            *slot = Some(line);
        }
        state.remaining = state.remaining.saturating_sub(1);
        if state.remaining == 0 {
            drop(state);
            self.done.notify_all();
        }
    }

    /// Waits until every queued line is complete, or `deadline`
    /// passes (`None`), and takes the response lines.
    fn wait(&self, deadline: Instant) -> Option<Vec<Option<String>>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while state.remaining > 0 {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            state = self
                .done
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        Some(std::mem::take(&mut state.results))
    }
}

struct Inner {
    config: DaemonConfig,
    addr: SocketAddr,
    queue: BoundedQueue<Job>,
    cache: PlanCache,
    draining: AtomicBool,
    accepting: AtomicBool,
    /// Connections admitted and not yet finished (queued or handled).
    active_conns: AtomicUsize,
    /// Accepted connections handed to the handler pool.
    conns: BoundedQueue<TcpStream>,
    /// Handlers parked (or about to park) on `conns` that no queued
    /// connection has claimed yet.
    idle_handlers: AtomicUsize,
    inflight_batches: Mutex<usize>,
    inflight_done: Condvar,
    requests: AtomicU64,
    drain_requested: Mutex<bool>,
    drain_cv: Condvar,
}

impl Inner {
    /// Flags the daemon for drain: `/readyz` flips to 503 and new
    /// diagnosis batches are refused.
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            scan_obs::serve::set_ready(false);
            metrics::incr("daemon.drains");
        }
    }

    /// [`Inner::begin_drain`], then wakes [`Daemon::wait`], which may
    /// drain and let the process exit at once.
    fn request_drain(&self) {
        self.begin_drain();
        if let Ok(mut requested) = self.drain_requested.lock() {
            *requested = true;
        }
        self.drain_cv.notify_all();
    }
}

/// A running daemon; dropping it without [`Daemon::shutdown`] leaves
/// threads running for the life of the process.
pub struct Daemon {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds, spawns the worker pool and the accept thread, and
    /// returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: DaemonConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let worker_count = if config.workers == 0 {
            scan_diagnosis::parallel::available_threads()
        } else {
            config.workers
        };
        let inner = Arc::new(Inner {
            queue: BoundedQueue::new(config.queue_capacity),
            cache: PlanCache::new(config.cache_capacity),
            conns: BoundedQueue::new(config.max_connections),
            config,
            addr,
            draining: AtomicBool::new(false),
            accepting: AtomicBool::new(true),
            active_conns: AtomicUsize::new(0),
            idle_handlers: AtomicUsize::new(0),
            inflight_batches: Mutex::new(0),
            inflight_done: Condvar::new(),
            requests: AtomicU64::new(0),
            drain_requested: Mutex::new(false),
            drain_cv: Condvar::new(),
        });
        scan_obs::serve::set_ready(true);
        let workers = (0..worker_count.max(1))
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("scanbistd-worker-{w}"))
                    .spawn(move || worker_loop(&inner))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("scanbistd-accept".to_owned())
                .spawn(move || accept_loop(&listener, &inner))?
        };
        Ok(Daemon {
            inner,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Flags the daemon for drain without blocking (same effect as
    /// `POST /admin/drain`).
    pub fn request_drain(&self) {
        self.inner.request_drain();
    }

    /// Blocks until a drain is requested (HTTP or
    /// [`Daemon::request_drain`]), then drains and joins everything.
    pub fn wait(mut self) {
        if let Ok(mut requested) = self.inner.drain_requested.lock() {
            while !*requested {
                match self.inner.drain_cv.wait(requested) {
                    Ok(r) => requested = r,
                    Err(_) => break,
                }
            }
        }
        self.drain_and_join();
    }

    /// Drains immediately: refuse new work, wait (bounded) for
    /// in-flight batches, stop accepting, close the queue, join all
    /// threads, flush telemetry.
    pub fn shutdown(mut self) {
        self.inner.request_drain();
        self.drain_and_join();
    }

    fn drain_and_join(&mut self) {
        let inner = &self.inner;
        // 1. Bounded wait for in-flight batches to finish.
        let deadline = Instant::now() + Duration::from_millis(inner.config.drain_ms);
        if let Ok(mut inflight) = inner.inflight_batches.lock() {
            while *inflight > 0 {
                let now = Instant::now();
                if now >= deadline {
                    metrics::incr("daemon.drain_timeouts");
                    break;
                }
                match inner.inflight_done.wait_timeout(inflight, deadline - now) {
                    Ok((g, _)) => inflight = g,
                    Err(_) => break,
                }
            }
        }
        // 2. Stop accepting; nudge the blocked accept() with one last
        //    connection so the thread observes the flag.
        inner.accepting.store(false, Ordering::SeqCst);
        if let Ok(nudge) = TcpStream::connect(inner.addr) {
            drop(nudge);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // 3. Release the parked connection handlers. A handler still
        //    answering a connection exits once it is done; handlers are
        //    not joined, so a slow client cannot hold up the drain.
        inner.conns.close();
        // 4. Close the queue: queued jobs drain, then workers exit.
        //    Any batch still waiting on those jobs is cancelled so its
        //    connection answers promptly instead of riding its full
        //    deadline.
        inner.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        scan_obs::registry::flush_thread();
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    let mut handlers = 0usize;
    for stream in listener.incoming() {
        if !inner.accepting.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if inner.active_conns.load(Ordering::SeqCst) >= inner.config.max_connections {
            metrics::incr("daemon.conns_refused");
            refuse_connection(stream);
            continue;
        }
        inner.active_conns.fetch_add(1, Ordering::SeqCst);
        let claimed = inner
            .idle_handlers
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |idle| {
                idle.checked_sub(1)
            })
            .is_ok();
        if !claimed && handlers < inner.config.max_connections {
            let conn_inner = Arc::clone(inner);
            let spawned = std::thread::Builder::new()
                .name(format!("scanbistd-conn-{handlers}"))
                .spawn(move || handler_loop(&conn_inner, stream));
            match spawned {
                Ok(_) => handlers += 1,
                Err(_) => {
                    inner.active_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
        } else if inner.conns.try_push(stream).is_err() {
            // The pool is closed: the daemon is shutting down.
            inner.active_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
    scan_obs::registry::flush_thread();
}

/// A pooled connection handler: answers the connection it was spawned
/// for, then parks on `inner.conns` for the next one until drain
/// closes the pool.
fn handler_loop(inner: &Arc<Inner>, first: TcpStream) {
    let mut next = Some(first);
    while let Some(stream) = next {
        handle_connection(inner, stream);
        // Turn claimable before freeing the connection slot: every
        // unclaimed handler then holds an admitted connection, so the
        // accept thread never finds a free slot with no idle handler
        // and the pool at its cap.
        inner.idle_handlers.fetch_add(1, Ordering::SeqCst);
        inner.active_conns.fetch_sub(1, Ordering::SeqCst);
        scan_obs::registry::flush_thread();
        next = inner.conns.pop();
    }
}

fn refuse_connection(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let body = ErrorBody {
        code: "overloaded",
        http: 503,
        message: "connection limit reached".to_owned(),
    }
    .render(None);
    let _ = write_response(
        &mut stream,
        503,
        "application/json",
        body.as_bytes(),
        &[("Retry-After", "1".to_owned())],
    );
}

fn handle_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let request_index = inner.requests.fetch_add(1, Ordering::SeqCst);
    let chaos = inner
        .config
        .chaos
        .map(|c| c.plan(request_index))
        .unwrap_or_default();
    if chaos.pre_read_delay_ms > 0 {
        metrics::incr("daemon.chaos.slow_reads");
        std::thread::sleep(Duration::from_millis(chaos.pre_read_delay_ms));
    }
    let request = {
        let mut reader = &stream;
        parse_request(&mut reader, &Limits::default())
    };
    let request = match request {
        Ok(request) => request,
        Err(HttpError::Closed) => return,
        Err(e) => {
            metrics::incr("daemon.http_errors");
            let status = e.status().unwrap_or(400);
            let body = ErrorBody::from_http_error(&e).render(None);
            let _ = write_response(
                &mut stream,
                status,
                "application/json",
                body.as_bytes(),
                &[],
            );
            return;
        }
    };
    metrics::incr("daemon.requests");
    match (request.method.as_str(), request.path()) {
        (method @ ("GET" | "HEAD"), "/statz") => {
            let body = statz(inner);
            let _ = write_reply(
                &mut stream,
                method,
                200,
                "application/json",
                body.as_bytes(),
            );
        }
        (method @ ("GET" | "HEAD"), path) => {
            let (status, content_type, body) = scan_obs::serve::route(path);
            let _ = write_reply(&mut stream, method, status, content_type, body.as_bytes());
        }
        ("POST", "/admin/drain") => {
            inner.begin_drain();
            let _ = write_response(
                &mut stream,
                200,
                "application/json",
                b"{\"status\":\"draining\"}",
                &[],
            );
            // Wake `Daemon::wait` only once the reply is written: an
            // idle daemon drains in microseconds, and the process must
            // not exit before this connection has its answer.
            inner.request_drain();
        }
        ("POST", "/diagnose") => {
            handle_diagnose(inner, &mut stream, request, &chaos, request_index);
        }
        (_, "/diagnose" | "/admin/drain") => {
            let body = ErrorBody {
                code: "method-not-allowed",
                http: 405,
                message: "use POST".to_owned(),
            }
            .render(None);
            let _ = write_response(&mut stream, 405, "application/json", body.as_bytes(), &[]);
        }
        _ => {
            let body = ErrorBody {
                code: "not-found",
                http: 404,
                message: format!("no route for {}", request.path()),
            }
            .render(None);
            let _ = write_response(&mut stream, 404, "application/json", body.as_bytes(), &[]);
        }
    }
}

/// The daemon's own status endpoint.
fn statz(inner: &Inner) -> String {
    format!(
        "{{\"queue_depth\":{},\"queue_capacity\":{},\"active_connections\":{},\"draining\":{},\"cached_plans\":{}}}",
        inner.queue.depth(),
        inner.queue.capacity(),
        inner.active_conns.load(Ordering::SeqCst),
        inner.draining.load(Ordering::SeqCst),
        inner.cache.len(),
    )
}

/// Tracks a batch through `inner.inflight_batches` for drain.
struct InflightGuard<'a>(&'a Inner);

impl<'a> InflightGuard<'a> {
    fn enter(inner: &'a Inner) -> Self {
        if let Ok(mut inflight) = inner.inflight_batches.lock() {
            *inflight += 1;
        }
        InflightGuard(inner)
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if let Ok(mut inflight) = self.0.inflight_batches.lock() {
            *inflight = inflight.saturating_sub(1);
        }
        self.0.inflight_done.notify_all();
    }
}

#[allow(clippy::too_many_lines)]
fn handle_diagnose(
    inner: &Arc<Inner>,
    stream: &mut TcpStream,
    request: Request,
    chaos: &ChaosPlan,
    request_index: u64,
) {
    if inner.draining.load(Ordering::SeqCst) {
        metrics::incr("daemon.shed_draining");
        let body = ErrorBody {
            code: "draining",
            http: 503,
            message: "daemon is draining; retry against another instance".to_owned(),
        }
        .render(None);
        let _ = write_response(
            stream,
            503,
            "application/json",
            body.as_bytes(),
            &[("Retry-After", "1".to_owned())],
        );
        return;
    }
    let mut body = request.body;
    if chaos.corrupt_body {
        metrics::incr("daemon.chaos.corrupted");
        if let Some(config) = &inner.config.chaos {
            config.corrupt(request_index, &mut body);
        }
    }
    let text = String::from_utf8_lossy(&body);
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    if lines.is_empty() {
        let body = ErrorBody::bad_request("empty batch: no NDJSON lines".to_owned()).render(None);
        let _ = write_response(stream, 400, "application/json", body.as_bytes(), &[]);
        return;
    }
    if lines.len() > MAX_BATCH {
        let body = ErrorBody {
            code: "batch-too-large",
            http: 413,
            message: format!("{} lines; the batch limit is {MAX_BATCH}", lines.len()),
        }
        .render(None);
        let _ = write_response(stream, 413, "application/json", body.as_bytes(), &[]);
        return;
    }
    let _inflight = InflightGuard::enter(inner);
    metrics::incr("daemon.batches");
    metrics::add("daemon.lines", lines.len() as u64);

    // Parse every line up front; parse failures become response lines
    // without consuming queue slots.
    let mut results = vec![None; lines.len()];
    let mut jobs = Vec::with_capacity(lines.len());
    let mut min_deadline_ms = inner.config.default_deadline_ms;
    for (index, line) in lines.iter().enumerate() {
        match DiagnoseRequest::parse_line(line) {
            Ok(parsed) => {
                if let Some(deadline) = parsed.deadline_ms {
                    min_deadline_ms = min_deadline_ms.min(deadline.max(1));
                }
                jobs.push((index, parsed));
            }
            Err((id, error)) => {
                metrics::incr("daemon.parse_errors");
                if let Some(slot) = results.get_mut(index) {
                    *slot = Some(error.render(id.as_deref()));
                }
            }
        }
    }
    let batch = Arc::new(Batch {
        state: Mutex::new(BatchState {
            results,
            remaining: jobs.len(),
        }),
        done: Condvar::new(),
        cancel: CancelToken::new(),
        trace: scan_obs::context::generate_trace_id(),
    });

    // Admission: push every job or shed the whole batch with 429.
    let mut peak_depth = 0usize;
    let capacity = inner.queue.capacity();
    let panic_used = std::sync::atomic::AtomicBool::new(false);
    for (index, parsed) in jobs {
        let depth_before = inner.queue.depth();
        let tier = u8::from((depth_before + 1) * 2 >= capacity);
        // Inject at most one worker panic per batch, on its first job.
        let injected_panic = chaos.panic_worker && !panic_used.swap(true, Ordering::SeqCst);
        let job = Job {
            batch: Arc::clone(&batch),
            index,
            request: parsed,
            tier,
            injected_panic,
        };
        match inner.queue.try_push(job) {
            Ok(depth) => {
                peak_depth = peak_depth.max(depth);
                metrics::record_pow2("daemon.queue_depth", depth as u64);
            }
            Err(_rejected) => {
                metrics::incr("daemon.shed_429");
                metrics::record_pow2("daemon.queue_depth", capacity as u64);
                // Already-admitted jobs of this batch are wasted work:
                // cancel so workers skip them between partitions.
                batch.cancel.cancel();
                let body = ErrorBody {
                    code: "queue-full",
                    http: 429,
                    message: format!("admission queue full ({capacity} jobs); retry later"),
                }
                .render(None);
                let _ = write_response(
                    stream,
                    429,
                    "application/json",
                    body.as_bytes(),
                    &[
                        ("Retry-After", "1".to_owned()),
                        ("X-Scanbist-Trace", batch.trace.clone()),
                    ],
                );
                return;
            }
        }
    }

    // Wait for the workers, bounded by the batch deadline.
    let deadline = Instant::now() + Duration::from_millis(min_deadline_ms.max(1));
    let Some(results) = batch.wait(deadline) else {
        batch.cancel.cancel();
        metrics::incr("daemon.deadline_504");
        let body = ErrorBody {
            code: "deadline",
            http: 504,
            message: format!("batch deadline of {min_deadline_ms} ms expired"),
        }
        .render(None);
        let _ = write_response(
            stream,
            504,
            "application/json",
            body.as_bytes(),
            &[("X-Scanbist-Trace", batch.trace.clone())],
        );
        return;
    };

    let mut response = String::new();
    for line in &results {
        match line {
            Some(line) => response.push_str(line),
            None => response.push_str(
                &ErrorBody {
                    code: "internal",
                    http: 500,
                    message: "result missing".to_owned(),
                }
                .render(None),
            ),
        }
        response.push('\n');
    }
    if chaos.extra_latency_ms > 0 {
        metrics::incr("daemon.chaos.delays");
        std::thread::sleep(Duration::from_millis(chaos.extra_latency_ms));
    }
    let mut headers = vec![
        ("X-Scanbist-Trace", batch.trace.clone()),
        ("X-Queue-Depth", peak_depth.to_string()),
        ("X-Queue-Capacity", capacity.to_string()),
    ];
    if chaos.any() {
        headers.push(("X-Scanbist-Chaos", chaos.labels()));
    }
    if chaos.truncate_response {
        metrics::incr("daemon.chaos.truncated");
        truncate_write(stream, response.as_bytes(), &headers);
        return;
    }
    let _ = write_response(
        stream,
        200,
        "application/x-ndjson",
        response.as_bytes(),
        &headers,
    );
}

/// Chaos: write full headers but only half the body, then hang up.
fn truncate_write(stream: &mut TcpStream, body: &[u8], headers: &[(&str, String)]) {
    let mut head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    // lint:allow(L012): `len / 2 <= len`, the slice is always in range
    let _ = stream.write_all(&body[..body.len() / 2]);
    let _ = stream.flush();
}

fn worker_loop(inner: &Arc<Inner>) {
    while let Some(job) = inner.queue.pop() {
        let injected = job.injected_panic;
        let id = job.request.id.clone();
        let line =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_job(inner, &job)))
                .unwrap_or_else(|_| {
                    let code = if injected {
                        "injected-panic"
                    } else {
                        "internal"
                    };
                    if !injected {
                        metrics::incr("daemon.worker_panics");
                    }
                    ErrorBody {
                        code,
                        http: 500,
                        message: "diagnosis worker panicked".to_owned(),
                    }
                    .render(Some(&id))
                });
        job.batch.complete(job.index, line);
    }
    scan_obs::registry::flush_thread();
}

fn execute_job(inner: &Arc<Inner>, job: &Job) -> String {
    if job.injected_panic {
        metrics::incr("daemon.chaos.panics");
        panic!("chaos: injected worker panic");
    }
    let request = &job.request;
    let cancel = &job.batch.cancel;
    if cancel.is_cancelled() {
        metrics::incr("daemon.jobs_skipped");
        return ErrorBody::from_diagnose_error(&DiagnoseError::Cancelled {
            completed_partitions: 0,
        })
        .render(Some(&request.id));
    }
    let started = Instant::now();
    let built = inner
        .cache
        .get_or_build(&request.cache_key(), || build_plan(request));
    let cached = match built {
        Ok(cached) => cached,
        Err(error) => return error.render(Some(&request.id)),
    };
    let outcome = request.outcome();
    let degraded_by_load = job.tier >= 1;
    let robust_replay = request
        .robust
        .filter(|r| !degraded_by_load && (r.flip > 0.0 || r.dropout > 0.0));
    let result = match robust_replay {
        Some(params) => {
            let noise = match NoiseModel::new(params.noise_config()) {
                Ok(noise) => noise,
                Err(e) => {
                    return ErrorBody {
                        code: "bad-noise",
                        http: 400,
                        message: e.to_string(),
                    }
                    .render(Some(&request.id));
                }
            };
            diagnose_robust_cancellable(
                &cached.plan,
                &outcome,
                &noise,
                &params.policy(),
                params.seed,
                cancel,
            )
        }
        None => diagnose_reported(&cached.plan, &outcome, cancel),
    };
    let mode = if request.robust.is_some() && degraded_by_load {
        metrics::incr("daemon.degraded");
        "degraded"
    } else {
        "full"
    };
    match result {
        Ok(diagnosis) => {
            let rank_outcome = diagnosis.verdicts.to_outcome();
            let ranking =
                SuspectRanking::compute(&cached.plan, &rank_outcome, &diagnosis.candidates);
            let top: Vec<(usize, f64)> = ranking
                .suspects()
                .iter()
                .take(request.top)
                .copied()
                .collect();
            let reason = diagnosis
                .inconclusive
                .map(scan_diagnosis::InconclusiveReason::label);
            #[allow(clippy::cast_possible_truncation)]
            let elapsed_us = started.elapsed().as_micros() as u64;
            metrics::record_pow2("daemon.job_us", elapsed_us);
            OkLine {
                id: &request.id,
                mode,
                confidence: diagnosis.confidence.label(),
                reason,
                candidates: &top,
                cells: cached.cells,
                elapsed_us,
                trace: &job.batch.trace,
            }
            .render()
        }
        Err(error) => {
            metrics::incr("daemon.job_errors");
            ErrorBody::from_diagnose_error(&error).render(Some(&request.id))
        }
    }
}

/// Builds a plan for the cache: resolve the circuit's scan-chain
/// length from its published profile, synthesize partitions. The
/// netlist itself is never built.
fn build_plan(request: &DiagnoseRequest) -> Result<CachedPlan, ErrorBody> {
    let Some(cells) = scan_netlist::generate::natural_scan_len(&request.circuit) else {
        return Err(ErrorBody {
            code: "unknown-circuit",
            http: 404,
            message: format!("unknown circuit `{}`", request.circuit),
        });
    };
    let scheme = scheme_from_label(request.scheme).map_err(ErrorBody::bad_request)?;
    let plan = scan_diagnosis::DiagnosisPlan::new(
        scan_diagnosis::ChainLayout::single_chain(cells),
        request.patterns,
        &scan_diagnosis::BistConfig::new(request.groups, request.partitions, scheme),
    )
    .map_err(|e| ErrorBody {
        code: "bad-plan",
        http: 400,
        message: e.to_string(),
    })?;
    Ok(CachedPlan { plan, cells })
}
