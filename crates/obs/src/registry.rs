//! The sharded recording substrate behind spans and metrics.
//!
//! Every recording thread owns a thread-local `Shard` holding its own
//! counter/histogram maps, open-span stack, and event buffer, so workers
//! spawned by `std::thread::scope` record without touching a shared
//! lock. A shard folds itself into the process-wide `Global` state
//! exactly once — when its thread exits (TLS drop) or when the owning
//! thread calls [`flush_thread`] — which is the only time the global
//! mutex is taken on the recording side.
//!
//! The fast path when observability is disabled is a single relaxed
//! atomic load of `STATE`; no thread-local access, no allocation, no
//! branch beyond the flag test.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Bit in `STATE`: spans and NDJSON events are recorded.
pub const TRACE: u8 = 1;
/// Bit in `STATE`: counters and histograms are recorded.
pub const METRICS: u8 = 2;
/// Bit in `STATE`: rate-limited progress lines go to stderr.
pub const PROGRESS: u8 = 4;

/// The global enable mask. All recording entry points load this with
/// [`Ordering::Relaxed`] and return immediately when their bit is
/// clear — the entire disabled-mode overhead.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Current enable mask (a single relaxed atomic load).
#[inline]
#[must_use]
pub fn state() -> u8 {
    STATE.load(Ordering::Relaxed)
}

/// True if span tracing is enabled.
#[inline]
#[must_use]
pub fn trace_enabled() -> bool {
    state() & TRACE != 0
}

/// True if counter/histogram recording is enabled.
#[inline]
#[must_use]
pub fn metrics_enabled() -> bool {
    state() & METRICS != 0
}

/// True if progress reporting is enabled.
#[inline]
#[must_use]
pub fn progress_enabled() -> bool {
    state() & PROGRESS != 0
}

pub(crate) fn set_state(mask: u8) {
    STATE.store(mask, Ordering::Relaxed);
}

/// Aggregated statistics of one span path.
#[derive(Clone, Copy, Debug, Default, Eq, PartialEq)]
pub struct SpanStat {
    /// Completed spans recorded under this path.
    pub count: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Wall time excluding child spans, nanoseconds.
    pub self_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    fn absorb(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// One completed span, as streamed to the NDJSON exporter.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct SpanEvent {
    /// Slash-separated nesting path, e.g. `prepare/fault_sim`.
    pub path: String,
    /// Recording thread's obs-assigned id (0 = first registered).
    pub thread: u32,
    /// Start offset from the observability epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the observability epoch, nanoseconds.
    pub end_ns: u64,
}

/// A fixed-bucket histogram: `counts[i]` tallies values `v` with
/// `edges[i-1] < v <= edges[i]`; the final bucket is the overflow
/// (`v > edges.last()`).
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Histogram {
    /// Ascending inclusive upper bucket edges.
    pub edges: Vec<u64>,
    /// Per-bucket tallies, `edges.len() + 1` long.
    pub counts: Vec<u64>,
    /// Number of recorded values.
    pub total: u64,
    /// Sum of recorded values (for means).
    pub sum: u64,
}

impl Histogram {
    fn new(edges: &[u64]) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must ascend");
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            total: 0,
            sum: 0,
        }
    }

    fn record(&mut self, value: u64) {
        let bucket = self.edges.partition_point(|&e| e < value);
        // lint:allow(L012): `bucket <= edges.len()` and `counts.len() == edges.len() + 1`
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum += value;
    }

    fn absorb(&mut self, other: &Histogram) {
        if self.edges == other.edges {
            for (c, o) in self.counts.iter_mut().zip(&other.counts) {
                *c += o;
            }
        } else {
            // Mismatched edge sets for one name (a caller bug): fold the
            // other side's tallies into the overflow bucket rather than
            // losing or corrupting them.
            debug_assert!(false, "histogram edge mismatch");
            if let Some(last) = self.counts.last_mut() {
                *last += other.total;
            }
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

/// Everything one thread records before folding into `Global`.
struct Shard {
    thread: u32,
    epoch: Instant,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    span_stats: BTreeMap<String, SpanStat>,
    events: Vec<SpanEvent>,
    stack: Vec<OpenSpan>,
}

struct OpenSpan {
    path: String,
    start_ns: u64,
    child_ns: u64,
}

impl Shard {
    fn register() -> Self {
        let mut g = lock_global();
        let thread = g.next_thread;
        g.next_thread += 1;
        Shard {
            thread,
            epoch: g.epoch,
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            span_stats: BTreeMap::new(),
            events: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        lock_global().absorb(self);
    }
}

/// The process-wide merged state, only touched at shard boundaries and
/// by the exporters.
pub(crate) struct Global {
    epoch: Instant,
    next_thread: u32,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    span_stats: BTreeMap<String, SpanStat>,
    events: Vec<SpanEvent>,
}

impl Global {
    fn new() -> Self {
        Global {
            epoch: Instant::now(),
            next_thread: 0,
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            span_stats: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    fn absorb(&mut self, shard: &mut Shard) {
        for (name, value) in std::mem::take(&mut shard.counters) {
            *self.counters.entry(name).or_insert(0) += value;
        }
        for (name, hist) in std::mem::take(&mut shard.histograms) {
            match self.histograms.entry(name) {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(hist);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    o.get_mut().absorb(&hist);
                }
            }
        }
        for (path, stat) in std::mem::take(&mut shard.span_stats) {
            self.span_stats.entry(path).or_default().absorb(&stat);
        }
        self.events.append(&mut shard.events);
        shard.stack.clear();
    }

    fn reset(&mut self) {
        self.epoch = Instant::now();
        self.next_thread = 0;
        self.counters.clear();
        self.histograms.clear();
        self.span_stats.clear();
        self.events.clear();
    }
}

static GLOBAL: OnceLock<Mutex<Global>> = OnceLock::new();

fn global() -> &'static Mutex<Global> {
    GLOBAL.get_or_init(|| Mutex::new(Global::new()))
}

/// Locks the global state, recovering from poisoning (a panicking
/// recording thread must not take observability down with it).
fn lock_global() -> std::sync::MutexGuard<'static, Global> {
    global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    static SHARD: RefCell<Option<Shard>> = const { RefCell::new(None) };
}

fn with_shard<R>(f: impl FnOnce(&mut Shard) -> R) -> Option<R> {
    SHARD
        .try_with(|cell| {
            let mut opt = cell.borrow_mut();
            let shard = opt.get_or_insert_with(Shard::register);
            f(shard)
        })
        .ok()
}

/// Folds the calling thread's shard into the global state. Exporters
/// call this before reading; worker threads fold automatically on exit.
/// Any spans still open on this thread are discarded.
pub fn flush_thread() {
    let _ = SHARD.try_with(|cell| cell.borrow_mut().take());
}

/// Resets the process-wide epoch and discards all recorded data and the
/// calling thread's shard. Called by [`crate::init`]; also the test
/// isolation hook.
pub fn reset() {
    flush_thread();
    lock_global().reset();
}

// ---- recording entry points (called by span/metrics modules, which
// ---- have already checked the relevant STATE bit) ----

pub(crate) fn push_span(name: &str) {
    let _ = with_shard(|s| {
        let path = match s.stack.last() {
            Some(parent) => format!("{}/{name}", parent.path),
            None => name.to_owned(),
        };
        let start_ns = s.now_ns();
        s.stack.push(OpenSpan {
            path,
            start_ns,
            child_ns: 0,
        });
    });
}

pub(crate) fn pop_span() {
    let _ = with_shard(|s| {
        let Some(open) = s.stack.pop() else {
            return;
        };
        let end_ns = s.now_ns();
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = s.stack.last_mut() {
            parent.child_ns += dur;
        }
        let stat = s.span_stats.entry(open.path.clone()).or_default();
        stat.count += 1;
        stat.total_ns += dur;
        stat.self_ns += dur.saturating_sub(open.child_ns);
        stat.max_ns = stat.max_ns.max(dur);
        let thread = s.thread;
        // Flight-recorder hook: one relaxed load when no recorder is
        // installed, a bounded ring push when one is.
        if crate::recorder::span_hook_enabled() {
            crate::recorder::record_span_close(&open.path, thread, open.start_ns, end_ns);
        }
        s.events.push(SpanEvent {
            path: open.path,
            thread,
            start_ns: open.start_ns,
            end_ns,
        });
    });
}

pub(crate) fn add_counter(name: &str, delta: u64) {
    let _ = with_shard(|s| {
        if let Some(existing) = s.counters.get_mut(name) {
            *existing += delta;
        } else {
            s.counters.insert(name.to_owned(), delta);
        }
    });
}

pub(crate) fn record_histogram(name: &str, edges: &[u64], value: u64) {
    let _ = with_shard(|s| {
        if let Some(existing) = s.histograms.get_mut(name) {
            existing.record(value);
        } else {
            let mut hist = Histogram::new(edges);
            hist.record(value);
            s.histograms.insert(name.to_owned(), hist);
        }
    });
}

/// A point-in-time copy of everything recorded so far (after flushing
/// the calling thread). Worker threads that have already exited are
/// included; still-running foreign threads are not.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Monotonic named counters.
    pub counters: BTreeMap<String, u64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-path aggregated span statistics.
    pub span_stats: BTreeMap<String, SpanStat>,
    /// Completed span events, sorted by start time then thread then
    /// path for a reproducible export order.
    pub events: Vec<SpanEvent>,
}

/// Nanoseconds elapsed since the observability epoch ([`crate::init`]
/// or the first recording, whichever came first). The same monotonic
/// timebase span events use, so time-series samples and spans line up.
#[must_use]
pub fn epoch_elapsed_ns() -> u64 {
    let epoch = lock_global().epoch;
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Takes a [`Snapshot`] of the merged global state.
#[must_use]
pub fn snapshot() -> Snapshot {
    flush_thread();
    let g = lock_global();
    let mut events = g.events.clone();
    events.sort_by(|a, b| {
        (a.start_ns, a.thread, &a.path, a.end_ns).cmp(&(b.start_ns, b.thread, &b.path, b.end_ns))
    });
    Snapshot {
        counters: g.counters.clone(),
        histograms: g.histograms.clone(),
        span_stats: g.span_stats.clone(),
        events,
    }
}
