//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! workspace's public functions, kept in memory, and written out as
//! NDJSON when the run ends. The traced pass runs on one thread, so a
//! layer's time is the self time of its spans (duration minus that of
//! their children): layer times add up to the pass, with its
//! unattributed time as the residual.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::now;

/// One recorded span. `parent` is `0` for a root; ids start at 1.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The sink a [`Local`] flushes into.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: std::sync::atomic::AtomicU32,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: now(),
            next_id: std::sync::atomic::AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// A recorder for the calling thread, rooted at no span.
    #[must_use]
    pub fn local(&self) -> Local<'_> {
        Local {
            tracer: self,
            stack: Vec::new(),
            buf: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in id order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span sink poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// A counter's total over every flushed [`Local`].
    #[must_use]
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("counter sink poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Writes every span as one NDJSON record per line.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn write_ndjson(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// A per-thread recorder; flushes into its [`Tracer`] on drop.
pub struct Local<'t> {
    tracer: &'t Tracer,
    stack: Vec<(u32, &'static str, u64)>,
    buf: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl<'t> Local<'t> {
    /// Opens a span; close it with [`Local::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.tracer.enabled {
            return;
        }
        let id = self
            .tracer
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.stack.push((id, name, self.tracer.now_ns()));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let (id, name, start_ns) = self.stack.pop().expect("exit without enter");
        let parent = self.stack.last().map_or(0, |s| s.0);
        self.buf.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: self.tracer.now_ns(),
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Adds to a named counter.
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.tracer.enabled {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.append(&mut self.buf);
        }
        if let Ok(mut counts) = self.tracer.counts.lock() {
            for (name, value) in std::mem::take(&mut self.counts) {
                *counts.entry(name).or_insert(0.0) += value;
            }
        }
    }
}

/// Self time per span name, in seconds: each span's duration minus
/// its children's.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
    let mut children_s: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *children_s.entry(s.parent).or_insert(0.0) += dur(s);
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = dur(s) - children_s.get(&s.id).copied().unwrap_or(0.0);
        *out.entry(s.name).or_insert(0.0) += own.max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start * 1_000_000_000,
            end_ns: end * 1_000_000_000,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // A 10 s pass: 2 s of generation, then 6 s of fault work whose
        // `diag` calls take 5 s; 2 s of the pass and 1 s of the fault
        // work are unattributed.
        let spans = vec![
            span(1, 0, "pass", 0, 10),
            span(2, 1, "gen", 0, 2),
            span(3, 1, "fault", 2, 8),
            span(4, 3, "diag", 2, 4),
            span(5, 3, "diag", 4, 7),
        ];
        let t = self_times(&spans);
        let total: f64 = t.values().sum();
        assert!((total - 10.0).abs() < 1e-9, "{t:?}");
        assert!((t["gen"] - 2.0).abs() < 1e-9);
        assert!((t["diag"] - 5.0).abs() < 1e-9, "{t:?}");
        assert!((t["fault"] - 1.0).abs() < 1e-9);
        assert!((t["pass"] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_nests_spans_and_counts() {
        let tracer = Tracer::new(true);
        {
            let mut local = tracer.local();
            local.enter("pass");
            local.time("a", || std::hint::black_box(1 + 1));
            for i in 0..5 {
                local.add("items", 1.0);
                local.time("b", || std::hint::black_box(i * 2));
            }
            local.exit();
        }
        let spans = tracer.spans();
        assert!((tracer.count("items") - 5.0).abs() < f64::EPSILON);
        let pass = spans.iter().find(|s| s.name == "pass").unwrap();
        assert_eq!(pass.parent, 0);
        assert_eq!(spans.iter().filter(|s| s.name == "b").count(), 5);
        assert!(spans
            .iter()
            .filter(|s| s.name != "pass")
            .all(|s| s.parent == pass.id));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let mut local = tracer.local();
            local.time("a", || ());
            local.add("n", 1.0);
        }
        assert!(tracer.spans().is_empty());
        assert!(tracer.count("n").abs() < f64::EPSILON);
    }
}
