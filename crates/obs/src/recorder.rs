//! The black-box flight recorder: a bounded in-memory ring of recent
//! telemetry, dumped to disk on panic or error.
//!
//! A crashed campaign or worker subprocess normally leaves nothing —
//! [`crate::finish`] never runs, so the trace file is never written
//! and the operator reconstructs the failure from stderr scraps. When
//! a session enables the recorder (`--flight-recorder <path>`), the
//! observability layer keeps the most recent activity in a
//! fixed-capacity ring: span closes (hooked straight off the registry
//! pop), per-counter deltas between sampler ticks, the tick markers
//! themselves, and SLO alert transitions ([`crate::slo`]). The ring
//! bounds memory for arbitrarily long campaigns; old events fall off
//! the back.
//!
//! Two paths write the black box:
//!
//! * a **panic hook** (installed by [`crate::Session::start`],
//!   chaining the previous hook) dumps on any panic, so even an
//!   aborting worker leaves a post-mortem artifact;
//! * an explicit [`dump_on_error`] call on a non-panicking error exit
//!   ([`crate::Session::finish`] makes it when the run failed).
//!
//! A dump is two files: a versioned NDJSON stream at the configured
//! path — a `{"type":"flight"}` header, the ring events (`span`,
//! `delta`, `tick`, `alert` records, all validated by `obs-check`), and
//! the session's `context` record, every line trace-stamped so the dump
//! joins the parent trace under `obs-check --join` — plus a
//! human-readable `.txt` twin with the trace identity and the self-time
//! hot-spot table for at-a-glance triage.
//!
//! Everything here is lock-poison-tolerant and panic-free on the
//! recording path (lint L010): a flight recorder that can take the
//! host process down is worse than none.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::json::escape;
use crate::registry::Snapshot;
use crate::slo::AlertTransition;

/// Version stamped into the dump header; bump on breaking layout
/// changes.
pub const FLIGHT_VERSION: u64 = 1;

/// Default ring capacity (events) when the config leaves it zero.
pub const DEFAULT_CAPACITY: usize = 512;

/// One ring entry.
#[derive(Clone, Debug, PartialEq)]
enum Event {
    /// A completed span, straight from the registry pop.
    SpanClose {
        path: String,
        thread: u32,
        start_ns: u64,
        end_ns: u64,
    },
    /// A counter moved between two sampler ticks.
    Delta {
        name: String,
        delta: u64,
        total: u64,
        at_ns: u64,
    },
    /// One sampler tick: how many counters/series the snapshot held.
    Tick {
        at_ns: u64,
        counters: usize,
        histograms: usize,
    },
    /// An SLO alert fired or resolved.
    Alert(AlertTransition),
}

impl Event {
    fn ndjson_line(&self) -> String {
        match self {
            Event::SpanClose {
                path,
                thread,
                start_ns,
                end_ns,
            } => format!(
                "{{\"type\":\"span\",\"path\":{},\"thread\":{thread},\"start_ns\":{start_ns},\"end_ns\":{end_ns},\"dur_ns\":{}}}",
                escape(path),
                end_ns.saturating_sub(*start_ns)
            ),
            Event::Delta {
                name,
                delta,
                total,
                at_ns,
            } => format!(
                "{{\"type\":\"delta\",\"name\":{},\"delta\":{delta},\"total\":{total},\"at_ns\":{at_ns}}}",
                escape(name)
            ),
            Event::Tick {
                at_ns,
                counters,
                histograms,
            } => format!(
                "{{\"type\":\"tick\",\"at_ns\":{at_ns},\"counters\":{counters},\"histograms\":{histograms}}}"
            ),
            Event::Alert(t) => t.ndjson_line(),
        }
    }
}

struct Recorder {
    path: PathBuf,
    capacity: usize,
    ring: VecDeque<Event>,
    /// Counter totals at the previous tick, for delta extraction.
    last_totals: BTreeMap<String, u64>,
    /// Set once a dump has been written, so a panic during `finish`
    /// after an explicit dump does not overwrite the first artifact.
    dumped: bool,
}

impl Recorder {
    fn push(&mut self, event: Event) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(event);
    }
}

static ACTIVE: Mutex<Option<Recorder>> = Mutex::new(None);

/// Relaxed fast-path gate for the registry span hook: true only while
/// a recorder is installed.
static SPAN_HOOK: AtomicBool = AtomicBool::new(false);

/// One-time panic-hook registration (the hook itself checks
/// [`ACTIVE`], so it is inert once the recorder is cleared).
static PANIC_HOOK: std::sync::Once = std::sync::Once::new();

fn lock_active() -> std::sync::MutexGuard<'static, Option<Recorder>> {
    ACTIVE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs the flight recorder: events start accumulating in a ring
/// of `capacity` entries (0 selects [`DEFAULT_CAPACITY`]) and a panic
/// anywhere in the process dumps the black box to `path` (plus a
/// `.txt` human summary next to it). Idempotent per session; a second
/// install replaces the ring.
pub fn install(path: &Path, capacity: usize) {
    *lock_active() = Some(Recorder {
        path: path.to_path_buf(),
        capacity: if capacity == 0 {
            DEFAULT_CAPACITY
        } else {
            capacity.max(2)
        },
        ring: VecDeque::new(),
        last_totals: BTreeMap::new(),
        dumped: false,
    });
    SPAN_HOOK.store(true, Ordering::Relaxed);
    PANIC_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            match dump("panic") {
                Ok(Some(path)) => {
                    eprintln!("obs: flight recorder dumped to {}", path.display());
                }
                Ok(None) => {}
                Err(err) => eprintln!("obs: flight recorder dump failed: {err}"),
            }
            previous(info);
        }));
    });
}

/// True while a recorder is installed (drives `--flight-recorder`
/// forwarding to worker subprocesses).
#[must_use]
pub fn is_installed() -> bool {
    lock_active().is_some()
}

/// Uninstalls the recorder and drops its ring. Called by
/// [`crate::reset`].
pub fn clear() {
    SPAN_HOOK.store(false, Ordering::Relaxed);
    *lock_active() = None;
}

/// The registry span hook's fast-path gate: a single relaxed load.
#[inline]
#[must_use]
pub(crate) fn span_hook_enabled() -> bool {
    SPAN_HOOK.load(Ordering::Relaxed)
}

/// Records one completed span (called from the registry pop under the
/// [`span_hook_enabled`] gate).
pub(crate) fn record_span_close(path: &str, thread: u32, start_ns: u64, end_ns: u64) {
    if let Some(recorder) = lock_active().as_mut() {
        recorder.push(Event::SpanClose {
            path: path.to_owned(),
            thread,
            start_ns,
            end_ns,
        });
    }
}

/// Records one sampler tick: a tick marker plus one delta event per
/// counter that moved since the previous tick. No-op when no recorder
/// is installed.
pub fn record_tick(snapshot: &Snapshot, at_ns: u64) {
    if let Some(recorder) = lock_active().as_mut() {
        let mut deltas = Vec::new();
        for (name, &total) in &snapshot.counters {
            let last = recorder.last_totals.get(name).copied().unwrap_or(0);
            if total != last {
                deltas.push(Event::Delta {
                    name: name.clone(),
                    delta: total.saturating_sub(last),
                    total,
                    at_ns,
                });
            }
        }
        recorder.last_totals = snapshot.counters.clone();
        recorder.push(Event::Tick {
            at_ns,
            counters: snapshot.counters.len(),
            histograms: snapshot.histograms.len(),
        });
        for delta in deltas {
            recorder.push(delta);
        }
    }
}

/// Records an SLO alert transition (called by [`crate::slo`]'s tick).
pub fn record_alert(transition: &AlertTransition) {
    if let Some(recorder) = lock_active().as_mut() {
        recorder.push(Event::Alert(transition.clone()));
    }
}

/// Dumps the black box after a non-panicking error exit: the NDJSON
/// stream plus the `.txt` summary, with `"reason":"error"`. No-op
/// (returning `Ok(None)`) when no recorder is installed or a dump was
/// already written.
///
/// # Errors
///
/// Propagates I/O failures from writing the dump files.
pub fn dump_on_error() -> std::io::Result<Option<PathBuf>> {
    dump("error")
}

/// Writes the dump if a recorder is installed and has not dumped yet.
/// Returns the NDJSON path on a write.
fn dump(reason: &str) -> std::io::Result<Option<PathBuf>> {
    // Collect everything needed under the recorder lock, then release
    // it before touching the registry/context/filesystem so a panic
    // inside a recording callsite cannot deadlock the hook.
    let collected = {
        let mut guard = lock_active();
        match guard.as_mut() {
            Some(recorder) if !recorder.dumped => {
                recorder.dumped = true;
                Some((
                    recorder.path.clone(),
                    recorder
                        .ring
                        .iter()
                        .map(Event::ndjson_line)
                        .collect::<Vec<_>>(),
                    recorder.ring.len(),
                ))
            }
            _ => None,
        }
    };
    let Some((path, lines, events)) = collected else {
        return Ok(None);
    };
    let context = crate::context::current();
    let at_ns = crate::registry::epoch_elapsed_ns();
    let process = context
        .as_ref()
        .map_or_else(|| "unknown".to_owned(), |c| c.process.clone());

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"flight\",\"version\":{FLIGHT_VERSION},\"reason\":{},\"process\":{},\"at_ns\":{at_ns},\"events\":{events}}}",
        escape(reason),
        escape(&process)
    );
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    if let Some(ctx) = &context {
        out.push_str(&crate::export::context_line(ctx));
        out.push('\n');
        out = crate::export::stamp_ndjson(&out, &ctx.trace_id);
    }
    crate::export::write_file(&path, &out)?;
    crate::export::write_file(
        &path.with_extension("txt"),
        &summary(reason, at_ns, context.as_ref()),
    )?;
    Ok(Some(path))
}

/// The human-readable dump twin: identity, reason, and the self-time
/// hot-spot table from whatever the registry holds at dump time.
fn summary(reason: &str, at_ns: u64, context: Option<&crate::TraceContext>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scanbist flight recorder dump (v{FLIGHT_VERSION})");
    let _ = writeln!(out, "reason:  {reason}");
    let _ = writeln!(out, "at_ns:   {at_ns} (offset from obs epoch)");
    match context {
        Some(ctx) => {
            let _ = writeln!(out, "process: {}", ctx.process);
            let _ = writeln!(out, "trace:   {}", ctx.trace_id);
            let _ = writeln!(
                out,
                "parent:  {}",
                ctx.parent_span.as_deref().unwrap_or("(root)")
            );
        }
        None => {
            let _ = writeln!(out, "process: (no trace context installed)");
        }
    }
    out.push('\n');
    let snapshot = crate::registry::snapshot();
    out.push_str(&crate::Profile::from_snapshot(&snapshot).hotspot_table());
    out
}

// An active-alert table piggybacked onto the summary is deliberately
// absent: the NDJSON stream already carries every transition, and the
// summary stays independent of the SLO lock (lock-order safety in the
// panic hook).

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global; serialize the tests that own it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn transition() -> AlertTransition {
        AlertTransition {
            rule: "r".into(),
            series: "s".into(),
            firing: true,
            value: 1.0,
            threshold: 2.0,
            at_ns: 3,
        }
    }

    #[test]
    fn ring_is_bounded_and_dumps_versioned_ndjson() {
        let _guard = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("obs-recorder-{}", std::process::id()));
        let path = dir.join("flight.ndjson");
        install(&path, 4);
        assert!(is_installed());
        for i in 0..10u64 {
            record_span_close("a/b", 0, i, i + 1);
        }
        let mut snap = Snapshot::default();
        snap.counters.insert("work.items".into(), 7);
        record_tick(&snap, 99);
        record_alert(&transition());
        let written = dump("error").expect("dump").expect("recorder installed");
        assert_eq!(written, path);
        // A second dump attempt is a no-op.
        assert!(dump("error").expect("dump").is_none());
        let text = std::fs::read_to_string(&path).expect("read dump");
        let mut lines = text.lines();
        let header = crate::json::parse(lines.next().expect("header")).expect("header json");
        assert_eq!(
            header.get("type").and_then(crate::json::Value::as_str),
            Some("flight")
        );
        assert_eq!(
            header.get("version").and_then(crate::json::Value::as_f64),
            Some(1.0)
        );
        assert_eq!(
            header.get("reason").and_then(crate::json::Value::as_str),
            Some("error")
        );
        // Ring capacity 4: the 10 span closes were evicted down to the
        // final mix; every line parses and the types are the black-box
        // set.
        let mut types = Vec::new();
        for line in text.lines().skip(1) {
            let value = crate::json::parse(line).expect("event json");
            types.push(
                value
                    .get("type")
                    .and_then(crate::json::Value::as_str)
                    .expect("typed")
                    .to_owned(),
            );
        }
        assert!(types.len() <= 4 + 1, "{types:?}"); // ring + optional context
        assert!(types.contains(&"alert".to_owned()), "{types:?}");
        assert!(types.contains(&"tick".to_owned()), "{types:?}");
        let summary = std::fs::read_to_string(path.with_extension("txt")).expect("summary");
        assert!(summary.contains("flight recorder dump"), "{summary}");
        assert!(summary.contains("reason:  error"), "{summary}");
        clear();
        assert!(!is_installed() && !span_hook_enabled());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tick_extracts_counter_deltas() {
        let _guard = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("obs-recorder-d-{}", std::process::id()));
        let path = dir.join("flight.ndjson");
        install(&path, 32);
        let mut snap = Snapshot::default();
        snap.counters.insert("c".into(), 5);
        record_tick(&snap, 10);
        snap.counters.insert("c".into(), 12);
        record_tick(&snap, 20);
        record_tick(&snap, 30); // unchanged: no delta event
        let lines: Vec<String> = {
            let guard = lock_active();
            let recorder = guard.as_ref().expect("installed");
            recorder.ring.iter().map(Event::ndjson_line).collect()
        };
        let deltas: Vec<&String> = lines.iter().filter(|l| l.contains("\"delta\"")).collect();
        assert_eq!(deltas.len(), 2, "{lines:?}");
        assert!(deltas[0].contains("\"delta\":5") && deltas[0].contains("\"total\":5"));
        assert!(deltas[1].contains("\"delta\":7") && deltas[1].contains("\"total\":12"));
        clear();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
