//! Cross-process trace correlation.
//!
//! A campaign that fans out over the `all_experiments` subprocess pool
//! produces one NDJSON stream per process. To join them back into a
//! single logical trace, every session carries a [`TraceContext`]:
//! a process-wide `trace_id` shared by the whole tree, an optional
//! `parent_span` naming the span in the parent process under which
//! this process was launched, and the process's own name.
//!
//! Propagation is by environment variable: a parent exports
//! [`TRACE_ID_ENV`] and [`PARENT_SPAN_ENV`] (see
//! [`TraceContext::child_env`]) before spawning a worker; the worker
//! adopts them in [`init_from_env`]. The exporters stamp the installed
//! context into every NDJSON record (a `"trace"` member on each line
//! plus one `"type":"context"` record per stream), and `obs-check
//! --join` verifies that a set of per-process streams forms one tree
//! with no orphan processes.
//!
//! Trace ids are 16 lowercase hex digits mixed from the process id and
//! the wall clock through `SplitMix64`. They are identifiers, not
//! randomness that results depend on — lint L002 (no ambient RNG in
//! deterministic crates) does not apply to `crates/obs`, and no
//! simulation output ever observes a trace id.

use std::sync::Mutex;

/// Environment variable carrying the shared trace id to child
/// processes: 16 lowercase hex digits.
pub const TRACE_ID_ENV: &str = "SCANBIST_TRACE_ID";

/// Environment variable naming the parent-process span under which a
/// child session hangs, e.g. `all_experiments/experiment[table1]`.
pub const PARENT_SPAN_ENV: &str = "SCANBIST_PARENT_SPAN";

/// The trace-correlation identity of one observability session.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct TraceContext {
    /// Trace id shared by every process in the tree (16 hex digits).
    pub trace_id: String,
    /// Span path in the *parent* process this session hangs under;
    /// `None` for the root process of the tree.
    pub parent_span: Option<String>,
    /// Name of this process (binary or session name).
    pub process: String,
}

impl TraceContext {
    /// A fresh root context (new trace id, no parent) for `process`.
    #[must_use]
    pub fn new_root(process: &str) -> Self {
        TraceContext {
            trace_id: generate_trace_id(),
            parent_span: None,
            process: process.to_owned(),
        }
    }

    /// Builds the context for `process` from [`TRACE_ID_ENV`] /
    /// [`PARENT_SPAN_ENV`] when set (a parent launched us), or a fresh
    /// root context otherwise.
    #[must_use]
    pub fn from_env(process: &str) -> Self {
        match std::env::var(TRACE_ID_ENV) {
            Ok(id) if is_valid_trace_id(&id) => TraceContext {
                trace_id: id,
                parent_span: std::env::var(PARENT_SPAN_ENV)
                    .ok()
                    .filter(|s| !s.is_empty()),
                process: process.to_owned(),
            },
            _ => TraceContext::new_root(process),
        }
    }

    /// The `(name, value)` environment pairs a parent sets on a child
    /// process so the child joins this trace under `parent_span`.
    #[must_use]
    pub fn child_env(&self, parent_span: &str) -> [(String, String); 2] {
        [
            (TRACE_ID_ENV.to_owned(), self.trace_id.clone()),
            (PARENT_SPAN_ENV.to_owned(), parent_span.to_owned()),
        ]
    }
}

/// True if `id` has the shape of a trace id: exactly 16 lowercase hex
/// digits.
#[must_use]
pub fn is_valid_trace_id(id: &str) -> bool {
    id.len() == 16
        && id
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Generates a fresh 16-hex-digit trace id. Uniqueness, not secrecy:
/// pid and wall-clock nanoseconds mixed through `SplitMix64`.
#[must_use]
pub fn generate_trace_id() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| {
            u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
        });
    let seed = nanos ^ (u64::from(std::process::id()) << 32);
    format!("{:016x}", splitmix64(seed))
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

static CURRENT: Mutex<Option<TraceContext>> = Mutex::new(None);

fn lock() -> std::sync::MutexGuard<'static, Option<TraceContext>> {
    CURRENT
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs `ctx` as the process-wide trace context; the exporters
/// stamp it into every NDJSON record from now on.
pub fn install(ctx: TraceContext) {
    *lock() = Some(ctx);
}

/// Builds the context for `process` from the environment (see
/// [`TraceContext::from_env`]) and installs it. Returns a clone of the
/// installed context. Call once at session start, alongside
/// [`crate::init`].
pub fn init_from_env(process: &str) -> TraceContext {
    let ctx = TraceContext::from_env(process);
    install(ctx.clone());
    ctx
}

/// The installed trace context, if any.
#[must_use]
pub fn current() -> Option<TraceContext> {
    lock().clone()
}

/// Uninstalls the trace context. Called by [`crate::reset`] so tests
/// leave the process-global state clean.
pub fn clear() {
    *lock() = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_well_formed() {
        let id = generate_trace_id();
        assert!(is_valid_trace_id(&id), "bad trace id {id:?}");
        assert!(!is_valid_trace_id("xyz"));
        assert!(!is_valid_trace_id("ABCDEF0123456789")); // uppercase
        assert!(!is_valid_trace_id("0123456789abcde")); // short
    }

    #[test]
    fn child_env_round_trips() {
        let ctx = TraceContext::new_root("parent");
        let env = ctx.child_env("parent/worker[3]");
        assert_eq!(env[0].0, TRACE_ID_ENV);
        assert_eq!(env[0].1, ctx.trace_id);
        assert_eq!(
            env[1],
            (PARENT_SPAN_ENV.to_owned(), "parent/worker[3]".to_owned())
        );
    }

    #[test]
    fn install_current_clear() {
        let ctx = TraceContext::new_root("t");
        install(ctx.clone());
        assert_eq!(current(), Some(ctx));
        clear();
        // Another test may race to install its own context between our
        // clear and this read, so only assert it is not ours.
        let after = current();
        assert!(after.is_none_or(|c| c.process != "t"));
    }
}
