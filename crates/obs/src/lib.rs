//! `scan-obs`: zero-dependency observability for the scan-BIST
//! workspace — hierarchical spans, metrics, campaign progress, and
//! machine-readable exporters.
//!
//! Fault-injection campaigns spend their time deep inside fault
//! simulation and per-partition diagnosis replay; this crate is the
//! measurement substrate that makes that time visible without
//! perturbing results. It is intentionally *not* the `tracing` /
//! `metrics` ecosystem: the workspace builds fully offline with no
//! registry access (see `ROADMAP.md`), so the facade, registry, and
//! exporters are vendored here in plain std Rust.
//!
//! # Design
//!
//! * **Off by default, one load when off.** Recording is gated by a
//!   process-global atomic mask read with `Ordering::Relaxed`; every
//!   entry point checks it first and returns immediately, so
//!   uninstrumented runs stay byte-identical and effectively free.
//! * **Sharded, contention-free recording.** Each thread records into
//!   a thread-local shard merged into global state when the thread
//!   exits — `std::thread::scope` campaign workers never contend on a
//!   lock (see [`registry`]).
//! * **Determinism-safe.** Instrumentation never touches RNG streams
//!   or result ordering; enabling observability changes only what is
//!   *reported*, never what is *computed*. The `scan-diagnosis` test
//!   `obs_determinism.rs` pins this end to end.
//!
//! # Example
//!
//! ```
//! use scan_obs::ObsConfig;
//!
//! let config = ObsConfig {
//!     trace: true,
//!     ..ObsConfig::disabled()
//! };
//! scan_obs::init(&config);
//! {
//!     let _campaign = scan_obs::span!("campaign");
//!     let _phase = scan_obs::span!("fault_sim");
//!     scan_obs::metrics::add("fault_sim.error_maps", 500);
//! }
//! let snapshot = scan_obs::snapshot();
//! assert_eq!(snapshot.span_stats["campaign/fault_sim"].count, 1);
//! scan_obs::finish(&config).unwrap();
//! # scan_obs::reset();
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate, clippy::module_name_repetitions)]
#![allow(clippy::cast_precision_loss)]

mod args;
mod config;
pub mod context;
pub mod export;
pub mod http;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod query;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod serve;
pub mod slo;
pub mod span;
pub mod timeseries;

pub use args::ObsArgsError;
pub use config::ObsConfig;
pub use context::TraceContext;
pub use profile::{Profile, ProfileEntry};
pub use registry::{flush_thread, snapshot, Histogram, Snapshot, SpanEvent, SpanStat};
pub use span::SpanGuard;

/// Current enable mask — nonzero if any recording is on. The
/// disabled-path cost of every instrumentation point.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    registry::state() != 0
}

/// Installs `config` process-wide: resets all previously recorded data,
/// restarts the monotonic epoch, and enables the requested recording.
/// Call once at process start, before spawning recording threads.
pub fn init(config: &ObsConfig) {
    registry::reset();
    registry::set_state(config.state_mask());
}

/// Stops recording and exports everything `config` asks for: the
/// NDJSON event stream to [`ObsConfig::trace_path`], the JSON metrics
/// snapshot to [`ObsConfig::metrics_path`], the collapsed-stack
/// profile to [`ObsConfig::profile_path`], the span tree to stderr
/// when [`ObsConfig::trace`] is set, and the self-time hot-spot
/// table to stderr when [`ObsConfig::profile`] is set. Recorded data
/// is left in place (a later [`snapshot`] still sees it).
///
/// # Errors
///
/// Propagates I/O failures from writing the export files; the error
/// message names the offending path.
pub fn finish(config: &ObsConfig) -> std::io::Result<()> {
    registry::set_state(0);
    if !config.is_enabled() {
        return Ok(());
    }
    let snapshot = registry::snapshot();
    if let Some(path) = &config.trace_path {
        export::write_file(path, &export::session_ndjson(&snapshot))?;
    }
    if let Some(path) = &config.metrics_path {
        export::write_file(path, &export::metrics_json(&snapshot))?;
    }
    if config.profiling() {
        let profile = Profile::from_snapshot(&snapshot);
        if let Some(path) = &config.profile_path {
            export::write_file(path, &profile.folded())?;
        }
        if config.profile {
            eprint!("{}", profile.hotspot_table());
        }
    }
    if config.trace {
        eprint!("{}", export::tree_summary(&snapshot));
    }
    Ok(())
}

/// Disables recording and discards everything recorded so far,
/// including the trace context and any active time-series store.
/// Primarily for tests, which must leave the process-global state
/// clean for their neighbours.
pub fn reset() {
    registry::set_state(0);
    registry::reset();
    context::clear();
    timeseries::clear_active();
    slo::clear();
    recorder::clear();
}

/// One observed run of a front end — `scanbist` or an experiment
/// binary — from [`Session::start`] to [`Session::finish`]. It owns the
/// live telemetry: the background time-series [`timeseries::Sampler`]
/// and the [`serve::MetricsServer`], both optional per [`ObsConfig`].
#[must_use = "call finish() so exports are written"]
pub struct Session {
    config: ObsConfig,
    sampler: Option<timeseries::Sampler>,
    server: Option<serve::MetricsServer>,
}

impl Session {
    /// Installs `config` with [`init`], adopts or creates the
    /// cross-process trace context for `process` when anything is
    /// enabled (see [`context::init_from_env`]), and starts whatever
    /// live telemetry `config` asks for: SLO alert rules loaded from
    /// [`ObsConfig::slo_path`], the black-box flight recorder at
    /// [`ObsConfig::flight_path`] (with its process-wide panic hook),
    /// the background snapshotter when [`ObsConfig::sampling`], and the
    /// `/metrics` endpoint when [`ObsConfig::serve_addr`] is set.
    ///
    /// A telemetry start failure — the endpoint cannot bind, or the
    /// `slo.toml` cannot be read or parsed — is printed to stderr and
    /// exits the process with status 2 before any work happens.
    pub fn start(config: &ObsConfig, process: &str) -> Session {
        init(config);
        if config.is_enabled() {
            context::init_from_env(process);
        }
        let mut session = Session {
            config: config.clone(),
            sampler: None,
            server: None,
        };
        if let Err(e) = session.start_telemetry() {
            eprintln!("error: could not start live telemetry: {e}");
            std::process::exit(2);
        }
        session
    }

    fn start_telemetry(&mut self) -> std::io::Result<()> {
        if let Some(path) = &self.config.slo_path {
            slo::install(slo::SloConfig::load(path)?);
        }
        if let Some(path) = &self.config.flight_path {
            recorder::install(path, 0);
        }
        if self.config.sampling() {
            let store = std::sync::Arc::new(timeseries::TimeSeriesStore::new(
                timeseries::DEFAULT_CAPACITY,
            ));
            timeseries::set_active(std::sync::Arc::clone(&store));
            self.sampler = Some(timeseries::Sampler::start(store));
        }
        if let Some(addr) = &self.config.serve_addr {
            self.server = Some(serve::MetricsServer::start(addr)?);
        }
        Ok(())
    }

    /// Stops the endpoint and the sampler (taking one final sample),
    /// dumps the flight-recorder ring when `failed` (a nonzero exit;
    /// panics dump through the recorder's hook instead), then writes
    /// the exports [`finish`] describes. Failures are reported on
    /// stderr and never change the run's outcome.
    ///
    /// Honors the `SCANBIST_SLO_LINGER_MS` ops/test hook first: when
    /// the variable holds a millisecond count and a sampler is
    /// running, the session stays open that long (capped at 10 s)
    /// with the sampler still ticking and the `/metrics` endpoint
    /// still serving (`--serve-metrics` implies sampling). So
    /// shutdown-adjacent SLO transitions — a burn-rate rule resolving
    /// once its short window drains after the last burst of work — are
    /// observed instead of cut off, and a scrape that starts after a
    /// short campaign ends still lands. `scripts/verify.sh` uses it to
    /// pin an exact fire/resolve alert pair and to scrape its live
    /// metrics smoke; production runs leave it unset.
    pub fn finish(self, failed: bool) {
        if self.sampler.is_some() {
            if let Some(ms) = std::env::var("SCANBIST_SLO_LINGER_MS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
            {
                std::thread::sleep(std::time::Duration::from_millis(ms.min(10_000)));
            }
        }
        if let Some(server) = self.server {
            server.stop();
        }
        if let Some(sampler) = self.sampler {
            sampler.stop();
        }
        if failed {
            match recorder::dump_on_error() {
                Ok(Some(path)) => eprintln!("flight recorder: dumped to {}", path.display()),
                Ok(None) => {}
                Err(e) => eprintln!("warning: could not write flight-recorder dump: {e}"),
            }
        }
        if let Err(e) = finish(&self.config) {
            eprintln!("warning: could not write observability exports: {e}");
        }
    }
}
