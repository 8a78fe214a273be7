//! Observability configuration.

use std::path::PathBuf;

/// What to record and where to export it. Everything defaults to off:
/// a process that never calls [`crate::init`] (or initializes with
/// [`ObsConfig::disabled`]) pays one relaxed atomic load per
/// would-be event and nothing else.
#[derive(Clone, Debug, Default, Eq, PartialEq)]
#[allow(clippy::struct_excessive_bools)] // independent CLI toggles, not a state machine
pub struct ObsConfig {
    /// Record hierarchical spans (implies metrics recording, so the
    /// NDJSON stream carries per-shard worker metrics alongside spans)
    /// and print the span tree to stderr in [`crate::finish`].
    pub trace: bool,
    /// Record counters and histograms.
    pub metrics: bool,
    /// Print rate-limited progress lines to stderr.
    pub progress: bool,
    /// Where [`crate::finish`] writes the NDJSON event stream
    /// (span + counter + histogram lines). `None` skips the stream.
    pub trace_path: Option<PathBuf>,
    /// Where [`crate::finish`] writes the JSON metrics snapshot.
    /// `None` skips the snapshot.
    pub metrics_path: Option<PathBuf>,
    /// Aggregate spans into a self-time profile (implies span
    /// recording) and print the hot-spot table to stderr in
    /// [`crate::finish`].
    pub profile: bool,
    /// Where [`crate::finish`] writes the collapsed-stack (flamegraph
    /// `folded` format) profile export. Implies [`ObsConfig::profile`]-
    /// style span recording; `None` skips the file.
    pub profile_path: Option<PathBuf>,
    /// Serve `/metrics` + `/healthz` on this `host:port` while the
    /// session runs (`0` port picks an ephemeral one). Implies metrics
    /// recording and time-series sampling; the bound address is logged
    /// to stderr. `None` (the default) starts no server.
    pub serve_addr: Option<String>,
    /// Record in-memory time series of every counter/histogram via the
    /// background snapshotter (one sample every
    /// [`crate::timeseries::DEFAULT_INTERVAL_MS`], rings of
    /// [`crate::timeseries::DEFAULT_CAPACITY`]), exported as `ts` NDJSON
    /// records. Implied by [`ObsConfig::serve_addr`].
    pub timeseries: bool,
    /// Path of an `slo.toml` alert-rule file to load and evaluate on
    /// every sampler tick (see [`crate::slo`]). Implies time-series
    /// sampling; `None` (the default) installs no rules.
    pub slo_path: Option<PathBuf>,
    /// Where the black-box flight recorder dumps on panic or
    /// [`crate::recorder::dump_on_error`] (see [`crate::recorder`]).
    /// Implies span + metrics recording and time-series sampling so the
    /// ring has events to hold; `None` (the default) installs no
    /// recorder.
    pub flight_path: Option<PathBuf>,
}

impl ObsConfig {
    /// Everything off — the default.
    #[must_use]
    pub fn disabled() -> Self {
        ObsConfig::default()
    }

    /// True if any recording is requested.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.trace || self.metrics || self.progress || self.profiling() || self.sampling()
    }

    /// True if time-series sampling is requested: the `timeseries`
    /// toggle, a metrics endpoint (which needs series to serve), SLO
    /// rules (evaluated on the sampler tick), or the flight recorder
    /// (fed counter deltas by the sampler tick).
    #[must_use]
    pub fn sampling(&self) -> bool {
        self.timeseries
            || self.serve_addr.is_some()
            || self.slo_path.is_some()
            || self.flight_path.is_some()
    }

    /// True if span profiling is requested (the `profile` toggle or an
    /// explicit profile export path).
    #[must_use]
    pub fn profiling(&self) -> bool {
        self.profile || self.profile_path.is_some()
    }

    /// The [`crate::registry`] state mask this configuration enables.
    #[must_use]
    pub(crate) fn state_mask(&self) -> u8 {
        let mut mask = 0;
        if self.trace || self.profiling() || self.flight_path.is_some() {
            mask |= crate::registry::TRACE | crate::registry::METRICS;
        }
        if self.metrics || self.sampling() {
            mask |= crate::registry::METRICS;
        }
        if self.progress {
            mask |= crate::registry::PROGRESS;
        }
        mask
    }
}
