//! `scan-daemon` — **scanbistd**, diagnosis as a service.
//!
//! The workspace's engines ([`scan_diagnosis`]) answer one question —
//! *which scan cells explain these failing BIST sessions?* — as
//! library calls. This crate puts that answer on the network for the
//! manufacturing floor: testers `POST` NDJSON batches of partition
//! signatures to `/diagnose` and get ranked candidate cells back, with
//! an explicit `exact` / `degraded` / `inconclusive` confidence on
//! every line.
//!
//! The interesting part is not the happy path but the overload
//! behavior, built from four pieces:
//!
//! * [`queue`] — the bounded admission queue. Full means `429` +
//!   `Retry-After`, never an unbounded buffer.
//! * [`server`] — the daemon itself: pooled connection handlers, a
//!   worker pool, per-batch deadlines with cooperative cancellation
//!   ([`scan_diagnosis::CancelToken`]), quality-shedding tiers (robust
//!   replay degrades to single-pass before anything is refused),
//!   single-flight plan [`cache`], and drain-on-shutdown.
//! * [`scan_obs::http`] — the deliberately strict HTTP/1.1 parser (no
//!   chunked bodies, no duplicate `Content-Length`, no header
//!   injection) the daemon shares with `--serve-metrics`, so both
//!   servers give malformed requests the same status.
//! * [`chaos`] — the `SCANBIST_CHAOS` fault-injection layer, keyed per
//!   request through [`scan_rng::derive`] so failures reproduce
//!   bit-for-bit.
//!
//! Observability rides on [`scan_obs`]: the daemon mounts the standard
//! `/metrics` / `/alerts.json` / `/healthz` / `/readyz` routes on its
//! own port and counts everything under `daemon.*`. The
//! `scanbistd-loadgen` bin (this crate's `src/bin/loadgen.rs`) drives
//! it open-loop and writes the goodput-under-overload evidence to
//! `BENCH_daemon.json`. See `docs/DAEMON.md` for the protocol.

pub mod cache;
pub mod chaos;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{CachedPlan, PlanCache};
pub use chaos::{ChaosConfig, ChaosPlan};
pub use protocol::{DiagnoseRequest, ErrorBody, Evidence};
pub use queue::BoundedQueue;
pub use server::{Daemon, DaemonConfig};
