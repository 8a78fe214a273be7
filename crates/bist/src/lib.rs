//! Scan-BIST building blocks: LFSRs, MISRs, pseudo-random pattern
//! generation, scan chain partitioning schemes, and the scan cell
//! selection hardware of the DATE 2003 partition-based diagnosis paper.
//!
//! The crate is purely computational, depending only on the vendored
//! `scan-obs` instrumentation facade; circuit simulation lives in
//! `scan-sim`, and the diagnosis engine combining the two lives in
//! `scan-diagnosis`.
//!
//! # Overview
//!
//! * [`Lfsr`] — Galois LFSRs with a tabulated primitive polynomial per
//!   degree 2..=32.
//! * [`Misr`] / [`MisrModel`] — bit-true signature registers plus the
//!   linear superposition model used to compute error signatures from
//!   sparse error bits.
//! * [`Prpg`] — LFSR-based stimulus generation.
//! * [`partition`] — random-selection, interval-based, fixed-interval,
//!   and two-step partition generation.
//! * [`selection`] — cycle-level emulation of the paper's Fig. 1
//!   selection hardware, cross-validated against [`partition`].
//! * [`seed`] — the covering-seed search for interval partitions.
//!
//! # Examples
//!
//! ```
//! use scan_bist::partition::{generate_partitions, PartitionConfig, Scheme};
//!
//! let config = PartitionConfig::new(52, 4);
//! let parts = generate_partitions(&config, Scheme::TWO_STEP_DEFAULT, 4);
//! assert_eq!(parts.len(), 4);
//! assert!(parts[0].is_interval());
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate, clippy::module_name_repetitions)]
#![allow(clippy::cast_possible_truncation)]

pub mod compactor;
mod error;
mod lfsr;
mod misr;
pub mod overhead;
pub mod partition;
mod prpg;
pub mod seed;
pub mod selection;

pub use error::{BuildLfsrError, FindSeedError};
pub use lfsr::{primitive_poly, Lfsr, PRIMITIVE_POLYS};
pub use misr::{Misr, MisrModel};
pub use partition::{Partition, PartitionConfig, Scheme};
pub use prpg::{Prpg, PRPG_DEGREE};
