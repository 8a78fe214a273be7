//! Bit-parallel gate-level logic and stuck-at fault simulation for
//! full-scan circuits.
//!
//! This crate is the simulation substrate of the scan-BIST diagnosis
//! workspace:
//!
//! * [`PatternSet`] — bit-packed full-scan stimuli (64 patterns/word),
//!   buildable from any serial bit stream (e.g. an LFSR PRPG);
//! * [`Simulator`] — levelized bit-parallel evaluation with optional
//!   stuck-at fault injection (stem or fanout-branch pin);
//! * [`Fault`] / [`FaultUniverse`] — stuck-at fault enumeration with
//!   classical equivalence collapsing;
//! * [`PpsfpSimulator`] — the fault-simulation engine: 64-wide PPSFP
//!   over a [`ScanView`](scan_netlist::ScanView) with cone-limited
//!   word sweeps, fault dropping, [`ErrorMap`] extraction, and
//!   single-pass sampling of detected faults that keeps each
//!   detection's error map (the paper's 500-fault campaigns);
//! * [`FaultSimulator`] — the reference oracle: whole-circuit
//!   resimulation per fault, the one engine that also returns a
//!   faulty [`ResponseMap`].
//!
//! # Examples
//!
//! ```
//! use scan_netlist::{bench, ScanView};
//! use scan_sim::{FaultUniverse, PatternSet, PpsfpSimulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let s27 = bench::s27();
//! let view = ScanView::natural(&s27, true);
//! let patterns = PatternSet::pseudo_random(4, 3, 128, 1);
//! let mut psim = PpsfpSimulator::new(&s27, &view, &patterns)?;
//!
//! let universe = FaultUniverse::collapsed(&s27);
//! let detected = universe
//!     .faults()
//!     .iter()
//!     .filter(|f| psim.detects(f))
//!     .count();
//! assert!(detected > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate, clippy::module_name_repetitions)]
#![allow(clippy::cast_possible_truncation)]

pub mod chain_fault;
mod error;
mod fault;
mod fault_sim;
mod pattern;
mod ppsfp;
mod response;
mod sequential;
mod simulator;

pub use chain_fault::{locate_chain_fault, simulate_chain_fault, ChainFault};
pub use error::PatternShapeError;
pub use fault::{site_has_fanout, Fault, FaultSite, FaultUniverse};
pub use fault_sim::FaultSimulator;
pub use ppsfp::PpsfpSimulator;
pub use sequential::SequentialSimulator;
pub use pattern::PatternSet;
pub use response::{ErrorMap, ResponseMap};
pub use simulator::Simulator;
