//! Gate-level netlist substrate for the scan-BIST diagnosis workspace.
//!
//! This crate provides:
//!
//! * a validated, levelized [`Netlist`] representation of ISCAS-89-style
//!   sequential circuits ([`NetlistBuilder`], [`GateKind`] primitives);
//! * an ISCAS-89 `.bench` format parser and writer ([`mod@bench`]), with the
//!   real `s27` benchmark embedded as a golden reference;
//! * full-scan views ([`ScanView`]) mapping flip-flops and primary
//!   outputs to scan-chain shift positions;
//! * a synthetic benchmark-class circuit generator ([`generate`])
//!   matching the published ISCAS-89 interface statistics with
//!   structurally local connectivity (see `DESIGN.md` §5);
//! * structural cone analysis ([`stats`]) quantifying the failing-cell
//!   clustering the diagnosis schemes exploit;
//! * a compact [`BitSet`] shared by downstream crates.
//!
//! # Examples
//!
//! ```
//! use scan_netlist::{bench, ScanView};
//!
//! let s27 = bench::s27();
//! assert_eq!(s27.num_dffs(), 3);
//!
//! let view = ScanView::natural(&s27, true);
//! assert_eq!(view.len(), 4); // 3 scan cells + 1 primary output
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate, clippy::module_name_repetitions)]
#![allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]

pub mod bench;
mod bitset;
mod error;
mod gate;
pub mod generate;
mod netlist;
mod read_marks;
mod scan;
pub mod scoap;
pub mod stats;
pub mod verilog;

pub use bitset::{BitSet, Iter as BitSetIter};
pub use error::{NetlistError, ParseBenchError, ParseBenchErrorKind, ParseGateKindError};
pub use gate::{Dff, DffId, Driver, Gate, GateId, GateKind, NetId};
pub use netlist::{Netlist, NetlistBuilder};
pub use scan::{ObsPoint, ScanOrdering, ScanView};
