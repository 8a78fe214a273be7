//! Umbrella crate for the scan-BIST failing-cell diagnosis workspace —
//! a reproduction of *Liu & Chakrabarty, "A Partition-Based Approach
//! for Identifying Failing Scan Cells in Scan-BIST with Applications to
//! System-on-Chip Fault Diagnosis"* (DATE 2003).
//!
//! Re-exports the workspace crates under one roof and hosts the
//! runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`). For the library itself see:
//!
//! * [`netlist`] — circuits, `.bench` parsing, synthetic benchmarks;
//! * [`sim`] — logic & stuck-at fault simulation;
//! * [`bist`] — LFSRs, MISRs, partitioning schemes, selection hardware;
//! * [`diagnosis`] — the partition-based diagnosis engine (the paper's
//!   contribution);
//! * [`soc`] — TestRail meta scan chains and the two paper SOCs.
//!
//! # Examples
//!
//! ```
//! use scan_bist_suite::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = scan_bist_suite::netlist::bench::s27();
//! let mut spec = CampaignSpec::new(32, 2, 2);
//! spec.num_faults = 5;
//! let campaign = PreparedCampaign::from_circuit(&circuit, &spec)?;
//! let report = campaign.run(Scheme::TWO_STEP_DEFAULT)?;
//! assert!(report.faults > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use scan_atpg as atpg;
pub use scan_bist as bist;
pub use scan_diagnosis as diagnosis;
pub use scan_netlist as netlist;
pub use scan_sim as sim;
pub use scan_soc as soc;

/// The most commonly used types, for glob import in examples and quick
/// experiments.
pub mod prelude {
    pub use scan_bist::{Lfsr, Misr, MisrModel, Partition, PartitionConfig, Prpg, Scheme};
    pub use scan_diagnosis::{
        diagnose, diagnose_checked, prune_by_cover, BistConfig, CampaignSpec, ChainLayout,
        DiagnosisPlan, DrAccumulator, PreparedCampaign, ResponseModel, SchemeReport,
    };
    pub use scan_netlist::{GateKind, Netlist, NetlistBuilder, ScanOrdering, ScanView};
    pub use scan_sim::{Fault, FaultSimulator, FaultUniverse, PatternSet, PpsfpSimulator};
    pub use scan_soc::{CoreModule, Soc, SocDescriptor};
}
