//! Partition-based identification of failing scan cells in scan-BIST.
//!
//! This crate is the primary contribution of the workspace: a
//! reproduction of *Liu & Chakrabarty, "A Partition-Based Approach for
//! Identifying Failing Scan Cells in Scan-BIST with Applications to
//! System-on-Chip Fault Diagnosis"* (DATE 2003).
//!
//! A scan-BIST run compacts responses into a MISR signature, losing the
//! identity of error-capturing cells. Diagnosis partitions the scan
//! chain into groups, runs one BIST session per group (masking all
//! others), and intersects the failing groups of several partitions.
//! The paper's **two-step** scheme runs one *interval-based* partition
//! first — exploiting the structural clustering of failing cells — and
//! then refines with classical *random-selection* partitions.
//!
//! # Pipeline
//!
//! 1. [`DiagnosisPlan`] — generates the scheme's partitions over a
//!    [`ChainLayout`] and models the MISR linearly.
//! 2. [`DiagnosisPlan::analyze_packed`] — per-session pass/fail
//!    verdicts from a fault's sparse error map, one multiplication per
//!    failing cell (signature-aliasing faithful; the per-bit
//!    [`DiagnosisPlan::analyze`] is its test oracle).
//! 3. [`diagnose`] — candidate cells by failing-group intersection.
//! 4. [`prune_by_cover`] — post-processing refinement (the role of the
//!    superposition pruning the paper cites).
//! 5. [`DrAccumulator`] — the paper's diagnostic resolution metric.
//! 6. [`experiment`] / [`soc_diag`] — full campaigns reproducing every
//!    table and figure.
//!
//! # Examples
//!
//! ```
//! use scan_bist::Scheme;
//! use scan_diagnosis::{CampaignSpec, PreparedCampaign};
//! use scan_netlist::generate;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = generate::benchmark("s953");
//! let mut spec = CampaignSpec::new(64, 4, 4);
//! spec.num_faults = 20; // keep the doc test quick
//! let campaign = PreparedCampaign::from_circuit(&circuit, &spec)?;
//! let two_step = campaign.run(Scheme::TWO_STEP_DEFAULT)?;
//! let random = campaign.run(Scheme::RandomSelection)?;
//! println!("two-step DR {:.2} vs random {:.2}", two_step.dr, random.dr);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate, clippy::module_name_repetitions)]
#![allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]

pub mod adaptive;
pub mod audit;
pub mod cancel;
pub mod chain_mask;
pub mod cost;
mod diagnose;
pub mod dictionary;
mod error;
pub mod experiment;
mod layout;
mod metrics;
pub mod noise;
pub mod parallel;
mod pruning;
pub mod robust;
pub mod ranking;
pub mod report;
pub mod schedule;
mod session;
pub mod tester;
pub mod soc_diag;
pub mod vector_diag;
pub mod windows;

pub use audit::{AuditStep, CampaignAudit, FaultAudit, RobustAudit, RobustFaultAudit};
pub use cancel::CancelToken;
pub use diagnose::{diagnose, diagnose_checked, Diagnosis, DiagnosisStatus};
pub use error::{BuildPlanError, DiagnoseError, NoiseConfigError};
pub use noise::{NoiseConfig, NoiseModel, ObservedOutcome, Verdict};
pub use robust::{
    diagnose_reported, diagnose_robust, diagnose_robust_cancellable, Confidence,
    InconclusiveReason, RobustDiagnosis, RobustPolicy,
};
pub use experiment::{
    lfsr_patterns, CampaignError, CampaignSpec, LocalizationReport, PreparedCampaign,
    RobustReport, SchemeReport,
};
pub use layout::ChainLayout;
pub use metrics::DrAccumulator;
pub use pruning::prune_by_cover;
pub use session::{BistConfig, DiagnosisPlan, ResponseModel, SessionOutcome};
