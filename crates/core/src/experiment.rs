//! Fault-injection campaigns: the experiment driver behind every table
//! and figure of the paper.
//!
//! A campaign (1) generates a pseudo-random BIST pattern set from an
//! LFSR PRPG, (2) samples a reproducible set of *detected* collapsed
//! stuck-at faults, (3) fault-simulates each to an error map, and
//! (4) replays the partition-based diagnosis for a chosen scheme,
//! accumulating the paper's diagnostic resolution (DR) metric — with
//! and without post-processing pruning, and per partition-count prefix
//! (for Fig. 5's "partitions needed to reach DR 0.5").
//!
//! Preparation (steps 1–3) is independent of the partitioning scheme,
//! so a [`PreparedCampaign`] is built once and [`run`](PreparedCampaign::run)
//! for every scheme being compared — exactly the paper's methodology of
//! using the same faults and patterns for both methods.

use std::error::Error;
use std::fmt;

use scan_bist::{Prpg, Scheme};
use scan_netlist::{BitSet, Netlist, ScanOrdering, ScanView};
use scan_sim::{ErrorMap, PatternSet, PatternShapeError, PpsfpSimulator};
use scan_soc::Soc;

use crate::diagnose::{diagnose, Diagnosis, DiagnosisStatus};
use crate::error::{BuildPlanError, NoiseConfigError};
use crate::layout::ChainLayout;
use crate::metrics::DrAccumulator;
use crate::noise::NoiseModel;
use crate::parallel::sharded_map;
use crate::pruning::prune_by_cover;
use crate::robust::{diagnose_robust, Confidence, RobustPolicy};
use crate::session::{BistConfig, DiagnosisPlan, SessionOutcome};

/// Parameters of a fault-injection campaign.
#[derive(Clone, Copy, Debug)]
pub struct CampaignSpec {
    /// BIST patterns per session.
    pub num_patterns: usize,
    /// PRPG seed for stimulus generation.
    pub prpg_seed: u64,
    /// Number of detected faults to sample (the paper uses 500).
    pub num_faults: usize,
    /// Seed for the fault sample shuffle.
    pub fault_seed: u64,
    /// Groups per partition.
    pub groups: u16,
    /// Number of partitions.
    pub partitions: usize,
    /// MISR width.
    pub misr_degree: u32,
    /// Partition LFSR degree (the paper uses 16).
    pub partition_lfsr_degree: u32,
    /// Partition IVR seed.
    pub partition_seed: u64,
    /// Observe primary outputs alongside scan cells (the paper does).
    pub include_outputs: bool,
    /// How flip-flops are stitched into the scan chain.
    pub ordering: ScanOrdering,
    /// Fraction of observation positions that produce unknown (X)
    /// values and are therefore hard-masked from the compactor — e.g.
    /// cells fed by uninitialized memories. Their errors are invisible
    /// and they are excluded from both evidence and candidate
    /// reporting. `0.0` (the default, and the paper's setting) disables
    /// masking.
    pub x_mask_fraction: f64,
}

impl CampaignSpec {
    /// A spec with the paper's defaults for the free parameters.
    #[must_use]
    pub fn new(num_patterns: usize, groups: u16, partitions: usize) -> Self {
        CampaignSpec {
            num_patterns,
            prpg_seed: 0xACE1,
            num_faults: 500,
            fault_seed: 2003,
            groups,
            partitions,
            misr_degree: 16,
            partition_lfsr_degree: 16,
            partition_seed: 1,
            include_outputs: true,
            ordering: ScanOrdering::Natural,
            x_mask_fraction: 0.0,
        }
    }

    fn bist_config(&self, scheme: Scheme) -> BistConfig {
        BistConfig {
            groups: self.groups,
            partitions: self.partitions,
            scheme,
            misr_degree: self.misr_degree,
            partition_lfsr_degree: self.partition_lfsr_degree,
            partition_seed: self.partition_seed,
        }
    }
}

/// Errors raised while preparing or running a campaign.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum CampaignError {
    /// Stimulus generation failed (pattern/interface mismatch).
    Patterns(PatternShapeError),
    /// The diagnosis plan could not be built.
    Plan(BuildPlanError),
    /// The requested faulty core index does not exist.
    NoSuchCore {
        /// The offending index.
        core: usize,
        /// Cores available.
        available: usize,
    },
    /// No detected faults were found (empty or untestable circuit).
    NoDetectedFaults,
    /// An SOC-level operation was requested on a campaign that was not
    /// prepared from an SOC.
    NotSocCampaign,
    /// The noise configuration carries an unusable rate.
    Noise(NoiseConfigError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Patterns(e) => write!(f, "{e}"),
            CampaignError::Plan(e) => write!(f, "{e}"),
            CampaignError::NoSuchCore { core, available } => {
                write!(f, "faulty core index {core} out of range ({available} cores)")
            }
            CampaignError::NoDetectedFaults => write!(f, "no detected faults to diagnose"),
            CampaignError::NotSocCampaign => {
                write!(f, "campaign was not prepared from an SOC; no core context")
            }
            CampaignError::Noise(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Patterns(e) => Some(e),
            CampaignError::Plan(e) => Some(e),
            CampaignError::Noise(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PatternShapeError> for CampaignError {
    fn from(e: PatternShapeError) -> Self {
        CampaignError::Patterns(e)
    }
}

impl From<BuildPlanError> for CampaignError {
    fn from(e: BuildPlanError) -> Self {
        CampaignError::Plan(e)
    }
}

impl From<NoiseConfigError> for CampaignError {
    fn from(e: NoiseConfigError) -> Self {
        CampaignError::Noise(e)
    }
}

/// Aggregate results of running one scheme over a prepared campaign.
#[derive(Clone, Debug)]
pub struct SchemeReport {
    /// The scheme that was run.
    pub scheme: Scheme,
    /// Partitions used.
    pub partitions: usize,
    /// Faults diagnosed.
    pub faults: usize,
    /// Diagnostic resolution after all partitions, without pruning.
    pub dr: f64,
    /// Diagnostic resolution with cover-based pruning.
    pub dr_pruned: f64,
    /// DR after only the first `k+1` partitions (no pruning).
    pub dr_by_prefix: Vec<f64>,
    /// Mean candidates per fault (no pruning).
    pub mean_candidates: f64,
    /// Mean actual failing cells per fault.
    pub mean_actual: f64,
    /// True failing cells missing from the final candidate set, summed
    /// over faults — nonzero only under signature aliasing (a failing
    /// group whose error signature cancels to zero).
    pub lost_cells: u64,
}

impl SchemeReport {
    /// The smallest number of partitions whose prefix DR is at or below
    /// `target`, if any (the paper's Fig. 5 quantity).
    #[must_use]
    pub fn partitions_to_reach(&self, target: f64) -> Option<usize> {
        self.dr_by_prefix
            .iter()
            .position(|&dr| dr <= target)
            .map(|k| k + 1)
    }
}

/// One fault's prepared evidence: its error map in local view
/// coordinates.
#[derive(Clone, Debug)]
struct FaultCase {
    errors: ErrorMap,
}

/// Per-fault diagnosis statistics: everything one case contributes to a
/// [`SchemeReport`]. Computing these is pure and side-effect-free, so
/// cases can be evaluated in any order (or on any thread) and folded
/// back in fault-index order for bit-identical aggregate results.
#[derive(Clone, Debug)]
struct CaseStats {
    candidates: usize,
    actual: usize,
    pruned: usize,
    prefix_counts: Vec<usize>,
    lost: u64,
}

/// Per-fault first-level (core localization) statistics.
#[derive(Clone, Copy, Debug)]
struct LocCaseStats {
    ranked: bool,
    correct: bool,
    margin: f64,
}

/// Per-fault robust-diagnosis statistics: what one case contributes to
/// a [`RobustReport`]. Pure like [`CaseStats`], so robust campaigns
/// shard across threads with bit-identical folds.
#[derive(Clone, Copy, Debug)]
struct RobustCaseStats {
    confidence: Confidence,
    candidates: usize,
    actual: usize,
    retry_rounds: usize,
    retried_sessions: usize,
    used_fallback: bool,
    /// Whether the *strict* intersection over the attempt-0 observed
    /// verdicts was consistent (the baseline the robust engine is
    /// measured against).
    strict_ok: bool,
    /// Whether the (masked) candidate set contains at least one truly
    /// failing observable cell.
    hit: bool,
}

/// Aggregate results of a fault-tolerant (noisy) campaign run.
#[derive(Clone, Debug)]
pub struct RobustReport {
    /// The scheme that was run.
    pub scheme: Scheme,
    /// Faults diagnosed.
    pub faults: usize,
    /// Faults resolved with [`Confidence::Exact`].
    pub exact: usize,
    /// Faults resolved with [`Confidence::Degraded`].
    pub degraded: usize,
    /// Faults left [`Confidence::Inconclusive`].
    pub inconclusive: usize,
    /// Diagnostic resolution over the conclusive faults.
    pub dr: f64,
    /// Mean candidates per conclusive fault.
    pub mean_candidates: f64,
    /// Mean truly failing observable cells per conclusive fault.
    pub mean_actual: f64,
    /// Retry rounds executed, summed over faults.
    pub retry_rounds: u64,
    /// Sessions re-executed, summed over faults.
    pub retried_sessions: u64,
    /// Faults whose candidates came from the weighted-voting fallback.
    pub fallbacks: usize,
    /// Faults where the strict intersection over the noisy attempt-0
    /// verdicts was *not* consistent (empty/contradictory/all-passed).
    pub strict_failures: usize,
    /// Strict failures the robust engine still resolved to Exact or
    /// Degraded — the headline robustness number.
    pub recovered: usize,
    /// Conclusive faults whose candidate set contains at least one
    /// truly failing cell.
    pub hits: usize,
}

impl RobustReport {
    /// Faults resolved Exact or Degraded.
    #[must_use]
    pub fn conclusive(&self) -> usize {
        self.exact + self.degraded
    }

    /// Fraction of faults resolved Exact or Degraded.
    #[must_use]
    pub fn conclusive_fraction(&self) -> f64 {
        self.conclusive() as f64 / self.faults.max(1) as f64
    }

    /// Fraction of strict failures the robust engine recovered.
    #[must_use]
    pub fn recovered_fraction(&self) -> f64 {
        self.recovered as f64 / self.strict_failures.max(1) as f64
    }

    /// Fraction of conclusive faults whose candidates contain a truly
    /// failing cell.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.conclusive().max(1) as f64
    }
}

/// A campaign with stimuli applied and faults simulated, ready to be
/// diagnosed under any partitioning scheme.
#[derive(Clone, Debug)]
pub struct PreparedCampaign {
    layout: ChainLayout,
    spec: CampaignSpec,
    cases: Vec<FaultCase>,
    /// Maps a local error-map position to the global cell id diagnosed
    /// by the plan (identity for single circuits).
    local_to_global: Vec<usize>,
    /// For SOC campaigns: the owning core of every global cell, and the
    /// index of the core the faults were injected into.
    soc_context: Option<SocContext>,
}

#[derive(Clone, Debug)]
struct SocContext {
    core_of_cell: Vec<u32>,
    core_sizes: Vec<usize>,
    faulty_core: usize,
}

impl PreparedCampaign {
    /// Prepares a campaign over a single full-scan circuit with one
    /// scan chain.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] if stimulus generation fails or no
    /// fault is detected by the pattern set.
    pub fn from_circuit(netlist: &Netlist, spec: &CampaignSpec) -> Result<Self, CampaignError> {
        Self::from_circuit_multiplets(netlist, spec, 1)
    }

    /// Prepares a campaign injecting `multiplet_size` *simultaneous*
    /// faults per case — the paper's multiple-fault scenario, where
    /// overlapping cones merge into one expanded failing segment and
    /// disjoint cones produce separate segments.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] if stimulus generation fails or no
    /// fault multiplet is detected by the pattern set.
    ///
    /// # Panics
    ///
    /// Panics if `multiplet_size` is zero.
    pub fn from_circuit_multiplets(
        netlist: &Netlist,
        spec: &CampaignSpec,
        multiplet_size: usize,
    ) -> Result<Self, CampaignError> {
        assert!(multiplet_size >= 1, "multiplet size must be at least 1");
        let _prepare = scan_obs::span!("prepare");
        let view = ScanView::ordered(netlist, spec.ordering, spec.include_outputs);
        let patterns = {
            let _span = scan_obs::span!("patterns");
            lfsr_patterns(netlist, spec.num_patterns, spec.prpg_seed)
        };
        scan_obs::metrics::add("campaign.patterns", spec.num_patterns as u64);
        let cases = build_cases(netlist, &view, &patterns, spec, multiplet_size)?;
        scan_obs::metrics::add("campaign.faults", cases.len() as u64);
        if cases.is_empty() {
            return Err(CampaignError::NoDetectedFaults);
        }
        let layout = ChainLayout::single_chain(view.len());
        let local_to_global = (0..view.len()).collect();
        Ok(PreparedCampaign {
            layout,
            spec: *spec,
            cases,
            local_to_global,
            soc_context: None,
        })
    }

    /// Prepares a campaign over an SOC with a single faulty core: the
    /// paper's SOC scenario, where spot defects confine failing cells
    /// to one core's segment of the meta scan chains.
    ///
    /// Faults are injected into `faulty_core`; the other cores respond
    /// fault-free.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError`] if the core index is invalid, stimulus
    /// generation fails, or no fault is detected.
    pub fn from_soc(
        soc: &Soc,
        faulty_core: usize,
        spec: &CampaignSpec,
    ) -> Result<Self, CampaignError> {
        let Some(core) = soc.cores().get(faulty_core) else {
            return Err(CampaignError::NoSuchCore {
                core: faulty_core,
                available: soc.cores().len(),
            });
        };
        let _prepare = scan_obs::span!("prepare");
        // Each core consumes its own slice of the PRPG stream; model it
        // as a per-core decorrelated seed (the same SplitMix64 derivation
        // rule the parallel campaign sharding uses per fault).
        let core_seed = scan_rng::derive(spec.prpg_seed, faulty_core as u64);
        let patterns = {
            let _span = scan_obs::span!("patterns");
            lfsr_patterns(core.netlist(), spec.num_patterns, core_seed)
        };
        scan_obs::metrics::add("campaign.patterns", spec.num_patterns as u64);
        let cases = build_cases(core.netlist(), core.view(), &patterns, spec, 1)?;
        if cases.is_empty() {
            return Err(CampaignError::NoDetectedFaults);
        }
        scan_obs::metrics::add("campaign.faults", cases.len() as u64);
        // Map this core's local positions to SOC-global cell ids.
        let mut local_to_global = vec![usize::MAX; core.view().len()];
        for (global, (cell, _, _)) in soc.layout().into_iter().enumerate() {
            if cell.core as usize == faulty_core {
                local_to_global[cell.local as usize] = global;
            }
        }
        debug_assert!(local_to_global.iter().all(|&g| g != usize::MAX));
        let core_of_cell: Vec<u32> = soc
            .layout()
            .into_iter()
            .map(|(cell, _, _)| cell.core)
            .collect();
        let core_sizes: Vec<usize> = soc.cores().iter().map(scan_soc::CoreModule::num_positions).collect();
        Ok(PreparedCampaign {
            layout: ChainLayout::from_soc(soc),
            spec: *spec,
            cases,
            local_to_global,
            soc_context: Some(SocContext {
                core_of_cell,
                core_sizes,
                faulty_core,
            }),
        })
    }

    /// The X-masked global cells implied by
    /// [`CampaignSpec::x_mask_fraction`]: a reproducible sample drawn
    /// from the fault seed.
    #[must_use]
    pub fn masked_cells(&self) -> BitSet {
        let n = self.layout.num_cells();
        let mut set = BitSet::new(n);
        if self.spec.x_mask_fraction <= 0.0 {
            return set;
        }
        #[allow(clippy::cast_sign_loss)] // fraction is validated ≥ 0 above
        let count = ((n as f64 * self.spec.x_mask_fraction).round() as usize).min(n);
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = scan_rng::ScanRng::seed_from_u64(self.spec.fault_seed ^ 0x584D_4153); // "XMAS"k
        rng.shuffle(&mut order);
        for &cell in order.iter().take(count) {
            set.insert(cell);
        }
        set
    }

    /// Number of prepared fault cases.
    #[must_use]
    pub fn num_faults(&self) -> usize {
        self.cases.len()
    }

    /// The chain layout under diagnosis.
    #[must_use]
    pub fn layout(&self) -> &ChainLayout {
        &self.layout
    }

    /// The campaign spec.
    #[must_use]
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Builds the diagnosis plan this campaign runs under `scheme`.
    fn build_plan(&self, scheme: Scheme) -> Result<DiagnosisPlan, CampaignError> {
        let _span = scan_obs::span!("build_plan");
        let config = self.spec.bist_config(scheme);
        Ok(DiagnosisPlan::new(
            self.layout.clone(),
            self.spec.num_patterns,
            &config,
        )?)
    }

    /// The evidence of fault case `index` under `plan`: the session
    /// outcome of its errors at the cells outside `masked`, and those
    /// observable failing cells (global ids). Pure: reads only shared
    /// state, so it may run on any thread.
    fn evidence(
        &self,
        plan: &DiagnosisPlan,
        masked: &BitSet,
        index: usize,
    ) -> (SessionOutcome, Vec<usize>) {
        let mut failing: Vec<usize> = Vec::new();
        let outcome = plan.analyze_packed(
            self.cases[index]
                .errors
                .iter_words()
                .map(|(pos, word, bits)| (self.local_to_global[pos], word, bits))
                .filter(|(cell, _, _)| !masked.contains(*cell))
                // Words arrive grouped by position: a new cell opens a run.
                .inspect(|&(cell, _, _)| {
                    if failing.last() != Some(&cell) {
                        failing.push(cell);
                    }
                }),
        );
        (outcome, failing)
    }

    /// Diagnoses fault case `index` under a prebuilt plan.
    fn case_stats(&self, plan: &DiagnosisPlan, masked: &BitSet, index: usize) -> CaseStats {
        let (outcome, failing) = self.evidence(plan, masked, index);
        let diag = diagnose_observable(plan, &outcome, masked);
        let lost = failing
            .iter()
            .filter(|&&cell| !diag.candidates().contains(cell))
            .count() as u64;
        let pruned = prune_by_cover(plan, &outcome, diag.candidates());
        scan_obs::metrics::incr("diagnosis.cases");
        scan_obs::metrics::record_pow2("diagnosis.candidates_per_fault", diag.num_candidates() as u64);
        scan_obs::metrics::record_pow2("diagnosis.actual_failing_cells", failing.len() as u64);
        CaseStats {
            candidates: diag.num_candidates(),
            actual: failing.len(),
            pruned: pruned.len(),
            prefix_counts: diag.prefix_counts().to_vec(),
            lost,
        }
    }

    /// Folds per-case statistics, **in fault-index order**, into a
    /// report: any execution that presents the same stats in the same
    /// order yields bit-identical aggregates.
    fn fold_report(&self, scheme: Scheme, stats: Vec<CaseStats>) -> SchemeReport {
        let mut final_acc = DrAccumulator::new();
        let mut pruned_acc = DrAccumulator::new();
        let mut prefix_accs = vec![DrAccumulator::new(); self.spec.partitions];
        let mut lost_cells = 0u64;
        for case in stats {
            final_acc.add(case.candidates, case.actual);
            pruned_acc.add(case.pruned, case.actual);
            for (k, &count) in case.prefix_counts.iter().enumerate() {
                prefix_accs[k].add(count, case.actual);
            }
            lost_cells += case.lost;
        }
        scan_obs::metrics::add("diagnosis.lost_cells", lost_cells);
        SchemeReport {
            scheme,
            partitions: self.spec.partitions,
            faults: self.cases.len(),
            dr: final_acc.dr(),
            dr_pruned: pruned_acc.dr(),
            dr_by_prefix: prefix_accs.iter().map(DrAccumulator::dr).collect(),
            mean_candidates: final_acc.mean_candidates(),
            mean_actual: final_acc.mean_actual(),
            lost_cells,
        }
    }

    /// Runs the diagnosis for one scheme over every prepared fault on
    /// the calling thread: [`run_parallel`](Self::run_parallel) at one
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Plan`] if the diagnosis plan cannot be
    /// built for this layout/spec.
    pub fn run(&self, scheme: Scheme) -> Result<SchemeReport, CampaignError> {
        self.run_parallel(scheme, 1)
    }

    /// Runs the diagnosis for one scheme over every prepared fault,
    /// sharded across `threads` std threads (`0` = one per available
    /// core). Bit-identical at any thread count — see
    /// [`crate::parallel`].
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Plan`] if the diagnosis plan cannot be
    /// built for this layout/spec.
    pub fn run_parallel(&self, scheme: Scheme, threads: usize) -> Result<SchemeReport, CampaignError> {
        let _span = scan_obs::span!("diagnose");
        let plan = self.build_plan(scheme)?;
        let masked = self.masked_cells();
        let stats = sharded_map(self.cases.len(), threads, |i| {
            self.case_stats(&plan, &masked, i)
        });
        Ok(self.fold_report(scheme, stats))
    }

    /// Per-fault final candidate sets (ascending cell ids), on the
    /// calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Plan`] if the diagnosis plan cannot be
    /// built for this layout/spec.
    pub fn candidate_sets(&self, scheme: Scheme) -> Result<Vec<Vec<usize>>, CampaignError> {
        let plan = self.build_plan(scheme)?;
        let masked = self.masked_cells();
        Ok(sharded_map(self.cases.len(), 1, |i| {
            let (outcome, _) = self.evidence(&plan, &masked, i);
            diagnose_observable(&plan, &outcome, &masked)
                .candidates()
                .iter()
                .collect()
        }))
    }

    /// Replays the diagnosis for `scheme` recording a per-fault audit
    /// trail: partition kinds, failing groups, and the candidate-set
    /// size after each intersection (see [`crate::audit`]).
    ///
    /// This is a separate serial pass over the prepared campaign — it
    /// shares no state with [`run`](Self::run), so enabling auditing
    /// cannot perturb campaign results.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Plan`] if the diagnosis plan cannot be
    /// built for this layout/spec.
    pub fn audit(&self, scheme: Scheme) -> Result<crate::audit::CampaignAudit, CampaignError> {
        let _span = scan_obs::span!("audit");
        let plan = self.build_plan(scheme)?;
        let masked = self.masked_cells();
        let kinds = partition_kinds(&plan);
        let faults = (0..self.cases.len())
            .map(|index| {
                let (outcome, failing) = self.evidence(&plan, &masked, index);
                let diag = diagnose_observable(&plan, &outcome, &masked);
                let steps = diag
                    .prefix_counts()
                    .iter()
                    .enumerate()
                    .map(|(p, &candidates)| crate::audit::AuditStep {
                        partition: p,
                        kind: kinds[p],
                        failing_groups: outcome.failing_groups(p).collect(),
                        candidates,
                    })
                    .collect();
                crate::audit::FaultAudit {
                    index,
                    actual: failing.len(),
                    final_candidates: diag.num_candidates(),
                    steps,
                }
            })
            .collect();
        Ok(crate::audit::CampaignAudit {
            scheme: scheme.name().to_owned(),
            groups: self.spec.groups,
            partitions: self.spec.partitions,
            faults,
        })
    }

    /// Localizes fault case `index` to a core.
    fn loc_case_stats(
        &self,
        plan: &DiagnosisPlan,
        masked: &BitSet,
        ctx: &SocContext,
        index: usize,
    ) -> LocCaseStats {
        let (outcome, _) = self.evidence(plan, masked, index);
        let diag = diagnose_observable(plan, &outcome, masked);
        let mut density = vec![0usize; ctx.core_sizes.len()];
        for cell in diag.candidates() {
            density[ctx.core_of_cell[cell] as usize] += 1;
        }
        let scores: Vec<f64> = density
            .iter()
            .zip(&ctx.core_sizes)
            .map(|(&d, &s)| d as f64 / s.max(1) as f64)
            .collect();
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        if scores[order[0]] > 0.0 {
            let runner_up = order.get(1).map_or(0.0, |&i| scores[i]);
            LocCaseStats {
                ranked: true,
                correct: order[0] == ctx.faulty_core,
                margin: scores[order[0]] - runner_up,
            }
        } else {
            LocCaseStats {
                ranked: false,
                correct: false,
                margin: 0.0,
            }
        }
    }

    /// Folds per-case localization statistics in fault-index order —
    /// the floating-point margin sum is order-sensitive.
    fn fold_localization(&self, scheme: Scheme, stats: Vec<LocCaseStats>) -> LocalizationReport {
        let mut correct = 0usize;
        let mut margins = 0.0f64;
        let mut ranked = 0usize;
        for case in stats {
            if case.ranked {
                ranked += 1;
                if case.correct {
                    correct += 1;
                }
                margins += case.margin;
            }
        }
        LocalizationReport {
            scheme,
            faults: self.cases.len(),
            top1_accuracy: correct as f64 / self.cases.len().max(1) as f64,
            mean_margin: if ranked == 0 {
                0.0
            } else {
                margins / ranked as f64
            },
        }
    }

    /// First-level SOC diagnosis on the calling thread:
    /// [`run_localization_parallel`](Self::run_localization_parallel)
    /// at one thread.
    ///
    /// # Errors
    ///
    /// Same as [`run_localization_parallel`](Self::run_localization_parallel).
    pub fn run_localization(&self, scheme: Scheme) -> Result<LocalizationReport, CampaignError> {
        self.run_localization_parallel(scheme, 1)
    }

    /// First-level SOC diagnosis: which embedded core is faulty?
    ///
    /// For each fault, the observable candidate cells are attributed to
    /// cores and the core with the highest *candidate density*
    /// (candidates per observation position) is reported as the
    /// suspect — the paper's motivating use case, where a spot defect
    /// must be traced to one core before detailed failure analysis.
    /// Sharded across `threads` std threads (`0` = one per available
    /// core); bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Plan`] if the plan cannot be built, or
    /// [`CampaignError::NotSocCampaign`] if this campaign was not
    /// prepared from an SOC.
    pub fn run_localization_parallel(
        &self,
        scheme: Scheme,
        threads: usize,
    ) -> Result<LocalizationReport, CampaignError> {
        let ctx = self
            .soc_context
            .as_ref()
            .ok_or(CampaignError::NotSocCampaign)?;
        let plan = self.build_plan(scheme)?;
        let masked = self.masked_cells();
        let stats = sharded_map(self.cases.len(), threads, |i| {
            self.loc_case_stats(&plan, &masked, ctx, i)
        });
        Ok(self.fold_localization(scheme, stats))
    }

    /// Cells excluded from evidence and candidates under `noise`: the
    /// spec's X-masked cells plus the noise model's X-corrupted cells.
    fn robust_masked(&self, noise: &NoiseModel) -> BitSet {
        let mut masked = self.masked_cells();
        masked.union_with(&noise.corrupted_cells(self.layout.num_cells()));
        masked
    }

    /// Runs the fault-tolerant diagnosis for fault case `index` under a
    /// prebuilt plan and noise model.
    fn robust_case_stats(
        &self,
        plan: &DiagnosisPlan,
        masked: &BitSet,
        noise: &NoiseModel,
        policy: &RobustPolicy,
        index: usize,
    ) -> RobustCaseStats {
        let (truth, failing) = self.evidence(plan, masked, index);
        let fault = index as u64;
        let strict_ok = diagnose(plan, &noise.observe(&truth, fault, 0).to_outcome()).status()
            == DiagnosisStatus::Consistent;
        let robust = diagnose_robust(plan, &truth, noise, policy, fault);
        let mut candidates = robust.candidates;
        if !masked.is_empty() {
            candidates.difference_with(masked);
        }
        let hit = robust.confidence != Confidence::Inconclusive
            && failing.iter().any(|&cell| candidates.contains(cell));
        scan_obs::metrics::incr("robust.cases");
        scan_obs::metrics::record_pow2("robust.candidates_per_fault", candidates.len() as u64);
        RobustCaseStats {
            confidence: robust.confidence,
            candidates: candidates.len(),
            actual: failing.len(),
            retry_rounds: robust.retry_rounds,
            retried_sessions: robust.retried_sessions,
            used_fallback: robust.used_fallback,
            strict_ok,
            hit,
        }
    }

    /// Folds per-case robust statistics, in fault-index order, into a
    /// [`RobustReport`].
    fn fold_robust_report(&self, scheme: Scheme, stats: Vec<RobustCaseStats>) -> RobustReport {
        let mut acc = DrAccumulator::new();
        let mut exact = 0usize;
        let mut degraded = 0usize;
        let mut inconclusive = 0usize;
        let mut retry_rounds = 0u64;
        let mut retried_sessions = 0u64;
        let mut fallbacks = 0usize;
        let mut strict_failures = 0usize;
        let mut recovered = 0usize;
        let mut hits = 0usize;
        for case in stats {
            match case.confidence {
                Confidence::Exact => exact += 1,
                Confidence::Degraded => degraded += 1,
                Confidence::Inconclusive => inconclusive += 1,
            }
            let conclusive = case.confidence != Confidence::Inconclusive;
            if conclusive {
                acc.add(case.candidates, case.actual);
            }
            retry_rounds += case.retry_rounds as u64;
            retried_sessions += case.retried_sessions as u64;
            if case.used_fallback {
                fallbacks += 1;
            }
            if !case.strict_ok {
                strict_failures += 1;
                if conclusive {
                    recovered += 1;
                }
            }
            if case.hit {
                hits += 1;
            }
        }
        scan_obs::metrics::add("robust.strict_failures", strict_failures as u64);
        scan_obs::metrics::add("robust.recovered", recovered as u64);
        RobustReport {
            scheme,
            faults: self.cases.len(),
            exact,
            degraded,
            inconclusive,
            dr: acc.dr(),
            mean_candidates: acc.mean_candidates(),
            mean_actual: acc.mean_actual(),
            retry_rounds,
            retried_sessions,
            fallbacks,
            strict_failures,
            recovered,
            hits,
        }
    }

    /// Runs the fault-tolerant diagnosis for one scheme over every
    /// prepared fault on the calling thread:
    /// [`run_robust_parallel`](Self::run_robust_parallel) at one thread.
    ///
    /// # Errors
    ///
    /// Same as [`run_robust_parallel`](Self::run_robust_parallel).
    pub fn run_robust(
        &self,
        scheme: Scheme,
        noise: &NoiseModel,
        policy: &RobustPolicy,
    ) -> Result<RobustReport, CampaignError> {
        self.run_robust_parallel(scheme, noise, policy, 1)
    }

    /// Runs the fault-tolerant diagnosis for one scheme over every
    /// prepared fault, sharded across `threads` std threads (`0` = one
    /// per available core). Bit-identical at any thread count — every
    /// noise draw is keyed by `(seed, fault, attempt, session)`, never
    /// by evaluation order. (`noise` is validated at
    /// [`NoiseModel::new`]; an invalid config surfaces there as
    /// [`CampaignError::Noise`] via `From`.)
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Plan`] if the diagnosis plan cannot be
    /// built for this layout/spec.
    pub fn run_robust_parallel(
        &self,
        scheme: Scheme,
        noise: &NoiseModel,
        policy: &RobustPolicy,
        threads: usize,
    ) -> Result<RobustReport, CampaignError> {
        let _span = scan_obs::span!("diagnose_robust_campaign");
        let plan = self.build_plan(scheme)?;
        let masked = self.robust_masked(noise);
        let stats = sharded_map(self.cases.len(), threads, |i| {
            self.robust_case_stats(&plan, &masked, noise, policy, i)
        });
        Ok(self.fold_robust_report(scheme, stats))
    }

    /// Replays the fault-tolerant diagnosis recording a per-fault
    /// robust audit trail: confidence, retry/vote/fallback events, and
    /// the convergence steps of the final strict attempt (see
    /// [`crate::audit::RobustAudit`]). A serial pass, like
    /// [`audit`](Self::audit).
    ///
    /// # Errors
    ///
    /// Same as [`run_robust`](Self::run_robust).
    pub fn audit_robust(
        &self,
        scheme: Scheme,
        noise: &NoiseModel,
        policy: &RobustPolicy,
    ) -> Result<crate::audit::RobustAudit, CampaignError> {
        let _span = scan_obs::span!("audit_robust");
        let plan = self.build_plan(scheme)?;
        let masked = self.robust_masked(noise);
        let kinds = partition_kinds(&plan);
        let faults = (0..self.cases.len())
            .map(|index| {
                let (truth, failing) = self.evidence(&plan, &masked, index);
                let robust = diagnose_robust(&plan, &truth, noise, policy, index as u64);
                let mut candidates = robust.candidates;
                if !masked.is_empty() {
                    candidates.difference_with(&masked);
                }
                let steps = robust
                    .prefix_counts
                    .iter()
                    .enumerate()
                    .map(|(p, &count)| crate::audit::AuditStep {
                        partition: p,
                        kind: kinds[p],
                        failing_groups: (0..robust.verdicts.num_groups(p))
                            .map(|g| g as u16)
                            .filter(|&g| {
                                robust.verdicts.verdict(p, g) == crate::noise::Verdict::Fail
                            })
                            .collect(),
                        candidates: count,
                    })
                    .collect();
                crate::audit::RobustFaultAudit {
                    index,
                    actual: failing.len(),
                    final_candidates: candidates.len(),
                    confidence: robust.confidence,
                    inconclusive: robust.inconclusive,
                    retry_rounds: robust.retry_rounds,
                    used_fallback: robust.used_fallback,
                    events: robust.events,
                    steps,
                }
            })
            .collect();
        Ok(crate::audit::RobustAudit {
            scheme: scheme.name().to_owned(),
            groups: self.spec.groups,
            partitions: self.spec.partitions,
            noise: *noise.config(),
            votes: policy.effective_votes(),
            max_retry_rounds: policy.max_retry_rounds,
            faults,
        })
    }
}

/// The strict diagnosis of `outcome`, with the `masked` cells dropped
/// from its candidates.
fn diagnose_observable(
    plan: &DiagnosisPlan,
    outcome: &SessionOutcome,
    masked: &BitSet,
) -> Diagnosis {
    let diag = diagnose(plan, outcome);
    if masked.is_empty() {
        diag
    } else {
        diag.without_cells(masked)
    }
}

/// Each partition's kind label, as audit trails report it.
fn partition_kinds(plan: &DiagnosisPlan) -> Vec<&'static str> {
    plan.partitions()
        .iter()
        .map(|p| {
            if p.is_interval() {
                "interval"
            } else {
                "random-selection"
            }
        })
        .collect()
}

/// First-level SOC diagnosis results: how reliably the faulty core is
/// identified from candidate-cell densities.
#[derive(Clone, Copy, Debug)]
pub struct LocalizationReport {
    /// The scheme that was run.
    pub scheme: Scheme,
    /// Faults diagnosed.
    pub faults: usize,
    /// Fraction of faults whose highest-density core is the truly
    /// faulty one.
    pub top1_accuracy: f64,
    /// Mean density margin between the top core and the runner-up
    /// (confidence of the call).
    pub mean_margin: f64,
}

/// Builds the BIST pattern set of a circuit from the workspace's LFSR
/// PRPG, in scan-application bit order.
///
/// # Panics
///
/// Never panics in practice (the built-in PRPG degree is always
/// supported).
#[must_use]
pub fn lfsr_patterns(netlist: &Netlist, num_patterns: usize, seed: u64) -> PatternSet {
    let mut prpg = Prpg::new(seed).expect("PRPG degree is supported");
    PatternSet::from_bit_stream(
        netlist.num_inputs(),
        netlist.num_dffs(),
        num_patterns,
        || prpg.next_bit(),
    )
}

/// Samples the campaign's detected faults (or fault multiplets, for a
/// `multiplet_size` above 1) together with their error maps, in one
/// PPSFP pass.
///
/// The cases are exactly the oracle's sample-then-simulate list (the
/// `engine_diff` harness in `scan-sim` proves it), so every campaign
/// result is a pure function of this list.
fn build_cases(
    netlist: &Netlist,
    view: &ScanView,
    patterns: &PatternSet,
    spec: &CampaignSpec,
    multiplet_size: usize,
) -> Result<Vec<FaultCase>, CampaignError> {
    let mut psim = {
        let _span = scan_obs::span!("fault_sim_init");
        PpsfpSimulator::new(netlist, view, patterns)?
    };
    let _span = scan_obs::span!("fault_sim");
    Ok(if multiplet_size == 1 {
        psim.sample_detected_with_maps(spec.num_faults, spec.fault_seed)
            .into_iter()
            .map(|(_, errors)| FaultCase { errors })
            .collect()
    } else {
        psim.sample_detected_multiplets_with_maps(spec.num_faults, multiplet_size, spec.fault_seed)
            .into_iter()
            .map(|(_, errors)| FaultCase { errors })
            .collect()
    })
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // reproducibility checks compare exact values
mod tests {
    use super::*;
    use crate::noise::NoiseConfig;
    use scan_netlist::bench;
    use scan_netlist::generate;

    fn spec_small() -> CampaignSpec {
        let mut spec = CampaignSpec::new(64, 4, 4);
        spec.num_faults = 40;
        spec
    }

    #[test]
    fn circuit_campaign_runs_all_schemes() {
        let n = generate::benchmark("s953");
        let campaign = PreparedCampaign::from_circuit(&n, &spec_small()).unwrap();
        assert!(campaign.num_faults() > 0);
        for scheme in [
            Scheme::RandomSelection,
            Scheme::IntervalBased,
            Scheme::TWO_STEP_DEFAULT,
            Scheme::FixedInterval,
        ] {
            let report = campaign.run(scheme).unwrap();
            assert_eq!(report.faults, campaign.num_faults());
            assert!(report.dr >= -1.0, "{scheme:?} dr = {}", report.dr);
            assert!(
                report.dr_pruned <= report.dr + 1e-9,
                "pruning must not worsen DR"
            );
            assert_eq!(report.dr_by_prefix.len(), 4);
            // Prefix DR is non-increasing in the partition count.
            for w in report.dr_by_prefix.windows(2) {
                assert!(w[1] <= w[0] + 1e-9);
            }
            assert!((report.dr_by_prefix[3] - report.dr).abs() < 1e-9);
        }
    }

    #[test]
    fn s27_campaign_is_tiny_but_sound() {
        let n = bench::s27();
        let mut spec = CampaignSpec::new(32, 2, 2);
        spec.num_faults = 10;
        let campaign = PreparedCampaign::from_circuit(&n, &spec).unwrap();
        let report = campaign.run(Scheme::RandomSelection).unwrap();
        assert!(report.faults > 0);
        assert!(report.mean_actual > 0.0);
    }

    #[test]
    fn reports_are_reproducible() {
        let n = generate::benchmark("s386");
        let spec = spec_small();
        let a = PreparedCampaign::from_circuit(&n, &spec)
            .unwrap()
            .run(Scheme::TWO_STEP_DEFAULT)
            .unwrap();
        let b = PreparedCampaign::from_circuit(&n, &spec)
            .unwrap()
            .run(Scheme::TWO_STEP_DEFAULT)
            .unwrap();
        assert_eq!(a.dr, b.dr);
        assert_eq!(a.dr_pruned, b.dr_pruned);
    }

    #[test]
    fn partitions_to_reach_finds_threshold() {
        let report = SchemeReport {
            scheme: Scheme::RandomSelection,
            partitions: 4,
            faults: 1,
            dr: 0.2,
            dr_pruned: 0.2,
            dr_by_prefix: vec![3.0, 1.0, 0.4, 0.2],
            mean_candidates: 0.0,
            mean_actual: 0.0,
            lost_cells: 0,
        };
        assert_eq!(report.partitions_to_reach(0.5), Some(3));
        assert_eq!(report.partitions_to_reach(0.1), None);
    }

    #[test]
    fn x_masking_degrades_but_stays_sound() {
        let n = generate::benchmark("s953");
        let mut spec = CampaignSpec::new(64, 4, 4);
        spec.num_faults = 40;
        let clean = PreparedCampaign::from_circuit(&n, &spec).unwrap();
        spec.x_mask_fraction = 0.15;
        let masked_campaign = PreparedCampaign::from_circuit(&n, &spec).unwrap();
        let masked_cells = masked_campaign.masked_cells();
        assert!(!masked_cells.is_empty());
        let clean_report = clean.run(Scheme::TWO_STEP_DEFAULT).unwrap();
        let masked_report = masked_campaign.run(Scheme::TWO_STEP_DEFAULT).unwrap();
        assert!(masked_report.faults > 0);
        // Masked cells never appear among candidates (checked via the
        // mean: removing cells can only shrink candidate counts).
        assert!(masked_report.mean_candidates <= clean_report.mean_candidates + 1e-9);
    }

    #[test]
    fn multiplet_campaign_runs() {
        let n = generate::benchmark("s953");
        let mut spec = CampaignSpec::new(64, 4, 4);
        spec.num_faults = 20;
        let campaign = PreparedCampaign::from_circuit_multiplets(&n, &spec, 2).unwrap();
        assert!(campaign.num_faults() > 0);
        let report = campaign.run(Scheme::TWO_STEP_DEFAULT).unwrap();
        // Two simultaneous faults fail at least as many cells on
        // average as the single-fault campaign would.
        assert!(report.mean_actual > 0.0);
        assert!(report.dr >= -1.0);
    }

    #[test]
    fn ordering_changes_results_but_stays_sound() {
        let n = generate::benchmark("s953");
        let mut spec = CampaignSpec::new(64, 4, 2);
        spec.num_faults = 40;
        let natural = PreparedCampaign::from_circuit(&n, &spec).unwrap();
        spec.ordering = ScanOrdering::Shuffled(7);
        let shuffled = PreparedCampaign::from_circuit(&n, &spec).unwrap();
        let rn = natural.run(Scheme::IntervalBased).unwrap();
        let rs = shuffled.run(Scheme::IntervalBased).unwrap();
        // Both run to completion; the shuffled chain loses clustering so
        // interval-based resolution typically degrades.
        assert!(rn.faults > 0 && rs.faults > 0);
        assert!(rn.dr <= rs.dr * 1.5 + 1.0, "sanity bound");
    }

    #[test]
    fn invalid_core_is_an_error() {
        let cores = vec![scan_soc::CoreModule::new(bench::s27())];
        let soc = Soc::single_chain("one", cores).unwrap();
        let err = PreparedCampaign::from_soc(&soc, 3, &spec_small());
        assert!(matches!(err, Err(CampaignError::NoSuchCore { .. })));
    }

    #[test]
    fn localization_identifies_the_faulty_core() {
        let cores = vec![
            scan_soc::CoreModule::new(generate::benchmark("s298")),
            scan_soc::CoreModule::new(generate::benchmark("s344")),
            scan_soc::CoreModule::new(generate::benchmark("s386")),
        ];
        let soc = Soc::single_chain("trio", cores).unwrap();
        let mut spec = CampaignSpec::new(64, 8, 6);
        spec.num_faults = 30;
        let campaign = PreparedCampaign::from_soc(&soc, 1, &spec).unwrap();
        let report = campaign.run_localization(Scheme::TWO_STEP_DEFAULT).unwrap();
        assert!(
            report.top1_accuracy > 0.7,
            "accuracy {} too low",
            report.top1_accuracy
        );
        assert!(report.mean_margin >= 0.0);
    }

    #[test]
    fn localization_ignores_x_masked_cells() {
        // Every cell masked: no evidence survives, so localization must
        // rank no core, just as the strict run finds no candidate.
        let cores = vec![
            scan_soc::CoreModule::new(generate::benchmark("s298")),
            scan_soc::CoreModule::new(generate::benchmark("s344")),
        ];
        let soc = Soc::single_chain("duo", cores).unwrap();
        let mut spec = CampaignSpec::new(64, 8, 6);
        spec.num_faults = 20;
        spec.x_mask_fraction = 1.0;
        let campaign = PreparedCampaign::from_soc(&soc, 1, &spec).unwrap();
        let strict = campaign.run(Scheme::TWO_STEP_DEFAULT).unwrap();
        assert_eq!(strict.mean_candidates, 0.0);
        let report = campaign.run_localization(Scheme::TWO_STEP_DEFAULT).unwrap();
        assert_eq!(report.top1_accuracy, 0.0);
        assert_eq!(report.mean_margin, 0.0);
    }

    #[test]
    fn localization_requires_soc_campaign() {
        let n = generate::benchmark("s386");
        let campaign = PreparedCampaign::from_circuit(&n, &spec_small()).unwrap();
        assert!(campaign.run_localization(Scheme::RandomSelection).is_err());
    }

    #[test]
    fn soc_campaign_diagnoses_within_faulty_core() {
        let cores = vec![
            scan_soc::CoreModule::new(generate::benchmark("s298")),
            scan_soc::CoreModule::new(generate::benchmark("s344")),
            scan_soc::CoreModule::new(generate::benchmark("s386")),
        ];
        let soc = Soc::single_chain("trio", cores).unwrap();
        let mut spec = CampaignSpec::new(64, 4, 4);
        spec.num_faults = 25;
        let campaign = PreparedCampaign::from_soc(&soc, 1, &spec).unwrap();
        let report = campaign.run(Scheme::TWO_STEP_DEFAULT).unwrap();
        assert!(report.faults > 0);
        assert!(report.dr >= -1.0);
    }

    #[test]
    #[allow(clippy::float_cmp)] // bit-identity with the strict engine is the contract
    fn robust_noiseless_matches_strict_campaign() {
        let n = generate::benchmark("s953");
        let campaign = PreparedCampaign::from_circuit(&n, &spec_small()).unwrap();
        let strict = campaign.run(Scheme::TWO_STEP_DEFAULT).unwrap();
        let noise = NoiseModel::new(NoiseConfig::noiseless(7)).unwrap();
        let robust = campaign
            .run_robust(Scheme::TWO_STEP_DEFAULT, &noise, &RobustPolicy::default())
            .unwrap();
        // Noise rate 0: every fault resolves exactly, nothing retried,
        // and DR/candidate means are bit-identical to the strict run.
        assert_eq!(robust.exact, robust.faults);
        assert_eq!(robust.degraded, 0);
        assert_eq!(robust.inconclusive, 0);
        assert_eq!(robust.retry_rounds, 0);
        assert_eq!(robust.retried_sessions, 0);
        assert_eq!(robust.fallbacks, 0);
        assert_eq!(robust.strict_failures, 0);
        assert_eq!(robust.dr, strict.dr);
        assert_eq!(robust.mean_candidates, strict.mean_candidates);
        assert_eq!(robust.mean_actual, strict.mean_actual);
    }

    #[test]
    fn robust_campaign_recovers_most_strict_failures_under_noise() {
        let n = generate::benchmark("s953");
        let mut spec = CampaignSpec::new(64, 4, 4);
        spec.num_faults = 60;
        let campaign = PreparedCampaign::from_circuit(&n, &spec).unwrap();
        let mut cfg = NoiseConfig::noiseless(11);
        cfg.flip_rate = 0.02;
        let noise = NoiseModel::new(cfg).unwrap();
        let report = campaign
            .run_robust(Scheme::TWO_STEP_DEFAULT, &noise, &RobustPolicy::default())
            .unwrap();
        assert_eq!(report.faults, campaign.num_faults());
        assert!(
            report.strict_failures > 0,
            "2% flips should break some strict intersections"
        );
        assert!(
            report.conclusive_fraction() >= 0.9,
            "conclusive fraction {} below the 90% bar",
            report.conclusive_fraction()
        );
        assert!(report.recovered_fraction() >= 0.5);
        assert!(report.hits > 0);
    }

    #[test]
    fn robust_invalid_noise_config_is_a_campaign_error() {
        let mut cfg = NoiseConfig::noiseless(1);
        cfg.flip_rate = 1.5;
        let err = NoiseModel::new(cfg).map_err(CampaignError::from).unwrap_err();
        assert!(matches!(err, CampaignError::Noise(_)));
        assert!(err.to_string().contains("flip_rate"));
    }

    #[test]
    fn robust_audit_covers_every_fault() {
        let n = generate::benchmark("s386");
        let mut spec = CampaignSpec::new(64, 4, 4);
        spec.num_faults = 12;
        let campaign = PreparedCampaign::from_circuit(&n, &spec).unwrap();
        let mut cfg = NoiseConfig::noiseless(5);
        cfg.flip_rate = 0.05;
        let noise = NoiseModel::new(cfg).unwrap();
        let audit = campaign
            .audit_robust(Scheme::TWO_STEP_DEFAULT, &noise, &RobustPolicy::default())
            .unwrap();
        assert_eq!(audit.faults.len(), campaign.num_faults());
        assert_eq!(audit.votes, 3);
        for fault in &audit.faults {
            assert_eq!(fault.steps.len(), spec.partitions);
            assert_eq!(
                fault.confidence == Confidence::Inconclusive,
                fault.inconclusive.is_some()
            );
        }
        // The audit replays the same engine the report ran.
        let report = campaign
            .run_robust(Scheme::TWO_STEP_DEFAULT, &noise, &RobustPolicy::default())
            .unwrap();
        let exact = audit
            .faults
            .iter()
            .filter(|f| f.confidence == Confidence::Exact)
            .count();
        assert_eq!(exact, report.exact);
    }
}
