//! The traced decomposition of a campaign: the same work as
//! `PreparedCampaign::from_circuit` + `run`, driven call by call
//! through the public pieces so each layer gets its own span.
//!
//! Preparation is `ScanView::ordered` + `lfsr_patterns` +
//! `PpsfpSimulator::new` (`sim.init`), then
//! `sample_detected_with_maps` (`sim.fault_sim`). Each fault then runs
//! `analyze_packed` (`core.analyze`, the MISR compaction) →
//! `diagnose` (`core.diagnose`) → `prune_by_cover` (`core.prune`) →
//! `SuspectRanking::compute` (`core.rank`). The folded DR must equal
//! the campaign runner's bit for bit; the caller checks that. Faults
//! run one after another on the calling thread, so the spans nest.

use scan_bist::Scheme;
use scan_diagnosis::ranking::SuspectRanking;
use scan_diagnosis::{
    diagnose, diagnose_robust, lfsr_patterns, prune_by_cover, BistConfig, CampaignSpec,
    ChainLayout, DiagnosisPlan, DrAccumulator, NoiseModel, RobustPolicy,
};
use scan_netlist::{Netlist, ScanView};
use scan_sim::{ErrorMap, PpsfpSimulator};

use crate::trace::Local;

/// A single-chain campaign's prepared evidence.
pub struct Cases {
    cells: usize,
    maps: Vec<ErrorMap>,
}

/// Prepares `spec.num_faults` detected faults (or fault multiplets of
/// `multiplet` simultaneous faults) on `netlist`.
pub fn prepare(
    local: &mut Local<'_>,
    netlist: &Netlist,
    spec: &CampaignSpec,
    multiplet: usize,
) -> Cases {
    local.enter("sim.init");
    let view = ScanView::ordered(netlist, spec.ordering, spec.include_outputs);
    let patterns = lfsr_patterns(netlist, spec.num_patterns, spec.prpg_seed);
    let mut psim =
        PpsfpSimulator::new(netlist, &view, &patterns).expect("PRPG patterns fit the circuit");
    local.exit();
    let maps: Vec<ErrorMap> = local.time("sim.fault_sim", || {
        if multiplet == 1 {
            psim.sample_detected_with_maps(spec.num_faults, spec.fault_seed)
                .into_iter()
                .map(|(_, map)| map)
                .collect()
        } else {
            psim.sample_detected_multiplets_with_maps(spec.num_faults, multiplet, spec.fault_seed)
                .into_iter()
                .map(|(_, map)| map)
                .collect()
        }
    });
    local.add("sim.faults", maps.len() as f64);
    Cases {
        cells: view.len(),
        maps,
    }
}

fn plan(
    local: &mut Local<'_>,
    cases: &Cases,
    spec: &CampaignSpec,
    scheme: Scheme,
) -> DiagnosisPlan {
    local.time("core.plan", || {
        DiagnosisPlan::new(
            ChainLayout::single_chain(cases.cells),
            spec.num_patterns,
            &BistConfig {
                groups: spec.groups,
                partitions: spec.partitions,
                scheme,
                misr_degree: spec.misr_degree,
                partition_lfsr_degree: spec.partition_lfsr_degree,
                partition_seed: spec.partition_seed,
            },
        )
        .expect("campaign spec builds a plan")
    })
}

/// `(dr, dr_pruned)` of one scheme, diagnosed fault by fault.
pub fn run(
    local: &mut Local<'_>,
    cases: &Cases,
    spec: &CampaignSpec,
    scheme: Scheme,
) -> (f64, f64) {
    let plan = plan(local, cases, spec, scheme);
    let mut dr = DrAccumulator::new();
    let mut dr_pruned = DrAccumulator::new();
    for map in &cases.maps {
        local.add("core.error_bits", map.num_error_bits() as f64);
        let outcome = local.time("core.analyze", || plan.analyze_packed(map.iter_words()));
        // lint:allow(L008): this replays PreparedCampaign::run call by call; an empty set is a measured result, and the DR it feeds is checked against the runner's
        let diag = local.time("core.diagnose", || diagnose(&plan, &outcome));
        let pruned = local.time("core.prune", || {
            prune_by_cover(&plan, &outcome, diag.candidates())
        });
        let ranked = local.time("core.rank", || {
            SuspectRanking::compute(&plan, &outcome, diag.candidates())
                .suspects()
                .len()
        });
        local.add("core.candidates", diag.num_candidates() as f64);
        std::hint::black_box(ranked);
        let actual = map.failing_positions().len();
        dr.add(diag.num_candidates(), actual);
        dr_pruned.add(pruned.len(), actual);
    }
    (dr.dr(), dr_pruned.dr())
}

/// `(conclusive faults, DR over them)` of a noisy campaign, diagnosed
/// fault by fault with `diagnose_robust`.
pub fn run_robust(
    local: &mut Local<'_>,
    cases: &Cases,
    spec: &CampaignSpec,
    scheme: Scheme,
    noise: &NoiseModel,
    policy: &RobustPolicy,
) -> (usize, f64) {
    let plan = plan(local, cases, spec, scheme);
    let masked = noise.corrupted_cells(cases.cells);
    let mut acc = DrAccumulator::new();
    for (i, map) in cases.maps.iter().enumerate() {
        local.add("core.error_bits", map.num_error_bits() as f64);
        let truth = local.time("core.analyze", || {
            plan.analyze_packed(
                map.iter_words()
                    .filter(|(cell, _, _)| !masked.contains(*cell)),
            )
        });
        let robust = local.time("core.robust", || {
            diagnose_robust(&plan, &truth, noise, policy, i as u64)
        });
        local.add("core.robust_attempts", 1.0);
        if !robust.is_conclusive() {
            continue;
        }
        local.add("core.robust_conclusive", 1.0);
        let mut candidates = robust.candidates;
        candidates.difference_with(&masked);
        let actual = map
            .failing_positions()
            .iter()
            .filter(|pos| !masked.contains(*pos))
            .count();
        acc.add(candidates.len(), actual);
    }
    (acc.num_faults(), acc.dr())
}
