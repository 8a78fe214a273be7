//! Property-based tests for the diagnosis engine's invariants, on the
//! in-workspace shrink-free harness.

use scan_rng::testkit::{Gen, Runner};

use scan_bist::Scheme;
use scan_diagnosis::{
    diagnose, prune_by_cover, BistConfig, CampaignSpec, ChainLayout, DiagnosisPlan,
    NoiseConfig, NoiseModel, PreparedCampaign, RobustPolicy,
};
use scan_netlist::generate::{generate_with, profile, GeneratorConfig};
use scan_netlist::{Netlist, ScanOrdering};

const SCHEMES: [Scheme; 4] = [
    Scheme::RandomSelection,
    Scheme::IntervalBased,
    Scheme::TWO_STEP_DEFAULT,
    Scheme::FixedInterval,
];

/// Draws the deduplicated sparse error bits used by the plan
/// properties: `(cell, pattern)` pairs with cells folded into the
/// chain.
fn error_bits(g: &mut Gen, chain_len: usize, max_pat: usize, max_count: usize) -> Vec<(usize, usize)> {
    let bits = g.set("bits", 1, max_count, |r| {
        (r.gen_index(300), r.gen_index(max_pat))
    });
    bits.into_iter()
        .map(|(c, t)| (c % chain_len, t))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Soundness without aliasing: when each partition-group containing an
/// error actually fails (guaranteed unless contributions cancel),
/// every error-capturing cell stays in the candidate set.
#[test]
fn candidates_contain_error_cells() {
    Runner::new(48).run("candidates_contain_error_cells", |g| {
        let chain_len = g.usize("chain_len", 16, 299);
        let groups = g.u16("groups", 2, 8);
        let partitions = g.usize("partitions", 1, 5);
        let scheme = g.pick("scheme", &SCHEMES);
        let bits = error_bits(g, chain_len, 32, 11);
        let plan = DiagnosisPlan::new(
            ChainLayout::single_chain(chain_len),
            32,
            &BistConfig::new(groups, partitions, scheme),
        )
        .unwrap();
        let outcome = plan.analyze(bits.iter().copied());
        let diag = diagnose(&plan, &outcome);
        // Identify cells whose every group fails (i.e. not aliased).
        for &(cell, _) in &bits {
            let aliased = (0..partitions).any(|p| {
                let gr = plan.partitions()[p].group_of(cell);
                !outcome.failed(p, gr)
            });
            if !aliased {
                assert!(diag.candidates().contains(cell), "cell {cell} lost");
            }
        }
    });
}

/// Pruning returns a subset that still explains every failing session.
#[test]
fn pruning_subset_and_explaining() {
    Runner::new(48).run("pruning_subset_and_explaining", |g| {
        let chain_len = g.usize("chain_len", 16, 199);
        let groups = g.u16("groups", 2, 8);
        let partitions = g.usize("partitions", 1, 5);
        let scheme = g.pick("scheme", &SCHEMES);
        let bits = error_bits(g, chain_len, 16, 9);
        let plan = DiagnosisPlan::new(
            ChainLayout::single_chain(chain_len),
            16,
            &BistConfig::new(groups, partitions, scheme),
        )
        .unwrap();
        let outcome = plan.analyze(bits.iter().copied());
        let diag = diagnose(&plan, &outcome);
        let pruned = prune_by_cover(&plan, &outcome, diag.candidates());
        assert!(pruned.is_subset(diag.candidates()));
        for (p, partition) in plan.partitions().iter().enumerate() {
            for gr in outcome.failing_groups(p) {
                // If the intersection left any candidate in this group,
                // pruning must keep at least one.
                let had = partition
                    .members(gr)
                    .any(|pos| diag.candidates().contains(pos));
                if had {
                    assert!(
                        partition.members(gr).any(|pos| pruned.contains(pos)),
                        "partition {p} group {gr} lost all explanations"
                    );
                }
            }
        }
    });
}

/// Prefix candidate counts are non-increasing in the number of
/// partitions for every scheme.
#[test]
fn prefix_counts_monotone() {
    Runner::new(48).run("prefix_counts_monotone", |g| {
        let chain_len = g.usize("chain_len", 16, 199);
        let groups = g.u16("groups", 2, 8);
        let scheme = g.pick("scheme", &SCHEMES);
        let bits = error_bits(g, chain_len, 16, 9);
        let plan = DiagnosisPlan::new(
            ChainLayout::single_chain(chain_len),
            16,
            &BistConfig::new(groups, 6, scheme),
        )
        .unwrap();
        let outcome = plan.analyze(bits.iter().copied());
        let diag = diagnose(&plan, &outcome);
        for w in diag.prefix_counts().windows(2) {
            assert!(w[1] <= w[0]);
        }
    });
}

/// Multi-chain layouts: a cell's group assignment depends only on its
/// shift position, so same-position cells of different chains are
/// candidates or pruned together.
#[test]
fn same_position_cells_share_fate() {
    Runner::new(48).run("same_position_cells_share_fate", |g| {
        let chains = g.usize("chains", 2, 6);
        let chain_len = g.usize("chain_len", 8, 63);
        let groups = g.u16("groups", 2, 4);
        let bit_cell = g.usize("bit_cell", 0, 63);
        let bit_pat = g.usize("bit_pat", 0, 7);
        let mut coords = Vec::new();
        for c in 0..chains {
            for p in 0..chain_len {
                coords.push((c as u32, p as u32));
            }
        }
        let layout = ChainLayout::from_coords(coords);
        let num_cells = layout.num_cells();
        let plan = DiagnosisPlan::new(
            layout,
            8,
            &BistConfig::new(groups, 3, Scheme::RandomSelection),
        )
        .unwrap();
        let cell = bit_cell % num_cells;
        let outcome = plan.analyze([(cell, bit_pat)]);
        let diag = diagnose(&plan, &outcome);
        // The twin cell on another chain at the same shift position.
        let pos = cell % chain_len;
        let other_chain = (cell / chain_len + 1) % chains;
        let twin = other_chain * chain_len + pos;
        assert_eq!(
            diag.candidates().contains(cell),
            diag.candidates().contains(twin),
            "cells at shift position {pos} disagree"
        );
    });
}

fn random_circuit(g: &mut Gen) -> Netlist {
    let name = g.pick("profile", &["s298", "s344", "s386"]);
    let seed = g.u64("circuit_seed", 0, 31);
    generate_with(profile(name).unwrap(), seed, &GeneratorConfig::default())
}

/// A generated campaign spec and scheme. Pattern counts are usually not
/// multiples of 64, so the ragged last word is always in play.
fn random_spec(g: &mut Gen) -> (CampaignSpec, Scheme) {
    let patterns = g.usize("patterns", 33, 130);
    let groups = g.u16("groups", 2, 6);
    let partitions = g.usize("partitions", 2, 6);
    let scheme = g.pick(
        "scheme",
        &[
            Scheme::TWO_STEP_DEFAULT,
            Scheme::RandomSelection,
            Scheme::IntervalBased,
        ],
    );
    let mut spec = CampaignSpec::new(patterns, groups, partitions);
    spec.num_faults = g.usize("faults", 10, 40);
    spec.fault_seed = g.u64("fault_seed", 0, 1 << 20);
    if g.bool("shuffled_chain") {
        spec.ordering = ScanOrdering::Shuffled(g.u64("chain_seed", 0, 1 << 10));
    }
    (spec, scheme)
}

/// Strict campaigns are deterministic and serial equals sharded: two
/// independent preparations of the same spec give the same report,
/// per-fault candidate sets and audit trail (which pins every session
/// verdict and failing group), and the sharded runs at 1/2/8 threads
/// reproduce the serial report exactly. Covers single faults and
/// multiplets.
#[test]
fn strict_runs_identical_serial_and_sharded() {
    Runner::new(6).run("strict_runs_identical_serial_and_sharded", |g| {
        let n = random_circuit(g);
        let (spec, scheme) = random_spec(g);
        let size = g.usize("multiplet_size", 1, 3);
        let campaign = PreparedCampaign::from_circuit_multiplets(&n, &spec, size).unwrap();
        let again = PreparedCampaign::from_circuit_multiplets(&n, &spec, size).unwrap();
        assert_eq!(campaign.num_faults(), again.num_faults());
        // Reports carry f64 aggregates; Debug formatting is exact for
        // f64, so string equality is bit-identity.
        let reference = format!("{:?}", campaign.run(scheme).unwrap());
        assert_eq!(reference, format!("{:?}", again.run(scheme).unwrap()));
        let candidates = campaign.candidate_sets(scheme).unwrap();
        assert_eq!(candidates, again.candidate_sets(scheme).unwrap());
        let audit = campaign.audit(scheme).unwrap();
        let again_audit = again.audit(scheme).unwrap();
        assert_eq!(audit, again_audit);
        assert_eq!(audit.to_ndjson(), again_audit.to_ndjson());
        for (fault, cells) in audit.faults.iter().zip(&candidates) {
            assert_eq!(fault.final_candidates, cells.len(), "fault {}", fault.index);
        }
        for threads in [1usize, 2, 8] {
            assert_eq!(
                reference,
                format!("{:?}", campaign.run_parallel(scheme, threads).unwrap()),
                "sharded run diverged at {threads} threads"
            );
        }
    });
}

/// The fault-tolerant (robust) path is serial-equals-sharded too:
/// retries, votes, and fallbacks all replay identically at 1/2/8
/// threads because every noise draw is keyed by fault and session.
#[test]
fn robust_runs_identical_serial_and_sharded() {
    Runner::new(4).run("robust_runs_identical_serial_and_sharded", |g| {
        let n = random_circuit(g);
        let (spec, scheme) = random_spec(g);
        let campaign = PreparedCampaign::from_circuit(&n, &spec).unwrap();
        let mut config = NoiseConfig::noiseless(g.u64("noise_seed", 0, 1 << 20));
        config.flip_rate = g.f64("flip", 0.0, 0.1);
        config.dropout_rate = g.f64("dropout", 0.0, 0.05);
        let noise = NoiseModel::new(config).unwrap();
        let policy = RobustPolicy {
            max_retry_rounds: 2,
            votes: 3,
        };
        let reference = format!("{:?}", campaign.run_robust(scheme, &noise, &policy).unwrap());
        for threads in [1usize, 2, 8] {
            assert_eq!(
                reference,
                format!(
                    "{:?}",
                    campaign
                        .run_robust_parallel(scheme, &noise, &policy, threads)
                        .unwrap()
                ),
                "sharded robust run diverged at {threads} threads"
            );
        }
    });
}
