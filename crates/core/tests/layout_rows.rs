//! Multi-chain layouts against a coordinate-lookup reference.
//!
//! The diagnosis kernels read each partition's cell→group row
//! ([`DiagnosisPlan::cell_groups`]) instead of looking every cell's
//! shift position up in the layout. This property builds multi-chain
//! (and shuffled one-chain) layouts, where a cell's index and its shift
//! position differ, draws random outcome grids, and checks intersection,
//! cover pruning, suspect ranking and the contradictory-grid fallback
//! of [`diagnose_reported`] against test-local references that go
//! through `layout().coord` and `Partition::group_of`.

use std::collections::BTreeSet;

use scan_bist::Scheme;
use scan_diagnosis::ranking::SuspectRanking;
use scan_diagnosis::{
    diagnose, diagnose_reported, prune_by_cover, BistConfig, CancelToken, ChainLayout, Confidence,
    DiagnosisPlan, DiagnosisStatus, SessionOutcome,
};
use scan_rng::testkit::{Gen, Runner};

const SCHEMES: [Scheme; 4] = [
    Scheme::RandomSelection,
    Scheme::IntervalBased,
    Scheme::TWO_STEP_DEFAULT,
    Scheme::FixedInterval,
];

/// A layout of 1–5 chains of 2–40 cells each, chain-major or with the
/// global cell order shuffled.
fn layout(g: &mut Gen) -> ChainLayout {
    let chains = g.usize("chains", 1, 5);
    let mut coords = Vec::new();
    for chain in 0..chains {
        let len = g.usize("chain_len", 2, 40);
        coords.extend((0..len).map(|pos| (chain as u32, pos as u32)));
    }
    if g.bool("shuffle") {
        g.rng().shuffle(&mut coords);
    }
    ChainLayout::from_coords(coords)
}

/// The reference row rule: a cell's group is its shift position's group.
fn group_of(plan: &DiagnosisPlan, partition: usize, cell: usize) -> u16 {
    let (_, pos) = plan.layout().coord(cell);
    plan.partitions()[partition].group_of(pos as usize)
}

/// A plan over a random layout with an outcome grid that is either
/// drawn session by session or analyzed from random error bits.
fn case(g: &mut Gen) -> (DiagnosisPlan, SessionOutcome) {
    let layout = layout(g);
    let max_groups = layout.max_len().min(8) as u16;
    let groups = g.u16("groups", 2, max_groups);
    let partitions = g.usize("partitions", 1, 5);
    let scheme = g.pick("scheme", &SCHEMES);
    let plan = DiagnosisPlan::new(layout, 16, &BistConfig::new(groups, partitions, scheme))
        .expect("valid plan");
    let outcome = if g.bool("random_grid") {
        let fail = g.f64("fail_rate", 0.2, 0.9);
        let rng = g.rng();
        let rows = plan
            .partitions()
            .iter()
            .map(|part| {
                (0..part.num_groups())
                    .map(|_| rng.gen_bool(fail))
                    .collect::<Vec<_>>()
            })
            .collect();
        SessionOutcome::from_verdicts(rows)
    } else {
        let cells = plan.layout().num_cells();
        let bits = g.set("bits", 1, 6, |r| (r.gen_index(cells), r.gen_index(16)));
        plan.analyze(bits)
    };
    (plan, outcome)
}

/// Reference intersection: candidates after each partition, and the
/// first partition that emptied them.
fn reference_intersection(
    plan: &DiagnosisPlan,
    outcome: &SessionOutcome,
) -> (BTreeSet<usize>, Vec<usize>, Option<usize>) {
    let mut candidates: BTreeSet<usize> = (0..plan.layout().num_cells()).collect();
    let mut prefix_counts = Vec::new();
    let mut first_empty = None;
    for p in 0..plan.partitions().len() {
        candidates.retain(|&cell| outcome.failed(p, group_of(plan, p, cell)));
        prefix_counts.push(candidates.len());
        if candidates.is_empty() && first_empty.is_none() {
            first_empty = Some(p);
        }
    }
    (candidates, prefix_counts, first_empty)
}

/// Reference cover pruning: the fixpoint of `prune_by_cover` on sets.
fn reference_prune(
    plan: &DiagnosisPlan,
    outcome: &SessionOutcome,
    candidates: &BTreeSet<usize>,
) -> BTreeSet<usize> {
    let mut groups: Vec<BTreeSet<usize>> = Vec::new();
    for (p, partition) in plan.partitions().iter().enumerate() {
        for group in 0..partition.num_groups() {
            if !outcome.failed(p, group) {
                continue;
            }
            let members: BTreeSet<usize> = candidates
                .iter()
                .copied()
                .filter(|&cell| group_of(plan, p, cell) == group)
                .collect();
            if !members.is_empty() {
                groups.push(members);
            }
        }
    }
    let mut current = candidates.clone();
    loop {
        let confirmed: BTreeSet<usize> = groups
            .iter()
            .filter_map(|members| {
                let live: Vec<usize> = members.intersection(&current).copied().collect();
                (live.len() == 1).then(|| live[0])
            })
            .collect();
        let mut next = confirmed.clone();
        for members in &groups {
            if members.is_disjoint(&confirmed) {
                next.extend(members.intersection(&current).copied());
            }
        }
        if next == current {
            return current;
        }
        current = next;
    }
}

/// Reference ranking: `Σ 1 / |failing group ∩ candidates|` per
/// candidate, strongest first, ties toward lower cells.
fn reference_ranking(
    plan: &DiagnosisPlan,
    outcome: &SessionOutcome,
    candidates: &BTreeSet<usize>,
) -> Vec<(usize, f64)> {
    let size = |p: usize, group: u16| {
        candidates
            .iter()
            .filter(|&&cell| group_of(plan, p, cell) == group)
            .count()
    };
    let mut ranked: Vec<(usize, f64)> = candidates
        .iter()
        .map(|&cell| {
            let score: f64 = (0..plan.partitions().len())
                .map(|p| {
                    let group = group_of(plan, p, cell);
                    if outcome.failed(p, group) {
                        1.0 / size(p, group).max(1) as f64
                    } else {
                        0.0
                    }
                })
                .sum();
            (cell, score)
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

/// Reference unit-weight vote: the cells covered by the most failing
/// sessions, if any cell is covered at all.
fn reference_vote(plan: &DiagnosisPlan, outcome: &SessionOutcome) -> BTreeSet<usize> {
    let support: Vec<usize> = (0..plan.layout().num_cells())
        .map(|cell| {
            (0..plan.partitions().len())
                .filter(|&p| outcome.failed(p, group_of(plan, p, cell)))
                .count()
        })
        .collect();
    let best = support.iter().copied().max().unwrap_or(0);
    if best == 0 {
        return BTreeSet::new();
    }
    (0..support.len()).filter(|&c| support[c] == best).collect()
}

#[test]
fn cell_group_rows_follow_the_layout() {
    Runner::new(96).run("cell_group_rows_follow_the_layout", |g| {
        let (plan, _) = case(g);
        for p in 0..plan.partitions().len() {
            let row = plan.cell_groups(p);
            assert_eq!(row.len(), plan.layout().num_cells());
            for (cell, &group) in row.iter().enumerate() {
                assert_eq!(group, group_of(&plan, p, cell), "partition {p} cell {cell}");
            }
        }
    });
}

#[test]
fn kernels_match_the_coordinate_reference() {
    Runner::new(96).run("kernels_match_the_coordinate_reference", |g| {
        let (plan, outcome) = case(g);
        let (want, want_prefix, first_empty) = reference_intersection(&plan, &outcome);
        let diagnosis = diagnose(&plan, &outcome);
        let got: BTreeSet<usize> = diagnosis.candidates().iter().collect();
        assert_eq!(got, want, "intersection");
        assert_eq!(diagnosis.prefix_counts(), want_prefix.as_slice());

        let pruned: BTreeSet<usize> = prune_by_cover(&plan, &outcome, diagnosis.candidates())
            .iter()
            .collect();
        assert_eq!(pruned, reference_prune(&plan, &outcome, &want), "pruning");

        let ranking = SuspectRanking::compute(&plan, &outcome, diagnosis.candidates());
        assert_eq!(
            ranking.suspects(),
            reference_ranking(&plan, &outcome, &want).as_slice(),
            "ranking"
        );

        let reported = diagnose_reported(&plan, &outcome, &CancelToken::new()).expect("live token");
        let got: BTreeSet<usize> = reported.candidates.iter().collect();
        match diagnosis.status() {
            DiagnosisStatus::Consistent => {
                assert_eq!(reported.confidence, Confidence::Exact);
                assert_eq!(got, want);
            }
            DiagnosisStatus::AllPassed => assert!(got.is_empty()),
            DiagnosisStatus::Contradictory { partition } => {
                assert_eq!(Some(partition), first_empty);
                let voted = reference_vote(&plan, &outcome);
                assert_eq!(got, voted, "fallback vote");
                assert!(reported.used_fallback);
            }
        }
    });
}

#[test]
fn contradictory_grids_are_drawn() {
    // The fallback arm above must actually run: count how many of the
    // property's cases reach it.
    let contradictory = std::cell::Cell::new(0);
    Runner::new(96).run("kernels_match_the_coordinate_reference", |g| {
        let (plan, outcome) = case(g);
        if matches!(
            diagnose(&plan, &outcome).status(),
            DiagnosisStatus::Contradictory { .. }
        ) {
            contradictory.set(contradictory.get() + 1);
        }
    });
    let contradictory = contradictory.get();
    assert!(
        contradictory >= 10,
        "only {contradictory} contradictory grids"
    );
}
