//! Differential tests of the sparse per-fault data path against
//! independent references, on generated inputs:
//!
//! * `analyze_packed` against `ResponseModel::masked_signature` (one
//!   contribution per error bit, no per-cell factoring) on ragged
//!   multi-chain and SOC meta-chain layouts, with packed words fed out
//!   of cell order and split across repeated keys;
//! * `diagnose` and `prune_by_cover` against the per-cell
//!   implementations they replaced, kept verbatim below as references,
//!   on analyzed outcomes and on arbitrary verdict grids from
//!   `SessionOutcome::from_verdicts` — including failing group indices
//!   past a partition's group count.

use scan_rng::testkit::{Gen, Runner};

use scan_bist::Scheme;
use scan_diagnosis::{
    diagnose, prune_by_cover, BistConfig, ChainLayout, DiagnosisPlan, DiagnosisStatus,
    SessionOutcome,
};
use scan_netlist::{generate, BitSet};
use scan_soc::{CoreModule, Soc};

const SCHEMES: [Scheme; 4] = [
    Scheme::RandomSelection,
    Scheme::IntervalBased,
    Scheme::TWO_STEP_DEFAULT,
    Scheme::FixedInterval,
];

/// The candidate computation `diagnose` ran before it became
/// candidate-driven: walk every surviving cell of every partition.
fn reference_diagnose(
    plan: &DiagnosisPlan,
    outcome: &SessionOutcome,
) -> (BitSet, Vec<usize>, DiagnosisStatus) {
    let layout = plan.layout();
    let num_cells = layout.num_cells();
    let mut candidates = BitSet::full(num_cells);
    let mut prefix_counts = Vec::with_capacity(plan.partitions().len());
    let mut first_empty: Option<usize> = None;
    for (p, partition) in plan.partitions().iter().enumerate() {
        let mut keep = BitSet::new(num_cells);
        for cell in &candidates {
            let (_, pos) = layout.coord(cell);
            let group = partition.group_of(pos as usize);
            if outcome.failed(p, group) {
                keep.insert(cell);
            }
        }
        candidates = keep;
        prefix_counts.push(candidates.len());
        if candidates.is_empty() && first_empty.is_none() {
            first_empty = Some(p);
        }
    }
    let status = if outcome.all_passed() {
        DiagnosisStatus::AllPassed
    } else {
        match first_empty {
            Some(partition) => DiagnosisStatus::Contradictory { partition },
            None => DiagnosisStatus::Consistent,
        }
    };
    (candidates, prefix_counts, status)
}

/// The cover-pruning fixpoint `prune_by_cover` ran before it moved to
/// candidate-indexed masks: one `Vec` of member cells per failing group.
fn reference_prune(plan: &DiagnosisPlan, outcome: &SessionOutcome, candidates: &BitSet) -> BitSet {
    let layout = plan.layout();
    // Collect failing groups as lists of candidate member cells.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (p, partition) in plan.partitions().iter().enumerate() {
        let failing: Vec<bool> = (0..partition.num_groups())
            .map(|g| outcome.failed(p, g))
            .collect();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); usize::from(partition.num_groups())];
        for cell in candidates {
            let (_, pos) = layout.coord(cell);
            let g = usize::from(partition.group_of(pos as usize));
            if failing[g] {
                members[g].push(cell);
            }
        }
        for (g, cells) in members.into_iter().enumerate() {
            if failing[g] {
                groups.push(cells);
            }
        }
    }

    let mut current = candidates.clone();
    loop {
        // Rule 1: single-candidate groups confirm their cell.
        let mut confirmed = BitSet::new(current.capacity());
        for group in &groups {
            let members: Vec<usize> = group
                .iter()
                .copied()
                .filter(|&c| current.contains(c))
                .collect();
            if members.len() == 1 {
                confirmed.insert(members[0]);
            }
        }
        // Rule 2: keep confirmed cells plus every member of a group not
        // yet explained by a confirmed cell.
        let mut next = confirmed.clone();
        for group in &groups {
            let explained = group.iter().any(|&c| confirmed.contains(c));
            if !explained {
                for &c in group {
                    if current.contains(c) {
                        next.insert(c);
                    }
                }
            }
        }
        if next == current {
            return current;
        }
        current = next;
    }
}

/// A ragged multi-chain layout: 1–5 chains of independent lengths.
fn multi_chain_layout(g: &mut Gen) -> ChainLayout {
    let chains = g.usize("chains", 1, 5);
    let mut coords = Vec::new();
    for chain in 0..chains {
        let len = g.usize(&format!("chain{chain}.len"), 1, 60);
        coords.extend((0..len as u32).map(|pos| (chain as u32, pos)));
    }
    ChainLayout::from_coords(coords)
}

/// A two-core SOC on a TAM of 1–8 balanced meta scan chains.
fn soc_layout(g: &mut Gen) -> ChainLayout {
    let width = g.usize("tam_width", 1, 8);
    let cores = vec![
        CoreModule::new(generate::benchmark("s27")),
        CoreModule::new(generate::benchmark("s298")),
    ];
    ChainLayout::from_soc(&Soc::balanced("pair", cores, width).expect("valid SOC"))
}

fn draw_layout(g: &mut Gen) -> ChainLayout {
    if g.bool("soc") {
        soc_layout(g)
    } else {
        multi_chain_layout(g)
    }
}

/// A plan over `layout` with a generated scheme and sizing, or `None`
/// when the draw asks for more groups than the layout has positions.
fn draw_plan(g: &mut Gen, layout: ChainLayout, patterns: usize) -> Option<DiagnosisPlan> {
    let groups = g.u16("groups", 1, 9);
    let partitions = g.usize("partitions", 1, 6);
    let scheme = g.pick("scheme", &SCHEMES);
    if usize::from(groups) > layout.max_len() {
        return None;
    }
    let config = BistConfig::new(groups, partitions, scheme);
    Some(DiagnosisPlan::new(layout, patterns, &config).expect("plan builds"))
}

/// Sparse error bits, deduplicated, in `(cell, pattern)` order.
fn error_bits(g: &mut Gen, cells: usize, patterns: usize) -> Vec<(usize, usize)> {
    g.set("bits", 0, 40, |r| {
        (r.gen_index(cells), r.gen_index(patterns))
    })
    .into_iter()
    .collect()
}

/// Packs bits into `(cell, word, bits)` triples, then scrambles them:
/// words are split into two triples with disjoint lanes when possible,
/// and the whole list is reversed and interleaved so cells come out of
/// order and repeat.
fn scrambled_words(g: &mut Gen, bits: &[(usize, usize)]) -> Vec<(usize, usize, u64)> {
    let mut words: Vec<(usize, usize, u64)> = Vec::new();
    for &(cell, pattern) in bits {
        let (w, lane) = (pattern / 64, pattern % 64);
        match words.last_mut() {
            Some(last) if last.0 == cell && last.1 == w => last.2 |= 1 << lane,
            _ => words.push((cell, w, 1 << lane)),
        }
    }
    let mut split = Vec::new();
    for (cell, w, word) in words {
        let low = word & word.wrapping_neg();
        if word != low {
            split.push((cell, w, low));
            split.push((cell, w, word ^ low));
        } else {
            split.push((cell, w, word));
        }
    }
    split.reverse();
    let stride = g.usize("interleave", 1, 4);
    let mut scrambled = Vec::with_capacity(split.len());
    for start in 0..stride {
        scrambled.extend(split.iter().skip(start).step_by(stride).copied());
    }
    scrambled
}

#[test]
fn analyze_packed_matches_masked_signatures_on_multi_chain_and_soc_layouts() {
    Runner::new(48).run("analyze_packed_matches_masked_signatures", |g| {
        let patterns = g.pick("patterns", &[1usize, 63, 64, 65, 130]);
        let layout = draw_layout(g);
        let cells = layout.num_cells();
        let Some(plan) = draw_plan(g, layout, patterns) else {
            return;
        };
        let bits = error_bits(g, cells, patterns);
        let words = scrambled_words(g, &bits);
        let outcome = plan.analyze_packed(words.iter().copied());
        assert_eq!(
            outcome,
            plan.analyze(bits.iter().copied()),
            "per-bit oracle"
        );
        for (p, partition) in plan.partitions().iter().enumerate() {
            assert_eq!(outcome.num_groups(p), outcome.num_groups(0));
            for group in 0..outcome.num_groups(p) as u16 {
                let want = plan
                    .model()
                    .masked_signature(bits.iter().copied(), |cell, _| {
                        let (_, pos) = plan.layout().coord(cell);
                        partition.group_of(pos as usize) == group
                    });
                assert_eq!(
                    outcome.error_signature(p, group),
                    want,
                    "partition {p} group {group}"
                );
            }
        }
    });
}

#[test]
fn diagnose_and_prune_match_per_cell_references_on_analyzed_outcomes() {
    Runner::new(64).run("diagnose_prune_match_references_analyzed", |g| {
        let patterns = 64;
        let layout = draw_layout(g);
        let cells = layout.num_cells();
        let Some(plan) = draw_plan(g, layout, patterns) else {
            return;
        };
        let bits = error_bits(g, cells, patterns);
        let outcome = plan.analyze(bits.iter().copied());
        check_against_references(g, &plan, &outcome);
    });
}

#[test]
fn diagnose_and_prune_match_per_cell_references_on_arbitrary_verdicts() {
    Runner::new(64).run("diagnose_prune_match_references_verdicts", |g| {
        let layout = draw_layout(g);
        let Some(plan) = draw_plan(g, layout, 16) else {
            return;
        };
        // Rows are at least as wide as every partition, and up to three
        // groups wider: those trailing failing verdicts name no cell.
        let widest = plan
            .partitions()
            .iter()
            .map(|p| usize::from(p.num_groups()))
            .max()
            .unwrap_or(0);
        let width = widest + g.usize("extra_groups", 0, 3);
        let density = g.usize("fail_density", 0, 4);
        let fails: Vec<Vec<bool>> = (0..plan.partitions().len())
            .map(|_| (0..width).map(|_| g.rng().gen_index(5) < density).collect())
            .collect();
        let outcome = SessionOutcome::from_verdicts(fails);
        check_against_references(g, &plan, &outcome);
    });
}

fn check_against_references(g: &mut Gen, plan: &DiagnosisPlan, outcome: &SessionOutcome) {
    let diag = diagnose(plan, outcome);
    let (candidates, prefix_counts, status) = reference_diagnose(plan, outcome);
    assert_eq!(diag.candidates(), &candidates, "candidates");
    assert_eq!(diag.prefix_counts(), &prefix_counts[..], "prefix counts");
    assert_eq!(diag.status(), status, "status");

    assert_eq!(
        prune_by_cover(plan, outcome, diag.candidates()),
        reference_prune(plan, outcome, diag.candidates()),
        "pruning the intersection"
    );
    // Pruning takes any candidate set, not only an intersection.
    let cells = plan.layout().num_cells();
    let mut arbitrary = BitSet::new(cells);
    for cell in g.set("prune_candidates", 0, 80, |r| r.gen_index(cells)) {
        arbitrary.insert(cell);
    }
    assert_eq!(
        prune_by_cover(plan, outcome, &arbitrary),
        reference_prune(plan, outcome, &arbitrary),
        "pruning an arbitrary set"
    );
}
