//! Extension experiment: two simultaneously faulty cores.
//!
//! The paper assumes a spot defect confined to one core; this
//! experiment stresses that assumption with defects in *two* cores at
//! once on SOC 1 and asks (a) whether candidate cells still confine to
//! the two faulty cores' chain segments, and (b) whether density-based
//! localization still ranks both faulty cores on top (top-2 accuracy).

use scan_bist::Scheme;
use scan_diagnosis::{diagnose, BistConfig, ChainLayout, DiagnosisPlan, DrAccumulator};
use scan_sim::PpsfpSimulator;
use scan_soc::d695;

use crate::report::{Cell, Report};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let soc = d695::soc1().expect("SOC 1 builds");
    let num_patterns = 128usize;
    let groups = 32u16;
    let partitions = 8usize;
    let cases = 100usize;
    report.line(format!(
        "Two faulty cores — SOC 1, {groups} groups, {partitions} partitions, {cases} fault pairs per core pair"
    ));
    report.line("");

    let layout = ChainLayout::from_soc(&soc);
    let core_of_cell: Vec<u32> = soc.layout().into_iter().map(|(c, _, _)| c.core).collect();
    let core_sizes: Vec<usize> = soc
        .cores()
        .iter()
        .map(scan_soc::CoreModule::num_positions)
        .collect();

    // Precompute per-core fault evidence (packed error words in global
    // ids).
    let mut per_core: Vec<Vec<Vec<(usize, usize, u64)>>> = Vec::new();
    for (index, core) in soc.cores().iter().enumerate() {
        let seed = 0xACE1u64.wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let patterns = scan_diagnosis::lfsr_patterns(core.netlist(), num_patterns, seed);
        let mut psim =
            PpsfpSimulator::new(core.netlist(), core.view(), &patterns).expect("shapes match");
        let sampled = psim.sample_detected_with_maps(cases, 2003);
        let mut local_to_global = vec![usize::MAX; core.view().len()];
        for (global, (cell, _, _)) in soc.layout().into_iter().enumerate() {
            if cell.core as usize == index {
                local_to_global[cell.local as usize] = global;
            }
        }
        per_core.push(
            sampled
                .iter()
                .map(|(_, errors)| {
                    errors
                        .iter_words()
                        .map(|(pos, w, bits)| (local_to_global[pos], w, bits))
                        .collect()
                })
                .collect(),
        );
        eprintln!("  prepared {}", core.name());
    }

    let mut rows = Vec::new();
    for scheme in [Scheme::RandomSelection, Scheme::TWO_STEP_DEFAULT] {
        let plan = DiagnosisPlan::new(
            layout.clone(),
            num_patterns,
            &BistConfig::new(groups, partitions, scheme),
        )
        .expect("plan builds");
        // Pair adjacent cores: (0,3), (1,4), (2,5).
        for (a, b) in [(0usize, 3usize), (1, 4), (2, 5)] {
            let mut acc = DrAccumulator::new();
            let mut top2_hits = 0usize;
            let n_cases = per_core[a].len().min(per_core[b].len());
            for (words_a, words_b) in per_core[a].iter().zip(&per_core[b]) {
                let words = words_a.iter().chain(words_b).copied();
                let actual: std::collections::HashSet<usize> =
                    words.clone().map(|(c, _, _)| c).collect();
                let outcome = plan.analyze_packed(words);
                let diag = diagnose(&plan, &outcome);
                acc.add(diag.num_candidates(), actual.len());
                // Density ranking, top-2.
                let mut density = vec![0usize; core_sizes.len()];
                for cell in diag.candidates() {
                    density[core_of_cell[cell] as usize] += 1;
                }
                let scores: Vec<f64> = density
                    .iter()
                    .zip(&core_sizes)
                    .map(|(&d, &s)| d as f64 / s.max(1) as f64)
                    .collect();
                let mut order: Vec<usize> = (0..scores.len()).collect();
                order.sort_by(|&x, &y| scores[y].total_cmp(&scores[x]));
                let top2: std::collections::HashSet<usize> =
                    order.iter().take(2).copied().collect();
                if top2.contains(&a) && top2.contains(&b) {
                    top2_hits += 1;
                }
            }
            rows.push(vec![
                Cell::text(scheme.name()),
                Cell::text(format!(
                    "{} + {}",
                    soc.cores()[a].name(),
                    soc.cores()[b].name()
                )),
                Cell::dr(acc.dr()),
                Cell::percent(100.0 * top2_hits as f64 / n_cases as f64, 1),
            ]);
        }
    }
    report.table(&["scheme", "faulty cores", "DR", "top-2 localization"], rows);
    report
}
