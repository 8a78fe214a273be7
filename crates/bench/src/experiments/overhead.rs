//! Hardware cost of the selection logic: the paper's claim that
//! two-step partitioning needs "only two additional registers" over the
//! classical random-selection hardware, quantified per experiment
//! configuration.

use scan_bist::overhead::{
    random_selection_cost, two_step_cost, two_step_overhead, SelectionHardwareSpec,
};
use scan_bist::seed::length_bits;

use crate::report::{Cell, Report};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    report.line("Selection hardware cost (Fig. 1 block diagram, gate-equivalent estimates)");
    report.line("");
    let configs = [
        ("s953 (T1)", 52usize, 200usize, 4u16),
        ("s5378", 228, 128, 8),
        ("s38584 (T2)", 1730, 128, 16),
        ("SOC 1 (T3)", 7244, 128, 32),
        ("SOC 2 (T4)", 942, 128, 8),
    ];
    let mut rows = Vec::new();
    for (label, chain_len, patterns, groups) in configs {
        let spec = SelectionHardwareSpec {
            chain_len,
            num_patterns: patterns,
            groups,
            lfsr_degree: 16,
            length_bits: length_bits(chain_len, groups, 16),
        };
        let base = random_selection_cost(&spec);
        let two = two_step_cost(&spec);
        let (delta, frac) = two_step_overhead(&spec);
        rows.push(vec![
            Cell::text(label),
            Cell::text(format!("{} FF + {} gates", base.flip_flops, base.gates)),
            Cell::text(format!("{} FF + {} gates", two.flip_flops, two.gates)),
            Cell::text(format!("+{} FF, +{} gates", delta.flip_flops, delta.gates)),
            Cell::percent(frac * 100.0, 1),
        ]);
    }
    report.table(
        &[
            "configuration",
            "random-selection HW",
            "two-step HW",
            "two-step delta",
            "area overhead",
        ],
        rows,
    );
    report.line("");
    report.line("delta = Shift Counter 2 + Test Counter 2 + zero-detect logic (the paper's \"two additional registers\")");
    report
}
