//! Extension experiment: multiple simultaneous faults.
//!
//! Section 3 argues the multiple-fault case behaves like the single-
//! fault one: overlapping cones merge into one expanded failing segment
//! (Fig. 2b), disjoint cones give separate segments (Fig. 2a), both of
//! which interval partitioning covers with few groups. This experiment
//! injects fault multiplets of growing size and compares schemes.

use scan_bist::Scheme;
use scan_diagnosis::{CampaignSpec, PreparedCampaign};
use scan_netlist::generate;

use crate::report::{Cell, Report};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let circuit = generate::benchmark("s5378");
    let mut spec = CampaignSpec::new(128, 8, 8);
    spec.num_faults = 250;
    report.line(format!(
        "Multiple simultaneous faults — s5378, {} groups, {} partitions, {} multiplets",
        spec.groups, spec.partitions, spec.num_faults
    ));
    report.line("");
    let mut rows = Vec::new();
    for size in [1usize, 2, 3, 5] {
        let campaign = PreparedCampaign::from_circuit_multiplets(&circuit, &spec, size)
            .expect("campaign prepares");
        let random = campaign
            .run_parallel(Scheme::RandomSelection, 0)
            .expect("random run");
        let two_step = campaign
            .run_parallel(Scheme::TWO_STEP_DEFAULT, 0)
            .expect("two-step run");
        rows.push(vec![
            Cell::count(size),
            Cell::fixed(two_step.mean_actual, 1),
            Cell::dr(random.dr),
            Cell::dr(two_step.dr),
            Cell::dr(random.dr_pruned),
            Cell::dr(two_step.dr_pruned),
        ]);
    }
    report.table(
        &[
            "faults/case",
            "mean failing cells",
            "DR random",
            "DR two-step",
            "random (pruned)",
            "two-step (pruned)",
        ],
        rows,
    );
    report
}
