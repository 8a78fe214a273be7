//! Ablation: unknown (X) value masking vs diagnostic resolution.
//!
//! Real scan-BIST masks X-producing cells (uninitialized memories,
//! multi-cycle paths) before the compactor; their errors are invisible
//! and diagnosis loses both evidence and suspects. This sweep measures
//! how gracefully the schemes degrade as the masked fraction grows.

use scan_bist::Scheme;
use scan_diagnosis::{CampaignSpec, PreparedCampaign};
use scan_netlist::generate;

use crate::report::{Cell, Report};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let circuit = generate::benchmark("s5378");
    report.line("Ablation — X-masked cell fraction on s5378, 8 groups, 8 partitions, 300 faults");
    report.line("");
    let mut rows = Vec::new();
    for fraction in [0.0f64, 0.02, 0.05, 0.10, 0.20] {
        let mut spec = CampaignSpec::new(128, 8, 8);
        spec.num_faults = 300;
        spec.x_mask_fraction = fraction;
        let campaign = PreparedCampaign::from_circuit(&circuit, &spec).expect("campaign prepares");
        let random = campaign
            .run_parallel(Scheme::RandomSelection, 0)
            .expect("random run");
        let two_step = campaign
            .run_parallel(Scheme::TWO_STEP_DEFAULT, 0)
            .expect("two-step run");
        rows.push(vec![
            Cell::percent(fraction * 100.0, 0),
            Cell::count(campaign.masked_cells().len()),
            Cell::dr(random.dr),
            Cell::dr(two_step.dr),
            Cell::fixed(two_step.mean_actual, 1),
        ]);
    }
    report.table(
        &[
            "X fraction",
            "masked cells",
            "DR random",
            "DR two-step",
            "mean observable fails",
        ],
        rows,
    );
    report
}
