//! Ablation: MISR width vs signature aliasing.
//!
//! Group pass/fail verdicts come from comparing real MISR signatures, so
//! a narrow register can alias: a failing group's error signature
//! cancels to zero and its true failing cells are lost from the
//! candidate set. This sweep quantifies the aliasing rate (lost true
//! cells) and its DR impact as the MISR width grows — motivating the
//! 16-bit register the experiments use.

use scan_bist::Scheme;
use scan_diagnosis::{CampaignSpec, PreparedCampaign};
use scan_netlist::generate;

use crate::report::{Cell, Report};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let circuit = generate::benchmark("s5378");
    report.line("Ablation — MISR width on s5378, two-step, 8 groups, 4 partitions, 300 faults");
    report.line("");
    let mut rows = Vec::new();
    for degree in [4u32, 6, 8, 12, 16, 24, 32] {
        let mut spec = CampaignSpec::new(128, 8, 4);
        spec.num_faults = 300;
        spec.misr_degree = degree;
        let campaign = PreparedCampaign::from_circuit(&circuit, &spec).expect("campaign prepares");
        let two_step = campaign
            .run_parallel(Scheme::TWO_STEP_DEFAULT, 0)
            .expect("two-step run");
        rows.push(vec![
            Cell::count(degree as usize),
            Cell::dr(two_step.dr),
            Cell::fixed(two_step.lost_cells as f64, 0),
        ]);
    }
    report.table(&["MISR width", "DR two-step", "lost true cells"], rows);
    report.line("");
    report.line(
        "lost true cells = failing cells dropped from the candidate set by signature aliasing",
    );
    report
}
