//! First-level SOC diagnosis: identifying *which core* is faulty from
//! candidate-cell densities on the meta scan chains — the paper's
//! motivating failure-analysis scenario, quantified as top-1
//! localization accuracy per scheme.

use scan_diagnosis::{CampaignSpec, PreparedCampaign};
use scan_soc::d695;

use crate::report::{Cell, Report};
use crate::PAPER_SCHEMES;

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let mut spec = CampaignSpec::new(128, 32, 4);
    spec.num_faults = 200;
    report.line(format!(
        "Core localization — SOC 1, {} groups, {} partitions, {} faults per faulty core",
        spec.groups, spec.partitions, spec.num_faults
    ));
    report.line("");
    let soc = d695::soc1().expect("SOC 1 builds");
    let mut rows = Vec::new();
    for (index, core) in soc.cores().iter().enumerate() {
        let campaign = PreparedCampaign::from_soc(&soc, index, &spec).expect("campaign prepares");
        let mut cells = vec![Cell::text(core.name())];
        for &scheme in &PAPER_SCHEMES {
            let localization = campaign
                .run_localization_parallel(scheme, 0)
                .expect("localization runs");
            cells.push(Cell::text(format!(
                "{:.1}% (margin {:.3})",
                localization.top1_accuracy * 100.0,
                localization.mean_margin
            )));
        }
        rows.push(cells);
        eprintln!("  {}: done", core.name());
    }
    report.table(&["faulty core", "random-selection", "two-step"], rows);
    report.line("");
    report.line(
        "accuracy = fraction of faults whose highest candidate-density core is the true faulty core",
    );
    report
}
