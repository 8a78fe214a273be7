//! First-level SOC diagnosis: identifying *which core* is faulty from
//! candidate-cell densities on the meta scan chains — the paper's
//! motivating failure-analysis scenario, quantified as top-1
//! localization accuracy per scheme.

use scan_bench::{render_table, PAPER_SCHEMES};
use scan_diagnosis::{CampaignSpec, PreparedCampaign};
use scan_soc::d695;

fn main() {
    let obs = scan_bench::start_session("localization");
    let mut spec = CampaignSpec::new(128, 32, 4);
    spec.num_faults = 200;
    println!(
        "Core localization — SOC 1, {} groups, {} partitions, {} faults per faulty core",
        spec.groups, spec.partitions, spec.num_faults
    );
    println!();
    let soc = d695::soc1().expect("SOC 1 builds");
    let mut rows = Vec::new();
    for (index, core) in soc.cores().iter().enumerate() {
        let campaign = PreparedCampaign::from_soc(&soc, index, &spec).expect("campaign prepares");
        let mut cells = vec![core.name().to_owned()];
        for &scheme in &PAPER_SCHEMES {
            let report = campaign
                .run_localization_parallel(scheme, 0)
                .expect("localization runs");
            cells.push(format!(
                "{:.1}% (margin {:.3})",
                report.top1_accuracy * 100.0,
                report.mean_margin
            ));
        }
        rows.push(cells);
        eprintln!("  {}: done", core.name());
    }
    println!(
        "{}",
        render_table(&["faulty core", "random-selection", "two-step"], &rows)
    );
    println!();
    println!("accuracy = fraction of faults whose highest candidate-density core is the true faulty core");
    obs.finish(false);
}
