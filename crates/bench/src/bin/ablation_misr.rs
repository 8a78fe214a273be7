//! Ablation: MISR width vs signature aliasing.
//!
//! Group pass/fail verdicts come from comparing real MISR signatures, so
//! a narrow register can alias: a failing group's error signature
//! cancels to zero and its true failing cells are lost from the
//! candidate set. This sweep quantifies the aliasing rate (lost true
//! cells) and its DR impact as the MISR width grows — motivating the
//! 16-bit register the experiments use.

use scan_bench::{fmt_dr, render_table};
use scan_bist::Scheme;
use scan_diagnosis::{CampaignSpec, PreparedCampaign};
use scan_netlist::generate;

fn main() {
    let obs = scan_bench::start_session("ablation_misr");
    let circuit = generate::benchmark("s5378");
    println!("Ablation — MISR width on s5378, two-step, 8 groups, 4 partitions, 300 faults");
    println!();
    let mut rows = Vec::new();
    for degree in [4u32, 6, 8, 12, 16, 24, 32] {
        let mut spec = CampaignSpec::new(128, 8, 4);
        spec.num_faults = 300;
        spec.misr_degree = degree;
        let campaign = PreparedCampaign::from_circuit(&circuit, &spec).expect("campaign prepares");
        let report = campaign
            .run_parallel(Scheme::TWO_STEP_DEFAULT, 0)
            .expect("two-step run");
        rows.push(vec![
            degree.to_string(),
            fmt_dr(report.dr),
            report.lost_cells.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(&["MISR width", "DR two-step", "lost true cells"], &rows)
    );
    println!();
    println!(
        "lost true cells = failing cells dropped from the candidate set by signature aliasing"
    );
    obs.finish(false);
}
