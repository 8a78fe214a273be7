//! Ablation: unknown (X) value masking vs diagnostic resolution.
//!
//! Real scan-BIST masks X-producing cells (uninitialized memories,
//! multi-cycle paths) before the compactor; their errors are invisible
//! and diagnosis loses both evidence and suspects. This sweep measures
//! how gracefully the schemes degrade as the masked fraction grows.

use scan_bench::{fmt_dr, render_table};
use scan_bist::Scheme;
use scan_diagnosis::{CampaignSpec, PreparedCampaign};
use scan_netlist::generate;

fn main() {
    let obs = scan_bench::start_session("ablation_xmask");
    let circuit = generate::benchmark("s5378");
    println!("Ablation — X-masked cell fraction on s5378, 8 groups, 8 partitions, 300 faults");
    println!();
    let mut rows = Vec::new();
    for fraction in [0.0f64, 0.02, 0.05, 0.10, 0.20] {
        let mut spec = CampaignSpec::new(128, 8, 8);
        spec.num_faults = 300;
        spec.x_mask_fraction = fraction;
        let campaign = PreparedCampaign::from_circuit(&circuit, &spec).expect("campaign prepares");
        let masked = campaign.masked_cells().len();
        let random = campaign
            .run_parallel(Scheme::RandomSelection, 0)
            .expect("random run");
        let two_step = campaign
            .run_parallel(Scheme::TWO_STEP_DEFAULT, 0)
            .expect("two-step run");
        rows.push(vec![
            format!("{:.0}%", fraction * 100.0),
            masked.to_string(),
            fmt_dr(random.dr),
            fmt_dr(two_step.dr),
            format!("{:.1}", two_step.mean_actual),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "X fraction",
                "masked cells",
                "DR random",
                "DR two-step",
                "mean observable fails",
            ],
            &rows
        )
    );
    obs.finish(false);
}
