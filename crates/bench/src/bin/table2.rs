//! Table 2: diagnostic resolution of the six largest ISCAS-89
//! benchmarks under random-selection vs two-step partitioning, with and
//! without post-processing pruning. 128 pseudorandom patterns per BIST
//! session, degree-16 partition LFSR, 500 faults per circuit.

use scan_bench::{fmt_dr, render_table, table2_spec};
use scan_bist::Scheme;
use scan_diagnosis::PreparedCampaign;
use scan_netlist::generate::{self, SIX_LARGEST};

fn main() {
    let obs = scan_bench::start_session("table2");
    let spec = table2_spec();
    println!(
        "Table 2 — six largest ISCAS-89, {} patterns, {} groups, {} partitions, {} faults",
        spec.num_patterns, spec.groups, spec.partitions, spec.num_faults
    );
    println!();
    let mut rows = Vec::new();
    for name in SIX_LARGEST {
        let circuit = generate::benchmark(name);
        let campaign = PreparedCampaign::from_circuit(&circuit, &spec)
            .unwrap_or_else(|e| panic!("campaign for {name}: {e}"));
        let random = campaign
            .run_parallel(Scheme::RandomSelection, 0)
            .expect("random-selection run");
        let two_step = campaign
            .run_parallel(Scheme::TWO_STEP_DEFAULT, 0)
            .expect("two-step run");
        rows.push(vec![
            name.to_owned(),
            campaign.num_faults().to_string(),
            fmt_dr(random.dr),
            fmt_dr(two_step.dr),
            fmt_dr(random.dr_pruned),
            fmt_dr(two_step.dr_pruned),
        ]);
        eprintln!("  {name}: done");
    }
    println!(
        "{}",
        render_table(
            &[
                "circuit",
                "faults",
                "DR random",
                "DR two-step",
                "DR random (pruned)",
                "DR two-step (pruned)",
            ],
            &rows
        )
    );
    obs.finish(false);
}
