//! Ablation: how many interval-based partitions should two-step use?
//!
//! The paper uses one interval partition "for the sake of simplicity"
//! but observes that "in some cases, the use of more interval-based
//! partitions leads to higher diagnostic resolution". This sweep varies
//! the interval prefix length of the two-step scheme from 0 (pure
//! random selection) to all-interval and reports DR per partition
//! count.

use scan_bist::Scheme;
use scan_diagnosis::{CampaignSpec, PreparedCampaign};
use scan_netlist::generate;

use crate::report::{Cell, Report};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let circuit = generate::benchmark("s953");
    let mut spec = CampaignSpec::new(200, 4, 8);
    spec.num_faults = 300;
    report.line(format!(
        "Ablation — interval partitions in two-step, s953, {} groups, {} partitions, {} faults",
        spec.groups, spec.partitions, spec.num_faults
    ));
    report.line("");
    let campaign = PreparedCampaign::from_circuit(&circuit, &spec).expect("campaign prepares");
    let variants = [0usize, 1, 2, 3, 8];
    let mut reports = Vec::new();
    for &k in &variants {
        let scheme = if k == 0 {
            Scheme::RandomSelection
        } else {
            Scheme::TwoStep {
                interval_partitions: k,
            }
        };
        reports.push(campaign.run_parallel(scheme, 0).expect("scheme runs"));
    }
    let headers: Vec<String> = std::iter::once("partitions".to_owned())
        .chain(variants.iter().map(|&k| match k {
            0 => "0 (random)".to_owned(),
            8 => "8 (all interval)".to_owned(),
            _ => k.to_string(),
        }))
        .collect();
    let rows = (0..spec.partitions)
        .map(|p| {
            std::iter::once(Cell::count(p + 1))
                .chain(reports.iter().map(|r| Cell::dr(r.dr_by_prefix[p])))
                .collect()
        })
        .collect();
    report.table(&headers, rows);
    report.line("(column = number of leading interval-based partitions in the two-step scheme)");
    report
}
