//! Table 2: diagnostic resolution of the six largest ISCAS-89
//! benchmarks under random-selection vs two-step partitioning, with and
//! without post-processing pruning. 128 pseudorandom patterns per BIST
//! session, degree-16 partition LFSR, 500 faults per circuit.

use scan_bist::Scheme;
use scan_diagnosis::PreparedCampaign;
use scan_netlist::generate::{self, SIX_LARGEST};

use crate::report::{Cell, Report};
use crate::table2_spec;

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let spec = table2_spec();
    report.line(format!(
        "Table 2 — six largest ISCAS-89, {} patterns, {} groups, {} partitions, {} faults",
        spec.num_patterns, spec.groups, spec.partitions, spec.num_faults
    ));
    report.line("");
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
            Cell::text(name),
            Cell::count(campaign.num_faults()),
            Cell::dr(random.dr),
            Cell::dr(two_step.dr),
            Cell::dr(random.dr_pruned),
            Cell::dr(two_step.dr_pruned),
        ]);
        eprintln!("  {name}: done");
    }
    report.table(
        &[
            "circuit",
            "faults",
            "DR random",
            "DR two-step",
            "DR random (pruned)",
            "DR two-step (pruned)",
        ],
        rows,
    );
    report
}
