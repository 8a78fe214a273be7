//! Table 1: diagnostic resolution for s953 with a varying number of
//! partitions (1..=8) under interval-based, random-selection, and
//! two-step partitioning. 200 pseudorandom patterns, 4 groups per
//! partition, 500 injected single stuck-at faults.

use scan_bist::Scheme;
use scan_diagnosis::PreparedCampaign;
use scan_netlist::generate;

use crate::report::{Cell, Report};
use crate::table1_spec;

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let spec = table1_spec();
    let circuit = generate::benchmark("s953");
    report.line(format!(
        "Table 1 — s953, {} patterns, {} groups/partition, {} faults",
        spec.num_patterns, spec.groups, spec.num_faults
    ));
    let campaign =
        PreparedCampaign::from_circuit(&circuit, &spec).expect("s953 campaign must prepare");
    eprintln!("(diagnosing {} detected faults)", campaign.num_faults());

    let interval = campaign
        .run_parallel(Scheme::IntervalBased, 0)
        .expect("interval-based run");
    let random = campaign
        .run_parallel(Scheme::RandomSelection, 0)
        .expect("random-selection run");
    let two_step = campaign
        .run_parallel(Scheme::TWO_STEP_DEFAULT, 0)
        .expect("two-step run");

    let rows = (0..spec.partitions)
        .map(|k| {
            vec![
                Cell::count(k + 1),
                Cell::dr(interval.dr_by_prefix[k]),
                Cell::dr(random.dr_by_prefix[k]),
                Cell::dr(two_step.dr_by_prefix[k]),
            ]
        })
        .collect();
    report.line("");
    report.table(
        &[
            "partitions",
            "DR (interval-based)",
            "DR (random-selection)",
            "DR (two-step)",
        ],
        rows,
    );
    report
}
