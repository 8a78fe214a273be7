//! Ablation: scan chain ordering vs interval-based effectiveness.
//!
//! Section 3 of the paper grounds interval partitioning in the
//! correlation between scan order and circuit structure. This ablation
//! destroys (shuffled) or strengthens (cone-clustered) that correlation
//! and measures the impact per scheme: interval-based resolution should
//! degrade on a shuffled chain while random selection is indifferent to
//! ordering.

use scan_bist::Scheme;
use scan_diagnosis::{CampaignSpec, PreparedCampaign};
use scan_netlist::{generate, ScanOrdering};

use crate::report::{Cell, Report};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let mut spec = CampaignSpec::new(128, 8, 4);
    spec.num_faults = 300;
    report.line(format!(
        "Ablation — scan ordering, {} patterns, {} groups, {} partitions, {} faults",
        spec.num_patterns, spec.groups, spec.partitions, spec.num_faults
    ));
    report.line("");
    for name in ["s953", "s5378"] {
        let circuit = generate::benchmark(name);
        let mut rows = Vec::new();
        for (label, ordering) in [
            ("natural", ScanOrdering::Natural),
            ("shuffled", ScanOrdering::Shuffled(99)),
            ("cone-clustered", ScanOrdering::ConeClustered),
        ] {
            let mut s = spec;
            s.ordering = ordering;
            let campaign = PreparedCampaign::from_circuit(&circuit, &s).expect("campaign prepares");
            let interval = campaign
                .run_parallel(Scheme::IntervalBased, 0)
                .expect("interval run");
            let random = campaign
                .run_parallel(Scheme::RandomSelection, 0)
                .expect("random run");
            let two_step = campaign
                .run_parallel(Scheme::TWO_STEP_DEFAULT, 0)
                .expect("two-step run");
            rows.push(vec![
                Cell::text(label),
                Cell::dr(interval.dr_by_prefix[0]),
                Cell::dr(random.dr_by_prefix[0]),
                Cell::dr(interval.dr),
                Cell::dr(random.dr),
                Cell::dr(two_step.dr),
            ]);
        }
        report.line(format!("{name}:"));
        report.table(
            &[
                "ordering",
                "interval @1",
                "random @1",
                "interval @4",
                "random @4",
                "two-step @4",
            ],
            rows,
        );
    }
    report
}
