//! Extension experiment: fault-dictionary (cause–effect) resolution
//! under partition-based syndromes.
//!
//! Builds a dictionary of per-fault session syndromes and measures how
//! well the syndromes separate faults: number of equivalence classes
//! and expected suspect-list size, per scheme and partition count, for
//! both exact-signature and pass/fail matching.

use scan_bist::Scheme;
use scan_diagnosis::dictionary::FaultDictionary;
use scan_diagnosis::{lfsr_patterns, BistConfig, ChainLayout, DiagnosisPlan};
use scan_netlist::{generate, ScanView};
use scan_sim::PpsfpSimulator;

use crate::report::{Cell, Report};

pub(super) fn run() -> Report {
    let mut report = Report::new();
    let circuit = generate::benchmark("s953");
    let view = ScanView::natural(&circuit, true);
    let num_patterns = 128usize;
    let patterns = lfsr_patterns(&circuit, num_patterns, 0xACE1);
    let mut psim = PpsfpSimulator::new(&circuit, &view, &patterns).expect("shapes match");
    let cases = psim.sample_detected_with_maps(400, 2003);
    report.line(format!(
        "Fault dictionary resolution — s953, {} faults, 4 groups/partition",
        cases.len()
    ));
    report.line("");
    let mut rows = Vec::new();
    for partitions in [1usize, 2, 4, 8] {
        for scheme in [Scheme::RandomSelection, Scheme::TWO_STEP_DEFAULT] {
            let plan = DiagnosisPlan::new(
                ChainLayout::single_chain(view.len()),
                num_patterns,
                &BistConfig::new(4, partitions, scheme),
            )
            .expect("plan builds");
            let dict = FaultDictionary::build(&plan, &cases);
            rows.push(vec![
                Cell::count(partitions),
                Cell::text(scheme.name()),
                Cell::count(dict.num_passfail_classes()),
                Cell::fixed(dict.expected_passfail_suspects(), 2),
                Cell::count(dict.num_exact_classes()),
                Cell::fixed(dict.expected_exact_suspects(), 2),
            ]);
        }
    }
    report.table(
        &[
            "partitions",
            "scheme",
            "P/F classes",
            "P/F suspects",
            "exact classes",
            "exact suspects",
        ],
        rows,
    );
    report.line("");
    report.line("suspects = expected suspect-fault list size for a uniformly drawn dictionary fault");
    report
}
