//! DESIGN.md §4 indexes every experiment by the binary that
//! regenerates it. The index is written by hand, so this test keeps it
//! in step with the registry: the `--bin <name>` set in §4, without the
//! `all_experiments` orchestrator, must equal the names in
//! [`ALL`].

use std::collections::BTreeSet;

use scan_bench::experiments::ALL;

#[test]
fn design_index_lists_every_experiment() {
    let design = include_str!("../../../DESIGN.md");
    let start = design
        .find("\n## 4.")
        .expect("DESIGN.md has a §4 experiment index");
    let end = design[start + 1..]
        .find("\n## ")
        .map_or(design.len(), |len| start + 1 + len);
    let indexed: BTreeSet<&str> = design[start..end]
        .split("--bin ")
        .skip(1)
        .map(|rest| {
            let len = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            &rest[..len]
        })
        .filter(|&name| name != "all_experiments")
        .collect();
    let registered: BTreeSet<&str> = ALL.iter().map(|e| e.name).collect();
    assert_eq!(
        indexed, registered,
        "DESIGN.md §4 and experiments::ALL disagree — every experiment needs a row"
    );
}
