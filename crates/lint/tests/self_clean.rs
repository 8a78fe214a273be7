//! The workspace lints itself: running the full rule set over this
//! repository with the checked-in `lint.toml` must produce zero
//! unsuppressed findings. This is the same gate `scripts/verify.sh`
//! enforces with `scan-lint --deny`; failing here means a change
//! introduced a contract violation without fixing or justifying it.

use std::path::Path;

use scan_lint::{lint_workspace_with_graph, load_config};

#[test]
fn workspace_is_lint_clean_under_deny() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let config = load_config(&root).expect("checked-in lint.toml parses");
    let (report, graph) = lint_workspace_with_graph(&root, &config).expect("workspace walks");
    let unsuppressed: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.suppressed.is_none())
        .map(|f| format!("{}:{}:{} {} {}", f.file, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(
        unsuppressed.is_empty(),
        "workspace has unsuppressed lint findings:\n{}",
        unsuppressed.join("\n")
    );
    // Sanity: the walk actually covered the workspace.
    assert!(
        report.rust_files > 100,
        "walked {} files",
        report.rust_files
    );
    assert!(
        report.manifests >= 10,
        "walked {} manifests",
        report.manifests
    );
    // The semantic layer must not be vacuous: the call graph links real
    // cross-function edges, and the checked-in config declares the
    // panic-freedom roots the daemon's liveness story rests on.
    assert!(graph.nodes.len() > 500, "{} graph nodes", graph.nodes.len());
    assert!(
        graph.edges.iter().map(Vec::len).sum::<usize>() > 500,
        "call graph has suspiciously few edges"
    );
    assert!(
        !config.panic_roots.is_empty(),
        "lint.toml lost its [roots] panic_freedom declarations"
    );
}
