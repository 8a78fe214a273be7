//! Fixture-driven integration tests: each directory under
//! `tests/fixtures/deny/` seeds exactly one violation of one rule, and
//! `tests/fixtures/clean/` holds violations that are all explicitly
//! suppressed. Both the library API and the `scan-lint` binary
//! contract (`--deny` exit codes, stdout silence, NDJSON `--out` and
//! `--graph`) are exercised against them.

use std::path::{Path, PathBuf};
use std::process::Command;

use scan_lint::{lint_workspace, load_config, Config};

/// All fourteen rules with their seeded fixture directory. The
/// semantic rules (L012-L014) ship fixture-local `lint.toml` files
/// ([roots] declarations), picked up via `load_config`.
const RULES: &[(&str, &str)] = &[
    ("L001", "l001"),
    ("L002", "l002"),
    ("L003", "l003"),
    ("L004", "l004"),
    ("L005", "l005"),
    ("L006", "l006"),
    ("L007", "l007"),
    ("L008", "l008"),
    ("L009", "l009"),
    ("L010", "l010"),
    ("L011", "l011"),
    ("L012", "l012"),
    ("L013", "l013"),
    ("L014", "l014"),
];

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn every_deny_fixture_triggers_its_rule() {
    for (rule, dir) in RULES {
        let root = fixture(&format!("deny/{dir}"));
        let config = load_config(&root).expect("fixture config parses");
        let report = lint_workspace(&root, &config).expect("fixture tree walks");
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(
            rules.contains(rule),
            "fixture {dir} should trigger {rule}, found {rules:?}"
        );
        assert!(
            report.deny_count() > 0,
            "fixture {dir} should have unsuppressed findings"
        );
        // Every finding carries a span and a fix-hint.
        for f in &report.findings {
            assert!(f.line >= 1 && f.col >= 1, "{rule}: zero span in {dir}");
            assert!(!f.hint.is_empty(), "{rule}: empty hint in {dir}");
        }
    }
}

#[test]
fn l005_fixture_feeds_the_unsafe_inventory() {
    let report =
        lint_workspace(&fixture("deny/l005"), &Config::default()).expect("fixture tree walks");
    assert_eq!(report.unsafe_sites.len(), 1);
    assert!(report.unsafe_sites[0].0.ends_with("lib.rs"));
}

#[test]
fn clean_fixture_suppresses_everything() {
    let root = fixture("clean");
    let config = load_config(&root).expect("fixture lint.toml parses");
    let report = lint_workspace(&root, &config).expect("fixture tree walks");
    assert_eq!(
        report.deny_count(),
        0,
        "clean fixture should be fully suppressed: {:?}",
        report.findings
    );
    let suppressed = report
        .findings
        .iter()
        .filter(|f| f.suppressed.is_some())
        .count();
    assert_eq!(
        suppressed, 6,
        "lint.toml L006, inline L003/L012/L014, and both L013 directions"
    );
}

#[test]
fn l012_witness_chain_spans_files() {
    let root = fixture("deny/l012");
    let config = load_config(&root).expect("fixture lint.toml parses");
    let report = lint_workspace(&root, &config).expect("fixture tree walks");
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == "L012")
        .expect("L012 fires");
    // The chain starts at the declared root in the daemon fixture crate
    // and ends at the panic site in the core fixture crate.
    let hops: Vec<(&str, &str)> = finding
        .chain
        .iter()
        .map(|h| (h.func.as_str(), h.file.as_str()))
        .collect();
    assert_eq!(
        hops,
        vec![
            ("scan_daemon::server::serve", "crates/daemon/src/server.rs"),
            ("scan_core::plan::build_plan", "crates/core/src/plan.rs"),
        ],
        "witness chain should span both fixture files"
    );
    assert_eq!(finding.file, "crates/core/src/plan.rs");
    // The fenced `risky` path must stay quiet: exactly one L012.
    assert_eq!(
        report.findings.iter().filter(|f| f.rule == "L012").count(),
        1,
        "the catch_unwind-fenced path must not be reported"
    );
}

#[test]
fn l013_reports_both_witness_chains() {
    let root = fixture("deny/l013");
    let report =
        lint_workspace(&root, &load_config(&root).expect("config")).expect("fixture tree walks");
    let l013: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "L013")
        .collect();
    assert_eq!(l013.len(), 2, "one finding per acquisition direction");
    // The cross-file direction's chain walks sweep.rs into state.rs.
    let cross = l013
        .iter()
        .find(|f| f.file.ends_with("sweep.rs"))
        .expect("cross-file witness present");
    let files: Vec<&str> = cross.chain.iter().map(|h| h.file.as_str()).collect();
    assert!(
        files.contains(&"crates/daemon/src/sweep.rs")
            && files.contains(&"crates/daemon/src/state.rs"),
        "chain should span both files: {files:?}"
    );
}

fn scan_lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scan-lint"))
        .args(args)
        .output()
        .expect("scan-lint binary runs")
}

#[test]
fn deny_exits_nonzero_per_rule_fixture() {
    for (rule, dir) in RULES {
        let root = fixture(&format!("deny/{dir}"));
        let output = scan_lint(&["--root", root.to_str().unwrap(), "--deny"]);
        assert!(
            !output.status.success(),
            "--deny on fixture {dir} should exit nonzero"
        );
        assert!(
            output.stdout.is_empty(),
            "stdout must stay empty on fixture {dir}"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(rule),
            "stderr for fixture {dir} should name {rule}: {stderr}"
        );
    }
}

#[test]
fn deny_exits_zero_on_suppressed_clean_fixture() {
    let root = fixture("clean");
    let output = scan_lint(&["--root", root.to_str().unwrap(), "--deny"]);
    assert!(
        output.status.success(),
        "clean fixture under --deny should pass: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(output.stdout.is_empty());
}

#[test]
fn out_writes_obs_check_compatible_ndjson() {
    let out = std::env::temp_dir().join(format!("scan_lint_fixture_{}.ndjson", std::process::id()));
    let root = fixture("deny/l004");
    let output = scan_lint(&[
        "--root",
        root.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "without --deny the exit is 0");
    let text = std::fs::read_to_string(&out).expect("NDJSON written");
    std::fs::remove_file(&out).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"type\":\"finding\"") && l.contains("L004")),
        "finding event present: {text}"
    );
    assert!(
        lines
            .last()
            .is_some_and(|l| l.contains("\"type\":\"lint\"")),
        "trailing lint summary present: {text}"
    );
}

#[test]
fn graph_writes_call_graph_ndjson() {
    let tmp = std::env::temp_dir();
    let graph = tmp.join(format!("scan_lint_graph_{}.ndjson", std::process::id()));
    let out = tmp.join(format!("scan_lint_graph_run_{}.ndjson", std::process::id()));
    let root = fixture("clean");
    let output = scan_lint(&[
        "--root",
        root.to_str().unwrap(),
        "--graph",
        graph.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    let graph_text = std::fs::read_to_string(&graph).expect("graph NDJSON written");
    let out_text = std::fs::read_to_string(&out).expect("findings NDJSON written");
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&out).ok();
    assert!(
        output.status.success(),
        "--graph on the clean fixture exits 0"
    );
    assert!(output.stdout.is_empty(), "stdout must stay empty");
    let (summary, records) = graph_text
        .lines()
        .collect::<Vec<_>>()
        .split_last()
        .map(|(last, rest)| (*last, rest.to_vec()))
        .expect("graph NDJSON is not empty");
    assert!(
        !records.is_empty(),
        "the clean fixture has functions: {graph_text}"
    );
    assert!(
        records
            .iter()
            .all(|l| l.starts_with("{\"type\":\"graph_fn\"")
                || l.starts_with("{\"type\":\"graph_edge\"")),
        "every record before the summary is graph_fn or graph_edge: {graph_text}"
    );
    assert!(
        summary.starts_with("{\"type\":\"graph\""),
        "trailing graph summary present: {graph_text}"
    );
    assert!(
        out_text
            .lines()
            .last()
            .is_some_and(|l| l.contains("\"type\":\"lint\"")),
        "trailing lint summary present: {out_text}"
    );
}

#[test]
fn help_contract_matches_workspace_bins() {
    let output = scan_lint(&["--help"]);
    assert!(output.status.success());
    assert!(output.stdout.is_empty(), "--help writes to stderr only");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.starts_with("usage: scan-lint"));
}
