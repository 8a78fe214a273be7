//! Byte-for-byte pins of the smoke campaigns' outputs: the strict audit
//! NDJSON of `scanbist --audit-out … diagnose s953 --patterns 64
//! --faults 50`, and the robust audit NDJSON plus `--json` summary of
//! `scanbist --json --audit-out … noise s953 --patterns 64 --faults 50
//! --flip 0.02 --seed 7`. The files under `tests/golden/` were written
//! by the `scanbist` binary; any change to the diagnosis engines, the
//! campaign runners or the audit encoders that moves a byte fails here.
//! `scripts/verify.sh` compares the binary's own smoke outputs against
//! the same files.

use std::path::PathBuf;

use scan_bist_cli::{parse_invocation, run_invocation};

const AUDIT: &[u8] = include_bytes!("golden/audit.ndjson");
const NOISE_AUDIT: &[u8] = include_bytes!("golden/noise_audit.ndjson");
const NOISE_SUMMARY: &[u8] = include_bytes!("golden/noise_summary.json");

/// Runs `scanbist --audit-out <tmp> <args…>` in-process and returns its
/// stdout and the audit file's bytes.
fn run_with_audit(name: &str, args: &[&str]) -> (Vec<u8>, Vec<u8>) {
    let path: PathBuf =
        std::env::temp_dir().join(format!("scanbist-golden-{}-{name}", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path").to_owned();
    let mut argv = vec!["--audit-out", path_str.as_str()];
    argv.extend_from_slice(args);
    let invocation = parse_invocation(argv.iter().copied()).expect("args parse");
    let mut stdout = Vec::new();
    assert_eq!(
        run_invocation(&invocation, &mut stdout),
        0,
        "{argv:?} failed"
    );
    let audit = std::fs::read(&path).expect("audit file written");
    std::fs::remove_file(&path).ok();
    (stdout, audit)
}

/// Asserts byte equality, naming the first differing line on failure
/// instead of dumping both files.
fn assert_same(what: &str, got: &[u8], want: &[u8]) {
    if got == want {
        return;
    }
    let got_text = String::from_utf8_lossy(got);
    let want_text = String::from_utf8_lossy(want);
    let line = got_text
        .lines()
        .zip(want_text.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got_text.lines().count().min(want_text.lines().count()));
    panic!(
        "{what} differs from its golden ({} vs {} bytes), first at line {}:\n got: {}\nwant: {}",
        got.len(),
        want.len(),
        line + 1,
        got_text.lines().nth(line).unwrap_or("<eof>"),
        want_text.lines().nth(line).unwrap_or("<eof>"),
    );
}

#[test]
fn strict_smoke_audit_matches_golden() {
    let (_, audit) = run_with_audit(
        "audit.ndjson",
        &["diagnose", "s953", "--patterns", "64", "--faults", "50"],
    );
    assert_same("strict audit NDJSON", &audit, AUDIT);
}

#[test]
fn noise_smoke_audit_and_summary_match_golden() {
    let (summary, audit) = run_with_audit(
        "noise_audit.ndjson",
        &[
            "--json",
            "noise",
            "s953",
            "--patterns",
            "64",
            "--faults",
            "50",
            "--flip",
            "0.02",
            "--seed",
            "7",
        ],
    );
    assert_same("robust audit NDJSON", &audit, NOISE_AUDIT);
    assert_same("noise --json summary", &summary, NOISE_SUMMARY);
}
