//! Stdout-cleanliness harness for every experiment binary.
//!
//! The contract (see `scan_bench::start_session`): stdout carries the
//! machine-readable table/figure payload and *nothing else*;
//! diagnostics, progress, and usage text go to stderr. Running a
//! binary with `--help` must exit 0 before any campaign work, print
//! the shared usage text to stderr, and leave stdout empty — which is
//! the degenerate "parses cleanly" payload. A binary that ever prints
//! banners or diagnostics to stdout fails here. A bad flag or an
//! argument the binary does not take exits 2, also before any work.

use std::path::PathBuf;
use std::process::Command;

use scan_bench::experiments::ALL;

/// Every binary in `src/bin`, paired with its compiled path: the
/// experiments in [`ALL`] plus the orchestrator. Cargo builds them all
/// next to `all_experiments` before it runs integration tests, so a
/// registry entry without a binary, or a binary without an entry, is
/// caught by `all_binaries_are_listed`.
fn bins() -> Vec<(&'static str, PathBuf)> {
    let orchestrator = std::path::Path::new(env!("CARGO_BIN_EXE_all_experiments"));
    ALL.iter()
        .map(|e| e.name)
        .chain(["all_experiments"])
        .map(|name| {
            let file = format!("{name}{}", std::env::consts::EXE_SUFFIX);
            (name, orchestrator.with_file_name(file))
        })
        .collect()
}

#[test]
fn all_binaries_are_listed() {
    let mut on_disk: Vec<String> =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin"))
            .expect("src/bin listable")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .trim_end_matches(".rs")
                    .to_owned()
            })
            .collect();
    on_disk.sort();
    let mut listed: Vec<String> = bins().iter().map(|(name, _)| (*name).to_owned()).collect();
    listed.sort();
    assert_eq!(
        on_disk, listed,
        "src/bin and experiments::ALL disagree — every experiment needs an ALL entry and a shim"
    );
}

#[test]
fn help_exits_zero_with_clean_stdout() {
    for (name, exe) in bins() {
        let output = Command::new(&exe)
            .arg("--help")
            .output()
            .unwrap_or_else(|e| panic!("{name}: failed to spawn: {e}"));
        assert!(
            output.status.success(),
            "{name} --help exited {:?}",
            output.status.code()
        );
        let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
        assert!(
            stdout.is_empty(),
            "{name} --help wrote to stdout (payload channel): {stdout:?}"
        );
        let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
        assert!(
            stderr.starts_with(&format!("usage: {name}")),
            "{name} --help stderr does not lead with its usage line: {stderr:?}"
        );
        assert!(
            stderr.contains("--profile-out") && stderr.contains("--trace-out"),
            "{name} --help does not document the shared observability flags"
        );
    }
}

/// `scan-lint` lives in another package, so cargo sets no
/// `CARGO_BIN_EXE_` var for it here — locate it as a sibling of this
/// package's binaries instead. `None` (not built yet) skips the test
/// so `cargo test -p scan-bench` alone still passes.
fn scan_lint_exe() -> Option<std::path::PathBuf> {
    let sibling = std::path::Path::new(env!("CARGO_BIN_EXE_table1")).with_file_name("scan-lint");
    sibling.exists().then_some(sibling)
}

#[test]
fn scan_lint_follows_the_same_help_contract() {
    let Some(exe) = scan_lint_exe() else {
        eprintln!("scan-lint not built alongside scan-bench; skipping");
        return;
    };
    let output = Command::new(&exe).arg("--help").output().expect("spawn");
    assert!(output.status.success(), "scan-lint --help failed");
    assert!(
        output.stdout.is_empty(),
        "scan-lint --help wrote to stdout (payload channel)"
    );
    let stderr = String::from_utf8(output.stderr.clone()).expect("stderr is UTF-8");
    assert!(
        stderr.starts_with("usage: scan-lint"),
        "scan-lint --help stderr does not lead with its usage line: {stderr:?}"
    );

    let short = Command::new(&exe).arg("-h").output().expect("spawn");
    assert!(short.status.success());
    assert_eq!(output.stderr, short.stderr);
    assert!(short.stdout.is_empty());
}

#[test]
fn short_help_matches_long_help() {
    // One representative is enough — the flag handling is shared code.
    let (name, exe) = &bins()[0];
    let long = Command::new(exe).arg("--help").output().expect("spawn");
    let short = Command::new(exe).arg("-h").output().expect("spawn");
    assert!(short.status.success(), "{name} -h failed");
    assert_eq!(long.stderr, short.stderr);
    assert!(short.stdout.is_empty());
}

#[test]
fn value_flag_without_value_exits_2_before_any_work() {
    let output = Command::new(env!("CARGO_BIN_EXE_figure3"))
        .arg("--metrics-out")
        .output()
        .expect("spawn");
    assert_eq!(output.status.code(), Some(2), "figure3 --metrics-out");
    assert!(
        output.stdout.is_empty(),
        "a rejected invocation printed a payload"
    );
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert!(
        stderr.starts_with("error: flag `--metrics-out` needs a value"),
        "stderr does not name the flag: {stderr:?}"
    );
}

#[test]
fn unknown_argument_exits_2_and_plain_run_is_unchanged() {
    let exe = env!("CARGO_BIN_EXE_overhead");
    let output = Command::new(exe)
        .arg("--bogus-flag")
        .output()
        .expect("spawn");
    assert_eq!(output.status.code(), Some(2), "overhead --bogus-flag");
    assert!(
        output.stdout.is_empty(),
        "a rejected invocation printed a payload"
    );
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert!(
        stderr.starts_with("error: unexpected argument `--bogus-flag`\nusage: overhead"),
        "stderr does not name the argument: {stderr:?}"
    );

    let plain = Command::new(exe).output().expect("spawn");
    assert!(plain.status.success(), "plain overhead failed");
    let stdout = String::from_utf8(plain.stdout).expect("stdout is UTF-8");
    assert_eq!(
        stdout,
        include_str!("../../../results/overhead.txt"),
        "overhead stdout moved from results/overhead.txt"
    );
}
