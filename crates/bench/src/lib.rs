//! The experiment harness: every table, figure and ablation of the
//! DATE 2003 paper reproduction, plus the `scanbist bench` kernel suite.
//!
//! [`experiments::ALL`] lists the experiments in reporting order; each
//! computes a typed [`report::Report`] and has a binary under
//! `src/bin/` that prints it. This crate also provides the campaign
//! configurations and plain-text table rendering they share. See
//! `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for
//! recorded results.

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate, clippy::cast_precision_loss)]

use scan_bist::Scheme;
use scan_diagnosis::CampaignSpec;

pub mod experiments;
pub mod report;
pub mod suite;

/// The schemes compared throughout the paper, in reporting order.
pub const PAPER_SCHEMES: [Scheme; 2] = [Scheme::RandomSelection, Scheme::TWO_STEP_DEFAULT];

/// Campaign spec for Table 1 (s953: 200 patterns, 4 groups/partition,
/// up to 8 partitions, 500 faults).
#[must_use]
pub fn table1_spec() -> CampaignSpec {
    CampaignSpec::new(200, 4, 8)
}

/// Campaign spec for Table 2 (six largest ISCAS-89: 128 patterns per
/// session, 16 groups, 8 partitions, 500 faults, degree-16 partition
/// LFSR).
#[must_use]
pub fn table2_spec() -> CampaignSpec {
    CampaignSpec::new(128, 16, 8)
}

/// Campaign spec for Table 3 (SOC 1 on a single meta chain: 32 groups,
/// 8 partitions).
#[must_use]
pub fn table3_spec() -> CampaignSpec {
    CampaignSpec::new(128, 32, 8)
}

/// Campaign spec for Table 4 (SOC 2 / d695 variant on 8 meta chains: 8
/// groups, 8 partitions).
#[must_use]
pub fn table4_spec() -> CampaignSpec {
    CampaignSpec::new(128, 8, 8)
}

/// Renders a plain-text table with a header row and aligned columns.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|&h| h.to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Starts the observed run of the experiment binary `binary`, which
/// takes no arguments of its own: any argument left after the shared
/// observability flags prints an error and the usage text to stderr and
/// exits 2, so a misspelt flag never runs silently.
/// See [`start_session_with_args`] for the rest of the contract.
///
/// # Panics
///
/// As [`start_session_with_args`].
pub fn start_session(binary: &str) -> scan_obs::Session {
    start(binary, false).0
}

/// Starts the observed run of the experiment binary `binary`: splits
/// the shared observability flags (see [`scan_obs::ObsConfig::from_args`])
/// out of the process arguments, starts a [`scan_obs::Session`] —
/// `trace_<binary>.ndjson` is the default trace file, and the trace
/// context is adopted from `SCANBIST_TRACE_ID` / `SCANBIST_PARENT_SPAN`
/// when a parent hands one down — and returns it with the binary's own
/// arguments in order. With no flags, observability stays off and the
/// output is byte-identical to an uninstrumented build.
///
/// `--help` / `-h` prints the usage text to *stderr* (stdout carries
/// only the table/figure payload) and exits 0; a value flag without its
/// value prints the error and the usage text to stderr and exits 2.
///
/// # Panics
///
/// Panics deliberately when `SCANBIST_CRASH_EXPERIMENT` names this
/// binary — the fault-injection hook `scripts/verify.sh` uses to
/// exercise the flight recorder's crash dump path.
pub fn start_session_with_args(binary: &str) -> (scan_obs::Session, Vec<String>) {
    start(binary, true)
}

fn start(binary: &str, own_args: bool) -> (scan_obs::Session, Vec<String>) {
    let args = if own_args { " [ARGS]" } else { "" };
    let usage = format!(
        "usage: {binary}{args} [--trace] [--trace-out <path>] [--metrics-out <path>]\n\
         \x20          [--profile] [--profile-out <path>] [--progress]\n\
         \x20          [--serve-metrics <addr>] [--slo <slo.toml>]\n\
         \x20          [--flight-recorder <path>]\n\
         Experiment binary from the scan-BIST workspace. The table/figure payload\n\
         goes to stdout; diagnostics, progress, and observability summaries go to\n\
         stderr. --serve-metrics serves live /metrics (Prometheus text),\n\
         /metrics.json, /alerts.json, and /healthz on <addr> for the run's\n\
         duration. --slo evaluates alert rules on every sampler tick;\n\
         --flight-recorder dumps a black-box NDJSON ring on panic or nonzero exit.\n\
         See EXPERIMENTS.md for the binary's own arguments."
    );
    let (config, rest) = match scan_obs::ObsConfig::from_args(binary, std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{usage}");
            std::process::exit(2);
        }
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{usage}");
        std::process::exit(0);
    }
    if let (false, Some(arg)) = (own_args, rest.first()) {
        eprintln!("error: unexpected argument `{arg}`\n{usage}");
        std::process::exit(2);
    }
    let session = scan_obs::Session::start(&config, binary);
    // Fault-injection backdoor for the flight-recorder smoke test:
    // deliberately undocumented in the usage text. Firing *after*
    // telemetry is up means the recorder's panic hook is installed
    // and the ring exists, exactly like a mid-campaign crash.
    // An injected crash reads clearer as an explicit panic than as
    // a negated assert.
    #[allow(clippy::manual_assert)]
    if std::env::var("SCANBIST_CRASH_EXPERIMENT").as_deref() == Ok(binary) {
        panic!("injected crash in `{binary}` (SCANBIST_CRASH_EXPERIMENT)");
    }
    (session, rest)
}

/// Formats a DR value the way the paper's tables do.
#[must_use]
pub fn fmt_dr(dr: f64) -> String {
    format!("{dr:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let out = render_table(
            &["name", "dr"],
            &[
                vec!["s953".to_owned(), "0.5".to_owned()],
                vec!["s38584".to_owned(), "12.25".to_owned()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("s953"));
        // Columns aligned: "dr" column starts at the same offset.
        let col = lines[0].find("dr").unwrap();
        assert_eq!(&lines[3][col..col + 5], "12.25");
    }

    #[test]
    fn specs_match_paper_parameters() {
        assert_eq!(table1_spec().num_patterns, 200);
        assert_eq!(table1_spec().groups, 4);
        assert_eq!(table2_spec().num_patterns, 128);
        assert_eq!(table3_spec().groups, 32);
        assert_eq!(table4_spec().groups, 8);
        assert_eq!(table1_spec().num_faults, 500);
    }
}
