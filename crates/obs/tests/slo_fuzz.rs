//! Generated-input robustness for `scan_obs::slo::SloConfig::parse`,
//! the reader behind `--slo <slo.toml>` — the one file the shared
//! observability flags make a front end read.
//!
//! A line-aware mutator starts from well-formed rule files (the
//! checked-in `slo.toml` among them). It drops, duplicates and retypes
//! keys, writes bad numbers and windows, adds unknown sections and
//! malformed headers, and then flips, inserts and deletes bytes.
//! Whatever comes out, the parser must not panic, and must return
//! either
//!
//! * `Ok` with every rule validated — a non-empty series, a legal
//!   name, finite thresholds, `clear <= max`, `long_ms >= short_ms > 0`
//!   — or
//! * an `SloError` whose `line` is 0 or a line of the text.

use scan_obs::slo::{RuleKind, SloConfig};
use scan_rng::testkit::{Gen, Runner};

/// Well-formed rule files: every one parses.
const WELL_FORMED: &[&str] = &[
    include_str!("../../../slo.toml"),
    "[rule.a]\nseries = \"x\"\nkind = \"static\"\nmax = 1.0\n",
    "# c\n[rule.hyst]\nseries = \"d#p95\" # trailing\nkind = \"static\"\nmax = 64\nclear = 48\n",
    "[rule.burn]\nseries = \"robust.retries\"\nkind = \"burn_rate\"\nrate_max = 2.5\nlong_ms = 5000\nshort_ms = 1000\n\n[rule.s]\nseries = \"c\"\nkind = \"static\"\nmax = 0\n",
];

/// Replacement lines: retyped keys, bad numbers and windows, unknown
/// keys and sections, malformed headers.
const LINES: &[&str] = &[
    "series = \"\"",
    "series = x",
    "series = \"unterminated",
    "series = \"a # b\"",
    "kind = \"static\"",
    "kind = \"burn_rate\"",
    "kind = \"flapping\"",
    "kind = static",
    "max = 1e400",
    "max = nan",
    "max = -inf",
    "max = \"3\"",
    "max = -0.0",
    "max =",
    "clear = 1e9",
    "clear = -5",
    "rate_max = 0",
    "rate_max = 1_000",
    "long_ms = 0",
    "long_ms = -1",
    "long_ms = 18446744073709551616",
    "long_ms = 1.5",
    "short_ms = 0",
    "short_ms = 99999999999",
    "window = 5",
    "= 3",
    "=",
    "no equals sign",
    "[rule.]",
    "[rule.bad name]",
    "[rule.é]",
    "[rule.dup]",
    "[rules.x]",
    "[lint]",
    "[]",
    "[rule.open",
    "]",
    "#",
    "",
    "   ",
];

/// Applies one to five line edits, then up to three byte edits.
fn mutate(g: &mut Gen, seed: &str) -> String {
    let mut lines: Vec<String> = seed.lines().map(str::to_owned).collect();
    for _ in 0..g.usize("line edits", 1, 5) {
        let at = g.usize("line", 0, lines.len());
        match g.usize("edit", 0, 4) {
            0 if at < lines.len() => {
                lines.remove(at);
            }
            1 if !lines.is_empty() => {
                let copy = lines[g.usize("duplicate", 0, lines.len() - 1)].clone();
                lines.insert(at, copy);
            }
            2 if at < lines.len() => {
                // Retype: keep the key, swap in another key's value.
                let donor = g.pick("donor", LINES);
                if let (Some((key, _)), Some((_, value))) =
                    (lines[at].split_once('='), donor.split_once('='))
                {
                    lines[at] = format!("{key}={value}");
                }
            }
            _ => lines.insert(at, g.pick("line", LINES).to_owned()),
        }
    }
    let mut raw = lines.join("\n").into_bytes();
    for _ in 0..g.usize("byte edits", 0, 3) {
        if raw.is_empty() {
            break;
        }
        let at = g.usize("at", 0, raw.len() - 1);
        match g.usize("byte edit", 0, 2) {
            0 => raw[at] ^= 1 << g.usize("bit", 0, 7),
            1 => raw.insert(
                at,
                g.pick(
                    "byte",
                    &[b'\n', b'\r', b'=', b'"', b'#', b'[', b']', 0, 0xff],
                ),
            ),
            _ => {
                raw.remove(at);
            }
        }
    }
    String::from_utf8_lossy(&raw).into_owned()
}

fn check(text: &str) {
    match SloConfig::parse(text) {
        Ok(config) => {
            for rule in &config.rules {
                assert!(!rule.series.is_empty(), "{rule:?}");
                assert!(
                    !rule.name.is_empty()
                        && rule
                            .name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')),
                    "{rule:?}"
                );
                match rule.kind {
                    RuleKind::Static { max, clear } => {
                        assert!(max.is_finite() && clear.is_finite(), "{rule:?}");
                        assert!(clear <= max, "{rule:?}");
                    }
                    RuleKind::BurnRate {
                        rate_max,
                        long_ms,
                        short_ms,
                    } => {
                        assert!(rate_max.is_finite(), "{rule:?}");
                        assert!(short_ms > 0 && long_ms >= short_ms, "{rule:?}");
                    }
                }
            }
        }
        Err(e) => assert!(
            e.line <= text.lines().count(),
            "error line {} outside a {}-line text: {e}",
            e.line,
            text.lines().count()
        ),
    }
}

#[test]
fn well_formed_seeds_parse() {
    for seed in WELL_FORMED {
        let config = SloConfig::parse(seed).expect("seed parses");
        assert!(!config.rules.is_empty());
        check(seed);
    }
}

#[test]
fn mutated_rule_files_never_panic_and_locate_their_errors() {
    Runner::new(2048).run("slo_mutations", |g| {
        let seed = g.pick("seed", WELL_FORMED);
        check(&mutate(g, seed));
    });
}

#[test]
fn generated_line_soup_never_panics() {
    Runner::new(512).run("slo_line_soup", |g| {
        let lines: Vec<&str> = (0..g.usize("lines", 0, 12))
            .map(|_| g.pick("line", LINES))
            .collect();
        check(&lines.join("\n"));
    });
}
