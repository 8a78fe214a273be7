//! Generated-input robustness for `Config::parse`, the reader of the
//! workspace's `lint.toml`.
//!
//! A grammar-aware mutator starts from the checked-in `lint.toml` and
//! from a small config that uses every section. It drops, duplicates
//! and swaps lines, rewrites section headers, keys and values (unknown
//! sections and keys, bad rule ids, unquoted strings, empty reasons,
//! bad root specs, arrays left open), and writes keys outside any
//! section; then it inserts, deletes and truncates characters.
//! Whatever comes out, the parser must, within a deadline and without
//! panicking, return either
//!
//! * `Ok`, with every allowance carrying a reason and a path and every
//!   root naming a function, or
//! * a `ConfigError` whose `line` is 0 or a line of the text and whose
//!   message is not empty.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use scan_lint::{Config, ConfigError};
use scan_rng::testkit::{Gen, Runner};

/// A parse of a few dozen lines takes microseconds; this bound only
/// catches a hang.
const DEADLINE: Duration = Duration::from_secs(2);

/// The workspace configuration the linter reads.
const WORKSPACE: &str = include_str!("../../../lint.toml");

/// A small configuration that uses every section and both array forms.
const SMALL: &str = r#"# every section once
[lint]
exclude = ["crates/a", "b/c"] # trailing comment

[roots]
panic_freedom = [
    "crates/d/src/e.rs::serve",
    "worker",
]

[allow.L004]
reason = "a # kept inside the string"
paths = ["crates/x", "crates/y"]
"#;

/// Section headers: known ones, near misses and malformed ones.
const HEADERS: &[&str] = &[
    "[lint]",
    "[roots]",
    "[allow.L008]",
    "[ allow.L012 ]",
    "[allow.L1]",
    "[allow.L0123]",
    "[allow.Lxyz]",
    "[allow.]",
    "[allow.l004]",
    "[lints]",
    "[]",
    "[lint",
    "[[lint]]",
];

/// Keys: the four the format knows, and others.
const KEYS: &[&str] = &[
    "exclude",
    "paths",
    "reason",
    "panic_freedom",
    "path",
    "reasons",
    "",
    "exclude.x",
    "\"reason\"",
];

/// Values: well-formed strings and arrays, and malformed ones.
const VALUES: &[&str] = &[
    "\"why not\"",
    "\"\"",
    "\"   \"",
    "unquoted",
    "\"unterminated",
    "[\"a\", \"b\"]",
    "[]",
    "[\"a\",]",
    "[a]",
    "[\"a\" \"b\"]",
    "[",
    "[\"open\",",
    "]",
    "[\"f::\"]",
    "[\"\"]",
    "[\"  \"]",
    "[\"x.rs::f\", \"g\"]",
    "\"a\" # comment",
    "[\"# not a comment\"]",
    "",
];

/// Whole replacement lines that fit no rule of the format.
const MALFORMED: &[&str] = &[
    "garbage",
    "= \"value\"",
    "key \"value\"",
    "exclude == [\"a\"]",
    "\"quoted\" = \"key\"",
    "[allow.L004] reason = \"x\"",
    "é = \"ü\"",
    "# only a comment",
    "   ",
];

/// Characters the byte-level edits insert.
const CHARS: &[char] = &[
    '[', ']', '"', '#', '=', ',', '.', ':', ' ', '\n', '\t', 'é', 'L',
];

fn seed_text(g: &mut Gen) -> &'static str {
    if g.bool("workspace lint.toml") {
        WORKSPACE
    } else {
        SMALL
    }
}

/// Indices of the `key = value` lines.
fn assignments(lines: &[String]) -> Vec<usize> {
    (0..lines.len())
        .filter(|&i| {
            let line = lines[i].trim_start();
            !line.starts_with('[') && !line.starts_with('#') && line.contains('=')
        })
        .collect()
}

/// Rewrites the key or the value of assignment line `at`.
fn edit_assign(lines: &mut [String], at: usize, key: Option<&str>, value: Option<&str>) {
    let Some((k, v)) = lines[at].split_once('=') else {
        return;
    };
    let k = key.unwrap_or(k.trim()).to_owned();
    let v = value.unwrap_or(v.trim()).to_owned();
    lines[at] = format!("{k} = {v}");
}

/// Applies one to four structural edits to the seed's lines, then up
/// to three character-level edits to the joined text.
fn mutate(g: &mut Gen, seed: &str) -> String {
    let mut lines: Vec<String> = seed.lines().map(str::to_owned).collect();
    for _ in 0..g.usize("structural edits", 1, 4) {
        let assigns = assignments(&lines);
        if lines.is_empty() || assigns.is_empty() {
            break;
        }
        let line = g.usize("line", 0, lines.len() - 1);
        let assign = g.pick("assignment", &assigns);
        match g.usize("edit", 0, 8) {
            0 => {
                lines.remove(line);
            }
            1 => {
                let copy = lines[line].clone();
                lines.insert(g.usize("copy to", 0, lines.len()), copy);
            }
            2 => {
                let other = g.usize("swap with", 0, lines.len() - 1);
                lines.swap(line, other);
            }
            3 => lines.insert(line, g.pick("header", HEADERS).to_owned()),
            4 => edit_assign(&mut lines, assign, Some(g.pick("key", KEYS)), None),
            5 => edit_assign(&mut lines, assign, None, Some(g.pick("value", VALUES))),
            6 => lines[line] = g.pick("malformed", MALFORMED).to_owned(),
            7 => {
                // A key before the first section header.
                let key = g.pick("leading key", KEYS);
                let value = g.pick("leading value", VALUES);
                lines.insert(0, format!("{key} = {value}"));
            }
            _ => {
                // An allowance section holding only some of its keys.
                let rule = g.pick("rule", &["L001", "L009", "L014"]);
                let at = g.usize("section at", 0, lines.len());
                let mut section = vec![format!("[allow.{rule}]")];
                if g.bool("with reason") {
                    section.push(format!("reason = {}", g.pick("reason", VALUES)));
                }
                if g.bool("with paths") {
                    section.push(format!("paths = {}", g.pick("paths", VALUES)));
                }
                lines.splice(at..at, section);
            }
        }
    }
    let mut text: Vec<char> = lines.join("\n").chars().collect();
    for _ in 0..g.usize("char edits", 0, 3) {
        if text.is_empty() {
            break;
        }
        let at = g.usize("at", 0, text.len() - 1);
        match g.usize("char edit", 0, 2) {
            0 => text.insert(at, g.pick("char", CHARS)),
            1 => {
                text.remove(at);
            }
            _ => text.truncate(at),
        }
    }
    text.into_iter().collect()
}

/// Parses `text` on a thread of its own, so a parse that hangs fails
/// the test at the deadline instead of stalling it; a panic in the
/// parser is re-raised here.
fn parse_within_deadline(text: &str) -> Result<Config, ConfigError> {
    let (tx, rx) = mpsc::channel();
    let owned = text.to_owned();
    let parser = thread::spawn(move || {
        let _ = tx.send(Config::parse(&owned));
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(result) => {
            parser.join().expect("the parser sent its result");
            result
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(parser.join().expect_err("the parser panicked"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("parse outlived {DEADLINE:?}"),
    }
}

/// Checks one parse result and names its outcome.
fn check(text: &str, result: &Result<Config, ConfigError>) -> &'static str {
    let e = match result {
        Ok(config) => {
            for allow in &config.allows {
                assert!(!allow.reason.trim().is_empty(), "{allow:?} has no reason");
                assert!(!allow.paths.is_empty(), "{allow:?} has no paths");
            }
            for root in &config.panic_roots {
                assert!(!root.name.is_empty(), "{root:?} names no function");
            }
            return "ok";
        }
        Err(e) => e,
    };
    let lines = text.lines().count();
    assert!(
        (0..=lines).contains(&e.line),
        "{e:?} names line {} of {lines}",
        e.line
    );
    assert!(!e.message.is_empty(), "{e:?} has an empty message");
    let kinds = [
        ("unterminated section header", "unterminated header"),
        ("unknown section", "unknown section"),
        ("expected `key = value`", "not key = value"),
        ("bad root spec", "bad root spec"),
        ("outside any section", "key outside section"),
        ("unknown key", "unknown key"),
        ("needs a non-empty `reason", "no reason"),
        ("needs a `paths", "no paths"),
        ("expected a double-quoted string", "not a string"),
        ("expected `[", "not an array"),
    ];
    kinds
        .iter()
        .find(|(needle, _)| e.message.contains(needle))
        .map(|&(_, kind)| kind)
        .unwrap_or_else(|| panic!("unpinned error message {:?}", e.message))
}

#[test]
fn mutated_lint_toml_parses_or_fails_with_a_located_error() {
    let seen = RefCell::new(BTreeSet::new());
    Runner::new(2000).run("lint.config_mutated_text", |g| {
        let seed = seed_text(g);
        let text = mutate(g, seed);
        let result = parse_within_deadline(&text);
        seen.borrow_mut().insert(check(&text, &result));
    });
    // The mutator must reach every outcome, or the run proves little.
    let want = [
        "bad root spec",
        "key outside section",
        "no paths",
        "no reason",
        "not a string",
        "not an array",
        "not key = value",
        "ok",
        "unknown key",
        "unknown section",
        "unterminated header",
    ];
    assert_eq!(*seen.borrow(), BTreeSet::from(want));
}
