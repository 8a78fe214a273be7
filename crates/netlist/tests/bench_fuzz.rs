//! Generated-input robustness for `Netlist::from_bench`, the `.bench`
//! reader behind every named circuit file the tools accept.
//!
//! A grammar-aware mutator starts from s27 and from the
//! `to_bench_string()` text of small generated circuits. It drops and
//! duplicates lines, swaps tokens, writes unknown keywords, changes a
//! gate's arity, and builds combinational cycles, undriven nets and
//! second drivers; then it inserts, deletes and truncates characters.
//! Whatever comes out, the parser must, within a deadline and without
//! panicking, return either
//!
//! * `Ok`, with `fanout_count` equal to a brute-force pin count on
//!   every net, or
//! * a `ParseBenchError` of a pinned kind whose `line` is a line of the
//!   text.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use scan_netlist::generate::{generate_with, profile, GeneratorConfig};
use scan_netlist::{bench, Netlist, NetlistError, ParseBenchError, ParseBenchErrorKind};
use scan_rng::testkit::{Gen, Runner};

/// A parse of a few hundred lines takes well under a millisecond; this
/// bound only catches a hang.
const DEADLINE: Duration = Duration::from_secs(2);

/// Gate keywords: known ones in several spellings, `DFF`, and unknown
/// ones.
const KEYWORDS: &[&str] = &[
    "AND", "nand", "Or", "NOR", "XOR", "xnor", "NOT", "INV", "BUF", "BUFF", "DFF", "dff", "FOO",
    "", "AND2", "INPUT", "OUTPUT", "D FF",
];

/// Replacement lines that are malformed in one way or another.
const MALFORMED: &[&str] = &[
    "garbage",
    "x = ",
    "= AND(G0, G1)",
    "x = AND(G0, G1",
    "x = AND G0, G1)",
    "x == AND(G0, G1)",
    "x = (G0)",
    "x = AND()",
    "x = AND(,,)",
    "x = AND((G0), G1)",
    "INPUT(",
    "OUTPUT)",
    "INPUT (G0)",
    "é = NOT(ü)",
    "x = NOT(G0) # trailing comment",
];

/// Characters the byte-level edits insert.
const CHARS: &[char] = &[
    '(', ')', '=', ',', '#', ' ', '\n', '\t', '\r', 'é', 'G', '0',
];

fn seed_text(g: &mut Gen) -> String {
    if g.bool("s27") {
        return bench::S27_BENCH.to_owned();
    }
    let name = g.pick("profile", &["s27", "s298", "s386", "c432"]);
    let seed = g.u64("generator seed", 0, 15);
    let p = profile(name).expect("profile exists");
    generate_with(p, seed, &GeneratorConfig::default()).to_bench_string()
}

/// An assignment line `lhs = KEYWORD(args)`, split into its tokens.
struct Assign {
    lhs: String,
    keyword: String,
    args: Vec<String>,
}

impl Assign {
    fn parse(line: &str) -> Option<Self> {
        let (lhs, rhs) = line.split_once('=')?;
        let (keyword, args) = rhs.trim().strip_suffix(')')?.split_once('(')?;
        Some(Assign {
            lhs: lhs.trim().to_owned(),
            keyword: keyword.trim().to_owned(),
            args: args.split(',').map(|a| a.trim().to_owned()).collect(),
        })
    }

    fn render(&self) -> String {
        format!("{} = {}({})", self.lhs, self.keyword, self.args.join(", "))
    }
}

/// Every net name the text mentions, in first-mention order.
fn names(lines: &[String]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut add = |name: &str| {
        if !name.is_empty() && !out.iter().any(|n| n == name) {
            out.push(name.to_owned());
        }
    };
    for line in lines {
        if let Some(a) = Assign::parse(line) {
            add(&a.lhs);
            a.args.iter().for_each(|arg| add(arg));
        } else if let Some(rest) = line.strip_prefix("INPUT(").or(line.strip_prefix("OUTPUT(")) {
            add(rest.trim_end_matches(')'));
        }
    }
    out
}

/// Indices of the assignment lines; of gates only, with `gates_only`.
fn assignments(lines: &[String], gates_only: bool) -> Vec<usize> {
    (0..lines.len())
        .filter(|&i| {
            Assign::parse(&lines[i])
                .is_some_and(|a| !gates_only || !a.keyword.eq_ignore_ascii_case("DFF"))
        })
        .collect()
}

/// Rewrites assignment line `at` with `edit`.
fn edit_assign(lines: &mut [String], at: usize, edit: impl FnOnce(&mut Assign)) {
    if let Some(mut a) = Assign::parse(&lines[at]) {
        edit(&mut a);
        lines[at] = a.render();
    }
}

/// Applies one to four structural edits to the seed's lines, then up
/// to three character-level edits to the joined text.
fn mutate(g: &mut Gen, seed: &str) -> String {
    let mut lines: Vec<String> = seed.lines().map(str::to_owned).collect();
    for _ in 0..g.usize("structural edits", 1, 4) {
        let names = names(&lines);
        let assigns = assignments(&lines, false);
        let gates = assignments(&lines, true);
        if lines.is_empty() || names.is_empty() || gates.is_empty() {
            break;
        }
        let line = g.usize("line", 0, lines.len() - 1);
        let assign = g.pick("assignment", &assigns);
        let gate = g.pick("gate", &gates);
        let name = g.pick("name", &names);
        match g.usize("edit", 0, 9) {
            0 => {
                lines.remove(line);
            }
            1 => {
                let copy = lines[line].clone();
                lines.insert(g.usize("copy to", 0, lines.len()), copy);
            }
            2 => edit_assign(&mut lines, assign, |a| {
                let i = g.usize("arg", 0, a.args.len() - 1);
                if g.bool("swap with lhs") {
                    std::mem::swap(&mut a.lhs, &mut a.args[i]);
                } else {
                    std::mem::swap(&mut a.keyword, &mut a.args[i]);
                }
            }),
            3 => edit_assign(&mut lines, assign, |a| {
                a.keyword = g.pick("keyword", KEYWORDS).to_owned();
            }),
            4 => edit_assign(&mut lines, assign, |a| {
                if g.bool("grow") {
                    a.args.push(name.clone());
                } else {
                    a.args.truncate(g.usize("keep args", 0, a.args.len() - 1));
                }
            }),
            5 => {
                // A gate reading its own output, or two gates each
                // reading the other's.
                let other = g.pick("other gate", &gates);
                let (Some(a), Some(b)) =
                    (Assign::parse(&lines[gate]), Assign::parse(&lines[other]))
                else {
                    continue;
                };
                edit_assign(&mut lines, gate, |x| x.args[0] = b.lhs.clone());
                edit_assign(&mut lines, other, |x| x.args[0] = a.lhs.clone());
            }
            6 => {
                let ghost = format!("ghost{}", g.usize("ghost", 0, 3));
                if g.bool("ghost output") {
                    lines.insert(line, format!("OUTPUT({ghost})"));
                } else {
                    edit_assign(&mut lines, assign, |a| a.args[0] = ghost);
                }
            }
            7 => {
                let driver = if g.bool("as input") {
                    format!("INPUT({name})")
                } else {
                    let source = g.pick("source", &names);
                    format!(
                        "{name} = {}({source})",
                        g.pick("kind", &["NOT", "BUF", "DFF"])
                    )
                };
                lines.insert(line, driver);
            }
            8 => lines[line] = g.pick("malformed", MALFORMED).to_owned(),
            _ => {
                // A gate reading one net on two pins.
                edit_assign(&mut lines, gate, |a| {
                    a.args = vec![name.clone(), name.clone()];
                    a.keyword = g.pick("binary", &["AND", "XOR", "NOR"]).to_owned();
                });
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
fn parse_within_deadline(text: &str) -> Result<Netlist, ParseBenchError> {
    let (tx, rx) = mpsc::channel();
    let owned = text.to_owned();
    let parser = thread::spawn(move || {
        let _ = tx.send(Netlist::from_bench("fuzz", &owned));
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
fn check(text: &str, result: &Result<Netlist, ParseBenchError>) -> &'static str {
    let e = match result {
        Ok(n) => {
            for net in n.net_ids() {
                let pins = n
                    .gates()
                    .iter()
                    .flat_map(|gate| &gate.inputs)
                    .filter(|&&input| input == net)
                    .count();
                assert_eq!(n.fanout_count(net), pins, "net {}", n.net_name(net));
            }
            return "ok";
        }
        Err(e) => e,
    };
    let lines = text.lines().count();
    assert!(
        (1..=lines).contains(&e.line),
        "{e:?} names line {} of {lines}",
        e.line
    );
    assert!(!e.to_string().is_empty());
    match &e.kind {
        ParseBenchErrorKind::MalformedLine(_) => "malformed line",
        ParseBenchErrorKind::UnknownGateKind(_) => "unknown gate kind",
        ParseBenchErrorKind::BadArity { .. } => "bad arity",
        ParseBenchErrorKind::Structure(NetlistError::MultipleDrivers { .. }) => "multiple drivers",
        ParseBenchErrorKind::Structure(NetlistError::Undriven { .. }) => "undriven",
        ParseBenchErrorKind::Structure(NetlistError::CombinationalCycle { .. }) => "cycle",
        ParseBenchErrorKind::Structure(NetlistError::DuplicateInput { .. }) => "duplicate input",
        other => panic!("unpinned error kind {other:?}"),
    }
}

#[test]
fn mutated_bench_text_parses_or_fails_with_a_pinned_error() {
    let seen = RefCell::new(BTreeSet::new());
    Runner::new(2000).run("bench.mutated_text", |g| {
        let seed = seed_text(g);
        let text = mutate(g, &seed);
        let result = parse_within_deadline(&text);
        seen.borrow_mut().insert(check(&text, &result));
    });
    // The mutator must reach every outcome, or the run proves little.
    let want = [
        "bad arity",
        "cycle",
        "duplicate input",
        "malformed line",
        "multiple drivers",
        "ok",
        "undriven",
        "unknown gate kind",
    ];
    assert_eq!(*seen.borrow(), BTreeSet::from(want));
}
