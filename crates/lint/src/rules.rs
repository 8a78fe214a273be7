//! The rule set: fourteen workspace-contract lints — lexical rules over
//! the token stream (Rust sources), a line-oriented manifest check
//! (`Cargo.toml`), and semantic rules over the workspace call graph
//! (L009, L012, L013, L014).
//!
//! Each rule has an id, short name, severity, and fix-hint; findings
//! carry the 1-based line/column of the offending token. Semantic
//! findings additionally carry a witness call chain (root → … → site).
//! Rules are scoped by path where the contract itself is path-scoped
//! (wall-clock is the bench/obs/daemon crates' business; stdout belongs
//! to the CLI and the experiment bins; `HashMap` is only a determinism
//! hazard in the crates whose outputs must be bit-identical).
//!
//! Suppression happens at a higher level (config allow-paths and
//! inline `// lint:allow`); rules here report everything they see.

use crate::config::Config;
use crate::findings::{ChainHop, Finding, Severity};
use crate::graph::Graph;
use crate::lexer::{Token, TokenKind};
use crate::model::FactKind;
use crate::reach;
use std::collections::{BTreeMap, BTreeSet};

/// The deterministic crates whose iteration order is contractual
/// (serial vs parallel bit-identity, pinned RNG streams).
const DETERMINISTIC_CRATES: &[&str] =
    &["crates/core/", "crates/sim/", "crates/bist/", "crates/soc/"];

/// Crates allowed to read wall clocks: the timing harness, the
/// observability layer (monotonic span timing), and the daemon
/// (deadline arithmetic and socket timeouts).
const WALL_CLOCK_CRATES: &[&str] = &["crates/bench/", "crates/obs/", "crates/daemon/"];

/// Paths allowed to print to stdout: the CLI front end (stdout is its
/// payload channel), the experiment bins (same contract, enforced
/// end-to-end by `crates/bench/tests/bin_stdout.rs`), and the load
/// generator bin (scenario summaries are its payload).
const STDOUT_PATHS: &[&str] = &[
    "crates/cli/",
    "crates/bench/src/bin/",
    "crates/daemon/src/bin/",
];

/// Paths where every work queue must be explicitly bounded: the
/// daemon's admission path. `VecDeque` grows without limit and
/// `mpsc::channel()` buffers without limit; under overload either one
/// turns backpressure into memory exhaustion. L011 denies both here —
/// use `scan_daemon::queue::BoundedQueue` (or `sync_channel`) instead.
const BOUNDED_QUEUE_PATHS: &[&str] = &["crates/daemon/"];

/// The crate that defines `diagnose_checked`; direct `diagnose()`
/// calls are its internal business only.
const DIAGNOSE_CRATE: &str = "crates/core/";

/// Crates where a live span guard must not cover blocking I/O: the
/// deterministic hot paths plus the observability layer itself. A
/// span that blocks on a socket or file charges the wait to whatever
/// it wraps, poisoning every profile and baseline derived from it.
const SPAN_IO_CRATES: &[&str] = &[
    "crates/core/",
    "crates/sim/",
    "crates/bist/",
    "crates/soc/",
    "crates/obs/",
];

/// Observability hot paths where a panic is a telemetry outage — or
/// worse: the flight recorder's panic hook runs on *every* panic, the
/// SLO evaluator and sampler run on a background thread whose death
/// silently stops sampling, and the serve module answers scrapes
/// mid-campaign. `unwrap()`/`expect()` here turn a recoverable hiccup
/// into a lost black box, so L010 denies them outside `#[cfg(test)]`.
const OBS_HOT_PATHS: &[&str] = &[
    "crates/obs/src/serve.rs",
    "crates/obs/src/slo.rs",
    "crates/obs/src/recorder.rs",
    "crates/obs/src/timeseries.rs",
];

fn under(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

fn finding(
    rule: &'static str,
    name: &'static str,
    file: &str,
    token_line: u32,
    token_col: u32,
    message: String,
    hint: &'static str,
) -> Finding {
    Finding {
        rule,
        name,
        severity: Severity::Deny,
        file: file.to_owned(),
        line: token_line,
        col: token_col,
        message,
        hint,
        suppressed: None,
        chain: Vec::new(),
    }
}

/// An inline `// lint:allow(L00x): reason` directive found in a
/// comment. It suppresses findings of that rule on its own line and
/// the line directly below (so it can sit above the offending line or
/// trail it).
#[derive(Clone, Debug)]
pub struct InlineAllow {
    /// Rule id the directive targets.
    pub rule: String,
    /// Written justification (required; an empty reason is itself
    /// reported as a finding).
    pub reason: String,
    /// Line the directive appears on.
    pub line: u32,
}

/// Extracts inline allow directives from comment tokens. Directives
/// missing a reason are returned as findings instead of allows.
#[must_use]
pub fn inline_allows(file: &str, tokens: &[Token]) -> (Vec<InlineAllow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for token in tokens {
        if token.kind != TokenKind::Comment {
            continue;
        }
        let mut rest = token.text.as_str();
        while let Some(start) = rest.find("lint:allow(") {
            rest = &rest[start + "lint:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let rule = rest[..close].trim().to_owned();
            let after = &rest[close + 1..];
            // The reason is whatever follows the closing paren, minus
            // leading separator punctuation.
            let reason = after
                .trim_start_matches([':', ',', '-', '—', ' '])
                .trim()
                .to_owned();
            rest = after;
            if reason.is_empty() {
                malformed.push(finding(
                    "L000",
                    "malformed-suppression",
                    file,
                    token.line,
                    token.col,
                    format!(
                        "inline `lint:allow({rule})` has no reason — write \
                         `// lint:allow({rule}): why this is sound`"
                    ),
                    "every suppression must carry a written justification",
                ));
            } else {
                allows.push(InlineAllow {
                    rule,
                    reason,
                    line: token.line,
                });
            }
        }
    }
    (allows, malformed)
}

/// Runs all token-level rules (L002–L009) over one Rust file,
/// returning raw findings plus the file's `unsafe` inventory.
#[must_use]
pub fn check_rust(file: &str, tokens: &[Token]) -> (Vec<Finding>, Vec<u32>) {
    let mut findings = Vec::new();
    let mut unsafe_lines = Vec::new();
    // Significant (non-comment) tokens drive the pattern rules;
    // comments are consulted for SAFETY annotations.
    let sig: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let comments: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Comment)
        .collect();

    for (i, token) in sig.iter().enumerate() {
        if token.kind != TokenKind::Ident {
            continue;
        }
        match token.text.as_str() {
            // L002 — ambient randomness.
            "thread_rng" | "from_entropy" => findings.push(finding(
                "L002",
                "no-ambient-rng",
                file,
                token.line,
                token.col,
                format!("`{}` draws ambient randomness", token.text),
                "derive a keyed stream from the vendored scan-rng crate instead",
            )),
            "rand" if path_sep_follows(&sig, i) => findings.push(finding(
                "L002",
                "no-ambient-rng",
                file,
                token.line,
                token.col,
                "`rand::` path — the external rand crate is banned".to_owned(),
                "derive a keyed stream from the vendored scan-rng crate instead",
            )),
            // L003 — wall clocks outside bench/obs.
            "Instant" | "SystemTime"
                if !under(file, WALL_CLOCK_CRATES)
                    && path_sep_follows(&sig, i)
                    && sig.get(i + 3).is_some_and(|t| t.is_ident("now")) =>
            {
                findings.push(finding(
                    "L003",
                    "no-wall-clock-in-core",
                    file,
                    token.line,
                    token.col,
                    format!(
                        "`{}::now` read outside crates/bench and crates/obs",
                        token.text
                    ),
                    "time kernels in scan_bench::suite or with scan-obs spans",
                ));
            }
            // L004 — unordered iteration hazard in deterministic crates.
            "HashMap" | "HashSet" if under(file, DETERMINISTIC_CRATES) => {
                findings.push(finding(
                    "L004",
                    "no-unordered-iteration",
                    file,
                    token.line,
                    token.col,
                    format!(
                        "`{}` in a deterministic crate — iteration order is unspecified",
                        token.text
                    ),
                    "use BTreeMap/BTreeSet, or sort before iterating and suppress \
                     with a reason if the map is never iterated",
                ));
            }
            // L005 — unsafe needs a SAFETY comment.
            "unsafe" => {
                unsafe_lines.push(token.line);
                if !has_safety_comment(&comments, token.line) {
                    findings.push(finding(
                        "L005",
                        "unsafe-needs-safety-comment",
                        file,
                        token.line,
                        token.col,
                        "`unsafe` without a `// SAFETY:` comment in the 3 lines above".to_owned(),
                        "state the invariant that makes this sound in a // SAFETY: comment",
                    ));
                }
            }
            // L006 — stdout cleanliness.
            "print" | "println"
                if !under(file, STDOUT_PATHS)
                    && sig.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                findings.push(finding(
                    "L006",
                    "stdout-cleanliness",
                    file,
                    token.line,
                    token.col,
                    format!(
                        "`{}!` outside crates/cli and the experiment bins — stdout is \
                         the payload channel",
                        token.text
                    ),
                    "write diagnostics to stderr (eprintln!) or thread a Write sink",
                ));
            }
            // L007 — pub error enums must be #[non_exhaustive].
            "enum"
                if token_is_pub_before(&sig, i)
                    && sig.get(i + 1).is_some_and(|t| {
                        t.kind == TokenKind::Ident && t.text.contains("Error")
                    })
                    && !non_exhaustive_before(&sig, i - 1) =>
            {
                let name_token = sig[i + 1];
                findings.push(finding(
                    "L007",
                    "nonexhaustive-public-errors",
                    file,
                    name_token.line,
                    name_token.col,
                    format!(
                        "pub error enum `{}` is exhaustively matchable",
                        name_token.text
                    ),
                    "add #[non_exhaustive] so new failure modes are not breaking changes",
                ));
            }
            // L011 — unbounded queues in the daemon's admission path.
            "VecDeque" if under(file, BOUNDED_QUEUE_PATHS) => {
                findings.push(finding(
                    "L011",
                    "no-unbounded-queue",
                    file,
                    token.line,
                    token.col,
                    "`VecDeque` in the daemon — an unbounded buffer turns \
                     backpressure into memory exhaustion under overload"
                        .to_owned(),
                    "use the bounded admission queue (scan_daemon::queue::BoundedQueue) \
                     or justify the bound with a suppression",
                ));
            }
            "channel"
                if under(file, BOUNDED_QUEUE_PATHS)
                    && sig.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && !call_is_method_or_def(&sig, i) =>
            {
                findings.push(finding(
                    "L011",
                    "no-unbounded-queue",
                    file,
                    token.line,
                    token.col,
                    "`channel()` in the daemon — `std::sync::mpsc::channel` buffers \
                     without limit under overload"
                        .to_owned(),
                    "use sync_channel(bound) or the bounded admission queue \
                     (scan_daemon::queue::BoundedQueue)",
                ));
            }
            // L008 — direct diagnose() outside the defining crate.
            "diagnose"
                if !under(file, &[DIAGNOSE_CRATE])
                    && sig.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && !call_is_method_or_def(&sig, i) =>
            {
                findings.push(finding(
                    "L008",
                    "no-silent-empty-intersection",
                    file,
                    token.line,
                    token.col,
                    "direct `diagnose()` call — an empty candidate set is silently \
                     ambiguous"
                        .to_owned(),
                    "call diagnose_checked (or the robust engine) and handle \
                     AllSessionsPassed / ContradictoryHistory",
                ));
            }
            _ => {}
        }
    }
    if under(file, OBS_HOT_PATHS) {
        findings.extend(check_obs_unwrap(file, &sig));
    }
    (findings, unsafe_lines)
}

/// L010 — `no-unwrap-in-obs-hot-path`: within [`OBS_HOT_PATHS`], no
/// `.unwrap()` or `.expect(…)` call outside `#[cfg(test)]` items. The
/// observability layer must degrade, not die: a panic in the sampler
/// thread stops all sampling, a panic under the recorder's own panic
/// hook loses the black box, and a panic while serving a scrape kills
/// the endpoint mid-campaign. Use the poison-recovering `lock()`
/// helpers, `let … else` with a logged fallback, or propagate an
/// error. Test modules are exempt — a test *should* panic on a broken
/// invariant.
fn check_obs_unwrap(file: &str, sig: &[&Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut depth = 0usize;
    // Depth of the brace block owned by an active `#[cfg(test)]`
    // attribute; tokens inside it are exempt.
    let mut skip_until: Option<usize> = None;
    let mut pending_cfg_test = false;
    for (i, token) in sig.iter().enumerate() {
        if token.is_punct('{') {
            depth += 1;
            if pending_cfg_test && skip_until.is_none() {
                skip_until = Some(depth);
                pending_cfg_test = false;
            }
        } else if token.is_punct('}') {
            if skip_until == Some(depth) {
                skip_until = None;
            }
            depth = depth.saturating_sub(1);
        }
        if skip_until.is_some() || token.kind != TokenKind::Ident {
            continue;
        }
        // `#[cfg(test)]` — the next brace block is the test item.
        if token.is_ident("cfg")
            && i >= 2
            && sig[i - 1].is_punct('[')
            && sig[i - 2].is_punct('#')
            && sig.get(i + 1).is_some_and(|t| t.is_punct('('))
            && sig.get(i + 2).is_some_and(|t| t.is_ident("test"))
        {
            pending_cfg_test = true;
            continue;
        }
        if (token.is_ident("unwrap") || token.is_ident("expect"))
            && i > 0
            && sig[i - 1].is_punct('.')
            && sig.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            findings.push(finding(
                "L010",
                "no-unwrap-in-obs-hot-path",
                file,
                token.line,
                token.col,
                format!(
                    "`.{}(…)` in an observability hot path — a panic here kills \
                     the sampler/recorder/endpoint instead of degrading",
                    token.text
                ),
                "recover instead of panicking: poison-recovering lock() helpers, \
                 `let … else` with a logged fallback, or propagate the error",
            ));
        }
    }
    findings
}

/// Runs the semantic (call-graph) rules: L009 `no-blocking-io-inside-
/// span`, L012 `panic-freedom`, L013 `lock-order`, and L014
/// `determinism-taint`. Findings carry witness chains.
#[must_use]
pub fn check_semantic(graph: &Graph, config: &Config) -> Vec<Finding> {
    let adj = graph.adjacency();
    let masked = graph.test_mask();
    let mut findings = Vec::new();
    findings.extend(check_l009(graph, &adj, &masked));
    // L012 walks a fence-filtered adjacency: a call inside a
    // `catch_unwind(...)` argument cannot unwind its caller, so the
    // panic-freedom contract stops at that boundary.
    let unwind_adj: Vec<Vec<usize>> = graph
        .edges
        .iter()
        .map(|es| es.iter().filter(|e| !e.fenced).map(|e| e.to).collect())
        .collect();
    findings.extend(check_l012(graph, &unwind_adj, &masked, config));
    findings.extend(check_l013(graph, &adj, &masked));
    findings.extend(check_l014(graph, &adj, &masked));
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    findings
}

/// Builds the witness chain for a forward path of node indices: each
/// hop carries the call-site line into the next node; the final hop is
/// the offending site itself.
fn chain_for_path(graph: &Graph, path: &[usize], site_line: u32) -> Vec<ChainHop> {
    let mut hops = Vec::new();
    for w in path.windows(2) {
        let line = graph
            .edge(w[0], w[1])
            .map_or(graph.nodes[w[0]].line, |e| e.line);
        hops.push(ChainHop {
            func: graph.nodes[w[0]].qual.clone(),
            file: graph.nodes[w[0]].file.clone(),
            line,
        });
    }
    if let Some(&last) = path.last() {
        hops.push(ChainHop {
            func: graph.nodes[last].qual.clone(),
            file: graph.nodes[last].file.clone(),
            line: site_line,
        });
    }
    hops
}

/// Forward path `from → … → nearest target` read out of a reverse-BFS
/// (`rev_reach` computed over the reversed adjacency from the targets).
fn forward_path(rev_reach: &reach::Reach, from: usize) -> Vec<usize> {
    let mut path = rev_reach.witness(from);
    path.reverse();
    path
}

/// L009 (semantic) — within [`SPAN_IO_CRATES`], no blocking I/O may
/// execute while a span guard is live: neither directly nor through any
/// transitive callee, across files and crates. A function is I/O-dirty
/// when its body contains a blocking token or its signature takes an
/// I/O handle, or when it can reach such a function through the call
/// graph. `#[cfg(test)]` code is exempt — test spans measure tests.
fn check_l009(graph: &Graph, adj: &[Vec<usize>], masked: &[bool]) -> Vec<Finding> {
    let io_nodes: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.facts.iter().any(|f| f.kind == FactKind::Io))
        .map(|(i, _)| i)
        .collect();
    let rev = reach::reverse(adj);
    let rev_reach = reach::bfs(&rev, &io_nodes, masked);
    let mut findings = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if masked[i] || !under(&node.file, SPAN_IO_CRATES) {
            continue;
        }
        for fact in &node.facts {
            if fact.kind == FactKind::Io && fact.under_span && !fact.in_sig {
                findings.push(finding(
                    "L009",
                    "no-blocking-io-inside-span",
                    &node.file,
                    fact.line,
                    fact.col,
                    format!(
                        "`{}` while a span guard is live — the span's timing absorbs \
                         the blocking wait",
                        fact.what
                    ),
                    "drop the span guard before the I/O, or move the write out of the \
                     instrumented region; suppress with a reason only if the span \
                     deliberately measures the I/O itself",
                ));
            }
        }
        for e in &graph.edges[i] {
            if !e.under_span || masked[e.to] || !rev_reach.visited[e.to] {
                continue;
            }
            let path = forward_path(&rev_reach, e.to);
            let io_node = &graph.nodes[*path.last().unwrap_or(&e.to)];
            let io_line = io_node
                .facts
                .iter()
                .find(|f| f.kind == FactKind::Io)
                .map_or(io_node.line, |f| f.line);
            let mut chain = vec![ChainHop {
                func: node.qual.clone(),
                file: node.file.clone(),
                line: e.line,
            }];
            chain.extend(chain_for_path(graph, &path, io_line));
            let mut f = finding(
                "L009",
                "no-blocking-io-inside-span",
                &node.file,
                e.line,
                e.col,
                format!(
                    "call to `{}` while a span guard is live — the callee (transitively) \
                     performs blocking I/O, so the span's timing absorbs the wait",
                    graph.nodes[e.to].qual
                ),
                "drop the span guard before the call, or move the I/O out of the \
                 instrumented region; suppress with a reason only if the span \
                 deliberately measures the I/O itself",
            );
            f.chain = chain;
            findings.push(f);
        }
    }
    findings
}

/// L012 — `panic-freedom`: from the roots configured in `lint.toml
/// [roots] panic_freedom`, no panic site may be transitively reachable
/// outside `#[cfg(test)]`. Each finding sits at the panic site and
/// carries the full witness call chain from the root. Inert when no
/// roots are configured.
fn check_l012(graph: &Graph, adj: &[Vec<usize>], masked: &[bool], config: &Config) -> Vec<Finding> {
    if config.panic_roots.is_empty() {
        return Vec::new();
    }
    let roots: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            !n.is_test
                && config
                    .panic_roots
                    .iter()
                    .any(|r| r.matches(&n.file, &n.name))
        })
        .map(|(i, _)| i)
        .collect();
    let r = reach::bfs(adj, &roots, masked);
    let mut seen: BTreeSet<(String, u32, u32)> = BTreeSet::new();
    let mut findings = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if !r.visited[i] {
            continue;
        }
        for fact in &node.facts {
            if fact.kind != FactKind::Panic
                || fact.fenced
                || !seen.insert((node.file.clone(), fact.line, fact.col))
            {
                continue;
            }
            let path = r.witness(i);
            let root_qual = graph.nodes[path[0]].qual.clone();
            let mut f = finding(
                "L012",
                "panic-freedom",
                &node.file,
                fact.line,
                fact.col,
                format!(
                    "`{}` can panic and is reachable from root `{}` ({} call hop(s))",
                    fact.what,
                    root_qual,
                    path.len() - 1,
                ),
                "make the path panic-free (handle the error, use checked ops/get()), \
                 isolate it behind catch_unwind and suppress with that reason, or \
                 drop the root from [roots] if it is not a liveness boundary",
            );
            f.chain = chain_for_path(graph, &path, fact.line);
            findings.push(f);
        }
    }
    findings
}

/// One direction of an observed lock ordering, with its witness.
struct LockWitness {
    file: String,
    line: u32,
    col: u32,
    chain: Vec<ChainHop>,
}

/// L013 — `lock-order`: nested lock acquisitions (direct, or a call
/// made while holding a lock whose callee transitively acquires
/// another) must follow one global partial order. When both `(a, b)`
/// and `(b, a)` orders are observed anywhere in the workspace, both
/// sites are reported, each with its witness chain.
fn check_l013(graph: &Graph, adj: &[Vec<usize>], masked: &[bool]) -> Vec<Finding> {
    // Lock names acquired anywhere (receiver idents; `<expr>` receivers
    // are unattributable and excluded from ordering).
    let mut lock_names: BTreeSet<&str> = BTreeSet::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if masked[i] {
            continue;
        }
        for fact in &node.facts {
            if fact.kind == FactKind::Lock && fact.what != "<expr>" {
                lock_names.insert(fact.what.as_str());
            }
        }
    }
    // Per lock name: reverse reachability from its direct acquirers.
    let rev = reach::reverse(adj);
    let mut rev_reach: BTreeMap<&str, reach::Reach> = BTreeMap::new();
    for name in &lock_names {
        let holders: Vec<usize> = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| {
                !masked[*i]
                    && n.facts
                        .iter()
                        .any(|f| f.kind == FactKind::Lock && f.what == *name)
            })
            .map(|(i, _)| i)
            .collect();
        rev_reach.insert(name, reach::bfs(&rev, &holders, masked));
    }

    let mut orders: BTreeMap<(String, String), LockWitness> = BTreeMap::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if masked[i] {
            continue;
        }
        // Direct nested acquisitions inside one function.
        for p in &node.lock_pairs {
            if p.first.name == "<expr>" || p.second.name == "<expr>" {
                continue;
            }
            let key = (p.first.name.clone(), p.second.name.clone());
            orders.entry(key).or_insert_with(|| {
                let col = lock_col(graph, i, &p.second.name, p.second.line);
                LockWitness {
                    file: node.file.clone(),
                    line: p.second.line,
                    col,
                    chain: vec![
                        ChainHop {
                            func: node.qual.clone(),
                            file: node.file.clone(),
                            line: p.first.line,
                        },
                        ChainHop {
                            func: node.qual.clone(),
                            file: node.file.clone(),
                            line: p.second.line,
                        },
                    ],
                }
            });
        }
        // Calls made while holding a lock, into callees that acquire.
        for e in &graph.edges[i] {
            if e.held_locks.is_empty() || masked[e.to] {
                continue;
            }
            for (name, rr) in &rev_reach {
                if !rr.visited[e.to] {
                    continue;
                }
                for held in &e.held_locks {
                    if held.name == **name || held.name == "<expr>" {
                        continue;
                    }
                    let key = (held.name.clone(), (*name).to_string());
                    if orders.contains_key(&key) {
                        continue;
                    }
                    let path = forward_path(rr, e.to);
                    let acq = &graph.nodes[*path.last().unwrap_or(&e.to)];
                    let acq_line = acq
                        .facts
                        .iter()
                        .find(|f| f.kind == FactKind::Lock && f.what == **name)
                        .map_or(acq.line, |f| f.line);
                    let mut chain = vec![
                        ChainHop {
                            func: node.qual.clone(),
                            file: node.file.clone(),
                            line: held.line,
                        },
                        ChainHop {
                            func: node.qual.clone(),
                            file: node.file.clone(),
                            line: e.line,
                        },
                    ];
                    chain.extend(chain_for_path(graph, &path, acq_line));
                    orders.insert(
                        key,
                        LockWitness {
                            file: node.file.clone(),
                            line: e.line,
                            col: e.col,
                            chain,
                        },
                    );
                }
            }
        }
    }

    let mut findings = Vec::new();
    let keys: Vec<(String, String)> = orders.keys().cloned().collect();
    for key in &keys {
        let (a, b) = key;
        if a >= b {
            continue; // visit each unordered pair once
        }
        let rev_key = (b.clone(), a.clone());
        if !orders.contains_key(&rev_key) {
            continue;
        }
        for (fwd, other) in [(key, &rev_key), (&rev_key, key)] {
            let w = &orders[fwd];
            let o = &orders[other];
            let mut f = finding(
                "L013",
                "lock-order",
                &w.file,
                w.line,
                w.col,
                format!(
                    "lock `{}` is held while acquiring `{}`, but the reverse order \
                     occurs at {}:{} — inconsistent lock order can deadlock",
                    fwd.0, fwd.1, o.file, o.line,
                ),
                "pick one global acquisition order for these locks and restructure \
                 one of the two paths to follow it",
            );
            f.chain = w.chain.clone();
            findings.push(f);
        }
    }
    findings
}

/// Column of the lock acquisition fact matching (`name`, `line`) in
/// node `i`, defaulting to 1.
fn lock_col(graph: &Graph, i: usize, name: &str, line: u32) -> u32 {
    graph.nodes[i]
        .facts
        .iter()
        .find(|f| f.kind == FactKind::Lock && f.what == name && f.line == line)
        .map_or(1, |f| f.col)
}

/// L014 — `determinism-taint`: the transitive closure of the L002/L003/
/// L004 tokens. A deterministic-core function that (transitively)
/// reaches ambient RNG, a wall-clock read, or unordered iteration —
/// even through helpers in other files and crates — taints the
/// diagnosis result. Sites inside the deterministic crates themselves
/// are already covered lexically; wall-clock and unordered sites inside
/// the crates licensed to use them ([`WALL_CLOCK_CRATES`]) are fine
/// unless a core function reaches ambient RNG there.
fn check_l014(graph: &Graph, adj: &[Vec<usize>], masked: &[bool]) -> Vec<Finding> {
    let roots: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.is_test && under(&n.file, DETERMINISTIC_CRATES))
        .map(|(i, _)| i)
        .collect();
    if roots.is_empty() {
        return Vec::new();
    }
    let r = reach::bfs(adj, &roots, masked);
    let mut seen: BTreeSet<(String, u32, u32)> = BTreeSet::new();
    let mut findings = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        if !r.visited[i] || under(&node.file, DETERMINISTIC_CRATES) {
            continue;
        }
        for fact in &node.facts {
            let (flagged, label) = match fact.kind {
                FactKind::Rng => (true, "ambient RNG"),
                FactKind::Clock => (!under(&node.file, WALL_CLOCK_CRATES), "wall clock"),
                FactKind::Unordered => {
                    (!under(&node.file, WALL_CLOCK_CRATES), "unordered iteration")
                }
                _ => (false, ""),
            };
            if !flagged || !seen.insert((node.file.clone(), fact.line, fact.col)) {
                continue;
            }
            let path = r.witness(i);
            let root_qual = graph.nodes[path[0]].qual.clone();
            let mut f = finding(
                "L014",
                "determinism-taint",
                &node.file,
                fact.line,
                fact.col,
                format!(
                    "`{}` ({label}) is transitively reachable from deterministic-core \
                     function `{}` — nondeterminism leaks into diagnosis results",
                    fact.what, root_qual,
                ),
                "replace the nondeterministic source (BTreeMap, scan-rng streams, \
                 injected clocks) or break the call path out of the deterministic core",
            );
            f.chain = chain_for_path(graph, &path, fact.line);
            findings.push(f);
        }
    }
    findings
}

/// True when significant tokens `i+1`, `i+2` are `::`.
fn path_sep_follows(sig: &[&Token], i: usize) -> bool {
    sig.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && sig.get(i + 2).is_some_and(|t| t.is_punct(':'))
}

/// True when a `// SAFETY:` (or `/* SAFETY: */`) comment sits on the
/// `unsafe` line itself or within the 3 lines above it.
fn has_safety_comment(comments: &[&Token], unsafe_line: u32) -> bool {
    comments.iter().any(|c| {
        c.text.contains("SAFETY:")
            && c.line <= unsafe_line
            && unsafe_line.saturating_sub(c.line) <= 3
    })
}

/// True when the token before `i` (an `enum` keyword) is `pub`.
/// `pub(crate)` and private enums are not public API and are skipped.
fn token_is_pub_before(sig: &[&Token], i: usize) -> bool {
    i > 0 && sig[i - 1].is_ident("pub")
}

/// Walks attribute groups backwards from the token before `pub`
/// (index `pub_index - 1`... caller passes the index *of* `pub`) and
/// reports whether any attribute mentions `non_exhaustive`.
fn non_exhaustive_before(sig: &[&Token], pub_index: usize) -> bool {
    let mut j = pub_index; // index of `pub`; attributes end at j-1
    while j > 0 {
        let end = j - 1;
        if !sig[end].is_punct(']') {
            return false; // ran out of attributes
        }
        // Find the matching `[`, tolerating nested brackets inside the
        // attribute (e.g. #[cfg_attr(..., derive(...))]).
        let mut depth = 0usize;
        let mut k = end;
        loop {
            if sig[k].is_punct(']') {
                depth += 1;
            } else if sig[k].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return false; // unbalanced; bail conservatively
            }
            k -= 1;
        }
        if k == 0 || !sig[k - 1].is_punct('#') {
            return false;
        }
        if sig[k..end].iter().any(|t| t.is_ident("non_exhaustive")) {
            return true;
        }
        j = k - 1; // continue above the `#`
    }
    false
}

/// True when `diagnose(` at `i` is a method call (`x.diagnose(`), a
/// definition (`fn diagnose(`), or a macro fragment we should not
/// flag.
fn call_is_method_or_def(sig: &[&Token], i: usize) -> bool {
    i > 0 && (sig[i - 1].is_punct('.') || sig[i - 1].is_ident("fn"))
}

/// L001 — `no-external-deps`: every dependency in every `Cargo.toml`
/// must be a workspace path dependency (or `workspace = true`
/// inheritance). A line-oriented scan is enough: dependency sections
/// are flat `name = value` lists, and a value that carries neither
/// `path` nor `workspace` names a registry crate.
#[must_use]
pub fn check_manifest(file: &str, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_dep_section = false;
    // `[dependencies.foo]`-style tables: (header line, name, any path/
    // workspace key seen).
    let mut dep_table: Option<(u32, String, bool)> = None;
    for (index, raw) in text.lines().enumerate() {
        let line_no = u32::try_from(index + 1).unwrap_or(u32::MAX);
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush_dep_table(&mut dep_table, file, &mut findings);
            let header = line.trim_matches(['[', ']']);
            in_dep_section = is_dep_section(header);
            if let Some(name) = dep_table_name(header) {
                dep_table = Some((line_no, name.to_owned(), false));
            }
            continue;
        }
        if let Some((_, _, satisfied)) = &mut dep_table {
            let key = line.split('=').next().unwrap_or("").trim();
            if key == "path" || key == "workspace" {
                *satisfied = true;
            }
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        // `foo.workspace = true` / `foo.path = "…"` dotted keys are
        // workspace-local; inline tables must mention path/workspace.
        let local = key.ends_with(".workspace")
            || key.ends_with(".path")
            || value.contains("path")
            || value.contains("workspace");
        if !local {
            findings.push(finding(
                "L001",
                "no-external-deps",
                file,
                line_no,
                1,
                format!("dependency `{key}` is not a workspace path dependency"),
                "vendor the code into a crates/ member; the build environment has \
                 no registry access",
            ));
        }
    }
    flush_dep_table(&mut dep_table, file, &mut findings);
    findings
}

fn flush_dep_table(
    dep_table: &mut Option<(u32, String, bool)>,
    file: &str,
    findings: &mut Vec<Finding>,
) {
    if let Some((line, name, satisfied)) = dep_table.take() {
        if !satisfied {
            findings.push(finding(
                "L001",
                "no-external-deps",
                file,
                line,
                1,
                format!("dependency table `{name}` has no `path` or `workspace` key"),
                "vendor the code into a crates/ member; the build environment has \
                 no registry access",
            ));
        }
    }
}

fn is_dep_section(header: &str) -> bool {
    matches!(
        header,
        "dependencies" | "dev-dependencies" | "build-dependencies" | "workspace.dependencies"
    ) || (header.starts_with("target.") && header.ends_with("dependencies"))
}

/// For `[dependencies.foo]`-style headers, the dependency name.
fn dep_table_name(header: &str) -> Option<&str> {
    for section in [
        "dependencies.",
        "dev-dependencies.",
        "build-dependencies.",
        "workspace.dependencies.",
    ] {
        if let Some(name) = header.strip_prefix(section) {
            return Some(name);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn rust_findings(file: &str, source: &str) -> Vec<Finding> {
        check_rust(file, &tokenize(source)).0
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn l002_flags_ambient_rng() {
        let f = rust_findings("crates/x/src/lib.rs", "let r = rand::thread_rng();");
        assert_eq!(rules_of(&f), vec!["L002", "L002"]);
        assert!(rust_findings("crates/x/src/lib.rs", "let r = scan_rng::Rng::new(0);").is_empty());
        // `rand` as a plain variable is not the crate path.
        assert!(rust_findings("crates/x/src/lib.rs", "let rand = 3; use_it(rand);").is_empty());
    }

    #[test]
    fn l003_scoped_to_non_timing_crates() {
        let source = "let t = Instant::now();";
        assert_eq!(
            rules_of(&rust_findings("crates/core/src/a.rs", source)),
            vec!["L003"]
        );
        assert!(rust_findings("crates/bench/src/suite.rs", source).is_empty());
        assert!(rust_findings("crates/obs/src/span.rs", source).is_empty());
        // `Instant::elapsed` etc. without `now` is fine.
        assert!(rust_findings("crates/core/src/a.rs", "type T = Instant;").is_empty());
    }

    #[test]
    fn l004_scoped_to_deterministic_crates() {
        let source = "use std::collections::HashMap;";
        assert_eq!(
            rules_of(&rust_findings("crates/core/src/a.rs", source)),
            vec!["L004"]
        );
        assert_eq!(
            rules_of(&rust_findings("crates/soc/tests/t.rs", source)),
            vec!["L004"]
        );
        assert!(rust_findings("crates/netlist/src/a.rs", source).is_empty());
        assert!(rust_findings("crates/obs/src/a.rs", source).is_empty());
    }

    #[test]
    fn l005_requires_nearby_safety_comment() {
        let bad = "fn f() { unsafe { work() } }";
        let (findings, unsafes) = check_rust("crates/x/src/a.rs", &tokenize(bad));
        assert_eq!(rules_of(&findings), vec!["L005"]);
        assert_eq!(unsafes, vec![1]);

        let good = "// SAFETY: the buffer outlives the call\nfn f() { unsafe { work() } }";
        let (findings, unsafes) = check_rust("crates/x/src/a.rs", &tokenize(good));
        assert!(findings.is_empty());
        assert_eq!(unsafes, vec![2]);

        // A SAFETY comment more than 3 lines up does not count.
        let far = "// SAFETY: stale\n\n\n\n\nunsafe { work() }";
        let (findings, _) = check_rust("crates/x/src/a.rs", &tokenize(far));
        assert_eq!(rules_of(&findings), vec!["L005"]);
    }

    #[test]
    fn l006_scoped_to_stdout_owners() {
        let source = "println!(\"hi\"); print!(\"x\"); eprintln!(\"ok\");";
        let f = rust_findings("crates/obs/src/a.rs", source);
        assert_eq!(rules_of(&f), vec!["L006", "L006"]);
        assert!(rust_findings("crates/cli/src/main.rs", source).is_empty());
        assert!(rust_findings("crates/bench/src/bin/table1.rs", source).is_empty());
        // The bench *library* is not exempt.
        assert_eq!(
            rules_of(&rust_findings(
                "crates/bench/src/suite.rs",
                "println!(\"t\");"
            )),
            vec!["L006"]
        );
    }

    #[test]
    fn l007_checks_attributes() {
        let bad = "#[derive(Clone, Debug)]\npub enum ParseError { Bad }";
        assert_eq!(
            rules_of(&rust_findings("crates/x/src/a.rs", bad)),
            vec!["L007"]
        );

        let good = "#[derive(Clone)]\n#[non_exhaustive]\npub enum ParseError { Bad }";
        assert!(rust_findings("crates/x/src/a.rs", good).is_empty());

        // Attribute order does not matter.
        let good2 = "#[non_exhaustive]\n#[derive(Clone)]\npub enum IoError { Bad }";
        assert!(rust_findings("crates/x/src/a.rs", good2).is_empty());

        // Non-error enums and private enums are out of scope.
        assert!(rust_findings("crates/x/src/a.rs", "pub enum Mode { A }").is_empty());
        assert!(rust_findings("crates/x/src/a.rs", "enum InnerError { A }").is_empty());
    }

    #[test]
    fn l008_flags_free_calls_only() {
        let free = "let d = diagnose(&plan, &outcome);";
        assert_eq!(
            rules_of(&rust_findings("crates/bench/src/bin/x.rs", free)),
            vec!["L008"]
        );
        assert!(rust_findings("crates/core/src/experiment.rs", free).is_empty());
        assert!(rust_findings("crates/x/src/a.rs", "let d = tester.diagnose(&f);").is_empty());
        assert!(rust_findings("crates/x/src/a.rs", "pub fn diagnose(x: u8) {}").is_empty());
        let qualified = "let d = scan_diagnosis::diagnose(&plan, &outcome);";
        assert_eq!(
            rules_of(&rust_findings("crates/x/src/a.rs", qualified)),
            vec!["L008"]
        );
    }

    /// Builds a workspace graph from (file, source) pairs and runs the
    /// semantic rules under `config`.
    fn semantic(files: &[(&str, &str)], config: &Config) -> Vec<Finding> {
        let models: Vec<crate::model::FileModel> = files
            .iter()
            .map(|(file, src)| {
                crate::model::build_file_model(
                    file,
                    &crate::graph::fallback_crate_ident(file),
                    &tokenize(src),
                )
            })
            .collect();
        check_semantic(&Graph::build(&models), config)
    }

    fn semantic_default(files: &[(&str, &str)]) -> Vec<Finding> {
        semantic(files, &Config::default())
    }

    #[test]
    fn l009_flags_blocking_io_under_live_span() {
        // Blocking write while the span guard is live.
        let bad = "fn f() { let _s = scan_obs::span!(\"hot\"); \
                   std::fs::write(path, data).ok(); }";
        let f = semantic_default(&[("crates/core/src/a.rs", bad)]);
        assert_eq!(rules_of(&f), vec!["L009"]);

        // Same I/O after the span's block has closed is fine.
        let good = "fn f() { { let _s = scan_obs::span!(\"hot\"); work(); } \
                    std::fs::write(path, data).ok(); }";
        assert!(semantic_default(&[("crates/core/src/a.rs", good)]).is_empty());

        // span::enter and socket writes count too.
        let socket = "fn f() { let _s = span::enter(\"scrape\"); \
                      stream.write_all(b\"x\").ok(); }";
        assert_eq!(
            rules_of(&semantic_default(&[("crates/obs/src/a.rs", socket)])),
            vec!["L009"]
        );
        let tcp = "fn f() { let _s = scan_obs::span!(\"net\"); \
                   let c = TcpStream::connect(addr); }";
        assert_eq!(
            rules_of(&semantic_default(&[("crates/sim/src/a.rs", tcp)])),
            vec!["L009"]
        );

        // I/O with no span live, and spans with no I/O, are fine.
        assert!(semantic_default(&[(
            "crates/core/src/a.rs",
            "fn f() { std::fs::write(path, data).ok(); }"
        )])
        .is_empty());
        assert!(semantic_default(&[(
            "crates/core/src/a.rs",
            "fn f() { let _s = scan_obs::span!(\"hot\"); work(); }"
        )])
        .is_empty());

        // Out-of-scope crates (the CLI writes files under spans by
        // design) are not flagged.
        assert!(semantic_default(&[("crates/cli/src/commands.rs", bad)]).is_empty());
    }

    #[test]
    fn l009_propagates_through_the_call_graph() {
        // Factoring the write into a helper does not launder the wait
        // out of the span — including across files and crates, through
        // more than one hop.
        let caller = "fn f(c: &mut S) { let _s = scan_obs::span!(\"scrape\"); respond(c); }";
        let hop = "pub fn respond(c: &mut S) { deep(c); }";
        let io = "pub fn deep(c: &mut S) { c.write_all(b\"x\").ok(); }";
        let f = semantic_default(&[
            ("crates/obs/src/a.rs", caller),
            ("crates/obs/src/b.rs", hop),
            ("crates/netlist/src/c.rs", io),
        ]);
        assert_eq!(rules_of(&f), vec!["L009"]);
        let chain = &f[0].chain;
        assert!(chain.len() >= 3, "chain: {chain:?}");
        assert_eq!(chain[0].file, "crates/obs/src/a.rs");
        assert_eq!(chain.last().unwrap().file, "crates/netlist/src/c.rs");

        // The same helper called with no span live is fine, and the
        // helper's own definition is never flagged.
        let clean_call = "fn f(c: &mut S) { respond(c); } \
                          fn respond(c: &mut S) { c.write_all(b\"x\").ok(); }";
        assert!(semantic_default(&[("crates/obs/src/a.rs", clean_call)]).is_empty());

        // A dirty signature (takes a TcpStream) marks the helper too,
        // even when declared after its call site.
        let sig_dirty = "fn f() { let _s = scan_obs::span!(\"net\"); probe(c); } \
                         fn probe(c: TcpStream) { c.peer_addr().ok(); }";
        assert_eq!(
            rules_of(&semantic_default(&[("crates/obs/src/a.rs", sig_dirty)])),
            vec!["L009"]
        );

        // `#[cfg(test)]` spans measuring test I/O are exempt.
        let test_span = "#[cfg(test)]\nmod tests {\n fn t() { \
                         let _s = scan_obs::span!(\"io\"); \
                         std::fs::write(p, d).ok(); } }";
        assert!(semantic_default(&[("crates/obs/src/a.rs", test_span)]).is_empty());
    }

    #[test]
    fn l012_panic_reachability_with_witness_chain() {
        let config =
            Config::parse("[roots]\npanic_freedom = [\"crates/daemon/src/server.rs::handle\"]\n")
                .unwrap();
        let server = "pub fn handle(req: Req) -> Resp { plan_build(req) }";
        let core = "pub fn plan_build(req: Req) -> Resp { req.parts.first().unwrap() }";
        let f = semantic(
            &[
                ("crates/daemon/src/server.rs", server),
                ("crates/core/src/plan.rs", core),
            ],
            &config,
        );
        assert_eq!(rules_of(&f), vec!["L012"]);
        assert_eq!(f[0].file, "crates/core/src/plan.rs");
        let chain = &f[0].chain;
        assert_eq!(chain.len(), 2, "chain: {chain:?}");
        assert_eq!(chain[0].file, "crates/daemon/src/server.rs");
        assert_eq!(chain[1].file, "crates/core/src/plan.rs");

        // Without roots the rule is inert.
        let f = semantic_default(&[
            ("crates/daemon/src/server.rs", server),
            ("crates/core/src/plan.rs", core),
        ]);
        assert!(f.iter().all(|x| x.rule != "L012"));

        // Panic sites only reachable through #[cfg(test)] code are fine.
        let masked = "pub fn handle(req: Req) -> Resp { ok(req) }\n\
                      pub fn ok(r: Req) -> Resp { Resp::empty() }\n\
                      #[cfg(test)]\nmod tests { fn t() { boom(); } }\n\
                      pub fn boom() { panic!(\"only tests reach me… via tests\") }";
        let f = semantic(&[("crates/daemon/src/server.rs", masked)], &config);
        assert!(f.iter().all(|x| x.rule != "L012"), "{f:?}");
    }

    #[test]
    fn l013_inconsistent_lock_order_reports_both_witnesses() {
        let a = "pub fn queue_then_cache(s: &S) {\n\
                 let q = s.queue.lock();\n\
                 cache_touch(s);\n\
                 }";
        let b = "pub fn cache_touch(s: &S) { let c = s.cache.lock(); }\n\
                 pub fn cache_then_queue(s: &S) {\n\
                 let c = s.cache.lock();\n\
                 let q = s.queue.lock();\n\
                 }";
        let f = semantic_default(&[("crates/daemon/src/a.rs", a), ("crates/daemon/src/b.rs", b)]);
        let l013: Vec<&Finding> = f.iter().filter(|x| x.rule == "L013").collect();
        assert_eq!(l013.len(), 2, "{f:?}");
        // One witness spans two files (queue held in a.rs, cache
        // acquired in b.rs), the other is the direct pair in b.rs.
        assert!(l013.iter().any(
            |x| x.chain.iter().any(|h| h.file == "crates/daemon/src/a.rs")
                && x.chain.iter().any(|h| h.file == "crates/daemon/src/b.rs")
        ));

        // A consistent global order produces no findings.
        let consistent = "pub fn f(s: &S) { let q = s.queue.lock(); let c = s.cache.lock(); }\n\
                          pub fn g(s: &S) { let q = s.queue.lock(); let c = s.cache.lock(); }";
        assert!(semantic_default(&[("crates/daemon/src/a.rs", consistent)]).is_empty());
    }

    #[test]
    fn l014_taint_reaches_through_other_crates() {
        let core = "pub fn summarize(x: &X) -> Y { helper_stats(x) }";
        let helper = "pub fn helper_stats(x: &X) -> Y { \
                      let m: HashMap<u32, u32> = HashMap::new(); m.into() }";
        let f = semantic_default(&[
            ("crates/core/src/diag.rs", core),
            ("crates/netlist/src/stats.rs", helper),
        ]);
        let l014: Vec<&Finding> = f.iter().filter(|x| x.rule == "L014").collect();
        assert_eq!(l014.len(), 2, "two HashMap tokens: {f:?}");
        assert_eq!(l014[0].file, "crates/netlist/src/stats.rs");
        assert_eq!(l014[0].chain[0].file, "crates/core/src/diag.rs");

        // The same helper not reachable from core is fine.
        assert!(semantic_default(&[("crates/netlist/src/stats.rs", helper)]).is_empty());

        // Wall-clock reads in the crates licensed for them are fine
        // even when core reaches them; ambient RNG never is.
        let core2 = "pub fn run(x: &X) { scan_bench::suite::measure(x); }";
        let bench = "pub fn measure(x: &X) { let t = Instant::now(); }";
        let f = semantic_default(&[
            ("crates/core/src/diag.rs", core2),
            ("crates/bench/src/suite.rs", bench),
        ]);
        assert!(f.iter().all(|x| x.rule != "L014"), "{f:?}");
        let bench_rng = "pub fn measure(x: &X) { let r = thread_rng(); }";
        let f = semantic_default(&[
            ("crates/core/src/diag.rs", core2),
            ("crates/bench/src/suite.rs", bench_rng),
        ]);
        assert!(f.iter().any(|x| x.rule == "L014"), "{f:?}");
    }

    #[test]
    fn l010_flags_unwrap_in_obs_hot_paths_only() {
        let bad = "fn f() { let g = lock().unwrap(); g.expect(\"state\"); }";
        assert_eq!(
            rules_of(&rust_findings("crates/obs/src/slo.rs", bad)),
            vec!["L010", "L010"]
        );
        for file in [
            "crates/obs/src/serve.rs",
            "crates/obs/src/recorder.rs",
            "crates/obs/src/timeseries.rs",
        ] {
            assert_eq!(
                rules_of(&rust_findings(file, "fn f() { x.unwrap(); }")),
                vec!["L010"],
                "{file}"
            );
        }
        // Other obs modules — and everything else — are out of scope.
        assert!(rust_findings("crates/obs/src/export.rs", bad).is_empty());
        assert!(rust_findings("crates/core/src/a.rs", bad).is_empty());

        // Non-panicking relatives do not fire, nor do definitions.
        let clean = "fn f() { let g = lock().unwrap_or_else(PoisonError::into_inner); \
                     let v = x.unwrap_or(0); } fn unwrap() {}";
        assert!(rust_findings("crates/obs/src/slo.rs", clean).is_empty());

        // `#[cfg(test)]` items are exempt; code after them is not.
        let mixed = "fn f() { x.ok(); }\n\
                     #[cfg(test)]\nmod tests { fn t() { x.unwrap(); y.expect(\"e\"); } }\n\
                     fn g() { z.unwrap(); }";
        assert_eq!(
            rules_of(&rust_findings("crates/obs/src/recorder.rs", mixed)),
            vec!["L010"]
        );
    }

    #[test]
    fn l011_scoped_to_daemon_queue_paths() {
        let deque = "use std::collections::VecDeque; let q: VecDeque<Job> = VecDeque::new();";
        assert_eq!(
            rules_of(&rust_findings("crates/daemon/src/server.rs", deque)),
            vec!["L011", "L011", "L011"]
        );
        // Other crates may buffer freely.
        assert!(rust_findings("crates/obs/src/export.rs", deque).is_empty());

        let unbounded = "let (tx, rx) = std::sync::mpsc::channel();";
        assert_eq!(
            rules_of(&rust_findings("crates/daemon/src/queue.rs", unbounded)),
            vec!["L011"]
        );
        // Bounded channels and method calls named `channel` are fine.
        assert!(rust_findings(
            "crates/daemon/src/queue.rs",
            "let (tx, rx) = std::sync::mpsc::sync_channel(64);"
        )
        .is_empty());
        assert!(rust_findings("crates/daemon/src/a.rs", "let c = soc.channel(3);").is_empty());
        assert!(rust_findings("crates/daemon/src/a.rs", "fn channel(x: u8) {}").is_empty());
    }

    #[test]
    fn daemon_paths_may_use_wall_clocks_and_loadgen_stdout() {
        assert!(rust_findings("crates/daemon/src/server.rs", "let t = Instant::now();").is_empty());
        assert!(rust_findings("crates/daemon/src/bin/loadgen.rs", "println!(\"x\");").is_empty());
        // The daemon library still must not print to stdout.
        assert_eq!(
            rules_of(&rust_findings(
                "crates/daemon/src/server.rs",
                "println!(\"x\");"
            )),
            vec!["L006"]
        );
    }

    #[test]
    fn words_in_strings_and_comments_do_not_fire() {
        let source = r####"
// println!("in comment") and unsafe and HashMap
let s = "rand::thread_rng() HashMap unsafe println!";
let r = r#"Instant::now() diagnose(x)"#;
"####;
        assert!(rust_findings("crates/core/src/a.rs", source).is_empty());
    }

    #[test]
    fn inline_allow_parsing() {
        let tokens = tokenize(
            "// lint:allow(L004): membership-only set\nuse std::collections::HashSet;\n\
             // lint:allow(L006)\nprintln!(\"x\");",
        );
        let (allows, malformed) = inline_allows("f.rs", &tokens);
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "L004");
        assert_eq!(allows[0].reason, "membership-only set");
        assert_eq!(allows[0].line, 1);
        assert_eq!(malformed.len(), 1);
        assert_eq!(malformed[0].rule, "L000");
    }

    #[test]
    fn l001_manifest_rules() {
        let clean = r#"
[package]
name = "scan-x"

[dependencies]
scan-obs.workspace = true
scan-rng = { path = "../rng", version = "0.1.0" }

[dev-dependencies]
scan-bench = { workspace = true }
"#;
        assert!(check_manifest("crates/x/Cargo.toml", clean).is_empty());

        let dirty = r#"
[dependencies]
rand = "0.8"
serde = { version = "1", features = ["derive"] }

[dependencies.criterion]
version = "0.5"
"#;
        let f = check_manifest("crates/x/Cargo.toml", dirty);
        assert_eq!(rules_of(&f), vec!["L001", "L001", "L001"]);
        assert!(f[0].message.contains("rand"));
        assert!(f[2].message.contains("criterion"));

        let table_ok = "[dependencies.scan-obs]\npath = \"../obs\"\n";
        assert!(check_manifest("crates/x/Cargo.toml", table_ok).is_empty());
    }
}
