//! Workspace call graph assembled from per-file [`crate::model`] output.
//!
//! Resolution is name-based and deliberately conservative in the
//! *over-approximating* direction for anything that could hide a panic or
//! a lock, and in the *under-approximating* direction for paths that are
//! clearly external (`std::fs::write` never resolves to a workspace
//! function). The exact rules, in order:
//!
//! 1. `crate::` is rewritten to the caller's crate ident; `Self::` to the
//!    enclosing `impl`/`trait` type; leading `self`/`super` segments are
//!    dropped (module-relative approximation).
//! 2. Method calls (`x.f()`) link to every workspace method named `f`
//!    whose owner type or implemented trait is *named somewhere in the
//!    caller's file* — receiver types are not inferred, but calling a
//!    method on a value requires the type (or a trait it implements) to
//!    be lexically in scope, so this prunes name-only aliases like
//!    `Vec::pop` vs `BoundedQueue::pop`.
//! 3. Qualified calls (`a::b::f()`) link to workspace functions whose
//!    qualified path ends with the written segments, expanding the first
//!    segment through the caller's `use` imports; if nothing matches the
//!    path is treated as external.
//! 4. Bare calls (`f()`) prefer same-file functions, then `use`-imported
//!    matches, then fall back to every workspace function named `f`.

use crate::model::{CallSite, Fact, FactKind, FileModel, LockPair};
use std::collections::BTreeMap;

/// One function node in the workspace graph.
#[derive(Clone, Debug)]
pub struct FnNode {
    pub file: String,
    pub crate_ident: String,
    pub name: String,
    pub owner: Option<String>,
    /// Trait name for `impl Trait for Type` methods.
    pub trait_owner: Option<String>,
    /// Fully qualified display path, e.g.
    /// `scan_daemon::server::Server::handle`.
    pub qual: String,
    pub line: u32,
    pub col: u32,
    pub is_test: bool,
    pub facts: Vec<Fact>,
    pub lock_pairs: Vec<LockPair>,
    pub calls: Vec<CallSite>,
}

/// A resolved caller→callee edge, annotated with the call site.
#[derive(Clone, Debug)]
pub struct Edge {
    pub to: usize,
    pub line: u32,
    pub col: u32,
    pub under_span: bool,
    /// Call sits inside a `catch_unwind(...)` argument list: panics in
    /// the callee do not unwind the caller (L012 stops here).
    pub fenced: bool,
    pub held_locks: Vec<crate::model::HeldLock>,
}

/// The assembled workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    pub nodes: Vec<FnNode>,
    pub edges: Vec<Vec<Edge>>,
    /// Call sites whose path matched no workspace function (external).
    pub unresolved: usize,
    pub files: usize,
}

impl Graph {
    /// Build the graph from file models. Models must already carry their
    /// crate idents.
    #[must_use]
    pub fn build(models: &[FileModel]) -> Graph {
        let mut nodes: Vec<FnNode> = Vec::new();
        let mut file_of_node: Vec<usize> = Vec::new();
        for (mi, m) in models.iter().enumerate() {
            for f in &m.functions {
                let mut qual_parts: Vec<String> = vec![m.crate_ident.clone()];
                qual_parts.extend(file_modules(&m.file));
                qual_parts.extend(f.modules.iter().cloned());
                if let Some(o) = &f.owner {
                    qual_parts.push(o.clone());
                }
                qual_parts.push(f.name.clone());
                nodes.push(FnNode {
                    file: m.file.clone(),
                    crate_ident: m.crate_ident.clone(),
                    name: f.name.clone(),
                    owner: f.owner.clone(),
                    trait_owner: f.trait_owner.clone(),
                    qual: qual_parts.join("::"),
                    line: f.line,
                    col: f.col,
                    is_test: f.is_test,
                    facts: f.facts.clone(),
                    lock_pairs: f.lock_pairs.clone(),
                    calls: f.calls.clone(),
                });
                file_of_node.push(mi);
            }
        }

        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            by_name.entry(n.name.as_str()).or_default().push(i);
        }
        // Qualified suffix keys per node: crate::mods::[Owner::]name.
        let keys: Vec<Vec<String>> = nodes
            .iter()
            .map(|n| n.qual.split("::").map(str::to_string).collect())
            .collect();

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        let mut unresolved = 0usize;
        for from in 0..nodes.len() {
            let model = &models[file_of_node[from]];
            let mut seen: BTreeMap<usize, usize> = BTreeMap::new();
            let calls = nodes[from].calls.clone();
            for call in &calls {
                let targets = resolve(call, from, &nodes, model, &by_name, &keys);
                if targets.is_empty() {
                    unresolved += 1;
                    continue;
                }
                for to in targets {
                    if to == from {
                        continue;
                    }
                    if let Some(&at) = seen.get(&to) {
                        // An unfenced duplicate call strengthens the edge.
                        if !call.fenced {
                            edges[from][at].fenced = false;
                        }
                        continue;
                    }
                    seen.insert(to, edges[from].len());
                    edges[from].push(Edge {
                        to,
                        line: call.line,
                        col: call.col,
                        under_span: call.under_span,
                        fenced: call.fenced,
                        held_locks: call.held_locks.clone(),
                    });
                }
            }
        }

        Graph {
            nodes,
            edges,
            unresolved,
            files: models.len(),
        }
    }

    /// Plain adjacency (edge targets only) for [`crate::reach`].
    #[must_use]
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        self.edges
            .iter()
            .map(|es| es.iter().map(|e| e.to).collect())
            .collect()
    }

    /// Mask vector: true for `#[cfg(test)]`-ish nodes.
    #[must_use]
    pub fn test_mask(&self) -> Vec<bool> {
        self.nodes.iter().map(|n| n.is_test).collect()
    }

    /// Edge from `from` to `to`, if present.
    #[must_use]
    pub fn edge(&self, from: usize, to: usize) -> Option<&Edge> {
        self.edges[from].iter().find(|e| e.to == to)
    }

    /// Count facts of one kind across all nodes.
    #[must_use]
    pub fn fact_count(&self, kind: FactKind) -> usize {
        self.nodes
            .iter()
            .map(|n| n.facts.iter().filter(|f| f.kind == kind).count())
            .sum()
    }

    /// Render the graph + facts as NDJSON (`graph_fn` / `graph_edge`
    /// records plus a trailing `graph` summary), the shape `obs-check`
    /// validates.
    #[must_use]
    pub fn render_ndjson(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut edge_count = 0usize;
        for (i, n) in self.nodes.iter().enumerate() {
            let panics = n.facts.iter().filter(|f| f.kind == FactKind::Panic).count();
            let locks = n.facts.iter().filter(|f| f.kind == FactKind::Lock).count();
            let io = n.facts.iter().filter(|f| f.kind == FactKind::Io).count();
            let taints = n
                .facts
                .iter()
                .filter(|f| {
                    matches!(
                        f.kind,
                        FactKind::Clock | FactKind::Rng | FactKind::Unordered
                    )
                })
                .count();
            let _ = writeln!(
                out,
                "{{\"type\":\"graph_fn\",\"id\":{},\"fn\":{},\"file\":{},\"line\":{},\"test\":{},\"calls\":{},\"panics\":{},\"locks\":{},\"io\":{},\"taints\":{}}}",
                i,
                crate::findings::json_string(&n.qual),
                crate::findings::json_string(&n.file),
                n.line,
                n.is_test,
                self.edges[i].len(),
                panics,
                locks,
                io,
                taints,
            );
        }
        for (from, es) in self.edges.iter().enumerate() {
            for e in es {
                edge_count += 1;
                let _ = writeln!(
                    out,
                    "{{\"type\":\"graph_edge\",\"from\":{},\"to\":{},\"from_fn\":{},\"to_fn\":{},\"file\":{},\"line\":{}}}",
                    from,
                    e.to,
                    crate::findings::json_string(&self.nodes[from].qual),
                    crate::findings::json_string(&self.nodes[e.to].qual),
                    crate::findings::json_string(&self.nodes[from].file),
                    e.line,
                );
            }
        }
        let _ = writeln!(
            out,
            "{{\"type\":\"graph\",\"files\":{},\"functions\":{},\"edges\":{},\"unresolved\":{},\"panic_sites\":{},\"lock_sites\":{},\"taint_sites\":{}}}",
            self.files,
            self.nodes.len(),
            edge_count,
            self.unresolved,
            self.fact_count(FactKind::Panic),
            self.fact_count(FactKind::Lock),
            self.fact_count(FactKind::Clock)
                + self.fact_count(FactKind::Rng)
                + self.fact_count(FactKind::Unordered),
        );
        out
    }
}

/// Crate ident derived from the path alone, used when no manifest
/// provides the package name (fixture trees, in-memory tests). Follows
/// the workspace convention `crates/<dir>` → `scan_<dir>`; anything
/// outside `crates/` belongs to the umbrella package.
#[must_use]
pub fn fallback_crate_ident(file: &str) -> String {
    let mut comps = file.split('/');
    if comps.next() == Some("crates") {
        if let Some(dir) = comps.next() {
            return format!("scan_{}", dir.replace('-', "_"));
        }
    }
    "scan_bist_suite".to_string()
}

/// Module path contributed by a file's position in its crate:
/// `crates/daemon/src/server.rs` → `["server"]`, `src/bin/obs_check.rs` →
/// `["obs_check"]`, `lib.rs`/`main.rs`/`mod.rs` → their directory path.
fn file_modules(file: &str) -> Vec<String> {
    let mut comps: Vec<&str> = file.split('/').collect();
    // Drop the crate prefix (`crates/<name>`) and the `src` shelf.
    if comps.first() == Some(&"crates") && comps.len() >= 2 {
        comps.drain(0..2);
    }
    comps.retain(|c| *c != "src" && *c != "bin");
    let mut out: Vec<String> = Vec::new();
    for (i, c) in comps.iter().enumerate() {
        let last = i + 1 == comps.len();
        if last {
            let stem = c.strip_suffix(".rs").unwrap_or(c);
            if stem != "lib" && stem != "main" && stem != "mod" {
                out.push(stem.to_string());
            }
        } else {
            out.push((*c).to_string());
        }
    }
    out
}

fn resolve(
    call: &CallSite,
    from: usize,
    nodes: &[FnNode],
    model: &FileModel,
    by_name: &BTreeMap<&str, Vec<usize>>,
    keys: &[Vec<String>],
) -> Vec<usize> {
    let caller = &nodes[from];
    let name = match call.path.last() {
        Some(n) => n.as_str(),
        None => return Vec::new(),
    };
    let candidates: &[usize] = by_name.get(name).map_or(&[], Vec::as_slice);
    if candidates.is_empty() {
        return Vec::new();
    }

    if call.is_method {
        // Any workspace method with this name whose owner type (or
        // implemented trait) is lexically visible in the caller's file.
        // Receiver types are not inferred; the visibility filter is what
        // keeps `AtomicU8::load` from aliasing `SloConfig::load`.
        return candidates
            .iter()
            .copied()
            .filter(|&c| {
                let cand = &nodes[c];
                cand.owner
                    .as_deref()
                    .is_some_and(|o| model.type_idents.contains(o))
                    || cand
                        .trait_owner
                        .as_deref()
                        .is_some_and(|t| model.type_idents.contains(t))
            })
            .collect();
    }

    // Normalize the written path.
    let mut segs: Vec<String> = call.path.clone();
    if let Some(first) = segs.first_mut() {
        if first == "crate" {
            *first = caller.crate_ident.clone();
        } else if first == "Self" {
            match &caller.owner {
                Some(o) => *first = o.clone(),
                None => {
                    segs.remove(0);
                }
            }
        }
    }
    while segs.len() > 1 && (segs[0] == "self" || segs[0] == "super") {
        segs.remove(0);
    }

    if segs.len() > 1 {
        let matched: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| suffix_matches(&keys[c], &segs))
            .collect();
        if !matched.is_empty() {
            return matched;
        }
        // Expand the head through this file's `use` imports and retry.
        if let Some(u) = model.uses.iter().find(|u| u.alias == segs[0]) {
            let mut full = u.segments.clone();
            full.extend(segs[1..].iter().cloned());
            let matched: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| suffix_matches(&keys[c], &full))
                .collect();
            if !matched.is_empty() {
                return matched;
            }
        }
        // Qualified path matching nothing in the workspace: external.
        return Vec::new();
    }

    // Bare name: same-file definitions shadow everything else.
    let same_file: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| nodes[c].file == caller.file && nodes[c].owner.is_none())
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    // A `use`-imported free function resolves precisely.
    if let Some(u) = model.uses.iter().find(|u| u.alias == name) {
        let matched: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| suffix_matches(&keys[c], &u.segments))
            .collect();
        if !matched.is_empty() {
            return matched;
        }
    }
    // Otherwise link every same-name free function — over-approximate so
    // cross-file helpers inside one crate are never missed.
    candidates
        .iter()
        .copied()
        .filter(|&c| nodes[c].owner.is_none())
        .collect()
}

fn suffix_matches(key: &[String], segs: &[String]) -> bool {
    if segs.len() > key.len() {
        return false;
    }
    key[key.len() - segs.len()..]
        .iter()
        .zip(segs.iter())
        .all(|(a, b)| a == b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::model::build_file_model;

    fn build(files: &[(&str, &str, &str)]) -> Graph {
        let models: Vec<FileModel> = files
            .iter()
            .map(|(path, krate, src)| build_file_model(path, krate, &tokenize(src)))
            .collect();
        Graph::build(&models)
    }

    fn idx(g: &Graph, qual_suffix: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.qual.ends_with(qual_suffix))
            .unwrap_or_else(|| {
                panic!(
                    "no node ending {qual_suffix}; have {:?}",
                    g.nodes.iter().map(|n| &n.qual).collect::<Vec<_>>()
                )
            })
    }

    #[test]
    fn qualified_call_resolves_across_crates() {
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "scan_a",
                "pub fn entry() { scan_b::helpers::run(); }",
            ),
            (
                "crates/b/src/helpers.rs",
                "scan_b",
                "pub fn run() {}\npub fn unrelated() {}",
            ),
        ]);
        let from = idx(&g, "scan_a::entry");
        let to = idx(&g, "scan_b::helpers::run");
        assert_eq!(g.edges[from].len(), 1);
        assert_eq!(g.edges[from][0].to, to);
    }

    #[test]
    fn use_import_resolves_bare_and_module_calls() {
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "scan_a",
                "use scan_b::helpers::run;\nuse scan_b::helpers;\n\
                 pub fn one() { run(); }\npub fn two() { helpers::run(); }",
            ),
            ("crates/b/src/helpers.rs", "scan_b", "pub fn run() {}"),
        ]);
        let to = idx(&g, "scan_b::helpers::run");
        assert_eq!(g.edges[idx(&g, "scan_a::one")][0].to, to);
        assert_eq!(g.edges[idx(&g, "scan_a::two")][0].to, to);
    }

    #[test]
    fn same_file_definition_shadows_other_crates() {
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "scan_a",
                "pub fn entry() { helper(); }\nfn helper() {}",
            ),
            ("crates/b/src/lib.rs", "scan_b", "pub fn helper() {}"),
        ]);
        let from = idx(&g, "scan_a::entry");
        assert_eq!(g.edges[from].len(), 1);
        assert_eq!(g.edges[from][0].to, idx(&g, "scan_a::helper"));
    }

    #[test]
    fn bare_cross_file_call_falls_back_to_all_free_fns() {
        let g = build(&[
            (
                "crates/a/src/main.rs",
                "scan_a",
                "pub fn entry() { shared_helper(); }",
            ),
            (
                "crates/a/src/util.rs",
                "scan_a",
                "pub fn shared_helper() {}",
            ),
        ]);
        let from = idx(&g, "scan_a::entry");
        assert_eq!(g.edges[from].len(), 1);
        assert_eq!(g.edges[from][0].to, idx(&g, "scan_a::util::shared_helper"));
    }

    #[test]
    fn external_qualified_paths_do_not_alias_workspace_fns() {
        // `fs::write` must not link to a workspace fn named `write`.
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "scan_a",
                "use std::fs;\npub fn entry() { fs::write(\"p\", b\"x\"); }",
            ),
            ("crates/b/src/sink.rs", "scan_b", "pub fn write() {}"),
        ]);
        let from = idx(&g, "scan_a::entry");
        assert!(g.edges[from].is_empty(), "edges: {:?}", g.edges[from]);
    }

    #[test]
    fn method_calls_link_to_all_same_name_methods() {
        let g = build(&[
            (
                "crates/a/src/lib.rs",
                "scan_a",
                "pub fn entry(q: &Q) { q.push_job(1); }",
            ),
            (
                "crates/b/src/queue.rs",
                "scan_b",
                "pub struct Q;\nimpl Q { pub fn push_job(&self, x: u32) {} }\n\
                 pub fn push_job() {}",
            ),
        ]);
        let from = idx(&g, "scan_a::entry");
        assert_eq!(g.edges[from].len(), 1, "only the method, not the free fn");
        assert_eq!(g.edges[from][0].to, idx(&g, "Q::push_job"));
    }

    #[test]
    fn self_and_crate_paths_normalize() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "scan_a",
            "pub struct S;\nimpl S {\n\
             pub fn outer(&self) { Self::inner(); crate::free(); }\n\
             fn inner() {}\n}\npub fn free() {}",
        )]);
        let from = idx(&g, "S::outer");
        let tos: Vec<usize> = g.edges[from].iter().map(|e| e.to).collect();
        assert!(tos.contains(&idx(&g, "S::inner")));
        assert!(tos.contains(&idx(&g, "scan_a::free")));
    }

    #[test]
    fn ndjson_has_fn_edge_and_summary_records() {
        let g = build(&[(
            "crates/a/src/lib.rs",
            "scan_a",
            "pub fn entry() { helper(); }\nfn helper() { x.unwrap(); }",
        )]);
        let nd = g.render_ndjson();
        assert!(nd.contains("\"type\":\"graph_fn\""));
        assert!(nd.contains("\"type\":\"graph_edge\""));
        let last = nd.lines().last().unwrap();
        assert!(last.contains("\"type\":\"graph\""), "summary last: {last}");
        assert!(last.contains("\"functions\":2"));
        assert!(last.contains("\"panic_sites\":1"));
    }
}
