//! Syntax-aware item model built on top of the lexer.
//!
//! One pass over the token stream recovers just enough structure for the
//! semantic rules: module / `impl` / `trait` / `fn` nesting via
//! brace-matched scopes, `#[cfg(test)]` and `#[test]` attribute tracking,
//! `use` imports, and — inside every function body — call sites, panic
//! sites, lock acquisitions (with which locks are lexically held), span
//! liveness, blocking-I/O tokens and determinism-taint tokens. The output
//! feeds [`crate::graph`], which stitches per-file models into a workspace
//! call graph.
//!
//! This is deliberately not a full parser. Generics, macros-by-example and
//! trait dispatch are approximated conservatively; the limits are
//! documented in `docs/LINTS.md` under "lexical vs semantic rules".

use crate::lexer::{Token, TokenKind};
use std::collections::BTreeSet;

/// Everything extracted from one `.rs` file.
#[derive(Clone, Debug)]
pub struct FileModel {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// Crate identifier (underscored package name, e.g. `scan_daemon`).
    pub crate_ident: String,
    /// Flattened `use` imports: full path plus the name it binds locally.
    pub uses: Vec<UsePath>,
    /// Functions in source order, including trait-method declarations.
    pub functions: Vec<FnItem>,
    /// Every capitalized identifier in the file — the type and trait
    /// names lexically in scope. Method-call resolution only links a
    /// candidate whose owner type (or implemented trait) appears here:
    /// calling a method on a value requires naming its type *somewhere*
    /// in the file (import, signature, construction, impl header), so
    /// this filters out name-only aliases like `AtomicU8::load` vs
    /// `SloConfig::load` without type inference.
    pub type_idents: BTreeSet<String>,
}

/// One `use` import, e.g. `use scan_obs::export as ex;` gives
/// `segments = ["scan_obs", "export"]`, `alias = "ex"`.
#[derive(Clone, Debug)]
pub struct UsePath {
    pub segments: Vec<String>,
    pub alias: String,
}

/// A `fn` item (free function, inherent/trait `impl` method, or trait
/// method declaration).
#[derive(Clone, Debug)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl`/`trait` type name, when any.
    pub owner: Option<String>,
    /// For `impl Trait for Type` methods, the trait name — lets
    /// method-call resolution link trait-object dispatch sites that
    /// name only the trait, never the concrete type.
    pub trait_owner: Option<String>,
    /// Inline `mod` path inside the file (not the file's module path).
    pub modules: Vec<String>,
    pub line: u32,
    pub col: u32,
    /// True under `#[cfg(test)]` / `#[test]` or inside a `tests/` tree.
    pub is_test: bool,
    pub calls: Vec<CallSite>,
    pub facts: Vec<Fact>,
    /// Direct nested acquisitions: `second` taken while `first` was held.
    pub lock_pairs: Vec<LockPair>,
}

/// A resolved-later call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Path segments as written (`["scan_obs", "export", "write_file"]`,
    /// or just `["helper"]`); method calls carry the bare method name.
    pub path: Vec<String>,
    pub is_method: bool,
    pub line: u32,
    pub col: u32,
    /// True when a tracing span guard is lexically live at the call.
    pub under_span: bool,
    /// True when the call happens inside a `catch_unwind(...)` argument
    /// list — panics past this point do not unwind the caller, so
    /// panic-reachability (L012) stops here.
    pub fenced: bool,
    /// Lock guards lexically live at the call.
    pub held_locks: Vec<HeldLock>,
}

/// A lock acquisition that is (still) lexically live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeldLock {
    /// Receiver name the guard came from (`state` in `self.state.lock()`).
    pub name: String,
    pub line: u32,
}

/// What kind of per-function fact a site contributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FactKind {
    /// Can panic at runtime (`unwrap`, `panic!`, indexing, `/`, `%`, …).
    Panic,
    /// Mutex acquisition (`.lock()`).
    Lock,
    /// Blocking I/O token (`TcpStream`, `fs::write`, `.write_all`, …).
    Io,
    /// Wall-clock read (`Instant::now`, `SystemTime::now`).
    Clock,
    /// Ambient RNG (`thread_rng`, `from_entropy`, `rand::`).
    Rng,
    /// Unordered iteration source (`HashMap`, `HashSet`).
    Unordered,
}

/// One extracted fact with its site.
#[derive(Clone, Debug)]
pub struct Fact {
    pub kind: FactKind,
    /// Human-readable token, e.g. `.unwrap()`, `panic!`, `index`,
    /// `HashMap`, or the lock receiver name for [`FactKind::Lock`].
    pub what: String,
    pub line: u32,
    pub col: u32,
    pub under_span: bool,
    /// Fact found in the `fn` signature rather than the body (I/O only):
    /// taking a `TcpStream` taints the function even without a body call.
    pub in_sig: bool,
    /// True when the site sits inside a `catch_unwind(...)` argument
    /// list (see [`CallSite::fenced`]).
    pub fenced: bool,
}

/// Two locks held in a nested fashion inside a single function.
#[derive(Clone, Debug)]
pub struct LockPair {
    pub first: HeldLock,
    pub second: HeldLock,
}

/// How long a guard (span or lock) stays lexically live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Life {
    /// Live until the block at this depth closes (`let g = x.lock();`).
    Block(usize),
    /// Acquired in an `if`/`while`/`match` head: live only inside the
    /// block that follows (becomes `Block` when it opens).
    NextBlock,
    /// Statement temporary: dies at the next `;` at this depth.
    Stmt(usize),
}

#[derive(Clone, Debug)]
enum ScopeKind {
    Mod(String),
    /// `impl [Trait for] Type` — (type name, trait name).
    Impl(Option<String>, Option<String>),
    Trait(String),
    Fn(usize),
    Block,
}

#[derive(Clone, Debug)]
struct Scope {
    kind: ScopeKind,
    is_test: bool,
}

struct PendingFn {
    item: FnItem,
    /// Paren nesting inside the signature; body `{` only counts at 0.
    paren: usize,
}

/// Macro names whose invocation is a panic site. `debug_assert*` is
/// excluded: it compiles out of release builds, which is what ships.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Method names consumed as facts — no call edge is recorded for them,
/// otherwise `.lock()` would alias every workspace helper named `lock`.
const FACT_METHODS: &[&str] = &[
    "unwrap",
    "expect",
    "unwrap_err",
    "expect_err",
    "lock",
    "write_all",
];

/// Keywords and std constructors that never form call edges even when
/// followed by `(` (constructors also appear in pattern position).
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "fn", "loop", "move", "as", "in", "let", "else",
    "break", "continue", "unsafe", "pub", "use", "where", "impl", "dyn", "Some", "None", "Ok",
    "Err", "Box", "Vec",
];

/// Item keywords that consume a pending `#[...]` attribute.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "mod", "impl", "trait", "struct", "enum", "use", "static", "const", "type", "macro",
];

/// Build the model for one file. `crate_ident` comes from the manifest
/// map in `lib.rs` (fallback: derived from the path).
#[must_use]
pub fn build_file_model(file: &str, crate_ident: &str, tokens: &[Token]) -> FileModel {
    let sig: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment | TokenKind::Lifetime))
        .collect();
    let file_is_test = file.contains("/tests/") || file.starts_with("tests/");

    let mut model = FileModel {
        file: file.to_string(),
        crate_ident: crate_ident.to_string(),
        uses: Vec::new(),
        functions: Vec::new(),
        type_idents: BTreeSet::new(),
    };
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_test = false;
    let mut pending_scope: Option<ScopeKind> = None;
    let mut pending_fn: Option<PendingFn> = None;
    let mut spans: Vec<Life> = Vec::new();
    let mut locks: Vec<(HeldLock, Life)> = Vec::new();
    let mut stmt_first: Option<String> = None;
    // Paren depth plus the depths at which a `catch_unwind(` opened:
    // sites are "fenced" while inside such an argument list.
    let mut parens = 0usize;
    let mut fences: Vec<usize> = Vec::new();

    let mut i = 0usize;
    while i < sig.len() {
        let t = sig[i];

        if t.kind == TokenKind::Ident
            && t.text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
        {
            model.type_idents.insert(t.text.clone());
        }
        if t.is_ident("catch_unwind") && sig.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            fences.push(parens);
        } else if t.is_punct('(') {
            parens += 1;
        } else if t.is_punct(')') {
            parens = parens.saturating_sub(1);
            while fences.last().is_some_and(|&d| parens <= d) {
                fences.pop();
            }
        }

        // Attributes: classify for test-ness, then skip their contents so
        // `#[derive(Clone)]` never looks like a call to `derive`.
        if t.is_punct('#') {
            let open = if sig.get(i + 1).is_some_and(|n| n.is_punct('[')) {
                Some(i + 1)
            } else if sig.get(i + 1).is_some_and(|n| n.is_punct('!'))
                && sig.get(i + 2).is_some_and(|n| n.is_punct('['))
            {
                Some(i + 2)
            } else {
                None
            };
            if let Some(open) = open {
                let (is_test_attr, end) = scan_attribute(&sig, open);
                pending_test |= is_test_attr;
                i = end;
                continue;
            }
        }

        if t.kind == TokenKind::Punct {
            match t.text.chars().next().unwrap_or(' ') {
                '{' => {
                    let parent_test = scopes.last().map_or(file_is_test, |s| s.is_test);
                    let kind = if let Some(pf) = pending_fn.take() {
                        if pf.paren == 0 {
                            let idx = model.functions.len();
                            model.functions.push(pf.item);
                            ScopeKind::Fn(idx)
                        } else {
                            // `{` inside a signature (e.g. const generic
                            // default) — keep waiting for the real body.
                            pending_fn = Some(pf);
                            ScopeKind::Block
                        }
                    } else {
                        pending_scope.take().unwrap_or(ScopeKind::Block)
                    };
                    let is_test = match &kind {
                        ScopeKind::Fn(idx) => model.functions[*idx].is_test,
                        _ => parent_test || pending_test,
                    };
                    if !matches!(kind, ScopeKind::Block) {
                        pending_test = false;
                    }
                    scopes.push(Scope { kind, is_test });
                    let depth = scopes.len();
                    for s in &mut spans {
                        if *s == Life::NextBlock {
                            *s = Life::Block(depth);
                        }
                    }
                    for (_, l) in &mut locks {
                        if *l == Life::NextBlock {
                            *l = Life::Block(depth);
                        }
                    }
                    stmt_first = None;
                    i += 1;
                    continue;
                }
                '}' => {
                    scopes.pop();
                    let depth = scopes.len();
                    spans.retain(|l| !dies_at_close(*l, depth));
                    locks.retain(|(_, l)| !dies_at_close(*l, depth));
                    stmt_first = None;
                    i += 1;
                    continue;
                }
                ';' => {
                    let depth = scopes.len();
                    spans.retain(|l| *l != Life::Stmt(depth));
                    locks.retain(|(_, l)| *l != Life::Stmt(depth));
                    if let Some(pf) = pending_fn.take() {
                        if pf.paren == 0 {
                            // Bodiless trait-method declaration.
                            model.functions.push(pf.item);
                        } else {
                            pending_fn = Some(pf);
                        }
                    }
                    stmt_first = None;
                    i += 1;
                    continue;
                }
                _ => {}
            }
        }

        if stmt_first.is_none() {
            stmt_first = Some(if t.kind == TokenKind::Ident {
                t.text.clone()
            } else {
                String::new()
            });
        }

        // Inside a pending signature: track parens, harvest I/O facts.
        if let Some(pf) = pending_fn.as_mut() {
            if t.is_punct('(') {
                pf.paren += 1;
            } else if t.is_punct(')') {
                pf.paren = pf.paren.saturating_sub(1);
            } else if t.kind == TokenKind::Ident {
                if let Some(what) = io_token(&sig, i) {
                    pf.item.facts.push(Fact {
                        kind: FactKind::Io,
                        what,
                        line: t.line,
                        col: t.col,
                        under_span: false,
                        in_sig: true,
                        fenced: false,
                    });
                }
            }
            i += 1;
            continue;
        }

        if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "fn" if sig.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) => {
                    let name_tok = sig[i + 1];
                    let parent_test = scopes.last().map_or(file_is_test, |s| s.is_test);
                    let mut owner = None;
                    let mut trait_owner = None;
                    let mut modules = Vec::new();
                    for s in &scopes {
                        match &s.kind {
                            ScopeKind::Mod(m) => modules.push(m.clone()),
                            ScopeKind::Impl(o, tr) => {
                                owner.clone_from(o);
                                trait_owner.clone_from(tr);
                            }
                            ScopeKind::Trait(o) => {
                                owner = Some(o.clone());
                                trait_owner = Some(o.clone());
                            }
                            _ => {}
                        }
                    }
                    pending_fn = Some(PendingFn {
                        item: FnItem {
                            name: name_tok.text.clone(),
                            owner,
                            trait_owner,
                            modules,
                            line: name_tok.line,
                            col: name_tok.col,
                            is_test: parent_test || pending_test,
                            calls: Vec::new(),
                            facts: Vec::new(),
                            lock_pairs: Vec::new(),
                        },
                        paren: 0,
                    });
                    pending_test = false;
                    i += 2;
                    continue;
                }
                "mod" if sig.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) => {
                    pending_scope = Some(ScopeKind::Mod(sig[i + 1].text.clone()));
                    if sig[i + 1].is_ident("tests") {
                        // Belt and braces: `mod tests` without the cfg
                        // attribute still isn't production code.
                        pending_test |= true;
                    }
                    i += 2;
                    continue;
                }
                "impl" => {
                    let (owner, trait_name) = impl_names(&sig, i);
                    pending_scope = Some(ScopeKind::Impl(owner, trait_name));
                    pending_test = pending_test || scopes.last().is_some_and(|s| s.is_test);
                    i += 1;
                    continue;
                }
                "trait" if sig.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) => {
                    pending_scope = Some(ScopeKind::Trait(sig[i + 1].text.clone()));
                    i += 2;
                    continue;
                }
                "use" => {
                    let next = parse_use(&sig, i + 1, &mut model.uses);
                    pending_test = false;
                    i = next;
                    continue;
                }
                kw if ITEM_KEYWORDS.contains(&kw) => {
                    pending_test = false;
                }
                _ => {}
            }

            if let Some(fn_idx) = current_fn(&scopes) {
                record_body_ident(
                    &sig,
                    i,
                    &mut model.functions[fn_idx],
                    &mut spans,
                    &mut locks,
                    stmt_first.as_deref(),
                    scopes.len(),
                    !fences.is_empty(),
                );
            }
        } else if t.kind == TokenKind::Punct {
            if let Some(fn_idx) = current_fn(&scopes) {
                record_body_punct(
                    &sig,
                    i,
                    &mut model.functions[fn_idx],
                    !spans.is_empty(),
                    !fences.is_empty(),
                );
            }
        }

        i += 1;
    }
    model
}

fn dies_at_close(l: Life, depth_after_pop: usize) -> bool {
    match l {
        Life::Block(d) | Life::Stmt(d) => d > depth_after_pop,
        Life::NextBlock => false,
    }
}

fn current_fn(scopes: &[Scope]) -> Option<usize> {
    scopes.iter().rev().find_map(|s| match s.kind {
        ScopeKind::Fn(idx) => Some(idx),
        _ => None,
    })
}

/// Scan `#[ ... ]` starting at the `[`; return (is-test-attr, index past
/// `]`). Test attrs: `#[test]`, `#[cfg(test)]` and friends — any `test`
/// ident without a `not` (so `#[cfg(not(test))]` stays production).
fn scan_attribute(sig: &[&Token], open: usize) -> (bool, usize) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut has_not = false;
    let mut j = open;
    while j < sig.len() {
        let t = sig[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (has_test && !has_not, j + 1);
            }
        } else if t.kind == TokenKind::Ident {
            has_test |= t.is_ident("test");
            has_not |= t.is_ident("not");
        }
        j += 1;
    }
    (false, j)
}

/// `impl Trait for Type` → `(Type, Some(Trait))`; `impl Type` →
/// `(Type, None)`. Scans the header up to the opening `{`, skipping
/// generic parameter lists.
fn impl_names(sig: &[&Token], impl_idx: usize) -> (Option<String>, Option<String>) {
    let mut names: Vec<String> = Vec::new();
    let mut trait_name = None;
    let mut angle = 0usize;
    let mut j = impl_idx + 1;
    while j < sig.len() {
        let t = sig[j];
        if t.is_punct('{') || t.is_punct(';') {
            break;
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            // `->` in the header can't happen; plain `>` closes generics.
            angle = angle.saturating_sub(1);
        } else if angle == 0 && t.kind == TokenKind::Ident {
            if t.is_ident("for") {
                trait_name = names.pop();
                names.clear();
            } else if !t.is_ident("where") && !t.is_ident("dyn") && !t.is_ident("mut") {
                names.push(t.text.clone());
            } else if t.is_ident("where") {
                break;
            }
        }
        j += 1;
    }
    (names.into_iter().next_back(), trait_name)
}

/// Parse one `use` tree starting just past the `use` keyword; returns the
/// index past the terminating `;`.
fn parse_use(sig: &[&Token], start: usize, out: &mut Vec<UsePath>) -> usize {
    let mut j = parse_use_tree(sig, start, &[], out);
    // Swallow up to the `;` if the tree parse stopped early.
    while j < sig.len() && !sig[j].is_punct(';') {
        j += 1;
    }
    j + 1
}

fn parse_use_tree(
    sig: &[&Token],
    mut j: usize,
    prefix: &[String],
    out: &mut Vec<UsePath>,
) -> usize {
    let mut segs: Vec<String> = prefix.to_vec();
    while j < sig.len() {
        let t = sig[j];
        if t.kind == TokenKind::Ident {
            if t.is_ident("as") {
                if let Some(alias) = sig.get(j + 1) {
                    out.push(UsePath {
                        segments: segs.clone(),
                        alias: alias.text.clone(),
                    });
                    return j + 2;
                }
                return j + 1;
            }
            segs.push(t.text.clone());
            j += 1;
        } else if t.is_punct(':') {
            j += 1;
        } else if t.is_punct('{') {
            j += 1;
            loop {
                j = parse_use_tree(sig, j, &segs, out);
                if sig.get(j).is_some_and(|t| t.is_punct(',')) {
                    j += 1;
                } else {
                    break;
                }
            }
            if sig.get(j).is_some_and(|t| t.is_punct('}')) {
                j += 1;
            }
            return j;
        } else if t.is_punct('*') {
            out.push(UsePath {
                segments: segs.clone(),
                alias: "*".to_string(),
            });
            return j + 1;
        } else {
            break; // `,` / `}` / `;`
        }
    }
    if segs.len() > prefix.len() {
        let alias = segs.last().cloned().unwrap_or_default();
        out.push(UsePath {
            segments: segs,
            alias,
        });
    }
    j
}

/// Handle an identifier token inside a function body: macro panic sites,
/// span guards, lock acquisitions, taint tokens, I/O tokens, call sites.
#[allow(clippy::too_many_arguments)]
fn record_body_ident(
    sig: &[&Token],
    i: usize,
    item: &mut FnItem,
    spans: &mut Vec<Life>,
    locks: &mut Vec<(HeldLock, Life)>,
    stmt_first: Option<&str>,
    depth: usize,
    fenced: bool,
) {
    let t = sig[i];
    let under_span = !spans.is_empty();
    let next_bang = sig.get(i + 1).is_some_and(|n| n.is_punct('!'));
    let prev_dot = i > 0 && sig[i - 1].is_punct('.');

    if next_bang {
        if PANIC_MACROS.contains(&t.text.as_str()) {
            push_fact(
                item,
                FactKind::Panic,
                format!("{}!", t.text),
                t,
                under_span,
                fenced,
            );
        } else if t.is_ident("span") && !prev_dot {
            // `span!(...)` — guard bound with `let`-like scope: the macro
            // expands to a RAII guard live until the enclosing block ends.
            spans.push(Life::Block(depth));
        }
        return; // macro names never become call edges
    }

    let next_paren = sig.get(i + 1).is_some_and(|n| n.is_punct('('));

    // `span::enter(...)` / `span::enter_fmt(...)` guards.
    if next_paren
        && (t.is_ident("enter") || t.is_ident("enter_fmt"))
        && i >= 2
        && sig[i - 1].is_punct(':')
        && sig[i - 2].is_punct(':')
        && i >= 3
        && sig[i - 3].is_ident("span")
    {
        spans.push(Life::Block(depth));
        return;
    }

    if prev_dot && next_paren {
        match t.text.as_str() {
            "unwrap" | "expect" | "unwrap_err" | "expect_err" => {
                // `self.expect(..)` is a user-defined method (a receiver
                // of type `Option`/`Result` is never literally `self` in
                // this workspace), e.g. the JSON parser's
                // `fn expect(&mut self, b: u8) -> Result<..>`.
                if !(i >= 2 && sig[i - 2].is_ident("self")) {
                    push_fact(
                        item,
                        FactKind::Panic,
                        format!(".{}()", t.text),
                        t,
                        under_span,
                        fenced,
                    );
                }
                return;
            }
            "lock" => {
                let name = lock_target_name(sig, i);
                let held = HeldLock {
                    name: name.clone(),
                    line: t.line,
                };
                for (prior, life) in locks.iter() {
                    if !matches!(life, Life::NextBlock) && prior.name != held.name {
                        item.lock_pairs.push(LockPair {
                            first: prior.clone(),
                            second: held.clone(),
                        });
                    }
                }
                push_fact(item, FactKind::Lock, name, t, under_span, fenced);
                let life = match stmt_first {
                    Some("let") => Life::Block(depth),
                    Some("if" | "while" | "match" | "for") => Life::NextBlock,
                    _ => Life::Stmt(depth),
                };
                locks.push((held, life));
                return;
            }
            _ => {}
        }
    }

    // Determinism-taint tokens (mirrors L002/L003/L004 lexical matchers).
    let next_colons = sig.get(i + 1).is_some_and(|n| n.is_punct(':'))
        && sig.get(i + 2).is_some_and(|n| n.is_punct(':'));
    if (t.is_ident("Instant") || t.is_ident("SystemTime"))
        && next_colons
        && sig.get(i + 3).is_some_and(|n| n.is_ident("now"))
    {
        push_fact(
            item,
            FactKind::Clock,
            format!("{}::now", t.text),
            t,
            under_span,
            fenced,
        );
    } else if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
        push_fact(item, FactKind::Rng, t.text.clone(), t, under_span, fenced);
    } else if t.is_ident("rand") && next_colons {
        push_fact(
            item,
            FactKind::Rng,
            "rand::".to_string(),
            t,
            under_span,
            fenced,
        );
    } else if t.is_ident("HashMap") || t.is_ident("HashSet") {
        push_fact(
            item,
            FactKind::Unordered,
            t.text.clone(),
            t,
            under_span,
            fenced,
        );
    }

    if let Some(what) = io_token(sig, i) {
        push_fact(item, FactKind::Io, what, t, under_span, fenced);
    }

    // Call sites.
    if next_paren && !NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
        if prev_dot && FACT_METHODS.contains(&t.text.as_str()) {
            return;
        }
        let (path, is_method) = call_path(sig, i);
        if path.is_empty() {
            return;
        }
        item.calls.push(CallSite {
            path,
            is_method,
            line: t.line,
            col: t.col,
            under_span,
            fenced,
            held_locks: locks
                .iter()
                .filter(|(_, l)| !matches!(l, Life::NextBlock))
                .map(|(h, _)| h.clone())
                .collect(),
        });
    }
}

/// Handle a punctuation token inside a function body: indexing `[`,
/// division `/` and remainder `%` panic sites.
fn record_body_punct(sig: &[&Token], i: usize, item: &mut FnItem, under_span: bool, fenced: bool) {
    let t = sig[i];
    let prev_is_value = i > 0
        && (sig[i - 1].kind == TokenKind::Ident
            || sig[i - 1].kind == TokenKind::Literal
            || sig[i - 1].is_punct(')')
            || sig[i - 1].is_punct(']'));
    if t.is_punct('[') {
        // Expression-position `[` = indexing; attr `[` is skipped earlier
        // and `vec![` has a `!` before it, so `prev_is_value` suffices.
        // Literals can't be indexed, so require ident/`)`/`]`.
        let indexable = i > 0
            && (sig[i - 1].kind == TokenKind::Ident
                || sig[i - 1].is_punct(')')
                || sig[i - 1].is_punct(']'));
        // `s[1]` — a bare integer-literal index is fixed-size array
        // state access, bounds-checked at compile time; don't flag it.
        let literal_index = sig.get(i + 1).is_some_and(|n| {
            n.kind == TokenKind::Literal && n.text.starts_with(|c: char| c.is_ascii_digit())
        }) && sig.get(i + 2).is_some_and(|n| n.is_punct(']'));
        if indexable && !literal_index && !sig[i - 1].is_ident("in") {
            push_fact(
                item,
                FactKind::Panic,
                "index".to_string(),
                t,
                under_span,
                fenced,
            );
        }
    } else if (t.is_punct('/') || t.is_punct('%')) && prev_is_value {
        // Division/remainder by a literal can't panic (checked at build
        // time for zero), and float division never panics — a float
        // value on the left (`1.5 / x`, `1e9 / x`, `a as f64 / x`) pins
        // the type. Only flag symbolic integer-looking divisors.
        let next_literal = sig.get(i + 1).is_some_and(|n| {
            n.kind == TokenKind::Literal && n.text.starts_with(|c: char| c.is_ascii_digit())
        });
        let float_lhs = (sig[i - 1].kind == TokenKind::Literal
            && sig[i - 1].text.starts_with(|c: char| c.is_ascii_digit())
            && !sig[i - 1].text.starts_with("0x")
            && sig[i - 1].text.contains(['.', 'e', 'E']))
            || sig[i - 1].is_ident("f64")
            || sig[i - 1].is_ident("f32");
        if !next_literal && !float_lhs {
            let what = if t.is_punct('/') { "div" } else { "rem" };
            push_fact(
                item,
                FactKind::Panic,
                what.to_string(),
                t,
                under_span,
                fenced,
            );
        }
    }
}

fn push_fact(
    item: &mut FnItem,
    kind: FactKind,
    what: String,
    t: &Token,
    under_span: bool,
    fenced: bool,
) {
    item.facts.push(Fact {
        kind,
        what,
        line: t.line,
        col: t.col,
        under_span,
        in_sig: false,
        fenced,
    });
}

/// Blocking-I/O token matcher shared by signature and body scanning.
/// Mirrors the historical L009 lexical matcher.
fn io_token(sig: &[&Token], i: usize) -> Option<String> {
    let t = sig[i];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let follows = |k: usize, word: &str| {
        sig.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && sig.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && sig.get(i + k).is_some_and(|a| a.is_ident(word))
    };
    match t.text.as_str() {
        "TcpStream" | "TcpListener" | "OpenOptions" | "UdpSocket" => Some(t.text.clone()),
        "File" if follows(3, "create") || follows(3, "open") => {
            Some(format!("File::{}", sig[i + 3].text))
        }
        "fs" if follows(3, "write") || follows(3, "read_to_string") || follows(3, "read") => {
            Some(format!("fs::{}", sig[i + 3].text))
        }
        "write_all" if i > 0 && sig[i - 1].is_punct('.') => Some(".write_all".to_string()),
        _ => None,
    }
}

/// Receiver name for `X.lock()`: the identifier closest to the `.lock`,
/// walking back through one matched call/index group if present.
fn lock_target_name(sig: &[&Token], lock_idx: usize) -> String {
    if lock_idx < 2 {
        return "<expr>".to_string();
    }
    let mut j = lock_idx - 2; // token before the `.`
    let t = sig[j];
    if t.kind == TokenKind::Ident {
        return t.text.clone();
    }
    if t.is_punct(')') || t.is_punct(']') {
        let (open, close) = if t.is_punct(')') {
            ('(', ')')
        } else {
            ('[', ']')
        };
        let mut depth = 1usize;
        while j > 0 {
            j -= 1;
            if sig[j].is_punct(close) {
                depth += 1;
            } else if sig[j].is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        if j > 0 && sig[j - 1].kind == TokenKind::Ident {
            return sig[j - 1].text.clone();
        }
    }
    "<expr>".to_string()
}

/// Reconstruct the (possibly qualified) call path ending at `i`, and
/// whether it is a method call. `a::b::f(` → (["a","b","f"], false);
/// `x.f(` → (["f"], true).
fn call_path(sig: &[&Token], i: usize) -> (Vec<String>, bool) {
    let mut segs = vec![sig[i].text.clone()];
    let mut j = i;
    while j >= 3
        && sig[j - 1].is_punct(':')
        && sig[j - 2].is_punct(':')
        && sig[j - 3].kind == TokenKind::Ident
    {
        segs.push(sig[j - 3].text.clone());
        j -= 3;
    }
    segs.reverse();
    let is_method = j > 0 && sig[j - 1].is_punct('.');
    if is_method && segs.len() > 1 {
        // `x.Foo::bar(` isn't real Rust; treat defensively as method.
        segs = vec![segs.pop().unwrap_or_default()];
    }
    (segs, is_method)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn model(src: &str) -> FileModel {
        build_file_model("crates/x/src/lib.rs", "scan_x", &tokenize(src))
    }

    fn fn_named<'m>(m: &'m FileModel, name: &str) -> &'m FnItem {
        m.functions
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn {name} in {:?}", m.functions))
    }

    #[test]
    fn extracts_functions_with_owners_and_modules() {
        let m = model(
            "mod inner {\n\
             pub struct S;\n\
             impl S { pub fn method(&self) {} }\n\
             pub fn free() {}\n\
             }\n\
             trait T { fn decl(&self); fn with_default(&self) { self.decl() } }\n",
        );
        let method = fn_named(&m, "method");
        assert_eq!(method.owner.as_deref(), Some("S"));
        assert_eq!(method.modules, vec!["inner".to_string()]);
        let free = fn_named(&m, "free");
        assert_eq!(free.owner, None);
        let decl = fn_named(&m, "decl");
        assert!(decl.calls.is_empty());
        let dflt = fn_named(&m, "with_default");
        assert_eq!(dflt.owner.as_deref(), Some("T"));
        assert_eq!(dflt.calls.len(), 1);
        assert!(dflt.calls[0].is_method);
    }

    #[test]
    fn impl_trait_for_type_owner_is_the_type() {
        let m = model("struct A; trait T { fn f(&self); } impl T for A { fn f(&self) {} }");
        let f = m.functions.iter().rfind(|f| f.name == "f").unwrap();
        assert_eq!(f.owner.as_deref(), Some("A"));
    }

    #[test]
    fn test_attributes_and_tests_modules_mark_items() {
        let m = model(
            "#[cfg(test)]\nmod tests {\n pub fn helper() { x.unwrap() }\n}\n\
             #[test]\nfn unit() { assert!(true); }\n\
             #[cfg(not(test))]\nfn prod() {}\n",
        );
        assert!(fn_named(&m, "helper").is_test);
        assert!(fn_named(&m, "unit").is_test);
        assert!(!fn_named(&m, "prod").is_test);
    }

    #[test]
    fn files_under_tests_are_all_test() {
        let m = build_file_model(
            "crates/x/tests/it.rs",
            "scan_x",
            &tokenize("fn run() { data[0]; }"),
        );
        assert!(m.functions[0].is_test);
    }

    #[test]
    fn panic_sites_cover_the_catalogue() {
        let m = model(
            "fn f(v: Vec<u32>, n: u32) -> u32 {\n\
             let a = v.first().unwrap();\n\
             let b = v.last().expect(\"x\");\n\
             if n == 0 { panic!(\"boom\") }\n\
             let c = v[n as usize];\n\
             let d = n / (n - 1);\n\
             let e = n % a;\n\
             a + b + c + d + e\n}\n",
        );
        let f = fn_named(&m, "f");
        let whats: Vec<&str> = f
            .facts
            .iter()
            .filter(|x| x.kind == FactKind::Panic)
            .map(|x| x.what.as_str())
            .collect();
        assert_eq!(
            whats,
            vec![".unwrap()", ".expect()", "panic!", "index", "div", "rem"]
        );
    }

    #[test]
    fn literal_divisors_and_vec_macro_do_not_panic() {
        let m = model("fn f(n: u32) -> u32 { let v = vec![1, 2]; n / 2 + v.len() as u32 }");
        let f = fn_named(&m, "f");
        assert!(
            f.facts.iter().all(|x| x.kind != FactKind::Panic),
            "facts: {:?}",
            f.facts
        );
    }

    #[test]
    fn literal_index_and_float_division_do_not_panic() {
        // `s[1]` is compile-checked array state access; `1.0 / x` is
        // float division. Neither can panic at runtime.
        let m = model("fn f(s: [u64; 4]) -> f64 { let a = s[1]; 1.0 / (a as f64) }");
        let f = fn_named(&m, "f");
        assert!(
            f.facts.iter().all(|x| x.kind != FactKind::Panic),
            "facts: {:?}",
            f.facts
        );
    }

    #[test]
    fn catch_unwind_fences_calls_and_facts() {
        let m = model(
            "fn w(jobs: &[u32], n: usize) {\n\
             let r = std::panic::catch_unwind(|| run(jobs[n]));\n\
             drop(r);\n\
             after();\n}\n\
             fn run(a: u32) {}\nfn after() {}\n",
        );
        let f = fn_named(&m, "w");
        let run_call = f
            .calls
            .iter()
            .find(|c| c.path == vec!["run".to_string()])
            .unwrap();
        assert!(run_call.fenced);
        let after_call = f
            .calls
            .iter()
            .find(|c| c.path == vec!["after".to_string()])
            .unwrap();
        assert!(!after_call.fenced);
        let index = f
            .facts
            .iter()
            .find(|x| x.kind == FactKind::Panic && x.what == "index")
            .unwrap();
        assert!(index.fenced);
    }

    #[test]
    fn attribute_contents_are_not_calls() {
        let m = model("#[derive(Clone, Debug)]\nstruct S;\nfn f() { g() }\nfn g() {}\n");
        let f = fn_named(&m, "f");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].path, vec!["g".to_string()]);
    }

    #[test]
    fn qualified_calls_keep_their_path() {
        let m = model("fn f() { scan_obs::export::write_file(); helper(); }");
        let f = fn_named(&m, "f");
        assert_eq!(
            f.calls[0].path,
            vec![
                "scan_obs".to_string(),
                "export".to_string(),
                "write_file".to_string()
            ]
        );
        assert!(!f.calls[0].is_method);
        assert_eq!(f.calls[1].path, vec!["helper".to_string()]);
    }

    #[test]
    fn use_imports_flatten_groups_and_aliases() {
        let m = model(
            "use scan_obs::{export, span::Span as S};\nuse std::collections::BTreeMap;\nfn f() {}\n",
        );
        let aliases: Vec<(&str, Vec<&str>)> = m
            .uses
            .iter()
            .map(|u| {
                (
                    u.alias.as_str(),
                    u.segments.iter().map(String::as_str).collect(),
                )
            })
            .collect();
        assert!(aliases.contains(&("export", vec!["scan_obs", "export"])));
        assert!(aliases.contains(&("S", vec!["scan_obs", "span", "Span"])));
        assert!(aliases.contains(&("BTreeMap", vec!["std", "collections", "BTreeMap"])));
    }

    #[test]
    fn lock_nesting_inside_one_statement_scope() {
        let m = model(
            "fn f(s: &S) {\n\
             let a = s.queue.lock();\n\
             let b = s.cache.lock();\n\
             }\n\
             fn g(s: &S) {\n\
             if let Ok(a) = s.queue.lock() { a.push(1); }\n\
             if let Ok(b) = s.cache.lock() { b.touch(); }\n\
             }\n",
        );
        let f = fn_named(&m, "f");
        assert_eq!(f.lock_pairs.len(), 1);
        assert_eq!(f.lock_pairs[0].first.name, "queue");
        assert_eq!(f.lock_pairs[0].second.name, "cache");
        // Sequential if-let guards never overlap.
        let g = fn_named(&m, "g");
        assert!(g.lock_pairs.is_empty(), "pairs: {:?}", g.lock_pairs);
    }

    #[test]
    fn calls_record_held_locks_and_span_liveness() {
        let m = model(
            "fn f(s: &S) {\n\
             let g = s.state.lock();\n\
             helper(s);\n\
             }\n\
             fn h(o: &Obs) {\n\
             let _sp = span!(o, \"work\");\n\
             do_io();\n\
             }\n\
             fn outside() { do_io(); }\n",
        );
        let f = fn_named(&m, "f");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].held_locks.len(), 1);
        assert_eq!(f.calls[0].held_locks[0].name, "state");
        let h = fn_named(&m, "h");
        assert!(h.calls.iter().any(|c| c.under_span));
        let outside = fn_named(&m, "outside");
        assert!(outside.calls.iter().all(|c| !c.under_span));
    }

    #[test]
    fn statement_temporary_lock_dies_at_semicolon() {
        let m = model(
            "fn f(s: &S) {\n\
             s.a.lock().unwrap().push(1);\n\
             let g = s.b.lock();\n\
             }\n",
        );
        let f = fn_named(&m, "f");
        // `a` guard died at the `;`, so no (a, b) pair.
        assert!(f.lock_pairs.is_empty(), "pairs: {:?}", f.lock_pairs);
    }

    #[test]
    fn taint_and_io_facts() {
        let m = model(
            "fn f() {\n\
             let t = Instant::now();\n\
             let r = thread_rng();\n\
             let m: HashMap<u32, u32> = HashMap::new();\n\
             let s = TcpStream::connect(addr);\n\
             }\n\
             fn sig_io(stream: &mut TcpStream) {}\n",
        );
        let f = fn_named(&m, "f");
        let kind = |k: FactKind| f.facts.iter().filter(|x| x.kind == k).count();
        assert_eq!(kind(FactKind::Clock), 1);
        assert_eq!(kind(FactKind::Rng), 1);
        assert_eq!(kind(FactKind::Unordered), 2);
        assert!(kind(FactKind::Io) >= 1);
        let s = fn_named(&m, "sig_io");
        assert!(s.facts.iter().any(|x| x.kind == FactKind::Io && x.in_sig));
    }

    #[test]
    fn fact_methods_do_not_create_call_edges() {
        let m = model("fn f(s: &S) { s.state.lock(); r.unwrap(); s.out.write_all(b\"x\"); }");
        let f = fn_named(&m, "f");
        assert!(f.calls.is_empty(), "calls: {:?}", f.calls);
    }
}
