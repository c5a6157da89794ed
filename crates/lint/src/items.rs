//! Item extraction — the layer between the lexer and the call graph.
//!
//! One pass over a [`LexFile`] recovers just enough structure for the
//! interprocedural rules (DESIGN.md §17): which functions a file
//! defines (with module path and surrounding `impl` type), which calls
//! each function body makes, where the ambient-authority *sources* and
//! panic *sinks* sit, and which `use` declarations are in scope for
//! resolving free calls. Like the lexer it is deliberately not a
//! parser: generics are skipped by bracket counting, types are names,
//! and the inevitable ambiguity is handled downstream by the resolver
//! (candidate caps + drop counting), not by more grammar here.
//!
//! `#[cfg(test)]` modules and `#[test]` functions are excluded from
//! extraction entirely: test code may panic and read clocks at will,
//! and keeping it out of the graph keeps every reachability rule
//! focused on shipping paths.

use crate::lexer::{lex, LexFile, TokKind, Token};
use crate::rules::{pragma_allows, Rule};

/// One extracted function item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Enclosing in-file module path (`mod a { mod b { … } }` → `[a, b]`).
    pub module: Vec<String>,
    /// Enclosing `impl` type name, when inside an impl block.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared `async fn` — used by the resolver to split same-name
    /// method candidates by call-site awaited-ness.
    pub is_async: bool,
}

/// What a call site refers to, before resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `a::b::f(…)` — path segments as written (aliases unexpanded).
    Path(Vec<String>),
    /// `.m(…)` — method name only; receiver type is unknown.
    Method(String),
    /// `f(…)` — unqualified call.
    Free(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallRef {
    /// Index into [`FileSummary::fns`] of the enclosing function.
    pub from: usize,
    pub callee: Callee,
    pub line: u32,
    /// True when the call sits inside a `catch_unwind(…)` argument —
    /// a panic barrier the P1 traversal does not cross.
    pub guarded: bool,
    /// The call's result is `.await`ed — the callee must be async.
    pub awaited: bool,
}

/// An ambient-authority source site (the D2 pattern set), recorded for
/// the D4 taint pass even in files where D2 itself is exempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceRef {
    pub from: usize,
    pub line: u32,
    /// Human-readable description (`wall-clock `Instant``, …).
    pub what: String,
}

/// The panic-sink kinds P1 audits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// `.unwrap()` not matching the mutex-poison pattern.
    Unwrap,
    /// `.expect("…")` with a literal message (distinguishes
    /// `Result::expect` from parser-style `self.expect(b'[')` methods).
    Expect,
    /// `name[&key]` — map indexing, which panics on a missing key.
    MapIndex,
}

impl SinkKind {
    pub fn describe(self) -> &'static str {
        match self {
            SinkKind::Unwrap => "`.unwrap()`",
            SinkKind::Expect => "`.expect(\"…\")`",
            SinkKind::MapIndex => "map index `[&…]` (panics on missing key)",
        }
    }
}

/// One panic-sink site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkRef {
    pub from: usize,
    pub line: u32,
    pub kind: SinkKind,
    /// True inside a `catch_unwind(…)` argument region.
    pub guarded: bool,
}

/// Everything the interprocedural pass needs from one file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileSummary {
    /// Workspace-relative `/`-separated path.
    pub rel: String,
    /// Crate import name derived from the path (`crates/json/…` →
    /// `deep_json`, `vendor/rayon/…` → `rayon`, `tests/x.rs` →
    /// `test_x`).
    pub krate: String,
    pub fns: Vec<FnItem>,
    pub calls: Vec<CallRef>,
    pub sources: Vec<SourceRef>,
    pub sinks: Vec<SinkRef>,
    /// `use` declarations: local alias → full path segments.
    pub uses: Vec<(String, Vec<String>)>,
    /// Pragma-covered lines: (line, allowed rules) — applied to the
    /// workspace-level findings, which `lint_source` never sees.
    pub allows: Vec<(u32, Vec<Rule>)>,
}

/// Crate import name for a workspace-relative path.
pub fn crate_of_path(rel: &str) -> String {
    let seg: Vec<&str> = rel.split('/').collect();
    match seg.as_slice() {
        ["crates", name, ..] => format!("deep_{}", name.replace('-', "_")),
        ["vendor", name, ..] => name.replace('-', "_"),
        ["tests", file, ..] => format!("test_{}", file.trim_end_matches(".rs").replace('-', "_")),
        ["examples", file, ..] => {
            format!("example_{}", file.trim_end_matches(".rs").replace('-', "_"))
        }
        _ => "deep_repro".to_string(),
    }
}

/// In-file base module path implied by the file's location under
/// `src/` (`crates/x/src/a/b.rs` → `[a, b]`; `lib.rs`/`main.rs`/
/// `mod.rs` and `bin/` roots → `[]`).
fn base_module(rel: &str) -> Vec<String> {
    let Some(pos) = rel.find("src/") else {
        return Vec::new();
    };
    let tail = &rel[pos + 4..];
    let mut out: Vec<String> = Vec::new();
    let parts: Vec<&str> = tail.split('/').collect();
    for (i, p) in parts.iter().enumerate() {
        let last = i + 1 == parts.len();
        if last {
            let stem = p.trim_end_matches(".rs");
            if !matches!(stem, "lib" | "main" | "mod") && !rel.contains("src/bin/") {
                out.push(stem.to_string());
            }
        } else if *p != "bin" {
            out.push(p.to_string());
        }
    }
    out
}

/// Identifiers that look like calls but are control flow or bindings.
const NOT_CALLS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "fn", "let", "in", "as", "move", "ref", "mut",
    "else", "unsafe", "async", "await", "dyn", "impl", "where", "pub", "use", "mod", "struct",
    "enum", "trait", "type", "const", "static", "crate", "super", "self", "Self", "box", "yield",
];

/// Extract a file's interprocedural summary. `rel` decides the crate
/// name and base module path; file-local findings are *not* computed
/// here (lib.rs owns that, with the path mask).
pub fn extract(rel: &str, source: &str) -> FileSummary {
    let file = lex(source);
    extract_lexed(rel, &file)
}

fn extract_lexed(rel: &str, file: &LexFile) -> FileSummary {
    let toks = &file.tokens;
    let mut out = FileSummary {
        rel: rel.to_string(),
        krate: crate_of_path(rel),
        ..FileSummary::default()
    };
    out.allows = pragma_allows(file);

    // Region stacks. Each entry records the depth of its opening `{`
    // (opener and closer share a depth value), so the first `}` at that
    // depth closes the region.
    let mut mods: Vec<(String, u32)> = Vec::new(); // (name, open depth)
    let mut impls: Vec<(Option<String>, u32)> = Vec::new();
    let mut fn_stack: Vec<(usize, u32)> = Vec::new(); // (fn index, body depth)
    let mut test_depth: Option<u32> = None; // inside #[cfg(test)] mod
    let mut guard_until: Vec<u32> = Vec::new(); // catch_unwind arg depths

    // Attribute state: idents of the most recent `#[…]` group(s) before
    // the next item keyword.
    let mut attr_idents: Vec<String> = Vec::new();

    let base = base_module(rel);

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match &t.kind {
            TokKind::Punct('#') if matches!(toks.get(i + 1), Some(n) if is_punct(n, '[')) => {
                // Collect idents of the attribute; it ends at the `]`
                // matching this `[` (same depth as the opener).
                let open_depth = toks[i + 1].depth;
                let mut j = i + 2;
                while j < toks.len() {
                    if is_punct(&toks[j], ']') && toks[j].depth == open_depth {
                        break;
                    }
                    if let TokKind::Ident(s) = &toks[j].kind {
                        attr_idents.push(s.clone());
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            TokKind::Punct('}') => {
                while let Some(&(_, d)) = mods.last() {
                    if d == t.depth {
                        mods.pop();
                        if test_depth == Some(t.depth) {
                            test_depth = None;
                        }
                    } else {
                        break;
                    }
                }
                while let Some(&(_, d)) = impls.last() {
                    if d == t.depth {
                        impls.pop();
                    } else {
                        break;
                    }
                }
                while let Some(&(_, d)) = fn_stack.last() {
                    if d == t.depth {
                        fn_stack.pop();
                    } else {
                        break;
                    }
                }
            }
            TokKind::Punct(')') => {
                while let Some(&d) = guard_until.last() {
                    if d == t.depth {
                        guard_until.pop();
                    } else {
                        break;
                    }
                }
            }
            TokKind::Ident(name) => {
                let attr_is_test = attr_idents.iter().any(|a| a == "test")
                    && !attr_idents.iter().any(|a| a == "not");
                match name.as_str() {
                    "mod" => {
                        // `mod name {` opens an in-file module;
                        // `mod name;` is an out-of-line declaration.
                        if let (Some(TokKind::Ident(mname)), Some(open)) =
                            (toks.get(i + 1).map(|t| &t.kind), toks.get(i + 2))
                        {
                            if is_punct(open, '{') {
                                mods.push((mname.clone(), open.depth));
                                if attr_is_test && test_depth.is_none() {
                                    test_depth = Some(open.depth);
                                }
                                attr_idents.clear();
                                i += 3;
                                continue;
                            }
                        }
                        attr_idents.clear();
                    }
                    "impl" => {
                        if let Some((ty, next)) = parse_impl_header(toks, i) {
                            impls.push((ty, toks[next].depth));
                            attr_idents.clear();
                            i = next + 1;
                            continue;
                        }
                        attr_idents.clear();
                    }
                    "fn" => {
                        let fn_is_test = attr_is_test || test_depth.is_some();
                        attr_idents.clear();
                        if let Some(TokKind::Ident(fname)) = toks.get(i + 1).map(|t| &t.kind) {
                            // Find the body `{` (same depth as `fn`);
                            // a `;` first means a bodyless trait decl.
                            let header_depth = t.depth;
                            let mut j = i + 2;
                            let mut body: Option<u32> = None;
                            while j < toks.len() {
                                let u = &toks[j];
                                if u.depth == header_depth {
                                    if is_punct(u, '{') {
                                        body = Some(u.depth);
                                        break;
                                    }
                                    if is_punct(u, ';') {
                                        break;
                                    }
                                }
                                if u.depth < header_depth {
                                    break;
                                }
                                j += 1;
                            }
                            if fn_is_test {
                                // Skip the whole body: no items, calls,
                                // or sinks from test code.
                                if let Some(bd) = body {
                                    let mut k = j + 1;
                                    while k < toks.len() {
                                        if is_punct(&toks[k], '}') && toks[k].depth == bd {
                                            break;
                                        }
                                        k += 1;
                                    }
                                    i = k + 1;
                                } else {
                                    i = j + 1;
                                }
                                continue;
                            }
                            let mut module = base.clone();
                            module.extend(mods.iter().map(|(m, _)| m.clone()));
                            out.fns.push(FnItem {
                                name: fname.clone(),
                                module,
                                impl_type: impls.last().and_then(|(t, _)| t.clone()),
                                line: t.line,
                                is_async: i >= 1 && is_ident_at(toks, i - 1, "async"),
                            });
                            if let Some(bd) = body {
                                fn_stack.push((out.fns.len() - 1, bd));
                                i = j + 1;
                                continue;
                            }
                            i = j + 1;
                            continue;
                        }
                    }
                    "use" if fn_stack.is_empty() => {
                        i = parse_use(toks, i, &mut out.uses);
                        attr_idents.clear();
                        continue;
                    }
                    "struct" | "enum" | "trait" | "static" | "const" | "type" => {
                        attr_idents.clear();
                    }
                    _ => {
                        if let Some(&(cur, _)) = fn_stack.last() {
                            let guarded = !guard_until.is_empty();
                            i = scan_body_ident(toks, i, cur, guarded, &mut out, &mut guard_until);
                            continue;
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Handle one identifier inside a function body: classify call sites,
/// sources, and sinks. Returns the next index to resume from.
fn scan_body_ident(
    toks: &[Token],
    i: usize,
    cur: usize,
    guarded: bool,
    out: &mut FileSummary,
    guard_until: &mut Vec<u32>,
) -> usize {
    let t = &toks[i];
    let name = match &t.kind {
        TokKind::Ident(s) => s.as_str(),
        _ => return i + 1,
    };
    let line = t.line;

    // --- D2-pattern ambient-authority sources (for D4 taint). ---
    match name {
        "Instant" | "SystemTime" | "UNIX_EPOCH" => out.sources.push(SourceRef {
            from: cur,
            line,
            what: format!("wall-clock `{name}`"),
        }),
        "thread_rng" | "from_entropy" => out.sources.push(SourceRef {
            from: cur,
            line,
            what: format!("ambient RNG `{name}`"),
        }),
        "env" => {
            let member = is_punct_at(toks, i + 1, ':')
                && is_punct_at(toks, i + 2, ':')
                && matches!(toks.get(i + 3).map(|t| &t.kind), Some(TokKind::Ident(m)) if matches!(
                    m.as_str(),
                    "var" | "var_os" | "vars" | "vars_os" | "args" | "args_os"
                        | "set_var" | "remove_var" | "temp_dir"
                ));
            let std_path = i >= 3
                && is_punct_at(toks, i - 1, ':')
                && is_punct_at(toks, i - 2, ':')
                && is_ident_at(toks, i - 3, "std");
            if member || std_path {
                out.sources.push(SourceRef {
                    from: cur,
                    line,
                    what: "`std::env` access".to_string(),
                });
            }
        }
        _ => {}
    }

    // --- catch_unwind barrier region. ---
    if name == "catch_unwind" && is_punct_at(toks, i + 1, '(') {
        guard_until.push(toks[i + 1].depth);
    }

    let prev_dot = i >= 1 && is_punct_at(toks, i - 1, '.');
    let prev_path = i >= 2 && is_punct_at(toks, i - 1, ':') && is_punct_at(toks, i - 2, ':');

    // --- Sinks (P1). ---
    if (name == "unwrap" || name == "expect") && prev_dot && is_punct_at(toks, i + 1, '(') {
        let is_expect = name == "expect";
        // `.expect(<non-literal>)` is a parser-style method, not
        // `Result::expect`.
        let expect_lit = matches!(toks.get(i + 2).map(|t| &t.kind), Some(TokKind::Lit));
        if !is_expect || expect_lit {
            if !poison_pattern(toks, i) {
                out.sinks.push(SinkRef {
                    from: cur,
                    line,
                    kind: if is_expect {
                        SinkKind::Expect
                    } else {
                        SinkKind::Unwrap
                    },
                    guarded,
                });
            }
            return i + 1;
        }
    }
    if is_punct_at(toks, i + 1, '[') && is_punct_at(toks, i + 2, '&') && !prev_path {
        out.sinks.push(SinkRef {
            from: cur,
            line,
            kind: SinkKind::MapIndex,
            guarded,
        });
    }

    // --- Call sites. ---
    if !is_punct_at(toks, i + 1, '(') {
        // `path::seg::f(` — collect when this ident heads a path whose
        // last segment is a call. Only start at the path head.
        if is_punct_at(toks, i + 1, ':') && is_punct_at(toks, i + 2, ':') && !prev_path {
            let mut segs = vec![name.to_string()];
            let mut j = i + 1;
            while is_punct_at(toks, j, ':') && is_punct_at(toks, j + 1, ':') {
                match toks.get(j + 2).map(|t| &t.kind) {
                    Some(TokKind::Ident(s)) => {
                        segs.push(s.clone());
                        j += 3;
                    }
                    // `::<T>` turbofish or `::{…}` group — stop.
                    _ => break,
                }
            }
            if is_punct_at(toks, j, '(') && segs.len() >= 2 {
                out.calls.push(CallRef {
                    from: cur,
                    callee: Callee::Path(segs),
                    line,
                    guarded,
                    awaited: call_awaited(toks, j),
                });
            }
            // Fall through segment by segment (middle segments never
            // re-record: `prev_path` guards them) so that sources like
            // `std::time::Instant` are still seen at their own index.
        }
        return i + 1;
    }

    // ident directly followed by `(`. Macro calls `name!(…)` never
    // reach here (the `!` sits between the ident and the `(`).
    if NOT_CALLS.contains(&name) {
        return i + 1;
    }
    {
        let awaited = call_awaited(toks, i + 1);
        if prev_dot {
            out.calls.push(CallRef {
                from: cur,
                callee: Callee::Method(name.to_string()),
                line,
                guarded,
                awaited,
            });
        } else if !prev_path {
            out.calls.push(CallRef {
                from: cur,
                callee: Callee::Free(name.to_string()),
                line,
                guarded,
                awaited,
            });
        }
    }
    i + 1
}

/// Is the call whose argument list opens at `toks[open]` immediately
/// `.await`ed? (`f(…).await` — the closer shares the opener's depth.)
fn call_awaited(toks: &[Token], open: usize) -> bool {
    let d = toks[open].depth;
    let mut k = open + 1;
    while k < toks.len() {
        if toks[k].depth < d {
            return false;
        }
        if toks[k].depth == d && is_punct_at(toks, k, ')') {
            return is_punct_at(toks, k + 1, '.') && is_ident_at(toks, k + 2, "await");
        }
        k += 1;
    }
    false
}

/// Is `.unwrap()`/`.expect(…)` at `i` chained directly onto a lock or
/// channel primitive (`lock() / wait() / wait_timeout() / recv() /
/// read() / write()`)? That is mutex-poison / disconnect propagation —
/// deliberate crash-on-poisoned-state, not an input-dependent panic.
fn poison_pattern(toks: &[Token], i: usize) -> bool {
    // toks[i-1] is `.`; toks[i-2] must be `)` closing the receiver call.
    if i < 2 || !is_punct_at(toks, i - 2, ')') {
        return false;
    }
    let close_depth = toks[i - 2].depth;
    let mut j = i - 2;
    while j > 0 {
        j -= 1;
        if is_punct_at(toks, j, '(') && toks[j].depth == close_depth {
            return j >= 1
                && matches!(toks.get(j - 1).map(|t| &t.kind), Some(TokKind::Ident(m)) if matches!(
                    m.as_str(),
                    "lock" | "wait" | "wait_timeout" | "recv" | "read" | "write" | "join"
                ));
        }
        if toks[j].depth < close_depth {
            return false;
        }
    }
    false
}

/// Parse an `impl` header starting at `toks[i]` (the `impl` ident).
/// Returns `(type name, index of the opening `{`)`, or `None` when the
/// header does not end in a block at the same depth (e.g. a macro).
fn parse_impl_header(toks: &[Token], i: usize) -> Option<(Option<String>, usize)> {
    let depth = toks[i].depth;
    let mut j = i + 1;
    // Skip a generic parameter list by <>-counting; `->` cannot appear
    // before the impl type.
    if is_punct_at(toks, j, '<') {
        let mut angle = 0i32;
        while j < toks.len() {
            if is_punct_at(toks, j, '<') {
                angle += 1;
            } else if is_punct_at(toks, j, '>') {
                angle -= 1;
                if angle == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Collect the path up to `for`, `where`, or the body `{`; if `for`
    // appears, the self type is what follows it.
    let mut last_path_end: Option<String> = None;
    let mut after_for = false;
    let mut in_where = false;
    let mut ty: Option<String> = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.depth < depth {
            return None;
        }
        if t.depth == depth {
            match &t.kind {
                TokKind::Punct('{') => {
                    let name = if after_for {
                        ty.take()
                    } else {
                        last_path_end.take()
                    };
                    return Some((name, j));
                }
                TokKind::Punct(';') => return None,
                TokKind::Ident(s) if s == "for" && !in_where => {
                    after_for = true;
                }
                TokKind::Ident(s) if s == "where" => {
                    // Type already decided; bounds must not overwrite it.
                    in_where = true;
                }
                TokKind::Ident(s) if !in_where => {
                    // Heads and tails of paths: keep the most recent
                    // ident at header depth outside generics — for
                    // `fmt::Display` that is `Display`; for `Foo` it is
                    // `Foo`.
                    if after_for {
                        if ty.is_none() || is_punct_at(toks, j.wrapping_sub(1), ':') {
                            ty = Some(s.clone());
                        }
                    } else if last_path_end.is_none() || is_punct_at(toks, j.wrapping_sub(1), ':') {
                        last_path_end = Some(s.clone());
                    }
                }
                TokKind::Punct('<') => {
                    // Generic args of the type: skip to the matching `>`.
                    let mut angle = 0i32;
                    while j < toks.len() {
                        if is_punct_at(toks, j, '<') {
                            angle += 1;
                        } else if is_punct_at(toks, j, '>') {
                            angle -= 1;
                            if angle == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// Parse a top-level `use …;` declaration starting at `toks[i]`,
/// appending (alias → path) pairs. Returns the index after the `;`.
fn parse_use(toks: &[Token], i: usize, out: &mut Vec<(String, Vec<String>)>) -> usize {
    // Find the terminating `;` at the `use` keyword's depth.
    let depth = toks[i].depth;
    let mut end = i + 1;
    while end < toks.len() && !(is_punct_at(toks, end, ';') && toks[end].depth == depth) {
        end += 1;
    }
    parse_use_tree(&toks[i + 1..end], &mut Vec::new(), out);
    end + 1
}

/// Recursive-descent over a use tree's tokens: `a::b::{c as d, e::f}`.
fn parse_use_tree(toks: &[Token], prefix: &mut Vec<String>, out: &mut Vec<(String, Vec<String>)>) {
    let mut i = 0;
    let start_len = prefix.len();
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Ident(s) if s == "as" => {
                // `path as alias` — rebind the last pushed segment.
                if let (Some(TokKind::Ident(alias)), Some(_)) =
                    (toks.get(i + 1).map(|t| &t.kind), prefix.last())
                {
                    out.push((alias.clone(), prefix.clone()));
                    // Mark emitted so the flush below skips it.
                    prefix.truncate(start_len);
                    i += 2;
                    continue;
                }
                i += 1;
            }
            TokKind::Ident(s) => {
                prefix.push(s.clone());
                i += 1;
            }
            TokKind::Punct('*') => {
                // Glob import: nothing nameable to record.
                prefix.truncate(start_len);
                i += 1;
            }
            TokKind::Punct('{') => {
                // Group: split the inside on top-level commas.
                let open_depth = toks[i].depth;
                let mut j = i + 1;
                let mut item_start = j;
                while j < toks.len() {
                    let closing = is_punct_at(toks, j, '}') && toks[j].depth == open_depth;
                    if (is_punct_at(toks, j, ',') && toks[j].depth == open_depth + 1) || closing {
                        if j > item_start {
                            parse_use_tree(&toks[item_start..j], prefix, out);
                        }
                        item_start = j + 1;
                        if closing {
                            break;
                        }
                    }
                    j += 1;
                }
                prefix.truncate(start_len);
                i = j + 1;
            }
            TokKind::Punct(',') => {
                flush_leaf(prefix, start_len, out);
                i += 1;
            }
            _ => {
                i += 1; // `:` of `::`, etc.
            }
        }
    }
    flush_leaf(prefix, start_len, out);
}

/// Emit the accumulated path as `(last segment → path)` if non-empty.
fn flush_leaf(prefix: &mut Vec<String>, start_len: usize, out: &mut Vec<(String, Vec<String>)>) {
    if prefix.len() > start_len {
        if let Some(last) = prefix.last().cloned() {
            if last != "self" {
                out.push((last, prefix.clone()));
            } else if prefix.len() >= 2 {
                // `use a::b::{self}` imports `b`.
                let name = prefix[prefix.len() - 2].clone();
                out.push((name, prefix[..prefix.len() - 1].to_vec()));
            }
        }
        prefix.truncate(start_len);
    }
}

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokKind::Punct(c)
}

fn is_punct_at(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokKind::Punct(c))
}

fn is_ident_at(toks: &[Token], i: usize, name: &str) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Ident(s)) if s == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fns_modules_and_impls_are_qualified() {
        let src = "
mod outer {
    pub struct T;
    impl T {
        pub fn method(&self) {}
    }
    pub fn free() {}
}
impl std::fmt::Display for W {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
fn top() {}
";
        let s = extract("crates/core/src/lib.rs", src);
        assert_eq!(s.krate, "deep_core");
        let names: Vec<(String, Vec<String>, Option<String>)> = s
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.module.clone(), f.impl_type.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                (
                    "method".to_string(),
                    vec!["outer".to_string()],
                    Some("T".to_string())
                ),
                ("free".to_string(), vec!["outer".to_string()], None),
                ("fmt".to_string(), vec![], Some("W".to_string())),
                ("top".to_string(), vec![], None),
            ]
        );
    }

    #[test]
    fn file_location_implies_base_module() {
        let s = extract("crates/bench/src/des_scaling.rs", "pub fn run() {}");
        assert_eq!(s.fns[0].module, vec!["des_scaling".to_string()]);
        let s = extract("crates/bench/src/experiments/f02.rs", "pub fn go() {}");
        assert_eq!(
            s.fns[0].module,
            vec!["experiments".to_string(), "f02".to_string()]
        );
        let s = extract("crates/serve/src/bin/deep_serve.rs", "fn main() {}");
        assert!(s.fns[0].module.is_empty());
    }

    #[test]
    fn test_code_is_excluded() {
        let src = "
pub fn shipping() { helper(); }
fn helper() {}
#[test]
fn a_test() { shipping(); panic_helper().unwrap(); }
#[cfg(test)]
mod tests {
    fn test_helper() { super::shipping(); }
}
#[cfg(not(test))]
pub fn also_shipping() {}
";
        let s = extract("crates/core/src/lib.rs", src);
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["shipping", "helper", "also_shipping"]);
        assert_eq!(s.calls.len(), 1, "only the shipping call survives");
        assert!(s.sinks.is_empty(), "test-body unwrap is not a sink");
    }

    #[test]
    fn calls_classify_into_path_method_free() {
        let src = "
fn f() {
    helper();
    other::module::target(1);
    value.method(2);
    Type::assoc(3);
    mac!(not_a_call);
}
";
        let s = extract("crates/core/src/lib.rs", src);
        let kinds: Vec<&Callee> = s.calls.iter().map(|c| &c.callee).collect();
        assert_eq!(
            kinds,
            vec![
                &Callee::Free("helper".to_string()),
                &Callee::Path(vec![
                    "other".to_string(),
                    "module".to_string(),
                    "target".to_string()
                ]),
                &Callee::Method("method".to_string()),
                &Callee::Path(vec!["Type".to_string(), "assoc".to_string()]),
            ]
        );
    }

    #[test]
    fn sources_and_sinks_are_recorded() {
        let src = "
fn f(m: &BTreeMap<u64, u32>, id: u64) -> u32 {
    let t = Instant::now();
    let v = std::env::var(\"X\").unwrap();
    let x = m.get(&id).unwrap();
    let y = opt.expect(\"missing\");
    let z = parser.expect(b'[');
    m[&id]
}
";
        let s = extract("crates/core/src/lib.rs", src);
        assert_eq!(s.sources.len(), 2, "{:?}", s.sources);
        let kinds: Vec<SinkKind> = s.sinks.iter().map(|k| k.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SinkKind::Unwrap,
                SinkKind::Unwrap,
                SinkKind::Expect,
                SinkKind::MapIndex
            ],
            "parser-style expect(b'[') is not a sink"
        );
    }

    #[test]
    fn poison_unwraps_are_skipped_and_catch_unwind_guards() {
        let src = "
fn f(m: &Mutex<u32>) {
    let g = m.lock().unwrap();
    let r = cvar.wait_timeout(g, d).unwrap();
    let bad = compute().unwrap();
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| risky().unwrap()));
    after().unwrap();
}
";
        let s = extract("crates/core/src/lib.rs", src);
        let plain: Vec<bool> = s.sinks.iter().map(|k| k.guarded).collect();
        assert_eq!(plain, vec![false, true, false], "{:?}", s.sinks);
        let guarded_calls: Vec<(String, bool)> = s
            .calls
            .iter()
            .filter_map(|c| match &c.callee {
                Callee::Free(n) => Some((n.clone(), c.guarded)),
                _ => None,
            })
            .collect();
        assert!(guarded_calls.contains(&("risky".to_string(), true)));
        assert!(guarded_calls.contains(&("after".to_string(), false)));
        assert!(guarded_calls.contains(&("compute".to_string(), false)));
    }

    #[test]
    fn use_declarations_resolve_aliases_and_groups() {
        let src = "
use deep_json::Value;
use std::collections::{BTreeMap, BTreeSet as Set};
use deep_core::loggp::{self, model};
fn f() {}
";
        let s = extract("crates/core/src/lib.rs", src);
        let find = |alias: &str| -> Option<Vec<String>> {
            s.uses
                .iter()
                .find(|(a, _)| a == alias)
                .map(|(_, p)| p.clone())
        };
        assert_eq!(
            find("Value"),
            Some(vec!["deep_json".to_string(), "Value".to_string()])
        );
        assert_eq!(
            find("Set"),
            Some(vec![
                "std".to_string(),
                "collections".to_string(),
                "BTreeSet".to_string()
            ])
        );
        assert_eq!(
            find("loggp"),
            Some(vec!["deep_core".to_string(), "loggp".to_string()])
        );
        assert_eq!(
            find("model"),
            Some(vec![
                "deep_core".to_string(),
                "loggp".to_string(),
                "model".to_string()
            ])
        );
    }

    #[test]
    fn crate_names_follow_workspace_convention() {
        assert_eq!(crate_of_path("crates/json/src/lib.rs"), "deep_json");
        assert_eq!(crate_of_path("vendor/rayon/src/pool.rs"), "rayon");
        assert_eq!(
            crate_of_path("tests/parallel_determinism.rs"),
            "test_parallel_determinism"
        );
        assert_eq!(crate_of_path("src/lib.rs"), "deep_repro");
    }
}
