//! The rule catalogue and per-file analysis.
//!
//! Every file-local rule is a pure function over a [`LexFile`] (plus raw
//! source lines for S1's comment-block walk); D4 reads a manifest and
//! lives with the scope policy it consults ([`crate::check_manifest`]).
//! Findings carry stable rule names so pragmas, CLI toggles, and CI
//! output all speak the same ids:
//!
//! | id                       | invariant                                              |
//! |--------------------------|--------------------------------------------------------|
//! | `unordered-iter`         | D1: no `HashMap`/`HashSet` iteration in sim code       |
//! | `ambient-authority`      | D2: no wall clocks, `std::env`, or ambient RNG         |
//! | `unordered-float-reduce` | D3: no unordered reduction over parallel iterators     |
//! | `exempt-dependency`      | D4: no sim crate depends on a D2-exempt library crate  |
//! | `undocumented-unsafe`    | S1: every `unsafe` site carries a `// SAFETY:` comment |
//! | `missing-forbid-unsafe`  | S2: non-vendor crate roots `#![forbid(unsafe_code)]`   |
//! | `malformed-pragma`       | the pragma grammar itself (unknown rule, no reason)    |
//!
//! Suppression: `// deep-lint: allow(<rule>[, <rule>]*) — <why>`.
//! A trailing pragma covers its own line; a standalone pragma covers the
//! next code line. The justification is mandatory — an allow without a
//! *why* is itself a finding.

use crate::lexer::{lex, Comment, LexFile, TokKind, Token};
use std::collections::BTreeSet;
use std::fmt;

/// A lint rule id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D1 — `HashMap`/`HashSet` iteration (order nondeterminism).
    UnorderedIter,
    /// D2 — wall clocks, `std::env`, ambient RNG in sim code.
    AmbientAuthority,
    /// D3 — unordered float reduction over a parallel iterator.
    UnorderedFloatReduce,
    /// D4 — a D2-covered package lists a D2-exempt library crate under
    /// `[dependencies]`.
    ExemptDependency,
    /// S1 — `unsafe` without a `// SAFETY:` comment.
    UndocumentedUnsafe,
    /// S2 — crate root missing `#![forbid(unsafe_code)]`.
    MissingForbidUnsafe,
    /// A `deep-lint:` pragma that does not parse or lacks a reason.
    MalformedPragma,
}

impl Rule {
    /// Every rule, in catalogue order.
    pub const ALL: [Rule; 7] = [
        Rule::UnorderedIter,
        Rule::AmbientAuthority,
        Rule::UnorderedFloatReduce,
        Rule::ExemptDependency,
        Rule::UndocumentedUnsafe,
        Rule::MissingForbidUnsafe,
        Rule::MalformedPragma,
    ];

    /// The stable textual id (used by pragmas and `--only`/`--skip`).
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered-iter",
            Rule::AmbientAuthority => "ambient-authority",
            Rule::UnorderedFloatReduce => "unordered-float-reduce",
            Rule::ExemptDependency => "exempt-dependency",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::MissingForbidUnsafe => "missing-forbid-unsafe",
            Rule::MalformedPragma => "malformed-pragma",
        }
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::UnorderedIter => {
                "HashMap/HashSet iteration in simulation code: iteration order is \
                 seeded per-process and can leak into traces and output"
            }
            Rule::AmbientAuthority => {
                "wall-clock (Instant/SystemTime), std::env, or ambient RNG in \
                 simulation code: clocks and seeds must flow through simkit"
            }
            Rule::UnorderedFloatReduce => {
                "sum/product/reduce/fold directly on a parallel iterator: float \
                 reduction order depends on work-stealing; collect then fold in \
                 index order (the par_sweep pattern)"
            }
            Rule::ExemptDependency => {
                "a package whose src/ is ambient-authority-covered lists an \
                 ambient-authority-exempt workspace library under \
                 [dependencies]: a call into it could carry clock/env reads \
                 into simulation results"
            }
            Rule::UndocumentedUnsafe => {
                "unsafe block/fn/impl without a // SAFETY: comment immediately \
                 above (or a # Safety doc section)"
            }
            Rule::MissingForbidUnsafe => "non-vendor crate root without #![forbid(unsafe_code)]",
            Rule::MalformedPragma => {
                "a deep-lint pragma that does not parse, names an unknown rule, \
                 or lacks the mandatory justification"
            }
        }
    }

    /// Parse a textual id.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (`/`-separated).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The rule that fired. (Ordered after `line` so the derived sort
    /// is path → line → rule.)
    pub rule: Rule,
    /// Human-readable explanation, specific to the site.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

// ---------------------------------------------------------------------
// Pragmas.

/// A parsed `deep-lint: allow(...)` pragma.
struct Pragma {
    rules: BTreeSet<Rule>,
    /// The line(s) of code this pragma covers.
    covers: Option<u32>,
}

/// Scan comments for pragmas. Returns the usable pragmas plus findings
/// for malformed ones.
fn collect_pragmas(file: &LexFile, path: &str) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for c in &file.comments {
        let Some(text) = pragma_text(&c.text) else {
            continue;
        };
        match parse_pragma(text) {
            Ok(rules) => {
                let covers = if c.trailing {
                    Some(c.line)
                } else {
                    file.next_code_line(c.end_line)
                };
                pragmas.push(Pragma { rules, covers });
            }
            Err(why) => findings.push(Finding {
                path: path.to_string(),
                line: c.line,
                rule: Rule::MalformedPragma,
                message: why,
            }),
        }
    }
    (pragmas, findings)
}

/// A comment is a pragma *attempt* only when its content (after the
/// comment marker) starts with `deep-lint:` — prose that merely mentions
/// the tool mid-sentence is not parsed. This is what makes a typo'd
/// pragma a hard error while documentation stays free to discuss the
/// grammar.
fn pragma_text(comment: &str) -> Option<&str> {
    let mut t = comment.trim_start();
    for marker in ["//!", "///", "//", "/*!", "/**", "/*"] {
        if let Some(rest) = t.strip_prefix(marker) {
            t = rest;
            break;
        }
    }
    let t = t.trim_start();
    t.starts_with("deep-lint:").then_some(t)
}

/// Parse the text of a pragma starting at `deep-lint`. Grammar:
/// `deep-lint: allow(<rule>[, <rule>]*) — <why>` where `<why>` is
/// non-empty and the separator may be `—`, `--`, `-`, or `:`.
fn parse_pragma(text: &str) -> Result<BTreeSet<Rule>, String> {
    let rest = text
        .strip_prefix("deep-lint")
        .and_then(|r| r.trim_start().strip_prefix(':'))
        .ok_or_else(|| "expected `deep-lint: allow(<rule>) — <why>`".to_string())?;
    let rest = rest.trim_start();
    let rest = rest
        .strip_prefix("allow")
        .ok_or_else(|| "expected `allow(<rule>)` after `deep-lint:`".to_string())?;
    let rest = rest.trim_start();
    let body = rest
        .strip_prefix('(')
        .ok_or_else(|| "expected `(` after `allow`".to_string())?;
    let close = body
        .find(')')
        .ok_or_else(|| "unclosed `allow(` in pragma".to_string())?;
    let mut rules = BTreeSet::new();
    for raw in body[..close].split(',') {
        let name = raw.trim();
        let rule =
            Rule::from_name(name).ok_or_else(|| format!("unknown rule `{name}` in pragma"))?;
        if rule == Rule::MalformedPragma {
            return Err("`malformed-pragma` cannot be allowed".to_string());
        }
        rules.insert(rule);
    }
    if rules.is_empty() {
        return Err("empty rule list in `allow()`".to_string());
    }
    let mut why = body[close + 1..].trim_start();
    for sep in ["—", "–", "--", "-", ":"] {
        if let Some(stripped) = why.strip_prefix(sep) {
            why = stripped;
            break;
        }
    }
    if why.trim().is_empty() {
        return Err(
            "pragma lacks a justification: write `deep-lint: allow(<rule>) — <why>`".to_string(),
        );
    }
    Ok(rules)
}

// ---------------------------------------------------------------------
// Per-file entry point.

/// Which rules to run (S2 and D4 are not file-scoped: see
/// [`check_crate_root`] and [`crate::check_manifest`]).
#[derive(Debug, Clone)]
pub struct RuleSet {
    enabled: BTreeSet<Rule>,
}

impl RuleSet {
    /// All rules on.
    pub fn all() -> Self {
        RuleSet {
            enabled: Rule::ALL.into_iter().collect(),
        }
    }

    /// No rules on.
    pub fn none() -> Self {
        RuleSet {
            enabled: BTreeSet::new(),
        }
    }

    /// Enable a rule.
    pub fn with(mut self, rule: Rule) -> Self {
        self.enabled.insert(rule);
        self
    }

    /// Disable a rule.
    pub fn without(mut self, rule: Rule) -> Self {
        self.enabled.remove(&rule);
        self
    }

    /// Is a rule enabled?
    pub fn has(&self, rule: Rule) -> bool {
        self.enabled.contains(&rule)
    }
}

/// Lint one file's source. `path` is used only for reporting.
pub fn lint_source(path: &str, source: &str, rules: &RuleSet) -> Vec<Finding> {
    let file = lex(source);
    let (pragmas, mut findings) = collect_pragmas(&file, path);
    if !rules.has(Rule::MalformedPragma) {
        findings.clear();
    }
    if rules.has(Rule::UnorderedIter) {
        unordered_iter(&file, path, &mut findings);
    }
    if rules.has(Rule::AmbientAuthority) {
        ambient_authority(&file, path, &mut findings);
    }
    if rules.has(Rule::UnorderedFloatReduce) {
        unordered_float_reduce(&file, path, &mut findings);
    }
    if rules.has(Rule::UndocumentedUnsafe) {
        undocumented_unsafe(&file, source, path, &mut findings);
    }
    // Apply pragmas (malformed-pragma findings are never suppressible).
    findings.retain(|f| {
        f.rule == Rule::MalformedPragma
            || !pragmas
                .iter()
                .any(|p| p.covers == Some(f.line) && p.rules.contains(&f.rule))
    });
    findings.sort();
    findings.dedup();
    findings
}

/// S2: check one crate-root file (`lib.rs`, `main.rs`, `src/bin/*.rs`)
/// for an inner `#![forbid(unsafe_code)]` attribute.
pub fn check_crate_root(path: &str, source: &str) -> Option<Finding> {
    let file = lex(source);
    let has = file.tokens.windows(8).any(|w| {
        is_punct(&w[0], '#')
            && is_punct(&w[1], '!')
            && is_punct(&w[2], '[')
            && is_ident(&w[3], "forbid")
            && is_punct(&w[4], '(')
            && is_ident(&w[5], "unsafe_code")
            && is_punct(&w[6], ')')
            && is_punct(&w[7], ']')
    });
    if has {
        None
    } else {
        Some(Finding {
            path: path.to_string(),
            line: 1,
            rule: Rule::MissingForbidUnsafe,
            message: "crate root lacks #![forbid(unsafe_code)]".to_string(),
        })
    }
}

// ---------------------------------------------------------------------
// Token helpers.

fn is_punct(t: &Token, c: char) -> bool {
    t.kind == TokKind::Punct(c)
}

fn is_ident(t: &Token, name: &str) -> bool {
    matches!(&t.kind, TokKind::Ident(s) if s == name)
}

fn ident_of(t: &Token) -> Option<&str> {
    match &t.kind {
        TokKind::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// D1 — unordered-iter.

/// Methods whose call on a hash container observes iteration order.
const ORDER_OBSERVING: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

fn unordered_iter(file: &LexFile, path: &str, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    // Pass 1: names declared with a HashMap/HashSet type in this file.
    // Two shapes: `name: [path::]Hash{Map,Set}` (fields, params, typed
    // lets) and `name = [path::]Hash{Map,Set}::…` (untyped lets). A
    // wrapped type (`RefCell<HashMap<…>>`) is a known false negative —
    // the declaring token before the path head is `<`, not `:`/`=`.
    let mut hash_names: BTreeSet<String> = BTreeSet::new();
    for i in 0..toks.len() {
        let Some(name) = ident_of(&toks[i]) else {
            continue;
        };
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        // Walk back over a `::`-joined path prefix to its head.
        let mut head = i;
        while head >= 3
            && is_punct(&toks[head - 1], ':')
            && is_punct(&toks[head - 2], ':')
            && ident_of(&toks[head - 3]).is_some()
        {
            head -= 3;
        }
        if head == 0 {
            continue;
        }
        // Skip `&` and `mut` between the declarator and the type.
        let mut k = head - 1;
        while k > 0 && (is_punct(&toks[k], '&') || is_ident(&toks[k], "mut")) {
            k -= 1;
        }
        if k == 0 {
            continue;
        }
        let declared = match &toks[k].kind {
            // `name: HashMap<…>` — require a real `:` (not half of `::`).
            TokKind::Punct(':') if !is_punct(&toks[k - 1], ':') => ident_of(&toks[k - 1]),
            // `name = HashMap::new()` — require a real `=` (not `==` etc).
            TokKind::Punct('=') if !matches!(&toks[k - 1].kind, TokKind::Punct(_)) => {
                ident_of(&toks[k - 1])
            }
            _ => None,
        };
        if let Some(n) = declared {
            hash_names.insert(n.to_string());
        }
    }
    if hash_names.is_empty() {
        return;
    }
    // Pass 2a: `name.iter()`-style order-observing method calls.
    for i in 0..toks.len().saturating_sub(3) {
        let Some(recv) = ident_of(&toks[i]) else {
            continue;
        };
        if !hash_names.contains(recv) {
            continue;
        }
        if is_punct(&toks[i + 1], '.')
            && ident_of(&toks[i + 2]).is_some_and(|m| ORDER_OBSERVING.contains(&m))
            && is_punct(&toks[i + 3], '(')
        {
            let method = ident_of(&toks[i + 2]).unwrap_or_default();
            findings.push(Finding {
                path: path.to_string(),
                line: toks[i + 2].line,
                rule: Rule::UnorderedIter,
                message: format!(
                    "`{recv}.{method}()` iterates a hash container ({recv} is \
                     declared HashMap/HashSet in this file); iteration order is \
                     nondeterministic — use BTreeMap/BTreeSet, sort before \
                     exposure, or justify with a pragma"
                ),
            });
        }
    }
    // Pass 2b: `for pat in [&][mut] [self.]name {`.
    for i in 0..toks.len() {
        if !is_ident(&toks[i], "for") {
            continue;
        }
        let base = toks[i].depth;
        // Find the matching `in` at the same depth (an `impl … for …`
        // header has none and stops at its `{`).
        let mut j = i + 1;
        let mut in_at = None;
        while j < toks.len() && j < i + 64 {
            let t = &toks[j];
            if t.depth == base {
                if is_ident(t, "in") {
                    in_at = Some(j);
                    break;
                }
                if is_punct(t, '{') || is_punct(t, ';') {
                    break;
                }
            }
            j += 1;
        }
        let Some(in_at) = in_at else { continue };
        // Collect the iterated expression: tokens up to the body `{`.
        let mut expr_end = in_at + 1;
        while expr_end < toks.len()
            && !(toks[expr_end].depth == base && is_punct(&toks[expr_end], '{'))
        {
            expr_end += 1;
        }
        let expr = &toks[in_at + 1..expr_end];
        // A call in the expression means order is already mediated by a
        // method (covered by pass 2a if it observes order).
        if expr.iter().any(|t| is_punct(t, '(')) {
            continue;
        }
        let Some(last) = expr.iter().rev().find_map(|t| ident_of(t)) else {
            continue;
        };
        if hash_names.contains(last) {
            findings.push(Finding {
                path: path.to_string(),
                line: toks[in_at].line,
                rule: Rule::UnorderedIter,
                message: format!(
                    "`for … in {last}` iterates a hash container; iteration \
                     order is nondeterministic — use BTreeMap/BTreeSet, sort \
                     first, or justify with a pragma"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// D2 — ambient-authority.

fn ambient_authority(file: &LexFile, path: &str, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let flag = |findings: &mut Vec<Finding>, line: u32, what: &str, fix: &str| {
        findings.push(Finding {
            path: path.to_string(),
            line,
            rule: Rule::AmbientAuthority,
            message: format!("{what} in simulation code — {fix}"),
        });
    };
    for i in 0..toks.len() {
        let Some(name) = ident_of(&toks[i]) else {
            continue;
        };
        match name {
            "Instant" | "SystemTime" | "UNIX_EPOCH" => flag(
                findings,
                toks[i].line,
                &format!("wall-clock type `{name}`"),
                "simulated time must come from the simkit clock (SimTime)",
            ),
            "thread_rng" | "from_entropy" => flag(
                findings,
                toks[i].line,
                &format!("ambient RNG `{name}`"),
                "randomness must come from seeded SimRng streams",
            ),
            "env" => {
                // `env::var(...)`-style member access, or the `std::env`
                // path itself (covers `use std::env;`).
                let member = i + 3 < toks.len()
                    && is_punct(&toks[i + 1], ':')
                    && is_punct(&toks[i + 2], ':')
                    && ident_of(&toks[i + 3]).is_some_and(|m| {
                        matches!(
                            m,
                            "var"
                                | "var_os"
                                | "vars"
                                | "vars_os"
                                | "args"
                                | "args_os"
                                | "set_var"
                                | "remove_var"
                                | "temp_dir"
                        )
                    });
                let std_path = i >= 3
                    && is_punct(&toks[i - 1], ':')
                    && is_punct(&toks[i - 2], ':')
                    && is_ident(&toks[i - 3], "std");
                if member || std_path {
                    flag(
                        findings,
                        toks[i].line,
                        "`std::env` access",
                        "configuration must flow through DeepConfig/function \
                         parameters, not process environment",
                    );
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// D3 — unordered-float-reduce.

const PAR_SOURCES: [&str; 5] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_chunks",
    "par_bridge",
];

const UNORDERED_SINKS: [&str; 4] = ["sum", "product", "reduce", "fold"];

fn unordered_float_reduce(file: &LexFile, path: &str, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !ident_of(&toks[i]).is_some_and(|n| PAR_SOURCES.contains(&n)) {
            continue;
        }
        let base = toks[i].depth;
        // Walk the method chain at the same depth. Closure bodies and
        // call arguments sit at depth > base, so an inner sequential
        // `.sum()` does not trip the rule. The chain ends at `;`, `,`,
        // or `{` at (or any token below) the chain's depth.
        let mut j = i + 1;
        let mut guard = 0;
        while j < toks.len() && guard < 2000 {
            let t = &toks[j];
            if t.depth < base {
                break;
            }
            if t.depth == base {
                match &t.kind {
                    TokKind::Punct(';') | TokKind::Punct(',') | TokKind::Punct('{') => break,
                    TokKind::Ident(m)
                        if UNORDERED_SINKS.contains(&m.as_str())
                            && j >= 1
                            && is_punct(&toks[j - 1], '.') =>
                    {
                        findings.push(Finding {
                            path: path.to_string(),
                            line: t.line,
                            rule: Rule::UnorderedFloatReduce,
                            message: format!(
                                "`.{m}()` terminates a parallel-iterator chain; \
                                 reduction order depends on work-stealing and is \
                                 not bit-reproducible — collect into index-ordered \
                                 slots and fold sequentially (see \
                                 deep_bench::sweep::par_sweep)"
                            ),
                        });
                    }
                    TokKind::Ident(m) if m == "collect" => break,
                    _ => {}
                }
            }
            j += 1;
            guard += 1;
        }
    }
}

// ---------------------------------------------------------------------
// S1 — undocumented-unsafe.

fn undocumented_unsafe(file: &LexFile, source: &str, path: &str, findings: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let lines: Vec<&str> = source.lines().collect();
    for i in 0..toks.len() {
        if !is_ident(&toks[i], "unsafe") {
            continue;
        }
        // Classify the site from the following token.
        let what = match toks.get(i + 1) {
            Some(t) if is_punct(t, '{') => "unsafe block",
            Some(t) if is_ident(t, "impl") => "unsafe impl",
            Some(t) if is_ident(t, "trait") => "unsafe trait",
            Some(t) if is_ident(t, "fn") => {
                // `unsafe fn(…)` is a function-pointer *type*, not a site.
                match toks.get(i + 2) {
                    Some(t2) if is_punct(t2, '(') => continue,
                    _ => "unsafe fn",
                }
            }
            Some(t) if is_ident(t, "extern") => "unsafe extern",
            _ => continue,
        };
        if !has_safety_comment(file, &lines, toks[i].line) {
            findings.push(Finding {
                path: path.to_string(),
                line: toks[i].line,
                rule: Rule::UndocumentedUnsafe,
                message: format!(
                    "{what} without a `// SAFETY:` comment immediately above \
                     (or `# Safety` doc section) stating why the contract holds"
                ),
            });
        }
    }
}

/// Is there a SAFETY comment covering `line`? Accepted: a comment on
/// the line itself, or inside the contiguous block of comment-only /
/// attribute-only lines immediately above, containing `SAFETY` or
/// `# Safety`.
fn has_safety_comment(file: &LexFile, lines: &[&str], line: u32) -> bool {
    let marks = |text: &str| text.contains("SAFETY") || text.contains("# Safety");
    if file
        .comments
        .iter()
        .any(|c| c.line <= line && line <= c.end_line && marks(&c.text))
    {
        return true;
    }
    let mut l = line - 1;
    while l >= 1 {
        let raw = lines.get(l as usize - 1).copied().unwrap_or("");
        let trimmed = raw.trim_start();
        let comment_here: Vec<&Comment> = file
            .comments
            .iter()
            .filter(|c| c.line <= l && l <= c.end_line)
            .collect();
        if !comment_here.is_empty() && !file.is_code_line(l) {
            if comment_here.iter().any(|c| marks(&c.text)) {
                return true;
            }
        } else if file.line_is_attribute_only(l) || trimmed.starts_with("#[") {
            // keep walking through attributes between comment and item
        } else {
            return false;
        }
        l -= 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        lint_source("t.rs", src, &RuleSet::all())
    }

    fn rules_fired(src: &str) -> BTreeSet<Rule> {
        run(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d1_fires_on_map_iteration_and_for_loops() {
        let src = "
struct S { m: HashMap<u32, u32> }
fn f(s: &S) -> Vec<u32> { s.m.keys().copied().collect() }
";
        // Field name `m` is declared hash-typed; `m.keys()` observes order.
        assert!(rules_fired(src).contains(&Rule::UnorderedIter));
        let src2 = "
fn g() {
    let mut set = HashSet::new();
    set.insert(1);
    for x in &set { println!(\"{x}\"); }
}
";
        assert!(rules_fired(src2).contains(&Rule::UnorderedIter));
    }

    #[test]
    fn d1_silent_on_keyed_access_and_btreemap() {
        let src = "
struct S { m: HashMap<u32, u32>, b: BTreeMap<u32, u32> }
fn f(s: &mut S) {
    s.m.insert(1, 2);
    let _ = s.m.get(&1);
    for (k, v) in &s.b {}
    let _: Vec<_> = s.b.iter().collect();
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn d1_pragma_suppresses_with_reason_only() {
        let with_reason = "
struct S { names: HashMap<String, u32> }
fn f(s: &S) -> Vec<String> {
    let mut v: Vec<String> = s
        .names
        // deep-lint: allow(unordered-iter) — sorted before exposure
        .iter()
        .map(|(n, _)| n.clone())
        .collect();
    v.sort();
    v
}
";
        assert!(run(with_reason).is_empty());
        let no_reason = "
struct S { names: HashMap<String, u32> }
// deep-lint: allow(unordered-iter)
fn f(s: &S) -> usize { s.names.keys().count() }
";
        let fired = rules_fired(no_reason);
        assert!(fired.contains(&Rule::MalformedPragma));
        assert!(
            fired.contains(&Rule::UnorderedIter),
            "bad pragma must not suppress"
        );
    }

    #[test]
    fn d2_fires_on_clock_env_rng() {
        assert!(rules_fired("fn f() { let t = Instant::now(); }").contains(&Rule::AmbientAuthority));
        assert!(rules_fired("fn f() { let v = std::env::var(\"X\"); }")
            .contains(&Rule::AmbientAuthority));
        assert!(rules_fired("use std::env;").contains(&Rule::AmbientAuthority));
        assert!(
            rules_fired("fn f() { let mut r = thread_rng(); }").contains(&Rule::AmbientAuthority)
        );
        // Duration is a span, not a clock read.
        assert!(run("use std::time::Duration;").is_empty());
    }

    #[test]
    fn d3_fires_at_chain_depth_only() {
        let bad = "fn f(xs: &[f64]) -> f64 { xs.par_iter().map(|x| x * 2.0).sum::<f64>() }";
        assert!(rules_fired(bad).contains(&Rule::UnorderedFloatReduce));
        // The inner sequential sum lives inside the map closure (deeper
        // depth) and the chain ends at collect: no finding.
        let good = "
fn f(xs: &[Vec<f64>]) -> Vec<f64> {
    xs.par_iter().map(|v| v.iter().sum::<f64>()).collect()
}
";
        assert!(run(good).is_empty());
    }

    #[test]
    fn s1_accepts_safety_walks_attrs_rejects_bare() {
        let documented = "
fn f(p: *const u32) -> u32 {
    // SAFETY: p is valid for the whole call per the caller contract.
    unsafe { *p }
}
";
        assert!(run(documented).is_empty());
        let through_attr = "
// SAFETY: the wrapper is only constructed around Send data.
#[allow(dead_code)]
unsafe impl Send for W {}
struct W(*const u8);
";
        assert!(run(through_attr).is_empty());
        let bare = "fn f(p: *const u32) -> u32 { unsafe { *p } }";
        assert!(rules_fired(bare).contains(&Rule::UndocumentedUnsafe));
        // A fn-pointer type is not an unsafe site.
        assert!(run("struct J { exec: unsafe fn(*const ()) }").is_empty());
    }

    #[test]
    fn s2_checks_crate_roots() {
        assert!(
            check_crate_root("lib.rs", "//! docs\n#![forbid(unsafe_code)]\npub fn f() {}")
                .is_none()
        );
        let f = check_crate_root("lib.rs", "pub fn f() {}").unwrap();
        assert_eq!(f.rule, Rule::MissingForbidUnsafe);
        // The attribute inside a comment or string does not count.
        assert!(check_crate_root("lib.rs", "// #![forbid(unsafe_code)]\npub fn f() {}").is_some());
    }

    #[test]
    fn pragma_grammar_errors_are_reported() {
        let unknown = "// deep-lint: allow(no-such-rule) — because\nfn f() {}";
        assert!(rules_fired(unknown).contains(&Rule::MalformedPragma));
        let empty = "// deep-lint: allow() — because\nfn f() {}";
        assert!(rules_fired(empty).contains(&Rule::MalformedPragma));
        let fine =
            "// deep-lint: allow(unordered-iter, ambient-authority) — test corpus\nfn f() {}";
        assert!(run(fine).is_empty());
    }
}
