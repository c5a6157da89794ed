//! The whole-workspace call graph, built from per-file
//! [`FileSummary`]s (DESIGN.md §17).
//!
//! Resolution is heuristic, tuned to err in a rule-appropriate
//! direction: taint and reachability passes want *recall* (a missed
//! edge silently waives a rule), so method calls fan out to every
//! plausible workspace target — but bounded. Three dampers keep the
//! fan-out honest:
//!
//! 1. **std-trait names never form edges** (`clone`, `fmt`, `next`, …):
//!    a call through one of those is overwhelmingly a std method, and
//!    an edge to a same-named workspace function would wire unrelated
//!    crates together.
//! 2. **dependency filtering** — a method-call edge may only land in
//!    the caller's own crate or one of its `Cargo.toml` dependencies
//!    (callers whose crate has no parsed manifest are unrestricted).
//! 3. **a candidate cap** — a name that still matches more than
//!    [`METHOD_CANDIDATE_CAP`] functions resolves to nothing and is
//!    counted in [`Graph::dropped_ambiguous`] instead of spraying
//!    edges; the count is published in `--graph` output so the blind
//!    spot is visible, not silent.

use crate::items::{Callee, FileSummary};
use std::collections::{BTreeMap, BTreeSet};

/// One function node.
#[derive(Debug, Clone)]
pub struct Node {
    pub krate: String,
    pub module: Vec<String>,
    pub impl_type: Option<String>,
    pub name: String,
    /// Declared `async fn`.
    pub is_async: bool,
    /// Workspace-relative file.
    pub rel: String,
    pub line: u32,
    /// Index of the defining file in the summaries slice.
    pub file: usize,
    /// Index of the item within its file's `fns`.
    pub fn_idx: usize,
}

impl Node {
    /// `krate::module::Type::name` — for messages and the JSON dump.
    pub fn qualified(&self) -> String {
        let mut s = self.krate.clone();
        for m in &self.module {
            s.push_str("::");
            s.push_str(m);
        }
        if let Some(t) = &self.impl_type {
            s.push_str("::");
            s.push_str(t);
        }
        s.push_str("::");
        s.push_str(&self.name);
        s
    }
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub from: usize,
    pub to: usize,
    /// Call-site line in the caller's file.
    pub line: u32,
    /// Inside a `catch_unwind(…)` argument (P1 does not traverse).
    pub guarded: bool,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    pub nodes: Vec<Node>,
    pub edges: Vec<Edge>,
    /// Outgoing edge indices per node.
    pub out: Vec<Vec<usize>>,
    /// Incoming edge indices per node.
    pub incoming: Vec<Vec<usize>>,
    /// node id for (file index, fn index).
    fn_node: BTreeMap<(usize, usize), usize>,
    /// Call sites whose candidate set exceeded the cap.
    pub dropped_ambiguous: usize,
}

/// Method names that never form call edges: std-trait surface (plus
/// `run`, the one ubiquitous entry-point name every executor-shaped
/// type defines) whose workspace homonyms would wire unrelated crates
/// together.
const METHOD_EDGE_EXCLUDE: &[&str] = &[
    "run",
    "clone",
    "clone_from",
    "to_string",
    "to_owned",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "default",
    "from",
    "into",
    "try_from",
    "try_into",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "deref",
    "deref_mut",
    "drop",
    "next",
    "nth",
    "len",
    "is_empty",
    "borrow",
    "borrow_mut",
    "index",
    "index_mut",
];

/// Above this many candidates a call site resolves to nothing (counted
/// in `dropped_ambiguous` rather than spraying edges).
const METHOD_CANDIDATE_CAP: usize = 8;

/// Workspace dependency map: crate import name → import names of its
/// `[dependencies]` + `[dev-dependencies]`. An empty map (fixtures) or
/// an unknown caller means "unrestricted".
pub type Deps = BTreeMap<String, BTreeSet<String>>;

pub fn build(summaries: &[FileSummary], deps: &Deps) -> Graph {
    let mut g = Graph::default();
    // Nodes, plus name → candidate-node index.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (fi, s) in summaries.iter().enumerate() {
        for (ki, f) in s.fns.iter().enumerate() {
            let id = g.nodes.len();
            g.nodes.push(Node {
                krate: s.krate.clone(),
                module: f.module.clone(),
                impl_type: f.impl_type.clone(),
                name: f.name.clone(),
                is_async: f.is_async,
                rel: s.rel.clone(),
                line: f.line,
                file: fi,
                fn_idx: ki,
            });
            g.fn_node.insert((fi, ki), id);
        }
    }
    for (id, n) in g.nodes.iter().enumerate() {
        by_name.entry(&n.name).or_default().push(id);
    }
    let workspace_crates: BTreeSet<&str> = summaries.iter().map(|s| s.krate.as_str()).collect();

    let mut edge_set: BTreeSet<(usize, usize, u32, bool)> = BTreeSet::new();
    for (fi, s) in summaries.iter().enumerate() {
        for call in &s.calls {
            let Some(&from) = g.fn_node.get(&(fi, call.from)) else {
                continue;
            };
            let targets = resolve(
                &g.nodes,
                &by_name,
                &workspace_crates,
                deps,
                s,
                from,
                &call.callee,
            );
            match targets {
                Resolution::Targets(ts) => {
                    // Await discrimination: an `.await`ed call targets an
                    // async fn and an un-awaited one does not — but only
                    // filter when some candidate matches, so a stored
                    // future (`let f = g(); f.await`) keeps its edges.
                    let matched: Vec<usize> = ts
                        .iter()
                        .copied()
                        .filter(|&id| g.nodes[id].is_async == call.awaited)
                        .collect();
                    let ts = if matched.is_empty() { ts } else { matched };
                    for to in ts {
                        if to != from {
                            edge_set.insert((from, to, call.line, call.guarded));
                        }
                    }
                }
                Resolution::TooAmbiguous => g.dropped_ambiguous += 1,
                Resolution::External => {}
            }
        }
    }
    g.edges = edge_set
        .into_iter()
        .map(|(from, to, line, guarded)| Edge {
            from,
            to,
            line,
            guarded,
        })
        .collect();
    g.out = vec![Vec::new(); g.nodes.len()];
    g.incoming = vec![Vec::new(); g.nodes.len()];
    for (ei, e) in g.edges.iter().enumerate() {
        g.out[e.from].push(ei);
        g.incoming[e.to].push(ei);
    }
    g
}

impl Graph {
    /// Node id of a (file, fn) pair.
    pub fn node_of(&self, file: usize, fn_idx: usize) -> Option<usize> {
        self.fn_node.get(&(file, fn_idx)).copied()
    }
}

enum Resolution {
    Targets(Vec<usize>),
    /// Over the candidate cap.
    TooAmbiguous,
    /// No workspace target (std / external / unknown): not an edge,
    /// not a drop.
    External,
}

fn deps_allow(deps: &Deps, caller: &str, callee: &str) -> bool {
    if caller == callee || deps.is_empty() {
        return true;
    }
    match deps.get(caller) {
        Some(ds) => ds.contains(callee),
        None => true, // unknown caller (tests/, examples/): unrestricted
    }
}

#[allow(clippy::too_many_arguments)]
fn resolve(
    nodes: &[Node],
    by_name: &BTreeMap<&str, Vec<usize>>,
    workspace_crates: &BTreeSet<&str>,
    deps: &Deps,
    s: &FileSummary,
    from: usize,
    callee: &Callee,
) -> Resolution {
    match callee {
        Callee::Method(m) => {
            if METHOD_EDGE_EXCLUDE.contains(&m.as_str()) {
                return Resolution::External;
            }
            let Some(cands) = by_name.get(m.as_str()) else {
                return Resolution::External;
            };
            let viable: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| {
                    nodes[id].impl_type.is_some() && deps_allow(deps, &s.krate, &nodes[id].krate)
                })
                .collect();
            // Same-crate preference: when the caller's own crate defines
            // a matching method, the receiver is overwhelmingly that
            // local type — don't also spray edges into dependencies.
            let local: Vec<usize> = viable
                .iter()
                .copied()
                .filter(|&id| nodes[id].krate == s.krate)
                .collect();
            let chosen = if local.is_empty() { viable } else { local };
            if chosen.is_empty() {
                Resolution::External
            } else if chosen.len() > METHOD_CANDIDATE_CAP {
                Resolution::TooAmbiguous
            } else {
                Resolution::Targets(chosen)
            }
        }
        Callee::Free(f) => {
            // `use` alias first: an imported free fn is a precise match.
            if let Some((_, path)) = s.uses.iter().find(|(a, _)| a == f) {
                return resolve_path(nodes, by_name, workspace_crates, deps, s, from, path);
            }
            let Some(cands) = by_name.get(f.as_str()) else {
                return Resolution::External;
            };
            let caller = &nodes[from];
            let free: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| nodes[id].impl_type.is_none())
                .collect();
            // Same file + module, then same file, then same crate,
            // then globally unique.
            for narrowing in [
                free.iter()
                    .copied()
                    .filter(|&id| {
                        nodes[id].file == caller.file && nodes[id].module == caller.module
                    })
                    .collect::<Vec<_>>(),
                free.iter()
                    .copied()
                    .filter(|&id| nodes[id].file == caller.file)
                    .collect(),
                free.iter()
                    .copied()
                    .filter(|&id| nodes[id].krate == caller.krate)
                    .collect(),
            ] {
                if !narrowing.is_empty() {
                    return if narrowing.len() > METHOD_CANDIDATE_CAP {
                        Resolution::TooAmbiguous
                    } else {
                        Resolution::Targets(narrowing)
                    };
                }
            }
            if free.len() == 1 && deps_allow(deps, &s.krate, &nodes[free[0]].krate) {
                Resolution::Targets(free)
            } else {
                Resolution::External
            }
        }
        Callee::Path(segs) => resolve_path(nodes, by_name, workspace_crates, deps, s, from, segs),
    }
}

fn resolve_path(
    nodes: &[Node],
    by_name: &BTreeMap<&str, Vec<usize>>,
    workspace_crates: &BTreeSet<&str>,
    deps: &Deps,
    s: &FileSummary,
    from: usize,
    segs: &[String],
) -> Resolution {
    let mut segs: Vec<String> = segs.to_vec();
    // Strip `crate` / `self` / leading `super`s: all same-crate.
    let mut own_crate = false;
    while let Some(first) = segs.first() {
        match first.as_str() {
            "crate" | "super" => {
                own_crate = true;
                segs.remove(0);
            }
            "self" => {
                segs.remove(0);
            }
            _ => break,
        }
    }
    // `Self::f` → the caller's impl type.
    if segs.first().is_some_and(|f| f == "Self") {
        if let Some(t) = nodes[from].impl_type.clone() {
            segs[0] = t;
            own_crate = true;
        } else {
            return Resolution::External;
        }
    }
    // Expand a `use` alias at the head.
    if let Some(first) = segs.first() {
        if let Some((_, path)) = s.uses.iter().find(|(a, _)| a == first) {
            let mut expanded = path.clone();
            expanded.extend(segs[1..].iter().cloned());
            segs = expanded;
        }
    }
    if segs.is_empty() {
        return Resolution::External;
    }
    // A crate-name head pins the target crate.
    let mut target_crate: Option<String> = None;
    if !own_crate {
        let head = segs[0].as_str();
        if head == s.krate || workspace_crates.contains(head) {
            target_crate = Some(segs.remove(0));
        } else if head == "std" || head == "core" || head == "alloc" {
            return Resolution::External;
        }
    } else {
        target_crate = Some(s.krate.clone());
    }
    let Some(name) = segs.last().cloned() else {
        return Resolution::External;
    };
    let qualifier = &segs[..segs.len() - 1];
    let Some(cands) = by_name.get(name.as_str()) else {
        return Resolution::External;
    };
    let caller_crate = &s.krate;
    let matches_qualifier = |n: &Node| -> bool {
        if qualifier.is_empty() {
            return n.impl_type.is_none();
        }
        let last_q = qualifier.last().unwrap().as_str();
        // A capitalized final qualifier is a type: `Type::assoc`.
        if last_q.chars().next().is_some_and(|c| c.is_uppercase()) {
            if n.impl_type.as_deref() != Some(last_q) {
                return false;
            }
            // Any leading module segments must suffix-match the module
            // path.
            return module_suffix_matches(&n.module, &qualifier[..qualifier.len() - 1]);
        }
        n.impl_type.is_none() && module_suffix_matches(&n.module, qualifier)
    };
    let viable: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&id| {
            let n = &nodes[id];
            if let Some(tc) = &target_crate {
                if &n.krate != tc {
                    return false;
                }
            } else if !deps_allow(deps, caller_crate, &n.krate) {
                return false;
            }
            matches_qualifier(n)
        })
        .collect();
    if viable.is_empty() {
        return Resolution::External;
    }
    // Prefer same-crate when the crate was not pinned.
    let same_crate: Vec<usize> = viable
        .iter()
        .copied()
        .filter(|&id| &nodes[id].krate == caller_crate)
        .collect();
    let chosen = if target_crate.is_none() && !same_crate.is_empty() {
        same_crate
    } else {
        viable
    };
    if chosen.len() > METHOD_CANDIDATE_CAP {
        Resolution::TooAmbiguous
    } else {
        Resolution::Targets(chosen)
    }
}

/// Does the node's module path end with the qualifier segments?
fn module_suffix_matches(module: &[String], qualifier: &[String]) -> bool {
    if qualifier.is_empty() {
        return true;
    }
    if qualifier.len() > module.len() {
        return false;
    }
    module[module.len() - qualifier.len()..]
        .iter()
        .zip(qualifier)
        .all(|(a, b)| a == b)
}

// ---------------------------------------------------------------------
// Dumps.

impl Graph {
    /// The `--graph` JSON document (deep_json, stable field order).
    pub fn to_json(&self) -> String {
        use deep_json::Value;
        let nodes: Vec<Value> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(id, n)| {
                Value::Object(vec![
                    ("id".to_string(), Value::Number(id as f64)),
                    ("fn".to_string(), Value::String(n.qualified())),
                    ("file".to_string(), Value::String(n.rel.clone())),
                    ("line".to_string(), Value::Number(n.line as f64)),
                ])
            })
            .collect();
        let edges: Vec<Value> = self
            .edges
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("from".to_string(), Value::Number(e.from as f64)),
                    ("to".to_string(), Value::Number(e.to as f64)),
                    ("line".to_string(), Value::Number(e.line as f64)),
                    ("guarded".to_string(), Value::Bool(e.guarded)),
                ])
            })
            .collect();
        let mut per_crate: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for n in &self.nodes {
            per_crate.entry(&n.krate).or_default().0 += 1;
        }
        for e in &self.edges {
            per_crate.entry(&self.nodes[e.from].krate).or_default().1 += 1;
        }
        let crates: Vec<(String, Value)> = per_crate
            .into_iter()
            .map(|(k, (fns, calls))| {
                (
                    k.to_string(),
                    Value::Object(vec![
                        ("functions".to_string(), Value::Number(fns as f64)),
                        ("call_edges".to_string(), Value::Number(calls as f64)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("version".to_string(), Value::Number(1.0)),
            (
                "functions".to_string(),
                Value::Number(self.nodes.len() as f64),
            ),
            (
                "call_edges".to_string(),
                Value::Number(self.edges.len() as f64),
            ),
            (
                "dropped_ambiguous_call_sites".to_string(),
                Value::Number(self.dropped_ambiguous as f64),
            ),
            ("crates".to_string(), Value::Object(crates)),
            ("nodes".to_string(), Value::Array(nodes)),
            ("edges".to_string(), Value::Array(edges)),
        ])
        .to_json_pretty()
    }

    /// The `--graph-md` summary: per-crate counts and
    /// the top fan-in functions among sim-scope files (`is_sim` decides
    /// which files count as simulation scope).
    pub fn to_markdown(&self, is_sim: &dyn Fn(&str) -> bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# deep-lint workspace call graph");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Generated by `cargo run -p deep-lint -- --graph-md PATH` (DESIGN.md §17); \
             an on-demand dump, not a committed file."
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "- **{} functions**, **{} resolved call edges**, {} call sites dropped \
             as too ambiguous (over the {}-candidate cap).",
            self.nodes.len(),
            self.edges.len(),
            self.dropped_ambiguous,
            METHOD_CANDIDATE_CAP,
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "## Per-crate size");
        let _ = writeln!(out);
        let _ = writeln!(out, "| crate | functions | call edges (outgoing) |");
        let _ = writeln!(out, "|---|---:|---:|");
        let mut per_crate: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for n in &self.nodes {
            per_crate.entry(&n.krate).or_default().0 += 1;
        }
        for e in &self.edges {
            per_crate.entry(&self.nodes[e.from].krate).or_default().1 += 1;
        }
        for (k, (fns, calls)) in &per_crate {
            let _ = writeln!(out, "| `{k}` | {fns} | {calls} |");
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "## Top fan-in functions in simulation scope");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Call-edge fan-in of functions defined in D2-covered (simulation-scope) \
             files — the functions whose determinism the most callers lean on."
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "| function | file | fan-in |");
        let _ = writeln!(out, "|---|---|---:|");
        let mut ranked: Vec<(usize, usize)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| is_sim(&n.rel))
            .map(|(id, _)| (self.incoming[id].len(), id))
            .filter(|(fan, _)| *fan > 0)
            .collect();
        ranked.sort_by(|a, b| {
            b.0.cmp(&a.0).then(
                self.nodes[a.1]
                    .qualified()
                    .cmp(&self.nodes[b.1].qualified()),
            )
        });
        for (fan, id) in ranked.into_iter().take(15) {
            let n = &self.nodes[id];
            let _ = writeln!(
                out,
                "| `{}` | `{}:{}` | {} |",
                n.qualified(),
                n.rel,
                n.line,
                fan
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;

    fn graph_of(files: &[(&str, &str)]) -> (Graph, Vec<FileSummary>) {
        let summaries: Vec<FileSummary> =
            files.iter().map(|(rel, src)| extract(rel, src)).collect();
        let g = build(&summaries, &Deps::new());
        (g, summaries)
    }

    fn edge_names(g: &Graph) -> Vec<(String, String)> {
        g.edges
            .iter()
            .map(|e| (g.nodes[e.from].qualified(), g.nodes[e.to].qualified()))
            .collect()
    }

    #[test]
    fn free_and_path_calls_resolve_across_files() {
        let (g, _) = graph_of(&[
            (
                "crates/core/src/lib.rs",
                "pub fn entry() { helper(); deep_json::digest(1); }\nfn helper() {}",
            ),
            (
                "crates/json/src/lib.rs",
                "pub fn digest(x: u64) -> u64 { x }",
            ),
        ]);
        let edges = edge_names(&g);
        assert!(edges.contains(&(
            "deep_core::entry".to_string(),
            "deep_core::helper".to_string()
        )));
        assert!(edges.contains(&(
            "deep_core::entry".to_string(),
            "deep_json::digest".to_string()
        )));
    }

    #[test]
    fn use_aliases_and_assoc_fns_resolve() {
        let (g, _) = graph_of(&[
            (
                "crates/serve/src/scheduler.rs",
                "use deep_scenario::Scenario;\n\
                 pub fn admit() { let s = Scenario::from_value(); s.expand(); }",
            ),
            (
                "crates/scenario/src/schema.rs",
                "pub struct Scenario;\n\
                 impl Scenario {\n    pub fn from_value() -> Scenario { Scenario }\n\
                 \n    pub fn expand(&self) {}\n}",
            ),
        ]);
        let edges = edge_names(&g);
        assert!(
            edges.contains(&(
                "deep_serve::scheduler::admit".to_string(),
                "deep_scenario::schema::Scenario::from_value".to_string()
            )),
            "{edges:?}"
        );
        assert!(
            edges.contains(&(
                "deep_serve::scheduler::admit".to_string(),
                "deep_scenario::schema::Scenario::expand".to_string()
            )),
            "{edges:?}"
        );
    }

    #[test]
    fn std_trait_methods_do_not_form_edges() {
        let (g, _) = graph_of(&[
            (
                "crates/core/src/lib.rs",
                "pub fn f(x: &X) { let _ = x.clone(); let _ = x.next(); }",
            ),
            (
                "crates/json/src/lib.rs",
                "pub struct Y;\nimpl Y {\n    pub fn clone(&self) -> Y { Y }\n    pub fn next(&self) {}\n}",
            ),
        ]);
        assert!(g.edges.is_empty(), "{:?}", edge_names(&g));
    }

    #[test]
    fn dependency_filter_blocks_unrelated_crates() {
        let files = [
            ("crates/core/src/lib.rs", "pub fn f(x: &X) { x.submit(); }"),
            (
                "crates/serve/src/scheduler.rs",
                "pub struct Scheduler;\nimpl Scheduler {\n    pub fn submit(&self) {}\n}",
            ),
        ];
        let summaries: Vec<FileSummary> =
            files.iter().map(|(rel, src)| extract(rel, src)).collect();
        // deep_core does not depend on deep_serve: no edge.
        let mut deps = Deps::new();
        deps.insert("deep_core".to_string(), BTreeSet::new());
        let g = build(&summaries, &deps);
        assert!(g.edges.is_empty());
        // Permissive (empty map): the fuzzy method edge exists.
        let g = build(&summaries, &Deps::new());
        assert_eq!(g.edges.len(), 1);
    }

    #[test]
    fn over_ambiguous_methods_are_dropped_and_counted() {
        let mut files: Vec<(String, String)> = vec![(
            "crates/core/src/lib.rs".to_string(),
            "pub fn f(x: &X) { x.busy(); }".to_string(),
        )];
        for i in 0..10 {
            files.push((
                format!("crates/json/src/m{i}.rs"),
                format!("pub struct T{i};\nimpl T{i} {{\n    pub fn busy(&self) {{}}\n}}"),
            ));
        }
        let summaries: Vec<FileSummary> =
            files.iter().map(|(rel, src)| extract(rel, src)).collect();
        let g = build(&summaries, &Deps::new());
        assert!(g.edges.is_empty());
        assert_eq!(g.dropped_ambiguous, 1);
    }

    #[test]
    fn json_and_markdown_dumps_render() {
        let (g, _) = graph_of(&[(
            "crates/core/src/lib.rs",
            "pub fn entry() { helper(); }\npub fn helper() {}",
        )]);
        let doc = deep_json::from_str(&g.to_json()).unwrap();
        assert_eq!(doc.get("functions").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(doc.get("call_edges").and_then(|v| v.as_u64()), Some(1));
        let md = g.to_markdown(&|_| true);
        assert!(md.contains("| `deep_core` | 2 | 1 |"), "{md}");
        assert!(md.contains("deep_core::helper"), "{md}");
    }
}
