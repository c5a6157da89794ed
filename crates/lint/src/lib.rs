#![forbid(unsafe_code)]
//! `deep-lint` — the workspace determinism & unsafe-hygiene pass.
//!
//! The repo's core claim is that every experiment emits bit-identical
//! output at any thread count (DESIGN §12). That invariant is enforced
//! at runtime by golden-digest tests — this crate enforces it at *check
//! time*, before a stray `HashMap` iteration or wall-clock read ever
//! reaches a digest. Like `vendor/*`, it is fully offline: its own
//! lexer ([`lexer`]), its own rule engine ([`rules`]), no external
//! dependencies beyond the workspace's `deep-json` for `--json` output.
//!
//! Rule catalogue, pragma grammar, and the policy for `allow` pragmas
//! live in DESIGN.md §13 and CONTRIBUTING.md.
//!
//! ## Scope policy
//!
//! Rules apply by path (see [`rules_for_path`]):
//!
//! * `vendor/**` — S1 only. Vendored shims are external idiom; we audit
//!   their `unsafe` but do not impose sim-determinism rules on them.
//! * `crates/bench/src/bin/**` — everything except D2: driver binaries
//!   legitimately read wall clocks (the per-experiment timing table)
//!   and CLI args. The *experiment logic* they call lives in
//!   `crates/bench/src/experiments/`, which is fully in scope.
//! * `crates/lint/**` — everything except D2 (the linter reads the
//!   process environment and filesystem by design).
//! * `crates/serve/**` — everything except D2: the daemon is host-side
//!   service plumbing (wall-clock service timing, CLI args, socket
//!   timeouts), not simulation. The simulation it schedules runs in
//!   `deep-core`/`deep-bench`, which stay fully in scope — the daemon
//!   cannot leak nondeterminism into results it merely transports.
//! * everything else (`crates/**`, `src/**`, `tests/**`, `examples/**`)
//!   — all rules.
//!
//! S2 (`missing-forbid-unsafe`) is a per-crate check on root files
//! (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`) of every non-vendor
//! package; test and example targets inherit scrutiny from S1 instead.

pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod taint;

pub use rules::{check_crate_root, lint_source, Finding, Rule, RuleSet};

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The file-scoped rules that apply to a workspace-relative path
/// (`/`-separated). Returns [`RuleSet::none`] for paths that are not
/// linted at all (fixtures, generated artifacts).
pub fn rules_for_path(rel: &str) -> RuleSet {
    if rel.contains("tests/fixtures/") || rel.starts_with("target/") {
        return RuleSet::none();
    }
    if rel.starts_with("vendor/") {
        return RuleSet::none()
            .with(Rule::UndocumentedUnsafe)
            .with(Rule::MalformedPragma);
    }
    let all = RuleSet::all();
    if rel.starts_with("crates/bench/src/bin/")
        || rel.starts_with("crates/lint/")
        || rel.starts_with("crates/serve/")
        || rel.starts_with("crates/scenario/src/bin/")
    {
        return all.without(Rule::AmbientAuthority);
    }
    all
}

/// A full scan's output: findings plus the call graph (for `--graph`
/// and `--graph-md`).
pub struct ScanResult {
    pub findings: Vec<Finding>,
    pub graph: graph::Graph,
}

/// Walk the workspace at `root` and apply every enabled rule. Findings
/// come back sorted by path, line, rule. `enabled` masks rules globally
/// on top of the per-path scope policy.
pub fn scan_workspace(root: &Path, enabled: &RuleSet) -> io::Result<ScanResult> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    let sources = files
        .iter()
        .map(|(abs, _)| fs::read_to_string(abs))
        .collect::<io::Result<Vec<String>>>()?;
    let files: Vec<(&str, &str)> = files
        .iter()
        .zip(&sources)
        .map(|((_, rel), source)| (rel.as_str(), source.as_str()))
        .collect();
    let roots = crate_roots(root)?.into_iter().collect();
    Ok(analyze(&files, &roots, &workspace_deps(root)?, enabled))
}

/// In-memory analysis of a set of `(rel path, source)` files — the
/// interprocedural analogue of [`lint_source`], used by the fixture
/// corpus for cross-file cases. Applies the per-path scope policy, no
/// crate-root checks, and an empty (permissive) dependency map.
pub fn analyze_sources(files: &[(&str, &str)], enabled: &RuleSet) -> Vec<Finding> {
    analyze(files, &BTreeSet::new(), &graph::Deps::new(), enabled).findings
}

/// The one analysis path: file-local rules at each file's path mask,
/// S2 on the files named in `roots`, then the interprocedural rules
/// over the call graph resolved against `deps`.
fn analyze(
    files: &[(&str, &str)],
    roots: &BTreeSet<String>,
    deps: &graph::Deps,
    enabled: &RuleSet,
) -> ScanResult {
    let mut summaries = Vec::with_capacity(files.len());
    let mut findings = Vec::new();
    for (rel, source) in files {
        findings.extend(lint_source(rel, source, &rules_for_path(rel)));
        if roots.contains(*rel) {
            findings.extend(check_crate_root(rel, source));
        }
        summaries.push(items::extract(rel, source));
    }
    findings.retain(|f| enabled.has(f.rule));
    let graph = graph::build(&summaries, deps);
    findings.extend(taint::workspace_findings(&graph, &summaries, enabled));
    findings.sort();
    findings.dedup();
    ScanResult { findings, graph }
}

/// Parse the workspace's `Cargo.toml` manifests into a crate-import-name
/// dependency map, used to filter fuzzy method-call edges. Only the
/// `[dependencies]` / `[dev-dependencies]` section headers are honoured
/// (`[workspace.dependencies]` deliberately does not match: it lists
/// everything).
pub fn workspace_deps(root: &Path) -> io::Result<graph::Deps> {
    let mut manifests: Vec<(String, PathBuf)> =
        vec![("deep_repro".to_string(), root.join("Cargo.toml"))];
    for dir in ["crates", "vendor"] {
        let base = root.join(dir);
        if !base.is_dir() {
            continue;
        }
        let mut members: Vec<_> = fs::read_dir(&base)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
            .collect();
        members.sort();
        for m in members {
            let name = m.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let krate = if dir == "crates" {
                format!("deep_{}", name.replace('-', "_"))
            } else {
                name.replace('-', "_")
            };
            manifests.push((krate, m.join("Cargo.toml")));
        }
    }
    let mut deps = graph::Deps::new();
    for (krate, path) in manifests {
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let mut in_deps = false;
        let mut set = std::collections::BTreeSet::new();
        for line in text.lines() {
            let t = line.trim();
            if t.starts_with('[') {
                in_deps = t == "[dependencies]" || t == "[dev-dependencies]";
                continue;
            }
            if !in_deps || t.is_empty() || t.starts_with('#') {
                continue;
            }
            let key: String = t
                .chars()
                .take_while(|c| !matches!(c, '.' | '=' | ' ' | '\t'))
                .collect();
            if !key.is_empty() {
                set.insert(key.replace('-', "_"));
            }
        }
        deps.insert(krate, set);
    }
    Ok(deps)
}

/// Directories never descended into.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "node_modules"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, String)>) -> io::Result<()> {
    // Sorted traversal: the lint's own output order must be
    // deterministic — same discipline it enforces.
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((path, rel));
        }
    }
    Ok(())
}

/// Crate-root files (workspace-relative) of every non-vendor package:
/// the root package plus each `crates/*` member.
pub fn crate_roots(root: &Path) -> io::Result<Vec<String>> {
    let mut pkg_dirs = vec![String::new()];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<_> = fs::read_dir(&crates)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
            .collect();
        members.sort();
        for m in members {
            let name = m.file_name().and_then(|n| n.to_str()).unwrap_or("");
            pkg_dirs.push(format!("crates/{name}"));
        }
    }
    let mut roots = Vec::new();
    for dir in pkg_dirs {
        let prefix = if dir.is_empty() {
            String::new()
        } else {
            format!("{dir}/")
        };
        for candidate in ["src/lib.rs", "src/main.rs"] {
            if root.join(&prefix).join(candidate).is_file() {
                roots.push(format!("{prefix}{candidate}"));
            }
        }
        let bin_dir = root.join(&prefix).join("src/bin");
        if bin_dir.is_dir() {
            let mut bins: Vec<_> = fs::read_dir(&bin_dir)?
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "rs"))
                .collect();
            bins.sort();
            for b in bins {
                let name = b.file_name().and_then(|n| n.to_str()).unwrap_or("");
                roots.push(format!("{prefix}src/bin/{name}"));
            }
        }
    }
    Ok(roots)
}

/// Render findings as the stable JSON report consumed by CI.
pub fn findings_to_json(findings: &[Finding]) -> String {
    use deep_json::Value;
    let items: Vec<Value> = findings
        .iter()
        .map(|f| {
            Value::Object(vec![
                ("rule".to_string(), Value::String(f.rule.name().to_string())),
                ("path".to_string(), Value::String(f.path.clone())),
                ("line".to_string(), Value::Number(f.line as f64)),
                ("message".to_string(), Value::String(f.message.clone())),
            ])
        })
        .collect();
    Value::Object(vec![
        ("version".to_string(), Value::Number(1.0)),
        ("count".to_string(), Value::Number(findings.len() as f64)),
        ("findings".to_string(), Value::Array(items)),
    ])
    .to_json_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_policy_masks_by_path() {
        assert!(!rules_for_path("vendor/rayon/src/pool.rs").has(Rule::UnorderedIter));
        assert!(rules_for_path("vendor/rayon/src/pool.rs").has(Rule::UndocumentedUnsafe));
        assert!(
            !rules_for_path("crates/bench/src/bin/run_experiments.rs").has(Rule::AmbientAuthority)
        );
        assert!(
            rules_for_path("crates/bench/src/experiments/f02_evolution.rs")
                .has(Rule::AmbientAuthority)
        );
        assert!(rules_for_path("crates/simkit/src/kernel.rs").has(Rule::UnorderedIter));
        assert!(!rules_for_path("crates/lint/tests/fixtures/d1_bad.rs").has(Rule::UnorderedIter));
        // The serve daemon is D2-exempt service plumbing, but every
        // other rule still applies to it — and the sim crates it
        // drives keep full D2 coverage.
        assert!(!rules_for_path("crates/serve/src/scheduler.rs").has(Rule::AmbientAuthority));
        assert!(rules_for_path("crates/serve/src/scheduler.rs").has(Rule::UnorderedIter));
        assert!(rules_for_path("crates/core/src/resilience.rs").has(Rule::AmbientAuthority));
        assert!(rules_for_path("crates/bench/src/sweep.rs").has(Rule::AmbientAuthority));
        // The run_scenario CLI reads argv/files by design; the library
        // side of the scenario crate stays fully covered.
        assert!(
            !rules_for_path("crates/scenario/src/bin/run_scenario.rs").has(Rule::AmbientAuthority)
        );
        assert!(rules_for_path("crates/scenario/src/schema.rs").has(Rule::AmbientAuthority));
    }

    #[test]
    fn json_report_shape_is_stable() {
        let f = Finding {
            path: "a.rs".into(),
            line: 3,
            rule: Rule::UnorderedIter,
            message: "m".into(),
        };
        let doc = deep_json::from_str(&findings_to_json(&[f])).unwrap();
        assert_eq!(doc.get("count").and_then(|v| v.as_u64()), Some(1));
        let first = &doc.get("findings").unwrap().as_array().unwrap()[0];
        assert_eq!(
            first.get("rule").and_then(|v| v.as_str()),
            Some("unordered-iter")
        );
        assert_eq!(first.get("line").and_then(|v| v.as_u64()), Some(3));
    }
}
