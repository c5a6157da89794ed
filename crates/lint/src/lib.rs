#![forbid(unsafe_code)]
//! `deep-lint` — the workspace determinism & unsafe-hygiene pass.
//!
//! The repo's core claim is that every experiment emits bit-identical
//! output at any thread count (DESIGN §12). That invariant is enforced
//! at runtime by golden-digest tests — this crate enforces it at *check
//! time*, before a stray `HashMap` iteration or wall-clock read ever
//! reaches a digest. Like `vendor/*`, it is fully offline: its own
//! lexer ([`lexer`]), its own rule engine ([`rules`]), no dependencies.
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
//!
//! D4 (`exempt-dependency`) is a per-package check on the same packages'
//! manifests (see [`check_manifest`]): it closes the one hole the
//! path-scoped D2 leaves, a covered crate importing an exempt one.

pub mod lexer;
pub mod rules;

pub use rules::{check_crate_root, lint_source, Finding, Rule, RuleSet};

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

/// Walk the workspace at `root` and apply every enabled rule: the
/// file-local rules at each file's path mask, S2 on every crate root,
/// D4 on every package manifest. Findings come back sorted by path,
/// line, rule. `enabled` masks rules globally on top of the per-path
/// scope policy.
pub fn scan_workspace(root: &Path, enabled: &RuleSet) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    let roots = crate_roots(root)?;
    let mut findings = Vec::new();
    for (abs, rel) in &files {
        let source = fs::read_to_string(abs)?;
        findings.extend(lint_source(rel, &source, &rules_for_path(rel)));
        if roots.contains(rel) {
            findings.extend(check_crate_root(rel, &source));
        }
    }
    for dir in package_dirs(root)? {
        let rel = format!("{dir}Cargo.toml");
        findings.extend(check_manifest(&rel, &fs::read_to_string(root.join(&rel))?));
    }
    findings.retain(|f| enabled.has(f.rule));
    findings.sort();
    findings.dedup();
    Ok(findings)
}

/// D4: check one package manifest (`rel` is its workspace-relative
/// path, `…/Cargo.toml`). A package whose library is D2-covered may not
/// list a D2-exempt workspace library under `[dependencies]`: the
/// exempt crate reads clocks and the environment by design, and a call
/// into it would carry that into simulation results where file-local D2
/// cannot see it. Both sides are read off [`rules_for_path`] through
/// the `deep-<dir>` ↔ `crates/<dir>` naming convention.
/// `[dev-dependencies]` are free (tests drive daemons legitimately),
/// and cargo's acyclicity already keeps every crate an exempt library
/// depends on from depending back on it.
pub fn check_manifest(rel: &str, text: &str) -> Vec<Finding> {
    let d2_covered =
        |dir: &str| rules_for_path(&format!("{dir}src/lib.rs")).has(Rule::AmbientAuthority);
    let mut findings = Vec::new();
    if !d2_covered(rel.strip_suffix("Cargo.toml").unwrap_or(rel)) {
        return findings;
    }
    let mut in_deps = false;
    for (i, line) in text.lines().enumerate() {
        let t = line.split('#').next().unwrap_or("").trim();
        // A dependency is named by a key under `[dependencies]` or by a
        // `[dependencies.<name>]` table header.
        let dep = if let Some(header) = t.strip_prefix('[') {
            in_deps = t == "[dependencies]";
            header
                .strip_prefix("dependencies.")
                .map(|name| name.trim_end_matches(']'))
        } else if in_deps {
            t.split(['.', '=', ' ', '\t']).next()
        } else {
            None
        };
        let Some(dir) = dep.and_then(|name| name.strip_prefix("deep-")) else {
            continue;
        };
        if !d2_covered(&format!("crates/{dir}/")) {
            findings.push(Finding {
                path: rel.to_string(),
                line: i as u32 + 1,
                rule: Rule::ExemptDependency,
                message: format!(
                    "simulation crate depends on `deep-{dir}`, which is exempt from \
                     ambient-authority (it reads wall clocks / the environment by \
                     design) — move the shared code into a covered crate, or make \
                     it a dev-dependency if only tests need it"
                ),
            });
        }
    }
    findings
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

/// Workspace-relative directory prefixes (`""` for the root package,
/// `crates/<name>/` for each member) of every non-vendor package.
fn package_dirs(root: &Path) -> io::Result<Vec<String>> {
    let mut dirs = vec![String::new()];
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
            dirs.push(format!("crates/{name}/"));
        }
    }
    Ok(dirs)
}

/// Crate-root files (workspace-relative) of every non-vendor package.
pub fn crate_roots(root: &Path) -> io::Result<Vec<String>> {
    let mut roots = Vec::new();
    for prefix in package_dirs(root)? {
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
}
