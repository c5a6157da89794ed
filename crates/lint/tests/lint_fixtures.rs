//! The fixture corpus: every rule must fire on exactly its bad fixture
//! (true positives, with the expected count) and stay silent on its
//! good twin (true negatives). This is the linter's own golden test —
//! a rule change that widens or narrows a rule shows up here first.

use deep_lint::{check_crate_root, check_manifest, lint_source, Rule, RuleSet};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

/// Rule histogram of a full-rule run over a fixture.
fn fired(name: &str) -> BTreeMap<Rule, usize> {
    let mut hist = BTreeMap::new();
    for f in lint_source(name, &fixture(name), &RuleSet::all()) {
        *hist.entry(f.rule).or_insert(0) += 1;
    }
    hist
}

#[test]
fn d1_bad_fires_exactly_unordered_iter() {
    assert_eq!(
        fired("d1_bad.rs"),
        BTreeMap::from([(Rule::UnorderedIter, 3)])
    );
}

#[test]
fn d1_good_is_clean() {
    assert_eq!(fired("d1_good.rs"), BTreeMap::new());
}

#[test]
fn d2_bad_fires_exactly_ambient_authority() {
    assert_eq!(
        fired("d2_bad.rs"),
        BTreeMap::from([(Rule::AmbientAuthority, 4)]),
        "import + Instant::now + env::var + thread_rng"
    );
}

#[test]
fn d2_good_is_clean() {
    assert_eq!(fired("d2_good.rs"), BTreeMap::new());
}

#[test]
fn d3_bad_fires_exactly_unordered_float_reduce() {
    assert_eq!(
        fired("d3_bad.rs"),
        BTreeMap::from([(Rule::UnorderedFloatReduce, 2)])
    );
}

#[test]
fn d3_good_is_clean() {
    assert_eq!(fired("d3_good.rs"), BTreeMap::new());
}

#[test]
fn s1_bad_fires_exactly_undocumented_unsafe() {
    assert_eq!(
        fired("s1_bad.rs"),
        BTreeMap::from([(Rule::UndocumentedUnsafe, 3)]),
        "block + fn + impl"
    );
}

#[test]
fn s1_good_is_clean() {
    assert_eq!(fired("s1_good.rs"), BTreeMap::new());
}

#[test]
fn s2_root_check_distinguishes_fixtures() {
    let bad = check_crate_root("s2_bad_root.rs", &fixture("s2_bad_root.rs"))
        .expect("missing attribute must be found");
    assert_eq!(bad.rule, Rule::MissingForbidUnsafe);
    assert!(
        check_crate_root("s2_good_root.rs", &fixture("s2_good_root.rs")).is_none(),
        "present attribute must satisfy S2"
    );
}

#[test]
fn d4_manifest_check_distinguishes_fixtures() {
    let bad = fixture("exempt_dep_bad/Cargo.toml");
    let findings = check_manifest("crates/core/Cargo.toml", &bad);
    assert_eq!(findings.len(), 2, "key spelling + table-header spelling");
    for f in &findings {
        assert_eq!(f.rule, Rule::ExemptDependency);
        let line = bad.lines().nth(f.line as usize - 1).unwrap_or("");
        assert!(line.contains("FIRE"), "finding at unmarked line: {f}");
    }
    // The same imports are fine from a crate that is itself exempt.
    assert!(check_manifest("crates/serve/Cargo.toml", &bad).is_empty());
    let good = fixture("exempt_dep_good/Cargo.toml");
    assert!(check_manifest("crates/core/Cargo.toml", &good).is_empty());
}

#[test]
fn bad_pragmas_report_and_do_not_suppress() {
    assert_eq!(
        fired("pragma_bad.rs"),
        BTreeMap::from([(Rule::MalformedPragma, 3), (Rule::UnorderedIter, 1)])
    );
}

#[test]
fn findings_anchor_to_the_marked_lines() {
    // Spot-check file:line anchors on the D1 fixture: every finding
    // lands on a line carrying a FIRE marker.
    let src = fixture("d1_bad.rs");
    let marked: Vec<u32> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("FIRE"))
        .map(|(i, _)| i as u32 + 1)
        .collect();
    let findings = lint_source("d1_bad.rs", &src, &RuleSet::all());
    for f in &findings {
        // A FIRE marker sits on the finding line or the line before it
        // (rustfmt may split a chain so the marker trails the receiver).
        assert!(
            marked.contains(&f.line) || marked.contains(&(f.line + 1)),
            "finding at unmarked line {}: {f}",
            f.line
        );
    }
}

#[test]
fn rule_toggles_mask_findings() {
    // The same bad fixture is silent when its rule is disabled — the
    // per-rule toggles the CLI exposes really gate the engine.
    let only_d2 = RuleSet::none().with(Rule::AmbientAuthority);
    assert!(lint_source("d1_bad.rs", &fixture("d1_bad.rs"), &only_d2).is_empty());
    let no_d1 = RuleSet::all().without(Rule::UnorderedIter);
    assert!(lint_source("d1_bad.rs", &fixture("d1_bad.rs"), &no_d1).is_empty());
}
