//! Scenario conformance suite: every fixture under
//! `tests/scenario_fixtures/` is either `valid_*.toml` (must parse,
//! validate, and round-trip through the serializer) or
//! `invalid_*.toml` (must fail with the exact error named on its
//! `# expect-error:` first line). The corpus is the executable
//! specification of the DSL's error surface — any wording change must
//! touch the fixture too.

use std::path::PathBuf;

use deep_scenario::Scenario;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/scenario_fixtures")
}

/// Sorted fixture list with the given filename prefix.
fn fixtures(prefix: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(fixture_dir()).expect("fixture dir exists") {
        let path = entry.expect("readable dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with(prefix) && name.ends_with(".toml") {
            let text = std::fs::read_to_string(&path).expect("readable fixture");
            out.push((name, text));
        }
    }
    out.sort();
    out
}

#[test]
fn corpus_is_large_enough() {
    assert!(
        fixtures("valid_").len() >= 10,
        "need at least 10 valid fixtures, found {}",
        fixtures("valid_").len()
    );
    assert!(
        fixtures("invalid_").len() >= 8,
        "need at least 8 invalid fixtures, found {}",
        fixtures("invalid_").len()
    );
}

#[test]
fn valid_fixtures_parse_and_validate() {
    for (name, text) in fixtures("valid_") {
        let sc = Scenario::from_toml_str(&text)
            .unwrap_or_else(|e| panic!("{name}: expected valid, got error: {e}"));
        assert!(!sc.name.is_empty(), "{name}: scenario name empty");
    }
}

#[test]
fn valid_fixtures_round_trip_through_the_serializer() {
    for (name, text) in fixtures("valid_") {
        let doc = deep_scenario::parse_toml(&text)
            .unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        let serialized = deep_scenario::to_toml(&doc)
            .unwrap_or_else(|e| panic!("{name}: serialize failed: {e}"));
        let back = deep_scenario::parse_toml(&serialized)
            .unwrap_or_else(|e| panic!("{name}: reparse failed: {e}\n{serialized}"));
        assert_eq!(back, doc, "{name}: round trip changed the document");
        // And the canonical digest is untouched by the rewrite.
        assert_eq!(
            deep_json::digest::digest(&back),
            deep_json::digest::digest(&doc),
            "{name}: round trip changed the digest"
        );
    }
}

#[test]
fn invalid_fixtures_fail_with_the_exact_message() {
    let fixtures = fixtures("invalid_");
    assert!(!fixtures.is_empty());
    for (name, text) in fixtures {
        let first = text.lines().next().unwrap_or("");
        let want = first
            .strip_prefix("# expect-error: ")
            .unwrap_or_else(|| panic!("{name}: first line must be '# expect-error: <message>'"));
        let got = Scenario::from_toml_str(&text)
            .err()
            .unwrap_or_else(|| panic!("{name}: expected an error, scenario validated"));
        assert_eq!(got, want, "{name}: error message drifted");
    }
}

#[test]
fn reordered_document_digests_identically() {
    let read = |n: &str| std::fs::read_to_string(fixture_dir().join(n)).unwrap();
    let a = deep_scenario::parse_toml(&read("valid_f03b_equivalent.toml")).unwrap();
    let b = deep_scenario::parse_toml(&read("valid_reordered_f03b.toml")).unwrap();
    assert_ne!(a, b, "fixtures differ in member order by construction");
    assert_eq!(
        deep_json::digest::digest_hex(&a),
        deep_json::digest::digest_hex(&b),
        "digest must be invariant under key reordering and whitespace"
    );
}

/// Each key table in `docs/scenario.md` — in order `[scenario]`,
/// `[machine]`, the resilience and scalability `[app]` skeletons and
/// `[trace]` — lists exactly the keys its section accepts.
#[test]
fn docs_key_tables_match_the_schema() {
    use deep_scenario::schema::keys;
    let docs =
        std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("docs/scenario.md"))
            .expect("readable docs/scenario.md");
    // A key table opens with a `| key |` header; each row names its key
    // in the first cell.
    let mut tables: Vec<Vec<&str>> = Vec::new();
    let mut open = false;
    for line in docs.lines() {
        if line.starts_with("| key |") {
            tables.push(Vec::new());
            open = true;
        } else if !line.starts_with('|') {
            open = false;
        } else if let (true, Some(row), Some(t)) =
            (open, line.strip_prefix("| `"), tables.last_mut())
        {
            t.push(row.split('`').next().unwrap_or_default());
        }
    }
    let want = [
        keys::SCENARIO,
        keys::MACHINE,
        keys::RESILIENCE_APP,
        keys::SCALABILITY_APP,
        keys::TRACE,
    ];
    assert_eq!(tables.len(), want.len(), "key tables found: {tables:?}");
    for (mut table, want) in tables.into_iter().zip(want) {
        let mut want = want.to_vec();
        table.sort();
        want.sort();
        assert_eq!(table, want);
    }
}
