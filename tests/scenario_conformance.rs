//! Scenario conformance suite: every fixture under
//! `tests/scenario_fixtures/` is either `valid_*.toml` (must parse,
//! validate, and round-trip through the serializer) or
//! `invalid_*.toml` (must fail with the exact error named on its
//! `# expect-error:` first line). The corpus is the executable
//! specification of the DSL's error surface — any wording change must
//! touch the fixture too.

use std::path::PathBuf;

use deep_scenario::schema::{
    Scalar, Ty, LINK_FLAPS, MACHINE, POINT, POISSON, RESILIENCE_APP, SCALABILITY_APP, SCENARIO,
    TRACE,
};
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

fn docs() -> String {
    std::fs::read_to_string(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("docs/scenario.md"))
        .expect("readable docs/scenario.md")
}

/// A key's range cell as `docs/scenario.md` writes it.
fn range_cell(ty: Ty) -> String {
    match ty {
        Ty::Str => "string".to_string(),
        Ty::Chars(lo, hi) => format!("{lo}..={hi} chars"),
        Ty::Bool => "bool".to_string(),
        Ty::U64 => "u64".to_string(),
        Ty::Int(lo, hi) => format!("{lo}..={hi}"),
        Ty::Num => "number".to_string(),
        Ty::Positive => "> 0".to_string(),
        Ty::Unit => "0..=1".to_string(),
        Ty::Choice(names) | Ty::Select(names) => names
            .iter()
            .map(|n| format!("`{n}`"))
            .collect::<Vec<_>>()
            .join(" \\| "),
        Ty::Table => "table".to_string(),
        Ty::Tables => "array of tables".to_string(),
        Ty::Parsed(text) => text.to_string(),
    }
}

/// A key's default cell as `docs/scenario.md` writes it.
fn default_cell(default: Option<Scalar>) -> String {
    match default {
        None => "—".to_string(),
        Some(Scalar::Int(n)) => n.to_string(),
        Some(Scalar::Num(x)) => x.to_string(),
        Some(Scalar::Bool(b)) => b.to_string(),
        Some(Scalar::Str(s)) => format!("`{s}`"),
    }
}

/// Each key table in `docs/scenario.md` — in order `[scenario]`,
/// `[machine]`, the resilience and scalability `[app]` skeletons,
/// `[[sweep.points]]`, `[faults.poisson]`, `[faults.link_flaps]` and
/// `[trace]` — lists its
/// section's keys in schema order, with the schema's required, range
/// and default columns.
#[test]
fn docs_key_tables_match_the_schema() {
    let docs = docs();
    // A key table opens with a `| key |` header; each row is
    // `| key | required | range | default | meaning |`.
    let mut tables: Vec<Vec<[String; 4]>> = Vec::new();
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
            let cells: Vec<&str> = row.split(" | ").collect();
            assert!(cells.len() >= 4, "short key-table row: {line}");
            let key = cells[0].trim_end_matches('`');
            t.push([key, cells[1], cells[2], cells[3]].map(str::to_string));
        }
    }
    let want = [
        SCENARIO,
        MACHINE,
        RESILIENCE_APP,
        SCALABILITY_APP,
        POINT,
        POISSON,
        LINK_FLAPS,
        TRACE,
    ];
    assert_eq!(tables.len(), want.len(), "key tables found: {tables:?}");
    for (table, want) in tables.into_iter().zip(want) {
        let want: Vec<[String; 4]> = want
            .iter()
            .map(|k| {
                [
                    k.name.to_string(),
                    if k.required { "yes" } else { "no" }.to_string(),
                    range_cell(k.ty),
                    default_cell(k.default),
                ]
            })
            .collect();
        assert_eq!(table, want);
    }
}

/// The annotated example in `docs/scenario.md` is the document
/// `tests/scenario_bit_identity.rs` pins.
#[test]
fn docs_example_is_the_pinned_fixture() {
    let docs = docs();
    let start = docs.find("```toml\n").expect("docs have a toml example") + "```toml\n".len();
    let len = docs[start..].find("```").expect("toml example is closed");
    let example = deep_scenario::parse_toml(&docs[start..start + len]).expect("example parses");
    let fixture = deep_scenario::parse_toml(
        &std::fs::read_to_string(fixture_dir().join("valid_f03b_equivalent.toml")).unwrap(),
    )
    .unwrap();
    assert_eq!(
        deep_json::digest::digest_hex(&example),
        deep_json::digest::digest_hex(&fixture)
    );
}
