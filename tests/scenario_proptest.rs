//! Property tests for the scenario DSL's serialization layer:
//!
//! 1. `to_toml ∘ parse` is a fixed point — serializing any document the
//!    parser can produce and reparsing yields the identical [`Value`]
//!    tree (and therefore the identical canonical digest).
//! 2. `deep_json::digest` is invariant under member reordering and
//!    under reformatting of the TOML text (injected comments, blank
//!    lines, indentation) — the property the daemon/`run_scenario`
//!    shared result cache relies on.
//!
//! 3. `Scenario::from_value` returns `Ok` or `Err` and never panics
//!    on documents built from the schema's own section and key names,
//!    with mistyped, out-of-range, non-finite and huge values and each
//!    key's range boundaries mixed in — the daemon runs it on every
//!    untrusted `{"scenario": …}` job. A document that validates
//!    compiles its fault plan without panicking and resolves only
//!    finite checkpoint intervals: execution trusts both.
//!
//! The generator for 1–2 builds random scenario-shaped documents:
//! nested tables, arrays of tables, inline tables, quoted keys, escaped
//! strings, integer- and float-valued numbers.

use deep_json::Value;
use deep_scenario::schema::{self, Key, Ty};
use deep_scenario::{parse_toml, to_toml, AppSpec, Scenario};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Key palette: bare keys, keys the serializer must quote (spaces,
/// quotes, empty), but no dots — a dotted key inside a quoted table
/// header is ambiguous with a path in this TOML subset.
const KEYS: &[&str] = &[
    "alpha",
    "beta_2",
    "gamma-ray",
    "n",
    "work_s",
    "axes",
    "long_key_name",
    "s p a c e",
    "quo\"te",
    "",
];

/// Characters string values draw from, covering every escape class the
/// serializer emits (`\" \\ \n \t \r \u00XX`) plus plain text and
/// multi-byte UTF-8.
const STRING_CHARS: &[char] = &[
    'a', 'b', 'z', '0', ' ', '_', '"', '\\', '\n', '\t', '\r', '\u{1}', '#', '[', '=', 'é', '→',
];

fn gen_string(rng: &mut TestRng) -> String {
    let len = rng.below(8) as usize;
    (0..len)
        .map(|_| STRING_CHARS[rng.below(STRING_CHARS.len() as u64) as usize])
        .collect()
}

fn gen_number(rng: &mut TestRng) -> Value {
    match rng.below(3) {
        // Integers, underscore-friendly magnitudes included.
        0 => Value::Number(rng.below(2_000_001) as f64 - 1_000_000.0),
        // Fractions in unit range.
        1 => Value::Number((rng.below(1 << 20) as f64) / (1u64 << 20) as f64),
        // Large/exponent-shaped floats.
        _ => Value::Number((rng.below(1 << 20) as f64 - 500_000.0) * 1.5e5),
    }
}

fn gen_scalar(rng: &mut TestRng) -> Value {
    match rng.below(3) {
        0 => Value::Bool(rng.below(2) == 0),
        1 => gen_number(rng),
        _ => Value::String(gen_string(rng)),
    }
}

/// Distinct keys for one table.
fn gen_keys(rng: &mut TestRng, max: u64) -> Vec<String> {
    let n = rng.below(max) as usize;
    let mut keys: Vec<String> = Vec::new();
    while keys.len() < n {
        let k = KEYS[rng.below(KEYS.len() as u64) as usize].to_string();
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

fn gen_value(rng: &mut TestRng, depth: u32) -> Value {
    let pick = if depth >= 3 {
        rng.below(3)
    } else {
        rng.below(6)
    };
    match pick {
        0..=2 => gen_scalar(rng),
        3 => {
            // Arrays: scalars, nested arrays, or all-tables (the
            // serializer turns the latter into `[[path]]` sections).
            let n = rng.below(4) as usize;
            let items = match rng.below(3) {
                0 => (0..n).map(|_| gen_scalar(rng)).collect(),
                1 => (0..n)
                    .map(|_| Value::Array((0..rng.below(3)).map(|_| gen_scalar(rng)).collect()))
                    .collect(),
                _ => (0..n).map(|_| gen_table(rng, depth + 1)).collect(),
            };
            Value::Array(items)
        }
        _ => gen_table(rng, depth + 1),
    }
}

fn gen_table(rng: &mut TestRng, depth: u32) -> Value {
    Value::Object(
        gen_keys(rng, 5)
            .into_iter()
            .map(|k| (k, gen_value(rng, depth + 1)))
            .collect(),
    )
}

/// Strategy over random scenario-shaped documents.
struct ArbDoc;

impl Strategy for ArbDoc {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Value {
        gen_table(rng, 0)
    }
}

/// Recursively shuffle object member order (Fisher–Yates on each
/// table) without touching any value.
fn shuffle(v: &Value, rng: &mut TestRng) -> Value {
    match v {
        Value::Object(kv) => {
            let mut kv: Vec<(String, Value)> = kv
                .iter()
                .map(|(k, v)| (k.clone(), shuffle(v, rng)))
                .collect();
            for i in (1..kv.len()).rev() {
                kv.swap(i, rng.below(i as u64 + 1) as usize);
            }
            Value::Object(kv)
        }
        Value::Array(items) => Value::Array(items.iter().map(|i| shuffle(i, rng)).collect()),
        other => other.clone(),
    }
}

/// Reformat serialized TOML without changing its meaning: blank lines,
/// comments, and indentation sprinkled between statements.
fn reformat(toml: &str, rng: &mut TestRng) -> String {
    let mut out = String::new();
    for line in toml.lines() {
        match rng.below(4) {
            0 => out.push_str("# injected comment\n"),
            1 => out.push('\n'),
            _ => {}
        }
        if rng.below(3) == 0 {
            out.push_str("  \t");
        }
        out.push_str(line);
        if rng.below(4) == 0 && !line.is_empty() && !line.ends_with('"') {
            out.push_str("   # trailing note");
        }
        out.push('\n');
    }
    out
}

/// Every `(key, value)` pair, nested ones included, of the valid
/// fixtures: what a grammar walk may draw for a key name.
fn corpus() -> &'static [(String, Value)] {
    fn walk(v: &Value, out: &mut Vec<(String, Value)>) {
        match v {
            Value::Object(kv) => kv.iter().for_each(|(k, v)| {
                out.push((k.clone(), v.clone()));
                walk(v, out);
            }),
            Value::Array(items) => items.iter().for_each(|i| walk(i, out)),
            _ => {}
        }
    }
    static CORPUS: OnceLock<Vec<(String, Value)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/scenario_fixtures");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("fixture dir exists")
            .map(|e| e.expect("readable dir entry").path())
            .filter(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("valid_"))
            })
            .collect();
        paths.sort();
        let mut out = Vec::new();
        for path in paths {
            let text = std::fs::read_to_string(path).expect("readable fixture");
            walk(&parse_toml(&text).expect("valid fixture parses"), &mut out);
        }
        out
    })
}

/// Numbers past what the schema accepts: zero, negative, fractional,
/// huge, beyond u32::MAX and 2^53, non-finite.
const EDGES: [f64; 8] = [
    0.0,
    -1.0,
    0.5,
    1e300,
    4_294_967_299.0,
    9_007_199_254_740_993.0,
    f64::NAN,
    f64::INFINITY,
];

/// Every section's key table.
const TABLES: [&[Key]; 18] = [
    schema::SECTIONS,
    schema::SCENARIO,
    schema::MACHINE,
    schema::RESILIENCE_APP,
    schema::SCALABILITY_APP,
    schema::SWEEP,
    schema::POINT,
    schema::AXIS,
    schema::GRID,
    schema::FAULTS,
    schema::POISSON,
    schema::LINK_FLAPS,
    schema::NODE_CRASH,
    schema::LINK_DEGRADE,
    schema::NIC_DROP,
    schema::BI_FAIL,
    schema::PFS_STALL,
    schema::TRACE,
];

/// Checkpoint intervals that overflow, or sit at the edge of, what a
/// resolved interval can be.
const INTERVALS: [&str; 4] = ["daly", "daly/4", "daly*1e306", "daly/1e-306"];

/// Recombines fixture values by key name; each member is dropped,
/// redrawn, or replaced by a hostile or range-boundary value with
/// probability `1 / noise` (never when `noise` is 0), and tables gain a
/// corpus member or a schema key as often.
struct Gen<'r> {
    rng: &'r mut TestRng,
    noise: u64,
}

impl Gen<'_> {
    fn noisy(&mut self) -> bool {
        self.noise != 0 && self.rng.below(self.noise) == 0
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.rng.below(items.len() as u64) as usize].clone()
    }

    fn edge(&mut self) -> Value {
        Value::Number(self.pick(&EDGES))
    }

    /// A value at a boundary of `key`'s range: `lo - 1`, `lo`, `hi`,
    /// `hi + 1` and 0 for a range, a listed or unknown name for a
    /// choice, a hostile value otherwise.
    fn boundary(&mut self, key: &Key) -> Value {
        let range = |lo: f64, hi: f64| [lo - 1.0, lo, hi, hi + 1.0, 0.0];
        match key.ty {
            Ty::Int(lo, hi) => Value::Number(self.pick(&range(lo as f64, hi as f64))),
            Ty::U64 => Value::Number(self.pick(&range(0.0, 9_007_199_254_740_992.0))),
            Ty::Unit => Value::Number(self.pick(&range(0.0, 1.0))),
            Ty::Positive => Value::Number(self.pick(&[0.0, -0.0, f64::MIN_POSITIVE, f64::MAX])),
            Ty::Chars(lo, hi) => {
                let len = self.pick(&[lo.saturating_sub(1), lo, hi, hi + 1]);
                Value::String("x".repeat(len))
            }
            Ty::Choice(names) | Ty::Select(names) => {
                let mut names: Vec<&str> = names.iter().collect();
                names.push("unknown");
                Value::String(self.pick(&names).to_string())
            }
            Ty::Bool => Value::Bool(self.rng.below(2) == 0),
            // Composite keys: short lists of hostile numbers and
            // intervals (`weights`, `intervals`, `values`, dimensions).
            Ty::Parsed(_) => Value::Array(
                (0..self.rng.below(5))
                    .map(|_| match self.rng.below(3) {
                        0 => Value::String(self.pick(&INTERVALS).to_string()),
                        _ => self.edge(),
                    })
                    .collect(),
            ),
            Ty::Str | Ty::Num | Ty::Table | Ty::Tables => self.edge(),
        }
    }

    /// A row named `key` in any table, if one is.
    fn row(key: &str) -> Option<&'static Key> {
        TABLES.iter().flat_map(|t| t.iter()).find(|k| k.name == key)
    }

    /// A corpus value for `key`, mutated; a random one if it has none.
    fn value(&mut self, key: &str) -> Value {
        let seen: Vec<&Value> = corpus()
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v)
            .collect();
        if seen.is_empty() {
            return gen_value(self.rng, 2);
        }
        let v = seen[self.rng.below(seen.len() as u64) as usize].clone();
        self.mutate(v)
    }

    fn mutate(&mut self, v: Value) -> Value {
        match v {
            Value::Object(kv) => {
                let mut out = Vec::new();
                for (k, v) in kv {
                    let v = match self.noisy().then(|| self.rng.below(5)) {
                        None => self.mutate(v),
                        Some(0) => continue,
                        Some(1) => self.value(&k),
                        Some(2) => self.edge(),
                        Some(3) => match Gen::row(&k) {
                            Some(key) => self.boundary(key),
                            None => self.edge(),
                        },
                        Some(_) => gen_value(self.rng, 2),
                    };
                    out.push((k, v));
                }
                if self.noisy() {
                    let (k, v) = match self.rng.below(2) {
                        0 => self.pick(corpus()),
                        _ => {
                            let table = self.pick(&TABLES);
                            let key = self.pick(table);
                            (key.name.to_string(), self.boundary(&key))
                        }
                    };
                    if out.iter().all(|(have, _)| *have != k) {
                        out.push((k, v));
                    }
                }
                Value::Object(out)
            }
            Value::Array(items) => {
                Value::Array(items.into_iter().map(|i| self.mutate(i)).collect())
            }
            other => other,
        }
    }
}

/// Strategy over documents made of the fixture corpus's sections.
struct ArbScenario;

impl Strategy for ArbScenario {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Value {
        let noise = [0, 64, 16, 4][rng.below(4) as usize];
        let mut g = Gen { rng, noise };
        let mut doc = Vec::new();
        for name in schema::SECTIONS.iter().map(|k| k.name) {
            if matches!(name, "scenario" | "machine") || g.rng.below(2) == 0 {
                let body = g.value(name);
                doc.push((name.to_string(), body));
            }
        }
        g.mutate(Value::Object(doc))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn validation_never_panics(doc in ArbScenario) {
        let outcome = std::panic::catch_unwind(|| Scenario::from_value(&doc));
        prop_assert!(outcome.is_ok(), "from_value panicked on {}", doc.to_json());
        if let Ok(Ok(sc)) = outcome {
            let plan = std::panic::catch_unwind(|| sc.fault_plan().len());
            prop_assert!(plan.is_ok(), "fault_plan panicked on {}", doc.to_json());
            if let Some(AppSpec::Resilience(app)) = &sc.app {
                for (_, interval_s) in app.cases() {
                    prop_assert!(
                        interval_s.is_finite(),
                        "interval {} validated in {}",
                        interval_s,
                        doc.to_json()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serialize_then_parse_is_a_fixed_point(doc in ArbDoc) {
        // First trip: the serializer canonicalizes member order (inline
        // values before subtables, as the grammar forces), so assert
        // content equality via the order-insensitive digest.
        let toml = to_toml(&doc).unwrap_or_else(|e| panic!("serialize failed: {e}\n{doc:?}"));
        let back = parse_toml(&toml)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- doc\n{doc:?}\n--- toml\n{toml}"));
        prop_assert_eq!(
            deep_json::digest::digest(&back),
            deep_json::digest::digest(&doc),
            "round trip changed the document's content:\n{}",
            toml
        );
        // From then on the trip is an exact fixed point: same bytes
        // out, identical Value tree back.
        let again = to_toml(&back).unwrap();
        prop_assert_eq!(&again, &toml, "serializer must be idempotent after one trip");
        let back2 = parse_toml(&again).unwrap();
        prop_assert_eq!(&back2, &back, "parse ∘ to_toml must fix parser-produced documents");
    }

    #[test]
    fn digest_is_invariant_under_reordering_and_whitespace(
        doc in ArbDoc,
        salt in 0u64..u64::MAX,
    ) {
        let mut rng = TestRng::deterministic(&format!("scenario-digest-{salt}"));
        let want = deep_json::digest::digest(&doc);

        let shuffled = shuffle(&doc, &mut rng);
        prop_assert_eq!(
            deep_json::digest::digest(&shuffled),
            want,
            "digest must ignore member order"
        );

        let toml = to_toml(&shuffled).unwrap();
        let reparsed = parse_toml(&reformat(&toml, &mut rng))
            .unwrap_or_else(|e| panic!("reformatted document failed to parse: {e}\n{toml}"));
        prop_assert_eq!(
            deep_json::digest::digest(&reparsed),
            want,
            "digest must ignore whitespace and comments"
        );
    }
}
