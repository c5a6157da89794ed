//! Job wire protocol: what clients POST, what the daemon stores, and
//! the canonical config digest that keys the result cache.
//!
//! A submission is a JSON object with an optional `"client"` member
//! (fairness bucket; defaults to `"anon"`) plus exactly one job spec:
//!
//! * `{"experiment": "<name>"}` — run a registered experiment from
//!   `deep_bench::experiments::ALL`; result is its rendered stdout.
//! * `{"sweep": {"seed": …, "replicas": …, "points": [{…}, …]}}` — the
//!   older spelling of a resilience scenario with explicit points,
//!   rewritten into one at admission (`sweep_scenario`) and from then
//!   on a scenario job like any other.
//! * `{"scenario": {...}}` — a declarative scenario document (the
//!   JSON image of a `deep_scenario` TOML file), validated against the
//!   full schema at admission and evaluated through
//!   [`deep_scenario::execute`]; byte-identical to `run_scenario` on
//!   the same document.
//! * `{"sleep_ms": n}` — a do-nothing workload (capped at 10 s) for
//!   tests and operations drills; never cached.
//!
//! The cache digest is computed over the *spec only* — the `client`
//! member is stripped first, so the same config submitted by two
//! tenants is one cache entry. Canonicalisation (key order, number
//! formatting) is `deep_json::digest`'s business; this module only
//! decides which bytes participate.

use deep_json::{object, Value};
use deep_scenario::schema::POINT;
use deep_scenario::Scenario;

/// Upper bound on `sleep_ms` jobs, so a typo cannot wedge a worker.
pub const MAX_SLEEP_MS: u64 = 10_000;

/// The scenario document a `{"sweep": sweep}` body stands for: a fixed
/// name, the `small` preset, `sweep.seed` and `sweep.replicas`, an
/// `[app]` block holding the first point's resilience keys, and
/// `sweep.points` as `[[sweep.points]]`. Members are copied as given
/// (an absent one as `null`); [`Scenario::from_value`] judges them.
pub(crate) fn sweep_scenario(sweep: &Value) -> Value {
    let member = |key: &str| sweep.get(key).cloned().unwrap_or(Value::Null);
    let points = member("points");
    let mut doc = vec![
        (
            "scenario".to_string(),
            object([
                ("name", "sweep".into()),
                ("seed", member("seed")),
                ("replicas", member("replicas")),
            ]),
        ),
        ("machine".to_string(), object([("preset", "small".into())])),
    ];
    if let Some(first @ Value::Object(_)) = points.as_array().and_then(|p| p.first()) {
        let mut app = vec![("skeleton".to_string(), Value::from("resilience"))];
        for key in POINT.iter().filter(|k| k.axis.is_some()) {
            if let Some(v) = first.get(key.name) {
                app.push((key.name.to_string(), v.clone()));
            }
        }
        doc.push(("app".to_string(), Value::Object(app)));
    }
    doc.push(("sweep".to_string(), object([("points", points)])));
    Value::Object(doc)
}

/// What a job asks the daemon to do.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A registered experiment by name.
    Experiment(String),
    /// A declarative scenario, validated at admission and run as is;
    /// its document keys the cache exactly as `run_scenario` digests it.
    Scenario(Box<Scenario>),
    /// Sleep (test/ops workload; uncached).
    SleepMs(u64),
}

impl JobSpec {
    /// JSON form — exactly the shape clients submit, minus `client`.
    pub fn to_json(&self) -> Value {
        match self {
            JobSpec::Experiment(name) => object([("experiment", name.as_str().into())]),
            JobSpec::Scenario(sc) => object([("scenario", sc.doc.clone())]),
            JobSpec::SleepMs(ms) => object([("sleep_ms", (*ms).into())]),
        }
    }

    /// Whether results of this spec are cacheable. Sleeps are not:
    /// their whole point is to occupy a worker.
    pub fn cacheable(&self) -> bool {
        !matches!(self, JobSpec::SleepMs(_))
    }

    /// Parse the spec part of a submission (must contain exactly one
    /// of the spec members).
    pub fn from_json(v: &Value) -> Result<JobSpec, String> {
        let members = ["experiment", "sweep", "scenario", "sleep_ms"];
        let scenario = |doc: &Value| {
            Scenario::from_value(doc)
                .map(|sc| JobSpec::Scenario(Box::new(sc)))
                .map_err(|e| format!("scenario: {e}"))
        };
        let present: Vec<&str> = members
            .iter()
            .copied()
            .filter(|m| v.get(m).is_some())
            .collect();
        match present.as_slice() {
            ["experiment"] => {
                let name = v
                    .get("experiment")
                    .and_then(Value::as_str)
                    .ok_or("'experiment' must be a string")?;
                if deep_bench::experiments::find(name).is_none() {
                    return Err(format!("unknown experiment '{name}'"));
                }
                Ok(JobSpec::Experiment(name.to_string()))
            }
            ["sweep"] => scenario(&sweep_scenario(&v["sweep"])),
            ["scenario"] => scenario(&v["scenario"]),
            ["sleep_ms"] => {
                let ms = v
                    .get("sleep_ms")
                    .and_then(Value::as_u64)
                    .filter(|&ms| ms <= MAX_SLEEP_MS)
                    .ok_or("'sleep_ms' must be an integer <= 10000")?;
                Ok(JobSpec::SleepMs(ms))
            }
            [] => Err(
                "job must name one of 'experiment', 'sweep', 'scenario', 'sleep_ms'".to_string(),
            ),
            _ => Err(format!("job names more than one spec: {present:?}")),
        }
    }
}

/// One full submission: fairness bucket + spec.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Fairness bucket for round-robin admission (`"anon"` when the
    /// submission does not name one).
    pub client: String,
    /// What to run.
    pub spec: JobSpec,
}

impl JobRequest {
    /// Parse a POST /jobs body.
    pub fn from_json(v: &Value) -> Result<JobRequest, String> {
        let client = match v.get("client") {
            None => "anon".to_string(),
            Some(c) => {
                let c = c.as_str().ok_or("'client' must be a string")?;
                if c.is_empty() || c.len() > 64 || !c.chars().all(|ch| ch.is_ascii_graphic()) {
                    return Err("'client' must be 1..=64 printable ASCII characters".to_string());
                }
                c.to_string()
            }
        };
        Ok(JobRequest {
            client,
            spec: JobSpec::from_json(v)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_json() -> Value {
        deep_json::from_str(
            r#"{"sweep":{"seed":7,"replicas":4,"points":[
                {"work_s":500000,"n_nodes":640,"mtbf_node_s":157680000,
                 "checkpoint_s":240,"restart_s":600,"interval_s":5400}]}}"#,
        )
        .unwrap()
    }

    /// The cache key the scheduler computes for `spec`.
    fn digest(spec: &JobSpec) -> u64 {
        deep_json::digest::digest(&spec.to_json())
    }

    #[test]
    fn experiment_spec_round_trips() {
        let v = deep_json::from_str(r#"{"client":"ci","experiment":"f03b_resilience"}"#).unwrap();
        let req = JobRequest::from_json(&v).unwrap();
        assert_eq!(req.client, "ci");
        assert_eq!(req.spec, JobSpec::Experiment("f03b_resilience".into()));
        let back = JobSpec::from_json(&req.spec.to_json()).unwrap();
        assert_eq!(back, req.spec);
    }

    #[test]
    fn sweep_spec_round_trips_and_validates() {
        let req = JobRequest::from_json(&sweep_json()).unwrap();
        assert_eq!(req.client, "anon");
        let JobSpec::Scenario(sc) = &req.spec else {
            panic!("a sweep is admitted as a scenario");
        };
        assert_eq!((sc.name.as_str(), sc.seed, sc.replicas), ("sweep", 7, 4));
        let Some(deep_scenario::AppSpec::Resilience(app)) = &sc.app else {
            panic!("expected the resilience skeleton");
        };
        let [(p, interval_s)] = app.cases()[..] else {
            panic!("one point, one case");
        };
        let point = (
            p.work_s,
            p.n_nodes,
            p.mtbf_node_s,
            p.checkpoint_s,
            p.restart_s,
        );
        assert_eq!(point, (500_000.0, 640, 157_680_000.0, 240.0, 600.0));
        assert_eq!(interval_s, 5400.0);
        let back = JobSpec::from_json(&req.spec.to_json()).unwrap();
        assert_eq!(back, req.spec);
    }

    #[test]
    fn ci_sweep_fixture_is_the_serve_mix_shape() {
        let v = deep_json::from_str(include_str!("../tests/fixtures/sweep_16x128.json")).unwrap();
        let JobSpec::Scenario(sc) = JobRequest::from_json(&v).unwrap().spec else {
            panic!("a sweep is admitted as a scenario");
        };
        let Some(deep_scenario::AppSpec::Resilience(app)) = &sc.app else {
            panic!("expected the resilience skeleton");
        };
        assert_eq!((app.cases().len(), sc.replicas), (16, 128));
    }

    #[test]
    fn digest_ignores_the_client_member() {
        let a = JobRequest::from_json(
            &deep_json::from_str(r#"{"client":"alice","experiment":"f03b_resilience"}"#).unwrap(),
        )
        .unwrap();
        let b = JobRequest::from_json(
            &deep_json::from_str(r#"{"client":"bob","experiment":"f03b_resilience"}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(digest(&a.spec), digest(&b.spec));
    }

    #[test]
    fn digest_distinguishes_configs() {
        let base = JobSpec::Experiment("f03b_resilience".into());
        let other = JobSpec::Experiment("f02_evolution".into());
        assert_ne!(digest(&base), digest(&other));
    }

    #[test]
    fn bad_submissions_are_rejected_with_reasons() {
        let cases = [
            (r#"{}"#, "must name one"),
            (r#"{"experiment":"nope"}"#, "unknown experiment"),
            (
                r#"{"experiment":"f02_evolution","sleep_ms":1}"#,
                "more than one",
            ),
            (r#"{"sleep_ms":999999}"#, "sleep_ms"),
            (r#"{"client":"","experiment":"f02_evolution"}"#, "client"),
            (
                r#"{"sweep":{"seed":1,"replicas":0,"points":[]}}"#,
                "scenario: scenario.replicas: must be in 1..=1024",
            ),
            (
                r#"{"sweep":{"seed":1,"replicas":2,"points":[]}}"#,
                "scenario: sweep.points: must hold 1..=4096 entries",
            ),
            (
                r#"{"sweep":{"seed":1,"replicas":2,"points":[{"work_s":0,"n_nodes":4,
                   "mtbf_node_s":1,"checkpoint_s":1,"restart_s":1,"interval_s":1}]}}"#,
                "scenario: app.work_s: must be finite and > 0",
            ),
            (
                r#"{"sweep":{"seed":1,"replicas":2,"points":[{"work_s":1,"n_nodes":4,
                   "mtbf_node_s":1,"checkpoint_s":1,"restart_s":1,"interval_s":1},
                   {"work_s":1,"n_nodes":1e9,
                   "mtbf_node_s":1,"checkpoint_s":1,"restart_s":1,"interval_s":1}]}}"#,
                "scenario: sweep.points[1].n_nodes: must be in 1..=100000000",
            ),
            // Valid members, unbounded work: 10^12 segments per replica,
            // and a `done` chain that stops moving at 2^53.
            (
                r#"{"sweep":{"seed":1,"replicas":2,"points":[{"work_s":1e9,"n_nodes":4,
                   "mtbf_node_s":1,"checkpoint_s":1,"restart_s":1,"interval_s":1e-3}]}}"#,
                "scenario: app: work_s / interval must not exceed 16777216 segments",
            ),
            (
                r#"{"sweep":{"seed":1,"replicas":2,"points":[{"work_s":1e18,"n_nodes":4,
                   "mtbf_node_s":1,"checkpoint_s":1,"restart_s":1,"interval_s":1}]}}"#,
                "segments",
            ),
        ];
        for (body, want) in cases {
            let v = deep_json::from_str(body).unwrap();
            let err = JobRequest::from_json(&v).unwrap_err();
            assert!(
                err.contains(want),
                "body {body}: error {err:?} lacks {want:?}"
            );
        }
    }
}
