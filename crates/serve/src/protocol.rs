//! Job wire protocol: what clients POST, what the daemon stores, and
//! the canonical config digest that keys the result cache.
//!
//! A submission is a JSON object with an optional `"client"` member
//! (fairness bucket; defaults to `"anon"`) plus exactly one job spec:
//!
//! * `{"experiment": "<name>"}` — run a registered experiment from
//!   `deep_bench::experiments::ALL`; result is its rendered stdout.
//! * `{"sweep": {"seed": …, "replicas": …, "points": [{…}, …]}}` — an
//!   explicit resilience-efficiency sweep over
//!   [`deep_core::resilience::mean_efficiency_batch`]; each point names the
//!   full `ResilienceParams` plus the checkpoint interval.
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

use deep_core::resilience::{segments_within_bound, ResilienceParams, MAX_SEGMENTS};
use deep_json::{object, Value};
use deep_scenario::Scenario;

/// Upper bound on `sleep_ms` jobs, so a typo cannot wedge a worker.
pub const MAX_SLEEP_MS: u64 = 10_000;
/// Upper bound on points in one sweep submission.
pub const MAX_SWEEP_POINTS: usize = 4096;
/// Upper bound on replicas per sweep point.
pub const MAX_REPLICAS: u32 = 1024;

/// One point of an explicit resilience sweep: the full scenario plus
/// the checkpoint interval to evaluate it at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Useful work to complete, seconds.
    pub work_s: f64,
    /// Nodes the job runs on.
    pub n_nodes: u64,
    /// Per-node MTBF, seconds.
    pub mtbf_node_s: f64,
    /// Checkpoint write cost, seconds.
    pub checkpoint_s: f64,
    /// Restart cost after a failure, seconds.
    pub restart_s: f64,
    /// Checkpoint interval to evaluate, seconds.
    pub interval_s: f64,
}

impl SweepPoint {
    /// The simulator parameter struct for this point.
    pub fn params(&self) -> ResilienceParams {
        ResilienceParams {
            work_s: self.work_s,
            n_nodes: self.n_nodes,
            mtbf_node_s: self.mtbf_node_s,
            checkpoint_s: self.checkpoint_s,
            restart_s: self.restart_s,
        }
    }

    /// JSON form (member order = struct order; canonicalisation for
    /// digests happens downstream).
    pub fn to_json(&self) -> Value {
        object([
            ("work_s", self.work_s.into()),
            ("n_nodes", self.n_nodes.into()),
            ("mtbf_node_s", self.mtbf_node_s.into()),
            ("checkpoint_s", self.checkpoint_s.into()),
            ("restart_s", self.restart_s.into()),
            ("interval_s", self.interval_s.into()),
        ])
    }

    /// Parse one point; every member is required and must be finite
    /// and positive (zero nodes or non-positive work would panic deep
    /// in the simulator, so it is rejected here at the trust
    /// boundary), and the point may not ask for more than
    /// [`MAX_SEGMENTS`] checkpoint segments: a replica walks every one,
    /// and a job has no deadline.
    pub fn from_json(v: &Value) -> Result<SweepPoint, String> {
        let num = |key: &str| -> Result<f64, String> {
            let n = v
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("sweep point: missing or non-numeric '{key}'"))?;
            if !n.is_finite() || n <= 0.0 {
                return Err(format!("sweep point: '{key}' must be finite and > 0"));
            }
            Ok(n)
        };
        let n_nodes = v
            .get("n_nodes")
            .and_then(Value::as_u64)
            .filter(|&n| n > 0)
            .ok_or("sweep point: 'n_nodes' must be a positive integer")?;
        let point = SweepPoint {
            work_s: num("work_s")?,
            n_nodes,
            mtbf_node_s: num("mtbf_node_s")?,
            checkpoint_s: num("checkpoint_s")?,
            restart_s: num("restart_s")?,
            interval_s: num("interval_s")?,
        };
        if !segments_within_bound(point.work_s, point.interval_s) {
            return Err(format!(
                "sweep point: 'work_s' / 'interval_s' must not exceed {MAX_SEGMENTS} segments"
            ));
        }
        Ok(point)
    }
}

/// An explicit sweep: shared RNG seed and replica count, one result
/// per point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Base RNG seed (replica streams derive from it).
    pub seed: u64,
    /// Replicas averaged per point.
    pub replicas: u32,
    /// The points to evaluate.
    pub points: Vec<SweepPoint>,
}

impl SweepConfig {
    /// JSON form.
    pub fn to_json(&self) -> Value {
        object([
            ("seed", self.seed.into()),
            ("replicas", self.replicas.into()),
            (
                "points",
                Value::Array(self.points.iter().map(SweepPoint::to_json).collect()),
            ),
        ])
    }

    /// Parse and validate a sweep config.
    pub fn from_json(v: &Value) -> Result<SweepConfig, String> {
        let seed = v
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or("sweep: missing or non-integer 'seed'")?;
        let replicas =
            v.get("replicas")
                .and_then(Value::as_u64)
                .filter(|&r| r >= 1 && r <= MAX_REPLICAS as u64)
                .ok_or("sweep: 'replicas' must be an integer in 1..=1024")? as u32;
        let points = v
            .get("points")
            .and_then(Value::as_array)
            .ok_or("sweep: missing 'points' array")?;
        if points.is_empty() || points.len() > MAX_SWEEP_POINTS {
            return Err(format!(
                "sweep: 'points' must hold 1..={MAX_SWEEP_POINTS} entries"
            ));
        }
        Ok(SweepConfig {
            seed,
            replicas,
            points: points
                .iter()
                .map(SweepPoint::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// What a job asks the daemon to do.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A registered experiment by name.
    Experiment(String),
    /// An explicit resilience sweep.
    Sweep(SweepConfig),
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
            JobSpec::Sweep(cfg) => object([("sweep", cfg.to_json())]),
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
            ["sweep"] => Ok(JobSpec::Sweep(SweepConfig::from_json(&v["sweep"])?)),
            ["scenario"] => Scenario::from_value(&v["scenario"])
                .map(|sc| JobSpec::Scenario(Box::new(sc)))
                .map_err(|e| format!("scenario: {e}")),
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

    /// Content digest of this spec, in the cache's hex form. Pure
    /// function of the spec — the submitting client never participates.
    pub fn digest_hex(&self) -> String {
        deep_json::digest::digest_hex(&self.to_json())
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
        let JobSpec::Sweep(cfg) = &req.spec else {
            panic!("expected sweep");
        };
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.replicas, 4);
        assert_eq!(cfg.points[0].n_nodes, 640);
        let back = JobSpec::from_json(&req.spec.to_json()).unwrap();
        assert_eq!(back, req.spec);
    }

    #[test]
    fn ci_sweep_fixture_is_the_serve_mix_shape() {
        let v = deep_json::from_str(include_str!("../tests/fixtures/sweep_16x128.json")).unwrap();
        let JobSpec::Sweep(cfg) = JobRequest::from_json(&v).unwrap().spec else {
            panic!("expected sweep");
        };
        assert_eq!((cfg.points.len(), cfg.replicas), (16, 128));
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
        assert_eq!(a.spec.digest_hex(), b.spec.digest_hex());
    }

    #[test]
    fn digest_distinguishes_configs() {
        let base = JobSpec::Experiment("f03b_resilience".into());
        let other = JobSpec::Experiment("f02_evolution".into());
        assert_ne!(base.digest_hex(), other.digest_hex());
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
                "replicas",
            ),
            (r#"{"sweep":{"seed":1,"replicas":2,"points":[]}}"#, "points"),
            (
                r#"{"sweep":{"seed":1,"replicas":2,"points":[{"work_s":0,"n_nodes":4,
                   "mtbf_node_s":1,"checkpoint_s":1,"restart_s":1,"interval_s":1}]}}"#,
                "work_s",
            ),
            // Valid members, unbounded work: 10^12 segments per replica,
            // and a `done` chain that stops moving at 2^53.
            (
                r#"{"sweep":{"seed":1,"replicas":2,"points":[{"work_s":1e9,"n_nodes":4,
                   "mtbf_node_s":1,"checkpoint_s":1,"restart_s":1,"interval_s":1e-3}]}}"#,
                "segments",
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
