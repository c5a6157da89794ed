//! Typed scenario schema: validation of the parsed TOML tree into
//! resolved values — the [`DeepConfig`] the machine block denotes,
//! every machine-dependent default filled in, every choice (axis
//! parameter, trace policy) decided — which execution consumes as is.
//!
//! Every validation failure produces a stable, exact error message
//! (asserted verbatim by `tests/scenario_fixtures/`), of the form
//! `<table>.<key>: <what>` or `<table>: <what>`.

use deep_apps::MixParams;
use deep_bench::des_scaling::Skeleton;
use deep_core::config::DeepConfig;
use deep_core::resilience::{daly_optimum, segments_within_bound, ResilienceParams, MAX_SEGMENTS};
use deep_faults::plan::{Domain, FaultEvent, FaultKind, FaultPlan};
use deep_io::ckptlog::FailureSeverity;
use deep_json::Value;
use deep_resmgr::Policy;
use deep_simkit::SimDuration;

/// The keys each section accepts; `docs/scenario.md` lists exactly
/// these (`tests/scenario_conformance.rs`).
pub mod keys {
    /// Top-level sections.
    pub const SECTIONS: &[&str] = &["scenario", "machine", "app", "sweep", "faults", "trace"];
    /// `[scenario]`.
    pub const SCENARIO: &[&str] = &["name", "seed", "replicas"];
    /// `[machine]`.
    pub const MACHINE: &[&str] = &[
        "preset",
        "n_cluster",
        "booster_dims",
        "n_bi",
        "booster_link_error_rate",
    ];
    /// `[app]` with `skeleton = "resilience"`.
    pub const RESILIENCE_APP: &[&str] = &[
        "skeleton",
        "work_s",
        "mtbf_node_s",
        "checkpoint_s",
        "restart_s",
        "n_nodes",
        "intervals",
    ];
    /// `[app]` with `skeleton = "scalability"`.
    pub const SCALABILITY_APP: &[&str] = &["skeleton", "ranks", "iters", "complex"];
    /// `[sweep]`.
    pub const SWEEP: &[&str] = &["axes"];
    /// One `[[sweep.axes]]` entry.
    pub const AXIS: &[&str] = &["param", "values", "grid"];
    /// An axis `grid` table.
    pub const GRID: &[&str] = &["start", "step", "count"];
    /// `[faults]`.
    pub const FAULTS: &[&str] = &["events", "poisson", "link_flaps"];
    /// `[faults.poisson]`.
    pub const POISSON: &[&str] = &[
        "domain",
        "n_nodes",
        "mtbf_node_s",
        "horizon_s",
        "weights",
        "stream",
    ];
    /// `[faults.link_flaps]`.
    pub const LINK_FLAPS: &[&str] = &[
        "domain",
        "first_s",
        "period_s",
        "error_rate",
        "flap_s",
        "count",
    ];
    /// `[trace]`.
    pub const TRACE: &[&str] = &[
        "jobs",
        "mean_interarrival_s",
        "max_cn",
        "max_bn",
        "mean_cn_time_s",
        "mean_bn_time_s",
        "max_phases",
        "pure_cluster_fraction",
        "policy",
        "spares",
        "sample_every_s",
    ];
}

/// A fully validated scenario document.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (1..=64 characters).
    pub name: String,
    /// Master seed for every stochastic component.
    pub seed: u64,
    /// Replica count for app-skeleton evaluations.
    pub replicas: u32,
    /// Preset name (`small`, `medium` or `prototype`), echoed into the
    /// result.
    pub preset: &'static str,
    /// The machine the preset plus overrides denote.
    pub machine: DeepConfig,
    /// Optional application skeleton to evaluate, with its sweep axes.
    pub app: Option<AppSpec>,
    /// Declarative fault plan sources.
    pub faults: FaultSpec,
    /// Optional synthetic job trace replayed through `deep_resmgr`.
    pub trace: Option<TraceSpec>,
    /// The parsed document, kept for digesting/caching.
    pub doc: Value,
}

/// A scenario is a pure function of its document.
impl PartialEq for Scenario {
    fn eq(&self, other: &Scenario) -> bool {
        self.doc == other.doc
    }
}

/// An application skeleton the scenario evaluates: either the
/// checkpoint/restart maths or the full-DES weak-scaling run.
#[derive(Debug, Clone)]
pub enum AppSpec {
    /// `skeleton = "resilience"` — checkpoint/restart efficiency.
    Resilience(ResilienceApp),
    /// `skeleton = "scalability"` — the full-DES
    /// weak-scaling skeleton (`deep_bench::des_scaling`).
    Scalability(ScalabilityApp),
}

/// The `scalability` app skeleton: the F09 communication skeleton
/// (ring halo + allreduce, optionally plus a pairwise all-to-all)
/// simulated end-to-end on the discrete-event engine over a full-size
/// IB fat tree. Deterministic — `replicas` is ignored — and the
/// machine block only names the scenario's context (the fabric is
/// sized from the rank count).
#[derive(Debug, Clone)]
pub struct ScalabilityApp {
    /// Rank counts to evaluate (powers of two): the `ranks` sweep axis
    /// in declaration order, or the app's base rank count.
    pub ranks: Vec<u32>,
    /// Iterations to simulate per point.
    pub iters: u32,
    /// Add the complex class's pairwise all-to-all phase.
    pub complex: bool,
}

/// The `resilience` app skeleton: checkpoint/restart efficiency under
/// node failures, identical maths to the `f03b_resilience` registry
/// experiment.
#[derive(Debug, Clone)]
pub struct ResilienceApp {
    /// The app block's point; `n_nodes` defaults to the machine total
    /// (cluster + booster).
    pub base: ResilienceParams,
    /// Checkpoint intervals to evaluate per sweep point.
    pub intervals: Vec<IntervalSpec>,
    /// Sweep axes (cross product, declaration order, first axis
    /// outermost); validation bounds them to 4096 points, which
    /// [`ResilienceApp::points`] relies on.
    pub(crate) axes: Vec<SweepAxis>,
}

/// A checkpoint interval: absolute seconds or relative to the Daly
/// optimum of the point being evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntervalSpec {
    /// A fixed interval in seconds.
    Seconds(f64),
    /// `daly * factor`, computed per sweep point.
    DalyTimes(f64),
    /// `daly / divisor`, computed per sweep point (kept distinct from
    /// `DalyTimes` so `daly/4` is bitwise `daly / 4.0`, exactly as the
    /// registry experiment computes it).
    DalyOver(f64),
}

impl ResilienceApp {
    /// The cross product of the sweep axes applied to the base point
    /// (first axis outermost); with no axes, the base point alone.
    pub fn points(&self) -> Vec<ResilienceParams> {
        let mut points = vec![self.base];
        for axis in &self.axes {
            points = points
                .iter()
                .flat_map(|p| {
                    axis.values.iter().map(move |v| {
                        let mut q = *p;
                        axis.param.set(&mut q, v);
                        q
                    })
                })
                .collect();
        }
        points
    }

    /// The `(point, resolved interval)` cases the skeleton evaluates:
    /// grouped by point, intervals in declaration order.
    pub fn cases<'a>(
        &'a self,
        points: &'a [ResilienceParams],
    ) -> impl Iterator<Item = (ResilienceParams, f64)> + 'a {
        points.iter().flat_map(move |p| {
            let daly = daly_optimum(p);
            self.intervals.iter().map(move |iv| (*p, iv.resolve(daly)))
        })
    }
}

impl IntervalSpec {
    /// Resolve against a point's Daly-optimum interval.
    pub fn resolve(&self, daly: f64) -> f64 {
        match *self {
            IntervalSpec::Seconds(s) => s,
            IntervalSpec::DalyTimes(k) => daly * k,
            IntervalSpec::DalyOver(k) => daly / k,
        }
    }
}

/// One resilience sweep axis: a parameter plus its values.
#[derive(Debug, Clone)]
pub(crate) struct SweepAxis {
    /// Which [`ResilienceParams`] field the axis varies.
    param: AxisParam,
    /// The values, in evaluation order.
    values: AxisValues,
}

/// The [`ResilienceParams`] field a sweep axis varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AxisParam {
    /// `n_nodes`.
    NNodes,
    /// `work_s`.
    WorkS,
    /// `mtbf_node_s`.
    MtbfNodeS,
    /// `checkpoint_s`.
    CheckpointS,
    /// `restart_s`.
    RestartS,
}

impl AxisParam {
    fn from_name(name: &str) -> Option<AxisParam> {
        Some(match name {
            "n_nodes" => AxisParam::NNodes,
            "work_s" => AxisParam::WorkS,
            "mtbf_node_s" => AxisParam::MtbfNodeS,
            "checkpoint_s" => AxisParam::CheckpointS,
            "restart_s" => AxisParam::RestartS,
            _ => return None,
        })
    }

    fn set(self, p: &mut ResilienceParams, v: f64) {
        match self {
            AxisParam::NNodes => p.n_nodes = v as u64,
            AxisParam::WorkS => p.work_s = v,
            AxisParam::MtbfNodeS => p.mtbf_node_s = v,
            AxisParam::CheckpointS => p.checkpoint_s = v,
            AxisParam::RestartS => p.restart_s = v,
        }
    }
}

/// An axis's values as written: a list, or a grid kept unexpanded so a
/// validated scenario stays the size of its document.
#[derive(Debug, Clone)]
enum AxisValues {
    /// `values = [..]`.
    List(Vec<f64>),
    /// `grid = { start, step, count }`: `start + step * i`, `i < count`.
    Grid {
        /// First value.
        start: f64,
        /// Increment.
        step: f64,
        /// Number of values, 1..=4096.
        count: usize,
    },
}

impl AxisValues {
    fn count(&self) -> usize {
        match self {
            AxisValues::List(vs) => vs.len(),
            AxisValues::Grid { count, .. } => *count,
        }
    }

    /// The values in evaluation order.
    fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.count()).map(move |i| match self {
            AxisValues::List(vs) => vs[i],
            AxisValues::Grid { start, step, .. } => start + step * i as f64,
        })
    }
}

/// Declarative fault-plan sources, compiled by
/// [`Scenario::fault_plan`].
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    /// Explicit events.
    pub events: Vec<FaultEvent>,
    /// Seeded Poisson crash process, if declared.
    pub poisson: Option<PoissonSpec>,
    /// Periodic link-quality flaps, if declared.
    pub link_flaps: Option<FlapSpec>,
}

/// `[faults.poisson]`: seeded Poisson node-crash process.
#[derive(Debug, Clone)]
pub struct PoissonSpec {
    /// Failure domain.
    pub domain: Domain,
    /// Node count; defaults to the domain's machine size.
    pub n_nodes: u32,
    /// Per-node MTBF, seconds.
    pub mtbf_node_s: f64,
    /// Schedule horizon, seconds.
    pub horizon_s: f64,
    /// Severity mix `[transient, node, multi]`.
    pub weights: [f64; 3],
    /// RNG stream selector (combined with the scenario seed).
    pub stream: u64,
}

/// `[faults.link_flaps]`: periodic link-degrade windows.
#[derive(Debug, Clone)]
pub struct FlapSpec {
    /// Failure domain.
    pub domain: Domain,
    /// First flap onset, seconds.
    pub first_s: f64,
    /// Flap period, seconds.
    pub period_s: f64,
    /// Error rate during a flap.
    pub error_rate: f64,
    /// Flap duration, seconds.
    pub flap_s: f64,
    /// Number of flaps.
    pub count: u32,
}

/// `[trace]`: a synthetic job trace replayed through `deep_resmgr`.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// The generated workload; `max_cn` / `max_bn` are clamped to the
    /// machine.
    pub mix: MixParams,
    /// Allocation policy.
    pub policy: Policy,
    /// Spare booster nodes held for failure replacement.
    pub spares: u32,
    /// Utilisation sampling period.
    pub sample_every: SimDuration,
}

impl Scenario {
    /// Parse and validate a TOML scenario document.
    pub fn from_toml_str(input: &str) -> Result<Scenario, String> {
        Scenario::from_value(&crate::toml::parse(input)?)
    }

    /// Validate a parsed document (TOML- or JSON-sourced: `deep-serve`
    /// jobs arrive as JSON).
    pub fn from_value(doc: &Value) -> Result<Scenario, String> {
        let Value::Object(sections) = doc else {
            return Err("scenario document must be a table".to_string());
        };
        for (key, _) in sections {
            if !keys::SECTIONS.contains(&key.as_str()) {
                return Err(format!("unknown section '{key}'"));
            }
        }

        let meta = require_table(doc, "scenario")?;
        check_keys(meta, "scenario", keys::SCENARIO)?;
        let name = require_str(meta, "scenario", "name")?;
        if name.is_empty() || name.len() > 64 {
            return Err("scenario.name: must be 1..=64 characters".to_string());
        }
        let seed = require_u64(meta, "scenario", "seed")?;
        let replicas = opt_u64(meta, "scenario", "replicas")?.unwrap_or(1);
        if !(1..=1024).contains(&replicas) {
            return Err("scenario.replicas: must be in 1..=1024".to_string());
        }

        let (preset, machine) = parse_machine(doc)?;
        let mut app = match doc.get("app") {
            None => None,
            Some(_) => Some(parse_app(require_table(doc, "app")?, &machine)?),
        };
        if parse_sweep(doc, &mut app)? && app.is_none() {
            return Err("sweep requires an 'app' block".to_string());
        }
        let faults = parse_faults(doc, &machine)?;
        let trace = match doc.get("trace") {
            None => None,
            Some(_) => Some(parse_trace(require_table(doc, "trace")?, &machine)?),
        };
        if app.is_none() && trace.is_none() {
            return Err("scenario must define an 'app' or a 'trace' block".to_string());
        }
        match &app {
            Some(AppSpec::Resilience(app)) => check_resilience_bounds(app)?,
            Some(AppSpec::Scalability(app)) => check_scalability_budget(app)?,
            None => {}
        }

        Ok(Scenario {
            name: name.to_string(),
            seed,
            replicas: replicas as u32,
            preset,
            machine,
            app,
            faults,
            trace,
            doc: doc.clone(),
        })
    }

    /// Compile the declarative fault sources into one merged, ordered
    /// [`FaultPlan`].
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.faults.events.clone());
        if let Some(p) = &self.faults.poisson {
            plan = plan.merge(FaultPlan::poisson_crashes(
                p.domain,
                p.n_nodes,
                p.mtbf_node_s,
                p.horizon_s,
                p.weights,
                self.seed,
                p.stream,
            ));
        }
        if let Some(f) = &self.faults.link_flaps {
            plan = plan.merge(FaultPlan::link_flaps(
                f.domain,
                f.first_s,
                f.period_s,
                f.error_rate,
                f.flap_s,
                f.count,
            ));
        }
        plan
    }
}

/// Bound a resilience sweep: the cross product from axis cardinalities
/// alone — documents arrive from untrusted daemon peers, and a pair of
/// large `values` axes must never be materialized — then every (point,
/// interval) pair to [`MAX_SEGMENTS`] checkpoint segments, checked on
/// the resolved intervals since `daly/N` is only known per point.
fn check_resilience_bounds(app: &ResilienceApp) -> Result<(), String> {
    let mut total: usize = 1;
    for axis in &app.axes {
        total = total
            .checked_mul(axis.values.count())
            .filter(|&t| t <= 4096)
            .ok_or_else(|| "sweep: too many points (cross product exceeds 4096)".to_string())?;
    }
    for (p, interval_s) in app.cases(&app.points()) {
        if !segments_within_bound(p.work_s, interval_s) {
            return Err(format!(
                "app: work_s / interval must not exceed {MAX_SEGMENTS} segments \
                 (work_s = {}, interval = {interval_s} s)",
                p.work_s
            ));
        }
    }
    Ok(())
}

/// Reject scalability runs whose simulated message count would be
/// unreasonably large — scenario documents arrive from untrusted
/// daemon peers, and the complex class is quadratic in ranks.
fn check_scalability_budget(app: &ScalabilityApp) -> Result<(), String> {
    let mut est: u128 = 0;
    for &r in &app.ranks {
        let per_iter = Skeleton::new(r, app.complex).messages_per_iter();
        est += u128::from(per_iter) * u128::from(app.iters);
    }
    if est > 1 << 28 {
        return Err("app: scalability run too large (estimated messages exceed 2^28)".to_string());
    }
    Ok(())
}

// ---------------------------------------------------------------
// field helpers (exact error strings live here)
// ---------------------------------------------------------------

fn require_table<'v>(doc: &'v Value, name: &str) -> Result<&'v Value, String> {
    match doc.get(name) {
        Some(v @ Value::Object(_)) => Ok(v),
        Some(_) => Err(format!("'{name}' must be a table")),
        None => Err(format!("missing required section '{name}'")),
    }
}

fn check_keys(table: &Value, section: &str, allowed: &[&str]) -> Result<(), String> {
    let Value::Object(kv) = table else {
        return Err(format!("'{section}' must be a table"));
    };
    for (key, _) in kv {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("{section}: unknown key '{key}'"));
        }
    }
    Ok(())
}

fn require_str<'v>(table: &'v Value, section: &str, key: &str) -> Result<&'v str, String> {
    match table.get(key) {
        Some(Value::String(s)) => Ok(s),
        Some(_) => Err(format!("{section}.{key}: expected a string")),
        None => Err(format!("{section}: missing required key '{key}'")),
    }
}

fn require_u64(table: &Value, section: &str, key: &str) -> Result<u64, String> {
    match opt_u64(table, section, key)? {
        Some(v) => Ok(v),
        None => Err(format!("{section}: missing required key '{key}'")),
    }
}

fn opt_u64(table: &Value, section: &str, key: &str) -> Result<Option<u64>, String> {
    match table.get(key) {
        None => Ok(None),
        Some(v) => match v.as_u64() {
            Some(n) => Ok(Some(n)),
            None => Err(format!("{section}.{key}: expected a non-negative integer")),
        },
    }
}

fn require_f64(table: &Value, section: &str, key: &str) -> Result<f64, String> {
    match opt_f64(table, section, key)? {
        Some(v) => Ok(v),
        None => Err(format!("{section}: missing required key '{key}'")),
    }
}

fn opt_f64(table: &Value, section: &str, key: &str) -> Result<Option<f64>, String> {
    match table.get(key) {
        None => Ok(None),
        Some(Value::Number(n)) => Ok(Some(*n)),
        Some(_) => Err(format!("{section}.{key}: expected a number")),
    }
}

fn positive_f64(table: &Value, section: &str, key: &str) -> Result<f64, String> {
    let v = require_f64(table, section, key)?;
    if !(v.is_finite() && v > 0.0) {
        return Err(format!("{section}.{key}: must be finite and > 0"));
    }
    Ok(v)
}

fn range_u64(
    table: &Value,
    section: &str,
    key: &str,
    lo: u64,
    hi: u64,
) -> Result<Option<u64>, String> {
    match opt_u64(table, section, key)? {
        None => Ok(None),
        Some(v) if (lo..=hi).contains(&v) => Ok(Some(v)),
        Some(_) => Err(format!("{section}.{key}: must be in {lo}..={hi}")),
    }
}

fn require_range(table: &Value, section: &str, key: &str, lo: u64, hi: u64) -> Result<u64, String> {
    range_u64(table, section, key, lo, hi)?
        .ok_or_else(|| format!("{section}: missing required key '{key}'"))
}

fn parse_domain(table: &Value, section: &str) -> Result<Domain, String> {
    match require_str(table, section, "domain")? {
        "cluster" => Ok(Domain::Cluster),
        "booster" => Ok(Domain::Booster),
        other => Err(format!(
            "{section}.domain: unknown domain '{other}' (use 'cluster' or 'booster')"
        )),
    }
}

// ---------------------------------------------------------------
// section parsers
// ---------------------------------------------------------------

fn parse_machine(doc: &Value) -> Result<(&'static str, DeepConfig), String> {
    let table = require_table(doc, "machine")?;
    check_keys(table, "machine", keys::MACHINE)?;
    let (preset, mut cfg) = match require_str(table, "machine", "preset")? {
        "small" => ("small", DeepConfig::small()),
        "medium" => ("medium", DeepConfig::medium()),
        "prototype" => ("prototype", DeepConfig::prototype()),
        other => {
            return Err(format!(
                "machine: unknown preset '{other}' (use 'small', 'medium', 'prototype')"
            ))
        }
    };
    if let Some(n) = range_u64(table, "machine", "n_cluster", 1, 1_048_576)? {
        cfg.n_cluster = n as u32;
    }
    if let Some(n) = range_u64(table, "machine", "n_bi", 1, 4096)? {
        cfg.n_bi = n as u32;
    }
    match table.get("booster_dims") {
        None => {}
        Some(Value::Array(items)) if items.len() == 3 => {
            let mut dims = [0u32; 3];
            for (i, item) in items.iter().enumerate() {
                match item.as_u64() {
                    Some(v) if (1..=1024).contains(&v) => dims[i] = v as u32,
                    _ => {
                        return Err(
                            "machine.booster_dims: each dimension must be in 1..=1024".to_string()
                        )
                    }
                }
            }
            cfg.booster_dims = (dims[0], dims[1], dims[2]);
        }
        Some(_) => return Err("machine.booster_dims: expected an array of 3 integers".to_string()),
    }
    match opt_f64(table, "machine", "booster_link_error_rate")? {
        None => {}
        Some(v) if (0.0..=1.0).contains(&v) => cfg.booster_link_error_rate = v,
        Some(_) => return Err("machine.booster_link_error_rate: must be in 0..=1".to_string()),
    }
    Ok((preset, cfg))
}

fn parse_app(table: &Value, machine: &DeepConfig) -> Result<AppSpec, String> {
    match require_str(table, "app", "skeleton")? {
        "resilience" => Ok(AppSpec::Resilience(parse_resilience_app(table, machine)?)),
        "scalability" => Ok(AppSpec::Scalability(parse_scalability_app(table)?)),
        skeleton => Err(format!(
            "app: unknown skeleton '{skeleton}' (use 'resilience' or 'scalability')"
        )),
    }
}

fn parse_scalability_app(table: &Value) -> Result<ScalabilityApp, String> {
    check_keys(table, "app", keys::SCALABILITY_APP)?;
    let ranks = match range_u64(table, "app", "ranks", 2, 262_144)? {
        None => 64,
        Some(r) if r.is_power_of_two() => r as u32,
        Some(_) => return Err("app.ranks: must be a power of two".to_string()),
    };
    let iters = range_u64(table, "app", "iters", 1, 8)?.unwrap_or(1) as u32;
    let complex = match table.get("complex") {
        None => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err("app.complex: expected a boolean".to_string()),
    };
    Ok(ScalabilityApp {
        ranks: vec![ranks],
        iters,
        complex,
    })
}

fn parse_resilience_app(table: &Value, machine: &DeepConfig) -> Result<ResilienceApp, String> {
    check_keys(table, "app", keys::RESILIENCE_APP)?;
    let intervals = match table.get("intervals") {
        None => vec![IntervalSpec::DalyTimes(1.0)],
        Some(Value::Array(items)) if !items.is_empty() => {
            // Bounds the execution-time work-unit vector (sweep points
            // × intervals) alongside the 4096-point sweep cap.
            if items.len() > 64 {
                return Err("app.intervals: must have at most 64 entries".to_string());
            }
            items.iter().map(parse_interval).collect::<Result<_, _>>()?
        }
        Some(Value::Array(_)) => {
            return Err("app.intervals: must not be empty".to_string());
        }
        Some(_) => return Err("app.intervals: expected an array".to_string()),
    };
    Ok(ResilienceApp {
        base: ResilienceParams {
            work_s: positive_f64(table, "app", "work_s")?,
            mtbf_node_s: positive_f64(table, "app", "mtbf_node_s")?,
            checkpoint_s: positive_f64(table, "app", "checkpoint_s")?,
            restart_s: positive_f64(table, "app", "restart_s")?,
            n_nodes: range_u64(table, "app", "n_nodes", 1, 100_000_000)?
                .unwrap_or(u64::from(machine.n_cluster) + u64::from(machine.n_booster())),
        },
        intervals,
        axes: Vec::new(),
    })
}

fn parse_interval(item: &Value) -> Result<IntervalSpec, String> {
    let bad = |s: &str| {
        format!("app: unknown interval '{s}' (use seconds, 'daly', 'daly*N' or 'daly/N')")
    };
    match item {
        Value::Number(n) if n.is_finite() && *n > 0.0 => Ok(IntervalSpec::Seconds(*n)),
        Value::Number(n) => Err(bad(&format!("{n}"))),
        Value::String(s) => {
            let factor = |k: &str| k.parse::<f64>().ok().filter(|k| k.is_finite() && *k > 0.0);
            if s == "daly" {
                Ok(IntervalSpec::DalyTimes(1.0))
            } else if let Some(k) = s.strip_prefix("daly*").and_then(factor) {
                Ok(IntervalSpec::DalyTimes(k))
            } else if let Some(k) = s.strip_prefix("daly/").and_then(factor) {
                Ok(IntervalSpec::DalyOver(k))
            } else {
                Err(bad(s))
            }
        }
        _ => Err(bad("<non-scalar>")),
    }
}

/// Parse `[sweep]` into the app's axes (a `ranks` axis replaces the
/// scalability skeleton's rank list). Returns whether any axis was
/// declared.
fn parse_sweep(doc: &Value, app: &mut Option<AppSpec>) -> Result<bool, String> {
    let Some(sweep) = doc.get("sweep") else {
        return Ok(false);
    };
    check_keys(sweep, "sweep", keys::SWEEP)?;
    let axes = match sweep.get("axes") {
        None => return Ok(false),
        Some(Value::Array(items)) => items,
        Some(_) => return Err("sweep.axes: expected an array of tables".to_string()),
    };
    let scalability = matches!(app, Some(AppSpec::Scalability(_)));
    let mut seen: Vec<&str> = Vec::with_capacity(axes.len());
    for axis in axes {
        let name = require_str(axis, "sweep axis", "param")?;
        let section = format!("sweep axis '{name}'");
        check_keys(axis, &section, keys::AXIS)?;
        // `None` is the scalability skeleton's `ranks`.
        let param = AxisParam::from_name(name);
        if param.is_none() && name != "ranks" {
            return Err(format!("sweep axis '{name}': unknown parameter"));
        }
        if param.is_none() != scalability {
            return Err(if scalability {
                format!("sweep axis '{name}': the 'scalability' skeleton only sweeps 'ranks'")
            } else {
                "sweep axis 'ranks': requires the 'scalability' skeleton".to_string()
            });
        }
        if seen.contains(&name) {
            return Err(format!("sweep: duplicate axis '{name}'"));
        }
        seen.push(name);
        let values = parse_axis_values(axis, name, &section)?;
        match param {
            None => {
                for v in values.iter() {
                    let ok = v.fract() == 0.0
                        && (2.0..=262_144.0).contains(&v)
                        && (v as u64).is_power_of_two();
                    if !ok {
                        return Err(
                            "sweep axis 'ranks': values must be powers of two in 2..=262144"
                                .to_string(),
                        );
                    }
                }
            }
            Some(AxisParam::NNodes) => {
                if values.iter().any(|v| v.fract() != 0.0 || v < 1.0) {
                    return Err(
                        "sweep axis 'n_nodes': values must be positive integers".to_string()
                    );
                }
            }
            Some(_) => {
                if values.iter().any(|v| v <= 0.0) {
                    return Err(format!("sweep axis '{name}': values must be > 0"));
                }
            }
        }
        match (app.as_mut(), param) {
            (Some(AppSpec::Resilience(app)), Some(param)) => {
                app.axes.push(SweepAxis { param, values });
            }
            (Some(AppSpec::Scalability(app)), None) => {
                app.ranks = values.iter().map(|v| v as u32).collect();
            }
            // No app block: `from_value` rejects the sweep.
            _ => {}
        }
    }
    Ok(!axes.is_empty())
}

fn parse_axis_values(axis: &Value, param: &str, section: &str) -> Result<AxisValues, String> {
    match (axis.get("values"), axis.get("grid")) {
        (Some(_), Some(_)) => Err(format!(
            "sweep axis '{param}': give either 'values' or 'grid', not both"
        )),
        (Some(Value::Array(items)), None) if !items.is_empty() => items
            .iter()
            .map(|item| match item {
                Value::Number(n) if n.is_finite() => Ok(*n),
                _ => Err(format!(
                    "sweep axis '{param}': values must be finite numbers"
                )),
            })
            .collect::<Result<_, _>>()
            .map(AxisValues::List),
        (Some(Value::Array(_)), None) => {
            Err(format!("sweep axis '{param}': 'values' must not be empty"))
        }
        (Some(_), None) => Err(format!("sweep axis '{param}': 'values' must be an array")),
        (None, Some(grid @ Value::Object(_))) => {
            check_keys(grid, &format!("{section}.grid"), keys::GRID)?;
            let start = require_f64(grid, section, "start")?;
            let step = require_f64(grid, section, "step")?;
            let count = require_u64(grid, section, "count")?;
            if !start.is_finite() || !step.is_finite() {
                return Err(format!("sweep axis '{param}': grid bounds must be finite"));
            }
            if step == 0.0 && count > 1 {
                return Err(format!(
                    "sweep axis '{param}': grid 'step' must be non-zero (the axis never advances)"
                ));
            }
            if !(1..=4096).contains(&count) {
                return Err(format!(
                    "sweep axis '{param}': grid 'count' must be in 1..=4096"
                ));
            }
            Ok(AxisValues::Grid {
                start,
                step,
                count: count as usize,
            })
        }
        (None, Some(_)) => Err(format!("sweep axis '{param}': 'grid' must be a table")),
        (None, None) => Err(format!("sweep axis '{param}': needs 'values' or 'grid'")),
    }
}

fn parse_faults(doc: &Value, machine: &DeepConfig) -> Result<FaultSpec, String> {
    let Some(faults) = doc.get("faults") else {
        return Ok(FaultSpec::default());
    };
    check_keys(faults, "faults", keys::FAULTS)?;
    let mut spec = FaultSpec::default();
    if let Some(events) = faults.get("events") {
        let Value::Array(items) = events else {
            return Err("faults.events: expected an array of tables".to_string());
        };
        for item in items {
            spec.events.push(parse_fault_event(item)?);
        }
    }
    if let Some(p) = faults.get("poisson") {
        check_keys(p, "faults.poisson", keys::POISSON)?;
        let weights = match p.get("weights") {
            None => [0.7, 0.25, 0.05],
            Some(Value::Array(items)) if items.len() == 3 => {
                let mut w = [0.0f64; 3];
                for (i, item) in items.iter().enumerate() {
                    match item {
                        Value::Number(n) if n.is_finite() && *n >= 0.0 => w[i] = *n,
                        _ => {
                            return Err("faults.poisson.weights: must be 3 non-negative numbers"
                                .to_string())
                        }
                    }
                }
                w
            }
            Some(_) => {
                return Err("faults.poisson.weights: must be 3 non-negative numbers".to_string())
            }
        };
        let domain = parse_domain(p, "faults.poisson")?;
        let domain_nodes = match domain {
            Domain::Cluster => machine.n_cluster,
            Domain::Booster => machine.n_booster(),
        };
        let poisson = PoissonSpec {
            domain,
            n_nodes: range_u64(p, "faults.poisson", "n_nodes", 1, 10_000_000)?
                .map_or(domain_nodes, |v| v as u32),
            mtbf_node_s: positive_f64(p, "faults.poisson", "mtbf_node_s")?,
            horizon_s: positive_f64(p, "faults.poisson", "horizon_s")?,
            weights,
            stream: opt_u64(p, "faults.poisson", "stream")?.unwrap_or(1),
        };
        // The plan holds every crash before the horizon.
        let crashes = f64::from(poisson.n_nodes) * poisson.horizon_s / poisson.mtbf_node_s;
        if crashes > f64::from(1u32 << 20) {
            return Err("faults.poisson: too many expected crashes \
                        (n_nodes * horizon_s / mtbf_node_s exceeds 2^20)"
                .to_string());
        }
        spec.poisson = Some(poisson);
    }
    if let Some(f) = faults.get("link_flaps") {
        check_keys(f, "faults.link_flaps", keys::LINK_FLAPS)?;
        let error_rate = require_f64(f, "faults.link_flaps", "error_rate")?;
        if !(0.0..=1.0).contains(&error_rate) {
            return Err("faults.link_flaps.error_rate: must be in 0..=1".to_string());
        }
        spec.link_flaps = Some(FlapSpec {
            domain: parse_domain(f, "faults.link_flaps")?,
            first_s: positive_f64(f, "faults.link_flaps", "first_s")?,
            period_s: positive_f64(f, "faults.link_flaps", "period_s")?,
            error_rate,
            flap_s: positive_f64(f, "faults.link_flaps", "flap_s")?,
            count: require_range(f, "faults.link_flaps", "count", 1, 100_000)? as u32,
        });
    }
    Ok(spec)
}

fn parse_fault_event(item: &Value) -> Result<FaultEvent, String> {
    if !matches!(item, Value::Object(_)) {
        return Err("faults.events: each event must be a table".to_string());
    }
    let kind_name = require_str(item, "faults.events", "kind")?;
    let at_s = positive_f64(item, "faults.events", "at_s")?;
    let section = format!("faults.events[{kind_name}]");
    let node = || require_range(item, &section, "node", 0, u64::from(u32::MAX)).map(|v| v as u32);
    let kind = match kind_name {
        "node_crash" => {
            check_keys(item, &section, &["kind", "at_s", "domain", "node", "severity"])?;
            let severity = match item.get("severity").and_then(|v| v.as_str()) {
                None | Some("node") => FailureSeverity::NodeLoss,
                Some("transient") => FailureSeverity::Transient,
                Some("multi") => FailureSeverity::MultiNodeLoss,
                Some(other) => {
                    return Err(format!(
                        "{section}.severity: unknown severity '{other}' (use 'transient', 'node', 'multi')"
                    ))
                }
            };
            FaultKind::NodeCrash {
                domain: parse_domain(item, &section)?,
                node: node()?,
                severity,
            }
        }
        "link_degrade" => {
            check_keys(
                item,
                &section,
                &["kind", "at_s", "domain", "error_rate", "duration_s"],
            )?;
            let error_rate = require_f64(item, &section, "error_rate")?;
            if !(0.0..=1.0).contains(&error_rate) {
                return Err(format!("{section}.error_rate: must be in 0..=1"));
            }
            FaultKind::LinkDegrade {
                domain: parse_domain(item, &section)?,
                error_rate,
                duration: SimDuration::from_secs_f64(positive_f64(item, &section, "duration_s")?),
            }
        }
        "nic_drop" => {
            check_keys(
                item,
                &section,
                &["kind", "at_s", "domain", "node", "drop_prob", "duration_s"],
            )?;
            let drop_prob = require_f64(item, &section, "drop_prob")?;
            if !(0.0..=1.0).contains(&drop_prob) {
                return Err(format!("{section}.drop_prob: must be in 0..=1"));
            }
            FaultKind::NicDrop {
                domain: parse_domain(item, &section)?,
                node: node()?,
                drop_prob,
                duration: SimDuration::from_secs_f64(positive_f64(item, &section, "duration_s")?),
            }
        }
        "bi_fail" => {
            check_keys(item, &section, &["kind", "at_s", "index", "duration_s"])?;
            FaultKind::BiFail {
                index: require_u64(item, &section, "index")? as usize,
                duration: SimDuration::from_secs_f64(positive_f64(item, &section, "duration_s")?),
            }
        }
        "pfs_stall" => {
            check_keys(item, &section, &["kind", "at_s", "server", "bytes"])?;
            FaultKind::PfsStall {
                server: require_u64(item, &section, "server")? as usize,
                bytes: require_u64(item, &section, "bytes")?,
            }
        }
        other => {
            return Err(format!(
                "faults.events: unknown kind '{other}' (use 'node_crash', 'link_degrade', 'nic_drop', 'bi_fail', 'pfs_stall')"
            ))
        }
    };
    Ok(FaultEvent {
        at: SimDuration::from_secs_f64(at_s),
        kind,
    })
}

fn parse_trace(table: &Value, machine: &DeepConfig) -> Result<TraceSpec, String> {
    check_keys(table, "trace", keys::TRACE)?;
    let policy = match table.get("policy") {
        None => Policy::DynamicFcfs,
        Some(Value::String(s)) => match s.as_str() {
            "static" => Policy::StaticFcfs,
            "dynamic" => Policy::DynamicFcfs,
            "backfill" => Policy::DynamicBackfill,
            _ => {
                return Err(format!(
                    "trace.policy: unknown policy '{s}' (use 'static', 'dynamic', 'backfill')"
                ))
            }
        },
        Some(_) => return Err("trace.policy: expected a string".to_string()),
    };
    let pure_cluster_fraction = opt_f64(table, "trace", "pure_cluster_fraction")?.unwrap_or(0.3);
    if !(0.0..=1.0).contains(&pure_cluster_fraction) {
        return Err("trace.pure_cluster_fraction: must be in 0..=1".to_string());
    }
    let secs = |key| positive_f64(table, "trace", key).map(SimDuration::from_secs_f64);
    let mix = MixParams {
        n_jobs: require_range(table, "trace", "jobs", 1, 100_000)? as u32,
        mean_interarrival: secs("mean_interarrival_s")?,
        max_cn: (range_u64(table, "trace", "max_cn", 1, 1_048_576)?.unwrap_or(4) as u32)
            .min(machine.n_cluster),
        max_bn: (range_u64(table, "trace", "max_bn", 0, 1_048_576)?.unwrap_or(8) as u32)
            .min(machine.n_booster()),
        mean_cn_time: secs("mean_cn_time_s")?,
        mean_bn_time: secs("mean_bn_time_s")?,
        max_phases: range_u64(table, "trace", "max_phases", 1, 64)?.unwrap_or(3) as u32,
        pure_cluster_fraction,
    };
    let spec = TraceSpec {
        mix,
        policy,
        spares: range_u64(table, "trace", "spares", 0, 4096)?.unwrap_or(0) as u32,
        sample_every: match opt_f64(table, "trace", "sample_every_s")? {
            None => SimDuration::from_secs_f64(60.0),
            Some(v) if v.is_finite() && v > 0.0 => SimDuration::from_secs_f64(v),
            Some(_) => return Err("trace.sample_every_s: must be finite and > 0".to_string()),
        },
    };
    // The replay's expected horizon bounds its simulated time (which must
    // stay far from `SimTime` overflow) and its utilisation samples.
    let m = &spec.mix;
    let phase_s = m.mean_cn_time.as_secs_f64() + m.mean_bn_time.as_secs_f64();
    let job_s = m.mean_interarrival.as_secs_f64() + f64::from(m.max_phases) * phase_s;
    let horizon_s = f64::from(m.n_jobs) * job_s;
    if horizon_s > 1e8 {
        return Err(
            "trace: expected horizon too long (jobs * (mean_interarrival_s + \
             max_phases * (mean_cn_time_s + mean_bn_time_s)) exceeds 1e8 s)"
                .to_string(),
        );
    }
    if horizon_s / spec.sample_every.as_secs_f64() > f64::from(1u32 << 20) {
        return Err(
            "trace: too many utilisation samples (expected horizon / sample_every_s exceeds 2^20)"
                .to_string(),
        );
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The daemon validates untrusted documents with
    /// [`Scenario::from_value`]; axes large enough that their cross
    /// product would be a multi-terabyte allocation must be rejected
    /// from cardinalities alone, before any point vector exists.
    #[test]
    fn oversized_sweep_is_rejected_before_materialization() {
        let values = vec!["1"; 1_000_000].join(",");
        let doc = deep_json::from_str(&format!(
            r#"{{"scenario": {{"name": "dos", "seed": 1}}, "machine": {{"preset": "small"}},
                "app": {{"skeleton": "resilience", "work_s": 1000, "mtbf_node_s": 100000,
                         "checkpoint_s": 10, "restart_s": 30}},
                "sweep": {{"axes": [{{"param": "work_s", "values": [{values}]}},
                                    {{"param": "mtbf_node_s", "values": [{values}]}}]}}}}"#
        ))
        .unwrap();
        let err = Scenario::from_value(&doc).unwrap_err();
        assert_eq!(err, "sweep: too many points (cross product exceeds 4096)");
    }
}
