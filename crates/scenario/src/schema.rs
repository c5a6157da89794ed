//! Typed scenario schema: validation of the parsed TOML tree into
//! resolved values — the [`DeepConfig`] the machine block denotes,
//! every machine-dependent default filled in, every choice (sweep axis,
//! trace policy) decided — which execution consumes as is.
//!
//! Each section's keys are one table of [`Key`] rows: name, whether
//! required, type and range, scalar default. One reader checks a
//! section against its table; the sweep axes, the key tables of
//! `docs/scenario.md` (`tests/scenario_conformance.rs`) and the
//! validation fuzzer (`tests/scenario_proptest.rs`) read the same rows.
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
use std::borrow::Cow;
use Scalar as S;
use Ty::*;

// ---------------------------------------------------------------
// key tables
// ---------------------------------------------------------------

/// One key of a section.
#[derive(Clone, Copy)]
pub struct Key {
    /// The key's name.
    pub name: &'static str,
    /// Whether a document must give it.
    pub required: bool,
    /// Its type and range.
    pub ty: Ty,
    /// The value an absent optional key reads as; `None` when it has
    /// none or the default depends on the machine.
    pub default: Option<Scalar<'static>>,
    /// For a resilience `[app]` key a sweep axis may vary: how the axis
    /// sets it on a point.
    pub axis: Option<fn(&mut ResilienceParams, f64)>,
}

/// A key's type and range, from a small closed set.
#[derive(Clone, Copy)]
pub enum Ty {
    /// Any string.
    Str,
    /// A string of `lo..=hi` bytes.
    Chars(usize, usize),
    /// `true` or `false`.
    Bool,
    /// A non-negative integer.
    U64,
    /// An integer in `lo..=hi`.
    Int(u64, u64),
    /// Any number.
    Num,
    /// A finite number > 0.
    Positive,
    /// A number in `0..=1`.
    Unit,
    /// One of a list of names; an unknown name is reported against the
    /// key.
    Choice(&'static dyn Names),
    /// A name selecting what the rest of the section is (`preset`,
    /// `skeleton`, an event's `kind`): the section parser resolves it
    /// and reports an unknown name against the section.
    Select(&'static dyn Names),
    /// A table.
    Table,
    /// An array of tables, each read by the section parser.
    Tables,
    /// A composite value the section parser checks; the text is its
    /// range as documented.
    Parsed(&'static str),
}

/// A key's default, or a checked scalar value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scalar<'s> {
    /// An integer.
    Int(u64),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A string, or the name of a choice.
    Str(&'s str),
}

/// The names of a named choice, in the order its `(use …)` hint lists
/// them.
pub trait Names: Sync {
    /// The `i`-th name.
    fn name(&self, i: usize) -> Option<&'static str>;
}

impl<T: Sync, const N: usize> Names for [(&'static str, T); N] {
    fn name(&self, i: usize) -> Option<&'static str> {
        self.get(i).map(|c| c.0)
    }
}

impl dyn Names {
    /// Every name, in hint order.
    pub fn iter(&self) -> impl Iterator<Item = &'static str> + '_ {
        (0..).map_while(|i| self.name(i))
    }
}

const fn req(name: &'static str, ty: Ty) -> Key {
    Key {
        name,
        required: true,
        ty,
        default: None,
        axis: None,
    }
}

const fn opt(name: &'static str, ty: Ty) -> Key {
    Key {
        required: false,
        ..req(name, ty)
    }
}

const fn def(name: &'static str, ty: Ty, default: Scalar<'static>) -> Key {
    Key {
        default: Some(default),
        ..opt(name, ty)
    }
}

impl Key {
    const fn axis(self, set: fn(&mut ResilienceParams, f64)) -> Key {
        Key {
            axis: Some(set),
            ..self
        }
    }
}

type Preset = fn() -> DeepConfig;
type AppParser = fn(&Value, &DeepConfig) -> Result<AppSpec, String>;
type EventParser = fn(&Value, String) -> Result<FaultKind, String>;

// Named choices: one `(name, value)` list each, in `(use …)` hint order.
const PRESETS: [(&str, Preset); 3] = [
    ("small", DeepConfig::small),
    ("medium", DeepConfig::medium),
    ("prototype", DeepConfig::prototype),
];
const SKELETONS: [(&str, AppParser); 2] = [
    ("resilience", parse_resilience_app),
    ("scalability", parse_scalability_app),
];
const DOMAINS: [(&str, Domain); 2] = [("cluster", Domain::Cluster), ("booster", Domain::Booster)];
/// Fault severities by name.
pub(crate) const SEVERITIES: [(&str, FailureSeverity); 3] = [
    ("transient", FailureSeverity::Transient),
    ("node", FailureSeverity::NodeLoss),
    ("multi", FailureSeverity::MultiNodeLoss),
];
const POLICIES: [(&str, Policy); 3] = [
    ("static", Policy::StaticFcfs),
    ("dynamic", Policy::DynamicFcfs),
    ("backfill", Policy::DynamicBackfill),
];
const FAULT_KINDS: [(&str, EventParser); 5] = [
    ("node_crash", parse_node_crash),
    ("link_degrade", parse_link_degrade),
    ("nic_drop", parse_nic_drop),
    ("bi_fail", parse_bi_fail),
    ("pfs_stall", parse_pfs_stall),
];

/// The rank range of the scalability skeleton and its `ranks` axis.
const RANKS: (u64, u64) = (2, 262_144);
const SKELETON: Key = req("skeleton", Select(&SKELETONS));
const KIND: Key = req("kind", Select(&FAULT_KINDS));
const AT_S: Key = req("at_s", Positive);
const DOMAIN: Key = req("domain", Choice(&DOMAINS));
const NODE: Key = req("node", Int(0, u32::MAX as u64));
const DURATION_S: Key = req("duration_s", Positive);
// The resilience point's keys, each with the setter a sweep axis uses.
const WORK_S: Key = req("work_s", Positive).axis(|p, v| p.work_s = v);
const MTBF_NODE_S: Key = req("mtbf_node_s", Positive).axis(|p, v| p.mtbf_node_s = v);
const CHECKPOINT_S: Key = req("checkpoint_s", Positive).axis(|p, v| p.checkpoint_s = v);
const RESTART_S: Key = req("restart_s", Positive).axis(|p, v| p.restart_s = v);
const N_NODES: Key = opt("n_nodes", Int(1, 100_000_000)).axis(|p, v| p.n_nodes = v as u64);

/// Top-level sections.
pub const SECTIONS: &[Key] = &[
    req("scenario", Table),
    req("machine", Table),
    opt("app", Table),
    opt("sweep", Table),
    opt("faults", Table),
    opt("trace", Table),
];
/// `[scenario]`.
pub const SCENARIO: &[Key] = &[
    req("name", Chars(1, 64)),
    req("seed", U64),
    def("replicas", Int(1, 1024), S::Int(1)),
];
/// `[machine]`; an absent override keeps the preset's value.
pub const MACHINE: &[Key] = &[
    req("preset", Select(&PRESETS)),
    opt("n_cluster", Int(1, 1_048_576)),
    opt("n_bi", Int(1, 4096)),
    opt("booster_dims", Parsed("3 × 1..=1024")),
    opt("booster_link_error_rate", Unit),
];
/// `[app]` with `skeleton = "resilience"`; the five keys with an
/// `axis` setter are the ones `[[sweep.axes]]` may vary.
pub const RESILIENCE_APP: &[Key] = &[
    SKELETON,
    opt("intervals", Parsed("1..=64 intervals")),
    WORK_S,
    MTBF_NODE_S,
    CHECKPOINT_S,
    RESTART_S,
    N_NODES,
];
/// `[app]` with `skeleton = "scalability"`.
pub const SCALABILITY_APP: &[Key] = &[
    SKELETON,
    def("ranks", Int(RANKS.0, RANKS.1), S::Int(64)),
    def("iters", Int(1, 8), S::Int(1)),
    def("complex", Bool, S::Bool(false)),
];
/// `[sweep]`.
pub const SWEEP: &[Key] = &[opt("axes", Tables), opt("points", Tables)];
/// One `[[sweep.points]]` entry: the five resilience axis keys, all
/// required, and the interval that point is evaluated at.
pub const POINT: &[Key] = &[
    WORK_S,
    MTBF_NODE_S,
    CHECKPOINT_S,
    RESTART_S,
    Key {
        required: true,
        ..N_NODES
    },
    req("interval_s", Positive),
];
/// One `[[sweep.axes]]` entry.
pub const AXIS: &[Key] = &[
    req("param", Str),
    opt("values", Parsed("non-empty list of finite numbers")),
    opt("grid", Parsed("{ start, step, count }")),
];
/// An axis `grid` table.
pub const GRID: &[Key] = &[req("start", Num), req("step", Num), req("count", U64)];
/// `[faults]`.
pub const FAULTS: &[Key] = &[
    opt("events", Tables),
    opt("poisson", Table),
    opt("link_flaps", Table),
];
/// `[faults.poisson]`; `n_nodes` defaults to the domain's node count.
pub const POISSON: &[Key] = &[
    opt("weights", Parsed("3 numbers ≥ 0, not all 0")),
    DOMAIN,
    opt("n_nodes", Int(1, 10_000_000)),
    req("mtbf_node_s", Positive),
    req("horizon_s", Positive),
    def("stream", U64, S::Int(1)),
];
/// `[faults.link_flaps]`.
pub const LINK_FLAPS: &[Key] = &[
    req("error_rate", Unit),
    DOMAIN,
    req("first_s", Positive),
    req("period_s", Positive),
    req("flap_s", Positive),
    req("count", Int(1, 100_000)),
];
/// A `node_crash` event.
pub const NODE_CRASH: &[Key] = &[
    KIND,
    AT_S,
    def("severity", Choice(&SEVERITIES), S::Str("node")),
    DOMAIN,
    NODE,
];
/// A `link_degrade` event.
pub const LINK_DEGRADE: &[Key] = &[KIND, AT_S, req("error_rate", Unit), DOMAIN, DURATION_S];
/// A `nic_drop` event.
pub const NIC_DROP: &[Key] = &[KIND, AT_S, req("drop_prob", Unit), DOMAIN, NODE, DURATION_S];
/// A `bi_fail` event.
pub const BI_FAIL: &[Key] = &[KIND, AT_S, req("index", U64), DURATION_S];
/// A `pfs_stall` event.
pub const PFS_STALL: &[Key] = &[KIND, AT_S, req("server", U64), req("bytes", U64)];
/// `[trace]`.
pub const TRACE: &[Key] = &[
    def("policy", Choice(&POLICIES), S::Str("dynamic")),
    def("pure_cluster_fraction", Unit, S::Num(0.3)),
    req("jobs", Int(1, 100_000)),
    req("mean_interarrival_s", Positive),
    def("max_cn", Int(1, 1_048_576), S::Int(4)),
    def("max_bn", Int(0, 1_048_576), S::Int(8)),
    req("mean_cn_time_s", Positive),
    req("mean_bn_time_s", Positive),
    def("max_phases", Int(1, 64), S::Int(3)),
    def("spares", Int(0, 4096), S::Int(0)),
    def("sample_every_s", Positive, S::Num(60.0)),
];

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
    /// `[[sweep.points]]`: explicit `(point, interval_s)` cases, run as
    /// listed in place of the axes and `intervals`; empty when the
    /// document has none, 1..=4096 otherwise.
    pub(crate) explicit: Vec<(ResilienceParams, f64)>,
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
    /// The explicit points in order, or else the cross product of the
    /// sweep axes applied to the base point (first axis outermost);
    /// with neither, the base point alone.
    pub fn points(&self) -> Vec<ResilienceParams> {
        if !self.explicit.is_empty() {
            return self.explicit.iter().map(|&(p, _)| p).collect();
        }
        let mut points = vec![self.base];
        for axis in &self.axes {
            points = points
                .iter()
                .flat_map(|p| {
                    axis.values.iter().map(move |v| {
                        let mut q = *p;
                        (axis.set)(&mut q, v);
                        q
                    })
                })
                .collect();
        }
        points
    }

    /// The `(point, resolved interval)` cases the skeleton evaluates:
    /// the explicit cases as listed, or else every point at every
    /// interval, grouped by point, intervals in declaration order.
    pub fn cases(&self) -> Vec<(ResilienceParams, f64)> {
        if !self.explicit.is_empty() {
            return self.explicit.clone();
        }
        let points = self.points();
        points
            .iter()
            .flat_map(|p| {
                let daly = daly_optimum(p);
                self.intervals.iter().map(move |iv| (*p, iv.resolve(daly)))
            })
            .collect()
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
    /// Sets the [`ResilienceParams`] field the axis varies (the
    /// [`Key::axis`] of its `[app]` key).
    set: fn(&mut ResilienceParams, f64),
    /// The values, in evaluation order.
    values: AxisValues,
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
        let root = Reader::open("", doc, SECTIONS)?;
        let meta = root.need("scenario", SCENARIO)?;
        let name = meta.str("name")?;
        let seed = meta.int("seed")?;
        let replicas = meta.int("replicas")?;

        let (preset, machine) = parse_machine(&root.need("machine", MACHINE)?)?;
        let mut app = root
            .raw("app")?
            .map(|t| parse_app(t, &machine))
            .transpose()?;
        let sweep = root.sub("sweep", SWEEP)?;
        let declared = sweep.map(|s| parse_sweep(&s, &mut app, root.table.get("app")));
        if declared.transpose()? == Some(true) && app.is_none() {
            return Err("sweep requires an 'app' block".to_string());
        }
        let faults = root.sub("faults", FAULTS)?;
        let faults = faults.map(|f| parse_faults(&f, &machine)).transpose()?;
        let trace = root.sub("trace", TRACE)?;
        let trace = trace.map(|t| parse_trace(&t, &machine)).transpose()?;
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
            faults: faults.unwrap_or_default(),
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
/// interval) pair to a finite interval of at most [`MAX_SEGMENTS`]
/// checkpoint segments, checked on the resolved intervals since
/// `daly/N` is only known per point.
fn check_resilience_bounds(app: &ResilienceApp) -> Result<(), String> {
    let mut total: usize = 1;
    for axis in &app.axes {
        total = total
            .checked_mul(axis.values.count())
            .filter(|&t| t <= 4096)
            .ok_or_else(|| "sweep: too many points (cross product exceeds 4096)".to_string())?;
    }
    for (p, interval_s) in app.cases() {
        if !interval_s.is_finite() {
            return Err(format!(
                "app: interval must resolve to a finite number of seconds (interval = {interval_s} s)"
            ));
        }
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
// the reader (exact error strings live here)
// ---------------------------------------------------------------

/// A table read as `section` (`""` for the document root) against its
/// key table. Each read checks one key — missing, type, range — and
/// section parsers read keys in table order.
struct Reader<'v> {
    table: &'v Value,
    section: Cow<'static, str>,
    keys: &'static [Key],
}

impl<'v> Reader<'v> {
    /// A reader that does not check `table` for unknown keys.
    fn at(section: impl Into<Cow<'static, str>>, table: &'v Value, keys: &'static [Key]) -> Self {
        let section = section.into();
        Reader {
            table,
            section,
            keys,
        }
    }

    /// `table` read as `section`: a table holding no key outside `keys`.
    fn open(
        section: impl Into<Cow<'static, str>>,
        table: &'v Value,
        keys: &'static [Key],
    ) -> Result<Self, String> {
        let r = Reader::at(section, table, keys);
        check_unknown(&r.section, table, keys).map(|()| r)
    }

    /// The sub-table `name` (a [`Ty::Table`] key), opened against `keys`.
    fn sub(&self, name: &'static str, keys: &'static [Key]) -> Result<Option<Reader<'v>>, String> {
        let section = match self.section.as_ref() {
            "" => Cow::Borrowed(name),
            _ => Cow::Owned(self.path(name)),
        };
        let table = self.raw(name)?;
        table.map(|t| Reader::open(section, t, keys)).transpose()
    }

    /// The required sub-table `name`.
    fn need(&self, name: &'static str, keys: &'static [Key]) -> Result<Reader<'v>, String> {
        self.sub(name, keys)?.ok_or_else(|| self.missing(name))
    }

    fn path(&self, name: &str) -> String {
        match self.section.as_ref() {
            "" => name.to_string(),
            section => format!("{section}.{name}"),
        }
    }

    fn missing(&self, name: &str) -> String {
        match self.section.as_ref() {
            "" => format!("missing required section '{name}'"),
            section => format!("{section}: missing required key '{name}'"),
        }
    }

    /// Check key `name`: its scalar value (a choice reads as its name),
    /// its default, or `None` for an absent key without one and for a
    /// composite key.
    fn take(&self, name: &str) -> Result<Option<Scalar<'v>>, String> {
        let Some(key) = self.keys.iter().find(|k| k.name == name) else {
            debug_assert!(false, "'{name}' is not a key of '{}'", self.section);
            return Ok(None);
        };
        let Some(v) = self.table.get(name) else {
            return match key.required {
                true => Err(self.missing(name)),
                false => Ok(key.default),
            };
        };
        let bad = |what: String| Err(format!("{}: {what}", self.path(name)));
        Ok(Some(match (key.ty, v) {
            (Chars(lo, hi), Value::String(s)) if !(lo..=hi).contains(&s.len()) => {
                return bad(format!("must be {lo}..={hi} characters"))
            }
            (Choice(names), Value::String(s)) if !names.iter().any(|n| n == s) => {
                let hint = hint(names.iter());
                return bad(format!("unknown {name} '{s}' (use {hint})"));
            }
            (Str | Chars(..) | Choice(_) | Select(_), Value::String(s)) => S::Str(s),
            (Str | Chars(..) | Choice(_) | Select(_), _) => return bad("expected a string".into()),
            (Bool, Value::Bool(b)) => S::Bool(*b),
            (Bool, _) => return bad("expected a boolean".into()),
            (U64 | Int(..), v) => match (key.ty, v.as_u64()) {
                (_, None) => return bad("expected a non-negative integer".into()),
                (Int(lo, hi), Some(n)) if !(lo..=hi).contains(&n) => {
                    return bad(format!("must be in {lo}..={hi}"))
                }
                (_, Some(n)) => S::Int(n),
            },
            (Positive, Value::Number(x)) if !(x.is_finite() && *x > 0.0) => {
                return bad("must be finite and > 0".into())
            }
            (Unit, Value::Number(x)) if !(0.0..=1.0).contains(x) => {
                return bad("must be in 0..=1".into())
            }
            (Num | Positive | Unit, Value::Number(x)) => S::Num(*x),
            (Num | Positive | Unit, _) => return bad("expected a number".into()),
            (Table, Value::Object(_)) | (Tables, Value::Array(_)) | (Parsed(_), _) => {
                return Ok(None)
            }
            (Table, _) => return Err(format!("'{}' must be a table", self.path(name))),
            (Tables, _) => return bad("expected an array of tables".into()),
        }))
    }

    fn str(&self, name: &str) -> Result<&'v str, String> {
        Ok(match self.take(name)? {
            Some(S::Str(s)) => s,
            _ => "",
        })
    }

    fn opt_int(&self, name: &str) -> Result<Option<u64>, String> {
        Ok(self
            .take(name)?
            .and_then(|s| if let S::Int(n) = s { Some(n) } else { None }))
    }

    fn int(&self, name: &str) -> Result<u64, String> {
        Ok(self.opt_int(name)?.unwrap_or(0))
    }

    fn opt_num(&self, name: &str) -> Result<Option<f64>, String> {
        Ok(self
            .take(name)?
            .and_then(|s| if let S::Num(x) = s { Some(x) } else { None }))
    }

    fn num(&self, name: &str) -> Result<f64, String> {
        Ok(self.opt_num(name)?.unwrap_or(0.0))
    }

    fn secs(&self, name: &str) -> Result<SimDuration, String> {
        self.num(name).map(SimDuration::from_secs_f64)
    }

    /// The value a [`Ty::Choice`] key names in `list`, its choice list.
    fn pick<T: Copy>(&self, name: &str, list: &[(&str, T)]) -> Result<T, String> {
        let name = self.str(name)?;
        Ok(list.iter().find(|c| c.0 == name).unwrap_or(&list[0]).1)
    }

    /// A composite key's checked value.
    fn raw(&self, name: &str) -> Result<Option<&'v Value>, String> {
        self.take(name)?;
        Ok(self.table.get(name))
    }

    /// The items of a [`Ty::Tables`] key; none when it is absent.
    fn tables(&self, name: &str) -> Result<&'v [Value], String> {
        Ok(match self.raw(name)? {
            Some(Value::Array(items)) => items,
            _ => &[],
        })
    }
}

/// Reject a non-table, or the first key (in document order) outside
/// `keys`.
fn check_unknown(section: &str, table: &Value, keys: &[Key]) -> Result<(), String> {
    let Value::Object(kv) = table else {
        return Err(match section {
            "" => "scenario document must be a table".to_string(),
            _ => format!("'{section}' must be a table"),
        });
    };
    match kv
        .iter()
        .find(|(k, _)| keys.iter().all(|key| key.name != k))
    {
        None => Ok(()),
        Some((k, _)) if section.is_empty() => Err(format!("unknown section '{k}'")),
        Some((k, _)) => Err(format!("{section}: unknown key '{k}'")),
    }
}

/// The entry a [`Ty::Select`] key's `name` selects from `list`, or the
/// section's unknown-name error.
fn select<T>(
    section: &str,
    key: &str,
    list: &'static [(&'static str, T)],
    name: &str,
) -> Result<&'static (&'static str, T), String> {
    list.iter().find(|c| c.0 == name).ok_or_else(|| {
        let hint = hint(list.iter().map(|c| c.0));
        format!("{section}: unknown {key} '{name}' (use {hint})")
    })
}

/// `'a' or 'b'`, or `'a', 'b', 'c'`.
fn hint<'n>(names: impl Iterator<Item = &'n str>) -> String {
    let names: Vec<String> = names.map(|n| format!("'{n}'")).collect();
    names.join(if names.len() == 2 { " or " } else { ", " })
}

// ---------------------------------------------------------------
// section parsers
// ---------------------------------------------------------------

fn parse_machine(r: &Reader) -> Result<(&'static str, DeepConfig), String> {
    let &(preset, config) = select("machine", "preset", &PRESETS, r.str("preset")?)?;
    let mut cfg = config();
    cfg.n_cluster = r.opt_int("n_cluster")?.map_or(cfg.n_cluster, |n| n as u32);
    cfg.n_bi = r.opt_int("n_bi")?.map_or(cfg.n_bi, |n| n as u32);
    match r.raw("booster_dims")? {
        None => {}
        Some(Value::Array(items)) if items.len() == 3 => {
            let dim = |v: &Value| {
                v.as_u64()
                    .filter(|v| (1..=1024).contains(v))
                    .map(|v| v as u32)
            };
            let dims: Option<Vec<u32>> = items.iter().map(dim).collect();
            let Some(&[x, y, z]) = dims.as_deref() else {
                return Err("machine.booster_dims: each dimension must be in 1..=1024".to_string());
            };
            cfg.booster_dims = (x, y, z);
        }
        Some(_) => return Err("machine.booster_dims: expected an array of 3 integers".to_string()),
    }
    let rate = r.opt_num("booster_link_error_rate")?;
    cfg.booster_link_error_rate = rate.unwrap_or(cfg.booster_link_error_rate);
    Ok((preset, cfg))
}

fn parse_app(table: &Value, machine: &DeepConfig) -> Result<AppSpec, String> {
    let skeleton = Reader::at("app", table, &[SKELETON]).str("skeleton")?;
    select("app", "skeleton", &SKELETONS, skeleton)?.1(table, machine)
}

fn parse_scalability_app(table: &Value, _: &DeepConfig) -> Result<AppSpec, String> {
    let r = Reader::open("app", table, SCALABILITY_APP)?;
    let ranks = r.int("ranks")?;
    if !ranks.is_power_of_two() {
        return Err("app.ranks: must be a power of two".to_string());
    }
    Ok(AppSpec::Scalability(ScalabilityApp {
        ranks: vec![ranks as u32],
        iters: r.int("iters")? as u32,
        complex: matches!(r.take("complex")?, Some(S::Bool(true))),
    }))
}

fn parse_resilience_app(table: &Value, machine: &DeepConfig) -> Result<AppSpec, String> {
    let r = Reader::open("app", table, RESILIENCE_APP)?;
    let intervals = match r.raw("intervals")? {
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
    Ok(AppSpec::Resilience(ResilienceApp {
        base: ResilienceParams {
            work_s: r.num("work_s")?,
            mtbf_node_s: r.num("mtbf_node_s")?,
            checkpoint_s: r.num("checkpoint_s")?,
            restart_s: r.num("restart_s")?,
            n_nodes: r
                .opt_int("n_nodes")?
                .unwrap_or(u64::from(machine.n_cluster) + u64::from(machine.n_booster())),
        },
        intervals,
        axes: Vec::new(),
        explicit: Vec::new(),
    }))
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
/// scalability skeleton's rank list) or explicit points. Returns
/// whether any axis or point was declared.
fn parse_sweep(
    sweep: &Reader,
    app: &mut Option<AppSpec>,
    app_table: Option<&Value>,
) -> Result<bool, String> {
    let axes = sweep.tables("axes")?;
    if let Some(points) = sweep.raw("points")? {
        let intervals = app_table.and_then(|t| t.get("intervals"));
        return match (sweep.table.get("axes"), intervals) {
            (Some(_), _) => Err("sweep: give either 'axes' or 'points', not both".to_string()),
            (_, Some(_)) => Err("sweep.points: each point gives its own 'interval_s'; \
                                 drop 'app.intervals'"
                .to_string()),
            (None, None) => parse_points(points, app),
        };
    }
    let scalability = matches!(app, Some(AppSpec::Scalability(_)));
    let mut seen: Vec<&str> = Vec::with_capacity(axes.len());
    for axis in axes {
        let name = Reader::at("sweep axis", axis, AXIS).str("param")?;
        let r = Reader::open(format!("sweep axis '{name}'"), axis, AXIS)?;
        let section = &r.section;
        // `None` is the scalability skeleton's `ranks`.
        let key = RESILIENCE_APP
            .iter()
            .find(|k| k.name == name && k.axis.is_some());
        if key.is_none() && name != "ranks" {
            return Err(format!("{section}: unknown parameter"));
        }
        if key.is_none() != scalability {
            return Err(if scalability {
                format!("{section}: the 'scalability' skeleton only sweeps 'ranks'")
            } else {
                "sweep axis 'ranks': requires the 'scalability' skeleton".to_string()
            });
        }
        if seen.contains(&name) {
            return Err(format!("sweep: duplicate axis '{name}'"));
        }
        seen.push(name);
        let values = parse_axis_values(&r)?;
        let (ok, what): (fn(f64) -> bool, String) = match key.map(|k| k.ty) {
            None => (
                |v| {
                    let (lo, hi) = (RANKS.0 as f64, RANKS.1 as f64);
                    v.fract() == 0.0 && (lo..=hi).contains(&v) && (v as u64).is_power_of_two()
                },
                format!("powers of two in {}..={}", RANKS.0, RANKS.1),
            ),
            Some(Int(..)) => (|v| v.fract() == 0.0 && v >= 1.0, "positive integers".into()),
            Some(_) => (|v| v > 0.0, "> 0".into()),
        };
        if !values.iter().all(ok) {
            return Err(format!("{section}: values must be {what}"));
        }
        match (app.as_mut(), key.and_then(|k| k.axis)) {
            (Some(AppSpec::Resilience(app)), Some(set)) => {
                app.axes.push(SweepAxis { set, values });
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

/// Parse `[[sweep.points]]` into the resilience app's explicit cases.
fn parse_points(points: &Value, app: &mut Option<AppSpec>) -> Result<bool, String> {
    let items = points.as_array().map_or(&[][..], Vec::as_slice);
    if !(1..=4096).contains(&items.len()) {
        return Err("sweep.points: must hold 1..=4096 entries".to_string());
    }
    let Some(AppSpec::Resilience(app)) = app else {
        // No app block: `from_value` rejects the sweep.
        return match app {
            Some(_) => Err("sweep.points: requires the 'resilience' skeleton".to_string()),
            None => Ok(true),
        };
    };
    for (i, item) in items.iter().enumerate() {
        let r = Reader::open(format!("sweep.points[{i}]"), item, POINT)?;
        let point = ResilienceParams {
            work_s: r.num("work_s")?,
            mtbf_node_s: r.num("mtbf_node_s")?,
            checkpoint_s: r.num("checkpoint_s")?,
            restart_s: r.num("restart_s")?,
            n_nodes: r.int("n_nodes")?,
        };
        app.explicit.push((point, r.num("interval_s")?));
    }
    Ok(true)
}

fn parse_axis_values(axis: &Reader) -> Result<AxisValues, String> {
    let section = &axis.section;
    match (axis.raw("values")?, axis.raw("grid")?) {
        (Some(_), Some(_)) => Err(format!(
            "{section}: give either 'values' or 'grid', not both"
        )),
        (Some(Value::Array(items)), None) if !items.is_empty() => items
            .iter()
            .map(|item| match item {
                Value::Number(n) if n.is_finite() => Ok(*n),
                _ => Err(format!("{section}: values must be finite numbers")),
            })
            .collect::<Result<_, _>>()
            .map(AxisValues::List),
        (Some(Value::Array(_)), None) => Err(format!("{section}: 'values' must not be empty")),
        (Some(_), None) => Err(format!("{section}: 'values' must be an array")),
        (None, Some(grid @ Value::Object(_))) => {
            check_unknown(&format!("{section}.grid"), grid, GRID)?;
            // Grid keys report as the axis's own.
            let g = Reader::at(section.clone(), grid, GRID);
            let start = g.num("start")?;
            let step = g.num("step")?;
            let count = g.int("count")?;
            if !start.is_finite() || !step.is_finite() {
                return Err(format!("{section}: grid bounds must be finite"));
            }
            if step == 0.0 && count > 1 {
                return Err(format!(
                    "{section}: grid 'step' must be non-zero (the axis never advances)"
                ));
            }
            if !(1..=4096).contains(&count) {
                return Err(format!("{section}: grid 'count' must be in 1..=4096"));
            }
            Ok(AxisValues::Grid {
                start,
                step,
                count: count as usize,
            })
        }
        (None, Some(_)) => Err(format!("{section}: 'grid' must be a table")),
        (None, None) => Err(format!("{section}: needs 'values' or 'grid'")),
    }
}

fn parse_faults(faults: &Reader, machine: &DeepConfig) -> Result<FaultSpec, String> {
    let mut spec = FaultSpec::default();
    for item in faults.tables("events")? {
        if !matches!(item, Value::Object(_)) {
            return Err("faults.events: each event must be a table".to_string());
        }
        // The kind's name is checked after `at_s`.
        let head = Reader::at("faults.events", item, &[KIND, AT_S]);
        let kind = head.str("kind")?;
        let at = head.secs("at_s")?;
        let parse = select("faults.events", "kind", &FAULT_KINDS, kind)?.1;
        let kind = parse(item, format!("faults.events[{kind}]"))?;
        spec.events.push(FaultEvent { at, kind });
    }
    if let Some(p) = faults.sub("poisson", POISSON)? {
        let weights = match p.raw("weights")? {
            None => [0.7, 0.25, 0.05],
            Some(w) => {
                let weight = |v: &Value| v.as_f64().filter(|n| n.is_finite() && *n >= 0.0);
                let w: Option<Vec<f64>> = w.as_array().and_then(|w| w.iter().map(weight).collect());
                match w.as_deref() {
                    Some(&[0.0, 0.0, 0.0]) => {
                        return Err("faults.poisson.weights: must not all be zero".to_string())
                    }
                    Some(&[a, b, c]) => [a, b, c],
                    _ => {
                        return Err("faults.poisson.weights: must be 3 non-negative numbers".into())
                    }
                }
            }
        };
        let domain = p.pick("domain", &DOMAINS)?;
        let domain_nodes = match domain {
            Domain::Cluster => machine.n_cluster,
            Domain::Booster => machine.n_booster(),
        };
        let poisson = PoissonSpec {
            domain,
            n_nodes: p.opt_int("n_nodes")?.map_or(domain_nodes, |v| v as u32),
            mtbf_node_s: p.num("mtbf_node_s")?,
            horizon_s: p.num("horizon_s")?,
            weights,
            stream: p.int("stream")?,
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
    if let Some(f) = faults.sub("link_flaps", LINK_FLAPS)? {
        let error_rate = f.num("error_rate")?;
        let flaps = FlapSpec {
            domain: f.pick("domain", &DOMAINS)?,
            first_s: f.num("first_s")?,
            period_s: f.num("period_s")?,
            error_rate,
            flap_s: f.num("flap_s")?,
            count: f.int("count")? as u32,
        };
        // The last onset, as the plan computes it, must be a time.
        if !(flaps.first_s + f64::from(flaps.count - 1) * flaps.period_s).is_finite() {
            return Err("faults.link_flaps: the last onset \
                        (first_s + (count - 1) * period_s) must be finite"
                .to_string());
        }
        spec.link_flaps = Some(flaps);
    }
    Ok(spec)
}

fn parse_node_crash(item: &Value, section: String) -> Result<FaultKind, String> {
    let r = Reader::open(section, item, NODE_CRASH)?;
    // A non-string severity has always read as the default.
    let severity = match item.get("severity") {
        Some(Value::String(_)) | None => r.pick("severity", &SEVERITIES)?,
        Some(_) => Reader::at("", &Value::Null, NODE_CRASH).pick("severity", &SEVERITIES)?,
    };
    Ok(FaultKind::NodeCrash {
        domain: r.pick("domain", &DOMAINS)?,
        node: r.int("node")? as u32,
        severity,
    })
}

fn parse_link_degrade(item: &Value, section: String) -> Result<FaultKind, String> {
    let r = Reader::open(section, item, LINK_DEGRADE)?;
    let error_rate = r.num("error_rate")?;
    Ok(FaultKind::LinkDegrade {
        domain: r.pick("domain", &DOMAINS)?,
        error_rate,
        duration: r.secs("duration_s")?,
    })
}

fn parse_nic_drop(item: &Value, section: String) -> Result<FaultKind, String> {
    let r = Reader::open(section, item, NIC_DROP)?;
    let drop_prob = r.num("drop_prob")?;
    Ok(FaultKind::NicDrop {
        domain: r.pick("domain", &DOMAINS)?,
        node: r.int("node")? as u32,
        drop_prob,
        duration: r.secs("duration_s")?,
    })
}

fn parse_bi_fail(item: &Value, section: String) -> Result<FaultKind, String> {
    let r = Reader::open(section, item, BI_FAIL)?;
    Ok(FaultKind::BiFail {
        index: r.int("index")? as usize,
        duration: r.secs("duration_s")?,
    })
}

fn parse_pfs_stall(item: &Value, section: String) -> Result<FaultKind, String> {
    let r = Reader::open(section, item, PFS_STALL)?;
    Ok(FaultKind::PfsStall {
        server: r.int("server")? as usize,
        bytes: r.int("bytes")?,
    })
}

fn parse_trace(r: &Reader, machine: &DeepConfig) -> Result<TraceSpec, String> {
    let policy = r.pick("policy", &POLICIES)?;
    let pure_cluster_fraction = r.num("pure_cluster_fraction")?;
    let mix = MixParams {
        n_jobs: r.int("jobs")? as u32,
        mean_interarrival: r.secs("mean_interarrival_s")?,
        max_cn: (r.int("max_cn")? as u32).min(machine.n_cluster),
        max_bn: (r.int("max_bn")? as u32).min(machine.n_booster()),
        mean_cn_time: r.secs("mean_cn_time_s")?,
        mean_bn_time: r.secs("mean_bn_time_s")?,
        max_phases: r.int("max_phases")? as u32,
        pure_cluster_fraction,
    };
    let spec = TraceSpec {
        mix,
        policy,
        spares: r.int("spares")? as u32,
        sample_every: r.secs("sample_every_s")?,
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
