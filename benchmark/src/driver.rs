//! The part every workload shares: repeated set-up, the timed window,
//! the traced pass with its probes, and the result line.

use std::collections::BTreeMap;

use crate::clock::{cpu_s, now_ns, peak_rss_mb, secs_since};
use crate::stats::{summarize, Summary};
use crate::{trace, END_TO_END, PER_LAYER};

/// Set-up is repeated so `setup_s` is a median, not one cold sample.
const SETUP_ROUNDS: usize = 3;
/// Share of a traced run's window spent on workload repetitions; the
/// rest goes to the layer probes.
const TRACED_REP_SHARE: f64 = 0.4;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes, for the harness's own tests.
    pub smoke: bool,
}

/// What a workload's repetitions add up to.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked against a reference, and how many missed it.
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (printed; first few only).
    pub failures: Vec<String>,
    /// Latency samples of from-scratch and of cached operations, for
    /// the workloads that have them.
    pub cold_ms: Vec<f64>,
    pub hit_us: Vec<f64>,
    /// Per-layer values from the workload's own driver.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one checked operation; `problem` is `Some` when it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(why) = problem {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }
}

/// One benchmark workload. `setup` runs [`SETUP_ROUNDS`] times (the
/// last instance is the one measured), `rep` until the window is over,
/// `finish` once.
pub trait Workload: Sized {
    /// True when the workload runs on one thread, so a CPU share below
    /// 0.9 means the host took time away from it.
    const SINGLE_THREADED: bool;
    /// A repetition count fixed by the window's length instead of by
    /// the clock, for a workload whose memory grows with the work done:
    /// `peak_rss_mb` must then be taken at a stated amount of work.
    fn fixed_reps(_window_s: f64) -> Option<usize> {
        None
    }
    fn setup(p: &Params) -> Self;
    fn rep(&mut self, out: &mut Outcome);
    /// Tear down and derive the driver's per-layer values from the
    /// repetition walls.
    fn finish(self, reps: &[f64], out: &mut Outcome);
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Present when the value is a median of samples taken in this run.
    pub samples: Option<Summary>,
}

/// The result of one invocation.
#[derive(Debug)]
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub disturbed: bool,
    /// Self seconds per layer over the workload's spans of the traced
    /// pass (empty untraced).
    pub layer_self: Vec<(&'static str, f64)>,
}

/// Run workload `W` as `p` asks and collect the metrics of its mode:
/// end-to-end ones untraced, per-layer ones traced.
pub fn drive<W: Workload>(p: &Params) -> RunResult {
    let mut setup_samples = Vec::with_capacity(SETUP_ROUNDS);
    let mut state = None;
    for _ in 0..SETUP_ROUNDS {
        drop(state.take());
        let t = now_ns();
        state = Some(W::setup(p));
        setup_samples.push(secs_since(t));
    }
    let mut w = state.expect("SETUP_ROUNDS >= 1");

    trace::set_enabled(p.trace);
    let window = if p.trace {
        p.seconds * TRACED_REP_SHARE
    } else {
        p.seconds
    };
    let mut out = Outcome::default();
    let mut reps: Vec<f64> = Vec::new();
    let (t0, cpu0) = (now_ns(), cpu_s());
    {
        let mut root = trace::span("harness", "workload");
        // Repetitions start until the window is over: a run measures
        // for at least `window` and overshoots by less than one rep.
        let fixed = W::fixed_reps(window);
        while reps.is_empty() || fixed.map_or(secs_since(t0) < window, |n| reps.len() < n) {
            let t = now_ns();
            w.rep(&mut out);
            reps.push(secs_since(t));
        }
        root.count(reps.len() as u64);
    }
    let window_wall = secs_since(t0);
    let cpu_share = (cpu_s() - cpu0) / window_wall;
    w.finish(&reps, &mut out);

    let rep_wall = summarize(&reps);
    let mut values: BTreeMap<&'static str, (f64, Option<Summary>)> = BTreeMap::new();
    let mut layer_self = Vec::new();
    if p.trace {
        let workload_spans = trace::recorded();
        let probe_budget = (p.seconds - window_wall).max(0.0);
        crate::probes::run_all(probe_budget, p.smoke, &mut out.layer);
        derive_shares(&rep_wall, &mut out.layer);
        let spans = trace::take();
        // Tracing overhead: what recording the workload's spans cost,
        // as a share of the window they were recorded in.
        let span_cost_s = crate::probes::span_cost_s();
        trace::set_enabled(false);
        drop(trace::take());
        // Spans are ordered by start, so the workload's come first;
        // the probes' self time is their budget, not a finding.
        layer_self = trace::layer_self_seconds(&spans[..workload_spans]);
        let workload_spans = workload_spans as f64;
        for (name, v) in std::mem::take(&mut out.layer) {
            values.insert(name, (v, None));
        }
        values.insert("run.reps", (reps.len() as f64, None));
        values.insert(
            "run.failed_share",
            (out.failed as f64 / out.attempted.max(1) as f64, None),
        );
        values.insert("host.cpu_share", (cpu_share, None));
        values.insert("trace.wall_s", (rep_wall.median, Some(rep_wall)));
        values.insert("trace.spans", (workload_spans, None));
        values.insert(
            "trace.overhead_pct",
            (100.0 * workload_spans * span_cost_s / window_wall, None),
        );
        let path = crate::repo_root()
            .join("benchmark/out")
            .join(format!("trace-{}.jsonl", p.workload));
        if let Err(e) = trace::write_jsonl(&path, &p.workload, &spans) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
        }
    } else {
        values.insert("wall_s", (rep_wall.median, Some(rep_wall)));
        values.insert("peak_rss_mb", (peak_rss_mb(), None));
        let setup = summarize(&setup_samples);
        values.insert("setup_s", (setup.median, Some(setup)));
        // A workload without cold or cached operations of its own
        // reports the repetition wall in that metric's unit: it cannot
        // be zero or constant, and it moves only when `wall_s` moves.
        let or_reps = |samples: Vec<f64>, per_s: f64| {
            if samples.is_empty() {
                reps.iter().map(|s| s * per_s).collect()
            } else {
                samples
            }
        };
        let cold = or_reps(std::mem::take(&mut out.cold_ms), 1e3);
        let hit = or_reps(std::mem::take(&mut out.hit_us), 1e6);
        let (cold, hit) = (summarize(&cold), summarize(&hit));
        values.insert("cold_p50_ms", (cold.median, Some(cold)));
        values.insert("hit_p50_us", (hit.median, Some(hit)));
    }

    let table = if p.trace { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = values.remove(name).unwrap_or((0.0, None));
            Metric {
                name,
                unit,
                value,
                samples,
            }
        })
        .collect();
    debug_assert!(values.is_empty(), "unlisted metrics: {values:?}");
    RunResult {
        workload: p.workload.clone(),
        traced: p.trace,
        correct: out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        failures: out.failures,
        metrics,
        disturbed: W::SINGLE_THREADED && cpu_share < 0.9,
        layer_self,
    }
}

/// Attribute a repetition's wall to layers: probe cost per operation ×
/// the operations the workload's driver counted. An estimate — the
/// probes replay the workload's shape, not its exact cache state — and
/// the only attribution available while spans stop at the crate
/// boundary.
fn derive_shares(rep: &Summary, layer: &mut BTreeMap<&'static str, f64>) {
    let get = |layer: &BTreeMap<&'static str, f64>, k: &str| layer.get(k).copied().unwrap_or(0.0);
    let wall_ns = rep.median * 1e9;
    if wall_ns <= 0.0 {
        return;
    }
    let pct = |ns: f64| 100.0 * ns / wall_ns;
    if let Some(build_ms) = layer.remove("des.fabric_build_ms") {
        // The batch probe that replays this workload's message mix.
        let batch_ns = if layer.remove("des.complex") == Some(1.0) {
            get(layer, "fabric.batch_a2a_msg_ns")
        } else {
            get(layer, "fabric.batch_ring_msg_ns")
        };
        let batch = pct(get(layer, "des.msgs") * batch_ns);
        let simkit = pct(get(layer, "des.kernel_events") * get(layer, "simkit.barrier_wait_ns"));
        layer.insert("des.fabric_build_share_pct", pct(build_ms * 1e6));
        layer.insert("des.fabric_batch_share_pct", batch);
        layer.insert("des.simkit_share_pct", simkit);
    }
    if get(layer, "mpi.msgs") > 0.0 {
        let simkit = pct(get(layer, "mpi.kernel_events") * get(layer, "simkit.timer_event_ns"));
        let fabric = pct(get(layer, "mpi.fabric_transfers") * get(layer, "fabric.transfer_msg_ns"));
        layer.insert("mpi.simkit_share_pct", simkit);
        layer.insert("mpi.fabric_share_pct", fabric);
        // The rank bodies are three calls into psmpi and a sleep:
        // whatever the kernel and the fabric do not account for is
        // psmpi's matching, protocol and collective code.
        layer.insert("mpi.psmpi_share_pct", (100.0 - simkit - fabric).max(0.0));
    }
}

/// Print every metric by name with its unit — median, quartiles and
/// sample count where the value is a median — then the result line the
/// benchmark contract asks for, as the last line of standard output.
pub fn print(r: &RunResult, with_workload_key: bool) {
    println!(
        "# {} ({})",
        r.workload,
        if r.traced { "traced" } else { "untraced" }
    );
    for m in &r.metrics {
        match m.samples {
            Some(s) => println!(
                "{:<28} {:>16.6} {:<6} q1 {:.6} q3 {:.6} n {}",
                m.name, m.value, m.unit, s.q1, s.q3, s.n
            ),
            None => println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    for (layer, secs) in &r.layer_self {
        println!("self-time {layer:<18} {secs:>12.6} s");
    }
    if r.disturbed {
        println!("disturbed: CPU share of a single-threaded workload fell below 0.9");
    }
    for why in &r.failures {
        println!("FAILED: {why}");
    }
    let metrics: Vec<(String, deep_json::Value)> = r
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                deep_json::object([("value", m.value.into()), ("unit", m.unit.into())]),
            )
        })
        .collect();
    let mut members = Vec::new();
    if with_workload_key {
        members.push((
            "workload".to_string(),
            deep_json::Value::from(r.workload.as_str()),
        ));
        members.push(("trace".to_string(), deep_json::Value::from(r.traced)));
    }
    members.push(("correct".to_string(), r.correct.into()));
    members.push(("attempted".to_string(), r.attempted.into()));
    members.push(("failed".to_string(), r.failed.into()));
    members.push(("metrics".to_string(), deep_json::Value::Object(metrics)));
    println!("{}", deep_json::Value::Object(members).to_json());
}
