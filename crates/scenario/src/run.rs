//! Scenario execution: compile a validated [`Scenario`] into the same
//! experiment structs the registry binaries use and evaluate it.
//!
//! [`execute`] is the single entry point shared by the `run_scenario`
//! binary and the `deep-serve` `{"scenario": ...}` job type, so both
//! paths produce byte-identical JSON for the same document. The result
//! is a pure function of the scenario — no wall clock, no ambient RNG,
//! and sweep points are evaluated on index-slotted grids (`par_sweep`,
//! the replica driver of `deep_core::resilience`), so output is
//! bit-identical at any `RAYON_NUM_THREADS`.

use deep_bench::des_scaling::{self, DesScalingConfig};
use deep_core::resilience::{daly_optimum, mean_efficiency_batch};
use deep_faults::plan::{FaultEvent, FaultKind};
use deep_json::{object, Value};

use crate::schema::{AppSpec, ResilienceApp, ScalabilityApp, Scenario, SEVERITIES};

/// Evaluate the scenario to its result JSON.
pub fn execute(sc: &Scenario) -> Value {
    let cfg = &sc.machine;
    let mut members: Vec<(String, Value)> = vec![
        ("scenario".to_string(), sc.name.as_str().into()),
        ("seed".to_string(), sc.seed.into()),
        (
            "digest".to_string(),
            deep_json::digest::digest_hex(&sc.doc).into(),
        ),
        (
            "machine".to_string(),
            object([
                ("preset", sc.preset.into()),
                ("n_cluster", u64::from(cfg.n_cluster).into()),
                ("n_booster", u64::from(cfg.n_booster()).into()),
                ("n_bi", u64::from(cfg.n_bi).into()),
                (
                    "booster_link_error_rate",
                    cfg.booster_link_error_rate.into(),
                ),
            ]),
        ),
    ];

    if let Some(app) = &sc.app {
        let sweep = match app {
            AppSpec::Resilience(app) => run_resilience_sweep(sc, app),
            AppSpec::Scalability(app) => run_scalability_sweep(sc, app),
        };
        members.push(("sweep".to_string(), sweep));
    }

    let plan = sc.fault_plan();
    if !plan.is_empty() {
        let schedule: Vec<Value> = plan.events().iter().map(fault_event_json).collect();
        members.push((
            "faults".to_string(),
            object([
                ("events", (plan.len() as u64).into()),
                ("schedule", Value::Array(schedule)),
            ]),
        ));
    }

    if let Some(trace) = &sc.trace {
        let result = crate::trace::replay(sc.seed, cfg.n_cluster, cfg.n_booster(), trace, &plan);
        members.push(("trace".to_string(), result));
    }

    Value::Object(members)
}

/// The `scalability` skeleton: one full-DES weak-scaling run per rank
/// point, each row carrying the LogGP model's per-iteration prediction
/// beside the measurement and the run's summary digest (the value the
/// determinism goldens pin).
fn run_scalability_sweep(sc: &Scenario, app: &ScalabilityApp) -> Value {
    let model = deep_psmpi::NetModel::ib_fdr();
    let rows = deep_bench::sweep::par_sweep(&app.ranks, |&ranks| {
        let r = des_scaling::run(DesScalingConfig {
            ranks,
            iters: app.iters,
            complex: app.complex,
            seed: sc.seed,
        });
        let model_iter_s =
            des_scaling::analytic_iter(&model, u64::from(ranks), app.complex).as_secs_f64();
        object([
            ("ranks", u64::from(r.ranks).into()),
            ("iters", u64::from(r.iters).into()),
            ("segments", u64::from(r.segments).into()),
            ("iter_s", r.iter_s.into()),
            ("model_iter_s", model_iter_s.into()),
            ("messages", r.messages.into()),
            ("kernel_events", r.kernel_events.into()),
            ("digest", format!("{:#018x}", r.digest).into()),
        ])
    });
    object([
        ("skeleton", "scalability".into()),
        ("class", if app.complex { "complex" } else { "spmv" }.into()),
        ("points", (app.ranks.len() as u64).into()),
        ("rows", Value::Array(rows)),
    ])
}

/// Evaluate the resilience skeleton over the sweep cross-product ×
/// intervals.
fn run_resilience_sweep(sc: &Scenario, app: &ResilienceApp) -> Value {
    // Flatten (point, interval) pairs: rows land grouped by point with
    // intervals in declaration order — the same nesting the registry
    // experiments use — and the batch driver adds the replica axis to
    // the same grid.
    let cases = app.cases();
    let means = mean_efficiency_batch(&cases, sc.seed, sc.replicas);
    let rows = cases
        .iter()
        .zip(means)
        .map(|((p, interval_s), me)| {
            object([
                ("n_nodes", p.n_nodes.into()),
                ("work_s", p.work_s.into()),
                ("mtbf_node_s", p.mtbf_node_s.into()),
                ("checkpoint_s", p.checkpoint_s.into()),
                ("restart_s", p.restart_s.into()),
                ("daly_s", daly_optimum(p).into()),
                ("interval_s", (*interval_s).into()),
                ("efficiency", me.efficiency.into()),
                ("truncated_runs", u64::from(me.truncated_runs).into()),
            ])
        })
        .collect();
    object([
        ("skeleton", "resilience".into()),
        ("replicas", u64::from(sc.replicas).into()),
        ("points", (app.points().len() as u64).into()),
        ("rows", Value::Array(rows)),
    ])
}

/// A deterministic JSON rendering of one fault event.
fn fault_event_json(ev: &FaultEvent) -> Value {
    let at_s = ev.at.as_secs_f64();
    match &ev.kind {
        FaultKind::LinkDegrade {
            domain,
            error_rate,
            duration,
        } => object([
            ("at_s", at_s.into()),
            ("kind", "link_degrade".into()),
            ("domain", domain.name().into()),
            ("error_rate", (*error_rate).into()),
            ("duration_s", duration.as_secs_f64().into()),
        ]),
        FaultKind::NicDrop {
            domain,
            node,
            drop_prob,
            duration,
        } => object([
            ("at_s", at_s.into()),
            ("kind", "nic_drop".into()),
            ("domain", domain.name().into()),
            ("node", u64::from(*node).into()),
            ("drop_prob", (*drop_prob).into()),
            ("duration_s", duration.as_secs_f64().into()),
        ]),
        FaultKind::NodeCrash {
            domain,
            node,
            severity,
        } => object([
            ("at_s", at_s.into()),
            ("kind", "node_crash".into()),
            ("domain", domain.name().into()),
            ("node", u64::from(*node).into()),
            (
                "severity",
                SEVERITIES
                    .iter()
                    .find(|(_, s)| s == severity)
                    .map_or("", |(name, _)| *name)
                    .into(),
            ),
        ]),
        FaultKind::BiFail { index, duration } => object([
            ("at_s", at_s.into()),
            ("kind", "bi_fail".into()),
            ("index", (*index as u64).into()),
            ("duration_s", duration.as_secs_f64().into()),
        ]),
        FaultKind::PfsStall { server, bytes } => object([
            ("at_s", at_s.into()),
            ("kind", "pfs_stall".into()),
            ("server", (*server as u64).into()),
            ("bytes", (*bytes).into()),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_core::resilience::ResilienceParams;

    const SMALL_SWEEP: &str = "\
[scenario]
name = \"resilience-mini\"
seed = 7
replicas = 4

[machine]
preset = \"small\"

[app]
skeleton = \"resilience\"
work_s = 20000.0
mtbf_node_s = 250000.0
checkpoint_s = 120.0
restart_s = 300.0
intervals = [\"daly/4\", \"daly\", 3600.0]

[[sweep.axes]]
param = \"n_nodes\"
values = [64, 256]
";

    #[test]
    fn sweep_rows_match_direct_registry_math() {
        let sc = Scenario::from_toml_str(SMALL_SWEEP).unwrap();
        let out = execute(&sc);
        let rows = out["sweep"]["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 6);
        // Row 4: n_nodes=256, interval=daly — must be bitwise equal to
        // calling the registry maths directly.
        let p = ResilienceParams {
            work_s: 20000.0,
            n_nodes: 256,
            mtbf_node_s: 250000.0,
            checkpoint_s: 120.0,
            restart_s: 300.0,
        };
        let daly = daly_optimum(&p);
        let expect = deep_core::mean_efficiency(&p, daly, 7, 4);
        assert_eq!(rows[4]["efficiency"].as_f64(), Some(expect.efficiency));
        assert_eq!(rows[4]["interval_s"].as_f64(), Some(daly));
    }
}
