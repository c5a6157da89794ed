//! Trace-driven `deep_resmgr` replay: a scenario's `[trace]` block
//! describes a seeded synthetic job trace (arrival process, mixed
//! cluster/booster demand) which is replayed through the resource
//! manager together with the scenario's fault plan, reporting
//! fleet-scale utilisation and makespan plus a sampled utilisation
//! time series.
//!
//! Everything here is virtual-time simulation: same seed + same trace
//! block → bit-identical series regardless of wall clock or
//! `RAYON_NUM_THREADS` (the replay itself is single-threaded; sweeps
//! parallelise *across* scenario points, never inside a replay).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use deep_faults::plan::{Domain, FaultKind, FaultPlan};
use deep_json::{object, Value};
use deep_resmgr::ResMgr;
use deep_simkit::{join_all, SimTime};

use crate::schema::TraceSpec;

/// Replay `spec` against a `cn_total`/`bn_total` machine, injecting
/// the `NodeCrash` events of `plan` (other fault kinds are
/// fabric/storage-level and do not reach the resource manager), and
/// render the outcome: the final workload report, the injected crash
/// counts and the utilisation samples (member order is part of the
/// byte-identity contract).
pub fn replay(
    seed: u64,
    cn_total: u32,
    bn_total: u32,
    spec: &TraceSpec,
    plan: &FaultPlan,
) -> Value {
    let jobs = deep_apps::generate_mix(seed, spec.mix);

    let mut sim = deep_simkit::Simulation::new(seed);
    let ctx = sim.handle();
    let mgr = ResMgr::with_spares(&ctx, cn_total, bn_total, spec.spares, spec.policy);
    let done = Rc::new(Cell::new(false));
    let samples: Rc<RefCell<Vec<Value>>> = Rc::new(RefCell::new(Vec::new()));
    let bn_injected = Rc::new(Cell::new(0u32));
    let cn_injected = Rc::new(Cell::new(0u32));

    // Utilisation sampler: snapshot the gauges every period until the
    // driver reports completion. Spawned first so that at a shared
    // timestamp the sample sees the state *before* same-instant
    // arrivals — a fixed, documented tie-break.
    {
        let mgr = mgr.clone();
        let ctx2 = ctx.clone();
        let done = Rc::clone(&done);
        let samples = Rc::clone(&samples);
        let every = spec.sample_every;
        sim.spawn("trace-sampler", async move {
            loop {
                if done.get() {
                    break;
                }
                let g = mgr.gauges();
                samples.borrow_mut().push(object([
                    ("t_s", (ctx2.now() - SimTime::ZERO).as_secs_f64().into()),
                    ("cn_busy", u64::from(g.cn_busy).into()),
                    ("bn_allocated", u64::from(g.bn_allocated).into()),
                    ("bn_active", u64::from(g.bn_active).into()),
                    ("cn_total", u64::from(g.cn_total).into()),
                    ("bn_total", u64::from(g.bn_total).into()),
                ]));
                ctx2.sleep(every).await;
            }
        });
    }

    // Fault injector: walk the plan's node-crash events in order.
    {
        let mgr = mgr.clone();
        let ctx2 = ctx.clone();
        let done = Rc::clone(&done);
        let bn_injected = Rc::clone(&bn_injected);
        let cn_injected = Rc::clone(&cn_injected);
        let events: Vec<_> = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::NodeCrash { .. }))
            .cloned()
            .collect();
        sim.spawn("trace-injector", async move {
            for ev in events {
                let at = SimTime::ZERO + ev.at;
                if at > ctx2.now() {
                    ctx2.sleep_until(at).await;
                }
                // Stop injecting once the workload has drained: the
                // machine is idle and later crashes would only stretch
                // the reported makespan.
                if done.get() {
                    break;
                }
                if let FaultKind::NodeCrash { domain, .. } = ev.kind {
                    match domain {
                        Domain::Booster => {
                            mgr.inject_booster_failure(1);
                            bn_injected.set(bn_injected.get() + 1);
                        }
                        Domain::Cluster => {
                            mgr.inject_cluster_failure(1);
                            cn_injected.set(cn_injected.get() + 1);
                        }
                    }
                }
            }
        });
    }

    // Workload driver: replay arrivals and wait for every job.
    {
        let mgr = mgr.clone();
        let ctx2 = ctx.clone();
        let done = Rc::clone(&done);
        sim.spawn("trace-driver", async move {
            let mut handles = Vec::new();
            for (arrive, spec) in jobs {
                let at = SimTime::ZERO + arrive;
                if at > ctx2.now() {
                    ctx2.sleep_until(at).await;
                }
                handles.push(mgr.submit(spec));
            }
            join_all(handles).await;
            done.set(true);
        });
    }

    sim.run().assert_completed();
    let r = mgr.report();
    let samples = samples.take();
    object([
        ("jobs", (r.jobs.len() as u64).into()),
        ("jobs_aborted", u64::from(r.jobs_aborted).into()),
        ("makespan_s", r.makespan.as_secs_f64().into()),
        ("cn_utilization", r.cn_utilization.into()),
        ("bn_utilization", r.bn_utilization.into()),
        ("bn_allocated", r.bn_allocated.into()),
        ("bn_failures", u64::from(r.bn_failures).into()),
        ("bn_replaced", u64::from(r.bn_replaced).into()),
        ("requeues", u64::from(r.requeues).into()),
        ("bn_faults_injected", u64::from(bn_injected.get()).into()),
        ("cn_faults_injected", u64::from(cn_injected.get()).into()),
        ("samples", Value::Array(samples)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Scenario;
    use deep_resmgr::Policy;

    fn trace_scenario(seed: u64, policy: &str) -> Scenario {
        Scenario::from_toml_str(&format!(
            "[scenario]\nname = \"trace-test\"\nseed = {seed}\n\n\
             [machine]\npreset = \"small\"\n\n\
             [trace]\njobs = 16\nmean_interarrival_s = 15.0\n\
             mean_cn_time_s = 40.0\nmean_bn_time_s = 30.0\n\
             sample_every_s = 25.0\n{policy}\n\
             [faults.poisson]\ndomain = \"booster\"\nmtbf_node_s = 400.0\nhorizon_s = 600.0\n"
        ))
        .unwrap()
    }

    fn run(sc: &Scenario) -> Value {
        let (cn, bn) = (sc.machine.n_cluster, sc.machine.n_booster());
        replay(
            sc.seed,
            cn,
            bn,
            sc.trace.as_ref().unwrap(),
            &sc.fault_plan(),
        )
    }

    #[test]
    fn replay_is_deterministic_per_seed() {
        let sc = trace_scenario(11, "");
        let a = run(&sc);
        assert_eq!(a.to_json(), run(&sc).to_json());
        assert!(!a["samples"].as_array().unwrap().is_empty());
        assert_eq!(a["jobs"].as_u64(), Some(16));
    }

    #[test]
    fn different_seeds_differ() {
        let json = |seed| run(&trace_scenario(seed, "")).to_json();
        assert_ne!(json(11), json(12));
    }

    /// The one place a policy name becomes a [`Policy`] is validation.
    #[test]
    fn policy_names_map_to_resmgr_policies() {
        for (line, want) in [
            ("", Policy::DynamicFcfs),
            ("policy = \"static\"", Policy::StaticFcfs),
            ("policy = \"dynamic\"", Policy::DynamicFcfs),
            ("policy = \"backfill\"", Policy::DynamicBackfill),
        ] {
            let sc = trace_scenario(11, line);
            assert_eq!(sc.trace.unwrap().policy, want, "{line:?}");
        }
    }
}
