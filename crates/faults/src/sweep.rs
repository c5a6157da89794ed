//! DES-vs-analytic cross-validation of the multi-level resilience model.
//!
//! [`des_multilevel_run`] executes the *same* scenario the analytic
//! Monte-Carlo model [`deep_core::simulate_multilevel`] computes — work
//! segments, the L1/L2/L3 checkpoint rotation, Poisson failures with a
//! severity mix, recovery from the newest surviving level — but with
//! every checkpoint and restore carried out as real simulated I/O on a
//! [`DeepMachine`] (NVM writes, torus replica pushes, PFS drains), and
//! failures interrupting the run wherever virtual time finds it.
//!
//! The two implementations draw from the *same* RNG stream in the same
//! order (one exponential per failure gap, one uniform per severity), so
//! a replica pair sees the same failure sequence and the efficiencies
//! must agree to within the discretisation error of the analytic model's
//! fixed per-level costs. [`fault_sweep`] runs the pairing across a
//! range of node MTBFs — experiment ER03.

use deep_core::{
    mark_of, mean_multilevel_over_replicas, measure_level_costs, DeepConfig, DeepMachine,
    MeanEfficiency, MultiLevelParams, ResilienceOutcome,
};
use deep_io::{CkptLevel, FailureSeverity};
use deep_simkit::{Either, SimDuration, SimRng, Simulation};

/// One DES replica of the multi-level scenario. Deterministic in
/// `(config, ranks, bytes_per_rank, p, seed, stream)`; pair it with the
/// analytic model by drawing from the same `(seed, stream)`.
///
/// The per-level costs in `p.levels` are ignored — the machine itself
/// prices every checkpoint and restore.
pub fn des_multilevel_run(
    config: &DeepConfig,
    ranks: u32,
    bytes_per_rank: u64,
    p: &MultiLevelParams,
    seed: u64,
    stream: u64,
) -> ResilienceOutcome {
    assert!(p.interval_s > 0.0 && p.work_s > 0.0);
    assert!(
        p.mtbf_node_s.is_finite(),
        "the DES hazard needs a finite MTBF"
    );
    let mut sim = Simulation::new(seed);
    let ctx = sim.handle();
    let machine = DeepMachine::build(&ctx, config.clone());
    let mgr = machine.checkpoint_manager(ranks);
    let p = *p;
    let job = {
        let ctx = ctx.clone();
        let mgr = mgr.clone();
        async move {
            let mut rng = SimRng::from_seed_stream(seed, stream);
            let system_mtbf = p.mtbf_node_s / p.n_nodes as f64;
            let wall_cap = 1000.0 * p.work_s;
            let t0 = ctx.now();
            let mut done = 0.0f64;
            let mut failures = 0u64;
            let mut checkpoints = 0u64;
            let mut next_failure = rng.gen_exp(system_mtbf);
            while done < p.work_s && (ctx.now() - t0).as_secs_f64() < wall_cap {
                let segment = p.interval_s.min(p.work_s - done);
                let last = done + segment >= p.work_s;
                let level = CkptLevel::rotation(checkpoints + 1, p.l2_every, p.l3_every);
                let mark = mark_of(done + segment);
                // The attempt: compute the segment, then commit its
                // checkpoint through the real storage hierarchy.
                let attempt = {
                    let ctx = ctx.clone();
                    let mgr = mgr.clone();
                    async move {
                        ctx.sleep(SimDuration::from_secs_f64(segment)).await;
                        if !last {
                            mgr.checkpoint(level, bytes_per_rank, mark).await;
                        }
                    }
                };
                // The hazard interrupts the attempt wherever it is; an
                // attempt finishing at the failure instant commits (the
                // race's left side wins ties, matching the analytic
                // model's `<=`). No failures strike during recovery —
                // the hazard only re-arms after the restore completes,
                // exactly as the analytic model advances its clock.
                let hazard = ctx.sleep_until(t0 + SimDuration::from_secs_f64(next_failure));
                match ctx.race(attempt, hazard).await {
                    Either::Left(()) => {
                        done += segment;
                        if !last {
                            checkpoints += 1;
                        }
                    }
                    Either::Right(()) => {
                        failures += 1;
                        let severity = FailureSeverity::draw(&mut rng, p.severity_weights);
                        mgr.fail(severity);
                        ctx.sleep(SimDuration::from_secs_f64(p.restart_s)).await;
                        done = match mgr.restore(bytes_per_rank).await {
                            Some(op) => op.mark as f64 / 1e3,
                            None => 0.0,
                        };
                        next_failure = (ctx.now() - t0).as_secs_f64() + rng.gen_exp(system_mtbf);
                    }
                }
            }
            let wall_s = (ctx.now() - t0).as_secs_f64();
            (wall_s, done, failures, checkpoints)
        }
    };
    let h = sim.spawn("des-resilience", job);
    sim.run().assert_completed();
    let (wall_s, done, failures, checkpoints) = h.try_result().expect("replica completes");
    ResilienceOutcome {
        wall_s,
        efficiency: ResilienceOutcome::compute_efficiency(done.min(p.work_s), wall_s),
        failures,
        checkpoints,
        truncated: done < p.work_s,
    }
}

/// Mean DES efficiency over `replicas` runs, through the one replica
/// driver and on the streams [`deep_core::mean_multilevel_efficiency`]
/// draws from.
pub fn des_mean_multilevel_efficiency(
    config: &DeepConfig,
    ranks: u32,
    bytes_per_rank: u64,
    p: &MultiLevelParams,
    seed: u64,
    replicas: u32,
) -> MeanEfficiency {
    mean_multilevel_over_replicas(&[*p], replicas, |p, stream| {
        des_multilevel_run(config, ranks, bytes_per_rank, p, seed, stream)
    })[0]
}

/// One point of the ER03 sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Per-node MTBF at this point, seconds.
    pub mtbf_node_s: f64,
    /// Mean efficiency of the discrete-event replicas.
    pub des: MeanEfficiency,
    /// Mean efficiency of the analytic Monte-Carlo model, fed the level
    /// costs measured on the same machine.
    pub mc: MeanEfficiency,
}

/// Sweep node MTBF, cross-validating the DES against the analytic model
/// at every point. `base.levels` is overwritten with costs measured on
/// `config` (so both sides price checkpoints identically) and
/// `base.mtbf_node_s` with each swept value.
pub fn fault_sweep(
    config: &DeepConfig,
    ranks: u32,
    bytes_per_rank: u64,
    base: &MultiLevelParams,
    mtbfs_node_s: &[f64],
    seed: u64,
    replicas: u32,
) -> Vec<SweepPoint> {
    let costs = measure_level_costs(config, ranks, bytes_per_rank, seed);
    let params: Vec<MultiLevelParams> = mtbfs_node_s
        .iter()
        .map(|&mtbf_node_s| {
            let mut p = *base;
            p.levels = costs;
            p.mtbf_node_s = mtbf_node_s;
            p
        })
        .collect();

    // Both sides flatten (point × replica) onto the one replica driver;
    // replica `r` of either side draws from stream `0xE401 + r`.
    let des = mean_multilevel_over_replicas(&params, replicas, |p, stream| {
        des_multilevel_run(config, ranks, bytes_per_rank, p, seed, stream)
    });
    let mc = deep_core::mean_multilevel_efficiency_batch(&params, seed, replicas);
    params
        .iter()
        .zip(des)
        .zip(mc)
        .map(|((p, des), mc)| SweepPoint {
            mtbf_node_s: p.mtbf_node_s,
            des,
            mc,
        })
        .collect()
}

/// The ER03 scenario: a 40 s job on the small machine's 8 booster
/// ranks, checkpointing 8 MiB per rank every 2 s under the 2/4
/// rotation. Level costs are placeholders until [`fault_sweep`]
/// measures them.
pub fn er03_params() -> (DeepConfig, u32, u64, MultiLevelParams) {
    let config = DeepConfig::small();
    let ranks = 8;
    let bytes_per_rank = 8 << 20;
    let p = MultiLevelParams {
        work_s: 40.0,
        n_nodes: ranks as u64,
        mtbf_node_s: 400.0,
        interval_s: 2.0,
        levels: [deep_core::LevelCost {
            write_s: 0.1,
            restore_s: 0.1,
        }; 3],
        l2_every: 2,
        l3_every: 4,
        restart_s: 2.0,
        severity_weights: [0.6, 0.3, 0.1],
    };
    (config, ranks, bytes_per_rank, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn des_run_is_deterministic() {
        let (config, ranks, bytes, mut p) = er03_params();
        p.work_s = 10.0;
        p.mtbf_node_s = 200.0;
        let a = des_multilevel_run(&config, ranks, bytes, &p, 11, 0xE401);
        let b = des_multilevel_run(&config, ranks, bytes, &p, 11, 0xE401);
        assert_eq!(a.wall_s, b.wall_s);
        assert_eq!(a.efficiency, b.efficiency);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.checkpoints, b.checkpoints);
    }

    #[test]
    fn failure_free_des_pays_only_checkpoint_overhead() {
        let (config, ranks, bytes, mut p) = er03_params();
        p.work_s = 10.0;
        p.mtbf_node_s = 1e12; // effectively failure-free
        let out = des_multilevel_run(&config, ranks, bytes, &p, 3, 0xE401);
        assert_eq!(out.failures, 0);
        assert!(!out.truncated);
        assert_eq!(out.checkpoints, 4); // 5 segments, last elides
        assert!(
            out.efficiency > 0.8 && out.efficiency < 1.0,
            "efficiency {}",
            out.efficiency
        );
    }

    #[test]
    fn flakier_nodes_cost_des_efficiency() {
        let (config, ranks, bytes, mut p) = er03_params();
        p.work_s = 20.0;
        let eff = |mtbf: f64| {
            let mut q = p;
            q.mtbf_node_s = mtbf;
            des_mean_multilevel_efficiency(&config, ranks, bytes, &q, 5, 3).efficiency
        };
        let flaky = eff(80.0);
        let solid = eff(4000.0);
        assert!(flaky < solid, "flaky {flaky} vs solid {solid}");
    }

    #[test]
    fn des_and_analytic_pair_up_per_replica() {
        // Same stream ⇒ same failure sequence. The DES prices each
        // checkpoint with real (state-dependent) I/O while the analytic
        // model uses one fixed cost per level, so near an attempt
        // boundary the two may disagree on whether a segment committed
        // before the failure — allow one failure of slack and a modest
        // efficiency gap per replica (the ER03 acceptance bound is on
        // the mean).
        let (config, ranks, bytes, mut p) = er03_params();
        p.work_s = 20.0;
        p.mtbf_node_s = 150.0;
        p.levels = measure_level_costs(&config, ranks, bytes, 5);
        for r in 0..3u64 {
            let des = des_multilevel_run(&config, ranks, bytes, &p, 5, 0xE401 + r);
            let mut rng = SimRng::from_seed_stream(5, 0xE401 + r);
            let mc = deep_core::simulate_multilevel(&p, &mut rng);
            let count_gap = des.failures.abs_diff(mc.failures);
            assert!(
                count_gap <= 1,
                "replica {r}: {} DES vs {} MC failures",
                des.failures,
                mc.failures
            );
            let gap = (des.efficiency - mc.efficiency).abs();
            assert!(
                gap < 0.15,
                "replica {r}: DES {} vs MC {} (gap {gap})",
                des.efficiency,
                mc.efficiency
            );
        }
    }
}
