//! Checkpoint/restart resilience model — the second exascale challenge of
//! slide 3 ("Resiliency") and the takeaways of slide 32.
//!
//! A long-running application on `n` nodes checkpoints every `interval`;
//! node failures arrive as a Poisson process with per-node MTBF `mtbf`;
//! each failure rolls the application back to the last checkpoint and
//! costs a restart. The simulator measures the achieved efficiency
//! (useful work / wall time) and the experiment compares the best
//! interval against Daly's first-order optimum √(2·C·MTBF/n).
//!
//! The multi-level variant ([`simulate_multilevel`]) models the DEEP-ER
//! storage hierarchy: checkpoints rotate over L1 (node-local NVM), L2
//! (buddy replica) and L3 (PFS), failures carry a *severity* (transient,
//! node loss, multi-node loss), and recovery rolls back to the newest
//! checkpoint on a level that survived — the [`deep_io::CommitLog`]
//! bookkeeping is shared with the DES checkpoint engine, and the
//! per-level costs are meant to be measured from it (see
//! [`crate::storage::measure_level_costs`]).

use deep_io::{CkptLevel, CommitLog, FailureSeverity};
use deep_simkit::SimRng;
use rayon::prelude::*;

/// Parameters of one resilience scenario.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceParams {
    /// Useful work to complete, in seconds of failure-free compute.
    pub work_s: f64,
    /// Nodes the job runs on (failure rate scales linearly).
    pub n_nodes: u64,
    /// Per-node mean time between failures, seconds.
    pub mtbf_node_s: f64,
    /// Time to write one checkpoint, seconds.
    pub checkpoint_s: f64,
    /// Time to restart after a failure, seconds.
    pub restart_s: f64,
}

/// Outcome of a simulated run.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceOutcome {
    /// Wall time to finish the work.
    pub wall_s: f64,
    /// Useful work / wall time.
    pub efficiency: f64,
    /// Failures suffered.
    pub failures: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// True when the run hit the wall-time cap before completing its
    /// work — the configuration cannot make progress.
    pub truncated: bool,
}

impl ResilienceOutcome {
    /// Efficiency of `done_s` seconds of useful work over `wall_s` of
    /// wall time. A run that never started (zero wall) has efficiency
    /// 0.0 — explicitly, not NaN.
    pub fn compute_efficiency(done_s: f64, wall_s: f64) -> f64 {
        if wall_s <= 0.0 {
            0.0
        } else {
            done_s / wall_s
        }
    }
}

/// Mean over replicas, with truncation surfaced instead of averaged away.
#[derive(Debug, Clone, Copy)]
pub struct MeanEfficiency {
    /// Mean efficiency over all replicas (truncated ones included, at the
    /// efficiency they achieved before the cap).
    pub efficiency: f64,
    /// How many replicas were cut off before finishing their work.
    pub truncated_runs: u32,
}

/// Daly's first-order optimal checkpoint interval.
pub fn daly_optimum(p: &ResilienceParams) -> f64 {
    (2.0 * p.checkpoint_s * p.mtbf_node_s / p.n_nodes as f64).sqrt()
}

/// Simulate one run with checkpoints every `interval_s`.
///
/// If the machine cannot make progress (interval + checkpoint far above
/// the system MTBF, so segments virtually never complete), the run is cut
/// off at 1000× the useful work and reported with `truncated` set and the
/// efficiency achieved by then — the honest "this configuration does not
/// work" answer instead of a non-terminating simulation.
pub fn simulate_run(p: &ResilienceParams, interval_s: f64, rng: &mut SimRng) -> ResilienceOutcome {
    assert!(interval_s > 0.0 && p.work_s > 0.0);
    let wall_cap = 1000.0 * p.work_s;
    let system_mtbf = p.mtbf_node_s / p.n_nodes as f64;
    let mut wall = 0.0f64;
    let mut done = 0.0f64; // checkpointed work
    let mut failures = 0u64;
    let mut checkpoints = 0u64;
    let mut next_failure = rng.gen_exp(system_mtbf);

    while done < p.work_s && wall < wall_cap {
        // Attempt one segment: work until the next checkpoint (or the end).
        let segment = interval_s.min(p.work_s - done);
        let attempt = segment
            + if done + segment < p.work_s {
                p.checkpoint_s
            } else {
                0.0 // no checkpoint needed after the last segment
            };
        if wall + attempt <= next_failure {
            // Segment (and its checkpoint) completes.
            wall += attempt;
            done += segment;
            if done < p.work_s {
                checkpoints += 1;
            }
        } else {
            // Failure mid-segment: lose everything since the checkpoint.
            failures += 1;
            wall = next_failure + p.restart_s;
            next_failure = wall + rng.gen_exp(system_mtbf);
        }
    }
    ResilienceOutcome {
        wall_s: wall,
        efficiency: ResilienceOutcome::compute_efficiency(done.min(p.work_s), wall),
        failures,
        checkpoints,
        truncated: done < p.work_s,
    }
}

/// Stream base of the single-level replicas: replica `r` draws from
/// `SINGLE_LEVEL_STREAM + r`.
const SINGLE_LEVEL_STREAM: u64 = 0xC4E0;
/// Stream base of the multi-level replicas, analytic and DES alike:
/// the two pair draw for draw, so both go through this module.
const MULTILEVEL_STREAM: u64 = 0xE401;

/// Most work units in flight at once. Case lists reach this module
/// from daemon peers (4096 sweep points × 64 intervals × 1024
/// replicas is a valid scenario), so the outcome buffer is bounded
/// here, for every caller, rather than by `cases.len()`.
const MAX_GRID_UNITS: usize = 1 << 16;

/// The one replica loop: `cases × replicas` work units on a flat
/// index-slotted grid (taken [`MAX_GRID_UNITS`] at a time), unit `u`
/// running case `u / replicas` on stream `base_stream + u % replicas`,
/// each case's chunk folded in replica order after the barrier.
///
/// A replica's stream depends only on its replica index, never on its
/// case, and results land in index-ordered slots, so every mean is
/// bit-identical at any thread count, for any `max_leaf`, and whether
/// a case is evaluated alone or inside a larger batch. One flat grid
/// (not `cases` nested drives of `replicas` tiny jobs each) is the
/// nested-parallelism rule of DESIGN.md §12. `max_leaf` caps the split
/// tree's leaf size: scheduling only.
fn drive<C: Sync>(
    cases: &[C],
    base_stream: u64,
    replicas: u32,
    max_leaf: usize,
    run: impl Fn(&C, u64) -> ResilienceOutcome + Sync + Send,
) -> Vec<MeanEfficiency> {
    assert!(replicas > 0, "at least one replica per case");
    let rep = replicas as usize;
    // Not reserved up front: a small allocation that outlives the grid's
    // churn left the heap fragmented, measured as ≈ +100 MB `peak_rss_mb`
    // on every later workload of the one-process benchmark.
    let mut means = Vec::new();
    for block in cases.chunks((MAX_GRID_UNITS / rep).max(1)) {
        let outcomes: Vec<ResilienceOutcome> = (0..block.len() * rep)
            .into_par_iter()
            .with_max_len(max_leaf)
            .map(|u| run(&block[u / rep], base_stream.wrapping_add((u % rep) as u64)))
            .collect();
        means.extend(outcomes.chunks_exact(rep).map(reduce_outcomes));
    }
    means
}

/// Fold one case's outcomes into a mean, in replica-index order.
fn reduce_outcomes(outcomes: &[ResilienceOutcome]) -> MeanEfficiency {
    let mut total = 0.0;
    let mut truncated_runs = 0;
    for out in outcomes {
        total += out.efficiency;
        truncated_runs += u32::from(out.truncated);
    }
    MeanEfficiency {
        efficiency: total / outcomes.len() as f64,
        truncated_runs,
    }
}

/// Mean over `replicas` runs of a caller-supplied multi-level replica
/// body, per case: `run(case, stream)` is one whole replica, handed the
/// stream [`mean_multilevel_efficiency_batch`] gives that replica index.
/// Such bodies are whole simulations (the DES replicas of
/// `deep-faults`), so every unit is its own leaf and individually
/// stealable.
pub fn mean_multilevel_over_replicas(
    cases: &[MultiLevelParams],
    replicas: u32,
    run: impl Fn(&MultiLevelParams, u64) -> ResilienceOutcome + Sync + Send,
) -> Vec<MeanEfficiency> {
    drive(cases, MULTILEVEL_STREAM, replicas, 1, run)
}

/// Mean efficiency over `replicas` independent runs (deterministic in
/// `seed`).
pub fn mean_efficiency(
    p: &ResilienceParams,
    interval_s: f64,
    seed: u64,
    replicas: u32,
) -> MeanEfficiency {
    mean_efficiency_batch(&[(*p, interval_s)], seed, replicas)[0]
}

/// Mean efficiency for a whole batch of `(params, interval)` cases;
/// element `i` is bit-identical to [`mean_efficiency`] of case `i`.
pub fn mean_efficiency_batch(
    cases: &[(ResilienceParams, f64)],
    seed: u64,
    replicas: u32,
) -> Vec<MeanEfficiency> {
    drive(
        cases,
        SINGLE_LEVEL_STREAM,
        replicas,
        usize::MAX,
        |(p, interval_s), stream| {
            simulate_run(p, *interval_s, &mut SimRng::from_seed_stream(seed, stream))
        },
    )
}

/// Batch form of [`mean_multilevel_efficiency`]; element `i` is
/// bit-identical to the single-case call on case `i`.
pub fn mean_multilevel_efficiency_batch(
    cases: &[MultiLevelParams],
    seed: u64,
    replicas: u32,
) -> Vec<MeanEfficiency> {
    drive(
        cases,
        MULTILEVEL_STREAM,
        replicas,
        usize::MAX,
        |p, stream| simulate_multilevel(p, &mut SimRng::from_seed_stream(seed, stream)),
    )
}

// ---------------------------------------------------------------------
// Multi-level checkpointing (DEEP-ER).

/// Cost of one checkpoint level, measured or assumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelCost {
    /// Seconds to write one checkpoint at this level.
    pub write_s: f64,
    /// Seconds to restore one checkpoint from this level.
    pub restore_s: f64,
}

/// Parameters of a multi-level resilience scenario.
#[derive(Debug, Clone, Copy)]
pub struct MultiLevelParams {
    /// Useful work to complete, seconds.
    pub work_s: f64,
    /// Nodes the job runs on.
    pub n_nodes: u64,
    /// Per-node MTBF, seconds.
    pub mtbf_node_s: f64,
    /// Checkpoint interval, seconds.
    pub interval_s: f64,
    /// Per-level costs, indexed L1, L2, L3.
    pub levels: [LevelCost; 3],
    /// Every `l2_every`-th checkpoint is written at L2 (0 = never).
    pub l2_every: u32,
    /// Every `l3_every`-th checkpoint is written at L3 (0 = never);
    /// takes precedence over L2 when both hit.
    pub l3_every: u32,
    /// Base restart cost (reboot, relaunch) before the level restore.
    pub restart_s: f64,
    /// Relative weights of failure severities
    /// [transient, node loss, multi-node loss].
    pub severity_weights: [f64; 3],
}

impl MultiLevelParams {
    /// The SCR-style default rotation: mostly L1, every 4th checkpoint to
    /// the buddy, every 16th to the PFS.
    pub fn rotation_policy(mut self, l2_every: u32, l3_every: u32) -> MultiLevelParams {
        self.l2_every = l2_every;
        self.l3_every = l3_every;
        self
    }

    /// An L1-only policy (what a machine without the deeper levels does).
    pub fn l1_only(mut self) -> MultiLevelParams {
        self.l2_every = 0;
        self.l3_every = 0;
        self
    }

    /// The level the `count`-th checkpoint is written at under the
    /// rotation (L3 takes precedence over L2 when both divide `count`).
    pub fn level_for(&self, count: u64) -> CkptLevel {
        if self.l3_every > 0 && count.is_multiple_of(self.l3_every as u64) {
            CkptLevel::L3Pfs
        } else if self.l2_every > 0 && count.is_multiple_of(self.l2_every as u64) {
            CkptLevel::L2Partner
        } else {
            CkptLevel::L1Local
        }
    }

    /// Draw a failure severity from the configured weight mix.
    pub fn draw_severity(&self, rng: &mut SimRng) -> FailureSeverity {
        let total: f64 = self.severity_weights.iter().sum();
        assert!(total > 0.0, "severity weights must not all be zero");
        let mut u = rng.gen_f64() * total;
        for (i, &w) in self.severity_weights.iter().enumerate() {
            u -= w;
            if u < 0.0 {
                return FailureSeverity::ALL[i];
            }
        }
        FailureSeverity::MultiNodeLoss
    }
}

fn level_index(level: CkptLevel) -> usize {
    match level {
        CkptLevel::L1Local => 0,
        CkptLevel::L2Partner => 1,
        CkptLevel::L3Pfs => 2,
    }
}

/// Work marks are stored in the [`CommitLog`] in milliseconds.
pub fn mark_of(done_s: f64) -> u64 {
    (done_s * 1e3).round() as u64
}

/// Simulate one multi-level run.
///
/// Failures carry a severity; the [`CommitLog`] invalidates the levels
/// that do not survive it, and recovery rolls back to the newest
/// surviving checkpoint (restored at that level's cost). If *no* level
/// survives, the job starts over from zero — which is what dooms an
/// L1-only policy under multi-node failures.
pub fn simulate_multilevel(p: &MultiLevelParams, rng: &mut SimRng) -> ResilienceOutcome {
    assert!(p.interval_s > 0.0 && p.work_s > 0.0);
    let wall_cap = 1000.0 * p.work_s;
    let system_mtbf = p.mtbf_node_s / p.n_nodes as f64;
    let mut wall = 0.0f64;
    let mut done = 0.0f64;
    let mut failures = 0u64;
    let mut checkpoints = 0u64;
    let mut log = CommitLog::new();
    let mut next_failure = rng.gen_exp(system_mtbf);

    while done < p.work_s && wall < wall_cap {
        let segment = p.interval_s.min(p.work_s - done);
        let last = done + segment >= p.work_s;
        let level = p.level_for(checkpoints + 1);
        let attempt = segment
            + if last {
                0.0
            } else {
                p.levels[level_index(level)].write_s
            };
        if wall + attempt <= next_failure {
            wall += attempt;
            done += segment;
            if !last {
                checkpoints += 1;
                log.commit(level, mark_of(done));
            }
        } else {
            failures += 1;
            let severity = p.draw_severity(rng);
            log.fail(severity);
            wall = next_failure + p.restart_s;
            match log.best() {
                Some((level, mark)) => {
                    wall += p.levels[level_index(level)].restore_s;
                    done = mark as f64 / 1e3;
                }
                None => {
                    // Nothing survived: start over from the beginning.
                    done = 0.0;
                }
            }
            next_failure = wall + rng.gen_exp(system_mtbf);
        }
    }
    ResilienceOutcome {
        wall_s: wall,
        efficiency: ResilienceOutcome::compute_efficiency(done.min(p.work_s), wall),
        failures,
        checkpoints,
        truncated: done < p.work_s,
    }
}

/// Mean multi-level efficiency over `replicas` runs (deterministic in
/// `seed`).
pub fn mean_multilevel_efficiency(
    p: &MultiLevelParams,
    seed: u64,
    replicas: u32,
) -> MeanEfficiency {
    mean_multilevel_efficiency_batch(&[*p], seed, replicas)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ResilienceParams {
        ResilienceParams {
            work_s: 100_000.0,
            n_nodes: 640, // DEEP prototype: 128 CN + 512 BN
            mtbf_node_s: 5.0 * 365.0 * 86_400.0,
            checkpoint_s: 120.0,
            restart_s: 300.0,
        }
    }

    fn ml_base() -> MultiLevelParams {
        MultiLevelParams {
            work_s: 100_000.0,
            n_nodes: 640,
            mtbf_node_s: 0.5 * 365.0 * 86_400.0, // flaky enough to matter
            interval_s: 1800.0,
            levels: [
                LevelCost {
                    write_s: 10.0,
                    restore_s: 8.0,
                },
                LevelCost {
                    write_s: 30.0,
                    restore_s: 25.0,
                },
                LevelCost {
                    write_s: 240.0,
                    restore_s: 200.0,
                },
            ],
            l2_every: 4,
            l3_every: 16,
            restart_s: 300.0,
            severity_weights: [0.7, 0.25, 0.05],
        }
    }

    #[test]
    fn no_failures_means_pure_checkpoint_overhead() {
        let mut p = base();
        p.mtbf_node_s = f64::INFINITY;
        let mut rng = SimRng::from_seed_stream(1, 1);
        let interval = 3600.0;
        let out = simulate_run(&p, interval, &mut rng);
        assert_eq!(out.failures, 0);
        assert!(!out.truncated);
        // Efficiency ≈ τ / (τ + C) with the final checkpoint elided.
        let expect = p.work_s / (p.work_s + out.checkpoints as f64 * p.checkpoint_s);
        assert!((out.efficiency - expect).abs() < 1e-12);
        assert!(out.efficiency > 0.96);
    }

    #[test]
    fn failures_cost_efficiency() {
        let mut flaky = base();
        flaky.mtbf_node_s /= 200.0; // much flakier nodes
        let good = mean_efficiency(&base(), 3600.0, 1, 8).efficiency;
        let bad = mean_efficiency(&flaky, 3600.0, 1, 8).efficiency;
        assert!(bad < good, "flaky {bad} vs good {good}");
    }

    #[test]
    fn daly_interval_is_near_the_sweep_optimum() {
        // At exascale-ish scale, the sweep's best interval should be
        // within a factor ~2 of Daly's formula.
        let p = ResilienceParams {
            work_s: 500_000.0,
            n_nodes: 100_000,
            mtbf_node_s: 5.0 * 365.0 * 86_400.0,
            checkpoint_s: 240.0,
            restart_s: 600.0,
        };
        let daly = daly_optimum(&p);
        let mut best = (0.0f64, 0.0f64);
        for mult in [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let eff = mean_efficiency(&p, daly * mult, 1, 6).efficiency;
            if eff > best.1 {
                best = (mult, eff);
            }
        }
        assert!(
            (0.25..=4.0).contains(&best.0),
            "optimum {}x Daly (eff {})",
            best.0,
            best.1
        );
    }

    #[test]
    fn bigger_machines_hurt_at_fixed_interval() {
        let mut p = base();
        let small = mean_efficiency(&p, 3600.0, 1, 8).efficiency;
        p.n_nodes *= 100;
        let big = mean_efficiency(&p, 3600.0, 1, 8).efficiency;
        assert!(big < small, "scale must hurt: {big} vs {small}");
    }

    #[test]
    fn determinism() {
        let p = base();
        assert_eq!(
            mean_efficiency(&p, 1800.0, 9, 4).efficiency,
            mean_efficiency(&p, 1800.0, 9, 4).efficiency
        );
        let m = ml_base();
        assert_eq!(
            mean_multilevel_efficiency(&m, 9, 4).efficiency,
            mean_multilevel_efficiency(&m, 9, 4).efficiency
        );
    }

    #[test]
    fn a_batch_larger_than_one_grid_block_keeps_cases_in_order() {
        // 70 cases × 1024 replicas crosses MAX_GRID_UNITS after case 63.
        let cases: Vec<(ResilienceParams, f64)> = (0..70)
            .map(|i| {
                let mut p = base();
                p.work_s = 1000.0;
                p.checkpoint_s = 1.0 + i as f64;
                (p, 100.0)
            })
            .collect();
        let batch = mean_efficiency_batch(&cases, 3, 1024);
        assert_eq!(batch.len(), 70);
        for i in [0, 63, 64, 69] {
            let alone = mean_efficiency(&cases[i].0, 100.0, 3, 1024);
            assert_eq!(batch[i].efficiency.to_bits(), alone.efficiency.to_bits());
        }
    }

    #[test]
    fn zero_wall_is_zero_efficiency() {
        assert_eq!(ResilienceOutcome::compute_efficiency(0.0, 0.0), 0.0);
        assert_eq!(ResilienceOutcome::compute_efficiency(10.0, 0.0), 0.0);
        assert_eq!(ResilienceOutcome::compute_efficiency(10.0, -1.0), 0.0);
        assert_eq!(ResilienceOutcome::compute_efficiency(50.0, 100.0), 0.5);
    }

    #[test]
    fn hopeless_configuration_reports_truncation() {
        // Interval + checkpoint far above the system MTBF: no segment
        // ever completes, the run is cut off and flagged.
        let p = ResilienceParams {
            work_s: 1000.0,
            n_nodes: 1_000_000,
            mtbf_node_s: 86_400.0, // system MTBF ≈ 86 ms
            checkpoint_s: 120.0,
            restart_s: 300.0,
        };
        let mean = mean_efficiency(&p, 500.0, 3, 4);
        assert_eq!(mean.truncated_runs, 4);
        assert!(mean.efficiency < 0.01);
    }

    #[test]
    fn multilevel_survives_multi_node_failures_l1_only_does_not() {
        // All failures are multi-node: only L3 checkpoints help.
        let mut p = ml_base();
        p.severity_weights = [0.0, 0.0, 1.0];
        p.mtbf_node_s = 0.05 * 365.0 * 86_400.0;
        let multi = mean_multilevel_efficiency(&p, 5, 6);
        let l1 = mean_multilevel_efficiency(&p.l1_only(), 5, 6);
        assert_eq!(multi.truncated_runs, 0, "rotation must finish");
        assert!(
            l1.efficiency < multi.efficiency,
            "L1-only {} vs rotation {}",
            l1.efficiency,
            multi.efficiency
        );
    }

    #[test]
    fn rotation_efficiency_tracks_l1_under_mild_failures() {
        // Mostly-transient failures: the rotation should cost little
        // compared to pure L1 checkpointing.
        let p = ml_base();
        let rotation = mean_multilevel_efficiency(&p, 11, 8).efficiency;
        let l1 = mean_multilevel_efficiency(&p.l1_only(), 11, 8).efficiency;
        assert!(
            rotation > 0.9 * l1,
            "rotation {rotation} should be within 10% of L1-only {l1}"
        );
    }
}
