//! End-to-end crash/recovery driver: a tiled Cholesky factorisation that
//! checkpoints through the DEEP-ER storage hierarchy and survives
//! injected crashes.
//!
//! The driver factors a real SPD matrix panel by panel (the same tile
//! kernels the OmpSs showcase uses), pays virtual compute time per
//! panel, and checkpoints every few panels under the SCR-style L1/L2/L3
//! rotation. A crash invalidates checkpoint levels according to its
//! severity; recovery restores the newest surviving checkpoint *and* the
//! matching matrix state, then recomputes from there. Because every
//! kernel is deterministic, the factor after any crash schedule is
//! bitwise identical to the fault-free one — that is the whole point,
//! and the e2e tests assert exactly that.

use std::collections::BTreeMap;

use deep_apps::cholesky::{gemm_nt, potrf, spd_matrix, syrk, trsm, TiledMatrix};
use deep_core::{DeepConfig, DeepMachine};
use deep_io::{CkptLevel, FailureSeverity};
use deep_simkit::{SimDuration, Simulation};

/// Parameters of one crash/recovery run.
#[derive(Debug, Clone)]
pub struct RecoveryParams {
    /// Tiles per matrix side (the factorisation runs `nt` panels).
    pub nt: usize,
    /// Elements per tile side.
    pub ts: usize,
    /// Checkpoint after every `ckpt_every` panels (0 = never).
    pub ckpt_every: usize,
    /// Every `l2_every`-th checkpoint goes to the buddy (0 = never).
    pub l2_every: u32,
    /// Every `l3_every`-th checkpoint goes to the PFS (0 = never;
    /// precedence over L2).
    pub l3_every: u32,
    /// Checkpoint payload per rank.
    pub bytes_per_rank: u64,
    /// Virtual compute time per panel, seconds.
    pub panel_s: f64,
    /// Reboot/relaunch cost paid after each crash, seconds.
    pub restart_s: f64,
    /// Crash schedule: `(panel, severity)` — the node dies just as panel
    /// `panel` is about to start (after the restore that position may be
    /// reached a second time; each entry fires once, in order).
    pub crashes: Vec<(usize, FailureSeverity)>,
}

impl Default for RecoveryParams {
    fn default() -> Self {
        RecoveryParams {
            nt: 6,
            ts: 8,
            ckpt_every: 2,
            l2_every: 2,
            l3_every: 4,
            bytes_per_rank: 4 << 20,
            panel_s: 0.5,
            restart_s: 1.0,
            crashes: Vec::new(),
        }
    }
}

/// Outcome of one crash/recovery run.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// The dense lower factor after all panels completed.
    pub factor: Vec<f64>,
    /// Wall time of the whole run.
    pub elapsed: SimDuration,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Crashes suffered.
    pub failures: u64,
    /// Per crash: the level and mark recovered from, or `None` when no
    /// checkpoint survived and the run restarted from scratch.
    pub restores: Vec<Option<(CkptLevel, u64)>>,
}

/// Factor panel `k` of the tiled matrix in place (right-looking).
fn factor_panel(m: &TiledMatrix, k: usize) {
    let (nt, ts) = (m.nt, m.ts);
    potrf(&mut m.tile(k, k).borrow_mut(), ts);
    for i in k + 1..nt {
        let l = m.tile(k, k);
        let b = m.tile(i, k);
        trsm(&l.borrow(), &mut b.borrow_mut(), ts);
    }
    for i in k + 1..nt {
        for j in k + 1..i {
            let a = m.tile(i, k);
            let b = m.tile(j, k);
            let c = m.tile(i, j);
            gemm_nt(&a.borrow(), &b.borrow(), &mut c.borrow_mut(), ts);
        }
        let a = m.tile(i, k);
        let c = m.tile(i, i);
        syrk(&a.borrow(), &mut c.borrow_mut(), ts);
    }
}

/// Deep-copy of the tile contents (the checkpoint payload's stand-in).
fn snapshot(m: &TiledMatrix) -> Vec<Vec<f64>> {
    m.tiles.iter().map(|t| t.borrow().clone()).collect()
}

/// Overwrite the tiles from a snapshot.
fn restore_tiles(m: &TiledMatrix, snap: &[Vec<f64>]) {
    for (dst, src) in m.tiles.iter().zip(snap) {
        *dst.borrow_mut() = src.clone();
    }
}

/// Run the factorisation with the given crash schedule on a fresh
/// machine. Deterministic in `(config, ranks, params, seed)`.
pub fn run_cholesky_with_recovery(
    config: &DeepConfig,
    ranks: u32,
    params: &RecoveryParams,
    seed: u64,
) -> RecoveryOutcome {
    let mut sim = Simulation::new(seed);
    let ctx = sim.handle();
    let machine = DeepMachine::build(&ctx, config.clone());
    let mgr = machine.checkpoint_manager(ranks);
    let p = params.clone();
    let job = {
        let ctx = ctx.clone();
        let mgr = mgr.clone();
        async move {
            let start = ctx.now();
            let n = p.nt * p.ts;
            let a0 = spd_matrix(n);
            let m = TiledMatrix::from_dense(&a0, p.nt, p.ts);
            // Snapshots keyed by mark (= panels completed): the matrix
            // state each committed checkpoint corresponds to.
            let mut snapshots: BTreeMap<u64, Vec<Vec<f64>>> = BTreeMap::new();
            let mut crashes = p.crashes.iter();
            let mut pending = crashes.next();
            let mut k = 0usize;
            let mut checkpoints = 0u64;
            let mut failures = 0u64;
            let mut restores = Vec::new();
            while k < p.nt {
                if let Some(&(panel, severity)) = pending {
                    if panel == k {
                        pending = crashes.next();
                        failures += 1;
                        mgr.fail(severity);
                        ctx.sleep(SimDuration::from_secs_f64(p.restart_s)).await;
                        match mgr.restore(p.bytes_per_rank).await {
                            Some(op) => {
                                restore_tiles(&m, &snapshots[&op.mark]);
                                k = op.mark as usize;
                                restores.push(Some((op.level, op.mark)));
                            }
                            None => {
                                let fresh = TiledMatrix::from_dense(&a0, p.nt, p.ts);
                                restore_tiles(&m, &snapshot(&fresh));
                                k = 0;
                                restores.push(None);
                            }
                        }
                        continue;
                    }
                }
                factor_panel(&m, k);
                ctx.sleep(SimDuration::from_secs_f64(p.panel_s)).await;
                k += 1;
                if k < p.nt && p.ckpt_every > 0 && k.is_multiple_of(p.ckpt_every) {
                    checkpoints += 1;
                    let level = CkptLevel::rotation(checkpoints, p.l2_every, p.l3_every);
                    mgr.checkpoint(level, p.bytes_per_rank, k as u64).await;
                    snapshots.insert(k as u64, snapshot(&m));
                }
            }
            RecoveryOutcome {
                factor: m.to_dense(),
                elapsed: ctx.now() - start,
                checkpoints,
                failures,
                restores,
            }
        }
    };
    let h = sim.spawn("cholesky-recovery", job);
    sim.run().assert_completed();
    h.try_result().expect("recovery driver completes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_apps::cholesky::factorisation_error;

    #[test]
    fn fault_free_run_factors_correctly() {
        let p = RecoveryParams::default();
        let out = run_cholesky_with_recovery(&DeepConfig::small(), 4, &p, 7);
        let n = p.nt * p.ts;
        let a = spd_matrix(n);
        assert!(factorisation_error(&out.factor, &a, n) < 1e-9);
        assert_eq!(out.failures, 0);
        assert_eq!(out.checkpoints, 2);
        // 6 panels at 0.5 s plus two checkpoints.
        assert!(out.elapsed >= SimDuration::from_secs_f64(3.0));
    }

    #[test]
    fn rotation_matches_the_analytic_shape() {
        let rotation = CkptLevel::rotation;
        assert_eq!(rotation(1, 2, 4), CkptLevel::L1Local);
        assert_eq!(rotation(2, 2, 4), CkptLevel::L2Partner);
        assert_eq!(rotation(4, 2, 4), CkptLevel::L3Pfs);
        assert_eq!(rotation(3, 0, 0), CkptLevel::L1Local);
    }

    #[test]
    fn transient_crash_recovers_from_l1() {
        let p = RecoveryParams {
            crashes: vec![(3, FailureSeverity::Transient)],
            ..RecoveryParams::default()
        };
        let out = run_cholesky_with_recovery(&DeepConfig::small(), 4, &p, 7);
        assert_eq!(out.failures, 1);
        assert_eq!(out.restores, vec![Some((CkptLevel::L1Local, 2))]);
    }

    #[test]
    fn crash_before_any_checkpoint_restarts_from_scratch() {
        let p = RecoveryParams {
            crashes: vec![(1, FailureSeverity::MultiNodeLoss)],
            ..RecoveryParams::default()
        };
        let out = run_cholesky_with_recovery(&DeepConfig::small(), 4, &p, 7);
        assert_eq!(out.restores, vec![None]);
        let n = p.nt * p.ts;
        let a = spd_matrix(n);
        assert!(factorisation_error(&out.factor, &a, n) < 1e-9);
    }
}
