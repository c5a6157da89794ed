//! Cross-module properties of the storage stack: determinism of the
//! DES models and the multi-level commit-log safety invariant.

use std::rc::Rc;

use deep_fabric::{ExtollFabric, IbFabric, NodeId};
use deep_io::{
    BridgeNode, CheckpointManager, CkptLevel, CommitLog, DeviceSpec, FailureSeverity, FileLayer,
    FileLayerParams, ParallelFs, PfsConfig, WritePattern,
};
use deep_simkit::{Sim, SimTime, Simulation, TraceEvent};
use proptest::prelude::*;

fn build_manager(sim: &Sim, ranks: usize) -> Rc<CheckpointManager> {
    let extoll = Rc::new(ExtollFabric::new(sim, (2, 2, 2)));
    let ib = Rc::new(IbFabric::new(sim, 4));
    let pfs = ParallelFs::new(sim, ib, &[NodeId(2), NodeId(3)], &PfsConfig::default());
    CheckpointManager::new(
        sim,
        extoll,
        pfs,
        (0..ranks as u32).map(NodeId).collect(),
        vec![BridgeNode {
            torus: NodeId(7),
            ib: NodeId(0),
        }],
        DeviceSpec::nvm(),
    )
}

/// One full storage exercise: an I/O phase on the file layer plus an
/// L1/L2/L3 checkpoint cycle with a restore. Returns the trace.
fn storage_scenario(seed: u64) -> (Vec<TraceEvent>, SimTime) {
    let mut sim = Simulation::new(seed);
    sim.enable_tracing();
    let ctx = sim.handle();

    let ib = Rc::new(IbFabric::new(&ctx, 8));
    let pfs = ParallelFs::new(&ctx, ib, &[NodeId(6), NodeId(7)], &PfsConfig::default());
    let layer = FileLayer::new(&ctx, pfs, FileLayerParams::default());
    let mgr = build_manager(&ctx, 4);

    let l = layer.clone();
    let m = mgr.clone();
    sim.spawn("scenario", async move {
        let clients: Vec<NodeId> = (0..4).map(NodeId).collect();
        l.write_phase(&clients, 2 << 20, WritePattern::Sion).await;
        l.write_phase(&clients, 2 << 20, WritePattern::TaskLocal)
            .await;
        m.checkpoint(CkptLevel::L1Local, 4 << 20, 1).await;
        m.checkpoint(CkptLevel::L2Partner, 4 << 20, 2).await;
        m.checkpoint(CkptLevel::L3Pfs, 4 << 20, 3).await;
        m.fail(FailureSeverity::NodeLoss);
        m.restore(4 << 20).await;
    });
    sim.run().assert_completed();
    let end = sim.now();
    (sim.take_events(), end)
}

#[test]
fn identical_seeds_give_identical_traces() {
    let (trace_a, end_a) = storage_scenario(42);
    let (trace_b, end_b) = storage_scenario(42);
    assert_eq!(end_a, end_b, "end times must match");
    assert_eq!(trace_a.len(), trace_b.len(), "trace lengths must match");
    assert_eq!(trace_a, trace_b, "event traces must be identical");
}

#[test]
fn restore_after_node_loss_lands_on_l2() {
    let mut sim = Simulation::new(9);
    let ctx = sim.handle();
    let mgr = build_manager(&ctx, 4);
    let m = mgr.clone();
    let h = sim.spawn("cycle", async move {
        m.checkpoint(CkptLevel::L3Pfs, 1 << 20, 5).await;
        m.checkpoint(CkptLevel::L2Partner, 1 << 20, 8).await;
        m.checkpoint(CkptLevel::L1Local, 1 << 20, 9).await;
        m.fail(FailureSeverity::NodeLoss);
        m.restore(1 << 20).await
    });
    sim.run().assert_completed();
    let op = h.try_result().unwrap().expect("recoverable");
    assert_eq!(op.level, CkptLevel::L2Partner);
    assert_eq!(op.mark, 8, "newest surviving mark wins");
}

// ---------------------------------------------------------------------
// CommitLog safety: a committed checkpoint is never lost to a failure
// its level survives, under arbitrary interleavings of commits and
// failures.

#[derive(Debug, Clone, Copy)]
enum LogOp {
    Commit(CkptLevel, u64),
    Fail(FailureSeverity),
}

fn op_strategy() -> impl Strategy<Value = LogOp> {
    (0u8..6u8, 1u64..1000u64).prop_map(|(kind, mark)| match kind {
        0 => LogOp::Commit(CkptLevel::L1Local, mark),
        1 => LogOp::Commit(CkptLevel::L2Partner, mark),
        2 => LogOp::Commit(CkptLevel::L3Pfs, mark),
        3 => LogOp::Fail(FailureSeverity::Transient),
        4 => LogOp::Fail(FailureSeverity::NodeLoss),
        _ => LogOp::Fail(FailureSeverity::MultiNodeLoss),
    })
}

proptest! {
    /// Replaying any op sequence: after the final op, every level that
    /// survived all failures since its last commit still reports a mark,
    /// and `best()` is exactly the max over surviving levels.
    #[test]
    fn committed_levels_survive_what_they_should(
        ops in prop::collection::vec(op_strategy(), 0..40)
    ) {
        let mut log = CommitLog::new();
        // Shadow model: per level, the newest mark committed since the
        // last failure that level does not survive.
        let mut shadow: [Option<u64>; 3] = [None; 3];
        for op in &ops {
            match *op {
                LogOp::Commit(level, mark) => {
                    log.commit(level, mark);
                    let idx = level as usize;
                    shadow[idx] = Some(shadow[idx].map_or(mark, |m| m.max(mark)));
                }
                LogOp::Fail(sev) => {
                    log.fail(sev);
                    for level in CkptLevel::ALL {
                        if !level.survives(sev) {
                            shadow[level as usize] = None;
                        }
                    }
                }
            }
        }
        for level in CkptLevel::ALL {
            prop_assert_eq!(log.latest(level), shadow[level as usize]);
        }
        let expect_best = shadow.iter().flatten().copied().max();
        prop_assert_eq!(log.best().map(|(_, m)| m), expect_best);
    }

    /// An L3 commit is indestructible: no failure sequence can make the
    /// log unrecoverable once the PFS holds a checkpoint.
    #[test]
    fn l3_commit_is_never_lost(
        mark in 1u64..1000u64,
        ops in prop::collection::vec(op_strategy(), 0..40)
    ) {
        let mut log = CommitLog::new();
        log.commit(CkptLevel::L3Pfs, mark);
        for op in &ops {
            if let LogOp::Fail(sev) = *op {
                log.fail(sev);
            }
        }
        let (_, best) = log.best().expect("L3 survives everything");
        prop_assert!(best >= mark);
    }
}
