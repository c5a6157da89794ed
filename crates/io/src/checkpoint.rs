//! SCR-style multi-level checkpoint manager on simulated time.
//!
//! One [`CheckpointManager`] serves a booster job of `n` ranks. Each rank
//! owns a node-local NVM [`BlockDevice`] (L1). Level 2 additionally
//! replicates the checkpoint to a buddy rank's NVM over the EXTOLL torus,
//! so it survives the loss of either partner. Level 3 drains the state
//! through a booster-interface bridge onto the [`ParallelFs`], paying the
//! torus hop to the bridge *and* the InfiniBand path to the servers — the
//! full DEEP-ER storage hierarchy.
//!
//! Recovery consults the [`CommitLog`]: after a failure of a given
//! severity, the newest checkpoint on the cheapest *surviving* level is
//! restored over the reverse path.

use std::cell::RefCell;
use std::rc::Rc;

use deep_fabric::{ExtollFabric, NodeId};
use deep_simkit::{join_all, Sim, SimDuration};

use crate::ckptlog::{CkptLevel, CommitLog, FailureSeverity};
use crate::device::{BlockDevice, DeviceSpec};
use crate::pfs::ParallelFs;

/// A booster-interface bridge: its endpoint on the EXTOLL torus and its
/// endpoint on the InfiniBand fabric the PFS lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeNode {
    /// The bridge's node id on the booster torus.
    pub torus: NodeId,
    /// The bridge's host id on the IB fabric.
    pub ib: NodeId,
}

/// Result of one checkpoint or restore operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CkptOp {
    /// Level the data was written to / read from.
    pub level: CkptLevel,
    /// Work mark the operation carried.
    pub mark: u64,
    /// Wall time from first rank starting to last rank finishing.
    pub elapsed: SimDuration,
}

/// Multi-level checkpoint manager for one booster job.
pub struct CheckpointManager {
    sim: Sim,
    extoll: Rc<ExtollFabric>,
    pfs: Rc<ParallelFs>,
    /// Torus endpoint of each rank.
    rank_nodes: Vec<NodeId>,
    /// Node-local NVM of each rank.
    locals: Vec<Rc<BlockDevice>>,
    /// Booster-interface bridges used by L3 traffic (round-robin).
    bridges: Vec<BridgeNode>,
    log: RefCell<CommitLog>,
}

impl CheckpointManager {
    /// Create a manager for ranks pinned at `rank_nodes` on the torus,
    /// each with a local device of `local_spec`, draining L3 traffic
    /// through `bridges` onto `pfs`.
    pub fn new(
        sim: &Sim,
        extoll: Rc<ExtollFabric>,
        pfs: Rc<ParallelFs>,
        rank_nodes: Vec<NodeId>,
        bridges: Vec<BridgeNode>,
        local_spec: DeviceSpec,
    ) -> Rc<CheckpointManager> {
        assert!(rank_nodes.len() >= 2, "need at least 2 ranks for buddies");
        assert!(!bridges.is_empty(), "need at least one BI bridge for L3");
        for &n in &rank_nodes {
            assert!(
                (n.0 as usize) < extoll.num_nodes(),
                "rank node {n} outside the torus"
            );
        }
        let locals = rank_nodes
            .iter()
            .map(|_| Rc::new(BlockDevice::new(sim, local_spec.clone())))
            .collect();
        Rc::new(CheckpointManager {
            sim: sim.clone(),
            extoll,
            pfs,
            rank_nodes,
            locals,
            bridges,
            log: RefCell::new(CommitLog::new()),
        })
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.rank_nodes.len()
    }

    /// The rank's L2 partner: XOR pairing (0↔1, 2↔3, …), falling back to
    /// ring order for a trailing odd rank.
    pub fn buddy(&self, rank: usize) -> usize {
        let n = self.rank_nodes.len();
        let b = rank ^ 1;
        if b < n {
            b
        } else {
            (rank + 1) % n
        }
    }

    fn bridge(&self, rank: usize) -> BridgeNode {
        self.bridges[rank % self.bridges.len()]
    }

    /// The rank's node-local device.
    #[cfg(test)]
    fn local_device(&self, rank: usize) -> &Rc<BlockDevice> {
        &self.locals[rank]
    }

    /// Snapshot of the commit log.
    pub fn log(&self) -> CommitLog {
        self.log.borrow().clone()
    }

    /// Take a checkpoint of `bytes_per_rank` per rank at `level`, tagging
    /// it with progress `mark`. Suspends until the slowest rank has
    /// committed; only then is the mark recorded (a checkpoint interrupted
    /// mid-write is worthless).
    pub async fn checkpoint(
        self: &Rc<Self>,
        level: CkptLevel,
        bytes_per_rank: u64,
        mark: u64,
    ) -> CkptOp {
        let start = self.sim.now();
        let mut handles = Vec::with_capacity(self.n_ranks());
        for rank in 0..self.n_ranks() {
            let mgr = self.clone();
            handles.push(
                self.sim
                    .spawn(format!("ckpt-{}-r{rank}", level.name()), async move {
                        match level {
                            CkptLevel::L1Local => {
                                mgr.locals[rank].write(bytes_per_rank).await;
                            }
                            CkptLevel::L2Partner => {
                                // Local copy first, then push a replica to the
                                // buddy's NVM across the torus.
                                mgr.locals[rank].write(bytes_per_rank).await;
                                let buddy = mgr.buddy(rank);
                                mgr.extoll
                                    .rma_put(
                                        mgr.rank_nodes[rank],
                                        mgr.rank_nodes[buddy],
                                        bytes_per_rank,
                                    )
                                    .await
                                    .expect("L2 replica transfer");
                                mgr.locals[buddy].write(bytes_per_rank).await;
                            }
                            CkptLevel::L3Pfs => {
                                // Torus hop to the booster interface, then the
                                // bridge streams onto the PFS over InfiniBand.
                                let bridge = mgr.bridge(rank);
                                mgr.extoll
                                    .rma_put(mgr.rank_nodes[rank], bridge.torus, bytes_per_rank)
                                    .await
                                    .expect("L3 drain to bridge");
                                mgr.pfs.write(bridge.ib, bytes_per_rank).await;
                            }
                        }
                    }),
            );
        }
        join_all(handles).await;
        self.log.borrow_mut().commit(level, mark);
        CkptOp {
            level,
            mark,
            elapsed: self.sim.now() - start,
        }
    }

    /// Apply a failure of the given severity: replicas on levels that do
    /// not survive it are invalidated.
    pub fn fail(&self, severity: FailureSeverity) {
        self.log.borrow_mut().fail(severity);
    }

    /// Restore from the newest surviving checkpoint (cheapest level that
    /// holds it), pulling `bytes_per_rank` back to every rank over the
    /// reverse of the write path. Returns `None` if no level survived.
    pub async fn restore(self: &Rc<Self>, bytes_per_rank: u64) -> Option<CkptOp> {
        let (level, mark) = self.log.borrow().best()?;
        let start = self.sim.now();
        let mut handles = Vec::with_capacity(self.n_ranks());
        for rank in 0..self.n_ranks() {
            let mgr = self.clone();
            handles.push(
                self.sim
                    .spawn(format!("restore-{}-r{rank}", level.name()), async move {
                        match level {
                            CkptLevel::L1Local => {
                                mgr.locals[rank].read(bytes_per_rank).await;
                            }
                            CkptLevel::L2Partner => {
                                // The rank's own node (and NVM) may be fresh after
                                // a node loss: pull the replica back from the
                                // buddy's NVM across the torus.
                                let buddy = mgr.buddy(rank);
                                mgr.locals[buddy].read(bytes_per_rank).await;
                                mgr.extoll
                                    .rma_put(
                                        mgr.rank_nodes[buddy],
                                        mgr.rank_nodes[rank],
                                        bytes_per_rank,
                                    )
                                    .await
                                    .expect("L2 restore transfer");
                            }
                            CkptLevel::L3Pfs => {
                                let bridge = mgr.bridge(rank);
                                mgr.pfs.read(bridge.ib, bytes_per_rank).await;
                                mgr.extoll
                                    .rma_put(bridge.torus, mgr.rank_nodes[rank], bytes_per_rank)
                                    .await
                                    .expect("L3 restore from bridge");
                            }
                        }
                    }),
            );
        }
        join_all(handles).await;
        Some(CkptOp {
            level,
            mark,
            elapsed: self.sim.now() - start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfs::PfsConfig;
    use deep_fabric::IbFabric;
    use deep_simkit::Simulation;

    fn setup(sim: &Sim, ranks: usize) -> Rc<CheckpointManager> {
        let extoll = Rc::new(ExtollFabric::new(sim, (2, 2, 2)));
        let ib = Rc::new(IbFabric::new(sim, 4));
        let servers: Vec<NodeId> = vec![NodeId(2), NodeId(3)];
        let pfs = ParallelFs::new(sim, ib, &servers, &PfsConfig::default());
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

    fn run_levels(ranks: usize, bytes: u64) -> [SimDuration; 3] {
        let mut sim = Simulation::new(11);
        let ctx = sim.handle();
        let mgr = setup(&ctx, ranks);
        let m = mgr.clone();
        let h = sim.spawn("ckpts", async move {
            let l1 = m.checkpoint(CkptLevel::L1Local, bytes, 1).await.elapsed;
            let l2 = m.checkpoint(CkptLevel::L2Partner, bytes, 2).await.elapsed;
            let l3 = m.checkpoint(CkptLevel::L3Pfs, bytes, 3).await.elapsed;
            [l1, l2, l3]
        });
        sim.run().assert_completed();
        h.try_result().unwrap()
    }

    #[test]
    fn level_costs_are_ordered() {
        let [l1, l2, l3] = run_levels(4, 32 << 20);
        assert!(l1 < l2, "L1 {l1} should beat L2 {l2}");
        assert!(l2 < l3, "L2 {l2} should beat L3 {l3}");
    }

    #[test]
    fn l1_writes_land_on_local_nvm() {
        let mut sim = Simulation::new(3);
        let ctx = sim.handle();
        let mgr = setup(&ctx, 4);
        let m = mgr.clone();
        sim.spawn("c", async move {
            m.checkpoint(CkptLevel::L1Local, 1 << 20, 1).await;
        });
        sim.run().assert_completed();
        for rank in 0..4 {
            assert_eq!(mgr.local_device(rank).stats().bytes_written, 1 << 20);
        }
    }

    #[test]
    fn l2_survives_node_loss_l1_does_not() {
        let mut sim = Simulation::new(5);
        let ctx = sim.handle();
        let mgr = setup(&ctx, 4);
        let m = mgr.clone();
        let h = sim.spawn("cycle", async move {
            m.checkpoint(CkptLevel::L2Partner, 4 << 20, 10).await;
            m.checkpoint(CkptLevel::L1Local, 4 << 20, 20).await;
            m.fail(FailureSeverity::NodeLoss);
            m.restore(4 << 20).await
        });
        sim.run().assert_completed();
        let op = h.try_result().unwrap().expect("L2 must survive");
        assert_eq!(op.level, CkptLevel::L2Partner);
        assert_eq!(op.mark, 10);
    }

    #[test]
    fn multi_node_loss_needs_l3() {
        let mut sim = Simulation::new(5);
        let ctx = sim.handle();
        let mgr = setup(&ctx, 4);
        let m = mgr.clone();
        let h = sim.spawn("cycle", async move {
            m.checkpoint(CkptLevel::L2Partner, 1 << 20, 10).await;
            m.fail(FailureSeverity::MultiNodeLoss);
            let lost = m.restore(1 << 20).await;
            m.checkpoint(CkptLevel::L3Pfs, 1 << 20, 5).await;
            m.fail(FailureSeverity::MultiNodeLoss);
            let ok = m.restore(1 << 20).await;
            (lost, ok)
        });
        sim.run().assert_completed();
        let (lost, ok) = h.try_result().unwrap();
        assert!(lost.is_none(), "L2 must not survive multi-node loss");
        let ok = ok.expect("L3 survives");
        assert_eq!(ok.level, CkptLevel::L3Pfs);
        assert_eq!(ok.mark, 5);
    }

    #[test]
    fn buddy_pairing_is_symmetric() {
        let sim = Simulation::new(1);
        let ctx = sim.handle();
        let mgr = setup(&ctx, 4);
        for rank in 0..4 {
            assert_eq!(mgr.buddy(mgr.buddy(rank)), rank);
            assert_ne!(mgr.buddy(rank), rank);
        }
        drop(sim);
    }
}
