//! Assembly of a complete DEEP machine: InfiniBand cluster + EXTOLL
//! booster + booster interfaces + a global-MPI universe over the
//! Cluster–Booster Protocol, plus the DEEP-ER storage hierarchy (PFS
//! servers on the cluster fabric, node-local NVM, multi-level
//! checkpointing).

use std::future::Future;
use std::rc::Rc;

use deep_cbp::{CbpConfig, CbpWire, CbpWireHandle};
use deep_fabric::{ExtollFabric, IbFabric, NodeId};
use deep_io::{BridgeNode, CheckpointManager, FileLayer, ParallelFs};
use deep_ompss::offload_server;
use deep_psmpi::{launch_world, EpId, MpiCtx, Universe};
use deep_simkit::{ProcHandle, Sim};

use crate::config::DeepConfig;

/// Command name under which the generic offload server is registered.
pub const OFFLOAD_SERVER: &str = "deep-offload-server";

/// Name of the booster endpoint pool.
pub const BOOSTER_POOL: &str = "booster";

/// A live DEEP machine inside one simulation.
pub struct DeepMachine {
    sim: Sim,
    config: DeepConfig,
    cbp: Rc<CbpWire>,
    universe: Rc<Universe>,
    extoll: Rc<ExtollFabric>,
    pfs: Rc<ParallelFs>,
    bridges: Vec<BridgeNode>,
}

impl DeepMachine {
    /// Build the machine: fabrics, bridge, universe, booster pool, the
    /// generic offload server registration, and the PFS servers (which
    /// share the cluster's InfiniBand fabric, so file I/O contends with
    /// MPI traffic on the same links).
    pub fn build(sim: &Sim, config: DeepConfig) -> DeepMachine {
        let n_booster = config.n_booster();
        assert!(config.n_bi >= 1 && config.n_bi <= n_booster);
        let n_pfs = config.storage.pfs.n_servers.max(1);
        // IB hosts: cluster nodes, then BI nodes, then the PFS servers.
        let ib = Rc::new(IbFabric::new(sim, config.n_cluster + config.n_bi + n_pfs));
        let mut extoll_fabric = ExtollFabric::new(sim, config.booster_dims);
        if config.booster_link_error_rate > 0.0 {
            extoll_fabric = extoll_fabric.with_fault_model(deep_fabric::FaultModel {
                segment_error_rate: config.booster_link_error_rate,
                max_retries: 32,
            });
        }
        let extoll = Rc::new(extoll_fabric);
        // Spread BI entry points evenly over the torus.
        let stride = (n_booster / config.n_bi).max(1);
        let bis: Vec<(u32, u32)> = (0..config.n_bi)
            .map(|i| (config.n_cluster + i, (i * stride) % n_booster))
            .collect();
        let bridges = bis
            .iter()
            .map(|&(ib_host, torus)| BridgeNode {
                torus: NodeId(torus),
                ib: NodeId(ib_host),
            })
            .collect();
        let pfs_nodes: Vec<NodeId> = (0..n_pfs)
            .map(|i| NodeId(config.n_cluster + config.n_bi + i))
            .collect();
        let pfs = ParallelFs::new(sim, ib.clone(), &pfs_nodes, &config.storage.pfs);
        let cbp = CbpWire::new(
            sim,
            ib,
            extoll.clone(),
            CbpConfig::new(config.n_cluster, n_booster, bis),
        );
        let universe = Universe::new(
            sim,
            Rc::new(CbpWireHandle(cbp.clone())),
            cbp.num_endpoints() as usize,
            config.mpi,
        );
        universe.add_pool(
            BOOSTER_POOL,
            (0..n_booster).map(|j| cbp.booster_ep(j)).collect(),
        );
        universe.register_app(OFFLOAD_SERVER, offload_server(config.booster_node.clone()));
        DeepMachine {
            sim: sim.clone(),
            config,
            cbp,
            universe,
            extoll,
            pfs,
            bridges,
        }
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The machine configuration.
    pub fn config(&self) -> &DeepConfig {
        &self.config
    }

    /// The cluster-booster bridge (traffic statistics live here).
    pub fn cbp(&self) -> &Rc<CbpWire> {
        &self.cbp
    }

    /// The global-MPI universe.
    pub fn universe(&self) -> &Rc<Universe> {
        &self.universe
    }

    /// The booster's EXTOLL fabric.
    pub fn extoll(&self) -> &Rc<ExtollFabric> {
        &self.extoll
    }

    /// The parallel file system attached to the cluster fabric.
    pub fn pfs(&self) -> &Rc<ParallelFs> {
        &self.pfs
    }

    /// The booster-interface bridges (torus side + IB side).
    pub fn bridges(&self) -> &[BridgeNode] {
        &self.bridges
    }

    /// A SIONlib-style file layer over this machine's PFS.
    pub fn file_layer(&self) -> Rc<FileLayer> {
        FileLayer::new(&self.sim, self.pfs.clone(), self.config.storage.file_layer)
    }

    /// A multi-level checkpoint manager for a booster job on the first
    /// `ranks` torus nodes, each with the configured node-local NVM, L2
    /// buddies over EXTOLL, and L3 draining through the BI bridges onto
    /// the PFS.
    pub fn checkpoint_manager(&self, ranks: u32) -> Rc<CheckpointManager> {
        assert!(
            ranks >= 2 && ranks <= self.config.n_booster(),
            "checkpoint job must fit the booster"
        );
        CheckpointManager::new(
            &self.sim,
            self.extoll.clone(),
            self.pfs.clone(),
            (0..ranks).map(NodeId).collect(),
            self.bridges.clone(),
            self.config.storage.local.clone(),
        )
    }

    /// Endpoints of the cluster nodes.
    fn cluster_eps(&self) -> Vec<EpId> {
        (0..self.config.n_cluster)
            .map(|i| self.cbp.cluster_ep(i))
            .collect()
    }

    /// Register an additional application for `comm_spawn`.
    pub fn register_app(&self, name: &str, f: deep_psmpi::universe::AppFn) {
        self.universe.register_app(name, f);
    }

    /// Launch the cluster-side application across all cluster nodes
    /// (the `mpiexec` analogue of slide 21's `main()` part), one rank per
    /// cluster node. Each rank's body returns its result, read after the
    /// run from `handles[rank].try_result()` (see [`launch_world`]).
    pub fn launch_cluster_app<T, Fut>(
        &self,
        name: &str,
        f: impl Fn(MpiCtx) -> Fut + 'static,
    ) -> Vec<ProcHandle<T>>
    where
        Fut: Future<Output = T> + 'static,
        T: 'static,
    {
        launch_world(&self.universe, name, self.cluster_eps(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_ompss::{booster_block, OffloadSpec, Offloader};
    use deep_psmpi::{ReduceOp, Value};
    use deep_simkit::Simulation;

    #[test]
    fn machine_builds_and_boots() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let m = DeepMachine::build(&ctx, DeepConfig::small());
        assert_eq!(m.cluster_eps().len(), 4);
        assert_eq!(m.universe().pool_available(BOOSTER_POOL), 8);
        sim.run().assert_completed();
    }

    #[test]
    fn end_to_end_offload_on_the_small_machine() {
        let mut sim = Simulation::new(2);
        let ctx = sim.handle();
        let m = DeepMachine::build(&ctx, DeepConfig::small());
        let cbp = m.cbp().clone();
        m.launch_cluster_app("main", move |mpi| async move {
            let world = mpi.world().clone();
            // Spawn the whole booster (slide 21: collective spawn of
            // the highly scalable code part).
            let inter = mpi
                .comm_spawn(&world, OFFLOAD_SERVER, 8, BOOSTER_POOL, 0)
                .await
                .expect("booster spawn");
            let off = Offloader::new(inter);
            let block = booster_block(mpi.rank(), mpi.size(), 8);
            let spec = OffloadSpec {
                in_bytes: 256 << 10,
                out_bytes: 256 << 10,
                kernel: deep_hw::KernelProfile::stencil2d(1 << 20),
                cores: 60,
                iters: 4,
                internal_msg_bytes: 1024,
            };
            off.run(&mpi, &spec, block.clone()).await;
            // A cluster-side collective still works afterwards.
            let s = mpi.allreduce(&world, ReduceOp::Sum, Value::U64(1), 8).await;
            assert_eq!(s.as_u64(), 4);
            off.shutdown(&mpi, block).await;
        });
        sim.run().assert_completed();
        let traffic = cbp.bridged_traffic();
        assert!(traffic.bytes >= 8 * (512 << 10), "payload crossed bridge");
    }

    #[test]
    fn storage_is_wired_into_the_machine() {
        let mut sim = Simulation::new(4);
        let ctx = sim.handle();
        let m = DeepMachine::build(&ctx, DeepConfig::small());
        assert_eq!(m.pfs().n_servers(), 2);
        assert_eq!(m.bridges().len(), 2);
        // PFS servers sit past the cluster and BI hosts on the IB fabric.
        assert_eq!(m.pfs().server_nodes(), vec![NodeId(6), NodeId(7)]);
        let mgr = m.checkpoint_manager(8);
        let pfs = m.pfs().clone();
        sim.spawn("ckpt", async move {
            mgr.checkpoint(deep_io::CkptLevel::L3Pfs, 1 << 20, 1).await;
        });
        sim.run().assert_completed();
        // The L3 checkpoint crossed onto the PFS server devices.
        assert_eq!(pfs.stats().bytes_written, 8 << 20);
    }

    #[test]
    fn prototype_machine_builds() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let m = DeepMachine::build(&ctx, DeepConfig::prototype());
        assert_eq!(m.universe().pool_available(BOOSTER_POOL), 512);
        sim.run().assert_completed();
    }
}
