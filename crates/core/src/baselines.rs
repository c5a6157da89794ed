//! Baseline architectures the paper positions DEEP against:
//!
//! * a **homogeneous cluster** (InfiniBand + Xeon only);
//! * a conventional **accelerated cluster** (slides 6–7): one GPU per
//!   node behind PCIe, statically bound, every device transfer staged
//!   through host memory.

use std::cell::RefCell;
use std::rc::Rc;

use deep_fabric::{pcie, EndpointOverhead, IbFabric, Network, PcieBus};
use deep_hw::NodeModel;
use deep_psmpi::{EpId, IbWire, MpiParams, Universe};
use deep_simkit::{Sim, SimDuration};

/// Build a plain InfiniBand cluster universe of `n_nodes` Xeon nodes.
pub fn homogeneous_cluster(sim: &Sim, n_nodes: u32, mpi: MpiParams) -> Rc<Universe> {
    let ib = Rc::new(IbFabric::new(sim, n_nodes));
    Universe::new(sim, Rc::new(IbWire::new(ib)), n_nodes as usize, mpi)
}

/// Per-transfer counters of a PCIe-attached accelerator.
#[derive(Debug, Default, Clone, Copy)]
pub struct AccTraffic {
    /// Host↔device crossings.
    pub messages: u64,
    /// Bytes crossed.
    pub bytes: u64,
}

/// One node's PCIe-attached GPU: the "communication so far via main
/// memory" device of slide 7. Owns a private host↔device bus.
pub struct AcceleratedNode {
    bus: Rc<Network>,
    /// Driver/launch overhead per DMA (cudaMemcpy-era software path).
    dma_overhead: EndpointOverhead,
    traffic: RefCell<AccTraffic>,
    /// The accelerator silicon.
    pub gpu: NodeModel,
}

impl AcceleratedNode {
    /// Build a node with one GPU on a PCIe 2.0 ×16 bus.
    pub fn new(sim: &Sim, gpu: NodeModel, node_index: u64) -> AcceleratedNode {
        let bus = Network::new(
            sim,
            PcieBus::new(1, pcie::root_complex_spec(), pcie::pcie2_x16_spec()),
            4096,
            0x9C1E ^ node_index,
        );
        AcceleratedNode {
            bus: Rc::new(bus),
            dma_overhead: EndpointOverhead {
                send: SimDuration::micros(5),
                recv: SimDuration::micros(1),
            },
            traffic: RefCell::new(AccTraffic::default()),
            gpu,
        }
    }

    fn count(&self, bytes: u64) {
        let mut t = self.traffic.borrow_mut();
        t.messages += 1;
        t.bytes += bytes;
    }

    /// Copy host → device.
    pub async fn h2d(&self, bytes: u64) {
        self.count(bytes);
        self.bus
            .transfer(
                PcieBus::host(),
                PcieBus::device(0),
                bytes,
                self.dma_overhead,
            )
            .await
            .expect("PCIe transfer");
    }

    /// Copy device → host.
    pub async fn d2h(&self, bytes: u64) {
        self.count(bytes);
        self.bus
            .transfer(
                PcieBus::device(0),
                PcieBus::host(),
                bytes,
                self.dma_overhead,
            )
            .await
            .expect("PCIe transfer");
    }

    /// Host↔device traffic so far.
    pub fn traffic(&self) -> AccTraffic {
        *self.traffic.borrow()
    }
}

/// A full accelerated cluster: IB universe + one GPU per node.
pub struct AcceleratedCluster {
    /// The MPI universe among the host CPUs.
    pub universe: Rc<Universe>,
    /// Per-node accelerators, indexed by rank.
    pub nodes: Vec<Rc<AcceleratedNode>>,
}

impl AcceleratedCluster {
    /// Build with `n_nodes` hosts, each carrying one `gpu`.
    pub fn build(sim: &Sim, n_nodes: u32, gpu: NodeModel, mpi: MpiParams) -> AcceleratedCluster {
        let universe = homogeneous_cluster(sim, n_nodes, mpi);
        let nodes = (0..n_nodes)
            .map(|i| Rc::new(AcceleratedNode::new(sim, gpu.clone(), i as u64)))
            .collect();
        AcceleratedCluster { universe, nodes }
    }

    /// Endpoints of the host ranks.
    pub fn eps(&self) -> Vec<EpId> {
        (0..self.nodes.len() as u32).map(EpId).collect()
    }

    /// Aggregate host↔device traffic across the machine.
    pub fn total_acc_traffic(&self) -> AccTraffic {
        let mut total = AccTraffic::default();
        for n in &self.nodes {
            let t = n.traffic();
            total.messages += t.messages;
            total.bytes += t.bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_simkit::Simulation;

    #[test]
    fn h2d_d2h_roundtrip_costs_time_and_counts_traffic() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let node = Rc::new(AcceleratedNode::new(&ctx, NodeModel::gpu_k20x(), 0));
        let n2 = node.clone();
        let h = sim.spawn("copy", async move {
            let t0 = n2.bus.sim().now();
            n2.h2d(64 << 20).await;
            n2.d2h(64 << 20).await;
            (n2.bus.sim().now() - t0).as_secs_f64()
        });
        sim.run().assert_completed();
        let t = h.try_result().unwrap();
        // 2 × 64 MiB at ~6.2 GB/s ≈ 21.6 ms plus overheads.
        assert!((0.02..0.03).contains(&t), "roundtrip {t}");
        let tr = node.traffic();
        assert_eq!(tr.messages, 2);
        assert_eq!(tr.bytes, 2 * (64 << 20));
    }

    #[test]
    fn small_transfers_are_overhead_dominated() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let node = Rc::new(AcceleratedNode::new(&ctx, NodeModel::gpu_k20x(), 0));
        let h = sim.spawn("small", async move {
            let t0 = node.bus.sim().now();
            node.h2d(64).await;
            (node.bus.sim().now() - t0).as_nanos()
        });
        sim.run().assert_completed();
        let ns = h.try_result().unwrap();
        // ≥ 6 µs of driver overhead vs ~10 ns of wire time.
        assert!(ns >= 6_000, "small DMA cost {ns} ns");
    }

    #[test]
    fn accelerated_cluster_builds() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ac = AcceleratedCluster::build(&ctx, 8, NodeModel::gpu_k20x(), MpiParams::default());
        assert_eq!(ac.eps().len(), 8);
        assert_eq!(ac.total_acc_traffic().messages, 0);
        sim.run().assert_completed();
    }
}
