//! InfiniBand front-end: verbs-level send on top of the fat tree.
//!
//! Encodes the paper's slide-8 observation: "IB can be assumed as fast as
//! PCIe besides latency" — the fat-tree links carry FDR-class bandwidth,
//! but the software/NIC path costs roughly a microsecond per message,
//! several times the PCIe DMA doorbell cost.

use std::rc::Rc;

use deep_simkit::{Sim, SimDuration};

use crate::fattree::{ib_fdr_host_spec, ib_fdr_trunk_spec, FatTree};
use crate::network::{LinkFailure, Network};
use crate::types::{EndpointOverhead, NodeId, TransferStats};

/// Tunable InfiniBand parameters.
#[derive(Debug, Clone, Copy)]
pub struct IbParams {
    /// Sender software + NIC overhead per message.
    pub send_overhead: SimDuration,
    /// Receiver completion overhead per message.
    pub recv_overhead: SimDuration,
    /// MTU for segmentation.
    pub mtu: u64,
}

impl Default for IbParams {
    fn default() -> Self {
        IbParams {
            send_overhead: SimDuration::nanos(600),
            recv_overhead: SimDuration::nanos(300),
            mtu: 4096,
        }
    }
}

/// An InfiniBand cluster fabric.
pub struct IbFabric {
    net: Rc<Network<FatTree>>,
    params: IbParams,
}

impl IbFabric {
    /// Build a non-blocking FDR fat tree over `hosts` endpoints: 18
    /// hosts share each leaf switch, and as many spines keep the tree
    /// non-blocking.
    pub fn new(sim: &Sim, hosts: u32) -> Self {
        let params = IbParams::default();
        let topo = FatTree::new(hosts, 18, 18, ib_fdr_host_spec(), ib_fdr_trunk_spec());
        let net = Rc::new(Network::new(sim, topo, params.mtu, 0x1B_FAB));
        IbFabric { net, params }
    }

    /// Underlying contention engine (batched booking, fault injection).
    pub fn network(&self) -> &Rc<Network<FatTree>> {
        &self.net
    }

    /// Mark a host as crashed or repaired.
    pub fn set_node_down(&self, node: crate::types::NodeId, down: bool) {
        self.net.set_node_down(node, down);
    }

    /// True if a host is currently marked crashed.
    pub fn is_node_down(&self, node: crate::types::NodeId) -> bool {
        self.net.is_node_down(node)
    }

    /// Number of hosts.
    pub fn num_nodes(&self) -> usize {
        self.net.num_nodes()
    }

    /// Parameters in use.
    pub fn params(&self) -> &IbParams {
        &self.params
    }

    /// Two-sided verbs send.
    pub async fn send(
        &self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<TransferStats, LinkFailure> {
        self.net
            .transfer(
                src,
                dst,
                bytes,
                EndpointOverhead {
                    send: self.params.send_overhead,
                    recv: self.params.recv_overhead,
                },
            )
            .await
    }

    /// RDMA write: thinner receive path (no remote CPU involvement).
    pub async fn rdma_write(
        &self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<TransferStats, LinkFailure> {
        self.net
            .transfer(
                src,
                dst,
                bytes,
                EndpointOverhead {
                    send: self.params.send_overhead,
                    recv: SimDuration::nanos(50),
                },
            )
            .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_simkit::Simulation;

    #[test]
    fn small_message_latency_is_about_a_microsecond() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ib = Rc::new(IbFabric::new(&ctx, 64));
        let f = ib.clone();
        let h = sim.spawn("ping", async move {
            f.send(NodeId(0), NodeId(63), 8).await.unwrap().elapsed
        });
        sim.run().assert_completed();
        let lat = h.try_result().unwrap();
        assert!(
            lat >= SimDuration::micros(1) && lat < SimDuration::micros(3),
            "cross-tree 8B latency {lat} should be ~1-2 µs"
        );
    }

    #[test]
    fn bulk_bandwidth_approaches_fdr_rate() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ib = Rc::new(IbFabric::new(&ctx, 64));
        let f = ib.clone();
        let h = sim.spawn("bulk", async move {
            f.send(NodeId(0), NodeId(63), 256 << 20).await.unwrap()
        });
        sim.run().assert_completed();
        let st = h.try_result().unwrap();
        let frac = st.goodput_bps() / 6.8e9;
        assert!(frac > 0.99, "bulk goodput fraction {frac:.4}");
    }

    #[test]
    fn ib_is_latency_poorer_but_bandwidth_comparable_to_pcie() {
        // Slide 8's claim, checked at the spec level.
        use crate::pcie::pcie2_x16_spec;
        let ib_bw = ib_fdr_host_spec().bandwidth_bps;
        let pcie_bw = pcie2_x16_spec().bandwidth_bps;
        assert!(
            (ib_bw / pcie_bw - 1.0).abs() < 0.25,
            "bandwidths within 25%"
        );
        let ib_lat = IbParams::default().send_overhead + IbParams::default().recv_overhead;
        assert!(
            ib_lat.as_nanos() > 2 * pcie2_x16_spec().latency.as_nanos(),
            "IB message overhead well above a PCIe DMA leg"
        );
    }
}
