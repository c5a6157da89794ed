//! EXTOLL NIC front-end: the engines of slide 16 on top of the 3-D torus.
//!
//! * **VELO** — the small-message engine: messages are injected directly
//!   from user space with tiny fixed overhead (zero-copy MPI send path).
//! * **RMA** — the bulk-transfer engine: one-sided put/get with a setup
//!   cost; `get` pays an extra request traversal.
//! * **SMFU** — shared-memory functional unit, used by the Cluster–Booster
//!   Protocol to bridge into InfiniBand; modelled as a per-message
//!   protocol-translation overhead applied at the bridge node.
//! * **RAS** — CRC-protected links with link-level retransmission, driven
//!   by the [`FaultModel`] of the underlying [`Network`].

use std::rc::Rc;

use deep_simkit::{Sim, SimDuration};

use crate::network::{FaultModel, LinkFailure, Network};
use crate::torus::{extoll_link_spec, Torus3D};
use crate::types::{EndpointOverhead, NodeId, TransferStats};

/// Tunable engine parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExtollParams {
    /// Largest payload the VELO engine accepts.
    pub velo_max_bytes: u64,
    /// VELO sender overhead (user-space doorbell + descriptor).
    pub velo_send_overhead: SimDuration,
    /// VELO receiver overhead (mailbox poll + copy-out).
    pub velo_recv_overhead: SimDuration,
    /// RMA descriptor setup on the initiator.
    pub rma_setup_overhead: SimDuration,
    /// RMA completion notification cost.
    pub rma_completion_overhead: SimDuration,
    /// SMFU protocol-translation cost per message (used by the CBP bridge).
    pub smfu_overhead: SimDuration,
    /// Link MTU for segmentation/retransmission granularity.
    pub mtu: u64,
}

impl Default for ExtollParams {
    fn default() -> Self {
        ExtollParams {
            velo_max_bytes: 8192,
            velo_send_overhead: SimDuration::nanos(250),
            velo_recv_overhead: SimDuration::nanos(150),
            rma_setup_overhead: SimDuration::nanos(500),
            rma_completion_overhead: SimDuration::nanos(100),
            smfu_overhead: SimDuration::nanos(400),
            mtu: 4096,
        }
    }
}

/// An EXTOLL fabric: 3-D torus + engine overheads.
pub struct ExtollFabric {
    net: Rc<Network<Torus3D>>,
    params: ExtollParams,
}

impl ExtollFabric {
    /// Build an EXTOLL torus of the given dimensions with default link
    /// spec and parameters.
    pub fn new(sim: &Sim, dims: (u32, u32, u32)) -> Self {
        let params = ExtollParams::default();
        let topo = Torus3D::new(dims, extoll_link_spec());
        let net = Rc::new(Network::new(sim, topo, params.mtu, 0x00E0_7011));
        ExtollFabric { net, params }
    }

    /// Enable CRC-error injection on every link.
    pub fn with_fault_model(self, fault: FaultModel) -> Self {
        self.net.set_fault_model(fault);
        self
    }

    /// True if a booster node is currently marked crashed.
    pub fn is_node_down(&self, node: crate::types::NodeId) -> bool {
        self.net.is_node_down(node)
    }

    /// Engine parameters.
    pub fn params(&self) -> &ExtollParams {
        &self.params
    }

    /// Underlying contention engine (batched booking, fault injection).
    pub fn network(&self) -> &Rc<Network<Torus3D>> {
        &self.net
    }

    /// Number of booster nodes on the torus.
    pub fn num_nodes(&self) -> usize {
        self.net.num_nodes()
    }

    /// Torus dimensions.
    pub fn dims(&self) -> (u32, u32, u32) {
        self.net.topo.dims()
    }

    /// Minimal hop distance between two nodes.
    pub fn hop_count(&self, a: NodeId, b: NodeId) -> u32 {
        self.net.topo.distance(a, b)
    }

    /// Send a small message through the VELO engine.
    /// Panics if the payload exceeds `velo_max_bytes`.
    pub async fn velo_send(
        &self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<TransferStats, LinkFailure> {
        assert!(
            bytes <= self.params.velo_max_bytes,
            "VELO payload {bytes} exceeds engine limit {}",
            self.params.velo_max_bytes
        );
        self.net
            .transfer(
                src,
                dst,
                bytes,
                EndpointOverhead {
                    send: self.params.velo_send_overhead,
                    recv: self.params.velo_recv_overhead,
                },
            )
            .await
    }

    /// One-sided bulk put through the RMA engine. The remote CPU is not
    /// involved; the initiator pays setup + completion.
    pub async fn rma_put(
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
                    send: self.params.rma_setup_overhead,
                    recv: self.params.rma_completion_overhead,
                },
            )
            .await
    }

    /// One-sided bulk get: a request traversal precedes the data flowing
    /// back, so small gets pay roughly one extra network latency.
    #[cfg(test)]
    async fn rma_get(
        &self,
        initiator: NodeId,
        target: NodeId,
        bytes: u64,
    ) -> Result<TransferStats, LinkFailure> {
        let start = self.net.sim().now();
        // Request descriptor to the target (header-sized).
        self.net
            .transfer(
                initiator,
                target,
                64,
                EndpointOverhead {
                    send: self.params.rma_setup_overhead,
                    recv: SimDuration::ZERO,
                },
            )
            .await?;
        // Data streams back.
        let mut st = self
            .net
            .transfer(
                target,
                initiator,
                bytes,
                EndpointOverhead {
                    send: SimDuration::ZERO,
                    recv: self.params.rma_completion_overhead,
                },
            )
            .await?;
        st.elapsed = self.net.sim().now() - start;
        Ok(st)
    }

    /// Pick VELO for small payloads and RMA for bulk, like the MPI port.
    pub async fn send_auto(
        &self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> Result<TransferStats, LinkFailure> {
        if bytes <= self.params.velo_max_bytes {
            self.velo_send(src, dst, bytes).await
        } else {
            self.rma_put(src, dst, bytes).await
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_simkit::Simulation;

    #[test]
    fn velo_latency_is_submicrosecond_for_tiny_messages() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ext = Rc::new(ExtollFabric::new(&ctx, (4, 4, 4)));
        let e = ext.clone();
        let h = sim.spawn("ping", async move {
            e.velo_send(NodeId(0), NodeId(1), 8).await.unwrap().elapsed
        });
        sim.run().assert_completed();
        let lat = h.try_result().unwrap();
        assert!(
            lat < SimDuration::micros(1),
            "one-hop VELO latency {lat} must be sub-µs"
        );
    }

    #[test]
    fn rma_reaches_most_of_link_bandwidth_for_bulk() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ext = Rc::new(ExtollFabric::new(&ctx, (4, 4, 4)));
        let e = ext.clone();
        let h = sim.spawn("bulk", async move {
            e.rma_put(NodeId(0), NodeId(1), 64 << 20).await.unwrap()
        });
        sim.run().assert_completed();
        let st = h.try_result().unwrap();
        let frac = st.goodput_bps() / extoll_link_spec().bandwidth_bps;
        assert!(frac > 0.99, "bulk RMA goodput fraction {frac:.3}");
    }

    #[test]
    fn rma_get_pays_extra_round_trip() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ext = Rc::new(ExtollFabric::new(&ctx, (8, 8, 8)));
        let (e1, e2) = (ext.clone(), ext.clone());
        let far = NodeId(511); // distance 12 from node 0
        let put = sim.spawn("put", async move {
            e1.rma_put(NodeId(0), far, 256).await.unwrap().elapsed
        });
        let get = sim.spawn("get", async move {
            e2.rma_get(NodeId(0), far, 256).await.unwrap().elapsed
        });
        sim.run().assert_completed();
        assert!(get.try_result().unwrap() > put.try_result().unwrap());
    }

    #[test]
    fn velo_rejects_oversized_payloads() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ext = Rc::new(ExtollFabric::new(&ctx, (2, 2, 2)));
        let h = sim.spawn("too-big", async move {
            // 1 MiB through VELO must panic; catch via spawned process.
            ext.velo_send(NodeId(0), NodeId(1), 1 << 20).await.ok();
        });
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run();
        }));
        assert!(res.is_err(), "oversized VELO send should panic");
        drop(h);
    }

    #[test]
    fn latency_scales_with_hop_count() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ext = Rc::new(ExtollFabric::new(&ctx, (8, 8, 8)));
        let mut handles = Vec::new();
        // Nodes along +x: 1, 2, 3, 4 hops from 0. Staggered so the probes
        // never contend on the shared first link.
        for hops in 1..=4u32 {
            let e = ext.clone();
            let ctx = ctx.clone();
            handles.push(sim.spawn(format!("d{hops}"), async move {
                ctx.sleep(SimDuration::micros(hops as u64 * 100)).await;
                e.velo_send(NodeId(0), NodeId(hops), 8)
                    .await
                    .unwrap()
                    .elapsed
            }));
        }
        sim.run().assert_completed();
        let times: Vec<u64> = handles
            .into_iter()
            .map(|h| h.try_result().unwrap().as_nanos())
            .collect();
        for w in times.windows(2) {
            assert_eq!(
                w[1] - w[0],
                60,
                "each extra hop adds exactly one hop latency"
            );
        }
    }
}
