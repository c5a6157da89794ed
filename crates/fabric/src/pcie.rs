//! PCIe topology for the conventional *accelerated cluster* baseline
//! (slides 6–7): accelerators hang off a host CPU; every transfer is
//! staged through main memory, and device↔device traffic crosses the
//! root complex twice. This is the bottleneck the cluster-of-accelerators
//! design removes.
//!
//! Node 0 is the host; nodes `1..=devices` are accelerator cards.
//!
//! Link layout (directed):
//! * 0 — host memory → root complex (shared by all outbound DMA)
//! * 1 — root complex → host memory (shared by all inbound DMA)
//! * `2 + 2(d−1)` — root complex → device `d` (the device's ×16 down-link)
//! * `3 + 2(d−1)` — device `d` → root complex (×16 up-link)

use deep_simkit::SimDuration;

use crate::topology::Topology;
use crate::types::{Hop, LinkId, LinkSpec, NodeId};

/// Link classes: the root-complex / memory path, then the ×16 lanes.
const RC: u8 = 0;
const LANE: u8 = 1;

/// A host with PCIe-attached accelerator devices.
pub struct PcieBus {
    devices: u32,
    /// `[root complex, lane]` specs, indexed by class.
    classes: [LinkSpec; 2],
}

impl PcieBus {
    /// Build a bus with `devices` accelerators.
    pub fn new(devices: u32, rc_spec: LinkSpec, lane_spec: LinkSpec) -> Self {
        assert!(devices >= 1);
        PcieBus {
            devices,
            classes: [rc_spec, lane_spec],
        }
    }

    /// Number of accelerator devices.
    pub fn devices(&self) -> u32 {
        self.devices
    }

    /// The host endpoint.
    pub fn host() -> NodeId {
        NodeId(0)
    }

    /// The `i`-th device endpoint (0-based).
    pub fn device(i: u32) -> NodeId {
        NodeId(i + 1)
    }

    fn down(&self, dev: u32) -> Hop {
        Hop::new(LinkId(2 + 2 * (dev - 1)), LANE)
    }

    fn up(&self, dev: u32) -> Hop {
        Hop::new(LinkId(3 + 2 * (dev - 1)), LANE)
    }
}

impl Topology for PcieBus {
    fn num_nodes(&self) -> usize {
        (self.devices + 1) as usize
    }

    fn num_links(&self) -> usize {
        2 + 2 * self.devices as usize
    }

    fn classes(&self) -> &[LinkSpec] {
        &self.classes
    }

    fn diameter(&self) -> usize {
        4
    }

    fn hops(&self, src: NodeId, dst: NodeId, out: &mut [Hop]) -> usize {
        let (mem_read, mem_write) = (Hop::new(LinkId(0), RC), Hop::new(LinkId(1), RC));
        let route: &[Hop] = match (src.0, dst.0) {
            _ if src == dst => &[],
            // Host → device: memory read + DMA down.
            (0, d) => &[mem_read, self.down(d)],
            // Device → host: DMA up + memory write.
            (d, 0) => &[self.up(d), mem_write],
            // Device ↔ device without peer-to-peer: staged via memory.
            (a, b) => &[self.up(a), mem_write, mem_read, self.down(b)],
        };
        out[..route.len()].copy_from_slice(route);
        route.len()
    }
}

/// PCIe 2.0 ×16 effective rate (~6.2 GB/s of the 8 GB/s raw), sub-µs leg.
pub fn pcie2_x16_spec() -> LinkSpec {
    LinkSpec {
        bandwidth_bps: 6.2e9,
        latency: SimDuration::nanos(350),
    }
}

/// Root-complex / memory path: faster than one ×16 slot, but *shared* by
/// every accelerator in the node.
pub fn root_complex_spec() -> LinkSpec {
    LinkSpec {
        bandwidth_bps: 10.0e9,
        latency: SimDuration::nanos(150),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::types::EndpointOverhead;
    use deep_simkit::Simulation;
    use std::rc::Rc;

    #[test]
    fn route_shapes() {
        let bus = PcieBus::new(2, root_complex_spec(), pcie2_x16_spec());
        let mut p = Vec::new();
        bus.route(PcieBus::host(), PcieBus::device(0), &mut p);
        assert_eq!(p.len(), 2);
        p.clear();
        bus.route(PcieBus::device(0), PcieBus::device(1), &mut p);
        assert_eq!(p.len(), 4, "device-to-device stages through memory");
    }

    #[test]
    fn two_gpus_contend_on_root_complex() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let net = Rc::new(Network::new(
            &ctx,
            PcieBus::new(2, root_complex_spec(), pcie2_x16_spec()),
            4096,
            1,
        ));
        let mut handles = Vec::new();
        for d in 0..2 {
            let net = net.clone();
            handles.push(sim.spawn(format!("h2d{d}"), async move {
                net.transfer(
                    PcieBus::host(),
                    PcieBus::device(d),
                    64 << 20,
                    EndpointOverhead::default(),
                )
                .await
                .unwrap()
                .elapsed
            }));
        }
        sim.run().assert_completed();
        let times: Vec<_> = handles
            .into_iter()
            .map(|h| h.try_result().unwrap())
            .collect();
        // Each 64 MiB at 6.2 GB/s lane ≈ 10.8 ms, but the shared 10 GB/s
        // root-complex link serializes: second finishes ≥ 64MiB/10GBps later.
        let fast = times.iter().min().unwrap().as_secs_f64();
        let slow = times.iter().max().unwrap().as_secs_f64();
        assert!(slow > fast + 0.005, "shared RC must delay one transfer");
    }
}
