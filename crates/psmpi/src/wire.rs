//! The [`Wire`] abstraction: how MPI endpoints reach each other.
//!
//! ParaStation MPI runs unchanged over different interconnects (slide 28:
//! "works out of the box on the Cluster part, currently ported to the
//! Booster part"). The simulator mirrors that: the MPI layer only sees a
//! `Wire` that can carry bytes between *endpoint* indices; concrete wires
//! map endpoints onto fabric nodes. The cluster-booster bridge in
//! `deep-cbp` is just another `Wire` whose routes traverse two fabrics.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use deep_fabric::{ExtollFabric, IbFabric, LinkFailure, NodeId, TransferStats};

/// Endpoint index within one MPI universe (a "global rank id" / psid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EpId(pub u32);

/// Boxed local future, used to keep the trait object-safe.
pub type LocalBoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// Something that can carry payloads between endpoints.
pub trait Wire {
    /// Move `bytes` from endpoint `src` to endpoint `dst`; resolves when
    /// the last byte (plus NIC overheads) has arrived.
    fn transfer(
        &self,
        src: EpId,
        dst: EpId,
        bytes: u64,
    ) -> LocalBoxFuture<'_, Result<TransferStats, LinkFailure>>;

    /// Short name for traces and reports.
    fn name(&self) -> &str;
}

/// A wire over an InfiniBand fabric; endpoint i ↦ host i.
pub struct IbWire {
    fabric: Rc<IbFabric>,
}

impl IbWire {
    /// Wrap a fabric.
    pub fn new(fabric: Rc<IbFabric>) -> Self {
        IbWire { fabric }
    }
}

impl Wire for IbWire {
    fn transfer(
        &self,
        src: EpId,
        dst: EpId,
        bytes: u64,
    ) -> LocalBoxFuture<'_, Result<TransferStats, LinkFailure>> {
        Box::pin(async move { self.fabric.send(NodeId(src.0), NodeId(dst.0), bytes).await })
    }

    fn name(&self) -> &str {
        "ib"
    }
}

/// A wire over an EXTOLL fabric; endpoint i ↦ torus node i. Uses VELO for
/// small messages and RMA for bulk, like the ported ParaStation MPI.
pub struct ExtollWire {
    fabric: Rc<ExtollFabric>,
}

impl ExtollWire {
    /// Wrap a fabric.
    pub fn new(fabric: Rc<ExtollFabric>) -> Self {
        ExtollWire { fabric }
    }
}

impl Wire for ExtollWire {
    fn transfer(
        &self,
        src: EpId,
        dst: EpId,
        bytes: u64,
    ) -> LocalBoxFuture<'_, Result<TransferStats, LinkFailure>> {
        Box::pin(async move {
            self.fabric
                .send_auto(NodeId(src.0), NodeId(dst.0), bytes)
                .await
        })
    }

    fn name(&self) -> &str {
        "extoll"
    }
}

/// An idealised wire with fixed latency and bandwidth and no contention
/// *between pairs*: the reference point used by unit tests and analytic
/// validation. Deliveries between the same ordered endpoint pair are
/// serialised (a later message never overtakes an earlier one), because
/// MPI's non-overtaking guarantee depends on the transport preserving
/// per-pair FIFO order.
pub struct IdealWire {
    sim: deep_simkit::Sim,
    latency: deep_simkit::SimDuration,
    bandwidth_bps: f64,
    last_delivery: std::cell::RefCell<std::collections::BTreeMap<(u32, u32), deep_simkit::SimTime>>,
}

impl IdealWire {
    /// Build an ideal wire.
    pub fn new(
        sim: &deep_simkit::Sim,
        latency: deep_simkit::SimDuration,
        bandwidth_bps: f64,
    ) -> Self {
        IdealWire {
            sim: sim.clone(),
            latency,
            bandwidth_bps,
            last_delivery: std::cell::RefCell::new(std::collections::BTreeMap::new()),
        }
    }
}

impl Wire for IdealWire {
    fn transfer(
        &self,
        src: EpId,
        dst: EpId,
        bytes: u64,
    ) -> LocalBoxFuture<'_, Result<TransferStats, LinkFailure>> {
        Box::pin(async move {
            let start = self.sim.now();
            let ser = deep_simkit::SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps);
            let mut completion = start + self.latency + ser;
            {
                let mut last = self.last_delivery.borrow_mut();
                let slot = last
                    .entry((src.0, dst.0))
                    .or_insert(deep_simkit::SimTime::ZERO);
                if completion < *slot {
                    completion = *slot; // FIFO per ordered pair
                }
                *slot = completion;
            }
            self.sim.sleep_until(completion).await;
            Ok(TransferStats {
                elapsed: self.sim.now() - start,
                hops: 1,
                bytes,
                retransmissions: 0,
            })
        })
    }

    fn name(&self) -> &str {
        "ideal"
    }
}
