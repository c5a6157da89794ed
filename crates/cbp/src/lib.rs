//! # deep-cbp — the Cluster–Booster Protocol
//!
//! Implements the bridge of slide 29: *Global MPI* traffic between the
//! InfiniBand cluster and the EXTOLL booster crosses **Booster Interface
//! (BI)** nodes. A BI owns an IB HCA on the cluster side and attaches to
//! an EXTOLL router's 7th link ("for general devices", slide 16) on the
//! booster side; its SMFU engine translates between the two protocols.
//!
//! [`CbpWire`] exposes the whole machine as a single MPI endpoint space
//! (`deep_psmpi::Wire`), so unchanged MPI code — including
//! `MPI_Comm_spawn` — runs across both sides:
//!
//! * cluster ↔ cluster — plain InfiniBand verbs;
//! * booster ↔ booster — plain EXTOLL (VELO/RMA);
//! * cluster ↔ booster — IB leg to a BI, SMFU translation, EXTOLL leg —
//!   with flow-hashed BI selection, optional striping of bulk transfers
//!   across every BI, and credit-based BI buffering (back-pressure).

#![warn(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;

use deep_fabric::{ExtollFabric, IbFabric, LinkFailure, NodeId, TransferStats};
use deep_psmpi::{EpId, LocalBoxFuture, Wire};
use deep_simkit::{join_all, Semaphore, Sim, SimDuration};

/// How cross-side flows pick their booster interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BiSelect {
    /// Deterministic hash of (src, dst): zero coordination, static
    /// spreading (what EXTOLL's static routing gives you).
    FlowHash,
    /// Pick the BI with the most free buffer credits at send time —
    /// adaptive load balancing at the cost of global knowledge (an
    /// ablation of the protocol design space).
    LeastLoaded,
}

/// Retry/failover policy for bridged chunks.
///
/// A failed chunk (link retries exhausted, a crashed node on a leg, a
/// NIC drop, or an attempt timeout) is retried after exponential backoff
/// — `base_backoff · 2^(attempt−1)` — and each retry prefers a
/// *different, healthy* BI (failover). BIs whose IB host or EXTOLL entry
/// node is marked down are skipped entirely.
#[derive(Debug, Clone)]
pub struct CbpRetry {
    /// Total attempts per chunk (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub base_backoff: SimDuration,
    /// Optional per-attempt deadline (on `simkit::timeout`); an attempt
    /// that overruns it is abandoned and counts as failed.
    pub attempt_timeout: Option<SimDuration>,
}

impl Default for CbpRetry {
    fn default() -> Self {
        CbpRetry {
            max_attempts: 3,
            base_backoff: SimDuration::micros(10),
            attempt_timeout: None,
        }
    }
}

/// Counters for the bridge's fault handling.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CbpFaultStats {
    /// Chunk attempts that failed and were retried.
    pub retries: u64,
    /// Retries that moved to a different BI.
    pub failovers: u64,
    /// Attempts abandoned on the per-attempt deadline.
    pub timeouts: u64,
}

/// Placement and tuning of the bridge.
#[derive(Debug, Clone)]
pub struct CbpConfig {
    /// Cluster endpoints (IB hosts `0..n_cluster`).
    pub n_cluster: u32,
    /// Booster endpoints (EXTOLL nodes `0..n_booster`).
    pub n_booster: u32,
    /// Booster-interface placements: (IB host, EXTOLL entry node).
    /// The IB hosts listed here must not be used as cluster endpoints.
    pub bis: Vec<(u32, u32)>,
    /// Extra latency of the BI's 7th-link attachment per crossing.
    pub seventh_link_latency: SimDuration,
    /// In-flight bytes a BI can buffer before back-pressuring senders.
    pub bi_buffer_bytes: u64,
    /// Transfers at least this large are striped across all BIs.
    pub stripe_threshold: u64,
    /// BI selection policy for unstriped flows.
    pub bi_select: BiSelect,
    /// Retry/failover policy for bridged chunks.
    pub retry: CbpRetry,
}

impl CbpConfig {
    /// A reasonable default: buffer 8 MiB per BI, stripe ≥ 4 MiB.
    pub fn new(n_cluster: u32, n_booster: u32, bis: Vec<(u32, u32)>) -> Self {
        CbpConfig {
            n_cluster,
            n_booster,
            bis,
            seventh_link_latency: SimDuration::nanos(120),
            bi_buffer_bytes: 8 << 20,
            stripe_threshold: 4 << 20,
            bi_select: BiSelect::FlowHash,
            retry: CbpRetry::default(),
        }
    }
}

/// Per-BI traffic counters.
#[derive(Debug, Default, Clone)]
pub struct BiStats {
    /// Messages (or stripe chunks) bridged.
    pub messages: u64,
    /// Payload bytes bridged.
    pub bytes: u64,
}

struct BiState {
    ib_host: NodeId,
    entry: NodeId,
    credits: Semaphore,
    stats: RefCell<BiStats>,
}

/// The bridged wire over a whole DEEP machine.
pub struct CbpWire {
    sim: Sim,
    ib: Rc<IbFabric>,
    extoll: Rc<ExtollFabric>,
    cfg: CbpConfig,
    bis: Vec<Rc<BiState>>,
    bridged: RefCell<BiStats>,
    faults: RefCell<CbpFaultStats>,
}

/// Which side an endpoint lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// A cluster node (IB host).
    Cluster(NodeId),
    /// A booster node (EXTOLL torus node).
    Booster(NodeId),
}

impl CbpWire {
    /// Assemble the bridge. The IB fabric must have at least
    /// `n_cluster + bis.len()` hosts; the EXTOLL fabric at least
    /// `n_booster` nodes.
    pub fn new(sim: &Sim, ib: Rc<IbFabric>, extoll: Rc<ExtollFabric>, cfg: CbpConfig) -> Rc<Self> {
        assert!(!cfg.bis.is_empty(), "at least one booster interface");
        assert!(
            ib.num_nodes() as u32 >= cfg.n_cluster + cfg.bis.len() as u32,
            "IB fabric too small for cluster + BIs"
        );
        assert!(
            extoll.num_nodes() as u32 >= cfg.n_booster,
            "EXTOLL fabric too small for the booster"
        );
        for &(ib_host, entry) in &cfg.bis {
            assert!(
                ib_host >= cfg.n_cluster && ib_host < ib.num_nodes() as u32,
                "BI IB host {ib_host} must sit outside the cluster endpoint range"
            );
            assert!(entry < extoll.num_nodes() as u32, "BI entry node in range");
        }
        let bis = cfg
            .bis
            .iter()
            .map(|&(h, e)| {
                Rc::new(BiState {
                    ib_host: NodeId(h),
                    entry: NodeId(e),
                    credits: Semaphore::new(sim, cfg.bi_buffer_bytes),
                    stats: RefCell::new(BiStats::default()),
                })
            })
            .collect();
        Rc::new(CbpWire {
            sim: sim.clone(),
            ib,
            extoll,
            cfg,
            bis,
            bridged: RefCell::new(BiStats::default()),
            faults: RefCell::new(CbpFaultStats::default()),
        })
    }

    /// Total MPI endpoints (cluster then booster).
    pub fn num_endpoints(&self) -> u32 {
        self.cfg.n_cluster + self.cfg.n_booster
    }

    /// Endpoint id of cluster node `i`.
    pub fn cluster_ep(&self, i: u32) -> EpId {
        assert!(i < self.cfg.n_cluster);
        EpId(i)
    }

    /// Endpoint id of booster node `j`.
    pub fn booster_ep(&self, j: u32) -> EpId {
        assert!(j < self.cfg.n_booster);
        EpId(self.cfg.n_cluster + j)
    }

    /// Which side an endpoint lives on (and its fabric-local node).
    pub fn side_of(&self, ep: EpId) -> Side {
        if ep.0 < self.cfg.n_cluster {
            Side::Cluster(NodeId(ep.0))
        } else {
            let b = ep.0 - self.cfg.n_cluster;
            assert!(b < self.cfg.n_booster, "endpoint {ep:?} out of range");
            Side::Booster(NodeId(b))
        }
    }

    /// The underlying InfiniBand fabric.
    pub fn ib(&self) -> &Rc<IbFabric> {
        &self.ib
    }

    /// The underlying EXTOLL fabric.
    pub fn extoll(&self) -> &Rc<ExtollFabric> {
        &self.extoll
    }

    /// Bytes and messages that crossed the bridge so far.
    pub fn bridged_traffic(&self) -> BiStats {
        self.bridged.borrow().clone()
    }

    /// Per-BI traffic snapshot.
    pub fn bi_traffic(&self) -> Vec<BiStats> {
        self.bis.iter().map(|b| b.stats.borrow().clone()).collect()
    }

    /// Fault-handling counters (retries, failovers, timeouts).
    pub fn fault_stats(&self) -> CbpFaultStats {
        self.faults.borrow().clone()
    }

    /// The (IB host, EXTOLL entry) placement of each BI, for fault
    /// injectors that target BI nodes.
    pub fn bi_nodes(&self) -> Vec<(NodeId, NodeId)> {
        self.bis.iter().map(|b| (b.ib_host, b.entry)).collect()
    }

    /// True if BI `i` is currently usable (neither of its nodes down).
    fn bi_healthy(&self, i: usize) -> bool {
        let bi = &self.bis[i];
        !self.ib.is_node_down(bi.ib_host) && !self.extoll.is_node_down(bi.entry)
    }

    /// First healthy BI at or after `preferred + shift` (wrapping), or
    /// `None` if every BI is down.
    fn healthy_bi(&self, preferred: usize, shift: usize) -> Option<usize> {
        let n = self.bis.len();
        (0..n)
            .map(|k| (preferred + shift + k) % n)
            .find(|&i| self.bi_healthy(i))
    }

    /// Choose the BI for an unstriped flow, per the configured policy.
    fn bi_for_flow(&self, src: EpId, dst: EpId) -> usize {
        match self.cfg.bi_select {
            BiSelect::FlowHash => {
                let h = (src.0 as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((dst.0 as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
                ((h >> 32) % self.bis.len() as u64) as usize
            }
            BiSelect::LeastLoaded => {
                let mut best = 0;
                let mut best_free = 0;
                for (i, bi) in self.bis.iter().enumerate() {
                    let free = bi.credits.available();
                    if free > best_free {
                        best_free = free;
                        best = i;
                    }
                }
                best
            }
        }
    }

    /// Carry one chunk, retrying with exponential backoff and failing
    /// over to another healthy BI per the configured [`CbpRetry`].
    async fn bridge_chunk(
        self: Rc<Self>,
        preferred: usize,
        from: Side,
        to: Side,
        bytes: u64,
    ) -> Result<TransferStats, LinkFailure> {
        let retry = self.cfg.retry.clone();
        let mut last_err = LinkFailure {
            link: LinkFailure::NO_LINK,
        };
        let mut prev_idx = None;
        for attempt in 0..retry.max_attempts.max(1) {
            // Rotate away from the BI that just failed us.
            let idx = match self.healthy_bi(preferred, attempt as usize) {
                Some(i) => i,
                None => {
                    self.sim
                        .emit("cbp", "no-bi", || "every BI is down".to_string());
                    return Err(last_err);
                }
            };
            if attempt > 0 {
                let backoff =
                    SimDuration::nanos(retry.base_backoff.as_nanos() << (attempt - 1).min(20));
                self.sim.sleep(backoff).await;
                self.faults.borrow_mut().retries += 1;
                if prev_idx.is_some_and(|p| p != idx) {
                    self.faults.borrow_mut().failovers += 1;
                }
                self.sim.emit("cbp", "retry", || {
                    format!("attempt {} via BI {idx} after {last_err:?}", attempt + 1)
                });
            }
            prev_idx = Some(idx);
            let bi = self.bis[idx].clone();
            let once = self.clone().bridge_chunk_once(bi, from, to, bytes);
            let res = match retry.attempt_timeout {
                Some(t) => match self.sim.timeout(t, once).await {
                    Some(r) => r,
                    None => {
                        self.faults.borrow_mut().timeouts += 1;
                        self.sim.emit("cbp", "timeout", || {
                            format!("chunk attempt {} via BI {idx} timed out", attempt + 1)
                        });
                        Err(LinkFailure {
                            link: LinkFailure::NO_LINK,
                        })
                    }
                },
                None => once.await,
            };
            match res {
                Ok(st) => return Ok(st),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Carry one chunk through one BI.
    ///
    /// The SMFU streams: the chunk is cut into pipeline segments; while
    /// segment *i* crosses the second fabric, segment *i+1* already
    /// occupies the first one. Credits (BI buffer space) are held per
    /// segment from first-leg start to second-leg completion, so a slow
    /// egress side back-pressures the ingress side.
    async fn bridge_chunk_once(
        self: Rc<Self>,
        bi: Rc<BiState>,
        from: Side,
        to: Side,
        bytes: u64,
    ) -> Result<TransferStats, LinkFailure> {
        const SEGMENT: u64 = 1 << 20;
        let start = self.sim.now();
        let translate = self.extoll.params().smfu_overhead + self.cfg.seventh_link_latency;
        let mut handles = Vec::new();
        let mut remaining = bytes.max(1);
        let mut first_leg_hops = 0;
        while remaining > 0 {
            let this = SEGMENT.min(remaining);
            remaining -= this;
            let credit = bi
                .credits
                .acquire_many(this.min(self.cfg.bi_buffer_bytes))
                .await;
            // First leg, serialized at the source by the fabric itself.
            let l1 = match (from, to) {
                (Side::Cluster(c), _) => self.ib.rdma_write(c, bi.ib_host, this).await?,
                (Side::Booster(b), _) => self.extoll.rma_put(b, bi.entry, this).await?,
            };
            first_leg_hops = first_leg_hops.max(l1.hops);
            // Translation + second leg overlap the next segment's first leg.
            let me = self.clone();
            let bi2 = bi.clone();
            handles.push(self.sim.spawn("cbp-segment", async move {
                me.sim.sleep(translate).await;
                let r = match (from, to) {
                    (_, Side::Booster(b)) => me.extoll.rma_put(bi2.entry, b, this).await,
                    (_, Side::Cluster(c)) => me.ib.rdma_write(bi2.ib_host, c, this).await,
                };
                drop(credit);
                r
            }));
        }
        let mut second_leg_hops = 0;
        for r in deep_simkit::join_all(handles).await {
            let l2 = r?;
            second_leg_hops = second_leg_hops.max(l2.hops);
        }
        {
            let mut s = bi.stats.borrow_mut();
            s.messages += 1;
            s.bytes += bytes;
        }
        Ok(TransferStats {
            elapsed: self.sim.now() - start,
            hops: first_leg_hops + second_leg_hops + 1,
            bytes,
            retransmissions: 0,
        })
    }

    async fn bridge(
        self: Rc<Self>,
        src: EpId,
        dst: EpId,
        bytes: u64,
    ) -> Result<TransferStats, LinkFailure> {
        let from = self.side_of(src);
        let to = self.side_of(dst);
        let start = self.sim.now();
        {
            let mut s = self.bridged.borrow_mut();
            s.messages += 1;
            s.bytes += bytes;
        }
        let n_bis = self.bis.len() as u64;
        if bytes >= self.cfg.stripe_threshold && n_bis > 1 {
            // Stripe the payload across every BI; complete at the slowest.
            let chunk = bytes.div_ceil(n_bis);
            let mut parts = Vec::with_capacity(n_bis as usize);
            let mut remaining = bytes;
            for i in 0..n_bis as usize {
                let this = chunk.min(remaining);
                remaining -= this;
                if this == 0 {
                    break;
                }
                let me = self.clone();
                parts.push(self.sim.spawn(format!("cbp-stripe{i}"), async move {
                    me.bridge_chunk(i, from, to, this).await
                }));
            }
            let results = join_all(parts).await;
            let mut hops = 0;
            for r in results {
                let st = r?;
                hops = hops.max(st.hops);
            }
            Ok(TransferStats {
                elapsed: self.sim.now() - start,
                hops,
                bytes,
                retransmissions: 0,
            })
        } else {
            let idx = self.bi_for_flow(src, dst);
            let mut st = self.clone().bridge_chunk(idx, from, to, bytes).await?;
            st.elapsed = self.sim.now() - start;
            Ok(st)
        }
    }
}

/// `Wire` over an `Rc<CbpWire>` so the universe can share the bridge.
pub struct CbpWireHandle(pub Rc<CbpWire>);

impl Wire for CbpWireHandle {
    fn transfer(
        &self,
        src: EpId,
        dst: EpId,
        bytes: u64,
    ) -> LocalBoxFuture<'_, Result<TransferStats, LinkFailure>> {
        let me = self.0.clone();
        Box::pin(async move {
            let from = me.side_of(src);
            let to = me.side_of(dst);
            match (from, to) {
                (Side::Cluster(a), Side::Cluster(b)) => me.ib.send(a, b, bytes).await,
                (Side::Booster(a), Side::Booster(b)) => me.extoll.send_auto(a, b, bytes).await,
                _ => me.bridge(src, dst, bytes).await,
            }
        })
    }

    fn name(&self) -> &str {
        "cbp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_simkit::Simulation;

    fn machine(sim: &Sim, n_cluster: u32, n_bi: u32, dims: (u32, u32, u32)) -> Rc<CbpWire> {
        let ib = Rc::new(IbFabric::new(sim, n_cluster + n_bi));
        let extoll = Rc::new(ExtollFabric::new(sim, dims));
        let n_booster = dims.0 * dims.1 * dims.2;
        // BI i: IB host n_cluster+i, EXTOLL entry spread along x.
        let bis = (0..n_bi)
            .map(|i| (n_cluster + i, (i * dims.0.max(1)) % n_booster))
            .collect();
        CbpWire::new(sim, ib, extoll, CbpConfig::new(n_cluster, n_booster, bis))
    }

    #[test]
    fn endpoint_mapping_roundtrips() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let w = machine(&ctx, 4, 2, (2, 2, 2));
        assert_eq!(w.num_endpoints(), 12);
        assert_eq!(w.side_of(w.cluster_ep(3)), Side::Cluster(NodeId(3)));
        assert_eq!(w.side_of(w.booster_ep(7)), Side::Booster(NodeId(7)));
        sim.run().assert_completed();
    }

    #[test]
    fn cross_side_transfer_pays_both_legs() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let w = machine(&ctx, 4, 1, (2, 2, 2));
        let handle = CbpWireHandle(w.clone());
        let src = w.cluster_ep(0);
        let dst = w.booster_ep(5);
        let h = sim.spawn("bridge", async move {
            handle.transfer(src, dst, 1 << 20).await.unwrap().elapsed
        });
        sim.run().assert_completed();
        let bridged = h.try_result().unwrap();
        // Lower bound: two serializations of 1 MiB at ~7 GB/s ≈ 300 us.
        assert!(
            bridged.as_secs_f64() > 0.00028,
            "bridged time {bridged} must cover both legs"
        );
        assert_eq!(w.bridged_traffic().messages, 1);
        assert_eq!(w.bridged_traffic().bytes, 1 << 20);
    }

    #[test]
    fn intra_side_traffic_does_not_touch_the_bridge() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let w = machine(&ctx, 4, 1, (2, 2, 2));
        let handle = CbpWireHandle(w.clone());
        let (c0, c1) = (w.cluster_ep(0), w.cluster_ep(1));
        let (b0, b1) = (w.booster_ep(0), w.booster_ep(1));
        sim.spawn("intra", async move {
            handle.transfer(c0, c1, 4096).await.unwrap();
            handle.transfer(b0, b1, 4096).await.unwrap();
        });
        sim.run().assert_completed();
        assert_eq!(w.bridged_traffic().messages, 0);
    }

    #[test]
    fn striping_across_bis_beats_a_single_bi_for_bulk() {
        fn bulk_time(n_bi: u32) -> f64 {
            let mut sim = Simulation::new(1);
            let ctx = sim.handle();
            let w = machine(&ctx, 4, n_bi, (4, 4, 4));
            let handle = CbpWireHandle(w.clone());
            let src = w.cluster_ep(0);
            let dst = w.booster_ep(9);
            let h = sim.spawn("bulk", async move {
                handle
                    .transfer(src, dst, 64 << 20)
                    .await
                    .unwrap()
                    .elapsed
                    .as_secs_f64()
            });
            sim.run().assert_completed();
            h.try_result().unwrap()
        }
        let one = bulk_time(1);
        let four = bulk_time(4);
        // The streaming SMFU already pipelines a single flow down to its
        // source-NIC floor, so striping cannot hurt a single flow...
        assert!(
            four <= one * 1.05,
            "striping must not slow a single flow: {one} vs {four}"
        );
        // ...and nothing beats the source NIC's injection bandwidth.
        let ib_leg_floor = (64u64 << 20) as f64 / 6.8e9;
        assert!(four > ib_leg_floor && one > ib_leg_floor);
        // The single-BI flow sits within 25% of that floor thanks to
        // segment pipelining (store-and-forward would be ~2x the floor).
        assert!(
            one < ib_leg_floor * 1.25,
            "pipelined bridge near the injection floor: {one} vs {ib_leg_floor}"
        );
    }

    #[test]
    fn many_flows_spread_over_bis() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let w = machine(&ctx, 8, 4, (4, 4, 4));
        for c in 0..8u32 {
            for b in 0..8u32 {
                let handle = CbpWireHandle(w.clone());
                let src = w.cluster_ep(c);
                let dst = w.booster_ep(b * 7); // scatter destinations
                sim.spawn(format!("f{c}-{b}"), async move {
                    handle.transfer(src, dst, 64 << 10).await.unwrap();
                });
            }
        }
        sim.run().assert_completed();
        let per_bi = w.bi_traffic();
        let used = per_bi.iter().filter(|s| s.messages > 0).count();
        assert!(used >= 3, "flow hashing should use most BIs, used {used}");
    }

    #[test]
    fn bi_credits_backpressure_limits_in_flight_bytes() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ib = Rc::new(IbFabric::new(&ctx, 5));
        let extoll = Rc::new(ExtollFabric::new(&ctx, (2, 2, 2)));
        let mut cfg = CbpConfig::new(4, 8, vec![(4, 0)]);
        cfg.bi_buffer_bytes = 1 << 20; // tiny BI buffer
        cfg.stripe_threshold = u64::MAX;
        let w = CbpWire::new(&ctx, ib, extoll, cfg);
        // Two 1 MiB messages from different senders: the second must wait
        // for the first one's credits before it can enter the BI.
        let mut times = Vec::new();
        for i in 0..2 {
            let handle = CbpWireHandle(w.clone());
            let src = w.cluster_ep(i);
            let dst = w.booster_ep(5);
            times.push(sim.spawn(format!("m{i}"), async move {
                handle
                    .transfer(src, dst, 1 << 20)
                    .await
                    .unwrap()
                    .elapsed
                    .as_secs_f64()
            }));
        }
        sim.run().assert_completed();
        let a = times[0].try_result().unwrap();
        let b = times[1].try_result().unwrap();
        // The slower one waited for the faster one's credits: it takes
        // roughly double the end-to-end time rather than sharing links.
        assert!(
            (b.max(a)) > (a.min(b)) * 1.6,
            "credit wait visible: {a} {b}"
        );
    }

    #[test]
    fn global_mpi_spawn_runs_across_the_bridge() {
        use deep_psmpi::{launch_world, MpiParams, ReduceOp, Universe, Value};
        let mut sim = Simulation::new(3);
        let ctx = sim.handle();
        let w = machine(&ctx, 4, 2, (2, 2, 2));
        let handle = Rc::new(CbpWireHandle(w.clone()));
        let uni = Universe::new(
            &ctx,
            handle,
            w.num_endpoints() as usize,
            MpiParams::default(),
        );
        uni.add_pool("booster", (0..8).map(|j| w.booster_ep(j)).collect());
        uni.register_app(
            "hscp",
            Rc::new(|m: deep_psmpi::MpiCtx| {
                Box::pin(async move {
                    let world = m.world().clone();
                    let s = m.allreduce(&world, ReduceOp::Sum, Value::U64(1), 8).await;
                    if m.rank() == 0 {
                        let parent = m.parent().unwrap().clone();
                        m.send_val(&parent, 0, 1, s).await;
                    }
                })
            }),
        );
        let w2 = w.clone();
        launch_world(
            &uni,
            "cluster",
            (0..4).map(|i| w2.cluster_ep(i)).collect(),
            |m| async move {
                let world = m.world().clone();
                let inter = m
                    .comm_spawn(&world, "hscp", 8, "booster", 0)
                    .await
                    .expect("spawn across the bridge");
                if m.rank() == 0 {
                    let msg = m.recv(&inter, Some(0), Some(1)).await;
                    assert_eq!(msg.value.as_u64(), 8);
                }
                m.barrier(&world).await;
            },
        );
        sim.run().assert_completed();
        // Spawn control + result traffic crossed the bridge.
        assert!(w.bridged_traffic().messages > 0);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use deep_simkit::Simulation;

    fn faulty_machine(sim: &Sim) -> Rc<CbpWire> {
        let ib = Rc::new(IbFabric::new(sim, 6));
        let extoll = Rc::new(ExtollFabric::new(sim, (2, 2, 2)));
        let mut cfg = CbpConfig::new(4, 8, vec![(4, 0), (5, 4)]);
        cfg.stripe_threshold = u64::MAX; // single-BI flows
        cfg.bi_select = BiSelect::LeastLoaded; // deterministically BI 0
        CbpWire::new(sim, ib, extoll, cfg)
    }

    #[test]
    fn down_bi_fails_over_to_the_healthy_one() {
        let mut sim = Simulation::new(11);
        let ctx = sim.handle();
        let w = faulty_machine(&ctx);
        // Kill BI 0's IB host: the selector must route around it with no
        // failed attempt at all (health is checked before sending).
        w.ib().set_node_down(NodeId(4), true);
        let handle = CbpWireHandle(w.clone());
        let (src, dst) = (w.cluster_ep(0), w.booster_ep(6));
        let h = sim.spawn(
            "xfer",
            async move { handle.transfer(src, dst, 1 << 20).await },
        );
        sim.run().assert_completed();
        assert!(h.try_result().unwrap().is_ok());
        let per_bi = w.bi_traffic();
        assert_eq!(per_bi[0].messages, 0, "down BI untouched");
        assert_eq!(per_bi[1].messages, 1);
        assert_eq!(w.fault_stats().retries, 0);
    }

    #[test]
    fn nic_drop_retries_and_fails_over() {
        let mut sim = Simulation::new(12);
        let ctx = sim.handle();
        let w = faulty_machine(&ctx);
        // BI 0's IB host drops every message; the node is *not* marked
        // down, so the first attempt goes there and fails.
        w.ib().network().set_node_drop_prob(NodeId(4), 1.0);
        let handle = CbpWireHandle(w.clone());
        let (src, dst) = (w.cluster_ep(0), w.booster_ep(6));
        let h = sim.spawn(
            "xfer",
            async move { handle.transfer(src, dst, 1 << 20).await },
        );
        sim.run().assert_completed();
        assert!(h.try_result().unwrap().is_ok());
        let st = w.fault_stats();
        assert!(st.retries >= 1, "dropped attempt retried: {st:?}");
        assert!(st.failovers >= 1, "retry moved to the other BI: {st:?}");
        assert_eq!(w.bi_traffic()[1].messages, 1);
    }

    #[test]
    fn all_bis_down_reports_failure_not_hang() {
        let mut sim = Simulation::new(13);
        let ctx = sim.handle();
        let w = faulty_machine(&ctx);
        w.ib().set_node_down(NodeId(4), true);
        w.extoll().network().set_node_down(NodeId(4), true); // BI 1's entry node
        let handle = CbpWireHandle(w.clone());
        let (src, dst) = (w.cluster_ep(1), w.booster_ep(3));
        let h = sim.spawn("xfer", async move { handle.transfer(src, dst, 4096).await });
        sim.run().assert_completed();
        assert!(h.try_result().unwrap().is_err());
    }

    #[test]
    fn attempt_timeout_abandons_a_stalled_leg() {
        let mut sim = Simulation::new(14);
        let ctx = sim.handle();
        let ib = Rc::new(IbFabric::new(&ctx, 6));
        let extoll = Rc::new(ExtollFabric::new(&ctx, (2, 2, 2)));
        let mut cfg = CbpConfig::new(4, 8, vec![(4, 0), (5, 4)]);
        cfg.stripe_threshold = u64::MAX;
        cfg.bi_select = BiSelect::LeastLoaded;
        // 1 MiB at ~GB/s is far above 10 us: every attempt times out.
        cfg.retry = CbpRetry {
            max_attempts: 2,
            base_backoff: SimDuration::micros(1),
            attempt_timeout: Some(SimDuration::micros(10)),
        };
        let w = CbpWire::new(&ctx, ib, extoll, cfg);
        let handle = CbpWireHandle(w.clone());
        let (src, dst) = (w.cluster_ep(0), w.booster_ep(6));
        let h = sim.spawn(
            "xfer",
            async move { handle.transfer(src, dst, 1 << 20).await },
        );
        sim.run().assert_completed();
        assert!(h.try_result().unwrap().is_err());
        let st = w.fault_stats();
        assert_eq!(st.timeouts, 2, "both attempts timed out: {st:?}");
    }
}

#[cfg(test)]
mod bi_select_tests {
    use super::*;
    use deep_simkit::Simulation;

    fn machine_with(sim: &Sim, select: BiSelect) -> Rc<CbpWire> {
        let ib = Rc::new(IbFabric::new(sim, 12));
        let extoll = Rc::new(ExtollFabric::new(sim, (4, 4, 4)));
        let mut cfg = CbpConfig::new(8, 64, vec![(8, 0), (9, 16), (10, 32), (11, 48)]);
        cfg.bi_select = select;
        cfg.stripe_threshold = u64::MAX; // force per-flow selection
        CbpWire::new(sim, ib, extoll, cfg)
    }

    /// Skewed flow sizes: hashing ignores load, so byte totals per BI end
    /// up unbalanced; least-loaded balances them and finishes no later.
    fn run_flows(select: BiSelect) -> (f64, f64) {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let w = machine_with(&ctx, select);
        for c in 0..8u32 {
            let handle = CbpWireHandle(w.clone());
            let src = w.cluster_ep(c);
            let dst = w.booster_ep((c * 9 + 3) % 64);
            let bytes = (c as u64 + 1) * (8 << 20); // 8..64 MiB, heavy skew
            sim.spawn(format!("f{c}"), async move {
                handle.transfer(src, dst, bytes).await.unwrap();
            });
        }
        sim.run().assert_completed();
        let per_bi = w.bi_traffic();
        let bytes: Vec<f64> = per_bi.iter().map(|s| s.bytes as f64).collect();
        let mean = bytes.iter().sum::<f64>() / bytes.len() as f64;
        let max = bytes.iter().cloned().fold(0.0, f64::max);
        (max / mean, sim.now().as_secs_f64())
    }

    #[test]
    fn least_loaded_balances_skewed_flows() {
        let (hash_imbalance, hash_time) = run_flows(BiSelect::FlowHash);
        let (ll_imbalance, ll_time) = run_flows(BiSelect::LeastLoaded);
        assert!(
            ll_imbalance < hash_imbalance,
            "least-loaded must balance bytes: {ll_imbalance:.2} vs {hash_imbalance:.2}"
        );
        assert!(
            ll_time <= hash_time * 1.02,
            "and finish no later: {ll_time} vs {hash_time}"
        );
    }
}
