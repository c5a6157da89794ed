//! The contention engine: a [`Network`] binds a [`Topology`] to simulated
//! time and carries transfers across it.
//!
//! ## Transfer model
//!
//! Cut-through (wormhole-like) analytic model. A message of `S` bytes
//! follows its route link by link; on each link it occupies the wire for
//! the serialization time `S / bandwidth`, the occupancy window on link
//! *i+1* starting one hop-latency after the window on link *i*. Each link
//! keeps a `busy_until` horizon, so a message arriving at a busy link
//! queues behind the previous occupant (FIFO per link). Uncontended, a
//! k-hop transfer takes `k·hop_latency + S/B`; contended, it is delayed by
//! exactly the backlog of the bottleneck link — the behaviour collective
//! and offload experiments depend on.
//!
//! Messages larger than the fabric MTU are segmented: segments pipeline
//! through the route, so segmentation only matters for the *contention
//! granularity* (a huge message cannot hog a link forever if `mtu` is
//! finite — interleaving happens at segment boundaries).
//!
//! ## State layout
//!
//! Per-link and per-node dynamic state is stored **SoA** (one parallel
//! array per field, indexed by `LinkId`/`NodeId`). A link's only dynamic
//! state is its `busy_until` horizon, the one value booking prices with.
//! Static link description is **interned**: a fat tree has two distinct
//! [`LinkSpec`]s (host, trunk), a torus or crossbar one, so the fabric
//! keeps the distinct specs as *classes* plus one byte of class index per
//! link. At 262 144 hosts (1 048 592 directed links) a link costs 9 B:
//! 8 B of horizon and 1 B of class.
//!
//! Booking one hop (`occupy_route`, the kernel under both
//! [`Network::transfer`] and [`Network::schedule_batch`]) is then: class
//! index load → per-class serialization memo (one compare on a hit; a
//! miss evaluates `LinkSpec::serialization` and stores it, so the f64
//! divide and rounding run once per (class, size) run instead of once
//! per hop) → read-modify-write of the link's `busy_until`. The memo
//! caches a pure function, so timings are bit-identical to recomputing
//! it.
//!
//! Tried and rejected (PR 17, measured on `des_spmv_262k` /
//! `des_a2a_4k`): a 32-byte AoS link record — one cache line per hop —
//! was slower on the 262k ring in 4 of 4 pairs (its four streams are
//! sequential and prefetch well as SoA) though faster on the 4k
//! all-to-all; a per-host `leaf_of` table in `FatTree::route` moved
//! nothing resolvable.
//!
//! Node-fault state keeps an active-fault count so the fault-free fast
//! path is one integer test, not two array reads per transfer.

use std::cell::{Cell, RefCell};

use deep_simkit::{Sim, SimDuration, SimRng, SimTime};

use crate::topology::Topology;
use crate::types::{EndpointOverhead, LinkId, LinkSpec, NodeId, TransferStats};

/// Static link description, interned: the distinct [`LinkSpec`]s of a
/// topology and, per link, which of them it is.
struct LinkClasses {
    specs: Vec<LinkSpec>,
    of: Vec<u8>,
}

impl LinkClasses {
    /// Two specs share a class only if they are bit-identical, so a
    /// class stands for exactly the function its links' specs computed.
    /// Works run by run: topologies lay equal links out contiguously.
    fn intern(per_link: &[LinkSpec]) -> Self {
        let mut specs: Vec<LinkSpec> = Vec::new();
        let mut of = Vec::with_capacity(per_link.len());
        let mut rest = per_link;
        while let Some(&first) = rest.first() {
            let same = |k: &LinkSpec| {
                k.bandwidth_bps.to_bits() == first.bandwidth_bps.to_bits()
                    && k.latency == first.latency
            };
            let run = rest.iter().take_while(|k| same(k)).count();
            let class = specs.iter().position(same).unwrap_or_else(|| {
                specs.push(first);
                specs.len() - 1
            });
            assert!(class <= usize::from(u8::MAX), "more than 256 link classes");
            of.resize(of.len() + run, class as u8);
            rest = &rest[run..];
        }
        LinkClasses { specs, of }
    }

    #[inline]
    fn latency(&self, link: LinkId) -> SimDuration {
        self.specs[usize::from(self.of[link.0 as usize])].latency
    }
}

/// Per-link dynamic state: `busy_until[l]` is link `l`'s contention
/// horizon, the instant its last booked occupancy ends.
struct LinkStates {
    busy_until: Vec<SimTime>,
    /// Per class, the last `(bytes, serialization(bytes))` a booking
    /// asked for. Starts at zero bytes, which take zero time on any link.
    ser_memo: Vec<(u64, SimDuration)>,
}

impl LinkStates {
    fn new(links: usize, classes: usize) -> Self {
        LinkStates {
            busy_until: vec![SimTime::ZERO; links],
            ser_memo: vec![(0, SimDuration::ZERO); classes],
        }
    }
}

/// Fault-injection model: per-traversal corruption probability; a corrupt
/// segment is retransmitted over the same link (link-level retry, as in
/// EXTOLL's CRC/retransmission RAS feature).
#[derive(Debug, Clone, Copy)]
pub struct FaultModel {
    /// Probability that one segment traversal is corrupted.
    pub segment_error_rate: f64,
    /// Upper bound on retries per segment before the fabric gives up
    /// (a real EXTOLL link raises an unrecoverable error interrupt).
    pub max_retries: u32,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            segment_error_rate: 0.0,
            max_retries: 16,
        }
    }
}

/// Error returned when a transfer exceeds the fault model's retry budget,
/// is addressed to (or from) a crashed node, or is dropped by a faulty
/// NIC. The `link` is the first link of the failed route, or
/// [`LinkFailure::NO_LINK`] when no route was involved (loopback or an
/// endpoint-down rejection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFailure {
    /// The link that exhausted its retries.
    pub link: LinkId,
}

impl LinkFailure {
    /// Sentinel link id for failures with no associated route.
    pub const NO_LINK: LinkId = LinkId(u32::MAX);
}

/// Per-node injected fault state, SoA, with an active-fault count so
/// the (overwhelmingly common) fault-free case skips the arrays.
struct NodeFaults {
    /// The node is down: every transfer touching it fails.
    down: Vec<bool>,
    /// Probability that this node's NIC drops a whole message.
    drop_prob: Vec<f64>,
    /// Number of nodes with any fault active (`down` or `drop_prob > 0`).
    active: usize,
}

impl NodeFaults {
    fn new(n: usize) -> Self {
        NodeFaults {
            down: vec![false; n],
            drop_prob: vec![0.0; n],
            active: 0,
        }
    }

    #[inline]
    fn is_faulty(&self, i: usize) -> bool {
        self.down[i] || self.drop_prob[i] > 0.0
    }
}

/// One message of a same-epoch batch (see [`Network::schedule_batch`]).
#[derive(Debug, Clone, Copy)]
pub struct BatchMsg {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Absolute time the first byte may enter the fabric — the sender's
    /// readiness plus any software overhead. May lie in the future
    /// relative to the current instant (never in the past).
    pub earliest: SimTime,
}

/// Bandwidth of a node-local (src == dst) copy: a memcpy-grade
/// intra-node path.
const LOOPBACK_BPS: f64 = 8e9;

/// A live fabric: topology + per-link dynamic state.
pub struct Network {
    sim: Sim,
    topo: Box<dyn Topology>,
    links: RefCell<LinkStates>,
    rng: RefCell<SimRng>,
    fault: Cell<FaultModel>,
    node_faults: RefCell<NodeFaults>,
    /// Reused route buffer (one allocation per fabric, not one per
    /// message); never borrowed across an `await`.
    route_scratch: RefCell<Vec<LinkId>>,
    /// Maximum transmission unit for segmentation (bytes).
    mtu: u64,
    classes: LinkClasses,
}

impl Network {
    /// Wrap a topology. `rng_stream` keys this fabric's fault randomness.
    pub fn new(sim: &Sim, topo: Box<dyn Topology>, mtu: u64, rng_stream: u64) -> Self {
        // The per-link spec table is dropped before the link state is
        // allocated, so the two never coexist at fabric scale.
        let classes = LinkClasses::intern(&topo.link_specs());
        let n_nodes = topo.num_nodes();
        Network {
            sim: sim.clone(),
            links: RefCell::new(LinkStates::new(classes.of.len(), classes.specs.len())),
            topo,
            rng: RefCell::new(sim.fork_rng(rng_stream)),
            fault: Cell::new(FaultModel::default()),
            node_faults: RefCell::new(NodeFaults::new(n_nodes)),
            route_scratch: RefCell::new(Vec::with_capacity(8)),
            mtu: mtu.max(64),
            classes,
        }
    }

    /// Install a fault model (default: error-free). Interior-mutable so a
    /// fault injector can degrade and heal a link mid-run through a
    /// shared handle.
    pub fn set_fault_model(&self, fault: FaultModel) {
        self.fault.set(fault);
    }

    /// The currently installed fault model.
    pub fn fault_model(&self) -> FaultModel {
        self.fault.get()
    }

    /// Mark a node as crashed (`down = true`) or repaired. While down,
    /// every transfer to or from the node fails with a [`LinkFailure`].
    pub fn set_node_down(&self, node: NodeId, down: bool) {
        {
            let mut nf = self.node_faults.borrow_mut();
            let i = node.0 as usize;
            let was = nf.is_faulty(i);
            nf.down[i] = down;
            let is = nf.is_faulty(i);
            nf.active = nf.active + usize::from(is && !was) - usize::from(was && !is);
        }
        self.sim
            .emit("net", if down { "node-down" } else { "node-up" }, || {
                format!("node {}", node.0)
            });
    }

    /// True if the node is currently marked crashed.
    pub fn is_node_down(&self, node: NodeId) -> bool {
        self.node_faults.borrow().down[node.0 as usize]
    }

    /// Set the probability that this node's NIC drops a whole message
    /// (sampled once per transfer touching the node; 0.0 to heal).
    pub fn set_node_drop_prob(&self, node: NodeId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        let mut nf = self.node_faults.borrow_mut();
        let i = node.0 as usize;
        let was = nf.is_faulty(i);
        nf.drop_prob[i] = p;
        let is = nf.is_faulty(i);
        nf.active = nf.active + usize::from(is && !was) - usize::from(was && !is);
    }

    /// The simulation handle this network runs on.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Number of endpoints in the underlying topology.
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// Route length in hops between two endpoints.
    pub fn hop_count(&self, src: NodeId, dst: NodeId) -> u32 {
        let mut path = self.route_scratch.borrow_mut();
        path.clear();
        self.topo.route(src, dst, &mut path);
        path.len() as u32
    }

    /// Carry `bytes` from `src` to `dst`, suspending until the last byte
    /// (plus endpoint overheads) has arrived. Returns transfer statistics
    /// or a [`LinkFailure`] if injected errors exhausted the retry budget.
    pub async fn transfer(
        &self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        overhead: EndpointOverhead,
    ) -> Result<TransferStats, LinkFailure> {
        assert!((src.0 as usize) < self.num_nodes(), "src out of range");
        assert!((dst.0 as usize) < self.num_nodes(), "dst out of range");
        let start = self.sim.now();

        // Sender-side software/NIC overhead happens first, in real time.
        if overhead.send > SimDuration::ZERO {
            self.sim.sleep(overhead.send).await;
        }

        // Injected node crashes: a transfer touching a down node fails
        // after the sender has already burned its send overhead (the
        // local software stack cannot know the peer died). With no fault
        // anywhere in the fabric (the common case) this is one counter
        // test, not two reads into megabyte-scale per-node arrays.
        let (down, drop_prob) = {
            let nf = self.node_faults.borrow();
            if nf.active == 0 {
                (false, 0.0)
            } else {
                let (s, d) = (src.0 as usize, dst.0 as usize);
                (
                    nf.down[s] || nf.down[d],
                    1.0 - (1.0 - nf.drop_prob[s]) * (1.0 - nf.drop_prob[d]),
                )
            }
        };

        if src == dst {
            if down {
                self.sim
                    .emit("net", "drop", || format!("loopback on down node {}", src.0));
                return Err(LinkFailure {
                    link: LinkFailure::NO_LINK,
                });
            }
            // Loopback: a memory copy, no fabric involvement.
            let copy = SimDuration::from_secs_f64(bytes as f64 / LOOPBACK_BPS);
            self.sim.sleep(copy).await;
            if overhead.recv > SimDuration::ZERO {
                self.sim.sleep(overhead.recv).await;
            }
            return Ok(TransferStats {
                elapsed: self.sim.now() - start,
                hops: 0,
                bytes,
                retransmissions: 0,
            });
        }

        // Route, sample faults and book the links in one synchronous step
        // under the shared route buffer; only the first link, the hop
        // count and the outcome are carried across the awaits below.
        let (first, hops, outcome) = {
            let mut path = self.route_scratch.borrow_mut();
            path.clear();
            self.topo.route(src, dst, &mut path);
            debug_assert!(!path.is_empty(), "route for distinct nodes is non-empty");
            let first = path[0];
            let outcome = if down {
                // The message dies at the first hop: charge one hop latency
                // (the time the NIC spends discovering nothing answers).
                Err((self.classes.latency(first), "node down"))
            } else if drop_prob > 0.0 && self.rng.borrow_mut().gen_bool(drop_prob) {
                // NIC drop: the message traverses the route (charging hop
                // latencies, not occupancy) and silently vanishes.
                let lat: SimDuration = path.iter().map(|&l| self.classes.latency(l)).sum();
                Err((lat, "nic drop"))
            } else {
                // Segment the payload by MTU; segments pipeline, so we model
                // the whole train as one occupancy of length S/B per link but
                // charge retransmissions per segment.
                let fault = self.fault.get();
                let segments = bytes.div_ceil(self.mtu).max(1);
                let mut retrans_total: u32 = 0;
                let mut effective_bytes = bytes.max(1);
                if fault.segment_error_rate > 0.0 {
                    let Some(sampled) = self.sample_retransmissions(fault, segments, path.len())
                    else {
                        self.sim.emit("net", "link-fail", || {
                            format!("retries exhausted on link {}", first.0)
                        });
                        return Err(LinkFailure { link: first });
                    };
                    retrans_total = sampled as u32;
                    effective_bytes += (sampled as u64).saturating_mul(self.mtu.min(bytes));
                }
                // Analytic cut-through schedule over the route.
                let mut links = self.links.borrow_mut();
                let now = self.sim.now();
                let completion =
                    Self::occupy_route(&mut links, &self.classes, &path, effective_bytes, now);
                Ok((completion, retrans_total))
            };
            (first, path.len() as u32, outcome)
        };
        let (completion, retransmissions) = match outcome {
            Ok(booked) => booked,
            Err((lost_after, why)) => {
                self.sim.sleep(lost_after).await;
                self.sim.emit("net", "drop", || {
                    format!("{why} on route {} -> {}", src.0, dst.0)
                });
                return Err(LinkFailure { link: first });
            }
        };

        self.sim.sleep_until(completion).await;
        if overhead.recv > SimDuration::ZERO {
            self.sim.sleep(overhead.recv).await;
        }

        Ok(TransferStats {
            elapsed: self.sim.now() - start,
            hops,
            bytes,
            retransmissions,
        })
    }

    /// Sample how many segment retransmissions a message of `segments`
    /// segments suffers over `hops` links: geometric retries per traversal
    /// (segment × link), or — for large counts, to keep the draw count
    /// bounded — the binomial mean with a Gaussian-like spread. `None`
    /// when one traversal exhausts the retry budget.
    fn sample_retransmissions(&self, fault: FaultModel, segments: u64, hops: usize) -> Option<f64> {
        let mut rng = self.rng.borrow_mut();
        let traversals = segments as f64 * hops as f64;
        let p = fault.segment_error_rate;
        if traversals <= 1024.0 {
            let mut n = 0u64;
            for _ in 0..(segments * hops as u64) {
                let mut tries = 0u32;
                while rng.gen_bool(p) {
                    tries += 1;
                    if tries > fault.max_retries {
                        return None;
                    }
                }
                n += tries as u64;
            }
            Some(n as f64)
        } else {
            let expected_failures = traversals * p / (1.0 - p);
            let std = expected_failures.sqrt();
            Some((expected_failures + std * (rng.gen_f64() * 2.0 - 1.0)).max(0.0))
        }
    }

    /// Advance the cut-through occupancy of every link on `route` for one
    /// message of `bytes`, first byte entering no earlier than `head`.
    /// Returns the last-byte arrival at the destination. Pure function of
    /// the link horizons — shared by the per-message path and the batch
    /// path so both produce identical timings. The serialization memo
    /// only skips re-evaluating `LinkSpec::serialization` for the size it
    /// last saw on that class, so mixed sizes merely miss.
    #[inline]
    fn occupy_route(
        links: &mut LinkStates,
        classes: &LinkClasses,
        route: &[LinkId],
        bytes: u64,
        head: SimTime,
    ) -> SimTime {
        let mut head = head; // when the header reaches the next link
        let mut completion = head;
        for &lid in route {
            let i = lid.0 as usize;
            let class = usize::from(classes.of[i]);
            let spec = &classes.specs[class];
            let memo = &mut links.ser_memo[class];
            if memo.0 != bytes {
                *memo = (bytes, spec.serialization(bytes));
            }
            let ser = memo.1;
            let occupancy_start = head.max(links.busy_until[i]);
            links.busy_until[i] = occupancy_start + ser;
            let last_byte_arrival = occupancy_start + ser + spec.latency;
            completion = completion.max(last_byte_arrival);
            head = occupancy_start + spec.latency;
        }
        completion
    }

    /// Simulate a batch of independent same-epoch transfers in one call,
    /// without suspending: link occupancies are advanced message by
    /// message **in slice order** (so the schedule is a pure function of
    /// the batch, bit-identical on every run) and `completions[i]`
    /// receives message `i`'s last-byte arrival. Returns the overall
    /// latest completion, which is the single instant a caller needs to
    /// sleep until — one kernel event for the whole batch instead of one
    /// (or several) per message.
    ///
    /// This is the scaling path for fabric-wide phases (halo exchanges,
    /// collective rounds at 10⁵ ranks): semantics match issuing the
    /// messages through [`Network::transfer`] at their `earliest`
    /// instants in slice order, minus what the batch path deliberately
    /// does not model — endpoint overheads (fold them into `earliest`
    /// and onto the returned completion) and fault injection (the batch
    /// path is for clean bulk phases).
    ///
    /// # Panics
    ///
    /// In every build profile, if a fault model or a node fault is
    /// active: a batch booked on a faulted fabric would otherwise return
    /// clean timings. The two checks run once per batch, not per message.
    ///
    /// Messages may depend on the future (`earliest >= now` is
    /// required); loopback messages cost the node-local copy time and
    /// touch no links.
    pub fn schedule_batch(&self, msgs: &[BatchMsg], completions: &mut Vec<SimTime>) -> SimTime {
        let now = self.sim.now();
        assert_eq!(
            self.fault.get().segment_error_rate,
            0.0,
            "schedule_batch does not sample the fault model"
        );
        assert_eq!(
            self.node_faults.borrow().active,
            0,
            "schedule_batch does not model node faults"
        );
        completions.clear();
        completions.reserve(msgs.len());
        let mut links = self.links.borrow_mut();
        let mut route = self.route_scratch.borrow_mut();
        let mut overall = now;
        for m in msgs {
            debug_assert!(m.earliest >= now, "batch message scheduled in the past");
            let head = m.earliest.max(now);
            let done = if m.src == m.dst {
                head + SimDuration::from_secs_f64(m.bytes as f64 / LOOPBACK_BPS)
            } else {
                route.clear();
                self.topo.route(m.src, m.dst, &mut route);
                Self::occupy_route(&mut links, &self.classes, &route, m.bytes.max(1), head)
            };
            completions.push(done);
            overall = overall.max(done);
        }
        overall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fattree::{ib_fdr_host_spec, ib_fdr_trunk_spec, FatTree};
    use crate::topology::Crossbar;
    use crate::torus::{extoll_link_spec, Torus3D};
    use deep_simkit::Simulation;
    use proptest::prelude::*;
    use std::rc::Rc;

    /// The booking kernel without link classes or the memo: one
    /// `LinkSpec` per link, its serialization recomputed at every hop.
    struct Reference {
        topo: Box<dyn Topology>,
        specs: Vec<LinkSpec>,
        busy_until: Vec<SimTime>,
        route: Vec<LinkId>,
    }

    impl Reference {
        fn new(topo: Box<dyn Topology>) -> Self {
            let specs = topo.link_specs();
            Reference {
                busy_until: vec![SimTime::ZERO; specs.len()],
                topo,
                specs,
                route: Vec::new(),
            }
        }

        /// Book `src → dst`; returns the last-byte arrival and the hops.
        fn book(&mut self, src: NodeId, dst: NodeId, bytes: u64, head: SimTime) -> (SimTime, u32) {
            self.route.clear();
            self.topo.route(src, dst, &mut self.route);
            let mut head = head;
            let mut completion = head;
            for &lid in &self.route {
                let i = lid.0 as usize;
                let spec = self.specs[i];
                let occupancy_start = head.max(self.busy_until[i]);
                let ser = spec.serialization(bytes);
                self.busy_until[i] = occupancy_start + ser;
                let last_byte_arrival = occupancy_start + ser + spec.latency;
                completion = completion.max(last_byte_arrival);
                head = occupancy_start + spec.latency;
            }
            (completion, self.route.len() as u32)
        }
    }

    /// A one-way ring whose links cycle through three specs, so a route
    /// of three or more hops books every class.
    struct ThreeClassRing(u32);

    impl Topology for ThreeClassRing {
        fn num_nodes(&self) -> usize {
            self.0 as usize
        }

        fn link_specs(&self) -> Vec<LinkSpec> {
            (0..self.0 as usize)
                .map(|i| LinkSpec {
                    bandwidth_bps: [6.8e9, 3.0e9, 1.25e9][i % 3],
                    latency: SimDuration::nanos([100, 35, 7][i % 3]),
                })
                .collect()
        }

        fn route(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
            let mut at = src.0;
            while at != dst.0 {
                out.push(LinkId(at));
                at = (at + 1) % self.0;
            }
        }
    }

    fn topo_of(kind: u32) -> Box<dyn Topology> {
        match kind {
            0 => Box::new(FatTree::new(
                40,
                4,
                4,
                ib_fdr_host_spec(),
                ib_fdr_trunk_spec(),
            )),
            1 => Box::new(Torus3D::new((3, 3, 2), extoll_link_spec())),
            2 => Box::new(Crossbar::new(6, ib_fdr_host_spec())),
            _ => Box::new(ThreeClassRing(7)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Batches of mixed sizes (0 → `max(1)`, runs of one size, two
        /// sizes alternating, random draws) interleaved with awaited
        /// transfers leave every completion and every link horizon
        /// exactly as the un-memoized per-link-spec kernel does.
        #[test]
        fn memoized_booking_matches_the_per_link_reference(kind in 0u32..4, seed in 0u64..=u64::MAX) {
            const SIZES: [u64; 6] = [0, 1, 64, 4_097, 65_536, 1_000_003];
            let mut sim = Simulation::new(seed);
            let ctx = sim.handle();
            let net = Rc::new(Network::new(&ctx, topo_of(kind), 4096, 1));
            let n = net.clone();
            let ops = sim.spawn("ops", async move {
                let mut rng = n.sim().fork_rng(7);
                let mut reference = Reference::new(topo_of(kind));
                let nodes = n.num_nodes() as u32;
                let (mut msgs, mut done) = (Vec::new(), Vec::new());
                for _ in 0..24 {
                    let now = n.sim().now();
                    let (a, b) = (SIZES[rng.gen_range(0..6usize)], SIZES[rng.gen_range(0..6usize)]);
                    let (src, dst) = (NodeId(rng.gen_range(0..nodes)), NodeId(rng.gen_range(0..nodes)));
                    if rng.gen_bool(0.6) {
                        let shape = rng.gen_range(0..3u32);
                        msgs.clear();
                        for k in 0..rng.gen_range(1..48u32) {
                            msgs.push(BatchMsg {
                                src: NodeId((src.0 + k * (1 + shape)) % nodes),
                                dst: NodeId(rng.gen_range(0..nodes)),
                                bytes: match shape {
                                    0 => a,
                                    1 => [a, b][k as usize % 2],
                                    _ => SIZES[rng.gen_range(0..6usize)],
                                },
                                earliest: now + SimDuration::nanos(rng.gen_range(0..3_000u64)),
                            });
                        }
                        let overall = n.schedule_batch(&msgs, &mut done);
                        for (m, &got) in msgs.iter().zip(&done) {
                            let want = if m.src == m.dst {
                                m.earliest + SimDuration::from_secs_f64(m.bytes as f64 / 8e9)
                            } else {
                                reference.book(m.src, m.dst, m.bytes.max(1), m.earliest).0
                            };
                            assert_eq!(got, want, "batch completion");
                        }
                        assert_eq!(Some(overall), done.iter().copied().max());
                        n.sim().sleep(SimDuration::nanos(rng.gen_range(0..20_000u64))).await;
                    } else if src != dst {
                        let overhead = EndpointOverhead {
                            send: SimDuration::nanos(rng.gen_range(0..2u64) * 600),
                            recv: SimDuration::nanos(rng.gen_range(0..2u64) * 300),
                        };
                        let (arrival, hops) = reference.book(src, dst, a.max(1), now + overhead.send);
                        let st = n.transfer(src, dst, a, overhead).await.unwrap();
                        assert_eq!(st.elapsed, arrival + overhead.recv - now, "awaited transfer");
                        assert_eq!(st.hops, hops);
                        // Routed in the fabric's buffer, not a per-call `Vec`.
                        assert_eq!(n.route_scratch.borrow().len() as u32, hops);
                    }
                }
                reference.busy_until
            });
            sim.run().assert_completed();
            let want = ops.try_result().unwrap();
            prop_assert_eq!(&net.links.borrow().busy_until, &want);
        }
    }

    /// Book one round, every rank `r` sending `bytes` to `peer(r)` once
    /// it is ready; both ends of a message are ready again at its
    /// completion, which is appended to `log`.
    fn book_round(
        net: &Network,
        ready: &mut [SimTime],
        bytes: u64,
        peer: impl Fn(u32) -> u32,
        log: &mut Vec<SimTime>,
    ) {
        let msgs: Vec<BatchMsg> = (0..ready.len() as u32)
            .map(|r| BatchMsg {
                src: NodeId(r),
                dst: NodeId(peer(r)),
                bytes,
                earliest: ready[r as usize],
            })
            .collect();
        let mut done = Vec::new();
        net.schedule_batch(&msgs, &mut done);
        for (m, &t) in msgs.iter().zip(&done) {
            for end in [m.src, m.dst] {
                let r = &mut ready[end.0 as usize];
                *r = (*r).max(t);
            }
        }
        log.extend_from_slice(&done);
    }

    /// FNV-1a 64 over every booked horizon in link-id order, then over
    /// `log`. Never-booked links (`ZERO`) are skipped.
    fn horizon_fnv(net: &Network, log: &[SimTime]) -> u64 {
        let links = net.links.borrow();
        let booked = links.busy_until.iter().filter(|&&t| t != SimTime::ZERO);
        booked.chain(log).fold(0xcbf2_9ce4_8422_2325, |h, t| {
            t.as_nanos().to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// The per-link state F09's two skeletons leave behind: the SpMV
    /// halos and allreduce at 1 024 hosts, the pairwise all-to-all at
    /// 128. Both values were computed by this body on the fat-tree
    /// layout that still carried two unrouted slots per host.
    #[test]
    fn f09_rounds_leave_the_pinned_fat_tree_horizons() {
        let sim = Simulation::new(1);
        let spmv = crate::IbFabric::new(&sim.handle(), 1024);
        let net = spmv.network();
        let (mut ready, mut log) = (vec![SimTime::ZERO; 1024], Vec::new());
        for shift in [1, 1023] {
            book_round(net, &mut ready, 64 << 10, |r| (r + shift) % 1024, &mut log);
        }
        for k in 0..10 {
            book_round(net, &mut ready, 8, |r| r ^ (1 << k), &mut log);
        }
        assert_eq!(horizon_fnv(net, &log), 0xd0f8_e656_e1f8_bbbc);
        let a2a = crate::IbFabric::new(&sim.handle(), 128);
        let net = a2a.network();
        let (mut ready, mut log) = (vec![SimTime::ZERO; 128], Vec::new());
        for k in 1..128 {
            book_round(net, &mut ready, 4 << 10, |r| r ^ k, &mut log);
        }
        assert_eq!(horizon_fnv(net, &log), 0x8826_8f2d_3080_943b);
    }

    #[test]
    fn link_specs_intern_to_their_distinct_values() {
        let sim = Simulation::new(1);
        let ib = crate::IbFabric::new(&sim.handle(), 262_144);
        let net = ib.network();
        assert_eq!(net.classes.specs, [ib_fdr_host_spec(), ib_fdr_trunk_spec()]);
        assert_eq!(net.links.borrow().ser_memo.len(), 2);
        // 2 links per host, 2 per (leaf, spine) pair: 14 564 leaves × 18.
        assert_eq!(net.links.borrow().busy_until.len(), 1_048_592);
        let torus = Network::new(
            &sim.handle(),
            Box::new(Torus3D::new((8, 8, 8), extoll_link_spec())),
            4096,
            1,
        );
        assert_eq!(torus.classes.specs, [extoll_link_spec()]);
        assert_eq!(LinkClasses::intern(&topo_of(3).link_specs()).specs.len(), 3);
    }

    fn mk(sim: &Sim, nodes: usize, bw: f64, lat_ns: u64) -> Rc<Network> {
        Rc::new(Network::new(
            sim,
            Box::new(Crossbar::new(
                nodes,
                LinkSpec {
                    bandwidth_bps: bw,
                    latency: SimDuration::nanos(lat_ns),
                },
            )),
            4096,
            1,
        ))
    }

    #[test]
    fn uncontended_transfer_time_is_latency_plus_serialization() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let net = mk(&ctx, 2, 1e9, 500);
        sim.spawn("xfer", async move {
            let st = net
                .transfer(NodeId(0), NodeId(1), 1_000_000, EndpointOverhead::default())
                .await
                .unwrap();
            // 1 MB at 1 GB/s = 1 ms, + 500 ns hop latency.
            assert_eq!(st.elapsed.as_nanos(), 1_000_000 + 500);
            assert_eq!(st.hops, 1);
        });
        sim.run().assert_completed();
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let net = mk(&ctx, 2, 1e9, 0);
        // Two messages from 0 to 1 share the single directed link.
        let done: Vec<_> = (0..2)
            .map(|i| {
                let net = net.clone();
                sim.spawn(format!("m{i}"), async move {
                    let st = net
                        .transfer(NodeId(0), NodeId(1), 1_000_000, EndpointOverhead::default())
                        .await
                        .unwrap();
                    st.elapsed.as_nanos()
                })
            })
            .collect();
        sim.run().assert_completed();
        // 1 MB at 1 GB/s is 1 ms: the second waits out the first.
        assert_eq!(done[0].try_result(), Some(1_000_000));
        assert_eq!(done[1].try_result(), Some(2_000_000));
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let net = mk(&ctx, 2, 1e9, 0);
        let n1 = net.clone();
        let a = sim.spawn("fwd", async move {
            n1.transfer(NodeId(0), NodeId(1), 1_000_000, EndpointOverhead::default())
                .await
                .unwrap()
                .elapsed
                .as_nanos()
        });
        let n2 = net.clone();
        let b = sim.spawn("rev", async move {
            n2.transfer(NodeId(1), NodeId(0), 1_000_000, EndpointOverhead::default())
                .await
                .unwrap()
                .elapsed
                .as_nanos()
        });
        sim.run().assert_completed();
        // Full duplex: both finish in 1 ms, not 2.
        assert_eq!(a.try_result(), Some(1_000_000));
        assert_eq!(b.try_result(), Some(1_000_000));
    }

    #[test]
    fn loopback_does_not_touch_fabric() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let net = mk(&ctx, 2, 1e9, 500);
        let n = net.clone();
        sim.spawn("loop", async move {
            let st = n
                .transfer(NodeId(0), NodeId(0), 8_000, EndpointOverhead::default())
                .await
                .unwrap();
            assert_eq!(st.hops, 0);
            // 8 kB at 8 GB/s loopback = 1 us.
            assert_eq!(st.elapsed.as_nanos(), 1_000);
        });
        sim.run().assert_completed();
        assert_eq!(net.links.borrow().busy_until, [SimTime::ZERO; 4]);
    }

    #[test]
    fn endpoint_overheads_add_up() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let net = mk(&ctx, 2, 1e9, 100);
        sim.spawn("xfer", async move {
            let st = net
                .transfer(
                    NodeId(0),
                    NodeId(1),
                    1000,
                    EndpointOverhead {
                        send: SimDuration::nanos(300),
                        recv: SimDuration::nanos(200),
                    },
                )
                .await
                .unwrap();
            // 300 + (1000 ns ser + 100 lat) + 200.
            assert_eq!(st.elapsed.as_nanos(), 300 + 1000 + 100 + 200);
        });
        sim.run().assert_completed();
    }

    #[test]
    fn fault_injection_adds_retransmissions() {
        let mut sim = Simulation::new(3);
        let ctx = sim.handle();
        let raw = Network::new(
            &ctx,
            Box::new(Crossbar::new(
                2,
                LinkSpec {
                    bandwidth_bps: 1e9,
                    latency: SimDuration::nanos(0),
                },
            )),
            4096,
            1,
        );
        raw.set_fault_model(FaultModel {
            segment_error_rate: 0.2,
            max_retries: 64,
        });
        let net = Rc::new(raw);
        let n = net.clone();
        let h = sim.spawn("xfer", async move {
            n.transfer(NodeId(0), NodeId(1), 400_000, EndpointOverhead::default())
                .await
                .unwrap()
        });
        sim.run().assert_completed();
        let st = h.try_result().unwrap();
        // ~98 segments at 20% error rate: expect ~24 retransmissions.
        assert!(
            st.retransmissions > 5,
            "expected retransmissions, got {}",
            st.retransmissions
        );
        // Goodput strictly below the clean-link bandwidth.
        assert!(st.goodput_bps() < 0.95e9);
    }

    #[test]
    fn excessive_errors_fail_the_link() {
        let mut sim = Simulation::new(4);
        let ctx = sim.handle();
        let raw = Network::new(
            &ctx,
            Box::new(Crossbar::new(
                2,
                LinkSpec {
                    bandwidth_bps: 1e9,
                    latency: SimDuration::nanos(0),
                },
            )),
            4096,
            1,
        );
        raw.set_fault_model(FaultModel {
            segment_error_rate: 0.999,
            max_retries: 2,
        });
        let net = Rc::new(raw);
        let h = sim.spawn("xfer", async move {
            net.transfer(NodeId(0), NodeId(1), 4096, EndpointOverhead::default())
                .await
        });
        sim.run().assert_completed();
        assert!(matches!(h.try_result(), Some(Err(LinkFailure { .. }))));
    }

    #[test]
    fn down_node_rejects_transfers_until_repaired() {
        let mut sim = Simulation::new(5);
        let ctx = sim.handle();
        let net = mk(&ctx, 3, 1e9, 100);
        net.set_node_down(NodeId(1), true);
        let n = net.clone();
        let h = sim.spawn("xfer", async move {
            let dead = n
                .transfer(NodeId(0), NodeId(1), 1000, EndpointOverhead::default())
                .await;
            assert!(dead.is_err());
            // Unrelated pairs keep working.
            n.transfer(NodeId(0), NodeId(2), 1000, EndpointOverhead::default())
                .await
                .expect("healthy pair");
            n.set_node_down(NodeId(1), false);
            n.transfer(NodeId(0), NodeId(1), 1000, EndpointOverhead::default())
                .await
                .expect("repaired node");
        });
        sim.run().assert_completed();
        assert!(h.is_finished());
    }

    #[test]
    fn nic_drop_probability_one_always_drops() {
        let mut sim = Simulation::new(6);
        let ctx = sim.handle();
        let net = mk(&ctx, 2, 1e9, 100);
        net.set_node_drop_prob(NodeId(1), 1.0);
        let n = net.clone();
        let h = sim.spawn("xfer", async move {
            let r = n
                .transfer(NodeId(0), NodeId(1), 1000, EndpointOverhead::default())
                .await;
            assert_ne!(r.unwrap_err().link, LinkFailure::NO_LINK);
            // The drop charged the route latency, not the serialization.
            n.sim().now().as_nanos()
        });
        sim.run().assert_completed();
        assert_eq!(h.try_result(), Some(100));
    }

    #[test]
    fn every_fault_path_emits_its_pinned_trace_event() {
        let mut sim = Simulation::new(8);
        sim.enable_tracing();
        let net = mk(&sim.handle(), 3, 1e9, 100);
        let n = net.clone();
        sim.spawn("faults", async move {
            let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
            let none = EndpointOverhead::default();
            n.set_node_down(b, true);
            assert!(n.transfer(b, b, 1000, none).await.is_err());
            assert!(n.transfer(a, b, 1000, none).await.is_err());
            n.set_node_down(b, false);
            n.set_node_drop_prob(c, 1.0);
            assert!(n.transfer(a, c, 1000, none).await.is_err());
            n.set_node_drop_prob(c, 0.0);
            n.set_fault_model(FaultModel {
                segment_error_rate: 1.0,
                max_retries: 2,
            });
            assert!(n.transfer(c, a, 1000, none).await.is_err());
        });
        sim.run().assert_completed();
        let got: Vec<_> = sim
            .take_events()
            .into_iter()
            .map(|e| (e.at.as_nanos(), e.component, e.kind, e.payload))
            .collect();
        let want = [
            (0, "net", "node-down", "node 1"),
            (0, "net", "drop", "loopback on down node 1"),
            (100, "net", "drop", "node down on route 0 -> 1"),
            (100, "net", "node-up", "node 1"),
            (200, "net", "drop", "nic drop on route 0 -> 2"),
            (200, "net", "link-fail", "retries exhausted on link 6"),
        ];
        assert_eq!(got, want.map(|(t, c, k, p)| (t, c, k, p.to_string())));
    }

    #[test]
    fn batch_matches_sequential_transfers() {
        // Two messages sharing one directed link: the batch path must
        // produce exactly the serialized schedule `transfer` would —
        // first message done at ser+lat, second queued behind it.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let net = mk(&ctx, 2, 1e9, 500);
        sim.spawn("batch", async move {
            let msgs = [
                BatchMsg {
                    src: NodeId(0),
                    dst: NodeId(1),
                    bytes: 1_000_000,
                    earliest: SimTime::ZERO,
                },
                BatchMsg {
                    src: NodeId(0),
                    dst: NodeId(1),
                    bytes: 1_000_000,
                    earliest: SimTime::ZERO,
                },
            ];
            let mut done = Vec::new();
            let overall = net.schedule_batch(&msgs, &mut done);
            // 1 MB at 1 GB/s = 1 ms serialization + 500 ns latency;
            // the second occupancy starts when the first ends.
            assert_eq!(done[0].as_nanos(), 1_000_000 + 500);
            assert_eq!(done[1].as_nanos(), 2_000_000 + 500);
            assert_eq!(overall, done[1]);
            // Only the 0 → 1 link (crossbar id 1) advanced, by both.
            let horizons = [
                SimTime::ZERO,
                SimTime(2_000_000),
                SimTime::ZERO,
                SimTime::ZERO,
            ];
            assert_eq!(net.links.borrow().busy_until, horizons);
        });
        sim.run().assert_completed();
    }

    #[test]
    fn batch_respects_per_message_earliest() {
        // A message whose `earliest` lies beyond the backlog of the
        // shared link starts at its own earliest, not at the backlog.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let net = mk(&ctx, 3, 1e9, 0);
        sim.spawn("batch", async move {
            let msgs = [
                BatchMsg {
                    src: NodeId(0),
                    dst: NodeId(1),
                    bytes: 1_000,
                    earliest: SimTime(5_000),
                },
                // Different link pair: unaffected by the first message.
                BatchMsg {
                    src: NodeId(2),
                    dst: NodeId(1),
                    bytes: 1_000,
                    earliest: SimTime::ZERO,
                },
                // Loopback: node-local copy, no fabric links.
                BatchMsg {
                    src: NodeId(2),
                    dst: NodeId(2),
                    bytes: 8_000,
                    earliest: SimTime::ZERO,
                },
            ];
            let mut done = Vec::new();
            net.schedule_batch(&msgs, &mut done);
            assert_eq!(done[0].as_nanos(), 5_000 + 1_000);
            assert_eq!(done[1].as_nanos(), 1_000);
            assert_eq!(done[2].as_nanos(), 1_000); // 8 kB at 8 GB/s
        });
        sim.run().assert_completed();
    }

    #[test]
    #[should_panic(expected = "schedule_batch does not sample the fault model")]
    fn batch_refuses_an_active_fault_model() {
        let sim = Simulation::new(1);
        let net = mk(&sim.handle(), 2, 1e9, 0);
        net.set_fault_model(FaultModel {
            segment_error_rate: 1e-3,
            ..FaultModel::default()
        });
        net.schedule_batch(&[], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "schedule_batch does not model node faults")]
    fn batch_refuses_an_active_node_fault() {
        let sim = Simulation::new(1);
        let net = mk(&sim.handle(), 2, 1e9, 0);
        net.set_node_down(NodeId(1), true);
        net.schedule_batch(&[], &mut Vec::new());
    }

    #[test]
    fn down_loopback_uses_sentinel_link() {
        let mut sim = Simulation::new(7);
        let ctx = sim.handle();
        let net = mk(&ctx, 2, 1e9, 100);
        net.set_node_down(NodeId(0), true);
        let n = net.clone();
        let h = sim.spawn("xfer", async move {
            n.transfer(NodeId(0), NodeId(0), 1000, EndpointOverhead::default())
                .await
        });
        sim.run().assert_completed();
        assert_eq!(
            h.try_result(),
            Some(Err(LinkFailure {
                link: LinkFailure::NO_LINK
            }))
        );
    }
}
