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
//! Dynamic state is **SoA**, one array per field indexed by `LinkId` or
//! `NodeId`. A link's only state is its `busy_until` horizon: 8 B per
//! link, 8.4 MB for the 1 048 592 links of 262 144 hosts. Static link
//! description stays with the topology: it names its distinct
//! [`LinkSpec`]s as classes ([`Topology::classes`]: host and trunk on a
//! fat tree, one on a torus) and tags each hop of a route with one. The
//! network keeps per class the *price* of a hop, `(serialization,
//! latency)`, for the size it last booked, and one route scratch of
//! [`Topology::diameter`] hops. It is generic over its topology, held as
//! its last field: [`IbFabric`](crate::IbFabric) books on a
//! `Network<FatTree>` whose route inlines into the hop loop, and a bare
//! `Network` is the `Network<dyn Topology>` any `Rc<Network<T>>` coerces to.
//!
//! ## Booking one hop
//!
//! `occupy_route` is the one kernel under both [`Network::transfer`] and
//! [`Network::schedule_batch`]. Its caller writes the route into the
//! scratch ([`Topology::hops`]) and reprices the classes only when the
//! size differs from the last message's: `LinkSpec::serialization` runs
//! once per class per size change, never per hop. A hop is then its
//! class's price → read-modify-write of the link's `busy_until` → the
//! header time carried on. Prices are a pure function of `(spec, bytes)`,
//! so timings are bit-identical to recomputing them per hop (DESIGN.md
//! lists what was tried and rejected).
//!
//! Node-fault state keeps an active-fault count so the fault-free fast
//! path is one integer test, not two array reads per transfer.

use std::borrow::Borrow;
use std::cell::{Cell, RefCell};

use deep_simkit::{Sim, SimDuration, SimRng, SimTime};

use crate::topology::Topology;
use crate::types::{EndpointOverhead, Hop, LinkId, LinkSpec, NodeId, TransferStats};

/// What one hop costs on a link class: `(serialization, latency)`.
type Price = (SimDuration, SimDuration);

/// Per class, the price of a hop for `bytes`, the size last booked (at
/// first zero, which takes zero time on any link).
struct Prices {
    bytes: u64,
    of_class: Vec<Price>,
}

impl Prices {
    /// The per-class prices for `bytes`, recomputed only if the last
    /// booking was of another size.
    #[inline]
    fn of(&mut self, classes: &[LinkSpec], bytes: u64) -> &[Price] {
        if self.bytes != bytes {
            self.bytes = bytes;
            for (price, spec) in self.of_class.iter_mut().zip(classes) {
                price.0 = spec.serialization(bytes);
            }
        }
        &self.of_class
    }

    fn latency(&self, hop: Hop) -> SimDuration {
        self.of_class[usize::from(hop.class)].1
    }
}

/// Messages delivered and hops booked, from [`Network::booked`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Booked {
    /// Messages delivered, by either entry point; a loopback copy counts
    /// with zero hops, a failed or dropped transfer not at all.
    pub messages: u64,
    /// Link traversals booked: one per hop of every delivered message.
    pub hops: u64,
}

/// The booking state: `busy_until[l]` is link `l`'s contention horizon,
/// the instant its last booked occupancy ends.
struct Links {
    busy_until: Vec<SimTime>,
    prices: Prices,
    /// Route scratch, [`Topology::diameter`] hops long: one allocation
    /// per fabric, never borrowed across an `await`.
    route: Box<[Hop]>,
    booked: Booked,
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

    /// Change node `i`'s fault state through `set`, keeping `active`
    /// in step.
    fn update(&mut self, i: usize, set: impl FnOnce(&mut Self)) {
        let faulty = |nf: &Self| nf.down[i] || nf.drop_prob[i] > 0.0;
        let was = faulty(self);
        set(self);
        let is = faulty(self);
        self.active = self.active + usize::from(is && !was) - usize::from(was && !is);
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

/// A live fabric: topology + per-link dynamic state. Bare, `Network`
/// is `Network<dyn Topology>`.
pub struct Network<T: Topology + ?Sized = dyn Topology> {
    sim: Sim,
    links: RefCell<Links>,
    rng: RefCell<SimRng>,
    fault: Cell<FaultModel>,
    node_faults: RefCell<NodeFaults>,
    /// Maximum transmission unit for segmentation (bytes).
    mtu: u64,
    pub(crate) topo: T,
}

impl<T: Topology> Network<T> {
    /// Wrap a topology. `rng_stream` keys this fabric's fault randomness.
    pub fn new(sim: &Sim, topo: T, mtu: u64, rng_stream: u64) -> Self {
        let of_class = topo.classes().iter();
        let of_class = of_class.map(|c| (SimDuration::ZERO, c.latency)).collect();
        Network {
            sim: sim.clone(),
            links: RefCell::new(Links {
                busy_until: vec![SimTime::ZERO; topo.num_links()],
                prices: Prices { bytes: 0, of_class },
                route: vec![Hop::default(); topo.diameter()].into(),
                booked: Booked::default(),
            }),
            rng: RefCell::new(sim.fork_rng(rng_stream)),
            fault: Cell::new(FaultModel::default()),
            node_faults: RefCell::new(NodeFaults::new(topo.num_nodes())),
            mtu: mtu.max(64),
            topo,
        }
    }
}

impl<T: Topology + ?Sized> Network<T> {
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
        let i = node.0 as usize;
        self.node_faults
            .borrow_mut()
            .update(i, |nf| nf.down[i] = down);
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
        let i = node.0 as usize;
        self.node_faults
            .borrow_mut()
            .update(i, |nf| nf.drop_prob[i] = p);
    }

    /// The simulation handle this network runs on.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Number of endpoints in the underlying topology.
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// Messages delivered and hops booked so far, by both entry points.
    pub fn booked(&self) -> Booked {
        self.links.borrow().booked
    }

    /// The latest link horizon: the instant the last booked occupancy on
    /// any link ends, `ZERO` on a fresh fabric. One pass over the links.
    pub fn horizon(&self) -> SimTime {
        let links = self.links.borrow();
        links
            .busy_until
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
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
            self.links.borrow_mut().booked.messages += 1;
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
        // under the shared route scratch; only the first link, the hop
        // count and the outcome are carried across the awaits below.
        let (first, hops, outcome) = {
            let links = &mut *self.links.borrow_mut();
            let n = self.topo.hops(src, dst, &mut links.route);
            debug_assert!(n > 0, "route for distinct nodes is non-empty");
            let route = &links.route[..n];
            let first = route[0].link;
            let outcome = if down {
                // The message dies at the first hop: charge one hop latency
                // (the time the NIC spends discovering nothing answers).
                Err((links.prices.latency(route[0]), "node down"))
            } else if drop_prob > 0.0 && self.rng.borrow_mut().gen_bool(drop_prob) {
                // NIC drop: the message traverses the route (charging hop
                // latencies, not occupancy) and silently vanishes.
                let lat: SimDuration = route.iter().map(|&h| links.prices.latency(h)).sum();
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
                    let Some(sampled) = self.sample_retransmissions(fault, segments, n) else {
                        self.sim.emit("net", "link-fail", || {
                            format!("retries exhausted on link {}", first.0)
                        });
                        return Err(LinkFailure { link: first });
                    };
                    retrans_total = sampled as u32;
                    effective_bytes += (sampled as u64).saturating_mul(self.mtu.min(bytes));
                }
                // Analytic cut-through schedule over the route.
                links.booked.messages += 1;
                links.booked.hops += n as u64;
                let prices = links.prices.of(self.topo.classes(), effective_bytes);
                let completion = occupy_route(&mut links.busy_until, prices, route, self.sim.now());
                Ok((completion, retrans_total))
            };
            (first, n as u32, outcome)
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

    /// Simulate a batch of independent same-epoch transfers in one call,
    /// without suspending: link occupancies are advanced message by
    /// message **in iteration order** (so the schedule is a pure function
    /// of the batch, bit-identical on every run). `msgs` yields messages
    /// or references to them — a slice, or a lazy `map` that builds each
    /// one as it is booked; `completions` is cleared, then receives
    /// message `i`'s last-byte arrival at index `i`. Returns the overall
    /// latest completion, the one instant a caller sleeps until: one
    /// kernel event for the whole batch.
    ///
    /// This is the scaling path for fabric-wide phases (halo exchanges,
    /// collective rounds at 10⁵ ranks): semantics match issuing the
    /// messages through [`Network::transfer`] at their `earliest`
    /// instants (`>= now`) in that order, minus endpoint overheads (fold
    /// them into `earliest` and onto the returned completion) and fault
    /// injection. Loopback messages cost the node-local copy time and
    /// touch no links.
    ///
    /// # Panics
    ///
    /// In every build profile, if a fault model or a node fault is
    /// active: a batch booked on a faulted fabric would otherwise return
    /// clean timings. The two checks run once per batch, not per message.
    pub fn schedule_batch<M: Borrow<BatchMsg>>(
        &self,
        msgs: impl IntoIterator<Item = M>,
        completions: &mut Vec<SimTime>,
    ) -> SimTime {
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
        let msgs = msgs.into_iter();
        completions.clear();
        completions.reserve(msgs.size_hint().0);
        let links = &mut *self.links.borrow_mut();
        let classes = self.topo.classes();
        let mut overall = now;
        for m in msgs {
            let m = m.borrow();
            debug_assert!(m.earliest >= now, "batch message scheduled in the past");
            let head = m.earliest.max(now);
            let done = if m.src == m.dst {
                head + SimDuration::from_secs_f64(m.bytes as f64 / LOOPBACK_BPS)
            } else {
                let n = self.topo.hops(m.src, m.dst, &mut links.route);
                links.booked.hops += n as u64;
                let prices = links.prices.of(classes, m.bytes.max(1));
                occupy_route(&mut links.busy_until, prices, &links.route[..n], head)
            };
            completions.push(done);
            overall = overall.max(done);
        }
        links.booked.messages += completions.len() as u64;
        overall
    }
}

/// Advance the cut-through occupancy of every link on `route` for one
/// message priced at `prices` (per class, for its size), first byte
/// entering no earlier than `head`. Returns the last-byte arrival at the
/// destination. A pure function of the link horizons — shared by the
/// per-message path and the batch path so both produce identical
/// timings.
#[inline]
fn occupy_route(busy: &mut [SimTime], prices: &[Price], route: &[Hop], head: SimTime) -> SimTime {
    let mut head = head; // when the header reaches the next link
    let mut completion = head;
    for hop in route {
        let (ser, lat) = prices[usize::from(hop.class)];
        let busy = &mut busy[hop.link.0 as usize];
        let occupancy_start = head.max(*busy);
        *busy = occupancy_start + ser;
        completion = completion.max(occupancy_start + ser + lat);
        head = occupancy_start + lat;
    }
    completion
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

    /// The booking kernel without classes or prices: one `LinkSpec` per
    /// link, from a table the test builds, and its serialization
    /// recomputed at every hop.
    struct Reference {
        specs: Vec<LinkSpec>,
        busy_until: Vec<SimTime>,
        route: Vec<LinkId>,
    }

    impl Reference {
        fn new(specs: Vec<LinkSpec>) -> Self {
            Reference {
                busy_until: vec![SimTime::ZERO; specs.len()],
                specs,
                route: Vec::new(),
            }
        }

        /// Book `src → dst`; returns the last-byte arrival and the hops.
        fn book(
            &mut self,
            topo: &dyn Topology,
            (src, dst): (NodeId, NodeId),
            bytes: u64,
            head: SimTime,
        ) -> (SimTime, u32) {
            self.route.clear();
            topo.route(src, dst, &mut self.route);
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

    /// A one-way ring whose links cycle through three classes, so a
    /// route of three or more hops books every class.
    struct ThreeClassRing(u32, [LinkSpec; 3]);

    impl Topology for ThreeClassRing {
        fn num_nodes(&self) -> usize {
            self.0 as usize
        }

        fn num_links(&self) -> usize {
            self.0 as usize
        }

        fn classes(&self) -> &[LinkSpec] {
            &self.1
        }

        fn diameter(&self) -> usize {
            self.0 as usize - 1
        }

        fn hops(&self, src: NodeId, dst: NodeId, out: &mut [Hop]) -> usize {
            let (mut at, mut n) = (src.0, 0);
            while at != dst.0 {
                out[n] = Hop::new(LinkId(at), (at % 3) as u8);
                (at, n) = ((at + 1) % self.0, n + 1);
            }
            n
        }
    }

    /// Number of [`case`]s.
    const CASES: u32 = 11;

    /// Test fabric `kind`, with a per-link spec table built from the
    /// topology's documented link layout, not from its classes.
    fn case(sim: &Sim, kind: u32) -> (Rc<Network>, Vec<LinkSpec>) {
        let (host, trunk, extoll) = (ib_fdr_host_spec(), ib_fdr_trunk_spec(), extoll_link_spec());
        let fat_tree = |hosts: u32, per_leaf: u32, spines: u32| {
            let topo = FatTree::new(hosts, per_leaf, spines, host, trunk);
            let mut specs = vec![host; 2 * hosts as usize];
            specs.resize(
                2 * (hosts + hosts.div_ceil(per_leaf) * spines) as usize,
                trunk,
            );
            (
                Rc::new(Network::new(sim, topo, 4096, 1)) as Rc<Network>,
                specs,
            )
        };
        let torus = |(x, y, z): (u32, u32, u32)| {
            let topo = Torus3D::new((x, y, z), extoll);
            let specs = vec![extoll; 6 * (x * y * z) as usize];
            (
                Rc::new(Network::new(sim, topo, 4096, 1)) as Rc<Network>,
                specs,
            )
        };
        match kind {
            0 => fat_tree(40, 4, 4),
            1 => torus((3, 3, 2)),
            2 => (mk(sim, 6, 6.8e9, 170), vec![host; 36]),
            3 => {
                let classes = [(6.8e9, 100), (3.0e9, 35), (1.25e9, 7)].map(|(bw, ns)| LinkSpec {
                    bandwidth_bps: bw,
                    latency: SimDuration::nanos(ns),
                });
                let specs = (0..7).map(|l| classes[l % 3]).collect();
                let ring = Network::new(sim, ThreeClassRing(7, classes), 4096, 1);
                (Rc::new(ring), specs)
            }
            4 => fat_tree(16, 4, 4),
            // A partial last leaf, and a single spine.
            5 => fat_tree(10, 4, 2),
            6 => fat_tree(12, 4, 1),
            // A dimension of 1, odd sizes, and the 8×8×8 torus.
            7 => torus((4, 1, 3)),
            8 => torus((3, 5, 3)),
            9 => torus((8, 8, 8)),
            _ => {
                let (rc, lane) = (
                    crate::pcie::root_complex_spec(),
                    crate::pcie::pcie2_x16_spec(),
                );
                let bus = Network::new(sim, crate::PcieBus::new(3, rc, lane), 4096, 1);
                (Rc::new(bus), [vec![rc; 2], vec![lane; 6]].concat())
            }
        }
    }

    /// Every topology routes every ordered pair within its diameter over
    /// valid link ids, gives a link one class on every route, and that
    /// class's spec is the link's spec in the per-link table.
    #[test]
    fn every_topology_keeps_the_hop_contract() {
        let sim = Simulation::new(1);
        for kind in 0..CASES {
            let (net, specs) = case(&sim.handle(), kind);
            let topo = &net.topo;
            assert_eq!(topo.num_links(), specs.len(), "case {kind}");
            let mut class_of = vec![None; specs.len()];
            let (mut hops, mut route) = (vec![Hop::default(); topo.diameter()], Vec::new());
            for a in (0..topo.num_nodes() as u32).map(NodeId) {
                for b in (0..topo.num_nodes() as u32).map(NodeId) {
                    let n = topo.hops(a, b, &mut hops);
                    assert_eq!(n == 0, a == b, "case {kind}: {a} → {b}");
                    assert!(n <= topo.diameter());
                    for hop in &hops[..n] {
                        let l = hop.link.0 as usize;
                        assert!(l < topo.num_links(), "case {kind}: link {l}");
                        assert_eq!(*class_of[l].get_or_insert(hop.class), hop.class);
                        assert_eq!(topo.classes()[usize::from(hop.class)], specs[l]);
                    }
                    route.clear();
                    topo.route(a, b, &mut route);
                    assert!(route.iter().eq(hops[..n].iter().map(|h| &h.link)));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Batches of mixed sizes (0 → `max(1)`, runs of one size, two
        /// sizes alternating, random draws) interleaved with awaited
        /// transfers leave every completion, every link horizon and the
        /// booking counters exactly as the per-link-spec kernel does.
        #[test]
        fn priced_booking_matches_the_per_link_reference(kind in 0..CASES, seed in 0u64..=u64::MAX) {
            const SIZES: [u64; 6] = [0, 1, 64, 4_097, 65_536, 1_000_003];
            let mut sim = Simulation::new(seed);
            let (net, specs) = case(&sim.handle(), kind);
            let n = net.clone();
            let ops = sim.spawn("ops", async move {
                let mut rng = n.sim().fork_rng(7);
                let mut reference = Reference::new(specs);
                let mut want = Booked::default();
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
                        want.messages += msgs.len() as u64;
                        for (m, &got) in msgs.iter().zip(&done) {
                            let expect = if m.src == m.dst {
                                m.earliest + SimDuration::from_secs_f64(m.bytes as f64 / 8e9)
                            } else {
                                let (t, hops) = reference.book(&n.topo, (m.src, m.dst), m.bytes.max(1), m.earliest);
                                want.hops += u64::from(hops);
                                t
                            };
                            assert_eq!(got, expect, "batch completion");
                        }
                        assert_eq!(Some(overall), done.iter().copied().max());
                        n.sim().sleep(SimDuration::nanos(rng.gen_range(0..20_000u64))).await;
                    } else if src != dst {
                        let overhead = EndpointOverhead {
                            send: SimDuration::nanos(rng.gen_range(0..2u64) * 600),
                            recv: SimDuration::nanos(rng.gen_range(0..2u64) * 300),
                        };
                        let (arrival, hops) = reference.book(&n.topo, (src, dst), a.max(1), now + overhead.send);
                        let st = n.transfer(src, dst, a, overhead).await.unwrap();
                        assert_eq!(st.elapsed, arrival + overhead.recv - now, "awaited transfer");
                        assert_eq!(st.hops, hops);
                        want.messages += 1;
                        want.hops += u64::from(hops);
                    }
                }
                assert_eq!(n.booked(), want);
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
        net: &Network<FatTree>,
        ready: &mut [SimTime],
        bytes: u64,
        peer: impl Fn(u32) -> u32,
        log: &mut Vec<SimTime>,
    ) {
        let msgs = (0..ready.len() as u32).map(|r| BatchMsg {
            src: NodeId(r),
            dst: NodeId(peer(r)),
            bytes,
            earliest: ready[r as usize],
        });
        let mut done = Vec::new();
        net.schedule_batch(msgs, &mut done);
        for (r, &t) in (0..).zip(&done) {
            for end in [r, peer(r)] {
                ready[end as usize] = ready[end as usize].max(t);
            }
        }
        log.extend_from_slice(&done);
    }

    /// FNV-1a 64 over every booked horizon in link-id order, then over
    /// `log`. Never-booked links (`ZERO`) are skipped.
    fn horizon_fnv(net: &Network<FatTree>, log: &[SimTime]) -> u64 {
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
        let booked = Booked {
            messages: 12 * 1024,
            hops: 38_436,
        };
        assert_eq!(net.booked(), booked);
        let a2a = crate::IbFabric::new(&sim.handle(), 128);
        let net = a2a.network();
        let (mut ready, mut log) = (vec![SimTime::ZERO; 128], Vec::new());
        for k in 1..128 {
            book_round(net, &mut ready, 4 << 10, |r| r ^ k, &mut log);
        }
        assert_eq!(horizon_fnv(net, &log), 0x8826_8f2d_3080_943b);
        let booked = Booked {
            messages: 127 * 128,
            hops: 60_736,
        };
        assert_eq!(net.booked(), booked);
    }

    fn mk(sim: &Sim, nodes: usize, bw: f64, lat_ns: u64) -> Rc<Network> {
        Rc::new(Network::new(
            sim,
            Crossbar::new(
                nodes,
                LinkSpec {
                    bandwidth_bps: bw,
                    latency: SimDuration::nanos(lat_ns),
                },
            ),
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
            Crossbar::new(
                2,
                LinkSpec {
                    bandwidth_bps: 1e9,
                    latency: SimDuration::nanos(0),
                },
            ),
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
            Crossbar::new(
                2,
                LinkSpec {
                    bandwidth_bps: 1e9,
                    latency: SimDuration::nanos(0),
                },
            ),
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
            let msg = BatchMsg {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1_000_000,
                earliest: SimTime::ZERO,
            };
            let mut done = Vec::new();
            let overall = net.schedule_batch([msg; 2], &mut done);
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
            // 2 → 1 is a different link pair, unaffected by the first
            // message; 2 → 2 is a loopback, a node-local copy.
            let msgs = [(0, 1, 1_000, 5_000), (2, 1, 1_000, 0), (2, 2, 8_000, 0)];
            let msgs = msgs.map(|(src, dst, bytes, at)| BatchMsg {
                src: NodeId(src),
                dst: NodeId(dst),
                bytes,
                earliest: SimTime(at),
            });
            let mut done = Vec::new();
            net.schedule_batch(msgs, &mut done);
            assert_eq!(done[0].as_nanos(), 5_000 + 1_000);
            assert_eq!(done[1].as_nanos(), 1_000);
            assert_eq!(done[2].as_nanos(), 1_000); // 8 kB at 8 GB/s
        });
        sim.run().assert_completed();
    }

    /// A slice, its copies and a lazily built `map` book one batch
    /// alike; an empty batch books nothing and clears stale completions.
    #[test]
    fn batch_books_any_iterator_of_messages_alike() {
        let sim = Simulation::new(1);
        let msg = |r: u32| BatchMsg {
            src: NodeId(r),
            dst: NodeId((r * 7 + 3) % 16),
            bytes: 4_096 * u64::from(r % 3),
            earliest: SimTime(u64::from(r) * 100),
        };
        let msgs: Vec<BatchMsg> = (0..16).map(msg).collect();
        let book = |how: u32| {
            let ib = crate::IbFabric::new(&sim.handle(), 16);
            let (net, mut done) = (ib.network(), vec![SimTime(1)]);
            let overall = match how {
                0 => net.schedule_batch(msgs.iter(), &mut done),
                1 => net.schedule_batch(msgs.iter().copied(), &mut done),
                2 => net.schedule_batch((0..16).map(msg), &mut done),
                _ => net.schedule_batch(std::iter::empty::<BatchMsg>(), &mut done),
            };
            let busy = net.links.borrow().busy_until.clone();
            (overall, done, net.booked(), busy)
        };
        let want = book(0);
        assert_eq!((want.1.len(), want.2.messages), (16, 16));
        assert_eq!(book(1), want);
        assert_eq!(book(2), want);
        let idle = vec![SimTime::ZERO; want.3.len()];
        assert_eq!(book(3), (SimTime::ZERO, vec![], Booked::default(), idle));
    }

    /// `horizon` is `ZERO` on a fresh fabric; after a batch it is the
    /// latest link's `busy_until`, no later than the batch's overall
    /// completion.
    #[test]
    fn horizon_is_the_latest_link_and_within_the_batch() {
        let sim = Simulation::new(1);
        let ib = crate::IbFabric::new(&sim.handle(), 64);
        let net = ib.network();
        assert_eq!(net.horizon(), SimTime::ZERO);
        let msgs = (0..64).map(|r: u32| BatchMsg {
            src: NodeId(r),
            dst: NodeId((r * 7 + 3) % 64),
            bytes: 65_536,
            earliest: SimTime(u64::from(r) * 100),
        });
        let overall = net.schedule_batch(msgs, &mut Vec::new());
        let horizon = net.horizon();
        assert!(SimTime::ZERO < horizon && horizon <= overall);
        assert!(net.links.borrow().busy_until.iter().all(|&b| b <= horizon));
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
        net.schedule_batch(std::iter::empty::<BatchMsg>(), &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "schedule_batch does not model node faults")]
    fn batch_refuses_an_active_node_fault() {
        let sim = Simulation::new(1);
        let net = mk(&sim.handle(), 2, 1e9, 0);
        net.set_node_down(NodeId(1), true);
        net.schedule_batch(std::iter::empty::<BatchMsg>(), &mut Vec::new());
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
