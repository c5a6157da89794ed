//! The MPI *universe*: every endpoint (process slot) a ParaStation daemon
//! could host, their mailboxes, the message-matching engine, and the
//! eager/rendezvous point-to-point protocol.
//!
//! One universe spans **all** fabrics of a DEEP machine — cluster ranks,
//! booster ranks and booster-interface slots — which is exactly what lets
//! `MPI_Comm_spawn` wire an inter-communicator between two worlds
//! (slide 26: the children get their own `MPI_COMM_WORLD`).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use deep_simkit::{OneShot, Sim, SimDuration};

use crate::value::Value;
use crate::wire::{EpId, LocalBoxFuture, Wire};

/// Wildcard-capable matching pattern (MPI_ANY_SOURCE / MPI_ANY_TAG).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern {
    /// Matching context (communicator id).
    pub context: u64,
    /// Sender's rank within the communicator, `None` for ANY_SOURCE.
    pub src: Option<u32>,
    /// Message tag, `None` for ANY_TAG.
    pub tag: Option<u32>,
}

/// Protocol role of an envelope.
#[derive(Clone)]
pub enum EnvKind {
    /// Eager: payload travelled with the envelope.
    Eager,
    /// Rendezvous request-to-send; the payload follows after clear-to-send.
    Rts {
        /// Fired by the receiver once it is ready for the payload.
        cts: OneShot<()>,
        /// Fired by the sender once the payload has fully arrived.
        done: OneShot<()>,
    },
}

/// A message envelope as seen by the matching engine.
#[derive(Clone)]
pub struct Envelope {
    /// Sending endpoint.
    pub src_ep: EpId,
    /// Sender's rank within the communicator.
    pub src_rank: u32,
    /// Communicator context id.
    pub context: u64,
    /// Message tag.
    pub tag: u32,
    /// Payload content.
    pub value: Value,
    /// Payload size charged to the fabric.
    pub bytes: u64,
    /// Protocol role.
    pub kind: EnvKind,
}

impl Envelope {
    fn matches(&self, p: &Pattern) -> bool {
        self.context == p.context
            && p.src.is_none_or(|s| s == self.src_rank)
            && p.tag.is_none_or(|t| t == self.tag)
    }
}

struct PostedRecv {
    pattern: Pattern,
    slot: OneShot<Envelope>,
}

#[derive(Default)]
struct Mailbox {
    unexpected: VecDeque<Envelope>,
    posted: VecDeque<PostedRecv>,
}

/// A function that can be launched by `comm_spawn` ("the command string").
pub type AppFn = Rc<dyn Fn(crate::comm::MpiCtx) -> LocalBoxFuture<'static, ()>>;

/// Protocol/cost parameters of the MPI implementation.
#[derive(Debug, Clone, Copy)]
pub struct MpiParams {
    /// Messages at or below this size use the eager protocol.
    pub eager_threshold: u64,
    /// Envelope/header bytes added to every wire transfer.
    pub header_bytes: u64,
    /// Local memcpy bandwidth for eager buffer copies.
    pub copy_bw_bps: f64,
    /// Fixed software cost of posting a send or recv.
    pub sw_overhead: SimDuration,
    /// Process-manager cost per spawned process.
    pub spawn_per_proc: SimDuration,
    /// Fixed process-manager cost per spawn call.
    pub spawn_base: SimDuration,
    /// Allreduce payloads at or above this size use the ring
    /// (reduce-scatter + allgather) algorithm instead of recursive
    /// doubling, when the payload holds at least one double per rank
    /// (a `VecF64`, or `Value::Unit` standing for `bytes / 8` doubles).
    pub allreduce_ring_threshold: u64,
}

impl Default for MpiParams {
    fn default() -> Self {
        MpiParams {
            eager_threshold: 16 * 1024,
            header_bytes: 64,
            copy_bw_bps: 12e9,
            sw_overhead: SimDuration::nanos(120),
            spawn_per_proc: SimDuration::micros(150),
            spawn_base: SimDuration::millis(2),
            allreduce_ring_threshold: 256 * 1024,
        }
    }
}

/// Traffic counters, updated by the p2p layer.
#[derive(Debug, Default, Clone)]
pub struct TrafficStats {
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Rendezvous handshakes performed.
    pub rendezvous: u64,
}

pub(crate) struct UniverseInner {
    mailboxes: Vec<Mailbox>,
    // Ordered maps: app names are registered and looked up by key only,
    // but spawn/pool bookkeeping feeds trace-visible behaviour — keep
    // any future iteration deterministic.
    pub(crate) registry: BTreeMap<String, AppFn>,
    pub(crate) pools: BTreeMap<String, Vec<EpId>>,
    next_context: u64,
}

/// The universe shared by every rank of a machine.
pub struct Universe {
    pub(crate) sim: Sim,
    pub(crate) wire: Rc<dyn Wire>,
    pub(crate) inner: RefCell<UniverseInner>,
    pub(crate) params: MpiParams,
    pub(crate) stats: RefCell<TrafficStats>,
}

impl Universe {
    /// Create a universe over `endpoints` process slots carried by `wire`.
    pub fn new(sim: &Sim, wire: Rc<dyn Wire>, endpoints: usize, params: MpiParams) -> Rc<Self> {
        let mailboxes = (0..endpoints).map(|_| Mailbox::default()).collect();
        Rc::new(Universe {
            sim: sim.clone(),
            wire,
            inner: RefCell::new(UniverseInner {
                mailboxes,
                registry: BTreeMap::new(),
                pools: BTreeMap::new(),
                next_context: 1,
            }),
            params,
            stats: RefCell::new(TrafficStats::default()),
        })
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Protocol parameters.
    pub fn params(&self) -> &MpiParams {
        &self.params
    }

    /// Total endpoints in the universe.
    pub fn num_endpoints(&self) -> usize {
        self.inner.borrow().mailboxes.len()
    }

    /// Snapshot of the traffic counters.
    pub fn traffic(&self) -> TrafficStats {
        self.stats.borrow().clone()
    }

    /// Register an application entry point for `comm_spawn`.
    pub fn register_app(&self, name: &str, f: AppFn) {
        self.inner.borrow_mut().registry.insert(name.to_string(), f);
    }

    /// Declare a named pool of spawnable endpoints (e.g. the booster).
    pub fn add_pool(&self, name: &str, eps: Vec<EpId>) {
        self.inner.borrow_mut().pools.insert(name.to_string(), eps);
    }

    /// Remaining capacity of a pool.
    pub fn pool_available(&self, name: &str) -> usize {
        self.inner.borrow().pools.get(name).map_or(0, Vec::len)
    }

    /// Allocate a fresh communicator context id.
    pub fn alloc_context(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        inner.next_context += 1;
        inner.next_context
    }

    /// Deliver an envelope into `dst`'s mailbox, completing a posted
    /// receive if one matches (in post order), else queueing it.
    pub(crate) fn deposit(&self, dst: EpId, env: Envelope) {
        let mut inner = self.inner.borrow_mut();
        let mb = &mut inner.mailboxes[dst.0 as usize];
        if let Some(pos) = mb.posted.iter().position(|p| env.matches(&p.pattern)) {
            let posted = mb.posted.remove(pos).expect("index valid");
            drop(inner);
            posted.slot.set(env);
        } else {
            mb.unexpected.push_back(env);
        }
    }

    /// Peek at the first queued envelope matching `pattern` without
    /// consuming it; returns (src_rank, tag, bytes).
    pub(crate) fn peek_unexpected(&self, ep: EpId, pattern: &Pattern) -> Option<(u32, u32, u64)> {
        let inner = self.inner.borrow();
        let mb = &inner.mailboxes[ep.0 as usize];
        mb.unexpected
            .iter()
            .find(|e| e.matches(pattern))
            .map(|e| (e.src_rank, e.tag, e.bytes))
    }

    /// Take the first queued envelope matching `pattern`, if any.
    pub(crate) fn take_unexpected(&self, ep: EpId, pattern: &Pattern) -> Option<Envelope> {
        let mut inner = self.inner.borrow_mut();
        let mb = &mut inner.mailboxes[ep.0 as usize];
        let pos = mb.unexpected.iter().position(|e| e.matches(pattern))?;
        mb.unexpected.remove(pos)
    }

    /// Match or wait for an envelope addressed to `ep`.
    pub(crate) async fn match_recv(&self, ep: EpId, pattern: Pattern) -> Envelope {
        if let Some(env) = self.take_unexpected(ep, &pattern) {
            return env;
        }
        let slot: OneShot<Envelope> = OneShot::new(&self.sim);
        {
            let mut inner = self.inner.borrow_mut();
            inner.mailboxes[ep.0 as usize].posted.push_back(PostedRecv {
                pattern,
                slot: slot.clone(),
            });
        }
        slot.wait().await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::IdealWire;
    use deep_simkit::Simulation;

    fn universe(sim: &Sim, n: usize) -> Rc<Universe> {
        let wire = Rc::new(IdealWire::new(sim, SimDuration::micros(1), 1e9));
        Universe::new(sim, wire, n, MpiParams::default())
    }

    fn env(src: u32, context: u64, tag: u32) -> Envelope {
        Envelope {
            src_ep: EpId(src),
            src_rank: src,
            context,
            tag,
            value: Value::U64(src as u64),
            bytes: 8,
            kind: EnvKind::Eager,
        }
    }

    #[test]
    fn unexpected_queue_matches_in_arrival_order() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let uni = universe(&ctx, 2);
        uni.deposit(EpId(1), env(0, 5, 9));
        uni.deposit(EpId(1), env(0, 5, 9));
        let p = Pattern {
            context: 5,
            src: None,
            tag: Some(9),
        };
        assert!(uni.take_unexpected(EpId(1), &p).is_some());
        assert!(uni.take_unexpected(EpId(1), &p).is_some());
        assert!(uni.take_unexpected(EpId(1), &p).is_none());
        sim.run().assert_completed();
    }

    #[test]
    fn wildcards_match_any_source_and_tag() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let uni = universe(&ctx, 2);
        uni.deposit(EpId(1), env(3, 5, 42));
        // Wrong context never matches.
        assert!(uni
            .take_unexpected(
                EpId(1),
                &Pattern {
                    context: 6,
                    src: None,
                    tag: None
                }
            )
            .is_none());
        // Wrong tag.
        assert!(uni
            .take_unexpected(
                EpId(1),
                &Pattern {
                    context: 5,
                    src: None,
                    tag: Some(1)
                }
            )
            .is_none());
        // ANY/ANY matches.
        assert!(uni
            .take_unexpected(
                EpId(1),
                &Pattern {
                    context: 5,
                    src: None,
                    tag: None
                }
            )
            .is_some());
        sim.run().assert_completed();
    }

    #[test]
    fn posted_recv_completes_on_deposit() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let uni = universe(&ctx, 2);
        let u2 = uni.clone();
        let h = sim.spawn("recv", async move {
            u2.match_recv(
                EpId(1),
                Pattern {
                    context: 7,
                    src: Some(0),
                    tag: Some(3),
                },
            )
            .await
            .value
            .as_u64()
        });
        let u3 = uni.clone();
        let c = ctx.clone();
        sim.spawn("send", async move {
            c.sleep(SimDuration::micros(5)).await;
            u3.deposit(EpId(1), env(0, 7, 3));
        });
        sim.run().assert_completed();
        assert_eq!(h.try_result(), Some(0));
    }

    #[test]
    fn posted_recvs_complete_in_post_order() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let uni = universe(&ctx, 2);
        let mut handles = Vec::new();
        for i in 0..2 {
            let u = uni.clone();
            let c = ctx.clone();
            handles.push(sim.spawn(format!("recv{i}"), async move {
                // Stagger posting so post order is deterministic.
                c.sleep(SimDuration::nanos(i)).await;
                let env = u
                    .match_recv(
                        EpId(1),
                        Pattern {
                            context: 7,
                            src: None,
                            tag: None,
                        },
                    )
                    .await;
                (i, env.tag)
            }));
        }
        let u3 = uni.clone();
        let c = ctx.clone();
        sim.spawn("send", async move {
            c.sleep(SimDuration::micros(1)).await;
            let mut e1 = env(0, 7, 100);
            e1.tag = 100;
            u3.deposit(EpId(1), e1);
            let mut e2 = env(0, 7, 200);
            e2.tag = 200;
            u3.deposit(EpId(1), e2);
        });
        sim.run().assert_completed();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.try_result().unwrap())
            .collect();
        // First posted receive gets the first message.
        assert!(results.contains(&(0, 100)));
        assert!(results.contains(&(1, 200)));
    }

    #[test]
    fn context_ids_are_unique() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let uni = universe(&ctx, 1);
        let a = uni.alloc_context();
        let b = uni.alloc_context();
        assert_ne!(a, b);
        sim.run().assert_completed();
    }
}
