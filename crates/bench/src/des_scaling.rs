//! Full-DES weak-scaling skeleton at O(100k) ranks.
//!
//! This is the engine behind the F09 tail validation: the same two
//! communication skeletons `f09_scalability` models analytically —
//! **SpMV** (ring halo + small allreduce) and **complex** (SpMV plus a
//! pairwise all-to-all) — actually simulated over a full-size IB fat
//! tree, at rank counts up to and beyond 262 144. Four mechanisms make
//! that feasible where a naive one-process-per-rank, one-event-per-
//! message simulation is not:
//!
//! * **One process per fabric segment** (leaf switch): 2¹⁸ ranks become
//!   ~14.5 k processes, so an iteration's compute phase is ~14.5 k
//!   far-horizon timers and not 2¹⁸.
//! * **SoA per-rank state**: rank readiness, inbox arrival and send
//!   completion times are three flat `Vec<SimTime>`s shared by every
//!   segment, beside one completion scratch — no per-rank objects, no
//!   per-rank futures.
//! * **Batched transfers** (`Network::schedule_batch`): each phase of
//!   an iteration (halo direction, collective round) is one batch over
//!   the contention engine, its messages built as they are booked, one
//!   kernel event — per-message `earliest` times carry each rank's skew
//!   through the phases, so virtual time only needs to advance once per
//!   iteration.
//! * **Stationary-iteration replay**: only iteration 1 is booked. Every
//!   rank enters each iteration at the same instant (the end of its
//!   compute sleep), the skeleton draws no randomness, and no link stays
//!   busy past the iteration's end (asserted through
//!   [`deep_fabric::Network::horizon`]), so each later iteration is
//!   iteration 1 translated in time: the driver ends it iteration 1's
//!   length after its compute sleep. Every sleep and barrier wait still
//!   runs, so the kernel executes the same events.
//!
//! What an iteration exchanges is [`Skeleton`], the one definition that
//! the driver runs, [`analytic_iter`] prices, `f18` and the scenario
//! message budget read.
//!
//! The protocol is barrier-sequenced: every segment schedules its own
//! ranks' messages into the fabric, a zero-time barrier separates
//! "everyone has scheduled" from "everyone reads the arrivals", and the
//! driver process runs the global collective rounds before sleeping the
//! whole machine to the iteration's end. All cross-segment data flows
//! through the SoA arrays in rank order, and batches hit the link
//! horizons in segment order — a pure function of the configuration,
//! so the run (and its summary digest) is bit-identical everywhere.

use std::cell::RefCell;
use std::rc::Rc;

use deep_fabric::{BatchMsg, IbFabric, NodeId};
use deep_psmpi::schedule::{book_round, Kind, Peer, Round, Schedule};
use deep_psmpi::NetModel;
use deep_simkit::{Barrier, Sim, SimDuration, SimTime, Simulation};

/// Fixed per-rank compute per iteration under weak scaling (shared with
/// the analytic model in `f09_scalability`).
pub const COMPUTE: SimDuration = SimDuration::micros(2_000);
/// Halo payload per ring neighbour per iteration.
pub const HALO_BYTES: u64 = 64 << 10;
/// Per-pair block of the complex class's all-to-all phase.
pub const A2A_BLOCK: u64 = 4 << 10;
/// Hosts per leaf switch — one simulated process per leaf.
const NODES_PER_LEAF: u32 = 18;

/// The F09 per-iteration communication skeleton at `n` ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct Skeleton {
    /// Rank count.
    pub n: u32,
    /// Ring halo shifts of [`HALO_BYTES`], right then left; booked per
    /// segment.
    pub halos: [Round; 2],
    /// Booked globally, one round at a time: the 8-byte dot-product
    /// allreduce and, for the complex class, the pairwise all-to-all of
    /// [`A2A_BLOCK`] — the linear-in-ranks phase that collapses it.
    pub collectives: Vec<Schedule>,
}

impl Skeleton {
    /// The skeleton of the SpMV (`complex == false`) or complex class.
    pub fn new(n: u32, complex: bool) -> Skeleton {
        let halo = |peer| Round {
            peer,
            bytes: HALO_BYTES,
        };
        let mut collectives = vec![Schedule::new(Kind::RecursiveDoubling, n, 8)];
        if complex {
            collectives.push(Schedule::new(Kind::PairwiseXor, n, A2A_BLOCK));
        }
        Skeleton {
            n,
            halos: [halo(Peer::Shift(1)), halo(Peer::Shift(n - 1))],
            collectives,
        }
    }

    /// Messages per iteration, in O(1).
    pub fn messages_per_iter(&self) -> u64 {
        let rounds: u64 = self.collectives.iter().map(Schedule::round_count).sum();
        u64::from(self.n) * (self.halos.len() as u64 + rounds)
    }

    /// Contention-free communication time of one iteration.
    pub fn comm_time(&self, m: &NetModel) -> SimDuration {
        let halos = self.halos.iter().map(|h| m.p2p(h.bytes));
        halos
            .chain(self.collectives.iter().map(|s| m.time(s)))
            .sum()
    }
}

/// Configuration of one skeleton run.
#[derive(Debug, Clone, Copy)]
pub struct DesScalingConfig {
    /// Rank count; must be a power of two >= 2 (the collective phases
    /// use XOR-partner schedules).
    pub ranks: u32,
    /// Iterations to simulate (>= 1).
    pub iters: u32,
    /// Add the complex class's pairwise all-to-all phase.
    pub complex: bool,
    /// Master seed (the skeleton draws no randomness, but the seed is
    /// part of the simulation identity).
    pub seed: u64,
}

/// Summary of one skeleton run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesScalingResult {
    pub ranks: u32,
    pub iters: u32,
    /// Fabric segments (= leaf switches = segment processes).
    pub segments: u32,
    /// Simulated seconds per iteration.
    pub iter_s: f64,
    /// Total simulated seconds.
    pub sim_s: f64,
    /// Logical point-to-point messages of the run: iteration 1's booked
    /// count, as [`deep_fabric::Network::booked`] counts it, × iters
    /// (the run asserts iteration 1 booked exactly
    /// [`Skeleton::messages_per_iter`]).
    pub messages: u64,
    /// Link traversals of those messages: iteration 1's booked count ×
    /// iters.
    pub hops: u64,
    /// Kernel events (process polls) the run executed.
    pub kernel_events: u64,
    /// FNV-1a 64 over the run's virtual-time trajectory (per-iteration
    /// end instants + message count) — the cross-thread golden.
    pub digest: u64,
}

/// Shared SoA state: one slot per rank in every array. Segments write
/// only their own ranks' `ready`/`send_done` slots and max-merge into
/// destinations' `inbox` slots; the barriers sequence the phases.
struct Shared {
    /// When each rank is ready to start its next communication step.
    ready: Vec<SimTime>,
    /// Latest incoming last-byte arrival (+ recv overhead) per rank in
    /// the current phase; reset to ZERO after each merge.
    inbox: Vec<SimTime>,
    /// Sender-side completion per rank in the current phase.
    send_done: Vec<SimTime>,
    /// Completion scratch for [`deep_fabric::Network::schedule_batch`].
    done: Vec<SimTime>,
    /// Running FNV-1a 64 digest of the virtual-time trajectory.
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_fold(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One fabric segment: owns ranks `lo..hi`, runs the compute sleep each
/// iteration and, in iteration 1, schedules the two halo directions for
/// its ranks.
// A coroutine entry point, not an API: its "arguments" are the spawn
// environment, and bundling them into a struct would only move the list.
#[allow(clippy::too_many_arguments)]
async fn segment(
    ctx: Sim,
    ib: Rc<IbFabric>,
    shared: Rc<RefCell<Shared>>,
    barrier: Barrier,
    lo: usize,
    hi: usize,
    skeleton: Rc<Skeleton>,
    iters: u32,
) {
    for iter in 0..iters {
        ctx.sleep(COMPUTE).await;
        // Iterations 2… are the driver's replay of the first: the same
        // sleep and waits (so the kernel runs the same events), nothing
        // booked or merged.
        let book = iter == 0;
        // Every access to `shared` sits between barrier.wait() pairs:
        // the phases are globally sequenced, so no two segments touch
        // it at the same (at,seq).
        if book {
            shared.borrow_mut().ready[lo..hi].fill(ctx.now());
        }
        // The ring sendrecv pair: send right, then send left.
        for halo in &skeleton.halos {
            if book {
                let (send_ov, recv_ov) = (ib.params().send_overhead, ib.params().recv_overhead);
                let sh = &mut *shared.borrow_mut();
                let ready = &sh.ready[lo..hi];
                let msgs = (lo..hi).zip(ready).map(|(r, &t)| BatchMsg {
                    src: NodeId(r as u32),
                    dst: NodeId(halo.peer.dst(r as u32, skeleton.n)),
                    bytes: halo.bytes,
                    earliest: t + send_ov,
                });
                ib.network().schedule_batch(msgs, &mut sh.done);
                for (r, &t) in (lo..hi).zip(&sh.done) {
                    sh.send_done[r] = t;
                    let dst = halo.peer.dst(r as u32, skeleton.n) as usize;
                    sh.inbox[dst] = sh.inbox[dst].max(t + recv_ov);
                }
            }
            // Everyone has scheduled; arrivals are final.
            barrier.wait().await;
            if book {
                let sh = &mut *shared.borrow_mut();
                for r in lo..hi {
                    sh.ready[r] = sh.send_done[r].max(sh.inbox[r]);
                    sh.inbox[r] = SimTime::ZERO;
                }
            }
            // Everyone has merged; next phase may schedule.
            barrier.wait().await;
        }
        // The driver runs the collective rounds and sleeps the machine
        // to the iteration end; this wait returns at that instant.
        barrier.wait().await;
    }
}

/// The driver: lockstep with the segments through the halo phases, then
/// books the skeleton's collective rounds as global batches and carries
/// virtual time to the iteration end. Iteration 1 is booked; every later
/// one replays it, ending its length after its own compute sleep.
async fn driver(
    ctx: Sim,
    ib: Rc<IbFabric>,
    shared: Rc<RefCell<Shared>>,
    barrier: Barrier,
    skeleton: Rc<Skeleton>,
    iters: u32,
) {
    // Iteration 1's length, from the end of its compute sleep.
    let mut span = None;
    for _ in 0..iters {
        ctx.sleep(COMPUTE).await;
        let start = ctx.now();
        for _ in &skeleton.halos {
            barrier.wait().await; // segments scheduled
            barrier.wait().await; // segments merged
        }
        let t_end = match span {
            Some(d) => start + d,
            None => {
                let t_end = book_collectives(&ib, &skeleton, &mut shared.borrow_mut());
                span = Some(t_end - start);
                t_end
            }
        };
        let digest = fnv_fold(shared.borrow().digest, t_end.as_nanos());
        shared.borrow_mut().digest = digest;
        ctx.sleep_until(t_end).await;
        // Release the segments into the next iteration at t_end.
        barrier.wait().await;
    }
}

/// Book iteration 1's collective rounds from the ranks' readiness after
/// the halos, and return the iteration's end.
fn book_collectives(ib: &IbFabric, skeleton: &Skeleton, sh: &mut Shared) -> SimTime {
    // The collective rounds run after the "segments merged" barrier;
    // only the driver is live until it sleeps to the iteration end.
    // Per-message `earliest` times carry every rank's skew, so no
    // virtual time passes while the rounds are laid into the fabric.
    for round in skeleton.collectives.iter().flat_map(|s| s.rounds()) {
        book_round(ib, round, &mut sh.ready, &mut sh.done);
    }
    let t_end = sh.ready.iter().copied().max().expect("ranks >= 2");
    // The replay's precondition: no link stays busy past the iteration,
    // so the next one starts on an idle fabric.
    assert!(
        ib.network().horizon() <= t_end,
        "a link outlives the iteration; it cannot be replayed"
    );
    t_end
}

/// Run the skeleton. Single-threaded and deterministic: the result
/// (including the digest) is a pure function of `cfg`.
pub fn run(cfg: DesScalingConfig) -> DesScalingResult {
    assert!(
        cfg.ranks >= 2 && cfg.ranks.is_power_of_two(),
        "des_scaling needs a power-of-two rank count >= 2, got {}",
        cfg.ranks
    );
    assert!(cfg.iters >= 1, "des_scaling needs at least one iteration");
    let mut sim = Simulation::new(cfg.seed);
    let ctx = sim.handle();
    let ib = Rc::new(IbFabric::new(&ctx, cfg.ranks));
    let n = cfg.ranks as usize;
    let segments = cfg.ranks.div_ceil(NODES_PER_LEAF);
    let shared = Rc::new(RefCell::new(Shared {
        ready: vec![SimTime::ZERO; n],
        inbox: vec![SimTime::ZERO; n],
        send_done: vec![SimTime::ZERO; n],
        done: Vec::with_capacity(n),
        digest: fnv_fold(FNV_OFFSET, cfg.ranks as u64),
    }));
    let barrier = Barrier::new(&ctx, segments as usize + 1);
    let skeleton = Rc::new(Skeleton::new(cfg.ranks, cfg.complex));
    let expected_messages = skeleton.messages_per_iter();
    for s in 0..segments {
        let lo = (s * NODES_PER_LEAF) as usize;
        let hi = (((s + 1) * NODES_PER_LEAF).min(cfg.ranks)) as usize;
        let fut = segment(
            ctx.clone(),
            ib.clone(),
            shared.clone(),
            barrier.clone(),
            lo,
            hi,
            skeleton.clone(),
            cfg.iters,
        );
        ctx.spawn_fmt(format_args!("leaf-{s}"), fut);
    }
    {
        let fut = driver(
            ctx.clone(),
            ib.clone(),
            shared.clone(),
            barrier.clone(),
            skeleton,
            cfg.iters,
        );
        ctx.spawn("driver", fut);
    }
    sim.run().assert_completed();
    let booked = ib.network().booked();
    assert_eq!(
        booked.messages, expected_messages,
        "iteration 1 must book exactly the skeleton's messages"
    );
    let iters = u64::from(cfg.iters);
    let (messages, hops) = (booked.messages * iters, booked.hops * iters);
    let sim_s = sim.now().as_secs_f64();
    let digest = fnv_fold(shared.borrow().digest, messages);
    DesScalingResult {
        ranks: cfg.ranks,
        iters: cfg.iters,
        segments,
        iter_s: sim_s / cfg.iters as f64,
        sim_s,
        messages,
        hops,
        kernel_events: sim.events_processed(),
        digest,
    }
}

/// The analytic (LogGP) per-iteration time of the same skeleton — what
/// `f09_scalability` plots for the full sweep. The DES above must land
/// within the documented tolerance of this for the SpMV class; for the
/// complex class the DES sits *above* it, because the pairwise
/// all-to-all sees spine contention the contention-free model ignores.
pub fn analytic_iter(m: &NetModel, ranks: u64, complex: bool) -> SimDuration {
    let ranks = u32::try_from(ranks).expect("rank count fits in u32");
    COMPUTE + Skeleton::new(ranks, complex).comm_time(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_des_tracks_the_analytic_model_at_small_scale() {
        let r = run(DesScalingConfig {
            ranks: 64,
            iters: 3,
            complex: false,
            seed: 1,
        });
        let model = analytic_iter(&NetModel::ib_fdr(), 64, false).as_secs_f64();
        let rel = (r.iter_s - model) / model;
        assert!(
            rel.abs() < 0.05,
            "DES iter {:.3e}s vs model {model:.3e}s (rel {rel:+.3})",
            r.iter_s
        );
        assert_eq!(r.segments, 4); // ceil(64 / 18)
        assert!(r.kernel_events > 0);
        // 3 iterations × 64 ranks × (2 halos + 6 allreduce rounds).
        assert_eq!(r.messages, 3 * 64 * (2 + 6));
    }

    #[test]
    fn runs_are_bit_identical_and_scale_invariantly_seeded() {
        let cfg = DesScalingConfig {
            ranks: 128,
            iters: 2,
            complex: true,
            seed: 9,
        };
        let a = run(cfg);
        let b = run(cfg);
        assert_eq!(a, b, "same config must reproduce bit-identically");
        // The digest is sensitive to the configuration.
        let c = run(DesScalingConfig {
            complex: false,
            ..cfg
        });
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn complex_class_is_slower_than_spmv() {
        let spmv = run(DesScalingConfig {
            ranks: 64,
            iters: 2,
            complex: false,
            seed: 1,
        });
        let cplx = run(DesScalingConfig {
            ranks: 64,
            iters: 2,
            complex: true,
            seed: 1,
        });
        // 63 all-to-all rounds dominate; the model says ~+135 us/iter.
        assert!(cplx.iter_s > spmv.iter_s * 1.05);
        // And the DES never beats the contention-free analytic bound.
        let model = analytic_iter(&NetModel::ib_fdr(), 64, true).as_secs_f64();
        assert!(cplx.iter_s >= model * 0.999);
        // 2 iterations × 64 ranks × (2 halos + 6 allreduce + 63 all-to-all).
        assert_eq!(cplx.messages, 2 * 64 * (2 + 6 + 63));
        // 4 hops across leaves, 2 within: 1 344 same-leaf messages per
        // iteration.
        assert_eq!(cplx.hops, 30_976);
    }
}
