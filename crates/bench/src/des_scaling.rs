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
//!   far-horizon timers and not 2¹⁸. A leaf books nothing and touches
//!   no shared state; it keeps its compute sleep and its 2·halos + 1
//!   barrier waits per iteration because they are the per-leaf timers
//!   and the kernel events a run executes (`kernel_events`, pinned by
//!   the benchmark's golden rows).
//! * **One `SimTime` per rank**: the driver's `ready`, when each rank
//!   may start its next phase. Every phase is a permutation, so
//!   [`book_round`] merges each rank's incoming arrival into `ready` in
//!   place, and no second per-rank array is needed.
//! * **Batched transfers** (`Network::schedule_batch_with`): each phase
//!   of an iteration (halo direction, collective round) is one batch
//!   over the contention engine, its messages built as they are booked,
//!   no kernel event — per-message `earliest` times carry each rank's
//!   skew through the phases, so virtual time only needs to advance
//!   once per iteration.
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
//! The protocol is barrier-sequenced: at the end of iteration 1's
//! compute sleep the driver fills `ready` with `now` and books both
//! halo shifts and every collective round in order, each in rank order;
//! the leaves' zero-time halo waits then pass, and the driver sleeps the
//! whole machine to the iteration's end and releases the leaves into
//! the next one. The batches hit the link horizons in a pure function
//! of the configuration, so the run (and its summary digest) is
//! bit-identical everywhere.

use std::rc::Rc;

use deep_fabric::IbFabric;
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
    /// Ring halo shifts of [`HALO_BYTES`], right then left.
    pub halos: [Round; 2],
    /// Booked after the halos, one round at a time: the 8-byte dot-product
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

/// One fabric segment: the compute sleep and the barrier waits of every
/// iteration, nothing else.
async fn leaf(ctx: Sim, barrier: Barrier, waits: usize, iters: u32) {
    for _ in 0..iters {
        ctx.sleep(COMPUTE).await;
        for _ in 0..waits {
            barrier.wait().await;
        }
    }
}

/// The driver: books iteration 1 at the end of its compute sleep, then
/// waits with the leaves through the halo phases and carries virtual
/// time to the iteration end. Every later iteration replays the first,
/// ending its length after its own compute sleep. Returns the digest of
/// the iteration ends.
async fn driver(
    ctx: Sim,
    ib: Rc<IbFabric>,
    barrier: Barrier,
    skeleton: Skeleton,
    iters: u32,
) -> u64 {
    let mut digest = fnv_fold(FNV_OFFSET, u64::from(skeleton.n));
    // Iteration 1's length, from the end of its compute sleep.
    let mut span = None;
    for _ in 0..iters {
        ctx.sleep(COMPUTE).await;
        let start = ctx.now();
        let t_end = start + *span.get_or_insert_with(|| book(&ib, &skeleton, start) - start);
        for _ in &skeleton.halos {
            barrier.wait().await; // the leaves' two waits per halo
            barrier.wait().await;
        }
        digest = fnv_fold(digest, t_end.as_nanos());
        ctx.sleep_until(t_end).await;
        // Release the segments into the next iteration at t_end.
        barrier.wait().await;
    }
    digest
}

/// Book iteration 1 for ranks that are all ready at `start`: the halo
/// shifts, then the collective rounds. Returns the iteration's end.
fn book(ib: &IbFabric, skeleton: &Skeleton, start: SimTime) -> SimTime {
    // Per-message `earliest` times carry every rank's skew, so no
    // virtual time passes while the phases are laid into the fabric.
    let mut ready = vec![start; skeleton.n as usize];
    let collectives = skeleton.collectives.iter().flat_map(|s| s.rounds());
    for round in skeleton.halos.iter().copied().chain(collectives) {
        book_round(ib, round, &mut ready);
    }
    let t_end = ready.iter().copied().max().expect("ranks >= 2");
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
    let segments = cfg.ranks.div_ceil(NODES_PER_LEAF);
    let barrier = Barrier::new(&ctx, segments as usize + 1);
    let skeleton = Skeleton::new(cfg.ranks, cfg.complex);
    let expected_messages = skeleton.messages_per_iter();
    let waits = 2 * skeleton.halos.len() + 1;
    for s in 0..segments {
        let fut = leaf(ctx.clone(), barrier.clone(), waits, cfg.iters);
        ctx.spawn_fmt(format_args!("leaf-{s}"), fut);
    }
    let fut = driver(ctx.clone(), ib.clone(), barrier, skeleton, cfg.iters);
    let driver = ctx.spawn("driver", fut);
    sim.run().assert_completed();
    let booked = ib.network().booked();
    assert_eq!(
        booked.messages, expected_messages,
        "iteration 1 must book exactly the skeleton's messages"
    );
    let iters = u64::from(cfg.iters);
    let (messages, hops) = (booked.messages * iters, booked.hops * iters);
    let sim_s = sim.now().as_secs_f64();
    let digest = fnv_fold(driver.try_result().expect("the driver finished"), messages);
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
