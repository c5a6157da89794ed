//! The three interpreters of every communication schedule agree: psmpi
//! running it per rank, `book_round` booking it in batches, and
//! `NetModel::time` pricing it in closed form. Cases: every kind at
//! n ∈ 2..=16, 32, 64 (powers of two for the XOR kinds) × bytes ∈
//! {8 B, 4 KiB, 64 KiB}, on an FDR fat tree of 18 hosts per leaf.
//!
//! Exact: the wire sees each rank's rounds in schedule order, and psmpi
//! counts n × rounds messages.
//!
//! Timing, measured over the 240 cases (simulated time, so any host):
//! * batched ≤ per rank, by 1.007–2.05×: per rank adds psmpi's software
//!   overhead, the eager copy, a 64-byte header and, above 16 KiB, a
//!   rendezvous handshake;
//! * per rank ÷ closed form ∈ [0.889, 3.04], batched ÷ closed form ∈
//!   [0.805, 2.14]. The closed form's 1.54 µs per message is above a
//!   one-leaf fat tree's small-message latency (the low end); it has no
//!   contention term, so 64 KiB all-to-alls and recursive doubling at 64
//!   ranks, which queue on the leaf–spine trunks, are the high end;
//! * closed form ≤ per rank whenever messages are ≥ 4 KiB, and ≤ both
//!   DES times for recursive doubling and the two all-to-alls once they
//!   span two leaves (n > 18) with ≥ 4 KiB messages.

use std::cell::RefCell;
use std::rc::Rc;

use deep_fabric::{IbFabric, LinkFailure, TransferStats};
use deep_psmpi::schedule::{book_round, Kind, Peer, Schedule};
use deep_psmpi::{
    launch_world, EpId, IbWire, LocalBoxFuture, MpiCtx, MpiParams, NetModel, ReduceOp, Universe,
    Value, Wire,
};
use deep_simkit::{SimTime, Simulation};

/// An IB wire that logs every transfer `(src, dst, bytes)` in call order.
struct Recording {
    inner: IbWire,
    log: RefCell<Vec<(u32, u32, u64)>>,
}

impl Wire for Recording {
    fn transfer(
        &self,
        src: EpId,
        dst: EpId,
        bytes: u64,
    ) -> LocalBoxFuture<'_, Result<TransferStats, LinkFailure>> {
        self.log.borrow_mut().push((src.0, dst.0, bytes));
        self.inner.transfer(src, dst, bytes)
    }

    fn name(&self) -> &str {
        "recording"
    }
}

/// The psmpi entry that runs `s` on one rank.
async fn run_rank(m: MpiCtx, s: Schedule) {
    let w = m.world().clone();
    match s.kind {
        Kind::Barrier => m.barrier(&w).await,
        Kind::RecursiveDoubling => {
            m.allreduce(&w, ReduceOp::Sum, Value::Unit, s.bytes).await;
        }
        Kind::RingAllreduce => {
            let contrib = vec![1.0; (s.bytes / 8) as usize];
            m.allreduce_ring(&w, ReduceOp::Sum, contrib).await;
        }
        Kind::RingAllgather => {
            m.allgather(&w, Value::Unit, s.bytes).await;
        }
        Kind::PairwiseShift => {
            m.alltoall(&w, vec![Value::Unit; s.n as usize], s.bytes)
                .await;
        }
        // Only `des_scaling` books this one; psmpi runs it as bare rounds.
        Kind::PairwiseXor => {
            for round in s.rounds() {
                m.exchange(&w, round, 1, Value::Unit).await;
            }
        }
    }
}

/// One psmpi run of `s` on an FDR fat tree: end time, messages counted
/// by `Universe::traffic`, and the wire's log.
fn per_rank(s: Schedule, params: MpiParams) -> (SimTime, u64, Vec<(u32, u32, u64)>) {
    let mut sim = Simulation::new(1);
    let ctx = sim.handle();
    let wire = Rc::new(Recording {
        inner: IbWire::new(Rc::new(IbFabric::new(&ctx, s.n))),
        log: RefCell::default(),
    });
    // Never the ring: the adaptive allreduce takes recursive doubling.
    let params = MpiParams {
        allreduce_ring_threshold: u64::MAX,
        ..params
    };
    let uni = Universe::new(&ctx, wire.clone(), s.n as usize, params);
    launch_world(&uni, "s", (0..s.n).map(EpId).collect(), move |m| {
        run_rank(m, s)
    });
    sim.run().assert_completed();
    (sim.now(), uni.traffic().messages, wire.log.take())
}

/// `s` booked round by round on a fresh fat tree; the last rank's
/// completion.
fn batched(s: Schedule) -> SimTime {
    let sim = Simulation::new(1);
    let ib = IbFabric::new(&sim.handle(), s.n);
    let mut ready = vec![SimTime::ZERO; s.n as usize];
    let mut done = Vec::new();
    for round in s.rounds() {
        book_round(&ib, round, &mut ready, &mut done);
    }
    ready.into_iter().max().unwrap_or(SimTime::ZERO)
}

fn cases() -> Vec<Schedule> {
    let sizes: Vec<u32> = (2..=16).chain([32, 64]).collect();
    let kinds = [
        Kind::Barrier,
        Kind::RecursiveDoubling,
        Kind::RingAllreduce,
        Kind::RingAllgather,
        Kind::PairwiseShift,
        Kind::PairwiseXor,
    ];
    let mut out = Vec::new();
    for kind in kinds {
        let xor = matches!(kind, Kind::RecursiveDoubling | Kind::PairwiseXor);
        for &n in sizes.iter().filter(|n| !xor || n.is_power_of_two()) {
            for bytes in [8, 4 << 10, 64 << 10] {
                out.push(Schedule { kind, n, bytes });
            }
        }
    }
    out
}

#[test]
fn psmpi_sends_exactly_the_scheduled_rounds() {
    let header = MpiParams::default().header_bytes;
    // Every message eager: each is one wire transfer, so a rank's
    // transfers are its rounds in order.
    let eager = MpiParams {
        eager_threshold: u64::MAX,
        ..MpiParams::default()
    };
    for s in cases() {
        let n = s.n;
        let (_, msgs, log) = per_rank(s, eager);
        for r in 0..n {
            let sent: Vec<(u32, u64)> = log
                .iter()
                .filter(|&&(src, _, _)| src == r)
                .map(|&(_, dst, bytes)| (dst, bytes))
                .collect();
            let rounds: Vec<(u32, u64)> = s
                .rounds()
                .map(|round| (round.peer.dst(r, n), round.bytes + header))
                .collect();
            assert_eq!(sent, rounds, "{s:?}, rank {r}");
        }
        assert_eq!(msgs, u64::from(n) * s.round_count(), "{s:?}");
    }
}

#[test]
fn per_rank_batched_and_closed_form_times_agree() {
    let model = NetModel::ib_fdr();
    for s in cases() {
        // The default protocol: rendezvous above 16 KiB.
        let (t_rank, msgs, _) = per_rank(s, MpiParams::default());
        assert_eq!(msgs, u64::from(s.n) * s.round_count(), "{s:?}");
        let t_rank = t_rank.as_secs_f64();
        let t_batch = batched(s).as_secs_f64();
        let t_model = model.time(&s).as_secs_f64();
        let ratios = [t_rank / t_batch, t_rank / t_model, t_batch / t_model];
        let why =
            format!("{s:?}: per rank / batched, per rank / closed, batched / closed {ratios:?}");
        assert!((1.0..2.1).contains(&ratios[0]), "{why}");
        assert!((0.88..3.1).contains(&ratios[1]), "{why}");
        assert!((0.80..2.2).contains(&ratios[2]), "{why}");
        if s.round_bytes() >= 4 << 10 {
            assert!(t_model <= t_rank, "{why}");
            let contended = matches!(
                s.kind,
                Kind::RecursiveDoubling | Kind::PairwiseShift | Kind::PairwiseXor
            );
            if contended && s.n > 18 {
                assert!(t_model <= t_batch, "{why}");
            }
        }
    }
}

/// Round counts are the classic ones for any n: ⌈log₂ n⌉ for the barrier
/// and recursive doubling (which `f18` prices at non-power-of-two node
/// counts), 2(n−1) for the ring allreduce, n−1 for the rest.
#[test]
fn round_counts_are_the_classic_formulas() {
    for n in 1..=1000u32 {
        let count = |kind| Schedule { kind, n, bytes: 8 }.round_count();
        let log2_ceil = (0..).find(|&k| 1u64 << k >= u64::from(n)).unwrap();
        let m = u64::from(n) - 1;
        assert_eq!(count(Kind::Barrier), log2_ceil, "n = {n}");
        assert_eq!(count(Kind::RecursiveDoubling), log2_ceil, "n = {n}");
        assert_eq!(count(Kind::RingAllreduce), 2 * m, "n = {n}");
        for kind in [Kind::RingAllgather, Kind::PairwiseShift, Kind::PairwiseXor] {
            assert_eq!(count(kind), m, "n = {n}");
        }
    }
}

/// A shift peer is the modulo form for every group of up to 64 ranks
/// and every distance `k ≤ n`, `k = n` included.
#[test]
fn shift_peers_are_the_modulo_form() {
    for n in 1..=64u32 {
        for k in 0..=n {
            for rank in 0..n {
                let (dst, src) = (Peer::Shift(k).dst(rank, n), Peer::Shift(k).src(rank, n));
                assert_eq!(dst, (rank + k) % n, "{rank} + {k} mod {n}");
                assert_eq!(src, (rank + n - k) % n, "{rank} - {k} mod {n}");
            }
        }
    }
}

/// One point-to-point message costs latency + overhead + bytes at the
/// payload bandwidth: for bulk messages the bandwidth term dominates.
#[test]
fn p2p_is_latency_plus_bandwidth() {
    let m = NetModel::extoll();
    let bulk = 64 << 20;
    let pure_bw = deep_simkit::SimDuration::from_secs_f64(bulk as f64 / m.bandwidth_bps);
    assert_eq!(m.p2p(bulk), m.latency + m.overhead + pure_bw);
    assert!(m.p2p(bulk) < pure_bw + deep_simkit::SimDuration::micros(2));
}
