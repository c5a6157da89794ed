//! Communication schedules: each exchange algorithm written once, as
//! data, and the three interpreters that run it.
//!
//! A [`Schedule`] is `(kind, n, bytes)`: [`Schedule::round_count`]
//! rounds (O(1)), in each of which every rank `r` sends
//! [`Schedule::round_bytes`] to `peer.dst(r, n)` and receives from
//! `peer.src(r, n)`. Three layers read it:
//!
//! * **per rank** — [`MpiCtx::exchange`] runs one round as one
//!   `sendrecv`; the barrier, allreduce, ring, allgather and alltoall
//!   loops of [`crate::collectives`] are built on it;
//! * **batched** — [`book_round`] books one round for every rank as one
//!   `Network::schedule_batch` (the `des_scaling` driver);
//! * **closed form** — [`NetModel::time`] prices a schedule as its round
//!   count × one point-to-point message, for rank counts beyond the DES.
//!
//! Not schedules: binomial bcast/reduce (a rank's role depends on its
//! distance to the root), linear gather/scatter and the chain scan — in
//! none of them does every rank send and receive in every round.
//! `tests/schedule_agreement.rs` checks the interpreters against each
//! other.

use std::future::Future;

use deep_fabric::{BatchMsg, IbFabric, NodeId};
use deep_simkit::{SimDuration, SimTime};

use crate::comm::{Comm, Message, MpiCtx};
use crate::value::Value;

/// The exchange algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dissemination barrier: ⌈log₂ n⌉ rounds of zero-byte messages to
    /// `rank + 2ⁱ` (`bytes` is ignored).
    Barrier,
    /// Recursive-doubling allreduce: ⌈log₂ n⌉ rounds exchanging the whole
    /// payload with `rank ^ 2ⁱ`. Runs on power-of-two groups; other sizes
    /// are only priced, at the same round count.
    RecursiveDoubling,
    /// Ring allreduce: n−1 reduce-scatter then n−1 allgather rounds of
    /// `bytes / n` (at least 1) to `rank + 1`.
    RingAllreduce,
    /// Ring allgather: n−1 rounds of one `bytes` block to `rank + 1`.
    RingAllgather,
    /// Pairwise all-to-all: round i sends one `bytes` block to
    /// `rank + i + 1`.
    PairwiseShift,
    /// Pairwise-exchange all-to-all: round i swaps one `bytes` block with
    /// `rank ^ (i + 1)` (power-of-two groups).
    PairwiseXor,
}

/// Whom a rank talks to in one round of a group of `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// Send to and receive from `rank ^ k`.
    Xor(u32),
    /// Send to `rank + k`, receive from `rank − k` (mod n; `k ≤ n`).
    Shift(u32),
}

impl Peer {
    /// The rank `rank` sends to.
    pub fn dst(self, rank: u32, n: u32) -> u32 {
        match self {
            Peer::Xor(k) => rank ^ k,
            // `rank < n` and `k ≤ n`, so the sum wraps at most once.
            Peer::Shift(k) => {
                let (sum, n) = (u64::from(rank) + u64::from(k), u64::from(n));
                (if sum >= n { sum - n } else { sum }) as u32
            }
        }
    }

    /// The rank `rank` receives from.
    pub fn src(self, rank: u32, n: u32) -> u32 {
        match self {
            Peer::Xor(_) => self.dst(rank, n),
            Peer::Shift(k) => Peer::Shift(n - k).dst(rank, n),
        }
    }
}

/// One round: every rank sends `bytes` to its peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    /// Whom each rank sends to and receives from.
    pub peer: Peer,
    /// Payload of every message of the round.
    pub bytes: u64,
}

/// One exchange algorithm over `n` ranks and a payload of `bytes` (what
/// `bytes` counts is per [`Kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// The algorithm.
    pub kind: Kind,
    /// Group size.
    pub n: u32,
    /// Payload, as the kind defines it.
    pub bytes: u64,
}

impl Schedule {
    /// `kind` over `n` ranks with a payload of `bytes`.
    pub fn new(kind: Kind, n: u32, bytes: u64) -> Schedule {
        Schedule { kind, n, bytes }
    }

    /// Number of rounds, in O(1).
    pub fn round_count(&self) -> u64 {
        let n = u64::from(self.n);
        if n <= 1 {
            return 0;
        }
        match self.kind {
            Kind::Barrier | Kind::RecursiveDoubling => u64::from(64 - (n - 1).leading_zeros()),
            Kind::RingAllreduce => 2 * (n - 1),
            Kind::RingAllgather | Kind::PairwiseShift | Kind::PairwiseXor => n - 1,
        }
    }

    /// The payload of every message, the same in every round.
    pub fn round_bytes(&self) -> u64 {
        match self.kind {
            Kind::Barrier => 0,
            Kind::RingAllreduce => (self.bytes / u64::from(self.n)).max(1),
            _ => self.bytes,
        }
    }

    /// Every round, in order.
    pub fn rounds(self) -> impl Iterator<Item = Round> {
        let (kind, bytes) = (self.kind, self.round_bytes());
        (0..self.round_count()).map(move |i| {
            let i = i as u32;
            let peer = match kind {
                Kind::Barrier => Peer::Shift(1 << i),
                Kind::RecursiveDoubling => Peer::Xor(1 << i),
                Kind::RingAllreduce | Kind::RingAllgather => Peer::Shift(1),
                Kind::PairwiseShift => Peer::Shift(i + 1),
                Kind::PairwiseXor => Peer::Xor(i + 1),
            };
            Round { peer, bytes }
        })
    }
}

impl MpiCtx {
    /// One round on `comm` as one `sendrecv`: `value` goes to this rank's
    /// peer, the returned message comes from the rank whose peer this
    /// rank is, both on `tag`. The future is the `sendrecv` itself.
    pub fn exchange<'a>(
        &'a self,
        comm: &'a Comm,
        round: Round,
        tag: u32,
        value: Value,
    ) -> impl Future<Output = Message> + 'a {
        let (rank, n) = (comm.rank(), comm.size());
        let (dst, src) = (round.peer.dst(rank, n), round.peer.src(rank, n));
        self.sendrecv(comm, dst, tag, value, round.bytes, Some(src), Some(tag))
    }
}

/// One round for all `ready.len()` ranks as one `schedule_batch` on
/// `ib`: rank r's message is built as it is booked and enters the
/// fabric at `ready[r]` + the send overhead; `done[r]` receives its
/// arrival, and `ready[r]` becomes the later of that arrival and the
/// arrival of r's incoming one + the receive overhead. No virtual time
/// passes.
pub fn book_round(ib: &IbFabric, round: Round, ready: &mut [SimTime], done: &mut Vec<SimTime>) {
    let (send_ov, recv_ov) = (ib.params().send_overhead, ib.params().recv_overhead);
    let n = ready.len() as u32;
    let msgs = (0..n).zip(ready.iter()).map(|(r, &t)| BatchMsg {
        src: NodeId(r),
        dst: NodeId(round.peer.dst(r, n)),
        bytes: round.bytes,
        earliest: t + send_ov,
    });
    ib.network().schedule_batch(msgs, done);
    for (r, t) in (0..n).zip(ready.iter_mut()) {
        *t = done[r as usize].max(done[round.peer.src(r, n) as usize] + recv_ov);
    }
}

/// Closed-form (LogGP-style) machine parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetModel {
    /// End-to-end latency of a small message, including software overheads.
    pub latency: SimDuration,
    /// Payload bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Per-message CPU overhead (send + recv software path).
    pub overhead: SimDuration,
}

impl NetModel {
    /// Parameters matching the simulated InfiniBand cluster fabric.
    pub fn ib_fdr() -> NetModel {
        NetModel {
            latency: SimDuration::nanos(1_300),
            bandwidth_bps: 6.8e9,
            overhead: SimDuration::nanos(240),
        }
    }

    /// Parameters matching the simulated EXTOLL booster fabric.
    pub fn extoll() -> NetModel {
        NetModel {
            latency: SimDuration::nanos(850),
            bandwidth_bps: 7.0e9,
            overhead: SimDuration::nanos(240),
        }
    }

    /// Time of one point-to-point message of `bytes`.
    pub fn p2p(&self, bytes: u64) -> SimDuration {
        self.latency + self.overhead + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }

    /// Time of a schedule: one contention-free message per round.
    pub fn time(&self, s: &Schedule) -> SimDuration {
        self.p2p(s.round_bytes()) * s.round_count()
    }
}
