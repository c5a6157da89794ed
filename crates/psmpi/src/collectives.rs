//! Collective operations, implemented over the point-to-point layer with
//! the classic algorithms ParaStation MPI uses. The exchange algorithms
//! are [`crate::schedule`]s, run here round by round through
//! [`MpiCtx::exchange`]; this module adds only their value logic
//! (combine order, block indices, output slots).
//!
//! * barrier — dissemination (⌈log₂ n⌉ rounds)
//! * bcast — binomial tree
//! * reduce — binomial tree (commutative ops)
//! * allreduce — ring (reduce-scatter + allgather) for large splittable
//!   payloads, recursive doubling for power-of-two groups, otherwise
//!   reduce + bcast
//! * gather / scatter — linear to/from root
//! * allgather — ring (n−1 steps)
//! * alltoall — pairwise rounds
//!
//! Every collective takes a [`Value`] and a byte count. The messages it
//! books — and so the simulated time — depend on the byte count alone:
//! pass real content where a test or a caller reads the result, and
//! [`Value::Unit`] with the same `bytes` where only the time is wanted.

use crate::comm::{Comm, MpiCtx, TAG_INTERNAL_BASE};
use crate::schedule::{Kind, Schedule};
use crate::value::{ReduceOp, Value};

const TAG_BARRIER: u32 = TAG_INTERNAL_BASE + 1;
const TAG_BCAST: u32 = TAG_INTERNAL_BASE + 2;
const TAG_REDUCE: u32 = TAG_INTERNAL_BASE + 3;
const TAG_ALLREDUCE: u32 = TAG_INTERNAL_BASE + 4;
const TAG_GATHER: u32 = TAG_INTERNAL_BASE + 5;
const TAG_SCATTER: u32 = TAG_INTERNAL_BASE + 6;
const TAG_ALLGATHER: u32 = TAG_INTERNAL_BASE + 7;
const TAG_ALLTOALL: u32 = TAG_INTERNAL_BASE + 8;

impl MpiCtx {
    /// Dissemination barrier over an intra-communicator.
    pub async fn barrier(&self, comm: &Comm) {
        for round in Schedule::new(Kind::Barrier, comm.size(), 0).rounds() {
            self.exchange(comm, round, TAG_BARRIER, Value::Unit).await;
        }
    }

    /// Binomial-tree broadcast; every rank returns the root's value.
    /// Non-root callers pass any placeholder value.
    pub async fn bcast(&self, comm: &Comm, root: u32, value: Value, bytes: u64) -> Value {
        let n = comm.size();
        let rank = comm.rank();
        if n <= 1 {
            return value;
        }
        let vrank = (rank + n - root) % n;
        let mut value = value;

        // Receive from the parent (the rank that differs in the lowest set bit).
        let mut mask: u32 = 1;
        while mask < n {
            if vrank & mask != 0 {
                let parent = ((vrank ^ mask) + root) % n;
                let msg = self.recv(comm, Some(parent), Some(TAG_BCAST)).await;
                value = msg.value;
                break;
            }
            mask <<= 1;
        }
        // Forward to children below the break mask.
        mask >>= 1;
        while mask > 0 {
            if vrank & (mask - 1) == 0 && vrank & mask == 0 && vrank + mask < n {
                let child = ((vrank | mask) + root) % n;
                self.send(comm, child, TAG_BCAST, value.clone(), bytes)
                    .await;
            }
            mask >>= 1;
        }
        value
    }

    /// Binomial-tree reduction to `root`; returns `Some(result)` there.
    pub async fn reduce(
        &self,
        comm: &Comm,
        root: u32,
        op: ReduceOp,
        contrib: Value,
        bytes: u64,
    ) -> Option<Value> {
        let n = comm.size();
        let rank = comm.rank();
        if n <= 1 {
            return Some(contrib);
        }
        let vrank = (rank + n - root) % n;
        let mut acc = contrib;
        let mut mask: u32 = 1;
        while mask < n {
            if vrank & mask == 0 {
                let peer_v = vrank | mask;
                if peer_v < n {
                    let peer = (peer_v + root) % n;
                    let msg = self.recv(comm, Some(peer), Some(TAG_REDUCE)).await;
                    // Combine lower-vrank ⊕ higher-vrank for determinism.
                    acc = op.combine(&acc, &msg.value);
                }
            } else {
                let parent = ((vrank ^ mask) + root) % n;
                self.send(comm, parent, TAG_REDUCE, acc.clone(), bytes)
                    .await;
                break;
            }
            mask <<= 1;
        }
        if vrank == 0 {
            Some(acc)
        } else {
            None
        }
    }

    /// Allreduce with size-adaptive algorithm selection, as in real
    /// ParaStation MPI: ring (bandwidth-optimal) for large splittable
    /// payloads, recursive doubling for power-of-two groups, and
    /// reduce-then-broadcast otherwise. Every rank returns the result.
    pub async fn allreduce(&self, comm: &Comm, op: ReduceOp, contrib: Value, bytes: u64) -> Value {
        let n = comm.size();
        if n <= 1 {
            return contrib;
        }
        // Ring pays 2(n−1) latencies to move only 2·len/n data per step:
        // worth it for big payloads that can actually be split, i.e. hold
        // at least one double per rank. A cost-only contribution stands
        // for `bytes / 8` doubles.
        let ring_bytes = match &contrib {
            Value::VecF64(v) => 8 * v.len() as u64,
            Value::Unit => bytes,
            _ => 0,
        };
        if bytes >= self.universe().params().allreduce_ring_threshold && ring_bytes / 8 >= n as u64
        {
            return self.ring(comm, op, contrib, ring_bytes).await;
        }
        if n.is_power_of_two() {
            let mut acc = contrib;
            for round in Schedule::new(Kind::RecursiveDoubling, n, bytes).rounds() {
                let msg = self.exchange(comm, round, TAG_ALLREDUCE, acc.clone()).await;
                // Deterministic order: lower rank's value on the left.
                acc = if comm.rank() < msg.src {
                    op.combine(&acc, &msg.value)
                } else {
                    op.combine(&msg.value, &acc)
                };
            }
            acc
        } else {
            let partial = self.reduce(comm, 0, op, contrib, bytes).await;
            self.bcast(comm, 0, partial.unwrap_or(Value::Unit), bytes)
                .await
        }
    }

    /// Linear gather; `Some(values-by-rank)` at the root.
    pub async fn gather(
        &self,
        comm: &Comm,
        root: u32,
        contrib: Value,
        bytes: u64,
    ) -> Option<Vec<Value>> {
        let n = comm.size();
        let rank = comm.rank();
        if rank == root {
            // Receive from each specific rank (not ANY_SOURCE): this keeps
            // back-to-back gathers on one communicator from stealing each
            // other's contributions.
            let mut reqs = Vec::with_capacity(n as usize - 1);
            for r in 0..n {
                if r != root {
                    reqs.push((r, self.irecv(comm, Some(r), Some(TAG_GATHER))));
                }
            }
            let mut out: Vec<Option<Value>> = vec![None; n as usize];
            out[rank as usize] = Some(contrib);
            for (r, req) in reqs {
                out[r as usize] = Some(req.wait().await.value);
            }
            Some(
                out.into_iter()
                    .map(|v| v.expect("every rank reported"))
                    .collect(),
            )
        } else {
            self.send(comm, root, TAG_GATHER, contrib, bytes).await;
            None
        }
    }

    /// Linear scatter; the root passes one value per rank.
    pub async fn scatter(
        &self,
        comm: &Comm,
        root: u32,
        values: Option<Vec<Value>>,
        bytes_each: u64,
    ) -> Value {
        let n = comm.size();
        let rank = comm.rank();
        if rank == root {
            let values = values.expect("root must provide values");
            assert_eq!(values.len(), n as usize, "one value per rank");
            let mut mine = Value::Unit;
            for (r, v) in values.into_iter().enumerate() {
                if r as u32 == rank {
                    mine = v;
                } else {
                    self.send(comm, r as u32, TAG_SCATTER, v, bytes_each).await;
                }
            }
            mine
        } else {
            self.recv(comm, Some(root), Some(TAG_SCATTER)).await.value
        }
    }

    /// Ring allgather; every rank returns all contributions indexed by rank.
    pub async fn allgather(&self, comm: &Comm, contrib: Value, bytes: u64) -> Vec<Value> {
        let n = comm.size();
        let rank = comm.rank();
        let mut out: Vec<Option<Value>> = vec![None; n as usize];
        out[rank as usize] = Some(contrib.clone());
        let mut carry = contrib;
        let rounds = Schedule::new(Kind::RingAllgather, n, bytes).rounds();
        for (step, round) in (0..).zip(rounds) {
            let msg = self.exchange(comm, round, TAG_ALLGATHER, carry).await;
            let origin = (rank + n - 1 - step) % n;
            out[origin as usize] = Some(msg.value.clone());
            carry = msg.value;
        }
        out.into_iter()
            .map(|v| v.expect("ring visits every block"))
            .collect()
    }

    /// Pairwise alltoall; `values[r]` goes to rank `r`, result`[r]` came
    /// from rank `r`.
    pub async fn alltoall(&self, comm: &Comm, values: Vec<Value>, bytes_each: u64) -> Vec<Value> {
        let n = comm.size();
        let rank = comm.rank();
        assert_eq!(values.len(), n as usize, "one block per destination");
        let mut out: Vec<Option<Value>> = vec![None; n as usize];
        out[rank as usize] = Some(values[rank as usize].clone());
        for round in Schedule::new(Kind::PairwiseShift, n, bytes_each).rounds() {
            let block = values[round.peer.dst(rank, n) as usize].clone();
            let msg = self.exchange(comm, round, TAG_ALLTOALL, block).await;
            out[msg.src as usize] = Some(msg.value);
        }
        out.into_iter()
            .map(|v| v.expect("all rounds completed"))
            .collect()
    }

    /// Collective communicator split (`MPI_Comm_split`): ranks with equal
    /// `color` form a new intra-communicator, ordered by `(key, rank)`.
    pub async fn comm_split(&self, comm: &Comm, color: u32, key: u32) -> Comm {
        // Exchange (color, key) — the real collective agreement traffic.
        let mine = Value::vec(vec![color as f64, key as f64]);
        let all = self.allgather(comm, mine, 16).await;
        let mut groups: Vec<(u32, u32, u32)> = Vec::with_capacity(all.len()); // (color,key,rank)
        for (r, v) in all.iter().enumerate() {
            let s = v.as_vec();
            groups.push((s[0] as u32, s[1] as u32, r as u32));
        }
        // Members of my color, ordered by (key, old rank).
        let mut mine_group: Vec<(u32, u32)> = groups
            .iter()
            .filter(|g| g.0 == color)
            .map(|g| (g.1, g.2))
            .collect();
        mine_group.sort();
        let members: Vec<_> = mine_group.iter().map(|&(_, r)| comm.local_ep(r)).collect();
        let my_rank = mine_group
            .iter()
            .position(|&(_, r)| r == comm.rank())
            .expect("caller is in its own color group") as u32;
        // Context agreement: derived deterministically, salted by color so
        // sibling groups get distinct contexts.
        let context = comm.derive_context(color as u64);
        Comm::intra(context, std::rc::Rc::new(members), my_rank)
    }

    /// Communicator duplication (`MPI_Comm_dup`).
    pub async fn comm_dup(&self, comm: &Comm) -> Comm {
        self.comm_split(comm, 0, comm.rank()).await
    }

    /// Merge an inter-communicator into an intra-communicator
    /// (`MPI_Intercomm_merge`). `high` puts the local group second.
    pub fn intercomm_merge(&self, inter: &Comm, high: bool) -> Comm {
        let local = inter.members();
        let remote = inter.remote_members().expect("merge needs an intercomm");
        let (first, second) = if high {
            (remote.as_slice(), local.as_slice())
        } else {
            (local.as_slice(), remote.as_slice())
        };
        let mut members = Vec::with_capacity(first.len() + second.len());
        members.extend_from_slice(first);
        members.extend_from_slice(second);
        let offset = if high { remote.len() as u32 } else { 0 };
        let my_rank = offset + inter.rank();
        // Both sides derive the same context from the shared inter context.
        let context = inter.derive_context(0x4D45_5247); // "MERG"
        Comm::intra(context, std::rc::Rc::new(members), my_rank)
    }
}

// ---------------------------------------------------------------------------
// Extended collectives: ring allreduce, scan, reduce_scatter
// ---------------------------------------------------------------------------

const TAG_RING_RS: u32 = TAG_INTERNAL_BASE + 9;
const TAG_RING_AG: u32 = TAG_INTERNAL_BASE + 10;
const TAG_SCAN: u32 = TAG_INTERNAL_BASE + 11;

/// Split `v` into `n` nearly-equal blocks (first `len % n` blocks one
/// element longer).
fn split_blocks(v: &[f64], n: usize) -> Vec<Value> {
    let per = v.len() / n;
    let extra = v.len() % n;
    let mut out = Vec::with_capacity(n);
    let mut off = 0;
    for i in 0..n {
        let len = per + usize::from(i < extra);
        out.push(Value::vec(v[off..off + len].to_vec()));
        off += len;
    }
    out
}

impl MpiCtx {
    /// Ring allreduce (reduce-scatter + allgather): bandwidth-optimal for
    /// large vectors, `2(n−1)` steps of `len/n` elements. Chosen
    /// automatically by [`MpiCtx::allreduce`] above the universe's
    /// `allreduce_ring_threshold` when the payload holds at least one
    /// double per rank; this entry forces it for a real vector.
    pub async fn allreduce_ring(&self, comm: &Comm, op: ReduceOp, contrib: Vec<f64>) -> Value {
        let bytes = 8 * contrib.len() as u64;
        self.ring(comm, op, Value::vec(contrib), bytes).await
    }

    /// The ring allreduce's value logic. `contrib` is a vector, split into
    /// one block per rank, or `Value::Unit`, whose blocks are cost-only:
    /// either way the same [`Kind::RingAllreduce`] rounds are booked.
    /// Blocks are `Rc`-shared, so a send is a refcount bump and the
    /// receiver folds the incoming block into the one it owns.
    async fn ring(&self, comm: &Comm, op: ReduceOp, contrib: Value, bytes: u64) -> Value {
        let n = comm.size() as usize;
        let rank = comm.rank() as usize;
        if n <= 1 {
            return contrib;
        }
        let mut blocks = match contrib {
            Value::Unit => vec![Value::Unit; n],
            Value::VecF64(v) => split_blocks(&v, n),
            other => panic!("ring allreduce expects a vector or Unit, got {other}"),
        };
        let mut rounds = Schedule::new(Kind::RingAllreduce, n as u32, bytes).rounds();

        // Phase 1: reduce-scatter. After n-1 steps, block (rank+1)%n is
        // fully reduced at this rank.
        for (s, round) in (0..n - 1).zip(&mut rounds) {
            let send_idx = (rank + n - s) % n;
            let recv_idx = (rank + n - s - 1) % n;
            let msg = self
                .exchange(comm, round, TAG_RING_RS, blocks[send_idx].clone())
                .await;
            // Deterministic order: combine in ascending origin-rank order.
            // The incoming partial already aggregates lower-origin ranks.
            op.combine_into(&msg.value, &mut blocks[recv_idx]);
        }
        // Phase 2: allgather of the reduced blocks.
        for (s, round) in (0..n - 1).zip(&mut rounds) {
            let send_idx = (rank + 1 + n - s) % n;
            let recv_idx = (rank + n - s) % n;
            let msg = self
                .exchange(comm, round, TAG_RING_AG, blocks[send_idx].clone())
                .await;
            blocks[recv_idx] = msg.value;
        }
        if matches!(blocks[0], Value::Unit) {
            return Value::Unit;
        }
        let mut out = Vec::with_capacity((bytes / 8) as usize);
        for b in &blocks {
            out.extend_from_slice(b.as_vec());
        }
        Value::vec(out)
    }

    /// Inclusive prefix reduction (`MPI_Scan`): rank r returns the
    /// reduction of contributions from ranks `0..=r`.
    pub async fn scan(&self, comm: &Comm, op: ReduceOp, contrib: Value, bytes: u64) -> Value {
        let rank = comm.rank();
        let n = comm.size();
        let mut acc = contrib;
        if rank > 0 {
            let msg = self.recv(comm, Some(rank - 1), Some(TAG_SCAN)).await;
            acc = op.combine(&msg.value, &acc);
        }
        if rank + 1 < n {
            self.send(comm, rank + 1, TAG_SCAN, acc.clone(), bytes)
                .await;
        }
        acc
    }

    /// Block reduce-scatter (`MPI_Reduce_scatter_block`): every rank
    /// contributes one value per rank; rank r returns the reduction of
    /// everyone's r-th contribution. Implemented as alltoall + local
    /// combine (pairwise-exchange cost model).
    pub async fn reduce_scatter_block(
        &self,
        comm: &Comm,
        op: ReduceOp,
        contribs: Vec<Value>,
        bytes_each: u64,
    ) -> Value {
        let n = comm.size();
        assert_eq!(contribs.len(), n as usize, "one contribution per rank");
        let mine = self.alltoall(comm, contribs, bytes_each).await;
        let mut it = mine.into_iter();
        let mut acc = it.next().expect("group is non-empty");
        for v in it {
            acc = op.combine(&acc, &v);
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// Nonblocking collectives (MPI_I*): spawned as background operations.
// MPI semantics apply: all ranks must call them in the same order per
// communicator, and the matching blocking completion is `Request::wait`.
// ---------------------------------------------------------------------------

impl MpiCtx {
    /// Nonblocking barrier (`MPI_Ibarrier`).
    pub fn ibarrier(&self, comm: &Comm) -> crate::comm::Request<()> {
        let me = self.clone();
        let comm = comm.clone();
        crate::comm::Request::spawned(self.sim().spawn("ibarrier", async move {
            me.barrier(&comm).await;
        }))
    }

    /// Nonblocking allreduce (`MPI_Iallreduce`).
    pub fn iallreduce(
        &self,
        comm: &Comm,
        op: ReduceOp,
        contrib: Value,
        bytes: u64,
    ) -> crate::comm::Request<Value> {
        let me = self.clone();
        let comm = comm.clone();
        crate::comm::Request::spawned(self.sim().spawn("iallreduce", async move {
            me.allreduce(&comm, op, contrib, bytes).await
        }))
    }

    /// Nonblocking broadcast (`MPI_Ibcast`).
    pub fn ibcast(
        &self,
        comm: &Comm,
        root: u32,
        value: Value,
        bytes: u64,
    ) -> crate::comm::Request<Value> {
        let me = self.clone();
        let comm = comm.clone();
        crate::comm::Request::spawned(self.sim().spawn("ibcast", async move {
            me.bcast(&comm, root, value, bytes).await
        }))
    }
}
