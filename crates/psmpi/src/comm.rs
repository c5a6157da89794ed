//! Communicators and the point-to-point layer.
//!
//! [`Comm`] mirrors MPI semantics: an intra-communicator is an ordered
//! group of endpoints with a private matching context; an
//! inter-communicator (the product of `MPI_Comm_spawn`, slide 26) adds a
//! remote group — point-to-point ranks then address the *remote* side.
//!
//! [`MpiCtx`] is what a rank's application code holds: its endpoint, its
//! `MPI_COMM_WORLD`, and (for spawned worlds) the parent inter-communicator.

use std::cell::Cell;
use std::rc::Rc;

use deep_simkit::{OneShot, Sim, SimDuration};

use crate::universe::{EnvKind, Envelope, Pattern, Universe};
use crate::value::Value;
use crate::wire::EpId;

/// Tag value reserved for internal protocol messages.
pub const TAG_INTERNAL_BASE: u32 = 0x7000_0000;

/// A received message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender's rank (in the sender's group of the communicator).
    pub src: u32,
    /// Message tag.
    pub tag: u32,
    /// Payload.
    pub value: Value,
    /// Payload bytes charged on the wire.
    pub bytes: u64,
}

/// An MPI communicator (intra or inter).
#[derive(Clone, Debug)]
pub struct Comm {
    context: u64,
    members: Rc<Vec<EpId>>,
    my_rank: u32,
    remote: Option<Rc<Vec<EpId>>>,
    /// Per-rank derivation counter for deterministic derived contexts.
    derive_seq: Rc<Cell<u64>>,
}

impl Comm {
    /// Build an intra-communicator.
    pub fn intra(context: u64, members: Rc<Vec<EpId>>, my_rank: u32) -> Comm {
        debug_assert!((my_rank as usize) < members.len());
        Comm {
            context,
            members,
            my_rank,
            remote: None,
            derive_seq: Rc::new(Cell::new(0)),
        }
    }

    /// Build an inter-communicator (local group + remote group).
    pub fn inter(context: u64, local: Rc<Vec<EpId>>, my_rank: u32, remote: Rc<Vec<EpId>>) -> Comm {
        Comm {
            context,
            members: local,
            my_rank,
            remote: Some(remote),
            derive_seq: Rc::new(Cell::new(0)),
        }
    }

    /// This rank within the (local) group.
    pub fn rank(&self) -> u32 {
        self.my_rank
    }

    /// Size of the local group.
    pub fn size(&self) -> u32 {
        self.members.len() as u32
    }

    /// Size of the remote group (inter-communicators only).
    pub fn remote_size(&self) -> u32 {
        self.remote.as_ref().map_or(0, |r| r.len() as u32)
    }

    /// True for inter-communicators.
    pub fn is_inter(&self) -> bool {
        self.remote.is_some()
    }

    /// Matching context id.
    pub fn context(&self) -> u64 {
        self.context
    }

    /// Local group members.
    pub fn members(&self) -> &Rc<Vec<EpId>> {
        &self.members
    }

    /// Remote group members, if inter.
    pub fn remote_members(&self) -> Option<&Rc<Vec<EpId>>> {
        self.remote.as_ref()
    }

    /// The endpoint that p2p rank `r` addresses: remote group on an
    /// inter-communicator, local group otherwise.
    fn peer_ep(&self, r: u32) -> EpId {
        match &self.remote {
            Some(remote) => remote[r as usize],
            None => self.members[r as usize],
        }
    }

    /// Endpoint of local-group rank `r`.
    pub fn local_ep(&self, r: u32) -> EpId {
        self.members[r as usize]
    }

    /// Deterministically derive a context id that every member derives
    /// identically (used where real MPI hides the agreement inside the
    /// collective). `salt` must be equal across members.
    pub fn derive_context(&self, salt: u64) -> u64 {
        let seq = self.derive_seq.get();
        self.derive_seq.set(seq + 1);
        // SplitMix64-style mixing of (context, seq, salt).
        let mut x = self
            .context
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seq)
            .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) | (1 << 63) // high bit marks derived contexts
    }
}

/// The per-rank MPI handle: what `MPI_Init` would give you.
#[derive(Clone)]
pub struct MpiCtx {
    uni: Rc<Universe>,
    ep: EpId,
    world: Comm,
    parent: Option<Comm>,
}

impl MpiCtx {
    /// Construct a rank context (used by launchers and `comm_spawn`).
    pub fn new(uni: Rc<Universe>, ep: EpId, world: Comm, parent: Option<Comm>) -> MpiCtx {
        MpiCtx {
            uni,
            ep,
            world,
            parent,
        }
    }

    /// The universe this rank lives in.
    pub fn universe(&self) -> &Rc<Universe> {
        &self.uni
    }

    /// The simulation handle.
    pub fn sim(&self) -> &Sim {
        self.uni.sim()
    }

    /// This rank's endpoint id (its "psid").
    pub fn ep(&self) -> EpId {
        self.ep
    }

    /// This rank's `MPI_COMM_WORLD`.
    pub fn world(&self) -> &Comm {
        &self.world
    }

    /// Rank within the world.
    pub fn rank(&self) -> u32 {
        self.world.rank()
    }

    /// World size.
    pub fn size(&self) -> u32 {
        self.world.size()
    }

    /// Inter-communicator to the parent world (`MPI_Comm_get_parent`).
    pub fn parent(&self) -> Option<&Comm> {
        self.parent.as_ref()
    }

    // -- point-to-point ----------------------------------------------------

    /// Standard-mode send: eager below the threshold (returns after the
    /// local copy), rendezvous above it (returns when the payload has been
    /// pulled by the receiver).
    pub async fn send(&self, comm: &Comm, dst: u32, tag: u32, value: Value, bytes: u64) {
        let p = self.uni.params;
        self.sim().sleep(p.sw_overhead).await;
        let dst_ep = comm.peer_ep(dst);
        {
            let mut st = self.uni.stats.borrow_mut();
            st.messages += 1;
            st.bytes += bytes;
        }
        let wire_bytes = bytes + p.header_bytes;
        if bytes <= p.eager_threshold {
            // Eager: pay the local copy, then fire-and-forget the wire leg.
            let copy = SimDuration::from_secs_f64(bytes as f64 / p.copy_bw_bps);
            self.sim().sleep(copy).await;
            let uni = self.uni.clone();
            let env = Envelope {
                src_ep: self.ep,
                src_rank: comm.rank(),
                context: comm.context(),
                tag,
                value,
                bytes,
                kind: EnvKind::Eager,
            };
            let src_ep = self.ep;
            self.sim()
                .spawn_fmt(format_args!("eager-xfer"), async move {
                    uni.wire
                        .transfer(src_ep, dst_ep, wire_bytes)
                        .await
                        .expect("fabric failure in eager transfer");
                    uni.deposit(dst_ep, env);
                });
        } else {
            // Rendezvous: RTS → CTS → data.
            self.uni.stats.borrow_mut().rendezvous += 1;
            let cts: OneShot<()> = OneShot::new(self.sim());
            let done: OneShot<()> = OneShot::new(self.sim());
            let env = Envelope {
                src_ep: self.ep,
                src_rank: comm.rank(),
                context: comm.context(),
                tag,
                value,
                bytes,
                kind: EnvKind::Rts {
                    cts: cts.clone(),
                    done: done.clone(),
                },
            };
            self.uni
                .wire
                .transfer(self.ep, dst_ep, p.header_bytes)
                .await
                .expect("fabric failure in RTS");
            self.uni.deposit(dst_ep, env);
            cts.wait().await;
            self.uni
                .wire
                .transfer(self.ep, dst_ep, wire_bytes)
                .await
                .expect("fabric failure in rendezvous data");
            done.set(());
        }
    }

    /// Send with the payload's natural size.
    pub async fn send_val(&self, comm: &Comm, dst: u32, tag: u32, value: Value) {
        let bytes = value.natural_bytes();
        self.send(comm, dst, tag, value, bytes).await;
    }

    /// Blocking receive. `src`/`tag` of `None` are the wildcards.
    pub async fn recv(&self, comm: &Comm, src: Option<u32>, tag: Option<u32>) -> Message {
        let p = self.uni.params;
        self.sim().sleep(p.sw_overhead).await;
        let pattern = Pattern {
            context: comm.context(),
            src,
            tag,
        };
        let env = self.uni.match_recv(self.ep, pattern).await;
        match env.kind {
            EnvKind::Eager => Message {
                src: env.src_rank,
                tag: env.tag,
                value: env.value,
                bytes: env.bytes,
            },
            EnvKind::Rts { cts, done } => {
                // Clear-to-send control message back to the sender.
                self.uni
                    .wire
                    .transfer(self.ep, env.src_ep, p.header_bytes)
                    .await
                    .expect("fabric failure in CTS");
                cts.set(());
                done.wait().await;
                Message {
                    src: env.src_rank,
                    tag: env.tag,
                    value: env.value,
                    bytes: env.bytes,
                }
            }
        }
    }

    /// Nonblocking probe (`MPI_Iprobe`): is a matching message queued?
    /// Returns `(src_rank, tag, bytes)` without consuming the message.
    pub fn iprobe(
        &self,
        comm: &Comm,
        src: Option<u32>,
        tag: Option<u32>,
    ) -> Option<(u32, u32, u64)> {
        let pattern = Pattern {
            context: comm.context(),
            src,
            tag,
        };
        self.uni.peek_unexpected(self.ep, &pattern)
    }

    /// Nonblocking send; await the returned request to complete it.
    pub fn isend(&self, comm: &Comm, dst: u32, tag: u32, value: Value, bytes: u64) -> Request<()> {
        let me = self.clone();
        let comm = comm.clone();
        Request {
            handle: self.sim().spawn_fmt(format_args!("isend"), async move {
                me.send(&comm, dst, tag, value, bytes).await;
            }),
        }
    }

    /// Nonblocking receive; await the returned request for the message.
    pub fn irecv(&self, comm: &Comm, src: Option<u32>, tag: Option<u32>) -> Request<Message> {
        let me = self.clone();
        let comm = comm.clone();
        Request {
            handle: self.sim().spawn_fmt(format_args!("irecv"), async move {
                me.recv(&comm, src, tag).await
            }),
        }
    }

    /// Combined send+receive (deadlock-free exchange).
    #[allow(clippy::too_many_arguments)] // mirrors the MPI_Sendrecv signature
    pub async fn sendrecv(
        &self,
        comm: &Comm,
        dst: u32,
        send_tag: u32,
        value: Value,
        bytes: u64,
        src: Option<u32>,
        recv_tag: Option<u32>,
    ) -> Message {
        let req = self.isend(comm, dst, send_tag, value, bytes);
        let msg = self.recv(comm, src, recv_tag).await;
        req.wait().await;
        msg
    }
}

/// A nonblocking-operation handle (`MPI_Request`).
pub struct Request<T: 'static> {
    handle: deep_simkit::ProcHandle<T>,
}

impl<T: 'static> Request<T> {
    /// Wrap an already-spawned background operation (used by the
    /// nonblocking collectives).
    pub(crate) fn spawned(handle: deep_simkit::ProcHandle<T>) -> Request<T> {
        Request { handle }
    }

    /// Wait for completion (`MPI_Wait`).
    pub async fn wait(self) -> T {
        self.handle.await
    }
}

/// Wait for all requests (`MPI_Waitall`).
pub async fn wait_all<T: 'static>(reqs: Vec<Request<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(reqs.len());
    for r in reqs {
        out.push(r.wait().await);
    }
    out
}
