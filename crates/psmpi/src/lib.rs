//! # deep-psmpi — a ParaStation-MPI analogue on simulated fabrics
//!
//! A functional MPI subset whose ranks are `deep-simkit` processes and
//! whose messages ride `deep-fabric` interconnects:
//!
//! * point-to-point with eager/rendezvous protocols and MPI matching
//!   semantics (source/tag wildcards, non-overtaking per pair);
//! * communicators: intra, inter, `comm_split`/`comm_dup`/merge;
//! * the classic collectives (barrier, bcast, reduce, allreduce, gather,
//!   scatter, allgather, alltoall) carrying *real* values, so correctness
//!   is testable, with real byte counts, so time is meaningful;
//! * **`comm_spawn`** — the paper's global-MPI mechanism: a parent world
//!   collectively spawns a child world from a named endpoint pool and
//!   receives an inter-communicator to it (slides 21, 26–29);
//! * [`schedule`]: the exchange algorithms as data, run per rank here,
//!   booked in batches by `deep-bench`'s `des_scaling` and priced in
//!   closed form for rank counts beyond direct simulation (F09, F18).
//!
//! The fabric is abstracted behind [`wire::Wire`], which is how the
//! cluster-booster bridge (`deep-cbp`) slots underneath unchanged MPI
//! code — mirroring how ParaStation MPI gained a booster port.

#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod schedule;
pub mod spawn;
pub mod universe;
pub mod value;
pub mod wire;

pub use comm::{wait_all, Comm, Message, MpiCtx, Request};
pub use schedule::NetModel;
pub use spawn::{launch_world, SpawnError};
pub use universe::{Envelope, MpiParams, Pattern, TrafficStats, Universe};
pub use value::{ReduceOp, Value};
pub use wire::{EpId, ExtollWire, IbWire, IdealWire, LocalBoxFuture, Wire};
