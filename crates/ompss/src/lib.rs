//! # deep-ompss — an OmpSs-style task runtime with booster offload
//!
//! The programming-model layer of the DEEP reproduction (slides 22–23,
//! 30–31):
//!
//! * [`graph::TaskGraph`] — tasks declare `input`/`output`/`inout`
//!   accesses on data regions; RAW/WAR/WAW dependences are derived
//!   automatically, exactly like OmpSs pragmas;
//! * [`runtime::run_dataflow`] — dependence-driven out-of-order execution
//!   on simulated workers; [`runtime::run_fork_join`] — the barrier-based
//!   baseline it is compared against (experiment F23);
//! * [`offload`] — the offload abstraction: a cluster-side
//!   [`offload::Offloader`] drives booster ranks running
//!   [`offload::offload_server`] via global MPI, shipping data before and
//!   after each offloaded parallel kernel (experiments F10, F25).

#![warn(missing_docs)]

pub mod gantt;
pub mod graph;
pub mod offload;
pub mod runtime;

pub use gantt::{occupancy, render_gantt};
pub use graph::{Access, Device, RegionId, TaskBody, TaskCost, TaskGraph, TaskId};
pub use offload::{
    booster_block, offload_server, run_hybrid_dataflow, OffloadReport, OffloadSpec, Offloader,
};
pub use runtime::{
    run_dataflow, run_dataflow_policy, run_fork_join, task_time, RunReport, SchedPolicy,
};
