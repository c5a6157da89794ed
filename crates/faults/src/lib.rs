//! # deep-faults — deterministic fault injection for the DEEP machine
//!
//! Failures on the real DEEP prototype were a fact of life (slide 16's
//! RAS machinery exists for a reason); this crate makes them a
//! first-class, *reproducible* simulation input:
//!
//! * [`plan`] — seeded, declarative [`FaultPlan`]s: EXTOLL/IB link
//!   degradation and flaps, NIC packet drops, whole-node crash-stops,
//!   booster-interface outages and PFS-server stalls, each scheduled at
//!   a virtual-time instant or generated from a Poisson hazard;
//! * [`inject`] — [`spawn_injector`] replays a plan against a live
//!   machine, healing windowed faults afterwards; the same plan on the
//!   same seed always produces the same trace;
//! * [`recovery`] — an end-to-end crash/restart driver: a tiled Cholesky
//!   that checkpoints through the DEEP-ER L1/L2/L3 hierarchy, loses
//!   nodes mid-run, restores from the newest surviving level and still
//!   produces a bitwise-identical factor;
//! * [`sweep`] — experiment ER03: the discrete-event resilience run
//!   mirrored draw-for-draw against the analytic Monte-Carlo model
//!   ([`deep_core::simulate_multilevel`]), swept over node MTBF.
//!
//! Detection and reaction live in the component crates (CBP retry and
//! BI failover, resource-manager node replacement, the checkpoint
//! manager's commit log); this crate supplies the failures and the
//! end-to-end proofs that the stack rides them out.

#![warn(missing_docs)]

pub mod inject;
pub mod plan;
pub mod recovery;
pub mod sweep;

pub use inject::{spawn_injector, InjectionRecord, InjectorTargets};
pub use plan::{Domain, FaultEvent, FaultKind, FaultPlan};
pub use recovery::{run_cholesky_with_recovery, RecoveryOutcome, RecoveryParams};
pub use sweep::{
    des_mean_multilevel_efficiency, des_multilevel_run, er03_params, fault_sweep, SweepPoint,
};
