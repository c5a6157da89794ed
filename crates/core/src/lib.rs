//! # deep-core — the DEEP cluster-booster platform library
//!
//! The paper's contribution as an adoptable API (all other `deep-*`
//! crates are the substrates it assembles):
//!
//! * [`config::DeepConfig`] — machine description with presets, including
//!   the 128-CN / 512-BN prototype of the DEEP project;
//! * [`machine::DeepMachine`] — a live machine: InfiniBand cluster +
//!   EXTOLL booster + booster interfaces + a global-MPI universe over the
//!   Cluster–Booster Protocol, with the booster pre-registered as a
//!   spawnable pool and a generic offload server installed;
//! * [`baselines`] — the architectures the paper argues against: a
//!   homogeneous cluster and a PCIe-accelerated cluster;
//! * [`coupled`] — the coupled multi-physics proxy application running on
//!   all three architectures (experiment F10);
//! * [`resilience`] — checkpoint/restart efficiency models: single-level
//!   with Daly's optimum (F03b) and the multi-level L1/L2/L3 policy under
//!   a failure-severity mix (ER01);
//! * [`storage`] — bridges the simulated DEEP-ER storage hierarchy
//!   (`deep-io`) to the resilience model by measuring per-level
//!   checkpoint/restore costs on the machine;
//! * [`report`] — Markdown/JSON tables used by the figure-regeneration
//!   binaries.
//!
//! ## Quickstart
//!
//! ```
//! use deep_core::{DeepConfig, DeepMachine, BOOSTER_POOL, OFFLOAD_SERVER};
//! use deep_simkit::Simulation;
//!
//! let mut sim = Simulation::new(42);
//! let machine = DeepMachine::build(&sim.handle(), DeepConfig::small());
//! let ranks = machine.launch_cluster_app("hello", |mpi| async move {
//!     let world = mpi.world().clone();
//!     // Spawn the whole booster and tear it down again.
//!     let inter = mpi
//!         .comm_spawn(&world, OFFLOAD_SERVER, 8, BOOSTER_POOL, 0)
//!         .await
//!         .unwrap();
//!     let booster_ranks = inter.remote_size();
//!     let off = deep_ompss::Offloader::new(inter);
//!     let block = deep_ompss::booster_block(mpi.rank(), mpi.size(), 8);
//!     off.shutdown(&mpi, block).await;
//!     booster_ranks
//! });
//! sim.run().assert_completed();
//! // Rank 0's return value.
//! assert_eq!(ranks[0].try_result(), Some(8));
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod config;
pub mod coupled;
pub mod machine;
pub mod report;
pub mod resilience;
pub mod storage;

pub use baselines::{AcceleratedCluster, AcceleratedNode};
pub use config::DeepConfig;
pub use coupled::{
    run_on_accelerated, run_on_deep, run_on_pure_cluster, CoupledParams, CoupledReport,
};
pub use machine::{DeepMachine, BOOSTER_POOL, OFFLOAD_SERVER};
pub use report::{fmt_bytes, fmt_f, Cell, Table};
pub use resilience::{
    daly_optimum, mark_of, mean_efficiency, mean_efficiency_batch, mean_multilevel_efficiency,
    mean_multilevel_efficiency_batch, mean_multilevel_over_replicas, simulate_multilevel,
    simulate_run, LevelCost, MeanEfficiency, MultiLevelParams, ResilienceOutcome, ResilienceParams,
};
pub use storage::measure_level_costs;
