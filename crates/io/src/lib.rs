//! # deep-io — storage hierarchy and multi-level checkpointing (DEEP-ER)
//!
//! The DEEP-ER follow-on project added a storage hierarchy to the
//! cluster-booster architecture: node-local NVM, SIONlib task-local I/O,
//! and SCR-style multi-level checkpointing. This crate models that stack
//! on top of `deep-simkit` and `deep-fabric`:
//!
//! * [`device::BlockDevice`] — analytic NVM / disk-array model with
//!   bounded queue depth and single-writer media contention;
//! * [`pfs::ParallelFs`] — striped PFS servers attached to the *same*
//!   InfiniBand fabric as MPI traffic, so I/O and communication contend;
//! * [`sion::FileLayer`] — N-to-N, N-to-1, and SIONlib write patterns
//!   with metadata-server serialisation and alignment padding;
//! * [`ckptlog::CommitLog`] — pure failure-level-aware checkpoint
//!   bookkeeping (which level survives which failure severity);
//! * [`checkpoint::CheckpointManager`] — the DES-driven L1/L2/L3
//!   checkpoint + restore engine over NVM, EXTOLL buddies, and the PFS;
//! * [`config::StorageConfig`] — static description.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod ckptlog;
pub mod config;
pub mod device;
pub mod pfs;
pub mod sion;

pub use checkpoint::{BridgeNode, CheckpointManager, CkptOp};
pub use ckptlog::{CkptLevel, CommitLog, FailureSeverity};
pub use config::StorageConfig;
pub use device::{BlockDevice, DeviceSpec, DeviceStats};
pub use pfs::{ParallelFs, PfsConfig};
pub use sion::{FileLayer, FileLayerParams, IoPhaseStats, WritePattern};
