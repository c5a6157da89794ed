//! # deep-fabric — interconnect models for the DEEP reproduction
//!
//! Flow-level network simulation on top of `deep-simkit`:
//!
//! * [`network::Network`] — the contention engine: cut-through analytic
//!   transfers over per-link FIFO occupancy horizons, MTU segmentation,
//!   CRC-error injection with link-level retransmission;
//! * [`torus::Torus3D`] — the EXTOLL booster fabric (6 directed links per
//!   node, dimension-ordered routing);
//! * [`fattree::FatTree`] — the InfiniBand cluster fabric;
//! * [`pcie::PcieBus`] — host-staged accelerator attachment, the
//!   conventional accelerated-cluster baseline;
//! * [`extoll::ExtollFabric`] / [`ib::IbFabric`] — NIC front-ends adding
//!   the per-message engine overheads (VELO, RMA, SMFU, verbs).

#![warn(missing_docs)]

pub mod extoll;
pub mod fattree;
pub mod ib;
pub mod network;
pub mod pcie;
pub mod topology;
pub mod torus;
pub mod types;

pub use extoll::{ExtollFabric, ExtollParams};
pub use fattree::FatTree;
pub use ib::{IbFabric, IbParams};
pub use network::{BatchMsg, Booked, FaultModel, LinkFailure, Network};
pub use pcie::PcieBus;
pub use topology::{Crossbar, Topology};
pub use torus::{Torus3D, TorusDir};
pub use types::{EndpointOverhead, Hop, LinkId, LinkSpec, NodeId, TransferStats};
