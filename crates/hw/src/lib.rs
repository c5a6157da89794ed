//! # deep-hw — hardware models for the DEEP reproduction
//!
//! First-order analytic models of the hardware the DEEP project builds on:
//!
//! * [`node::NodeModel`] — cores, clocks, vector width, memory bandwidth
//!   and power for Xeon cluster nodes, Xeon Phi (KNC) booster nodes, GPU
//!   accelerator cards and Blue Gene generations;
//! * [`roofline`] — kernel execution time as max(compute, memory) time;
//! * [`energy`] — linear power model + energy integration;
//! * [`generations`] — technology-scaling laws (Moore, Meuer) and the
//!   Jülich system lineage behind the paper's motivation slides.
//!
//! These models intentionally stay analytic: the experiments in this
//! reproduction depend on peak/sustained throughput ratios and power, not
//! on cycle-accurate microarchitecture.

#![warn(missing_docs)]

pub mod energy;
pub mod generations;
pub mod node;
pub mod roofline;

pub use energy::{EnergyMeter, PowerModel};
pub use node::{CoreModel, NodeClass, NodeModel};
pub use roofline::{exec_time, exec_time_with_mode, KernelProfile, RooflinePoint};
