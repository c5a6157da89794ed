//! Umbrella crate for integration tests and examples of the deep-rs workspace.

pub use deep_core as core;
