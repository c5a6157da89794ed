//! # deep-scenario — declarative scenario DSL
//!
//! Runtime-loaded scenario files for the DEEP reproduction: a
//! dependency-free TOML-subset parser ([`toml`]), a typed schema with
//! exact validation errors ([`schema`]), compilation into the same
//! `DeepConfig`/experiment structs the registry binaries use
//! ([`run`]), and a trace-driven `deep_resmgr` replay ([`trace`]).
//!
//! A scenario file declares a machine preset, an app skeleton with
//! sweep axes, a fault plan, and/or a synthetic job trace;
//! `docs/scenario.md` has the key tables and an annotated example (the
//! f03b-equivalent fixture the bit-identity test pins).
//!
//! The same document runs three ways, all byte-identical: the
//! `run_scenario` binary, a `deep-serve` `{"scenario": ...}` job, and
//! the [`run::execute`] library call. Results are digest-keyed
//! (`deep_json::digest` of `{"scenario": <doc>}`) into the shared
//! result cache; the digest is invariant under key order and
//! formatting, so reformatted copies of a scenario hit the same cache
//! entry.

// Request path of the daemon: a malformed job must yield an error
// response, not a panic (DESIGN.md §13).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod run;
pub mod schema;
pub mod toml;
pub mod trace;

pub use run::execute;
pub use schema::{
    AppSpec, FaultSpec, FlapSpec, IntervalSpec, PoissonSpec, ResilienceApp, ScalabilityApp,
    Scenario, TraceSpec,
};
pub use toml::{parse as parse_toml, to_toml};
pub use trace::replay;
