//! `deep-serve`: simulation-as-a-service on top of the deterministic
//! experiment engine — the DEEP prototype's "cluster as a shared
//! facility" operations model, scaled down to one host.
//!
//! The paper's cluster-booster machine is operated as a service: users
//! submit jobs, a resource manager apportions heterogeneous resources
//! among them, and results are reproducible because the system — not
//! the user — controls placement. This crate closes the same loop for
//! the simulator: a dependency-free HTTP daemon ([`server`]) admits
//! simulation jobs, a scheduler ([`scheduler`]) apportions the
//! host's threads between them with the booster-assignment policy
//! from `deep-resmgr`, and a content-addressed cache (keyed by the
//! canonical config digest from `deep_json::digest`) memoises results
//! across submissions — possible *only because* every result is a
//! pure function of its config, the invariant the rest of the
//! workspace defends.
//!
//! Everything is `std`-only: sockets via `std::net`, HTTP/1.1 by hand
//! ([`http`]), payloads via `deep-json`, SIGTERM via the vendored
//! `sigshim`. See `docs/serve.md` for the wire API and DESIGN.md §14
//! for the architecture.

// Request path of the daemon: a malformed job must yield an error
// response, not a panic (DESIGN.md §13).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod protocol;
pub mod scheduler;
pub mod server;
