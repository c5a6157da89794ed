//! # deep-simkit — deterministic discrete-event simulation kernel
//!
//! The foundation of the `deep-rs` reproduction of the DEEP cluster-booster
//! architecture: a single-threaded, bit-reproducible discrete-event
//! simulator whose processes are ordinary Rust `async` blocks.
//!
//! ## Model
//!
//! * Virtual time is integer nanoseconds ([`SimTime`], [`SimDuration`]).
//! * A process is any `Future` spawned onto the [`Simulation`]; it suspends
//!   by awaiting kernel futures ([`Sim::sleep`], channel `recv`, semaphore
//!   `acquire`, …) and never blocks an OS thread.
//! * A process ends only by returning: awaiting its [`ProcHandle`] yields
//!   the value it returned.
//! * Events that fire at the same instant are ordered by a monotone
//!   sequence number, and every wait-list is FIFO, so a run is a pure
//!   function of (program, seed).
//! * Parallelism belongs *outside* the kernel: sweep replicas each get
//!   their own `Simulation` and can be farmed out with rayon by callers.
//!
//! ## Example
//!
//! ```
//! use deep_simkit::{Simulation, SimDuration, channel};
//!
//! let mut sim = Simulation::new(7);
//! let ctx = sim.handle();
//! let (tx, rx) = channel::<u64>(&ctx);
//!
//! let producer_ctx = ctx.clone();
//! sim.spawn("producer", async move {
//!     for i in 0..3 {
//!         producer_ctx.sleep(SimDuration::micros(10)).await;
//!         tx.send(i).await.unwrap();
//!     }
//! });
//! let consumer = sim.spawn("consumer", async move {
//!     let mut sum = 0;
//!     while let Ok(v) = rx.recv().await {
//!         sum += v;
//!     }
//!     sum
//! });
//! sim.run().assert_completed();
//! assert_eq!(consumer.try_result(), Some(3));
//! assert_eq!(sim.now().as_micros(), 30);
//! ```

#![warn(missing_docs)]

mod channel;
mod kernel;
mod race;
#[cfg(test)]
mod reuse_proptest;
mod rng;
mod sim;
mod sync;
mod time;
mod trace;

pub use channel::{channel, Receiver, RecvError, RecvFut, SendError, Sender};
pub use kernel::RunOutcome;
pub use race::{Either, Race};
pub use rng::SimRng;
pub use sim::{ProcHandle, Sim, Simulation, Sleep};
pub use sync::{Barrier, BarrierWait, OneShot, OneShotWait, SemGuard, Semaphore};
pub use time::{SimDuration, SimTime};
pub use trace::TraceEvent;

/// Await several process handles, collecting their results in order.
pub async fn join_all<T: 'static>(handles: Vec<ProcHandle<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}
