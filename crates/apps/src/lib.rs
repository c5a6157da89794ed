//! # deep-apps — workload proxies for the DEEP reproduction
//!
//! Numerically real miniature versions of the application classes the
//! paper discusses:
//!
//! * [`cholesky`] — the tiled Cholesky of slide 23 (OmpSs showcase), with
//!   real `f64` tiles so dataflow execution is verified against a serial
//!   reference factorisation;
//! * [`cg`] — distributed conjugate gradient on a 2-D Laplacian: the
//!   "sparse matrix-vector, highly regular" HSCP archetype of slide 9;
//! * [`stencil`] — distributed Jacobi heat solver, the second HSCP proxy;
//! * [`fft`] — distributed pencil 2-D FFT: the *complex* application
//!   class, whose all-to-all transpose stops scaling early (slide 9);
//! * [`jobmix`] — deterministic synthetic job mixes for the resource-
//!   management experiments;
//! * [`ckpt`] — checkpointable-state hooks (DEEP-ER): per-rank restart
//!   state sizes and progress marks consumed by the `deep-io`
//!   checkpoint/resilience stack.

#![warn(missing_docs)]

pub mod cg;
pub mod cholesky;
pub mod ckpt;
pub mod dcholesky;
pub mod fft;
pub mod jobmix;
pub mod stencil;

pub use cg::{cg_reference, cg_solve, run_cg_ideal, run_cg_skeleton_ideal, CgResult};
pub use cholesky::{cholesky_graph, factorisation_error, spd_matrix, TiledMatrix};
pub use ckpt::{Checkpointable, DCholeskyState, StencilState};
pub use dcholesky::{cholesky_distributed, run_dcholesky_ideal, DCholeskyResult};
pub use fft::{fft2d_distributed, fft2d_reference, fft_inplace, run_fft_ideal, FftResult};
pub use jobmix::{generate_mix, MixParams};
pub use stencil::{jacobi, run_jacobi_ideal, StencilResult};

use std::future::Future;
use std::rc::Rc;

use deep_psmpi::{launch_world, Comm, EpId, IdealWire, MpiCtx, MpiParams, Universe};

/// The `run_*_ideal` drivers' harness: run `body` on every rank of an
/// `n_ranks` world named `name` over a 1 µs / 6 GB/s ideal wire, and
/// return rank 0's result with the elapsed virtual ns.
fn run_ideal<T, Fut>(
    seed: u64,
    n_ranks: u32,
    name: &str,
    body: impl Fn(MpiCtx, Comm) -> Fut + 'static,
) -> (T, u64)
where
    Fut: Future<Output = T> + 'static,
    T: 'static,
{
    let mut sim = deep_simkit::Simulation::new(seed);
    let ctx = sim.handle();
    let wire = Rc::new(IdealWire::new(
        &ctx,
        deep_simkit::SimDuration::micros(1),
        6e9,
    ));
    let uni = Universe::new(&ctx, wire, n_ranks as usize, MpiParams::default());
    let ranks = launch_world(&uni, name, (0..n_ranks).map(EpId).collect(), move |m| {
        let comm = m.world().clone();
        body(m, comm)
    });
    sim.run().assert_completed();
    let res = ranks[0].try_result().expect("rank 0 finished");
    (res, sim.now().as_nanos())
}
