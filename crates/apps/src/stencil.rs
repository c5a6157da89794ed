//! Distributed 2-D Jacobi stencil — the second HSCP proxy: regular
//! nearest-neighbour communication, memory-bound compute, the classic
//! booster workload.
//!
//! Solves the steady-state heat equation on an `nx × ny` grid with fixed
//! boundary values (left edge hot, right edge cold), stripes of rows per
//! rank, halo exchange each sweep.

use std::rc::Rc;

use deep_psmpi::{Comm, MpiCtx, ReduceOp, Value};

use crate::cg::my_rows;

const TAG_UP: u32 = 2101;
const TAG_DOWN: u32 = 2102;

/// Outcome of a Jacobi run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilResult {
    /// Sweeps executed.
    pub sweeps: u32,
    /// Final global max update magnitude.
    pub max_delta: f64,
    /// Global field checksum.
    pub checksum: f64,
}

/// Fixed temperature at the left and right grid edges; a linear profile
/// between them is the fixed point.
const LEFT_EDGE: f64 = 1.0;
const RIGHT_EDGE: f64 = 0.0;

/// Run `max_sweeps` Jacobi sweeps (or stop when the update drops below
/// `tol`). Collective over `comm`.
pub async fn jacobi(
    m: &MpiCtx,
    comm: &Comm,
    nx: usize,
    ny: usize,
    max_sweeps: u32,
    tol: f64,
) -> StencilResult {
    let rank = comm.rank();
    let size = comm.size();
    let rows = my_rows(rank, size, ny).len();
    let active = size.min(ny as u32);
    let row_bytes = 8 * nx as u64;

    let mut field = vec![0.0f64; rows * nx];
    let mut next = field.clone();
    let mut sweeps = 0;
    let mut max_delta = f64::INFINITY;

    while sweeps < max_sweeps && max_delta > tol {
        // Halo exchange (receives posted before sends). Ranks without
        // rows sit out entirely but still join the global reductions.
        let recv_up = (rows > 0 && rank > 0).then(|| m.irecv(comm, Some(rank - 1), Some(TAG_DOWN)));
        let recv_down =
            (rows > 0 && rank + 1 < active).then(|| m.irecv(comm, Some(rank + 1), Some(TAG_UP)));
        if rows > 0 && rank > 0 {
            m.send(
                comm,
                rank - 1,
                TAG_UP,
                Value::vec(field[..nx].to_vec()),
                row_bytes,
            )
            .await;
        }
        if rows > 0 && rank + 1 < active {
            m.send(
                comm,
                rank + 1,
                TAG_DOWN,
                Value::vec(field[(rows - 1) * nx..].to_vec()),
                row_bytes,
            )
            .await;
        }
        // The neighbours' rows as received, borrowed for the sweep.
        let halo_up = match recv_up {
            Some(r) => Some(r.wait().await.value),
            None => None,
        };
        let halo_down = match recv_down {
            Some(r) => Some(r.wait().await.value),
            None => None,
        };
        let (halo_up, halo_down) = (
            halo_up.as_ref().map(Value::as_vec),
            halo_down.as_ref().map(Value::as_vec),
        );

        // Sweep.
        let mut local_delta = 0.0f64;
        for r in 0..rows {
            for c in 0..nx {
                let idx = r * nx + c;
                let west = if c > 0 { field[idx - 1] } else { LEFT_EDGE };
                let east = if c + 1 < nx {
                    field[idx + 1]
                } else {
                    RIGHT_EDGE
                };
                let north = if r > 0 {
                    field[idx - nx]
                } else if let Some(h) = halo_up {
                    h[c]
                } else {
                    field[idx] // insulated top boundary
                };
                let south = if r + 1 < rows {
                    field[idx + nx]
                } else if let Some(h) = halo_down {
                    h[c]
                } else {
                    field[idx] // insulated bottom boundary
                };
                let v = 0.25 * (west + east + north + south);
                local_delta = local_delta.max((v - field[idx]).abs());
                next[idx] = v;
            }
        }
        std::mem::swap(&mut field, &mut next);
        max_delta = m
            .allreduce(comm, ReduceOp::Max, Value::F64(local_delta), 8)
            .await
            .as_f64();
        sweeps += 1;
    }

    let local_sum: f64 = field.iter().sum();
    let checksum = m
        .allreduce(comm, ReduceOp::Sum, Value::F64(local_sum), 8)
        .await
        .as_f64();
    StencilResult {
        sweeps,
        max_delta,
        checksum,
    }
}

/// Convenience driver over an ideal wire (tests/benches).
pub fn run_jacobi_ideal(
    seed: u64,
    n_ranks: u32,
    nx: usize,
    ny: usize,
    max_sweeps: u32,
    tol: f64,
) -> (StencilResult, u64) {
    use deep_psmpi::{launch_world, EpId, IdealWire, MpiParams, Universe};

    let mut sim = deep_simkit::Simulation::new(seed);
    let ctx = sim.handle();
    let wire = Rc::new(IdealWire::new(
        &ctx,
        deep_simkit::SimDuration::micros(1),
        6e9,
    ));
    let uni = Universe::new(&ctx, wire, n_ranks as usize, MpiParams::default());
    let ranks = launch_world(
        &uni,
        "jacobi",
        (0..n_ranks).map(EpId).collect(),
        move |m| async move {
            let comm = m.world().clone();
            jacobi(&m, &comm, nx, ny, max_sweeps, tol).await
        },
    );
    sim.run().assert_completed();
    let res = ranks[0].try_result().expect("rank 0 finished");
    (res, sim.now().as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobi_converges_towards_linear_profile() {
        let (res, _) = run_jacobi_ideal(1, 1, 16, 8, 4000, 1e-10);
        // Fixed point: field[c] ≈ linear interpolation between the cell
        // midpoints adjacent to the boundaries. Checksum of the linear
        // profile over 16 columns, 8 rows:
        // value at column c is (nx - c - 0.5)/nx... verify via delta only.
        assert!(res.max_delta < 1e-9, "converged, delta {}", res.max_delta);
        assert!(res.checksum > 0.0 && res.checksum < (16 * 8) as f64);
    }

    #[test]
    fn rank_count_does_not_change_the_physics() {
        let (a, _) = run_jacobi_ideal(1, 1, 12, 12, 600, 1e-9);
        let (b, _) = run_jacobi_ideal(1, 4, 12, 12, 600, 1e-9);
        assert_eq!(a.sweeps, b.sweeps);
        assert!(
            (a.checksum - b.checksum).abs() < 1e-6,
            "checksums {} vs {}",
            a.checksum,
            b.checksum
        );
    }

    #[test]
    fn tighter_tolerance_needs_more_sweeps() {
        let (loose, _) = run_jacobi_ideal(1, 2, 12, 12, 10_000, 1e-4);
        let (tight, _) = run_jacobi_ideal(1, 2, 12, 12, 10_000, 1e-8);
        assert!(tight.sweeps > loose.sweeps);
    }
}
