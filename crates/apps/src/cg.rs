//! Distributed conjugate-gradient solver on a 2-D Laplacian — the
//! paper's archetype of a *highly scalable code part* (slide 9: "sparse
//! matrix-vector codes, highly regular communication patterns").
//!
//! The grid is partitioned into horizontal stripes, one per rank. Each CG
//! iteration does one SpMV with nearest-neighbour halo exchange plus two
//! global dot products (allreduce) — exactly the regular pattern that
//! scales on a torus.

use std::rc::Rc;

use deep_psmpi::{Comm, MpiCtx, ReduceOp, Value};

const TAG_HALO_UP: u32 = 2001;
const TAG_HALO_DOWN: u32 = 2002;

/// Outcome of a CG solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgResult {
    /// Iterations executed.
    pub iterations: u32,
    /// Final residual 2-norm.
    pub residual: f64,
    /// Global solution checksum (sum of entries), for cross-run checks.
    pub checksum: f64,
}

/// Rows owned by `rank` in a `ny`-row grid over `size` ranks.
pub fn my_rows(rank: u32, size: u32, ny: usize) -> std::ops::Range<usize> {
    let per = ny / size as usize;
    let extra = ny % size as usize;
    let r = rank as usize;
    let start = r * per + r.min(extra);
    let len = per + usize::from(r < extra);
    start..start + len
}

/// 5-point Laplacian SpMV on the local stripe: `out = A·v`, with halo rows
/// provided by the neighbours (`None` at the physical boundary).
fn local_spmv(
    v: &[f64],
    halo_up: Option<&[f64]>,
    halo_down: Option<&[f64]>,
    nx: usize,
    rows: usize,
    out: &mut [f64],
) {
    for r in 0..rows {
        for c in 0..nx {
            let idx = r * nx + c;
            let mut acc = 4.0 * v[idx];
            if c > 0 {
                acc -= v[idx - 1];
            }
            if c + 1 < nx {
                acc -= v[idx + 1];
            }
            if r > 0 {
                acc -= v[idx - nx];
            } else if let Some(h) = halo_up {
                acc -= h[c];
            }
            if r + 1 < rows {
                acc -= v[idx + nx];
            } else if let Some(h) = halo_down {
                acc -= h[c];
            }
            out[idx] = acc;
        }
    }
}

/// Exchange stripe boundary rows with the neighbours. `active` is the
/// number of ranks that actually own rows (ranks beyond it sit out —
/// they exist when the grid has fewer rows than the communicator has
/// ranks). Returns the neighbours' rows as received, to be borrowed.
async fn halo_exchange(
    m: &MpiCtx,
    comm: &Comm,
    v: &[f64],
    nx: usize,
    rows: usize,
    active: u32,
) -> (Option<Value>, Option<Value>) {
    let rank = comm.rank();
    if rows == 0 {
        return (None, None);
    }
    let row_bytes = 8 * nx as u64;
    let mut up = None;
    let mut down = None;

    // Post receives first, then send, to avoid ordering artefacts.
    let recv_up = (rank > 0).then(|| m.irecv(comm, Some(rank - 1), Some(TAG_HALO_DOWN)));
    let recv_down = (rank + 1 < active).then(|| m.irecv(comm, Some(rank + 1), Some(TAG_HALO_UP)));
    if rank > 0 {
        let first_row: Vec<f64> = v[..nx].to_vec();
        m.send(
            comm,
            rank - 1,
            TAG_HALO_UP,
            Value::vec(first_row),
            row_bytes,
        )
        .await;
    }
    if rank + 1 < active {
        let last_row: Vec<f64> = v[(rows - 1) * nx..rows * nx].to_vec();
        m.send(
            comm,
            rank + 1,
            TAG_HALO_DOWN,
            Value::vec(last_row),
            row_bytes,
        )
        .await;
    }
    if let Some(r) = recv_up {
        up = Some(r.wait().await.value);
    }
    if let Some(r) = recv_down {
        down = Some(r.wait().await.value);
    }
    (up, down)
}

/// Global dot product via allreduce.
async fn dot(m: &MpiCtx, comm: &Comm, a: &[f64], b: &[f64]) -> f64 {
    let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    m.allreduce(comm, ReduceOp::Sum, Value::F64(local), 8)
        .await
        .as_f64()
}

/// Solve `A·x = 1` on an `nx × ny` 5-point Laplacian with plain CG.
/// Collective over `comm`; every rank returns the same global result.
pub async fn cg_solve(
    m: &MpiCtx,
    comm: &Comm,
    nx: usize,
    ny: usize,
    max_iters: u32,
    tol: f64,
) -> CgResult {
    let rank = comm.rank();
    let size = comm.size();
    let rows = my_rows(rank, size, ny).len();
    // Ranks that own at least one row; trailing ranks may own none when
    // the communicator is larger than the grid.
    let active = size.min(ny as u32);
    let n_local = rows * nx;

    let b = vec![1.0f64; n_local];
    let mut x = vec![0.0f64; n_local];
    let mut r: Vec<f64> = b.clone(); // r = b - A·0
    let mut p = r.clone();
    let mut rr = dot(m, comm, &r, &r).await;
    let mut ap = vec![0.0f64; n_local];
    let mut iters = 0;

    while iters < max_iters && rr.sqrt() > tol {
        let (up, down) = halo_exchange(m, comm, &p, nx, rows, active).await;
        let (up, down) = (
            up.as_ref().map(Value::as_vec),
            down.as_ref().map(Value::as_vec),
        );
        local_spmv(&p, up, down, nx, rows, &mut ap);
        let pap = dot(m, comm, &p, &ap).await;
        let alpha = rr / pap;
        for i in 0..n_local {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_new = dot(m, comm, &r, &r).await;
        let beta = rr_new / rr;
        rr = rr_new;
        for i in 0..n_local {
            p[i] = r[i] + beta * p[i];
        }
        iters += 1;
    }

    let local_sum: f64 = x.iter().sum();
    let checksum = m
        .allreduce(comm, ReduceOp::Sum, Value::F64(local_sum), 8)
        .await
        .as_f64();
    CgResult {
        iterations: iters,
        residual: rr.sqrt(),
        checksum,
    }
}

/// A serial reference CG (no MPI) for correctness comparison.
pub fn cg_reference(nx: usize, ny: usize, max_iters: u32, tol: f64) -> CgResult {
    let n = nx * ny;
    let spmv = |v: &[f64], out: &mut [f64]| {
        for r in 0..ny {
            for c in 0..nx {
                let idx = r * nx + c;
                let mut acc = 4.0 * v[idx];
                if c > 0 {
                    acc -= v[idx - 1];
                }
                if c + 1 < nx {
                    acc -= v[idx + 1];
                }
                if r > 0 {
                    acc -= v[idx - nx];
                }
                if r + 1 < ny {
                    acc -= v[idx + nx];
                }
                out[idx] = acc;
            }
        }
    };
    let b = vec![1.0f64; n];
    let mut x = vec![0.0f64; n];
    let mut r = b.clone();
    let mut p = r.clone();
    let mut rr: f64 = r.iter().map(|v| v * v).sum();
    let mut ap = vec![0.0f64; n];
    let mut iters = 0;
    while iters < max_iters && rr.sqrt() > tol {
        spmv(&p, &mut ap);
        let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
        let alpha = rr / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rr_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rr_new / rr;
        rr = rr_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        iters += 1;
    }
    CgResult {
        iterations: iters,
        residual: rr.sqrt(),
        checksum: x.iter().sum(),
    }
}

/// Convenience: run the distributed CG on `n_ranks` over an ideal wire and
/// return rank 0's result (used by tests and benches).
pub fn run_cg_ideal(
    seed: u64,
    n_ranks: u32,
    nx: usize,
    ny: usize,
    max_iters: u32,
    tol: f64,
) -> (CgResult, u64) {
    use deep_psmpi::{launch_world, EpId, IdealWire, MpiParams, Universe};
    use std::cell::Cell;

    let mut sim = deep_simkit::Simulation::new(seed);
    let ctx = sim.handle();
    let wire = Rc::new(IdealWire::new(
        &ctx,
        deep_simkit::SimDuration::micros(1),
        6e9,
    ));
    let uni = Universe::new(&ctx, wire, n_ranks as usize, MpiParams::default());
    let out = Rc::new(Cell::new(CgResult {
        iterations: 0,
        residual: f64::NAN,
        checksum: f64::NAN,
    }));
    let out2 = out.clone();
    launch_world(&uni, "cg", (0..n_ranks).map(EpId).collect(), move |m| {
        let out = out2.clone();
        Box::pin(async move {
            let comm = m.world().clone();
            let res = cg_solve(&m, &comm, nx, ny, max_iters, tol).await;
            if m.rank() == 0 {
                out.set(res);
            }
        })
    });
    sim.run().assert_completed();
    (out.get(), sim.now().as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_partition_is_complete_and_disjoint() {
        for (size, ny) in [(1u32, 10usize), (3, 10), (4, 10), (10, 10), (7, 23)] {
            let mut covered = vec![false; ny];
            for rank in 0..size {
                for row in my_rows(rank, size, ny) {
                    assert!(!covered[row], "row {row} owned twice");
                    covered[row] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "size={size} ny={ny}");
        }
    }

    #[test]
    fn reference_cg_converges() {
        let res = cg_reference(16, 16, 500, 1e-8);
        assert!(res.residual < 1e-8);
        assert!(res.iterations < 200);
    }

    #[test]
    fn distributed_cg_matches_reference() {
        let serial = cg_reference(16, 16, 500, 1e-8);
        for ranks in [1u32, 2, 3, 4] {
            let (dist, _) = run_cg_ideal(1, ranks, 16, 16, 500, 1e-8);
            assert!(
                dist.residual < 1e-8,
                "ranks={ranks} residual {}",
                dist.residual
            );
            assert!(
                (dist.checksum - serial.checksum).abs() < 1e-6 * serial.checksum.abs(),
                "ranks={ranks}: checksum {} vs serial {}",
                dist.checksum,
                serial.checksum
            );
            // Iteration counts may differ by a couple due to FP ordering.
            assert!((dist.iterations as i64 - serial.iterations as i64).abs() <= 3);
        }
    }

    #[test]
    fn more_ranks_do_not_change_the_math() {
        let (a, _) = run_cg_ideal(1, 2, 24, 24, 300, 1e-7);
        let (b, _) = run_cg_ideal(1, 6, 24, 24, 300, 1e-7);
        assert!((a.checksum - b.checksum).abs() < 1e-5 * a.checksum.abs());
    }
}
