//! Distributed conjugate-gradient solver on a 2-D Laplacian — the
//! paper's archetype of a *highly scalable code part* (slide 9: "sparse
//! matrix-vector codes, highly regular communication patterns").
//!
//! The grid is partitioned into horizontal stripes, one per rank. Each CG
//! iteration does one SpMV with nearest-neighbour halo exchange plus two
//! global dot products (allreduce) — exactly the regular pattern that
//! scales on a torus.

use deep_psmpi::{Comm, MpiCtx, ReduceOp, Value};

const TAG_HALO_UP: u32 = 2001;
const TAG_HALO_DOWN: u32 = 2002;

/// What `Iterator::sum::<f64>()` folds from. The fused kernels start
/// their accumulators here so an empty stripe contributes the same bits
/// a `.sum()` over it would.
const SUM_IDENTITY: f64 = -0.0;

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

/// One stripe row of the 5-point Laplacian fused with the running dot
/// product: `out = (A·v)[row]`, returns `dot + Σ row[c]·out[c]` summed in
/// column order. `UP`/`DOWN` say whether the row above/below exists (the
/// previous/next stripe row or a neighbour's halo; not at the physical
/// boundary). Each point is `(((4·v − left) − right) − up) − down`, in
/// that order — the bits every pin in this crate records.
#[inline(always)]
fn spmv_row_dot<const UP: bool, const DOWN: bool>(
    row: &[f64],
    up: &[f64],
    down: &[f64],
    out: &mut [f64],
    mut dot: f64,
) -> f64 {
    let nx = row.len();
    let (up, down, out) = (&up[..nx], &down[..nx], &mut out[..nx]);
    let vertical = |acc: f64, c: usize| {
        let acc = if UP { acc - up[c] } else { acc };
        if DOWN {
            acc - down[c]
        } else {
            acc
        }
    };
    // The two edge columns miss a horizontal neighbour (both, if nx = 1).
    let last = nx - 1;
    let first = if last > 0 {
        4.0 * row[0] - row[1]
    } else {
        4.0 * row[0]
    };
    out[0] = vertical(first, 0);
    dot += row[0] * out[0];
    for c in 1..last {
        out[c] = vertical(4.0 * row[c] - row[c - 1] - row[c + 1], c);
        dot += row[c] * out[c];
    }
    if last > 0 {
        out[last] = vertical(4.0 * row[last] - row[last - 1], last);
        dot += row[last] * out[last];
    }
    dot
}

/// 5-point Laplacian SpMV on a stripe of `nx`-wide rows fused with the
/// dot product the CG step needs next: `out = A·v`, returns
/// `Σ v[i]·out[i]` in index order. Halo rows come from the neighbours
/// (`None` at the physical boundary). An absent row is passed as `row`
/// itself — right length, never read.
fn spmv_dot(
    v: &[f64],
    halo_up: Option<&[f64]>,
    halo_down: Option<&[f64]>,
    nx: usize,
    out: &mut [f64],
) -> f64 {
    let rows = out.len() / nx;
    let mut dot = SUM_IDENTITY;
    for (r, out) in out.chunks_exact_mut(nx).enumerate() {
        let row = &v[r * nx..(r + 1) * nx];
        let up = if r > 0 {
            Some(&v[(r - 1) * nx..r * nx])
        } else {
            halo_up
        };
        let down = if r + 1 < rows {
            Some(&v[(r + 1) * nx..(r + 2) * nx])
        } else {
            halo_down
        };
        dot = match (up, down) {
            (Some(u), Some(d)) => spmv_row_dot::<true, true>(row, u, d, out, dot),
            (Some(u), None) => spmv_row_dot::<true, false>(row, u, row, out, dot),
            (None, Some(d)) => spmv_row_dot::<false, true>(row, row, d, out, dot),
            (None, None) => spmv_row_dot::<false, false>(row, row, row, out, dot),
        };
    }
    dot
}

/// The CG update fused with the residual norm: `x += α·p`, `r −= α·ap`,
/// returns `Σ r[i]²` of the updated `r` in index order.
fn axpy_norm(alpha: f64, p: &[f64], ap: &[f64], x: &mut [f64], r: &mut [f64]) -> f64 {
    let n = p.len();
    let (ap, x, r) = (&ap[..n], &mut x[..n], &mut r[..n]);
    let mut rr = SUM_IDENTITY;
    for i in 0..n {
        x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
        rr += r[i] * r[i];
    }
    rr
}

/// `p = r + β·p`, the new search direction.
fn update_direction(beta: f64, r: &[f64], p: &mut [f64]) {
    for (p, r) in p.iter_mut().zip(r) {
        *p = r + beta * *p;
    }
}

/// Exchange stripe boundary rows with the neighbours. `active` is the
/// number of ranks that actually own rows (ranks beyond it sit out —
/// they exist when the grid has fewer rows than the communicator has
/// ranks). `v` is the stripe, or `None` for cost-only rows of the same
/// bytes. Returns the neighbours' rows as received, to be borrowed.
async fn halo_exchange(
    m: &MpiCtx,
    comm: &Comm,
    v: Option<&[f64]>,
    nx: usize,
    rows: usize,
    active: u32,
) -> (Option<Value>, Option<Value>) {
    let rank = comm.rank();
    if rows == 0 {
        return (None, None);
    }
    let row_bytes = 8 * nx as u64;
    let row = |r: usize| {
        v.map_or(Value::Unit, |v| {
            Value::vec(v[r * nx..(r + 1) * nx].to_vec())
        })
    };
    let mut up = None;
    let mut down = None;

    // Post receives first, then send, to avoid ordering artefacts.
    let recv_up = (rank > 0).then(|| m.irecv(comm, Some(rank - 1), Some(TAG_HALO_DOWN)));
    let recv_down = (rank + 1 < active).then(|| m.irecv(comm, Some(rank + 1), Some(TAG_HALO_UP)));
    if rank > 0 {
        m.send(comm, rank - 1, TAG_HALO_UP, row(0), row_bytes).await;
    }
    if rank + 1 < active {
        m.send(comm, rank + 1, TAG_HALO_DOWN, row(rows - 1), row_bytes)
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

/// Bytes of one rank's contribution to a CG global sum: one `f64`.
const SUM_BYTES: u64 = 8;

/// Global sum of one `f64` per rank via allreduce.
async fn global_sum(m: &MpiCtx, comm: &Comm, local: f64) -> f64 {
    m.allreduce(comm, ReduceOp::Sum, Value::F64(local), SUM_BYTES)
        .await
        .as_f64()
}

/// The messages of [`global_sum`], cost-only.
async fn global_sum_cost(m: &MpiCtx, comm: &Comm) {
    m.allreduce(comm, ReduceOp::Sum, Value::Unit, SUM_BYTES)
        .await;
}

/// Rows `rank` owns, and how many ranks own at least one: trailing
/// ranks own none when the communicator is larger than the grid.
fn stripe(comm: &Comm, ny: usize) -> (usize, u32) {
    let size = comm.size();
    (my_rows(comm.rank(), size, ny).len(), size.min(ny as u32))
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
    let (rows, active) = stripe(comm, ny);
    let n_local = rows * nx;

    let mut x = vec![0.0f64; n_local];
    let mut r = vec![1.0f64; n_local]; // r = b - A·0 with b = 1
    let mut p = r.clone();
    let mut rr = global_sum(m, comm, r.iter().map(|v| v * v).sum()).await;
    let mut ap = vec![0.0f64; n_local];
    let mut iters = 0;

    while iters < max_iters && rr.sqrt() > tol {
        let (up, down) = halo_exchange(m, comm, Some(&p), nx, rows, active).await;
        let (up, down) = (
            up.as_ref().map(Value::as_vec),
            down.as_ref().map(Value::as_vec),
        );
        let pap = global_sum(m, comm, spmv_dot(&p, up, down, nx, &mut ap)).await;
        let alpha = rr / pap;
        let rr_new = global_sum(m, comm, axpy_norm(alpha, &p, &ap, &mut x, &mut r)).await;
        let beta = rr_new / rr;
        rr = rr_new;
        update_direction(beta, &r, &mut p);
        iters += 1;
    }

    let checksum = global_sum(m, comm, x.iter().sum()).await;
    CgResult {
        iterations: iters,
        residual: rr.sqrt(),
        checksum,
    }
}

/// A serial reference CG (no MPI) for correctness comparison: the whole
/// grid as one stripe without halos, through the same kernels.
pub fn cg_reference(nx: usize, ny: usize, max_iters: u32, tol: f64) -> CgResult {
    let n = nx * ny;
    let mut x = vec![0.0f64; n];
    let mut r = vec![1.0f64; n];
    let mut p = r.clone();
    let mut rr: f64 = r.iter().map(|v| v * v).sum();
    let mut ap = vec![0.0f64; n];
    let mut iters = 0;
    while iters < max_iters && rr.sqrt() > tol {
        let pap = spmv_dot(&p, None, None, nx, &mut ap);
        let alpha = rr / pap;
        let rr_new = axpy_norm(alpha, &p, &ap, &mut x, &mut r);
        let beta = rr_new / rr;
        rr = rr_new;
        update_direction(beta, &r, &mut p);
        iters += 1;
    }
    CgResult {
        iterations: iters,
        residual: rr.sqrt(),
        checksum: x.iter().sum(),
    }
}

/// The messages [`cg_solve`] sends over `iterations` iterations, with
/// cost-only payloads of the same bytes: the initial residual sum, per
/// iteration one halo exchange and two global sums, then the checksum.
async fn cg_skeleton(m: &MpiCtx, comm: &Comm, nx: usize, ny: usize, iterations: u32) {
    let (rows, active) = stripe(comm, ny);
    global_sum_cost(m, comm).await;
    for _ in 0..iterations {
        halo_exchange(m, comm, None, nx, rows, active).await;
        global_sum_cost(m, comm).await;
        global_sum_cost(m, comm).await;
    }
    global_sum_cost(m, comm).await;
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
    crate::run_ideal(seed, n_ranks, "cg", move |m, comm| async move {
        cg_solve(&m, &comm, nx, ny, max_iters, tol).await
    })
}

/// The messages [`cg_solve`] sends over `iterations` iterations, with
/// cost-only payloads, on `n_ranks` over the same ideal wire as
/// [`run_cg_ideal`]; returns the elapsed virtual ns — the solve's own
/// when `iterations` is its iteration count.
pub fn run_cg_skeleton_ideal(
    seed: u64,
    n_ranks: u32,
    nx: usize,
    ny: usize,
    iterations: u32,
) -> u64 {
    crate::run_ideal(seed, n_ranks, "cg", move |m, comm| async move {
        cg_skeleton(&m, &comm, nx, ny, iterations).await
    })
    .1
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

    /// The skeleton, given the solve's iteration count, takes exactly the
    /// solve's simulated time; returns that count.
    fn assert_skeleton_times_like_solve(
        ranks: u32,
        nx: usize,
        ny: usize,
        max_iters: u32,
        tol: f64,
    ) -> u32 {
        let (res, ns) = run_cg_ideal(1, ranks, nx, ny, max_iters, tol);
        let skeleton = run_cg_skeleton_ideal(1, ranks, nx, ny, res.iterations);
        assert_eq!(
            skeleton, ns,
            "ranks={ranks} nx={nx} ny={ny} max_iters={max_iters} tol={tol}: {} iterations",
            res.iterations
        );
        res.iterations
    }

    #[test]
    fn skeleton_times_like_solve_at_every_rank_count() {
        // Ranks 1..=17 take every allreduce path (recursive doubling at
        // powers of two, reduce + bcast otherwise); 5 and 3 rows leave
        // ranks without a row; nx = 1 is a one-column grid.
        for ranks in 1..=17 {
            for (nx, ny) in [(6, 9), (1, 20), (4, 5), (3, 3)] {
                assert!(assert_skeleton_times_like_solve(ranks, nx, ny, 6, 1e-12) > 0);
            }
            // No iteration: ‖r₀‖ = √(nx·ny) = 4 is already below tol.
            assert_eq!(assert_skeleton_times_like_solve(ranks, 4, 4, 30, 5.0), 0);
            assert_eq!(assert_skeleton_times_like_solve(ranks, 4, 4, 0, 1e-12), 0);
            // Early convergence, well before max_iters.
            assert!(assert_skeleton_times_like_solve(ranks, 6, 6, 100, 1e-6) < 100);
        }
    }

    /// The unfused kernels as they stood before PR 23 — a branchy SpMV,
    /// then a `.sum()` dot, then the axpy loop, then a `.sum()` norm —
    /// kept as the reference the fused ones must match bit for bit.
    /// ROADMAP item 7's deletion pass may remove this (with the PR 14 /
    /// 17 / 20 test-only references) once `spmv_dot` / `axpy_norm` are
    /// no longer being changed; `tests/cg_pins.rs` then owns the bits.
    mod unfused {
        pub(super) fn local_spmv(
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

        pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
            a.iter().zip(b).map(|(x, y)| x * y).sum()
        }

        pub(super) fn axpy(alpha: f64, p: &[f64], ap: &[f64], x: &mut [f64], r: &mut [f64]) {
            for i in 0..p.len() {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One CG step's kernels on a random stripe, fused against unfused:
    /// `ap`, `x`, `r` and both sums must agree bit for bit.
    fn assert_fused_matches_unfused(nx: usize, rows: usize, halos: (bool, bool), seed: u64) {
        let mut rng = deep_simkit::SimRng::from_seed_stream(seed, 0);
        // Mixed magnitudes and signs, with exact ±0.0 sprinkled in (the
        // only inputs on which a +0.0 accumulator start would differ).
        let mut vector = |len: usize| -> Vec<f64> {
            (0..len)
                .map(|_| match rng.next_u64() % 16 {
                    0 => 0.0,
                    1 => -0.0,
                    k => (rng.gen_f64() - 0.5) * 10f64.powi(k as i32 - 8),
                })
                .collect()
        };
        let n = nx * rows;
        let (p, x0, r0) = (vector(n), vector(n), vector(n));
        let (up, down) = (vector(nx), vector(nx));
        let up = halos.0.then_some(up.as_slice());
        let down = halos.1.then_some(down.as_slice());
        let alpha = vector(1)[0];
        let case = format!("nx={nx} rows={rows} halos={halos:?} seed={seed}");

        let mut ap_ref = vec![f64::NAN; n];
        unfused::local_spmv(&p, up, down, nx, rows, &mut ap_ref);
        let pap_ref = unfused::dot(&p, &ap_ref);
        let (mut x_ref, mut r_ref) = (x0.clone(), r0.clone());
        unfused::axpy(alpha, &p, &ap_ref, &mut x_ref, &mut r_ref);
        let rr_ref = unfused::dot(&r_ref, &r_ref);

        let mut ap = vec![f64::NAN; n];
        let pap = spmv_dot(&p, up, down, nx, &mut ap);
        let (mut x, mut r) = (x0, r0);
        let rr = axpy_norm(alpha, &p, &ap, &mut x, &mut r);

        assert_eq!(bits(&ap), bits(&ap_ref), "ap, {case}");
        assert_eq!(pap.to_bits(), pap_ref.to_bits(), "p·ap, {case}");
        assert_eq!(bits(&x), bits(&x_ref), "x, {case}");
        assert_eq!(bits(&r), bits(&r_ref), "r, {case}");
        assert_eq!(rr.to_bits(), rr_ref.to_bits(), "r·r, {case}");
    }

    #[test]
    fn fused_kernels_match_unfused_on_degenerate_stripes() {
        for halos in [(false, false), (true, false), (false, true), (true, true)] {
            for (nx, rows) in [(1, 1), (1, 4), (2, 1), (7, 1), (5, 0), (1, 0), (2, 2)] {
                assert_fused_matches_unfused(nx, rows, halos, 7);
            }
        }
        // An empty stripe contributes what `.sum()` over it contributed.
        assert_eq!(
            spmv_dot(&[], None, None, 3, &mut []).to_bits(),
            unfused::dot(&[], &[]).to_bits()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn skeleton_times_like_solve(
            ranks in 1u32..=17,
            nx in 1usize..10,
            ny in 1usize..24,
            max_iters in 0u32..12,
            tol in 0usize..4,
        ) {
            assert_skeleton_times_like_solve(ranks, nx, ny, max_iters, [1e-12, 1e-2, 0.5, 3.0][tol]);
        }

        #[test]
        fn fused_kernels_match_unfused_bit_for_bit(
            nx in 1usize..40,
            rows in 0usize..12,
            halos in 0u8..4,
            seed in 0u64..=u64::MAX,
        ) {
            assert_fused_matches_unfused(nx, rows, (halos & 1 != 0, halos & 2 != 0), seed);
        }
    }
}
