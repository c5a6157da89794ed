//! Tiled Cholesky factorisation — the paper's OmpSs showcase (slide 23).
//!
//! The task kernels (`potrf`, `trsm`, `gemm`, `syrk`) operate on real
//! `f64` tiles, so the runtime's out-of-order execution is verified
//! numerically: after all tasks ran, `L·Lᵀ` must reproduce the input
//! matrix. The graph builder declares exactly the `input`/`inout` accesses
//! of the slide's pragmas.

use std::cell::RefCell;
use std::rc::Rc;

use deep_hw::KernelProfile;
use deep_ompss::{Access, RegionId, TaskCost, TaskGraph};

/// A shared square tile of size `ts × ts`, row-major.
pub type Tile = Rc<RefCell<Vec<f64>>>;

/// Entry `(i, j)` of the symmetric positive-definite test matrix of order
/// `n`: `1/(1+|i−j|)`, plus `n` on the diagonal (diagonally dominant).
pub fn spd_entry(i: usize, j: usize, n: usize) -> f64 {
    let off = 1.0 / (1.0 + (i as f64 - j as f64).abs());
    if i == j {
        off + n as f64
    } else {
        off
    }
}

/// The dense test matrix of [`spd_entry`], row-major.
pub fn spd_matrix(n: usize) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = spd_entry(i, j, n);
        }
    }
    a
}

/// Serial reference Cholesky (lower), in place. Panics if not SPD.
pub fn reference_cholesky(a: &mut [f64], n: usize) {
    for k in 0..n {
        let mut d = a[k * n + k];
        for p in 0..k {
            d -= a[k * n + p] * a[k * n + p];
        }
        assert!(d > 0.0, "matrix is not positive definite at {k}");
        let d = d.sqrt();
        a[k * n + k] = d;
        for i in k + 1..n {
            let mut s = a[i * n + k];
            for p in 0..k {
                s -= a[i * n + p] * a[k * n + p];
            }
            a[i * n + k] = s / d;
        }
    }
    // Zero the strict upper triangle for cleanliness.
    for i in 0..n {
        for j in i + 1..n {
            a[i * n + j] = 0.0;
        }
    }
}

/// In-place tile Cholesky (lower) of a `ts × ts` tile.
pub fn potrf(a: &mut [f64], ts: usize) {
    for k in 0..ts {
        let mut d = a[k * ts + k];
        for p in 0..k {
            d -= a[k * ts + p] * a[k * ts + p];
        }
        assert!(d > 0.0, "tile not positive definite");
        let d = d.sqrt();
        a[k * ts + k] = d;
        for i in k + 1..ts {
            let mut s = a[i * ts + k];
            for p in 0..k {
                s -= a[i * ts + p] * a[k * ts + p];
            }
            a[i * ts + k] = s / d;
        }
    }
    for i in 0..ts {
        for j in i + 1..ts {
            a[i * ts + j] = 0.0;
        }
    }
}

/// `N` accumulation chains over one shared vector, side by side: lane `k`
/// folds `x[p]·y[k][p]` for `p` in `0..len` into `acc[k]` with `step`, in
/// index order — bit for bit what `N` scalar loops compute. The tile
/// kernels are bound by the latency of that dependent add chain, not by
/// throughput, so they keep four independent chains in flight (about 3×
/// faster) and finish what four does not divide with `N = 1`.
#[inline(always)]
fn dots<const N: usize>(
    mut acc: [f64; N],
    x: &[f64],
    y: [&[f64]; N],
    len: usize,
    step: impl Fn(f64, f64) -> f64,
) -> [f64; N] {
    let x = &x[..len];
    let y = y.map(|row| &row[..len]);
    for (p, &xp) in x.iter().enumerate() {
        for k in 0..N {
            acc[k] = step(acc[k], xp * y[k][p]);
        }
    }
    acc
}

/// Rows `r..r+N` of a row-major matrix with `ts` columns.
#[inline(always)]
fn rows<const N: usize>(m: &[f64], r: usize, ts: usize) -> [&[f64]; N] {
    std::array::from_fn(|k| &m[(r + k) * ts..(r + k + 1) * ts])
}

/// Rows `r..r+N` of the solve `B ← B · L⁻ᵀ`; rows are independent.
#[inline(always)]
fn trsm_rows<const N: usize>(l: &[f64], b: &mut [f64], r: usize, ts: usize) {
    for c in 0..ts {
        let lc = &l[c * ts..(c + 1) * ts];
        let init = std::array::from_fn(|k| b[(r + k) * ts + c]);
        let s = dots::<N>(init, lc, rows(b, r, ts), c, |s, t| s - t);
        for k in 0..N {
            b[(r + k) * ts + c] = s[k] / lc[c];
        }
    }
}

/// Triangular solve `B ← B · L⁻ᵀ` where `l` is the lower factor tile.
pub fn trsm(l: &[f64], b: &mut [f64], ts: usize) {
    let mut r = 0;
    while r + 4 <= ts {
        trsm_rows::<4>(l, b, r, ts);
        r += 4;
    }
    while r < ts {
        trsm_rows::<1>(l, b, r, ts);
        r += 1;
    }
}

/// `C[r, s..s+N] ← C[r, s..s+N] − A[r]·B[s..s+N]ᵀ`.
#[inline(always)]
fn update_cols<const N: usize>(ar: &[f64], b: &[f64], cr: &mut [f64], s: usize, ts: usize) {
    let acc = dots::<N>([0.0; N], ar, rows(b, s, ts), ts, |s, t| s + t);
    for k in 0..N {
        cr[s + k] -= acc[k];
    }
}

/// `C[r, ..to] ← C[r, ..to] − A[r]·B[..to]ᵀ`: one output row of the
/// rank-`ts` updates.
#[inline(always)]
fn update_row(ar: &[f64], b: &[f64], cr: &mut [f64], to: usize, ts: usize) {
    let mut s = 0;
    while s + 4 <= to {
        update_cols::<4>(ar, b, cr, s, ts);
        s += 4;
    }
    while s < to {
        update_cols::<1>(ar, b, cr, s, ts);
        s += 1;
    }
}

/// `C ← C − A·Bᵀ`.
pub fn gemm_nt(a: &[f64], b: &[f64], c: &mut [f64], ts: usize) {
    for r in 0..ts {
        let row = r * ts..(r + 1) * ts;
        update_row(&a[row.clone()], b, &mut c[row], ts, ts);
    }
}

/// Symmetric rank-k update `C ← C − A·Aᵀ` (lower part only).
pub fn syrk(a: &[f64], c: &mut [f64], ts: usize) {
    for r in 0..ts {
        let row = r * ts..(r + 1) * ts;
        update_row(&a[row.clone()], a, &mut c[row], r + 1, ts);
    }
}

/// A tiled matrix: `nt × nt` tiles of `ts × ts` doubles.
pub struct TiledMatrix {
    /// Tiles in row-major tile order; upper-triangle tiles unused.
    pub tiles: Vec<Tile>,
    /// Tiles per side.
    pub nt: usize,
    /// Elements per tile side.
    pub ts: usize,
}

impl TiledMatrix {
    /// Split a dense `n × n` matrix (`n = nt·ts`) into tiles.
    pub fn from_dense(a: &[f64], nt: usize, ts: usize) -> TiledMatrix {
        let n = nt * ts;
        assert_eq!(a.len(), n * n);
        let mut tiles = Vec::with_capacity(nt * nt);
        for ti in 0..nt {
            for tj in 0..nt {
                let mut t = vec![0.0; ts * ts];
                for r in 0..ts {
                    for c in 0..ts {
                        t[r * ts + c] = a[(ti * ts + r) * n + (tj * ts + c)];
                    }
                }
                tiles.push(Rc::new(RefCell::new(t)));
            }
        }
        TiledMatrix { tiles, nt, ts }
    }

    /// Reassemble the dense matrix.
    pub fn to_dense(&self) -> Vec<f64> {
        let n = self.nt * self.ts;
        let mut a = vec![0.0; n * n];
        for ti in 0..self.nt {
            for tj in 0..self.nt {
                let t = self.tiles[ti * self.nt + tj].borrow();
                for r in 0..self.ts {
                    for c in 0..self.ts {
                        a[(ti * self.ts + r) * n + (tj * self.ts + c)] = t[r * self.ts + c];
                    }
                }
            }
        }
        a
    }

    /// The tile at block row `i`, block column `j`.
    pub fn tile(&self, i: usize, j: usize) -> Tile {
        self.tiles[i * self.nt + j].clone()
    }
}

/// Roofline profile of one tile kernel on a `ts × ts` tile.
pub fn kernel_profile(kind: &str, ts: usize) -> KernelProfile {
    let t = ts as f64;
    let (flops, eff) = match kind {
        "potrf" => (t * t * t / 3.0, 0.5),
        "trsm" => (t * t * t, 0.7),
        "gemm" => (2.0 * t * t * t, 0.85),
        "syrk" => (t * t * t, 0.75),
        other => panic!("unknown kernel {other}"),
    };
    KernelProfile {
        flops,
        bytes: 3.0 * t * t * 8.0,
        compute_efficiency: eff,
        bandwidth_efficiency: 0.8,
    }
}

/// Cost profiles for the four kernels on `ts × ts` tiles.
fn kernel_cost(kind: &str, ts: usize) -> TaskCost {
    TaskCost::Kernel {
        profile: kernel_profile(kind, ts),
        cores: 1,
    }
}

/// Build the OmpSs task graph of the right-looking tiled Cholesky of `m`,
/// with bodies mutating the real tiles. Phases are set for the fork-join
/// baseline: (3k) potrf, (3k+1) trsm panel, (3k+2) trailing update.
pub fn cholesky_graph(m: &TiledMatrix) -> TaskGraph {
    let nt = m.nt;
    let ts = m.ts;
    let mut g = TaskGraph::new();
    for k in 0..nt {
        let akk = m.tile(k, k);
        g.add_task(
            format!("potrf({k},{k})"),
            &[(RegionId::tile(k as u64, k as u64), Access::InOut)],
            kernel_cost("potrf", ts),
            (3 * k) as u32,
            Some(Box::new(move || potrf(&mut akk.borrow_mut(), ts))),
        );
        for i in k + 1..nt {
            let l = m.tile(k, k);
            let b = m.tile(i, k);
            g.add_task(
                format!("trsm({i},{k})"),
                &[
                    (RegionId::tile(k as u64, k as u64), Access::In),
                    (RegionId::tile(i as u64, k as u64), Access::InOut),
                ],
                kernel_cost("trsm", ts),
                (3 * k + 1) as u32,
                Some(Box::new(move || trsm(&l.borrow(), &mut b.borrow_mut(), ts))),
            );
        }
        for i in k + 1..nt {
            for j in k + 1..i {
                let a = m.tile(i, k);
                let b = m.tile(j, k);
                let c = m.tile(i, j);
                g.add_task(
                    format!("gemm({i},{j},{k})"),
                    &[
                        (RegionId::tile(i as u64, k as u64), Access::In),
                        (RegionId::tile(j as u64, k as u64), Access::In),
                        (RegionId::tile(i as u64, j as u64), Access::InOut),
                    ],
                    kernel_cost("gemm", ts),
                    (3 * k + 2) as u32,
                    Some(Box::new(move || {
                        gemm_nt(&a.borrow(), &b.borrow(), &mut c.borrow_mut(), ts)
                    })),
                );
            }
            let a = m.tile(i, k);
            let c = m.tile(i, i);
            g.add_task(
                format!("syrk({i},{k})"),
                &[
                    (RegionId::tile(i as u64, k as u64), Access::In),
                    (RegionId::tile(i as u64, i as u64), Access::InOut),
                ],
                kernel_cost("syrk", ts),
                (3 * k + 2) as u32,
                Some(Box::new(move || syrk(&a.borrow(), &mut c.borrow_mut(), ts))),
            );
        }
    }
    g
}

/// Max `|(L·Lᵀ − A)[i, j..j+N]|`. The `N` sums share the terms
/// `p ≤ j`; lane `k` then runs on to `p = j + k`.
#[inline(always)]
fn row_error<const N: usize>(l: &[f64], a: &[f64], i: usize, j: usize, n: usize) -> f64 {
    let li = &l[i * n..(i + 1) * n];
    let lj = rows::<N>(l, j, n);
    let mut s = dots([0.0; N], li, lj, j + 1, |s, t| s + t);
    let mut worst = 0.0f64;
    for k in 0..N {
        for p in j + 1..=j + k {
            s[k] += li[p] * lj[k][p];
        }
        worst = worst.max((s[k] - a[i * n + j + k]).abs());
    }
    worst
}

/// Max absolute error of `L·Lᵀ` against `a` (lower triangle).
pub fn factorisation_error(l: &[f64], a: &[f64], n: usize) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..n {
        let mut j = 0;
        while j + 4 <= i + 1 {
            worst = worst.max(row_error::<4>(l, a, i, j, n));
            j += 4;
        }
        while j <= i {
            worst = worst.max(row_error::<1>(l, a, i, j, n));
            j += 1;
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    // The plain scalar loops the register-blocked kernels replaced, kept
    // as the reference every output element must match bit for bit.

    fn trsm_ref(l: &[f64], b: &mut [f64], ts: usize) {
        for r in 0..ts {
            for c in 0..ts {
                let mut s = b[r * ts + c];
                for p in 0..c {
                    s -= b[r * ts + p] * l[c * ts + p];
                }
                b[r * ts + c] = s / l[c * ts + c];
            }
        }
    }

    fn gemm_nt_ref(a: &[f64], b: &[f64], c: &mut [f64], ts: usize) {
        for r in 0..ts {
            for s in 0..ts {
                let mut acc = 0.0;
                for p in 0..ts {
                    acc += a[r * ts + p] * b[s * ts + p];
                }
                c[r * ts + s] -= acc;
            }
        }
    }

    fn syrk_ref(a: &[f64], c: &mut [f64], ts: usize) {
        for r in 0..ts {
            for s in 0..=r {
                let mut acc = 0.0;
                for p in 0..ts {
                    acc += a[r * ts + p] * a[s * ts + p];
                }
                c[r * ts + s] -= acc;
            }
        }
    }

    /// Lower triangle of `L·Lᵀ`, each entry summed in index order.
    fn llt_ref(l: &[f64], n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for p in 0..=j {
                    s += l[i * n + p] * l[j * n + p];
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    fn factorisation_error_ref(l: &[f64], a: &[f64], n: usize) -> f64 {
        let llt = llt_ref(l, n);
        let mut worst = 0.0f64;
        for i in 0..n {
            for j in 0..=i {
                worst = worst.max((llt[i * n + j] - a[i * n + j]).abs());
            }
        }
        worst
    }

    /// Deterministic full-mantissa values in ±[0.5, 1.5), so any change
    /// of summation order shows in the low bits.
    fn noise(len: usize, seed: u64) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = 0.5 + (x >> 11) as f64 / (1u64 << 53) as f64;
                if x & 1 == 0 {
                    v
                } else {
                    -v
                }
            })
            .collect()
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str, ts: usize) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what} ts={ts} element {i}");
        }
    }

    /// Sizes that cover whole blocks of four, every remainder, and (for
    /// the triangular kernels) rows whose last block crosses the diagonal.
    const SIZES: [usize; 8] = [1, 2, 3, 4, 5, 7, 16, 64];

    #[test]
    fn blocked_tile_kernels_are_bit_identical_to_the_scalar_loops() {
        for ts in SIZES {
            let (a, b, c) = (noise(ts * ts, 1), noise(ts * ts, 2), noise(ts * ts, 3));

            let (mut got, mut want) = (c.clone(), c.clone());
            gemm_nt(&a, &b, &mut got, ts);
            gemm_nt_ref(&a, &b, &mut want, ts);
            assert_bits_eq(&got, &want, "gemm_nt", ts);

            let (mut got, mut want) = (c.clone(), c.clone());
            syrk(&a, &mut got, ts);
            syrk_ref(&a, &mut want, ts);
            assert_bits_eq(&got, &want, "syrk", ts);

            let (mut got, mut want) = (c.clone(), c.clone());
            trsm(&a, &mut got, ts);
            trsm_ref(&a, &mut want, ts);
            assert_bits_eq(&got, &want, "trsm", ts);
        }
    }

    #[test]
    fn blocked_factorisation_error_is_bit_identical_to_the_scalar_loop() {
        for n in SIZES {
            let (l, a) = (noise(n * n, 4), noise(n * n, 5));
            assert_eq!(
                factorisation_error(&l, &a, n).to_bits(),
                factorisation_error_ref(&l, &a, n).to_bits(),
                "n={n}"
            );
            // Against the reference's own sums the error is exactly zero
            // only if every entry of the triangle matches bit for bit.
            assert_eq!(factorisation_error(&l, &llt_ref(&l, n), n), 0.0, "n={n}");
        }
    }

    #[test]
    fn reference_cholesky_factors_spd() {
        let n = 24;
        let a = spd_matrix(n);
        let mut l = a.clone();
        reference_cholesky(&mut l, n);
        assert!(factorisation_error(&l, &a, n) < 1e-9);
    }

    #[test]
    fn tile_kernels_match_reference_on_one_tile() {
        let ts = 16;
        let a = spd_matrix(ts);
        let mut by_tile = a.clone();
        potrf(&mut by_tile, ts);
        let mut by_ref = a.clone();
        reference_cholesky(&mut by_ref, ts);
        for (x, y) in by_tile.iter().zip(by_ref.iter()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn tiled_roundtrip_preserves_matrix() {
        let (nt, ts) = (3, 8);
        let a = spd_matrix(nt * ts);
        let m = TiledMatrix::from_dense(&a, nt, ts);
        assert_eq!(m.to_dense(), a);
    }

    #[test]
    fn graph_task_count_matches_formula() {
        let (nt, ts) = (4usize, 4usize);
        let a = spd_matrix(nt * ts);
        let m = TiledMatrix::from_dense(&a, nt, ts);
        let g = cholesky_graph(&m);
        // potrf: nt; trsm: nt(nt-1)/2; syrk: nt(nt-1)/2; gemm: C(nt,3)-ish
        let potrf_n = nt;
        let trsm_n = nt * (nt - 1) / 2;
        let syrk_n = nt * (nt - 1) / 2;
        let gemm_n = nt * (nt - 1) * (nt - 2) / 6;
        assert_eq!(g.len(), potrf_n + trsm_n + syrk_n + gemm_n);
    }

    #[test]
    fn serial_body_execution_produces_correct_factor() {
        // Run the graph bodies in plain topological order (no simulator):
        // the dependence tracking itself must already serialise correctly.
        let (nt, ts) = (4usize, 8usize);
        let n = nt * ts;
        let a = spd_matrix(n);
        let m = TiledMatrix::from_dense(&a, nt, ts);
        let g = cholesky_graph(&m);
        let order = g.topo_order();
        // Execute bodies by draining the graph in topo order.
        let mut graph = g;
        for t in order {
            if let Some(body) = graph.take_body(t) {
                body();
            }
        }
        let l = m.to_dense();
        let err = factorisation_error(&l, &a, n);
        assert!(err < 1e-9, "factorisation error {err}");
    }
}
