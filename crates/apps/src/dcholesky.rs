//! Distributed tiled Cholesky over MPI ranks — the slide-23 kernel scaled
//! beyond one node: a right-looking factorisation with 1-D block-cyclic
//! column distribution (ScaLAPACK-style), panel broadcasts, and real
//! numerics verified against the serial reference.
//!
//! Communication pattern: one panel broadcast per iteration — regular and
//! log-depth, i.e. *highly scalable code part* material, in contrast to
//! the FFT's all-to-all.

use std::collections::BTreeMap;
use std::rc::Rc;

use deep_hw::{roofline, NodeModel};
use deep_psmpi::{Comm, MpiCtx, Value};

use crate::cholesky::{gemm_nt, potrf, spd_entry, spd_matrix, syrk, trsm};

/// Which rank owns block column `j` under 1-D block-cyclic distribution.
pub fn column_owner(j: usize, p: u32) -> u32 {
    (j % p as usize) as u32
}

/// Outcome of a distributed factorisation.
#[derive(Debug, Clone, Copy)]
pub struct DCholeskyResult {
    /// Max |L·Lᵀ − A| over the lower triangle (computed at rank 0).
    pub max_error: f64,
    /// Panel broadcasts performed (= nt).
    pub panels: usize,
}

/// A rank's tiles, `(i, j)` → `ts × ts` doubles. `Rc` so a factored tile
/// travels in a panel or to the verifier without a copy.
type Tiles = BTreeMap<(usize, usize), Rc<Vec<f64>>>;

/// Write access to an owned tile. Tiles are only written before their
/// column's broadcast shares them, so this never copies.
fn tile_mut(tiles: &mut Tiles, i: usize, j: usize) -> &mut Vec<f64> {
    Rc::make_mut(tiles.get_mut(&(i, j)).expect("rank holds its columns"))
}

/// Sleep for the roofline time of a tile kernel on `node` (1 core).
async fn charge(m: &MpiCtx, node: &NodeModel, kind: &str, ts: usize) {
    let profile = crate::cholesky::kernel_profile(kind, ts);
    let t = roofline::exec_time(node, &profile, 1);
    m.sim().sleep(t.time).await;
}

/// Distributed right-looking Cholesky of the deterministic SPD test
/// matrix of order `nt·ts`. Collective over `comm`; every rank returns,
/// rank 0 carries the verification error.
pub async fn cholesky_distributed(
    m: &MpiCtx,
    comm: &Comm,
    nt: usize,
    ts: usize,
    node: &NodeModel,
) -> DCholeskyResult {
    let p = comm.size();
    let rank = comm.rank();
    let n = nt * ts;

    // My tiles: (i, j) → ts×ts data, for owned columns j (lower triangle).
    // Ordered map: tiles are addressed by key in the factorisation loops,
    // but the verification gather walks columns — an ordered container
    // keeps any iteration deterministic.
    let mut tiles = Tiles::new();
    for j in 0..nt {
        if column_owner(j, p) != rank {
            continue;
        }
        for i in j..nt {
            let mut t = vec![0.0; ts * ts];
            for r in 0..ts {
                for c in 0..ts {
                    t[r * ts + c] = spd_entry(i * ts + r, j * ts + c, n);
                }
            }
            tiles.insert((i, j), Rc::new(t));
        }
    }
    // Tiles `(j..nt, j)` of an owned column as one message payload.
    let column = |tiles: &Tiles, j: usize| {
        let col = (j..nt).map(|i| Value::VecF64(tiles[&(i, j)].clone()));
        Value::List(Rc::new(col.collect()))
    };

    for k in 0..nt {
        let owner = column_owner(k, p);
        // Panel factorisation at the owner: potrf + column trsm.
        let payload = if rank == owner {
            potrf(tile_mut(&mut tiles, k, k), ts);
            charge(m, node, "potrf", ts).await;
            let lkk = tiles[&(k, k)].clone();
            for i in k + 1..nt {
                trsm(&lkk, tile_mut(&mut tiles, i, k), ts);
                charge(m, node, "trsm", ts).await;
            }
            column(&tiles, k)
        } else {
            Value::Unit
        };

        // Broadcast the factored panel (rows k..nt of column k).
        let bytes = ((nt - k) * ts * ts * 8) as u64;
        let received = m.bcast(comm, owner, payload, bytes).await;
        // panel[i - k] is tile (i, k) of L.
        let panel = received.as_list();

        // Trailing update on my columns j ∈ (k, nt).
        for j in k + 1..nt {
            if column_owner(j, p) != rank {
                continue;
            }
            let lj = panel[j - k].as_vec();
            // Diagonal: syrk.
            syrk(lj, tile_mut(&mut tiles, j, j), ts);
            charge(m, node, "syrk", ts).await;
            // Below diagonal: gemm.
            for i in j + 1..nt {
                gemm_nt(panel[i - k].as_vec(), lj, tile_mut(&mut tiles, i, j), ts);
                charge(m, node, "gemm", ts).await;
            }
        }
    }

    // Verification: gather the factor at rank 0 (column by column to keep
    // message sizes bounded) and check L·Lᵀ against A.
    const TAG_GATHER: u32 = 2302;
    let mut max_error = 0.0f64;
    if rank == 0 {
        let mut l = vec![0.0f64; n * n];
        for j in 0..nt {
            let owner = column_owner(j, p);
            let col = if owner == 0 {
                column(&tiles, j)
            } else {
                m.recv(comm, Some(owner), Some(TAG_GATHER)).await.value
            };
            for (off, t) in col.as_list().iter().enumerate() {
                let (i, t) = (j + off, t.as_vec());
                for r in 0..ts {
                    let at = (i * ts + r) * n + j * ts;
                    l[at..at + ts].copy_from_slice(&t[r * ts..(r + 1) * ts]);
                }
            }
        }
        // Zero strict upper of diagonal tiles is handled by potrf already.
        max_error = crate::cholesky::factorisation_error(&l, &spd_matrix(n), n);
    } else {
        for j in 0..nt {
            if column_owner(j, p) != rank {
                continue;
            }
            let bytes = ((nt - j) * ts * ts * 8) as u64;
            m.send(comm, 0, TAG_GATHER, column(&tiles, j), bytes).await;
        }
    }

    DCholeskyResult {
        max_error,
        panels: nt,
    }
}

/// Driver over an ideal wire; returns (rank-0 result, elapsed ns).
pub fn run_dcholesky_ideal(
    seed: u64,
    n_ranks: u32,
    nt: usize,
    ts: usize,
) -> (DCholeskyResult, u64) {
    crate::run_ideal(seed, n_ranks, "dchol", move |m, comm| async move {
        cholesky_distributed(&m, &comm, nt, ts, &NodeModel::xeon_phi_knc()).await
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_ownership_cycles() {
        assert_eq!(column_owner(0, 3), 0);
        assert_eq!(column_owner(1, 3), 1);
        assert_eq!(column_owner(2, 3), 2);
        assert_eq!(column_owner(3, 3), 0);
        assert_eq!(column_owner(7, 1), 0);
    }

    #[test]
    fn distributed_factorisation_is_correct_for_any_rank_count() {
        for ranks in [1u32, 2, 3, 4, 5] {
            let (res, _) = run_dcholesky_ideal(1, ranks, 6, 8);
            assert!(
                res.max_error < 1e-9,
                "ranks={ranks}: error {}",
                res.max_error
            );
            assert_eq!(res.panels, 6);
        }
    }

    #[test]
    fn result_bits_and_simulated_time_are_those_of_the_scalar_kernels() {
        // Recorded before the tile kernels were register-blocked and the
        // tile copies removed: neither may move a bit or a nanosecond.
        let ns_before = [4872u64, 14127, 16448, 16190, 18567];
        for (ranks, ns_want) in (1u32..=5).zip(ns_before) {
            let (res, ns) = run_dcholesky_ideal(1, ranks, 6, 8);
            assert_eq!(
                res.max_error.to_bits(),
                0x3d10_0000_0000_0000,
                "ranks={ranks}"
            );
            assert_eq!(ns, ns_want, "ranks={ranks}");
        }
    }

    #[test]
    fn more_ranks_factor_faster() {
        // Strong scaling with coarse 64x64 tiles. A 1-D block-cyclic
        // right-looking factorisation without lookahead serialises every
        // panel at its owner, so the textbook expectation is a modest
        // speedup (trailing update parallelises, panels do not) — we
        // assert the shape, not linearity: 4 ranks clearly beat 1, and
        // the measured ratio sits between the trailing-update bound and
        // the fully-serial bound.
        let (_, t1) = run_dcholesky_ideal(1, 1, 8, 64);
        let (_, t4) = run_dcholesky_ideal(1, 4, 8, 64);
        let ratio = t4 as f64 / t1 as f64;
        assert!(
            (0.35..0.85).contains(&ratio),
            "t1={t1} t4={t4} ratio={ratio}: expected the 1-D panel-bound regime"
        );
    }

    #[test]
    fn speedup_saturates_at_panel_serialisation() {
        // With as many ranks as columns, the panel critical path binds:
        // doubling ranks beyond that gains nothing.
        let (_, t6) = run_dcholesky_ideal(1, 6, 6, 16);
        let (_, t12) = run_dcholesky_ideal(1, 12, 6, 16);
        assert!((t12 as f64) > (t6 as f64) * 0.9, "t6={t6} t12={t12}");
    }
}
