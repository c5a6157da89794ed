//! Deterministic parallel sweep harness.
//!
//! An experiment sweep is a list of independent parameter points, each
//! evaluated by a pure, deterministic function (usually one simulator
//! run seeded from the point itself). [`par_sweep`] fans the points
//! across the rayon pool and returns results **in input order**, so a
//! sweep's output is a pure function of its inputs — bit-identical for
//! any `RAYON_NUM_THREADS`, including 1.
//!
//! Determinism is by construction, not by luck:
//! * results come back in index order whichever thread claimed which
//!   chunk (see `vendor/rayon`);
//! * each point carries whatever seeds its run, so no draw depends on
//!   which worker ran which point;
//! * results land in index-ordered slots and any reduction happens
//!   after the barrier, on the caller's thread.

use rayon::prelude::*;

/// Evaluate `f` at every point, in parallel; results are returned in
/// input order.
///
/// Sweep points are *coarse* work units — whole simulations or table
/// rows, micro- to milliseconds each — so the chunk size is capped at 1:
/// every point is claimed alone. Under the default chunk size a short
/// sweep (e.g. 26 experiments on 8 threads) would get chunks of 3–4
/// points, serializing heavy neighbours behind each other while other
/// threads idle. The cap changes scheduling granularity only, never
/// result order (see `vendor/rayon`'s `with_max_len`).
pub fn par_sweep<P, R, F>(points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync + Send,
{
    (0..points.len())
        .into_par_iter()
        .with_max_len(1)
        .map(|i| f(&points[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_simkit::SimRng;

    #[test]
    fn results_come_back_in_input_order() {
        let points: Vec<u64> = (0..100).rev().collect();
        let out = par_sweep(&points, |&p| p * 2);
        let want: Vec<u64> = points.iter().map(|p| p * 2).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn sweep_is_bit_identical_across_pool_widths() {
        // A draw-heavy float workload whose result would differ under
        // any reordering of draws or of the final accumulation.
        let points: Vec<u64> = (0..40).collect();
        let eval = |&p: &u64| -> f64 {
            let mut rng = SimRng::from_seed_stream(7, 0x5EED + p);
            (0..200)
                .map(|_| rng.gen_range(0..p + 1) as f64)
                .sum::<f64>()
                / 200.0
        };
        let serial: Vec<f64> = points.iter().map(eval).collect();
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let par = pool.install(|| par_sweep(&points, eval));
            let same = serial
                .iter()
                .zip(&par)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "sweep diverged at {threads} threads");
        }
    }
}
