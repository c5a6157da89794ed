//! Parallel determinism: experiment outputs are a pure function of
//! their inputs, never of the thread count.
//!
//! The rayon global pool reads `RAYON_NUM_THREADS` once per process, so
//! these tests vary the width with explicit pools + `install` instead —
//! nested `par_iter` calls resolve to the installed pool. The CI
//! matrix additionally runs the whole suite under
//! `RAYON_NUM_THREADS=1` and `=4` and compares driver output.
//!
//! Golden constants were captured from the **pre-parallelism serial
//! binaries** (commit e1fc274), so these tests also pin today's pool
//! against yesterday's plain `for` loops.

use deep_core::{
    mean_efficiency, mean_efficiency_batch, mean_multilevel_efficiency,
    mean_multilevel_efficiency_batch, simulate_multilevel, simulate_run, MultiLevelParams,
    ResilienceParams,
};
use deep_faults::er03_params;
use deep_json::digest::fnv1a_64;
use deep_simkit::SimRng;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
        .install(f)
}

/// FNV-1a digest of `er03_fault_sweep`'s full stdout, captured from the
/// serial binary before any parallel pool existed.
const ER03_GOLDEN_DIGEST: u64 = 0xa1ee_c3a4_84ed_8aef;

#[test]
fn er03_table_is_byte_identical_at_any_width_and_matches_serial_golden() {
    let mut digests = Vec::new();
    for threads in [1usize, 2, 8] {
        let out = with_pool(threads, || {
            deep_bench::experiments::run_to_string("er03_fault_sweep").unwrap()
        });
        digests.push((threads, fnv1a_64(out.as_bytes())));
    }
    for &(threads, d) in &digests {
        assert_eq!(
            d, ER03_GOLDEN_DIGEST,
            "er03 output diverged from the pre-parallelism golden at {threads} threads"
        );
    }
}

#[test]
fn monte_carlo_means_are_bitwise_equal_to_the_serial_loop() {
    // The literal pre-PR algorithm: a sequential loop over per-replica
    // streams, folding in replica order.
    let (_, _, _, p) = er03_params();
    let replicas = 16u32;
    let mut serial_total = 0.0;
    for r in 0..replicas {
        let mut rng = SimRng::from_seed_stream(9, 0xE401 + r as u64);
        serial_total += simulate_multilevel(&p, &mut rng).efficiency;
    }
    let serial = serial_total / replicas as f64;

    let rp = ResilienceParams {
        work_s: 100_000.0,
        n_nodes: 640,
        mtbf_node_s: 5.0 * 365.0 * 86_400.0,
        checkpoint_s: 120.0,
        restart_s: 300.0,
    };
    let mut serial_sl_total = 0.0;
    for r in 0..replicas {
        let mut rng = SimRng::from_seed_stream(9, 0xC4E0 + r as u64);
        serial_sl_total += simulate_run(&rp, 3600.0, &mut rng).efficiency;
    }
    let serial_sl = serial_sl_total / replicas as f64;

    for threads in [1usize, 2, 8] {
        let ml = with_pool(threads, || mean_multilevel_efficiency(&p, 9, replicas));
        assert_eq!(
            ml.efficiency.to_bits(),
            serial.to_bits(),
            "multilevel mean diverged from the serial loop at {threads} threads"
        );
        let sl = with_pool(threads, || mean_efficiency(&rp, 3600.0, 9, replicas));
        assert_eq!(
            sl.efficiency.to_bits(),
            serial_sl.to_bits(),
            "single-level mean diverged from the serial loop at {threads} threads"
        );
    }
}

#[test]
fn parallelized_experiments_match_across_widths() {
    // The experiments whose internals were parallelized in this pass
    // (er03 is covered by the golden-digest test above; the heaviest —
    // a33, f09b — are exercised by the CI matrix on the driver).
    for name in [
        "a31_bi_selection",
        "a32_eager_threshold",
        "f03b_resilience",
        "f22_resmgr",
    ] {
        let narrow = with_pool(1, || deep_bench::experiments::run_to_string(name).unwrap());
        let wide = with_pool(8, || deep_bench::experiments::run_to_string(name).unwrap());
        assert_eq!(narrow, wide, "{name} output depends on the thread count");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A case's mean never depends on its batch neighbours or on the
    /// pool: every element of both batch forms equals the single-case
    /// call bit for bit. (The vendored proptest derives its stream from
    /// the test's name, so the inputs are fixed by this file.)
    #[test]
    fn batch_elements_equal_single_case_calls_at_any_width(
        draws in prop::collection::vec(
            (1u64..2000, 1e5..1e8f64, 1.0..300.0f64, 100.0..5000.0f64, 0u32..5, 0u32..9),
            1..7,
        ),
        replicas in 1u32..=9,
        seed in 0u64..1000,
    ) {
        let single: Vec<(ResilienceParams, f64)> = draws
            .iter()
            .map(|&(n_nodes, mtbf_node_s, checkpoint_s, interval_s, _, _)| {
                let p = ResilienceParams {
                    work_s: 20_000.0,
                    n_nodes,
                    mtbf_node_s,
                    checkpoint_s,
                    restart_s: 60.0,
                };
                (p, interval_s)
            })
            .collect();
        let (_, _, _, base) = er03_params();
        let multi: Vec<MultiLevelParams> = draws
            .iter()
            .map(|&(n_nodes, mtbf_node_s, _, interval_s, l2_every, l3_every)| MultiLevelParams {
                work_s: 20_000.0,
                n_nodes,
                mtbf_node_s,
                interval_s,
                l2_every,
                l3_every,
                ..base
            })
            .collect();
        let bits = |m: deep_core::MeanEfficiency| (m.efficiency.to_bits(), m.truncated_runs);
        let single_ref: Vec<_> = single
            .iter()
            .map(|(p, interval_s)| bits(mean_efficiency(p, *interval_s, seed, replicas)))
            .collect();
        let multi_ref: Vec<_> = multi
            .iter()
            .map(|p| bits(mean_multilevel_efficiency(p, seed, replicas)))
            .collect();
        for threads in [1usize, 2, 4] {
            let (sl, ml) = with_pool(threads, || {
                (
                    mean_efficiency_batch(&single, seed, replicas),
                    mean_multilevel_efficiency_batch(&multi, seed, replicas),
                )
            });
            let sl: Vec<_> = sl.into_iter().map(bits).collect();
            let ml: Vec<_> = ml.into_iter().map(bits).collect();
            prop_assert_eq!(&sl, &single_ref, "single-level batch at {} threads", threads);
            prop_assert_eq!(&ml, &multi_ref, "multi-level batch at {} threads", threads);
        }
    }
}
