//! Determinism guard for the full-DES weak-scaling skeleton: a golden
//! digest for the headline 262,144-rank SpMV run, the benchmark's two
//! `@smoke` rows at the harness's shape, and the halo exchange at its
//! edge sizes. The summary digest (per-iteration end instants + message
//! count) is pinned, and the CI determinism matrix runs this same test
//! under `RAYON_NUM_THREADS=1` and `=4`, so the value is asserted
//! thread-invariant as well as stable across kernel changes.

use deep_bench::des_scaling::{self, DesScalingConfig};

/// Summary digest of the 262,144-rank SpMV skeleton (1 iteration,
/// seed 1), captured from the kernel that first ran it (PR 9). The CI
/// determinism matrix executes this test at `RAYON_NUM_THREADS` 1 and
/// 4; the digest is a pure function of the configuration, so both runs
/// must land exactly here.
const DES_262K_GOLDEN: u64 = 0x8d5b_00dc_e5ef_d607;

#[test]
fn des_262k_summary_digest_matches_golden_at_any_width() {
    let r = des_scaling::run(DesScalingConfig {
        ranks: 1 << 18,
        iters: 1,
        complex: false,
        seed: 1,
    });
    assert_eq!(r.segments, 14_564);
    assert_eq!(
        r.digest, DES_262K_GOLDEN,
        "262k SpMV summary digest moved: {:#018x}",
        r.digest
    );
}

/// `(ranks, complex)`, then the digest, messages, hops and kernel events
/// and the `iter_s` of a 2-iteration, seed-1 run.
type Pin = ((u32, bool), [u64; 4], f64);

fn assert_pins(pins: &[Pin]) {
    for &((ranks, complex), counts, iter_s) in pins {
        let r = des_scaling::run(DesScalingConfig {
            ranks,
            iters: 2,
            complex,
            seed: 1,
        });
        let got = ([r.digest, r.messages, r.hops, r.kernel_events], r.iter_s);
        assert_eq!(got, (counts, iter_s), "{ranks} ranks, complex = {complex}");
    }
}

/// The two `@smoke` rows of `benchmark/golden.json` at the harness's
/// shape (digest, messages, kernel events, `iter_s`), plus the hops
/// booked while every batch was still copied into a message vector.
#[test]
fn benchmark_smoke_rows_are_pinned() {
    assert_pins(&[
        (
            (4_096, false),
            [0xdeba_b7f6_e509_60bf, 114_688, 373_184, 2_969],
            0.00204238,
        ),
        (
            (256, true),
            [0xcf00_967a_8036_c5c6, 135_680, 520_248, 200],
            0.002804508,
        ),
    ]);
}

/// The halo exchange at its edges: at 2 ranks one segment's two halos
/// hit the same peer; at 32 ranks there are two segments and the last
/// leaf is partial (14 of 18 hosts). Both classes, values captured
/// while every batch was still copied into a message vector.
#[test]
fn halo_exchange_edge_sizes_are_pinned() {
    assert_pins(&[
        ((2, false), [0x420c_cd58_8ed1_d451, 12, 24, 18], 0.002022997),
        ((2, true), [0x7f06_a6ba_565d_2fdf, 16, 32, 18], 0.002024839),
        (
            (32, false),
            [0x76f9_2b15_35c9_4bb8, 448, 1_072, 31],
            0.002030001,
        ),
        (
            (32, true),
            [0x92b7_92a4_5c48_70c9, 2_432, 7_056, 31],
            0.002103197,
        ),
    ]);
}
