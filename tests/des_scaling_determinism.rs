//! Determinism guard for the full-DES weak-scaling skeleton: a golden
//! digest for the headline 262,144-rank SpMV run, the benchmark's two
//! `@smoke` rows at the harness's shape, the halo exchange at its edge
//! sizes, and runs of 1 to 8 iterations. The summary digest
//! (per-iteration end instants + message count) is pinned, and the CI
//! determinism matrix runs this same test under `RAYON_NUM_THREADS=1`
//! and `=4`, so the value is asserted thread-invariant as well as
//! stable across kernel changes.

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

/// `(ranks, complex, iters)`, then the digest, messages, hops and kernel
/// events and the `sim_s` of a seed-1 run.
type IterPin = ((u32, bool, u32), [u64; 4], f64);

/// Runs of 1 to 8 iterations at both classes, from the edge sizes up to
/// 16 384 ranks, captured while every iteration still booked its own
/// messages. A wrong offset in carrying one iteration's trajectory to
/// the next shows in the digest and `sim_s` from the third iteration on.
#[test]
fn multi_iteration_runs_are_pinned() {
    let pins: &[IterPin] = &[
        ((2, false, 1), [0xbe7b97ebe60a1550, 6, 12, 10], 0.002022997),
        ((2, false, 3), [0xcdb90847f0971cba, 18, 36, 26], 0.006068991),
        ((2, false, 5), [0x10182c1eaf7c7a6c, 30, 60, 42], 0.010114985),
        ((2, false, 8), [0x2f1f974bae20cc59, 48, 96, 66], 0.016183976),
        (
            (32, false, 1),
            [0x3021a6f6b8ac1c99, 224, 536, 17],
            0.002030001,
        ),
        (
            (32, false, 3),
            [0x8f97de1816daae69, 672, 1608, 45],
            0.006090003,
        ),
        (
            (32, false, 5),
            [0x935a0a3060ee0001, 1120, 2680, 73],
            0.010150005,
        ),
        (
            (32, false, 8),
            [0x42b7784aaa88c1af, 1792, 4288, 115],
            0.016240008,
        ),
        (
            (64, false, 1),
            [0xfc49167f2f80c51a, 512, 1376, 31],
            0.002032284,
        ),
        (
            (64, false, 3),
            [0x440572b407aa762f, 1536, 4128, 83],
            0.006096852,
        ),
        (
            (64, false, 5),
            [0xfff3b30ace8506f5, 2560, 6880, 135],
            0.01016142,
        ),
        (
            (64, false, 8),
            [0xb0eb9eb836aa69cb, 4096, 11008, 213],
            0.016258272,
        ),
        (
            (1024, false, 1),
            [0x17cf478fe1a95ccc, 12288, 38436, 402],
            0.002039014,
        ),
        (
            (1024, false, 3),
            [0xd78aeeac26858d2c, 36864, 115308, 1090],
            0.006117042,
        ),
        (
            (1024, false, 5),
            [0xcba66beff733ae94, 61440, 192180, 1778],
            0.01019507,
        ),
        (
            (1024, false, 8),
            [0xc4ea08dec3906b90, 98304, 307488, 2810],
            0.016312112,
        ),
        (
            (16384, false, 4),
            [0x9b5845cd1a58876d, 1048576, 3509936, 22784],
            0.00818298,
        ),
        ((2, true, 3), [0x21e9414142f962ce, 24, 48, 26], 0.006074517),
        ((2, true, 8), [0x99d64e64432dfce7, 64, 128, 66], 0.016198712),
        (
            (32, true, 3),
            [0x92565d985e9bbd39, 3648, 10584, 45],
            0.006309591,
        ),
        (
            (32, true, 8),
            [0x94c2f60df25282ae, 9728, 28224, 115],
            0.016825576,
        ),
        (
            (256, true, 3),
            [0xbc23c9901d27fd9b, 203520, 780372, 292],
            0.008413524,
        ),
        (
            (256, true, 8),
            [0xbcf4ed330cfaa161, 542720, 2080992, 752],
            0.022436064,
        ),
    ];
    for &((ranks, complex, iters), counts, sim_s) in pins {
        let r = des_scaling::run(DesScalingConfig {
            ranks,
            iters,
            complex,
            seed: 1,
        });
        let got = ([r.digest, r.messages, r.hops, r.kernel_events], r.sim_s);
        assert_eq!(
            got,
            (counts, sim_s),
            "{ranks} ranks, complex = {complex}, {iters} iterations"
        );
    }
}
