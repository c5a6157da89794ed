//! End-to-end pins for the CG solver, captured from the commit before
//! the fused stripe kernels (PR 23): every `CgResult` bit and every
//! simulated nanosecond of `run_cg_ideal` at several rank counts, and
//! "one rank *is* the serial reference".

use deep_apps::{cg_reference, run_cg_ideal};

#[test]
fn cg_bits_and_sim_time_match_the_pre_fusion_solver() {
    // (ranks, residual bits, checksum bits, simulated ns) of
    // `run_cg_ideal(1, ranks, 48, 64, 60, 1e-12)`; 80 ranks leaves 16
    // of them without a row.
    let pins: [(u32, u64, u64, u64); 6] = [
        (1, 0x3ff3249563b8d98a, 0x4114f48c99d345a0, 0),
        (2, 0x3ff3249563b8da17, 0x4114f48c99d34580, 211_846),
        (3, 0x3ff3249563b8da16, 0x4114f48c99d34588, 381_394),
        (5, 0x3ff3249563b8da2b, 0x4114f48c99d345bd, 604_326),
        (16, 0x3ff3249563b8d9f8, 0x4114f48c99d345d8, 632_148),
        (80, 0x3ff3249563b8da06, 0x4114f48c99d345c4, 1_710_134),
    ];
    for (ranks, residual, checksum, sim_ns) in pins {
        let (res, ns) = run_cg_ideal(1, ranks, 48, 64, 60, 1e-12);
        assert_eq!(res.iterations, 60, "ranks={ranks}");
        assert_eq!(
            (res.residual.to_bits(), res.checksum.to_bits(), ns),
            (residual, checksum, sim_ns),
            "ranks={ranks}: got {:016x}/{:016x} at {ns} ns",
            res.residual.to_bits(),
            res.checksum.to_bits()
        );
    }
}

#[test]
fn one_rank_is_the_serial_reference_bit_for_bit() {
    for (nx, ny) in [(16, 16), (33, 7), (1, 5), (64, 64)] {
        let (dist, _) = run_cg_ideal(1, 1, nx, ny, 40, 1e-12);
        let serial = cg_reference(nx, ny, 40, 1e-12);
        assert_eq!(dist.iterations, serial.iterations, "{nx}x{ny}");
        assert_eq!(
            (dist.residual.to_bits(), dist.checksum.to_bits()),
            (serial.residual.to_bits(), serial.checksum.to_bits()),
            "{nx}x{ny}"
        );
    }
}

/// F09b prints the time of a cost-only CG of 60 iterations on a 1024²
/// grid (`crates/bench/src/experiments/f09b_fft.rs`): the real solve at
/// tolerance 1e-12 must run exactly that many. About 0.6 s in release,
/// so only a release build runs it (`scripts/check.sh` does).
#[test]
#[cfg_attr(debug_assertions, ignore = "release only; scripts/check.sh runs it")]
fn f09b_registered_solve_runs_all_60_iterations() {
    let res = cg_reference(1024, 1024, 60, 1e-12);
    assert_eq!(res.iterations, 60, "residual {}", res.residual);
}
