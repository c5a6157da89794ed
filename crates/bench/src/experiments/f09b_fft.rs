//! F09b — slide 9's two application classes, measured on their
//! communication patterns.
//!
//! * CG on a 2-D Laplacian: nearest-neighbour halo + allreduce (the
//!   "sparse matrix-vector, highly regular" class);
//! * pencil 2-D FFT: personalised all-to-all transpose (the "complex"
//!   class).
//!
//! Their *communication* time is measured by the DES, and the *compute*
//! time per rank comes from the roofline model of a KNC booster node.
//! Total = compute + comm, exactly how the machine would spend its time.
//! The FFT moves real values; the table prints time only, so CG runs as
//! [`deep_apps::run_cg_skeleton_ideal`]: the solve's messages with
//! cost-only payloads for `CG_ITERS` iterations, the count the real
//! 1024² solve runs at tolerance 1e-12 (`scripts/check.sh` asserts it
//! with `cg_reference`). The solver's numerics are checked in
//! `crates/apps/tests/cg_pins.rs`.

use deep_apps::{run_cg_skeleton_ideal, run_fft_ideal};
use deep_core::{Cell, Table};
use deep_hw::{exec_time, KernelProfile, NodeModel};

/// Rank counts of the table's rows.
const RANK_COUNTS: [u32; 5] = [1, 2, 4, 8, 16];

/// The CG grid's side, its iteration count and the FFT's side.
const CG_N: usize = 1024;
const CG_ITERS: u32 = 60;
const FFT_N: usize = 256;

pub fn tables() -> Vec<Table> {
    let node = NodeModel::xeon_phi_knc();

    // Roofline compute of the whole problem (split over ranks).
    // FFT: two batches of n size-n FFTs -> ~ 2 * n * 5 n log2 n flops.
    let fft_flops = 2.0 * FFT_N as f64 * 5.0 * FFT_N as f64 * (FFT_N as f64).log2();
    // CG: ~16 flops per grid point per iteration.
    let cg_flops = 16.0 * (CG_N * CG_N) as f64 * CG_ITERS as f64;
    let compute_s = |total_flops: f64, ranks: u32| {
        let k = KernelProfile {
            flops: total_flops / ranks as f64,
            bytes: total_flops / ranks as f64, // stream-ish intensity 1
            compute_efficiency: 0.5,
            bandwidth_efficiency: 0.6,
        };
        exec_time(&node, &k, node.cores).time.as_secs_f64()
    };

    // The ten single-threaded DES runs (5 rank counts × {FFT, CG}) are
    // this experiment's entire cost — run them as one flat work-unit
    // grid (EXPERIMENTS.md convention) instead of a serial loop, then
    // assemble rows (and the ranks=1 speedup baselines) sequentially
    // from the index-ordered results.
    let units: Vec<(u32, bool)> = RANK_COUNTS
        .iter()
        .flat_map(|&ranks| [(ranks, false), (ranks, true)])
        .collect();
    let comm_ns = crate::sweep::par_sweep(&units, |&(ranks, cg)| {
        if cg {
            run_cg_skeleton_ideal(1, ranks, CG_N, CG_N, CG_ITERS)
        } else {
            run_fft_ideal(1, ranks, FFT_N).1
        }
    });

    let mut t = Table::new(
        "F09b",
        "strong scaling with real kernels on KNC nodes: FFT (alltoall) vs CG (halo)",
        &[
            "ranks",
            "FFT total [µs]",
            "FFT comm share",
            "FFT speedup",
            "CG total [ms]",
            "CG comm share",
            "CG speedup",
        ],
    );
    // FFT transpose: 2 MiB over p^2 messages per step; CG halo: 8 KiB
    // rows + 8 B allreduces.
    let mut fft_base = None;
    let mut cg_base = None;
    for (&ranks, ns) in RANK_COUNTS.iter().zip(comm_ns.chunks_exact(2)) {
        let (fft_comm_s, cg_comm_s) = (ns[0] as f64 / 1e9, ns[1] as f64 / 1e9);
        let fft_total_s = compute_s(fft_flops, ranks) + fft_comm_s;
        let cg_total_s = compute_s(cg_flops, ranks) + cg_comm_s;
        t.row([
            ranks.into(),
            Cell::f(fft_total_s * 1e6),
            Cell::f(fft_comm_s / fft_total_s),
            Cell::x(*fft_base.get_or_insert(fft_total_s) / fft_total_s),
            Cell::f(cg_total_s * 1e3),
            Cell::f(cg_comm_s / cg_total_s),
            Cell::x(*cg_base.get_or_insert(cg_total_s) / cg_total_s),
        ]);
    }
    t.note(
        "shape: CG's halo/allreduce pattern keeps most of its time in\n\
         compute and keeps speeding up; the FFT's transpose floods the\n\
         fabric with p^2 messages per step — its communication share grows\n\
         with rank count until scaling flattens and reverses. Slide 9's\n\
         two classes, measured rather than asserted.",
    );
    vec![t]
}
