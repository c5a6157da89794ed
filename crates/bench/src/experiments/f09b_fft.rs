//! F09b — slide 9's two application classes, measured on real kernels.
//!
//! * CG on a 2-D Laplacian: nearest-neighbour halo + allreduce (the
//!   "sparse matrix-vector, highly regular" class);
//! * pencil 2-D FFT: personalised all-to-all transpose (the "complex"
//!   class).
//!
//! Both kernels compute real numbers over the simulated fabric (verified
//! against serial references in the test suite); their *communication*
//! time is measured by the DES, and the *compute* time per rank comes
//! from the roofline model of a KNC booster node. Total = compute + comm,
//! exactly how the machine would spend its time.

use std::fmt::Write as _;

use deep_apps::{run_cg_ideal, run_fft_ideal};
use deep_core::{fmt_f, Table};
use deep_hw::{exec_time, KernelProfile, NodeModel};

/// One rank count of the strong-scaling table: the printed columns,
/// totals in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub ranks: u32,
    pub fft_total_s: f64,
    pub fft_comm_share: f64,
    /// One-rank FFT total over this one.
    pub fft_speedup: f64,
    pub cg_total_s: f64,
    pub cg_comm_share: f64,
    /// One-rank CG total over this one.
    pub cg_speedup: f64,
}

/// Rank counts of the table's rows.
const RANK_COUNTS: [u32; 5] = [1, 2, 4, 8, 16];

/// The table's rows: a `cg_n × cg_n` CG of `cg_iters` iterations and an
/// `fft_n × fft_n` pencil FFT on each of `RANK_COUNTS`. The
/// registered experiment runs 1024 / 256 / 60;
/// `tests/experiment_shapes.rs` asserts the shape at a size a debug
/// build affords.
pub fn rows(cg_n: usize, fft_n: usize, cg_iters: u32) -> [Row; RANK_COUNTS.len()] {
    let node = NodeModel::xeon_phi_knc();

    // Roofline compute of the whole problem (split over ranks).
    // FFT: two batches of n size-n FFTs -> ~ 2 * n * 5 n log2 n flops.
    let fft_flops = 2.0 * fft_n as f64 * 5.0 * fft_n as f64 * (fft_n as f64).log2();
    // CG: ~16 flops per grid point per iteration.
    let cg_flops = 16.0 * (cg_n * cg_n) as f64 * cg_iters as f64;
    let compute_s = |total_flops: f64, ranks: u32| {
        let k = KernelProfile {
            flops: total_flops / ranks as f64,
            bytes: total_flops / ranks as f64, // stream-ish intensity 1
            compute_efficiency: 0.5,
            bandwidth_efficiency: 0.6,
        };
        exec_time(&node, &k, node.cores).time.as_secs_f64()
    };

    // The ten single-threaded DES kernel runs (5 rank counts × {FFT,
    // CG}) are this experiment's entire cost — run them as one flat
    // work-unit grid (EXPERIMENTS.md convention) instead of a serial
    // loop, then assemble rows (and the ranks=1 speedup baselines)
    // sequentially from the index-ordered results.
    let units: Vec<(u32, bool)> = RANK_COUNTS
        .iter()
        .flat_map(|&ranks| [(ranks, false), (ranks, true)])
        .collect();
    let comm_ns = crate::sweep::par_sweep(&units, |_, &(ranks, cg)| {
        if cg {
            run_cg_ideal(1, ranks, cg_n, cg_n, cg_iters, 1e-12).1
        } else {
            run_fft_ideal(1, ranks, fft_n).1
        }
    });
    let mut fft_base = None;
    let mut cg_base = None;
    std::array::from_fn(|i| {
        let ranks = RANK_COUNTS[i];
        let fft_comm_s = comm_ns[i * 2] as f64 / 1e9;
        let cg_comm_s = comm_ns[i * 2 + 1] as f64 / 1e9;
        let fft_total_s = compute_s(fft_flops, ranks) + fft_comm_s;
        let cg_total_s = compute_s(cg_flops, ranks) + cg_comm_s;
        Row {
            ranks,
            fft_total_s,
            fft_comm_share: fft_comm_s / fft_total_s,
            fft_speedup: *fft_base.get_or_insert(fft_total_s) / fft_total_s,
            cg_total_s,
            cg_comm_share: cg_comm_s / cg_total_s,
            cg_speedup: *cg_base.get_or_insert(cg_total_s) / cg_total_s,
        }
    })
}

pub fn run(out: &mut String) {
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
    for r in rows(1024, 256, 60) {
        t.row(&[
            r.ranks.to_string(),
            fmt_f(r.fft_total_s * 1e6),
            fmt_f(r.fft_comm_share),
            format!("{:.2}x", r.fft_speedup),
            fmt_f(r.cg_total_s * 1e3),
            fmt_f(r.cg_comm_share),
            format!("{:.2}x", r.cg_speedup),
        ]);
    }
    t.write_into(out);
    let _ = writeln!(
        out,
        "shape: CG's halo/allreduce pattern keeps most of its time in\n\
         compute and keeps speeding up; the FFT's transpose floods the\n\
         fabric with p^2 messages per step — its communication share grows\n\
         with rank count until scaling flattens and reverses. Slide 9's\n\
         two classes, measured rather than asserted."
    );
}
