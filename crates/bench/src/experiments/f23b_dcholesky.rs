//! F23b — the slide-23 kernel at booster scale: *distributed* tiled
//! Cholesky across MPI ranks (1-D block-cyclic, panel broadcast).
//!
//! Shows both halves of the paper's argument: the factorisation is
//! numerically exact over the simulated fabric, and the naive 1-D
//! bulk-synchronous formulation saturates quickly — the reason OmpSs-style
//! dependence-driven execution (F23) matters in the first place.

use deep_apps::run_dcholesky_ideal;
use deep_core::{Cell, Table};

pub fn tables() -> Vec<Table> {
    let (nt, ts) = (12usize, 64usize);
    let mut t = Table::new(
        "F23b",
        "distributed Cholesky (12x12 tiles of 64x64): strong scaling",
        &["ranks", "time [ms]", "speedup", "efficiency", "max |LLt-A|"],
    );
    // Six independent single-threaded DES factorisations — a flat
    // work-unit grid (EXPERIMENTS.md convention) instead of a serial
    // loop; the speedup baseline (ranks=1) folds in afterwards from the
    // index-ordered results.
    let rank_counts = [1u32, 2, 3, 4, 6, 12];
    let runs = crate::sweep::par_sweep(&rank_counts, |&ranks| {
        run_dcholesky_ideal(1, ranks, nt, ts)
    });
    let mut base = None;
    for (&ranks, (res, ns)) in rank_counts.iter().zip(&runs) {
        let ms = *ns as f64 / 1e6;
        let b = *base.get_or_insert(ms);
        t.row([
            ranks.into(),
            Cell::f(ms),
            Cell::x(b / ms),
            Cell::f(b / ms / ranks as f64),
            Cell::Num(res.max_error, |v| format!("{v:.1e}")),
        ]);
    }
    t.note(
        "shape: the trailing update parallelises but every panel\n\
         factorisation serialises at its owner, so the bulk-synchronous\n\
         1-D formulation saturates below 2x from about 4 ranks on.\n\
         Compare F23: dependence-driven execution of the same kernel keeps\n\
         workers busy through the panel — the paper's case for OmpSs.",
    );
    vec![t]
}
