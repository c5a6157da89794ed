//! F05 — slide 5: the rationale numbers.
//!
//! * Blue Gene/P → /Q: ≈ ×20 in compute at the same energy envelope.
//! * Commodity processors: only ×4–8 in 4 years.
//! * Conclusion: clusters must use accelerators → DEEP.

use deep_core::{Cell, Table};
use deep_hw::NodeModel;

pub fn tables() -> Vec<Table> {
    let mut t = Table::new(
        "F05",
        "generation steps: proprietary vs commodity",
        &[
            "comparison",
            "years",
            "speed factor",
            "power factor",
            "GF/W factor",
        ],
    );

    // Per-node Blue Gene step (P 2007 -> Q 2011).
    let p = NodeModel::bluegene_p_node();
    let q = NodeModel::bluegene_q_node();
    let bg_speed = q.peak_flops() / p.peak_flops();
    let bg_power = q.power.peak_w / p.power.peak_w;
    t.row([
        "BG/P node -> BG/Q node".into(),
        (q.year - p.year).into(),
        Cell::f(bg_speed),
        Cell::f(bg_power),
        Cell::f(q.peak_gflops_per_watt() / p.peak_gflops_per_watt()),
    ]);

    // Installation-level (Jülich): JUGENE 16-rack (223 TF, 2007) -> JUQUEEN
    // (5.9 PF, 2013) at a comparable machine-room envelope.
    t.row([
        "JUGENE (16r) -> JUQUEEN".into(),
        6u32.into(),
        Cell::f(5_900_000.0 / 223_000.0),
        Cell::f(2_300.0 / 560.0),
        Cell::f((5_900_000.0 / 2_300.0) / (223_000.0 / 560.0)),
    ]);

    // Commodity per-socket peak: Nehalem-EP (2009) -> Sandy Bridge-EP (2012).
    let nehalem = 4.0 * 2.93e9 * 4.0;
    let snb = 8.0 * 2.7e9 * 8.0;
    t.row([
        "Nehalem-EP -> SandyBridge-EP socket".into(),
        "3-4".into(),
        Cell::f(snb / nehalem),
        "~1.0".into(),
        Cell::f(snb / nehalem),
    ]);

    // The accelerator answer: Xeon node vs Xeon Phi card (2012).
    let xeon = NodeModel::xeon_cluster_node();
    let knc = NodeModel::xeon_phi_knc();
    t.row([
        "Xeon node -> Xeon Phi (KNC)".into(),
        0u32.into(),
        Cell::f(knc.peak_flops() / xeon.peak_flops()),
        Cell::f(knc.power.peak_w / xeon.power.peak_w),
        Cell::f(knc.peak_gflops_per_watt() / xeon.peak_gflops_per_watt()),
    ]);
    t.note(&format!(
        "paper's claims: BG/P->BG/Q ~x20 at the same envelope (we get ~x{:.0}\n\
         per generation at Jülich, ~x15 per node); commodity CPUs x4-8 per\n\
         4 years (we get ~x{:.1}); accelerators close the gap at ~x5 better\n\
         energy efficiency — hence the booster.",
        5_900_000.0 / 223_000.0,
        snb / nehalem
    ));
    vec![t]
}
