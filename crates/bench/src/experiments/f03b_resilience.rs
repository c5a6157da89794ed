//! F03b — slide 3's second exascale challenge: **resiliency**.
//!
//! Checkpoint/restart efficiency as machines grow from the DEEP prototype
//! (640 nodes) towards exascale part counts, with the checkpoint-interval
//! sweep compared against Daly's first-order optimum √(2·C·MTBF/n).

use std::fmt::Write as _;

use deep_core::{
    daly_optimum, fmt_f, mean_efficiency_batch, MeanEfficiency, ResilienceParams, Table,
};

/// One machine size of the table: the printed columns.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub nodes: u64,
    pub system_mtbf_s: f64,
    /// Daly's first-order optimal interval, seconds.
    pub daly_s: f64,
    /// Mean efficiency at Daly/4, Daly, 4× Daly and 24 h.
    pub eff: [MeanEfficiency; INTERVALS_PER_SIZE],
}

/// Machine sizes of the table's rows.
const NODE_COUNTS: [u64; 4] = [640, 10_000, 100_000, 1_000_000];
const INTERVALS_PER_SIZE: usize = 4;

/// The table's rows: the interval sweep at each of [`NODE_COUNTS`].
pub fn rows() -> [Row; NODE_COUNTS.len()] {
    let base = ResilienceParams {
        work_s: 500_000.0, // ~6 days of useful compute
        n_nodes: 640,
        mtbf_node_s: 5.0 * 365.0 * 86_400.0, // 5-year node MTBF
        checkpoint_s: 240.0,
        restart_s: 600.0,
    };
    // Flattened work-unit grid (EXPERIMENTS.md convention): instead of
    // a 4-point sweep each nesting its own replica fan-outs, build all
    // (machine size × interval) cases up front and hand the batch API
    // one 16-case × 8-replica grid. Replica RNG streams depend only on
    // the replica index, so each batch element is bit-identical to the
    // per-case `mean_efficiency` call it replaces; rows assemble
    // sequentially in input order afterwards.
    let mut cases = Vec::with_capacity(NODE_COUNTS.len() * INTERVALS_PER_SIZE);
    for &nodes in &NODE_COUNTS {
        let p = ResilienceParams {
            n_nodes: nodes,
            ..base
        };
        let daly = daly_optimum(&p);
        for interval in [daly / 4.0, daly, daly * 4.0, 24.0 * 3600.0] {
            cases.push((p, interval));
        }
    }
    let means = mean_efficiency_batch(&cases, 7, 8);
    std::array::from_fn(|i| {
        let p = cases[i * INTERVALS_PER_SIZE].0;
        Row {
            nodes: p.n_nodes,
            system_mtbf_s: p.mtbf_node_s / p.n_nodes as f64,
            daly_s: daly_optimum(&p),
            eff: std::array::from_fn(|k| means[i * INTERVALS_PER_SIZE + k]),
        }
    })
}

pub fn run(out: &mut String) {
    // Sweep the interval at several machine sizes.
    let mut t = Table::new(
        "F03b",
        "checkpoint/restart efficiency vs interval and machine size",
        &[
            "nodes",
            "system MTBF [h]",
            "Daly interval [min]",
            "eff @ Daly/4",
            "eff @ Daly",
            "eff @ 4x Daly",
            "eff @ 24 h",
        ],
    );
    // Truncated replicas (configurations that cannot finish their work
    // within the simulator's wall cap) are flagged with "!".
    let eff = |m: &MeanEfficiency| {
        if m.truncated_runs > 0 {
            format!("{}!", fmt_f(m.efficiency))
        } else {
            fmt_f(m.efficiency)
        }
    };
    for r in rows() {
        t.row(&[
            r.nodes.to_string(),
            fmt_f(r.system_mtbf_s / 3600.0),
            fmt_f(r.daly_s / 60.0),
            eff(&r.eff[0]),
            eff(&r.eff[1]),
            eff(&r.eff[2]),
            eff(&r.eff[3]),
        ]);
    }
    t.write_into(out);
    let _ = writeln!(
        out,
        "shape: at DEEP-prototype scale (640 nodes) resilience is nearly free\n\
         (~96% efficiency at the optimum); at 100k-1M parts the system MTBF\n\
         drops to minutes-hours and even optimally-placed checkpoints burn\n\
         10-40% of the machine, while naive daily checkpointing collapses —\n\
         the quantitative version of slide 3's \"resiliency\" bullet. Daly's\n\
         formula tracks the sweep optimum across three orders of magnitude."
    );
}
