//! F03b — slide 3's second exascale challenge: **resiliency**.
//!
//! Checkpoint/restart efficiency as machines grow from the DEEP prototype
//! (640 nodes) towards exascale part counts, with the checkpoint-interval
//! sweep compared against Daly's first-order optimum √(2·C·MTBF/n).

use deep_core::{
    daly_optimum, fmt_f, mean_efficiency_batch, Cell, MeanEfficiency, ResilienceParams, Table,
};

/// Machine sizes of the table's rows.
const NODE_COUNTS: [u64; 4] = [640, 10_000, 100_000, 1_000_000];
const INTERVALS_PER_SIZE: usize = 4;

pub fn tables() -> Vec<Table> {
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
            Cell::Num(m.efficiency, |v| format!("{}!", fmt_f(v)))
        } else {
            Cell::f(m.efficiency)
        }
    };
    for (case, m) in cases.chunks(INTERVALS_PER_SIZE).zip(means.chunks(INTERVALS_PER_SIZE)) {
        let p = case[0].0;
        t.row(
            [
                p.n_nodes.into(),
                Cell::f(p.mtbf_node_s / p.n_nodes as f64 / 3600.0),
                Cell::f(daly_optimum(&p) / 60.0),
            ]
            .into_iter()
            .chain(m.iter().map(eff)),
        );
    }
    t.note(
        "shape: at DEEP-prototype scale (640 nodes) resilience is nearly free\n\
         (~96% efficiency at the optimum); at 100k-1M parts the system MTBF\n\
         drops to minutes-hours and even optimally-placed checkpoints burn\n\
         10-40% of the machine, while naive daily checkpointing collapses —\n\
         the quantitative version of slide 3's \"resiliency\" bullet. Daly's\n\
         formula tracks the sweep optimum across three orders of magnitude.",
    );
    vec![t]
}
