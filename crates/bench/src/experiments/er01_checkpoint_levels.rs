//! ER01 — the DEEP-ER storage hierarchy at work: multi-level checkpoint
//! cost and the resilience pay-off.
//!
//! Part 1 measures, on the simulated machine, the wall cost of one
//! checkpoint + restore at each level (L1 node-local NVM, L2 buddy over
//! EXTOLL, L3 PFS through the BI bridges) for a stencil-sized job state.
//!
//! Part 2 feeds those *measured* costs into the multi-level Monte-Carlo
//! resilience model and compares checkpoint policies under a realistic
//! failure-severity mix: L1-only (fast but fragile) against the SCR-style
//! L1/L2/L3 rotation.

use deep_apps::StencilState;
use deep_core::{
    mean_multilevel_efficiency, measure_level_costs, Cell, DeepConfig, MultiLevelParams, Table,
};
use deep_io::CkptLevel;

pub fn tables() -> Vec<Table> {
    let cfg = DeepConfig::small();
    let ranks = 8u32;
    // Job state sized from the application hook: a 4096² Jacobi field
    // split over 8 ranks (~16 MiB per rank), scaled 16x to a realistic
    // restart-relevant working set.
    let bytes_per_rank = 16 * StencilState::max_state_bytes(ranks, 4096, 4096);

    let costs = measure_level_costs(&cfg, ranks, bytes_per_rank, 1);

    let mut t = Table::new(
        "ER01a",
        "measured checkpoint cost per level (8 ranks)",
        &["level", "state/rank", "write [ms]", "restore [ms]", "vs L1"],
    );
    for (i, level) in CkptLevel::ALL.into_iter().enumerate() {
        t.row([
            level.name().into(),
            Cell::bytes(bytes_per_rank),
            Cell::f(costs[i].write_s * 1e3),
            Cell::f(costs[i].restore_s * 1e3),
            Cell::f(costs[i].write_s / costs[0].write_s),
        ]);
    }

    // Part 2: feed the measured costs into the resilience model. Flaky
    // machine (system MTBF ~ 1.7 h) with a severity mix in which 10% of
    // failures take out several nodes at once.
    let base = MultiLevelParams {
        work_s: 100_000.0,
        n_nodes: 640,
        mtbf_node_s: 0.45 * 365.0 * 86_400.0,
        interval_s: 600.0,
        levels: costs,
        l2_every: 4,
        l3_every: 16,
        restart_s: 120.0,
        severity_weights: [0.6, 0.3, 0.1],
    };

    let mut t2 = Table::new(
        "ER01b",
        "checkpoint policy under a failure-severity mix (measured level costs)",
        &["policy", "efficiency", "truncated runs"],
    );
    for (name, p) in [
        ("L1 only", base.l1_only()),
        ("L1+L2 (every 4th)", base.rotation_policy(4, 0)),
        ("L1+L2+L3 rotation", base),
    ] {
        let m = mean_multilevel_efficiency(&p, 7, 16);
        t2.row([name.into(), Cell::f(m.efficiency), m.truncated_runs.into()]);
    }
    t2.note(
        "shape: the local NVM checkpoint is an order of magnitude cheaper\n\
         than draining the same state through the BI bridges onto the PFS\n\
         (ER01a), so the rotation policy checkpoints almost as cheaply as\n\
         L1-only — but when a failure takes out several nodes at once only\n\
         levels L2/L3 still hold a copy: L1-only loses all progress at\n\
         every multi-node event while the rotation recovers and finishes\n\
         (ER01b). Multi-level checkpointing buys PFS-grade durability at\n\
         near-NVM cost — the DEEP-ER resiliency argument, quantified.",
    );
    vec![t, t2]
}
