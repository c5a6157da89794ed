//! F03 — slide 3 (bonus): "Power consumption (are ~100 MW acceptable?)".
//!
//! Projects the facility power of a hypothetical 1-EFlop machine built
//! from each node type of the 2012/2013 era, the arithmetic behind the
//! paper's exascale anxiety.

use deep_core::{Cell, Table};
use deep_hw::NodeModel;

pub fn tables() -> Vec<Table> {
    let exa = 1e18;
    let mut t = Table::new(
        "F03",
        "what would an exaflop cost in power, per building block?",
        &[
            "node type",
            "peak/node [GF]",
            "GF/W",
            "nodes for 1 EF",
            "facility [MW]",
        ],
    );
    for node in [
        NodeModel::bluegene_p_node(),
        NodeModel::bluegene_q_node(),
        NodeModel::xeon_cluster_node(),
        NodeModel::gpu_k20x(),
        NodeModel::xeon_phi_knc(),
    ] {
        let nodes = exa / node.peak_flops();
        let mw = nodes * node.power.peak_w / 1e6;
        t.row([
            node.name.as_str().into(),
            Cell::f(node.peak_flops() / 1e9),
            Cell::f(node.peak_gflops_per_watt()),
            Cell::Num(nodes, |v| format!("{v:.2e}")),
            Cell::f(mw),
        ]);
    }
    t.note(
        "even the booster silicon of 2012 needs ~200 MW for an exaflop —\n\
         double the \"are ~100 MW acceptable?\" line of slide 3; Xeon-only\n\
         needs ~1 GW. Heterogeneity is not optional at exascale.",
    );
    vec![t]
}
