//! F15 — slide 15: "Energy efficient: 5 GFlop/W" (Xeon Phi).
//!
//! Runs a DGEMM-like roofline kernel and a memory-bound SpMV on the
//! cluster node and the booster node, reporting sustained performance and
//! achieved energy efficiency from the power model.

use deep_core::{Cell, Table};
use deep_hw::{exec_time, EnergyMeter, KernelProfile, NodeModel};

pub fn tables() -> Vec<Table> {
    let nodes = [NodeModel::xeon_cluster_node(), NodeModel::xeon_phi_knc()];
    let kernels: [(&str, KernelProfile); 2] = [
        ("DGEMM n=4096", KernelProfile::dgemm(4096)),
        ("SpMV nnz=5e8", KernelProfile::spmv(500_000_000)),
    ];

    let mut t = Table::new(
        "F15",
        "sustained performance and energy efficiency per node",
        &[
            "node",
            "kernel",
            "time",
            "sustained [GF/s]",
            "bound",
            "achieved GF/W",
            "peak GF/W",
        ],
    );
    for node in &nodes {
        for (name, k) in &kernels {
            let pt = exec_time(node, k, node.cores);
            let mut meter = EnergyMeter::new();
            meter.record(&node.power, pt.time, 1.0);
            let eff = meter.gflops_per_watt(k.flops);
            t.row([
                (&node.name).into(),
                (*name).into(),
                Cell::secs(pt.time),
                Cell::f(pt.sustained_flops / 1e9),
                if pt.memory_bound { "memory" } else { "compute" }.into(),
                Cell::f(eff),
                Cell::f(node.peak_gflops_per_watt()),
            ]);
        }
    }

    let xeon = &nodes[0];
    let knc = &nodes[1];
    t.note(&format!(
        "peak efficiency: KNC {:.2} GF/W vs Xeon node {:.2} GF/W — factor\n\
         {:.1}, reproducing the slide-15 \"5 GFlop/W\" claim (peak/TDP).\n\
         Note the flip side the paper also acknowledges: on memory-bound or\n\
         scalar code the booster's advantage shrinks or disappears, which is\n\
         why only the *highly scalable, vectorisable* kernels move there.",
        knc.peak_gflops_per_watt(),
        xeon.peak_gflops_per_watt(),
        knc.peak_gflops_per_watt() / xeon.peak_gflops_per_watt()
    ));
    vec![t]
}
