//! F18 — slide 18: positioning DEEP between highly scalable
//! architectures (Blue Gene) and low/medium-scalable clusters.
//!
//! For each application class we estimate sustained performance per MW on
//! three machines, using the roofline + network models. The figure's
//! point: BG-class machines win on regular codes, clusters win on complex
//! codes, and the DEEP machine spans both because each part of an
//! application runs on the side that suits it.

use deep_core::{Cell, Table};
use deep_hw::{exec_time, exec_time_with_mode, KernelProfile, NodeModel};
use deep_psmpi::NetModel;

use crate::des_scaling::Skeleton;

struct AppClass {
    name: &'static str,
    /// Per-node kernel (weak-scaled work unit).
    kernel: KernelProfile,
    /// Vectorises well?
    vectorised: bool,
    /// Communicates like F09's complex class (all-to-all) rather than
    /// its regular one.
    complex: bool,
}

pub fn tables() -> Vec<Table> {
    let apps = [
        AppClass {
            name: "regular sparse (HSCP)",
            kernel: KernelProfile::spmv(40_000_000),
            vectorised: true,
            complex: false,
        },
        AppClass {
            name: "dense vector kernel",
            kernel: KernelProfile::dgemm(2048),
            vectorised: true,
            complex: false,
        },
        AppClass {
            name: "complex multiphysics",
            kernel: KernelProfile {
                flops: 2e9,
                bytes: 1e9,
                compute_efficiency: 0.6,
                bandwidth_efficiency: 0.5,
            },
            vectorised: false,
            complex: true,
        },
    ];

    // Machines: (name, node model, network, node count at ~1 MW).
    let machines: [(&str, NodeModel, NetModel); 3] = [
        (
            "BG/Q-like (highly scalable)",
            NodeModel::bluegene_q_node(),
            NetModel::extoll(), // BG torus: similar latency class
        ),
        (
            "Xeon cluster (low/medium)",
            NodeModel::xeon_cluster_node(),
            NetModel::ib_fdr(),
        ),
        (
            "DEEP cluster-booster",
            NodeModel::xeon_phi_knc(), // HSCP side; complex side handled below
            NetModel::extoll(),
        ),
    ];

    let mut t = Table::new(
        "F18",
        "sustained Gflop/s per MW by application class (weak-scaled to ~1 MW)",
        &["application class", "BG/Q-like", "Xeon cluster", "DEEP"],
    );
    for app in &apps {
        let mut tf_per_mw = [0.0; 3];
        for (mi, (_, node, net)) in machines.iter().enumerate() {
            // DEEP runs complex code on its Xeon side, regular on booster.
            let (node, net) = if mi == 2 && !app.vectorised {
                (NodeModel::xeon_cluster_node(), NetModel::ib_fdr())
            } else {
                (node.clone(), *net)
            };
            let nodes_per_mw = (1e6 / node.power.peak_w) as u64;
            let p = if app.vectorised {
                exec_time(&node, &app.kernel, node.cores)
            } else {
                exec_time_with_mode(&node, &app.kernel, node.cores, false)
            };
            let t_comp = p.time.as_secs_f64();
            let t_comm = Skeleton::new(nodes_per_mw as u32, app.complex)
                .comm_time(&net)
                .as_secs_f64();
            let eff = t_comp / (t_comp + t_comm);
            let sustained_per_mw = p.sustained_flops * eff * nodes_per_mw as f64 / 1e9;
            tf_per_mw[mi] = sustained_per_mw / 1e3;
        }
        t.row(std::iter::once(app.name.into()).chain(tf_per_mw.map(Cell::f)));
    }
    t.note(
        "(values in TFlop/s per MW.) shape: the BG-like machine and the DEEP\n\
         booster dominate on regular/vectorisable classes; the Xeon cluster\n\
         wins on complex scalar code; only DEEP is near the top of *both*\n\
         rows — the dual positioning of slide 18.",
    );
    vec![t]
}
