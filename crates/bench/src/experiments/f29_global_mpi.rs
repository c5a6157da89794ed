//! F29 — slide 29: the global-MPI stack — ParaStation MPI over
//! InfiniBand and EXTOLL, joined by the Cluster–Booster Protocol through
//! the Booster Interfaces.
//!
//! Measures (a) aggregate cluster→booster throughput vs the number of
//! BIs under a many-flow load, and (b) the per-message latency overhead
//! of crossing the bridge vs staying inside one fabric.

use std::rc::Rc;

use deep_cbp::{CbpConfig, CbpWire, CbpWireHandle};
use deep_core::{Cell, Table};
use deep_fabric::{ExtollFabric, IbFabric};
use deep_psmpi::Wire;
use deep_simkit::{Sim, Simulation};

fn machine(sim: &Sim, n_cluster: u32, n_bi: u32) -> Rc<CbpWire> {
    let ib = Rc::new(IbFabric::new(sim, n_cluster + n_bi));
    let extoll = Rc::new(ExtollFabric::new(sim, (4, 4, 4)));
    let stride = (64 / n_bi).max(1);
    let bis = (0..n_bi)
        .map(|i| (n_cluster + i, (i * stride) % 64))
        .collect();
    CbpWire::new(sim, ib, extoll, CbpConfig::new(n_cluster, 64, bis))
}

/// Aggregate bandwidth of 16 concurrent 16 MiB cluster→booster flows.
fn aggregate_bw(n_bi: u32) -> f64 {
    let mut sim = Simulation::new(3);
    let ctx = sim.handle();
    let w = machine(&ctx, 16, n_bi);
    let bytes_per_flow: u64 = 16 << 20;
    for c in 0..16u32 {
        let handle = CbpWireHandle(w.clone());
        let src = w.cluster_ep(c);
        let dst = w.booster_ep((c * 13 + 5) % 64);
        sim.spawn(format!("flow{c}"), async move {
            handle.transfer(src, dst, bytes_per_flow).await.unwrap();
        });
    }
    sim.run().assert_completed();
    16.0 * bytes_per_flow as f64 / sim.now().as_secs_f64()
}

/// Latency of one 64 B message: intra-cluster, intra-booster, bridged.
fn latencies() -> (f64, f64, f64) {
    let mut sim = Simulation::new(3);
    let ctx = sim.handle();
    let w = machine(&ctx, 16, 2);
    let h1 = {
        let handle = CbpWireHandle(w.clone());
        let (a, b) = (w.cluster_ep(0), w.cluster_ep(9));
        sim.spawn("cc", async move {
            handle
                .transfer(a, b, 64)
                .await
                .unwrap()
                .elapsed
                .as_secs_f64()
        })
    };
    let h2 = {
        let handle = CbpWireHandle(w.clone());
        let (a, b) = (w.booster_ep(0), w.booster_ep(21));
        sim.spawn("bb", async move {
            handle
                .transfer(a, b, 64)
                .await
                .unwrap()
                .elapsed
                .as_secs_f64()
        })
    };
    let h3 = {
        let handle = CbpWireHandle(w.clone());
        let (a, b) = (w.cluster_ep(1), w.booster_ep(33));
        sim.spawn("cb", async move {
            handle
                .transfer(a, b, 64)
                .await
                .unwrap()
                .elapsed
                .as_secs_f64()
        })
    };
    sim.run().assert_completed();
    (
        h1.try_result().unwrap(),
        h2.try_result().unwrap(),
        h3.try_result().unwrap(),
    )
}

pub fn tables() -> Vec<Table> {
    let mut t = Table::new(
        "F29a",
        "aggregate cluster->booster throughput vs booster interfaces (16 flows)",
        &["BIs", "aggregate [GB/s]", "speedup vs 1 BI"],
    );
    let mut base = None;
    for n_bi in [1u32, 2, 4, 8, 16] {
        let bw = aggregate_bw(n_bi);
        let b = *base.get_or_insert(bw);
        t.row([n_bi.into(), Cell::f(bw / 1e9), Cell::x(bw / b)]);
    }

    let (cc, bb, cb) = latencies();
    let mut t2 = Table::new(
        "F29b",
        "64 B message latency by path",
        &["path", "latency [µs]"],
    );
    t2.row(["cluster -> cluster (IB)".into(), Cell::f(cc * 1e6)]);
    t2.row(["booster -> booster (EXTOLL)".into(), Cell::f(bb * 1e6)]);
    t2.row(["cluster -> booster (CBP bridge)".into(), Cell::f(cb * 1e6)]);
    t2.note(&format!(
        "shape: aggregate inter-world bandwidth scales with the BI count until\n\
         the 16 source NICs saturate; a bridged small message costs roughly\n\
         one IB + one EXTOLL traversal + the SMFU translation ({:.1}x a plain\n\
         IB message). Global MPI pays the bridge only on the comparatively\n\
         rare cluster<->booster messages (slides 8, 29).",
        cb / cc
    ));
    vec![t, t2]
}
