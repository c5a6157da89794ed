//! F16 — slide 16: the EXTOLL NIC features.
//!
//! * VELO small-message latency vs payload size (zero-copy MPI path);
//! * RMA streaming bandwidth vs payload size;
//! * per-hop latency scaling on the 3-D torus (6-link router);
//! * CRC + link-level retransmission under injected bit errors (RAS).

use std::rc::Rc;

use crate::size_label;
use deep_core::{Cell, Table};
use deep_fabric::{ExtollFabric, FaultModel, NodeId};
use deep_simkit::Simulation;

pub fn tables() -> Vec<Table> {
    // --- VELO latency + RMA bandwidth --------------------------------
    let mut t = Table::new(
        "F16a",
        "VELO latency and RMA bandwidth vs payload",
        &[
            "payload",
            "VELO latency [µs]",
            "RMA put [µs]",
            "RMA goodput [GB/s]",
        ],
    );
    for shift in [3u32, 6, 9, 12, 13, 16, 20, 24] {
        let bytes = 1u64 << shift;
        let velo = if bytes <= 8192 {
            Cell::f(crate::probe_fabric("extoll-velo", bytes) * 1e6)
        } else {
            "-".into() // beyond the VELO engine limit
        };
        let rma = crate::probe_fabric("extoll-rma", bytes);
        t.row([
            size_label(bytes).into(),
            velo,
            Cell::f(rma * 1e6),
            Cell::f(bytes as f64 / rma / 1e9),
        ]);
    }

    // --- Torus hop scaling -------------------------------------------
    let mut t2 = Table::new(
        "F16b",
        "torus distance scaling (8x8x8, dimension-ordered routing)",
        &["hops", "VELO 8 B latency [µs]"],
    );
    for hops in 1..=12u32 {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ext = Rc::new(ExtollFabric::new(&ctx, (8, 8, 8)));
        // Pick a destination at the wanted torus distance along the axes.
        let dst = match hops {
            1..=4 => NodeId(hops),
            5..=8 => NodeId(4 + 8 * (hops - 4)),
            _ => NodeId(4 + 8 * 4 + 64 * (hops - 8)),
        };
        assert_eq!(ext.hop_count(NodeId(0), dst), hops);
        let e = ext.clone();
        let h = sim.spawn("probe", async move {
            e.velo_send(NodeId(0), dst, 8).await.unwrap().elapsed
        });
        sim.run().assert_completed();
        t2.row([
            hops.into(),
            Cell::f(h.try_result().unwrap().as_nanos() as f64 / 1e3),
        ]);
    }

    // --- RAS: goodput under injected CRC errors ----------------------
    let mut t3 = Table::new(
        "F16c",
        "link-level retransmission: 16 MiB RMA under segment error rates",
        &[
            "segment error rate",
            "retransmissions",
            "goodput [GB/s]",
            "vs clean",
        ],
    );
    let clean = {
        let mut sim = Simulation::new(7);
        let ctx = sim.handle();
        let ext = Rc::new(ExtollFabric::new(&ctx, (4, 4, 4)));
        let e = ext.clone();
        let h = sim.spawn("probe", async move {
            e.rma_put(NodeId(0), NodeId(3), 16 << 20).await.unwrap()
        });
        sim.run().assert_completed();
        h.try_result().unwrap().goodput_bps()
    };
    for rate in [0.0, 1e-4, 1e-3, 1e-2, 5e-2, 0.2] {
        let mut sim = Simulation::new(7);
        let ctx = sim.handle();
        let ext = Rc::new(
            ExtollFabric::new(&ctx, (4, 4, 4)).with_fault_model(FaultModel {
                segment_error_rate: rate,
                max_retries: 64,
            }),
        );
        let e = ext.clone();
        let h = sim.spawn("probe", async move {
            e.rma_put(NodeId(0), NodeId(3), 16 << 20).await.unwrap()
        });
        sim.run().assert_completed();
        let st = h.try_result().unwrap();
        t3.row([
            Cell::Num(rate, |v| format!("{v:.0e}")),
            st.retransmissions.into(),
            Cell::f(st.goodput_bps() / 1e9),
            Cell::f(st.goodput_bps() / clean),
        ]);
    }
    t3.note(
        "shape: sub-µs VELO latency for small messages; RMA saturates the\n\
         ~7 GB/s link for bulk; latency grows by one 60 ns router hop per\n\
         torus step; CRC retransmission degrades goodput gracefully instead\n\
         of failing — the RAS behaviour slide 16 advertises.",
    );
    vec![t, t2, t3]
}
