//! F06 — slides 6–7: the accelerated-cluster pathologies.
//!
//! 1. Offload round trip: host-staged PCIe (driver path) vs direct
//!    fabric-attached accelerator, across kernel-data sizes.
//! 2. GPU↔GPU cross-node transfer: D2H + IB + H2D staging vs a single
//!    direct-fabric hop (the "communication so far via main memory" cost).

use crate::{probe_fabric, size_label};
use deep_core::{Cell, Table};

pub fn tables() -> Vec<Table> {
    let mut t = Table::new(
        "F06",
        "offload data path: host-staged PCIe vs direct fabric [µs]",
        &["payload", "PCIe (driver)", "EXTOLL direct", "direct/PCIe"],
    );
    for shift in [10u32, 13, 16, 20, 24] {
        let bytes = 1u64 << shift;
        let p = probe_fabric("pcie-driver", bytes);
        let e = probe_fabric("extoll", bytes);
        t.row([
            size_label(bytes).into(),
            Cell::f(p * 1e6),
            Cell::f(e * 1e6),
            Cell::f(e / p),
        ]);
    }

    // Cross-node accelerator-to-accelerator exchange.
    let mut t2 = Table::new(
        "F06b",
        "accelerator-to-accelerator across nodes [µs]",
        &[
            "payload",
            "staged: D2H + IB + H2D",
            "direct: EXTOLL hop",
            "staging penalty",
        ],
    );
    for shift in [10u32, 13, 16, 20, 24] {
        let bytes = 1u64 << shift;
        let staged = probe_fabric("pcie-driver", bytes)
            + probe_fabric("ib", bytes)
            + probe_fabric("pcie-driver", bytes);
        let direct = probe_fabric("extoll", bytes);
        t2.row([
            size_label(bytes).into(),
            Cell::f(staged * 1e6),
            Cell::f(direct * 1e6),
            Cell::x(staged / direct),
        ]);
    }
    t2.note(
        "shape: small transfers pay ~3 software/DMA overheads when staged\n\
         through the host; bulk transfers pay ~3 serializations. A directly\n\
         attached accelerator (cluster of accelerators, slide 7) removes both,\n\
         which is the architectural case for the booster.",
    );
    vec![t, t2]
}
