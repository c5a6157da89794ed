//! F08 — slide 8: "IB can be assumed as fast as PCIe besides latency";
//! larger messages are less latency-sensitive.
//!
//! Effective bandwidth vs message size for the bare-DMA PCIe path, the IB
//! verbs path and the EXTOLL path, reporting where the network fabrics
//! reach ≥90 % of PCIe's effective bandwidth.

use crate::{probe_fabric, size_label};
use deep_core::{Cell, Table};

pub fn tables() -> Vec<Table> {
    let mut t = Table::new(
        "F08",
        "effective bandwidth [GB/s] vs message size",
        &[
            "size",
            "PCIe (DMA)",
            "InfiniBand",
            "EXTOLL",
            "IB/PCIe",
            "EXTOLL/PCIe",
        ],
    );
    let mut ib_cross = None;
    let mut ex_cross = None;
    for shift in [6u32, 9, 12, 14, 16, 18, 20, 22, 24, 26] {
        let bytes = 1u64 << shift;
        let gb = |t: f64| bytes as f64 / t / 1e9;
        let p = gb(probe_fabric("pcie-dma", bytes));
        let i = gb(probe_fabric("ib", bytes));
        let e = gb(probe_fabric("extoll", bytes));
        if ib_cross.is_none() && i >= 0.9 * p {
            ib_cross = Some(bytes);
        }
        if ex_cross.is_none() && e >= 0.9 * p {
            ex_cross = Some(bytes);
        }
        t.row([
            size_label(bytes).into(),
            Cell::f(p),
            Cell::f(i),
            Cell::f(e),
            Cell::f(i / p),
            Cell::f(e / p),
        ]);
    }
    t.note(&format!(
        "IB reaches >=90% of PCIe bandwidth from {} payloads; EXTOLL from {}.",
        ib_cross.map(size_label).unwrap_or_else(|| "-".into()),
        ex_cross.map(size_label).unwrap_or_else(|| "-".into()),
    ));
    t.note(
        "below that, latency dominates — exactly the slide-8 claim: offload\n\
         *larger, less frequent* messages and the fabric is as good as the bus.",
    );
    vec![t]
}
