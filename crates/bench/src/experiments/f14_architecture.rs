//! F14 — slides 11–14: the DEEP prototype system, quantitatively.
//!
//! Prints the machine inventory of the configured prototype — node
//! counts, fabric shapes, aggregate peaks and power — the numbers behind
//! the architecture diagram.

use deep_core::{Cell, DeepConfig, Table};

pub fn tables() -> Vec<Table> {
    let mut t = Table::new(
        "F14",
        "DEEP machine inventory",
        &[
            "configuration",
            "CN",
            "BN (torus)",
            "BIs",
            "peak [TF]",
            "booster share",
            "power [kW]",
            "GF/W",
        ],
    );
    for cfg in [
        DeepConfig::small(),
        DeepConfig::medium(),
        DeepConfig::prototype(),
    ] {
        let peak_tf = cfg.peak_flops() / 1e12;
        let booster_share =
            cfg.n_booster() as f64 * cfg.booster_node.peak_flops() / cfg.peak_flops();
        let kw = cfg.peak_power_w() / 1e3;
        let name = match cfg.n_cluster {
            4 => "small (tests)",
            16 => "medium (benches)",
            _ => "DEEP prototype",
        };
        let (x, y, z) = cfg.booster_dims;
        t.row([
            name.into(),
            cfg.n_cluster.into(),
            format!("{} ({x}x{y}x{z})", cfg.n_booster()).into(),
            cfg.n_bi.into(),
            Cell::f(peak_tf),
            Cell::Num(booster_share * 100.0, |v| format!("{v:.0}%")),
            Cell::f(kw),
            Cell::f(cfg.peak_flops() / 1e9 / cfg.peak_power_w()),
        ]);
    }

    let proto = DeepConfig::prototype();
    t.note(&format!(
        "the prototype: {} Xeon cluster nodes on an FDR fat tree + a {}-node\n\
         KNC booster on an 8x8x8 EXTOLL torus bridged by {} BIs — ~{:.0} TF\n\
         peak at ~{:.0} kW, with {:.0}% of the flops in the booster. That\n\
         asymmetry is the architecture: the cluster orchestrates, the\n\
         booster computes.",
        proto.n_cluster,
        proto.n_booster(),
        proto.n_bi,
        proto.peak_flops() / 1e12,
        proto.peak_power_w() / 1e3,
        proto.n_booster() as f64 * proto.booster_node.peak_flops() / proto.peak_flops() * 100.0
    ));
    vec![t]
}
