//! ER02 — parallel I/O patterns on the shared fabric: task-local (N-N),
//! shared-file (N-1), and SIONlib containers.
//!
//! Every cluster rank writes the same payload through the machine's file
//! layer onto the PFS (whose servers hang off the same InfiniBand fat
//! tree as the MPI traffic). The three patterns differ only in metadata
//! traffic and alignment padding — which is exactly where N-1 I/O
//! collapses and why SIONlib restores N-N performance from a single
//! shared container.

use deep_core::{fmt_bytes, Cell, DeepConfig, DeepMachine, Table};
use deep_fabric::NodeId;
use deep_io::{FileLayerParams, WritePattern};
use deep_simkit::Simulation;

/// One write phase on a fresh machine; returns (goodput B/s, meta ops,
/// physical bytes, payload bytes).
fn run_phase(ranks: u32, bytes_per_rank: u64, pattern: WritePattern) -> (f64, u64, u64, u64) {
    let mut sim = Simulation::new(17);
    let ctx = sim.handle();
    let mut cfg = DeepConfig::medium();
    // Small application blocks against the FS alignment: the regime
    // where locking and padding dominate the shared file.
    cfg.storage.file_layer = FileLayerParams {
        shared_block_bytes: 1 << 19,
        ..FileLayerParams::default()
    };
    let machine = DeepMachine::build(&ctx, cfg);
    let layer = machine.file_layer();
    let clients: Vec<NodeId> = (0..ranks).map(NodeId).collect();
    let l = layer.clone();
    let h = sim.spawn("io-phase", async move {
        l.write_phase(&clients, bytes_per_rank, pattern).await
    });
    sim.run().assert_completed();
    let stats = h.try_result().unwrap();
    (
        stats.goodput_bps(),
        stats.meta_ops,
        stats.physical_bytes,
        stats.payload_bytes,
    )
}

pub fn tables() -> Vec<Table> {
    let bytes_per_rank = 16u64 << 20;
    let patterns = [
        WritePattern::TaskLocal,
        WritePattern::SharedFile,
        WritePattern::Sion,
    ];

    let mut t = Table::new(
        "ER02",
        "write patterns onto the PFS (16 MiB per rank)",
        &[
            "ranks",
            "pattern",
            "goodput [GB/s]",
            "meta ops",
            "amplification",
        ],
    );
    for ranks in [4u32, 8, 16] {
        for pattern in patterns {
            let (goodput, meta, physical, payload) = run_phase(ranks, bytes_per_rank, pattern);
            t.row([
                ranks.into(),
                pattern.name().into(),
                Cell::f(goodput / 1e9),
                meta.into(),
                Cell::f(physical as f64 / payload as f64),
            ]);
        }
    }
    t.note(&format!(
        "payload {} per rank; shape: task-local writes stream at the PFS\n\
         servers' aggregate bandwidth but cost one metadata create per\n\
         rank; the shared file serialises a lock grant per block on the\n\
         metadata server and pads every block to the FS alignment, so its\n\
         goodput collapses as ranks grow; the SION container opens once\n\
         collectively and then matches task-local streaming — N-N\n\
         performance from one file, the SIONlib claim.",
        fmt_bytes(bytes_per_rank)
    ));
    vec![t]
}
