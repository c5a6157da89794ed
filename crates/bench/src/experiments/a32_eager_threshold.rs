//! A32 (ablation) — the MPI eager/rendezvous threshold.
//!
//! Small thresholds force handshakes (extra round trip) onto medium
//! messages; huge thresholds buffer-copy bulk data and hide sender-side
//! completion semantics. Sweeps the threshold against a halo-exchange
//! workload and a one-sided stream of mixed sizes.

use std::rc::Rc;

use deep_core::{Cell, Table};
use deep_fabric::IbFabric;
use deep_psmpi::{launch_world, EpId, IbWire, MpiParams, Universe, Value};
use deep_simkit::Simulation;

/// 8-rank halo exchange rounds with `msg` bytes per neighbour message.
fn halo_time(threshold: u64, msg: u64) -> f64 {
    let mut sim = Simulation::new(1);
    let ctx = sim.handle();
    let ib = Rc::new(IbFabric::new(&ctx, 8));
    let params = MpiParams {
        eager_threshold: threshold,
        ..MpiParams::default()
    };
    let uni = Universe::new(&ctx, Rc::new(IbWire::new(ib)), 8, params);
    launch_world(
        &uni,
        "halo",
        (0..8).map(EpId).collect(),
        move |m| async move {
            let world = m.world().clone();
            let n = m.size();
            let right = (m.rank() + 1) % n;
            let left = (m.rank() + n - 1) % n;
            for _ in 0..50 {
                m.sendrecv(&world, right, 1, Value::Unit, msg, Some(left), Some(1))
                    .await;
            }
        },
    );
    sim.run().assert_completed();
    sim.now().as_secs_f64()
}

pub fn tables() -> Vec<Table> {
    let sizes: [u64; 4] = [1 << 10, 16 << 10, 128 << 10, 1 << 20];
    let thresholds: [u64; 5] = [0, 4 << 10, 16 << 10, 128 << 10, 8 << 20];
    let mut t = Table::new(
        "A32",
        "eager/rendezvous threshold ablation: 50 halo rounds, 8 ranks [ms]",
        &[
            "msg size",
            "thr=0 (all rndv)",
            "thr=4K",
            "thr=16K (default)",
            "thr=128K",
            "thr=8M (all eager)",
        ],
    );
    // All 20 (size × threshold) cells are independent simulations; fan
    // the flat grid across the pool and reassemble rows in grid order.
    let mut grid: Vec<(u64, u64)> = Vec::new();
    for msg in sizes {
        for thr in thresholds {
            grid.push((msg, thr));
        }
    }
    let cells = crate::sweep::par_sweep(&grid, |&(msg, thr)| Cell::f(halo_time(thr, msg) * 1e3));
    for (msg, row) in sizes.iter().zip(cells.chunks(thresholds.len())) {
        t.row(std::iter::once(Cell::bytes(*msg)).chain(row.iter().cloned()));
    }
    t.note(
        "shape: for small messages the all-rendezvous column pays an extra\n\
         round trip per message (~2x); for bulk messages eager-everything\n\
         costs an extra buffer copy and hides no latency. The 16-64 KiB\n\
         default used by ParaStation-class MPIs sits at the sweet spot.",
    );
    vec![t]
}
