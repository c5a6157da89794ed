//! A33 (ablation) — allreduce algorithm selection: recursive doubling vs
//! ring (reduce-scatter + allgather) vs reduce+bcast, across payload
//! sizes and group sizes, on the simulated InfiniBand fabric.
//!
//! The table reports simulated time only, which depends on byte counts
//! alone, so every contribution is cost-only (`Value::Unit` + `bytes`):
//! an 8 MB row books the messages of 16 × 1 Mi doubles without
//! allocating or summing one of them.

use std::rc::Rc;

use deep_core::{Cell, Table};
use deep_fabric::IbFabric;
use deep_psmpi::{launch_world, EpId, IbWire, MpiParams, ReduceOp, Universe, Value};
use deep_simkit::Simulation;

#[derive(Clone, Copy, PartialEq)]
enum Algo {
    RecursiveDoubling,
    Ring,
    ReduceBcast,
}

fn run_case(algo: Algo, ranks: u32, doubles: usize) -> f64 {
    let mut sim = Simulation::new(1);
    let ctx = sim.handle();
    let ib = Rc::new(IbFabric::new(&ctx, ranks));
    // Pin the threshold so the adaptive `allreduce` takes the ring for
    // every payload (Ring) or for none (RecursiveDoubling).
    let params = MpiParams {
        allreduce_ring_threshold: if algo == Algo::Ring { 0 } else { u64::MAX },
        ..MpiParams::default()
    };
    let uni = Universe::new(&ctx, Rc::new(IbWire::new(ib)), ranks as usize, params);
    launch_world(
        &uni,
        "ar",
        (0..ranks).map(EpId).collect(),
        move |m| async move {
            let world = m.world().clone();
            let bytes = 8 * doubles as u64;
            for _ in 0..5 {
                if algo == Algo::ReduceBcast {
                    m.reduce(&world, 0, ReduceOp::Sum, Value::Unit, bytes).await;
                    m.bcast(&world, 0, Value::Unit, bytes).await;
                } else {
                    m.allreduce(&world, ReduceOp::Sum, Value::Unit, bytes).await;
                }
            }
        },
    );
    sim.run().assert_completed();
    sim.now().as_secs_f64() / 5.0
}

pub fn tables() -> Vec<Table> {
    let mut t = Table::new(
        "A33",
        "allreduce algorithm ablation: time per operation [µs], 16 ranks on IB",
        &[
            "payload",
            "recursive doubling",
            "ring",
            "reduce+bcast",
            "best",
        ],
    );
    // The 5×3 (payload × algorithm) grid is the heaviest sweep in the
    // suite; flatten it so all 15 simulations fan out, then fold each
    // payload's three timings back in algorithm order.
    let payloads = [16usize, 1024, 32_768, 262_144, 1_048_576];
    let algos = [Algo::RecursiveDoubling, Algo::Ring, Algo::ReduceBcast];
    let grid: Vec<(usize, Algo)> = payloads
        .iter()
        .flat_map(|&doubles| algos.map(|algo| (doubles, algo)))
        .collect();
    let times = crate::sweep::par_sweep(&grid, |&(doubles, algo)| run_case(algo, 16, doubles));
    for (&doubles, secs) in payloads.iter().zip(times.chunks(3)) {
        // The first of the fastest.
        let best = (1..3).fold(0, |b, i| if secs[i] < secs[b] { i } else { b });
        let mut cells = vec![Cell::bytes(8 * doubles as u64)];
        cells.extend(secs.iter().map(|s| Cell::f(s * 1e6)));
        cells.push(["rec-doubling", "ring", "reduce+bcast"][best].into());
        t.row(cells);
    }
    t.note(
        "shape: latency-bound small payloads favour the log-depth recursive\n\
         doubling; bandwidth-bound large payloads favour the ring, which\n\
         moves 2(n-1)/n of the data per rank instead of log2(n) full copies.\n\
         This crossover is exactly why the MPI layer selects by size\n\
         (MpiParams::allreduce_ring_threshold).",
    );
    vec![t]
}
