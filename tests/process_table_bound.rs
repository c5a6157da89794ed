//! The host memory of a rank-per-process world follows its peak
//! concurrency, not how long it has run.
//!
//! psmpi spawns a short-lived helper process per `isend` and per eager
//! transfer, and the simkit kernel reuses a finished process's table slot. The table
//! length is an exact function of the program, so the bound is proved by
//! a count that repeats on any machine (ROADMAP item 4), not by watching
//! resident memory on a noisy one.

use std::rc::Rc;

use deep_bench::des_scaling::{COMPUTE, HALO_BYTES};
use deep_fabric::IbFabric;
use deep_psmpi::{launch_world, EpId, IbWire, MpiParams, ReduceOp, Universe, Value};
use deep_simkit::Simulation;

const RANKS: u32 = 64;

/// The SpMV skeleton of the `mpi_rank_1k` benchmark workload (compute
/// sleep, ring halo both ways, 8-byte allreduce) on 64 ranks over an
/// FDR fat tree. Returns the process-table length and the messages sent.
fn spmv_world(iters: u32) -> (usize, u64) {
    let mut sim = Simulation::new(1);
    let ctx = sim.handle();
    let wire = Rc::new(IbWire::new(Rc::new(IbFabric::new(&ctx, RANKS))));
    let uni = Universe::new(&ctx, wire, RANKS as usize, MpiParams::default());
    launch_world(&uni, "spmv", (0..RANKS).map(EpId).collect(), move |m| {
        Box::pin(async move {
            let world = m.world().clone();
            let size = world.size();
            let right = (m.rank() + 1) % size;
            let left = (m.rank() + size - 1) % size;
            for _ in 0..iters {
                m.sim().sleep(COMPUTE).await;
                for (to, from, tag) in [(right, left, 7), (left, right, 8)] {
                    m.sendrecv(
                        &world,
                        to,
                        tag,
                        Value::Unit,
                        HALO_BYTES,
                        Some(from),
                        Some(tag),
                    )
                    .await;
                }
                m.allreduce(&world, ReduceOp::Sum, Value::F64(1.0), 8).await;
            }
        })
    });
    sim.run().assert_completed();
    (sim.process_slots(), uni.traffic().messages)
}

#[test]
fn process_table_does_not_grow_with_simulated_time() {
    let (short_slots, short_msgs) = spmv_world(5);
    let (long_slots, long_msgs) = spmv_world(50);
    assert_eq!(long_msgs, 10 * short_msgs, "ten times the helper spawns");
    assert_eq!(long_slots, short_slots);
    assert_eq!(short_slots, 128, "peak concurrent processes: 2 x ranks");
    assert!(short_slots <= 4 * RANKS as usize);
}
