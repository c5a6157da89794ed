//! A rank-per-process psmpi world: the SpMV skeleton of the benchmark's
//! `mpi_rank_1k` workload (compute sleep, ring halo both ways, 8-byte
//! allreduce, every message `Value::Unit`) on 64 ranks over an FDR fat
//! tree, seed 1 — the shape of its `@smoke` row.
//!
//! Its host memory follows its peak concurrency, not how long it has
//! run. psmpi spawns a short-lived helper process per `isend` and per
//! eager transfer, and the simkit kernel reuses a finished process's
//! table slot. The table length is an exact function of the program, so
//! the bound is proved by a count that repeats on any machine (ROADMAP
//! item 4), not by watching resident memory on a noisy one.
//!
//! At 10 iterations the world's message count, kernel polls and
//! simulated time per iteration are the `mpi_rank_1k@smoke` row of
//! `benchmark/golden.json`, so a change to world launch or to the
//! per-message path that moves one fails here too.

use std::rc::Rc;

use deep_bench::des_scaling::{COMPUTE, HALO_BYTES};
use deep_fabric::IbFabric;
use deep_psmpi::{launch_world, EpId, IbWire, MpiParams, ReduceOp, Universe, Value};
use deep_simkit::Simulation;

const RANKS: u32 = 64;

/// Run the skeleton for `iters` iterations; the finished simulation and
/// its universe.
fn spmv_world(iters: u32) -> (Simulation, Rc<Universe>) {
    let mut sim = Simulation::new(1);
    let ctx = sim.handle();
    let wire = Rc::new(IbWire::new(Rc::new(IbFabric::new(&ctx, RANKS))));
    let uni = Universe::new(&ctx, wire, RANKS as usize, MpiParams::default());
    launch_world(
        &uni,
        "spmv",
        (0..RANKS).map(EpId).collect(),
        move |m| async move {
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
        },
    );
    sim.run().assert_completed();
    (sim, uni)
}

#[test]
fn process_table_does_not_grow_with_simulated_time() {
    let (short, short_uni) = spmv_world(5);
    let (long, long_uni) = spmv_world(50);
    let (short_slots, short_msgs) = (short.process_slots(), short_uni.traffic().messages);
    let (long_slots, long_msgs) = (long.process_slots(), long_uni.traffic().messages);
    assert_eq!(long_msgs, 10 * short_msgs, "ten times the helper spawns");
    assert_eq!(long_slots, short_slots);
    assert_eq!(short_slots, 128, "peak concurrent processes: 2 x ranks");
    assert!(short_slots <= 4 * RANKS as usize);
}

#[test]
fn mpi_rank_1k_smoke_row_is_pinned() {
    let (sim, uni) = spmv_world(10);
    assert_eq!(uni.traffic().messages, 5_120);
    assert_eq!(sim.events_processed(), 54_846);
    let iter_s = sim.now().as_secs_f64() / 10.0;
    assert_eq!(iter_s.to_bits(), 0.0020558601999999997_f64.to_bits());
}
