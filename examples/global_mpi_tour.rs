//! A tour of the global-MPI layer: communicator management, collectives
//! and the spawn/merge machinery of slides 26–29 — in one program on the
//! small DEEP machine.
//!
//! Run with: `cargo run --release --example global_mpi_tour`

use deep_core::{DeepConfig, DeepMachine, BOOSTER_POOL};
use deep_psmpi::{MpiCtx, ReduceOp, Value};
use deep_simkit::Simulation;
use std::rc::Rc;

fn main() {
    let mut sim = Simulation::new(1);
    let machine = DeepMachine::build(&sim.handle(), DeepConfig::small());

    // The booster-side program: compute in the child world, then merge
    // the inter-communicator into one big world (MPI_Intercomm_merge) and
    // participate in a global allreduce spanning cluster AND booster.
    machine.register_app(
        "tour-worker",
        Rc::new(|m: MpiCtx| {
            Box::pin(async move {
                let world = m.world().clone();
                let inter = m.parent().unwrap().clone();
                // Children get their own MPI_COMM_WORLD (slide 26).
                let child_sum = m.allreduce(&world, ReduceOp::Sum, Value::U64(1), 8).await;
                if m.rank() == 0 {
                    println!(
                        "[booster] world size {} (sum check {})",
                        m.size(),
                        child_sum.as_u64()
                    );
                }
                // high=true: booster ranks come after the cluster ranks.
                let global = m.intercomm_merge(&inter, true);
                let everyone = m.allreduce(&global, ReduceOp::Sum, Value::U64(1), 8).await;
                if m.rank() == 0 {
                    println!(
                        "[booster] merged global world has {} ranks",
                        everyone.as_u64()
                    );
                }
            })
        }),
    );

    machine.launch_cluster_app("tour", move |m| async move {
        let world = m.world().clone();

        // 1. Split the cluster world by parity (MPI_Comm_split).
        let parity = m.rank() % 2;
        let half = m.comm_split(&world, parity, m.rank()).await;
        let group_sum = m
            .allreduce(&half, ReduceOp::Sum, Value::U64(m.rank() as u64), 8)
            .await;
        if half.rank() == 0 {
            println!(
                "[cluster] parity-{} group of {} ranks, old-rank sum {}",
                parity,
                half.size(),
                group_sum.as_u64()
            );
        }

        // 2. Prefix sums over the whole cluster (MPI_Scan).
        let prefix = m
            .scan(&world, ReduceOp::Sum, Value::U64(m.rank() as u64 + 1), 8)
            .await;
        println!(
            "[cluster] rank {}: inclusive prefix sum = {}",
            m.rank(),
            prefix.as_u64()
        );

        // 3. Spawn the booster side and merge into a global world.
        let inter = m
            .comm_spawn(&world, "tour-worker", 8, BOOSTER_POOL, 0)
            .await
            .expect("spawn");
        let global = m.intercomm_merge(&inter, false);
        let everyone = m.allreduce(&global, ReduceOp::Sum, Value::U64(1), 8).await;
        if m.rank() == 0 {
            println!(
                "[cluster] merged global world has {} ranks ({} cluster + {} booster)",
                everyone.as_u64(),
                m.size(),
                inter.remote_size()
            );
        }

        // 4. iprobe: peek before receiving.
        if m.rank() == 0 {
            m.send(&world, 1, 42, Value::U64(7), 2048).await;
        }
        if m.rank() == 1 {
            m.sim().sleep(deep_simkit::SimDuration::millis(1)).await;
            if let Some((src, tag, bytes)) = m.iprobe(&world, None, None) {
                println!("[cluster] probed a message: src={src} tag={tag} bytes={bytes}");
            }
            let msg = m.recv(&world, Some(0), Some(42)).await;
            println!("[cluster] ...and received {}", msg.value.as_u64());
        }
        m.barrier(&world).await;
    });

    sim.run().assert_completed();
    println!("tour finished at t={}", sim.now());
}
