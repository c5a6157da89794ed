//! Quickstart: boot a small DEEP machine, spawn the booster through
//! global MPI, and run one offloaded kernel.
//!
//! Run with: `cargo run --release --example quickstart`

use deep_core::{DeepConfig, DeepMachine, BOOSTER_POOL, OFFLOAD_SERVER};
use deep_hw::KernelProfile;
use deep_ompss::{booster_block, OffloadSpec, Offloader};
use deep_psmpi::{ReduceOp, Value};
use deep_simkit::Simulation;

fn main() {
    let mut sim = Simulation::new(42);
    let config = DeepConfig::small();
    let n_booster = config.n_booster();
    println!(
        "DEEP machine: {} cluster nodes (InfiniBand) + {} booster nodes \
         ({}x{}x{} EXTOLL torus) + {} booster interfaces",
        config.n_cluster,
        n_booster,
        config.booster_dims.0,
        config.booster_dims.1,
        config.booster_dims.2,
        config.n_bi
    );

    let machine = DeepMachine::build(&sim.handle(), config);
    machine.launch_cluster_app("main", move |mpi| async move {
        let world = mpi.world().clone();
        if mpi.rank() == 0 {
            println!(
                "[{}] cluster world of {} ranks up",
                mpi.sim().now(),
                mpi.size()
            );
        }

        // Slide 21: the main() part collectively spawns the highly
        // scalable code part onto the booster via MPI_Comm_spawn.
        let inter = mpi
            .comm_spawn(&world, OFFLOAD_SERVER, n_booster, BOOSTER_POOL, 0)
            .await
            .expect("booster spawn");
        if mpi.rank() == 0 {
            println!(
                "[{}] booster world of {} ranks spawned; intercommunicator ready",
                mpi.sim().now(),
                inter.remote_size()
            );
        }

        // Offload one stencil-like kernel, data in and out.
        let off = Offloader::new(inter);
        let block = booster_block(mpi.rank(), mpi.size(), n_booster);
        let spec = OffloadSpec {
            in_bytes: 2 << 20,
            out_bytes: 2 << 20,
            kernel: KernelProfile::stencil2d(8 << 20),
            cores: u32::MAX,
            iters: 8,
            internal_msg_bytes: 32 << 10,
        };
        let report = off.run(&mpi, &spec, block.clone()).await;
        println!(
            "[{}] rank {}: offloaded kernel over booster ranks {:?} in {}",
            mpi.sim().now(),
            mpi.rank(),
            block,
            report.elapsed
        );

        // A cluster-side collective for good measure.
        let total = mpi.allreduce(&world, ReduceOp::Sum, Value::U64(1), 8).await;
        if mpi.rank() == 0 {
            println!(
                "[{}] allreduce says {} cluster ranks are alive",
                mpi.sim().now(),
                total.as_u64()
            );
        }
        off.shutdown(&mpi, block).await;
    });

    sim.run().assert_completed();
    let traffic = machine.cbp().bridged_traffic();
    println!(
        "done at t={}; {} messages / {} bytes crossed the cluster-booster bridge",
        sim.now(),
        traffic.messages,
        traffic.bytes
    );
}
