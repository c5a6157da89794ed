//! The PFS rides the cluster's InfiniBand fabric — so file I/O and MPI
//! traffic contend on the same links. This test pins that down end to
//! end: PFS writes running concurrently with a bulk allreduce slow BOTH
//! down compared to either running in isolation.

use deep_core::{DeepConfig, DeepMachine};
use deep_fabric::NodeId;
use deep_psmpi::{ReduceOp, Value};
use deep_simkit::{join_all, Simulation};

const WRITERS: u32 = 4;
const WRITE_BYTES: u64 = 32 << 20;
const ALLREDUCE_BYTES: u64 = 8 << 20;
const ALLREDUCE_ROUNDS: u32 = 6;

/// Run the machine with either workload enabled; returns the elapsed
/// seconds of (PFS write phase, allreduce phase), 0.0 when disabled.
fn run(with_io: bool, with_mpi: bool, seed: u64) -> (f64, f64) {
    let mut sim = Simulation::new(seed);
    let ctx = sim.handle();
    let mut cfg = DeepConfig::small();
    // Fast, plentiful PFS servers: their aggregate absorb rate exceeds a
    // client's host link, so the fabric — not the media — is the
    // bottleneck. That is the regime where I/O and MPI traffic visibly
    // interact (a media-bound PFS would hide the shared links entirely).
    cfg.storage.pfs.n_servers = 8;
    cfg.storage.pfs.server_device.write_bps = 5e9;
    cfg.storage.pfs.server_device.latency = deep_simkit::SimDuration::micros(100);
    let machine = DeepMachine::build(&ctx, cfg);
    // Every cluster node streams a checkpoint-sized file to the PFS over
    // its own IB host link.
    let io = with_io.then(|| {
        let pfs = machine.pfs().clone();
        let sim2 = ctx.clone();
        sim.spawn("pfs-writers", async move {
            let start = sim2.now();
            let handles: Vec<_> = (0..WRITERS)
                .map(|c| {
                    let pfs = pfs.clone();
                    sim2.spawn(format!("writer-{c}"), async move {
                        pfs.write(NodeId(c), WRITE_BYTES).await;
                    })
                })
                .collect();
            join_all(handles).await;
            (sim2.now() - start).as_secs_f64()
        })
    });

    let mpi = with_mpi.then(|| {
        machine.launch_cluster_app("allreduce-loop", |m| async move {
            let world = m.world().clone();
            let start = m.sim().now();
            for _ in 0..ALLREDUCE_ROUNDS {
                m.allreduce(&world, ReduceOp::Sum, Value::F64(1.0), ALLREDUCE_BYTES)
                    .await;
            }
            (m.sim().now() - start).as_secs_f64()
        })
    });

    sim.run().assert_completed();
    (
        io.map_or(0.0, |h| h.try_result().unwrap()),
        mpi.map_or(0.0, |ranks| ranks[0].try_result().unwrap()),
    )
}

#[test]
fn pfs_writes_and_allreduce_slow_each_other_on_the_shared_fabric() {
    let (io_alone, _) = run(true, false, 3);
    let (_, mpi_alone) = run(false, true, 3);
    let (io_both, mpi_both) = run(true, true, 3);

    assert!(io_alone > 0.0 && mpi_alone > 0.0);
    assert!(
        io_both > 1.02 * io_alone,
        "I/O must slow under MPI traffic: {io_both}s vs {io_alone}s alone"
    );
    assert!(
        mpi_both > 1.02 * mpi_alone,
        "MPI must slow under I/O traffic: {mpi_both}s vs {mpi_alone}s alone"
    );
    // Sanity: contention is a slowdown, not a serialisation of the two
    // phases (the fabric is shared, not a mutex). The collective gets a
    // little headroom: its internal synchronisation amplifies per-link
    // queueing beyond the plain sum.
    assert!(
        io_both < io_alone + mpi_alone,
        "I/O should interleave, not serialise: {io_both}s vs {io_alone}+{mpi_alone}s"
    );
    assert!(
        mpi_both < 1.5 * (io_alone + mpi_alone),
        "allreduce should interleave, not serialise: {mpi_both}s vs {io_alone}+{mpi_alone}s"
    );
}

#[test]
fn contention_is_deterministic() {
    assert_eq!(run(true, true, 11), run(true, true, 11));
}
