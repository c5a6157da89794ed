//! F25 — slides 25 & 30–31: offload invocation granularity.
//!
//! A fixed amount of HSCP work (flops + boundary data) is offloaded from
//! the cluster to the booster in K invocations. Few large invocations
//! amortise latency and the per-invocation protocol; many small ones are
//! latency-bound — quantifying "which data is to be copied before/after a
//! booster code part" and the paper's preference for coarse kernels.

use deep_core::{Cell, DeepConfig, DeepMachine, Table, BOOSTER_POOL, OFFLOAD_SERVER};
use deep_hw::KernelProfile;
use deep_ompss::{booster_block, OffloadSpec, Offloader};
use deep_simkit::Simulation;

/// Total work split into `k` offload invocations; returns elapsed seconds
/// and bridge message count.
fn granularity_run(k: u32) -> (f64, u64) {
    let mut sim = Simulation::new(21);
    let ctx = sim.handle();
    let cfg = DeepConfig::small();
    let n_booster = cfg.n_booster();
    let machine = DeepMachine::build(&ctx, cfg);
    let ranks = machine.launch_cluster_app("granularity", move |m| async move {
        let world = m.world().clone();
        let inter = m
            .comm_spawn(&world, OFFLOAD_SERVER, n_booster, BOOSTER_POOL, 0)
            .await
            .unwrap();
        let off = Offloader::new(inter);
        let block = booster_block(m.rank(), m.size(), n_booster);

        // Fixed totals per cluster rank, split across k invocations.
        let total_flops = 5e10;
        let total_bytes_in = 16u64 << 20;
        let total_bytes_out = 16u64 << 20;
        let t0 = m.sim().now();
        for _ in 0..k {
            let spec = OffloadSpec {
                in_bytes: total_bytes_in / k as u64,
                out_bytes: total_bytes_out / k as u64,
                kernel: KernelProfile {
                    flops: total_flops / k as f64 / n_booster as f64,
                    bytes: total_flops / k as f64 / n_booster as f64 / 4.0,
                    compute_efficiency: 0.8,
                    bandwidth_efficiency: 0.7,
                },
                cores: u32::MAX,
                iters: 1,
                internal_msg_bytes: 0,
            };
            off.run(&m, &spec, block.clone()).await;
        }
        let dt = (m.sim().now() - t0).as_secs_f64();
        m.barrier(&world).await;
        off.shutdown(&m, block).await;
        dt
    });
    sim.run().assert_completed();
    let dt = ranks[0].try_result().expect("rank 0 finished");
    (dt, machine.cbp().bridged_traffic().messages)
}

pub fn tables() -> Vec<Table> {
    let mut t = Table::new(
        "F25",
        "offload granularity: fixed work, K invocations (per cluster rank)",
        &[
            "invocations",
            "bytes/invocation",
            "elapsed [ms]",
            "bridge msgs",
            "slowdown vs coarsest",
        ],
    );
    // Seven independent DES points — one flat work-unit grid
    // (EXPERIMENTS.md convention) instead of a serial loop; the
    // coarsest-invocation baseline folds in afterwards from the
    // index-ordered results.
    let ks = [1u32, 4, 16, 64, 256, 1024, 4096];
    let runs = crate::sweep::par_sweep(&ks, |&k| granularity_run(k));
    let mut baseline = None;
    for (&k, &(dt, msgs)) in ks.iter().zip(&runs) {
        let base = *baseline.get_or_insert(dt);
        t.row([
            k.into(),
            Cell::bytes((16 << 20) / k as u64),
            Cell::f(dt * 1e3),
            msgs.into(),
            Cell::x(dt / base),
        ]);
    }
    t.note(
        "shape: elapsed time is roughly flat while invocations stay coarse\n\
         (bandwidth-bound), then climbs as per-invocation latency and protocol\n\
         overhead dominate — the quantitative case for offloading *complete*\n\
         parallel kernels rather than inner loops (slides 8, 25).",
    );
    vec![t]
}
