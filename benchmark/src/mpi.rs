//! `mpi_rank_1k`: the SpMV skeleton as 1 024 per-rank psmpi processes.
//!
//! Every message crosses simkit → fabric `Network::transfer` → psmpi
//! match/collective, and carries `Value::Unit`, so no wall goes to
//! payload work: this is the per-message path the `suite` (payload
//! bound) and the `des_*` pair (psmpi bypassed) do not see.

use std::rc::Rc;

use deep_bench::des_scaling::{self, COMPUTE, HALO_BYTES};
use deep_fabric::IbFabric;
use deep_psmpi::{
    launch_world, EpId, IbWire, LocalBoxFuture, MpiCtx, MpiParams, NetModel, ReduceOp, Universe,
    Value,
};
use deep_simkit::Simulation;

use crate::driver::{Outcome, Params, Workload};
use crate::golden::{check_golden, golden_key, Golden};
use crate::stats::median;
use crate::trace;

/// What one simulated world did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldRun {
    /// Final virtual time, seconds.
    pub sim_s: f64,
    /// Point-to-point MPI messages sent (`Universe::traffic`).
    pub msgs: u64,
    /// `Network::transfer` calls made for them: one per message plus
    /// the RTS and CTS of every rendezvous.
    pub transfers: u64,
    /// Kernel events (process polls).
    pub kernel_events: u64,
}

/// Run `body` on `n` ranks over an FDR fat tree, one simulated process
/// per rank, with a span around each call into a layer.
pub fn run_world(
    seed: u64,
    n: u32,
    body: impl Fn(MpiCtx) -> LocalBoxFuture<'static, ()> + 'static,
) -> WorldRun {
    let mut sim = Simulation::new(seed);
    let ctx = sim.handle();
    let ib = {
        let _s = trace::span("fabric", "IbFabric::new");
        Rc::new(IbFabric::new(&ctx, n))
    };
    let uni = {
        let _s = trace::span("psmpi", "Universe::new");
        Universe::new(
            &ctx,
            Rc::new(IbWire::new(ib)),
            n as usize,
            MpiParams::default(),
        )
    };
    {
        let mut s = trace::span("psmpi", "launch_world");
        s.count(u64::from(n));
        launch_world(&uni, "bench", (0..n).map(EpId).collect(), body);
    }
    let mut s = trace::span("simkit", "Simulation::run");
    sim.run().assert_completed();
    let traffic = uni.traffic();
    s.count(traffic.messages);
    drop(s);
    WorldRun {
        sim_s: sim.now().as_secs_f64(),
        msgs: traffic.messages,
        transfers: traffic.messages + 2 * traffic.rendezvous,
        kernel_events: sim.events_processed(),
    }
}

/// The SpMV skeleton of `f09_scalability`, rank per process: compute
/// sleep, ring halo both ways, 8-byte allreduce — all cost-only.
pub fn spmv_world(seed: u64, ranks: u32, iters: u32) -> WorldRun {
    run_world(seed, ranks, move |m| {
        Box::pin(async move {
            let world = m.world().clone();
            let size = world.size();
            let right = (m.rank() + 1) % size;
            let left = (m.rank() + size - 1) % size;
            for _ in 0..iters {
                m.sim().sleep(COMPUTE).await;
                m.sendrecv(
                    &world,
                    right,
                    7,
                    Value::Unit,
                    HALO_BYTES,
                    Some(left),
                    Some(7),
                )
                .await;
                m.sendrecv(
                    &world,
                    left,
                    8,
                    Value::Unit,
                    HALO_BYTES,
                    Some(right),
                    Some(8),
                )
                .await;
                m.allreduce(&world, ReduceOp::Sum, Value::F64(1.0), 8).await;
            }
        })
    })
}

pub struct MpiRank {
    seed: u64,
    ranks: u32,
    iters: u32,
    golden_key: String,
    first: Option<WorldRun>,
}

impl Workload for MpiRank {
    const SINGLE_THREADED: bool = true;

    fn setup(p: &Params) -> MpiRank {
        let (ranks, iters) = if p.smoke { (64, 10) } else { (1024, 100) };
        // Warm-up: the full world, a tenth of the iterations.
        std::hint::black_box(spmv_world(p.seed, ranks, iters / 10));
        MpiRank {
            seed: p.seed,
            ranks,
            iters,
            golden_key: golden_key(&p.workload, p.smoke),
            first: None,
        }
    }

    fn rep(&mut self, out: &mut Outcome) {
        let r = spmv_world(self.seed, self.ranks, self.iters);
        let first = *self.first.get_or_insert(r);
        out.check((r != first).then(|| {
            format!(
                "{}: repetition differs from the first: {r:?} vs {first:?}",
                self.golden_key
            )
        }));
    }

    fn finish(self, reps: &[f64], out: &mut Outcome) {
        let Some(r) = self.first else { return };
        let iter_s = r.sim_s / f64::from(self.iters);
        let measured = Golden {
            digest: "-".to_string(),
            messages: r.msgs,
            kernel_events: r.kernel_events,
            sim_iter_s: iter_s,
        };
        out.check(check_golden(&self.golden_key, &measured));

        let model = des_scaling::analytic_iter(&NetModel::ib_fdr(), u64::from(self.ranks), false)
            .as_secs_f64();
        let wall = median(reps);
        out.layer.insert("mpi.msgs", r.msgs as f64);
        out.layer.insert("mpi.fabric_transfers", r.transfers as f64);
        out.layer
            .insert("mpi.kernel_events", r.kernel_events as f64);
        out.layer
            .insert("mpi.ns_per_msg", wall * 1e9 / r.msgs as f64);
        out.layer.insert("mpi.sim_iter_ms", iter_s * 1e3);
        out.layer
            .insert("mpi.model_err_pct", 100.0 * (iter_s - model).abs() / model);
    }
}
