//! The OmpSs offload abstraction over global MPI (slides 25, 30–31).
//!
//! A cluster-side [`Offloader`] drives booster ranks running the
//! [`offload_server`] program (started via `MPI_Comm_spawn`). Each
//! invocation ships input data to the booster ranks, executes a parallel
//! kernel there — including the kernel's *internal* regular communication
//! (slide 10: "complex kernels to be offloaded expected to have regular
//! communication patterns") — and ships results back.
//!
//! This encodes the paper's low-level offloading semantics: *which* code
//! runs on the booster (a registered program), *where* (a rank range),
//! *which data* moves before/after, and at *what granularity* (experiment
//! F25 sweeps invocation granularity against communication pressure).

use deep_hw::{roofline, KernelProfile, NodeModel};
use deep_psmpi::{wait_all, Comm, MpiCtx, Value};
use deep_simkit::{SimDuration, SimTime};
use std::ops::Range;
use std::rc::Rc;

/// Tags used by the offload protocol (kept far from user tag space).
const TAG_CMD: u32 = 0x6000_0001;
const TAG_IN: u32 = 0x6000_0002;
const TAG_OUT: u32 = 0x6000_0003;

/// One offload invocation, per participating booster rank.
#[derive(Debug, Clone, Copy)]
pub struct OffloadSpec {
    /// Input bytes shipped to each booster rank.
    pub in_bytes: u64,
    /// Output bytes shipped back from each booster rank.
    pub out_bytes: u64,
    /// Kernel work profile per booster rank.
    pub kernel: KernelProfile,
    /// Cores each booster rank uses.
    pub cores: u32,
    /// Internal iterations of the kernel (compute + regular exchange).
    pub iters: u32,
    /// Bytes allreduced among booster ranks per internal iteration.
    pub internal_msg_bytes: u64,
}

impl OffloadSpec {
    fn encode(&self) -> Value {
        Value::List(Rc::new(vec![
            Value::U64(1),
            Value::U64(self.in_bytes),
            Value::U64(self.out_bytes),
            Value::F64(self.kernel.flops),
            Value::F64(self.kernel.bytes),
            Value::F64(self.kernel.compute_efficiency),
            Value::F64(self.kernel.bandwidth_efficiency),
            Value::U64(self.cores as u64),
            Value::U64(self.iters as u64),
            Value::U64(self.internal_msg_bytes),
        ]))
    }

    fn decode(v: &Value) -> Option<OffloadSpec> {
        let items = v.as_list();
        if items[0].as_u64() == 0 {
            return None; // shutdown
        }
        Some(OffloadSpec {
            in_bytes: items[1].as_u64(),
            out_bytes: items[2].as_u64(),
            kernel: KernelProfile {
                flops: items[3].as_f64(),
                bytes: items[4].as_f64(),
                compute_efficiency: items[5].as_f64(),
                bandwidth_efficiency: items[6].as_f64(),
            },
            cores: items[7].as_u64() as u32,
            iters: items[8].as_u64() as u32,
            internal_msg_bytes: items[9].as_u64(),
        })
    }

    fn shutdown_msg() -> Value {
        Value::List(Rc::new(vec![Value::U64(0)]))
    }
}

/// Block assignment of booster ranks to cluster ranks: cluster rank `c`
/// of `n_cluster` drives this contiguous range of `n_booster` ranks.
pub fn booster_block(c: u32, n_cluster: u32, n_booster: u32) -> Range<u32> {
    let per = n_booster / n_cluster;
    let extra = n_booster % n_cluster;
    let start = c * per + c.min(extra);
    let len = per + u32::from(c < extra);
    start..start + len
}

/// The booster-side server program body. Register the result with the
/// universe under a command name and `comm_spawn` it:
///
/// loops receiving commands from any parent rank, executes the kernel
/// (with its internal booster-world allreduces), replies with the output
/// data, and terminates on a shutdown command.
pub fn offload_server(node: NodeModel) -> deep_psmpi::universe::AppFn {
    Rc::new(move |m: MpiCtx| {
        let node = node.clone();
        Box::pin(async move {
            let world = m.world().clone();
            let parent = m
                .parent()
                .expect("offload server must be spawned, not launched")
                .clone();
            loop {
                let cmd = m.recv(&parent, None, Some(TAG_CMD)).await;
                let Some(spec) = OffloadSpec::decode(&cmd.value) else {
                    break;
                };
                let driver = cmd.src;
                // Pull the input payload from the same driver.
                if spec.in_bytes > 0 {
                    m.recv(&parent, Some(driver), Some(TAG_IN)).await;
                }
                // Compute with internal regular communication.
                let per_iter = spec.kernel.scaled(1.0 / spec.iters.max(1) as f64);
                for _ in 0..spec.iters.max(1) {
                    let t = roofline::exec_time(&node, &per_iter, spec.cores.min(node.cores));
                    m.sim().sleep(t.time).await;
                    if spec.internal_msg_bytes > 0 && world.size() > 1 {
                        m.allreduce(
                            &world,
                            deep_psmpi::ReduceOp::Sum,
                            Value::F64(1.0),
                            spec.internal_msg_bytes,
                        )
                        .await;
                    }
                }
                // Ship the results back.
                m.send(&parent, driver, TAG_OUT, Value::Unit, spec.out_bytes)
                    .await;
            }
        })
    })
}

/// Report of one offload invocation.
#[derive(Debug, Clone, Copy)]
pub struct OffloadReport {
    /// Wall time of the whole invocation (inputs → results back).
    pub elapsed: SimDuration,
    /// When the invocation started.
    pub started_at: SimTime,
    /// Booster ranks driven.
    pub ranks: u32,
}

/// Cluster-side driver for a spawned offload-server world.
pub struct Offloader {
    inter: Comm,
}

impl Offloader {
    /// Wrap the parent side of the inter-communicator returned by
    /// `comm_spawn` of an [`offload_server`] program.
    pub fn new(inter: Comm) -> Offloader {
        assert!(inter.is_inter(), "offloader needs an inter-communicator");
        Offloader { inter }
    }

    /// The inter-communicator in use.
    pub fn inter(&self) -> &Comm {
        &self.inter
    }

    /// Run one offload invocation on booster ranks `ranks` (this cluster
    /// rank's block). Ships inputs, waits for all results.
    pub async fn run(&self, m: &MpiCtx, spec: &OffloadSpec, ranks: Range<u32>) -> OffloadReport {
        let started_at = m.sim().now();
        let n = ranks.len() as u32;
        let mut sends = Vec::with_capacity(ranks.len() * 2);
        for r in ranks.clone() {
            sends.push(m.isend(&self.inter, r, TAG_CMD, spec.encode(), 128));
            if spec.in_bytes > 0 {
                sends.push(m.isend(&self.inter, r, TAG_IN, Value::Unit, spec.in_bytes));
            }
        }
        wait_all(sends).await;
        let mut recvs = Vec::with_capacity(ranks.len());
        for r in ranks {
            recvs.push(m.irecv(&self.inter, Some(r), Some(TAG_OUT)));
        }
        wait_all(recvs).await;
        OffloadReport {
            elapsed: m.sim().now() - started_at,
            started_at,
            ranks: n,
        }
    }

    /// Tell booster ranks `ranks` to terminate.
    pub async fn shutdown(&self, m: &MpiCtx, ranks: Range<u32>) {
        for r in ranks {
            m.send(&self.inter, r, TAG_CMD, OffloadSpec::shutdown_msg(), 64)
                .await;
        }
    }
}

// ---------------------------------------------------------------------------
// Hybrid dataflow: a task graph where `Device::Booster` tasks execute on
// the spawned booster world (slides 30-31: the OmpSs offload abstraction
// lowers device tasks onto the DEEP runtime, which ships data and invokes
// the kernel over global MPI).
// ---------------------------------------------------------------------------

use crate::graph::{Device, TaskCost, TaskGraph};
use crate::runtime::{dataflow, HostExec, RunReport, SchedPolicy, TaskExec};

/// Host tasks sleep on the host node; `Device::Booster` tasks are one
/// offload invocation on `block`.
struct HybridExec {
    host: HostExec,
    m: MpiCtx,
    offloader: Rc<Offloader>,
    block: Range<u32>,
}

impl TaskExec for HybridExec {
    async fn exec(&self, sim: &deep_simkit::Sim, cost: TaskCost, device: Device) {
        let Device::Booster {
            in_bytes,
            out_bytes,
        } = device
        else {
            return self.host.exec(sim, cost, device).await;
        };
        let kernel = match cost {
            TaskCost::Kernel { profile, .. } => profile,
            // Fixed-cost booster tasks: model as a pure
            // communication+wait of that duration.
            TaskCost::Fixed(_) => KernelProfile {
                flops: 0.0,
                bytes: 0.0,
                compute_efficiency: 1.0,
                bandwidth_efficiency: 1.0,
            },
        };
        let spec = OffloadSpec {
            in_bytes,
            out_bytes,
            kernel,
            cores: u32::MAX,
            iters: 1,
            internal_msg_bytes: 0,
        };
        self.offloader.run(&self.m, &spec, self.block.clone()).await;
        if let TaskCost::Fixed(d) = cost {
            sim.sleep(d).await;
        }
    }
}

/// Execute `graph` with dependence-driven scheduling where host tasks run
/// on `host_workers` local cores of `host_node` and booster-annotated
/// tasks are offloaded through `offloader` onto `block`.
///
/// Host workers and offload "slots" draw from the same FIFO ready queue:
/// while one worker blocks on a booster invocation, the others keep
/// executing host tasks — the overlap the offload model is designed for.
pub async fn run_hybrid_dataflow(
    m: &MpiCtx,
    offloader: Rc<Offloader>,
    block: Range<u32>,
    graph: TaskGraph,
    host_node: &NodeModel,
    host_workers: u32,
) -> RunReport {
    let exec = HybridExec {
        host: HostExec(host_node.clone()),
        m: m.clone(),
        offloader,
        block,
    };
    dataflow(
        m.sim(),
        graph,
        host_node,
        host_workers,
        SchedPolicy::Fifo,
        exec,
    )
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_psmpi::{launch_world, EpId, IdealWire, MpiParams, Universe};
    use deep_simkit::Simulation;

    fn knc() -> NodeModel {
        NodeModel::xeon_phi_knc()
    }

    fn run_offload(spec: OffloadSpec, n_booster: u32) -> f64 {
        let mut sim = Simulation::new(5);
        let ctx = sim.handle();
        let wire = Rc::new(IdealWire::new(&ctx, SimDuration::micros(1), 6e9));
        let uni = Universe::new(&ctx, wire, 2 + n_booster as usize, MpiParams::default());
        uni.add_pool("booster", (2..2 + n_booster).map(EpId).collect());
        uni.register_app("server", offload_server(knc()));
        let ranks = launch_world(
            &uni,
            "cluster",
            vec![EpId(0), EpId(1)],
            move |m| async move {
                let world = m.world().clone();
                let inter = m
                    .comm_spawn(&world, "server", n_booster, "booster", 0)
                    .await
                    .unwrap();
                let off = Offloader::new(inter);
                let my_block = booster_block(m.rank(), m.size(), n_booster);
                let rep = off.run(&m, &spec, my_block.clone()).await;
                m.barrier(&world).await;
                off.shutdown(&m, my_block).await;
                rep.elapsed.as_secs_f64()
            },
        );
        sim.run().assert_completed();
        ranks[0].try_result().expect("rank 0 finished")
    }

    fn base_spec() -> OffloadSpec {
        OffloadSpec {
            in_bytes: 1 << 20,
            out_bytes: 1 << 20,
            kernel: KernelProfile::dgemm(1024),
            cores: 60,
            iters: 4,
            internal_msg_bytes: 4096,
        }
    }

    #[test]
    fn offload_roundtrip_completes() {
        let t = run_offload(base_spec(), 8);
        assert!(t > 0.0);
    }

    #[test]
    fn bigger_kernels_take_longer() {
        let small = run_offload(base_spec(), 8);
        let mut big = base_spec();
        big.kernel = KernelProfile::dgemm(2048); // 8x the flops
        let t_big = run_offload(big, 8);
        assert!(
            t_big > small * 2.0,
            "8x flops must show up in elapsed: {small} vs {t_big}"
        );
    }

    #[test]
    fn data_volume_shows_up_in_elapsed() {
        let small = run_offload(
            OffloadSpec {
                in_bytes: 1 << 10,
                out_bytes: 1 << 10,
                iters: 1,
                internal_msg_bytes: 0,
                kernel: KernelProfile::dgemm(256),
                cores: 60,
            },
            4,
        );
        let big = run_offload(
            OffloadSpec {
                in_bytes: 64 << 20,
                out_bytes: 64 << 20,
                iters: 1,
                internal_msg_bytes: 0,
                kernel: KernelProfile::dgemm(256),
                cores: 60,
            },
            4,
        );
        assert!(
            big > small * 5.0,
            "64 MiB vs 1 KiB transfers: {small} vs {big}"
        );
    }

    #[test]
    fn all_host_graph_traces_identically_through_both_dataflow_entries() {
        use crate::graph::{Access, RegionId};
        use crate::runtime::run_dataflow;

        // Chains of uneven length over four regions plus independent
        // fillers: enough contention on 3 workers that any difference
        // in pop order would move a task to another worker or time.
        fn graph() -> TaskGraph {
            let mut g = TaskGraph::new();
            for i in 0..24u64 {
                let region = if i % 5 == 4 { 100 + i } else { i % 4 };
                let cost = TaskCost::Fixed(SimDuration::micros(10 + 7 * (i % 6)));
                g.add_task("t", &[(RegionId(region), Access::InOut)], cost, 0, None);
            }
            g
        }

        let mut sim = Simulation::new(5);
        let ctx = sim.handle();
        let wire = Rc::new(IdealWire::new(&ctx, SimDuration::micros(1), 6e9));
        let uni = Universe::new(&ctx, wire, 3, MpiParams::default());
        uni.add_pool("booster", vec![EpId(1), EpId(2)]);
        uni.register_app("server", offload_server(knc()));
        let ranks = launch_world(&uni, "cluster", vec![EpId(0)], |m| async move {
            let world = m.world().clone();
            let inter = m
                .comm_spawn(&world, "server", 2, "booster", 0)
                .await
                .unwrap();
            let off = Rc::new(Offloader::new(inter));
            let started = m.sim().now();
            let report = run_hybrid_dataflow(&m, off.clone(), 0..2, graph(), &knc(), 3).await;
            off.shutdown(&m, 0..2).await;
            (started, report)
        });
        sim.run().assert_completed();
        let (started, hybrid) = ranks[0].try_result().expect("cluster rank ran");

        let mut sim = Simulation::new(5);
        let ctx = sim.handle();
        let h = sim.spawn("run", async move {
            ctx.sleep_until(started).await;
            run_dataflow(&ctx, graph(), &knc(), 3).await
        });
        sim.run().assert_completed();
        let direct = h.try_result().unwrap();
        assert_eq!(hybrid.trace, direct.trace);
        assert_eq!(hybrid.makespan, direct.makespan);
    }

    #[test]
    fn block_assignment_covers_all_ranks_disjointly() {
        for (n_cluster, n_booster) in [(2u32, 8u32), (3, 8), (4, 10), (8, 8), (5, 3)] {
            let mut seen = vec![false; n_booster as usize];
            for c in 0..n_cluster {
                for r in booster_block(c, n_cluster, n_booster) {
                    assert!(!seen[r as usize], "rank {r} assigned twice");
                    seen[r as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "every booster rank assigned");
        }
    }

    #[test]
    fn spec_encoding_roundtrips() {
        let spec = base_spec();
        let decoded = OffloadSpec::decode(&spec.encode()).unwrap();
        assert_eq!(decoded.in_bytes, spec.in_bytes);
        assert_eq!(decoded.out_bytes, spec.out_bytes);
        assert_eq!(decoded.cores, spec.cores);
        assert_eq!(decoded.iters, spec.iters);
        assert!((decoded.kernel.flops - spec.kernel.flops).abs() < 1.0);
        assert!(OffloadSpec::decode(&OffloadSpec::shutdown_msg()).is_none());
    }
}
