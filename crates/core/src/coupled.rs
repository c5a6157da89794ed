//! The coupled multi-physics proxy application (experiments F10, F18).
//!
//! Mirrors the application structure of slide 21: a `main()` part with
//! complex, all-to-all communication that belongs on cluster nodes, and a
//! **highly scalable code part** (HSCP) — a regular, iterative kernel —
//! that belongs on accelerators. The same proxy runs on three machines:
//!
//! * pure cluster — HSCP on the Xeons themselves;
//! * accelerated cluster — HSCP on PCIe GPUs, where every internal halo
//!   exchange must stage through host memory (D2H → IB → H2D);
//! * DEEP cluster-booster — HSCP offloaded *as a whole kernel* to the
//!   booster, whose internal communication stays on EXTOLL.
//!
//! The drivers measure time-to-solution, energy, and the CPU↔accelerator
//! traffic the paper argues the cluster-booster design slashes.

use std::rc::Rc;

use deep_hw::{roofline, EnergyMeter, KernelProfile, NodeModel};
use deep_ompss::{booster_block, OffloadSpec, Offloader};
use deep_psmpi::{launch_world, Comm, MpiCtx, ReduceOp, Value};
use deep_simkit::{SimDuration, Simulation};

use crate::baselines::AcceleratedCluster;
use crate::config::DeepConfig;
use crate::machine::{DeepMachine, BOOSTER_POOL, OFFLOAD_SERVER};

/// Workload parameters, per coupled time step.
#[derive(Debug, Clone, Copy)]
pub struct CoupledParams {
    /// Time steps of the coupled simulation.
    pub steps: u32,
    /// Complex (scalar-ish) flops per cluster rank per step.
    pub cluster_flops_per_rank: f64,
    /// All-to-all block size among cluster ranks per step.
    pub alltoall_bytes: u64,
    /// HSCP flops per step (whole machine).
    pub hscp_flops_total: f64,
    /// HSCP memory traffic per step (whole machine).
    pub hscp_bytes_total: f64,
    /// Internal iterations of the HSCP per step.
    pub hscp_iters: u32,
    /// Internal exchange payload per iteration per unit.
    pub halo_bytes: u64,
    /// Input shipped to each accelerator unit per step.
    pub offload_in_bytes: u64,
    /// Output shipped back from each accelerator unit per step.
    pub offload_out_bytes: u64,
}

impl Default for CoupledParams {
    fn default() -> Self {
        CoupledParams {
            steps: 4,
            cluster_flops_per_rank: 2e9,
            alltoall_bytes: 64 << 10,
            hscp_flops_total: 4e12,
            hscp_bytes_total: 8e11,
            hscp_iters: 10,
            halo_bytes: 64 << 10,
            offload_in_bytes: 4 << 20,
            offload_out_bytes: 4 << 20,
        }
    }
}

/// Outcome of one coupled run on one architecture.
#[derive(Debug, Clone)]
pub struct CoupledReport {
    /// Architecture label.
    pub arch: String,
    /// Time to solution.
    pub elapsed: SimDuration,
    /// Total energy in joules.
    pub energy_joules: f64,
    /// CPU↔accelerator messages (0 on the pure cluster).
    pub acc_messages: u64,
    /// CPU↔accelerator bytes.
    pub acc_bytes: u64,
    /// Cluster nodes used.
    pub cluster_nodes: u32,
    /// Accelerator units used (GPUs or booster nodes).
    pub acc_units: u32,
}

/// The complex cluster-code profile: low arithmetic intensity, poorly
/// vectorisable — it runs at the node's scalar fraction of peak.
fn cluster_kernel(p: &CoupledParams) -> KernelProfile {
    KernelProfile {
        flops: p.cluster_flops_per_rank,
        bytes: p.cluster_flops_per_rank / 2.0,
        compute_efficiency: 1.0, // scalar derating applied via exec mode
        bandwidth_efficiency: 0.5,
    }
}

/// Per-unit HSCP kernel for `units` accelerator units (whole step).
fn hscp_kernel(p: &CoupledParams, units: u32) -> KernelProfile {
    KernelProfile {
        flops: p.hscp_flops_total / units as f64,
        bytes: p.hscp_bytes_total / units as f64,
        compute_efficiency: 0.8,
        bandwidth_efficiency: 0.7,
    }
}

/// One step's complex `main()` part, the same on every machine: the
/// cluster kernel on the rank's host node, then the all-to-all.
async fn complex_phase(m: &MpiCtx, world: &Comm, node: &NodeModel, p: &CoupledParams) {
    let t = roofline::exec_time_with_mode(node, &cluster_kernel(p), node.cores, false);
    m.sim().sleep(t.time).await;
    let blocks = (0..world.size()).map(|_| Value::Unit).collect();
    m.alltoall(world, blocks, p.alltoall_bytes).await;
}

fn energy_of(
    n_nodes: u32,
    node: &NodeModel,
    busy: SimDuration,
    idle: SimDuration,
    busy_util: f64,
) -> f64 {
    let mut m = EnergyMeter::new();
    m.record(&node.power, busy, busy_util);
    m.record(&node.power, idle, 0.0);
    m.joules() * n_nodes as f64
}

/// Run the proxy on a DEEP machine.
pub fn run_on_deep(seed: u64, config: DeepConfig, p: CoupledParams) -> CoupledReport {
    let mut sim = Simulation::new(seed);
    let ctx = sim.handle();
    let machine = DeepMachine::build(&ctx, config.clone());
    let n_booster = config.n_booster();
    let cluster_node = config.cluster_node.clone();

    let ranks = machine.launch_cluster_app("coupled-main", move |m| {
        let cluster_node = cluster_node.clone();
        async move {
            let world = m.world().clone();
            let size = world.size();
            let t_start = m.sim().now();
            let inter = m
                .comm_spawn(&world, OFFLOAD_SERVER, n_booster, BOOSTER_POOL, 0)
                .await
                .expect("booster spawn");
            let off = Offloader::new(inter);
            let block = booster_block(m.rank(), size, n_booster);
            let t_spawned = m.sim().now();
            let mut t_cluster = SimDuration::ZERO;
            let mut t_offload = SimDuration::ZERO;

            for _ in 0..p.steps {
                // Complex main() part on the cluster.
                let t0 = m.sim().now();
                complex_phase(&m, &world, &cluster_node, &p).await;
                t_cluster += m.sim().now() - t0;

                // The HSCP, offloaded whole to the booster.
                let t1 = m.sim().now();
                let spec = OffloadSpec {
                    in_bytes: p.offload_in_bytes,
                    out_bytes: p.offload_out_bytes,
                    kernel: hscp_kernel(&p, n_booster),
                    cores: u32::MAX, // all booster cores
                    iters: p.hscp_iters,
                    internal_msg_bytes: p.halo_bytes,
                };
                off.run(&m, &spec, block.clone()).await;
                m.barrier(&world).await;
                t_offload += m.sim().now() - t1;
            }
            off.shutdown(&m, block).await;
            let _ = m.allreduce(&world, ReduceOp::Sum, Value::U64(1), 8).await;
            (t_spawned - t_start, t_cluster, t_offload)
        }
    });
    sim.run().assert_completed();

    let (t_spawn, t_cluster, t_offload) = ranks[0].try_result().expect("rank 0 reported");
    let traffic = machine.cbp().bridged_traffic();
    let elapsed = t_spawn + t_cluster + t_offload;
    let energy = energy_of(
        config.n_cluster,
        &config.cluster_node,
        t_cluster,
        t_offload + t_spawn,
        0.9,
    ) + energy_of(
        config.n_booster(),
        &config.booster_node,
        t_offload,
        t_cluster + t_spawn,
        0.9,
    );
    CoupledReport {
        arch: "deep-cluster-booster".into(),
        elapsed,
        energy_joules: energy,
        acc_messages: traffic.messages,
        acc_bytes: traffic.bytes,
        cluster_nodes: config.n_cluster,
        acc_units: n_booster,
    }
}

/// Run the proxy on a homogeneous Xeon cluster of `n_nodes`.
pub fn run_on_pure_cluster(seed: u64, n_nodes: u32, p: CoupledParams) -> CoupledReport {
    let mut sim = Simulation::new(seed);
    let ctx = sim.handle();
    let uni = crate::baselines::homogeneous_cluster(&ctx, n_nodes, Default::default());
    let node = NodeModel::xeon_cluster_node();
    let node2 = node.clone();

    let ranks = launch_world(
        &uni,
        "coupled-pure",
        (0..n_nodes).map(deep_psmpi::EpId).collect(),
        move |m| {
            let node = node2.clone();
            async move {
                let world = m.world().clone();
                let size = world.size();
                let t_start = m.sim().now();
                for _ in 0..p.steps {
                    complex_phase(&m, &world, &node, &p).await;

                    // HSCP in place on the Xeons.
                    let per_iter = hscp_kernel(&p, size).scaled(1.0 / p.hscp_iters as f64);
                    for _ in 0..p.hscp_iters {
                        let t = roofline::exec_time(&node, &per_iter, node.cores);
                        m.sim().sleep(t.time).await;
                        m.allreduce(&world, ReduceOp::Sum, Value::F64(1.0), p.halo_bytes)
                            .await;
                    }
                }
                m.sim().now() - t_start
            }
        },
    );
    sim.run().assert_completed();

    let elapsed = ranks[0].try_result().expect("rank 0 reported");
    let energy = energy_of(n_nodes, &node, elapsed, SimDuration::ZERO, 1.0);
    CoupledReport {
        arch: "pure-cluster".into(),
        elapsed,
        energy_joules: energy,
        acc_messages: 0,
        acc_bytes: 0,
        cluster_nodes: n_nodes,
        acc_units: 0,
    }
}

/// Run the proxy on an accelerated cluster (`n_nodes`, one GPU each).
pub fn run_on_accelerated(seed: u64, n_nodes: u32, p: CoupledParams) -> CoupledReport {
    let mut sim = Simulation::new(seed);
    let ctx = sim.handle();
    let gpu = NodeModel::gpu_k20x();
    let ac = Rc::new(AcceleratedCluster::build(
        &ctx,
        n_nodes,
        gpu.clone(),
        Default::default(),
    ));
    let host = NodeModel::xeon_cluster_node();
    let host2 = host.clone();
    let ac2 = ac.clone();

    let ranks = launch_world(&ac.universe, "coupled-accel", ac.eps(), move |m| {
        let host = host2.clone();
        let ac = ac2.clone();
        async move {
            let world = m.world().clone();
            let size = world.size();
            let my_gpu = ac.nodes[m.rank() as usize].clone();
            let t_start = m.sim().now();
            let mut t_gpu_busy = SimDuration::ZERO;
            for _ in 0..p.steps {
                // Complex main() part, identical to the other machines.
                complex_phase(&m, &world, &host, &p).await;

                // HSCP on the GPU: ship input, iterate with staged halos,
                // ship output (slide 7: "communication via main memory").
                my_gpu.h2d(p.offload_in_bytes).await;
                let per_iter = hscp_kernel(&p, size).scaled(1.0 / p.hscp_iters as f64);
                for _ in 0..p.hscp_iters {
                    let t = roofline::exec_time(&my_gpu.gpu, &per_iter, my_gpu.gpu.cores);
                    m.sim().sleep(t.time).await;
                    t_gpu_busy += t.time;
                    // Halo staged through the host on both ends.
                    my_gpu.d2h(p.halo_bytes).await;
                    m.allreduce(&world, ReduceOp::Sum, Value::F64(1.0), p.halo_bytes)
                        .await;
                    my_gpu.h2d(p.halo_bytes).await;
                }
                my_gpu.d2h(p.offload_out_bytes).await;
            }
            (m.sim().now() - t_start, t_gpu_busy)
        }
    });
    sim.run().assert_completed();

    let (elapsed, gpu_busy) = ranks[0].try_result().expect("rank 0 reported");
    let traffic = ac.total_acc_traffic();
    let energy = energy_of(n_nodes, &host, elapsed, SimDuration::ZERO, 0.9)
        + energy_of(
            n_nodes,
            &gpu,
            gpu_busy,
            elapsed.saturating_sub(gpu_busy),
            0.9,
        );
    CoupledReport {
        arch: "accelerated-cluster".into(),
        elapsed,
        energy_joules: energy,
        acc_messages: traffic.messages,
        acc_bytes: traffic.bytes,
        cluster_nodes: n_nodes,
        acc_units: n_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> CoupledParams {
        CoupledParams {
            steps: 2,
            ..CoupledParams::default()
        }
    }

    #[test]
    fn all_three_architectures_complete() {
        let p = quick_params();
        let deep = run_on_deep(1, DeepConfig::small(), p);
        let pure = run_on_pure_cluster(1, 4, p);
        let accel = run_on_accelerated(1, 4, p);
        assert!(deep.elapsed > SimDuration::ZERO);
        assert!(pure.elapsed > SimDuration::ZERO);
        assert!(accel.elapsed > SimDuration::ZERO);
        assert_eq!(pure.acc_messages, 0);
        assert!(deep.acc_messages > 0);
        assert!(accel.acc_messages > 0);
    }

    #[test]
    fn deep_offloads_coarser_than_accelerated_cluster() {
        // Per paper slide 8: less frequent, larger CPU↔accelerator
        // messages. Compare messages *per accelerator unit*.
        let p = quick_params();
        let deep = run_on_deep(1, DeepConfig::small(), p);
        let accel = run_on_accelerated(1, 4, p);
        let deep_per_unit = deep.acc_messages as f64 / deep.acc_units as f64;
        let accel_per_unit = accel.acc_messages as f64 / accel.acc_units as f64;
        assert!(
            accel_per_unit > deep_per_unit * 2.0,
            "accelerated {accel_per_unit} vs deep {deep_per_unit} messages/unit"
        );
        let deep_avg_msg = deep.acc_bytes as f64 / deep.acc_messages as f64;
        let accel_avg_msg = accel.acc_bytes as f64 / accel.acc_messages as f64;
        assert!(
            deep_avg_msg > accel_avg_msg,
            "deep messages are larger: {deep_avg_msg} vs {accel_avg_msg}"
        );
    }

    #[test]
    fn reports_have_consistent_energy() {
        let p = quick_params();
        for rep in [
            run_on_deep(1, DeepConfig::small(), p),
            run_on_pure_cluster(1, 4, p),
            run_on_accelerated(1, 4, p),
        ] {
            assert!(
                rep.energy_joules > 0.0,
                "{}: energy {}",
                rep.arch,
                rep.energy_joules
            );
            // Sanity: energy ≤ whole machine at peak for the duration.
            let all_peak = (rep.cluster_nodes as f64 * 350.0 + rep.acc_units as f64 * 250.0)
                * rep.elapsed.as_secs_f64();
            assert!(rep.energy_joules <= all_peak * 1.05);
        }
    }
}
