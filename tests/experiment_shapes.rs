//! Shape assertions for the paper experiments: fast configurations of
//! each figure-regeneration workload, asserting the *qualitative* result
//! the paper claims (who wins, by roughly what factor, where crossovers
//! fall). The full tables come from `cargo run -p deep-bench --bin f*`.

use deep_core::{run_on_accelerated, run_on_deep, run_on_pure_cluster, CoupledParams, DeepConfig};
use deep_hw::generations::{fitted_factor_per_decade, top500_number_one};
use deep_hw::{exec_time, KernelProfile, NodeModel};
use deep_psmpi::NetModel;

/// F02: the historical series grows ~×1000/decade (Meuer), far above
/// Moore's ×100/decade.
#[test]
fn f02_meuer_vs_moore() {
    let fit = fitted_factor_per_decade(&top500_number_one());
    assert!((400.0..2500.0).contains(&fit), "fit {fit}");
    assert!(fit > 3.0 * 100.0, "parallelism outpaces transistor scaling");
}

/// F05: booster silicon is ~5x the energy efficiency of a Xeon node.
#[test]
fn f05_knc_efficiency_factor() {
    let knc = NodeModel::xeon_phi_knc().peak_gflops_per_watt();
    let xeon = NodeModel::xeon_cluster_node().peak_gflops_per_watt();
    assert!((4.0..6.5).contains(&(knc / xeon)));
    assert!((4.5..5.5).contains(&knc), "the slide-15 '5 GFlop/W' claim");
}

/// F06: staging accelerator traffic through the host roughly triples the
/// cost of a cross-node exchange at any size.
#[test]
fn f06_staging_penalty() {
    for bytes in [4u64 << 10, 1 << 20, 16 << 20] {
        let staged = deep_bench::probe_fabric("pcie-driver", bytes)
            + deep_bench::probe_fabric("ib", bytes)
            + deep_bench::probe_fabric("pcie-driver", bytes);
        let direct = deep_bench::probe_fabric("extoll", bytes);
        let penalty = staged / direct;
        // Small messages suffer the most (three software overheads vs one
        // fabric traversal); bulk converges to ~3 serializations.
        assert!(
            (1.8..25.0).contains(&penalty),
            "bytes={bytes}: staging penalty {penalty}"
        );
    }
}

/// F08: the fabrics match PCIe bandwidth within 10% for >=64 KiB
/// messages while being latency-poorer below ~4 KiB.
#[test]
fn f08_fabric_matches_pcie_for_bulk() {
    let bulk = 1u64 << 20;
    let gb = |f: &str, b: u64| b as f64 / deep_bench::probe_fabric(f, b) / 1e9;
    assert!(gb("ib", bulk) >= 0.9 * gb("pcie-dma", bulk));
    assert!(gb("extoll", bulk) >= 0.9 * gb("pcie-dma", bulk));
    // Latency regime: tiny messages are quicker over bare PCIe DMA than IB.
    let tiny = 64u64;
    assert!(
        deep_bench::probe_fabric("pcie-dma", tiny) < deep_bench::probe_fabric("ib", tiny),
        "PCIe wins on latency (slide 8: 'besides latency')"
    );
}

/// F09: regular halo+allreduce skeleton keeps >60% efficiency at 262k
/// ranks; the alltoall-bearing skeleton collapses below 4k.
#[test]
fn f09_scalability_classes() {
    use deep_bench::des_scaling::{analytic_iter, COMPUTE};
    let m = NetModel::ib_fdr();
    let eff = |n: u64, complex| COMPUTE.as_secs_f64() / analytic_iter(&m, n, complex).as_secs_f64();
    let spmv = |n: u64| eff(n, false);
    let complex = |n: u64| eff(n, true);
    assert!(spmv(1 << 18) > 0.6, "SpMV class at 262k: {}", spmv(1 << 18));
    assert!(
        complex(1 << 12) < 0.4,
        "complex at 4k: {}",
        complex(1 << 12)
    );
    assert!(complex(1 << 8) > complex(1 << 12), "monotone collapse");
}

/// F09 (DES tail): the full-scale discrete-event runs behind the
/// printed headline efficiencies agree with the LogGP model within the
/// stated per-class tolerances. SpMV at 262,144 ranks: within ±5%
/// (measured ≈ +0.1% — the ring halo and recursive-doubling allreduce
/// see essentially no contention on the fat tree). Complex class: the
/// DES sits *above* the contention-free model — between 1.0× and 1.6×
/// (≈ +23% at the 1,024-rank size tested here, ≈ +38% at the 4,096-rank
/// point the experiment prints) — because the pairwise all-to-all
/// queues on the spine trunks, which the closed form ignores.
#[test]
fn f09_des_matches_analytic_tail() {
    use deep_bench::des_scaling::{self, DesScalingConfig};

    let m = NetModel::ib_fdr();
    let spmv = des_scaling::run(DesScalingConfig {
        ranks: 1 << 18,
        iters: 1,
        complex: false,
        seed: 1,
    });
    let model = des_scaling::analytic_iter(&m, 1 << 18, false).as_secs_f64();
    let rel = (spmv.iter_s - model) / model;
    assert!(
        rel.abs() < 0.05,
        "262k SpMV: DES {:.1}us vs model {:.1}us (rel {rel:+.4})",
        spmv.iter_s * 1e6,
        model * 1e6
    );

    let cplx = des_scaling::run(DesScalingConfig {
        ranks: 1 << 10,
        iters: 1,
        complex: true,
        seed: 1,
    });
    let model_c = des_scaling::analytic_iter(&m, 1 << 10, true).as_secs_f64();
    let ratio = cplx.iter_s / model_c;
    assert!(
        (1.0..1.6).contains(&ratio),
        "1k complex: DES {:.1}us is {ratio:.3}x the model's {:.1}us",
        cplx.iter_s * 1e6,
        model_c * 1e6
    );
}

/// F09b (slide 9 on real kernels): the regular class scales, the
/// "complex" class does not. CG on a 1024² grid keeps speeding up over
/// 1 → 16 ranks; the pencil FFT's transpose makes its communication
/// share grow with every doubling, above CG's at every rank count, and
/// two ranks are slower than one. (The registered experiment prints the
/// same rows at 60 CG iterations and a 256² FFT; the iteration count
/// scales CG's compute and communication alike, the 128² FFT keeps a
/// debug build under a second.)
#[test]
fn f09b_regular_scales_complex_does_not() {
    let rows = deep_bench::experiments::f09b_fft::rows(1024, 128, 4);
    assert_eq!(
        rows.iter().map(|r| r.ranks).collect::<Vec<_>>(),
        [1, 2, 4, 8, 16]
    );
    for w in rows.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        assert!(
            b.cg_speedup > a.cg_speedup,
            "CG speedup {} -> {} ranks: {} -> {}",
            a.ranks,
            b.ranks,
            a.cg_speedup,
            b.cg_speedup
        );
        assert!(
            b.fft_comm_share > a.fft_comm_share,
            "FFT comm share {} -> {} ranks: {} -> {}",
            a.ranks,
            b.ranks,
            a.fft_comm_share,
            b.fft_comm_share
        );
        assert!(
            b.fft_comm_share > b.cg_comm_share,
            "{} ranks: FFT comm share {} vs CG {}",
            b.ranks,
            b.fft_comm_share,
            b.cg_comm_share
        );
    }
    assert!(
        rows[1].fft_speedup < 1.0,
        "FFT on 2 ranks: {}x",
        rows[1].fft_speedup
    );
}

/// F03b (slide 3, "Resiliency"): checkpoint/restart is nearly free on
/// the 640-node prototype, burns 60 % of a 100 k-part machine even at
/// the best interval and all of a 1 M-part one; Daly's interval beats
/// a quarter and four times itself up to 100 k parts, and daily
/// checkpointing cannot finish its work from 100 k parts up.
#[test]
fn f03b_resilience_collapses_towards_exascale() {
    let rows = deep_bench::experiments::f03b_resilience::rows();
    assert_eq!(
        rows.iter().map(|r| r.nodes).collect::<Vec<_>>(),
        [640, 10_000, 100_000, 1_000_000]
    );
    let at_daly = |i: usize| rows[i].eff[1].efficiency;
    assert!(at_daly(0) >= 0.95, "640 nodes at Daly: {}", at_daly(0));
    assert!(
        (at_daly(2) - 0.40).abs() <= 0.02,
        "100k parts at Daly: {}",
        at_daly(2)
    );
    assert!(at_daly(3) < 0.02, "1M parts at Daly: {}", at_daly(3));
    for r in &rows[..3] {
        let [quarter, daly, four_times, _] = r.eff.map(|m| m.efficiency);
        assert!(
            daly >= quarter && daly >= four_times,
            "{} nodes: Daly {daly} vs Daly/4 {quarter}, 4x Daly {four_times}",
            r.nodes
        );
    }
    for r in &rows {
        let daily = r.eff[3];
        assert_eq!(
            daily.truncated_runs > 0,
            r.nodes >= 100_000,
            "{} nodes, daily checkpoints: {daily:?}",
            r.nodes
        );
    }
}

/// F18 (slide 18, positioning): on regular and dense vector code the
/// DEEP booster beats the BG/Q-like machine, which beats the Xeon
/// cluster; on complex scalar code the cluster is at least as good as
/// the BG/Q-like machine, and DEEP — which runs that code on its
/// cluster side — matches the cluster exactly.
#[test]
fn f18_deep_spans_both_regions() {
    let rows = deep_bench::experiments::f18_positioning::rows();
    assert_eq!(rows.len(), 3);
    for r in &rows[..2] {
        let [bgq, xeon, deep] = r.tf_per_mw;
        assert!(deep > bgq && bgq > xeon, "{}: {:?}", r.class, r.tf_per_mw);
    }
    let [bgq, xeon, deep] = rows[2].tf_per_mw;
    assert!(xeon >= bgq, "complex: {:?}", rows[2].tf_per_mw);
    assert_eq!(deep, xeon, "complex: DEEP runs it on the cluster side");
}

/// A33 (allreduce ablation, 16 ranks): recursive doubling wins below the
/// ring threshold (128 B, 8 KiB), the ring wins from the threshold
/// (256 KiB) up, and reduce+bcast — two binomial trees back to back —
/// costs at least 1.9× recursive doubling at every payload.
#[test]
fn a33_allreduce_crossover_sits_at_the_ring_threshold() {
    let threshold = deep_psmpi::MpiParams::default().allreduce_ring_threshold;
    let rows = deep_bench::experiments::a33_allreduce_algorithms::rows();
    assert_eq!(
        rows.iter().map(|r| r.bytes).collect::<Vec<_>>(),
        [128, 8 << 10, 256 << 10, 2 << 20, 8 << 20]
    );
    for r in &rows {
        let [rd, ring, rb] = r.secs;
        if r.bytes < threshold {
            assert!(rd < ring && rd < rb, "{} B: {rd} {ring} {rb}", r.bytes);
        } else {
            assert!(ring < rd && ring < rb, "{} B: {rd} {ring} {rb}", r.bytes);
        }
        assert!(rb >= 1.9 * rd, "{} B: reduce+bcast {rb} vs {rd}", r.bytes);
    }
}

/// Experiments with a shape assertion in this file.
const ASSERTED: &[&str] = &[
    "a33_allreduce_algorithms",
    "er01_checkpoint_levels",
    "er02_io_patterns",
    "er03_fault_sweep",
    "f02_evolution",
    "f03b_resilience",
    "f05_rationale",
    "f06_accel_cluster",
    "f08_direct_fabric",
    "f09_scalability",
    "f09b_fft",
    "f10_cluster_booster",
    "f15_energy",
    "f16_extoll",
    "f18_positioning",
    "f21_spawn",
    "f22_resmgr",
    "f23_cholesky",
    "f29_global_mpi",
];

/// Experiments pinned only byte for byte against
/// `docs/experiments/<id>.md`. This list may only shrink: a new
/// experiment comes with its assertion.
const UNASSERTED: &[&str] = &[
    "a30_scheduler_ablation",
    "a31_bi_selection",
    "a32_eager_threshold",
    "f03_exascale",
    "f14_architecture",
    "f23b_dcholesky",
    "f25_offload",
];

/// Every registered experiment is in exactly one of the two lists.
#[test]
fn every_experiment_is_asserted_or_listed_as_unasserted() {
    let mut listed: Vec<&str> = ASSERTED.iter().chain(UNASSERTED).copied().collect();
    listed.sort_unstable();
    let registry: Vec<&str> = deep_bench::experiments::ALL
        .iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(listed, registry, "each id once, in one of the two lists");
    assert!(UNASSERTED.len() <= 7, "UNASSERTED may only shrink");
}

/// F10: on the coupled proxy the cluster-booster wins time and energy
/// against both baselines and cuts CPU<->accelerator messages per unit.
#[test]
fn f10_cluster_booster_wins() {
    let p = CoupledParams {
        steps: 2,
        ..CoupledParams::default()
    };
    // Size for comparable accelerator silicon: 16 GPUs (~21 TF) vs a
    // 4x4x4 booster (~64 TF is the paper's asymmetry: the booster IS the
    // machine's compute).
    let pure = run_on_pure_cluster(1, 16, p);
    let accel = run_on_accelerated(1, 16, p);
    let deep = run_on_deep(1, DeepConfig::medium(), p);
    assert!(deep.elapsed < accel.elapsed, "deep beats accelerated");
    assert!(deep.elapsed < pure.elapsed, "deep beats pure cluster");
    assert!(deep.energy_joules < accel.energy_joules);
    let deep_rate = deep.acc_messages as f64 / deep.acc_units as f64;
    let accel_rate = accel.acc_messages as f64 / accel.acc_units as f64;
    assert!(
        accel_rate > 2.0 * deep_rate,
        "coarser offload: {accel_rate} vs {deep_rate}"
    );
}

/// F15: DGEMM on the KNC sustains several hundred GF/s and ~4 GF/W
/// achieved; the same kernel on the Xeon node is ~5x less efficient.
#[test]
fn f15_energy_efficiency() {
    let k = KernelProfile::dgemm(4096);
    let knc = NodeModel::xeon_phi_knc();
    let xeon = NodeModel::xeon_cluster_node();
    let t_knc = exec_time(&knc, &k, knc.cores);
    let t_xeon = exec_time(&xeon, &k, xeon.cores);
    let eff = |node: &NodeModel, t: &deep_hw::RooflinePoint| {
        let mut m = deep_hw::EnergyMeter::new();
        m.record(&node.power, t.time, 1.0);
        m.gflops_per_watt(k.flops)
    };
    let e_knc = eff(&knc, &t_knc);
    let e_xeon = eff(&xeon, &t_xeon);
    assert!((3.0..5.5).contains(&e_knc), "KNC achieved {e_knc} GF/W");
    assert!(
        (3.5..6.5).contains(&(e_knc / e_xeon)),
        "ratio {}",
        e_knc / e_xeon
    );
}

/// F16: VELO latency is sub-µs; RMA bulk goodput >95% of the link.
#[test]
fn f16_extoll_engine_shapes() {
    let velo = deep_bench::probe_fabric("extoll-velo", 8);
    assert!(velo < 1e-6, "VELO 8B latency {velo}");
    let bulk = 64u64 << 20;
    let good = bulk as f64 / deep_bench::probe_fabric("extoll-rma", bulk);
    assert!(good > 0.95 * 7e9, "RMA goodput {good}");
}

/// F21: spawn cost grows strongly sublinearly in process count.
/// (The machine-level variant runs in deep-bench; this checks the MPI
/// layer's fan-out directly over an ideal wire.)
#[test]
fn f21_spawn_sublinear() {
    use deep_psmpi::{launch_world, EpId, IdealWire, MpiParams, Universe};
    use std::rc::Rc;

    fn spawn_time(n: u32) -> f64 {
        let mut sim = deep_simkit::Simulation::new(1);
        let ctx = sim.handle();
        let wire = Rc::new(IdealWire::new(
            &ctx,
            deep_simkit::SimDuration::micros(1),
            5e9,
        ));
        let uni = Universe::new(&ctx, wire, 1 + n as usize, MpiParams::default());
        uni.add_pool("b", (1..=n).map(EpId).collect());
        uni.register_app("noop", Rc::new(|_m| Box::pin(async {})));
        let ranks = launch_world(&uni, "p", vec![EpId(0)], move |m| async move {
            let world = m.world().clone();
            let t0 = m.sim().now();
            m.comm_spawn(&world, "noop", n, "b", 0).await.unwrap();
            (m.sim().now() - t0).as_secs_f64()
        });
        sim.run().assert_completed();
        ranks[0].try_result().unwrap()
    }
    let t32 = spawn_time(32);
    let t512 = spawn_time(512);
    assert!(t512 < t32 * 6.0, "16x procs < 6x time: {t32} vs {t512}");
}

/// F22: dynamic booster assignment beats static on makespan and useful
/// utilisation for a contended mix.
#[test]
fn f22_dynamic_beats_static() {
    use deep_apps::MixParams;
    use deep_resmgr::Policy;
    let mix = deep_apps::generate_mix(
        1,
        MixParams {
            n_jobs: 16,
            mean_interarrival: deep_simkit::SimDuration::secs(8),
            max_cn: 2,
            max_bn: 12,
            mean_cn_time: deep_simkit::SimDuration::secs(50),
            mean_bn_time: deep_simkit::SimDuration::secs(50),
            max_phases: 2,
            pure_cluster_fraction: 0.2,
        },
    );
    let s = deep_resmgr::run_workload(1, 8, 16, Policy::StaticFcfs, mix.clone());
    let d = deep_resmgr::run_workload(1, 8, 16, Policy::DynamicFcfs, mix);
    assert!(
        d.makespan < s.makespan,
        "{:?} vs {:?}",
        d.makespan,
        s.makespan
    );
    assert!(d.bn_utilization > s.bn_utilization);
    assert!(s.bn_allocated > s.bn_utilization + 0.1, "static hoards");
}

/// F23: dataflow Cholesky beats fork-join at every worker count and
/// stays numerically exact.
#[test]
fn f23_dataflow_beats_fork_join() {
    use deep_apps::cholesky::{cholesky_graph, factorisation_error, spd_matrix, TiledMatrix};
    use deep_ompss::{run_dataflow, run_fork_join};
    let (nt, ts) = (10usize, 8usize);
    let n = nt * ts;
    let a = spd_matrix(n);
    for workers in [4u32, 16] {
        let m1 = TiledMatrix::from_dense(&a, nt, ts);
        let g1 = cholesky_graph(&m1);
        let m2 = TiledMatrix::from_dense(&a, nt, ts);
        let g2 = cholesky_graph(&m2);
        let node = NodeModel::xeon_phi_knc();
        let mut sim = deep_simkit::Simulation::new(1);
        let ctx = sim.handle();
        let node2 = node.clone();
        let h = sim.spawn("both", async move {
            let df = run_dataflow(&ctx, g1, &node2, workers).await;
            let fj = run_fork_join(&ctx, g2, &node2, workers).await;
            (df.makespan, fj.makespan)
        });
        sim.run().assert_completed();
        let (df, fj) = h.try_result().unwrap();
        assert!(df < fj, "workers={workers}: {df} vs {fj}");
        assert!(factorisation_error(&m1.to_dense(), &a, n) < 1e-9);
        assert!(factorisation_error(&m2.to_dense(), &a, n) < 1e-9);
    }
}

/// F29: a bridged small message costs more than either fabric alone but
/// less than ~4x a plain IB message.
#[test]
fn f29_bridge_latency_overhead() {
    use deep_cbp::{CbpConfig, CbpWire, CbpWireHandle};
    use deep_fabric::{ExtollFabric, IbFabric};
    use deep_psmpi::Wire;
    use std::rc::Rc;

    let mut sim = deep_simkit::Simulation::new(1);
    let ctx = sim.handle();
    let ib = Rc::new(IbFabric::new(&ctx, 6));
    let extoll = Rc::new(ExtollFabric::new(&ctx, (2, 2, 2)));
    let w = CbpWire::new(&ctx, ib, extoll, CbpConfig::new(4, 8, vec![(4, 0)]));
    let handle = CbpWireHandle(w.clone());
    let (cc_src, cc_dst) = (w.cluster_ep(0), w.cluster_ep(1));
    let (cb_src, cb_dst) = (w.cluster_ep(2), w.booster_ep(5));
    let h = sim.spawn("probe", async move {
        let cc = handle.transfer(cc_src, cc_dst, 64).await.unwrap().elapsed;
        let cb = handle.transfer(cb_src, cb_dst, 64).await.unwrap().elapsed;
        (cc, cb)
    });
    sim.run().assert_completed();
    let (cc, cb) = h.try_result().unwrap();
    assert!(cb > cc, "bridge adds latency");
    assert!(
        cb.as_nanos() < 4 * cc.as_nanos(),
        "but bounded: {cb} vs {cc}"
    );
}

/// ER01: on the simulated machine, an L1 (node-local NVM) checkpoint of
/// the same state is at least 5x faster than draining it through the BI
/// bridges onto the PFS (L3).
#[test]
fn er01_l1_checkpoint_beats_l3_by_5x() {
    use deep_core::measure_level_costs;

    let costs = measure_level_costs(&DeepConfig::small(), 8, 64 << 20, 1);
    assert!(costs[0].write_s > 0.0);
    assert!(
        costs[2].write_s >= 5.0 * costs[0].write_s,
        "L3 {}s vs L1 {}s",
        costs[2].write_s,
        costs[0].write_s
    );
}

/// ER01: with measured level costs, the L1/L2/L3 rotation keeps its
/// efficiency within 10% of the L1-only policy under mild failures, yet
/// survives injected multi-node failures that L1-only cannot recover
/// from (L1-only loses all progress at every such event).
#[test]
fn er01_multilevel_survives_what_l1_only_cannot() {
    use deep_core::{mean_multilevel_efficiency, measure_level_costs, MultiLevelParams};

    let costs = measure_level_costs(&DeepConfig::small(), 8, 64 << 20, 1);
    let base = MultiLevelParams {
        work_s: 100_000.0,
        n_nodes: 640,
        mtbf_node_s: 0.45 * 365.0 * 86_400.0,
        interval_s: 600.0,
        levels: costs,
        l2_every: 4,
        l3_every: 16,
        restart_s: 120.0,
        severity_weights: [0.7, 0.25, 0.05],
    };

    // Mild failures (mostly transient): rotation within 10% of L1-only.
    let mut mild = base;
    mild.severity_weights = [1.0, 0.0, 0.0];
    let rotation = mean_multilevel_efficiency(&mild, 7, 8);
    let l1_only = mean_multilevel_efficiency(&mild.l1_only(), 7, 8);
    assert_eq!(rotation.truncated_runs, 0);
    assert!(
        rotation.efficiency > 0.9 * l1_only.efficiency,
        "rotation {} vs L1-only {}",
        rotation.efficiency,
        l1_only.efficiency
    );

    // Multi-node failures in the mix: L1-only collapses (every such
    // event erases all progress), the rotation recovers from L2/L3.
    // Flakier machine so each run sees several multi-node events.
    let mut harsh = base;
    harsh.mtbf_node_s = 0.1 * 365.0 * 86_400.0;
    harsh.severity_weights = [0.5, 0.3, 0.2];
    let rotation = mean_multilevel_efficiency(&harsh, 7, 8);
    let l1_only = mean_multilevel_efficiency(&harsh.l1_only(), 7, 8);
    assert_eq!(rotation.truncated_runs, 0, "rotation must always finish");
    assert!(
        rotation.efficiency > 1.5 * l1_only.efficiency.max(1e-9),
        "rotation {} must dominate L1-only {} under multi-node failures",
        rotation.efficiency,
        l1_only.efficiency
    );
}

/// ER02: the shared-file (N-1) pattern collapses against SIONlib on the
/// same PFS — per-block metadata locking plus alignment padding — while
/// the SION container needs exactly one metadata operation.
#[test]
fn er02_sion_restores_task_local_performance() {
    use deep_fabric::NodeId;
    use deep_io::{FileLayerParams, WritePattern};

    let run = |pattern: WritePattern| {
        let mut sim = deep_simkit::Simulation::new(17);
        let ctx = sim.handle();
        let mut cfg = DeepConfig::small();
        cfg.storage.file_layer = FileLayerParams {
            shared_block_bytes: 1 << 19,
            ..FileLayerParams::default()
        };
        let machine = deep_core::DeepMachine::build(&ctx, cfg);
        let layer = machine.file_layer();
        let clients: Vec<NodeId> = (0..4).map(NodeId).collect();
        let l = layer.clone();
        let h = sim.spawn("phase", async move {
            l.write_phase(&clients, 8 << 20, pattern).await
        });
        sim.run().assert_completed();
        h.try_result().unwrap()
    };

    let sion = run(WritePattern::Sion);
    let shared = run(WritePattern::SharedFile);
    let local = run(WritePattern::TaskLocal);
    assert_eq!(sion.meta_ops, 1);
    assert!(
        sion.goodput_bps() > 2.0 * shared.goodput_bps(),
        "SION {} vs shared {}",
        sion.goodput_bps(),
        shared.goodput_bps()
    );
    assert!(
        sion.goodput_bps() >= 0.95 * local.goodput_bps(),
        "SION {} should match task-local {}",
        sion.goodput_bps(),
        local.goodput_bps()
    );
    assert!(shared.physical_bytes > shared.payload_bytes, "padding");
}

/// ER03: the discrete-event resilience run — real checkpoint/restore I/O
/// on the simulated machine, failures striking in virtual time — agrees
/// with the analytic Monte-Carlo model (`simulate_multilevel`) to within
/// 10% at every swept node-MTBF point, and both degrade monotonically as
/// nodes get flakier.
#[test]
fn er03_des_matches_analytic_model_across_mtbf_sweep() {
    use deep_faults::{er03_params, fault_sweep};

    let (config, ranks, bytes_per_rank, base) = er03_params();
    let mtbfs = [100.0, 250.0, 600.0];
    let points = fault_sweep(&config, ranks, bytes_per_rank, &base, &mtbfs, 9, 4);
    assert_eq!(points.len(), mtbfs.len());
    for pt in &points {
        assert!(pt.des.efficiency > 0.0 && pt.des.efficiency <= 1.0);
        let rel = (pt.des.efficiency - pt.mc.efficiency).abs() / pt.mc.efficiency;
        assert!(
            rel < 0.10,
            "mtbf {}: DES {} vs MC {} (rel gap {rel})",
            pt.mtbf_node_s,
            pt.des.efficiency,
            pt.mc.efficiency
        );
    }
    // Flakier nodes cost efficiency on both sides of the pairing.
    assert!(points[0].des.efficiency < points[2].des.efficiency);
    assert!(points[0].mc.efficiency < points[2].mc.efficiency);
    // And the DES sweep is reproducible point for point.
    let again = fault_sweep(&config, ranks, bytes_per_rank, &base, &mtbfs, 9, 4);
    for (a, b) in points.iter().zip(&again) {
        assert_eq!(a.des.efficiency, b.des.efficiency);
        assert_eq!(a.mc.efficiency, b.mc.efficiency);
    }
}
