//! Shape claims of the paper experiments, read off the tables their
//! registered runs print. Each test runs one experiment once at its
//! registered size, checks the qualitative result the paper claims (who
//! wins, by roughly what factor, where crossovers fall) as predicates on
//! the typed cells, and pins the rendering byte for byte against
//! `docs/experiments/<id>.md`. f09 and f23b are too heavy for a debug
//! build at their registered size: f09 is asserted at reduced size, and
//! `scripts/check.sh` pins all 26 outputs.

use deep_bench::experiments::render;
use deep_core::{mean_multilevel_efficiency, LevelCost, MultiLevelParams, Table};
use deep_hw::generations::fitted_factor_per_decade;
use deep_psmpi::NetModel;

/// The tables of experiment `$id`'s registered run, after pinning their
/// rendering to `docs/experiments/$id.md`.
macro_rules! pinned {
    ($id:ident) => {
        pinned(stringify!($id), deep_bench::experiments::$id::tables())
    };
}

fn pinned<const N: usize>(id: &str, tables: Vec<Table>) -> [Table; N] {
    let mut out = String::new();
    render(&tables, &mut out);
    let path = format!("{}/docs/experiments/{id}.md", env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(&path).expect("committed output");
    if id == "er03_fault_sweep" {
        // Its document may carry a `regenerate:` trailer after the output.
        assert!(doc.starts_with(&out), "{id} drifted from {path}:\n{out}");
    } else {
        assert_eq!(out, doc, "{id} drifted from {path}");
    }
    tables.try_into().expect("table count")
}

/// Column `col` of `t`, top to bottom; panics on a label cell.
fn column(t: &Table, col: &str) -> Vec<f64> {
    let c = t.headers.iter().position(|h| h == col).expect(col);
    t.rows.iter().map(|r| r[c].value().expect(col)).collect()
}

/// A30 (shape paragraph): critical-path-first scheduling wins big when
/// a cheap swarm can starve the chain (≥ 1.4× on chain+swarm), gains
/// little on Cholesky (≤ 1.2×), and never loses or beats the bound.
#[test]
fn a30_priority_matters_only_when_the_chain_can_starve() {
    let [t] = pinned!(a30_scheduler_ablation);
    for row in ["chain+swarm | 4", "chain+swarm | 8"] {
        assert!(t.get(row, "CP-first wins") >= 1.4, "{row}");
    }
    for row in [
        "cholesky 12x12 | 16",
        "cholesky 12x12 | 60",
        "cholesky 16x16",
    ] {
        let win = t.get(row, "CP-first wins");
        assert!((1.0..=1.2).contains(&win), "{row}: {win}");
    }
    for (cpf, bound) in column(&t, "CP-first").iter().zip(column(&t, "cp bound")) {
        assert!(*cpf >= bound, "{cpf} below the critical path {bound}");
    }
}

/// A31 (shape paragraph): at 2 BIs the policies tie within 10 %; at 8
/// BIs flow hashing strands capacity (≥ 2× byte imbalance) and
/// least-loaded selection trims the completion by ≥ 15 %.
#[test]
fn a31_least_loaded_pays_only_with_many_bis() {
    let [t] = pinned!(a31_bi_selection);
    let done = |row: &str| t.get(row, "completion [ms]");
    let imbalance = |row: &str| t.get(row, "byte imbalance (max/mean)");
    let tie = done("2 | least-loaded") / done("2 | flow-hash");
    assert!((0.9..1.1).contains(&tie), "2 BIs: {tie}");
    assert!(imbalance("8 | flow-hash") >= 2.0);
    assert!(imbalance("8 | least-loaded") < imbalance("8 | flow-hash"));
    assert!(done("8 | least-loaded") <= 0.85 * done("8 | flow-hash"));
}

/// A32 (shape paragraph): all-rendezvous pays ≥ 2× on 1 KiB messages,
/// eager-everything costs a copy on bulk ones, and the 16 KiB default
/// is the fastest threshold at every message size.
#[test]
fn a32_default_threshold_is_the_sweet_spot() {
    let [t] = pinned!(a32_eager_threshold);
    let default = "thr=16K (default)";
    assert!(t.get("1.0 KiB", "thr=0 (all rndv)") >= 2.0 * t.get("1.0 KiB", default));
    assert!(t.get("1.0 MiB", "thr=8M (all eager)") > t.get("1.0 MiB", default));
    assert!(t.get("128.0 KiB", "thr=128K") > t.get("128.0 KiB", default));
    for row in ["1.0 KiB", "16.0 KiB", "128.0 KiB", "1.0 MiB"] {
        for col in &t.headers[1..] {
            assert!(t.get(row, default) <= t.get(row, col), "{row}: {col}");
        }
    }
}

/// A33 (allreduce ablation, 16 ranks): recursive doubling wins below the
/// ring threshold (128 B, 8 KiB), the ring wins from the threshold
/// (256 KiB) up, and reduce+bcast — two binomial trees back to back —
/// costs at least 1.9× recursive doubling at every payload.
#[test]
fn a33_allreduce_crossover_sits_at_the_ring_threshold() {
    let threshold = deep_psmpi::MpiParams::default().allreduce_ring_threshold as f64;
    let [t] = pinned!(a33_allreduce_algorithms);
    let bytes = column(&t, "payload");
    assert_eq!(
        bytes,
        [128, 8 << 10, 256 << 10, 2 << 20, 8 << 20].map(f64::from)
    );
    let [rd, ring, rb] = ["recursive doubling", "ring", "reduce+bcast"].map(|c| column(&t, c));
    for i in 0..bytes.len() {
        let (b, rd, ring, rb) = (bytes[i], rd[i], ring[i], rb[i]);
        if b < threshold {
            assert!(rd < ring && rd < rb, "{b} B: {rd} {ring} {rb}");
        } else {
            assert!(ring < rd && ring < rb, "{b} B: {rd} {ring} {rb}");
        }
        assert!(rb >= 1.9 * rd, "{b} B: reduce+bcast {rb} vs {rd}");
    }
}

/// ER01a: an L1 (node-local NVM) checkpoint of the same state is at
/// least 5x faster than draining it through the BI bridges onto the PFS
/// (L3).
#[test]
fn er01_l1_checkpoint_beats_l3_by_5x() {
    let [a, _] = pinned!(er01_checkpoint_levels);
    let (l1, l3) = (
        a.get("L1 local NVM", "write [ms]"),
        a.get("L3 PFS", "write [ms]"),
    );
    assert!(l1 > 0.0);
    assert!(l3 >= 5.0 * l1, "L3 {l3} ms vs L1 {l1} ms");
}

/// ER01b: under a severity mix with multi-node failures the L1/L2/L3
/// rotation always finishes and beats L1-only by more than 1.5×; with
/// the same measured level costs (ER01a) and only transient failures,
/// it keeps its efficiency within 10 % of L1-only.
#[test]
fn er01_multilevel_survives_what_l1_only_cannot() {
    let [a, b] = pinned!(er01_checkpoint_levels);
    let rotation = "L1+L2+L3 rotation";
    assert_eq!(
        b.get(rotation, "truncated runs"),
        0.0,
        "rotation must finish"
    );
    let (rot, l1) = (
        b.get(rotation, "efficiency"),
        b.get("L1 only", "efficiency"),
    );
    // A thin margin: the registered run holds it by 0.14 % (0.9475
    // against 1.5 × 0.6308 = 0.9462), so a change to the level costs or
    // the replica count may flip it without anything being broken.
    assert!(
        rot > 1.5 * l1,
        "rotation {rot} must dominate L1-only {l1} by 1.5x (registered run: \
         0.9475 vs 0.9462, a known 0.14 % margin)"
    );

    let levels = ["L1 local NVM", "L2 buddy", "L3 PFS"].map(|l| LevelCost {
        write_s: a.get(l, "write [ms]") / 1e3,
        restore_s: a.get(l, "restore [ms]") / 1e3,
    });
    let mild = MultiLevelParams {
        work_s: 100_000.0,
        n_nodes: 640,
        mtbf_node_s: 0.45 * 365.0 * 86_400.0,
        interval_s: 600.0,
        levels,
        l2_every: 4,
        l3_every: 16,
        restart_s: 120.0,
        severity_weights: [1.0, 0.0, 0.0],
    };
    let rotation = mean_multilevel_efficiency(&mild, 7, 8);
    let l1_only = mean_multilevel_efficiency(&mild.l1_only(), 7, 8);
    assert_eq!(rotation.truncated_runs, 0);
    assert!(
        rotation.efficiency > 0.9 * l1_only.efficiency,
        "rotation {} vs L1-only {}",
        rotation.efficiency,
        l1_only.efficiency
    );
}

/// ER02: at every rank count the shared-file (N-1) pattern collapses
/// against SIONlib on the same PFS — per-block metadata locking plus
/// alignment padding — while the SION container needs exactly one
/// metadata operation and matches task-local goodput within 5 %.
#[test]
fn er02_sion_restores_task_local_performance() {
    let [t] = pinned!(er02_io_patterns);
    for ranks in [4, 8, 16] {
        let get = |pattern: &str, col| t.get(&format!("{ranks} | {pattern}"), col);
        let goodput = |pattern| get(pattern, "goodput [GB/s]");
        let (sion, shared) = (goodput("SIONlib"), goodput("shared-file (N-1)"));
        assert_eq!(get("SIONlib", "meta ops"), 1.0);
        assert!(
            sion > 2.0 * shared,
            "{ranks}: SION {sion} vs shared {shared}"
        );
        assert!(sion >= 0.95 * goodput("task-local (N-N)"), "{ranks}");
        assert!(get("shared-file (N-1)", "amplification") > 1.0, "padding");
    }
}

/// ER03: the discrete-event resilience run — real checkpoint/restore I/O
/// on the simulated machine, failures striking in virtual time — agrees
/// with the analytic Monte-Carlo model (`simulate_multilevel`) to within
/// 10% at every swept node-MTBF point, both climb monotonically as nodes
/// get steadier, and a second run reproduces every point.
#[test]
fn er03_des_matches_analytic_model_across_mtbf_sweep() {
    let [t] = pinned!(er03_fault_sweep);
    let (des, mc) = (column(&t, "DES eff"), column(&t, "MC eff"));
    for (d, m) in des.iter().zip(&mc) {
        assert!(*d > 0.0 && *d <= 1.0);
        assert!((d - m).abs() / m < 0.10, "DES {d} vs MC {m}");
    }
    for curve in [&des, &mc] {
        assert!(curve.windows(2).all(|w| w[0] < w[1]), "{curve:?}");
    }
    let again = &deep_bench::experiments::er03_fault_sweep::tables()[0];
    assert_eq!(column(again, "DES eff"), des);
    assert_eq!(column(again, "MC eff"), mc);
}

/// F02: the historical series grows ~×1000/decade (Meuer), far above
/// Moore's ×100/decade.
#[test]
fn f02_meuer_vs_moore() {
    let [t, _] = pinned!(f02_evolution);
    let years = column(&t, "year").into_iter().map(|y| y as u32);
    let series: Vec<(u32, f64)> = years.zip(column(&t, "Top500 #1 [GF]")).collect();
    let fit = fitted_factor_per_decade(&series);
    assert!((400.0..2500.0).contains(&fit), "fit {fit}");
    assert!(fit > 3.0 * 100.0, "parallelism outpaces transistor scaling");
}

/// F03 (slide 3, "are ~100 MW acceptable?"): no building block of the
/// era reaches an exaflop in 100 MW; the booster silicon needs about
/// 200 MW and a Xeon-only machine about 1 GW.
#[test]
fn f03_no_node_type_reaches_an_exaflop_in_100_mw() {
    let [t] = pinned!(f03_exascale);
    assert!(column(&t, "facility [MW]").iter().all(|&mw| mw > 100.0));
    let mw = |node: &str| t.get(node, "facility [MW]");
    assert!((150.0..250.0).contains(&mw("Xeon Phi KNC (booster node)")));
    assert!((800.0..1300.0).contains(&mw("Xeon E5-2680 node (2S)")));
}

/// F03b (slide 3, "Resiliency"): checkpoint/restart is nearly free on
/// the 640-node prototype, burns 60 % of a 100 k-part machine even at
/// the best interval and all of a 1 M-part one; Daly's interval beats
/// a quarter and four times itself up to 100 k parts, and daily
/// checkpointing cannot finish its work (a "!" cell) from 100 k parts up.
#[test]
fn f03b_resilience_collapses_towards_exascale() {
    let [t] = pinned!(f03b_resilience);
    assert_eq!(column(&t, "nodes"), [640.0, 1e4, 1e5, 1e6]);
    let at_daly = |nodes: &str| t.get(nodes, "eff @ Daly");
    assert!(
        at_daly("640") >= 0.95,
        "640 nodes at Daly: {}",
        at_daly("640")
    );
    assert!((at_daly("100000") - 0.40).abs() <= 0.02);
    assert!(at_daly("1000000") < 0.02);
    for nodes in ["640", "10000", "100000"] {
        let [quarter, daly, four_times] =
            ["eff @ Daly/4", "eff @ Daly", "eff @ 4x Daly"].map(|c| t.get(nodes, c));
        assert!(daly >= quarter && daly >= four_times, "{nodes} nodes");
    }
    for nodes in [640, 10_000, 100_000, 1_000_000] {
        let daily = t.cell(&nodes.to_string(), "eff @ 24 h").to_string();
        assert_eq!(
            daily.ends_with('!'),
            nodes >= 100_000,
            "{nodes} nodes: {daily}"
        );
    }
}

/// F05 (slide 5): the Xeon Phi closes the gap with ~5x the energy
/// efficiency of a Xeon node.
#[test]
fn f05_knc_efficiency_factor() {
    let [t] = pinned!(f05_rationale);
    let factor = t.get("Xeon node -> Xeon Phi (KNC)", "GF/W factor");
    assert!((4.0..6.5).contains(&factor), "{factor}");
}

/// F06b: staging accelerator traffic through the host costs 1.8–25× a
/// direct hop at every size; small messages suffer the most (three
/// software overheads vs one fabric traversal), bulk converges to ~3
/// serializations.
#[test]
fn f06_staging_penalty() {
    let [_, b] = pinned!(f06_accel_cluster);
    let penalty = column(&b, "staging penalty");
    for p in &penalty {
        assert!((1.8..25.0).contains(p), "staging penalty {p}");
    }
    assert!(penalty.windows(2).all(|w| w[0] > w[1]), "{penalty:?}");
}

/// F08: the fabrics match PCIe bandwidth within 10% for bulk messages
/// while being latency-poorer for tiny ones.
#[test]
fn f08_fabric_matches_pcie_for_bulk() {
    let [t] = pinned!(f08_direct_fabric);
    assert!(t.get("1 MiB", "IB/PCIe") >= 0.9);
    assert!(t.get("1 MiB", "EXTOLL/PCIe") >= 0.9);
    assert!(
        t.get("64 B", "PCIe (DMA)") > t.get("64 B", "InfiniBand"),
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
/// two ranks are slower than one.
#[test]
fn f09b_regular_scales_complex_does_not() {
    let [t] = pinned!(f09b_fft);
    let ranks = column(&t, "ranks");
    assert_eq!(ranks, [1.0, 2.0, 4.0, 8.0, 16.0]);
    let (cg_speedup, fft_share, cg_share) = (
        column(&t, "CG speedup"),
        column(&t, "FFT comm share"),
        column(&t, "CG comm share"),
    );
    for i in 1..ranks.len() {
        let ranks = ranks[i];
        assert!(
            cg_speedup[i] > cg_speedup[i - 1],
            "CG speedup at {ranks} ranks: {} after {}",
            cg_speedup[i],
            cg_speedup[i - 1]
        );
        assert!(
            fft_share[i] > fft_share[i - 1],
            "FFT comm share at {ranks} ranks: {} after {}",
            fft_share[i],
            fft_share[i - 1]
        );
        assert!(
            fft_share[i] > cg_share[i],
            "{ranks} ranks: FFT comm share {} vs CG {}",
            fft_share[i],
            cg_share[i]
        );
    }
    let two = t.get("2", "FFT speedup");
    assert!(two < 1.0, "FFT on 2 ranks: {two}x");
}

/// F10: on the coupled proxy the cluster-booster wins time and energy
/// against both baselines and cuts CPU<->accelerator messages per unit
/// by more than 2×.
#[test]
fn f10_cluster_booster_wins() {
    let [t] = pinned!(f10_cluster_booster);
    let (pure, accel, deep) = (
        "pure-cluster",
        "accelerated-cluster",
        "deep-cluster-booster",
    );
    let time = |arch| t.get(arch, "time-to-solution");
    assert!(time(deep) < time(accel), "deep beats accelerated");
    assert!(time(deep) < time(pure), "deep beats pure cluster");
    assert!(t.get(deep, "energy [kJ]") < t.get(accel, "energy [kJ]"));
    let rate = |arch| t.get(arch, "CPU<->acc msgs/unit");
    assert!(rate(accel) > 2.0 * rate(deep), "coarser offload");
}

/// F14 (slides 11–14): the prototype is 128 cluster nodes, 512 booster
/// nodes and 8 BIs, and in every configuration past the test rig at
/// least 90 % of the flops sit in the booster — "the cluster
/// orchestrates, the booster computes".
#[test]
fn f14_the_booster_holds_the_flops() {
    let [t] = pinned!(f14_architecture);
    let proto = "DEEP prototype";
    assert_eq!(t.get(proto, "CN"), 128.0);
    assert_eq!(t.cell(proto, "BN (torus)").to_string(), "512 (8x8x8)");
    assert_eq!(t.get(proto, "BIs"), 8.0);
    for config in ["medium (benches)", proto] {
        assert!(t.get(config, "booster share") >= 90.0, "{config}");
    }
}

/// F15: DGEMM on the KNC reaches 3–5.5 GF/W achieved and 4.5–5.5 GF/W
/// peak (the slide-15 "5 GFlop/W" claim); the same kernel on the Xeon
/// node is ~5x less efficient.
#[test]
fn f15_energy_efficiency() {
    let [t] = pinned!(f15_energy);
    let knc = "Xeon Phi KNC (booster node) | DGEMM n=4096";
    let xeon = "Xeon E5-2680 node (2S) | DGEMM n=4096";
    let (e_knc, e_xeon) = (t.get(knc, "achieved GF/W"), t.get(xeon, "achieved GF/W"));
    assert!((3.0..5.5).contains(&e_knc), "KNC achieved {e_knc} GF/W");
    assert!(
        (3.5..6.5).contains(&(e_knc / e_xeon)),
        "ratio {}",
        e_knc / e_xeon
    );
    let peak = t.get(knc, "peak GF/W");
    assert!((4.5..5.5).contains(&peak), "the slide-15 '5 GFlop/W' claim");
}

/// F16: VELO latency is sub-µs; RMA bulk goodput >95% of the ~7 GB/s
/// link; each torus hop adds one 60 ns router traversal.
#[test]
fn f16_extoll_engine_shapes() {
    let [a, b, _] = pinned!(f16_extoll);
    let velo = a.get("8 B", "VELO latency [µs]");
    assert!(velo < 1.0, "VELO 8B latency {velo} µs");
    let good = a.get("16 MiB", "RMA goodput [GB/s]");
    assert!(good > 0.95 * 7.0, "RMA goodput {good}");
    let hops = column(&b, "VELO 8 B latency [µs]");
    assert!(hops.windows(2).all(|w| (w[1] - w[0] - 0.060).abs() < 1e-9));
}

/// F18 (slide 18, positioning): on regular and dense vector code the
/// DEEP booster beats the BG/Q-like machine, which beats the Xeon
/// cluster; on complex scalar code the cluster is at least as good as
/// the BG/Q-like machine, and DEEP — which runs that code on its
/// cluster side — matches the cluster exactly.
#[test]
fn f18_deep_spans_both_regions() {
    let [t] = pinned!(f18_positioning);
    let tf = |class: &str| ["BG/Q-like", "Xeon cluster", "DEEP"].map(|m| t.get(class, m));
    for class in ["regular sparse (HSCP)", "dense vector kernel"] {
        let [bgq, xeon, deep] = tf(class);
        assert!(deep > bgq && bgq > xeon, "{class}: {:?}", tf(class));
    }
    let [bgq, xeon, deep] = tf("complex multiphysics");
    assert!(xeon >= bgq, "complex: {bgq} vs {xeon}");
    assert_eq!(deep, xeon, "complex: DEEP runs it on the cluster side");
}

/// F21: spawn cost grows strongly sublinearly in process count: 16× the
/// booster processes cost less than 6× the time.
#[test]
fn f21_spawn_sublinear() {
    let [t] = pinned!(f21_spawn);
    let (t32, t512) = (
        t.get("32", "spawn cost [ms]"),
        t.get("512", "spawn cost [ms]"),
    );
    assert!(t512 < t32 * 6.0, "16x procs < 6x time: {t32} vs {t512}");
}

/// F22: on every job mix, dynamic booster assignment beats static on
/// makespan and useful utilisation, and static hoards boosters it does
/// not use.
#[test]
fn f22_dynamic_beats_static() {
    let [t] = pinned!(f22_resmgr);
    for seed in 1..=3 {
        let get = |policy: &str, col| t.get(&format!("{seed} | {policy}"), col);
        let (s, d) = ("StaticFcfs", "DynamicFcfs");
        assert!(
            get(d, "makespan [s]") < get(s, "makespan [s]"),
            "seed {seed}"
        );
        assert!(
            get(d, "BN active util") > get(s, "BN active util"),
            "seed {seed}"
        );
        assert!(
            get(s, "BN allocated") > get(s, "BN active util") + 0.1,
            "static hoards"
        );
    }
}

/// F23: dataflow Cholesky beats fork-join at every tile grid and worker
/// count, and both schedules' factors stay numerically exact (the
/// printed error is the larger of the two).
#[test]
fn f23_dataflow_beats_fork_join() {
    let [t] = pinned!(f23_cholesky);
    let fork_join = column(&t, "fork-join");
    for (df, fj) in column(&t, "dataflow").iter().zip(fork_join) {
        assert!(*df < fj, "{df} vs {fj}");
    }
    assert!(column(&t, "max |LLt-A|").iter().all(|&e| e < 1e-9));
}

/// F25 (slides 8, 25): elapsed time stays within 10 % of the coarsest
/// offload up to 1024 invocations, then climbs at least 30 % as
/// per-invocation latency dominates; bridge traffic grows with every
/// split.
#[test]
fn f25_fine_grained_offload_is_latency_bound() {
    let [t] = pinned!(f25_offload);
    let slowdown = column(&t, "slowdown vs coarsest");
    let (coarse, finest) = slowdown.split_at(slowdown.len() - 1);
    assert!(coarse.iter().all(|&s| s <= 1.1), "{slowdown:?}");
    assert!(finest[0] >= 1.3, "{slowdown:?}");
    let msgs = column(&t, "bridge msgs");
    assert!(msgs.windows(2).all(|w| w[0] < w[1]), "{msgs:?}");
}

/// F29: a bridged small message costs more than a plain IB message but
/// less than 4× one.
#[test]
fn f29_bridge_latency_overhead() {
    let [_, b] = pinned!(f29_global_mpi);
    let cc = b.get("cluster -> cluster (IB)", "latency [µs]");
    let cb = b.get("cluster -> booster (CBP bridge)", "latency [µs]");
    assert!(cb > cc, "bridge adds latency");
    assert!(cb < 4.0 * cc, "but bounded: {cb} vs {cc}");
}

/// Experiments with a shape claim in this file.
const ASSERTED: &[&str] = &[
    "a30_scheduler_ablation",
    "a31_bi_selection",
    "a32_eager_threshold",
    "a33_allreduce_algorithms",
    "er01_checkpoint_levels",
    "er02_io_patterns",
    "er03_fault_sweep",
    "f02_evolution",
    "f03_exascale",
    "f03b_resilience",
    "f05_rationale",
    "f06_accel_cluster",
    "f08_direct_fabric",
    "f09_scalability",
    "f09b_fft",
    "f10_cluster_booster",
    "f14_architecture",
    "f15_energy",
    "f16_extoll",
    "f18_positioning",
    "f21_spawn",
    "f22_resmgr",
    "f23_cholesky",
    "f25_offload",
    "f29_global_mpi",
];

/// Experiments pinned only byte for byte, by `scripts/check.sh`. This
/// list may only shrink: a new experiment comes with its claim. f23b
/// runs 12 s in a debug build and has no reduced-size claim yet.
const UNASSERTED: &[&str] = &["f23b_dcholesky"];

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
    assert!(UNASSERTED.len() <= 1, "UNASSERTED may only shrink");
}
