//! A30 (ablation) — ready-queue policy of the OmpSs runtime: FIFO vs
//! critical-path-first list scheduling, on the tiled Cholesky and on an
//! adversarial chain-plus-swarm DAG.

use deep_apps::cholesky::{cholesky_graph, spd_matrix, TiledMatrix};
use deep_core::{Cell, Table};
use deep_hw::NodeModel;
use deep_ompss::{run_dataflow_policy, Access, RegionId, SchedPolicy, TaskCost, TaskGraph};
use deep_simkit::{SimDuration, Simulation};

fn run_case(graph: TaskGraph, workers: u32, policy: SchedPolicy) -> (f64, f64) {
    let node = NodeModel::xeon_phi_knc();
    let mut sim = Simulation::new(1);
    let ctx = sim.handle();
    let h = sim.spawn("run", async move {
        run_dataflow_policy(&ctx, graph, &node, workers, policy).await
    });
    sim.run().assert_completed();
    let r = h.try_result().unwrap();
    (r.makespan.as_secs_f64(), r.critical_path.as_secs_f64())
}

fn cholesky(nt: usize) -> TaskGraph {
    let ts = 16;
    let a = spd_matrix(nt * ts);
    let m = TiledMatrix::from_dense(&a, nt, ts);
    cholesky_graph(&m)
}

fn chain_plus_swarm() -> TaskGraph {
    let mut g = TaskGraph::new();
    for step in 0..12u64 {
        for i in 0..16u64 {
            g.add_task(
                "short",
                &[(RegionId(1000 + step * 32 + i), Access::InOut)],
                TaskCost::Fixed(SimDuration::micros(40)),
                0,
                None,
            );
        }
        g.add_task(
            "chain",
            &[(RegionId(0), Access::InOut)],
            TaskCost::Fixed(SimDuration::micros(120)),
            0,
            None,
        );
    }
    g
}

pub fn tables() -> Vec<Table> {
    let mut t = Table::new(
        "A30",
        "dataflow ready-queue policy ablation (makespan, µs)",
        &[
            "workload",
            "workers",
            "FIFO",
            "CP-first",
            "CP-first wins",
            "cp bound",
        ],
    );
    // Flattened (case × policy) work-unit grid (EXPERIMENTS.md
    // convention): 10 independent simulations, each claimed alone,
    // instead of 5 cases that each hide an inner parallel pair
    // fighting the outer sweep for threads. Each unit
    // builds its own graph, so `run_case` is a pure function of
    // `(workload, workers, policy)` and the rows — assembled
    // sequentially by pairing each case's two policy units — are
    // identical at any thread count.
    #[derive(Clone, Copy)]
    enum Workload {
        Cholesky(usize),
        ChainSwarm,
    }
    let build = |w: Workload| match w {
        Workload::Cholesky(nt) => cholesky(nt),
        Workload::ChainSwarm => chain_plus_swarm(),
    };
    let cases: [(&str, Workload, u32); 5] = [
        ("cholesky 12x12", Workload::Cholesky(12), 16),
        ("cholesky 12x12", Workload::Cholesky(12), 60),
        ("cholesky 16x16", Workload::Cholesky(16), 60),
        ("chain+swarm", Workload::ChainSwarm, 4),
        ("chain+swarm", Workload::ChainSwarm, 8),
    ];
    let units: Vec<(Workload, u32, SchedPolicy)> = cases
        .iter()
        .flat_map(|&(_, wl, workers)| {
            [SchedPolicy::Fifo, SchedPolicy::CriticalPathFirst]
                .into_iter()
                .map(move |policy| (wl, workers, policy))
        })
        .collect();
    let runs = crate::sweep::par_sweep(&units, |&(wl, workers, policy)| {
        run_case(build(wl), workers, policy)
    });
    for (case_idx, &(name, _, workers)) in cases.iter().enumerate() {
        let (fifo, cp_bound) = runs[case_idx * 2];
        let (cpf, _) = runs[case_idx * 2 + 1];
        t.row([
            name.into(),
            workers.into(),
            Cell::f(fifo * 1e6),
            Cell::f(cpf * 1e6),
            Cell::x(fifo / cpf),
            Cell::f(cp_bound * 1e6),
        ]);
    }
    t.note(
        "shape: priority scheduling matters when wide cheap parallelism can\n\
         starve the critical chain (chain+swarm); on Cholesky the dependence\n\
         structure already orders the panel factorisations, so the gain is\n\
         small — evidence for the paper's choice of a simple runtime.",
    );
    vec![t]
}
