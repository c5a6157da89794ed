//! F23 — slide 23: OmpSs tiled Cholesky, dataflow vs fork-join.
//!
//! "Decouple how we write (think sequential) from how it is executed":
//! dependence-driven out-of-order execution against the barrier-per-phase
//! baseline, across worker counts and tile grids, on the booster node
//! model. Results are verified numerically against a serial reference.

use deep_apps::cholesky::{cholesky_graph, factorisation_error, spd_matrix, TiledMatrix};
use deep_core::{Cell, Table};
use deep_hw::NodeModel;
use deep_ompss::{run_dataflow, run_fork_join, RunReport};
use deep_simkit::Simulation;

fn run_case(nt: usize, ts: usize, workers: u32, dataflow: bool) -> (RunReport, f64) {
    let n = nt * ts;
    let a = spd_matrix(n);
    let m = TiledMatrix::from_dense(&a, nt, ts);
    let g = cholesky_graph(&m);
    let node = NodeModel::xeon_phi_knc();
    let mut sim = Simulation::new(1);
    let ctx = sim.handle();
    let h = sim.spawn("run", async move {
        if dataflow {
            run_dataflow(&ctx, g, &node, workers).await
        } else {
            run_fork_join(&ctx, g, &node, workers).await
        }
    });
    sim.run().assert_completed();
    let err = factorisation_error(&m.to_dense(), &a, n);
    (h.try_result().unwrap(), err)
}

pub fn tables() -> Vec<Table> {
    let ts = 16;
    let mut t = Table::new(
        "F23",
        "tiled Cholesky on the KNC booster node: dataflow (OmpSs) vs fork-join",
        &[
            "tiles",
            "tasks",
            "workers",
            "dataflow",
            "fork-join",
            "dataflow wins",
            "dataflow eff",
            "cp bound",
            "max |LLt-A|",
        ],
    );
    for nt in [8usize, 12, 16] {
        for workers in [4u32, 16, 60] {
            let (df, df_err) = run_case(nt, ts, workers, true);
            let (fj, fj_err) = run_case(nt, ts, workers, false);
            t.row([
                format!("{nt}x{nt}").into(),
                df.tasks.into(),
                workers.into(),
                Cell::secs(df.makespan),
                Cell::secs(fj.makespan),
                Cell::x(fj.makespan.as_secs_f64() / df.makespan.as_secs_f64()),
                Cell::f(df.efficiency()),
                Cell::secs(df.critical_path),
                // The worse of the two schedules' factors.
                Cell::Num(df_err.max(fj_err), |v| format!("{v:.1e}")),
            ]);
        }
    }
    t.note(
        "shape: the dataflow schedule consistently beats the barrier schedule\n\
         (tasks of iteration k+1 start while iteration k's trailing update is\n\
         still running), the gap widening with workers until the critical path\n\
         binds; every run factorises the matrix exactly (error ~1e-13).",
    );
    vec![t]
}
