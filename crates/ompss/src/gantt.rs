//! ASCII Gantt rendering of execution traces — the visual counterpart of
//! slide 23's dataflow argument: fork-join traces show idle "staircases"
//! at every barrier that dataflow traces fill with ready tasks.

use deep_simkit::SimTime;

use crate::runtime::RunReport;

/// Render a worker-by-time occupancy chart, `width` columns wide.
/// Each cell shows how busy that worker was in that time slice:
/// `█` ≥ 87 %, `▓` ≥ 62 %, `▒` ≥ 37 %, `░` ≥ 12 %, `·` otherwise.
pub fn render_gantt(report: &RunReport, width: usize) -> String {
    assert!(width >= 4);
    let end = report
        .trace
        .iter()
        .map(|&(_, e, _)| e)
        .max()
        .unwrap_or(SimTime::ZERO);
    if end == SimTime::ZERO {
        return String::from("(empty trace)\n");
    }
    let total = end.as_nanos() as f64;
    let mut busy = vec![vec![0.0f64; width]; report.workers as usize];
    for &(s, e, w) in &report.trace {
        let (s, e) = (s.as_nanos() as f64, e.as_nanos() as f64);
        let first = ((s / total) * width as f64).floor() as usize;
        let last = (((e / total) * width as f64).ceil() as usize).min(width);
        let row = &mut busy[w as usize];
        for (col, cell) in row.iter_mut().enumerate().take(last).skip(first) {
            let c0 = col as f64 / width as f64 * total;
            let c1 = (col + 1) as f64 / width as f64 * total;
            let overlap = (e.min(c1) - s.max(c0)).max(0.0);
            *cell += overlap / (c1 - c0);
        }
    }
    let mut out = String::new();
    for (w, row) in busy.iter().enumerate() {
        out.push_str(&format!("w{w:<3}|"));
        for &b in row {
            out.push(match b {
                x if x >= 0.87 => '█',
                x if x >= 0.62 => '▓',
                x if x >= 0.37 => '▒',
                x if x >= 0.12 => '░',
                _ => '·',
            });
        }
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "    0{:>width$}\n",
        format!("{}", report.makespan),
        width = width
    ));
    out
}

/// Overall occupancy fraction of the trace (busy worker-time / total).
pub fn occupancy(report: &RunReport) -> f64 {
    let end = report
        .trace
        .iter()
        .map(|&(_, e, _)| e)
        .max()
        .unwrap_or(SimTime::ZERO);
    if end == SimTime::ZERO {
        return 0.0;
    }
    let busy: f64 = report
        .trace
        .iter()
        .map(|&(s, e, _)| (e - s).as_secs_f64())
        .sum();
    busy / (end.as_secs_f64() * report.workers as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Access, RegionId, TaskCost, TaskGraph};
    use crate::runtime::run_dataflow;
    use deep_hw::NodeModel;
    use deep_simkit::{SimDuration, Simulation};

    fn run(n_tasks: u64, workers: u32) -> RunReport {
        let mut g = TaskGraph::new();
        for i in 0..n_tasks {
            g.add_task(
                "t",
                &[(RegionId(i), Access::InOut)],
                TaskCost::Fixed(SimDuration::micros(10)),
                0,
                None,
            );
        }
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let node = NodeModel::xeon_cluster_node();
        let h = sim.spawn(
            "run",
            async move { run_dataflow(&ctx, g, &node, workers).await },
        );
        sim.run().assert_completed();
        h.try_result().unwrap()
    }

    #[test]
    fn gantt_has_one_row_per_worker_plus_axis() {
        let r = run(16, 4);
        let g = render_gantt(&r, 40);
        assert_eq!(g.lines().count(), 5);
        for (w, line) in g.lines().take(4).enumerate() {
            assert!(line.starts_with(&format!("w{w}")));
        }
    }

    #[test]
    fn saturated_schedule_renders_full_blocks() {
        // 16 equal tasks on 4 workers: perfectly packed.
        let r = run(16, 4);
        let g = render_gantt(&r, 16);
        let full = g.chars().filter(|&c| c == '█').count();
        assert!(full >= 56, "mostly saturated: {full} full cells\n{g}");
        assert!((occupancy(&r) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn idle_workers_render_empty() {
        // 1 task, 4 workers: three rows are idle.
        let r = run(1, 4);
        let g = render_gantt(&r, 10);
        let idle_rows = g
            .lines()
            .take(4)
            .filter(|l| l.chars().all(|c| !"█▓▒░".contains(c)))
            .count();
        assert_eq!(idle_rows, 3);
        assert!((occupancy(&r) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_is_handled() {
        let r = run(0, 2);
        assert_eq!(render_gantt(&r, 10), "(empty trace)\n");
        assert_eq!(occupancy(&r), 0.0);
    }
}
