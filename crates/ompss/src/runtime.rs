//! Task-graph execution on simulated workers.
//!
//! Two schedulers, matching experiment F23's comparison:
//!
//! * [`run_dataflow`] — the OmpSs model: a task becomes runnable the
//!   moment its dependences are satisfied; idle workers pull from a FIFO
//!   ready queue. Its worker loop is generic over how a popped task
//!   executes (`TaskExec`), which is all that tells it apart from the
//!   hybrid entry [`crate::offload::run_hybrid_dataflow`].
//! * [`run_fork_join`] — the conventional barrier model: tasks execute
//!   phase by phase (parallel-for within a phase, global barrier between
//!   phases), as a loop-parallel Cholesky would.

use std::cell::RefCell;
use std::rc::Rc;

use deep_hw::{roofline, NodeModel};
use deep_simkit::{channel, join_all, Receiver, Sender, Sim, SimDuration, SimTime};

use crate::graph::{Device, TaskCost, TaskGraph, TaskId};

/// Execution report of one scheduled run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall time from start to last task completion.
    pub makespan: SimDuration,
    /// Tasks executed.
    pub tasks: usize,
    /// Sum of task execution times.
    pub total_work: SimDuration,
    /// Dependence-graph critical path under the same cost model.
    pub critical_path: SimDuration,
    /// Workers used.
    pub workers: u32,
    /// Per-task (start, end, worker) trace, indexed by task id.
    pub trace: Vec<(SimTime, SimTime, u32)>,
}

impl RunReport {
    /// Parallel efficiency: total work / (makespan × workers).
    pub fn efficiency(&self) -> f64 {
        if self.makespan == SimDuration::ZERO {
            return 1.0;
        }
        self.total_work.as_secs_f64() / (self.makespan.as_secs_f64() * self.workers as f64)
    }

    /// Speedup over serial execution of the same work.
    pub fn speedup(&self) -> f64 {
        if self.makespan == SimDuration::ZERO {
            return 1.0;
        }
        self.total_work.as_secs_f64() / self.makespan.as_secs_f64()
    }
}

/// Time one task takes on `node` under its cost model.
pub fn task_time(node: &NodeModel, cost: &TaskCost) -> SimDuration {
    match cost {
        TaskCost::Kernel { profile, cores } => {
            roofline::exec_time(node, profile, (*cores).min(node.cores)).time
        }
        TaskCost::Fixed(d) => *d,
    }
}

/// Ready-queue ordering policy for the dataflow scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// First-come first-served (submission order as dependences resolve).
    Fifo,
    /// Critical-path-first: tasks with the longest remaining dependence
    /// chain run first (classic list scheduling; an ablation of the
    /// Nanos++ priority support).
    CriticalPathFirst,
}

enum WorkerMsg {
    Token,
    Stop,
}

/// Shared ready set honouring the policy.
struct ReadySet {
    policy: SchedPolicy,
    fifo: std::collections::VecDeque<TaskId>,
    heap: std::collections::BinaryHeap<(u64, std::cmp::Reverse<u32>)>,
    /// Bottom levels (ns) for CriticalPathFirst.
    bottom: Vec<u64>,
}

impl ReadySet {
    fn new(policy: SchedPolicy, bottom: Vec<u64>) -> Self {
        ReadySet {
            policy,
            fifo: std::collections::VecDeque::new(),
            heap: std::collections::BinaryHeap::new(),
            bottom,
        }
    }

    fn push(&mut self, t: TaskId) {
        match self.policy {
            SchedPolicy::Fifo => self.fifo.push_back(t),
            SchedPolicy::CriticalPathFirst => self
                .heap
                .push((self.bottom[t.0 as usize], std::cmp::Reverse(t.0))),
        }
    }

    fn pop(&mut self) -> Option<TaskId> {
        match self.policy {
            SchedPolicy::Fifo => self.fifo.pop_front(),
            SchedPolicy::CriticalPathFirst => {
                self.heap.pop().map(|(_, std::cmp::Reverse(i))| TaskId(i))
            }
        }
    }
}

struct ExecState {
    graph: TaskGraph,
    remaining_preds: Vec<u32>,
    completed: usize,
    trace: Vec<(SimTime, SimTime, u32)>,
}

/// How a worker carries out one popped task — the single point where
/// the dataflow entries differ. Monomorphised into the worker loop:
/// no boxed future, no allocation per task.
pub(crate) trait TaskExec {
    /// Spend the task's execution time (the body runs afterwards).
    async fn exec(&self, sim: &Sim, cost: TaskCost, device: Device);
}

/// Every task sleeps its roofline time on the host node, whatever its
/// device annotation.
pub(crate) struct HostExec(pub(crate) NodeModel);

impl TaskExec for HostExec {
    async fn exec(&self, sim: &Sim, cost: TaskCost, _device: Device) {
        sim.sleep(task_time(&self.0, &cost)).await;
    }
}

/// Execute `graph` with dependence-driven (OmpSs) scheduling on
/// `n_workers` cores of `node`, FIFO ready queue. Consumes the graph.
pub async fn run_dataflow(
    sim: &Sim,
    graph: TaskGraph,
    node: &NodeModel,
    n_workers: u32,
) -> RunReport {
    run_dataflow_policy(sim, graph, node, n_workers, SchedPolicy::Fifo).await
}

/// Execute with an explicit ready-queue policy (scheduler ablation).
pub async fn run_dataflow_policy(
    sim: &Sim,
    graph: TaskGraph,
    node: &NodeModel,
    n_workers: u32,
    policy: SchedPolicy,
) -> RunReport {
    dataflow(sim, graph, node, n_workers, policy, HostExec(node.clone())).await
}

/// The one dataflow worker loop: `n_workers` simulated workers pull
/// ready tasks under `policy` and run each through `exec`; `node`
/// prices the work/critical-path summary and the priority levels.
pub(crate) async fn dataflow<E: TaskExec + 'static>(
    sim: &Sim,
    graph: TaskGraph,
    node: &NodeModel,
    n_workers: u32,
    policy: SchedPolicy,
    exec: E,
) -> RunReport {
    assert!(n_workers >= 1);
    let n_tasks = graph.len();
    let total_work = graph.total_work(|t| task_time(node, &graph.tasks[t.0 as usize].cost));
    let critical_path = graph.critical_path(|t| task_time(node, &graph.tasks[t.0 as usize].cost));
    let start = sim.now();
    if n_tasks == 0 {
        return RunReport {
            makespan: SimDuration::ZERO,
            tasks: 0,
            total_work,
            critical_path,
            workers: n_workers,
            trace: Vec::new(),
        };
    }

    let (tx, rx): (Sender<WorkerMsg>, Receiver<WorkerMsg>) = channel(sim);
    let roots = graph.roots();
    // Bottom levels for priority scheduling: longest path (in task time)
    // from each task to a sink, computed in reverse topological order.
    let bottom: Vec<u64> = {
        let order = graph.topo_order();
        let mut bl = vec![0u64; n_tasks];
        for &t in order.iter().rev() {
            let own = task_time(node, &graph.tasks[t.0 as usize].cost).as_nanos();
            let best_succ = graph.tasks[t.0 as usize]
                .successors
                .iter()
                .map(|s| bl[s.0 as usize])
                .max()
                .unwrap_or(0);
            bl[t.0 as usize] = own + best_succ;
        }
        bl
    };
    let ready = Rc::new(RefCell::new(ReadySet::new(policy, bottom)));
    let remaining_preds = graph.tasks.iter().map(|t| t.n_preds).collect();
    let state = Rc::new(RefCell::new(ExecState {
        graph,
        remaining_preds,
        completed: 0,
        trace: vec![(SimTime::ZERO, SimTime::ZERO, 0); n_tasks],
    }));
    for t in roots {
        ready.borrow_mut().push(t);
        tx.try_send(WorkerMsg::Token).ok();
    }

    let exec = Rc::new(exec);
    let mut workers = Vec::with_capacity(n_workers as usize);
    for w in 0..n_workers {
        let rx = rx.clone();
        let tx = tx.clone();
        let state = state.clone();
        let ready = ready.clone();
        let sim2 = sim.clone();
        let exec = exec.clone();
        workers.push(sim.spawn(format!("ompss-worker{w}"), async move {
            while let Ok(msg) = rx.recv().await {
                let t = match msg {
                    WorkerMsg::Token => ready
                        .borrow_mut()
                        .pop()
                        .expect("a token always has a matching ready task"),
                    WorkerMsg::Stop => break,
                };
                let (cost, device, body) = {
                    let mut st = state.borrow_mut();
                    let node_t = &mut st.graph.tasks[t.0 as usize];
                    (node_t.cost, node_t.device, node_t.body.take())
                };
                let t_start = sim2.now();
                exec.exec(&sim2, cost, device).await;
                if let Some(b) = body {
                    b();
                }
                let t_end = sim2.now();
                // Completion: release successors.
                let mut newly_ready = Vec::new();
                let all_done = {
                    let mut st = state.borrow_mut();
                    st.trace[t.0 as usize] = (t_start, t_end, w);
                    st.completed += 1;
                    let succs = st.graph.tasks[t.0 as usize].successors.clone();
                    for s in succs {
                        st.remaining_preds[s.0 as usize] -= 1;
                        if st.remaining_preds[s.0 as usize] == 0 {
                            newly_ready.push(s);
                        }
                    }
                    st.completed == n_tasks
                };
                for s in newly_ready {
                    ready.borrow_mut().push(s);
                    tx.try_send(WorkerMsg::Token).ok();
                }
                if all_done {
                    for _ in 0..n_workers {
                        tx.try_send(WorkerMsg::Stop).ok();
                    }
                }
            }
        }));
    }
    drop(tx);
    drop(rx);
    join_all(workers).await;

    let state = Rc::try_unwrap(state)
        .ok()
        .expect("workers finished")
        .into_inner();
    RunReport {
        makespan: sim.now() - start,
        tasks: n_tasks,
        total_work,
        critical_path,
        workers: n_workers,
        trace: state.trace,
    }
}

/// Execute `graph` with barrier-synchronised phases (the fork-join
/// baseline): all tasks of phase *p* finish before phase *p+1* starts;
/// within a phase, tasks run on the worker pool in submission order.
pub async fn run_fork_join(
    sim: &Sim,
    graph: TaskGraph,
    node: &NodeModel,
    n_workers: u32,
) -> RunReport {
    assert!(n_workers >= 1);
    let node = node.clone();
    let n_tasks = graph.len();
    let total_work = graph.total_work(|t| task_time(&node, &graph.tasks[t.0 as usize].cost));
    let critical_path = graph.critical_path(|t| task_time(&node, &graph.tasks[t.0 as usize].cost));
    let start = sim.now();
    let max_phase = graph.max_phase();
    let mut trace = vec![(SimTime::ZERO, SimTime::ZERO, 0u32); n_tasks];

    let mut tasks = graph.tasks;
    for phase in 0..=max_phase {
        // Collect this phase's tasks in submission order.
        let phase_tasks: Vec<(usize, TaskCost, Option<crate::graph::TaskBody>)> = tasks
            .iter_mut()
            .enumerate()
            .filter(|(_, t)| t.phase == phase)
            .map(|(i, t)| (i, t.cost, t.body.take()))
            .collect();
        if phase_tasks.is_empty() {
            continue;
        }
        // Static round-robin over workers, like a parallel for.
        let mut per_worker: Vec<Vec<(usize, TaskCost, Option<crate::graph::TaskBody>)>> =
            (0..n_workers).map(|_| Vec::new()).collect();
        for (k, item) in phase_tasks.into_iter().enumerate() {
            per_worker[k % n_workers as usize].push(item);
        }
        let mut handles = Vec::new();
        let trace_cell = Rc::new(RefCell::new(std::mem::take(&mut trace)));
        for (w, chunk) in per_worker.into_iter().enumerate() {
            let sim2 = sim.clone();
            let node = node.clone();
            let trace_cell = trace_cell.clone();
            handles.push(sim.spawn(format!("fj-worker{w}"), async move {
                for (i, cost, body) in chunk {
                    let t0 = sim2.now();
                    sim2.sleep(task_time(&node, &cost)).await;
                    if let Some(b) = body {
                        b();
                    }
                    trace_cell.borrow_mut()[i] = (t0, sim2.now(), w as u32);
                }
            }));
        }
        join_all(handles).await; // the barrier
        trace = Rc::try_unwrap(trace_cell).expect("phase done").into_inner();
    }

    RunReport {
        makespan: sim.now() - start,
        tasks: n_tasks,
        total_work,
        critical_path,
        workers: n_workers,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Access, RegionId};
    use deep_simkit::Simulation;

    fn fixed(us: u64) -> TaskCost {
        TaskCost::Fixed(SimDuration::micros(us))
    }

    fn node() -> NodeModel {
        NodeModel::xeon_cluster_node()
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let mut g = TaskGraph::new();
        for i in 0..8 {
            g.add_task("t", &[(RegionId(i), Access::InOut)], fixed(100), 0, None);
        }
        let h = sim.spawn(
            "run",
            async move { run_dataflow(&ctx, g, &node(), 4).await },
        );
        sim.run().assert_completed();
        let r = h.try_result().unwrap();
        // 8 tasks × 100us over 4 workers = 200us.
        assert_eq!(r.makespan, SimDuration::micros(200));
        assert!((r.efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chain_runs_serially_regardless_of_workers() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let mut g = TaskGraph::new();
        for _ in 0..5 {
            g.add_task("c", &[(RegionId(0), Access::InOut)], fixed(100), 0, None);
        }
        let h = sim.spawn(
            "run",
            async move { run_dataflow(&ctx, g, &node(), 8).await },
        );
        sim.run().assert_completed();
        let r = h.try_result().unwrap();
        assert_eq!(r.makespan, SimDuration::micros(500));
        assert_eq!(r.makespan, r.critical_path);
    }

    #[test]
    fn bodies_execute_exactly_once_in_dependence_order() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let mut g = TaskGraph::new();
        for i in 0..4u32 {
            let log = log.clone();
            g.add_task(
                format!("t{i}"),
                &[(RegionId(0), Access::InOut)],
                fixed(10),
                0,
                Some(Box::new(move || log.borrow_mut().push(i))),
            );
        }
        let h = sim.spawn(
            "run",
            async move { run_dataflow(&ctx, g, &node(), 4).await },
        );
        sim.run().assert_completed();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
        assert_eq!(h.try_result().unwrap().tasks, 4);
    }

    #[test]
    fn dataflow_beats_fork_join_on_staggered_dag() {
        // Diamond-ish DAG where phases force idle time: phase p has one
        // long task and many short ones; dataflow lets the next phase's
        // independent tasks start early.
        fn build() -> TaskGraph {
            let mut g = TaskGraph::new();
            for p in 0..4u64 {
                // one long task per phase, chained on region 0
                g.add_task(
                    "long",
                    &[(RegionId(0), Access::InOut)],
                    fixed(400),
                    p as u32,
                    None,
                );
                // short independent tasks chained per their own region
                for i in 1..8u64 {
                    g.add_task(
                        "short",
                        &[(RegionId(i), Access::InOut)],
                        fixed(50),
                        p as u32,
                        None,
                    );
                }
            }
            g
        }
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let h = sim.spawn("run", async move {
            let df = run_dataflow(&ctx, build(), &node(), 4).await;
            let fj = run_fork_join(&ctx, build(), &node(), 4).await;
            (df.makespan, fj.makespan)
        });
        sim.run().assert_completed();
        let (df, fj) = h.try_result().unwrap();
        assert!(
            df < fj,
            "dataflow ({df}) must beat fork-join ({fj}) on staggered DAGs"
        );
    }

    #[test]
    fn fork_join_respects_phase_barriers() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let log: Rc<RefCell<Vec<(u32, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut g = TaskGraph::new();
        for p in 0..3u32 {
            for i in 0..4u64 {
                let log = log.clone();
                let ctx2 = ctx.clone();
                g.add_task(
                    "t",
                    &[(RegionId(100 + i), Access::InOut)],
                    fixed(10 * (i + 1)),
                    p,
                    Some(Box::new(move || {
                        log.borrow_mut().push((p, ctx2.now().as_nanos()))
                    })),
                );
            }
        }
        let h = sim.spawn(
            "run",
            async move { run_fork_join(&ctx, g, &node(), 4).await },
        );
        sim.run().assert_completed();
        let _ = h.try_result().unwrap();
        let l = log.borrow();
        // Every phase-p+1 task body runs at or after all phase-p bodies.
        for &(p1, t1) in l.iter() {
            for &(p2, t2) in l.iter() {
                if p2 > p1 {
                    assert!(t2 >= t1, "phase {p2} at {t2} before phase {p1} at {t1}");
                }
            }
        }
    }

    #[test]
    fn trace_is_complete_and_well_formed() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let mut g = TaskGraph::new();
        for i in 0..6 {
            g.add_task("t", &[(RegionId(i % 2), Access::InOut)], fixed(10), 0, None);
        }
        let h = sim.spawn(
            "run",
            async move { run_dataflow(&ctx, g, &node(), 2).await },
        );
        sim.run().assert_completed();
        let r = h.try_result().unwrap();
        assert_eq!(r.trace.len(), 6);
        for &(s, e, w) in &r.trace {
            assert!(e > s, "every task has positive duration");
            assert!(w < 2);
        }
    }

    #[test]
    fn kernel_cost_uses_roofline() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let mut g = TaskGraph::new();
        let profile = deep_hw::KernelProfile::dgemm(512);
        g.add_task(
            "dgemm",
            &[(RegionId(0), Access::InOut)],
            TaskCost::Kernel { profile, cores: 1 },
            0,
            None,
        );
        let nm = node();
        let expect = roofline::exec_time(&nm, &profile, 1).time;
        let h = sim.spawn("run", async move { run_dataflow(&ctx, g, &nm, 1).await });
        sim.run().assert_completed();
        assert_eq!(h.try_result().unwrap().makespan, expect);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::graph::{Access, RegionId, TaskGraph};
    use deep_simkit::Simulation;

    /// An adversarial DAG: one long dependency chain plus a swarm of
    /// short independent tasks submitted *before* each chain link. FIFO
    /// keeps starving the chain behind the swarm; critical-path-first
    /// runs the chain eagerly.
    fn adversarial() -> TaskGraph {
        let mut g = TaskGraph::new();
        for step in 0..8u64 {
            for i in 0..12u64 {
                g.add_task(
                    "short",
                    &[(RegionId(100 + step * 16 + i), Access::InOut)],
                    TaskCost::Fixed(SimDuration::micros(40)),
                    0,
                    None,
                );
            }
            g.add_task(
                "chain",
                &[(RegionId(0), Access::InOut)],
                TaskCost::Fixed(SimDuration::micros(100)),
                0,
                None,
            );
        }
        g
    }

    fn run_policy(policy: SchedPolicy) -> SimDuration {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let node = NodeModel::xeon_cluster_node();
        let h = sim.spawn("run", async move {
            run_dataflow_policy(&ctx, adversarial(), &node, 4, policy).await
        });
        sim.run().assert_completed();
        h.try_result().unwrap().makespan
    }

    #[test]
    fn critical_path_first_beats_fifo_on_chain_plus_swarm() {
        let fifo = run_policy(SchedPolicy::Fifo);
        let cp = run_policy(SchedPolicy::CriticalPathFirst);
        assert!(
            cp < fifo,
            "critical-path-first ({cp}) must beat FIFO ({fifo}) here"
        );
        // The chain (8 × 100 µs) lower-bounds any schedule.
        assert!(cp >= SimDuration::micros(800));
    }

    #[test]
    fn both_policies_execute_everything_correctly() {
        use std::cell::RefCell;
        use std::rc::Rc;
        for policy in [SchedPolicy::Fifo, SchedPolicy::CriticalPathFirst] {
            let mut sim = Simulation::new(1);
            let ctx = sim.handle();
            let node = NodeModel::xeon_cluster_node();
            let count = Rc::new(RefCell::new(0u32));
            let mut g = TaskGraph::new();
            for i in 0..30u64 {
                let count = count.clone();
                g.add_task(
                    format!("t{i}"),
                    &[(RegionId(i % 5), Access::InOut)],
                    TaskCost::Fixed(SimDuration::micros(i % 7 + 1)),
                    0,
                    Some(Box::new(move || *count.borrow_mut() += 1)),
                );
            }
            let h = sim.spawn("run", async move {
                run_dataflow_policy(&ctx, g, &node, 3, policy).await
            });
            sim.run().assert_completed();
            assert_eq!(h.try_result().unwrap().tasks, 30);
            assert_eq!(*count.borrow(), 30, "{policy:?}");
        }
    }
}
