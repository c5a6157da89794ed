//! Task graphs with OmpSs-style region dependencies.
//!
//! Slide 23's programming model: tasks declare `input` / `output` /
//! `inout` accesses on data regions; the runtime derives the dependence
//! DAG (RAW, WAR, WAW) and executes tasks out of order as dependences
//! allow — "decouple how we write (think sequential) from how it is
//! executed".

use std::collections::BTreeMap;

use deep_hw::KernelProfile;
use deep_simkit::SimDuration;

/// Identifier of a data region (e.g. one matrix tile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

impl RegionId {
    /// Convenience constructor for 2-D tile grids.
    pub fn tile(i: u64, j: u64) -> RegionId {
        RegionId(i << 32 | j)
    }
}

/// How a task accesses a region (the OmpSs pragma clauses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// `input`: read.
    In,
    /// `output`: write without reading.
    Out,
    /// `inout`: read-modify-write.
    InOut,
}

/// Identifier of a task within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Cost model of a task.
#[derive(Debug, Clone, Copy)]
pub enum TaskCost {
    /// A roofline kernel using `cores` cores of the executing node.
    Kernel {
        /// The work profile.
        profile: KernelProfile,
        /// Cores the task occupies.
        cores: u32,
    },
    /// A fixed duration regardless of hardware.
    Fixed(SimDuration),
}

/// A task body: arbitrary host-side work executed when the task runs
/// (used to verify numerical correctness of e.g. Cholesky).
pub type TaskBody = Box<dyn FnOnce()>;

/// Where a task executes (the OmpSs `device` clause of slides 30-31).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// On the local (cluster-side) worker pool.
    Host,
    /// Offloaded to the booster: ships `in_bytes` before and `out_bytes`
    /// after the kernel, which runs on the booster ranks.
    Booster {
        /// Input bytes shipped per invocation.
        in_bytes: u64,
        /// Output bytes shipped back.
        out_bytes: u64,
    },
}

pub(crate) struct TaskNode {
    pub(crate) name: String,
    pub(crate) cost: TaskCost,
    pub(crate) body: Option<TaskBody>,
    /// Fork-join phase for the barrier-based baseline scheduler.
    pub(crate) phase: u32,
    pub(crate) device: Device,
    pub(crate) successors: Vec<TaskId>,
    pub(crate) n_preds: u32,
}

/// A dependence DAG under construction or execution.
pub struct TaskGraph {
    pub(crate) tasks: Vec<TaskNode>,
    // BTreeMap rather than HashMap: today these are only read by key,
    // but region bookkeeping sits directly upstream of dependence-edge
    // creation — ordered maps make any future iteration deterministic
    // by construction.
    last_writer: BTreeMap<RegionId, TaskId>,
    readers_since_write: BTreeMap<RegionId, Vec<TaskId>>,
    n_edges: usize,
}

impl Default for TaskGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> TaskGraph {
        TaskGraph {
            tasks: Vec::new(),
            last_writer: BTreeMap::new(),
            readers_since_write: BTreeMap::new(),
            n_edges: 0,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if no tasks were added.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of dependence edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Submit a task, deriving its dependences from the access list.
    /// Returns its id. Submission order is the sequential-program order.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        accesses: &[(RegionId, Access)],
        cost: TaskCost,
        phase: u32,
        body: Option<TaskBody>,
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        // Collect predecessor set (deduplicated, deterministic order).
        let mut preds: Vec<TaskId> = Vec::new();
        let push_pred = |preds: &mut Vec<TaskId>, p: TaskId| {
            if p != id && !preds.contains(&p) {
                preds.push(p);
            }
        };
        for &(region, mode) in accesses {
            match mode {
                Access::In => {
                    if let Some(&w) = self.last_writer.get(&region) {
                        push_pred(&mut preds, w); // RAW
                    }
                }
                Access::Out | Access::InOut => {
                    if let Some(&w) = self.last_writer.get(&region) {
                        push_pred(&mut preds, w); // WAW (and RAW for InOut)
                    }
                    if let Some(readers) = self.readers_since_write.get(&region) {
                        for &r in readers {
                            push_pred(&mut preds, r); // WAR
                        }
                    }
                }
            }
        }
        // Update region bookkeeping after computing preds.
        for &(region, mode) in accesses {
            match mode {
                Access::In => {
                    self.readers_since_write.entry(region).or_default().push(id);
                }
                Access::Out | Access::InOut => {
                    self.last_writer.insert(region, id);
                    self.readers_since_write.insert(region, Vec::new());
                }
            }
        }
        self.tasks.push(TaskNode {
            name: name.into(),
            cost,
            body,
            phase,
            device: Device::Host,
            successors: Vec::new(),
            n_preds: preds.len() as u32,
        });
        self.n_edges += preds.len();
        for p in preds {
            self.tasks[p.0 as usize].successors.push(id);
        }
        id
    }

    /// Mark the most recently added task for booster execution (the
    /// OmpSs `device(booster)` clause). Returns `self` for chaining-ish
    /// use right after `add_task`.
    pub fn set_device(&mut self, t: TaskId, device: Device) {
        self.tasks[t.0 as usize].device = device;
    }

    /// The device a task is annotated for.
    pub fn device(&self, t: TaskId) -> Device {
        self.tasks[t.0 as usize].device
    }

    /// Take a task's body for out-of-band execution (tests, tools).
    pub fn take_body(&mut self, t: TaskId) -> Option<TaskBody> {
        self.tasks[t.0 as usize].body.take()
    }

    /// Tasks with no predecessors, in submission order.
    pub fn roots(&self) -> Vec<TaskId> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.n_preds == 0)
            .map(|(i, _)| TaskId(i as u32))
            .collect()
    }

    /// Predecessor count of a task.
    pub fn n_preds(&self, t: TaskId) -> u32 {
        self.tasks[t.0 as usize].n_preds
    }

    /// Successors of a task.
    pub fn successors(&self, t: TaskId) -> &[TaskId] {
        &self.tasks[t.0 as usize].successors
    }

    /// Task name.
    pub fn name(&self, t: TaskId) -> &str {
        &self.tasks[t.0 as usize].name
    }

    /// Highest phase id in the graph.
    pub fn max_phase(&self) -> u32 {
        self.tasks.iter().map(|t| t.phase).max().unwrap_or(0)
    }

    /// A topological order (submission order is always one, because
    /// dependences only point backwards); verifies acyclicity by Kahn's
    /// algorithm and panics if the edge bookkeeping is corrupt.
    pub fn topo_order(&self) -> Vec<TaskId> {
        let mut indeg: Vec<u32> = self.tasks.iter().map(|t| t.n_preds).collect();
        let mut order = Vec::with_capacity(self.tasks.len());
        let mut queue: std::collections::VecDeque<TaskId> = self.roots().into();
        while let Some(t) = queue.pop_front() {
            order.push(t);
            for &s in &self.tasks[t.0 as usize].successors {
                indeg[s.0 as usize] -= 1;
                if indeg[s.0 as usize] == 0 {
                    queue.push_back(s);
                }
            }
        }
        assert_eq!(
            order.len(),
            self.tasks.len(),
            "dependence graph has a cycle"
        );
        order
    }

    /// Critical-path length under a per-task time function.
    pub fn critical_path(&self, exec: impl Fn(TaskId) -> SimDuration) -> SimDuration {
        let order = self.topo_order();
        let mut finish = vec![SimDuration::ZERO; self.tasks.len()];
        let mut best = SimDuration::ZERO;
        for t in order {
            let mut start = SimDuration::ZERO;
            // finish[] of preds is already computed (topological order);
            // scan preds via successors is awkward, so compute forward:
            // start = max over preds' finish — track via incoming relax.
            // We instead relax successors after computing our own finish.
            let own = finish[t.0 as usize].max(start);
            start = own;
            let f = start + exec(t);
            finish[t.0 as usize] = f;
            best = best.max(f);
            for &s in &self.tasks[t.0 as usize].successors {
                finish[s.0 as usize] = finish[s.0 as usize].max(f);
            }
        }
        best
    }

    /// Total work under a per-task time function.
    pub fn total_work(&self, exec: impl Fn(TaskId) -> SimDuration) -> SimDuration {
        (0..self.tasks.len()).map(|i| exec(TaskId(i as u32))).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(us: u64) -> TaskCost {
        TaskCost::Fixed(SimDuration::micros(us))
    }

    #[test]
    fn raw_dependence() {
        let mut g = TaskGraph::new();
        let a = g.add_task("w", &[(RegionId(1), Access::Out)], fixed(1), 0, None);
        let b = g.add_task("r", &[(RegionId(1), Access::In)], fixed(1), 0, None);
        assert_eq!(g.successors(a), &[b]);
        assert_eq!(g.n_preds(b), 1);
        assert_eq!(g.roots(), vec![a]);
    }

    #[test]
    fn war_and_waw_dependences() {
        let mut g = TaskGraph::new();
        let w1 = g.add_task("w1", &[(RegionId(1), Access::Out)], fixed(1), 0, None);
        let r1 = g.add_task("r1", &[(RegionId(1), Access::In)], fixed(1), 0, None);
        let r2 = g.add_task("r2", &[(RegionId(1), Access::In)], fixed(1), 0, None);
        let w2 = g.add_task("w2", &[(RegionId(1), Access::Out)], fixed(1), 0, None);
        // w2 depends on both readers (WAR) and the previous writer (WAW).
        assert_eq!(g.n_preds(w2), 3);
        assert!(g.successors(r1).contains(&w2));
        assert!(g.successors(r2).contains(&w2));
        assert!(g.successors(w1).contains(&w2));
        let _ = (w1, r1, r2);
    }

    #[test]
    fn independent_regions_are_parallel() {
        let mut g = TaskGraph::new();
        for i in 0..10 {
            g.add_task(
                format!("t{i}"),
                &[(RegionId(i), Access::InOut)],
                fixed(1),
                0,
                None,
            );
        }
        assert_eq!(g.roots().len(), 10);
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn readers_between_writes_do_not_chain_to_later_reads() {
        let mut g = TaskGraph::new();
        let w = g.add_task("w", &[(RegionId(1), Access::Out)], fixed(1), 0, None);
        let r1 = g.add_task("r1", &[(RegionId(1), Access::In)], fixed(1), 0, None);
        let r2 = g.add_task("r2", &[(RegionId(1), Access::In)], fixed(1), 0, None);
        // Readers are mutually independent.
        assert!(!g.successors(r1).contains(&r2));
        assert_eq!(g.n_preds(r2), 1);
        let _ = w;
    }

    #[test]
    fn duplicate_accesses_create_one_edge() {
        let mut g = TaskGraph::new();
        let a = g.add_task(
            "a",
            &[(RegionId(1), Access::Out), (RegionId(2), Access::Out)],
            fixed(1),
            0,
            None,
        );
        let b = g.add_task(
            "b",
            &[(RegionId(1), Access::In), (RegionId(2), Access::In)],
            fixed(1),
            0,
            None,
        );
        assert_eq!(g.n_preds(b), 1, "two RAW paths collapse to one edge");
        assert_eq!(g.successors(a), &[b]);
    }

    #[test]
    fn topo_order_is_consistent() {
        let mut g = TaskGraph::new();
        let mut ids = Vec::new();
        for k in 0..4u64 {
            ids.push(g.add_task(
                format!("k{k}"),
                &[(RegionId(k), Access::In), (RegionId(k + 1), Access::InOut)],
                fixed(1),
                k as u32,
                None,
            ));
        }
        let order = g.topo_order();
        assert_eq!(order.len(), 4);
        // Chain: each task before its successor.
        for w in order.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn critical_path_of_chain_equals_total_work() {
        let mut g = TaskGraph::new();
        for _ in 0..5 {
            g.add_task("c", &[(RegionId(0), Access::InOut)], fixed(10), 0, None);
        }
        let exec = |_t: TaskId| SimDuration::micros(10);
        assert_eq!(g.critical_path(exec), SimDuration::micros(50));
        assert_eq!(g.total_work(exec), SimDuration::micros(50));
    }

    #[test]
    fn critical_path_of_independent_tasks_is_one_task() {
        let mut g = TaskGraph::new();
        for i in 0..5 {
            g.add_task("p", &[(RegionId(i), Access::InOut)], fixed(10), 0, None);
        }
        assert_eq!(
            g.critical_path(|_| SimDuration::micros(10)),
            SimDuration::micros(10)
        );
    }
}
