//! Property-based tests of the dependence tracker: any dataflow-scheduled
//! execution must be *serialisation-equivalent* — every task observes the
//! same region values it would observe in sequential program order.

use std::cell::RefCell;
use std::rc::Rc;

use deep_hw::NodeModel;
use deep_ompss::{run_dataflow, Access, RegionId, TaskCost, TaskGraph};
use deep_simkit::{SimDuration, Simulation};
use proptest::prelude::*;

/// A randomly generated task: regions it touches and how.
#[derive(Debug, Clone)]
struct RandTask {
    accesses: Vec<(u64, u8)>, // (region, 0=In 1=Out 2=InOut)
    cost_ns: u64,
}

fn rand_task() -> impl Strategy<Value = RandTask> {
    (prop::collection::vec((0u64..6, 0u8..3), 1..4), 1u64..500).prop_map(
        |(mut accesses, cost_ns)| {
            // A task may touch each region only once; dedupe by region.
            accesses.sort_by_key(|a| a.0);
            accesses.dedup_by_key(|a| a.0);
            RandTask { accesses, cost_ns }
        },
    )
}

/// Sequentially execute the access semantics: regions hold the id of
/// their last writer; reads observe that id.
fn sequential_reads(tasks: &[RandTask]) -> Vec<Vec<(u64, i64)>> {
    let mut region_val: std::collections::BTreeMap<u64, i64> = std::collections::BTreeMap::new();
    let mut observed = Vec::with_capacity(tasks.len());
    for (i, t) in tasks.iter().enumerate() {
        let mut mine = Vec::new();
        for &(r, mode) in &t.accesses {
            if mode == 0 || mode == 2 {
                mine.push((r, *region_val.get(&r).unwrap_or(&-1)));
            }
            if mode == 1 || mode == 2 {
                region_val.insert(r, i as i64);
            }
        }
        observed.push(mine);
    }
    observed
}

type Observed = Rc<RefCell<Vec<Vec<(u64, i64)>>>>;

fn build_graph(
    tasks: &[RandTask],
    observed: Observed,
    region_val: Rc<RefCell<std::collections::BTreeMap<u64, i64>>>,
) -> TaskGraph {
    let mut g = TaskGraph::new();
    for (i, t) in tasks.iter().enumerate() {
        let accesses: Vec<(RegionId, Access)> = t
            .accesses
            .iter()
            .map(|&(r, mode)| {
                (
                    RegionId(r),
                    match mode {
                        0 => Access::In,
                        1 => Access::Out,
                        _ => Access::InOut,
                    },
                )
            })
            .collect();
        let observed = observed.clone();
        let region_val = region_val.clone();
        let t2 = t.clone();
        g.add_task(
            format!("t{i}"),
            &accesses,
            TaskCost::Fixed(SimDuration::nanos(t.cost_ns)),
            0,
            Some(Box::new(move || {
                let mut vals = region_val.borrow_mut();
                let mut mine = Vec::new();
                for &(r, mode) in &t2.accesses {
                    if mode == 0 || mode == 2 {
                        mine.push((r, *vals.get(&r).unwrap_or(&-1)));
                    }
                    if mode == 1 || mode == 2 {
                        vals.insert(r, i as i64);
                    }
                }
                observed.borrow_mut()[i] = mine;
            })),
        );
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dataflow execution observes exactly the sequential region values,
    /// for any task mix and any worker count.
    #[test]
    fn dataflow_is_serialisation_equivalent(
        tasks in prop::collection::vec(rand_task(), 1..25),
        workers in 1u32..9,
    ) {
        let expect = sequential_reads(&tasks);
        let observed = Rc::new(RefCell::new(vec![Vec::new(); tasks.len()]));
        let region_val = Rc::new(RefCell::new(std::collections::BTreeMap::new()));
        let g = build_graph(&tasks, observed.clone(), region_val);

        let mut sim = Simulation::new(3);
        let ctx = sim.handle();
        let node = NodeModel::xeon_cluster_node();
        let h = sim.spawn("run", async move {
            run_dataflow(&ctx, g, &node, workers).await
        });
        sim.run().assert_completed();
        let report = h.try_result().unwrap();
        prop_assert_eq!(report.tasks, tasks.len());
        prop_assert_eq!(&*observed.borrow(), &expect);
    }

    /// The graph is always acyclic and the edge count is stable across
    /// identical rebuilds.
    #[test]
    fn graph_construction_is_deterministic(tasks in prop::collection::vec(rand_task(), 1..40)) {
        let mk = || {
            let mut g = TaskGraph::new();
            for (i, t) in tasks.iter().enumerate() {
                let accesses: Vec<(RegionId, Access)> = t
                    .accesses
                    .iter()
                    .map(|&(r, mode)| {
                        (RegionId(r), match mode {
                            0 => Access::In,
                            1 => Access::Out,
                            _ => Access::InOut,
                        })
                    })
                    .collect();
                g.add_task(
                    format!("t{i}"),
                    &accesses,
                    TaskCost::Fixed(SimDuration::nanos(t.cost_ns)),
                    0,
                    None,
                );
            }
            g
        };
        let a = mk();
        let b = mk();
        prop_assert_eq!(a.n_edges(), b.n_edges());
        // topo_order panics on cycles; reaching here proves acyclicity.
        prop_assert_eq!(a.topo_order().len(), tasks.len());
    }

    /// Makespan is bounded below by the critical path and above by the
    /// serial time, for any worker count.
    #[test]
    fn makespan_bounds(
        tasks in prop::collection::vec(rand_task(), 1..25),
        workers in 1u32..9,
    ) {
        let g = {
            let mut g = TaskGraph::new();
            for (i, t) in tasks.iter().enumerate() {
                let accesses: Vec<(RegionId, Access)> = t
                    .accesses
                    .iter()
                    .map(|&(r, mode)| {
                        (RegionId(r), match mode {
                            0 => Access::In,
                            1 => Access::Out,
                            _ => Access::InOut,
                        })
                    })
                    .collect();
                g.add_task(
                    format!("t{i}"),
                    &accesses,
                    TaskCost::Fixed(SimDuration::nanos(t.cost_ns)),
                    0,
                    None,
                );
            }
            g
        };
        let mut sim = Simulation::new(3);
        let ctx = sim.handle();
        let node = NodeModel::xeon_cluster_node();
        let h = sim.spawn("run", async move {
            run_dataflow(&ctx, g, &node, workers).await
        });
        sim.run().assert_completed();
        let r = h.try_result().unwrap();
        prop_assert!(r.makespan >= r.critical_path, "cp {} > makespan {}", r.critical_path, r.makespan);
        prop_assert!(r.makespan <= r.total_work, "makespan above serial time");
    }
}
