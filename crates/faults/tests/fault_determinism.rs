//! Determinism under fault injection: the same seed and the same fault
//! plan must produce the *identical* trace — event for event, timestamp
//! for timestamp — across independent runs.

use std::rc::Rc;

use deep_cbp::{CbpFaultStats, CbpWireHandle};
use deep_core::{DeepConfig, DeepMachine};
use deep_faults::{spawn_injector, Domain, FaultEvent, FaultKind, FaultPlan, InjectorTargets};
use deep_psmpi::Wire;
use deep_simkit::{SimDuration, Simulation, TraceEvent};

/// A plan exercising every windowed fault kind: booster link flaps, a
/// cluster NIC that drops everything for a while, a BI outage forcing
/// failover, and a PFS server stall.
fn plan() -> FaultPlan {
    FaultPlan::link_flaps(Domain::Booster, 0.1, 0.5, 0.2, 0.2, 3).merge(FaultPlan::new(vec![
        FaultEvent {
            at: SimDuration::millis(100),
            kind: FaultKind::NicDrop {
                domain: Domain::Cluster,
                node: 1,
                drop_prob: 1.0,
                duration: SimDuration::millis(700),
            },
        },
        FaultEvent {
            at: SimDuration::millis(600),
            kind: FaultKind::BiFail {
                index: 0,
                duration: SimDuration::millis(500),
            },
        },
        FaultEvent {
            at: SimDuration::millis(900),
            kind: FaultKind::PfsStall {
                server: 0,
                bytes: 4 << 20,
            },
        },
    ]))
}

fn run_once(seed: u64) -> (Vec<TraceEvent>, CbpFaultStats, u64) {
    let mut sim = Simulation::new(seed);
    sim.enable_tracing();
    let ctx = sim.handle();
    let machine = DeepMachine::build(&ctx, DeepConfig::small());
    let cbp = machine.cbp().clone();
    let pfs = machine.pfs().clone();
    spawn_injector(
        &ctx,
        plan(),
        InjectorTargets {
            extoll: Some(machine.extoll().clone()),
            ib: Some(cbp.ib().clone()),
            cbp: Some(cbp.clone()),
            pfs: Some(pfs.clone()),
            ..InjectorTargets::default()
        },
    );
    // Cross-bridge traffic riding through the fault windows; failures
    // surface as Err results the senders shrug off.
    let wire = Rc::new(CbpWireHandle(cbp.clone()));
    for i in 0..8u32 {
        let wire = wire.clone();
        let cbp = cbp.clone();
        let ctx2 = ctx.clone();
        sim.spawn(format!("traffic-{i}"), async move {
            ctx2.sleep(SimDuration::millis(150 * u64::from(i))).await;
            let src = cbp.cluster_ep(i % 4);
            let dst = cbp.booster_ep(i % 8);
            let _ = wire.transfer(src, dst, 64 << 10).await;
        });
    }
    sim.run().assert_completed();
    let stalled = pfs.server_device(0).stats().bytes_written;
    (sim.take_events(), cbp.fault_stats(), stalled)
}

#[test]
fn same_seed_and_plan_reproduce_the_trace_exactly() {
    let (t1, s1, b1) = run_once(77);
    let (t2, s2, b2) = run_once(77);
    assert!(!t1.is_empty(), "tracing must have recorded events");
    assert_eq!(t1.len(), t2.len());
    assert_eq!(t1, t2, "trace must be identical event for event");
    assert_eq!(s1, s2, "CBP fault counters must match");
    assert_eq!(b1, b2);
}

#[test]
fn the_plan_actually_bites() {
    let (trace, stats, stalled) = run_once(77);
    // The injector fired every scheduled event...
    let injects = trace
        .iter()
        .filter(|e| (e.component, e.kind) == ("faults", "inject"))
        .count();
    assert_eq!(injects, plan().len());
    // ...the dropping NIC forced CBP retries...
    assert!(stats.retries >= 1, "expected retries, got {stats:?}");
    // ...and the PFS stall burst landed on the server device.
    assert_eq!(stalled, 4 << 20);
}

#[test]
fn different_fault_plans_change_the_trace() {
    let (with_faults, ..) = run_once(77);
    // Same seed, no faults: the machine must behave differently.
    let mut sim = Simulation::new(77);
    sim.enable_tracing();
    let ctx = sim.handle();
    let machine = DeepMachine::build(&ctx, DeepConfig::small());
    let cbp = machine.cbp().clone();
    let wire = Rc::new(CbpWireHandle(cbp.clone()));
    for i in 0..8u32 {
        let wire = wire.clone();
        let cbp = cbp.clone();
        let ctx2 = ctx.clone();
        sim.spawn(format!("traffic-{i}"), async move {
            ctx2.sleep(SimDuration::millis(150 * u64::from(i))).await;
            let src = cbp.cluster_ep(i % 4);
            let dst = cbp.booster_ep(i % 8);
            let _ = wire.transfer(src, dst, 64 << 10).await;
        });
    }
    sim.run().assert_completed();
    let clean = sim.take_events();
    assert_ne!(with_faults, clean);
    assert_eq!(cbp.fault_stats(), CbpFaultStats::default());
}
