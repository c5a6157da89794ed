//! Trace-equivalence guard for kernel optimisations.
//!
//! The fast-path work on the simkit kernel (interned trace ids, slab
//! process table, lazy timer deletion) must not change *what* the
//! simulator computes — only how fast. These tests pin that down two
//! ways:
//!
//! 1. Same-seed replay: two independent runs of a faulty whole-machine
//!    workload produce bit-identical typed [`TraceEvent`] streams.
//! 2. A golden digest: the FNV-1a hash of the full event stream was
//!    recorded on the pre-optimisation kernel (PR 2 tree) and must stay
//!    byte-for-byte stable. If an engine change alters event content,
//!    ordering, or timestamps, this digest moves and the change is not a
//!    pure optimisation.

use std::rc::Rc;

use deep_cbp::CbpWireHandle;
use deep_core::{DeepConfig, DeepMachine};
use deep_faults::{spawn_injector, Domain, FaultEvent, FaultKind, FaultPlan, InjectorTargets};
use deep_psmpi::Wire;
use deep_simkit::{SimDuration, Simulation, TraceEvent};

/// A plan exercising every windowed fault kind, so the trace contains
/// events from the fabric, the CBP, the injector, and the PFS.
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

fn run_once(seed: u64) -> Vec<TraceEvent> {
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
    sim.take_events()
}

/// FNV-1a over every field of every event, in stream order.
fn digest(events: &[TraceEvent]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for e in events {
        eat(&e.at.as_nanos().to_le_bytes());
        eat(e.component.as_bytes());
        eat(&[0xff]);
        eat(e.kind.as_bytes());
        eat(&[0xff]);
        eat(e.payload.as_bytes());
        eat(&[0xfe]);
    }
    h
}

/// Digest of seed 77 on the pre-optimisation kernel. Four cbp retry
/// payloads name a fat-tree link by id (`LinkId(2)`, host 1's up-link),
/// so renumbering links moves it while every instant and the event
/// order hold. Regenerate (only for semantic or naming changes, never
/// for speed-ups) with:
/// `cargo test -q --test trace_equivalence -- --nocapture print_digest`
const GOLDEN_SEED: u64 = 77;
const GOLDEN_DIGEST: u64 = 0xc44d_aff5_422f_b0aa; // 25 events

#[test]
fn same_seed_replays_bit_identical_event_streams() {
    let a = run_once(GOLDEN_SEED);
    let b = run_once(GOLDEN_SEED);
    assert!(!a.is_empty(), "workload must emit trace events");
    assert_eq!(a, b, "same seed must replay the identical event stream");
}

#[test]
fn optimised_kernel_matches_pre_optimisation_golden_digest() {
    let events = run_once(GOLDEN_SEED);
    let d = digest(&events);
    println!(
        "trace digest(seed {GOLDEN_SEED}) = {d:#018x} over {} events",
        events.len()
    );
    assert_eq!(
        d, GOLDEN_DIGEST,
        "event stream diverged from the pre-optimisation kernel"
    );
}
