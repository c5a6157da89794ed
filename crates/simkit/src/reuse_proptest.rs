//! Slot reuse must be invisible. Random programs — nested spawns, joins,
//! sleeps on both timer structures, `race`, `timeout`, `OneShot`s and
//! channels, whose abandoned waits leave stale ids behind — run once on
//! the kernel as shipped and once on the never-reusing reference
//! ([`Simulation::new_never_reusing`]), and must agree on everything
//! observable: outcome (deadlock names included), typed trace, poll
//! count, final time, every handle's result.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use proptest::prelude::*;

use crate::{
    channel, OneShot, ProcHandle, Receiver, RunOutcome, Sender, Sim, SimDuration, SimTime,
    Simulation, TraceEvent,
};

const EVENTS: u64 = 3;
const CHANNELS: u64 = 2;

#[derive(Debug, Clone)]
enum Op {
    Sleep(u64),
    /// Spawn a child and let it run on its own.
    Spawn(Vec<Op>),
    /// Spawn a child and await its handle.
    Join(Vec<Op>),
    /// Run the ops inline, racing a sleep.
    Race(u64, Vec<Op>),
    /// Run the ops inline under a deadline.
    Timeout(u64, Vec<Op>),
    Set(u64),
    /// Wait for an event, forever if the deadline is `None`.
    Wait(u64, Option<u64>),
    Send(u64),
    Recv(u64, Option<u64>),
}

/// Strategy for a root process's ops.
struct Program;

impl Strategy for Program {
    type Value = Vec<Op>;

    fn sample(&self, rng: &mut TestRng) -> Vec<Op> {
        ops(rng, 0)
    }
}

fn ops(rng: &mut TestRng, depth: u32) -> Vec<Op> {
    let n = if depth == 0 {
        6 + rng.below(9)
    } else {
        1 + rng.below(4)
    };
    (0..n).map(|_| op(rng, depth)).collect()
}

/// Delays on both sides of the 1 024 ns wheel horizon, with collisions.
fn delay(rng: &mut TestRng) -> u64 {
    [0, 1, 3, 40, 700, 1_500, 20_000][rng.below(7) as usize]
}

fn deadline(rng: &mut TestRng) -> Option<u64> {
    (rng.below(8) != 0).then(|| delay(rng))
}

/// Nesting stops at depth 3; about half of the ops above it spawn.
fn op(rng: &mut TestRng, depth: u32) -> Op {
    match rng.below(if depth < 3 { 14 } else { 6 }) {
        0 | 1 => Op::Sleep(delay(rng)),
        2 => Op::Set(rng.below(EVENTS)),
        3 => Op::Wait(rng.below(EVENTS), deadline(rng)),
        4 => Op::Send(rng.below(CHANNELS)),
        5 => Op::Recv(rng.below(CHANNELS), deadline(rng)),
        6..=8 => Op::Spawn(ops(rng, depth + 1)),
        9..=11 => Op::Join(ops(rng, depth + 1)),
        12 => Op::Race(delay(rng), ops(rng, depth + 1)),
        _ => Op::Timeout(delay(rng), ops(rng, depth + 1)),
    }
}

/// What the processes of one run share.
struct World {
    sim: Sim,
    events: Vec<OneShot<u64>>,
    channels: Vec<(Sender<u64>, Receiver<u64>)>,
    /// Processes spawned so far.
    spawned: Cell<u32>,
    /// The handles whose results are compared at the end.
    detached: RefCell<Vec<ProcHandle<u64>>>,
}

type OpsFuture = Pin<Box<dyn Future<Output = u64>>>;

impl World {
    /// Spawn `body` as the next process, cycling through every spawn
    /// entry point and name kind.
    fn spawn(self: &Rc<Self>, body: Vec<Op>) -> ProcHandle<u64> {
        let n = self.spawned.get();
        self.spawned.set(n + 1);
        let fut = run_ops(self.clone(), format!("p{n}"), body);
        match n % 3 {
            0 => self.sim.spawn(format!("owned-{n}"), fut),
            1 => self.sim.spawn_fmt(format_args!("formatted-{n}"), fut),
            _ => self.sim.spawn_fmt(format_args!("literal"), fut),
        }
    }
}

/// Interpret `ops` as process (or inline future) `me`, tracing every
/// step with what it observed; the return value folds those in too.
fn run_ops(w: Rc<World>, me: String, ops: Vec<Op>) -> OpsFuture {
    Box::pin(async move {
        let mut acc = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            let ns = SimDuration::nanos;
            let seen: u64 = match op {
                Op::Sleep(d) => {
                    w.sim.sleep(ns(d)).await;
                    0
                }
                Op::Spawn(body) => {
                    let h = w.spawn(body);
                    w.detached.borrow_mut().push(h);
                    0
                }
                Op::Join(body) => w.spawn(body).await + 2,
                Op::Race(d, body) => {
                    let inline = run_ops(w.clone(), format!("{me}.{i}r"), body);
                    let r = w.sim.race(inline, w.sim.sleep(ns(d))).await;
                    r.left().map_or(1, |v| v + 2)
                }
                Op::Timeout(d, body) => {
                    let inline = run_ops(w.clone(), format!("{me}.{i}t"), body);
                    w.sim.timeout(ns(d), inline).await.map_or(1, |v| v + 2)
                }
                Op::Set(k) => {
                    let ev = &w.events[k as usize];
                    if ev.is_set() {
                        1
                    } else {
                        ev.set(acc);
                        0
                    }
                }
                Op::Wait(k, None) => w.events[k as usize].wait().await + 2,
                Op::Wait(k, Some(d)) => w
                    .sim
                    .timeout(ns(d), w.events[k as usize].wait())
                    .await
                    .map_or(1, |v| v + 2),
                Op::Send(k) => {
                    let sent = w.channels[k as usize].0.send(acc).await;
                    u64::from(sent.is_ok())
                }
                Op::Recv(k, None) => w.channels[k as usize].1.recv().await.map_or(1, |v| v + 2),
                Op::Recv(k, Some(d)) => w
                    .sim
                    .timeout(ns(d), w.channels[k as usize].1.recv())
                    .await
                    .map_or(0, |r| r.map_or(1, |v| v + 2)),
            };
            acc = acc.wrapping_mul(31).wrapping_add(seen);
            w.sim.emit("op", "done", || format!("{me}#{i} saw {seen}"));
        }
        acc
    })
}

/// Everything a run lets an observer see, plus the table length.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    trace: Vec<TraceEvent>,
    polls: u64,
    end: SimTime,
    /// Per detached handle, in spawn order: finished?, result.
    results: Vec<(bool, Option<u64>)>,
}

fn observe(mut sim: Simulation, program: &[Op]) -> (Observed, usize, usize) {
    sim.enable_tracing();
    let ctx = sim.handle();
    let world = Rc::new(World {
        events: (0..EVENTS).map(|_| OneShot::new(&ctx)).collect(),
        channels: (0..CHANNELS).map(|_| channel(&ctx)).collect(),
        sim: ctx,
        spawned: Cell::default(),
        detached: RefCell::default(),
    });
    let root = world.spawn(program.to_vec());
    world.detached.borrow_mut().push(root);
    let outcome = sim.run();
    let results = world
        .detached
        .borrow()
        .iter()
        .map(|h| (h.is_finished(), h.try_result()))
        .collect();
    let observed = Observed {
        outcome,
        trace: sim.take_events(),
        polls: sim.events_processed(),
        end: sim.now(),
        results,
    };
    let spawned = world.spawned.get() as usize;
    (observed, sim.process_slots(), spawned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reusing_kernel_is_indistinguishable_from_the_never_reusing_one(
        seed in 0u64..4,
        program in Program,
    ) {
        let (reusing, slots, spawned) = observe(Simulation::new(seed), &program);
        let (reference, dense_slots, _) = observe(Simulation::new_never_reusing(seed), &program);
        prop_assert_eq!(&reusing, &reference, "program {:?}", program);
        prop_assert_eq!(dense_slots, spawned, "the reference never reuses a slot");
        prop_assert!(slots <= spawned);
    }
}
