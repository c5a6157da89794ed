//! Property-based tests of the simulation kernel's core invariants.

use std::cell::RefCell;
use std::rc::Rc;

use deep_simkit::{Semaphore, SimDuration, Simulation};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Events fire in exact (time, schedule-order) order no matter how
    /// the sleeps are arranged.
    #[test]
    fn timers_fire_in_total_order(delays in prop::collection::vec(0u64..10_000, 1..40)) {
        let mut sim = Simulation::new(1);
        let fired: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &d) in delays.iter().enumerate() {
            let ctx = sim.handle();
            let fired = fired.clone();
            sim.spawn(format!("p{i}"), async move {
                ctx.sleep(SimDuration::nanos(d)).await;
                fired.borrow_mut().push((ctx.now().as_nanos(), i));
            });
        }
        sim.run().assert_completed();
        let log = fired.borrow();
        prop_assert_eq!(log.len(), delays.len());
        // Time never decreases; ties break in spawn order.
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "ties break by schedule order");
            }
        }
    }

    /// Two runs with the same seed produce identical completion times.
    #[test]
    fn reruns_are_bit_identical(seed in 0u64..1000, n in 1usize..20) {
        fn run(seed: u64, n: usize) -> Vec<u64> {
            let mut sim = Simulation::new(seed);
            let mut handles = Vec::new();
            for i in 0..n {
                let ctx = sim.handle();
                handles.push(sim.spawn(format!("p{i}"), async move {
                    let mut rng = ctx.fork_rng(i as u64);
                    for _ in 0..5 {
                        ctx.sleep(SimDuration::nanos(rng.gen_range(1..500))).await;
                    }
                    ctx.now().as_nanos()
                }));
            }
            sim.run().assert_completed();
            handles.into_iter().map(|h| h.try_result().unwrap()).collect()
        }
        prop_assert_eq!(run(seed, n), run(seed, n));
    }

    /// Semaphore never exceeds its capacity and serves strictly FIFO.
    #[test]
    fn semaphore_capacity_and_fifo(
        permits in 1u64..8,
        requests in prop::collection::vec((1u64..4, 1u64..100), 1..30),
    ) {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let sem = Semaphore::new(&ctx, permits);
        let in_use: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
        let peak: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
        let grant_order: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &(want, hold_ns)) in requests.iter().enumerate() {
            let want = want.min(permits);
            let (sem, ctx) = (sem.clone(), ctx.clone());
            let (in_use, peak, order) = (in_use.clone(), peak.clone(), grant_order.clone());
            sim.spawn(format!("u{i}"), async move {
                // Stagger arrival so the queueing order is the index order.
                ctx.sleep(SimDuration::nanos(i as u64)).await;
                let g = sem.acquire_many(want).await;
                order.borrow_mut().push(i);
                {
                    let mut u = in_use.borrow_mut();
                    *u += want;
                    let mut p = peak.borrow_mut();
                    *p = (*p).max(*u);
                }
                ctx.sleep(SimDuration::nanos(hold_ns)).await;
                *in_use.borrow_mut() -= want;
                drop(g);
            });
        }
        sim.run().assert_completed();
        prop_assert!(*peak.borrow() <= permits, "never oversubscribed");
        prop_assert_eq!(grant_order.borrow().len(), requests.len());
    }

    /// Channels deliver every message exactly once, in order per sender.
    #[test]
    fn channels_lose_nothing(n_msgs in 1usize..200, n_senders in 1usize..5) {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let (tx, rx) = deep_simkit::channel::<(usize, usize)>(&ctx);
        for s in 0..n_senders {
            let tx = tx.clone();
            let ctx = ctx.clone();
            sim.spawn(format!("s{s}"), async move {
                for i in 0..n_msgs {
                    tx.send((s, i)).await.unwrap();
                    ctx.sleep(SimDuration::nanos(((s * 7 + i) % 13) as u64)).await;
                }
            });
        }
        drop(tx);
        let got = sim.spawn("rx", async move {
            let mut v = Vec::new();
            while let Ok(m) = rx.recv().await {
                v.push(m);
            }
            v
        });
        sim.run().assert_completed();
        let v = got.try_result().unwrap();
        prop_assert_eq!(v.len(), n_msgs * n_senders);
        // Per-sender order is preserved.
        for s in 0..n_senders {
            let seq: Vec<usize> = v.iter().filter(|(x, _)| *x == s).map(|(_, i)| *i).collect();
            prop_assert_eq!(seq, (0..n_msgs).collect::<Vec<_>>());
        }
    }
}
