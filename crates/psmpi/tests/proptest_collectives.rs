//! Property-based tests: every collective must compute exactly what a
//! sequential reference computes, for arbitrary group sizes, roots and
//! payloads — and must book exactly the same messages at the same
//! simulated times whether it carries that payload or only its size.

use std::future::Future;
use std::rc::Rc;

use deep_psmpi::{launch_world, EpId, IdealWire, MpiCtx, MpiParams, ReduceOp, Universe, Value};
use deep_simkit::{SimDuration, Simulation};
use proptest::prelude::*;

fn run_ranks<T: 'static, Fut: Future<Output = T> + 'static>(
    n: u32,
    f: impl Fn(MpiCtx) -> Fut + 'static,
) -> Vec<T> {
    run_ranks_with(n, MpiParams::default(), f).0
}

/// Simulated end time in ns, then `Universe::traffic()`'s messages, bytes
/// and rendezvous handshakes.
type Cost = [u64; 4];

/// Per-rank results and what the run cost.
fn run_ranks_with<T: 'static, Fut: Future<Output = T> + 'static>(
    n: u32,
    params: MpiParams,
    f: impl Fn(MpiCtx) -> Fut + 'static,
) -> (Vec<T>, Cost) {
    let mut sim = Simulation::new(9);
    let ctx = sim.handle();
    let wire = Rc::new(IdealWire::new(&ctx, SimDuration::micros(1), 5e9));
    let uni = Universe::new(&ctx, wire, n as usize, params);
    let ranks = launch_world(&uni, "t", (0..n).map(EpId).collect(), f);
    sim.run().assert_completed();
    let out = ranks.iter().map(|h| h.try_result().unwrap()).collect();
    let t = uni.traffic();
    let cost = [sim.now().as_nanos(), t.messages, t.bytes, t.rendezvous];
    (out, cost)
}

/// The collectives whose timing must depend on `bytes` alone.
#[derive(Debug, Clone, Copy)]
enum Collective {
    /// Adaptive allreduce, ring disabled: recursive doubling for
    /// power-of-two groups, reduce + bcast otherwise.
    AllreduceNoRing,
    /// Adaptive allreduce with the ring threshold at zero: the ring
    /// whenever there is an element per rank, else as above.
    AllreduceRingFirst,
    /// The forced ring entry, which takes a real vector of any length,
    /// against a cost-only contribution routed by the adaptive rule.
    AllreduceRing,
    Reduce,
    Bcast,
    Alltoall,
    Allgather,
}

const COLLECTIVES: [Collective; 7] = [
    Collective::AllreduceNoRing,
    Collective::AllreduceRingFirst,
    Collective::AllreduceRing,
    Collective::Reduce,
    Collective::Bcast,
    Collective::Alltoall,
    Collective::Allgather,
];

/// Run `which` over `n` ranks with `len` doubles per contribution —
/// real vectors, or `Value::Unit` standing for them.
fn cost_of(which: Collective, n: u32, len: usize, content: bool) -> Cost {
    let params = MpiParams {
        allreduce_ring_threshold: match which {
            Collective::AllreduceNoRing => u64::MAX,
            _ => 0,
        },
        ..MpiParams::default()
    };
    let (_, cost) = run_ranks_with(n, params, move |m| async move {
        let world = m.world().clone();
        let bytes = 8 * len as u64;
        let root = n / 2;
        let payload = || {
            if content {
                Value::vec(vec![m.rank() as f64 + 0.25; len])
            } else {
                Value::Unit
            }
        };
        match which {
            Collective::AllreduceNoRing | Collective::AllreduceRingFirst => {
                m.allreduce(&world, ReduceOp::Sum, payload(), bytes).await;
            }
            Collective::AllreduceRing if content => {
                m.allreduce_ring(&world, ReduceOp::Sum, vec![1.5; len])
                    .await;
            }
            Collective::AllreduceRing => {
                m.allreduce(&world, ReduceOp::Sum, Value::Unit, bytes).await;
            }
            Collective::Reduce => {
                m.reduce(&world, root, ReduceOp::Sum, payload(), bytes)
                    .await;
            }
            Collective::Bcast => {
                m.bcast(&world, root, payload(), bytes).await;
            }
            Collective::Alltoall => {
                let blocks = (0..n).map(|_| payload()).collect();
                m.alltoall(&world, blocks, bytes).await;
            }
            Collective::Allgather => {
                m.allgather(&world, payload(), bytes).await;
            }
        }
    });
    cost
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simulated time and traffic depend on the byte count alone: a
    /// collective carrying real vectors and one carrying `Value::Unit`
    /// with the same `bytes` end at the same instant having booked the
    /// same messages. `len` ranges below `n` (too short to split, so the
    /// adaptive allreduce must fall back for both payload kinds alike),
    /// over lengths `n` does not divide, and across the eager/rendezvous
    /// switch at 2048 doubles.
    #[test]
    fn timing_depends_on_bytes_alone(n in 1u32..12, short in 1usize..40, scale in 0usize..3) {
        let len = short + 2030 * scale;
        for which in COLLECTIVES {
            // Below one element per rank the adaptive rule leaves the
            // ring, which only the forced entry would still take.
            if matches!(which, Collective::AllreduceRing) && len < n as usize {
                continue;
            }
            prop_assert_eq!(
                cost_of(which, n, len, true), cost_of(which, n, len, false),
                "{:?} n={} len={}", which, n, len
            );
        }
    }

    /// allreduce(Sum) of random per-rank vectors equals the elementwise sum.
    #[test]
    fn allreduce_matches_reference(
        n in 1u32..12,
        len in 1usize..16,
        seed in 0u64..1000,
    ) {
        let data: Vec<Vec<f64>> = (0..n)
            .map(|r| {
                (0..len)
                    .map(|i| ((seed + r as u64 * 31 + i as u64 * 7) % 1000) as f64 / 10.0)
                    .collect()
            })
            .collect();
        let expect: Vec<f64> = (0..len)
            .map(|i| data.iter().map(|v| v[i]).sum())
            .collect();
        let data2 = data.clone();
        let res = run_ranks(n, move |m| {
            let mine = data2[m.rank() as usize].clone();
            async move {
                let world = m.world().clone();
                m.allreduce(&world, ReduceOp::Sum, Value::vec(mine), 8 * len as u64)
                    .await
            }
        });
        for v in res {
            let got = v.as_vec();
            for (g, e) in got.iter().zip(expect.iter()) {
                prop_assert!((g - e).abs() < 1e-9 * e.abs().max(1.0));
            }
        }
    }

    /// bcast from an arbitrary root delivers the root's exact vector.
    #[test]
    fn bcast_any_root(n in 1u32..12, root_pick in 0u32..12, len in 1usize..16) {
        let root = root_pick % n;
        let res = run_ranks(n, move |m| async move {
            let world = m.world().clone();
            let payload = if m.rank() == root {
                Value::vec((0..len).map(|i| i as f64 + 0.5).collect())
            } else {
                Value::Unit
            };
            m.bcast(&world, root, payload, 8 * len as u64).await
        });
        let expect: Vec<f64> = (0..len).map(|i| i as f64 + 0.5).collect();
        for v in res {
            prop_assert_eq!(v.as_vec(), &expect[..]);
        }
    }

    /// gather at an arbitrary root collects rank-indexed values.
    #[test]
    fn gather_any_root(n in 1u32..12, root_pick in 0u32..12) {
        let root = root_pick % n;
        let res = run_ranks(n, move |m| async move {
            let world = m.world().clone();
            m.gather(&world, root, Value::U64(m.rank() as u64 * 3 + 1), 8).await
        });
        for (r, v) in res.iter().enumerate() {
            if r as u32 == root {
                let vals: Vec<u64> =
                    v.as_ref().unwrap().iter().map(|x| x.as_u64()).collect();
                prop_assert_eq!(vals, (0..n as u64).map(|x| x * 3 + 1).collect::<Vec<_>>());
            } else {
                prop_assert!(v.is_none());
            }
        }
    }

    /// alltoall is an exact transpose for arbitrary group sizes.
    #[test]
    fn alltoall_transposes(n in 1u32..10) {
        let res = run_ranks(n, move |m| async move {
            let world = m.world().clone();
            let blocks = (0..m.size())
                .map(|d| Value::U64((m.rank() as u64) << 16 | d as u64))
                .collect();
            m.alltoall(&world, blocks, 8).await
        });
        for (r, blocks) in res.iter().enumerate() {
            for (s, v) in blocks.iter().enumerate() {
                prop_assert_eq!(v.as_u64(), (s as u64) << 16 | r as u64);
            }
        }
    }

    /// comm_split groups are exact partitions and sub-collectives work.
    #[test]
    fn comm_split_partitions(n in 2u32..12, colors in 1u32..4) {
        let res = run_ranks(n, move |m| async move {
            let world = m.world().clone();
            let color = m.rank() % colors;
            let sub = m.comm_split(&world, color, m.rank()).await;
            let total = m
                .allreduce(&sub, ReduceOp::Sum, Value::U64(1), 8)
                .await
                .as_u64();
            (color, sub.size(), total)
        });
        for (r, &(color, size, total)) in res.iter().enumerate() {
            let expect = (0..n).filter(|x| x % colors == r as u32 % colors).count() as u32;
            prop_assert_eq!(color, r as u32 % colors);
            prop_assert_eq!(size, expect);
            prop_assert_eq!(total as u32, expect, "sub-communicator is isolated");
        }
    }
}
