//! MPI semantics integration tests: point-to-point protocols, matching
//! rules, collectives correctness across group sizes, communicator
//! management, and determinism.

use std::future::Future;
use std::rc::Rc;

use deep_fabric::IbFabric;
use deep_psmpi::{
    launch_world, EpId, IbWire, IdealWire, MpiCtx, MpiParams, ReduceOp, Universe, Value,
};
use deep_simkit::{Sim, SimDuration, Simulation};

/// Run `n` ranks of `f` on an ideal wire; return each rank's result.
fn run_ranks<T: 'static, Fut: Future<Output = T> + 'static>(
    n: u32,
    f: impl Fn(MpiCtx) -> Fut + 'static,
) -> Vec<T> {
    run_ranks_seeded(n, 42, f)
}

fn run_ranks_seeded<T: 'static, Fut: Future<Output = T> + 'static>(
    n: u32,
    seed: u64,
    f: impl Fn(MpiCtx) -> Fut + 'static,
) -> Vec<T> {
    let mut sim = Simulation::new(seed);
    let ctx = sim.handle();
    let wire = Rc::new(IdealWire::new(&ctx, SimDuration::micros(1), 5e9));
    let uni = Universe::new(&ctx, wire, n as usize, MpiParams::default());
    let ranks = launch_world(&uni, "t", (0..n).map(EpId).collect(), f);
    sim.run().assert_completed();
    ranks.iter().map(|h| h.try_result().unwrap()).collect()
}

/// World sizes exercised for every collective: powers of two and not.
const SIZES: [u32; 6] = [1, 2, 3, 4, 7, 16];

#[test]
fn p2p_eager_roundtrip() {
    let res = run_ranks(2, |m| async move {
        let world = m.world().clone();
        if m.rank() == 0 {
            m.send_val(&world, 1, 5, Value::U64(123)).await;
            0
        } else {
            let msg = m.recv(&world, Some(0), Some(5)).await;
            assert_eq!(msg.src, 0);
            assert_eq!(msg.tag, 5);
            msg.value.as_u64()
        }
    });
    assert_eq!(res, vec![0, 123]);
}

#[test]
fn p2p_rendezvous_large_message() {
    // 1 MiB >> eager threshold: rendezvous path.
    let res = run_ranks(2, |m| async move {
        let world = m.world().clone();
        let n = 131_072; // 1 MiB of f64
        if m.rank() == 0 {
            let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t0 = m.sim().now();
            m.send(&world, 1, 1, Value::vec(data), 8 * n as u64).await;
            // Rendezvous: send completes only after the receiver pulled
            // the data, so at least the transfer time elapsed.
            (m.sim().now() - t0).as_nanos() as f64
        } else {
            m.sim().sleep(SimDuration::millis(1)).await; // receiver late
            let msg = m.recv(&world, Some(0), None).await;
            let v = msg.value.as_vec();
            assert_eq!(v.len(), n);
            assert_eq!(v[n - 1], (n - 1) as f64);
            0.0
        }
    });
    // Sender blocked ≥ 1 ms (until the late receiver posted).
    assert!(
        res[0] >= 1_000_000.0,
        "rendezvous send must block: {}",
        res[0]
    );
}

#[test]
fn messages_between_same_pair_do_not_overtake() {
    let res = run_ranks(2, |m| async move {
        let world = m.world().clone();
        if m.rank() == 0 {
            for i in 0..50u64 {
                m.send_val(&world, 1, 9, Value::U64(i)).await;
            }
            Vec::new()
        } else {
            let mut got = Vec::new();
            for _ in 0..50 {
                got.push(m.recv(&world, Some(0), Some(9)).await.value.as_u64());
            }
            got
        }
    });
    assert_eq!(res[1], (0..50).collect::<Vec<_>>());
}

#[test]
fn any_source_any_tag_receive_all() {
    let res = run_ranks(4, |m| async move {
        let world = m.world().clone();
        if m.rank() == 0 {
            let mut sum = 0;
            for _ in 0..3 {
                let msg = m.recv(&world, None, None).await;
                sum += msg.value.as_u64();
            }
            sum
        } else {
            m.send_val(&world, 0, m.rank(), Value::U64(m.rank() as u64 * 10))
                .await;
            0
        }
    });
    assert_eq!(res[0], 10 + 20 + 30);
}

#[test]
fn isend_irecv_overlap() {
    let res = run_ranks(2, |m| async move {
        let world = m.world().clone();
        let peer = 1 - m.rank();
        // Both ranks exchange simultaneously without deadlock.
        let s = m.isend(&world, peer, 3, Value::U64(m.rank() as u64), 8);
        let r = m.irecv(&world, Some(peer), Some(3));
        let msg = r.wait().await;
        s.wait().await;
        msg.value.as_u64()
    });
    assert_eq!(res, vec![1, 0]);
}

#[test]
fn barrier_synchronizes_all_sizes() {
    for n in SIZES {
        let res = run_ranks(n, move |m| async move {
            let world = m.world().clone();
            // Rank r arrives at its own time.
            m.sim()
                .sleep(SimDuration::micros(m.rank() as u64 * 50))
                .await;
            m.barrier(&world).await;
            m.sim().now().as_nanos()
        });
        let latest_arrival = (n as u64 - 1) * 50_000;
        for (r, &t) in res.iter().enumerate() {
            assert!(
                t >= latest_arrival,
                "n={n} rank {r} left the barrier at {t} before the last arrival"
            );
        }
    }
}

#[test]
fn bcast_delivers_root_value() {
    for n in SIZES {
        for root in [0, n - 1] {
            let res = run_ranks(n, move |m| async move {
                let world = m.world().clone();
                let v = if m.rank() == root {
                    Value::vec(vec![3.25, -1.0])
                } else {
                    Value::Unit
                };
                m.bcast(&world, root, v, 16).await
            });
            for v in res {
                assert_eq!(v, Value::vec(vec![3.25, -1.0]), "n={n} root={root}");
            }
        }
    }
}

#[test]
fn reduce_sums_exactly() {
    for n in SIZES {
        let res = run_ranks(n, move |m| async move {
            let world = m.world().clone();
            let contrib = Value::vec(vec![m.rank() as f64, 1.0]);
            m.reduce(&world, 0, ReduceOp::Sum, contrib, 16).await
        });
        let expect = (0..n as u64).sum::<u64>() as f64;
        for (r, v) in res.iter().enumerate() {
            if r == 0 {
                let s = v.as_ref().unwrap().as_vec();
                assert_eq!(s[0], expect, "n={n}");
                assert_eq!(s[1], n as f64);
            } else {
                assert!(v.is_none(), "non-root must get None");
            }
        }
    }
}

#[test]
fn allreduce_all_ops_all_sizes() {
    for n in SIZES {
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
            let res = run_ranks(n, move |m| async move {
                let world = m.world().clone();
                m.allreduce(&world, op, Value::F64(m.rank() as f64 + 1.0), 8)
                    .await
            });
            let expect = match op {
                ReduceOp::Sum => (1..=n as u64).sum::<u64>() as f64,
                ReduceOp::Max => n as f64,
                ReduceOp::Min => 1.0,
                ReduceOp::Prod => unreachable!(),
            };
            for v in &res {
                assert_eq!(v.as_f64(), expect, "n={n} op={op:?}");
            }
        }
    }
}

#[test]
fn gather_collects_in_rank_order() {
    for n in SIZES {
        let res = run_ranks(n, move |m| async move {
            let world = m.world().clone();
            m.gather(&world, 0, Value::U64(m.rank() as u64 * 7), 8)
                .await
        });
        let got = res[0].as_ref().unwrap();
        let vals: Vec<u64> = got.iter().map(|v| v.as_u64()).collect();
        assert_eq!(vals, (0..n as u64).map(|r| r * 7).collect::<Vec<_>>());
    }
}

#[test]
fn scatter_distributes_by_rank() {
    for n in SIZES {
        let res = run_ranks(n, move |m| async move {
            let world = m.world().clone();
            let values = if m.rank() == 0 {
                Some((0..m.size() as u64).map(|r| Value::U64(r * 3)).collect())
            } else {
                None
            };
            m.scatter(&world, 0, values, 8).await.as_u64()
        });
        assert_eq!(res, (0..n as u64).map(|r| r * 3).collect::<Vec<_>>());
    }
}

#[test]
fn allgather_everyone_sees_everything() {
    for n in SIZES {
        let res = run_ranks(n, move |m| async move {
            let world = m.world().clone();
            m.allgather(&world, Value::U64(m.rank() as u64 + 100), 8)
                .await
        });
        for (r, blocks) in res.iter().enumerate() {
            let vals: Vec<u64> = blocks.iter().map(|v| v.as_u64()).collect();
            assert_eq!(
                vals,
                (100..100 + n as u64).collect::<Vec<_>>(),
                "rank {r} n={n}"
            );
        }
    }
}

#[test]
fn alltoall_is_a_transpose() {
    for n in SIZES {
        let res = run_ranks(n, move |m| async move {
            let world = m.world().clone();
            let blocks = (0..m.size())
                .map(|d| Value::U64((m.rank() as u64) * 1000 + d as u64))
                .collect();
            m.alltoall(&world, blocks, 8).await
        });
        for (r, blocks) in res.iter().enumerate() {
            for (s, v) in blocks.iter().enumerate() {
                assert_eq!(
                    v.as_u64(),
                    (s as u64) * 1000 + r as u64,
                    "n={n} rank {r} block {s}"
                );
            }
        }
    }
}

#[test]
fn comm_split_groups_by_color_and_orders_by_key() {
    let res = run_ranks(8, |m| async move {
        let world = m.world().clone();
        let color = m.rank() % 2;
        let key = m.size() - m.rank(); // reverse order within group
        let sub = m.comm_split(&world, color, key).await;
        // Sub-communicator works: sum the *old* ranks within the group.
        let total = m
            .allreduce(&sub, ReduceOp::Sum, Value::U64(m.rank() as u64), 8)
            .await;
        (sub.size(), sub.rank(), total.as_u64())
    });
    for (r, &(size, sub_rank, total)) in res.iter().enumerate() {
        assert_eq!(size, 4);
        let expect_total = if r % 2 == 0 { 2 + 4 + 6 } else { 1 + 3 + 5 + 7 };
        assert_eq!(total, expect_total, "rank {r}");
        // Reverse key ordering: highest old rank gets sub-rank 0.
        let group: Vec<u32> = (0..8u32).filter(|x| x % 2 == r as u32 % 2).collect();
        let pos = group.iter().rev().position(|&x| x == r as u32).unwrap() as u32;
        assert_eq!(sub_rank, pos, "rank {r}");
    }
}

#[test]
fn comm_dup_isolates_traffic() {
    let res = run_ranks(2, |m| async move {
        let world = m.world().clone();
        let dup = m.comm_dup(&world).await;
        if m.rank() == 0 {
            // Same tag, different communicators: matching must keep
            // them apart.
            m.send_val(&world, 1, 5, Value::U64(111)).await;
            m.send_val(&dup, 1, 5, Value::U64(222)).await;
            0
        } else {
            // Receive on dup first — must get the dup message even
            // though the world message arrived earlier.
            let d = m.recv(&dup, Some(0), Some(5)).await.value.as_u64();
            let w = m.recv(&world, Some(0), Some(5)).await.value.as_u64();
            d * 1000 + w
        }
    });
    assert_eq!(res[1], 222 * 1000 + 111);
}

#[test]
fn collectives_work_over_a_real_ib_fabric() {
    let mut sim = Simulation::new(7);
    let ctx: Sim = sim.handle();
    let ib = Rc::new(IbFabric::new(&ctx, 16));
    let wire = Rc::new(IbWire::new(ib));
    let uni = Universe::new(&ctx, wire, 16, MpiParams::default());
    let ranks = launch_world(&uni, "ib", (0..16).map(EpId).collect(), |m| async move {
        let world = m.world().clone();
        m.allreduce(&world, ReduceOp::Sum, Value::F64(1.0), 8 << 10)
            .await
            .as_f64()
    });
    sim.run().assert_completed();
    let results: Vec<f64> = ranks.iter().map(|h| h.try_result().unwrap()).collect();
    assert_eq!(results, vec![16.0; 16]);
}

#[test]
fn identical_seeds_give_identical_timings() {
    fn total_time(seed: u64) -> u64 {
        let mut sim = Simulation::new(seed);
        let ctx = sim.handle();
        let wire = Rc::new(IdealWire::new(&ctx, SimDuration::micros(1), 5e9));
        let uni = Universe::new(&ctx, wire, 8, MpiParams::default());
        launch_world(&uni, "d", (0..8).map(EpId).collect(), |m| async move {
            let world = m.world().clone();
            for _ in 0..5 {
                m.allreduce(&world, ReduceOp::Sum, Value::F64(1.0), 64)
                    .await;
                m.barrier(&world).await;
            }
        });
        sim.run().assert_completed();
        sim.now().as_nanos()
    }
    assert_eq!(total_time(1), total_time(1));
}

#[test]
fn traffic_stats_count_messages_and_bytes() {
    let mut sim = Simulation::new(1);
    let ctx = sim.handle();
    let wire = Rc::new(IdealWire::new(&ctx, SimDuration::micros(1), 5e9));
    let uni = Universe::new(&ctx, wire, 2, MpiParams::default());
    let u2 = uni.clone();
    launch_world(&uni, "s", vec![EpId(0), EpId(1)], move |m| async move {
        let world = m.world().clone();
        if m.rank() == 0 {
            m.send(&world, 1, 0, Value::Unit, 1000).await;
            m.send(&world, 1, 0, Value::Unit, 100_000).await; // rendezvous
        } else {
            m.recv(&world, Some(0), None).await;
            m.recv(&world, Some(0), None).await;
        }
    });
    sim.run().assert_completed();
    let t = u2.traffic();
    assert_eq!(t.messages, 2);
    assert_eq!(t.bytes, 101_000);
    assert_eq!(t.rendezvous, 1);
}

#[test]
fn scan_computes_prefix_sums() {
    for n in SIZES {
        let res = run_ranks(n, move |m| async move {
            let world = m.world().clone();
            m.scan(&world, ReduceOp::Sum, Value::U64(m.rank() as u64 + 1), 8)
                .await
                .as_u64()
        });
        for (r, &v) in res.iter().enumerate() {
            let expect: u64 = (1..=r as u64 + 1).sum();
            assert_eq!(v, expect, "n={n} rank {r}");
        }
    }
}

#[test]
fn reduce_scatter_block_reduces_per_slot() {
    for n in [2u32, 3, 5, 8] {
        let res = run_ranks(n, move |m| async move {
            let world = m.world().clone();
            // Rank r contributes value (r+1)*10 + slot for each slot.
            let contribs = (0..m.size())
                .map(|slot| Value::U64(((m.rank() + 1) * 10 + slot) as u64))
                .collect();
            m.reduce_scatter_block(&world, ReduceOp::Sum, contribs, 8)
                .await
                .as_u64()
        });
        for (slot, &v) in res.iter().enumerate() {
            let expect: u64 = (1..=n as u64).map(|r| r * 10 + slot as u64).sum();
            assert_eq!(v, expect, "n={n} slot {slot}");
        }
    }
}

#[test]
fn ring_allreduce_matches_recursive_doubling() {
    // Same numerical result from both algorithms; ring triggers above the
    // threshold (payload >= 256 KiB = 32768 doubles).
    let len = 40_000usize;
    let res = run_ranks(4, move |m| async move {
        let world = m.world().clone();
        let mine: Vec<f64> = (0..len)
            .map(|i| (m.rank() as f64 + 1.0) * (i % 7) as f64)
            .collect();
        // Large payload → ring path.
        let big = m
            .allreduce(
                &world,
                ReduceOp::Sum,
                Value::vec(mine.clone()),
                8 * len as u64,
            )
            .await;
        // Force the recursive-doubling path by lying about the size.
        let small = m
            .allreduce(&world, ReduceOp::Sum, Value::vec(mine), 64)
            .await;
        let d: f64 = big
            .as_vec()
            .iter()
            .zip(small.as_vec())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        d
    });
    for (r, &d) in res.iter().enumerate() {
        assert!(d < 1e-9, "rank {r}: ring vs rd max diff {d}");
    }
}

#[test]
fn ring_allreduce_uneven_lengths() {
    // Vector length not divisible by the group size.
    let len = 13usize;
    let res = run_ranks(5, move |m| async move {
        let world = m.world().clone();
        let mine: Vec<f64> = (0..len).map(|i| i as f64 + m.rank() as f64).collect();
        m.allreduce_ring(&world, ReduceOp::Sum, mine).await
    });
    // Expected: sum over ranks of (i + r) = 5i + (0+1+2+3+4).
    for v in res {
        let got = v.as_vec();
        assert_eq!(got.len(), len);
        for (i, &x) in got.iter().enumerate() {
            assert_eq!(x, 5.0 * i as f64 + 10.0);
        }
    }
}

#[test]
fn iprobe_sees_without_consuming() {
    let res = run_ranks(2, |m| async move {
        let world = m.world().clone();
        if m.rank() == 0 {
            m.send(&world, 1, 17, Value::U64(5), 100).await;
            0
        } else {
            // Wait until the message has surely arrived.
            m.sim().sleep(SimDuration::millis(1)).await;
            let peeked = m.iprobe(&world, None, None).expect("message queued");
            assert_eq!(peeked, (0, 17, 100));
            // Probe again: still there.
            assert!(m.iprobe(&world, Some(0), Some(17)).is_some());
            assert!(m.iprobe(&world, Some(0), Some(99)).is_none());
            let msg = m.recv(&world, Some(0), Some(17)).await;
            assert!(m.iprobe(&world, None, None).is_none(), "consumed");
            msg.value.as_u64()
        }
    });
    assert_eq!(res[1], 5);
}

#[test]
fn nonblocking_collectives_overlap_with_compute() {
    let res = run_ranks(4, |m| async move {
        let world = m.world().clone();
        let t0 = m.sim().now();
        // Start an allreduce, compute "locally" meanwhile, then wait.
        let req = m.iallreduce(&world, ReduceOp::Sum, Value::F64(1.0), 1 << 20);
        m.sim().sleep(SimDuration::millis(5)).await; // local compute
        let total = req.wait().await.as_f64();
        let elapsed = (m.sim().now() - t0).as_secs_f64();
        (total, elapsed)
    });
    for &(total, elapsed) in &res {
        assert_eq!(total, 4.0);
        // The 1 MiB allreduce (~1 ms of wire time) hid behind the 5 ms of
        // compute: total stays ~5 ms, not ~6.
        assert!(elapsed < 0.0056, "overlap achieved: {elapsed}");
    }
}

#[test]
fn ibarrier_and_ibcast_complete() {
    let res = run_ranks(3, |m| async move {
        let world = m.world().clone();
        let b = m.ibarrier(&world);
        b.wait().await;
        let v = if m.rank() == 1 {
            Value::U64(99)
        } else {
            Value::Unit
        };
        let r = m.ibcast(&world, 1, v, 8);
        r.wait().await.as_u64()
    });
    assert_eq!(res, vec![99, 99, 99]);
}
