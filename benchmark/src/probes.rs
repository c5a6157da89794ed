//! Per-layer probes: short loops that replay a workload's shape against
//! one layer's public API, so a change to that layer shows up as a
//! number with the layer's name on it.
//!
//! Every probe repeats its body until its time budget is spent (at
//! least [`MIN_ITERS`] times) and reports the median iteration, under a
//! span of its layer. `README.md` lists which end-to-end metric each
//! probe should move, and on which workload.

use std::collections::BTreeMap;

use deep_apps::cholesky::{cholesky_graph, spd_matrix, TiledMatrix};
use deep_bench::des_scaling::{A2A_BLOCK, HALO_BYTES};
use deep_core::{mean_multilevel_efficiency, LevelCost, MultiLevelParams};
use deep_fabric::{
    fattree::{ib_fdr_host_spec, ib_fdr_trunk_spec},
    BatchMsg, EndpointOverhead, FatTree, IbFabric, NodeId, Topology,
};
use deep_hw::NodeModel;
use deep_ompss::run_dataflow;
use deep_psmpi::{ReduceOp, Value};
use deep_simkit::{channel, Barrier, SimDuration, SimTime, Simulation};

use crate::clock::{now_ns, secs_since};
use crate::mpi::run_world;
use crate::serve::Daemon;
use crate::stats::median;
use crate::trace;

const MIN_ITERS: usize = 3;
/// Number of `per_op` probes sharing a traced run's budget.
const TIMED_PROBES: f64 = 24.0;

type Layer = BTreeMap<&'static str, f64>;

/// Repeat `body` — which returns how many operations it performed —
/// for `budget_s`, and return the median seconds per operation.
fn per_op(
    layer: &'static str,
    name: &'static str,
    budget_s: f64,
    mut body: impl FnMut() -> u64,
) -> f64 {
    let mut span = trace::span(layer, name);
    let t0 = now_ns();
    let (mut samples, mut total_ops) = (Vec::new(), 0);
    while samples.len() < MIN_ITERS || secs_since(t0) < budget_s {
        let t = now_ns();
        let ops = std::hint::black_box(body()).max(1);
        samples.push(secs_since(t) / ops as f64);
        total_ops += ops;
    }
    span.count(total_ops);
    median(&samples)
}

/// Run every probe, sharing `budget_s` between them, into `out`.
pub fn run_all(budget_s: f64, smoke: bool, out: &mut Layer) {
    let each = (budget_s / TIMED_PROBES).clamp(0.01, 0.5);
    // Sizes: the workloads' own, or toy ones for the harness's tests.
    let big = if smoke { 4_096 } else { 262_144 };
    let mid = if smoke { 256 } else { 4_096 };
    let world = if smoke { 16 } else { 128 };
    simkit(each, out);
    simkit_partitioned(each, big, out);
    fabric(each, big, mid, out);
    psmpi(each, world, smoke, out);
    ompss(each, smoke, out);
    sweeps(each, out);
    front_end(each, out);
    daemon(each, out);
}

/// Seconds one span costs to record, measured on throw-away spans
/// (which this leaves in the recorder for the caller to discard).
pub fn span_cost_s() -> f64 {
    const SPANS: u32 = 10_000;
    let t = now_ns();
    for _ in 0..SPANS {
        drop(trace::span("harness", "noop"));
    }
    secs_since(t) / f64::from(SPANS)
}

fn simkit(each: f64, out: &mut Layer) {
    // Short-horizon timers, as a rank's software overheads are.
    let v = per_op("simkit", "timer_events", each, || {
        let mut sim = Simulation::new(1);
        for i in 0..1000u64 {
            let ctx = sim.handle();
            sim.spawn(format!("p{i}"), async move {
                for k in 0..100u64 {
                    ctx.sleep(SimDuration::nanos(1 + (i * 7 + k) % 97)).await;
                }
            });
        }
        sim.run().assert_completed();
        sim.events_processed()
    });
    out.insert("simkit.timer_event_ns", v * 1e9);

    let v = per_op("simkit", "channel_pingpong", each, || {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let (tx_a, rx_a) = channel::<u64>(&ctx);
        let (tx_b, rx_b) = channel::<u64>(&ctx);
        sim.spawn("ping", async move {
            for i in 0..5_000u64 {
                tx_a.send(i).await.unwrap();
                rx_b.recv().await.unwrap();
            }
        });
        sim.spawn("pong", async move {
            for _ in 0..5_000u64 {
                let v = rx_a.recv().await.unwrap();
                tx_b.send(v).await.unwrap();
            }
        });
        sim.run().assert_completed();
        10_000
    });
    out.insert("simkit.channel_msg_ns", v * 1e9);
}

/// `des_scaling`'s process structure. Kept apart from the probes above:
/// deep-lint treats a function that calls `spawn_in*` as partitioned
/// code, where plain `spawn` would be a finding.
fn simkit_partitioned(each: f64, big: u32, out: &mut Layer) {
    // One process per leaf switch, each in its own partition, meeting
    // at a barrier — `des_scaling`'s process structure (14 565 parties
    // at 262 144 ranks).
    let parties = big.div_ceil(18) + 1;
    let v = per_op("simkit", "spawn_partitioned", each, || {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        for s in 0..parties {
            ctx.spawn_in_fmt(s, format_args!("leaf-{s}"), async {});
        }
        sim.run().assert_completed();
        u64::from(parties)
    });
    out.insert("simkit.spawn_proc_ns", v * 1e9);

    const WAITS: u64 = 8;
    let v = per_op("simkit", "barrier_wait", each, || {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let barrier = Barrier::new(&ctx, parties as usize);
        for s in 0..parties {
            let barrier = barrier.clone();
            ctx.spawn_in_fmt(s, format_args!("leaf-{s}"), async move {
                for _ in 0..WAITS {
                    barrier.wait().await;
                }
            });
        }
        sim.run().assert_completed();
        u64::from(parties) * WAITS
    });
    out.insert("simkit.barrier_wait_ns", v * 1e9);
}

fn fabric(each: f64, big: u32, mid: u32, out: &mut Layer) {
    let sim = Simulation::new(1);
    let ctx = sim.handle();
    let v = per_op("fabric", "IbFabric::new", each, || {
        std::hint::black_box(IbFabric::new(&ctx, big));
        1
    });
    out.insert("fabric.build_262k_ms", v * 1e3);

    // One SpMV iteration's booking as `des_spmv_262k` issues it: two
    // ring-halo directions in per-leaf batches, then the allreduce's
    // recursive-doubling rounds as fabric-wide batches.
    let ib = IbFabric::new(&ctx, big);
    let n = big as usize;
    let (mut msgs, mut done) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut epoch = SimTime::ZERO;
    let v = per_op("fabric", "schedule_batch/spmv", each, || {
        epoch += SimDuration::millis(3);
        let mut booked = 0;
        for dir in [1, n - 1] {
            for lo in (0..n).step_by(18) {
                msgs.clear();
                msgs.extend((lo..(lo + 18).min(n)).map(|r| BatchMsg {
                    src: NodeId(r as u32),
                    dst: NodeId(((r + dir) % n) as u32),
                    bytes: HALO_BYTES,
                    earliest: epoch,
                }));
                ib.network().schedule_batch(&msgs, &mut done);
                booked += msgs.len() as u64;
            }
        }
        for k in 0..big.trailing_zeros() {
            msgs.clear();
            msgs.extend((0..n).map(|r| BatchMsg {
                src: NodeId(r as u32),
                dst: NodeId((r ^ (1 << k)) as u32),
                bytes: 8,
                earliest: epoch + SimDuration::millis(1),
            }));
            ib.network().schedule_batch(&msgs, &mut done);
            booked += n as u64;
        }
        booked
    });
    out.insert("fabric.batch_ring_msg_ns", v * 1e9);
    drop(ib);

    // Pairwise-exchange all-to-all rounds as `des_a2a_4k` issues them;
    // every 16th XOR distance, so near and far partners both appear.
    let ib = IbFabric::new(&ctx, mid);
    let n = mid as usize;
    let mut epoch = SimTime::ZERO;
    let v = per_op("fabric", "schedule_batch/a2a", each, || {
        epoch += SimDuration::millis(50);
        let mut booked = 0;
        for round in (1..n).step_by(16) {
            msgs.clear();
            msgs.extend((0..n).map(|r| BatchMsg {
                src: NodeId(r as u32),
                dst: NodeId((r ^ round) as u32),
                bytes: A2A_BLOCK,
                earliest: epoch,
            }));
            ib.network().schedule_batch(&msgs, &mut done);
            booked += n as u64;
        }
        booked
    });
    out.insert("fabric.batch_a2a_msg_ns", v * 1e9);

    // Awaited transfers, one simulated process each — the call psmpi's
    // wire makes per message in `mpi_rank_1k`.
    let v = per_op("fabric", "Network::transfer", each, || {
        let mut sim = Simulation::new(1);
        let ib = IbFabric::new(&sim.handle(), 1024);
        let overhead = EndpointOverhead {
            send: ib.params().send_overhead,
            recv: ib.params().recv_overhead,
        };
        for i in 0..2048u32 {
            let net = ib.network().clone();
            // src ≠ dst for every i: 36·i + 1 is odd, so never ≡ 0 mod 1024.
            let (src, dst) = (NodeId(i % 1024), NodeId((i * 37 + 1) % 1024));
            sim.spawn(format!("x{i}"), async move {
                net.transfer(src, dst, HALO_BYTES, overhead).await.unwrap();
            });
        }
        sim.run().assert_completed();
        2048
    });
    out.insert("fabric.transfer_msg_ns", v * 1e9);

    let tree = FatTree::new(1024, 18, 18, ib_fdr_host_spec(), ib_fdr_trunk_spec());
    let mut path = Vec::with_capacity(8);
    let mut i = 0u32;
    let v = per_op("fabric", "Topology::route", each, || {
        for _ in 0..10_000 {
            i = i.wrapping_add(911);
            path.clear();
            tree.route(
                NodeId(i % 1024),
                NodeId(i.wrapping_mul(2_654_435_761) % 1024),
                &mut path,
            );
            std::hint::black_box(path.len());
        }
        10_000
    });
    out.insert("fabric.route_ns", v * 1e9);
}

fn psmpi(each: f64, world: u32, smoke: bool, out: &mut Layer) {
    // Cost-only messages through the whole per-message path.
    let v = per_op("psmpi", "sendrecv_ring", each, || {
        run_world(1, world, |m| {
            Box::pin(async move {
                let w = m.world().clone();
                let (right, left) = (
                    (m.rank() + 1) % w.size(),
                    (m.rank() + w.size() - 1) % w.size(),
                );
                for _ in 0..50 {
                    m.sendrecv(&w, right, 7, Value::Unit, HALO_BYTES, Some(left), Some(7))
                        .await;
                }
            })
        })
        .msgs
    });
    out.insert("psmpi.p2p_msg_ns", v * 1e9);

    let v = per_op("psmpi", "allreduce", each, || {
        run_world(1, world, |m| {
            Box::pin(async move {
                let w = m.world().clone();
                for _ in 0..50 {
                    m.allreduce(&w, ReduceOp::Sum, Value::F64(1.0), 8).await;
                }
            })
        })
        .msgs
    });
    out.insert("psmpi.allreduce_msg_ns", v * 1e9);

    let v = per_op("psmpi", "alltoall", each, || {
        run_world(1, world, |m| {
            Box::pin(async move {
                let w = m.world().clone();
                for _ in 0..3 {
                    let blocks = (0..w.size()).map(|_| Value::Unit).collect();
                    m.alltoall(&w, blocks, A2A_BLOCK).await;
                }
            })
        })
        .msgs
    });
    out.insert("psmpi.alltoall_msg_ns", v * 1e9);

    // Launching a world the size of `mpi_rank_1k`'s, ranks idle.
    let ranks = if smoke { 64 } else { 1024 };
    let v = per_op("psmpi", "launch_world", each, || {
        run_world(1, ranks, |_| Box::pin(async {}));
        u64::from(ranks)
    });
    out.insert("psmpi.world_launch_rank_us", v * 1e6);

    // Real payloads: a33's heaviest case, 16 ranks × 8 MB of doubles
    // through the ring allreduce.
    let doubles = if smoke { 4_096 } else { 1 << 20 };
    let mb = 16.0 * 8.0 * doubles as f64 / 1e6;
    let v = per_op("psmpi", "allreduce_ring/payload", each, || {
        run_world(1, 16, move |m| {
            Box::pin(async move {
                let w = m.world().clone();
                m.allreduce_ring(&w, ReduceOp::Sum, vec![f64::from(m.rank()); doubles])
                    .await;
            })
        });
        1
    });
    out.insert("psmpi.ring_payload_mb_s", mb / v);
}

fn ompss(each: f64, smoke: bool, out: &mut Layer) {
    // Tiled Cholesky at the tile counts f23b / f25 use.
    let nt = if smoke { 8 } else { 24 };
    let a = spd_matrix(nt * 8);
    let v = per_op("ompss", "cholesky_graph", each, || {
        let m = TiledMatrix::from_dense(&a, nt, 8);
        cholesky_graph(&m).len() as u64
    });
    out.insert("ompss.graph_build_task_ns", v * 1e9);

    let nt = if smoke { 6 } else { 12 };
    let a = spd_matrix(nt * 16);
    let v = per_op("ompss", "run_dataflow", each, || {
        let graph = cholesky_graph(&TiledMatrix::from_dense(&a, nt, 16));
        let tasks = graph.len() as u64;
        let node = NodeModel::xeon_phi_knc();
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("run", async move {
            run_dataflow(&ctx, graph, &node, 60).await;
        });
        sim.run().assert_completed();
        tasks
    });
    out.insert("ompss.dataflow_task_ns", v * 1e9);
}

/// The Monte-Carlo kernel under every resilience sweep (`f03b`, the
/// daemon's sweep jobs), on one thread and on two.
fn sweeps(each: f64, out: &mut Layer) {
    const REPLICAS: u32 = 64;
    let p = MultiLevelParams {
        work_s: 100_000.0,
        n_nodes: 64,
        mtbf_node_s: 40_000.0,
        interval_s: 10.0,
        levels: [
            LevelCost {
                write_s: 0.5,
                restore_s: 0.5,
            },
            LevelCost {
                write_s: 2.0,
                restore_s: 2.0,
            },
            LevelCost {
                write_s: 8.0,
                restore_s: 6.0,
            },
        ],
        l2_every: 2,
        l3_every: 4,
        restart_s: 30.0,
        severity_weights: [0.6, 0.3, 0.1],
    };
    let pool = |threads| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("a small pool always builds")
    };
    let (one, two) = (pool(1), pool(2));
    let sweep = |name, pool: &rayon::ThreadPool| {
        per_op("core", name, each, || {
            std::hint::black_box(pool.install(|| mean_multilevel_efficiency(&p, 11, REPLICAS)));
            u64::from(REPLICAS)
        })
    };
    let serial = sweep("mc_sweep/1t", &one);
    let parallel = sweep("mc_sweep/2t", &two);
    out.insert("core.mc_replica_us", serial * 1e6);
    out.insert("rayon.par_sweep_speedup_2t", serial / parallel);
}

/// What a cache hit is made of besides the socket: parse, validate,
/// digest — and the smallest scenario evaluation.
fn front_end(each: f64, out: &mut Layer) {
    const SCENARIO: &str = "[scenario]\nname = \"probe\"\nseed = 7\nreplicas = 4\n\n\
        [machine]\npreset = \"small\"\n\n[app]\nskeleton = \"resilience\"\nwork_s = 20000.0\n\
        mtbf_node_s = 250000.0\ncheckpoint_s = 120.0\nrestart_s = 300.0\n\
        intervals = [\"daly/4\", \"daly\", 3600.0]\n\n[[sweep.axes]]\nparam = \"n_nodes\"\nvalues = [64, 256]\n";
    let v = per_op("scenario", "from_toml_str", each, || {
        std::hint::black_box(deep_scenario::Scenario::from_toml_str(SCENARIO).unwrap());
        1
    });
    out.insert("scenario.parse_compile_us", v * 1e6);

    let sc = deep_scenario::Scenario::from_toml_str(SCENARIO).unwrap();
    let v = per_op("scenario", "execute", each, || {
        std::hint::black_box(deep_scenario::execute(&sc));
        1
    });
    out.insert("scenario.execute_small_ms", v * 1e3);

    // A hot-set request body: what the daemon parses on every hit.
    let body = crate::gen::hot_set(1).swap_remove(3);
    let v = per_op("json", "from_str", each, || {
        for _ in 0..100 {
            std::hint::black_box(deep_json::from_str(&body).unwrap());
        }
        100
    });
    out.insert("json.parse_mb_s", body.len() as f64 / 1e6 / v);

    let doc = deep_json::from_str(&body).unwrap();
    let v = per_op("json", "digest", each, || {
        for _ in 0..100 {
            std::hint::black_box(deep_json::digest::digest(&doc));
        }
        100
    });
    out.insert("json.digest_us", v * 1e6);
}

/// The daemon's fixed costs: a round trip that admits a trivial job,
/// and a fresh connection's way to a finished job's first event (the
/// accept loop's idle nap shows here).
fn daemon(each: f64, out: &mut Layer) {
    let d = Daemon::start();
    let mut client = d.connect();
    let mut last_id = 0;
    let v = per_op("serve", "POST /jobs (sleep_ms 0)", each, || {
        let job = client.submit_raw("{\"sleep_ms\":0}").expect("submit");
        if let deep_serve::client::Submitted::Job(job) = job {
            last_id = job["id"].as_u64().unwrap_or(0);
        }
        1
    });
    out.insert("serve.submit_rtt_us", v * 1e6);

    // The job is finished, so its stream is the backlog of events and
    // the end marker: the sample is connect + accept + first bytes.
    let v = per_op("serve", "connect + GET /jobs/:id/events", each, || {
        d.connect()
            .watch_events(last_id, |ev| {
                std::hint::black_box(ev);
            })
            .expect("event stream");
        1
    });
    out.insert("serve.events_first_ms", v * 1e3);
}
