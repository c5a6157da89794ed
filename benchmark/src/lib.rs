//! # deep-benchmark — one benchmark for the whole simulator
//!
//! Five named workloads, timed end to end from outside the crates, a
//! correctness gate on every output, per-layer probes and a traced run.
//! `BENCHMARK.json` at the repository root is the contract; this crate
//! is the instrument. See `benchmark/README.md` for what each workload
//! and metric is for.
//!
//! The harness only *calls* the simulator's public functions; it edits
//! nothing outside `benchmark/`, so every layer is measured as shipped.

#![forbid(unsafe_code)]

pub mod cli;
pub mod clock;
pub mod des;
pub mod driver;
pub mod gen;
pub mod golden;
pub mod mpi;
pub mod probes;
pub mod serve;
pub mod stats;
pub mod suite;
pub mod trace;

use std::path::PathBuf;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "suite",
    "des_spmv_262k",
    "des_a2a_4k",
    "mpi_rank_1k",
    "serve_mix",
];

/// End-to-end metrics `(name, unit)`: what a user of the simulator
/// feels. Every workload reports every one of them; the README's table
/// says what each means per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("cold_p50_ms", "ms"),
    ("hit_p50_us", "us"),
];

/// Per-layer metrics `(name, unit)`; the prefix is the layer (crate).
/// The probe metrics are measured in every traced run; a metric that
/// belongs to another workload's driver reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // -- probes: one layer's public API, replaying a workload's shape --
    ("simkit.timer_event_ns", "ns"),
    ("simkit.channel_msg_ns", "ns"),
    ("simkit.spawn_proc_ns", "ns"),
    ("simkit.barrier_wait_ns", "ns"),
    ("fabric.build_262k_ms", "ms"),
    ("fabric.batch_ring_msg_ns", "ns"),
    ("fabric.batch_a2a_msg_ns", "ns"),
    ("fabric.transfer_msg_ns", "ns"),
    ("fabric.route_ns", "ns"),
    ("psmpi.p2p_msg_ns", "ns"),
    ("psmpi.allreduce_msg_ns", "ns"),
    ("psmpi.alltoall_msg_ns", "ns"),
    ("psmpi.world_launch_rank_us", "us"),
    ("psmpi.ring_payload_mb_s", "MB/s"),
    ("ompss.graph_build_task_ns", "ns"),
    ("ompss.dataflow_task_ns", "ns"),
    ("core.mc_replica_us", "us"),
    ("rayon.par_sweep_speedup_2t", "ratio"),
    ("scenario.parse_compile_us", "us"),
    ("scenario.execute_small_ms", "ms"),
    ("json.parse_mb_s", "MB/s"),
    ("json.digest_us", "us"),
    ("serve.submit_rtt_us", "us"),
    ("serve.events_first_ms", "ms"),
    // -- spans and counts of the workload's own driver --
    ("suite.a33_s", "s"),
    ("suite.f09_s", "s"),
    ("suite.f09b_s", "s"),
    ("suite.f23b_s", "s"),
    ("suite.f25_s", "s"),
    ("suite.f03b_s", "s"),
    ("suite.rest_s", "s"),
    ("suite.top6_share_pct", "%"),
    ("des.msgs", "count"),
    ("des.kernel_events", "count"),
    ("des.ns_per_msg", "ns"),
    ("des.sim_iter_ms", "ms"),
    ("des.model_err_pct", "%"),
    ("des.fabric_build_share_pct", "%"),
    ("des.fabric_batch_share_pct", "%"),
    ("des.simkit_share_pct", "%"),
    ("mpi.msgs", "count"),
    ("mpi.fabric_transfers", "count"),
    ("mpi.kernel_events", "count"),
    ("mpi.ns_per_msg", "ns"),
    ("mpi.sim_iter_ms", "ms"),
    ("mpi.model_err_pct", "%"),
    ("mpi.simkit_share_pct", "%"),
    ("mpi.fabric_share_pct", "%"),
    ("mpi.psmpi_share_pct", "%"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.batched_share", "ratio"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.rejected", "count"),
    ("serve.cold_tail_ms", "ms"),
    ("serve.hit_tail_us", "us"),
    ("serve.cold_jobs", "count"),
    ("serve.hit_jobs", "count"),
    // -- the run itself --
    ("run.reps", "count"),
    ("run.failed_share", "ratio"),
    ("host.cpu_share", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Run the workload `p` names. Panics on a name outside [`WORKLOADS`];
/// the command line is checked against that list before it gets here.
pub fn run(p: &driver::Params) -> driver::RunResult {
    match p.workload.as_str() {
        "suite" => driver::drive::<suite::Suite>(p),
        "des_spmv_262k" | "des_a2a_4k" => driver::drive::<des::Des>(p),
        "mpi_rank_1k" => driver::drive::<mpi::MpiRank>(p),
        "serve_mix" => driver::drive::<serve::ServeMix>(p),
        other => panic!("unknown workload '{other}'"),
    }
}

/// The repository root: `benchmark/` sits directly under it.
pub fn repo_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p
}
