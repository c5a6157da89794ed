//! Trace-replay determinism: the same seed + trace block must produce
//! an identical resmgr utilisation series at any thread width. The
//! replay itself is single-threaded virtual-time simulation; these
//! tests pin that property against accidental parallelism (and against
//! ambient-state leaks) by comparing full result JSON across pools and
//! against a golden digest. Part of the CI determinism matrix
//! (`RAYON_NUM_THREADS` 1 and 4).

use deep_json::digest::fnv1a_64;
use deep_scenario::Scenario;
use rayon::ThreadPoolBuilder;

fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
        .install(f)
}

fn fixture(name: &str) -> Scenario {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/scenario_fixtures/");
    let text = std::fs::read_to_string(format!("{path}{name}")).expect("fixture readable");
    Scenario::from_toml_str(&text).expect("fixture valid")
}

/// FNV-1a of `valid_trace_failures.toml`'s full result JSON (seeded
/// Poisson booster crashes injected into the replay), captured at
/// 1 thread.
const TRACE_FAILURES_GOLDEN: u64 = 0xe9a4_b121_3e57_6a83;

#[test]
fn utilisation_series_is_identical_across_thread_widths() {
    let sc = fixture("valid_trace_failures.toml");
    let mut outputs = Vec::new();
    for threads in [1usize, 2, 8] {
        let out = with_pool(threads, || deep_scenario::execute(&sc));
        let samples = out["trace"]["samples"].as_array().expect("series").len();
        assert!(samples > 0, "series must not be empty");
        outputs.push((threads, out.to_json()));
    }
    for (threads, json) in &outputs {
        assert_eq!(
            json, &outputs[0].1,
            "trace series diverged between 1 and {threads} threads"
        );
        assert_eq!(
            fnv1a_64(json.as_bytes()),
            TRACE_FAILURES_GOLDEN,
            "trace result drifted from the pinned golden at {threads} threads"
        );
    }
}

#[test]
fn injected_failures_reach_the_resource_manager() {
    let sc = fixture("valid_trace_failures.toml");
    let out = deep_scenario::execute(&sc);
    let injected = out["trace"]["bn_faults_injected"].as_u64().unwrap();
    assert!(
        injected > 0,
        "the Poisson plan's horizon covers the replay; crashes must land"
    );
    // The manager records a failure per injection that lands on a
    // live node; injections against already-failed nodes are no-ops.
    let failures = out["trace"]["bn_failures"].as_u64().unwrap();
    assert!(failures > 0 && failures <= injected);
    // Spares replace the first failures (spares = 2 in the fixture).
    let replaced = out["trace"]["bn_replaced"].as_u64().unwrap();
    assert!(replaced <= 2);
}

#[test]
fn backfill_trace_replays_deterministically() {
    let sc = fixture("valid_trace_backfill.toml");
    let a = deep_scenario::execute(&sc).to_json();
    let b = with_pool(3, || deep_scenario::execute(&sc)).to_json();
    assert_eq!(a, b);
}
