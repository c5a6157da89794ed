//! End-to-end self-test of the harness: every workload at toy size,
//! untraced and traced, through the same `drive` the benchmark uses.
//!
//! One test function on purpose: the span recorder and the peak-memory
//! reading are process-wide, so workloads must not run side by side.

use deep_benchmark::driver::{Params, RunResult};
use deep_benchmark::golden::{check_golden, Golden};
use deep_benchmark::{END_TO_END, PER_LAYER, WORKLOADS};

fn run(workload: &str, trace: bool) -> RunResult {
    deep_benchmark::run(&Params {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.2,
        trace,
        smoke: true,
    })
}

fn value(r: &RunResult, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{}: metric {name} missing", r.workload))
        .value
}

#[test]
fn every_workload_runs_checks_and_reports_at_toy_size() {
    for &w in WORKLOADS {
        let r = run(w, false);
        assert!(r.correct, "{w}: {:?}", r.failures);
        assert!(r.attempted >= 1 && r.failed == 0);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names, expected,
            "{w}: untraced runs report the end-to-end metrics"
        );
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{w}: {} = {}",
                m.name,
                m.value
            );
        }

        let t = run(w, true);
        assert!(t.correct, "{w} traced: {:?}", t.failures);
        let names: Vec<&str> = t.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names, expected,
            "{w}: traced runs report the per-layer metrics"
        );
        assert!(t
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value >= 0.0));
        // The probes ran, under spans of their layers.
        assert!(value(&t, "fabric.batch_ring_msg_ns") > 0.0);
        assert!(value(&t, "serve.submit_rtt_us") > 0.0);
        assert!(value(&t, "trace.spans") >= 1.0);
        assert!(t.layer_self.iter().any(|&(_, s)| s > 0.0));
        let trace = deep_benchmark::repo_root().join(format!("benchmark/out/trace-{w}.jsonl"));
        let text = std::fs::read_to_string(&trace).expect("traced run writes its spans");
        let first = deep_json::from_str(text.lines().next().expect("at least one span"))
            .expect("span lines are JSON");
        assert_eq!(first["workload"].as_str(), Some(w));
        assert!(
            text.contains("\"layer\":\"fabric\""),
            "probe spans are written too"
        );
        assert!(first["end_ns"].as_u64() >= first["start_ns"].as_u64());

        // The driver's own counts land under their workload, 0 elsewhere.
        match w {
            "des_a2a_4k" => {
                assert_eq!(value(&t, "des.msgs"), 135_680.0);
                assert_eq!(value(&t, "mpi.msgs"), 0.0);
                assert!(value(&t, "des.fabric_batch_share_pct") > 0.0);
            }
            "serve_mix" => {
                assert!(value(&t, "serve.cold_jobs") >= 1.0 && value(&t, "serve.hit_jobs") >= 1.0);
                assert_eq!(value(&t, "serve.rejected"), 0.0);
                assert_eq!(value(&t, "des.msgs"), 0.0);
            }
            _ => {}
        }
    }
}

#[test]
fn a_violated_golden_is_a_failure_with_the_measured_entry_spelt_out() {
    let wrong = Golden {
        digest: "0x0".to_string(),
        messages: 1,
        kernel_events: 1,
        sim_iter_s: 1.0,
    };
    let why = check_golden("des_a2a_4k@smoke", &wrong).expect("mismatch is reported");
    assert!(why.contains("\"messages\": 1"), "{why}");
    assert!(check_golden("no_such_workload", &wrong).is_some());
}

#[test]
fn benchmark_json_lists_exactly_what_the_harness_reports() {
    let path = deep_benchmark::repo_root().join("BENCHMARK.json");
    let doc = deep_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let pairs = |key: &str, second: &str| -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap_or("").to_string(),
                    m[second].as_str().unwrap_or("").to_string(),
                )
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(pairs("end_to_end", "unit"), table(END_TO_END));
    assert_eq!(pairs("per_layer", "unit"), table(PER_LAYER));
    let workloads: Vec<String> = pairs("workloads", "why")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        doc["run_seconds"].as_f64(),
        Some(deep_benchmark::cli::DEFAULT_SECONDS)
    );
    assert!(pairs("end_to_end", "better")
        .iter()
        .any(|(n, b)| n == "setup_s" && b == "lower"));
}
