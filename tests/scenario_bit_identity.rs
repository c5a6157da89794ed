//! Scenario bit-identity: a DSL file reproducing the registered
//! f03b-resilience configuration must produce efficiencies bitwise
//! equal to the registry path's own maths (`daly_optimum` +
//! `mean_efficiency` with the registry seed/replica configuration),
//! byte-identical JSON at 1 and 4 rayon threads, and a pinned golden
//! digest. The explicit `[[sweep.points]]` form must match direct
//! `mean_efficiency` bitwise at 1 and 4 threads. The serve
//! path is covered by `crates/serve/tests/scenario_jobs.rs` and
//! `crates/serve/tests/e2e.rs` (same `execute` entry point, asserted
//! byte-identical there).

use deep_core::{mean_efficiency, ResilienceParams};
use deep_json::digest::fnv1a_64;
use deep_scenario::{AppSpec, Scenario};
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

/// FNV-1a of the small bit-identity scenario's full result JSON.
/// Captured at 1 thread; any drift in the DSL→experiment compilation,
/// number formatting, or RNG streams breaks this.
const BIT_IDENTITY_GOLDEN: u64 = 0xd2a3_0053_e2cb_fa54;

#[test]
fn dsl_rows_are_bitwise_equal_to_registry_math_at_1_and_4_threads() {
    let sc = fixture("valid_bit_identity_small.toml");
    // The registry path: f03b evaluates mean_efficiency(&p, interval,
    // 7, 8) with intervals daly/4, daly, 24h per node count — recompute
    // it here exactly as crates/bench/src/experiments/f03b_resilience.rs
    // does.
    let mut expect: Vec<(u64, f64, f64)> = Vec::new();
    for &n_nodes in &[640u64, 10_000] {
        let p = ResilienceParams {
            work_s: 100000.0,
            n_nodes,
            mtbf_node_s: 157680000.0,
            checkpoint_s: 240.0,
            restart_s: 600.0,
        };
        let daly = deep_core::daly_optimum(&p);
        for interval in [daly / 4.0, daly, 24.0 * 3600.0] {
            let me = mean_efficiency(&p, interval, 7, 8);
            expect.push((n_nodes, interval, me.efficiency));
        }
    }

    let mut outputs = Vec::new();
    for threads in [1usize, 4] {
        let out = with_pool(threads, || deep_scenario::execute(&sc));
        let rows = out["sweep"]["rows"].as_array().expect("sweep rows").clone();
        assert_eq!(rows.len(), expect.len());
        for (row, (n_nodes, interval, efficiency)) in rows.iter().zip(&expect) {
            assert_eq!(row["n_nodes"].as_u64(), Some(*n_nodes));
            assert_eq!(
                row["interval_s"].as_f64(),
                Some(*interval),
                "interval must be computed bitwise as the registry does"
            );
            assert_eq!(
                row["efficiency"].as_f64(),
                Some(*efficiency),
                "n_nodes={n_nodes} interval={interval}: efficiency diverged from registry math at {threads} threads"
            );
        }
        outputs.push((threads, out.to_json()));
    }
    assert_eq!(
        outputs[0].1, outputs[1].1,
        "scenario JSON must be byte-identical at 1 and 4 threads"
    );
    assert_eq!(
        fnv1a_64(outputs[0].1.as_bytes()),
        BIT_IDENTITY_GOLDEN,
        "scenario result drifted from the pinned golden digest"
    );
}

#[test]
fn f03b_equivalent_fixture_compiles_to_the_registry_configuration() {
    let sc = fixture("valid_f03b_equivalent.toml");
    assert_eq!(sc.seed, 7);
    assert_eq!(sc.replicas, 8);
    let Some(AppSpec::Resilience(app)) = &sc.app else {
        panic!("resilience skeleton expected");
    };
    let points = app.points();
    // The registry experiment's node counts, in order.
    let nodes: Vec<u64> = points.iter().map(|p| p.n_nodes).collect();
    assert_eq!(nodes, vec![640, 10_000, 100_000, 1_000_000]);
    for p in &points {
        assert_eq!(p.work_s, 500_000.0);
        assert_eq!(p.mtbf_node_s, 5.0 * 365.0 * 86_400.0);
        assert_eq!(p.checkpoint_s, 240.0);
        assert_eq!(p.restart_s, 600.0);
    }
    // prototype machine total = 128 CN + 8×8×8 BN = 640 = the
    // registry's base fleet size.
    let cfg = &sc.machine;
    assert_eq!(u64::from(cfg.n_cluster) + u64::from(cfg.n_booster()), 640);
}

/// The `[[sweep.points]]` form `deep-serve` admits a `sweep` body as:
/// each listed case, run once in order, is bitwise the direct
/// `mean_efficiency` of its point and interval, at 1 and 4 threads.
#[test]
fn explicit_points_are_bitwise_equal_to_direct_math_at_1_and_4_threads() {
    let sc = fixture("valid_sweep_points.toml");
    let Some(AppSpec::Resilience(app)) = &sc.app else {
        panic!("resilience skeleton expected");
    };
    let cases = app.cases();
    let nodes: Vec<u64> = cases.iter().map(|(p, _)| p.n_nodes).collect();
    assert_eq!(
        nodes,
        (0..16).map(|i| 50_000 + 10_000 * i).collect::<Vec<_>>()
    );
    let outputs = [1usize, 4].map(|threads| {
        let out = with_pool(threads, || deep_scenario::execute(&sc));
        let rows = out["sweep"]["rows"].as_array().expect("sweep rows");
        assert_eq!(out["sweep"]["points"].as_u64(), Some(16));
        assert_eq!(rows.len(), cases.len());
        for (row, (p, interval_s)) in rows.iter().zip(&cases) {
            assert_eq!(*interval_s, 400.000017);
            let me = mean_efficiency(p, *interval_s, 7, 128);
            assert_eq!(row["n_nodes"].as_u64(), Some(p.n_nodes));
            assert_eq!(
                row["efficiency"].as_f64().map(f64::to_bits),
                Some(me.efficiency.to_bits()),
                "n_nodes={}: efficiency diverged from direct math at {threads} threads",
                p.n_nodes
            );
            assert_eq!(
                row["truncated_runs"].as_u64(),
                Some(u64::from(me.truncated_runs))
            );
        }
        out.to_json()
    });
    assert_eq!(
        outputs[0], outputs[1],
        "scenario JSON must be byte-identical at 1 and 4 threads"
    );
}
