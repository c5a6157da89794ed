//! `suite`: all 26 registry experiments, one thread — what a
//! researcher runs. Its wall is owned by real `Vec<f64>` payload work
//! in psmpi/apps and by ompss task graphs; kernel events and fabric
//! booking are a small share.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use deep_bench::experiments::{Experiment, ALL};

use crate::clock::{now_ns, secs_since};
use crate::driver::{Outcome, Params, Workload};
use crate::stats::median;
use crate::trace;

/// The experiments that own the suite's wall, and the metric each
/// one's span is reported under.
const NAMED: [(&str, &str); 6] = [
    ("a33_allreduce_algorithms", "suite.a33_s"),
    ("f09_scalability", "suite.f09_s"),
    ("f09b_fft", "suite.f09b_s"),
    ("f23b_dcholesky", "suite.f23b_s"),
    ("f25_offload", "suite.f25_s"),
    ("f03b_resilience", "suite.f03b_s"),
];

/// Registry weight (≈ ms of wall) below which an experiment is "light":
/// the light ones are the smoke-mode suite and the set-up warm-up.
const LIGHT_WEIGHT: u32 = 100;

pub struct Suite {
    pool: rayon::ThreadPool,
    /// Experiments of this run with their reference output.
    cases: Vec<(&'static Experiment, String)>,
    /// Wall seconds per experiment, one sample per pass.
    walls: BTreeMap<&'static str, Vec<f64>>,
}

/// The committed output an experiment must reproduce byte for byte.
fn reference(name: &str) -> String {
    let path = crate::repo_root()
        .join("docs/experiments")
        .join(format!("{name}.md"));
    std::fs::read_to_string(&path).unwrap_or_default()
}

/// `er03_fault_sweep`'s document carries a `regenerate:` trailer after
/// the output; every other document is the output and nothing else.
fn matches_reference(name: &str, output: &str, reference: &str) -> bool {
    if name == "er03_fault_sweep" {
        !output.is_empty() && reference.starts_with(output)
    } else {
        output == reference
    }
}

fn run_one(pool: &rayon::ThreadPool, e: &Experiment) -> Option<String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut out = String::new();
        pool.install(|| (e.run)(&mut out));
        out
    }))
    .ok()
}

impl Workload for Suite {
    const SINGLE_THREADED: bool = true;

    fn setup(p: &Params) -> Suite {
        // Width 1 through the builder, not RAYON_NUM_THREADS: the
        // harness reads no environment.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("a one-thread pool always builds");
        let cases: Vec<_> = ALL
            .iter()
            .filter(|e| !p.smoke || e.weight < LIGHT_WEIGHT)
            .map(|e| (e, reference(e.name)))
            .collect();
        // Warm-up: the light experiments once (≈0.1 s). A full pass
        // costs as much as the whole timed window.
        for (e, _) in cases.iter().filter(|(e, _)| e.weight < LIGHT_WEIGHT) {
            std::hint::black_box(run_one(&pool, e));
        }
        Suite {
            pool,
            cases,
            walls: BTreeMap::new(),
        }
    }

    fn rep(&mut self, out: &mut Outcome) {
        for (e, reference) in &self.cases {
            let t = now_ns();
            let output = {
                let _s = trace::span("bench", e.name);
                run_one(&self.pool, e)
            };
            self.walls.entry(e.name).or_default().push(secs_since(t));
            out.check(match output {
                None => Some(format!("{}: panicked", e.name)),
                Some(o) if !matches_reference(e.name, &o, reference) => Some(format!(
                    "{}: output differs from docs/experiments/{}.md",
                    e.name, e.name
                )),
                Some(_) => None,
            });
        }
    }

    fn finish(self, reps: &[f64], out: &mut Outcome) {
        let pass = median(reps);
        let mut named_total = 0.0;
        for (experiment, metric) in NAMED {
            let s = self.walls.get(experiment).map_or(0.0, |w| median(w));
            named_total += s;
            out.layer.insert(metric, s);
        }
        out.layer
            .insert("suite.rest_s", (pass - named_total).max(0.0));
        out.layer
            .insert("suite.top6_share_pct", 100.0 * named_total / pass);
    }
}
