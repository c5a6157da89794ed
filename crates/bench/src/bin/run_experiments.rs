//! Drive the full experiment suite in one process.
//!
//! Replaces the EXPERIMENTS.md shell loop (which silently skipped
//! binaries once): the registry in `deep_bench::experiments` is the
//! single source of truth, experiments fan out across the rayon pool —
//! each rendering into its own buffer, printed in registry order — and
//! any panic fails the whole run with a non-zero exit.
//!
//! ```text
//! run_experiments [--list] [--only a,b,c] [--quiet]
//! ```
//!
//! * `--list`      — print registry names and exit.
//! * `--only`      — run a comma-separated subset (unknown names fail).
//! * `--quiet`     — suppress experiment output, keep the timing table.
//!
//! Experiment *outputs* are deterministic at any `RAYON_NUM_THREADS`
//! (see DESIGN.md on the parallel determinism model) and are all that
//! goes to stdout, so `--only X` prints exactly `docs/experiments/X.md`.
//! The wall-clock table is measurement, not simulation, varies run to
//! run, and goes to stderr. Experiments share the cores, so
//! per-experiment times under contention can exceed their solo cost —
//! the suite total is the honest number.

use std::panic::{catch_unwind, AssertUnwindSafe};

use deep_bench::experiments::{self, Experiment};
use deep_core::Table;
use rayon::prelude::*;

struct Outcome {
    name: &'static str,
    /// Rendered output, or the panic message.
    result: Result<String, String>,
    seconds: f64,
}

fn run_one(e: &Experiment) -> Outcome {
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "times the run for the stderr SUITE table; never reaches the experiment"
    )]
    let t0 = std::time::Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut out = String::new();
        (e.run)(&mut out);
        out
    }))
    .map_err(|payload| experiments::panic_message(&*payload).to_string());
    Outcome {
        name: e.name,
        result,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

fn usage() -> ! {
    eprintln!("usage: run_experiments [--list] [--only a,b,c] [--quiet]");
    std::process::exit(2);
}

fn main() {
    let mut only: Option<Vec<String>> = None;
    let mut quiet = false;
    #[expect(
        clippy::disallowed_methods,
        reason = "the driver owns the command line; experiments take no arguments"
    )]
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                for e in experiments::ALL {
                    println!("{}", e.name);
                }
                return;
            }
            "--only" => {
                let names = args.next().unwrap_or_else(|| usage());
                only = Some(names.split(',').map(str::to_string).collect());
            }
            "--quiet" => quiet = true,
            _ => usage(),
        }
    }

    let selected: Vec<&Experiment> = match &only {
        None => experiments::ALL.iter().collect(),
        Some(names) => names
            .iter()
            .map(|n| {
                experiments::find(n).unwrap_or_else(|| {
                    eprintln!("unknown experiment: {n} (see --list)");
                    std::process::exit(2);
                })
            })
            .collect(),
    };

    // Execution order is heaviest-first (LPT list scheduling on the
    // registry's static weights) and every experiment is its own chunk
    // (`with_max_len(1)`), so the expensive experiments are in flight
    // from t=0 and claimed one at a time instead of queueing behind a
    // chunk-mate or starting last and becoming the suite's Amdahl tail.
    // Output stays in registry order: results scatter back into
    // registry-indexed slots below.
    let mut order: Vec<usize> = (0..selected.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(selected[i].weight));
    let threads = rayon::current_num_threads();
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "suite wall for the stderr SUITE table; never reaches an experiment"
    )]
    let t0 = std::time::Instant::now();
    let by_order: Vec<Outcome> = order
        .par_iter()
        .with_max_len(1)
        .map(|&i| run_one(selected[i]))
        .collect();
    let suite_wall = t0.elapsed().as_secs_f64();
    let mut slots: Vec<Option<Outcome>> = (0..selected.len()).map(|_| None).collect();
    for (k, outcome) in by_order.into_iter().enumerate() {
        slots[order[k]] = Some(outcome);
    }
    let outcomes: Vec<Outcome> = slots
        .into_iter()
        .map(|s| s.expect("every slot ran"))
        .collect();

    // Buffers print in registry order, regardless of completion order.
    let mut failures = 0usize;
    for o in &outcomes {
        match &o.result {
            Ok(out) => {
                if !quiet {
                    print!("{out}");
                }
            }
            Err(msg) => {
                failures += 1;
                println!("!! {} FAILED: {msg}\n", o.name);
            }
        }
    }

    let mut t = Table::new(
        "SUITE",
        &format!("per-experiment wall clock ({threads} threads)"),
        &["experiment", "seconds", "status"],
    );
    for o in &outcomes {
        t.row(&[
            o.name.to_string(),
            format!("{:.3}", o.seconds),
            if o.result.is_ok() { "ok" } else { "FAILED" }.to_string(),
        ]);
    }
    t.row(&[
        "TOTAL (suite wall)".to_string(),
        format!("{suite_wall:.3}"),
        format!("{}/{} ok", outcomes.len() - failures, outcomes.len()),
    ]);
    eprintln!("{}", t.to_markdown());

    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}
