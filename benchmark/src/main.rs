//! `benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]`
//!
//! Runs one workload (or, without `--workload`, all five), checks every
//! output against its reference, prints every metric by name with its
//! unit, and ends with the result line `BENCHMARK.json`'s contract
//! defines. Exits non-zero when any reference is violated.

#![forbid(unsafe_code)]

use deep_benchmark::cli;
use deep_benchmark::driver::{print, Params};
use deep_benchmark::{clock, run, WORKLOADS};

fn main() {
    // First clock read: the epoch every later reading is relative to.
    clock::now_ns();
    let cli = match cli::from_process_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let (nproc, cpu, commit) = clock::host_fingerprint();
    println!(
        "# host: nproc {nproc}, {cpu}, commit {commit}, seed {}",
        cli.seed
    );

    let mut correct = true;
    match &cli.workload {
        Some(w) => {
            let r = run(&cli.params(w));
            correct &= r.correct;
            print(&r, false);
        }
        // Every workload, untraced and then — with `--trace` — traced,
        // from this one process.
        None => {
            for &w in WORKLOADS {
                let modes: &[bool] = if cli.trace { &[false, true] } else { &[false] };
                for &trace in modes {
                    let r = run(&Params {
                        trace,
                        ..cli.params(w)
                    });
                    correct &= r.correct;
                    print(&r, true);
                }
            }
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
