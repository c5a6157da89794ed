//! Argument parsing — the harness's one read of the process arguments.

use crate::driver::Params;
use crate::WORKLOADS;

/// Default length of the timed window; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// What the command line asked for: one workload, or all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// `None` runs every workload.
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Cli {
    /// The parameters of one workload's run.
    pub fn params(&self, workload: &str) -> Params {
        Params {
            workload: workload.to_string(),
            seed: self.seed,
            seconds: self.seconds,
            trace: self.trace,
            smoke: self.smoke,
        }
    }
}

pub const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] \
[--trace [0|1]] [--smoke]\n  workloads: suite des_spmv_262k des_a2a_4k mpi_rank_1k serve_mix (default: all)";

/// Parse the process arguments.
pub fn from_process_args() -> Result<Cli, String> {
    // deep-lint: allow(ambient-authority) — the harness's single argument-parsing site; values only select workload, seed and window
    parse(std::env::args().skip(1))
}

/// Parse an argument list (without the program name).
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut args = args.into_iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}'"));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            // `--trace 0|1` as the benchmark driver passes it, or bare.
            "--trace" => {
                cli.trace = match args.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_form_and_the_bare_flag() {
        let c = cli(&[
            "--workload",
            "suite",
            "--seed",
            "9",
            "--seconds",
            "5",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("suite"));
        assert_eq!((c.seed, c.seconds, c.trace), (9, 5.0, false));
        assert!(cli(&["--trace", "1"]).unwrap().trace);
        assert!(cli(&["--trace"]).unwrap().trace);
        let c = cli(&["--trace", "--smoke"]).unwrap();
        assert!(c.trace && c.smoke);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }
}
