//! `run_scenario`: evaluate a declarative scenario file.
//!
//! ```text
//! run_scenario --scenario FILE [--json] [--check]
//! ```
//!
//! * `--scenario FILE` — the TOML scenario document (required).
//! * `--json`          — print the full result JSON (pretty) to
//!   stdout; the default prints a short human summary.
//! * `--check`         — validate only: print `ok <digest>` and exit
//!   without evaluating (exit 2 on an invalid document).
//!
//! The result is a pure function of the document: byte-identical
//! output at any `RAYON_NUM_THREADS`, and invariant under key
//! reordering or reformatting of the TOML (the digest canonicalizes).
//!
//! Exit codes: 0 ok, 1 runtime error, 2 bad usage or invalid scenario.

use deep_json::object;
use deep_scenario::Scenario;

fn usage() -> ! {
    eprintln!("usage: run_scenario --scenario FILE [--json] [--check]");
    std::process::exit(2);
}

fn main() {
    let mut file: Option<String> = None;
    let mut json = false;
    let mut check = false;
    #[expect(
        clippy::disallowed_methods,
        reason = "the driver owns the command line; the library takes a parsed Scenario"
    )]
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => file = Some(args.next().unwrap_or_else(|| usage())),
            "--json" => json = true,
            "--check" => check = true,
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("run_scenario: cannot read {file}: {e}");
        std::process::exit(1);
    });
    let scenario = Scenario::from_toml_str(&text).unwrap_or_else(|e| {
        eprintln!("run_scenario: {file}: {e}");
        std::process::exit(2);
    });
    let digest = deep_json::digest::digest_hex(&scenario.doc);
    if check {
        println!("ok {digest}");
        return;
    }

    let result = deep_scenario::execute(&scenario);
    if json {
        println!("{}", result.to_json_pretty());
    } else {
        let points = result["sweep"]["points"].as_u64().unwrap_or(0);
        let summary = object([
            ("scenario", scenario.name.as_str().into()),
            ("digest", digest.as_str().into()),
            ("sweep_points", points.into()),
            ("trace", result.get("trace").is_some().into()),
        ]);
        println!("{}", summary.to_json_pretty());
    }
}
