//! `deep-submit`: command-line client for a `deep-serve` daemon.
//!
//! ```text
//! deep-submit --addr HOST:PORT [--client NAME] [--retries N]
//!             (--experiment NAME | --sweep-file PATH | --scenario PATH | --sleep-ms N)
//!             [--watch] [--output-only]
//! ```
//!
//! * `--experiment`  — submit a registered experiment by name.
//! * `--sweep-file`  — submit a JSON body verbatim: the one in PATH
//!   (a `sweep` job, or anything else the API accepts).
//! * `--scenario`    — parse the TOML scenario file in PATH and
//!   submit it as a `{"scenario": ...}` job (validated locally first,
//!   so schema errors surface before any network traffic).
//! * `--sleep-ms`    — submit a do-nothing job (ops drills).
//! * `--client`      — fairness bucket (default `anon`).
//! * `--retries`     — 429/503 back-off attempts before giving up
//!   (default 10; honours `Retry-After`).
//! * `--watch`       — stream the job's NDJSON events to stderr while
//!   it runs.
//! * `--output-only` — print just the experiment's rendered output
//!   (byte-identical to the standalone experiment binary), not the
//!   job JSON; for scripted bit-comparison.
//!
//! Exit codes: 0 job done, 1 job failed or daemon unreachable,
//! 2 usage, 3 gave up on backpressure.

use deep_json::{object, Value};
use deep_serve::client::ServeClient;

fn usage() -> ! {
    eprintln!(
        "usage: deep-submit --addr HOST:PORT [--client NAME] [--retries N] \
         (--experiment NAME | --sweep-file PATH | --scenario PATH | --sleep-ms N) \
         [--watch] [--output-only]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("deep-submit: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut client_name = "anon".to_string();
    let mut body: Option<Value> = None;
    let mut watch = false;
    let mut output_only = false;
    let mut retries: u32 = 10;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{arg} needs a {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = Some(next("HOST:PORT")),
            "--client" => client_name = next("NAME"),
            "--retries" => {
                retries = next("count").parse().unwrap_or_else(|_| usage());
            }
            "--experiment" => {
                body = Some(object([("experiment", next("NAME").into())]));
            }
            "--sweep-file" => {
                let path = next("PATH");
                let raw = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
                let json = deep_json::from_str(&raw)
                    .unwrap_or_else(|e| fail(&format!("submission body is not JSON: {e}")));
                body = Some(json);
            }
            "--scenario" => {
                let path = next("PATH");
                let raw = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
                let scenario = deep_scenario::Scenario::from_toml_str(&raw)
                    .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
                body = Some(object([("scenario", scenario.doc)]));
            }
            "--sleep-ms" => {
                let ms: u64 = next("count").parse().unwrap_or_else(|_| usage());
                body = Some(object([("sleep_ms", ms.into())]));
            }
            "--watch" => watch = true,
            "--output-only" => output_only = true,
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let Some(Value::Object(spec)) = body else {
        match body {
            Some(_) => fail("submission body must be a JSON object"),
            None => usage(),
        }
    };
    // Attach the fairness bucket without disturbing the spec members.
    let mut members = vec![("client".to_string(), Value::String(client_name))];
    members.extend(spec.into_iter().filter(|(k, _)| k != "client"));
    let body = Value::Object(members).to_json();

    let mut client = ServeClient::connect(&addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));

    // A job not answered from the cache is followed on a second
    // connection; `--watch` prints what arrives there.
    let job = client
        .submit_and_watch(&body, retries, |ev| {
            if watch {
                eprintln!("{}", ev.to_json());
            }
        })
        .unwrap_or_else(|e| {
            if e.to_string().contains("gave up") {
                eprintln!("deep-submit: {e}");
                std::process::exit(3);
            }
            fail(&e.to_string())
        });

    match job["state"].as_str() {
        Some("done") => {
            if output_only {
                match job["result"]["output"].as_str() {
                    Some(out) => print!("{out}"),
                    None => fail("--output-only: job result has no rendered output"),
                }
            } else {
                println!("{}", job.to_json_pretty());
            }
        }
        _ => {
            eprintln!(
                "deep-submit: job failed: {}",
                job["error"].as_str().unwrap_or("unknown error")
            );
            std::process::exit(1);
        }
    }
}
