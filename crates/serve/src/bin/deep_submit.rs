//! `deep-submit`: command-line client for a `deep-serve` daemon.
//!
//! ```text
//! deep-submit --addr HOST:PORT [--client NAME] [--retries N]
//!             (--experiment NAME | --sweep-file PATH | --scenario PATH | --sleep-ms N)
//!             [--watch] [--output-only]
//! ```
//!
//! * `--experiment`  — submit a registered experiment by name.
//! * `--sweep-file`  — submit the JSON submission body in PATH
//!   verbatim (explicit sweep configs, or anything the API accepts).
//! * `--scenario`    — parse the TOML scenario file in PATH and
//!   submit it as a `{"scenario": ...}` job (validated locally first,
//!   so schema errors surface before any network traffic).
//! * `--sleep-ms`    — submit a do-nothing job (ops drills).
//! * `--client`      — fairness bucket (default `anon`).
//! * `--retries`     — 429/503 back-off attempts before giving up
//!   (default 10; honours `Retry-After`).
//! * `--watch`       — stream NDJSON progress events to stderr while
//!   the job runs.
//! * `--output-only` — print just the experiment's rendered output
//!   (byte-identical to the standalone experiment binary), not the
//!   job JSON; for scripted bit-comparison.
//!
//! Exit codes: 0 job done, 1 job failed or daemon unreachable,
//! 2 usage, 3 gave up on backpressure.

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
    let mut body: Option<String> = None;
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
                let name = next("NAME");
                body = Some(format!("{{\"experiment\":\"{name}\"}}"));
            }
            "--sweep-file" => {
                let path = next("PATH");
                let raw = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
                body = Some(raw);
            }
            "--scenario" => {
                let path = next("PATH");
                let raw = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
                let scenario = deep_scenario::Scenario::from_toml_str(&raw)
                    .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
                body = Some(deep_json::object([("scenario", scenario.doc.clone())]).to_json());
            }
            "--sleep-ms" => {
                let ms: u64 = next("count").parse().unwrap_or_else(|_| usage());
                body = Some(format!("{{\"sleep_ms\":{ms}}}"));
            }
            "--watch" => watch = true,
            "--output-only" => output_only = true,
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let Some(body) = body else { usage() };
    // Attach the fairness bucket without disturbing the spec members.
    let body = {
        let spec = deep_json::from_str(&body)
            .unwrap_or_else(|e| fail(&format!("submission body is not JSON: {e}")));
        let mut members = vec![(
            "client".to_string(),
            deep_json::Value::String(client_name.clone()),
        )];
        match spec {
            deep_json::Value::Object(kv) => {
                members.extend(kv.into_iter().filter(|(k, _)| k != "client"))
            }
            _ => fail("submission body must be a JSON object"),
        }
        deep_json::Value::Object(members).to_json()
    };

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
