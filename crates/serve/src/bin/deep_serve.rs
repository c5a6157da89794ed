//! The `deep-serve` daemon.
//!
//! ```text
//! deep-serve [--addr HOST:PORT] [--threads N] [--workers N]
//!            [--queue-bound N] [--cache-capacity N]
//! ```
//!
//! * `--addr`           — bind address (default `127.0.0.1:8723`;
//!   port 0 picks a free port, printed on startup).
//! * `--threads`        — simulation pool width (default: rayon's).
//! * `--workers`        — jobs executing concurrently (default 2).
//! * `--queue-bound`    — admission queue depth (default 32).
//! * `--cache-capacity` — in-memory result-cache entries (default 256).
//!
//! The first stdout line is `deep-serve listening on <addr>` so
//! scripts can scrape the bound address. SIGTERM (or SIGINT) drains:
//! new submissions get 503 + `Retry-After`, admitted jobs finish,
//! then the process exits 0.

use deep_serve::scheduler::SchedulerConfig;
use deep_serve::server::Server;
use std::io::Write as _;

fn usage() -> ! {
    eprintln!(
        "usage: deep-serve [--addr HOST:PORT] [--threads N] [--workers N] \
         [--queue-bound N] [--cache-capacity N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:8723".to_string();
    let mut cfg = SchedulerConfig {
        pool_threads: rayon::current_num_threads() as u32,
        ..SchedulerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{arg} needs a {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = next("HOST:PORT"),
            "--threads" => cfg.pool_threads = parse(&next("count")),
            "--workers" => cfg.workers = parse(&next("count")),
            "--queue-bound" => cfg.queue_bound = parse(&next("count")),
            "--cache-capacity" => cfg.cache_capacity = parse(&next("count")),
            _ => usage(),
        }
    }

    // Handlers first: once the address is announced a supervisor may
    // signal, and an unhandled SIGTERM kills instead of draining.
    let terminate = sigshim::terminate_flag();
    let server = match Server::bind(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("deep-serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("deep-serve listening on {}", server.addr);
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run(terminate) {
        eprintln!("deep-serve: {e}");
        std::process::exit(1);
    }
    eprintln!("deep-serve: drained, exiting");
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("not a valid value: {s}");
        usage()
    })
}
