//! `serve_mix`: an in-process `deep-serve` daemon (pool 2, 2 workers)
//! driven by a **closed loop of 2 keep-alive clients** — each sends its
//! next request only when the previous one has completed, so a slower
//! daemon receives less load and latency, not backlog, is what rises.
//!
//! The path under test is http → json → scenario compile → scheduler →
//! cache → rayon pool. About half of the requests repeat a 16-spec hot
//! set primed during set-up (cache hits, answered in the `POST`); the
//! rest are unique cold jobs whose completion is observed on
//! `GET /jobs/:id/events`, opened right after the 202. The harness
//! never sleeps or polls.

use std::sync::atomic::AtomicBool;
use std::thread::JoinHandle;

use deep_json::Value;
use deep_serve::client::{ServeClient, Submitted};
use deep_serve::scheduler::SchedulerConfig;
use deep_serve::server::{Server, ServerHandle};

use crate::clock::{now_ns, secs_since};
use crate::driver::{Outcome, Params, Workload};
use crate::gen::{self, Request};
use crate::stats::{median, tail};
use crate::trace;

const CLIENTS: u32 = 2;

/// The daemon never sees a termination signal; it stops by draining.
static NEVER: AtomicBool = AtomicBool::new(false);

/// A running in-process daemon.
pub struct Daemon {
    pub addr: String,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Bind a loopback port and serve on a background thread.
    pub fn start() -> Daemon {
        let server = {
            let _s = trace::span("serve", "Server::bind");
            Server::bind(
                "127.0.0.1:0",
                SchedulerConfig {
                    pool_threads: 2,
                    workers: 2,
                    ..SchedulerConfig::default()
                },
            )
            .expect("bind a loopback port")
        };
        let handle = server.handle();
        Daemon {
            addr: server.addr.to_string(),
            handle,
            thread: Some(std::thread::spawn(move || server.run(&NEVER))),
        }
    }

    pub fn connect(&self) -> ServeClient {
        ServeClient::connect(&self.addr).expect("connect to the in-process daemon")
    }
}

impl Drop for Daemon {
    /// Drain and join, so no thread outlives the benchmark. Errors are
    /// ignored here (`Drop` must not panic); a daemon that died shows
    /// up as failed requests long before.
    fn drop(&mut self) {
        self.handle.begin_drain();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// What one request observed.
#[derive(Default)]
struct Observed {
    cached: bool,
    latency_s: f64,
    /// Daemon-side service time of a cold job.
    service_s: f64,
    batched: bool,
    problem: Option<String>,
}

/// Submit `body`; on a 202 follow the job's event stream on a fresh
/// connection to its terminal event, then fetch the finished job.
/// Returns what was observed and the job's `result`.
fn submit(client: &mut ServeClient, addr: &str, body: &str) -> (Observed, Value) {
    let fail = |why: String| {
        let seen = Observed {
            problem: Some(why),
            ..Observed::default()
        };
        (seen, Value::Null)
    };
    let t0 = now_ns();
    let job = {
        let _s = trace::span("serve", "POST /jobs");
        match client.submit_raw(body) {
            Ok(Submitted::Job(job)) => job,
            Ok(Submitted::Backoff { status, .. }) => {
                return fail(format!("rejected: HTTP {status}"))
            }
            Err(e) => return fail(format!("submit: {e}")),
        }
    };
    if job["cache_hit"].as_bool() == Some(true) {
        let latency_s = secs_since(t0);
        let done = job["state"].as_str() == Some("done");
        return (
            Observed {
                cached: true,
                latency_s,
                problem: (!done).then(|| "cache hit not in state done".to_string()),
                ..Observed::default()
            },
            job["result"].clone(),
        );
    }
    let Some(id) = job["id"].as_u64() else {
        return fail("job without id".to_string());
    };
    let mut terminal_ns = 0;
    {
        let _s = trace::span("serve", "GET /jobs/:id/events");
        let watched = ServeClient::connect(addr).and_then(|c| {
            c.watch_events(id, |ev| {
                if matches!(ev["state"].as_str(), Some("done" | "failed")) {
                    terminal_ns = now_ns();
                }
            })
        });
        if let Err(e) = watched {
            return fail(format!("events {id}: {e}"));
        }
    }
    if terminal_ns == 0 {
        return fail(format!(
            "job {id}: event stream ended without a terminal event"
        ));
    }
    let latency_s = (terminal_ns - t0) as f64 * 1e-9;
    let finished = {
        let _s = trace::span("serve", "GET /jobs/:id");
        match client.job(id) {
            Ok(j) => j,
            Err(e) => return fail(format!("job {id}: {e}")),
        }
    };
    let done = finished["state"].as_str() == Some("done");
    (
        Observed {
            cached: false,
            latency_s,
            service_s: finished["service_micros"].as_u64().unwrap_or(0) as f64 * 1e-6,
            batched: finished["batched_with"].as_u64().unwrap_or(0) > 0,
            problem: (!done || finished["result"] == Value::Null)
                .then(|| format!("job {id} ended {}", finished["state"].to_json())),
        },
        finished["result"].clone(),
    )
}

pub struct ServeMix {
    // Declared before `daemon` so the connections close first and the
    // daemon's connection threads see end-of-stream while it drains.
    clients: Vec<ServeClient>,
    daemon: Daemon,
    /// Result of each hot spec's cold run; every later hit must equal it.
    hot_results: Vec<Value>,
    /// The request lists of the chunks still to run (one list per
    /// client), generated during set-up so the timed window holds only
    /// the daemon's work.
    chunks: std::vec::IntoIter<Vec<Vec<Request>>>,
    cold_s: Vec<f64>,
    hit_s: Vec<f64>,
    queue_wait_s: Vec<f64>,
    service_s: Vec<f64>,
    batched: u64,
}

impl Workload for ServeMix {
    const SINGLE_THREADED: bool = false;

    /// One chunk per second of window (a chunk takes ≈0.95 s on the
    /// reference host): the daemon keeps every job's record, so its
    /// memory is a function of the requests served.
    fn fixed_reps(window_s: f64) -> Option<usize> {
        Some(window_s.round().max(1.0) as usize)
    }

    fn setup(p: &Params) -> ServeMix {
        let daemon = Daemon::start();
        let mut clients: Vec<ServeClient> = (0..CLIENTS).map(|_| daemon.connect()).collect();
        let hot = gen::hot_set(p.seed);
        // Prime the hot set: one cold run per spec, whose result every
        // later hit is compared with.
        let hot_results = hot
            .iter()
            .map(|body| {
                let (seen, result) = submit(&mut clients[0], &daemon.addr, body);
                assert!(
                    seen.problem.is_none() && !seen.cached,
                    "priming the hot set failed: {:?}",
                    seen.problem
                );
                result
            })
            .collect();
        let chunk_len = if p.smoke { 8 } else { gen::CHUNK };
        let chunks: Vec<Vec<Vec<Request>>> = (0..Self::fixed_reps(p.seconds).unwrap_or(1) as u32)
            .map(|chunk| {
                (0..CLIENTS)
                    .map(|client| {
                        let mut list = gen::chunk(p.seed, chunk, client, &hot);
                        list.truncate(chunk_len);
                        list
                    })
                    .collect()
            })
            .collect();
        ServeMix {
            clients,
            daemon,
            hot_results,
            chunks: chunks.into_iter(),
            cold_s: Vec::new(),
            hit_s: Vec::new(),
            queue_wait_s: Vec::new(),
            service_s: Vec::new(),
            batched: 0,
        }
    }

    /// One chunk: both clients work through their request lists at the
    /// same time, each in a closed loop.
    fn rep(&mut self, out: &mut Outcome) {
        let lists = self
            .chunks
            .next()
            .expect("set-up generated a chunk per repetition of the window");
        let root = trace::span("harness", "chunk");
        let (parent, addr, hot_results) = (root.id(), &self.daemon.addr, &self.hot_results);
        let observed: Vec<Vec<Observed>> = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&lists)
                .map(|(client, list)| {
                    scope.spawn(move || {
                        trace::adopt(parent);
                        list.iter()
                            .map(|req| {
                                let (mut seen, result) = submit(client, addr, &req.body);
                                if let (Some(k), None) = (req.hot, &seen.problem) {
                                    if !seen.cached {
                                        seen.problem =
                                            Some(format!("hot spec {k} missed the cache"));
                                    } else if result != hot_results[k] {
                                        seen.problem = Some(format!(
                                            "hit on hot spec {k} differs from its cold result"
                                        ));
                                    }
                                }
                                seen
                            })
                            .collect()
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread panicked"))
                .collect()
        });
        drop(root);
        for seen in observed.into_iter().flatten() {
            if seen.problem.is_none() {
                if seen.cached {
                    self.hit_s.push(seen.latency_s);
                } else {
                    self.cold_s.push(seen.latency_s);
                    self.service_s.push(seen.service_s);
                    self.queue_wait_s
                        .push((seen.latency_s - seen.service_s).max(0.0));
                    self.batched += u64::from(seen.batched);
                }
            }
            out.check(seen.problem);
        }
    }

    fn finish(mut self, reps: &[f64], out: &mut Outcome) {
        out.cold_ms = self.cold_s.iter().map(|s| s * 1e3).collect();
        out.hit_us = self.hit_s.iter().map(|s| s * 1e6).collect();
        let requests = (self.cold_s.len() + self.hit_s.len()) as f64;
        let l = &mut out.layer;
        l.insert("serve.queue_wait_ms", median(&self.queue_wait_s) * 1e3);
        l.insert("serve.service_ms", median(&self.service_s) * 1e3);
        l.insert("serve.jobs_per_s", requests / reps.iter().sum::<f64>());
        l.insert(
            "serve.batched_share",
            self.batched as f64 / self.cold_s.len().max(1) as f64,
        );
        l.insert("serve.cold_jobs", self.cold_s.len() as f64);
        l.insert("serve.hit_jobs", self.hit_s.len() as f64);
        l.insert(
            "serve.cold_tail_ms",
            tail(&out.cold_ms, 10).map_or(0.0, |(_, v)| v),
        );
        l.insert(
            "serve.hit_tail_us",
            tail(&out.hit_us, 10).map_or(0.0, |(_, v)| v),
        );
        // The daemon's own counters, over set-up priming and the run.
        let metrics = self.clients[0].metrics().unwrap_or_default();
        let counter = |name: &str| {
            metrics
                .lines()
                .find_map(|line| line.strip_prefix(name)?.trim().parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        l.insert(
            "serve.cache_hits",
            counter("deep_serve_jobs_cache_hits_total "),
        );
        l.insert(
            "serve.cache_misses",
            counter("deep_serve_cache_misses_total "),
        );
        l.insert(
            "serve.rejected",
            counter("deep_serve_jobs_rejected_queue_full_total ")
                + counter("deep_serve_jobs_rejected_draining_total "),
        );
    }
}
