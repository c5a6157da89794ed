//! End-to-end tests: a real daemon on a loopback socket, real HTTP
//! clients, every acceptance property of the serve subsystem.
//!
//! Each test boots its own `Server` on port 0 with a private
//! termination flag (the sigshim flag is process-global and one-way,
//! so tests drive drain through [`ServerHandle::begin_drain`]
//! instead).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use deep_json::Value;
use deep_serve::client::{ServeClient, Submitted};
use deep_serve::scheduler::SchedulerConfig;
use deep_serve::server::{Server, ServerHandle, MAX_CONNECTIONS};

/// A daemon under test: drain + join on drop-by-hand.
struct Daemon {
    handle: ServerHandle,
    addr: String,
    thread: JoinHandle<std::io::Result<()>>,
}

fn boot(cfg: SchedulerConfig) -> Daemon {
    // Leak one flag per daemon: `run` borrows it for the daemon's
    // lifetime, which outlives this stack frame.
    boot_with_flag(cfg, Box::leak(Box::new(AtomicBool::new(false))))
}

fn boot_with_flag(cfg: SchedulerConfig, flag: &'static AtomicBool) -> Daemon {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind loopback");
    let handle = server.handle();
    let addr = server.addr.to_string();
    let thread = std::thread::spawn(move || server.run(flag));
    Daemon {
        handle,
        addr,
        thread,
    }
}

impl Daemon {
    fn stop(self) {
        self.handle.begin_drain();
        self.thread
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    }
}

/// Follow job `id` on a fresh connection to the end of its event
/// stream, then fetch the finished job over `client`.
fn wait_done(addr: &str, client: &mut ServeClient, id: u64) -> Value {
    ServeClient::connect(addr)
        .expect("watcher connect")
        .watch_events(id, |_| {})
        .expect("event stream");
    let job = client.job(id).expect("status");
    assert_eq!(job["state"].as_str(), Some("done"), "{}", job.to_json());
    job
}

fn experiment_body(client: &str, name: &str) -> String {
    format!(r#"{{"client":"{client}","experiment":"{name}"}}"#)
}

#[test]
fn concurrent_clients_get_bit_identical_results() {
    let daemon = boot(SchedulerConfig {
        workers: 2,
        queue_bound: 16,
        ..SchedulerConfig::default()
    });
    let direct = deep_bench::experiments::run_to_string("f02_evolution").unwrap();

    // ≥4 concurrent clients, separate connections, same experiment.
    let barrier = Arc::new(Barrier::new(4));
    let outputs: Vec<String> = (0..4)
        .map(|i| {
            let addr = daemon.addr.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr).expect("connect");
                barrier.wait();
                let job = client
                    .submit_and_wait(
                        &experiment_body(&format!("tenant-{i}"), "f02_evolution"),
                        20,
                    )
                    .expect("job completes");
                assert_eq!(job["state"].as_str(), Some("done"), "{}", job.to_json());
                job["result"]["output"]
                    .as_str()
                    .expect("output")
                    .to_string()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    for out in &outputs {
        assert_eq!(
            out, &direct,
            "daemon output must be byte-identical to the direct run"
        );
    }
    daemon.stop();
}

#[test]
fn resubmission_is_a_cache_hit_with_fast_service() {
    let daemon = boot(SchedulerConfig::default());
    let mut client = ServeClient::connect(&daemon.addr).expect("connect");

    let cold = client
        .submit_and_wait(&experiment_body("ci", "f02_evolution"), 20)
        .expect("cold run");
    assert_eq!(cold["cache_hit"].as_bool(), Some(false));

    let warm = client
        .submit_and_wait(&experiment_body("ci", "f02_evolution"), 20)
        .expect("warm run");
    assert_eq!(warm["cache_hit"].as_bool(), Some(true));
    assert_eq!(
        warm["result"].to_json(),
        cold["result"].to_json(),
        "cache hit must be byte-identical"
    );
    // A hit never touches a worker: service time is the digest + map
    // lookup. Give the assertion 100x headroom over "sub-millisecond"
    // for debug builds and noisy CI — it still catches any accidental
    // re-execution (the cold run takes far longer than 100 ms here).
    let micros = warm["service_micros"].as_u64().expect("service time");
    assert!(micros < 100_000, "cache hit took {micros}us");
    daemon.stop();
}

#[test]
fn full_queue_rejects_with_retry_after_and_recovers() {
    let daemon = boot(SchedulerConfig {
        workers: 1,
        queue_bound: 2,
        ..SchedulerConfig::default()
    });
    let mut client = ServeClient::connect(&daemon.addr).expect("connect");

    // Occupy the single worker, then fill the two queue slots.
    let mut admitted = Vec::new();
    let mut saw_backoff = None;
    for _ in 0..8 {
        match client
            .submit_raw(r#"{"client":"flood","sleep_ms":400}"#)
            .expect("submit")
        {
            Submitted::Job(job) => admitted.push(job["id"].as_u64().unwrap()),
            Submitted::Backoff {
                status,
                retry_after_s,
            } => {
                saw_backoff = Some((status, retry_after_s));
                break;
            }
        }
    }
    let (status, retry_after_s) = saw_backoff.expect("flood must hit the bound");
    assert_eq!(status, 429);
    assert!(
        retry_after_s >= 1,
        "Retry-After must be present and positive"
    );
    assert!(
        admitted.len() <= 3,
        "bound 2 + running 1 admitted {admitted:?}"
    );

    // Admitted jobs still finish, and capacity comes back.
    for id in admitted {
        wait_done(&daemon.addr, &mut client, id);
    }
    match client
        .submit_raw(r#"{"client":"flood","sleep_ms":1}"#)
        .expect("submit after drain of queue")
    {
        Submitted::Job(_) => {}
        Submitted::Backoff { status, .. } => panic!("still rejected: HTTP {status}"),
    }
    daemon.stop();
}

#[test]
fn drain_rejects_with_503_and_finishes_inflight_jobs() {
    let daemon = boot(SchedulerConfig {
        workers: 1,
        ..SchedulerConfig::default()
    });
    let mut client = ServeClient::connect(&daemon.addr).expect("connect");
    let inflight = match client
        .submit_raw(r#"{"client":"ops","sleep_ms":300}"#)
        .expect("submit")
    {
        Submitted::Job(job) => job["id"].as_u64().unwrap(),
        other => panic!("expected admission, got {other:?}"),
    };

    daemon.handle.begin_drain();
    match client
        .submit_raw(r#"{"client":"ops","sleep_ms":1}"#)
        .expect("submit during drain")
    {
        Submitted::Backoff {
            status,
            retry_after_s,
        } => {
            assert_eq!(status, 503);
            assert!(retry_after_s >= 1);
        }
        Submitted::Job(job) => panic!("draining daemon admitted a job: {}", job.to_json()),
    }

    // Watch the in-flight job to its terminal state — a draining
    // daemon still accepts connections — and fetch it over the still-
    // open one: drain must let it finish, not kill it.
    let job = wait_done(&daemon.addr, &mut client, inflight);
    assert_eq!(job["result"]["slept_ms"].as_u64(), Some(300));
    // And the daemon exits cleanly only after that.
    daemon
        .thread
        .join()
        .expect("daemon thread")
        .expect("clean drain");
}

#[test]
fn health_metrics_and_errors_speak_http() {
    let daemon = boot(SchedulerConfig::default());
    let mut client = ServeClient::connect(&daemon.addr).expect("connect");

    let health = client.healthz().expect("healthz");
    assert_eq!(health["status"].as_str(), Some("ok"));
    assert_eq!(health["draining"].as_bool(), Some(false));

    client
        .submit_and_wait(&experiment_body("m", "f02_evolution"), 20)
        .expect("job");
    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.contains("deep_serve_jobs_submitted_total 1"),
        "{metrics}"
    );

    // Unknown job, unknown route, malformed body, unknown experiment.
    assert!(client.job(999).is_err());
    let err = client
        .submit_raw(r#"{"experiment":"no_such_thing"}"#)
        .expect_err("unknown experiment is a 400");
    assert!(err.to_string().contains("400"), "{err}");
    let err = client
        .submit_raw("this is not json")
        .expect_err("malformed body is a 400");
    assert!(err.to_string().contains("400"), "{err}");
    daemon.stop();
}

/// Send a raw request head on a fresh connection; return the status
/// line and whether the daemon closed the connection after answering
/// (a kept-alive connection runs into the read timeout instead).
fn raw_exchange(addr: &str, request: &str) -> (String, bool) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("send");
    let mut reply = String::new();
    let closed = stream.read_to_string(&mut reply).is_ok();
    (reply.lines().next().unwrap_or_default().to_string(), closed)
}

#[test]
fn ambiguous_or_oversized_framing_is_refused_and_the_daemon_survives() {
    let daemon = boot(SchedulerConfig::default());
    let big = deep_serve::http::MAX_BODY + 1;
    for (request, status) in [
        (
            "POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n"
                .to_string(),
            "HTTP/1.1 400 Bad Request",
        ),
        (
            "POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 0\r\n\r\n".to_string(),
            "HTTP/1.1 400 Bad Request",
        ),
        (
            format!("POST /jobs HTTP/1.1\r\nContent-Length: {big}\r\n\r\n"),
            "HTTP/1.1 413 Payload Too Large",
        ),
    ] {
        let (line, closed) = raw_exchange(&daemon.addr, &request);
        assert_eq!(line, status, "{request:?}");
        assert!(closed, "connection must close after {request:?}");
    }
    // The next connection is served normally.
    let mut client = ServeClient::connect(&daemon.addr).expect("connect");
    assert_eq!(
        client.healthz().expect("healthz")["status"].as_str(),
        Some("ok")
    );
    daemon.stop();
}

#[test]
fn event_stream_narrates_the_job_lifecycle() {
    let daemon = boot(SchedulerConfig {
        workers: 1,
        ..SchedulerConfig::default()
    });
    let mut client = ServeClient::connect(&daemon.addr).expect("connect");
    // A multi-point sweep slow enough to still be running when the
    // watcher attaches (the worker is parked behind a sleep first).
    let sweep = r#"{"client":"w","sweep":{"seed":7,"replicas":2,"points":[
        {"work_s":20000,"n_nodes":640,"mtbf_node_s":157680000,
         "checkpoint_s":120,"restart_s":300,"interval_s":1800},
        {"work_s":20000,"n_nodes":640,"mtbf_node_s":157680000,
         "checkpoint_s":120,"restart_s":300,"interval_s":3600}]}}"#;
    client
        .submit_raw(r#"{"client":"w","sleep_ms":150}"#)
        .expect("parking job");
    let id = match client.submit_raw(sweep).expect("submit sweep") {
        Submitted::Job(job) => job["id"].as_u64().unwrap(),
        other => panic!("expected admission, got {other:?}"),
    };

    let watcher = ServeClient::connect(&daemon.addr).expect("watcher connect");
    let mut states = Vec::new();
    watcher
        .watch_events(id, |ev| {
            states.push(ev["state"].as_str().unwrap_or("?").to_string());
        })
        .expect("event stream");
    assert_eq!(states.first().map(String::as_str), Some("queued"));
    assert!(
        states.iter().any(|s| s == "started"),
        "missing started: {states:?}"
    );
    assert_eq!(states.last().map(String::as_str), Some("done"));
    // Events arrive seq-ordered and the job JSON agrees.
    let job = client.job(id).expect("status");
    assert_eq!(job["state"].as_str(), Some("done"));
    assert_eq!(
        job["result"]["sweep"]["rows"].as_array().map(Vec::len),
        Some(2),
        "{}",
        job.to_json()
    );
    daemon.stop();
}

/// The CI sweep fixture, shaped like the benchmark's sweep jobs, gives
/// per point what direct `mean_efficiency` gives, bit for bit, and the
/// result its hand-written `[[sweep.points]]` scenario gives, byte for
/// byte.
#[test]
fn sweep_results_match_direct_evaluation_bit_for_bit() {
    let daemon = boot(SchedulerConfig::default());
    let mut client = ServeClient::connect(&daemon.addr).expect("connect");
    let body = include_str!("fixtures/sweep_16x128.json");
    let job = client.submit_and_wait(body, 20).expect("sweep");
    assert_eq!(job["state"].as_str(), Some("done"), "{}", job.to_json());

    let toml = include_str!("../../../tests/scenario_fixtures/valid_sweep_points.toml");
    let scenario = deep_scenario::Scenario::from_toml_str(toml).expect("points fixture is valid");
    assert_eq!(
        job["result"].to_json(),
        deep_scenario::execute(&scenario).to_json()
    );

    let Some(deep_scenario::AppSpec::Resilience(app)) = &scenario.app else {
        panic!("resilience skeleton expected");
    };
    let rows = job["result"]["sweep"]["rows"].as_array().expect("rows");
    assert_eq!(rows.len(), 16);
    for (row, (point, interval_s)) in rows.iter().zip(app.cases()) {
        let direct = deep_core::resilience::mean_efficiency(&point, interval_s, 7, 128);
        assert_eq!(
            row["efficiency"].as_f64().map(f64::to_bits),
            Some(direct.efficiency.to_bits()),
            "{}",
            row.to_json()
        );
        assert_eq!(
            row["truncated_runs"].as_u64(),
            Some(u64::from(direct.truncated_runs))
        );
    }
    daemon.stop();
}

#[test]
fn fairness_round_robins_between_clients_under_contention() {
    let daemon = boot(SchedulerConfig {
        workers: 1,
        queue_bound: 16,
        ..SchedulerConfig::default()
    });
    let mut submitter = ServeClient::connect(&daemon.addr).expect("connect");
    // Park the worker so the queue builds deterministically.
    submitter
        .submit_raw(r#"{"client":"park","sleep_ms":250}"#)
        .expect("parking job");
    let mut greedy_ids = Vec::new();
    for _ in 0..3 {
        if let Submitted::Job(job) = submitter
            .submit_raw(r#"{"client":"greedy","sleep_ms":1}"#)
            .expect("submit")
        {
            greedy_ids.push(job["id"].as_u64().unwrap());
        }
    }
    let modest_id = match submitter
        .submit_raw(r#"{"client":"modest","sleep_ms":1}"#)
        .expect("submit")
    {
        Submitted::Job(job) => job["id"].as_u64().unwrap(),
        other => panic!("expected admission, got {other:?}"),
    };

    let modest = wait_done(&daemon.addr, &mut submitter, modest_id);
    let greedy_last = wait_done(&daemon.addr, &mut submitter, *greedy_ids.last().unwrap());
    // Round-robin: the modest client's only job (submitted last) must
    // not wait behind the greedy client's whole backlog.
    assert!(
        modest["service_micros"].as_u64().unwrap()
            < greedy_last["service_micros"].as_u64().unwrap(),
        "modest {} vs greedy-last {}",
        modest.to_json(),
        greedy_last.to_json()
    );
    daemon.stop();
}

#[test]
fn fresh_connections_wait_for_no_accept_tick() {
    let daemon = boot(SchedulerConfig::default());
    // 50 round trips, each on a connection of its own, are 50 connects'
    // worth of time; a listener that naps between polls made each wait
    // out the nap. Best of three, so that a neighbour test hogging the
    // cores for a moment does not decide it.
    let best = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..50 {
                let mut client = ServeClient::connect(&daemon.addr).expect("connect");
                assert_eq!(
                    client.healthz().expect("healthz")["status"].as_str(),
                    Some("ok")
                );
            }
            t0.elapsed()
        })
        .min()
        .expect("three attempts");
    assert!(
        best < Duration::from_millis(250),
        "50 fresh-connection round trips took {best:?}"
    );
    daemon.stop();
}

#[test]
fn the_terminate_flag_ends_an_idle_daemon_at_once() {
    let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let daemon = boot_with_flag(SchedulerConfig::default(), flag);
    // One exchange proves the accept loop is up; afterwards nothing is
    // connected or pending, so only a wake-up can end the `accept`.
    ServeClient::connect(&daemon.addr)
        .expect("connect")
        .healthz()
        .expect("healthz");
    let t0 = Instant::now();
    flag.store(true, Ordering::Relaxed);
    daemon
        .thread
        .join()
        .expect("daemon thread")
        .expect("clean exit");
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(200),
        "run returned after {took:?}"
    );
    // `run` left no thread holding the listener: the port is closed.
    assert!(TcpStream::connect(&daemon.addr).is_err());
}

#[test]
fn connections_beyond_the_cap_get_503_and_slots_come_back() {
    let daemon = boot(SchedulerConfig::default());
    let mut early = ServeClient::connect(&daemon.addr).expect("connect");
    early.healthz().expect("healthz before the flood");
    // With `early`, exactly the cap. Connections are accepted in the
    // order they were made, so by the time the daemon sees the probe
    // below it has given every holder its slot.
    let holders: Vec<TcpStream> = (1..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(&daemon.addr).expect("holder connect"))
        .collect();

    let t0 = Instant::now();
    let mut probe = TcpStream::connect(&daemon.addr).expect("probe connect");
    probe
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("timeout");
    let mut reply = String::new();
    probe
        .read_to_string(&mut reply)
        .expect("a refusal, then end of stream");
    assert!(t0.elapsed() < Duration::from_secs(1));
    assert!(
        reply.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
        "{reply}"
    );
    assert!(reply.contains("\r\nRetry-After: 1\r\n"), "{reply}");

    // A request over a refused connection reads as back-pressure.
    let mut late = ServeClient::connect(&daemon.addr).expect("tcp connect still succeeds");
    match late.submit_raw(r#"{"sleep_ms":0}"#).expect("an HTTP reply") {
        Submitted::Backoff { status, .. } => assert_eq!(status, 503),
        Submitted::Job(job) => panic!("served beyond the cap: {}", job.to_json()),
    }

    // The client that was there before the flood is still served.
    let gauge = |metrics: &str, name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {name} in {metrics}"))
    };
    let metrics = early.metrics().expect("metrics during the flood");
    assert_eq!(
        gauge(&metrics, "deep_serve_connections_active "),
        MAX_CONNECTIONS as u64
    );
    assert_eq!(gauge(&metrics, "deep_serve_connections_rejected_total "), 2);

    // Closing the holders gives the slots back (a holder that stays
    // silent loses its slot to the idle timeout instead — the unit
    // tests of `server` cover that with millisecond timeouts).
    drop(holders);
    let deadline = Instant::now() + Duration::from_secs(5);
    while gauge(
        &early.metrics().expect("metrics"),
        "deep_serve_connections_active ",
    ) > 1
    {
        assert!(Instant::now() < deadline, "slots never came back");
    }
    // `late` holds the connection the daemon closed after the 503 — as
    // stale as one the idle timeout closed — and reconnects by itself.
    assert_eq!(
        late.healthz().expect("served again")["status"].as_str(),
        Some("ok")
    );
    daemon.stop();
}
