//! HTTP front end: accept loop, request router, and graceful drain.
//!
//! One thread per connection (connections are few and long-lived —
//! this serves a CI fleet, not the internet), keep-alive per
//! HTTP/1.1, and a non-blocking accept loop so the daemon can notice
//! a termination request between connections. On SIGTERM (or
//! [`ServerHandle::begin_drain`]) the daemon stops admitting jobs
//! (503 + `Retry-After`), finishes everything already admitted, then
//! exits the accept loop.
//!
//! Routes:
//!
//! | method | path              | reply |
//! |--------|-------------------|-------|
//! | POST   | `/jobs`           | 200 (cache hit) / 202 (queued) + job JSON; 400/413/429/503 |
//! | GET    | `/jobs/<id>`      | job JSON (result inline once done) |
//! | GET    | `/jobs/<id>/events` | chunked NDJSON event stream until terminal |
//! | GET    | `/healthz`        | liveness + load gauges |
//! | GET    | `/metrics`        | plain-text counters |

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use deep_json::{object, Value};

use crate::http::{read_request, ChunkedWriter, Request, Response};
use crate::scheduler::{JobState, Rejection, Scheduler, SchedulerConfig};

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_IDLE: Duration = Duration::from_millis(20);
/// Poll interval for event streams waiting on job news.
const EVENT_WAIT: Duration = Duration::from_millis(100);

/// A running daemon: the scheduler plus drain plumbing shared with
/// connection threads.
pub struct Server {
    scheduler: Arc<Scheduler>,
    draining: Arc<AtomicBool>,
    listener: TcpListener,
    /// Local address actually bound (useful with port 0).
    pub addr: std::net::SocketAddr,
}

/// Cloneable handle for controlling a server from another thread
/// (tests use this where production uses SIGTERM).
#[derive(Clone)]
pub struct ServerHandle {
    scheduler: Arc<Scheduler>,
    draining: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
}

impl ServerHandle {
    /// Stop admitting jobs; the run loop exits once admitted work is
    /// done.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
        self.scheduler.drain();
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start the scheduler.
    pub fn bind(addr: &str, cfg: SchedulerConfig) -> io::Result<Server> {
        let scheduler = Arc::new(Scheduler::new(cfg)?);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            scheduler,
            draining: Arc::new(AtomicBool::new(false)),
            listener,
            addr,
        })
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            scheduler: Arc::clone(&self.scheduler),
            draining: Arc::clone(&self.draining),
            addr: self.addr,
        }
    }

    /// Serve until `terminate` (or a drain handle) fires, then finish
    /// admitted jobs and return. Pass `sigshim::terminate_flag()` in
    /// production; tests pass their own flag.
    pub fn run(self, terminate: &AtomicBool) -> io::Result<()> {
        loop {
            if terminate.load(Ordering::Relaxed) {
                self.draining.store(true, Ordering::Relaxed);
                self.scheduler.drain();
            }
            if self.draining.load(Ordering::Relaxed) && self.scheduler.drained() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let scheduler = Arc::clone(&self.scheduler);
                    let draining = Arc::clone(&self.draining);
                    std::thread::spawn(move || {
                        // Peer disconnects are routine, not errors.
                        let _ = serve_connection(stream, &scheduler, &draining);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_IDLE);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Workers are idle by now (drained() held); stop them. If a
        // connection thread still holds a reference, leaving workers
        // parked is safe — every job is terminal and the process is
        // about to exit anyway.
        if let Ok(s) = Arc::try_unwrap(self.scheduler) {
            s.shutdown();
        }
        Ok(())
    }
}

/// Handle one keep-alive connection until the peer closes or errors.
fn serve_connection(
    stream: TcpStream,
    scheduler: &Scheduler,
    draining: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()), // clean close between requests
            Err(e) => {
                // Malformed (400) or oversized (413) request: answer
                // and drop the connection (framing may be
                // desynchronised).
                let status = match e.kind() {
                    io::ErrorKind::InvalidData => 400,
                    io::ErrorKind::FileTooLarge => 413,
                    _ => return Err(e),
                };
                let body = object([("error", e.to_string().as_str().into())]);
                Response::json(status, &body).write_to(&mut writer, false)?;
                return Ok(());
            }
        };
        let keep_alive = !req.wants_close();
        match route(&req, scheduler, draining) {
            Routed::Plain(resp) => resp.write_to(&mut writer, keep_alive)?,
            Routed::EventStream(id) => {
                // Streaming takes over the connection; it ends with
                // the terminal event and closes.
                stream_events(&mut writer, scheduler, id)?;
                return Ok(());
            }
        }
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Either an ordinary response or a switch to event streaming.
enum Routed {
    Plain(Response),
    EventStream(u64),
}

fn route(req: &Request, scheduler: &Scheduler, draining: &AtomicBool) -> Routed {
    let path = req.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let plain = |r: Response| Routed::Plain(r);
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => plain(submit(req, scheduler, draining)),
        ("GET", ["jobs", id]) => match parse_id(id).and_then(|id| scheduler.job_json(id)) {
            Some(job) => plain(Response::json(200, &job)),
            None => plain(not_found()),
        },
        ("GET", ["jobs", id, "events"]) => match parse_id(id) {
            Some(id) if scheduler.job_json(id).is_some() => Routed::EventStream(id),
            _ => plain(not_found()),
        },
        ("GET", ["healthz"]) => {
            let (queued, running, drain_flag) = scheduler.load();
            let body = object([
                ("status", "ok".into()),
                (
                    "draining",
                    (drain_flag || draining.load(Ordering::Relaxed)).into(),
                ),
                ("jobs_queued", queued.into()),
                ("jobs_running", running.into()),
            ]);
            plain(Response::json(200, &body))
        }
        ("GET", ["metrics"]) => plain(Response::text(200, &scheduler.metrics_text())),
        (_, ["jobs"]) | (_, ["jobs", ..]) | (_, ["healthz"]) | (_, ["metrics"]) => plain(
            Response::json(405, &object([("error", "method not allowed".into())])),
        ),
        _ => plain(not_found()),
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse().ok()
}

fn not_found() -> Response {
    Response::json(404, &object([("error", "not found".into())]))
}

fn submit(req: &Request, scheduler: &Scheduler, draining: &AtomicBool) -> Response {
    if draining.load(Ordering::Relaxed) {
        return Response::json(503, &object([("error", "draining for shutdown".into())]))
            .header("Retry-After", "5");
    }
    let body = match deep_json::from_slice(&req.body) {
        Ok(v) => v,
        Err(e) => return Response::json(400, &object([("error", e.to_string().as_str().into())])),
    };
    let job_req = match crate::protocol::JobRequest::from_json(&body) {
        Ok(r) => r,
        Err(e) => return Response::json(400, &object([("error", e.as_str().into())])),
    };
    match scheduler.submit(job_req) {
        Ok(admitted) => match scheduler.job_json(admitted.job_id) {
            // 200 when the answer is already in hand, 202 when queued.
            Some(job) => Response::json(if admitted.cached { 200 } else { 202 }, &job),
            None => Response::json(
                500,
                &object([("error", "job record vanished after admission".into())]),
            ),
        },
        Err(Rejection::QueueFull { retry_after_s }) => {
            Response::json(429, &object([("error", "queue full".into())]))
                .header("Retry-After", &retry_after_s.to_string())
        }
        Err(Rejection::Draining) => {
            Response::json(503, &object([("error", "draining for shutdown".into())]))
                .header("Retry-After", "5")
        }
    }
}

/// Stream a job's events as chunked NDJSON until it is terminal.
fn stream_events<W: Write>(writer: W, scheduler: &Scheduler, id: u64) -> io::Result<()> {
    let mut out = ChunkedWriter::start(writer, 200, "application/x-ndjson")?;
    let mut seen = 0usize;
    while let Some((fresh, terminal)) = scheduler.events_after(id, seen, EVENT_WAIT) {
        if !fresh.is_empty() {
            let mut payload = String::new();
            for ev in &fresh {
                payload.push_str(&ev.to_json());
                payload.push('\n');
            }
            seen += fresh.len();
            out.write_chunk(payload.as_bytes())?;
        }
        if terminal && seen > 0 {
            break;
        }
    }
    out.finish()
}

/// Convenience for bins and tests: a terminal state string from job
/// JSON.
pub fn job_state(job: &Value) -> Option<JobState> {
    match job["state"].as_str()? {
        "queued" => Some(JobState::Queued),
        "running" => Some(JobState::Running),
        "done" => Some(JobState::Done),
        "failed" => Some(JobState::Failed),
        _ => None,
    }
}
