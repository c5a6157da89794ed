//! HTTP front end: accept loop, request router, and graceful drain.
//!
//! One thread per connection, at most [`MAX_CONNECTIONS`] of them
//! (connections are few and long-lived — this serves a CI fleet, not
//! the internet), keep-alive per HTTP/1.1. The listener *blocks* in
//! `accept`, so a fresh connection is served in the time of a
//! `connect`; nothing on the way from `connect` to the first response
//! byte sleeps, polls or waits on a timer. What ends the daemon wakes
//! the listener instead: a side thread parks on the scheduler's condvar
//! (looking at the SIGTERM flag between waits) and, the moment the
//! daemon is drained, connects to the listener's own address.
//!
//! On SIGTERM (or [`ServerHandle::begin_drain`]) the daemon stops
//! admitting jobs (503 + `Retry-After`), finishes everything already
//! admitted, lets attached event streams read their terminal event,
//! then leaves the accept loop.
//!
//! Every accepted socket has read and write timeouts: a peer that
//! stalls inside a request or stops reading a response loses its slot
//! after `IO_TIMEOUT`; one that is merely quiet *between* requests —
//! a client following a long job on a second connection — keeps it for
//! `IDLE_TIMEOUT` ([`crate::client::ServeClient`] reconnects once if
//! it comes back later than that).
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
//!
//! Any connection beyond the cap is answered `503` + `Retry-After` by
//! the accept thread itself.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use deep_json::object;

use crate::http::{read_request, ChunkedWriter, Request, Response};
use crate::scheduler::{JobJson, Rejection, Scheduler, SchedulerConfig, Watch};

/// Connections served at once, one thread each.
pub const MAX_CONNECTIONS: usize = 64;
/// How long a kept-alive connection may stay quiet between requests.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest stall inside a request or a response before the peer loses
/// its connection.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// How often the drain watcher looks at the termination flag, which a
/// signal handler can set but cannot notify. Not on any request's path.
const TERMINATE_POLL: Duration = Duration::from_millis(20);

/// The two socket timeouts of a connection; arguments, so that a test
/// can use milliseconds.
#[derive(Clone, Copy)]
struct Timeouts {
    /// Wait for the first byte of the next request.
    idle: Duration,
    /// Any later read of the request, and every write.
    io: Duration,
}

/// What the accept thread, every connection thread and the control
/// handles share.
struct Shared {
    scheduler: Scheduler,
    draining: AtomicBool,
    /// Connection threads alive; the accept thread alone adds to it, so
    /// it never exceeds [`MAX_CONNECTIONS`].
    connections_active: AtomicUsize,
    connections_rejected: AtomicU64,
}

impl Shared {
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
        self.scheduler.drain();
    }
}

/// A running daemon: the scheduler plus drain plumbing shared with
/// connection threads.
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    /// Local address actually bound (useful with port 0).
    pub addr: SocketAddr,
}

/// Cloneable handle for controlling a server from another thread
/// (tests use this where production uses SIGTERM).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Stop admitting jobs; the run loop exits once admitted work is
    /// done.
    pub fn begin_drain(&self) {
        self.shared.begin_drain();
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start the scheduler.
    pub fn bind(addr: &str, cfg: SchedulerConfig) -> io::Result<Server> {
        let scheduler = Scheduler::new(cfg)?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            shared: Arc::new(Shared {
                scheduler,
                draining: AtomicBool::new(false),
                connections_active: AtomicUsize::new(0),
                connections_rejected: AtomicU64::new(0),
            }),
            listener,
            addr,
        })
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }

    /// Serve until `terminate` (or a drain handle) fires, then finish
    /// admitted jobs and return. Pass `sigshim::terminate_flag()` in
    /// production; tests pass their own flag.
    pub fn run(self, terminate: &AtomicBool) -> io::Result<()> {
        let Server {
            shared,
            listener,
            addr,
        } = self;
        // Set by whichever of the two threads ends first, for the other.
        let stop = AtomicBool::new(false);
        let served = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("deep-serve-drain".into())
                .spawn_scoped(scope, || watch_for_drain(&shared, terminate, &stop, addr))?;
            let served = accept_loop(&listener, &shared, &stop);
            // After a failed `accept` nothing else would end the watcher.
            stop.store(true, Ordering::SeqCst);
            served
        });
        // Workers are idle by now (the daemon is drained); stop them.
        // If a handle or a connection thread still holds a reference,
        // leaving workers parked is safe — every job is terminal and
        // the process is about to exit anyway.
        if let Ok(shared) = Arc::try_unwrap(shared) {
            shared.scheduler.shutdown();
        }
        served
    }
}

/// The side thread of [`Server::run`]: turn a raised `terminate` flag
/// into a drain, and the end of the drain into a connection that wakes
/// the blocked `accept`. It parks on the scheduler's condvar, which a
/// drain request and every finishing job notify.
fn watch_for_drain(shared: &Shared, terminate: &AtomicBool, stop: &AtomicBool, addr: SocketAddr) {
    while !stop.load(Ordering::SeqCst) {
        if terminate.load(Ordering::Relaxed) {
            shared.begin_drain();
        }
        if shared.scheduler.wait_drained(TERMINATE_POLL) {
            stop.store(true, Ordering::SeqCst);
            wake(addr);
            return;
        }
    }
}

/// Make the listener's blocked `accept` return by connecting to it. A
/// wildcard bind is reached over loopback. One successful connect is
/// enough — it sits in the backlog until accepted — and a failed one
/// (no descriptor left, say) is tried again.
fn wake(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    while TcpStream::connect(addr).is_err() {
        std::thread::park_timeout(TERMINATE_POLL);
    }
}

/// Block in `accept` and hand each connection to [`admit`] until the
/// drain watcher says stop.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, stop: &AtomicBool) -> io::Result<()> {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            // A peer that gave up between its connect and our accept
            // says nothing about the listener.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::ConnectionReset
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        };
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        admit(stream, shared);
    }
}

/// Give the connection a thread if a slot is free, otherwise refuse it.
fn admit(stream: TcpStream, shared: &Arc<Shared>) {
    if shared.connections_active.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
        return refuse(&stream, shared);
    }
    shared.connections_active.fetch_add(1, Ordering::Relaxed);
    let slot = Slot(Arc::clone(shared));
    // Shared with the thread so that this one can still answer when the
    // OS refuses the spawn, which drops the closure.
    let stream = Arc::new(stream);
    let theirs = Arc::clone(&stream);
    let spawned = std::thread::Builder::new()
        .name("deep-serve-conn".into())
        .spawn(move || {
            let timeouts = Timeouts {
                idle: IDLE_TIMEOUT,
                io: IO_TIMEOUT,
            };
            // Peer disconnects and timeouts are routine, not errors.
            let _ = serve_connection(&theirs, &slot.0, timeouts);
        });
    if spawned.is_err() {
        refuse(&stream, shared);
    }
}

/// One occupied connection slot, released when its thread ends.
struct Slot(Arc<Shared>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.connections_active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Answer `503` on the accept thread and close. The reply is a few
/// hundred bytes into the empty send buffer of a fresh socket, so the
/// write cannot block the listener.
fn refuse(stream: &TcpStream, shared: &Shared) {
    shared.connections_rejected.fetch_add(1, Ordering::Relaxed);
    let body = object([("error", "too many connections".into())]);
    let _ = Response::json(503, &body)
        .header("Retry-After", "1")
        .write_to(&mut BufWriter::new(stream), false);
}

/// Wait for the first byte of the next request. `Ok(false)` when the
/// peer closed the connection or stayed quiet for the read timeout.
fn next_request_began(reader: &mut BufReader<&TcpStream>) -> io::Result<bool> {
    loop {
        return match reader.fill_buf() {
            Ok(buffered) => Ok(!buffered.is_empty()),
            // A read with a timeout set is not restarted after a signal.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        };
    }
}

/// Handle one keep-alive connection until the peer closes, errors or
/// runs into a timeout.
fn serve_connection(stream: &TcpStream, shared: &Shared, timeouts: Timeouts) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(timeouts.io))?;
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    loop {
        stream.set_read_timeout(Some(timeouts.idle))?;
        if !next_request_began(&mut reader)? {
            return Ok(());
        }
        stream.set_read_timeout(Some(timeouts.io))?;
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
        match route(&req, shared) {
            Routed::Plain(resp) => resp.write_to(&mut writer, keep_alive)?,
            Routed::EventStream(watch) => {
                // Streaming takes over the connection; it ends with
                // the terminal event and closes.
                stream_events(&mut writer, &watch)?;
                return Ok(());
            }
        }
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Either an ordinary response or a switch to event streaming.
enum Routed<'a> {
    Plain(Response),
    EventStream(Watch<'a>),
}

/// A job document as a reply: the rendered result goes out from the
/// allocation the job record holds.
fn job_response(status: u16, job: JobJson) -> Response {
    Response::json_spliced(status, job.head, job.result, job.tail)
}

fn route<'a>(req: &Request, shared: &'a Shared) -> Routed<'a> {
    let scheduler = &shared.scheduler;
    let path = req.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let plain = |r: Response| Routed::Plain(r);
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => plain(submit(req, shared)),
        ("GET", ["jobs", id]) => match parse_id(id).and_then(|id| scheduler.job_json(id)) {
            Some(job) => plain(job_response(200, job)),
            None => plain(not_found()),
        },
        ("GET", ["jobs", id, "events"]) => match parse_id(id).and_then(|id| scheduler.watch(id)) {
            Some(watch) => Routed::EventStream(watch),
            None => plain(not_found()),
        },
        ("GET", ["healthz"]) => {
            let (queued, running, drain_flag) = scheduler.load();
            let body = object([
                ("status", "ok".into()),
                (
                    "draining",
                    (drain_flag || shared.draining.load(Ordering::Relaxed)).into(),
                ),
                ("jobs_queued", queued.into()),
                ("jobs_running", running.into()),
            ]);
            plain(Response::json(200, &body))
        }
        ("GET", ["metrics"]) => {
            let mut text = scheduler.metrics_text();
            let active = shared.connections_active.load(Ordering::Relaxed);
            let rejected = shared.connections_rejected.load(Ordering::Relaxed);
            text.push_str(&format!("deep_serve_connections_active {active}\n"));
            text.push_str(&format!(
                "deep_serve_connections_rejected_total {rejected}\n"
            ));
            plain(Response::text(200, &text))
        }
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

fn submit(req: &Request, shared: &Shared) -> Response {
    let scheduler = &shared.scheduler;
    if shared.draining.load(Ordering::Relaxed) {
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
            Some(job) => job_response(if admitted.cached { 200 } else { 202 }, job),
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
fn stream_events<W: Write>(writer: W, watch: &Watch<'_>) -> io::Result<()> {
    let mut out = ChunkedWriter::start(writer, "application/x-ndjson")?;
    let mut seen = 0usize;
    while let Some((fresh, terminal)) = watch.events_after(seen) {
        if !fresh.is_empty() {
            let mut payload = String::new();
            for ev in &fresh {
                payload.push_str(&ev.to_json());
                payload.push('\n');
            }
            seen += fresh.len();
            out.write_chunk(payload.as_bytes())?;
        }
        if terminal {
            break;
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::time::Instant;

    const SHORT: Duration = Duration::from_millis(60);
    const LONG: Duration = Duration::from_secs(20);

    /// A connected socket pair, the daemon's end being served with
    /// `timeouts` on a thread that reports how long it held its slot.
    fn serve(timeouts: Timeouts) -> (TcpStream, std::thread::JoinHandle<Duration>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let shared = Shared {
            scheduler: Scheduler::new(SchedulerConfig::default()).unwrap(),
            draining: AtomicBool::new(false),
            connections_active: AtomicUsize::new(0),
            connections_rejected: AtomicU64::new(0),
        };
        let served = std::thread::spawn(move || {
            let t0 = Instant::now();
            let _ = serve_connection(&stream, &shared, timeouts);
            let held = t0.elapsed();
            shared.scheduler.shutdown();
            held
        });
        (peer, served)
    }

    const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n";

    /// Read one reply; its status.
    fn read_reply(peer: &mut TcpStream) -> u16 {
        crate::http::read_response(&mut BufReader::new(peer))
            .unwrap()
            .status
    }

    #[test]
    fn a_silent_peer_loses_its_slot_after_the_idle_timeout() {
        let (peer, served) = serve(Timeouts {
            idle: SHORT,
            io: LONG,
        });
        let held = served.join().unwrap();
        assert!(held >= SHORT && held < LONG, "{held:?}");
        drop(peer);
    }

    #[test]
    fn a_peer_stalling_inside_a_request_loses_its_slot_after_the_io_timeout() {
        let (mut peer, served) = serve(Timeouts {
            idle: LONG,
            io: SHORT,
        });
        peer.write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n{\"sl")
            .unwrap();
        let held = served.join().unwrap();
        assert!(held >= SHORT && held < LONG, "{held:?}");
    }

    #[test]
    fn quiet_between_requests_is_exempt_from_the_io_timeout() {
        let (mut peer, served) = serve(Timeouts {
            idle: LONG,
            io: SHORT,
        });
        peer.write_all(HEALTHZ).unwrap();
        assert_eq!(read_reply(&mut peer), 200);
        // Stay quiet for three io timeouts: a read that times out on
        // our side of the idle connection is the clock.
        peer.set_read_timeout(Some(3 * SHORT)).unwrap();
        let quiet = peer.read(&mut [0u8; 1]).unwrap_err();
        assert!(matches!(
            quiet.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ));
        peer.write_all(HEALTHZ).unwrap();
        assert_eq!(read_reply(&mut peer), 200);
        drop(peer);
        assert!(served.join().unwrap() >= 3 * SHORT);
    }
}
