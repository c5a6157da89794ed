//! SIGTERM against the real `deep-serve` binary: the listener blocks in
//! `accept`, which a signal does not interrupt, so it is the drain
//! watcher that has to see the flag and wake it. Idle or with a job in
//! flight, the daemon must drain and exit 0 — promptly. The real
//! `deep-submit` binary is driven against it here too.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use deep_serve::client::{ServeClient, Submitted};

/// Start the daemon on a free port; the child and its address.
fn spawn_daemon() -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_deep-serve"))
        .args(["--addr", "127.0.0.1:0", "--threads", "1", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn deep-serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("startup line");
    let addr = line
        .trim()
        .strip_prefix("deep-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line {line:?}"))
        .to_string();
    (child, addr)
}

fn signal(name: &str, child: &Child) {
    let sent = Command::new("kill")
        .args([name, &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(sent.success(), "kill {name} failed");
}

/// The child's exit status, or a panic (after killing it) when it is
/// still running after `limit`.
fn exit_within(mut child: Child, limit: Duration) -> ExitStatus {
    let pid = child.id().to_string();
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(child.wait());
    });
    let Ok(status) = rx.recv_timeout(limit) else {
        let _ = Command::new("kill").args(["-KILL", &pid]).status();
        let _ = waiter.join();
        panic!("deep-serve still running {limit:?} after SIGTERM");
    };
    waiter.join().expect("waiter thread");
    status.expect("wait for deep-serve")
}

#[test]
fn sigterm_ends_an_idle_daemon_with_exit_0() {
    let (child, addr) = spawn_daemon();
    // Served once, then nothing connected: the daemon sits in `accept`.
    ServeClient::connect(&addr)
        .expect("connect")
        .healthz()
        .expect("healthz");
    signal("-TERM", &child);
    let status = exit_within(child, Duration::from_secs(2));
    assert_eq!(status.code(), Some(0), "{status:?}");
}

#[test]
fn sigterm_lets_the_job_in_flight_finish_then_exits_0() {
    let (child, addr) = spawn_daemon();
    let mut client = ServeClient::connect(&addr).expect("connect");
    let submitted_at = Instant::now();
    let id = match client.submit_raw(r#"{"sleep_ms":300}"#).expect("submit") {
        Submitted::Job(job) => job["id"].as_u64().expect("id"),
        other => panic!("expected admission, got {other:?}"),
    };
    // Follow the job from a second connection; the first event says the
    // stream is attached, which is when the signal goes out.
    let (attached_tx, attached_rx) = mpsc::channel();
    let watcher = std::thread::spawn(move || {
        let mut states = Vec::new();
        ServeClient::connect(&addr)
            .expect("watcher connect")
            .watch_events(id, |ev| {
                states.push(ev["state"].as_str().unwrap_or("?").to_string());
                let _ = attached_tx.send(());
            })
            .expect("event stream runs to its end");
        states
    });
    attached_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("watcher attached");
    signal("-TERM", &child);

    let status = exit_within(child, Duration::from_secs(2));
    assert_eq!(status.code(), Some(0), "{status:?}");
    assert!(
        submitted_at.elapsed() >= Duration::from_millis(300),
        "the daemon exited before its job can have finished"
    );
    // The drain waited for the job, and for the watcher to be told.
    let states = watcher.join().expect("watcher thread");
    assert_eq!(
        states.last().map(String::as_str),
        Some("done"),
        "{states:?}"
    );
}

#[test]
fn deep_submit_sends_an_experiment_name_with_quotes_as_a_string() {
    let (child, addr) = spawn_daemon();
    let submit = |name: &str| {
        Command::new(env!("CARGO_BIN_EXE_deep-submit"))
            .args(["--addr", &addr, "--retries", "0", "--experiment", name])
            .output()
            .expect("run deep-submit")
    };
    let outputs = [r#"no"such"#, r"back\slash"].map(submit);
    signal("-TERM", &child);
    let status = exit_within(child, Duration::from_secs(2));
    assert_eq!(status.code(), Some(0), "{status:?}");
    for out in outputs {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("unknown experiment"), "{stderr}");
    }
}
