//! The harness's only window onto the host: wall clock, process CPU
//! time, peak memory and the host fingerprint.
//!
//! Every wall-clock read of the benchmark goes through [`now_ns`], so
//! the `deep-lint` ambient-authority rule has exactly one site to
//! justify; CPU time and memory come from `/proc/self` (no libc).

use std::sync::OnceLock;

// deep-lint: allow(ambient-authority) — the benchmark measures host wall time by design; this is its single clock site
static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();

/// Nanoseconds since the first call (made at the top of `main`, so
/// this is "since process start" to within the loader's few ms).
pub fn now_ns() -> u64 {
    // deep-lint: allow(ambient-authority) — see EPOCH above: the one wall-clock read of the harness
    let epoch = EPOCH.get_or_init(std::time::Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Seconds elapsed since `t0_ns` (a [`now_ns`] reading).
pub fn secs_since(t0_ns: u64) -> f64 {
    (now_ns() - t0_ns) as f64 * 1e-9
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat` fields 14 and 15. The kernel reports clock ticks;
/// every Linux ABI the toolchain targets fixes `USER_HZ` at 100.
pub fn cpu_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are
    // positional only after its closing parenthesis.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / USER_HZ
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, CPU model and commit of the measured tree, recorded beside
/// every result so two sets of numbers can be told apart.
pub fn host_fingerprint() -> (usize, String, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, model, commit())
}

/// HEAD of the repository the harness was built in, or `unknown` when
/// the checkout is not a git repository (the benchmark driver's is not).
fn commit() -> String {
    let git = crate::repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".to_string()
    } else {
        hash.chars().take(12).collect()
    }
}
