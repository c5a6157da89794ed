//! Job scheduler: bounded admission, per-client round-robin fairness,
//! compatible-sweep batching, and resmgr-style thread apportionment.
//!
//! The daemon is a tiny cluster in itself, so it reuses the paper's
//! resource-management ideas at host scale:
//!
//! * **Admission** is a bounded queue. A full queue rejects with
//!   [`Rejection::QueueFull`] (HTTP 429) and a drain-mode daemon with
//!   [`Rejection::Draining`] (HTTP 503) — explicit backpressure, never
//!   unbounded buffering.
//! * **Fairness** is round-robin over *clients*, not jobs: each client
//!   has its own FIFO and workers take the front job of the next
//!   client in rotation, so one tenant flooding the queue cannot
//!   starve another (the resmgr's fair time-slicing, one level up).
//! * **Batching**: compatible sweep jobs (same seed + replicas — see
//!   [`SweepConfig::compatible_with`]) claimed together merge into a
//!   single [`par_sweep`] invocation. Per-point results are pure
//!   functions of the point, so batching is invisible in the results
//!   and only visible in throughput.
//! * **Apportionment**: each running batch gets a slice of the
//!   machine's threads from [`deep_resmgr::assign::dynamic_shares`] —
//!   the booster's dynamic assignment policy deciding pool widths
//!   instead of booster nodes.
//! * **Memoisation**: results of cacheable specs land in a
//!   [`deep_json::cache::ResultCache`] keyed by the canonical config
//!   digest; a resubmission is served from memory without touching a
//!   worker.
//!
//! Wall-clock is used only for service-time *metadata* (never inside
//! job execution or digests), which is why `crates/serve` sits in the
//! same lint scope class as the bench binaries.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, LockResult, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use deep_bench::sweep::par_sweep;
use deep_core::resilience::mean_efficiency;
use deep_json::cache::ResultCache;
use deep_json::{object, Value};
use deep_resmgr::assign::dynamic_shares;

use crate::protocol::{JobRequest, JobSpec, SweepPoint};

/// Sweep points evaluated between two progress events.
const PROGRESS_CHUNK: usize = 64;
/// Most sweep jobs merged into one batch.
const MAX_BATCH_JOBS: usize = 8;

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded queue is full; retry after `retry_after_s`.
    QueueFull {
        /// Suggested client back-off, seconds.
        retry_after_s: u32,
    },
    /// The daemon is draining for shutdown and admits nothing.
    Draining,
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing (possibly inside a merged batch).
    Running,
    /// Finished successfully; `result` is set.
    Done,
    /// Execution panicked or failed; `error` is set.
    Failed,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// True once the job can no longer change.
    pub fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

/// One admitted job.
struct Job {
    id: u64,
    client: String,
    spec: JobSpec,
    digest_hex: Option<String>,
    state: JobState,
    cache_hit: bool,
    /// Other jobs merged into the same batch (0 = ran alone).
    batched_with: u32,
    /// Pool threads the batch executed on (0 until started).
    threads: u32,
    submitted_at: Instant,
    service_micros: Option<u64>,
    result: Option<Value>,
    error: Option<String>,
    events: Vec<Value>,
}

impl Job {
    fn push_event(&mut self, state: &str, extra: Vec<(&str, Value)>) {
        let mut members = vec![
            ("seq".to_string(), Value::from(self.events.len() as u64)),
            ("job".to_string(), Value::from(self.id)),
            ("state".to_string(), Value::from(state)),
        ];
        for (k, v) in extra {
            members.push((k.to_string(), v));
        }
        self.events.push(Value::Object(members));
    }

    fn to_json(&self) -> Value {
        object([
            ("id", self.id.into()),
            ("client", self.client.as_str().into()),
            ("state", self.state.as_str().into()),
            ("spec", self.spec.to_json()),
            (
                "digest",
                self.digest_hex
                    .as_ref()
                    .map_or(Value::Null, |d| d.as_str().into()),
            ),
            ("cache_hit", self.cache_hit.into()),
            ("batched_with", self.batched_with.into()),
            ("threads", self.threads.into()),
            (
                "service_micros",
                self.service_micros.map_or(Value::Null, Value::from),
            ),
            ("result", self.result.clone().unwrap_or(Value::Null)),
            (
                "error",
                self.error
                    .as_ref()
                    .map_or(Value::Null, |e| e.as_str().into()),
            ),
        ])
    }
}

/// Monotonic counters surfaced on `/metrics`.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    submitted: u64,
    completed: u64,
    failed: u64,
    cache_hits: u64,
    rejected_full: u64,
    rejected_drain: u64,
    batches: u64,
    batched_jobs: u64,
}

struct State {
    next_id: u64,
    jobs: BTreeMap<u64, Job>,
    /// Per-client FIFO of queued job ids.
    queues: BTreeMap<String, VecDeque<u64>>,
    /// Round-robin rotation of client names.
    rotation: VecDeque<String>,
    queued: usize,
    running: usize,
    /// `(lead job id, thread demand)` of every executing batch.
    running_demands: Vec<(u64, u32)>,
    draining: bool,
    shutdown: bool,
    cache: ResultCache,
    counters: Counters,
}

struct Inner {
    state: Mutex<State>,
    /// Workers park here while the queue is empty.
    work: Condvar,
    /// Status watchers (event streams, drain) park here.
    update: Condvar,
    /// Threads the whole daemon may use for simulation.
    pool_threads: u32,
    /// Most jobs allowed to wait in the queue.
    queue_bound: usize,
}

/// What `submit` tells the HTTP layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admitted {
    /// The new job's id.
    pub job_id: u64,
    /// True when the result came straight from the cache (the job is
    /// already terminal).
    pub cached: bool,
}

/// The scheduler handle: submission, inspection, drain.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

/// Everything `Scheduler::new` needs to know.
pub struct SchedulerConfig {
    /// Threads available for simulation work (≥ 1).
    pub pool_threads: u32,
    /// Bounded-queue depth; submissions beyond it get 429.
    pub queue_bound: usize,
    /// In-memory result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Optional on-disk spill directory for the cache.
    pub cache_dir: Option<PathBuf>,
    /// Worker threads draining the queue (batches run concurrently).
    pub workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            pool_threads: 2,
            queue_bound: 32,
            cache_capacity: 256,
            cache_dir: None,
            workers: 2,
        }
    }
}

impl Scheduler {
    /// Start the scheduler and its worker threads.
    pub fn new(cfg: SchedulerConfig) -> std::io::Result<Scheduler> {
        let cache = match &cfg.cache_dir {
            Some(dir) => ResultCache::with_spill_dir(cfg.cache_capacity, dir)?,
            None => ResultCache::new(cfg.cache_capacity),
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                next_id: 1,
                jobs: BTreeMap::new(),
                queues: BTreeMap::new(),
                rotation: VecDeque::new(),
                queued: 0,
                running: 0,
                running_demands: Vec::new(),
                draining: false,
                shutdown: false,
                cache,
                counters: Counters::default(),
            }),
            work: Condvar::new(),
            update: Condvar::new(),
            pool_threads: cfg.pool_threads.max(1),
            queue_bound: cfg.queue_bound.max(1),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("deep-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Scheduler { inner, workers })
    }

    /// Admit (or reject) one submission. Cache hits complete inline
    /// without occupying a worker.
    pub fn submit(&self, req: JobRequest) -> Result<Admitted, Rejection> {
        let started = Instant::now();
        let digest_key = req.spec.cacheable().then(|| {
            let spec_json = req.spec.to_json();
            (
                deep_json::digest::digest(&spec_json),
                deep_json::digest::digest_hex(&spec_json),
            )
        });
        let mut st = unpoisoned(self.inner.state.lock());
        if st.draining || st.shutdown {
            st.counters.rejected_drain += 1;
            return Err(Rejection::Draining);
        }
        // Serve from cache before consuming queue capacity: a hit is
        // not load, so it must not be subject to backpressure.
        if let Some((key, hex)) = &digest_key {
            if let Some(result) = st.cache.get(*key) {
                let id = st.next_id;
                st.next_id += 1;
                let mut job = Job {
                    id,
                    client: req.client,
                    spec: req.spec,
                    digest_hex: Some(hex.clone()),
                    state: JobState::Done,
                    cache_hit: true,
                    batched_with: 0,
                    threads: 0,
                    submitted_at: started,
                    service_micros: Some(started.elapsed().as_micros() as u64),
                    result: Some(result),
                    error: None,
                    events: Vec::new(),
                };
                job.push_event("queued", vec![]);
                job.push_event(
                    "done",
                    vec![
                        ("cache_hit", true.into()),
                        (
                            "service_micros",
                            Value::from(job.service_micros.unwrap_or(0)),
                        ),
                    ],
                );
                st.jobs.insert(id, job);
                st.counters.submitted += 1;
                st.counters.completed += 1;
                st.counters.cache_hits += 1;
                self.inner.update.notify_all();
                return Ok(Admitted {
                    job_id: id,
                    cached: true,
                });
            }
        }
        if st.queued >= self.inner.queue_bound {
            st.counters.rejected_full += 1;
            return Err(Rejection::QueueFull { retry_after_s: 1 });
        }
        let id = st.next_id;
        st.next_id += 1;
        let client = req.client.clone();
        let mut job = Job {
            id,
            client: client.clone(),
            spec: req.spec,
            digest_hex: digest_key.map(|(_, hex)| hex),
            state: JobState::Queued,
            cache_hit: false,
            batched_with: 0,
            threads: 0,
            submitted_at: started,
            service_micros: None,
            result: None,
            error: None,
            events: Vec::new(),
        };
        job.push_event("queued", vec![]);
        st.jobs.insert(id, job);
        st.counters.submitted += 1;
        st.queued += 1;
        if !st.queues.contains_key(&client) {
            st.rotation.push_back(client.clone());
        }
        st.queues.entry(client).or_default().push_back(id);
        self.inner.work.notify_one();
        self.inner.update.notify_all();
        Ok(Admitted {
            job_id: id,
            cached: false,
        })
    }

    /// Full JSON status of one job; `None` for unknown ids.
    pub fn job_json(&self, id: u64) -> Option<Value> {
        let st = unpoisoned(self.inner.state.lock());
        st.jobs.get(&id).map(Job::to_json)
    }

    /// Events of job `id` with `seq >= after`, plus whether the job is
    /// terminal. Blocks up to `wait` for news when there is none yet.
    pub fn events_after(
        &self,
        id: u64,
        after: usize,
        wait: Duration,
    ) -> Option<(Vec<Value>, bool)> {
        let mut st = unpoisoned(self.inner.state.lock());
        loop {
            let job = st.jobs.get(&id)?;
            let terminal = job.state.terminal();
            if job.events.len() > after || terminal || wait.is_zero() {
                let fresh = job.events.iter().skip(after).cloned().collect();
                return Some((fresh, terminal));
            }
            let (guard, timeout) = unpoisoned(self.inner.update.wait_timeout(st, wait));
            st = guard;
            if timeout.timed_out() {
                let job = st.jobs.get(&id)?;
                let fresh = job.events.iter().skip(after).cloned().collect();
                return Some((fresh, job.state.terminal()));
            }
        }
    }

    /// Queue/run gauges: `(queued, running, draining)`.
    pub fn load(&self) -> (usize, usize, bool) {
        let st = unpoisoned(self.inner.state.lock());
        (st.queued, st.running, st.draining)
    }

    /// Render the `/metrics` exposition text.
    pub fn metrics_text(&self) -> String {
        let st = unpoisoned(self.inner.state.lock());
        let c = st.counters;
        let cache = st.cache.stats();
        let mut out = String::new();
        let mut put = |name: &str, v: u64| {
            out.push_str(&format!("deep_serve_{name} {v}\n"));
        };
        put("jobs_submitted_total", c.submitted);
        put("jobs_completed_total", c.completed);
        put("jobs_failed_total", c.failed);
        put("jobs_cache_hits_total", c.cache_hits);
        put("jobs_rejected_queue_full_total", c.rejected_full);
        put("jobs_rejected_draining_total", c.rejected_drain);
        put("batches_total", c.batches);
        put("batched_jobs_total", c.batched_jobs);
        put("queue_depth", st.queued as u64);
        put("jobs_running", st.running as u64);
        put("draining", u64::from(st.draining));
        put("cache_entries", st.cache.len() as u64);
        put("cache_memory_hits_total", cache.hits);
        put("cache_disk_hits_total", cache.disk_hits);
        put("cache_misses_total", cache.misses);
        put("cache_evictions_total", cache.evictions);
        out
    }

    /// Stop admitting jobs; everything already admitted still runs.
    pub fn drain(&self) {
        let mut st = unpoisoned(self.inner.state.lock());
        st.draining = true;
        self.inner.work.notify_all();
        self.inner.update.notify_all();
    }

    /// True once draining and no queued or running work remains.
    pub fn drained(&self) -> bool {
        let st = unpoisoned(self.inner.state.lock());
        st.draining && st.queued == 0 && st.running == 0
    }

    /// Block until every admitted job reached a terminal state (used
    /// by SIGTERM handling after [`Scheduler::drain`]).
    pub fn wait_idle(&self) {
        let mut st = unpoisoned(self.inner.state.lock());
        while st.queued > 0 || st.running > 0 {
            st = unpoisoned(self.inner.update.wait(st));
        }
    }

    /// Drain, wait for in-flight work, stop the workers, join them.
    pub fn shutdown(mut self) {
        self.drain();
        self.wait_idle();
        {
            let mut st = unpoisoned(self.inner.state.lock());
            st.shutdown = true;
            self.inner.work.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One unit of worker execution: the lead job plus any sweep jobs
/// merged with it.
struct Batch {
    /// `(job id, points)` — non-sweep leads carry an empty point list.
    members: Vec<(u64, Vec<SweepPoint>)>,
    lead_spec: JobSpec,
    /// Shared sweep seed/replicas (sweep batches only).
    seed: u64,
    replicas: u32,
    /// Pool threads granted by the apportionment policy.
    threads: u32,
}

fn worker_loop(inner: &Inner) {
    loop {
        let batch = {
            let mut st = unpoisoned(inner.state.lock());
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(batch) = claim_batch(inner, &mut st) {
                    break batch;
                }
                st = unpoisoned(inner.work.wait(st));
            }
        };
        execute_batch(inner, batch);
    }
}

/// Take the next batch off the queues: round-robin over clients for
/// the lead job, then merge compatible queued sweeps (any client —
/// merging shortens everyone's wait, so it does not undercut
/// fairness).
fn claim_batch(inner: &Inner, st: &mut State) -> Option<Batch> {
    // Rotate to the next client that still has queued work.
    let lead_id = loop {
        let client = st.rotation.pop_front()?;
        match st.queues.get_mut(&client).and_then(VecDeque::pop_front) {
            Some(id) => {
                if st.queues.get(&client).is_some_and(|q| q.is_empty()) {
                    st.queues.remove(&client);
                } else {
                    st.rotation.push_back(client);
                }
                break id;
            }
            None => {
                // Stale rotation entry; drop it and keep looking.
                st.queues.remove(&client);
            }
        }
    };
    // A queued id with no job record is an admission bug; skip the
    // claim rather than abort every worker behind this mutex.
    let lead_spec = st.jobs.get(&lead_id)?.spec.clone();
    let mut members = Vec::new();
    let (seed, replicas) = match &lead_spec {
        JobSpec::Sweep(cfg) => {
            members.push((lead_id, cfg.points.clone()));
            (cfg.seed, cfg.replicas)
        }
        _ => {
            members.push((lead_id, Vec::new()));
            (0, 0)
        }
    };
    // Merge: claim other queued sweeps with the same RNG configuration.
    if let JobSpec::Sweep(lead_cfg) = &lead_spec {
        let mut claimed: Vec<(String, u64)> = Vec::new();
        'scan: for (client, q) in st.queues.iter() {
            for &id in q.iter() {
                if members.len() >= MAX_BATCH_JOBS {
                    break 'scan;
                }
                if let Some(JobSpec::Sweep(cfg)) = st.jobs.get(&id).map(|j| &j.spec) {
                    if lead_cfg.compatible_with(cfg) {
                        claimed.push((client.clone(), id));
                        members.push((id, cfg.points.clone()));
                    }
                }
            }
        }
        for (client, id) in claimed {
            if let Some(q) = st.queues.get_mut(&client) {
                q.retain(|&j| j != id);
                if q.is_empty() {
                    st.queues.remove(&client);
                    st.rotation.retain(|c| c != &client);
                }
            }
        }
    }

    // Apportion pool threads across the batches now running, via the
    // booster-assignment policy. Our demand is the work width; clamp
    // the grant to ≥ 1 so a saturated machine degrades to time-slicing
    // instead of starvation.
    let demand = match &lead_spec {
        JobSpec::Sweep(_) => {
            let points: usize = members.iter().map(|(_, p)| p.len()).sum();
            (points as u32).clamp(1, inner.pool_threads)
        }
        JobSpec::Experiment(_) => inner.pool_threads,
        // Scenario sweeps parallelise across their points with the
        // batch's pool, like experiments.
        JobSpec::Scenario(_) => inner.pool_threads,
        JobSpec::SleepMs(_) => 1,
    };
    let mut demands: Vec<u32> = st.running_demands.iter().map(|&(_, d)| d).collect();
    demands.push(demand);
    let threads = dynamic_shares(inner.pool_threads, &demands)
        .pop()
        .unwrap_or(1)
        .max(1);
    st.running_demands.push((lead_id, demand));

    let batch_size = members.len();
    for &(id, _) in &members {
        let Some(job) = st.jobs.get_mut(&id) else {
            continue;
        };
        st.queued -= 1;
        st.running += 1;
        job.state = JobState::Running;
        job.batched_with = (batch_size - 1) as u32;
        job.threads = threads;
        job.push_event(
            "started",
            vec![
                ("batched_with", ((batch_size - 1) as u64).into()),
                ("threads", threads.into()),
            ],
        );
    }
    if batch_size > 1 {
        st.counters.batched_jobs += batch_size as u64;
    }
    st.counters.batches += 1;
    inner.update.notify_all();
    Some(Batch {
        members,
        lead_spec,
        seed,
        replicas,
        threads,
    })
}

/// The one place this module unwraps a lock or condvar result. Job
/// evaluation runs outside the lock, inside `catch_unwind`, so poison
/// can only come from a panic in the scheduler's own bookkeeping.
#[expect(
    clippy::expect_used,
    reason = "poison means a thread panicked while updating the scheduler state: the queue \
              invariants are gone, so every thread touching it fails too (fail-stop)"
)]
fn unpoisoned<T>(result: LockResult<T>) -> T {
    result.expect("scheduler state poisoned: a thread panicked while holding it")
}

/// A dedicated pool for one batch's thread share. Call it inside
/// `catch_unwind`: a failed OS thread spawn panics inside the pool.
fn build_pool(threads: u32) -> Result<rayon::ThreadPool, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads as usize)
        .build()
        .map_err(|e| format!("worker pool: {e}"))
}

fn execute_batch(inner: &Inner, batch: Batch) {
    match &batch.lead_spec {
        JobSpec::Sweep(_) => execute_sweep_batch(inner, &batch),
        JobSpec::Experiment(name) => {
            let id = batch.members[0].0;
            let threads = batch.threads;
            let name = name.clone();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                build_pool(threads)
                    .map(|pool| pool.install(|| deep_bench::experiments::run_to_string(&name)))
            }));
            match outcome {
                Ok(Ok(Some(output))) => {
                    let result = object([
                        ("experiment", name.as_str().into()),
                        ("output", output.into()),
                    ]);
                    finish_job(inner, id, Ok(result));
                }
                Ok(Ok(None)) => {
                    finish_job(inner, id, Err(format!("unknown experiment '{name}'")));
                }
                Ok(Err(e)) => finish_job(inner, id, Err(e)),
                Err(_) => {
                    finish_job(inner, id, Err(format!("experiment '{name}' panicked")));
                }
            }
        }
        JobSpec::Scenario(doc) => {
            let id = batch.members[0].0;
            let threads = batch.threads;
            let doc = doc.clone();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // Admission already validated the document; re-parse
                // to obtain the typed form (cheap next to evaluation).
                let sc = deep_scenario::Scenario::from_value(&doc)
                    .map_err(|e| format!("scenario: {e}"))?;
                let pool = build_pool(threads)?;
                Ok(pool.install(|| deep_scenario::execute(&sc)))
            }));
            match outcome {
                Ok(result) => finish_job(inner, id, result),
                Err(_) => finish_job(inner, id, Err("scenario evaluation panicked".to_string())),
            }
        }
        JobSpec::SleepMs(ms) => {
            let id = batch.members[0].0;
            std::thread::sleep(Duration::from_millis(*ms));
            finish_job(inner, id, Ok(object([("slept_ms", (*ms).into())])));
        }
    }
    // This batch no longer holds its thread share.
    let mut st = unpoisoned(inner.state.lock());
    let lead = batch.members[0].0;
    st.running_demands.retain(|&(id, _)| id != lead);
}

/// Evaluate a merged sweep batch: one flat point list, one pool,
/// chunked for progress events. Each point is a pure function of
/// `(params, interval, seed, replicas)`, so neither merging nor
/// chunking can change any result.
fn execute_sweep_batch(inner: &Inner, batch: &Batch) {
    let flat: Vec<(usize, SweepPoint)> = batch
        .members
        .iter()
        .enumerate()
        .flat_map(|(m, (_, points))| points.iter().map(move |&p| (m, p)))
        .collect();
    let totals: Vec<usize> = batch.members.iter().map(|(_, p)| p.len()).collect();
    let seed = batch.seed;
    let replicas = batch.replicas;
    let threads = batch.threads;

    let pool = match catch_unwind(AssertUnwindSafe(|| build_pool(threads)))
        .unwrap_or_else(|_| Err("worker pool construction panicked".to_string()))
    {
        Ok(pool) => pool,
        Err(e) => {
            for &(id, _) in &batch.members {
                finish_job(inner, id, Err(e.clone()));
            }
            return;
        }
    };

    // Per-member accumulators, filled chunk by chunk in point order.
    let mut per_member: Vec<Vec<Value>> = totals.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut done: Vec<usize> = vec![0; batch.members.len()];
    let mut failed = false;
    for chunk in flat.chunks(PROGRESS_CHUNK) {
        let evaluated = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                par_sweep(chunk, |_, &(_, point)| {
                    let mean = mean_efficiency(&point.params(), point.interval_s, seed, replicas);
                    (mean.efficiency, mean.truncated_runs)
                })
            })
        }));
        let Ok(results) = evaluated else {
            failed = true;
            break;
        };
        let mut st = unpoisoned(inner.state.lock());
        for (&(member, _), (eff, trunc)) in chunk.iter().zip(results) {
            per_member[member].push(object([
                ("efficiency", eff.into()),
                ("truncated_runs", trunc.into()),
            ]));
            done[member] += 1;
        }
        for (m, &(id, _)) in batch.members.iter().enumerate() {
            if done[m] > 0 && done[m] < totals[m] {
                let Some(job) = st.jobs.get_mut(&id) else {
                    continue;
                };
                job.push_event(
                    "progress",
                    vec![
                        ("done", (done[m] as u64).into()),
                        ("total", (totals[m] as u64).into()),
                    ],
                );
            }
        }
        inner.update.notify_all();
        drop(st);
        // Members whose points are all evaluated finish immediately —
        // they do not wait for the rest of the batch.
        for (m, &(id, _)) in batch.members.iter().enumerate() {
            if done[m] == totals[m] && !per_member[m].is_empty() {
                let points = std::mem::take(&mut per_member[m]);
                finish_job(inner, id, Ok(object([("points", Value::Array(points))])));
            }
        }
    }
    if failed {
        for (m, &(id, _)) in batch.members.iter().enumerate() {
            if done[m] < totals[m] || !per_member[m].is_empty() {
                finish_job(inner, id, Err("sweep evaluation panicked".into()));
            }
        }
    }
}

/// Record a terminal state, cache the result, and wake watchers.
fn finish_job(inner: &Inner, id: u64, outcome: Result<Value, String>) {
    let mut st = unpoisoned(inner.state.lock());
    // Finishing an id with no job record is a bookkeeping bug; drop the
    // result rather than abort the worker that holds the state mutex.
    let Some(job) = st.jobs.get_mut(&id) else {
        return;
    };
    let micros = job.submitted_at.elapsed().as_micros() as u64;
    job.service_micros = Some(micros);
    let cache_insert = match outcome {
        Ok(result) => {
            job.state = JobState::Done;
            job.result = Some(result.clone());
            job.push_event(
                "done",
                vec![
                    ("cache_hit", false.into()),
                    ("service_micros", micros.into()),
                ],
            );
            job.spec.cacheable().then(|| {
                let key = deep_json::digest::digest(&job.spec.to_json());
                (key, result)
            })
        }
        Err(error) => {
            job.state = JobState::Failed;
            job.error = Some(error.clone());
            job.push_event("failed", vec![("error", error.into())]);
            None
        }
    };
    let succeeded = job.state == JobState::Done;
    st.running -= 1;
    if succeeded {
        st.counters.completed += 1;
    } else {
        st.counters.failed += 1;
    }
    if let Some((key, result)) = cache_insert {
        // Spill failures must not fail the job; the in-memory insert
        // always stands.
        let _ = st.cache.insert(key, result);
    }
    inner.update.notify_all();
    inner.work.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment(client: &str, name: &str) -> JobRequest {
        JobRequest {
            client: client.to_string(),
            spec: JobSpec::Experiment(name.to_string()),
        }
    }

    fn wait_terminal(s: &Scheduler, id: u64) -> Value {
        let mut seen = 0;
        loop {
            let (fresh, terminal) = s
                .events_after(id, seen, Duration::from_millis(200))
                .unwrap();
            seen += fresh.len();
            if terminal {
                return s.job_json(id).unwrap();
            }
        }
    }

    #[test]
    fn runs_an_experiment_and_caches_the_resubmission() {
        let s = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        })
        .unwrap();
        let a = s.submit(experiment("t", "f02_evolution")).unwrap();
        assert!(!a.cached);
        let done = wait_terminal(&s, a.job_id);
        assert_eq!(done["state"], "done");
        assert!(done["result"]["output"]
            .as_str()
            .unwrap()
            .contains("### F02"));
        // Resubmission: cache hit, terminal immediately, same bytes.
        let b = s.submit(experiment("other", "f02_evolution")).unwrap();
        assert!(b.cached);
        let hit = s.job_json(b.job_id).unwrap();
        assert_eq!(hit["state"], "done");
        assert_eq!(hit["cache_hit"].as_bool(), Some(true));
        assert_eq!(
            hit["result"].to_json(),
            done["result"].to_json(),
            "cache hit must be byte-identical"
        );
        s.shutdown();
    }

    #[test]
    fn queue_bound_rejects_with_retry_after() {
        let s = Scheduler::new(SchedulerConfig {
            queue_bound: 2,
            workers: 1,
            ..SchedulerConfig::default()
        })
        .unwrap();
        // One slow job occupies the worker; fill the queue behind it.
        let _running = s
            .submit(JobRequest {
                client: "t".into(),
                spec: JobSpec::SleepMs(300),
            })
            .unwrap();
        let mut admitted = 0;
        let mut rejected = None;
        for _ in 0..8 {
            match s.submit(JobRequest {
                client: "t".into(),
                spec: JobSpec::SleepMs(1),
            }) {
                Ok(_) => admitted += 1,
                Err(r) => {
                    rejected = Some(r);
                    break;
                }
            }
        }
        assert!(admitted <= 2, "bound 2 admitted {admitted}");
        assert_eq!(rejected, Some(Rejection::QueueFull { retry_after_s: 1 }));
        s.shutdown();
    }

    #[test]
    fn drain_rejects_new_work_but_finishes_admitted_work() {
        let s = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        })
        .unwrap();
        let a = s.submit(experiment("t", "f02_evolution")).unwrap();
        s.drain();
        assert_eq!(
            s.submit(experiment("t", "f02_evolution")),
            Err(Rejection::Draining)
        );
        s.wait_idle();
        assert_eq!(s.job_json(a.job_id).unwrap()["state"], "done");
        assert!(s.drained());
        s.shutdown();
    }

    #[test]
    fn round_robin_interleaves_clients() {
        // One worker, one greedy client with many jobs, one modest
        // client with one job submitted after: the modest client's job
        // must run second, not last.
        let s = Scheduler::new(SchedulerConfig {
            workers: 1,
            queue_bound: 16,
            ..SchedulerConfig::default()
        })
        .unwrap();
        // Park the worker so submissions below queue deterministically.
        s.submit(JobRequest {
            client: "warm".into(),
            spec: JobSpec::SleepMs(200),
        })
        .unwrap();
        let greedy: Vec<u64> = (0..3)
            .map(|_| {
                s.submit(JobRequest {
                    client: "greedy".into(),
                    spec: JobSpec::SleepMs(1),
                })
                .unwrap()
                .job_id
            })
            .collect();
        let modest = s
            .submit(JobRequest {
                client: "modest".into(),
                spec: JobSpec::SleepMs(1),
            })
            .unwrap()
            .job_id;
        for id in greedy.iter().chain([&modest]) {
            wait_terminal(&s, *id);
        }
        let finish_micros = |id: u64| {
            s.job_json(id).unwrap()["service_micros"]
                .as_u64()
                .expect("terminal job has service time")
        };
        // The modest job (submitted last) must finish before greedy's
        // second and third jobs: round-robin, not FIFO.
        assert!(
            finish_micros(modest) < finish_micros(greedy[2]),
            "round-robin must not let one client monopolise the worker"
        );
        s.shutdown();
    }

    #[test]
    fn compatible_sweeps_batch_and_results_match_direct_evaluation() {
        let point = SweepPoint {
            work_s: 10_000.0,
            n_nodes: 640,
            mtbf_node_s: 5.0 * 365.0 * 86_400.0,
            checkpoint_s: 120.0,
            restart_s: 300.0,
            interval_s: 3600.0,
        };
        let mut p2 = point;
        p2.interval_s = 1800.0;
        let sweep = |points: Vec<SweepPoint>| JobRequest {
            client: "t".into(),
            spec: JobSpec::Sweep(crate::protocol::SweepConfig {
                seed: 7,
                replicas: 3,
                points,
            }),
        };
        let s = Scheduler::new(SchedulerConfig {
            workers: 1,
            ..SchedulerConfig::default()
        })
        .unwrap();
        // Park the worker so both sweeps are queued simultaneously and
        // the claim merges them into one batch.
        s.submit(JobRequest {
            client: "warm".into(),
            spec: JobSpec::SleepMs(200),
        })
        .unwrap();
        let a = s.submit(sweep(vec![point])).unwrap().job_id;
        let b = s.submit(sweep(vec![p2])).unwrap().job_id;
        let ja = wait_terminal(&s, a);
        let jb = wait_terminal(&s, b);
        assert_eq!(ja["batched_with"].as_u64(), Some(1), "sweeps must merge");
        assert_eq!(jb["batched_with"].as_u64(), Some(1));
        // Batched results must equal direct evaluation bit-for-bit.
        for (j, pt) in [(&ja, &point), (&jb, &p2)] {
            let direct = mean_efficiency(&pt.params(), pt.interval_s, 7, 3);
            assert_eq!(
                j["result"]["points"][0]["efficiency"].as_f64().unwrap(),
                direct.efficiency,
                "batching changed a result"
            );
        }
        s.shutdown();
    }

    #[test]
    fn metrics_expose_the_counters() {
        let s = Scheduler::new(SchedulerConfig::default()).unwrap();
        let a = s.submit(experiment("t", "f02_evolution")).unwrap();
        wait_terminal(&s, a.job_id);
        s.submit(experiment("t", "f02_evolution")).unwrap();
        let text = s.metrics_text();
        assert!(text.contains("deep_serve_jobs_submitted_total 2"), "{text}");
        assert!(
            text.contains("deep_serve_jobs_cache_hits_total 1"),
            "{text}"
        );
        s.shutdown();
    }
}
