//! Job scheduler: bounded admission, per-client round-robin fairness,
//! and resmgr-style thread apportionment around one job entry point.
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
//! * **One way to run a job**: a worker claims one job and runs
//!   `evaluate` on a pool of the job's thread share, inside the only
//!   `catch_unwind` of this module. Every job kind takes that path.
//! * **Apportionment**: each running job gets a slice of the machine's
//!   threads from [`deep_resmgr::assign::dynamic_shares`] — the
//!   booster's dynamic assignment policy deciding pool widths instead
//!   of booster nodes.
//! * **Memoisation**: results of cacheable specs land in a
//!   [`deep_json::cache::ResultCache`] keyed by the canonical config
//!   digest; a resubmission is served from memory without touching a
//!   worker.
//! * **A result is rendered once and stored once**: the worker prints
//!   the finished `Value` — outside the state mutex — to the exact
//!   text a response carries, and that one `Arc<str>` is what the cache
//!   entry, the job record, every later hit's record and every response
//!   body hold ([`JobJson`]).
//! * **Bounded history**: every queued or running job is kept, plus the
//!   [`JOB_HISTORY`] most recently finished ones; a record that falls
//!   out is dropped and its id answers 404.
//!
//! Wall-clock is used only for service-time *metadata* (never inside
//! job execution or digests), which is why `crates/serve` sits in the
//! same lint scope class as the bench binaries.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, LockResult, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use deep_bench::experiments::panic_message;
use deep_core::resilience::mean_efficiency_batch;
use deep_json::cache::ResultCache;
use deep_json::{object, Value};
use deep_resmgr::assign::dynamic_shares;

use crate::protocol::{JobRequest, JobSpec};

/// Sweep points evaluated between two progress events.
const PROGRESS_CHUNK: usize = 64;

/// Finished job records kept for `GET /jobs/:id`. Queued and running
/// jobs are kept on top of it, so the table holds at most this many
/// plus the queue bound plus the workers.
pub const JOB_HISTORY: usize = 4096;

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
    /// Executing on a worker.
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
    /// Canonical digest of the spec (`None` for uncacheable specs),
    /// computed once at admission.
    cache_key: Option<u64>,
    state: JobState,
    cache_hit: bool,
    /// Pool threads the job executed on (0 until started).
    threads: u32,
    submitted_at: Instant,
    service_micros: Option<u64>,
    /// The result as a response carries it — pretty-printed, nested
    /// one level — in the allocation its cache entry and every hit on
    /// it share.
    result: Option<Arc<str>>,
    error: Option<String>,
    events: Vec<Value>,
}

/// A job's status document in three pieces that concatenate to the
/// pretty-printed job object, so that a response carries the result
/// without copying it.
pub struct JobJson {
    /// Everything up to and including `"result": `, and the `null` of
    /// a job that has no result.
    pub head: String,
    /// The rendered result, shared with the job record and the cache.
    pub result: Option<Arc<str>>,
    /// The `error` member and the closing brace.
    pub tail: String,
}

impl fmt::Display for JobJson {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.head)?;
        f.write_str(self.result.as_deref().unwrap_or(""))?;
        f.write_str(&self.tail)
    }
}

/// Render a finished result the way it reads as the `result` member of
/// the job object. Called without the state mutex.
fn render_result(result: &Value) -> Arc<str> {
    result.to_json_pretty_at(1).into()
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

    /// Enter `Done` with `result`, `micros` after submission.
    fn complete(&mut self, result: Arc<str>, micros: u64) {
        self.state = JobState::Done;
        self.service_micros = Some(micros);
        self.result = Some(result);
        self.push_event(
            "done",
            vec![
                ("cache_hit", self.cache_hit.into()),
                ("service_micros", micros.into()),
            ],
        );
    }

    /// The members before `result`, which are small.
    fn head_members(&self) -> Vec<(String, Value)> {
        let members = [
            ("id", self.id.into()),
            ("client", self.client.as_str().into()),
            ("state", self.state.as_str().into()),
            ("spec", self.spec.to_json()),
            (
                "digest",
                self.cache_key
                    .map_or(Value::Null, |key| format!("{key:016x}").into()),
            ),
            ("cache_hit", self.cache_hit.into()),
            ("threads", self.threads.into()),
            (
                "service_micros",
                self.service_micros.map_or(Value::Null, Value::from),
            ),
        ];
        members.map(|(k, v)| (k.to_string(), v)).into()
    }

    fn error_json(&self) -> Value {
        self.error
            .as_ref()
            .map_or(Value::Null, |e| e.as_str().into())
    }

    /// The job object with the rendered result spliced in, not copied:
    /// the text is what printing the whole object as one tree gives
    /// (`tests::spliced_job_json_is_the_printed_tree`).
    fn json(&self) -> JobJson {
        let mut head = Value::Object(self.head_members()).to_json_pretty();
        // The head object closes with "\n}"; the document goes on.
        head.truncate(head.len() - 2);
        head.push_str(",\n  \"result\": ");
        if self.result.is_none() {
            head.push_str("null");
        }
        JobJson {
            head,
            result: self.result.clone(),
            tail: format!(",\n  \"error\": {}\n}}", self.error_json().to_json()),
        }
    }

    /// The job object as one tree, printed by the one printer — what
    /// the daemon sent before results were rendered once; [`Job::json`]
    /// must equal it byte for byte.
    #[cfg(test)]
    fn reference_json(&self, result: Option<&Value>) -> Value {
        let mut members = self.head_members();
        members.push(("result".into(), result.cloned().unwrap_or(Value::Null)));
        members.push(("error".into(), self.error_json()));
        Value::Object(members)
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
    evicted: u64,
}

struct State {
    next_id: u64,
    jobs: BTreeMap<u64, Job>,
    /// Ids of the finished jobs in `jobs`, oldest finish first.
    finished: VecDeque<u64>,
    /// Per-client FIFO of queued job ids.
    queues: BTreeMap<String, VecDeque<u64>>,
    /// Round-robin rotation of client names.
    rotation: VecDeque<String>,
    queued: usize,
    running: usize,
    /// `(job id, thread demand)` of every executing job.
    running_demands: Vec<(u64, u32)>,
    draining: bool,
    shutdown: bool,
    /// Event streams attached right now ([`Watch`]).
    watchers: usize,
    cache: ResultCache,
    counters: Counters,
}

impl State {
    /// Draining, every admitted job terminal, and every attached event
    /// stream told so.
    fn drained(&self) -> bool {
        self.draining && self.queued == 0 && self.running == 0 && self.watchers == 0
    }

    /// Enter the just-finished job `id` into the history of `cap`
    /// finished jobs. Returns the record that fell out of it, for the
    /// caller to free once the mutex is released.
    fn retire(&mut self, id: u64, cap: usize) -> Option<Job> {
        self.finished.push_back(id);
        if self.finished.len() <= cap {
            return None;
        }
        self.counters.evicted += 1;
        let oldest = self.finished.pop_front()?;
        self.jobs.remove(&oldest)
    }
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
    /// Finished job records kept; [`JOB_HISTORY`] outside tests.
    job_history: usize,
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

/// An attached event stream. The daemon is not drained while one is
/// open, so a watcher reads how its job ended before the process exits.
pub struct Watch<'a> {
    scheduler: &'a Scheduler,
    id: u64,
}

impl Watch<'_> {
    /// [`Scheduler::events_after`] of the watched job.
    pub fn events_after(&self, after: usize) -> Option<(Vec<Value>, bool)> {
        self.scheduler.events_after(self.id, after)
    }
}

impl Drop for Watch<'_> {
    fn drop(&mut self) {
        // `Drop` must not panic; a count is valid in a poisoned state.
        let inner = &self.scheduler.inner;
        let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
        st.watchers -= 1;
        inner.update.notify_all();
    }
}

/// Everything `Scheduler::new` needs to know.
pub struct SchedulerConfig {
    /// Threads available for simulation work (≥ 1).
    pub pool_threads: u32,
    /// Bounded-queue depth; submissions beyond it get 429.
    pub queue_bound: usize,
    /// In-memory result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Worker threads draining the queue (jobs run concurrently).
    pub workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            pool_threads: 2,
            queue_bound: 32,
            cache_capacity: 256,
            workers: 2,
        }
    }
}

/// Progress callback of [`evaluate`]: `(units done, units total)`.
type OnProgress<'a> = &'a mut (dyn FnMut(usize, usize) + Send);
/// What a worker runs on a claimed job; [`evaluate`] outside tests.
type Evaluator = fn(&JobSpec, OnProgress<'_>) -> Result<Value, String>;

impl Scheduler {
    /// Start the scheduler and its worker threads.
    pub fn new(cfg: SchedulerConfig) -> std::io::Result<Scheduler> {
        Scheduler::with_evaluator(cfg, evaluate, JOB_HISTORY)
    }

    fn with_evaluator(
        cfg: SchedulerConfig,
        evaluator: Evaluator,
        job_history: usize,
    ) -> std::io::Result<Scheduler> {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                next_id: 1,
                jobs: BTreeMap::new(),
                finished: VecDeque::new(),
                queues: BTreeMap::new(),
                rotation: VecDeque::new(),
                queued: 0,
                running: 0,
                running_demands: Vec::new(),
                draining: false,
                shutdown: false,
                watchers: 0,
                cache: ResultCache::new(cfg.cache_capacity),
                counters: Counters::default(),
            }),
            work: Condvar::new(),
            update: Condvar::new(),
            pool_threads: cfg.pool_threads.max(1),
            queue_bound: cfg.queue_bound.max(1),
            job_history,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("deep-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner, evaluator))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Scheduler { inner, workers })
    }

    /// Admit (or reject) one submission. Cache hits complete inline
    /// without occupying a worker.
    pub fn submit(&self, req: JobRequest) -> Result<Admitted, Rejection> {
        let started = Instant::now();
        let cache_key = req
            .spec
            .cacheable()
            .then(|| deep_json::digest::digest(&req.spec.to_json()));
        let mut st = unpoisoned(self.inner.state.lock());
        if st.draining || st.shutdown {
            st.counters.rejected_drain += 1;
            return Err(Rejection::Draining);
        }
        // Serve from cache before consuming queue capacity: a hit is
        // not load, so it must not be subject to backpressure.
        let hit = cache_key.and_then(|key| st.cache.get(key));
        if hit.is_none() && st.queued >= self.inner.queue_bound {
            st.counters.rejected_full += 1;
            return Err(Rejection::QueueFull { retry_after_s: 1 });
        }
        let cached = hit.is_some();
        let id = st.next_id;
        st.next_id += 1;
        let mut job = Job {
            id,
            client: req.client,
            spec: req.spec,
            cache_key,
            state: JobState::Queued,
            cache_hit: cached,
            threads: 0,
            submitted_at: started,
            service_micros: None,
            result: None,
            error: None,
            events: Vec::new(),
        };
        job.push_event("queued", vec![]);
        st.counters.submitted += 1;
        match hit {
            Some(result) => {
                job.complete(result, started.elapsed().as_micros() as u64);
                st.counters.completed += 1;
                st.counters.cache_hits += 1;
            }
            None => {
                st.queued += 1;
                if !st.queues.contains_key(&job.client) {
                    st.rotation.push_back(job.client.clone());
                }
                st.queues
                    .entry(job.client.clone())
                    .or_default()
                    .push_back(id);
                self.inner.work.notify_one();
            }
        }
        st.jobs.insert(id, job);
        let evicted = cached.then(|| st.retire(id, self.inner.job_history));
        self.inner.update.notify_all();
        // The record that left the history is freed without the mutex.
        drop(st);
        drop(evicted);
        Ok(Admitted { job_id: id, cached })
    }

    /// Status document of one job; `None` for an id that was never
    /// issued or whose record left the history. The result is shared,
    /// not copied: the state mutex is held for the small members only.
    pub fn job_json(&self, id: u64) -> Option<JobJson> {
        let st = unpoisoned(self.inner.state.lock());
        st.jobs.get(&id).map(Job::json)
    }

    /// Attach an event stream to job `id`; `None` for unknown ids.
    pub fn watch(&self, id: u64) -> Option<Watch<'_>> {
        let mut st = unpoisoned(self.inner.state.lock());
        st.jobs.contains_key(&id).then(|| {
            st.watchers += 1;
            Watch {
                scheduler: self,
                id,
            }
        })
    }

    /// Events of job `id` with `seq >= after`, plus whether the job is
    /// terminal. Blocks until there is news: an event past `after`, a
    /// terminal state, or (`None`) the record leaving the history. Every
    /// change to a job notifies `update`, so no timer is needed.
    pub fn events_after(&self, id: u64, after: usize) -> Option<(Vec<Value>, bool)> {
        let mut st = unpoisoned(self.inner.state.lock());
        loop {
            let job = st.jobs.get(&id)?;
            let terminal = job.state.terminal();
            if job.events.len() > after || terminal {
                let fresh = job.events.iter().skip(after).cloned().collect();
                return Some((fresh, terminal));
            }
            st = unpoisoned(self.inner.update.wait(st));
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
        put("jobs_evicted_total", c.evicted);
        put("queue_depth", st.queued as u64);
        put("jobs_running", st.running as u64);
        put("draining", u64::from(st.draining));
        put("cache_entries", st.cache.len() as u64);
        put("cache_memory_hits_total", cache.hits);
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

    /// Park until the daemon is drained — draining, no queued or running
    /// work left and no event stream still attached — or until `wait`
    /// has passed; returns whether it is drained. Every change that can
    /// drain the daemon notifies, so the timeout bounds only how long
    /// the caller goes without looking at something else.
    pub fn wait_drained(&self, wait: Duration) -> bool {
        let st = unpoisoned(self.inner.state.lock());
        let (st, _) = unpoisoned(
            self.inner
                .update
                .wait_timeout_while(st, wait, |st| !st.drained()),
        );
        st.drained()
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

fn worker_loop(inner: &Inner, evaluator: Evaluator) {
    loop {
        let (id, spec, threads) = {
            let mut st = unpoisoned(inner.state.lock());
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(claimed) = claim(inner, &mut st) {
                    break claimed;
                }
                st = unpoisoned(inner.work.wait(st));
            }
        };
        // The one way a job runs: on a dedicated pool of its thread
        // share, with every panic below this frame turned into a
        // `failed` job.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut on_progress = |done, total| progress(inner, id, done, total);
            build_pool(threads)?.install(|| evaluator(&spec, &mut on_progress))
        }))
        .unwrap_or_else(|payload| Err(format!("job panicked: {}", panic_message(&*payload))));
        finish_job(inner, id, outcome);
    }
}

/// Take the next job off the queues, round-robin over clients, and
/// grant it a thread share: `(job id, spec, pool threads)`.
fn claim(inner: &Inner, st: &mut State) -> Option<(u64, JobSpec, u32)> {
    // Rotate to the next client that still has queued work.
    let id = loop {
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
    let spec = st.jobs.get(&id)?.spec.clone();

    // Apportion pool threads across the jobs now running, via the
    // booster-assignment policy. Our demand is the work width; clamp
    // the grant to ≥ 1 so a saturated machine degrades to time-slicing
    // instead of starvation.
    let demand = match &spec {
        JobSpec::Sweep(cfg) => (cfg.points.len() as u32).clamp(1, inner.pool_threads),
        // Experiments and scenario sweeps parallelise internally.
        JobSpec::Experiment(_) | JobSpec::Scenario(_) => inner.pool_threads,
        JobSpec::SleepMs(_) => 1,
    };
    let mut demands: Vec<u32> = st.running_demands.iter().map(|&(_, d)| d).collect();
    demands.push(demand);
    let threads = dynamic_shares(inner.pool_threads, &demands)
        .pop()
        .unwrap_or(1)
        .max(1);
    st.running_demands.push((id, demand));

    st.queued -= 1;
    st.running += 1;
    if let Some(job) = st.jobs.get_mut(&id) {
        job.state = JobState::Running;
        job.threads = threads;
        job.push_event("started", vec![("threads", threads.into())]);
    }
    inner.update.notify_all();
    Some((id, spec, threads))
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

/// A dedicated pool for one job's thread share. It starts no thread: a
/// loop inside it that cannot get a helper runs on the job's worker.
fn build_pool(threads: u32) -> Result<rayon::ThreadPool, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads as usize)
        .build()
        .map_err(|e| format!("worker pool: {e}"))
}

/// Evaluate one job spec to its result JSON — a pure function of the
/// spec, on whatever pool the caller installed. `on_progress(done,
/// total)` is called between the chunks of a multi-chunk sweep.
fn evaluate(spec: &JobSpec, on_progress: OnProgress<'_>) -> Result<Value, String> {
    match spec {
        JobSpec::Experiment(name) => deep_bench::experiments::run_to_string(name)
            .map(|output| {
                object([
                    ("experiment", name.as_str().into()),
                    ("output", output.into()),
                ])
            })
            .ok_or_else(|| format!("unknown experiment '{name}'")),
        JobSpec::Sweep(cfg) => {
            let total = cfg.points.len();
            let mut points = Vec::with_capacity(total);
            for chunk in cfg.points.chunks(PROGRESS_CHUNK) {
                let cases: Vec<_> = chunk.iter().map(|p| (p.params(), p.interval_s)).collect();
                for mean in mean_efficiency_batch(&cases, cfg.seed, cfg.replicas) {
                    points.push(object([
                        ("efficiency", mean.efficiency.into()),
                        ("truncated_runs", mean.truncated_runs.into()),
                    ]));
                }
                if points.len() < total {
                    on_progress(points.len(), total);
                }
            }
            Ok(object([("points", Value::Array(points))]))
        }
        JobSpec::Scenario(sc) => Ok(deep_scenario::execute(sc)),
        JobSpec::SleepMs(ms) => {
            #[expect(
                clippy::disallowed_methods,
                reason = "the diagnostic job's work is to occupy a worker for this long"
            )]
            std::thread::sleep(Duration::from_millis(*ms));
            Ok(object([("slept_ms", (*ms).into())]))
        }
    }
}

/// Append a `progress` event to a running job and wake its watchers.
fn progress(inner: &Inner, id: u64, done: usize, total: usize) {
    let mut st = unpoisoned(inner.state.lock());
    if let Some(job) = st.jobs.get_mut(&id) {
        job.push_event(
            "progress",
            vec![
                ("done", (done as u64).into()),
                ("total", (total as u64).into()),
            ],
        );
    }
    inner.update.notify_all();
}

/// Record a terminal state, release the job's thread share, cache the
/// result, and wake watchers.
fn finish_job(inner: &Inner, id: u64, outcome: Result<Value, String>) {
    // Print the result, and free its tree, before taking the mutex.
    let outcome = outcome.map(|result| render_result(&result));
    let mut guard = unpoisoned(inner.state.lock());
    let st = &mut *guard;
    st.running_demands.retain(|&(job, _)| job != id);
    // Finishing an id with no job record is a bookkeeping bug; drop the
    // result rather than abort the worker that holds the state mutex.
    let Some(job) = st.jobs.get_mut(&id) else {
        return;
    };
    let micros = job.submitted_at.elapsed().as_micros() as u64;
    st.running -= 1;
    match outcome {
        Ok(result) => {
            if let Some(key) = job.cache_key {
                st.cache.insert(key, Arc::clone(&result));
            }
            job.complete(result, micros);
            st.counters.completed += 1;
        }
        Err(error) => {
            job.state = JobState::Failed;
            job.service_micros = Some(micros);
            job.push_event("failed", vec![("error", error.as_str().into())]);
            job.error = Some(error);
            st.counters.failed += 1;
        }
    }
    let evicted = st.retire(id, inner.job_history);
    inner.update.notify_all();
    inner.work.notify_all();
    // The record that left the history is freed without the mutex.
    drop(guard);
    drop(evicted);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{SweepConfig, SweepPoint};
    use deep_core::resilience::mean_efficiency;

    fn experiment(client: &str, name: &str) -> JobRequest {
        JobRequest {
            client: client.to_string(),
            spec: JobSpec::Experiment(name.to_string()),
        }
    }

    fn sleep(client: &str, ms: u64) -> JobRequest {
        JobRequest {
            client: client.to_string(),
            spec: JobSpec::SleepMs(ms),
        }
    }

    /// The job document a client would parse.
    fn job(s: &Scheduler, id: u64) -> Value {
        deep_json::from_str(&s.job_json(id).unwrap().to_string()).unwrap()
    }

    fn wait_terminal(s: &Scheduler, id: u64) -> Value {
        let mut seen = 0;
        loop {
            let (fresh, terminal) = s.events_after(id, seen).unwrap();
            seen += fresh.len();
            if terminal {
                return job(s, id);
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
        let hit = job(&s, b.job_id);
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
        let _running = s.submit(sleep("t", 300)).unwrap();
        let mut admitted = 0;
        let mut rejected = None;
        for _ in 0..8 {
            match s.submit(sleep("t", 1)) {
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
        assert_eq!(job(&s, a.job_id)["state"], "done");
        assert!(s.wait_drained(Duration::ZERO));
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
        s.submit(sleep("warm", 200)).unwrap();
        let greedy: Vec<u64> = (0..3)
            .map(|_| s.submit(sleep("greedy", 1)).unwrap().job_id)
            .collect();
        let modest = s.submit(sleep("modest", 1)).unwrap().job_id;
        for id in greedy.iter().chain([&modest]) {
            wait_terminal(&s, *id);
        }
        let finish_micros = |id: u64| {
            job(&s, id)["service_micros"]
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
    fn queued_same_seed_sweeps_each_match_direct_evaluation() {
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
            spec: JobSpec::Sweep(SweepConfig {
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
        // Park the worker so both sweeps wait in the queue together.
        s.submit(sleep("warm", 200)).unwrap();
        let a = s.submit(sweep(vec![point])).unwrap().job_id;
        let b = s.submit(sweep(vec![p2])).unwrap().job_id;
        for (id, pt) in [(a, &point), (b, &p2)] {
            let job = wait_terminal(&s, id);
            assert_eq!(job["state"], "done");
            let direct = mean_efficiency(&pt.params(), pt.interval_s, 7, 3);
            assert_eq!(
                job["result"]["points"][0]["efficiency"]
                    .as_f64()
                    .unwrap()
                    .to_bits(),
                direct.efficiency.to_bits(),
                "a queued neighbour changed a result"
            );
        }
        let metrics = s.metrics_text();
        assert!(!metrics.contains("batch"), "{metrics}");
        s.shutdown();
    }

    #[test]
    fn a_panicking_evaluation_fails_the_job_and_frees_the_worker() {
        fn flaky(spec: &JobSpec, on_progress: OnProgress<'_>) -> Result<Value, String> {
            if *spec == JobSpec::SleepMs(13) {
                panic!("unlucky {}", 13);
            }
            evaluate(spec, on_progress)
        }
        let s = Scheduler::with_evaluator(
            SchedulerConfig {
                workers: 1,
                ..SchedulerConfig::default()
            },
            flaky,
            JOB_HISTORY,
        )
        .unwrap();
        let bad = s.submit(sleep("t", 13)).unwrap().job_id;
        let failed = wait_terminal(&s, bad);
        assert_eq!(failed["state"], "failed");
        assert_eq!(failed["error"], "job panicked: unlucky 13");
        assert_eq!(
            s.load(),
            (0, 0, false),
            "the failed job still counts as load"
        );
        // The only worker survived the unwind and takes the next job.
        let good = s.submit(sleep("t", 1)).unwrap().job_id;
        assert_eq!(wait_terminal(&s, good)["state"], "done");
        let metrics = s.metrics_text();
        assert!(
            metrics.contains("deep_serve_jobs_failed_total 1"),
            "{metrics}"
        );
        s.shutdown();
    }

    #[test]
    fn spliced_job_json_is_the_printed_tree() {
        let nested = deep_json::from_str(
            r#"{"points":[{"a":[1,[2,[]],{}],"f":0.5}],"empty":{},"none":null,
                "s":"quote\" back\\ nl\n tab\t ctl\u0001 é","deep":{"x":{"y":[[],[{}]]}}}"#,
        )
        .unwrap();
        let sweep = JobSpec::Sweep(SweepConfig {
            seed: 3,
            replicas: 2,
            points: vec![SweepPoint {
                work_s: 1e4,
                n_nodes: 64,
                mtbf_node_s: 1e6,
                checkpoint_s: 60.0,
                restart_s: 120.0,
                interval_s: 600.5,
            }],
        });
        let job = |state, spec: JobSpec| Job {
            id: 7,
            client: "al\"ice".into(),
            cache_key: spec.cacheable().then_some(0x6cee_10c2_8ca5_af51),
            spec,
            state,
            cache_hit: false,
            threads: 0,
            submitted_at: Instant::now(),
            service_micros: None,
            result: None,
            error: None,
            events: Vec::new(),
        };
        let done = |result: &Value, cache_hit| {
            let mut j = job(JobState::Queued, sweep.clone());
            j.threads = 2;
            j.cache_hit = cache_hit;
            j.complete(render_result(result), 18_234);
            (j, Some(result.clone()))
        };
        let mut running = job(
            JobState::Running,
            JobSpec::Experiment("f02_evolution".into()),
        );
        running.threads = 4;
        let mut failed = job(JobState::Failed, JobSpec::SleepMs(13));
        failed.service_micros = Some(5);
        failed.error = Some("job panicked: \"unlucky\"\n\t13 \\ \u{1}".into());
        let cases = [
            (job(JobState::Queued, JobSpec::SleepMs(0)), None),
            (running, None),
            done(&nested, false),
            done(&nested, true),
            done(&Value::Null, false),
            done(&Value::Array(vec![]), false),
            done(&"just a string".into(), false),
            (failed, None),
        ];
        for (job, result) in &cases {
            let reference = job.reference_json(result.as_ref());
            let spliced = job.json();
            assert_eq!(spliced.to_string(), reference.to_json_pretty());
            // And on the wire, headers and framing included.
            let wire = |resp: crate::http::Response| {
                let mut bytes = Vec::new();
                resp.write_to(&mut bytes, true).unwrap();
                bytes
            };
            assert_eq!(
                wire(crate::http::Response::json_spliced(
                    200,
                    spliced.head,
                    spliced.result,
                    spliced.tail
                )),
                wire(crate::http::Response::json(200, &reference)),
            );
        }
    }

    #[test]
    fn a_hit_shares_the_cold_runs_rendered_result() {
        let s = Scheduler::new(SchedulerConfig::default()).unwrap();
        let cold = s.submit(experiment("t", "f02_evolution")).unwrap().job_id;
        wait_terminal(&s, cold);
        let hit = s.submit(experiment("u", "f02_evolution")).unwrap();
        assert!(hit.cached);
        let cold = s.job_json(cold).unwrap().result.unwrap();
        let hit = s.job_json(hit.job_id).unwrap().result.unwrap();
        assert!(
            Arc::ptr_eq(&cold, &hit),
            "a hit must hold the cold run's allocation, not a copy"
        );
        // Cache entry, two records, two views: one text.
        assert_eq!(Arc::strong_count(&cold), 5);
        s.shutdown();
    }

    #[test]
    fn job_history_is_bounded_and_spares_live_jobs() {
        const CAP: usize = 8;
        let s = Scheduler::with_evaluator(
            SchedulerConfig {
                workers: 1,
                queue_bound: 4 * CAP,
                ..SchedulerConfig::default()
            },
            evaluate,
            CAP,
        )
        .unwrap();
        let ids = |s: &Scheduler| -> Vec<u64> {
            let st = unpoisoned(s.inner.state.lock());
            st.jobs.keys().copied().collect()
        };
        // 3 × the cap of finished jobs leave the cap, the newest ids.
        let mut last = 0;
        for _ in 0..3 * CAP {
            last = s.submit(sleep("t", 0)).unwrap().job_id;
            wait_terminal(&s, last);
        }
        let newest: Vec<u64> = (last + 1 - CAP as u64..=last).collect();
        assert_eq!(ids(&s), newest);
        assert!(s.job_json(1).is_none(), "an evicted id is unknown");
        assert!(s.watch(1).is_none());

        // A running and a queued job outlive any number of newer
        // finished ones (cache hits are finished at admission).
        let cached = s.submit(experiment("t", "f02_evolution")).unwrap().job_id;
        wait_terminal(&s, cached);
        let running = s.submit(sleep("t", 300)).unwrap().job_id;
        let queued = s.submit(sleep("t", 0)).unwrap().job_id;
        let mut hits = Vec::new();
        for _ in 0..3 * CAP {
            let hit = s.submit(experiment("t", "f02_evolution")).unwrap();
            assert!(hit.cached);
            hits.push(hit.job_id);
            let now = ids(&s);
            assert!(now.contains(&running) && now.contains(&queued), "{now:?}");
            assert!(now.len() <= CAP + 2, "{now:?}");
        }
        let mut expect = vec![running, queued];
        expect.extend(&hits[2 * CAP..]);
        assert_eq!(ids(&s), expect);
        assert_eq!(wait_terminal(&s, running)["state"], "done");
        assert_eq!(wait_terminal(&s, queued)["state"], "done");
        let metrics = s.metrics_text();
        let evicted = 5 * CAP + 3;
        assert!(
            metrics.contains(&format!("deep_serve_jobs_evicted_total {evicted}\n")),
            "{metrics}"
        );
        s.shutdown();
    }

    #[test]
    fn an_attached_event_stream_holds_the_drain_open() {
        let s = Scheduler::new(SchedulerConfig::default()).unwrap();
        let id = s.submit(sleep("t", 0)).unwrap().job_id;
        wait_terminal(&s, id);
        let watch = s.watch(id).expect("known job");
        s.drain();
        assert!(!s.wait_drained(Duration::from_millis(20)));
        drop(watch);
        assert!(s.wait_drained(Duration::ZERO));
        s.shutdown();
    }

    #[test]
    fn an_event_stream_wakes_only_on_news() {
        // The job runs long enough that any timer wake in between would
        // hand the watcher an empty batch.
        let s = Scheduler::new(SchedulerConfig::default()).unwrap();
        let id = s.submit(sleep("t", 300)).unwrap().job_id;
        let watch = s.watch(id).expect("known job");
        let mut seen = 0;
        loop {
            let (fresh, terminal) = watch.events_after(seen).unwrap();
            assert!(!fresh.is_empty() || terminal, "an empty batch after {seen}");
            seen += fresh.len();
            if terminal {
                break;
            }
        }
        assert_eq!(seen, 3, "queued, started, done");
        drop(watch);
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
