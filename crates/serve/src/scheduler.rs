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
//!   [`evaluate`] on a pool of the job's thread share, inside the only
//!   `catch_unwind` of this module. Every job kind takes that path.
//! * **Apportionment**: each running job gets a slice of the machine's
//!   threads from [`deep_resmgr::assign::dynamic_shares`] — the
//!   booster's dynamic assignment policy deciding pool widths instead
//!   of booster nodes.
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

    /// Enter `Done` with `result`, `micros` after submission.
    fn complete(&mut self, result: Value, micros: u64) {
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

    fn to_json(&self) -> Value {
        object([
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
    /// `(job id, thread demand)` of every executing job.
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
        Scheduler::with_evaluator(cfg, evaluate)
    }

    fn with_evaluator(cfg: SchedulerConfig, evaluator: Evaluator) -> std::io::Result<Scheduler> {
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
                cache: ResultCache::new(cfg.cache_capacity),
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
        self.inner.update.notify_all();
        Ok(Admitted { job_id: id, cached })
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
        // share, with every panic below this frame (a failed OS thread
        // spawn inside the pool included) turned into a `failed` job.
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

/// A dedicated pool for one job's thread share. Call it inside
/// `catch_unwind`: a failed OS thread spawn panics inside the pool.
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
        JobSpec::Scenario(doc) => {
            // Admission already validated the document; re-parse to
            // obtain the typed form (cheap next to evaluation).
            let sc =
                deep_scenario::Scenario::from_value(doc).map_err(|e| format!("scenario: {e}"))?;
            Ok(deep_scenario::execute(&sc))
        }
        JobSpec::SleepMs(ms) => {
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
                st.cache.insert(key, result.clone());
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
    inner.update.notify_all();
    inner.work.notify_all();
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
        s.submit(sleep("warm", 200)).unwrap();
        let greedy: Vec<u64> = (0..3)
            .map(|_| s.submit(sleep("greedy", 1)).unwrap().job_id)
            .collect();
        let modest = s.submit(sleep("modest", 1)).unwrap().job_id;
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
