//! Public simulation API: [`Simulation`] owns a run, [`Sim`] is the cheap
//! cloneable handle processes use to talk to the kernel.

use std::cell::{RefCell, RefMut};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::kernel::{Kernel, ProcId, ProcName, RunOutcome};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceEvent;

/// A complete simulation run: kernel + tracer.
///
/// Typical use:
/// ```
/// use deep_simkit::{Simulation, SimDuration};
///
/// let mut sim = Simulation::new(42);
/// let ctx = sim.handle();
/// sim.spawn("hello", async move {
///     ctx.sleep(SimDuration::micros(5)).await;
///     assert_eq!(ctx.now().as_nanos(), 5_000);
/// });
/// sim.run().assert_completed();
/// ```
pub struct Simulation {
    sim: Sim,
}

/// Cheap, cloneable handle to the simulation kernel: one `Rc`, because
/// every channel end, event, semaphore and process handle holds one.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<SimInner>,
}

struct SimInner {
    kernel: RefCell<Kernel>,
    /// The trace log; `None` while tracing is off.
    trace: RefCell<Option<Vec<TraceEvent>>>,
    seed: u64,
}

impl Simulation {
    /// Create a simulation with the given master seed. Two simulations
    /// built with the same seed and the same program are bit-identical.
    pub fn new(seed: u64) -> Self {
        Simulation {
            sim: Sim {
                inner: Rc::new(SimInner {
                    kernel: RefCell::new(Kernel::new()),
                    trace: RefCell::new(None),
                    seed,
                }),
            },
        }
    }

    /// Enable the event tracer: from now on every [`Sim::emit`] is
    /// recorded with its timestamp (tests, protocol debugging).
    pub fn enable_tracing(&mut self) {
        self.sim
            .inner
            .trace
            .borrow_mut()
            .get_or_insert_with(Vec::new);
    }

    /// Get a handle usable inside and outside processes.
    pub fn handle(&self) -> Sim {
        self.sim.clone()
    }

    /// Spawn a root process. See [`Sim::spawn`].
    pub fn spawn<F, T>(&mut self, name: impl Into<String>, fut: F) -> ProcHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.sim.spawn(name, fut)
    }

    /// Total process polls performed so far — the kernel's event
    /// counter. One poll is one scheduled event (a wake, a message
    /// delivery, a timer firing); scaling benchmarks divide this by wall
    /// time for an events/s figure.
    pub fn events_processed(&self) -> u64 {
        self.sim.kernel().events
    }

    /// Length of the kernel's process table: the peak number of
    /// concurrently live processes so far (finished ones free their slot).
    pub fn process_slots(&self) -> usize {
        self.sim.kernel().procs.len()
    }

    /// Run until every process finished (or deadlock).
    pub fn run(&mut self) -> RunOutcome {
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        loop {
            // Drain the ready list at the current instant. Each poll costs
            // exactly two kernel borrows: take the future out, put it back.
            loop {
                let Some((pid, mut fut)) = self.sim.kernel().take_ready() else {
                    break;
                };
                if fut.as_mut().poll(&mut cx).is_ready() {
                    self.sim.kernel().finish_proc(pid);
                    // `fut` dropped here, outside the kernel borrow: its
                    // destructors may re-enter the kernel (e.g. a `Sleep`
                    // cancels its timer).
                } else {
                    self.sim.kernel().finish_poll(pid, fut);
                }
            }

            // Advance to the next timer.
            let mut k = self.sim.kernel();
            match k.next_timer_at() {
                None => {
                    return if k.live == 0 {
                        RunOutcome::Completed
                    } else {
                        RunOutcome::Deadlock(k.blocked_proc_names(16))
                    };
                }
                Some(at) => k.fire_timers_at(at),
            }
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Drain the trace log (empty unless tracing was enabled).
    pub fn take_events(&self) -> Vec<TraceEvent> {
        self.sim
            .inner
            .trace
            .borrow_mut()
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }
}

#[cfg(test)]
impl Simulation {
    /// The reference the slot-reuse tests compare against: the same
    /// kernel with its free list switched off, so process ids are dense
    /// and a stale id can never meet a new occupant of its slot.
    pub(crate) fn new_never_reusing(seed: u64) -> Self {
        let sim = Simulation::new(seed);
        sim.sim.kernel().never_reuse = true;
        sim
    }
}

impl Sim {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.kernel().now
    }

    /// Master seed of this simulation.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Derive an independent, deterministic RNG stream. Components should
    /// fork one stream each (keyed by a stable identifier) so adding a
    /// component never perturbs another's randomness.
    pub fn fork_rng(&self, stream: u64) -> SimRng {
        SimRng::from_seed_stream(self.inner.seed, stream)
    }

    /// Spawn a process; returns a handle that can be awaited for the result.
    pub fn spawn<F, T>(&self, name: impl Into<String>, fut: F) -> ProcHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.spawn_named(ProcName::Owned(name.into()), fut)
    }

    /// Spawn with a name formatted straight into the buffer the process's
    /// slot kept from its previous occupant: `sim.spawn_fmt(format_args!(
    /// "rank-{r}"), fut)` builds no `String`. Use in spawn-heavy loops.
    pub fn spawn_fmt<F, T>(&self, name: std::fmt::Arguments<'_>, fut: F) -> ProcHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.spawn_named(ProcName::Fmt(name), fut)
    }

    /// Forwards to [`Sim::spawn_fmt`]; the partition is ignored. Kept only
    /// because the frozen `benchmark/src/probes.rs` calls it: the benchmark
    /// PR of ROADMAP item 0(e) switches those two sites and deletes this.
    #[doc(hidden)]
    pub fn spawn_in_fmt<F, T>(
        &self,
        _partition: u32,
        name: std::fmt::Arguments<'_>,
        fut: F,
    ) -> ProcHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.spawn_fmt(name, fut)
    }

    /// The one spawn path: box the future so that its output lands in a
    /// cell shared with the handle.
    fn spawn_named<F, T>(&self, name: ProcName<'_>, fut: F) -> ProcHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        let result: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
        let cell = result.clone();
        let wrapped = Box::pin(async move {
            *cell.borrow_mut() = Some(fut.await);
        });
        let id = self.kernel().add_proc(name, wrapped);
        ProcHandle {
            sim: self.clone(),
            id,
            result,
        }
    }

    /// Sleep for a span of virtual time.
    #[inline]
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        Sleep {
            sim: self.clone(),
            until: self.now() + d,
            token: None,
        }
    }

    /// Sleep until an absolute instant (no-op if already past).
    #[inline]
    pub fn sleep_until(&self, at: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            until: at,
            token: None,
        }
    }

    /// Record a [`TraceEvent`] (no-op unless tracing is enabled). The
    /// payload closure is only evaluated when tracing is on, so a
    /// disabled tracer costs one flag test.
    pub fn emit(
        &self,
        component: &'static str,
        kind: &'static str,
        payload: impl FnOnce() -> String,
    ) {
        if let Some(events) = self.inner.trace.borrow_mut().as_mut() {
            events.push(TraceEvent {
                at: self.now(),
                component,
                kind,
                payload: payload(),
            });
        }
    }

    /// The id of the process currently being polled. Panics outside a poll.
    pub(crate) fn current_proc(&self) -> ProcId {
        self.kernel().current_proc()
    }

    /// Borrow the kernel. Never held across a poll or a user callback.
    #[inline]
    pub(crate) fn kernel(&self) -> RefMut<'_, Kernel> {
        self.inner.kernel.borrow_mut()
    }
}

/// Handle to a spawned process; awaiting it yields the process's result.
pub struct ProcHandle<T> {
    sim: Sim,
    id: ProcId,
    result: Rc<RefCell<Option<T>>>,
}

impl<T> ProcHandle<T> {
    /// True once the process has terminated.
    pub fn is_finished(&self) -> bool {
        self.sim.kernel().is_finished(self.id)
    }

    /// Take the result without awaiting (`None` while still running, or
    /// once taken).
    pub fn try_result(&self) -> Option<T> {
        self.result.borrow_mut().take()
    }
}

impl<T> Future for ProcHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        if self.sim.kernel().join(self.id) {
            let result = self.result.borrow_mut().take();
            Poll::Ready(result.expect("a process's result is taken once"))
        } else {
            Poll::Pending
        }
    }
}

/// Future returned by [`Sim::sleep`].
///
/// Arms exactly one timer. A spurious wake (e.g. by a channel during a
/// race) does **not** re-push a duplicate timer — the original entry is
/// still pending. Dropping an armed `Sleep` before its deadline lazily
/// cancels the timer, so lost races and timeouts leave no dead heap
/// entries behind.
pub struct Sleep {
    sim: Sim,
    until: SimTime,
    /// Token of the armed timer; `None` before arming and after firing.
    token: Option<u64>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut k = this.sim.kernel();
        if k.now >= this.until {
            // The timer (if armed) fired to get us here; nothing to cancel.
            this.token = None;
            return Poll::Ready(());
        }
        if this.token.is_none() {
            let me = k.current_proc();
            this.token = Some(k.schedule_wake(this.until, me));
        }
        // Armed and not yet due: the original timer is still pending, so a
        // spurious wake needs no re-arm.
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(token) = self.token {
            let mut k = self.sim.kernel();
            // Before the deadline the timer cannot have fired yet (time
            // only advances through pending timers); after it, it has.
            if k.now < self.until {
                k.cancel_wake(token);
            }
        }
    }
}

impl RunOutcome {
    /// Panic unless the run completed normally.
    pub fn assert_completed(&self) {
        match self {
            RunOutcome::Completed => {}
            RunOutcome::Deadlock(names) => {
                panic!("simulation deadlocked; blocked processes: {names:?}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_simulation_completes() {
        let mut sim = Simulation::new(1);
        assert_eq!(sim.run(), RunOutcome::Completed);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_time() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("sleeper", async move {
            ctx.sleep(SimDuration::micros(10)).await;
            ctx.sleep(SimDuration::micros(5)).await;
            assert_eq!(ctx.now().as_micros(), 15);
        });
        sim.run().assert_completed();
        assert_eq!(sim.now().as_micros(), 15);
    }

    #[test]
    fn processes_interleave_deterministically() {
        let mut sim = Simulation::new(1);
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let ctx = sim.handle();
            let log = log.clone();
            sim.spawn(format!("p{i}"), async move {
                for step in 0..3u64 {
                    ctx.sleep(SimDuration::nanos(10 * (step + 1) + i as u64))
                        .await;
                    log.borrow_mut().push((ctx.now().as_nanos(), i));
                }
            });
        }
        sim.run().assert_completed();
        let got = log.borrow().clone();
        // Times strictly ordered by (time, spawn order at equal times).
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(got, sorted);
        assert_eq!(got.len(), 9);
    }

    #[test]
    fn join_returns_result() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("parent", async move {
            let c2 = ctx.clone();
            let child = ctx.spawn("child", async move {
                c2.sleep(SimDuration::micros(1)).await;
                1234u64
            });
            assert_eq!(child.await, 1234);
            assert_eq!(ctx.now().as_micros(), 1);
        });
        sim.run().assert_completed();
    }

    #[test]
    fn join_already_finished_child() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("parent", async move {
            let child = ctx.spawn("child", async move { 7u32 });
            ctx.sleep(SimDuration::micros(1)).await;
            assert!(child.is_finished());
            assert_eq!(child.await, 7);
        });
        sim.run().assert_completed();
    }

    #[test]
    fn spawn_fmt_reuses_name_storage() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("driver", async move {
            for i in 0..100u32 {
                let c = ctx.clone();
                let h = ctx.spawn_fmt(format_args!("worker-{i}"), async move {
                    c.sleep(SimDuration::nanos(1)).await;
                    i
                });
                assert_eq!(h.await, i);
            }
        });
        sim.run().assert_completed();
    }

    #[test]
    fn a_handle_outlives_its_slot() {
        // Results live in the handle's cell, not in the slot: a handle
        // awaited after its slot went to another process still yields
        // its own process's result.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("driver", async move {
            let done = ctx.spawn("done", async { 1u32 });
            let c = ctx.clone();
            let later = ctx.spawn("later", async move {
                c.sleep(SimDuration::nanos(1)).await;
                4u32
            });
            ctx.sleep(SimDuration::micros(1)).await;
            // Both slots are free; the next two spawns take them over.
            let c = ctx.clone();
            let heir_a = ctx.spawn("heir-a", async move {
                c.sleep(SimDuration::micros(3)).await;
                2u32
            });
            let heir_b = ctx.spawn("heir-b", async { 3u32 });
            ctx.sleep(SimDuration::micros(1)).await;
            assert!(done.is_finished() && later.is_finished() && heir_b.is_finished());
            assert!(!heir_a.is_finished());
            assert_eq!(done.await, 1);
            assert_eq!(later.await, 4);
            assert_eq!(heir_b.await, 3);
            assert_eq!(heir_a.await, 2);
            assert_eq!(ctx.now().as_micros(), 4);
        });
        sim.run().assert_completed();
        assert_eq!(sim.process_slots(), 3, "driver + two recycled slots");
    }

    #[test]
    fn deadlock_reports_blocked_process() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("waiter", async move {
            // Join a process that never finishes.
            let stuck = ctx.spawn("stuck", std::future::pending::<()>());
            stuck.await;
        });
        match sim.run() {
            RunOutcome::Deadlock(names) => {
                assert!(names.iter().any(|n| n == "stuck"));
                assert!(names.iter().any(|n| n == "waiter"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn identical_seeds_identical_traces() {
        fn trace_of(seed: u64) -> Vec<TraceEvent> {
            let mut sim = Simulation::new(seed);
            sim.enable_tracing();
            let ctx = sim.handle();
            sim.spawn("rng-user", async move {
                let mut rng = ctx.fork_rng(7);
                for _ in 0..5 {
                    let d = SimDuration::nanos(rng.gen_range(1..1000));
                    ctx.sleep(d).await;
                    ctx.emit("rng", "tick", || format!("at {}", ctx.now()));
                }
            });
            sim.run().assert_completed();
            sim.take_events()
        }
        assert_eq!(trace_of(99), trace_of(99));
        assert_ne!(trace_of(99), trace_of(100));
    }

    #[test]
    fn typed_events_carry_structure() {
        let mut sim = Simulation::new(3);
        sim.enable_tracing();
        let ctx = sim.handle();
        sim.spawn("emitter", async move {
            ctx.emit("net", "retry", || "link 4".to_string());
            ctx.sleep(SimDuration::nanos(10)).await;
            ctx.emit("io", "flush", || "plain".to_string());
        });
        sim.run().assert_completed();
        let events = sim.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].component, "net");
        assert_eq!(events[0].kind, "retry");
        assert_eq!(events[0].payload, "link 4");
        assert_eq!(events[0].at, SimTime::ZERO);
        assert_eq!(events[1].component, "io");
        assert_eq!(events[1].kind, "flush");
        assert_eq!(events[1].payload, "plain");
        assert_eq!(events[1].at.as_nanos(), 10);
        assert!(sim.take_events().is_empty(), "a drain empties the log");
    }

    #[test]
    fn events_not_recorded_when_disabled() {
        let mut sim = Simulation::new(3);
        let ctx = sim.handle();
        sim.spawn("emitter", async move {
            ctx.emit("net", "retry", || unreachable!("payload must not be built"));
        });
        sim.run().assert_completed();
        assert!(sim.take_events().is_empty());
    }

    #[test]
    fn events_processed_counts_polls() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("ticker", async move {
            for _ in 0..10 {
                ctx.sleep(SimDuration::nanos(5)).await;
            }
        });
        sim.run().assert_completed();
        // One initial poll plus one per timer wake, at minimum.
        assert!(sim.events_processed() >= 11);
    }

    #[test]
    fn dropped_sleep_cancels_its_timer() {
        // A lost race leaves no timer behind: the loser's deadline must
        // not hold the clock back or wake anyone.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let h = sim.spawn("racer", async move {
            let c1 = ctx.clone();
            let c2 = ctx.clone();
            let r = ctx
                .race(
                    async move {
                        c1.sleep(SimDuration::micros(1)).await;
                        "fast"
                    },
                    async move {
                        c2.sleep(SimDuration::secs(3600)).await;
                        "slow"
                    },
                )
                .await;
            (r.left(), ctx.now().as_micros())
        });
        sim.run().assert_completed();
        // The run completed at 1us — the abandoned 1-hour timer was
        // discarded rather than fired.
        assert_eq!(h.try_result(), Some((Some("fast"), 1)));
        assert_eq!(sim.now().as_micros(), 1);
    }
}
