//! Synchronization primitives for simulated processes: counting semaphore
//! (with RAII guards), one-shot events, and barriers.
//!
//! All of these operate in zero virtual time; they sequence processes
//! within an instant and are the building blocks for modelling contended
//! resources (links, cores, DMA engines).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::kernel::{ProcId, Waiters};
use crate::sim::Sim;

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemState {
    permits: u64,
    /// FIFO of (proc, permits wanted).
    waiters: VecDeque<(ProcId, u64)>,
}

/// A counting semaphore with FIFO wake-up order.
///
/// FIFO matters: it makes contended-resource simulations fair and, more
/// importantly, deterministic.
#[derive(Clone)]
pub struct Semaphore {
    sim: Sim,
    state: Rc<RefCell<SemState>>,
}

impl Semaphore {
    /// Create a semaphore with an initial number of permits.
    pub fn new(sim: &Sim, permits: u64) -> Self {
        Semaphore {
            sim: sim.clone(),
            state: Rc::new(RefCell::new(SemState {
                permits,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> u64 {
        self.state.borrow().permits
    }

    /// Acquire `n` permits, suspending until available. Returns a guard
    /// that releases them on drop.
    pub async fn acquire_many(&self, n: u64) -> SemGuard {
        AcquireFut {
            sem: self,
            n,
            me: None,
            granted: false,
        }
        .await;
        SemGuard {
            sem: self.clone(),
            n,
            released: false,
        }
    }

    /// Acquire one permit.
    pub async fn acquire(&self) -> SemGuard {
        self.acquire_many(1).await
    }

    /// Return `n` permits and wake eligible waiters in FIFO order.
    fn release_many(&self, n: u64) {
        let mut st = self.state.borrow_mut();
        st.permits += n;
        // Strict FIFO: stop at the first waiter that still cannot be
        // satisfied, even if later (smaller) requests could be. This
        // prevents starvation of large requests. Waking under the state
        // borrow is safe (`make_ready` only touches the kernel) and
        // avoids collecting the woken set into a Vec.
        while let Some(&(pid, want)) = st.waiters.front() {
            if st.permits >= want {
                st.permits -= want;
                st.waiters.pop_front();
                self.sim.kernel().make_ready(pid);
            } else {
                break;
            }
        }
    }
}

/// RAII guard returned by [`Semaphore::acquire`].
pub struct SemGuard {
    sem: Semaphore,
    n: u64,
    released: bool,
}

impl SemGuard {
    /// Release early (drop also releases).
    pub fn release(mut self) {
        self.do_release();
    }

    fn do_release(&mut self) {
        if !self.released {
            self.released = true;
            self.sem.release_many(self.n);
        }
    }
}

impl Drop for SemGuard {
    fn drop(&mut self) {
        self.do_release();
    }
}

struct AcquireFut<'a> {
    sem: &'a Semaphore,
    n: u64,
    /// Our ProcId once enqueued; needed to clean up on drop.
    me: Option<ProcId>,
    granted: bool,
}

impl Future for AcquireFut<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut st = this.sem.state.borrow_mut();
        if let Some(me) = this.me {
            // We are woken only after release_many already granted our
            // permits and removed us from the queue.
            if st.waiters.iter().any(|&(p, _)| p == me) {
                return Poll::Pending; // spurious wake while still queued
            }
            this.granted = true;
            return Poll::Ready(());
        }
        if st.waiters.is_empty() && st.permits >= this.n {
            st.permits -= this.n;
            this.granted = true;
            Poll::Ready(())
        } else {
            let me = this.sem.sim.current_proc();
            st.waiters.push_back((me, this.n));
            this.me = Some(me);
            Poll::Pending
        }
    }
}

impl Drop for AcquireFut<'_> {
    /// An abandoned acquire (timed out, lost a race) must not wedge the
    /// semaphore: if still queued, withdraw the request; if the permits
    /// were already granted but the guard was never constructed, return
    /// them.
    fn drop(&mut self) {
        if self.granted {
            // `acquire_many` builds the guard synchronously after the
            // await, so a granted-and-dropped future means the caller was
            // dropped at the await point — the guard does not exist.
            // But Ready was observed by the caller, which then constructs
            // the guard; nothing to do in that case. Distinguish: once
            // Ready is returned the future is dropped *after* the guard
            // exists, so releasing here would double-free. The `granted`
            // flag therefore means "hand-off complete": do nothing.
            return;
        }
        if let Some(me) = self.me {
            let mut st = self.sem.state.borrow_mut();
            if let Some(pos) = st.waiters.iter().position(|&(p, _)| p == me) {
                // Still queued: withdraw. Waiters behind us may now be
                // eligible (we might have been the blocking head).
                st.waiters.remove(pos);
                drop(st);
                self.sem.release_many(0);
            } else {
                // Granted while we were no longer being polled: the
                // permits were deducted for us; give them back.
                drop(st);
                self.sem.release_many(self.n);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// OneShot event
// ---------------------------------------------------------------------------

struct OneShotState<T> {
    value: Option<T>,
    fired: bool,
    waiters: Waiters,
}

/// A one-shot event carrying a value. Multiple processes may wait; the
/// value is cloned to each. Setting twice panics.
pub struct OneShot<T: Clone> {
    sim: Sim,
    state: Rc<RefCell<OneShotState<T>>>,
}

impl<T: Clone> Clone for OneShot<T> {
    fn clone(&self) -> Self {
        OneShot {
            sim: self.sim.clone(),
            state: self.state.clone(),
        }
    }
}

impl<T: Clone> OneShot<T> {
    /// Create an unfired event.
    pub fn new(sim: &Sim) -> Self {
        OneShot {
            sim: sim.clone(),
            state: Rc::new(RefCell::new(OneShotState {
                value: None,
                fired: false,
                waiters: Waiters::default(),
            })),
        }
    }

    /// Fire the event, waking all waiters in arrival order.
    pub fn set(&self, value: T) {
        let mut st = self.state.borrow_mut();
        assert!(!st.fired, "OneShot::set called twice");
        st.fired = true;
        st.value = Some(value);
        for w in st.waiters.drain() {
            self.sim.kernel().make_ready(w);
        }
    }

    /// True once fired.
    pub fn is_set(&self) -> bool {
        self.state.borrow().fired
    }

    /// Wait for the event; resolves immediately if already fired.
    pub fn wait(&self) -> OneShotWait<'_, T> {
        OneShotWait {
            event: self,
            me: None,
        }
    }
}

/// Future returned by [`OneShot::wait`].
pub struct OneShotWait<'a, T: Clone> {
    event: &'a OneShot<T>,
    /// Our ProcId once registered; needed to withdraw on drop.
    me: Option<ProcId>,
}

impl<T: Clone> Future for OneShotWait<'_, T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        let this = &mut *self;
        let mut st = this.event.state.borrow_mut();
        if st.fired {
            // `set` drained the list: a resolved wait has nothing to withdraw.
            this.me = None;
            Poll::Ready(st.value.clone().expect("fired OneShot holds a value"))
        } else {
            let me = this.event.sim.current_proc();
            st.waiters.insert(me);
            this.me = Some(me);
            Poll::Pending
        }
    }
}

impl<T: Clone> Drop for OneShotWait<'_, T> {
    /// An abandoned wait (timed out, lost a race) withdraws its id, so a
    /// long-lived event does not collect the ids of processes that
    /// stopped waiting.
    fn drop(&mut self) {
        if let Some(me) = self.me {
            self.event.state.borrow_mut().waiters.remove(me);
        }
    }
}

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

struct BarrierState {
    parties: usize,
    arrived: usize,
    generation: u64,
    waiters: Vec<ProcId>,
}

/// A reusable barrier for a fixed number of parties.
#[derive(Clone)]
pub struct Barrier {
    sim: Sim,
    state: Rc<RefCell<BarrierState>>,
}

impl Barrier {
    /// Create a barrier for `parties` processes.
    pub fn new(sim: &Sim, parties: usize) -> Self {
        assert!(parties > 0);
        Barrier {
            sim: sim.clone(),
            state: Rc::new(RefCell::new(BarrierState {
                parties,
                arrived: 0,
                generation: 0,
                waiters: Vec::new(),
            })),
        }
    }

    /// Arrive and wait for all parties. The last arriver releases everyone.
    pub fn wait(&self) -> BarrierWait {
        BarrierWait {
            barrier: self.clone(),
            gen: None,
        }
    }
}

/// Future returned by [`Barrier::wait`].
pub struct BarrierWait {
    barrier: Barrier,
    gen: Option<u64>,
}

impl Future for BarrierWait {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut st = this.barrier.state.borrow_mut();
        match this.gen {
            None => {
                st.arrived += 1;
                if st.arrived == st.parties {
                    st.arrived = 0;
                    st.generation += 1;
                    for w in st.waiters.drain(..) {
                        this.barrier.sim.kernel().make_ready(w);
                    }
                    Poll::Ready(())
                } else {
                    this.gen = Some(st.generation);
                    let me = this.barrier.sim.current_proc();
                    st.waiters.push(me);
                    Poll::Pending
                }
            }
            Some(g) => {
                if st.generation > g {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use crate::time::SimDuration;

    #[test]
    fn semaphore_serializes_access() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let sem = Semaphore::new(&ctx, 1);
        type EventLog = Rc<RefCell<Vec<(u64, usize, &'static str)>>>;
        let log: EventLog = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let ctx = ctx.clone();
            let sem = sem.clone();
            let log = log.clone();
            sim.spawn(format!("user{i}"), async move {
                let g = sem.acquire().await;
                log.borrow_mut().push((ctx.now().as_nanos(), i, "in"));
                ctx.sleep(SimDuration::micros(1)).await;
                log.borrow_mut().push((ctx.now().as_nanos(), i, "out"));
                drop(g);
            });
        }
        sim.run().assert_completed();
        let l = log.borrow();
        // Non-overlapping critical sections, FIFO order 0,1,2.
        assert_eq!(
            *l,
            vec![
                (0, 0, "in"),
                (1_000, 0, "out"),
                (1_000, 1, "in"),
                (2_000, 1, "out"),
                (2_000, 2, "in"),
                (3_000, 2, "out"),
            ]
        );
    }

    #[test]
    fn semaphore_fifo_prevents_large_request_starvation() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let sem = Semaphore::new(&ctx, 2);
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        // holder takes both permits for 1us.
        {
            let (sem, ctx, order) = (sem.clone(), ctx.clone(), order.clone());
            sim.spawn("holder", async move {
                let g = sem.acquire_many(2).await;
                order.borrow_mut().push("holder");
                ctx.sleep(SimDuration::micros(1)).await;
                drop(g);
            });
        }
        // big wants 2 permits, queued first.
        {
            let (sem, ctx, order) = (sem.clone(), ctx.clone(), order.clone());
            sim.spawn("big", async move {
                ctx.sleep(SimDuration::nanos(10)).await;
                let _g = sem.acquire_many(2).await;
                order.borrow_mut().push("big");
            });
        }
        // small wants 1, queued second; must NOT overtake big.
        {
            let (sem, ctx, order) = (sem.clone(), ctx.clone(), order.clone());
            sim.spawn("small", async move {
                ctx.sleep(SimDuration::nanos(20)).await;
                let _g = sem.acquire().await;
                order.borrow_mut().push("small");
            });
        }
        sim.run().assert_completed();
        assert_eq!(*order.borrow(), vec!["holder", "big", "small"]);
    }

    #[test]
    fn oneshot_delivers_to_all_waiters() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ev: OneShot<u32> = OneShot::new(&ctx);
        let mut handles = Vec::new();
        for i in 0..4 {
            let ev = ev.clone();
            handles.push(sim.spawn(format!("w{i}"), async move { ev.wait().await }));
        }
        let ctx2 = ctx.clone();
        sim.spawn("setter", async move {
            ctx2.sleep(SimDuration::micros(3)).await;
            ev.set(77);
        });
        sim.run().assert_completed();
        for h in handles {
            assert_eq!(h.try_result(), Some(77));
        }
    }

    #[test]
    fn oneshot_wakes_waiters_in_arrival_order() {
        // The first waiter is stored inline, the rest spill to a Vec;
        // the seam must not reorder them.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ev: OneShot<()> = OneShot::new(&ctx);
        let woken: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        // Arrival order 3, 1, 4, 0, 2 — not spawn order.
        for (i, arrives_at) in [4u64, 2, 5, 1, 3].into_iter().enumerate() {
            let (ctx, ev, woken) = (ctx.clone(), ev.clone(), woken.clone());
            sim.spawn(format!("w{i}"), async move {
                ctx.sleep(SimDuration::nanos(arrives_at)).await;
                ev.wait().await;
                woken.borrow_mut().push(arrives_at);
            });
        }
        sim.spawn("setter", async move {
            ctx.sleep(SimDuration::micros(1)).await;
            ev.set(());
        });
        sim.run().assert_completed();
        assert_eq!(*woken.borrow(), vec![1, 2, 3, 4, 5]);
    }

    /// A victim gives up on `blocked` after 1 µs and returns, an heir
    /// that sleeps 10 µs takes over its slot, and `release` then wakes
    /// whoever the wait list still names. Returns (polls, table length).
    fn wake_after_the_waiter_left(
        mut sim: Simulation,
        blocked: impl Future<Output = ()> + 'static,
        release: impl FnOnce() + 'static,
    ) -> (u64, usize) {
        let ctx = sim.handle();
        sim.spawn("driver", async move {
            let c = ctx.clone();
            let victim = ctx.spawn("victim", async move {
                c.timeout(SimDuration::micros(1), blocked).await
            });
            ctx.sleep(SimDuration::micros(2)).await;
            assert_eq!(victim.await, None, "the victim timed out");
            let c = ctx.clone();
            let heir = ctx.spawn("heir", async move {
                c.sleep(SimDuration::micros(10)).await;
            });
            ctx.sleep(SimDuration::micros(1)).await;
            release();
            heir.await;
        });
        sim.run().assert_completed();
        (sim.events_processed(), sim.process_slots())
    }

    #[test]
    fn a_dead_waiters_id_does_not_wake_its_slots_new_occupant() {
        // driver ×4 (start, respawn, release + join, joined), victim ×2
        // (wait, time out), heir ×2 (arm its sleep, wake at 12 µs): a
        // wake that reached the heir through the victim's id would be a
        // 9th poll.
        let oneshot = |sim: Simulation| {
            let ev: OneShot<()> = OneShot::new(&sim.handle());
            let ev2 = ev.clone();
            wake_after_the_waiter_left(sim, async move { ev2.wait().await }, move || ev.set(()))
        };
        assert_eq!(oneshot(Simulation::new(1)), (8, 2));
        assert_eq!(oneshot(Simulation::new_never_reusing(1)), (8, 3));

        // A timed-out acquirer withdraws from the queue when its future
        // is dropped; the release must find neither it nor the heir.
        let semaphore = |sim: Simulation| {
            let sem = Semaphore::new(&sim.handle(), 0);
            let sem2 = sem.clone();
            wake_after_the_waiter_left(sim, async move { drop(sem2.acquire().await) }, move || {
                sem.release_many(1)
            })
        };
        assert_eq!(semaphore(Simulation::new(1)), (8, 2));
        assert_eq!(semaphore(Simulation::new_never_reusing(1)), (8, 3));
    }

    #[test]
    fn timed_out_oneshot_waits_leave_no_ids_behind() {
        // k victims give up on one long-lived event at staggered times;
        // every abandoned wait must withdraw its id, the inline first
        // one and the spilled rest alike.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ev: OneShot<()> = OneShot::new(&ctx);
        let k = 5;
        for i in 0..k {
            let (ctx, ev) = (ctx.clone(), ev.clone());
            sim.spawn(format!("victim{i}"), async move {
                let patience = SimDuration::micros(i + 1);
                assert_eq!(ctx.timeout(patience, ev.wait()).await, None);
            });
        }
        sim.run().assert_completed();
        assert!(!ev.is_set());
        assert_eq!(ev.state.borrow_mut().waiters.drain().count(), 0);
    }

    #[test]
    fn oneshot_wait_after_set_is_immediate() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ev: OneShot<u8> = OneShot::new(&ctx);
        ev.set(5);
        let h = sim.spawn("late", async move { ev.wait().await });
        sim.run().assert_completed();
        assert_eq!(h.try_result(), Some(5));
    }

    #[test]
    fn barrier_releases_all_at_last_arrival() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let bar = Barrier::new(&ctx, 3);
        let mut handles = Vec::new();
        for i in 0..3u64 {
            let bar = bar.clone();
            let ctx = ctx.clone();
            handles.push(sim.spawn(format!("p{i}"), async move {
                ctx.sleep(SimDuration::micros(i + 1)).await;
                bar.wait().await;
                ctx.now().as_micros()
            }));
        }
        sim.run().assert_completed();
        for h in handles {
            // Everyone leaves at the last arrival time (3us).
            assert_eq!(h.try_result(), Some(3));
        }
    }

    #[test]
    fn barrier_is_reusable() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let bar = Barrier::new(&ctx, 2);
        for i in 0..2u64 {
            let bar = bar.clone();
            let ctx = ctx.clone();
            sim.spawn(format!("p{i}"), async move {
                for round in 0..5u64 {
                    ctx.sleep(SimDuration::micros(i * (round + 1) + 1)).await;
                    bar.wait().await;
                }
            });
        }
        sim.run().assert_completed();
    }

    #[test]
    fn abandoned_acquire_does_not_wedge_the_semaphore() {
        // A waiter that times out while queued must withdraw its request
        // so later (or queued-behind) waiters still make progress, and
        // permits granted to an abandoned waiter must flow back.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let sem = Semaphore::new(&ctx, 4);
        let s1 = sem.clone();
        let c1 = ctx.clone();
        sim.spawn("holder", async move {
            let g = s1.acquire_many(4).await;
            c1.sleep(SimDuration::micros(100)).await;
            drop(g);
        });
        let s2 = sem.clone();
        let c2 = ctx.clone();
        let impatient = sim.spawn("impatient", async move {
            c2.sleep(SimDuration::micros(1)).await;
            // Queued behind the holder, gives up at t = 11us.
            c2.timeout(SimDuration::micros(10), s2.acquire_many(4))
                .await
        });
        let s3 = sem.clone();
        let c3 = ctx.clone();
        let patient = sim.spawn("patient", async move {
            c3.sleep(SimDuration::micros(2)).await;
            let _g = s3.acquire_many(4).await;
            c3.now().as_micros()
        });
        sim.run().assert_completed();
        assert!(impatient.try_result().unwrap().is_none(), "timed out");
        // The patient waiter gets the permits as soon as the holder
        // releases them; the abandoned request in front of it is skipped.
        assert_eq!(patient.try_result(), Some(100));
        assert_eq!(sem.available(), 4, "no permits leaked");
    }
}
