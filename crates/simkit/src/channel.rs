//! In-simulation message channels.
//!
//! These deliver values between simulated processes in **zero virtual
//! time** — they are a programming primitive, not a network model. Network
//! crates layer transport delays on top by sleeping before `send`.
//!
//! Two flavours:
//! * [`channel`] — unbounded MPSC-ish queue (any number of senders and
//!   receivers is allowed; receivers compete for items, FIFO).
//! * [`bounded`] — capacity-limited; `send` suspends while full, which is
//!   what NIC injection queues and credit-based protocols are built from.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::kernel::ProcId;
use crate::sim::Sim;

struct ChanState<T> {
    queue: VecDeque<T>,
    capacity: usize, // usize::MAX for unbounded
    recv_waiters: VecDeque<ProcId>,
    send_waiters: VecDeque<ProcId>,
    senders: usize,
    receivers: usize,
}

/// Sending half of a channel. Cloneable.
pub struct Sender<T> {
    sim: Sim,
    state: Rc<RefCell<ChanState<T>>>,
}

/// Receiving half of a channel. Cloneable.
pub struct Receiver<T> {
    sim: Sim,
    state: Rc<RefCell<ChanState<T>>>,
}

/// Error returned when sending on a channel with no live receivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError;

/// Error returned when receiving on an empty channel with no live senders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Create an unbounded channel.
pub fn channel<T>(sim: &Sim) -> (Sender<T>, Receiver<T>) {
    bounded(sim, usize::MAX)
}

/// Create a channel holding at most `capacity` queued items.
pub fn bounded<T>(sim: &Sim, capacity: usize) -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(RefCell::new(ChanState {
        queue: VecDeque::new(),
        capacity,
        recv_waiters: VecDeque::new(),
        send_waiters: VecDeque::new(),
        senders: 1,
        receivers: 1,
    }));
    (
        Sender {
            sim: sim.clone(),
            state: state.clone(),
        },
        Receiver {
            sim: sim.clone(),
            state,
        },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().senders += 1;
        Sender {
            sim: self.sim.clone(),
            state: self.state.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.state.borrow_mut();
        st.senders -= 1;
        if st.senders == 0 {
            // Wake all receivers so they can observe disconnection.
            // `make_ready` only borrows the kernel, never the channel
            // state, so waking under the state borrow is safe and
            // allocation-free.
            while let Some(w) = st.recv_waiters.pop_front() {
                self.sim.kernel().make_ready(w);
            }
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().receivers += 1;
        Receiver {
            sim: self.sim.clone(),
            state: self.state.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.state.borrow_mut();
        st.receivers -= 1;
        if st.receivers == 0 {
            while let Some(w) = st.send_waiters.pop_front() {
                self.sim.kernel().make_ready(w);
            }
        }
    }
}

impl<T> Sender<T> {
    /// Queue a value without waiting. Fails if the channel is at capacity
    /// or all receivers are gone.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        let mut st = self.state.borrow_mut();
        if st.receivers == 0 || st.queue.len() >= st.capacity {
            return Err(value);
        }
        st.queue.push_back(value);
        if let Some(w) = st.recv_waiters.pop_front() {
            self.sim.kernel().make_ready(w);
        }
        Ok(())
    }

    /// Send, suspending while the channel is full.
    pub fn send(&self, value: T) -> SendFut<'_, T> {
        SendFut {
            chan: self,
            value: Some(value),
            queued: None,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Receiver<T> {
    /// Take a queued value without waiting.
    pub fn try_recv(&self) -> Option<T> {
        let mut st = self.state.borrow_mut();
        let v = st.queue.pop_front();
        if v.is_some() {
            if let Some(w) = st.send_waiters.pop_front() {
                self.sim.kernel().make_ready(w);
            }
        }
        v
    }

    /// Receive, suspending while the channel is empty. Resolves to
    /// `Err(RecvError)` once the channel is empty *and* all senders dropped.
    pub fn recv(&self) -> RecvFut<'_, T> {
        RecvFut {
            chan: self,
            queued: None,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Future returned by [`Sender::send`].
pub struct SendFut<'a, T> {
    chan: &'a Sender<T>,
    value: Option<T>,
    /// Our id from our first `Pending` until the value is queued: what
    /// `Drop` withdraws.
    queued: Option<ProcId>,
}

// The payload is owned by value and never pinned-projected, so moving the
// future is always sound regardless of `T`.
impl<T> Unpin for SendFut<'_, T> {}

impl<T> Future for SendFut<'_, T> {
    type Output = Result<(), SendError>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY-free pinning: we never move out of a pinned field that
        // needs pinning; T is owned in an Option.
        let this = &mut *self;
        let mut st = this.chan.state.borrow_mut();
        if st.receivers == 0 {
            return Poll::Ready(Err(SendError));
        }
        if st.queue.len() < st.capacity {
            st.queue
                .push_back(this.value.take().expect("SendFut polled after ready"));
            if let Some(w) = st.recv_waiters.pop_front() {
                this.chan.sim.kernel().make_ready(w);
            }
            this.queued = None;
            Poll::Ready(Ok(()))
        } else {
            let me = this.chan.sim.current_proc();
            if !st.send_waiters.contains(&me) {
                st.send_waiters.push_back(me);
            }
            this.queued = Some(me);
            Poll::Pending
        }
    }
}

impl<T> Drop for SendFut<'_, T> {
    /// An abandoned send (timed out, lost a race) withdraws from the
    /// wait list; if a receive already popped it for a wake it never
    /// used, the wake passes to the next sender while there is room.
    fn drop(&mut self) {
        if let Some(me) = self.queued {
            let mut st = self.chan.state.borrow_mut();
            let room = st.receivers > 0 && st.queue.len() < st.capacity;
            withdraw(&self.chan.sim, &mut st.send_waiters, me, room);
        }
    }
}

/// Future returned by [`Receiver::recv`].
pub struct RecvFut<'a, T> {
    chan: &'a Receiver<T>,
    /// Our id from our first `Pending` until we take an item: what
    /// `Drop` withdraws.
    queued: Option<ProcId>,
}

impl<T> Future for RecvFut<'_, T> {
    type Output = Result<T, RecvError>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let mut st = this.chan.state.borrow_mut();
        if let Some(v) = st.queue.pop_front() {
            if let Some(w) = st.send_waiters.pop_front() {
                this.chan.sim.kernel().make_ready(w);
            }
            this.queued = None;
            return Poll::Ready(Ok(v));
        }
        if st.senders == 0 {
            return Poll::Ready(Err(RecvError));
        }
        let me = this.chan.sim.current_proc();
        if !st.recv_waiters.contains(&me) {
            st.recv_waiters.push_back(me);
        }
        this.queued = Some(me);
        Poll::Pending
    }
}

impl<T> Drop for RecvFut<'_, T> {
    /// An abandoned receive (timed out, lost a race) withdraws from the
    /// wait list; if a send already popped it for a wake it never used,
    /// the wake passes to the next receiver while an item is queued.
    fn drop(&mut self) {
        if let Some(me) = self.queued {
            let mut st = self.chan.state.borrow_mut();
            let ready = !st.queue.is_empty();
            withdraw(&self.chan.sim, &mut st.recv_waiters, me, ready);
        }
    }
}

/// Take `me` off `waiters`, or — if a wake already popped it — hand
/// that wake to the next waiter when `pass` says there is something
/// for it to take.
fn withdraw(sim: &Sim, waiters: &mut VecDeque<ProcId>, me: ProcId, pass: bool) {
    if let Some(pos) = waiters.iter().position(|&w| w == me) {
        waiters.remove(pos);
    } else if pass {
        if let Some(w) = waiters.pop_front() {
            sim.kernel().make_ready(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use crate::time::SimDuration;

    #[test]
    fn unbounded_send_recv_fifo() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let (tx, rx) = channel::<u32>(&ctx);
        let c = ctx.clone();
        sim.spawn("producer", async move {
            for i in 0..10 {
                tx.send(i).await.unwrap();
                c.sleep(SimDuration::nanos(5)).await;
            }
        });
        let got = sim.spawn("consumer", async move {
            let mut v = Vec::new();
            while let Ok(x) = rx.recv().await {
                v.push(x);
            }
            v
        });
        sim.run().assert_completed();
        assert_eq!(got.try_result().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_backpressure_blocks_sender() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let (tx, rx) = bounded::<u32>(&ctx, 2);
        let c = ctx.clone();
        sim.spawn("producer", async move {
            for i in 0..4 {
                tx.send(i).await.unwrap();
            }
            // Queue cap 2 and consumer drains one item per microsecond
            // starting at t=10us, so the last send completes at ~12us.
            assert!(c.now().as_micros() >= 10);
        });
        let c2 = ctx.clone();
        sim.spawn("consumer", async move {
            c2.sleep(SimDuration::micros(10)).await;
            for expect in 0..4 {
                let v = rx.recv().await.unwrap();
                assert_eq!(v, expect);
                c2.sleep(SimDuration::micros(1)).await;
            }
        });
        sim.run().assert_completed();
    }

    #[test]
    fn recv_on_disconnected_errors() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let (tx, rx) = channel::<u8>(&ctx);
        sim.spawn("producer", async move {
            tx.send(1).await.unwrap();
            // tx dropped here
        });
        sim.spawn("consumer", async move {
            assert_eq!(rx.recv().await, Ok(1));
            assert_eq!(rx.recv().await, Err(RecvError));
        });
        sim.run().assert_completed();
    }

    #[test]
    fn send_on_disconnected_errors() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let (tx, rx) = bounded::<u8>(&ctx, 1);
        let c = ctx.clone();
        sim.spawn("producer", async move {
            tx.send(1).await.unwrap();
            // Receiver will drop without draining; second send must fail.
            c.sleep(SimDuration::micros(2)).await;
            assert_eq!(tx.send(2).await, Err(SendError));
        });
        let c2 = ctx.clone();
        sim.spawn("consumer", async move {
            c2.sleep(SimDuration::micros(1)).await;
            drop(rx);
        });
        sim.run().assert_completed();
    }

    #[test]
    fn try_send_respects_capacity() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let (tx, rx) = bounded::<u8>(&ctx, 1);
        sim.spawn("p", async move {
            assert!(tx.try_send(1).is_ok());
            assert_eq!(tx.try_send(2), Err(2));
            assert_eq!(rx.try_recv(), Some(1));
            assert_eq!(rx.try_recv(), None);
        });
        sim.run().assert_completed();
    }

    #[test]
    fn an_abandoned_receive_does_not_swallow_the_next_wake() {
        // P gives up on `recv` at 1 µs; Q queues behind P's stale entry
        // at 2 µs. The send at 5 µs must wake Q, not P, even though the
        // sender holds the channel open until 1 005 µs.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let (tx, rx) = channel::<u32>(&ctx);
        let (rx_p, c) = (rx.clone(), ctx.clone());
        sim.spawn("p", async move {
            let got = c.timeout(SimDuration::micros(1), rx_p.recv()).await;
            assert_eq!(got, None);
            c.sleep(SimDuration::micros(100)).await;
        });
        let c = ctx.clone();
        let q = sim.spawn("q", async move {
            c.sleep(SimDuration::micros(2)).await;
            let v = rx.recv().await.unwrap();
            (v, c.now().as_micros())
        });
        sim.spawn("sender", async move {
            ctx.sleep(SimDuration::micros(5)).await;
            tx.send(7).await.unwrap();
            ctx.sleep(SimDuration::micros(1_000)).await;
            drop(tx);
        });
        sim.run().assert_completed();
        assert_eq!(q.try_result(), Some((7, 5)));
    }

    #[test]
    fn an_unused_wake_passes_to_the_next_waiter() {
        // A wake that pops a waiter which is killed before it runs must
        // reach the next waiter at once: receivers P then Q on one
        // channel, senders B then C on a full bounded one.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let (tx, rx) = channel::<u32>(&ctx);
        let (btx, brx) = bounded::<u32>(&ctx, 1);
        btx.try_send(1).unwrap();
        let rx_q = rx.clone();
        let p = sim.spawn("p", async move { rx.recv().await.unwrap() });
        let q = sim.spawn("q", async move { rx_q.recv().await.unwrap() });
        let btx_c = btx.clone();
        let b = sim.spawn("b", async move { btx.send(2).await.unwrap() });
        let c = sim.spawn("c", async move { btx_c.send(3).await.unwrap() });
        let ctx2 = ctx.clone();
        sim.spawn("driver", async move {
            ctx2.yield_now().await; // everyone is queued now
            tx.send(7).await.unwrap(); // wakes P …
            ctx2.kill(p.id()); // … which dies before it runs
            assert_eq!(brx.try_recv(), Some(1)); // wakes B …
            ctx2.kill(b.id()); // … likewise
            ctx2.sleep(SimDuration::micros(1)).await;
            assert_eq!(q.try_result(), Some(7));
            assert!(c.is_finished());
            assert_eq!(brx.try_recv(), Some(3));
            drop(tx);
        });
        sim.run().assert_completed();
    }

    #[test]
    fn multiple_receivers_compete() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let (tx, rx) = channel::<u32>(&ctx);
        let rx2 = rx.clone();
        let a = sim.spawn("rx-a", async move { rx.recv().await.unwrap() });
        let b = sim.spawn("rx-b", async move { rx2.recv().await.unwrap() });
        sim.spawn("tx", async move {
            tx.send(1).await.unwrap();
            tx.send(2).await.unwrap();
        });
        sim.run().assert_completed();
        let mut got = vec![a.try_result().unwrap(), b.try_result().unwrap()];
        got.sort();
        assert_eq!(got, vec![1, 2]);
    }
}
