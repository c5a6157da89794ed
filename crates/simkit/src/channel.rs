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
        RecvFut { chan: self }
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
            Poll::Ready(Ok(()))
        } else {
            let me = this.chan.sim.current_proc();
            if !st.send_waiters.contains(&me) {
                st.send_waiters.push_back(me);
            }
            Poll::Pending
        }
    }
}

/// Future returned by [`Receiver::recv`].
pub struct RecvFut<'a, T> {
    chan: &'a Receiver<T>,
}

impl<T> Future for RecvFut<'_, T> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.chan.state.borrow_mut();
        if let Some(v) = st.queue.pop_front() {
            if let Some(w) = st.send_waiters.pop_front() {
                self.chan.sim.kernel().make_ready(w);
            }
            return Poll::Ready(Ok(v));
        }
        if st.senders == 0 {
            return Poll::Ready(Err(RecvError));
        }
        let me = self.chan.sim.current_proc();
        if !st.recv_waiters.contains(&me) {
            st.recv_waiters.push_back(me);
        }
        Poll::Pending
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
