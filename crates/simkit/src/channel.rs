//! In-simulation message channels.
//!
//! These deliver values between simulated processes in **zero virtual
//! time** — they are a programming primitive, not a network model. Network
//! crates layer transport delays on top by sleeping before `send`.
//!
//! A [`channel`] is an unbounded queue: any number of senders and
//! receivers is allowed, and receivers compete for items in FIFO order.
//! Sending never waits; receiving waits while the queue is empty.

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
    recv_waiters: VecDeque<ProcId>,
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
    let state = Rc::new(RefCell::new(ChanState {
        queue: VecDeque::new(),
        recv_waiters: VecDeque::new(),
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
        self.state.borrow_mut().receivers -= 1;
    }
}

impl<T> Sender<T> {
    /// Queue a value without waiting. Fails only if all receivers are
    /// gone.
    pub fn try_send(&self, value: T) -> Result<(), T> {
        let mut st = self.state.borrow_mut();
        if st.receivers == 0 {
            return Err(value);
        }
        st.queue.push_back(value);
        if let Some(w) = st.recv_waiters.pop_front() {
            self.sim.kernel().make_ready(w);
        }
        Ok(())
    }

    /// Send: [`Sender::try_send`] as a future, which never waits.
    pub async fn send(&self, value: T) -> Result<(), SendError> {
        self.try_send(value).map_err(|_| SendError)
    }
}

impl<T> Receiver<T> {
    /// Receive, suspending while the channel is empty. Resolves to
    /// `Err(RecvError)` once the channel is empty *and* all senders dropped.
    pub fn recv(&self) -> RecvFut<'_, T> {
        RecvFut {
            chan: self,
            queued: None,
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
            if let Some(pos) = st.recv_waiters.iter().position(|&w| w == me) {
                st.recv_waiters.remove(pos);
            } else if !st.queue.is_empty() {
                if let Some(w) = st.recv_waiters.pop_front() {
                    self.chan.sim.kernel().make_ready(w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::race::Either;
    use crate::sim::Simulation;
    use crate::time::{SimDuration, SimTime};

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
        let (tx, rx) = channel::<u8>(&ctx);
        let c = ctx.clone();
        sim.spawn("producer", async move {
            tx.send(1).await.unwrap();
            // Receiver will drop without draining; second send must fail.
            c.sleep(SimDuration::micros(2)).await;
            assert_eq!(tx.send(2).await, Err(SendError));
            assert_eq!(tx.try_send(3), Err(3));
        });
        let c2 = ctx.clone();
        sim.spawn("consumer", async move {
            c2.sleep(SimDuration::micros(1)).await;
            drop(rx);
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
        // At 1 µs the sender (its timer armed first) sends and pops P,
        // whose race then resolves on its sleep at that same instant: the
        // wake P never uses must reach Q at once, although the sender
        // holds the channel open until 1 001 µs.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let at = SimTime::ZERO + SimDuration::micros(1);
        let (tx, rx) = channel::<u32>(&ctx);
        let c = ctx.clone();
        sim.spawn("sender", async move {
            c.sleep_until(at).await;
            tx.send(7).await.unwrap();
            c.sleep(SimDuration::micros(1_000)).await;
            drop(tx);
        });
        let (rx_q, c) = (rx.clone(), ctx.clone());
        let p = sim.spawn(
            "p",
            async move { c.race(c.sleep_until(at), rx.recv()).await },
        );
        let q = sim.spawn("q", async move {
            let v = rx_q.recv().await.unwrap();
            (v, ctx.now())
        });
        sim.run().assert_completed();
        assert_eq!(p.try_result(), Some(Either::Left(())));
        assert_eq!(q.try_result(), Some((7, at)));
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
