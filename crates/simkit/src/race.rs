//! Race combinator: run two futures until either completes, and the
//! deadline built on it ([`Sim::timeout`]).
//!
//! The loser is dropped: any wake-ups it queued become no-ops. The first
//! future has deterministic priority — if both are ready at the same
//! instant, `Left` wins.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::sim::Sim;
use crate::time::SimDuration;

/// Which side of a [`Race`] finished first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future completed (it also wins ties).
    Left(A),
    /// The second future completed.
    Right(B),
}

impl<A, B> Either<A, B> {
    /// The left value, if this is `Left`.
    pub fn left(self) -> Option<A> {
        match self {
            Either::Left(a) => Some(a),
            Either::Right(_) => None,
        }
    }

    /// The right value, if this is `Right`.
    pub fn right(self) -> Option<B> {
        match self {
            Either::Left(_) => None,
            Either::Right(b) => Some(b),
        }
    }

    /// True if this is `Left`.
    pub fn is_left(&self) -> bool {
        matches!(self, Either::Left(_))
    }
}

/// Future returned by [`Sim::race`].
pub struct Race<A, B> {
    a: Pin<Box<A>>,
    b: Pin<Box<B>>,
}

impl<A: Future, B: Future> Future for Race<A, B> {
    type Output = Either<A::Output, B::Output>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Poll::Ready(v) = self.a.as_mut().poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = self.b.as_mut().poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    }
}

impl Sim {
    /// Race two futures; the first to complete wins and the other is
    /// dropped. `a` is polled first, so it wins same-instant ties —
    /// callers should put the authoritative side (e.g. an interrupt
    /// signal) on the left when ties must resolve deterministically.
    pub fn race<A: Future, B: Future>(&self, a: A, b: B) -> Race<A, B> {
        Race {
            a: Box::pin(a),
            b: Box::pin(b),
        }
    }

    /// Race `fut` against a deadline `d` of virtual time from now:
    /// `Some(v)` if `fut` finishes first (or at the deadline instant),
    /// `None` once the deadline passes. A losing `fut` is dropped as in
    /// [`Sim::race`]: half-completed protocol interactions behave as if
    /// the process had abandoned them.
    pub fn timeout<F: Future>(
        &self,
        d: SimDuration,
        fut: F,
    ) -> impl Future<Output = Option<F::Output>> {
        let race = self.race(fut, self.sleep(d));
        async move { race.await.left() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use crate::sync::OneShot;

    #[test]
    fn faster_side_wins() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let h = sim.spawn("t", async move {
            let c1 = ctx.clone();
            let c2 = ctx.clone();
            let r = ctx
                .race(
                    async move {
                        c1.sleep(SimDuration::micros(50)).await;
                        "slow"
                    },
                    async move {
                        c2.sleep(SimDuration::micros(5)).await;
                        "fast"
                    },
                )
                .await;
            (r, ctx.now().as_micros())
        });
        sim.run().assert_completed();
        let (r, t) = h.try_result().unwrap();
        assert_eq!(r, Either::Right("fast"));
        assert_eq!(t, 5);
    }

    #[test]
    fn left_wins_ties() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let h = sim.spawn("t", async move {
            let c1 = ctx.clone();
            let c2 = ctx.clone();
            ctx.race(
                async move {
                    c1.sleep(SimDuration::micros(5)).await;
                    1u8
                },
                async move {
                    c2.sleep(SimDuration::micros(5)).await;
                    2u8
                },
            )
            .await
        });
        sim.run().assert_completed();
        assert_eq!(h.try_result(), Some(Either::Left(1)));
    }

    #[test]
    fn losing_waiter_does_not_wedge_the_event() {
        // Race a OneShot wait against a sleep; when the sleep wins, the
        // dropped waiter must not break the event for later setters.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ev: OneShot<u32> = OneShot::new(&ctx);
        let ev2 = ev.clone();
        let ctx2 = ctx.clone();
        let racer = sim.spawn("racer", async move {
            let c = ctx2.clone();
            ctx2.race(ev2.wait(), async move {
                c.sleep(SimDuration::micros(5)).await;
            })
            .await
            .is_left()
        });
        let ctx3 = ctx.clone();
        sim.spawn("setter", async move {
            ctx3.sleep(SimDuration::micros(100)).await;
            ev.set(7);
        });
        sim.run().assert_completed();
        assert_eq!(racer.try_result(), Some(false));
    }

    #[test]
    fn completes_before_deadline() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let h = sim.spawn("t", async move {
            let inner = ctx.clone();
            ctx.timeout(SimDuration::millis(1), async move {
                inner.sleep(SimDuration::micros(10)).await;
                42u32
            })
            .await
        });
        sim.run().assert_completed();
        assert_eq!(h.try_result(), Some(Some(42)));
    }

    #[test]
    fn deadline_fires_first() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let h = sim.spawn("t", async move {
            let inner = ctx.clone();
            let r = ctx
                .timeout(SimDuration::micros(10), async move {
                    inner.sleep(SimDuration::millis(1)).await;
                    42u32
                })
                .await;
            (r, ctx.now().as_micros())
        });
        sim.run().assert_completed();
        let (r, t) = h.try_result().unwrap();
        assert_eq!(r, None);
        assert_eq!(t, 10, "gave up exactly at the deadline");
    }

    #[test]
    fn timed_out_wait_does_not_wedge_the_event() {
        // Waiting on a OneShot with a timeout, then the event fires later:
        // the dropped waiter must not break the event for others.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let ev: OneShot<u32> = OneShot::new(&ctx);
        let ev2 = ev.clone();
        let ctx2 = ctx.clone();
        let impatient = sim.spawn("impatient", async move {
            ctx2.timeout(SimDuration::micros(5), ev2.wait()).await
        });
        let ev3 = ev.clone();
        let patient = sim.spawn("patient", async move { ev3.wait().await });
        let ctx3 = ctx.clone();
        sim.spawn("setter", async move {
            ctx3.sleep(SimDuration::micros(100)).await;
            ev.set(7);
        });
        sim.run().assert_completed();
        assert_eq!(impatient.try_result(), Some(None));
        assert_eq!(patient.try_result(), Some(7));
    }
}
