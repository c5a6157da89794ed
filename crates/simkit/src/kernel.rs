//! The simulation kernel: event queue, process table and ready list.
//!
//! The kernel is deliberately separated from the public [`crate::Sim`]
//! handle so that all mutation happens behind a single `RefCell`. The
//! executor never holds a kernel borrow while polling a process, which is
//! what allows process bodies to freely call back into the kernel (to
//! spawn, sleep, or touch channels) without re-entrancy panics.
//!
//! ## Hot-path layout
//!
//! The process table is split into a *hot* slab (`procs`: future, slot
//! generation, run-state flag — 24 bytes) and a *cold* side table (`meta`)
//! touched only at spawn, join and exit. The event loop touches one hot
//! slot per event, so thousands of processes stay in L1.
//!
//! Both cost memory per *live* process: a process that ends bumps its
//! slot's generation and frees the slot for the next spawn. A [`ProcId`]
//! carries the generation, and a stale id is dropped wherever it arrives
//! late, exactly as a wake of a finished process always was; slot order
//! never feeds scheduling, so reuse cannot move a trace (DESIGN §4).
//!
//! Timers live in two structures: a 1 024-slot wheel for deadlines under
//! a microsecond away and one overflow `BinaryHeap` for everything
//! further out. [`Kernel::fire_timers_at`] drains both in `(at, seq)` order.
//!
//! Timers use lazy deletion: a cancelled sleep (future dropped before its
//! deadline) marks its token dead and the heap entry is discarded when it
//! surfaces, so timeout- and race-heavy workloads no longer accumulate
//! dead entries that must be popped, re-heapified and filtered at the
//! worst possible moment.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;

use crate::time::SimTime;

/// Tokens of cancelled timers. Only ever probed by key (`insert`,
/// `remove`, `is_empty`), on the timer-pop path.
#[expect(
    clippy::disallowed_types,
    reason = "keyed access only, never iterated: hash order cannot reach an event"
)]
type CancelledSet = std::collections::HashSet<u64>;

/// Identifier of a simulated process: its slot in the process table plus
/// the slot's generation at spawn. The slot is reused once the process
/// has finished; an id held past that is *stale* and names a finished
/// process (waking it is a no-op, joining it resolves at once). The
/// generation wraps after 2³² reuses of one slot: an id kept across
/// exactly that many would be taken for the new occupant (ABA).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProcId {
    index: u32,
    generation: u32,
}

/// A future pinned on the heap, as stored in the process table.
pub(crate) type BoxedProc = Pin<Box<dyn Future<Output = ()>>>;

/// Hot per-slot state: exactly what the event loop touches per poll.
#[derive(Default)]
pub(crate) struct ProcSlot {
    /// The occupant's future, except while being polled; `None` if free.
    fut: Option<BoxedProc>,
    /// Bumped when the occupant ends: its ids go stale before any reuse.
    generation: u32,
    /// Set while the process is in the ready list to avoid duplicate polls.
    queued: bool,
}

/// Cold per-slot state, parallel to the hot slab.
#[derive(Default)]
struct ProcMeta {
    /// Empty in a free slot; the buffer is kept for the next occupant.
    name: String,
    /// Processes waiting on the occupant's completion.
    joiners: Waiters,
    /// Spawn order of the occupant, which slot order no longer is.
    spawned: u64,
}

/// How a spawn names its process.
pub(crate) enum ProcName<'a> {
    /// Moved into the slot: no copy, and no second allocation when the
    /// slot is new.
    Owned(String),
    /// Formatted into the buffer the slot kept.
    Fmt(fmt::Arguments<'a>),
}

/// An arrival-ordered wait list with its first entry inline: a join or a
/// posted receive has one waiter and allocates nothing; more spill over.
#[derive(Default)]
pub(crate) struct Waiters {
    /// `None` only while `rest` is empty.
    first: Option<ProcId>,
    rest: Vec<ProcId>,
}

impl Waiters {
    /// Add `id` unless it waits already (a re-polled waiter re-registers).
    pub(crate) fn insert(&mut self, id: ProcId) {
        match self.first {
            None => self.first = Some(id),
            Some(first) if first == id || self.rest.contains(&id) => {}
            Some(_) => self.rest.push(id),
        }
    }

    /// Remove every waiter, yielding them in arrival order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = ProcId> + '_ {
        self.first.take().into_iter().chain(self.rest.drain(..))
    }
}

/// A far-horizon timer entry in the overflow heap. Ordered by `(at, seq)`
/// so that simultaneous events fire in the order they were scheduled —
/// this is the cornerstone of reproducibility.
#[derive(Clone, Copy)]
struct Timer {
    at: SimTime,
    /// Schedule order at equal `at`; unique per timer, so it doubles as
    /// the cancellation token: a sleep whose future is dropped registers
    /// its `seq` in `Kernel::cancelled` and the entry is discarded when
    /// it surfaces. One field, 24-byte entries.
    seq: u64,
    proc: ProcId,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Horizon of the short-timer wheel, in slots of one nanosecond each.
/// Must be a power of two. LogGP gaps, per-hop latencies and back-off
/// waits are all under a microsecond, so the overwhelming majority of
/// timers land here; anything further out takes the heap path.
const WHEEL_SLOTS: usize = 1024;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// Index-based timer wheel for deadlines within [`WHEEL_SLOTS`] ns of now.
///
/// Insertion and removal are O(1): slot `at % WHEEL_SLOTS` holds every
/// pending timer due at instant `at` (the mapping is injective because
/// the kernel never advances time past a pending timer, so live deadlines
/// always span less than one wheel turn). Within a slot, entries are
/// naturally seq-sorted — `seq` grows monotonically with scheduling
/// order, and slots only ever append. An occupancy bitmap makes "next
/// non-empty slot" a couple of `trailing_zeros` calls rather than a scan.
///
/// Slot `Vec`s keep their capacity across turns, so the steady-state
/// wheel performs no allocation at all.
struct TimerWheel {
    slots: Vec<Vec<(u64, ProcId)>>,
    occupied: [u64; WHEEL_WORDS],
    len: usize,
}

impl TimerWheel {
    fn new() -> Self {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            len: 0,
        }
    }

    #[inline(always)]
    fn slot_of(at: SimTime) -> usize {
        at.as_nanos() as usize & (WHEEL_SLOTS - 1)
    }

    #[inline]
    fn push(&mut self, at: SimTime, seq: u64, proc: ProcId) {
        let s = Self::slot_of(at);
        self.slots[s].push((seq, proc));
        self.occupied[s / 64] |= 1 << (s % 64);
        self.len += 1;
    }

    /// Absolute time of the earliest pending wheel timer, given `now`.
    /// All live entries are due within [now, now + WHEEL_SLOTS), so the
    /// circular slot distance from `now`'s slot *is* the time distance.
    fn next_at(&self, now: SimTime) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let cursor = Self::slot_of(now);
        let mut dist = None;
        let (w0, b0) = (cursor / 64, cursor % 64);
        let first = self.occupied[w0] >> b0;
        if first != 0 {
            dist = Some(first.trailing_zeros() as usize);
        } else {
            for step in 1..=WHEEL_WORDS {
                let w = (w0 + step) % WHEEL_WORDS;
                let word = if w == w0 {
                    // Wrapped all the way: only bits before the cursor.
                    self.occupied[w0] & ((1u64 << b0) - 1)
                } else {
                    self.occupied[w]
                };
                if word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    dist = Some((w * 64 + bit + WHEEL_SLOTS - cursor) % WHEEL_SLOTS);
                    break;
                }
            }
        }
        dist.map(|d| SimTime(now.as_nanos() + d as u64))
    }

    /// Drop cancelled entries from the slot due at `at`; returns true if
    /// the slot still has live entries. Only called on the rare path
    /// where the cancelled set is non-empty.
    fn purge(&mut self, at: SimTime, cancelled: &mut CancelledSet) -> bool {
        let s = Self::slot_of(at);
        let slot = &mut self.slots[s];
        let before = slot.len();
        slot.retain(|&(seq, _)| !cancelled.remove(&seq));
        self.len -= before - slot.len();
        if slot.is_empty() {
            self.occupied[s / 64] &= !(1 << (s % 64));
            false
        } else {
            true
        }
    }
}

/// Why [`crate::Simulation::run`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// All processes finished and the event queue drained.
    Completed,
    /// Live processes remain but none can ever make progress.
    /// Contains the names of the blocked processes (up to a small cap).
    Deadlock(Vec<String>),
}

pub(crate) struct Kernel {
    pub(crate) now: SimTime,
    seq: u64,
    /// O(1) queue for deadlines within the wheel horizon (the hot path).
    wheel: TimerWheel,
    /// Overflow heap for far-horizon deadlines.
    heap: BinaryHeap<Timer>,
    /// Tokens of cancelled (not yet surfaced) timers. Almost always empty;
    /// the `is_empty` fast path keeps the per-event cost at one branch.
    cancelled: CancelledSet,
    pub(crate) ready: VecDeque<ProcId>,
    /// Hot process slab; as long as the peak number of live processes.
    pub(crate) procs: Vec<ProcSlot>,
    /// Cold side table, parallel to `procs`.
    meta: Vec<ProcMeta>,
    /// Free slots, reused last-freed-first (likeliest still in cache).
    free: Vec<u32>,
    /// Processes spawned so far.
    spawned: u64,
    /// Test reference: free slots are not reused, so ids stay dense and
    /// a stale id can never meet a new occupant.
    #[cfg(test)]
    pub(crate) never_reuse: bool,
    /// Currently polled process; valid only during a poll.
    pub(crate) current: Option<ProcId>,
    /// Number of live processes.
    pub(crate) live: usize,
    /// Total process polls performed — the kernel's event counter, used
    /// for events/s reporting by the scaling benchmarks.
    pub(crate) events: u64,
}

impl Kernel {
    pub(crate) fn new() -> Self {
        Kernel {
            now: SimTime::ZERO,
            seq: 0,
            wheel: TimerWheel::new(),
            heap: BinaryHeap::with_capacity(256),
            cancelled: CancelledSet::new(),
            ready: VecDeque::with_capacity(256),
            procs: Vec::with_capacity(256),
            meta: Vec::with_capacity(256),
            free: Vec::new(),
            spawned: 0,
            #[cfg(test)]
            never_reuse: false,
            current: None,
            live: 0,
            events: 0,
        }
    }

    /// Register a new process in the most recently freed slot (or a new
    /// one); it becomes runnable immediately.
    pub(crate) fn add_proc(&mut self, name: ProcName<'_>, fut: BoxedProc) -> ProcId {
        use fmt::Write as _;
        let index = self.free.pop().unwrap_or_else(|| {
            self.procs.push(ProcSlot::default());
            self.meta.push(ProcMeta::default());
            u32::try_from(self.procs.len() - 1).expect("over u32::MAX processes live at once")
        });
        let slot = &mut self.procs[index as usize];
        slot.fut = Some(fut);
        slot.queued = true;
        let id = ProcId {
            index,
            generation: slot.generation,
        };
        let meta = &mut self.meta[index as usize];
        match name {
            ProcName::Owned(name) => meta.name = name,
            ProcName::Fmt(args) => drop(meta.name.write_fmt(args)),
        }
        meta.spawned = self.spawned;
        self.spawned += 1;
        self.live += 1;
        self.ready.push_back(id);
        id
    }

    /// The process being polled right now. Panics outside a poll: kernel
    /// futures may only be awaited from inside simulation processes.
    #[inline]
    pub(crate) fn current_proc(&self) -> ProcId {
        self.current
            .expect("simkit future polled outside a simulation process")
    }

    /// Mark a process runnable (idempotent while queued; no-op if stale).
    #[inline]
    pub(crate) fn make_ready(&mut self, id: ProcId) {
        let slot = &mut self.procs[id.index as usize];
        if slot.generation == id.generation && !slot.queued {
            slot.queued = true;
            self.ready.push_back(id);
        }
    }

    /// Pop the next runnable process and take its future for polling.
    /// Sets `current`; the caller must hand the future back through
    /// [`Kernel::finish_poll`]. One kernel borrow instead of three.
    #[inline]
    pub(crate) fn take_ready(&mut self) -> Option<(ProcId, BoxedProc)> {
        while let Some(pid) = self.ready.pop_front() {
            let slot = &mut self.procs[pid.index as usize];
            if slot.generation != pid.generation {
                continue; // stale wake; `queued` is the new occupant's
            }
            slot.queued = false;
            if let Some(fut) = slot.fut.take() {
                self.current = Some(pid);
                self.events += 1;
                return Some((pid, fut));
            }
        }
        None
    }

    /// Store the future back after a pending poll (single kernel borrow).
    /// Completed futures are instead reported via [`Kernel::finish_proc`].
    #[inline]
    pub(crate) fn finish_poll(&mut self, pid: ProcId, fut: BoxedProc) {
        self.current = None;
        self.procs[pid.index as usize].fut = Some(fut);
    }

    /// Schedule a wake-up for `proc` at absolute time `at`.
    /// Returns the token (the timer's unique `seq`) guarding this timer.
    #[inline]
    pub(crate) fn schedule_wake(&mut self, at: SimTime, proc: ProcId) -> u64 {
        debug_assert!(at >= self.now, "cannot schedule in the past");
        self.seq += 1;
        if at.as_nanos() - self.now.as_nanos() < WHEEL_SLOTS as u64 {
            self.wheel.push(at, self.seq, proc);
        } else {
            self.heap.push(Timer {
                at,
                seq: self.seq,
                proc,
            });
        }
        self.seq
    }

    /// Lazily delete a pending timer: the entry stays in the heap but is
    /// discarded when it surfaces. Callers must only cancel timers that
    /// have not fired yet (a `Sleep` knows: its deadline is still ahead).
    #[inline]
    pub(crate) fn cancel_wake(&mut self, token: u64) {
        self.cancelled.insert(token);
    }

    /// Time of the earliest *live* pending timer, if any. Purges dead
    /// (cancelled) entries from the top of the heap as a side effect.
    #[inline]
    pub(crate) fn next_timer_at(&mut self) -> Option<SimTime> {
        let heap_at = loop {
            match self.heap.peek() {
                None => break None,
                Some(t) => {
                    if self.cancelled.is_empty() || !self.cancelled.remove(&t.seq) {
                        break Some(t.at);
                    }
                    self.heap.pop();
                }
            }
        };
        let wheel_at = loop {
            match self.wheel.next_at(self.now) {
                None => break None,
                Some(at) => {
                    if self.cancelled.is_empty() || self.wheel.purge(at, &mut self.cancelled) {
                        break Some(at);
                    }
                    // Slot was entirely cancelled entries; keep scanning.
                }
            }
        };
        match (heap_at, wheel_at) {
            (Some(h), Some(w)) => Some(h.min(w)),
            (h, None) => h,
            (None, w) => w,
        }
    }

    /// Fire every live timer due at instant `at` — which the caller just
    /// obtained from [`Kernel::next_timer_at`] — advancing `now` and
    /// waking the owners in schedule order.
    ///
    /// The heap's timers wake before the wheel's, and that is `(at, seq)`
    /// order: pops at equal `at` come out of the heap seq-sorted, a wheel
    /// slot is seq-sorted by construction (append-only, `seq` monotone),
    /// and every heap-resident timer for this instant was scheduled when
    /// the deadline was a full wheel horizon away — strictly earlier in
    /// virtual time than any wheel-resident timer for the same instant —
    /// so all heap seqs precede all wheel seqs.
    #[inline]
    pub(crate) fn fire_timers_at(&mut self, at: SimTime) {
        self.now = at;
        while let Some(&Timer { at: due, seq, proc }) = self.heap.peek() {
            if due != at {
                break;
            }
            self.heap.pop();
            // Skip a timer cancelled while queued at this instant.
            if self.cancelled.is_empty() || !self.cancelled.remove(&seq) {
                self.make_ready(proc);
            }
        }
        let s = TimerWheel::slot_of(at);
        if !self.wheel.slots[s].is_empty() {
            // Take the slot out so waking owners cannot alias the
            // wheel; its capacity is handed straight back.
            let mut slot = std::mem::take(&mut self.wheel.slots[s]);
            self.wheel.occupied[s / 64] &= !(1 << (s % 64));
            self.wheel.len -= slot.len();
            for &(seq, proc) in &slot {
                if self.cancelled.is_empty() || !self.cancelled.remove(&seq) {
                    self.make_ready(proc);
                }
            }
            slot.clear();
            self.wheel.slots[s] = slot;
        }
    }

    /// The poll returned `Ready`: end the process. Its ids go stale, its
    /// joiners wake, its slot is free and nameless. The poll loop holds
    /// the finished future and drops it outside the kernel borrow.
    pub(crate) fn finish_proc(&mut self, id: ProcId) {
        self.current = None;
        let slot = &mut self.procs[id.index as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.queued = false;
        self.live -= 1;
        let meta = &mut self.meta[id.index as usize];
        meta.name.clear();
        let mut joiners = std::mem::take(&mut meta.joiners);
        for w in joiners.drain() {
            self.make_ready(w);
        }
        self.meta[id.index as usize].joiners = joiners;
        #[cfg(test)]
        if self.never_reuse {
            return;
        }
        self.free.push(id.index);
    }

    /// True if `id` has finished; else it wakes the polled process when it does.
    #[inline]
    pub(crate) fn join(&mut self, id: ProcId) -> bool {
        let finished = self.is_finished(id);
        if !finished {
            let me = self.current_proc();
            self.meta[id.index as usize].joiners.insert(me);
        }
        finished
    }

    /// True if the process has terminated.
    #[inline]
    pub(crate) fn is_finished(&self, id: ProcId) -> bool {
        self.procs[id.index as usize].generation != id.generation
    }

    /// Names of processes that are alive but not runnable — the deadlock
    /// set, in spawn order. Called between polls: occupied = holds a future.
    pub(crate) fn blocked_proc_names(&self, cap: usize) -> Vec<String> {
        let slots = self.procs.iter().zip(&self.meta);
        let mut blocked: Vec<&ProcMeta> = slots
            .filter_map(|(s, m)| (s.fut.is_some() && !s.queued).then_some(m))
            .collect();
        blocked.sort_unstable_by_key(|m| m.spawned);
        blocked.truncate(cap);
        blocked.into_iter().map(|m| m.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimDuration, Simulation};

    #[test]
    fn finished_processes_hold_no_name_storage() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("stuck-a", std::future::pending::<()>());
        let c = ctx.clone();
        sim.spawn("driver", async move {
            for i in 0..1_000u32 {
                assert_eq!(c.spawn(format!("helper-{i}"), async move { i }).await, i);
            }
        });
        sim.spawn("stuck-b", std::future::pending::<()>());
        assert_eq!(
            sim.run(),
            RunOutcome::Deadlock(vec!["stuck-a".into(), "stuck-b".into()])
        );
        // Two stuck processes, the driver, and one slot all 1 000
        // helpers took turns in.
        assert_eq!(sim.process_slots(), 4);
        let k = ctx.kernel();
        for (slot, meta) in k.procs.iter().zip(&k.meta) {
            assert_eq!(slot.fut.is_some(), !meta.name.is_empty(), "{}", meta.name);
        }
    }

    #[test]
    fn a_recycled_slot_reports_only_its_occupants_name() {
        // Owned, formatted and literal names take turns in one slot; the
        // longer name of an earlier occupant must never show through.
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("driver", async move {
            let n = ctx.seed(); // a run-time value: really formatted
            ctx.spawn(String::from("an-owned-name-that-is-long"), async {})
                .await;
            ctx.spawn_fmt(format_args!("formatted-and-long-{n}"), async {})
                .await;
            ctx.spawn_fmt(format_args!("literal"), async {}).await;
            ctx.spawn_fmt(format_args!("f{n}"), std::future::pending::<()>())
                .await;
        });
        assert_eq!(
            sim.run(),
            RunOutcome::Deadlock(vec!["driver".into(), "f1".into()])
        );
        assert_eq!(sim.process_slots(), 2);
    }

    #[test]
    fn deadlock_report_is_in_spawn_order_under_reuse() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        sim.spawn("driver", async move {
            // Three helpers retire in order, so the free list hands
            // their slots out last-retired-first: "first" lands in the
            // highest slot, "third" in the lowest.
            let helpers: Vec<_> = (0..3).map(|_| ctx.spawn("helper", async {})).collect();
            crate::join_all(helpers).await;
            for name in ["first", "second", "third"] {
                ctx.spawn(name, std::future::pending::<()>());
            }
            std::future::pending::<()>().await;
        });
        assert_eq!(
            sim.run(),
            RunOutcome::Deadlock(vec![
                "driver".into(),
                "first".into(),
                "second".into(),
                "third".into()
            ])
        );
        assert_eq!(sim.process_slots(), 4);
    }

    #[test]
    fn one_instant_fires_heap_then_wheel_in_seq_order_without_cancelled_timers() {
        // Six processes arm a timer for the same instant, `due`: the
        // "h" ones from ≥ 1 024 ns away (heap), the "w" ones from closer
        // (wheel), neither side in spawn order; one of each side drops
        // its armed sleep again. Ascending `seq` is: h1, h0, w1, w0.
        let at = |ns| SimTime::ZERO + SimDuration::nanos(ns);
        let due = at(5_000);
        let mut sim = Simulation::new(1);
        let woken = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        // (name, instant to arm at, does it drop the armed sleep?)
        for (name, arm_at, cancels) in [
            ("w0", 4_700, false),
            ("w-cancelled", 4_600, true),
            ("w1", 4_400, false),
            ("h0", 1, false),
            ("h1", 0, false),
            ("h-cancelled", 0, true),
        ] {
            let (ctx, woken) = (sim.handle(), woken.clone());
            sim.spawn(name, async move {
                ctx.sleep_until(at(arm_at)).await;
                if !cancels {
                    ctx.sleep_until(due).await;
                    woken.borrow_mut().push((name, ctx.now()));
                    return;
                }
                // Polled once (armed), then dropped: the ready side wins.
                assert!(!ctx.race(ctx.sleep_until(due), async {}).await.is_left());
                let mut later = std::pin::pin!(ctx.sleep_until(at(5_001)));
                let mut polls = 0;
                std::future::poll_fn(|cx| {
                    polls += 1;
                    later.as_mut().poll(cx)
                })
                .await;
                assert_eq!(polls, 2, "{name}: its cancelled timer fired at {due}");
            });
        }
        assert_eq!(sim.run(), RunOutcome::Completed);
        let order = ["h1", "h0", "w1", "w0"].map(|name| (name, due));
        assert_eq!(*woken.borrow(), order);
        assert_eq!(sim.now(), at(5_001));
    }
}
