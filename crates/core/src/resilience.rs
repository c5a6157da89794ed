//! Checkpoint/restart resilience model — the second exascale challenge of
//! slide 3 ("Resiliency") and the takeaways of slide 32.
//!
//! A long-running application on `n` nodes checkpoints every `interval`;
//! node failures arrive as a Poisson process with per-node MTBF `mtbf`;
//! each failure rolls the application back to the last checkpoint and
//! costs a restart. The simulator measures the achieved efficiency
//! (useful work / wall time) and the experiment compares the best
//! interval against Daly's first-order optimum √(2·C·MTBF/n).
//!
//! The multi-level variant ([`simulate_multilevel`]) models the DEEP-ER
//! storage hierarchy: checkpoints rotate over L1 (node-local NVM), L2
//! (buddy replica) and L3 (PFS), failures carry a *severity* (transient,
//! node loss, multi-node loss), and recovery rolls back to the newest
//! checkpoint on a level that survived — the [`deep_io::CommitLog`]
//! bookkeeping is shared with the DES checkpoint engine, and the
//! per-level costs are meant to be measured from it (see
//! [`crate::storage::measure_level_costs`]).

use deep_io::{CkptLevel, CommitLog, FailureSeverity};
use deep_simkit::SimRng;
use rayon::prelude::*;

/// Parameters of one resilience scenario.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceParams {
    /// Useful work to complete, in seconds of failure-free compute.
    pub work_s: f64,
    /// Nodes the job runs on (failure rate scales linearly).
    pub n_nodes: u64,
    /// Per-node mean time between failures, seconds.
    pub mtbf_node_s: f64,
    /// Time to write one checkpoint, seconds.
    pub checkpoint_s: f64,
    /// Time to restart after a failure, seconds.
    pub restart_s: f64,
}

/// Outcome of a simulated run.
#[derive(Debug, Clone, Copy)]
pub struct ResilienceOutcome {
    /// Wall time to finish the work.
    pub wall_s: f64,
    /// Useful work / wall time.
    pub efficiency: f64,
    /// Failures suffered.
    pub failures: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// True when the run hit the wall-time cap before completing its
    /// work — the configuration cannot make progress.
    pub truncated: bool,
}

impl ResilienceOutcome {
    /// Efficiency of `done_s` seconds of useful work over `wall_s` of
    /// wall time. A run that never started (zero wall) has efficiency
    /// 0.0 — explicitly, not NaN.
    pub fn compute_efficiency(done_s: f64, wall_s: f64) -> f64 {
        if wall_s <= 0.0 {
            0.0
        } else {
            done_s / wall_s
        }
    }
}

/// Mean over replicas, with truncation surfaced instead of averaged away.
#[derive(Debug, Clone, Copy)]
pub struct MeanEfficiency {
    /// Mean efficiency over all replicas (truncated ones included, at the
    /// efficiency they achieved before the cap).
    pub efficiency: f64,
    /// How many replicas were cut off before finishing their work.
    pub truncated_runs: u32,
}

/// Daly's first-order optimal checkpoint interval.
pub fn daly_optimum(p: &ResilienceParams) -> f64 {
    (2.0 * p.checkpoint_s * p.mtbf_node_s / p.n_nodes as f64).sqrt()
}

/// Largest `work_s / interval_s` a single-level run may ask for: 2²⁴
/// segments. A failure-free run walks every segment, so the ratio is a
/// lower bound on the work of *one* replica, and beyond 2⁵³ the `done`
/// chain stops moving altogether (`done + interval == done`) and the
/// run never ends. Sweep points and scenarios arrive from daemon peers
/// with each of the two only required to be finite and positive, so
/// both trust boundaries reject a point over the bound
/// ([`segments_within_bound`]) and the simulator asserts it. The
/// largest ratio any registered experiment, fixture or benchmark shape
/// uses is ≈ 7 300 (F03b at Daly/4 on a million parts); `serve_mix`
/// sweeps are at 500.
pub const MAX_SEGMENTS: f64 = (1u64 << 24) as f64;

/// True when a run of `work_s` checkpointed every `interval_s` stays
/// within [`MAX_SEGMENTS`] (false for a NaN or overflowing ratio).
pub fn segments_within_bound(work_s: f64, interval_s: f64) -> bool {
    work_s / interval_s <= MAX_SEGMENTS
}

/// Simulate one run with checkpoints every `interval_s`.
///
/// If the machine cannot make progress (interval + checkpoint far above
/// the system MTBF, so segments virtually never complete), the run is cut
/// off at 1000× the useful work and reported with `truncated` set and the
/// efficiency achieved by then — the honest "this configuration does not
/// work" answer instead of a non-terminating simulation.
pub fn simulate_run(p: &ResilienceParams, interval_s: f64, rng: &mut SimRng) -> ResilienceOutcome {
    SegmentSchedule::new(p, interval_s).run(rng)
}

/// Where a replica's failure times come from: `ln(u)` of successive
/// uniform draws, floored at `MIN_POSITIVE` as [`SimRng::gen_exp`]
/// floors them. The caller scales by `-mean`, `gen_exp`'s operation
/// order, so a draw has the same bits whichever source produced it.
trait LnDraws {
    fn next_ln(&mut self) -> f64;
}

impl LnDraws for SimRng {
    fn next_ln(&mut self) -> f64 {
        self.gen_f64().max(f64::MIN_POSITIVE).ln()
    }
}

/// Entries an [`ExpTape`] records at most (64 KiB of `f64`). A replica
/// that finishes its work draws once per failure — hundreds to a few
/// thousand times; only hopeless configurations (F03b's truncated
/// cells, millions of draws each) run past the cap, on a live
/// generator.
const TAPE_CAP: usize = 8192;

/// One replica's draws, recorded as they are first asked for, so every
/// case a work unit runs on that replica's stream pays for the
/// generator and the logarithm once.
struct ExpTape {
    ln: Vec<f64>,
    /// Positioned after the last recorded draw.
    rng: SimRng,
}

impl ExpTape {
    fn new(seed: u64, stream: u64) -> ExpTape {
        ExpTape {
            ln: Vec::with_capacity(TAPE_CAP),
            rng: SimRng::from_seed_stream(seed, stream),
        }
    }

    /// A reader at the start of the stream.
    fn cursor(&mut self) -> TapeCursor<'_> {
        TapeCursor {
            tape: self,
            pos: 0,
            live: None,
        }
    }
}

/// One case's pass over an [`ExpTape`]: recorded draws first, then new
/// ones appended to the tape, then — past [`TAPE_CAP`] — a private copy
/// of the generator, which the full tape left positioned at the cap.
struct TapeCursor<'t> {
    tape: &'t mut ExpTape,
    pos: usize,
    live: Option<SimRng>,
}

impl TapeCursor<'_> {
    fn next_unrecorded(&mut self) -> f64 {
        if let Some(live) = &mut self.live {
            return live.next_ln();
        }
        if self.tape.ln.len() == TAPE_CAP {
            return self.live.insert(self.tape.rng.clone()).next_ln();
        }
        let l = self.tape.rng.next_ln();
        self.tape.ln.push(l);
        self.pos += 1;
        l
    }
}

impl LnDraws for TapeCursor<'_> {
    #[inline]
    fn next_ln(&mut self) -> f64 {
        match self.tape.ln.get(self.pos) {
            Some(&l) => {
                self.pos += 1;
                l
            }
            None => self.next_unrecorded(),
        }
    }
}

/// Everything about a run that depends on the case and not on the
/// replica: the `done` trajectory, walked once. `done` only moves when
/// a segment completes, so all replicas of a case attempt the same
/// segments in the same order and differ only in how often.
///
/// Stored run-length: `full` segments of `interval_s` each followed by
/// a checkpoint — one attempt value — then the one segment that
/// reaches `work_s` and needs no checkpoint. O(1) memory for any
/// `work_s / interval_s`.
#[derive(Debug, Clone, Copy)]
struct SegmentSchedule {
    work_s: f64,
    interval_s: f64,
    restart_s: f64,
    /// `-(mtbf_node_s / n_nodes)`: a failure gap is this times `ln(u)`.
    neg_system_mtbf: f64,
    full: u64,
    /// `interval_s + checkpoint_s`.
    full_attempt: f64,
    last_segment: f64,
}

impl SegmentSchedule {
    /// Walk the `done` chain of the single-level loop — `done +=
    /// interval.min(work − done)` while `done < work`, a checkpoint
    /// after every segment that leaves work to do — in its exact
    /// floating-point order.
    fn new(p: &ResilienceParams, interval_s: f64) -> SegmentSchedule {
        assert!(interval_s > 0.0 && p.work_s > 0.0);
        assert!(
            segments_within_bound(p.work_s, interval_s),
            "work_s / interval_s exceeds MAX_SEGMENTS"
        );
        let work = p.work_s;
        let mut done = 0.0f64;
        let mut full = 0u64;
        while interval_s <= work - done && done + interval_s < work {
            done += interval_s;
            full += 1;
        }
        let last_segment = interval_s.min(work - done);
        // Either a whole interval that no longer leaves work to do, or
        // `work − done` clipped — and then exact: `done` is a sum of
        // intervals (or zero, with `interval >= work`) and the rest is
        // shorter than one, so `done > work / 2` and the subtraction
        // does not round.
        assert!(
            done + last_segment >= work,
            "the segment after the full ones reaches work_s"
        );
        SegmentSchedule {
            work_s: work,
            interval_s,
            restart_s: p.restart_s,
            neg_system_mtbf: -(p.mtbf_node_s / p.n_nodes as f64),
            full,
            full_attempt: interval_s + p.checkpoint_s,
            last_segment,
        }
    }

    /// Checkpointed work after `full_done` full segments: the chain
    /// replayed, for a run that stops part-way.
    fn done_after(&self, full_done: u64) -> f64 {
        let mut done = 0.0f64;
        for _ in 0..full_done {
            done += self.interval_s;
        }
        done
    }

    /// One replica. The loop carries `wall` and nothing else.
    fn run(&self, draws: &mut impl LnDraws) -> ResilienceOutcome {
        let wall_cap = 1000.0 * self.work_s;
        let mut wall = 0.0f64;
        let mut failures = 0u64;
        let mut next_failure = self.neg_system_mtbf * draws.next_ln();
        // Complete up to `count` segments of `attempt` seconds each;
        // returns how many completed before the wall cap.
        let mut complete = |attempt: f64, count: u64| {
            let mut completed = 0u64;
            while completed < count && wall < wall_cap {
                let end = wall + attempt;
                if end <= next_failure {
                    // Segment (and its checkpoint) completes.
                    wall = end;
                    completed += 1;
                } else {
                    // Failure mid-segment: lose everything since the
                    // checkpoint.
                    failures += 1;
                    wall = next_failure + self.restart_s;
                    next_failure = wall + self.neg_system_mtbf * draws.next_ln();
                }
            }
            completed
        };
        let full_done = complete(self.full_attempt, self.full);
        let finished = full_done == self.full && complete(self.last_segment, 1) == 1;
        let done = if finished {
            self.work_s
        } else {
            self.done_after(full_done)
        };
        ResilienceOutcome {
            wall_s: wall,
            efficiency: ResilienceOutcome::compute_efficiency(done, wall),
            failures,
            checkpoints: full_done,
            truncated: !finished,
        }
    }
}

/// Stream base of the single-level replicas: replica `r` draws from
/// `SINGLE_LEVEL_STREAM + r`.
const SINGLE_LEVEL_STREAM: u64 = 0xC4E0;
/// Stream base of the multi-level replicas, analytic and DES alike:
/// the two pair draw for draw, so both go through this module.
const MULTILEVEL_STREAM: u64 = 0xE401;

/// Most outcome slots in flight at once (plus at most one unit's worth
/// of cases per replica, see [`drive`]). Case lists reach this module
/// from daemon peers (4096 sweep points × 64 intervals × 1024
/// replicas is a valid scenario), so the outcome buffer is bounded
/// here, for every caller, rather than by `cases.len()`.
const MAX_GRID_UNITS: usize = 1 << 16;

/// Cases a single-level work unit runs against one [`ExpTape`]: the
/// tape's cost is shared `K` ways, the grid keeps `cases / K × replicas`
/// units to share out. Scheduling only — no result depends on it.
const SINGLE_LEVEL_CASES_PER_UNIT: usize = 16;

/// The one replica grid: a work unit is (chunk of up to `K` cases,
/// replica) on a flat index-slotted grid (blocks of about
/// [`MAX_GRID_UNITS`] outcomes at a time). Unit `u` hands chunk
/// `u / replicas` and stream `base_stream + u % replicas` to `run`,
/// which fills one outcome per case; after the barrier each case's
/// outcomes are folded in replica order.
///
/// A replica's stream depends only on its replica index, never on its
/// case, and results land in index-ordered slots, so every mean is
/// bit-identical at any thread count, for any `K` and `max_leaf`, and
/// whether a case is evaluated alone or inside a larger batch. One
/// flat grid (not `cases` nested drives of `replicas` tiny jobs each)
/// is the nested-parallelism rule of DESIGN.md §12. `K > 1` lets `run`
/// share per-replica state between the cases of a chunk; `max_leaf`
/// caps the units per claimed chunk. Both are scheduling only.
fn drive<C: Sync, const K: usize>(
    cases: &[C],
    base_stream: u64,
    replicas: u32,
    max_leaf: usize,
    run: impl Fn(&[C], u64, &mut [ResilienceOutcome]) + Sync + Send,
) -> Vec<MeanEfficiency> {
    const UNUSED: ResilienceOutcome = ResilienceOutcome {
        wall_s: 0.0,
        efficiency: 0.0,
        failures: 0,
        checkpoints: 0,
        truncated: false,
    };
    assert!(replicas > 0, "at least one replica per case");
    let rep = replicas as usize;
    // Not reserved up front: a small allocation that outlives the grid's
    // churn left the heap fragmented, measured as ≈ +100 MB `peak_rss_mb`
    // on every later workload of the one-process benchmark.
    let mut means = Vec::new();
    for block in cases.chunks((MAX_GRID_UNITS / rep).max(1).next_multiple_of(K)) {
        let units: Vec<[ResilienceOutcome; K]> = (0..block.len().div_ceil(K) * rep)
            .into_par_iter()
            .with_max_len(max_leaf)
            .map(|u| {
                let first = u / rep * K;
                let chunk = &block[first..block.len().min(first + K)];
                let mut outcomes = [UNUSED; K];
                run(
                    chunk,
                    base_stream.wrapping_add((u % rep) as u64),
                    &mut outcomes[..chunk.len()],
                );
                outcomes
            })
            .collect();
        means.extend(
            (0..block.len()).map(|i| {
                reduce_outcomes(units[i / K * rep..][..rep].iter().map(|unit| &unit[i % K]))
            }),
        );
    }
    means
}

/// Fold one case's outcomes into a mean, in replica-index order.
fn reduce_outcomes<'a>(outcomes: impl Iterator<Item = &'a ResilienceOutcome>) -> MeanEfficiency {
    let mut total = 0.0;
    let mut truncated_runs = 0;
    let mut replicas = 0u32;
    for out in outcomes {
        total += out.efficiency;
        truncated_runs += u32::from(out.truncated);
        replicas += 1;
    }
    MeanEfficiency {
        efficiency: total / replicas as f64,
        truncated_runs,
    }
}

/// Mean over `replicas` runs of a caller-supplied multi-level replica
/// body, per case: `run(case, stream)` is one whole replica, handed the
/// stream [`mean_multilevel_efficiency_batch`] gives that replica index.
/// Such bodies are whole simulations (the DES replicas of
/// `deep-faults`), so every unit is claimed alone.
pub fn mean_multilevel_over_replicas(
    cases: &[MultiLevelParams],
    replicas: u32,
    run: impl Fn(&MultiLevelParams, u64) -> ResilienceOutcome + Sync + Send,
) -> Vec<MeanEfficiency> {
    drive::<_, 1>(
        cases,
        MULTILEVEL_STREAM,
        replicas,
        1,
        |case, stream, out| {
            out[0] = run(&case[0], stream);
        },
    )
}

/// Mean efficiency over `replicas` independent runs (deterministic in
/// `seed`).
pub fn mean_efficiency(
    p: &ResilienceParams,
    interval_s: f64,
    seed: u64,
    replicas: u32,
) -> MeanEfficiency {
    mean_efficiency_batch(&[(*p, interval_s)], seed, replicas)[0]
}

/// Mean efficiency for a whole batch of `(params, interval)` cases;
/// element `i` is bit-identical to [`mean_efficiency`] of case `i`.
///
/// Schedules are built up front, in parallel (56 B per case, beside
/// the 48 B per case the caller already holds); a work unit then makes
/// one allocation, its tape, reserved once at `TAPE_CAP`.
pub fn mean_efficiency_batch(
    cases: &[(ResilienceParams, f64)],
    seed: u64,
    replicas: u32,
) -> Vec<MeanEfficiency> {
    let schedules: Vec<SegmentSchedule> = cases
        .par_iter()
        .map(|(p, interval_s)| SegmentSchedule::new(p, *interval_s))
        .collect();
    drive::<_, SINGLE_LEVEL_CASES_PER_UNIT>(
        &schedules,
        SINGLE_LEVEL_STREAM,
        replicas,
        usize::MAX,
        |chunk, stream, out| {
            let mut tape = ExpTape::new(seed, stream);
            for (schedule, slot) in chunk.iter().zip(out) {
                *slot = schedule.run(&mut tape.cursor());
            }
        },
    )
}

/// Batch form of [`mean_multilevel_efficiency`]; element `i` is
/// bit-identical to the single-case call on case `i`.
pub fn mean_multilevel_efficiency_batch(
    cases: &[MultiLevelParams],
    seed: u64,
    replicas: u32,
) -> Vec<MeanEfficiency> {
    drive::<_, 1>(
        cases,
        MULTILEVEL_STREAM,
        replicas,
        usize::MAX,
        |case, stream, out| {
            out[0] = simulate_multilevel(&case[0], &mut SimRng::from_seed_stream(seed, stream));
        },
    )
}

// ---------------------------------------------------------------------
// Multi-level checkpointing (DEEP-ER).

/// Cost of one checkpoint level, measured or assumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelCost {
    /// Seconds to write one checkpoint at this level.
    pub write_s: f64,
    /// Seconds to restore one checkpoint from this level.
    pub restore_s: f64,
}

/// Parameters of a multi-level resilience scenario.
#[derive(Debug, Clone, Copy)]
pub struct MultiLevelParams {
    /// Useful work to complete, seconds.
    pub work_s: f64,
    /// Nodes the job runs on.
    pub n_nodes: u64,
    /// Per-node MTBF, seconds.
    pub mtbf_node_s: f64,
    /// Checkpoint interval, seconds.
    pub interval_s: f64,
    /// Per-level costs, indexed L1, L2, L3.
    pub levels: [LevelCost; 3],
    /// Every `l2_every`-th checkpoint is written at L2 (0 = never).
    pub l2_every: u32,
    /// Every `l3_every`-th checkpoint is written at L3 (0 = never);
    /// takes precedence over L2 when both hit.
    pub l3_every: u32,
    /// Base restart cost (reboot, relaunch) before the level restore.
    pub restart_s: f64,
    /// Relative weights of failure severities
    /// [transient, node loss, multi-node loss].
    pub severity_weights: [f64; 3],
}

impl MultiLevelParams {
    /// The SCR-style default rotation: mostly L1, every 4th checkpoint to
    /// the buddy, every 16th to the PFS.
    pub fn rotation_policy(mut self, l2_every: u32, l3_every: u32) -> MultiLevelParams {
        self.l2_every = l2_every;
        self.l3_every = l3_every;
        self
    }

    /// An L1-only policy (what a machine without the deeper levels does).
    pub fn l1_only(mut self) -> MultiLevelParams {
        self.l2_every = 0;
        self.l3_every = 0;
        self
    }
}

/// Work marks are stored in the [`CommitLog`] in milliseconds.
pub fn mark_of(done_s: f64) -> u64 {
    (done_s * 1e3).round() as u64
}

/// Simulate one multi-level run.
///
/// Failures carry a severity; the [`CommitLog`] invalidates the levels
/// that do not survive it, and recovery rolls back to the newest
/// surviving checkpoint (restored at that level's cost). If *no* level
/// survives, the job starts over from zero — which is what dooms an
/// L1-only policy under multi-node failures.
pub fn simulate_multilevel(p: &MultiLevelParams, rng: &mut SimRng) -> ResilienceOutcome {
    assert!(p.interval_s > 0.0 && p.work_s > 0.0);
    let wall_cap = 1000.0 * p.work_s;
    let system_mtbf = p.mtbf_node_s / p.n_nodes as f64;
    let mut wall = 0.0f64;
    let mut done = 0.0f64;
    let mut failures = 0u64;
    let mut checkpoints = 0u64;
    let mut log = CommitLog::new();
    let mut next_failure = rng.gen_exp(system_mtbf);

    while done < p.work_s && wall < wall_cap {
        let segment = p.interval_s.min(p.work_s - done);
        let last = done + segment >= p.work_s;
        let level = CkptLevel::rotation(checkpoints + 1, p.l2_every, p.l3_every);
        let attempt = segment
            + if last {
                0.0
            } else {
                p.levels[level.index()].write_s
            };
        if wall + attempt <= next_failure {
            wall += attempt;
            done += segment;
            if !last {
                checkpoints += 1;
                log.commit(level, mark_of(done));
            }
        } else {
            failures += 1;
            let severity = FailureSeverity::draw(rng, p.severity_weights);
            log.fail(severity);
            wall = next_failure + p.restart_s;
            match log.best() {
                Some((level, mark)) => {
                    wall += p.levels[level.index()].restore_s;
                    done = mark as f64 / 1e3;
                }
                None => {
                    // Nothing survived: start over from the beginning.
                    done = 0.0;
                }
            }
            next_failure = wall + rng.gen_exp(system_mtbf);
        }
    }
    ResilienceOutcome {
        wall_s: wall,
        efficiency: ResilienceOutcome::compute_efficiency(done.min(p.work_s), wall),
        failures,
        checkpoints,
        truncated: done < p.work_s,
    }
}

/// Mean multi-level efficiency over `replicas` runs (deterministic in
/// `seed`).
pub fn mean_multilevel_efficiency(
    p: &MultiLevelParams,
    seed: u64,
    replicas: u32,
) -> MeanEfficiency {
    mean_multilevel_efficiency_batch(&[*p], seed, replicas)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ResilienceParams {
        ResilienceParams {
            work_s: 100_000.0,
            n_nodes: 640, // DEEP prototype: 128 CN + 512 BN
            mtbf_node_s: 5.0 * 365.0 * 86_400.0,
            checkpoint_s: 120.0,
            restart_s: 300.0,
        }
    }

    fn ml_base() -> MultiLevelParams {
        MultiLevelParams {
            work_s: 100_000.0,
            n_nodes: 640,
            mtbf_node_s: 0.5 * 365.0 * 86_400.0, // flaky enough to matter
            interval_s: 1800.0,
            levels: [
                LevelCost {
                    write_s: 10.0,
                    restore_s: 8.0,
                },
                LevelCost {
                    write_s: 30.0,
                    restore_s: 25.0,
                },
                LevelCost {
                    write_s: 240.0,
                    restore_s: 200.0,
                },
            ],
            l2_every: 4,
            l3_every: 16,
            restart_s: 300.0,
            severity_weights: [0.7, 0.25, 0.05],
        }
    }

    #[test]
    fn no_failures_means_pure_checkpoint_overhead() {
        let mut p = base();
        p.mtbf_node_s = f64::INFINITY;
        let mut rng = SimRng::from_seed_stream(1, 1);
        let interval = 3600.0;
        let out = simulate_run(&p, interval, &mut rng);
        assert_eq!(out.failures, 0);
        assert!(!out.truncated);
        // Efficiency ≈ τ / (τ + C) with the final checkpoint elided.
        let expect = p.work_s / (p.work_s + out.checkpoints as f64 * p.checkpoint_s);
        assert!((out.efficiency - expect).abs() < 1e-12);
        assert!(out.efficiency > 0.96);
    }

    #[test]
    fn failures_cost_efficiency() {
        let mut flaky = base();
        flaky.mtbf_node_s /= 200.0; // much flakier nodes
        let good = mean_efficiency(&base(), 3600.0, 1, 8).efficiency;
        let bad = mean_efficiency(&flaky, 3600.0, 1, 8).efficiency;
        assert!(bad < good, "flaky {bad} vs good {good}");
    }

    #[test]
    fn daly_interval_is_near_the_sweep_optimum() {
        // At exascale-ish scale, the sweep's best interval should be
        // within a factor ~2 of Daly's formula.
        let p = ResilienceParams {
            work_s: 500_000.0,
            n_nodes: 100_000,
            mtbf_node_s: 5.0 * 365.0 * 86_400.0,
            checkpoint_s: 240.0,
            restart_s: 600.0,
        };
        let daly = daly_optimum(&p);
        let mut best = (0.0f64, 0.0f64);
        for mult in [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let eff = mean_efficiency(&p, daly * mult, 1, 6).efficiency;
            if eff > best.1 {
                best = (mult, eff);
            }
        }
        assert!(
            (0.25..=4.0).contains(&best.0),
            "optimum {}x Daly (eff {})",
            best.0,
            best.1
        );
    }

    #[test]
    fn bigger_machines_hurt_at_fixed_interval() {
        let mut p = base();
        let small = mean_efficiency(&p, 3600.0, 1, 8).efficiency;
        p.n_nodes *= 100;
        let big = mean_efficiency(&p, 3600.0, 1, 8).efficiency;
        assert!(big < small, "scale must hurt: {big} vs {small}");
    }

    #[test]
    fn determinism() {
        let p = base();
        assert_eq!(
            mean_efficiency(&p, 1800.0, 9, 4).efficiency,
            mean_efficiency(&p, 1800.0, 9, 4).efficiency
        );
        let m = ml_base();
        assert_eq!(
            mean_multilevel_efficiency(&m, 9, 4).efficiency,
            mean_multilevel_efficiency(&m, 9, 4).efficiency
        );
    }

    #[test]
    fn a_batch_larger_than_one_grid_block_keeps_cases_in_order() {
        // 70 cases × 1024 replicas crosses MAX_GRID_UNITS after case 63.
        let cases: Vec<(ResilienceParams, f64)> = (0..70)
            .map(|i| {
                let mut p = base();
                p.work_s = 1000.0;
                p.checkpoint_s = 1.0 + i as f64;
                (p, 100.0)
            })
            .collect();
        let batch = mean_efficiency_batch(&cases, 3, 1024);
        assert_eq!(batch.len(), 70);
        for i in [0, 63, 64, 69] {
            let alone = mean_efficiency(&cases[i].0, 100.0, 3, 1024);
            assert_eq!(batch[i].efficiency.to_bits(), alone.efficiency.to_bits());
        }
    }

    /// The single-level loop as it stood before PR 24 split it into a
    /// [`SegmentSchedule`] and a draw source, verbatim: the reference
    /// the proptests below compare against. The PR after 24 that next
    /// changes the kernel may delete it once its own reference exists.
    fn simulate_run_reference(
        p: &ResilienceParams,
        interval_s: f64,
        rng: &mut SimRng,
    ) -> ResilienceOutcome {
        assert!(interval_s > 0.0 && p.work_s > 0.0);
        let wall_cap = 1000.0 * p.work_s;
        let system_mtbf = p.mtbf_node_s / p.n_nodes as f64;
        let mut wall = 0.0f64;
        let mut done = 0.0f64; // checkpointed work
        let mut failures = 0u64;
        let mut checkpoints = 0u64;
        let mut next_failure = rng.gen_exp(system_mtbf);

        while done < p.work_s && wall < wall_cap {
            // Attempt one segment: work until the next checkpoint (or the end).
            let segment = interval_s.min(p.work_s - done);
            let attempt = segment
                + if done + segment < p.work_s {
                    p.checkpoint_s
                } else {
                    0.0 // no checkpoint needed after the last segment
                };
            if wall + attempt <= next_failure {
                // Segment (and its checkpoint) completes.
                wall += attempt;
                done += segment;
                if done < p.work_s {
                    checkpoints += 1;
                }
            } else {
                // Failure mid-segment: lose everything since the checkpoint.
                failures += 1;
                wall = next_failure + p.restart_s;
                next_failure = wall + rng.gen_exp(system_mtbf);
            }
        }
        ResilienceOutcome {
            wall_s: wall,
            efficiency: ResilienceOutcome::compute_efficiency(done.min(p.work_s), wall),
            failures,
            checkpoints,
            truncated: done < p.work_s,
        }
    }

    fn assert_same_bits(got: &ResilienceOutcome, want: &ResilienceOutcome, what: &str) {
        assert_eq!(
            got.wall_s.to_bits(),
            want.wall_s.to_bits(),
            "{what}: wall_s"
        );
        assert_eq!(
            got.efficiency.to_bits(),
            want.efficiency.to_bits(),
            "{what}: efficiency"
        );
        assert_eq!(got.failures, want.failures, "{what}: failures");
        assert_eq!(got.checkpoints, want.checkpoints, "{what}: checkpoints");
        assert_eq!(got.truncated, want.truncated, "{what}: truncated");
    }

    /// Reference against the kernel on a live generator
    /// ([`simulate_run`]) and on a tape: one that `warm_up` has already
    /// part-filled (recorded draws, then appended ones, then — past the
    /// cap — the live copy), and the same tape once more with
    /// everything the case needs already recorded.
    fn assert_kernel_matches_reference(
        p: &ResilienceParams,
        interval_s: f64,
        warm_up: &(ResilienceParams, f64),
        seed: u64,
        stream: u64,
    ) -> ResilienceOutcome {
        let want =
            simulate_run_reference(p, interval_s, &mut SimRng::from_seed_stream(seed, stream));
        let live = simulate_run(p, interval_s, &mut SimRng::from_seed_stream(seed, stream));
        assert_same_bits(&live, &want, "live generator");

        let schedule = SegmentSchedule::new(p, interval_s);
        let mut tape = ExpTape::new(seed, stream);
        let reserved = tape.ln.capacity();
        SegmentSchedule::new(&warm_up.0, warm_up.1).run(&mut tape.cursor());
        assert_same_bits(&schedule.run(&mut tape.cursor()), &want, "part-filled tape");
        assert_same_bits(&schedule.run(&mut tape.cursor()), &want, "recorded tape");
        assert!(tape.ln.len() <= TAPE_CAP && tape.ln.capacity() == reserved);
        want
    }

    /// A case every replica of which finishes after a few hundred draws.
    fn serve_mix_point(n_nodes: u64) -> (ResilienceParams, f64) {
        let p = ResilienceParams {
            work_s: 200_000.0,
            n_nodes,
            mtbf_node_s: 157_680_000.0,
            checkpoint_s: 60.0,
            restart_s: 120.0,
        };
        (p, 400.000_017)
    }

    #[test]
    fn kernel_matches_reference_on_the_edges_of_the_schedule() {
        let warm_up = serve_mix_point(200_000);
        let mut p = base();
        // interval >= work: one segment, no checkpoint.
        let out = assert_kernel_matches_reference(&p, 2.5 * p.work_s, &warm_up, 3, 1);
        assert_eq!(out.checkpoints, 0);
        let out = assert_kernel_matches_reference(&p, p.work_s, &warm_up, 3, 2);
        assert_eq!(out.checkpoints, 0);
        // interval divides work exactly: the last segment is a whole
        // interval, without its checkpoint.
        let schedule = SegmentSchedule::new(&p, 3125.0);
        assert_eq!((schedule.full, schedule.last_segment), (31, 3125.0));
        let out = assert_kernel_matches_reference(&p, 3125.0, &warm_up, 3, 3);
        assert_eq!(out.checkpoints, 31);
        // Ten times a tenth accumulates to an ulp short of work: ten
        // full segments, ten checkpoints, and a last segment of one ulp.
        p.work_s = 1.0;
        (p.checkpoint_s, p.restart_s, p.mtbf_node_s) = (0.01, 0.02, 640.0);
        let schedule = SegmentSchedule::new(&p, 0.1);
        assert_eq!(schedule.full, 10);
        assert!(schedule.last_segment < p.work_s * f64::EPSILON);
        let out = assert_kernel_matches_reference(&p, 0.1, &warm_up, 3, 4);
        assert_eq!(out.checkpoints, 10);
    }

    /// A configuration that fails `factor` system MTBFs into every
    /// full attempt: it draws tens of thousands of times before the
    /// wall cap.
    fn hopeless(factor: f64) -> (ResilienceParams, f64) {
        let (work_s, interval_s, checkpoint_s) = (100.0, 1.0, 0.5);
        let p = ResilienceParams {
            work_s,
            n_nodes: 1000,
            mtbf_node_s: 1000.0 * (interval_s + checkpoint_s) / factor,
            checkpoint_s,
            restart_s: 4.0,
        };
        (p, interval_s)
    }

    #[test]
    fn kernel_matches_reference_past_the_tape_cap_and_into_the_wall_cap() {
        let warm_up = serve_mix_point(200_000);
        // Segments complete now and then; the run is cut off part-way
        // with checkpoints written and `done` replayed from them.
        let (p, interval) = hopeless(6.0);
        let out = assert_kernel_matches_reference(&p, interval, &warm_up, 11, 0);
        assert!(out.truncated && out.wall_s >= 1000.0 * p.work_s);
        assert!(out.failures > TAPE_CAP as u64);
        assert!(out.checkpoints > 0 && out.checkpoints < 99);
        assert_eq!(
            out.efficiency.to_bits(),
            (out.checkpoints as f64 / out.wall_s).to_bits(),
            "done is one interval of 1.0 per checkpoint"
        );
        // Nothing ever completes.
        let (p, interval) = hopeless(40.0);
        let out = assert_kernel_matches_reference(&p, interval, &warm_up, 11, 1);
        assert!(out.truncated && out.checkpoints == 0 && out.efficiency == 0.0);
        // Completes, but only after crossing the cap mid-case — also
        // when the tape was left full by a hopeless case before it.
        let (p, interval) = hopeless(5.0);
        let out = assert_kernel_matches_reference(&p, interval, &warm_up, 11, 2);
        assert!(!out.truncated && out.failures > TAPE_CAP as u64);
        assert_kernel_matches_reference(&p, interval, &hopeless(40.0), 11, 2);
    }

    #[test]
    fn a_schedule_at_the_segment_bound_is_constant_size() {
        fn owns_no_heap<T: Copy>(_: &T) {}
        let mut p = base();
        p.work_s = MAX_SEGMENTS;
        assert!(segments_within_bound(p.work_s, 1.0));
        assert!(!segments_within_bound(p.work_s, 1.0 - f64::EPSILON));
        assert!(!segments_within_bound(1e18, 1.0));
        assert!(!segments_within_bound(f64::MAX, f64::MIN_POSITIVE));
        let schedule = SegmentSchedule::new(&p, 1.0);
        owns_no_heap(&schedule);
        assert_eq!((schedule.full, schedule.last_segment), ((1 << 24) - 1, 1.0));
        assert_eq!(schedule.done_after(schedule.full), MAX_SEGMENTS - 1.0);
        assert!(std::mem::size_of::<SegmentSchedule>() <= 56);
    }

    #[test]
    #[should_panic(expected = "MAX_SEGMENTS")]
    fn a_run_over_the_segment_bound_panics_instead_of_hanging() {
        let mut p = base();
        p.work_s = 1e18;
        simulate_run(&p, 1.0, &mut SimRng::from_seed_stream(1, 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(320))]

        /// All five outcome fields, bit for bit, over random cases. `kind`
        /// steers `(work, interval)` into the schedule's corners and the
        /// failure rate into the tape's.
        #[test]
        fn kernel_matches_reference_bit_for_bit(
            kind in 0u32..8,
            work_s in 1.0f64..1e6,
            ratio in 0.0f64..1.0,
            divisor in 1u32..3000,
            n_nodes in 1u64..2_000_000,
            fail_factor in 0.0f64..1.0,
            checkpoint_share in 0.0f64..0.5,
            restart_share in 0.0f64..2.0,
            seed in 0u64..=u64::MAX,
            stream in 0u64..=u64::MAX,
        ) {
            let whole = 1.0 + (ratio * 999.0).floor();
            let (work_s, interval_s) = match kind {
                // interval >= work.
                0 => (work_s, work_s * (1.0 + 3.0 * ratio)),
                // interval divides work exactly (small integers).
                1 => (f64::from(divisor) * whole, whole),
                // work / k: the chain lands an ulp or two either side of work.
                2 => (work_s, work_s / f64::from(divisor)),
                3 => (work_s, work_s / f64::from(10 + divisor % 11)),
                7 => (work_s, work_s * (0.05 + 0.05 * ratio)),
                _ => (work_s, work_s * (1.0 / 3000.0 + ratio * ratio)),
            };
            let checkpoint_s = interval_s * checkpoint_share;
            let attempt = interval_s + checkpoint_s;
            // Failures per attempt, and the restart in attempts. Kinds 3
            // and 7 are hopeless on 10–20 segments: 11–57 k draws take
            // them past the tape cap, and most into the wall cap.
            let (per_attempt, restart_share) = match kind {
                3 | 7 => (3.0 + 40.0 * fail_factor, 0.25 + 0.125 * restart_share),
                _ => (3.0 * fail_factor * fail_factor, restart_share),
            };
            let p = ResilienceParams {
                work_s,
                n_nodes,
                mtbf_node_s: n_nodes as f64 * attempt / per_attempt,
                checkpoint_s,
                restart_s: attempt * restart_share,
            };
            let warm_up = if seed % 2 == 0 { serve_mix_point(200_000) } else { hopeless(40.0) };
            assert_kernel_matches_reference(&p, interval_s, &warm_up, seed, stream);
        }

    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Every element of a shuffled batch equals its single-case call
        /// at pool widths 1, 2 and 4, for chunk-of-16 tails, and (one
        /// case in four) across the `MAX_GRID_UNITS` block boundary.
        #[test]
        fn shuffled_batches_equal_single_case_means_at_any_width(
            shape in 0usize..4,
            n in 0usize..80,
            seed in 0u64..=u64::MAX,
        ) {
            let (replicas, n_cases) = match shape {
                3 => (1024u32, MAX_GRID_UNITS / 1024 + 1 + n % 12),
                _ => ([1u32, 5, 33][shape], 1 + n),
            };
            let mut cases: Vec<(ResilienceParams, f64)> = (0..n_cases)
                .map(|i| {
                    let mut p = base();
                    p.work_s = 1000.0 + i as f64;
                    p.n_nodes = 100_000 * (1 + i as u64 % 7);
                    p.checkpoint_s = 1.0 + (i % 5) as f64;
                    (p, 90.0 + (i % 3) as f64 * 500.0)
                })
                .collect();
            SimRng::from_seed_stream(seed, 0).shuffle(&mut cases);
            let alone: Vec<MeanEfficiency> = cases
                .iter()
                .map(|(p, interval_s)| mean_efficiency(p, *interval_s, seed, replicas))
                .collect();
            for threads in [1usize, 2, 4] {
                let batch = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("pool builds")
                    .install(|| mean_efficiency_batch(&cases, seed, replicas));
                assert_eq!(batch.len(), alone.len());
                for (i, (b, a)) in batch.iter().zip(&alone).enumerate() {
                    assert_eq!(b.efficiency.to_bits(), a.efficiency.to_bits(), "case {i}, {threads} threads");
                    assert_eq!(b.truncated_runs, a.truncated_runs, "case {i}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn zero_wall_is_zero_efficiency() {
        assert_eq!(ResilienceOutcome::compute_efficiency(0.0, 0.0), 0.0);
        assert_eq!(ResilienceOutcome::compute_efficiency(10.0, 0.0), 0.0);
        assert_eq!(ResilienceOutcome::compute_efficiency(10.0, -1.0), 0.0);
        assert_eq!(ResilienceOutcome::compute_efficiency(50.0, 100.0), 0.5);
    }

    #[test]
    fn hopeless_configuration_reports_truncation() {
        // Interval + checkpoint far above the system MTBF: no segment
        // ever completes, the run is cut off and flagged.
        let p = ResilienceParams {
            work_s: 1000.0,
            n_nodes: 1_000_000,
            mtbf_node_s: 86_400.0, // system MTBF ≈ 86 ms
            checkpoint_s: 120.0,
            restart_s: 300.0,
        };
        let mean = mean_efficiency(&p, 500.0, 3, 4);
        assert_eq!(mean.truncated_runs, 4);
        assert!(mean.efficiency < 0.01);
    }

    #[test]
    fn multilevel_survives_multi_node_failures_l1_only_does_not() {
        // All failures are multi-node: only L3 checkpoints help.
        let mut p = ml_base();
        p.severity_weights = [0.0, 0.0, 1.0];
        p.mtbf_node_s = 0.05 * 365.0 * 86_400.0;
        let multi = mean_multilevel_efficiency(&p, 5, 6);
        let l1 = mean_multilevel_efficiency(&p.l1_only(), 5, 6);
        assert_eq!(multi.truncated_runs, 0, "rotation must finish");
        assert!(
            l1.efficiency < multi.efficiency,
            "L1-only {} vs rotation {}",
            l1.efficiency,
            multi.efficiency
        );
    }

    #[test]
    fn rotation_efficiency_tracks_l1_under_mild_failures() {
        // Mostly-transient failures: the rotation should cost little
        // compared to pure L1 checkpointing.
        let p = ml_base();
        let rotation = mean_multilevel_efficiency(&p, 11, 8).efficiency;
        let l1 = mean_multilevel_efficiency(&p.l1_only(), 11, 8).efficiency;
        assert!(
            rotation > 0.9 * l1,
            "rotation {rotation} should be within 10% of L1-only {l1}"
        );
    }
}
