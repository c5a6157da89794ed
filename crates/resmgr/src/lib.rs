//! # deep-resmgr — resource management for the cluster-booster machine
//!
//! Models the ParaStation management layer's key DEEP feature (slides 6–8,
//! 21): booster nodes can be assigned to jobs **statically** (reserved for
//! the whole job, like GPUs bolted to hosts in a conventional accelerated
//! cluster) or **dynamically** (claimed only for the offload phases that
//! need them). Experiment F22 compares the two policies on heterogeneous
//! job mixes; an EASY-style backfill option exercises the paper's
//! "resources managed statically or dynamically" claim further.

#![warn(missing_docs)]

pub mod assign;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use deep_simkit::{join_all, Either, OneShot, ProcHandle, Sim, SimDuration, SimTime};

/// One phase of a job: cluster compute, then (optionally) an offload
/// section needing booster nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobPhase {
    /// Cluster-side compute time of this phase.
    pub cn_time: SimDuration,
    /// Booster nodes needed for the offload section (0 = none).
    pub bn_needed: u32,
    /// Duration of the offload section.
    pub bn_time: SimDuration,
}

/// A job request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable name.
    pub name: String,
    /// Cluster nodes held for the whole job.
    pub cn_needed: u32,
    /// Phases executed in order.
    pub phases: Vec<JobPhase>,
}

impl JobSpec {
    /// Peak booster demand across phases.
    fn bn_peak(&self) -> u32 {
        self.phases.iter().map(|p| p.bn_needed).max().unwrap_or(0)
    }

    /// Runtime estimate ignoring queueing (used by backfill).
    fn estimated_duration(&self) -> SimDuration {
        self.phases.iter().map(|p| p.cn_time + p.bn_time).sum()
    }
}

/// Booster assignment & scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// FCFS; peak booster demand reserved for the whole job lifetime.
    StaticFcfs,
    /// FCFS; boosters claimed per offload phase and released after.
    DynamicFcfs,
    /// Dynamic boosters + EASY backfill on job starts.
    DynamicBackfill,
}

impl Policy {
    /// True if boosters are held for the whole job.
    fn is_static(self) -> bool {
        matches!(self, Policy::StaticFcfs)
    }

    /// True if later jobs may overtake a blocked queue head.
    fn backfills(self) -> bool {
        matches!(self, Policy::DynamicBackfill)
    }
}

/// Completion record of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Name from the spec.
    pub name: String,
    /// Arrival time.
    pub submitted: SimTime,
    /// First resource grant.
    pub started: SimTime,
    /// Completion.
    pub finished: SimTime,
    /// Total time spent waiting for booster-phase grants (dynamic only).
    pub bn_wait: SimDuration,
    /// Offload phases restarted after a booster-node failure.
    pub requeues: u32,
    /// True if the job was aborted because its demand could no longer be
    /// satisfied by the shrunken machine.
    pub aborted: bool,
}

impl JobRecord {
    /// Queue wait before the job started.
    pub fn wait(&self) -> SimDuration {
        self.started - self.submitted
    }
}

/// Instantaneous occupancy snapshot, as returned by
/// [`ResMgr::gauges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauges {
    /// Cluster nodes currently allocated to jobs.
    pub cn_busy: u32,
    /// Booster nodes currently allocated (static holds included).
    pub bn_allocated: u32,
    /// Booster nodes actively inside an offload section.
    pub bn_active: u32,
    /// Current cluster-node total, net of failures.
    pub cn_total: u32,
    /// Current booster-node total, net of failures.
    pub bn_total: u32,
}

/// Aggregate outcome of a workload run.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Per-job records, completion order.
    pub jobs: Vec<JobRecord>,
    /// Time of last completion.
    pub makespan: SimDuration,
    /// Booster node-seconds actively computing / booster capacity
    /// node-seconds (∫ total(t) dt, correct under mid-run failures).
    pub bn_utilization: f64,
    /// Booster node-seconds *allocated* (whether or not computing) /
    /// booster capacity node-seconds — under static assignment this is
    /// inflated by boosters idling through their job's cluster phases.
    pub bn_allocated: f64,
    /// Cluster busy node-seconds / cluster capacity node-seconds.
    pub cn_utilization: f64,
    /// Booster nodes lost to injected failures.
    pub bn_failures: u32,
    /// Failed booster nodes replaced from the spare pool.
    pub bn_replaced: u32,
    /// Offload phases restarted after a failure (sum over jobs).
    pub requeues: u32,
    /// Jobs aborted because the shrunken machine could not satisfy them.
    pub jobs_aborted: u32,
}

/// Outcome of a grant request: either the resources are yours, or the
/// manager determined the request can never be satisfied (the machine
/// shrank below the demand) and aborted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grant {
    Granted,
    Aborted,
}

/// Outcome of one injected booster failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureOutcome {
    /// Booster nodes actually lost (≤ requested if the pool was smaller).
    pub failed: u32,
    /// Nodes replaced from the spare pool.
    pub replaced: u32,
    /// Running offload sections interrupted (their jobs requeue).
    pub victims: u32,
}

struct StartRequest {
    cn: u32,
    bn: u32, // static reservation (0 under dynamic policies)
    est: SimDuration,
    grant: OneShot<Grant>,
}

struct BnRequest {
    bn: u32,
    grant: OneShot<Grant>,
}

/// A running dynamic offload section that can be interrupted by a
/// booster-node failure. The signal carries the number of nodes lost
/// from this job's allocation.
struct OffloadEntry {
    id: u64,
    bn: u32,
    signal: OneShot<u32>,
}

struct MgrState {
    cn_free: u32,
    bn_free: u32,
    cn_total: u32,
    bn_total: u32,
    /// Cold standby booster nodes used to replace failed ones.
    spare_bn: u32,
    start_queue: VecDeque<StartRequest>,
    bn_queue: VecDeque<BnRequest>,
    /// Running-job estimated completions, for backfill reservations:
    /// `(est_end, cn, bn)`.
    running_est: Vec<(SimTime, u32, u32)>,
    /// Interruptible running offload sections (dynamic policies only).
    offloads: Vec<OffloadEntry>,
    next_offload_id: u64,
    // Utilisation integrals.
    last_change: SimTime,
    cn_busy_integral: f64, // node-seconds
    bn_alloc_integral: f64,
    /// Boosters actively inside an offload section right now.
    bn_active: u32,
    bn_active_integral: f64,
    /// Capacity integrals (node-seconds of *existing* nodes): the correct
    /// utilisation denominator when failures shrink the machine mid-run.
    cn_capacity_integral: f64,
    bn_capacity_integral: f64,
    bn_failures: u32,
    bn_replaced: u32,
    requeues: u32,
    records: Vec<JobRecord>,
}

impl MgrState {
    fn accumulate(&mut self, now: SimTime) {
        let dt = (now - self.last_change).as_secs_f64();
        self.cn_busy_integral += (self.cn_total - self.cn_free) as f64 * dt;
        self.bn_alloc_integral += (self.bn_total - self.bn_free) as f64 * dt;
        self.bn_active_integral += self.bn_active as f64 * dt;
        self.cn_capacity_integral += self.cn_total as f64 * dt;
        self.bn_capacity_integral += self.bn_total as f64 * dt;
        self.last_change = now;
    }
}

/// The resource manager for one machine.
pub struct ResMgr {
    sim: Sim,
    policy: Policy,
    state: RefCell<MgrState>,
}

impl ResMgr {
    /// Create a manager over `cn_total` cluster and `bn_total` booster nodes.
    pub fn new(sim: &Sim, cn_total: u32, bn_total: u32, policy: Policy) -> Rc<ResMgr> {
        Self::with_spares(sim, cn_total, bn_total, 0, policy)
    }

    /// Like [`ResMgr::new`], plus `spare_bn` cold-standby booster nodes
    /// that replace failed ones on [`ResMgr::inject_booster_failure`].
    pub fn with_spares(
        sim: &Sim,
        cn_total: u32,
        bn_total: u32,
        spare_bn: u32,
        policy: Policy,
    ) -> Rc<ResMgr> {
        Rc::new(ResMgr {
            sim: sim.clone(),
            policy,
            state: RefCell::new(MgrState {
                cn_free: cn_total,
                bn_free: bn_total,
                cn_total,
                bn_total,
                spare_bn,
                start_queue: VecDeque::new(),
                bn_queue: VecDeque::new(),
                running_est: Vec::new(),
                offloads: Vec::new(),
                next_offload_id: 0,
                last_change: SimTime::ZERO,
                cn_busy_integral: 0.0,
                bn_alloc_integral: 0.0,
                bn_active: 0,
                bn_active_integral: 0.0,
                cn_capacity_integral: 0.0,
                bn_capacity_integral: 0.0,
                bn_failures: 0,
                bn_replaced: 0,
                requeues: 0,
                records: Vec::new(),
            }),
        })
    }

    /// Active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Submit a job at the current simulation time; returns a handle that
    /// resolves when the job completes.
    pub fn submit(self: &Rc<Self>, spec: JobSpec) -> ProcHandle<()> {
        let mgr = self.clone();
        self.sim.spawn(format!("job-{}", spec.name), async move {
            mgr.run_job(spec).await;
        })
    }

    async fn run_job(self: Rc<Self>, spec: JobSpec) {
        let submitted = self.sim.now();
        let static_bn = if self.policy.is_static() {
            spec.bn_peak()
        } else {
            0
        };

        // Queue for the start grant.
        let grant: OneShot<Grant> = OneShot::new(&self.sim);
        {
            let mut st = self.state.borrow_mut();
            st.start_queue.push_back(StartRequest {
                cn: spec.cn_needed,
                bn: static_bn,
                est: spec.estimated_duration(),
                grant: grant.clone(),
            });
        }
        self.try_schedule();
        if grant.wait().await == Grant::Aborted {
            // Never started: no resources to give back.
            let now = self.sim.now();
            self.push_record(&spec, submitted, now, now, SimDuration::ZERO, 0, true);
            return;
        }
        let started = self.sim.now();
        {
            let now = self.sim.now();
            let mut st = self.state.borrow_mut();
            let est_end = now + spec.estimated_duration();
            // May already be present if granted by the backfill path;
            // duplicates are harmless for the conservative reservation.
            st.running_est.push((est_end, spec.cn_needed, static_bn));
        }

        let mut bn_wait = SimDuration::ZERO;
        let mut requeues = 0u32;
        let mut aborted = false;
        'phases: for phase in &spec.phases {
            if phase.cn_time > SimDuration::ZERO {
                self.sim.sleep(phase.cn_time).await;
            }
            if phase.bn_needed > 0 && phase.bn_time > SimDuration::ZERO {
                if self.policy.is_static() {
                    // Boosters already reserved; mark them active.
                    self.mark_active(phase.bn_needed as i64);
                    self.sim.sleep(phase.bn_time).await;
                    self.mark_active(-(phase.bn_needed as i64));
                } else {
                    // Dynamic offload: claim boosters, run, and restart the
                    // section from scratch if a failure takes nodes away.
                    loop {
                        let t0 = self.sim.now();
                        let g: OneShot<Grant> = OneShot::new(&self.sim);
                        {
                            let mut st = self.state.borrow_mut();
                            st.bn_queue.push_back(BnRequest {
                                bn: phase.bn_needed,
                                grant: g.clone(),
                            });
                        }
                        self.try_schedule();
                        if g.wait().await == Grant::Aborted {
                            aborted = true;
                            break 'phases;
                        }
                        bn_wait += self.sim.now() - t0;
                        self.mark_active(phase.bn_needed as i64);
                        let signal: OneShot<u32> = OneShot::new(&self.sim);
                        let id = {
                            let mut st = self.state.borrow_mut();
                            let id = st.next_offload_id;
                            st.next_offload_id += 1;
                            st.offloads.push(OffloadEntry {
                                id,
                                bn: phase.bn_needed,
                                signal: signal.clone(),
                            });
                            id
                        };
                        // Interrupt on the left: at an exact tie the
                        // failure wins, deterministically.
                        let outcome = self
                            .sim
                            .race(signal.wait(), self.sim.sleep(phase.bn_time))
                            .await;
                        {
                            let mut st = self.state.borrow_mut();
                            st.offloads.retain(|e| e.id != id);
                        }
                        self.mark_active(-(phase.bn_needed as i64));
                        match outcome {
                            Either::Right(()) => {
                                // Completed: release phase boosters.
                                {
                                    let now = self.sim.now();
                                    let mut st = self.state.borrow_mut();
                                    st.accumulate(now);
                                    st.bn_free += phase.bn_needed;
                                }
                                self.try_schedule();
                                break;
                            }
                            Either::Left(failed) => {
                                // Failure took `failed` of our nodes (the
                                // injector already shrank the totals);
                                // survivors go back to the pool and the
                                // whole section restarts.
                                let survivors = phase.bn_needed - failed.min(phase.bn_needed);
                                {
                                    let now = self.sim.now();
                                    let mut st = self.state.borrow_mut();
                                    st.accumulate(now);
                                    st.bn_free += survivors;
                                    st.requeues += 1;
                                }
                                requeues += 1;
                                self.sim.emit("resmgr", "requeue", || {
                                    format!(
                                        "job {} lost {failed} boosters; offload restarts",
                                        spec.name
                                    )
                                });
                                self.try_schedule();
                            }
                        }
                    }
                }
            }
        }

        // Release job resources.
        let finished = self.sim.now();
        {
            let mut st = self.state.borrow_mut();
            st.accumulate(finished);
            st.cn_free += spec.cn_needed;
            st.bn_free += static_bn;
            if let Some(pos) = st
                .running_est
                .iter()
                .position(|&(_, cn, bn)| cn == spec.cn_needed && bn == static_bn)
            {
                st.running_est.remove(pos);
            }
        }
        self.push_record(
            &spec, submitted, started, finished, bn_wait, requeues, aborted,
        );
        self.try_schedule();
    }

    #[allow(clippy::too_many_arguments)]
    fn push_record(
        &self,
        spec: &JobSpec,
        submitted: SimTime,
        started: SimTime,
        finished: SimTime,
        bn_wait: SimDuration,
        requeues: u32,
        aborted: bool,
    ) {
        self.state.borrow_mut().records.push(JobRecord {
            name: spec.name.clone(),
            submitted,
            started,
            finished,
            bn_wait,
            requeues,
            aborted,
        });
    }

    /// Adjust the count of boosters actively computing.
    fn mark_active(&self, delta: i64) {
        let now = self.sim.now();
        let mut st = self.state.borrow_mut();
        st.accumulate(now);
        st.bn_active = (st.bn_active as i64 + delta)
            .try_into()
            .expect("active booster count must stay non-negative");
    }

    /// Grant whatever the policy allows right now.
    fn try_schedule(&self) {
        let now = self.sim.now();
        let mut granted: Vec<OneShot<Grant>> = Vec::new();
        let mut aborted: Vec<OneShot<Grant>> = Vec::new();
        {
            let mut st = self.state.borrow_mut();
            st.accumulate(now);

            // Abort requests the shrunken machine can never satisfy —
            // leaving them queued would deadlock the FIFO behind them.
            let (cn_total, bn_total) = (st.cn_total, st.bn_total);
            let mut sweep = |q: &mut VecDeque<BnRequest>| {
                let mut i = 0;
                while i < q.len() {
                    if q[i].bn > bn_total {
                        aborted.push(q.remove(i).unwrap().grant);
                    } else {
                        i += 1;
                    }
                }
            };
            sweep(&mut st.bn_queue);
            let mut i = 0;
            while i < st.start_queue.len() {
                let r = &st.start_queue[i];
                if r.cn > cn_total || r.bn > bn_total {
                    aborted.push(st.start_queue.remove(i).unwrap().grant);
                } else {
                    i += 1;
                }
            }

            // Booster-phase requests first (they belong to running jobs).
            while let Some(req) = st.bn_queue.front() {
                if st.bn_free >= req.bn {
                    let req = st.bn_queue.pop_front().unwrap();
                    st.bn_free -= req.bn;
                    granted.push(req.grant);
                } else {
                    break;
                }
            }

            // Job starts: FCFS head first.
            while let Some(head) = st.start_queue.front() {
                if st.cn_free >= head.cn && st.bn_free >= head.bn {
                    let req = st.start_queue.pop_front().unwrap();
                    st.cn_free -= req.cn;
                    st.bn_free -= req.bn;
                    granted.push(req.grant);
                } else {
                    break;
                }
            }
            if self.policy.backfills() && !st.start_queue.is_empty() {
                // EASY backfill: compute the head's reservation time from
                // running jobs' estimated completions, then start any later
                // job that fits now and finishes before that reservation.
                let head_cn = st.start_queue[0].cn;
                let head_bn = st.start_queue[0].bn;
                let mut est: Vec<(SimTime, u32, u32)> = st.running_est.clone();
                est.sort();
                let (mut cn, mut bn) = (st.cn_free, st.bn_free);
                let mut reserve_at = SimTime::MAX;
                for &(t, c, b) in &est {
                    cn += c;
                    bn += b;
                    if cn >= head_cn && bn >= head_bn {
                        reserve_at = t;
                        break;
                    }
                }
                let mut i = 1;
                while i < st.start_queue.len() {
                    let cand = &st.start_queue[i];
                    let fits = st.cn_free >= cand.cn && st.bn_free >= cand.bn;
                    let harmless = reserve_at == SimTime::MAX || now + cand.est <= reserve_at;
                    if fits && harmless {
                        let req = st.start_queue.remove(i).unwrap();
                        st.cn_free -= req.cn;
                        st.bn_free -= req.bn;
                        granted.push(req.grant);
                    } else {
                        i += 1;
                    }
                }
            }
        }
        for g in granted {
            g.set(Grant::Granted);
        }
        for g in aborted {
            g.set(Grant::Aborted);
        }
    }

    /// Inject the loss of `nodes` booster nodes. Nodes are taken first
    /// from running dynamic offload sections (oldest first — their jobs
    /// are interrupted and requeue the section), then from the free pool.
    /// Statically-held boosters are not victimized in this model. Spares,
    /// if any, immediately replace the losses. Returns what happened.
    pub fn inject_booster_failure(&self, nodes: u32) -> FailureOutcome {
        let now = self.sim.now();
        let mut signals: Vec<(OneShot<u32>, u32)> = Vec::new();
        let outcome = {
            let mut st = self.state.borrow_mut();
            st.accumulate(now);
            let mut remaining = nodes;
            let mut victims = 0u32;
            // Interrupt running offload sections, oldest first.
            while remaining > 0 && !st.offloads.is_empty() {
                let entry = st.offloads.remove(0);
                let lost = entry.bn.min(remaining);
                remaining -= lost;
                st.bn_total -= lost;
                victims += 1;
                signals.push((entry.signal, lost));
            }
            // Remainder dies in the free pool.
            let from_free = remaining.min(st.bn_free);
            st.bn_free -= from_free;
            st.bn_total -= from_free;
            remaining -= from_free;
            let failed = nodes - remaining;
            // Replacement from the spare pool.
            let replaced = st.spare_bn.min(failed);
            st.spare_bn -= replaced;
            st.bn_total += replaced;
            st.bn_free += replaced;
            st.bn_failures += failed;
            st.bn_replaced += replaced;
            FailureOutcome {
                failed,
                replaced,
                victims,
            }
        };
        self.sim.emit("resmgr", "bn-failure", || {
            format!(
                "{} boosters failed, {} replaced, {} jobs hit",
                outcome.failed, outcome.replaced, outcome.victims
            )
        });
        for (signal, lost) in signals {
            signal.set(lost);
        }
        self.try_schedule();
        outcome
    }

    /// Inject the loss of `nodes` cluster nodes. Only idle cluster nodes
    /// die in this model (running jobs pin theirs); returns the number
    /// actually lost.
    pub fn inject_cluster_failure(&self, nodes: u32) -> u32 {
        let now = self.sim.now();
        let failed = {
            let mut st = self.state.borrow_mut();
            st.accumulate(now);
            let failed = nodes.min(st.cn_free);
            st.cn_free -= failed;
            st.cn_total -= failed;
            failed
        };
        self.sim.emit("resmgr", "cn-failure", || {
            format!("{failed} cluster nodes failed")
        });
        self.try_schedule();
        failed
    }

    /// Remaining cold-standby booster nodes.
    pub fn spares(&self) -> u32 {
        self.state.borrow().spare_bn
    }

    /// Current (cluster, booster) node totals, net of failures.
    pub fn totals(&self) -> (u32, u32) {
        let st = self.state.borrow();
        (st.cn_total, st.bn_total)
    }

    /// Snapshot free resources (diagnostics).
    pub fn free(&self) -> (u32, u32) {
        let st = self.state.borrow();
        (st.cn_free, st.bn_free)
    }

    /// Snapshot the instantaneous occupancy gauges — for external
    /// utilisation samplers (e.g. trace-replay time series) that need
    /// more than the aggregate integrals in [`WorkloadReport`].
    pub fn gauges(&self) -> Gauges {
        let st = self.state.borrow();
        Gauges {
            cn_busy: st.cn_total - st.cn_free,
            bn_allocated: st.bn_total - st.bn_free,
            bn_active: st.bn_active,
            cn_total: st.cn_total,
            bn_total: st.bn_total,
        }
    }

    /// Build the final report; call after the simulation has drained.
    pub fn report(&self) -> WorkloadReport {
        let mut st = self.state.borrow_mut();
        let end = st
            .records
            .iter()
            .map(|r| r.finished)
            .max()
            .unwrap_or(SimTime::ZERO);
        let end = end.max(st.last_change);
        st.accumulate(end);
        let makespan = end - SimTime::ZERO;
        // Divide by the *capacity integral* (∫ total(t) dt), not
        // total_now × makespan: when failures shrink the machine mid-run,
        // the naive denominator undercounts capacity and utilisation
        // could exceed 1.0.
        let bn_util = if st.bn_capacity_integral > 0.0 {
            st.bn_active_integral / st.bn_capacity_integral
        } else {
            0.0
        };
        let bn_alloc = if st.bn_capacity_integral > 0.0 {
            st.bn_alloc_integral / st.bn_capacity_integral
        } else {
            0.0
        };
        let cn_util = if st.cn_capacity_integral > 0.0 {
            st.cn_busy_integral / st.cn_capacity_integral
        } else {
            0.0
        };
        WorkloadReport {
            jobs: st.records.clone(),
            makespan,
            bn_utilization: bn_util,
            bn_allocated: bn_alloc,
            cn_utilization: cn_util,
            bn_failures: st.bn_failures,
            bn_replaced: st.bn_replaced,
            requeues: st.requeues,
            jobs_aborted: st.records.iter().filter(|r| r.aborted).count() as u32,
        }
    }
}

/// Run a whole workload (arrival-offset, spec) under `policy` and report.
pub fn run_workload(
    seed: u64,
    cn_total: u32,
    bn_total: u32,
    policy: Policy,
    jobs: Vec<(SimDuration, JobSpec)>,
) -> WorkloadReport {
    let mut sim = deep_simkit::Simulation::new(seed);
    let ctx = sim.handle();
    let mgr = ResMgr::new(&ctx, cn_total, bn_total, policy);
    let mgr2 = mgr.clone();
    let ctx2 = ctx.clone();
    sim.spawn("workload-driver", async move {
        let mut handles = Vec::new();
        for (arrive, spec) in jobs {
            let at = SimTime::ZERO + arrive;
            if at > ctx2.now() {
                ctx2.sleep_until(at).await;
            }
            handles.push(mgr2.submit(spec));
        }
        join_all(handles).await;
    });
    sim.run().assert_completed();
    mgr.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::secs(s)
    }

    /// A job with one cluster phase and one offload phase.
    fn coupled_job(name: &str, cn: u32, bn: u32, cn_s: u64, bn_s: u64) -> JobSpec {
        JobSpec {
            name: name.into(),
            cn_needed: cn,
            phases: vec![JobPhase {
                cn_time: secs(cn_s),
                bn_needed: bn,
                bn_time: secs(bn_s),
            }],
        }
    }

    #[test]
    fn single_job_runs_to_completion() {
        let rep = run_workload(
            1,
            4,
            8,
            Policy::DynamicFcfs,
            vec![(SimDuration::ZERO, coupled_job("a", 2, 4, 10, 5))],
        );
        assert_eq!(rep.jobs.len(), 1);
        assert_eq!(rep.jobs[0].wait(), SimDuration::ZERO);
        assert_eq!(rep.makespan, secs(15));
    }

    #[test]
    fn fcfs_orders_starts() {
        // Two jobs both needing all 4 CNs: strictly sequential.
        let rep = run_workload(
            1,
            4,
            0,
            Policy::DynamicFcfs,
            vec![
                (SimDuration::ZERO, coupled_job("first", 4, 0, 10, 0)),
                (SimDuration::ZERO, coupled_job("second", 4, 0, 10, 0)),
            ],
        );
        assert_eq!(rep.makespan, secs(20));
        let first = rep.jobs.iter().find(|j| j.name == "first").unwrap();
        let second = rep.jobs.iter().find(|j| j.name == "second").unwrap();
        assert!(second.started >= first.finished);
    }

    #[test]
    fn dynamic_shares_boosters_that_static_hoards() {
        // Two jobs, each needs the full booster but only for the second
        // half of its runtime. Static serializes them; dynamic overlaps
        // their cluster phases.
        let jobs = || {
            vec![
                (SimDuration::ZERO, coupled_job("a", 2, 8, 10, 10)),
                (SimDuration::ZERO, coupled_job("b", 2, 8, 10, 10)),
            ]
        };
        let stat = run_workload(1, 8, 8, Policy::StaticFcfs, jobs());
        let dyn_ = run_workload(1, 8, 8, Policy::DynamicFcfs, jobs());
        assert!(
            dyn_.makespan < stat.makespan,
            "dynamic {:?} must beat static {:?}",
            dyn_.makespan,
            stat.makespan
        );
        assert!(
            dyn_.bn_utilization > stat.bn_utilization,
            "dynamic lifts booster utilisation: {} vs {}",
            dyn_.bn_utilization,
            stat.bn_utilization
        );
        // Static *allocates* everything but leaves boosters idle through
        // cluster phases: allocation is high, useful utilisation is not.
        assert!(stat.bn_allocated > stat.bn_utilization + 0.2);
        // Dynamic allocation tracks use exactly.
        assert!((dyn_.bn_allocated - dyn_.bn_utilization).abs() < 1e-9);
    }

    #[test]
    fn backfill_lets_small_jobs_jump_a_blocked_head() {
        // Job A takes 6 of 8 CNs for 100 s. Job B needs all 8 and queues.
        // Tiny job C (1 CN, 5 s) arrives last: FCFS parks it behind B;
        // backfill runs it in the 2-CN gap without delaying B.
        let jobs = vec![
            (SimDuration::ZERO, coupled_job("a", 6, 0, 100, 0)),
            (secs(1), coupled_job("b", 8, 0, 50, 0)),
            (secs(2), coupled_job("c", 1, 0, 5, 0)),
        ];
        let fcfs = run_workload(1, 8, 0, Policy::DynamicFcfs, jobs.clone());
        let bf = run_workload(1, 8, 0, Policy::DynamicBackfill, jobs);
        let c_fcfs = fcfs.jobs.iter().find(|j| j.name == "c").unwrap();
        let c_bf = bf.jobs.iter().find(|j| j.name == "c").unwrap();
        assert!(
            c_bf.finished < c_fcfs.finished,
            "backfill must accelerate the tiny job: {:?} vs {:?}",
            c_bf.finished,
            c_fcfs.finished
        );
        // And must not delay the blocked head beyond its reservation.
        let b_fcfs = fcfs.jobs.iter().find(|j| j.name == "b").unwrap();
        let b_bf = bf.jobs.iter().find(|j| j.name == "b").unwrap();
        assert!(b_bf.started <= b_fcfs.started + secs(1));
    }

    #[test]
    fn resources_never_oversubscribed() {
        // Stress with many heterogeneous jobs; free counts are u32, so an
        // oversubscription bug would underflow-panic. All jobs must finish
        // and the pools return to their initial totals.
        let mut jobs = Vec::new();
        for i in 0..20u64 {
            jobs.push((
                SimDuration::secs(i % 7),
                coupled_job(
                    &format!("j{i}"),
                    (i % 4 + 1) as u32,
                    (i % 8) as u32,
                    i % 5 + 1,
                    i % 3,
                ),
            ));
        }
        for policy in [
            Policy::StaticFcfs,
            Policy::DynamicFcfs,
            Policy::DynamicBackfill,
        ] {
            let rep = run_workload(1, 8, 8, policy, jobs.clone());
            assert_eq!(rep.jobs.len(), 20, "{policy:?}: all jobs completed");
        }
    }

    #[test]
    fn bn_wait_is_recorded_under_dynamic_contention() {
        // Two jobs whose offload phases collide on the lone booster set.
        let rep = run_workload(
            1,
            8,
            4,
            Policy::DynamicFcfs,
            vec![
                (SimDuration::ZERO, coupled_job("a", 1, 4, 5, 20)),
                (SimDuration::ZERO, coupled_job("b", 1, 4, 5, 20)),
            ],
        );
        let total_wait: SimDuration = rep.jobs.iter().map(|j| j.bn_wait).sum();
        assert!(
            total_wait >= secs(19),
            "one job must wait ~20 s for boosters, waited {total_wait}"
        );
    }

    #[test]
    fn utilisation_bounds() {
        let rep = run_workload(
            1,
            4,
            4,
            Policy::DynamicFcfs,
            vec![(SimDuration::ZERO, coupled_job("a", 4, 4, 10, 10))],
        );
        assert!(rep.cn_utilization > 0.0 && rep.cn_utilization <= 1.0);
        assert!(rep.bn_utilization > 0.0 && rep.bn_utilization <= 1.0);
        // CN held 20 s of 20 s → 100%; BN held 10 of 20 → 50%.
        assert!((rep.cn_utilization - 1.0).abs() < 1e-9);
        assert!((rep.bn_utilization - 0.5).abs() < 1e-9);
    }

    /// Drive a workload while an injector process kills boosters mid-run.
    fn run_with_failures(
        spares: u32,
        kill_at_s: u64,
        kill_n: u32,
        jobs: Vec<(SimDuration, JobSpec)>,
    ) -> (WorkloadReport, FailureOutcome) {
        let mut sim = deep_simkit::Simulation::new(9);
        let ctx = sim.handle();
        let mgr = ResMgr::with_spares(&ctx, 8, 8, spares, Policy::DynamicFcfs);
        let mgr2 = mgr.clone();
        let ctx2 = ctx.clone();
        sim.spawn("workload-driver", async move {
            let mut handles = Vec::new();
            for (arrive, spec) in jobs {
                let at = SimTime::ZERO + arrive;
                if at > ctx2.now() {
                    ctx2.sleep_until(at).await;
                }
                handles.push(mgr2.submit(spec));
            }
            join_all(handles).await;
        });
        let mgr3 = mgr.clone();
        let ctx3 = ctx.clone();
        let inj = sim.spawn("injector", async move {
            ctx3.sleep(secs(kill_at_s)).await;
            mgr3.inject_booster_failure(kill_n)
        });
        sim.run().assert_completed();
        (mgr.report(), inj.try_result().unwrap())
    }

    #[test]
    fn failure_mid_offload_requeues_and_spares_replace() {
        // One job: 5 s cluster + 10 s offload on 4 BNs. Kill 2 BNs at
        // t=8 (mid-offload): the section restarts and, with spares, still
        // has 4 BNs to claim.
        let (rep, out) = run_with_failures(
            4,
            8,
            2,
            vec![(SimDuration::ZERO, coupled_job("a", 2, 4, 5, 10))],
        );
        assert_eq!(
            out,
            FailureOutcome {
                failed: 2,
                replaced: 2,
                victims: 1
            }
        );
        let job = &rep.jobs[0];
        assert!(!job.aborted);
        assert_eq!(job.requeues, 1);
        // 5 s cluster + 3 s wasted offload + 10 s redo = 18 s.
        assert_eq!(rep.makespan, secs(18));
        assert_eq!(rep.bn_failures, 2);
        assert_eq!(rep.bn_replaced, 2);
        assert_eq!(rep.requeues, 1);
    }

    #[test]
    fn unsatisfiable_after_shrink_aborts_instead_of_hanging() {
        // Kill 6 of 8 BNs with no spares while a 4-BN offload runs: the
        // requeued request exceeds the 2 remaining and must be aborted,
        // not left to deadlock the simulation.
        let (rep, out) = run_with_failures(
            0,
            8,
            6,
            vec![(SimDuration::ZERO, coupled_job("a", 2, 4, 5, 10))],
        );
        assert_eq!(out.replaced, 0);
        assert!(out.failed >= 4, "the active section lost its nodes");
        assert_eq!(rep.jobs_aborted, 1);
        assert!(rep.jobs[0].aborted);
    }

    #[test]
    fn utilisation_stays_bounded_under_failures() {
        // The capacity-integral denominator keeps utilisation ≤ 1 even
        // though the machine shrinks mid-run.
        let (rep, _) = run_with_failures(
            0,
            3,
            4,
            vec![
                (SimDuration::ZERO, coupled_job("a", 2, 4, 1, 10)),
                (SimDuration::ZERO, coupled_job("b", 2, 4, 1, 10)),
            ],
        );
        assert!(rep.bn_failures > 0);
        assert!(
            rep.bn_utilization > 0.0 && rep.bn_utilization <= 1.0,
            "bn_utilization {} out of bounds",
            rep.bn_utilization
        );
        assert!(rep.bn_allocated <= 1.0 + 1e-9);
        assert!(rep.cn_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn idle_cluster_nodes_can_fail() {
        let mut sim = deep_simkit::Simulation::new(2);
        let ctx = sim.handle();
        let mgr = ResMgr::new(&ctx, 8, 8, Policy::DynamicFcfs);
        let m = mgr.clone();
        sim.spawn("inject", async move {
            assert_eq!(m.inject_cluster_failure(3), 3);
            assert_eq!(m.totals().0, 5);
        });
        sim.run().assert_completed();
        assert_eq!(mgr.free().0, 5);
    }
}
