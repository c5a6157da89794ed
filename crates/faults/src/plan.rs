//! Declarative, seeded fault plans over virtual time.
//!
//! A [`FaultPlan`] is an ordered schedule of [`FaultEvent`]s — the *what*
//! and *when* of every failure a run will suffer, fixed before the
//! simulation starts. Plans are plain data: they can be generated from a
//! seed (Poisson crash arrivals, periodic link flaps), merged, inspected
//! and replayed, and the same plan on the same machine always produces
//! the same trace. The *how* of applying a plan lives in
//! [`crate::inject::spawn_injector`].

use deep_io::FailureSeverity;
use deep_simkit::{SimDuration, SimRng};

/// Which fabric (and node population) a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// The InfiniBand cluster side.
    Cluster,
    /// The EXTOLL booster side.
    Booster,
}

impl Domain {
    /// Stable name for traces and tables.
    pub fn name(&self) -> &'static str {
        match self {
            Domain::Cluster => "cluster",
            Domain::Booster => "booster",
        }
    }
}

/// One kind of injected failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Every link of the fabric degrades to the given per-segment CRC
    /// error rate for a window — transfers slow down under link-level
    /// retransmission but keep completing.
    LinkDegrade {
        /// Fabric to degrade.
        domain: Domain,
        /// Per-segment error probability while degraded.
        error_rate: f64,
        /// How long the degradation lasts.
        duration: SimDuration,
    },
    /// One NIC drops whole transfers with the given probability for a
    /// window — callers see hard `Err` failures and must retry.
    NicDrop {
        /// Fabric of the faulty NIC.
        domain: Domain,
        /// Node whose NIC misbehaves.
        node: u32,
        /// Probability that a transfer through this NIC is dropped.
        drop_prob: f64,
        /// How long the NIC misbehaves.
        duration: SimDuration,
    },
    /// Crash-stop of a whole node: its fabric port goes dark permanently
    /// and the failure is reported to the resource manager and the
    /// checkpoint log (with this severity).
    NodeCrash {
        /// Fabric the node lives on.
        domain: Domain,
        /// The crashed node.
        node: u32,
        /// How much state the crash takes with it.
        severity: FailureSeverity,
    },
    /// A booster interface goes dark for a window (firmware reboot):
    /// bridge traffic must fail over to the remaining BIs.
    BiFail {
        /// Index into the machine's BI list.
        index: usize,
        /// How long the BI is gone.
        duration: SimDuration,
    },
    /// A PFS server stalls: its disk array absorbs a background burst of
    /// `bytes`, delaying every checkpoint stripe queued behind it.
    PfsStall {
        /// Index of the stalled server.
        server: usize,
        /// Size of the burst keeping the device busy.
        bytes: u64,
    },
}

/// A fault at a point in virtual time (relative to injector start).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimDuration,
    /// What happens.
    pub kind: FaultKind,
}

/// An ordered fault schedule. Construction sorts events by time with a
/// stable sort, so ties keep their insertion order — a plan is a pure
/// function of its inputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan from arbitrary events (sorted by time, stable).
    pub fn new(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// The schedule, in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Consume the plan into its ordered events.
    pub fn into_events(self) -> Vec<FaultEvent> {
        self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Merge two plans into one ordered schedule.
    pub fn merge(self, other: FaultPlan) -> FaultPlan {
        let mut events = self.events;
        events.extend(other.events);
        FaultPlan::new(events)
    }

    /// Poisson crash arrivals over `n_nodes` nodes of `domain` with the
    /// given per-node MTBF, up to `horizon_s`: inter-arrival times are
    /// exponential at the *system* rate `n_nodes / mtbf_node_s`, the
    /// struck node is uniform, and the severity is drawn from
    /// `severity_weights` ([transient, node loss, multi-node loss]).
    /// Deterministic in `(seed, stream)`.
    pub fn poisson_crashes(
        domain: Domain,
        n_nodes: u32,
        mtbf_node_s: f64,
        horizon_s: f64,
        severity_weights: [f64; 3],
        seed: u64,
        stream: u64,
    ) -> FaultPlan {
        assert!(n_nodes > 0 && mtbf_node_s > 0.0 && horizon_s > 0.0);
        let mut rng = SimRng::from_seed_stream(seed, stream);
        let system_mtbf = mtbf_node_s / n_nodes as f64;
        let mut events = Vec::new();
        let mut t = rng.gen_exp(system_mtbf);
        while t < horizon_s {
            let node = rng.gen_range(0..n_nodes);
            let severity = FailureSeverity::draw(&mut rng, severity_weights);
            events.push(FaultEvent {
                at: SimDuration::from_secs_f64(t),
                kind: FaultKind::NodeCrash {
                    domain,
                    node,
                    severity,
                },
            });
            t += rng.gen_exp(system_mtbf);
        }
        FaultPlan::new(events)
    }

    /// `count` periodic link flaps on `domain`: starting at `first_s`,
    /// every `period_s` the fabric degrades to `error_rate` for
    /// `flap_s` seconds and then heals.
    pub fn link_flaps(
        domain: Domain,
        first_s: f64,
        period_s: f64,
        error_rate: f64,
        flap_s: f64,
        count: u32,
    ) -> FaultPlan {
        assert!(period_s > 0.0 && flap_s > 0.0);
        let events = (0..count)
            .map(|i| FaultEvent {
                at: SimDuration::from_secs_f64(first_s + i as f64 * period_s),
                kind: FaultKind::LinkDegrade {
                    domain,
                    error_rate,
                    duration: SimDuration::from_secs_f64(flap_s),
                },
            })
            .collect();
        FaultPlan::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_sorted_and_stable() {
        let a = FaultEvent {
            at: SimDuration::secs(5),
            kind: FaultKind::PfsStall {
                server: 0,
                bytes: 1,
            },
        };
        let b = FaultEvent {
            at: SimDuration::secs(1),
            kind: FaultKind::PfsStall {
                server: 1,
                bytes: 2,
            },
        };
        let c = FaultEvent {
            at: SimDuration::secs(5),
            kind: FaultKind::PfsStall {
                server: 2,
                bytes: 3,
            },
        };
        let plan = FaultPlan::new(vec![a.clone(), b.clone(), c.clone()]);
        assert_eq!(plan.events(), &[b, a, c]);
    }

    #[test]
    fn poisson_crashes_are_deterministic_in_the_seed() {
        let gen = || {
            FaultPlan::poisson_crashes(Domain::Booster, 8, 50.0, 200.0, [0.7, 0.25, 0.05], 42, 7)
        };
        let p1 = gen();
        assert_eq!(p1, gen());
        assert!(!p1.is_empty(), "200 s at system MTBF 6.25 s must crash");
        // Sorted, in-horizon, nodes in range.
        let mut last = SimDuration::ZERO;
        for ev in p1.events() {
            assert!(ev.at >= last && ev.at < SimDuration::secs(200));
            last = ev.at;
            match ev.kind {
                FaultKind::NodeCrash { node, .. } => assert!(node < 8),
                ref other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn different_streams_give_different_plans() {
        let p = |stream| {
            FaultPlan::poisson_crashes(Domain::Cluster, 4, 30.0, 300.0, [1.0, 1.0, 1.0], 9, stream)
        };
        assert_ne!(p(1), p(2));
    }

    #[test]
    fn link_flaps_are_periodic() {
        let plan = FaultPlan::link_flaps(Domain::Booster, 1.0, 10.0, 0.3, 2.0, 3);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.events()[1].at, SimDuration::from_secs_f64(11.0));
    }

    #[test]
    fn merge_interleaves_by_time() {
        let flaps = FaultPlan::link_flaps(Domain::Booster, 5.0, 10.0, 0.1, 1.0, 2);
        let stall = FaultPlan::new(vec![FaultEvent {
            at: SimDuration::secs(7),
            kind: FaultKind::PfsStall {
                server: 0,
                bytes: 1 << 20,
            },
        }]);
        let merged = flaps.merge(stall);
        let times: Vec<u64> = merged.events().iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(times, vec![5_000_000_000, 7_000_000_000, 15_000_000_000]);
    }
}
