//! Applying a [`FaultPlan`] to a live machine.
//!
//! [`spawn_injector`] runs the plan as one simulation process: it sleeps
//! to each event's time, applies the fault to whichever components the
//! [`InjectorTargets`] carry, and (for windowed faults) spawns a healer
//! that undoes the damage after the window. Events whose target
//! component is absent — or whose node index is out of range — are
//! recorded as skipped rather than applied, so *any* plan is safe to run
//! against *any* subset of the machine.

use std::rc::Rc;

use deep_cbp::CbpWire;
use deep_fabric::{ExtollFabric, FaultModel, IbFabric, Network, NodeId};
use deep_io::{CheckpointManager, ParallelFs};
use deep_resmgr::ResMgr;
use deep_simkit::{ProcHandle, Sim, SimTime};

use crate::plan::{Domain, FaultKind, FaultPlan};

/// The components a fault plan acts on. All optional: an injector only
/// touches what it is given.
#[derive(Clone, Default)]
pub struct InjectorTargets {
    /// The booster's EXTOLL fabric.
    pub extoll: Option<Rc<ExtollFabric>>,
    /// The cluster's InfiniBand fabric.
    pub ib: Option<Rc<IbFabric>>,
    /// The cluster–booster protocol bridge (for BI lookups).
    pub cbp: Option<Rc<CbpWire>>,
    /// The resource manager (notified of node crashes).
    pub resmgr: Option<Rc<ResMgr>>,
    /// The checkpoint manager (its commit log sees crash severities).
    pub ckpt: Option<Rc<CheckpointManager>>,
    /// The parallel file system (for server stalls).
    pub pfs: Option<Rc<ParallelFs>>,
}

/// What the injector actually did at one event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    /// Virtual time the event was processed.
    pub at: SimTime,
    /// Human-readable description, prefixed `skip:` when the event had
    /// no applicable target.
    pub what: String,
}

fn net_for(t: &InjectorTargets, domain: Domain) -> Option<Rc<Network>> {
    let net: Rc<Network> = match domain {
        Domain::Cluster => t.ib.as_ref()?.network().clone(),
        Domain::Booster => t.extoll.as_ref()?.network().clone(),
    };
    Some(net)
}

/// Run `plan` against `targets` as a background process. The handle
/// resolves to the record of everything applied (and skipped), in order.
pub fn spawn_injector(
    sim: &Sim,
    plan: FaultPlan,
    targets: InjectorTargets,
) -> ProcHandle<Vec<InjectionRecord>> {
    let ctx = sim.clone();
    sim.spawn("fault-injector", async move {
        let t0 = ctx.now();
        let mut records = Vec::with_capacity(plan.len());
        for ev in plan.into_events() {
            ctx.sleep_until(t0 + ev.at).await;
            let what = apply(&ctx, &targets, &ev.kind);
            ctx.emit("faults", "inject", || what.clone());
            records.push(InjectionRecord {
                at: ctx.now(),
                what,
            });
        }
        records
    })
}

/// Apply one fault. Returns the description of what happened.
fn apply(sim: &Sim, t: &InjectorTargets, kind: &FaultKind) -> String {
    match *kind {
        FaultKind::LinkDegrade {
            domain,
            error_rate,
            duration,
        } => {
            let Some(net) = net_for(t, domain) else {
                return format!("skip: link-degrade {} (no fabric)", domain.name());
            };
            let healthy = net.fault_model();
            // Degradation slows transfers via link-level retransmission;
            // keep enough retries that it does not become a hard failure.
            net.set_fault_model(FaultModel {
                segment_error_rate: error_rate.clamp(0.0, 1.0),
                max_retries: healthy.max_retries.max(32),
            });
            let ctx = sim.clone();
            sim.spawn("fault-heal-links", async move {
                ctx.sleep(duration).await;
                net.set_fault_model(healthy);
                ctx.emit("faults", "heal", || {
                    format!("links healed to error rate {}", healthy.segment_error_rate)
                });
            });
            format!(
                "link-degrade {} to {error_rate} for {duration}",
                domain.name()
            )
        }
        FaultKind::NicDrop {
            domain,
            node,
            drop_prob,
            duration,
        } => {
            let Some(net) = net_for(t, domain) else {
                return format!("skip: nic-drop {} n{node} (no fabric)", domain.name());
            };
            if node as usize >= net.num_nodes() {
                return format!("skip: nic-drop {} n{node} (out of range)", domain.name());
            }
            net.set_node_drop_prob(NodeId(node), drop_prob.clamp(0.0, 1.0));
            let ctx = sim.clone();
            sim.spawn("fault-heal-nic", async move {
                ctx.sleep(duration).await;
                net.set_node_drop_prob(NodeId(node), 0.0);
                ctx.emit("faults", "heal", || format!("nic {node} healed"));
            });
            format!(
                "nic-drop {} n{node} p={drop_prob} for {duration}",
                domain.name()
            )
        }
        FaultKind::NodeCrash {
            domain,
            node,
            severity,
        } => {
            let mut hit = false;
            if let Some(net) = net_for(t, domain) {
                if (node as usize) < net.num_nodes() {
                    net.set_node_down(NodeId(node), true);
                    hit = true;
                }
            }
            if let Some(rm) = &t.resmgr {
                match domain {
                    Domain::Booster => {
                        rm.inject_booster_failure(1);
                    }
                    Domain::Cluster => {
                        rm.inject_cluster_failure(1);
                    }
                }
                hit = true;
            }
            if let Some(ckpt) = &t.ckpt {
                ckpt.fail(severity);
                hit = true;
            }
            if hit {
                format!("node-crash {} n{node} ({severity:?})", domain.name())
            } else {
                format!("skip: node-crash {} n{node} (no target)", domain.name())
            }
        }
        FaultKind::BiFail { index, duration } => {
            let (Some(cbp), Some(ib)) = (&t.cbp, &t.ib) else {
                return format!("skip: bi-fail {index} (need cbp + ib)");
            };
            let bis = cbp.bi_nodes();
            if index >= bis.len() {
                return format!("skip: bi-fail {index} (out of range)");
            }
            let host = bis[index].0;
            ib.set_node_down(host, true);
            let ib = ib.clone();
            let ctx = sim.clone();
            sim.spawn("fault-heal-bi", async move {
                ctx.sleep(duration).await;
                ib.set_node_down(host, false);
                ctx.emit("faults", "heal", || format!("bi {index} back up"));
            });
            format!("bi-fail {index} (ib host {host}) for {duration}")
        }
        FaultKind::PfsStall { server, bytes } => {
            let Some(pfs) = &t.pfs else {
                return format!("skip: pfs-stall s{server} (no pfs)");
            };
            if server >= pfs.n_servers() {
                return format!("skip: pfs-stall s{server} (out of range)");
            }
            let dev = pfs.server_device(server);
            sim.spawn("fault-pfs-stall", async move {
                dev.write(bytes).await;
            });
            format!("pfs-stall s{server} burst {bytes} B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultEvent;
    use deep_io::CkptLevel;
    use deep_simkit::{SimDuration, Simulation};

    fn machine(sim: &Sim) -> (Rc<ExtollFabric>, Rc<IbFabric>) {
        (
            Rc::new(ExtollFabric::new(sim, (2, 2, 2))),
            Rc::new(IbFabric::new(sim, 4)),
        )
    }

    #[test]
    fn link_degrade_heals_after_the_window() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let (extoll, _) = machine(&ctx);
        let plan = FaultPlan::link_flaps(Domain::Booster, 1.0, 10.0, 0.25, 2.0, 1);
        let h = spawn_injector(
            &ctx,
            plan,
            InjectorTargets {
                extoll: Some(extoll.clone()),
                ..InjectorTargets::default()
            },
        );
        let net = extoll.network().clone();
        let ctx2 = ctx.clone();
        let probe = sim.spawn("probe", async move {
            ctx2.sleep(SimDuration::from_secs_f64(1.5)).await;
            let during = net.fault_model().segment_error_rate;
            ctx2.sleep(SimDuration::from_secs_f64(2.0)).await;
            let after = net.fault_model().segment_error_rate;
            (during, after)
        });
        sim.run().assert_completed();
        let (during, after) = probe.try_result().unwrap();
        assert_eq!(during, 0.25);
        assert_eq!(after, 0.0);
        assert_eq!(h.try_result().unwrap().len(), 1);
    }

    #[test]
    fn events_without_targets_are_skipped_not_fatal() {
        let mut sim = Simulation::new(2);
        let ctx = sim.handle();
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: SimDuration::secs(1),
                kind: FaultKind::PfsStall {
                    server: 0,
                    bytes: 1 << 20,
                },
            },
            FaultEvent {
                at: SimDuration::secs(2),
                kind: FaultKind::NodeCrash {
                    domain: Domain::Booster,
                    node: 99,
                    severity: deep_io::FailureSeverity::NodeLoss,
                },
            },
            FaultEvent {
                at: SimDuration::secs(3),
                kind: FaultKind::BiFail {
                    index: 5,
                    duration: SimDuration::secs(1),
                },
            },
        ]);
        let h = spawn_injector(&ctx, plan, InjectorTargets::default());
        sim.run().assert_completed();
        let records = h.try_result().unwrap();
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.what.starts_with("skip:")));
    }

    #[test]
    fn node_crash_reaches_fabric_and_commit_log() {
        let mut sim = Simulation::new(3);
        let ctx = sim.handle();
        let (extoll, ib) = machine(&ctx);
        let servers = vec![NodeId(2), NodeId(3)];
        let pfs = ParallelFs::new(&ctx, ib.clone(), &servers, &deep_io::PfsConfig::default());
        let mgr = CheckpointManager::new(
            &ctx,
            extoll.clone(),
            pfs,
            vec![NodeId(0), NodeId(1)],
            vec![deep_io::BridgeNode {
                torus: NodeId(7),
                ib: NodeId(0),
            }],
            deep_io::DeviceSpec::nvm(),
        );
        let m = mgr.clone();
        let plan = FaultPlan::new(vec![FaultEvent {
            at: SimDuration::secs(1),
            kind: FaultKind::NodeCrash {
                domain: Domain::Booster,
                node: 5,
                severity: deep_io::FailureSeverity::NodeLoss,
            },
        }]);
        sim.spawn("ckpt", async move {
            m.checkpoint(CkptLevel::L1Local, 1 << 16, 1).await;
        });
        spawn_injector(
            &ctx,
            plan,
            InjectorTargets {
                extoll: Some(extoll.clone()),
                ckpt: Some(mgr.clone()),
                ..InjectorTargets::default()
            },
        );
        sim.run().assert_completed();
        assert!(extoll.is_node_down(NodeId(5)));
        // L1 does not survive a node loss: the commit log is empty.
        assert_eq!(mgr.log().best(), None);
    }

    #[test]
    fn pfs_stall_occupies_the_server_device() {
        let mut sim = Simulation::new(4);
        let ctx = sim.handle();
        let (_, ib) = machine(&ctx);
        let servers = vec![NodeId(2), NodeId(3)];
        let pfs = ParallelFs::new(&ctx, ib, &servers, &deep_io::PfsConfig::default());
        let plan = FaultPlan::new(vec![FaultEvent {
            at: SimDuration::ZERO,
            kind: FaultKind::PfsStall {
                server: 1,
                bytes: 8 << 20,
            },
        }]);
        spawn_injector(
            &ctx,
            plan,
            InjectorTargets {
                pfs: Some(pfs.clone()),
                ..InjectorTargets::default()
            },
        );
        sim.run().assert_completed();
        assert_eq!(pfs.server_device(1).stats().bytes_written, 8 << 20);
        assert_eq!(pfs.server_device(0).stats().bytes_written, 0);
    }
}
