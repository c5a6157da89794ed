//! Process management: world launch and `MPI_Comm_spawn`.
//!
//! This is the heart of the paper's *global MPI* (slides 21, 26–29): the
//! cluster application spawns its highly scalable code parts onto booster
//! endpoints; the children receive their own `MPI_COMM_WORLD`, and the two
//! worlds are joined by an inter-communicator. Spawn is a collective over
//! the parent communicator, with the process-manager work done at `root`.
//!
//! The launch cost model is a binomial fan-out of control messages across
//! the fabric (each launched ParaStation daemon forwards to half of its
//! remaining subtree), plus a per-process exec/fork overhead — giving the
//! `O(log p)` + per-process scaling measured by experiment F21.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

use deep_simkit::{OneShot, ProcHandle};

use crate::comm::{Comm, MpiCtx};
use crate::universe::Universe;
use crate::value::Value;
use crate::wire::{EpId, LocalBoxFuture};

/// What the root learns from the process manager: the inter-communicator
/// context id plus the endpoints of the spawned world.
type SpawnOutcome = Result<(u64, Rc<Vec<EpId>>), SpawnError>;

/// Why a spawn failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpawnError {
    /// The named pool has fewer free endpoints than `maxprocs`.
    PoolExhausted {
        /// Pool that was asked.
        pool: String,
        /// Endpoints requested.
        requested: u32,
        /// Endpoints actually free.
        available: u32,
    },
    /// No application registered under the command name.
    UnknownCommand(String),
    /// `maxprocs` was 0: there is nothing to spawn.
    NoProcesses,
}

impl SpawnError {
    /// The error as the root broadcasts it: `[kind, name, requested,
    /// available]`, kind 0 being reserved for success.
    fn to_value(&self) -> Value {
        let (kind, name, requested, available) = match self {
            SpawnError::PoolExhausted {
                pool,
                requested,
                available,
            } => (1, pool.as_str(), *requested, *available),
            SpawnError::UnknownCommand(command) => (2, command.as_str(), 0, 0),
            SpawnError::NoProcesses => (3, "", 0, 0),
        };
        let name = Value::Bytes(Rc::new(name.as_bytes().to_vec()));
        let counts = [requested, available].map(|n| Value::U64(n.into()));
        Value::List(Rc::new(
            [Value::U64(kind), name].into_iter().chain(counts).collect(),
        ))
    }

    /// The inverse of [`SpawnError::to_value`].
    fn from_value(items: &[Value]) -> SpawnError {
        let Value::Bytes(name) = &items[1] else {
            panic!("spawn error without a name: {items:?}")
        };
        let name = String::from_utf8_lossy(name).into_owned();
        let count = |i: usize| items[i].as_u64() as u32;
        match items[0].as_u64() {
            1 => SpawnError::PoolExhausted {
                pool: name,
                requested: count(2),
                available: count(3),
            },
            2 => SpawnError::UnknownCommand(name),
            _ => SpawnError::NoProcesses,
        }
    }
}

/// Start an initial world (the `mpiexec` analogue): one rank process per
/// endpoint, named `{name}[{rank}]`, each running `f` with its
/// [`MpiCtx`]. A rank's result is its body's return value: once the
/// simulation has run, `handles[r].try_result()` yields rank `r`'s.
pub fn launch_world<T, Fut>(
    uni: &Rc<Universe>,
    name: &str,
    eps: Vec<EpId>,
    f: impl Fn(MpiCtx) -> Fut + 'static,
) -> Vec<ProcHandle<T>>
where
    Fut: Future<Output = T> + 'static,
    T: 'static,
{
    let context = uni.alloc_context();
    let members = Rc::new(eps);
    let mut handles = Vec::with_capacity(members.len());
    for rank in 0..members.len() as u32 {
        let ctx = MpiCtx::new(
            uni.clone(),
            members[rank as usize],
            Comm::intra(context, members.clone(), rank),
            None,
        );
        let fut = f(ctx);
        handles.push(uni.sim().spawn(format!("{name}[{rank}]"), fut));
    }
    handles
}

/// Recursive binomial fan-out of launch commands: `parent` starts
/// `targets[lo]`, which then forwards to the first half of the remaining
/// range while `parent` forwards to the second half.
fn fanout_launch(
    uni: Rc<Universe>,
    parent: EpId,
    targets: Rc<Vec<EpId>>,
    lo: usize,
    hi: usize,
    started: Rc<Cell<usize>>,
    all_started: OneShot<()>,
) -> LocalBoxFuture<'static, ()> {
    Box::pin(async move {
        if lo >= hi {
            return;
        }
        let head = targets[lo];
        // Control message travels the real fabric.
        uni.wire
            .transfer(parent, head, 256)
            .await
            .expect("launch control message failed");
        // The daemon forks/execs the process image.
        uni.sim().sleep(uni.params.spawn_per_proc).await;
        let n_started = started.get() + 1;
        started.set(n_started);
        if n_started == targets.len() {
            all_started.set(());
        }
        let mid = lo + 1 + (hi - lo - 1) / 2;
        // head forwards to (lo+1..mid); parent keeps (mid..hi).
        let sub = uni.sim().spawn(
            "spawn-fanout",
            fanout_launch(
                uni.clone(),
                head,
                targets.clone(),
                lo + 1,
                mid,
                started.clone(),
                all_started.clone(),
            ),
        );
        fanout_launch(uni, parent, targets, mid, hi, started, all_started).await;
        sub.await;
    })
}

impl MpiCtx {
    /// Collective `MPI_Comm_spawn`: start `maxprocs` instances of the
    /// registered application `command` on endpoints drawn from `pool`,
    /// returning the parent side of the inter-communicator.
    ///
    /// All members of `comm` must call; `root` performs the process-manager
    /// work and broadcasts the outcome (matching the real API, where the
    /// `command/argv/maxprocs/info` arguments are significant at root only).
    /// A failure is the root's error on every rank. `maxprocs = 0` fails
    /// with [`SpawnError::NoProcesses`] after the negotiation cost, before
    /// any endpoint is drawn or any daemon launched.
    pub async fn comm_spawn(
        &self,
        comm: &Comm,
        command: &str,
        maxprocs: u32,
        pool: &str,
        root: u32,
    ) -> Result<Comm, SpawnError> {
        // Broadcast the outcome: [0, inter_ctx, ep...] or the error.
        let payload = if comm.rank() == root {
            match self.spawn_at_root(comm, command, maxprocs, pool).await {
                Ok((ctx_id, eps)) => {
                    let mut items = vec![Value::U64(0), Value::U64(ctx_id)];
                    items.extend(eps.iter().map(|e| Value::U64(e.0 as u64)));
                    Value::List(Rc::new(items))
                }
                Err(e) => e.to_value(),
            }
        } else {
            Value::Unit // placeholder at non-root
        };
        let bytes = 16 + 8 * maxprocs as u64;
        let decided = self.bcast(comm, root, payload, bytes).await;

        let items = decided.as_list();
        if items[0].as_u64() != 0 {
            return Err(SpawnError::from_value(items));
        }
        let inter_ctx = items[1].as_u64();
        let children: Rc<Vec<EpId>> =
            Rc::new(items[2..].iter().map(|v| EpId(v.as_u64() as u32)).collect());
        Ok(Comm::inter(
            inter_ctx,
            comm.members().clone(),
            comm.rank(),
            children,
        ))
    }

    /// Root-side spawn work: allocate endpoints, launch daemons across the
    /// fabric, start child rank processes, return (inter context, eps).
    async fn spawn_at_root(
        &self,
        comm: &Comm,
        command: &str,
        maxprocs: u32,
        pool: &str,
    ) -> SpawnOutcome {
        let uni = self.universe().clone();
        // Fixed process-manager negotiation cost.
        self.sim().sleep(uni.params.spawn_base).await;

        let app = {
            let inner = uni.inner.borrow();
            match inner.registry.get(command) {
                Some(f) => f.clone(),
                None => return Err(SpawnError::UnknownCommand(command.to_string())),
            }
        };
        if maxprocs == 0 {
            return Err(SpawnError::NoProcesses);
        }
        let children: Rc<Vec<EpId>> = {
            let mut inner = uni.inner.borrow_mut();
            let free = inner.pools.entry(pool.to_string()).or_default();
            if (free.len() as u32) < maxprocs {
                let available = free.len() as u32;
                return Err(SpawnError::PoolExhausted {
                    pool: pool.to_string(),
                    requested: maxprocs,
                    available,
                });
            }
            Rc::new(free.drain(..maxprocs as usize).collect())
        };

        // Fan the launch commands out across the fabric.
        let started: OneShot<()> = OneShot::new(self.sim());
        let counter = Rc::new(Cell::new(0usize));
        let fan = self.sim().spawn(
            "spawn-fanout-root",
            fanout_launch(
                uni.clone(),
                self.ep(),
                children.clone(),
                0,
                children.len(),
                counter,
                started.clone(),
            ),
        );
        started.wait().await;
        fan.await;

        // Wire up the child world and the inter-communicator.
        let child_world_ctx = uni.alloc_context();
        let inter_ctx = uni.alloc_context();
        let parent_members = comm.members().clone();
        for (i, &ep) in children.iter().enumerate() {
            let child_world = Comm::intra(child_world_ctx, children.clone(), i as u32);
            let parent_inter = Comm::inter(
                inter_ctx,
                children.clone(),
                i as u32,
                parent_members.clone(),
            );
            let ctx = MpiCtx::new(uni.clone(), ep, child_world, Some(parent_inter));
            let fut = app(ctx);
            uni.sim().spawn(format!("{command}[{i}]"), fut);
        }
        // Children acknowledge startup to the root (modelled as one
        // aggregated control message from the first child).
        uni.wire
            .transfer(children[0], self.ep(), 128)
            .await
            .expect("spawn ack failed");
        Ok((inter_ctx, children))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::MpiParams;
    use crate::value::ReduceOp;
    use crate::wire::IdealWire;
    use deep_simkit::{Sim, SimDuration, Simulation};

    fn universe(sim: &Sim, n: usize) -> Rc<Universe> {
        let wire = Rc::new(IdealWire::new(sim, SimDuration::micros(1), 5e9));
        Universe::new(sim, wire, n, MpiParams::default())
    }

    #[test]
    fn spawned_children_get_their_own_world_and_parent_intercomm() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let uni = universe(&ctx, 12);
        // Endpoints 0..3 = parent "cluster", 4..11 = "booster" pool.
        uni.add_pool("booster", (4..12).map(EpId).collect());

        // Child program: allreduce ranks in the child world; rank 0 sends
        // the total and the world size to parent root over the intercomm.
        uni.register_app(
            "hscp",
            Rc::new(|m: MpiCtx| {
                Box::pin(async move {
                    let world = m.world().clone();
                    assert!(m.parent().is_some(), "child must see a parent");
                    let total = m
                        .allreduce(&world, ReduceOp::Sum, Value::U64(m.rank() as u64), 8)
                        .await;
                    if m.rank() == 0 {
                        let parent = m.parent().unwrap().clone();
                        m.send_val(
                            &parent,
                            0,
                            7,
                            Value::U64(total.as_u64() * 100 + m.size() as u64),
                        )
                        .await;
                    }
                })
            }),
        );

        let parent = |m: MpiCtx| async move {
            let world = m.world().clone();
            let inter = m
                .comm_spawn(&world, "hscp", 8, "booster", 0)
                .await
                .expect("spawn succeeds");
            assert_eq!(inter.remote_size(), 8);
            assert!(inter.is_inter());
            if m.rank() == 0 {
                let msg = m.recv(&inter, Some(0), Some(7)).await;
                // Sum of 0..8 = 28; size 8.
                assert_eq!(msg.value.as_u64(), 28 * 100 + 8);
            }
            m.barrier(&world).await;
        };
        let handles = launch_world(&uni, "cluster", (0..4).map(EpId).collect(), parent);
        sim.run().assert_completed();
        for h in handles {
            assert!(h.is_finished());
        }
        // The pool was drained.
        assert_eq!(uni.pool_available("booster"), 0);
    }

    /// Every rank's `comm_spawn` error from a `ranks`-wide world asking
    /// for `maxprocs` of `command` from a pool of 2 free endpoints; the
    /// pool must be whole again afterwards.
    fn spawn_errors(ranks: u32, command: &'static str, maxprocs: u32) -> Vec<SpawnError> {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let uni = universe(&ctx, ranks as usize + 2);
        uni.add_pool("booster", vec![EpId(ranks), EpId(ranks + 1)]);
        uni.register_app("hscp", Rc::new(|_m| Box::pin(async {})));
        let handles = launch_world(
            &uni,
            "cluster",
            (0..ranks).map(EpId).collect(),
            move |m| async move {
                let world = m.world().clone();
                m.comm_spawn(&world, command, maxprocs, "booster", 0)
                    .await
                    .unwrap_err()
            },
        );
        sim.run().assert_completed();
        // A failed spawn must not leak pool slots.
        assert_eq!(uni.pool_available("booster"), 2);
        handles.iter().map(|h| h.try_result().unwrap()).collect()
    }

    #[test]
    fn spawn_fails_cleanly_when_pool_exhausted() {
        let errs = spawn_errors(2, "hscp", 4);
        assert_eq!(
            errs[0],
            SpawnError::PoolExhausted {
                pool: "booster".into(),
                requested: 4,
                available: 2,
            }
        );
        assert!(errs.iter().all(|e| *e == errs[0]), "{errs:?}");
    }

    #[test]
    fn unknown_command_is_reported() {
        let errs = spawn_errors(2, "nope", 1);
        assert_eq!(errs, vec![SpawnError::UnknownCommand("nope".into()); 2]);
    }

    #[test]
    fn spawning_zero_processes_fails_on_every_rank() {
        assert_eq!(spawn_errors(3, "hscp", 0), vec![SpawnError::NoProcesses; 3]);
    }

    #[test]
    fn spawn_cost_grows_gently_with_process_count() {
        fn spawn_time(nchildren: u32) -> u64 {
            let mut sim = Simulation::new(1);
            let ctx = sim.handle();
            let uni = universe(&ctx, 2 + nchildren as usize);
            uni.add_pool("booster", (2..2 + nchildren).map(EpId).collect());
            uni.register_app("hscp", Rc::new(|_m| Box::pin(async {})));
            let handles = launch_world(&uni, "cluster", vec![EpId(0)], move |m| async move {
                let world = m.world().clone();
                let t0 = m.sim().now();
                m.comm_spawn(&world, "hscp", nchildren, "booster", 0)
                    .await
                    .unwrap();
                (m.sim().now() - t0).as_nanos()
            });
            sim.run().assert_completed();
            handles[0].try_result().expect("rank 0 finished")
        }

        let t16 = spawn_time(16);
        let t256 = spawn_time(256);
        assert!(t256 > t16, "more processes must cost more");
        // Binomial fan-out: 16x the processes should be far less than 16x
        // the time (the per-proc exec happens in parallel subtrees).
        assert!(
            t256 < t16 * 8,
            "fan-out must be sublinear: t16={t16} t256={t256}"
        );
    }

    #[test]
    fn launch_world_returns_each_rank_value_in_rank_order() {
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let uni = universe(&ctx, 5);
        let handles = launch_world(&uni, "w", (0..5).map(EpId).collect(), |m| async move {
            let world = m.world().clone();
            let total = m
                .allreduce(&world, ReduceOp::Sum, Value::U64(m.rank() as u64), 8)
                .await;
            assert_eq!(total.as_u64(), 10);
            m.rank() * 10
        });
        sim.run().assert_completed();
        let got: Vec<Option<u32>> = handles.iter().map(|h| h.try_result()).collect();
        assert_eq!(got, [0, 10, 20, 30, 40].map(Some));
    }
}
