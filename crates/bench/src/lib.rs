//! # deep-bench — the experiment registry and the measurement helpers
//! its experiments share.
//!
//! Each module under [`experiments`] regenerates one figure /
//! quantitative claim of the paper (see DESIGN.md's experiment index)
//! and renders a Markdown table plus a short interpretation;
//! `run_experiments --only <id>` prints it. Nothing here depends on
//! wall-clock time: every number is virtual time out of the
//! deterministic simulator, so reruns reproduce the tables bit-for-bit.

pub mod des_scaling;
pub mod experiments;
pub mod sweep;

use std::rc::Rc;

use deep_fabric::{pcie, EndpointOverhead, ExtollFabric, IbFabric, Network, NodeId, PcieBus};
use deep_simkit::{Sim, SimDuration, Simulation};

/// One uncontended transfer over a freshly built fabric; elapsed seconds.
pub fn probe_fabric(fabric: &str, bytes: u64) -> f64 {
    let mut sim = Simulation::new(1);
    let ctx = sim.handle();
    match fabric {
        "extoll" => {
            let f = Rc::new(ExtollFabric::new(&ctx, (4, 4, 4)));
            run_probe(&mut sim, async move {
                f.send_auto(NodeId(0), NodeId(1), bytes)
                    .await
                    .unwrap()
                    .elapsed
                    .as_secs_f64()
            })
        }
        "extoll-velo" => {
            let f = Rc::new(ExtollFabric::new(&ctx, (4, 4, 4)));
            run_probe(&mut sim, async move {
                f.velo_send(NodeId(0), NodeId(1), bytes)
                    .await
                    .unwrap()
                    .elapsed
                    .as_secs_f64()
            })
        }
        "extoll-rma" => {
            let f = Rc::new(ExtollFabric::new(&ctx, (4, 4, 4)));
            run_probe(&mut sim, async move {
                f.rma_put(NodeId(0), NodeId(1), bytes)
                    .await
                    .unwrap()
                    .elapsed
                    .as_secs_f64()
            })
        }
        "ib" => {
            let f = Rc::new(IbFabric::new(&ctx, 16));
            run_probe(&mut sim, async move {
                f.send(NodeId(0), NodeId(8), bytes)
                    .await
                    .unwrap()
                    .elapsed
                    .as_secs_f64()
            })
        }
        "pcie-dma" => {
            // Bare DMA (doorbell-only software path).
            let net = pcie_net(&ctx);
            run_probe(&mut sim, async move {
                net.transfer(
                    PcieBus::host(),
                    PcieBus::device(0),
                    bytes,
                    EndpointOverhead {
                        send: SimDuration::nanos(300),
                        recv: SimDuration::nanos(100),
                    },
                )
                .await
                .unwrap()
                .elapsed
                .as_secs_f64()
            })
        }
        "pcie-driver" => {
            // Full driver path (cudaMemcpy-era overhead).
            let net = pcie_net(&ctx);
            run_probe(&mut sim, async move {
                net.transfer(
                    PcieBus::host(),
                    PcieBus::device(0),
                    bytes,
                    EndpointOverhead {
                        send: SimDuration::micros(5),
                        recv: SimDuration::micros(1),
                    },
                )
                .await
                .unwrap()
                .elapsed
                .as_secs_f64()
            })
        }
        other => panic!("unknown fabric {other}"),
    }
}

fn pcie_net(ctx: &Sim) -> Rc<Network> {
    Rc::new(Network::new(
        ctx,
        PcieBus::new(1, pcie::root_complex_spec(), pcie::pcie2_x16_spec()),
        4096,
        1,
    ))
}

fn run_probe(sim: &mut Simulation, fut: impl std::future::Future<Output = f64> + 'static) -> f64 {
    let h = sim.spawn("probe", fut);
    sim.run().assert_completed();
    h.try_result().expect("probe finished")
}

/// Pretty size label.
pub fn size_label(bytes: u64) -> String {
    if bytes < 1 << 10 {
        format!("{bytes} B")
    } else if bytes < 1 << 20 {
        format!("{} KiB", bytes >> 10)
    } else {
        format!("{} MiB", bytes >> 20)
    }
}
