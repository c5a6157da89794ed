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

use deep_fabric::{
    pcie, EndpointOverhead, ExtollFabric, IbFabric, LinkFailure, Network, NodeId, PcieBus,
    TransferStats,
};
use deep_psmpi::LocalBoxFuture;
use deep_simkit::{SimDuration, Simulation};

/// One uncontended transfer over a freshly built fabric; elapsed seconds.
pub fn probe_fabric(fabric: &str, bytes: u64) -> f64 {
    let mut sim = Simulation::new(1);
    let ctx = sim.handle();
    let extoll = || Rc::new(ExtollFabric::new(&ctx, (4, 4, 4)));
    // Host to device 0 over PCIe with the given software overheads.
    let pcie = |send, recv| -> LocalBoxFuture<'static, Transfer> {
        let net = Rc::new(Network::new(
            &ctx,
            PcieBus::new(1, pcie::root_complex_spec(), pcie::pcie2_x16_spec()),
            4096,
            1,
        ));
        let overhead = EndpointOverhead { send, recv };
        Box::pin(async move {
            net.transfer(PcieBus::host(), PcieBus::device(0), bytes, overhead)
                .await
        })
    };
    let transfer: LocalBoxFuture<'static, Transfer> = match fabric {
        "extoll" => {
            let f = extoll();
            Box::pin(async move { f.send_auto(NodeId(0), NodeId(1), bytes).await })
        }
        "extoll-velo" => {
            let f = extoll();
            Box::pin(async move { f.velo_send(NodeId(0), NodeId(1), bytes).await })
        }
        "extoll-rma" => {
            let f = extoll();
            Box::pin(async move { f.rma_put(NodeId(0), NodeId(1), bytes).await })
        }
        "ib" => {
            let f = Rc::new(IbFabric::new(&ctx, 16));
            Box::pin(async move { f.send(NodeId(0), NodeId(8), bytes).await })
        }
        // Bare DMA (doorbell-only software path).
        "pcie-dma" => pcie(SimDuration::nanos(300), SimDuration::nanos(100)),
        // Full driver path (cudaMemcpy-era overhead).
        "pcie-driver" => pcie(SimDuration::micros(5), SimDuration::micros(1)),
        other => panic!("unknown fabric {other}"),
    };
    let h = sim.spawn("probe", async move {
        transfer.await.unwrap().elapsed.as_secs_f64()
    });
    sim.run().assert_completed();
    h.try_result().expect("probe finished")
}

type Transfer = Result<TransferStats, LinkFailure>;

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
