//! Node and processor models.
//!
//! A [`NodeModel`] is a first-order analytic description of a compute node:
//! core count, clock, peak flops per cycle, memory bandwidth and power.
//! Kernel execution time follows the roofline model (see
//! [`crate::roofline`]): a kernel is either compute-bound or memory-bound.
//!
//! The presets encode the hardware the DEEP paper builds on — Intel Xeon
//! (Sandy Bridge) cluster nodes, Intel Xeon Phi "Knights Corner" booster
//! nodes, GPU-accelerated nodes for the conventional-accelerated-cluster
//! baseline, and the Blue Gene generations used by the paper's rationale
//! slide.

use crate::energy::PowerModel;

/// Which side of a DEEP machine a node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// General-purpose cluster node (fast cores, complex code).
    Cluster,
    /// Many-core booster node (slow cores, wide vectors, HSCP code).
    Booster,
    /// PCIe-attached accelerator card hosted by a cluster node.
    Accelerator,
}

/// A single core: clock and per-cycle floating-point throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreModel {
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Peak double-precision flops per cycle (vector width × FMA).
    pub flops_per_cycle: f64,
    /// Throughput derating for non-vectorizable scalar-ish code paths.
    pub scalar_fraction_of_peak: f64,
}

impl CoreModel {
    /// Peak DP flop/s of one core.
    pub fn peak_flops(&self) -> f64 {
        self.clock_hz * self.flops_per_cycle
    }
}

/// Analytic model of one compute node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeModel {
    /// Human-readable model name.
    pub name: String,
    /// Node class in the DEEP architecture.
    pub class: NodeClass,
    /// Number of cores.
    pub cores: u32,
    /// Per-core model.
    pub core: CoreModel,
    /// Sustainable memory bandwidth, bytes/second.
    pub mem_bw_bps: f64,
    /// Node memory capacity in bytes.
    pub mem_capacity: u64,
    /// Power model (idle/peak watts).
    pub power: PowerModel,
    /// Year of introduction (used by the generation experiments).
    pub year: u32,
}

impl NodeModel {
    /// Peak DP flop/s of the whole node.
    pub fn peak_flops(&self) -> f64 {
        self.core.peak_flops() * self.cores as f64
    }

    /// Peak energy efficiency in GFlop/s per watt at full load.
    pub fn peak_gflops_per_watt(&self) -> f64 {
        self.peak_flops() / 1e9 / self.power.peak_w
    }

    // -- Presets ----------------------------------------------------------

    /// DEEP cluster node: dual-socket Intel Xeon E5 (Sandy Bridge),
    /// 2 × 8 cores @ 2.7 GHz, 8 DP flops/cycle (AVX), ~345 GF peak,
    /// ~102 GB/s stream bandwidth, ~350 W under load → ≈ 1 GFlop/W.
    pub fn xeon_cluster_node() -> NodeModel {
        NodeModel {
            name: "Xeon E5-2680 node (2S)".into(),
            class: NodeClass::Cluster,
            cores: 16,
            core: CoreModel {
                clock_hz: 2.7e9,
                flops_per_cycle: 8.0,
                scalar_fraction_of_peak: 0.25,
            },
            mem_bw_bps: 102e9,
            mem_capacity: 64 << 30,
            power: PowerModel {
                idle_w: 120.0,
                peak_w: 350.0,
            },
            year: 2012,
        }
    }

    /// DEEP booster node: Intel Xeon Phi "Knights Corner",
    /// 60 cores @ 1.053 GHz, 16 DP flops/cycle (512-bit FMA),
    /// ≈ 1011 GF peak, ~170 GB/s GDDR5, ~200 W → ≈ 5 GFlop/W
    /// (the paper's slide-15 claim).
    pub fn xeon_phi_knc() -> NodeModel {
        NodeModel {
            name: "Xeon Phi KNC (booster node)".into(),
            class: NodeClass::Booster,
            cores: 60,
            core: CoreModel {
                clock_hz: 1.053e9,
                flops_per_cycle: 16.0,
                // In-order cores: scalar code runs far below peak.
                scalar_fraction_of_peak: 0.05,
            },
            mem_bw_bps: 170e9,
            mem_capacity: 8 << 30,
            power: PowerModel {
                idle_w: 95.0,
                peak_w: 200.0,
            },
            year: 2012,
        }
    }

    /// GPU accelerator card of the era (K20X-like) for the conventional
    /// accelerated-cluster baseline: 1.31 TF DP peak, 250 W, PCIe-attached.
    pub fn gpu_k20x() -> NodeModel {
        NodeModel {
            name: "GPU K20X (PCIe accelerator)".into(),
            class: NodeClass::Accelerator,
            cores: 14, // SMX count; flops folded into flops_per_cycle
            core: CoreModel {
                clock_hz: 0.732e9,
                flops_per_cycle: 128.0,
                scalar_fraction_of_peak: 0.02,
            },
            mem_bw_bps: 250e9,
            mem_capacity: 6 << 30,
            power: PowerModel {
                idle_w: 25.0,
                peak_w: 250.0,
            },
            year: 2012,
        }
    }

    /// Blue Gene/P node: 4 × PPC450 @ 850 MHz, 4 flops/cycle,
    /// 13.6 GF/node. System-level efficiency ≈ 0.36 GF/W.
    pub fn bluegene_p_node() -> NodeModel {
        NodeModel {
            name: "Blue Gene/P node".into(),
            class: NodeClass::Cluster,
            cores: 4,
            core: CoreModel {
                clock_hz: 0.85e9,
                flops_per_cycle: 4.0,
                // In-order PPC450: poor on scalar, branchy code.
                scalar_fraction_of_peak: 0.15,
            },
            mem_bw_bps: 13.6e9,
            mem_capacity: 2 << 30,
            power: PowerModel {
                idle_w: 16.0,
                peak_w: 38.0,
            },
            year: 2007,
        }
    }

    /// Blue Gene/Q node: 16 × A2 @ 1.6 GHz, 8 flops/cycle, 204.8 GF/node,
    /// ≈ 2.1 GF/W under load — the "factor 20 at the same energy envelope"
    /// the paper's rationale slide cites.
    pub fn bluegene_q_node() -> NodeModel {
        NodeModel {
            name: "Blue Gene/Q node".into(),
            class: NodeClass::Cluster,
            cores: 16,
            core: CoreModel {
                clock_hz: 1.6e9,
                flops_per_cycle: 8.0,
                // In-order A2 core: needs 4-way SMT to fill pipelines;
                // single-stream scalar code sees ~10 % of peak.
                scalar_fraction_of_peak: 0.10,
            },
            mem_bw_bps: 42.6e9,
            mem_capacity: 16 << 30,
            power: PowerModel {
                idle_w: 40.0,
                peak_w: 95.0,
            },
            year: 2011,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knc_hits_paper_efficiency_claim() {
        let knc = NodeModel::xeon_phi_knc();
        let eff = knc.peak_gflops_per_watt();
        // Slide 15: "Energy efficient: 5 GFlop/W".
        assert!(
            (eff - 5.0).abs() < 0.3,
            "KNC efficiency {eff:.2} GF/W should be ≈5"
        );
        // Peak around 1 TF.
        assert!((knc.peak_flops() / 1e12 - 1.0).abs() < 0.05);
    }

    #[test]
    fn xeon_node_is_about_one_gflop_per_watt() {
        let xeon = NodeModel::xeon_cluster_node();
        let eff = xeon.peak_gflops_per_watt();
        assert!(
            (0.8..=1.2).contains(&eff),
            "Xeon efficiency {eff:.2} GF/W should be ≈1"
        );
    }

    #[test]
    fn booster_vs_cluster_efficiency_factor_about_five() {
        let ratio = NodeModel::xeon_phi_knc().peak_gflops_per_watt()
            / NodeModel::xeon_cluster_node().peak_gflops_per_watt();
        assert!(
            (4.0..=6.5).contains(&ratio),
            "efficiency ratio {ratio:.2} should be ≈5"
        );
    }

    #[test]
    fn bluegene_generation_step() {
        // Per-node speedup P→Q.
        let p = NodeModel::bluegene_p_node();
        let q = NodeModel::bluegene_q_node();
        let node_ratio = q.peak_flops() / p.peak_flops();
        assert!(node_ratio > 14.0, "BG/Q node is ~15x a BG/P node");
        // Efficiency improves by roughly the same factor at similar power.
        let power_ratio = q.power.peak_w / p.power.peak_w;
        assert!(power_ratio < 3.0, "per-node power grows far slower");
    }
}
