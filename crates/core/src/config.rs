//! Machine configurations and presets.

use deep_hw::NodeModel;
use deep_io::StorageConfig;
use deep_psmpi::MpiParams;

/// Configuration of a DEEP cluster-booster machine.
#[derive(Debug, Clone)]
pub struct DeepConfig {
    /// Cluster nodes (InfiniBand hosts).
    pub n_cluster: u32,
    /// Booster torus dimensions (EXTOLL).
    pub booster_dims: (u32, u32, u32),
    /// Booster-interface node count.
    pub n_bi: u32,
    /// Cluster node hardware.
    pub cluster_node: NodeModel,
    /// Booster node hardware.
    pub booster_node: NodeModel,
    /// MPI protocol parameters.
    pub mpi: MpiParams,
    /// Per-segment CRC-error probability injected on every EXTOLL link
    /// (0.0 = clean links). Retransmission is handled by the fabric's
    /// link-level retry (slide 16 RAS).
    pub booster_link_error_rate: f64,
    /// Storage hierarchy (DEEP-ER): node-local NVM, the shared PFS behind
    /// the cluster fabric, and the file-layer tunables.
    pub storage: StorageConfig,
}

impl DeepConfig {
    /// Total booster nodes.
    pub fn n_booster(&self) -> u32 {
        self.booster_dims.0 * self.booster_dims.1 * self.booster_dims.2
    }

    /// The DEEP prototype described in the paper's project slides:
    /// 128 Xeon cluster nodes, a 512-node KNC booster on an 8×8×8 EXTOLL
    /// torus, 8 booster interfaces.
    pub fn prototype() -> DeepConfig {
        DeepConfig {
            n_cluster: 128,
            booster_dims: (8, 8, 8),
            n_bi: 8,
            cluster_node: NodeModel::xeon_cluster_node(),
            booster_node: NodeModel::xeon_phi_knc(),
            mpi: MpiParams::default(),
            booster_link_error_rate: 0.0,
            storage: StorageConfig::default(),
        }
    }

    /// A laptop-friendly configuration for tests and examples:
    /// 4 cluster nodes, a 2×2×2 booster, 2 BIs.
    pub fn small() -> DeepConfig {
        DeepConfig {
            n_cluster: 4,
            booster_dims: (2, 2, 2),
            n_bi: 2,
            cluster_node: NodeModel::xeon_cluster_node(),
            booster_node: NodeModel::xeon_phi_knc(),
            mpi: MpiParams::default(),
            booster_link_error_rate: 0.0,
            storage: StorageConfig::default(),
        }
    }

    /// A mid-size configuration: 16 cluster nodes, 4×4×4 booster, 4 BIs.
    pub fn medium() -> DeepConfig {
        DeepConfig {
            n_cluster: 16,
            booster_dims: (4, 4, 4),
            n_bi: 4,
            cluster_node: NodeModel::xeon_cluster_node(),
            booster_node: NodeModel::xeon_phi_knc(),
            mpi: MpiParams::default(),
            booster_link_error_rate: 0.0,
            storage: StorageConfig::default(),
        }
    }

    /// Aggregate peak flops of the whole machine.
    pub fn peak_flops(&self) -> f64 {
        self.n_cluster as f64 * self.cluster_node.peak_flops()
            + self.n_booster() as f64 * self.booster_node.peak_flops()
    }

    /// Aggregate peak power draw in watts.
    pub fn peak_power_w(&self) -> f64 {
        self.n_cluster as f64 * self.cluster_node.power.peak_w
            + self.n_booster() as f64 * self.booster_node.power.peak_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_paper_scale() {
        let c = DeepConfig::prototype();
        assert_eq!(c.n_booster(), 512);
        // ~500 TF booster + ~44 TF cluster ≈ 0.55 PF peak.
        let pf = c.peak_flops() / 1e15;
        assert!((0.4..0.7).contains(&pf), "peak {pf} PF");
        // Booster dominates the flops (that's the point).
        let booster_share = c.n_booster() as f64 * c.booster_node.peak_flops() / c.peak_flops();
        assert!(booster_share > 0.85);
    }
}
