//! Static storage-hierarchy configuration.

use crate::device::DeviceSpec;
use crate::pfs::PfsConfig;
use crate::sion::FileLayerParams;

/// The storage side of a DEEP machine: per-node NVM, the shared PFS, and
/// the file-layer tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// Node-local NVM on every booster node.
    pub local: DeviceSpec,
    /// Shared parallel file system behind the cluster fabric.
    pub pfs: PfsConfig,
    /// SIONlib-style file-layer parameters.
    pub file_layer: FileLayerParams,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            local: DeviceSpec::nvm(),
            pfs: PfsConfig::default(),
            file_layer: FileLayerParams::default(),
        }
    }
}
