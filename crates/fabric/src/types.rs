//! Common identifier and descriptor types for fabric models.

use deep_simkit::SimDuration;
use std::fmt;

/// Index of an endpoint (node) within one fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a directed link within one fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// One hop of a route: a directed link and its class, the index of the
/// link's spec in [`crate::Topology::classes`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hop {
    /// The link crossed.
    pub link: LinkId,
    /// Which of the topology's distinct specs the link has.
    pub class: u8,
}

impl Hop {
    /// A hop over `link`, a link of class `class`.
    pub const fn new(link: LinkId, class: u8) -> Hop {
        Hop { link, class }
    }
}

/// Static description of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Usable bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Per-hop latency (propagation + router/switch pipeline).
    pub latency: SimDuration,
}

impl LinkSpec {
    /// Serialization time of `bytes` on this link.
    pub fn serialization(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }
}

/// Per-message cost added at the endpoints (software/NIC overheads).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EndpointOverhead {
    /// Sender-side overhead before the first byte enters the fabric.
    pub send: SimDuration,
    /// Receiver-side overhead after the last byte arrives.
    pub recv: SimDuration,
}

/// Outcome of a completed transfer, for metrics and assertions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferStats {
    /// End-to-end time including endpoint overheads.
    pub elapsed: SimDuration,
    /// Number of directed links traversed.
    pub hops: u32,
    /// Bytes carried (payload as requested).
    pub bytes: u64,
    /// Retransmissions suffered due to injected link errors.
    pub retransmissions: u32,
}

impl TransferStats {
    /// Achieved payload bandwidth in bytes/second.
    pub fn goodput_bps(&self) -> f64 {
        if self.elapsed == SimDuration::ZERO {
            return f64::INFINITY;
        }
        self.bytes as f64 / self.elapsed.as_secs_f64()
    }
}
