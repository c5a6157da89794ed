//! The [`Topology`] trait and a trivial crossbar implementation.
//!
//! A topology owns the static wiring of a fabric: how many endpoints and
//! directed links exist, their speeds, and the (deterministic) route taken
//! between any two endpoints.

use crate::types::{LinkId, LinkSpec, NodeId};

/// Static wiring of a fabric.
pub trait Topology {
    /// Number of endpoints.
    fn num_nodes(&self) -> usize;

    /// Specs of every directed link, indexed by `LinkId`.
    fn link_specs(&self) -> Vec<LinkSpec>;

    /// Append the directed links of the route `src → dst` to `out`.
    /// Must be empty iff `src == dst`. Deterministic.
    fn route(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>);
}

/// An ideal full crossbar: every ordered pair gets a dedicated link.
/// Useful as a contention-free reference in tests and ablations.
pub struct Crossbar {
    nodes: usize,
    spec: LinkSpec,
}

impl Crossbar {
    /// Build a crossbar over `nodes` endpoints with uniform link spec.
    pub fn new(nodes: usize, spec: LinkSpec) -> Self {
        assert!(nodes >= 1);
        Crossbar { nodes, spec }
    }
}

impl Topology for Crossbar {
    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn link_specs(&self) -> Vec<LinkSpec> {
        vec![self.spec; self.nodes * self.nodes]
    }

    fn route(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        if src == dst {
            return;
        }
        out.push(LinkId(src.0 * self.nodes as u32 + dst.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_simkit::SimDuration;

    #[test]
    fn crossbar_routes_are_single_hop_and_disjoint() {
        let xb = Crossbar::new(
            4,
            LinkSpec {
                bandwidth_bps: 1e9,
                latency: SimDuration::nanos(100),
            },
        );
        let mut seen = std::collections::BTreeSet::new();
        let mut path = Vec::new();
        for s in 0..4u32 {
            for d in 0..4u32 {
                path.clear();
                xb.route(NodeId(s), NodeId(d), &mut path);
                if s == d {
                    assert!(path.is_empty());
                } else {
                    assert_eq!(path.len(), 1);
                    assert!(seen.insert(path[0]), "links must be pair-unique");
                }
            }
        }
        assert_eq!(xb.link_specs().len(), 16);
    }
}
