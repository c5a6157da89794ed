//! The [`Topology`] trait and a trivial crossbar implementation.
//!
//! A topology owns the static wiring of a fabric: how many endpoints and
//! directed links exist, their speeds, and the (deterministic) route taken
//! between any two endpoints.

use crate::types::{Hop, LinkId, LinkSpec, NodeId};

/// Static wiring of a fabric.
pub trait Topology {
    /// Number of endpoints.
    fn num_nodes(&self) -> usize;

    /// Number of directed links; every `LinkId` a route crosses is below it.
    fn num_links(&self) -> usize;

    /// The distinct link specs, in class order: a [`Hop`]'s `class`
    /// indexes this, and a link has the same class on every route.
    fn classes(&self) -> &[LinkSpec];

    /// The most hops any route takes.
    fn diameter(&self) -> usize;

    /// Write the route `src → dst` into `out[..n]` and return `n`: 0 iff
    /// `src == dst`, never more than [`Topology::diameter`], which is
    /// the least length `out` may have. Deterministic.
    fn hops(&self, src: NodeId, dst: NodeId, out: &mut [Hop]) -> usize;

    /// Append the directed links of the route `src → dst` to `out`.
    fn route(&self, src: NodeId, dst: NodeId, out: &mut Vec<LinkId>) {
        // Tree routes fit on the stack; a large torus's may not.
        let (mut stack, mut heap) = ([Hop::default(); 8], Vec::new());
        let buf = if self.diameter() <= stack.len() {
            &mut stack[..]
        } else {
            heap.resize(self.diameter(), Hop::default());
            &mut heap[..]
        };
        let n = self.hops(src, dst, buf);
        out.extend(buf[..n].iter().map(|h| h.link));
    }
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

    fn num_links(&self) -> usize {
        self.nodes * self.nodes
    }

    fn classes(&self) -> &[LinkSpec] {
        std::slice::from_ref(&self.spec)
    }

    fn diameter(&self) -> usize {
        1
    }

    fn hops(&self, src: NodeId, dst: NodeId, out: &mut [Hop]) -> usize {
        if src == dst {
            return 0;
        }
        out[0] = Hop::new(LinkId(src.0 * self.nodes as u32 + dst.0), 0);
        1
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
        assert_eq!(xb.num_links(), 16);
    }
}
