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

// ---------------------------------------------------------------------------
// Topology analysis
// ---------------------------------------------------------------------------

/// Static graph metrics of a topology, computed from its routes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyStats {
    /// Longest shortest route, in hops.
    pub diameter: u32,
    /// Mean route length over all ordered pairs (excluding self-pairs).
    pub mean_distance: f64,
    /// Total directed links.
    pub links: usize,
    /// Endpoints.
    pub nodes: usize,
}

/// Compute [`TopologyStats`] by enumerating all ordered endpoint pairs.
/// Intended for analysis/benches (O(n²) route evaluations).
pub fn analyze(topo: &dyn Topology) -> TopologyStats {
    let n = topo.num_nodes();
    let mut path = Vec::new();
    let mut diameter = 0u32;
    let mut total = 0u64;
    let mut pairs = 0u64;
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            if a == b {
                continue;
            }
            path.clear();
            topo.route(NodeId(a), NodeId(b), &mut path);
            let hops = path.len() as u32;
            diameter = diameter.max(hops);
            total += hops as u64;
            pairs += 1;
        }
    }
    TopologyStats {
        diameter,
        mean_distance: if pairs > 0 {
            total as f64 / pairs as f64
        } else {
            0.0
        },
        links: topo.link_specs().len(),
        nodes: n,
    }
}

#[cfg(test)]
mod analysis_tests {
    use super::*;
    use crate::fattree::{ib_fdr_host_spec, ib_fdr_trunk_spec, FatTree};
    use crate::torus::{extoll_link_spec, Torus3D};

    #[test]
    fn crossbar_stats() {
        let xb = Crossbar::new(
            6,
            LinkSpec {
                bandwidth_bps: 1e9,
                latency: deep_simkit::SimDuration::nanos(10),
            },
        );
        let s = analyze(&xb);
        assert_eq!(s.diameter, 1);
        assert_eq!(s.mean_distance, 1.0);
        assert_eq!(s.nodes, 6);
    }

    #[test]
    fn torus_diameter_matches_theory() {
        // d-dimensional torus diameter = sum of floor(dim/2).
        let t = Torus3D::new((6, 4, 2), extoll_link_spec());
        let s = analyze(&t);
        assert_eq!(s.diameter, 3 + 2 + 1);
        assert_eq!(s.nodes, 48);
        assert_eq!(s.links, 48 * 6);
    }

    #[test]
    fn fattree_diameter_is_four() {
        let t = FatTree::new(32, 8, 8, ib_fdr_host_spec(), ib_fdr_trunk_spec());
        let s = analyze(&t);
        assert_eq!(s.diameter, 4);
        // Mean distance between 2 (same leaf) and 4 (cross leaf).
        assert!(s.mean_distance > 2.0 && s.mean_distance < 4.0);
    }

    #[test]
    fn torus_mean_distance_grows_with_size() {
        let small = analyze(&Torus3D::new((4, 4, 4), extoll_link_spec()));
        let large = analyze(&Torus3D::new((8, 8, 8), extoll_link_spec()));
        assert!(large.mean_distance > small.mean_distance);
        // Theory: mean per dimension of a k-torus is ~k/4.
        assert!((small.mean_distance - 3.0).abs() < 0.2);
    }
}
