//! Two-level fat-tree topology — the InfiniBand cluster fabric.
//!
//! `nodes_per_leaf` hosts hang off each leaf switch; every leaf connects
//! to every spine switch. With `spines >= nodes_per_leaf` the tree is
//! non-blocking (full bisection), the usual configuration for an HPC
//! cluster of the DEEP era. Spine selection is deterministic per
//! (src, dst) pair, spreading flows like static IB routing tables do.
//!
//! Link id layout (all directed):
//! * `2·h` — host `h` → its leaf (up)
//! * `2·h + 1` — leaf → host `h` (down)
//! * then from `2·hosts`, per (leaf l, spine s) pair: up and down links.

use deep_simkit::SimDuration;

use crate::topology::Topology;
use crate::types::{Hop, LinkId, LinkSpec, NodeId};

/// Link classes: host ↔ leaf links, then leaf ↔ spine trunks.
const HOST: u8 = 0;
const TRUNK: u8 = 1;

/// A two-level fat tree.
pub struct FatTree {
    hosts: u32,
    nodes_per_leaf: u32,
    leaves: u32,
    spines: u32,
    /// `[host, trunk]` specs, indexed by class.
    classes: [LinkSpec; 2],
}

impl FatTree {
    /// Build a fat tree over `hosts` endpoints.
    ///
    /// * `nodes_per_leaf` — hosts per leaf switch (last leaf may be partial)
    /// * `spines` — number of spine switches (≥ nodes_per_leaf ⇒ non-blocking)
    pub fn new(
        hosts: u32,
        nodes_per_leaf: u32,
        spines: u32,
        host_spec: LinkSpec,
        trunk_spec: LinkSpec,
    ) -> Self {
        assert!(hosts >= 1 && nodes_per_leaf >= 1 && spines >= 1);
        FatTree {
            hosts,
            nodes_per_leaf,
            leaves: hosts.div_ceil(nodes_per_leaf),
            spines,
            classes: [host_spec, trunk_spec],
        }
    }

    /// Leaf switch of a host.
    pub fn leaf_of(&self, h: NodeId) -> u32 {
        h.0 / self.nodes_per_leaf
    }

    fn host_up(&self, h: u32) -> Hop {
        Hop::new(LinkId(2 * h), HOST)
    }

    fn host_down(&self, h: u32) -> Hop {
        Hop::new(LinkId(2 * h + 1), HOST)
    }

    /// The up link of a (leaf, spine) pair; its down link is the next id.
    fn trunk_up(&self, leaf: u32, spine: u32) -> u32 {
        2 * self.hosts + 2 * (leaf * self.spines + spine)
    }

    /// Deterministic spine choice for a flow (static routing).
    fn spine_for(&self, src: NodeId, dst: NodeId) -> u32 {
        // Destination-based, like real IB LID routing: all flows to the
        // same destination share a spine, which creates the well-known
        // static-routing hot spots under adversarial patterns.
        (dst.0
            .wrapping_mul(2654435761)
            .wrapping_add(src.0 / self.nodes_per_leaf))
            % self.spines
    }
}

impl Topology for FatTree {
    fn num_nodes(&self) -> usize {
        self.hosts as usize
    }

    fn num_links(&self) -> usize {
        2 * (self.hosts + self.leaves * self.spines) as usize
    }

    fn classes(&self) -> &[LinkSpec] {
        &self.classes
    }

    fn diameter(&self) -> usize {
        4
    }

    #[inline]
    fn hops(&self, src: NodeId, dst: NodeId, out: &mut [Hop]) -> usize {
        if src == dst {
            return 0;
        }
        let out = &mut out[..4];
        let (ls, ld) = (self.leaf_of(src), self.leaf_of(dst));
        out[0] = self.host_up(src.0);
        if ls == ld {
            out[1] = self.host_down(dst.0);
            return 2;
        }
        let spine = self.spine_for(src, dst);
        out[1] = Hop::new(LinkId(self.trunk_up(ls, spine)), TRUNK);
        out[2] = Hop::new(LinkId(self.trunk_up(ld, spine) + 1), TRUNK);
        out[3] = self.host_down(dst.0);
        4
    }
}

/// InfiniBand FDR-era defaults: ~6.8 GB/s usable, ~170 ns per switch hop.
pub fn ib_fdr_host_spec() -> LinkSpec {
    LinkSpec {
        bandwidth_bps: 6.8e9,
        latency: SimDuration::nanos(170),
    }
}

/// Trunk links: same rate (non-blocking tree), slightly longer cables.
pub fn ib_fdr_trunk_spec() -> LinkSpec {
    LinkSpec {
        bandwidth_bps: 6.8e9,
        latency: SimDuration::nanos(220),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(hosts: u32) -> FatTree {
        FatTree::new(hosts, 4, 4, ib_fdr_host_spec(), ib_fdr_trunk_spec())
    }

    #[test]
    fn same_leaf_two_hops_cross_leaf_four() {
        let t = tree(16);
        let mut p = Vec::new();
        t.route(NodeId(0), NodeId(1), &mut p);
        assert_eq!(p.len(), 2, "same-leaf route is host-up + host-down");
        p.clear();
        t.route(NodeId(0), NodeId(15), &mut p);
        assert_eq!(p.len(), 4, "cross-leaf adds leaf-up + leaf-down");
    }

    /// Every route uses valid ids, and every id lies on some route: the
    /// layout holds no link that nothing can book. The partial-leaf tree
    /// has 2 spines: with 4, destination-based spine choice never sends
    /// traffic down spine 3 into the 2-host leaf.
    #[test]
    fn routes_are_valid_link_ids() {
        let partial = FatTree::new(10, 4, 2, ib_fdr_host_spec(), ib_fdr_trunk_spec());
        for t in [tree(16), partial] {
            let mut routed = vec![false; t.num_links()];
            let mut p = Vec::new();
            for a in 0..t.hosts {
                for b in 0..t.hosts {
                    p.clear();
                    t.route(NodeId(a), NodeId(b), &mut p);
                    // Indexing panics on an out-of-range id.
                    p.iter().for_each(|l| routed[l.0 as usize] = true);
                    assert_eq!(p.is_empty(), a == b);
                }
            }
            let unrouted = routed.iter().position(|&r| !r);
            assert_eq!(unrouted, None, "{} hosts: a link no route uses", t.hosts);
        }
    }

    #[test]
    fn distinct_destinations_use_multiple_spines() {
        let t = tree(32);
        let mut spines = std::collections::BTreeSet::new();
        for d in 4..32u32 {
            spines.insert(t.spine_for(NodeId(0), NodeId(d)));
        }
        assert!(spines.len() >= 3, "static routing should spread flows");
    }

    #[test]
    fn partial_last_leaf_is_fine() {
        let t = tree(10); // leaves = ceil(10/4) = 3
        let mut p = Vec::new();
        t.route(NodeId(9), NodeId(0), &mut p);
        assert_eq!(p.len(), 4);
    }
}
