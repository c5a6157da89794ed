//! 3-D torus topology with dimension-ordered routing — the EXTOLL booster
//! fabric (slide 16: "6 links for 3D torus topology").
//!
//! Every node owns six directed outgoing links (±x, ±y, ±z). Routing is
//! deterministic dimension-ordered (x, then y, then z), taking the shorter
//! wrap-around direction in each dimension (positive on ties), exactly the
//! deadlock-free scheme EXTOLL's router implements in hardware.

use deep_simkit::SimDuration;

use crate::topology::Topology;
use crate::types::{Hop, LinkId, LinkSpec, NodeId};

/// Directions of the six torus links, in `LinkId` sub-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TorusDir {
    /// +x
    XPlus = 0,
    /// −x
    XMinus = 1,
    /// +y
    YPlus = 2,
    /// −y
    YMinus = 3,
    /// +z
    ZPlus = 4,
    /// −z
    ZMinus = 5,
}

/// A 3-D torus over `dims.0 × dims.1 × dims.2` nodes.
pub struct Torus3D {
    dims: (u32, u32, u32),
    spec: LinkSpec,
}

impl Torus3D {
    /// Build a torus; every link has the same spec.
    pub fn new(dims: (u32, u32, u32), spec: LinkSpec) -> Self {
        assert!(dims.0 >= 1 && dims.1 >= 1 && dims.2 >= 1);
        Torus3D { dims, spec }
    }

    /// Torus dimensions.
    pub fn dims(&self) -> (u32, u32, u32) {
        self.dims
    }

    /// Coordinates of a node id.
    fn coords(&self, n: NodeId) -> (u32, u32, u32) {
        let (dx, dy, _) = self.dims;
        let x = n.0 % dx;
        let y = (n.0 / dx) % dy;
        let z = n.0 / (dx * dy);
        (x, y, z)
    }

    /// Node id of coordinates.
    fn node_at(&self, x: u32, y: u32, z: u32) -> NodeId {
        let (dx, dy, dz) = self.dims;
        assert!(x < dx && y < dy && z < dz);
        NodeId(x + dx * (y + dy * z))
    }

    /// The outgoing link of `n` in direction `dir`.
    #[cfg(test)]
    fn link_of(&self, n: NodeId, dir: TorusDir) -> LinkId {
        LinkId(n.0 * 6 + dir as u32)
    }

    /// Minimal hop distance on the torus (L1 with wrap-around).
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let (ax, ay, az) = self.coords(a);
        let (bx, by, bz) = self.coords(b);
        let d = |p, q, dim| Self::dim_steps(p, q, dim).1;
        d(ax, bx, self.dims.0) + d(ay, by, self.dims.1) + d(az, bz, self.dims.2)
    }

    /// Steps (direction, count) along one dimension: shorter way around,
    /// positive on ties.
    fn dim_steps(from: u32, to: u32, dim: u32) -> (bool, u32) {
        let fwd = (to + dim - from) % dim;
        let back = (from + dim - to) % dim;
        if fwd <= back {
            (true, fwd)
        } else {
            (false, back)
        }
    }
}

impl Topology for Torus3D {
    fn num_nodes(&self) -> usize {
        (self.dims.0 * self.dims.1 * self.dims.2) as usize
    }

    fn num_links(&self) -> usize {
        self.num_nodes() * 6
    }

    fn classes(&self) -> &[LinkSpec] {
        std::slice::from_ref(&self.spec)
    }

    /// The shorter way around a ring of `d` is at most `⌊d/2⌋` hops.
    fn diameter(&self) -> usize {
        let (dx, dy, dz) = self.dims;
        (dx / 2 + dy / 2 + dz / 2) as usize
    }

    fn hops(&self, src: NodeId, dst: NodeId, out: &mut [Hop]) -> usize {
        let ((x, y, z), to) = (self.coords(src), self.coords(dst));
        let (mut at, dims, mut n) = ([x, y, z], <[u32; 3]>::from(self.dims), 0);
        // x, then y, then z; direction `2·axis` is + and `2·axis + 1` −.
        for (axis, to) in <[u32; 3]>::from(to).into_iter().enumerate() {
            let (fwd, steps) = Self::dim_steps(at[axis], to, dims[axis]);
            let dir = 2 * axis as u32 + u32::from(!fwd);
            for _ in 0..steps {
                let cur = self.node_at(at[0], at[1], at[2]);
                out[n] = Hop::new(LinkId(cur.0 * 6 + dir), 0);
                n += 1;
                at[axis] = (at[axis] + if fwd { 1 } else { dims[axis] - 1 }) % dims[axis];
            }
        }
        debug_assert_eq!(at, <[u32; 3]>::from(to), "DOR must land on target");
        n
    }
}

/// Reasonable EXTOLL-era defaults: ~7 GB/s usable per link, 60 ns per hop.
pub fn extoll_link_spec() -> LinkSpec {
    LinkSpec {
        bandwidth_bps: 7.0e9,
        latency: SimDuration::nanos(60),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus(d: (u32, u32, u32)) -> Torus3D {
        Torus3D::new(d, extoll_link_spec())
    }

    #[test]
    fn coords_roundtrip() {
        let t = torus((4, 3, 2));
        for n in 0..t.num_nodes() as u32 {
            let (x, y, z) = t.coords(NodeId(n));
            assert_eq!(t.node_at(x, y, z), NodeId(n));
        }
    }

    #[test]
    fn route_length_equals_torus_distance() {
        let t = torus((4, 4, 4));
        let mut path = Vec::new();
        for a in 0..64u32 {
            for b in 0..64u32 {
                path.clear();
                t.route(NodeId(a), NodeId(b), &mut path);
                assert_eq!(
                    path.len() as u32,
                    t.distance(NodeId(a), NodeId(b)),
                    "route {a}->{b} must be minimal"
                );
            }
        }
    }

    #[test]
    fn wraparound_is_shorter() {
        let t = torus((8, 1, 1));
        // 0 -> 7 is one hop backwards, not seven forwards.
        assert_eq!(t.distance(NodeId(0), NodeId(7)), 1);
        let mut path = Vec::new();
        t.route(NodeId(0), NodeId(7), &mut path);
        assert_eq!(path.len(), 1);
        assert_eq!(path[0], t.link_of(NodeId(0), TorusDir::XMinus));
    }

    #[test]
    fn max_distance_is_half_each_dimension() {
        let t = torus((8, 8, 8));
        let mut max = 0;
        for n in 0..512u32 {
            max = max.max(t.distance(NodeId(0), NodeId(n)));
        }
        assert_eq!(max, 12, "8x8x8 torus diameter is 4+4+4");
    }

    #[test]
    fn six_links_per_node() {
        let t = torus((3, 3, 3));
        assert_eq!(t.num_links(), 27 * 6);
    }

    #[test]
    fn dor_paths_share_prefix_dimension_order() {
        let t = torus((4, 4, 1));
        let mut path = Vec::new();
        t.route(t.node_at(0, 0, 0), t.node_at(2, 2, 0), &mut path);
        // First the x hops, then the y hops.
        assert_eq!(path.len(), 4);
        assert_eq!(path[0], t.link_of(t.node_at(0, 0, 0), TorusDir::XPlus));
        assert_eq!(path[1], t.link_of(t.node_at(1, 0, 0), TorusDir::XPlus));
        assert_eq!(path[2], t.link_of(t.node_at(2, 0, 0), TorusDir::YPlus));
        assert_eq!(path[3], t.link_of(t.node_at(2, 1, 0), TorusDir::YPlus));
    }
}
