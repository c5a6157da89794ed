//! Property-based tests of the interconnect models.

use std::rc::Rc;

use deep_fabric::{
    fattree::{ib_fdr_host_spec, ib_fdr_trunk_spec},
    torus::extoll_link_spec,
    EndpointOverhead, FatTree, LinkSpec, Network, NodeId, Topology, Torus3D,
};
use deep_simkit::{SimDuration, Simulation};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DOR routes always have exactly the torus distance in hops, use
    /// valid link ids, and start/end at the right nodes.
    #[test]
    fn torus_routes_are_minimal_and_valid(
        dx in 1u32..7, dy in 1u32..7, dz in 1u32..7,
        a in 0u32..294, b in 0u32..294,
    ) {
        let t = Torus3D::new((dx, dy, dz), extoll_link_spec());
        let n = t.num_nodes() as u32;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        let mut path = Vec::new();
        t.route(a, b, &mut path);
        prop_assert_eq!(path.len() as u32, t.distance(a, b));
        let n_links = t.num_links() as u32;
        for l in &path {
            prop_assert!(l.0 < n_links);
        }
        // Walk the path: every link belongs to the node we are at.
        // Link layout is node*6+dir, so integer-divide to recover the node.
        if !path.is_empty() {
            prop_assert_eq!(path[0].0 / 6, a.0, "path starts at src");
        }
    }

    /// Torus distance is a metric: symmetric, zero iff equal, triangle.
    #[test]
    fn torus_distance_is_a_metric(
        dx in 1u32..6, dy in 1u32..6, dz in 1u32..6,
        x in 0u32..216, y in 0u32..216, z in 0u32..216,
    ) {
        let t = Torus3D::new((dx, dy, dz), extoll_link_spec());
        let n = t.num_nodes() as u32;
        let (x, y, z) = (NodeId(x % n), NodeId(y % n), NodeId(z % n));
        prop_assert_eq!(t.distance(x, y), t.distance(y, x));
        prop_assert_eq!(t.distance(x, x), 0);
        prop_assert!(t.distance(x, z) <= t.distance(x, y) + t.distance(y, z));
    }

    /// Fat-tree routes are 2 hops within a leaf, 4 across, all links valid.
    #[test]
    fn fattree_routes_valid(
        hosts in 2u32..100,
        radix in 1u32..12,
        a in 0u32..100, b in 0u32..100,
    ) {
        let t = FatTree::new(hosts, radix, radix, ib_fdr_host_spec(), ib_fdr_trunk_spec());
        let (a, b) = (NodeId(a % hosts), NodeId(b % hosts));
        let mut path = Vec::new();
        t.route(a, b, &mut path);
        if a == b {
            prop_assert!(path.is_empty());
        } else if t.leaf_of(a) == t.leaf_of(b) {
            prop_assert_eq!(path.len(), 2);
        } else {
            prop_assert_eq!(path.len(), 4);
        }
        let n_links = t.num_links() as u32;
        for l in &path {
            prop_assert!(l.0 < n_links);
        }
    }

    /// A transfer can never beat physics: elapsed ≥ serialization at the
    /// slowest link + total hop latency.
    #[test]
    fn transfer_time_lower_bound(
        bytes in 1u64..(64 << 20),
        bw_mbps in 100u64..20_000,
        lat_ns in 0u64..5_000,
    ) {
        let spec = LinkSpec {
            bandwidth_bps: bw_mbps as f64 * 1e6,
            latency: SimDuration::nanos(lat_ns),
        };
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let net = Rc::new(Network::new(
            &ctx,
            deep_fabric::Crossbar::new(2, spec),
            4096,
            1,
        ));
        let h = sim.spawn("x", async move {
            net.transfer(NodeId(0), NodeId(1), bytes, EndpointOverhead::default())
                .await
                .unwrap()
                .elapsed
        });
        sim.run().assert_completed();
        let elapsed = h.try_result().unwrap();
        let floor = spec.serialization(bytes) + spec.latency;
        prop_assert!(
            elapsed >= floor,
            "elapsed {} below physical floor {}", elapsed, floor
        );
        // And within a rounding error of it when uncontended.
        prop_assert!(elapsed.as_nanos() <= floor.as_nanos() + 2);
    }

    /// Concurrent transfers on one link serialize: total busy time equals
    /// the sum of serializations, and the last completion is at least
    /// that long after the start.
    #[test]
    fn shared_link_conserves_bandwidth(sizes in prop::collection::vec(1u64..(1 << 20), 1..10)) {
        let spec = LinkSpec {
            bandwidth_bps: 1e9,
            latency: SimDuration::nanos(0),
        };
        let mut sim = Simulation::new(1);
        let ctx = sim.handle();
        let net = Rc::new(Network::new(
            &ctx,
            deep_fabric::Crossbar::new(2, spec),
            u64::MAX, // no segmentation: exact serialization accounting
            1,
        ));
        for (i, &s) in sizes.iter().enumerate() {
            let net = net.clone();
            sim.spawn(format!("x{i}"), async move {
                net.transfer(NodeId(0), NodeId(1), s, EndpointOverhead::default())
                    .await
                    .unwrap();
            });
        }
        sim.run().assert_completed();
        let total: u64 = sizes.iter().sum();
        let expect = SimDuration::from_secs_f64(total as f64 / 1e9);
        let end = sim.now();
        // All transfers start at t=0 and share one link: completion time
        // equals the summed serialization (within per-message rounding).
        prop_assert!(end.as_nanos() + 2 * sizes.len() as u64 >= expect.as_nanos());
        prop_assert!(end.as_nanos() <= expect.as_nanos() + 2 * sizes.len() as u64);
    }
}
