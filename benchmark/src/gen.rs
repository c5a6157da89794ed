//! Seeded request generator for `serve_mix`.
//!
//! The daemon's behaviour depends on how much work submissions share
//! (the result cache) and on what a cold job costs, so both are fixed
//! by construction and only the *order* and the cost-neutral parameters
//! come from the seed: every chunk holds the same number of hot-set
//! repeats and the same multiset of cold job shapes. Ten seeds then
//! measure ten samples of one workload, not ten workloads.

use deep_simkit::SimRng;

/// Specs primed into the cache during set-up and repeated afterwards.
pub const HOT_SET: usize = 16;
/// Requests one client sends per chunk (half repeats, half cold).
pub const CHUNK: usize = 64;

/// One request of a client's sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The `POST /jobs` body.
    pub body: String,
    /// Index into the hot set when this is a repeat, `None` when cold.
    pub hot: Option<usize>,
}

/// The shapes a cold job can take; `SHAPES` is one chunk's multiset.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Explicit resilience sweep of this many points.
    Sweep(usize),
    /// `scalability` scenario at this rank count.
    Scalability(u32),
    /// Trace-replay scenario of this many jobs.
    TraceReplay(u32),
}

const SHAPES: [Shape; CHUNK / 2] = {
    use Shape::{Scalability as Sc, Sweep as Sw, TraceReplay as Tr};
    [
        Sw(8),
        Sw(12),
        Sw(16),
        Sw(20),
        Sw(24),
        Sw(28),
        Sw(32),
        Sw(8),
        Sw(12),
        Sw(16),
        Sw(20),
        Sw(24),
        Sw(28),
        Sw(32),
        Sw(16),
        Sw(24),
        Sc(1024),
        Sc(2048),
        Sc(4096),
        Sc(8192),
        Sc(16384),
        Sc(1024),
        Sc(4096),
        Sc(16384),
        Tr(120),
        Tr(160),
        Tr(200),
        Tr(240),
        Tr(120),
        Tr(160),
        Tr(200),
        Tr(240),
    ]
};

/// A job body of the given shape. `seed` and `uid` make the spec — and
/// so its cache digest — unique; they only enter cost-neutral fields:
/// the checkpoint interval's low digits, scenario names, and the seed of
/// the scalability skeleton, which draws no randomness. The Monte-Carlo
/// and trace-replay seeds stay fixed: they decide how many failures and
/// jobs are simulated, which is cost.
fn body(client: &str, shape: Shape, seed: u64, uid: u64) -> String {
    match shape {
        Shape::Sweep(points) => {
            let points: Vec<String> = (0..points)
                .map(|i| {
                    format!(
                        "{{\"work_s\":200000,\"n_nodes\":{},\"mtbf_node_s\":157680000,\
                         \"checkpoint_s\":60,\"restart_s\":120,\"interval_s\":{}}}",
                        50_000 + 10_000 * i,
                        400.0 + uid as f64 * 1e-6 + (seed % 1000) as f64 * 1e-9
                    )
                })
                .collect();
            format!(
                "{{\"client\":\"{client}\",\"sweep\":{{\"seed\":7,\"replicas\":128,\"points\":[{}]}}}}",
                points.join(",")
            )
        }
        Shape::Scalability(ranks) => scenario_body(
            client,
            &format!(
                "[scenario]\nname = \"scal-{seed}-{uid}\"\nseed = {seed}\n\n[machine]\npreset = \"prototype\"\n\n\
                 [app]\nskeleton = \"scalability\"\niters = 4\ncomplex = false\n\n\
                 [[sweep.axes]]\nparam = \"ranks\"\nvalues = [{ranks}]\n"
            ),
        ),
        Shape::TraceReplay(jobs) => scenario_body(
            client,
            &format!(
                "[scenario]\nname = \"trace-{seed}-{uid}\"\nseed = 7\n\n[machine]\npreset = \"small\"\n\n\
                 [trace]\njobs = {jobs}\nmean_interarrival_s = 20.0\nmean_cn_time_s = 60.0\n\
                 mean_bn_time_s = 40.0\nsample_every_s = 30.0\n"
            ),
        ),
    }
}

/// Wrap a TOML scenario as the daemon's `{"scenario": <JSON image>}`.
fn scenario_body(client: &str, toml: &str) -> String {
    let doc = deep_scenario::parse_toml(toml).expect("generated scenario TOML parses");
    format!("{{\"client\":\"{client}\",\"scenario\":{}}}", doc.to_json())
}

/// The hot set of a seed: a fixed mix of the three job kinds.
pub fn hot_set(seed: u64) -> Vec<String> {
    (0..HOT_SET)
        .map(|k| {
            // Every other cold shape, so all three kinds are present.
            let shape = SHAPES[(2 * k) % SHAPES.len()];
            body("prime", shape, seed, k as u64)
        })
        .collect()
}

/// A spec id unique per (chunk, client, position) and distinct from
/// the hot set's (`0..HOT_SET`).
fn uid(chunk: u32, client: u32, i: usize) -> u64 {
    (u64::from(chunk) + 1) * 10_000 + u64::from(client) * 1000 + i as u64
}

/// The `chunk`-th request list of `client`: exactly half repeats — each
/// hot spec equally often — and half cold jobs of the fixed shapes, in
/// seeded order.
pub fn chunk(seed: u64, chunk: u32, client: u32, hot: &[String]) -> Vec<Request> {
    let mut rng = SimRng::from_seed_stream(seed, (u64::from(chunk) << 8) | u64::from(client));
    let name = format!("c{client}");
    let mut requests: Vec<Request> = SHAPES
        .iter()
        .enumerate()
        .map(|(i, &shape)| Request {
            body: body(&name, shape, seed, uid(chunk, client, i)),
            hot: None,
        })
        .collect();
    for i in 0..CHUNK / 2 {
        let k = i % hot.len();
        requests.push(Request {
            body: hot[k].clone(),
            hot: Some(k),
        });
    }
    rng.shuffle(&mut requests);
    requests
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_bytes() {
        let hot = hot_set(5);
        assert_eq!(hot, hot_set(5));
        assert_eq!(chunk(5, 3, 1, &hot), chunk(5, 3, 1, &hot));
    }

    #[test]
    fn another_seed_gives_other_cold_specs_and_order() {
        let (a, b) = (hot_set(5), hot_set(6));
        assert_ne!(a, b);
        let (ca, cb) = (chunk(5, 0, 0, &a), chunk(6, 0, 0, &b));
        let cold = |c: &[Request]| -> Vec<String> {
            let mut v: Vec<String> = c
                .iter()
                .filter(|r| r.hot.is_none())
                .map(|r| r.body.clone())
                .collect();
            v.sort();
            v
        };
        assert!(cold(&ca).iter().all(|body| !cold(&cb).contains(body)));
        let order = |c: &[Request]| c.iter().map(|r| r.hot.is_some()).collect::<Vec<_>>();
        assert_ne!(order(&ca), order(&cb));
    }

    #[test]
    fn cold_specs_never_repeat_across_chunks_and_clients() {
        let hot = hot_set(1);
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..4 {
            for client in 0..2 {
                for r in chunk(1, c, client, &hot) {
                    if r.hot.is_none() {
                        assert!(seen.insert(r.body), "cold spec repeated");
                    }
                }
            }
        }
    }

    #[test]
    fn hot_share_is_about_half() {
        let hot = hot_set(9);
        let reqs = chunk(9, 0, 0, &hot);
        let share = reqs.iter().filter(|r| r.hot.is_some()).count() as f64 / reqs.len() as f64;
        assert!((0.45..=0.55).contains(&share), "hot share {share}");
        assert_eq!(reqs.len(), CHUNK);
    }

    #[test]
    fn every_generated_body_is_a_valid_submission() {
        let hot = hot_set(2);
        for r in chunk(2, 0, 1, &hot) {
            let v = deep_json::from_str(&r.body).expect("body is JSON");
            deep_serve::protocol::JobRequest::from_json(&v).expect("body is a valid job");
        }
    }
}
