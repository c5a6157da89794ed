//! Digest-cache guarantees the serving layer depends on:
//!
//! * the canonical digest is a pure function of the config — identical
//!   at any pool width and pinned across process runs;
//! * a cache hit returns the bytes that were inserted — the same
//!   allocation, not a copy.

use deep_json::cache::ResultCache;
use deep_json::digest::digest;
use deep_json::{from_str, object, Value};
use rayon::prelude::*;

fn sweep_config(seed: u64) -> Value {
    object([
        ("seed", seed.into()),
        ("replicas", 8u32.into()),
        (
            "points",
            Value::Array(vec![object([
                ("n_nodes", 640u64.into()),
                ("interval_s", 5400.0.into()),
            ])]),
        ),
    ])
}

#[test]
fn digest_is_identical_at_any_pool_width() {
    let configs: Vec<Value> = (0..64).map(sweep_config).collect();
    let serial: Vec<u64> = configs.iter().map(digest).collect();
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let par: Vec<u64> = pool.install(|| configs.par_iter().map(digest).collect());
        assert_eq!(serial, par, "digest diverged at {threads} threads");
    }
}

#[test]
fn digest_survives_a_parse_round_trip() {
    // What a client digests locally must equal what the server digests
    // after the config crossed the wire.
    let v = sweep_config(7);
    let rewired = from_str(&v.to_json()).unwrap();
    assert_eq!(digest(&v), digest(&rewired));
    // Member order scrambled en route (objects are order-preserving):
    let scrambled =
        from_str(r#"{"points":[{"interval_s":5400,"n_nodes":640}],"replicas":8,"seed":7}"#)
            .unwrap();
    assert_eq!(digest(&v), digest(&scrambled));
}

#[test]
fn cache_hit_is_byte_identical_to_the_inserted_result() {
    let mut cache = ResultCache::new(16);
    let result = from_str(r#"{"efficiencies":[0.9637,0.8812],"truncated":[0,0]}"#).unwrap();
    let rendered: std::sync::Arc<str> = result.to_json_pretty_at(1).into();
    let key = digest(&sweep_config(1));
    cache.insert(key, rendered.clone());
    let hit = cache.get(key).expect("hit");
    assert_eq!(&*hit, &*rendered, "rendering must match byte-for-byte");
    assert_eq!(from_str(&hit).unwrap(), result);
}
