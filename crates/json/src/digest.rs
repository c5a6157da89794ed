//! Canonical form + content digest for configuration JSON.
//!
//! Two syntactically different documents that mean the same config —
//! members in a different order, redundant whitespace — must address
//! the same cached result. `canonical_json` renders a [`Value`] into
//! a normal form (object members sorted by key at every level, compact
//! separators, the workspace's deterministic number formatting) and
//! [`digest`] hashes those bytes with FNV-1a 64. The digest is a pure
//! function of the value: no ambient time, no randomized hashing, so
//! it is stable across thread counts, process runs, and machines — a
//! client can compute the key its daemon will use.

use crate::Value;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte slice — the same digest family the golden
/// trace tests use.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Render `v` in canonical form: compact, object members sorted by key
/// (byte order, stable for duplicate keys) at every nesting level.
fn canonical_json(v: &Value) -> String {
    let mut out = String::new();
    write_canonical(v, &mut out);
    out
}

fn write_canonical(v: &Value, out: &mut String) {
    match v {
        Value::Object(kv) => {
            let mut sorted: Vec<&(String, Value)> = kv.iter().collect();
            sorted.sort_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
            out.push('{');
            for (n, (key, value)) in sorted.into_iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                crate::write_string(out, key);
                out.push(':');
                write_canonical(value, out);
            }
            out.push('}');
        }
        Value::Array(vs) => {
            out.push('[');
            for (n, e) in vs.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                write_canonical(e, out);
            }
            out.push(']');
        }
        scalar => scalar.write(out, None, 0),
    }
}

/// Content digest of a value: FNV-1a 64 over its canonical rendering.
pub fn digest(v: &Value) -> u64 {
    fnv1a_64(canonical_json(v).as_bytes())
}

/// [`digest`] as the 16-hex-digit form used in wire metadata.
pub fn digest_hex(v: &Value) -> String {
    format!("{:016x}", digest(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{from_str, object};

    #[test]
    fn member_order_does_not_change_the_digest() {
        let a = from_str(r#"{"b":1,"a":{"y":2,"x":[3,4]}}"#).unwrap();
        let b = from_str(r#"{"a":{"x":[3,4],"y":2},"b":1}"#).unwrap();
        assert_eq!(canonical_json(&a), canonical_json(&b));
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn array_order_matters() {
        let a = from_str("[1,2]").unwrap();
        let b = from_str("[2,1]").unwrap();
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn whitespace_is_immaterial() {
        let a = from_str("{ \"k\" : [ 1 , 2 ] }").unwrap();
        let b = from_str(r#"{"k":[1,2]}"#).unwrap();
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn digest_is_pinned_across_process_runs() {
        // A constant expectation: if this digest ever changes, every
        // digest a client recorded stops matching — that must be a
        // deliberate, visible decision, not drift.
        let v = object([
            ("experiment", "f03b_resilience".into()),
            ("seed", 7u64.into()),
        ]);
        assert_eq!(
            canonical_json(&v),
            r#"{"experiment":"f03b_resilience","seed":7}"#
        );
        assert_eq!(digest_hex(&v), format!("{:016x}", digest(&v)));
        assert_eq!(digest_hex(&v), "6cee10c28ca5af51");
    }

    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
