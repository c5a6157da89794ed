//! Message payloads and reduction operators.
//!
//! The simulator separates *cost* (the byte count a message charges to the
//! fabric) from *content* (a [`Value`]). Simulated time depends on the
//! byte count alone, so every point-to-point call and every collective
//! accepts [`Value::Unit`] with an explicit `bytes` and then books exactly
//! the messages a real payload of that size would (pinned by
//! `tests/proptest_collectives.rs`). Carry content only where printed
//! output or control flow reads it — a convergence test, a residual, a
//! checksum — and in the tests that verify collectives and offloaded
//! kernels compute correct results, not just plausible timings.

use std::fmt;
use std::rc::Rc;

/// A message payload. Cloning is cheap (large payloads are `Rc`-shared).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// No content (pure-cost message).
    Unit,
    /// A single unsigned integer.
    U64(u64),
    /// A single double.
    F64(f64),
    /// A shared vector of doubles.
    VecF64(Rc<Vec<f64>>),
    /// Raw bytes.
    Bytes(Rc<Vec<u8>>),
    /// A list of values (used by gather-style collectives).
    List(Rc<Vec<Value>>),
}

impl Value {
    /// Wrap a vector of doubles.
    pub fn vec(v: Vec<f64>) -> Value {
        Value::VecF64(Rc::new(v))
    }

    /// Extract a `u64`, panicking on type mismatch.
    pub fn as_u64(&self) -> u64 {
        match self {
            Value::U64(v) => *v,
            other => panic!("expected U64, got {other:?}"),
        }
    }

    /// Extract an `f64`, panicking on type mismatch.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::F64(v) => *v,
            other => panic!("expected F64, got {other:?}"),
        }
    }

    /// Borrow the vector payload, panicking on type mismatch.
    pub fn as_vec(&self) -> &[f64] {
        match self {
            Value::VecF64(v) => v,
            other => panic!("expected VecF64, got {other:?}"),
        }
    }

    /// Borrow the list payload, panicking on type mismatch.
    pub fn as_list(&self) -> &[Value] {
        match self {
            Value::List(v) => v,
            other => panic!("expected List, got {other:?}"),
        }
    }

    /// A reasonable wire size for this payload, used when the caller does
    /// not specify an explicit byte count.
    pub fn natural_bytes(&self) -> u64 {
        match self {
            Value::Unit => 0,
            Value::U64(_) | Value::F64(_) => 8,
            Value::VecF64(v) => 8 * v.len() as u64,
            Value::Bytes(b) => b.len() as u64,
            Value::List(l) => l.iter().map(Value::natural_bytes).sum(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::U64(v) => write!(f, "{v}u64"),
            Value::F64(v) => write!(f, "{v}f64"),
            Value::VecF64(v) => write!(f, "f64[{}]", v.len()),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::List(l) => write!(f, "list[{}]", l.len()),
        }
    }
}

/// Reduction operators for `reduce`/`allreduce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Elementwise product.
    Prod,
}

impl ReduceOp {
    fn fold_f64(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Prod => a * b,
        }
    }

    fn fold_u64(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Prod => a * b,
        }
    }

    /// Combine two payloads elementwise. Panics on shape mismatch.
    pub fn combine(self, a: &Value, b: &Value) -> Value {
        match (a, b) {
            (Value::Unit, Value::Unit) => Value::Unit,
            (Value::U64(x), Value::U64(y)) => Value::U64(self.fold_u64(*x, *y)),
            (Value::F64(x), Value::F64(y)) => Value::F64(self.fold_f64(*x, *y)),
            (Value::VecF64(x), Value::VecF64(y)) => {
                assert_eq!(x.len(), y.len(), "reduce on mismatched vector lengths");
                Value::VecF64(Rc::new(
                    x.iter()
                        .zip(y.iter())
                        .map(|(&p, &q)| self.fold_f64(p, q))
                        .collect(),
                ))
            }
            (p, q) => panic!("cannot reduce {p:?} with {q:?}"),
        }
    }

    /// `acc ← combine(left, acc)`, folding a vector into `acc`'s own
    /// storage (copied first only if `acc` is shared). Same operand order
    /// as [`ReduceOp::combine`], so the result is bit-identical to it.
    pub fn combine_into(self, left: &Value, acc: &mut Value) {
        match (left, acc) {
            (Value::VecF64(x), Value::VecF64(y)) => {
                assert_eq!(x.len(), y.len(), "reduce on mismatched vector lengths");
                for (q, &p) in Rc::make_mut(y).iter_mut().zip(x.iter()) {
                    *q = self.fold_f64(p, *q);
                }
            }
            (left, acc) => *acc = self.combine(left, acc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_scalars() {
        assert_eq!(
            ReduceOp::Sum.combine(&Value::F64(1.5), &Value::F64(2.5)),
            Value::F64(4.0)
        );
        assert_eq!(
            ReduceOp::Max.combine(&Value::U64(3), &Value::U64(9)),
            Value::U64(9)
        );
        assert_eq!(
            ReduceOp::Min.combine(&Value::U64(3), &Value::U64(9)),
            Value::U64(3)
        );
        assert_eq!(
            ReduceOp::Prod.combine(&Value::F64(3.0), &Value::F64(4.0)),
            Value::F64(12.0)
        );
    }

    #[test]
    fn combine_vectors_elementwise() {
        let a = Value::vec(vec![1.0, 2.0, 3.0]);
        let b = Value::vec(vec![10.0, 20.0, 30.0]);
        assert_eq!(
            ReduceOp::Sum.combine(&a, &b),
            Value::vec(vec![11.0, 22.0, 33.0])
        );
    }

    #[test]
    fn combine_into_matches_combine_and_leaves_shared_storage_alone() {
        let left = Value::vec(vec![0.1, -2.0, 3.5]);
        let shared = Value::vec(vec![0.2, 7.0, -1.5]);
        for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod] {
            let mut acc = shared.clone();
            op.combine_into(&left, &mut acc);
            assert_eq!(acc, op.combine(&left, &shared));
            let mut unit = Value::Unit;
            op.combine_into(&Value::Unit, &mut unit);
            assert_eq!(unit, Value::Unit);
        }
        assert_eq!(shared, Value::vec(vec![0.2, 7.0, -1.5]));
    }

    #[test]
    #[should_panic(expected = "mismatched vector lengths")]
    fn combine_mismatched_lengths_panics() {
        let a = Value::vec(vec![1.0]);
        let b = Value::vec(vec![1.0, 2.0]);
        let _ = ReduceOp::Sum.combine(&a, &b);
    }

    #[test]
    fn natural_sizes() {
        assert_eq!(Value::Unit.natural_bytes(), 0);
        assert_eq!(Value::U64(1).natural_bytes(), 8);
        assert_eq!(Value::vec(vec![0.0; 10]).natural_bytes(), 80);
        let list = Value::List(Rc::new(vec![Value::U64(1), Value::vec(vec![0.0; 2])]));
        assert_eq!(list.natural_bytes(), 24);
    }
}
