//! Sample summaries: median, quartiles and the tail percentile the
//! sample count can support.

/// Median, quartiles and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample (mean of the two middle values for even counts);
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values))
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — the same
/// arithmetic as Python's `statistics.quantiles(values, n=4)`, so the
/// quartiles printed here are the ones the benchmark driver computes.
/// A single sample is its own quartiles.
fn quartiles_sorted(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    match n {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let cut = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                // Signed: clamping j can push the interpolation weight
                // outside 0..=4 for tiny samples, as in Python.
                let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// Median, quartiles and count of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let (q1, q3) = quartiles_sorted(&v);
    Summary {
        n: v.len(),
        median: median_sorted(&v),
        q1,
        q3,
    }
}

/// The highest percentile that still has at least `beyond` samples
/// above it, as `(percentile, value)`; `None` when the sample is too
/// small for any percentile above the median to qualify. With 1 000
/// samples and `beyond = 10` this is p99; with 300 it is p96.7 — a
/// tail figure backed by fewer samples does not repeat.
pub fn tail(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 * beyond + 1 {
        return None;
    }
    let idx = n - beyond - 1;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let quartiles = |v: &[f64]| {
            let s = summarize(v);
            (s.q1, s.q3)
        };
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!((summarize(&v).n, summarize(&v).median), (10, 5.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 10 samples (991..=1000) lie beyond the 990th.
        assert_eq!(tail(&v, 10), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        let (p, x) = tail(&v, 10).unwrap();
        assert_eq!(x, 290.0);
        assert!((p - 96.666).abs() < 0.01);
        // 20 samples: the value with 10 beyond would sit below the
        // median, which is not a tail.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v, 10), None);
        assert!(tail(&(1..=21).map(f64::from).collect::<Vec<_>>(), 10).is_some());
    }
}
