//! Lightweight metrics: counters, log-2 bucket histograms, and time series.
//!
//! Registration uses string names (cold path); recording through the
//! returned dense ids is allocation-free (hot path), following the
//! integer-ids-over-strings idiom from the performance guides.

use std::collections::BTreeMap;

use crate::time::{SimDuration, SimTime};

/// Dense handle to a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Dense handle to a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Dense handle to a time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// A histogram over `u64` samples with power-of-two buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `buckets[i]` counts samples in `[2^(i-1), 2^i)`; bucket 0 counts 0.
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (`u64::MAX` when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile from bucket boundaries: the *inclusive* upper
    /// bound of the bucket containing the q-quantile sample, clamped to
    /// the largest observed sample. Returns 0 when empty.
    ///
    /// Bucket 0 holds exactly `{0}`; bucket `i ≥ 1` holds
    /// `[2^(i-1), 2^i - 1]`; the top bucket (64) holds `[2^63, u64::MAX]`
    /// — its bound is `u64::MAX`, not the former `1u64 << 64`, which
    /// shift-overflowed (a panic in debug builds, a wrap to 1 in release).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let bound = match i {
                    0 => 0,
                    1..=63 => (1u64 << i) - 1,
                    _ => u64::MAX,
                };
                return bound.min(self.max);
            }
        }
        self.max
    }
}

/// Registry of named metrics for one simulation.
///
/// Names live in `BTreeMap`s, so the export helpers (`all_counters`,
/// `all_histograms`, `all_series`) walk them in name order and two
/// identical runs print identical reports.
#[derive(Default)]
pub struct Metrics {
    counter_names: BTreeMap<String, CounterId>,
    counters: Vec<u64>,
    histogram_names: BTreeMap<String, HistogramId>,
    histograms: Vec<Histogram>,
    series_names: BTreeMap<String, SeriesId>,
    series: Vec<Vec<(SimTime, f64)>>,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Metrics::default()
    }

    /// Get-or-create a counter.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(&id) = self.counter_names.get(name) {
            return id;
        }
        let id = CounterId(self.counters.len());
        self.counters.push(0);
        self.counter_names.insert(name.to_string(), id);
        id
    }

    /// Add to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, v: u64) {
        self.counters[id.0] += v;
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Read a counter by handle.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Read a counter by name (0 if never registered).
    pub fn counter_by_name(&self, name: &str) -> u64 {
        self.counter_names
            .get(name)
            .map_or(0, |&id| self.counters[id.0])
    }

    /// Get-or-create a histogram.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(&id) = self.histogram_names.get(name) {
            return id;
        }
        let id = HistogramId(self.histograms.len());
        self.histograms.push(Histogram::default());
        self.histogram_names.insert(name.to_string(), id);
        id
    }

    /// Record a histogram sample.
    #[inline]
    pub fn record(&mut self, id: HistogramId, v: u64) {
        self.histograms[id.0].record(v);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&mut self, id: HistogramId, d: SimDuration) {
        self.record(id, d.as_nanos());
    }

    /// Read a histogram by handle.
    pub fn histogram_value(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0]
    }

    /// Read a histogram by name.
    pub fn histogram_by_name(&self, name: &str) -> Option<&Histogram> {
        self.histogram_names
            .get(name)
            .map(|&id| &self.histograms[id.0])
    }

    /// Get-or-create a time series.
    pub fn series_id(&mut self, name: &str) -> SeriesId {
        if let Some(&id) = self.series_names.get(name) {
            return id;
        }
        let id = SeriesId(self.series.len());
        self.series.push(Vec::new());
        self.series_names.insert(name.to_string(), id);
        id
    }

    /// Append a `(time, value)` point through a dense handle (hot path;
    /// no name hashing, no allocation).
    #[inline]
    pub fn push_series_id(&mut self, id: SeriesId, t: SimTime, v: f64) {
        self.series[id.0].push((t, v));
    }

    /// Append a `(time, value)` point to a named series. Allocates only
    /// on first registration of the name; prefer [`Metrics::series_id`] +
    /// [`Metrics::push_series_id`] in loops.
    pub fn push_series(&mut self, name: &str, t: SimTime, v: f64) {
        let id = self.series_id(name);
        self.push_series_id(id, t, v);
    }

    /// Read a series by name.
    pub fn series(&self, name: &str) -> Option<&[(SimTime, f64)]> {
        self.series_names
            .get(name)
            .map(|&id| self.series[id.0].as_slice())
    }

    /// Read a series by handle.
    pub fn series_value(&self, id: SeriesId) -> &[(SimTime, f64)] {
        &self.series[id.0]
    }

    /// Iterate all counters as `(name, value)`, sorted by name.
    pub fn all_counters(&self) -> Vec<(String, u64)> {
        self.counter_names
            .iter()
            .map(|(n, &id)| (n.clone(), self.counters[id.0]))
            .collect()
    }

    /// Iterate all histograms as `(name, histogram)`, sorted by name.
    pub fn all_histograms(&self) -> Vec<(String, &Histogram)> {
        self.histogram_names
            .iter()
            .map(|(n, &id)| (n.clone(), &self.histograms[id.0]))
            .collect()
    }

    /// Iterate all series as `(name, points)`, sorted by name.
    pub fn all_series(&self) -> Vec<(String, &[(SimTime, f64)])> {
        self.series_names
            .iter()
            .map(|(n, &id)| (n.clone(), self.series[id.0].as_slice()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        let a = m.counter("msgs");
        let b = m.counter("bytes");
        m.inc(a);
        m.add(b, 100);
        m.add(b, 28);
        assert_eq!(m.counter_value(a), 1);
        assert_eq!(m.counter_by_name("bytes"), 128);
        assert_eq!(m.counter_by_name("nonexistent"), 0);
        // Re-registration returns the same id.
        assert_eq!(m.counter("msgs"), a);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 1110);
        assert!((h.mean() - 1110.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_monotone() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let q50 = h.quantile(0.5);
        let q90 = h.quantile(0.9);
        let q99 = h.quantile(0.99);
        assert!(q50 <= q90 && q90 <= q99);
        // q50 of 1..=1000 lives in the bucket [256, 511] -> inclusive
        // upper bound 511.
        assert_eq!(q50, 511);
        // The top quantile clamps to the observed maximum, not the
        // bucket's theoretical bound.
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn quantile_top_bucket_no_shift_overflow() {
        // Samples at and above 2^63 land in bucket 64, whose inclusive
        // bound is u64::MAX — the old exclusive-bound formula computed
        // `1u64 << 64`, a shift overflow (debug panic / release wrap to
        // 1). This must hold under both `cargo test` and
        // `cargo test --release`.
        let mut h = Histogram::default();
        h.record(1u64 << 63);
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // Both samples share bucket 64, so every quantile reports it.
        assert_eq!(h.quantile(0.1), u64::MAX);
        // Clamping: a single sub-max sample in the top bucket reports
        // the sample, not u64::MAX.
        let mut h2 = Histogram::default();
        h2.record((1u64 << 63) + 5);
        assert_eq!(h2.quantile(0.5), (1u64 << 63) + 5);
        // And the penultimate bucket's bound is now inclusive too.
        let mut h3 = Histogram::default();
        h3.record(1u64 << 62);
        h3.record(u64::MAX - 1);
        assert_eq!(h3.quantile(0.25), (1u64 << 63) - 1);
    }

    #[test]
    fn empty_histogram_edge_cases() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.sum(), 0);
        // Documented empty-state sentinels.
        assert_eq!(h.min(), u64::MAX);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn empty_metrics_edge_cases() {
        let m = Metrics::new();
        assert!(m.all_counters().is_empty());
        assert!(m.all_histograms().is_empty());
        assert!(m.all_series().is_empty());
        assert!(m.series("nothing").is_none());
        assert_eq!(m.counter_by_name("nothing"), 0);
        assert!(m.histogram_by_name("nothing").is_none());
    }

    #[test]
    fn bucket_boundaries() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(u64::MAX);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn series_append_and_read() {
        let mut m = Metrics::new();
        m.push_series("util", SimTime(10), 0.5);
        m.push_series("util", SimTime(20), 0.7);
        let s = m.series("util").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1], (SimTime(20), 0.7));
        assert!(m.series("other").is_none());
        // The dense-id hot path appends to the same series.
        let id = m.series_id("util");
        m.push_series_id(id, SimTime(30), 0.9);
        assert_eq!(m.series_value(id).len(), 3);
    }

    #[test]
    fn export_order_is_stable_across_insertion_orders() {
        // Two registries populated in opposite orders must export
        // identical, name-sorted tables.
        let build = |names: &[&str]| {
            let mut m = Metrics::new();
            for n in names {
                // Values keyed on the name so both registries hold the
                // same data regardless of insertion order.
                let v = n.len() as u64;
                let c = m.counter(n);
                m.add(c, v);
                let h = m.histogram(n);
                m.record(h, 2 * v + 1);
                m.push_series(n, SimTime(v), v as f64);
            }
            m
        };
        let names = ["zeta", "alpha", "mid", "beta2", "beta"];
        let mut reversed = names;
        reversed.reverse();
        let (a, b) = (build(&names), build(&reversed));

        assert_eq!(a.all_counters(), b.all_counters());
        let report = |m: &Metrics| -> Vec<(String, u64, usize)> {
            let hs: Vec<_> = m
                .all_histograms()
                .into_iter()
                .map(|(n, h)| (n, h.count()))
                .collect();
            m.all_series()
                .into_iter()
                .zip(hs)
                .map(|((sn, pts), (hn, hc))| {
                    assert_eq!(sn, hn, "histogram and series tables align");
                    (sn, hc, pts.len())
                })
                .collect()
        };
        assert_eq!(report(&a), report(&b));
        let sorted: Vec<&str> = {
            let mut s = names.to_vec();
            s.sort_unstable();
            s
        };
        let exported: Vec<String> = a.all_counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(exported, sorted);
    }
}
