//! Statistics collectors for the experiment harness.
//!
//! Everything here is exact rather than approximate: experiments in this
//! repository are small enough that keeping raw samples (for percentiles) is
//! cheaper than the complexity of sketches.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Running mean / variance via Welford's online algorithm.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact sample collector with percentile queries.
///
/// Percentile queries on an unsorted collector build a sorted view once and
/// cache it behind a `OnceLock`, so read-only reporting paths that ask for a
/// handful of quantiles (p50/p95/p99/min/max) sort at most once between
/// pushes instead of cloning and sorting per query. The cache is interior
/// state only: it never serializes, and pushes invalidate it. `OnceLock`
/// (rather than `RefCell`) keeps the collector `Send`/`Sync`, so per-shard
/// stats can cross the worker-thread boundary of the sharded engine.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
    sorted_view: OnceLock<Vec<f64>>,
}

// Manual impls keep the wire shape of the old derive (`values` + `sorted`)
// while leaving the query cache out of the serialized form — the vendored
// serde derive has no `#[serde(skip)]`.
impl Serialize for Samples {
    fn serialize_value(&self) -> serde::value::Value {
        let mut m = serde::value::Map::new();
        m.insert("values".into(), self.values.serialize_value());
        m.insert("sorted".into(), self.sorted.serialize_value());
        serde::value::Value::Object(m)
    }
}

impl Deserialize for Samples {
    fn deserialize_value(v: &serde::value::Value) -> Result<Self, serde::de::Error> {
        let m = v
            .as_object()
            .ok_or_else(|| serde::de::Error::custom("expected Samples object"))?;
        let values = match m.get("values") {
            Some(x) => Vec::<f64>::deserialize_value(x)?,
            None => Vec::new(),
        };
        let sorted = match m.get("sorted") {
            Some(x) => bool::deserialize_value(x)?,
            None => false,
        };
        Ok(Samples {
            values,
            sorted,
            sorted_view: OnceLock::new(),
        })
    }
}

impl Samples {
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
            sorted_view: OnceLock::new(),
        }
    }

    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
        self.sorted_view.take();
    }

    /// Record a duration in milliseconds (the unit the experiment tables use
    /// for latency columns).
    pub fn push_duration_ms(&mut self, d: SimDuration) {
        self.push(d.as_nanos() as f64 / 1e6);
    }

    /// Fold another collector's samples in (population aggregation across
    /// per-UE collectors).
    pub fn extend(&mut self, other: &Samples) {
        for &v in other.values() {
            self.push(v);
        }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            f64::NAN
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Linear interpolation between order statistics of a sorted slice.
    fn interpolate(sorted: &[f64], q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// `q`-quantile in \[0,1\] without mutating the observable collector:
    /// reads the samples directly when they are already sorted, otherwise
    /// sorts a copy once and caches it until the next push. Repeated
    /// read-only queries between pushes (the reporting pattern: p50, p95,
    /// p99, min, max off the same collector) therefore sort once, not once
    /// per query.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        if self.sorted {
            return Self::interpolate(&self.values, q);
        }
        let sorted = self.sorted_view.get_or_init(|| {
            let mut v = self.values.clone();
            v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            v
        });
        Self::interpolate(sorted, q)
    }

    /// `q`-quantile in \[0,1\], sorting in place once so repeated queries are
    /// O(1) after the first.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        if !self.sorted {
            self.values
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
            // The stored order now serves queries directly.
            self.sorted_view.take();
        }
        Self::interpolate(&self.values, q)
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    pub fn min(&self) -> f64 {
        self.percentile(0.0)
    }

    pub fn max(&self) -> f64 {
        self.percentile(1.0)
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Jain's fairness index over per-entity allocations.
///
/// Equals 1.0 when all allocations are equal, 1/n when one entity gets
/// everything. Empty or all-zero input yields 1.0 (degenerate but fair).
pub fn jain_index(allocations: &[f64]) -> f64 {
    if allocations.is_empty() {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sq_sum: f64 = allocations.iter().map(|x| x * x).sum();
    if sq_sum == 0.0 {
        return 1.0;
    }
    (sum * sum) / (allocations.len() as f64 * sq_sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 100.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.variance() - var).abs() < 1e-9);
        assert_eq!(w.min(), 1.0);
        assert_eq!(w.max(), 100.0);
        assert_eq!(w.count(), 6);
    }

    #[test]
    fn welford_merge_equals_single_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        // Merging into empty copies the source.
        let mut e = Welford::new();
        e.merge(&all);
        assert_eq!(e.count(), all.count());
    }

    #[test]
    fn empty_collectors_return_nan_not_panic() {
        let w = Welford::new();
        assert!(w.mean().is_nan());
        assert!(w.variance().is_nan());
        let s = Samples::new();
        assert!(s.mean().is_nan());
        assert!(s.median().is_nan());
    }

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for x in [4.0, 1.0, 3.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert!((s.median() - 2.5).abs() < 1e-12);
        // Quantile clamps out-of-range q.
        assert_eq!(s.quantile(2.0), 4.0);
    }

    #[test]
    fn percentile_is_immutable_and_matches_quantile() {
        let mut s = Samples::new();
        for x in [4.0, 1.0, 3.0, 2.0] {
            s.push(x);
        }
        // Read-only query on an unsorted collector...
        let p = s.percentile(0.5);
        // ...leaves the stored sample order untouched.
        assert_eq!(s.values(), &[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(p, s.quantile(0.5), "copy-on-query matches in-place sort");
        // After the cached sort, percentile reads the cache directly.
        assert_eq!(s.percentile(1.0), 4.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!(Samples::new().percentile(0.5).is_nan());
    }

    #[test]
    fn percentile_cache_survives_interleaved_pushes() {
        let mut s = Samples::new();
        // Interleave pushes with read-only queries: every query after a push
        // must see the new sample (the cached view must not go stale).
        let mut reference = Vec::new();
        for (i, x) in [5.0, 1.0, 9.0, 3.0, 7.0, 2.0].into_iter().enumerate() {
            s.push(x);
            reference.push(x);
            let mut sorted = reference.clone();
            sorted.sort_by(|a: &f64, b: &f64| a.partial_cmp(b).unwrap());
            assert_eq!(s.min(), sorted[0], "after push {i}");
            assert_eq!(s.max(), *sorted.last().unwrap(), "after push {i}");
            // Repeated queries between pushes hit the cached view and agree.
            assert_eq!(s.percentile(0.5), s.percentile(0.5));
        }
        // Stored order is untouched by all those read-only queries.
        assert_eq!(s.values(), &[5.0, 1.0, 9.0, 3.0, 7.0, 2.0]);
        // Round-trip drops the cache but preserves samples and order.
        let json = serde_json::to_string(&s).unwrap();
        assert!(
            !json.contains("sorted_view"),
            "cache must not serialize: {json}"
        );
        let back: Samples = serde_json::from_str(&json).unwrap();
        assert_eq!(back.values(), s.values());
        assert_eq!(back.median(), s.median());
    }

    #[test]
    fn percentiles_agree_with_naive_sort_after_cross_thread_moves() {
        // The cache must be Send/Sync (per-shard stats cross the worker
        // boundary of the sharded engine) and queries must agree with a
        // naive sort whether the cache was populated before or after the
        // move, and on clones that carried it across.
        fn naive(vals: &[f64], q: f64) -> f64 {
            let mut v = vals.to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            Samples::interpolate(&v, q)
        }
        let raw = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0];
        let mut s = Samples::new();
        for x in raw {
            s.push(x);
        }
        // Warm the cache on this thread, then move the collector.
        let _ = s.percentile(0.5);
        let shared = std::sync::Arc::new(s);
        let for_thread = std::sync::Arc::clone(&shared);
        let from_thread = std::thread::spawn(move || {
            // Query through the shared reference on another thread (Sync)...
            let warm = (for_thread.median(), for_thread.p95());
            // ...and move a clone (with its warmed cache) into this thread.
            let owned: Samples = (*for_thread).clone();
            let mut grown = owned.clone();
            grown.push(4.0);
            (warm, owned.percentile(0.25), grown.median())
        })
        .join()
        .unwrap();
        let ((med, p95), p25, grown_med) = from_thread;
        assert_eq!(med, naive(&raw, 0.5));
        assert_eq!(p95, naive(&raw, 0.95));
        assert_eq!(p25, naive(&raw, 0.25));
        let mut raw_plus = raw.to_vec();
        raw_plus.push(4.0);
        assert_eq!(grown_med, naive(&raw_plus, 0.5), "push invalidates cache");
        // The original, back on this thread, still answers correctly.
        assert_eq!(shared.median(), naive(&raw, 0.5));
    }

    #[test]
    fn jain_known_values() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        // 2:1 split of two users → (3)^2 / (2*5) = 0.9
        assert!((jain_index(&[2.0, 1.0]) - 0.9).abs() < 1e-12);
    }
}
