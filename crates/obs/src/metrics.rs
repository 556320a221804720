//! The metrics registry: named counters, gauges and log2 histograms.
//!
//! Unlike event tracing, counters are **always on** — they are cheap and
//! they feed the deterministic `drops_*` breakdown attached to every
//! `RunReport`. Hot paths (packet drops, engine dispatch, HARQ) use
//! pre-registered [`CounterId`] handles that bump a plain indexed cell;
//! the string-keyed [`counter_add`] stays for cold call sites, and both
//! feed the same snapshot.
//! Gauges and histograms may carry wall-clock values (worker timings);
//! those never enter the deterministic trace, only the optional
//! `--metrics` snapshot.
//!
//! The registry is thread-local; a parallel sweep's workers each
//! accumulate their own registry which the caller merges back with
//! [`absorb`]. Merging is commutative (counters add, gauges keep the
//! max, histogram buckets add), so aggregate metrics are independent of
//! the worker count.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Log2-bucketed histogram state: bucket `i` counts values in
/// `[2^i, 2^(i+1))`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// Bucket exponent → occupancy. Only touched buckets appear.
    pub buckets: BTreeMap<i64, u64>,
}

impl HistogramSnapshot {
    fn new() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: BTreeMap::new(),
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
    }

    fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

/// Exponent of the histogram bucket holding `v`: the unique `i` with
/// `2^i <= v < 2^(i+1)`, extracted from the IEEE-754 exponent bits so
/// edges are exact. Non-positive (and NaN) values land in `i64::MIN`;
/// subnormals are lumped into one bottom bucket.
pub fn bucket_index(v: f64) -> i64 {
    if v <= 0.0 || v.is_nan() {
        return i64::MIN;
    }
    let biased = ((v.to_bits() >> 52) & 0x7ff) as i64;
    if biased == 0 {
        -1075 // subnormal range
    } else {
        biased - 1023
    }
}

/// Inclusive lower edge of bucket `i` (for rendering).
pub fn bucket_lo(i: i64) -> f64 {
    2.0_f64.powi(i.clamp(-1074, 1023) as i32)
}

/// A point-in-time copy of (or a whole) metrics registry.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merge another snapshot into this one (commutative).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(f64::NEG_INFINITY);
            *e = e.max(v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Counters whose name starts with `prefix`, with the prefix stripped —
    /// e.g. `prefixed("drops_")` yields the per-reason drop breakdown.
    pub fn prefixed(&self, prefix: &str) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter_map(|(k, &v)| k.strip_prefix(prefix).map(|s| (s.to_string(), v)))
            .collect()
    }
}

thread_local! {
    static REGISTRY: RefCell<MetricsSnapshot> = RefCell::new(MetricsSnapshot::default());
    /// Per-thread cells for interned counters, indexed by [`CounterId`].
    /// Folded into the named-counter snapshot by [`take`].
    static CELLS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide intern table: id → counter name. Registration is rare
/// (once per call site); the hot path never touches this.
static INTERNED: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new());

/// A pre-registered counter handle. [`CounterId::add`] bumps a plain
/// thread-local cell indexed by id — no string hashing, no map lookup —
/// so counters on per-event hot paths (drops, engine dispatch, HARQ) cost
/// an array index. The cells are folded back into the named snapshot at
/// [`take`], so consumers (the `drops_*` breakdown, `--metrics`) see the
/// same `BTreeMap<String, u64>` regardless of which API fed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

impl CounterId {
    /// Add `n` to this counter on the current thread.
    #[inline]
    pub fn add(self, n: u64) {
        CELLS.with(|c| {
            let mut c = c.borrow_mut();
            if c.len() <= self.0 {
                c.resize(self.0 + 1, 0);
            }
            c[self.0] += n;
        });
    }
}

/// Intern `name`, returning its stable [`CounterId`]. Registering the
/// same name twice returns the same id, so call sites can cache the
/// result in a `OnceLock` without coordinating.
pub fn register_counter(name: &'static str) -> CounterId {
    let mut t = INTERNED.lock().expect("intern table poisoned");
    if let Some(i) = t.iter().position(|&n| n == name) {
        return CounterId(i);
    }
    t.push(name);
    CounterId(t.len() - 1)
}

/// Fold this thread's interned-counter cells into its named registry
/// (zeroing the cells). Called by [`take`].
fn fold_cells(snap: &mut MetricsSnapshot) {
    CELLS.with(|c| {
        let mut c = c.borrow_mut();
        if c.iter().all(|&v| v == 0) {
            return;
        }
        let names = INTERNED.lock().expect("intern table poisoned");
        for (i, v) in c.iter_mut().enumerate() {
            if *v != 0 {
                *snap.counters.entry(names[i].to_string()).or_insert(0) += *v;
                *v = 0;
            }
        }
    });
}

/// Add `n` to counter `name`.
pub fn counter_add(name: &str, n: u64) {
    REGISTRY.with(|r| {
        let mut r = r.borrow_mut();
        if let Some(c) = r.counters.get_mut(name) {
            *c += n;
        } else {
            r.counters.insert(name.to_string(), n);
        }
    });
}

/// Set gauge `name` (merge across workers keeps the max).
pub fn gauge_set(name: &str, v: f64) {
    REGISTRY.with(|r| {
        let mut r = r.borrow_mut();
        if let Some(g) = r.gauges.get_mut(name) {
            *g = v;
        } else {
            r.gauges.insert(name.to_string(), v);
        }
    });
}

/// Record `v` into histogram `name`.
pub fn observe(name: &str, v: f64) {
    REGISTRY.with(|r| {
        let mut r = r.borrow_mut();
        if let Some(h) = r.histograms.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = HistogramSnapshot::new();
            h.observe(v);
            r.histograms.insert(name.to_string(), h);
        }
    });
}

/// Drain this thread's registry — named counters, gauges, histograms and
/// the interned-counter cells — returning everything accumulated since
/// the last take.
pub fn take() -> MetricsSnapshot {
    let mut snap = REGISTRY.with(|r| std::mem::take(&mut *r.borrow_mut()));
    fold_cells(&mut snap);
    snap
}

/// Merge a drained registry (e.g. from a worker thread) into this
/// thread's registry.
pub fn absorb(snap: &MetricsSnapshot) {
    if snap.is_empty() {
        return;
    }
    REGISTRY.with(|r| r.borrow_mut().merge(snap));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_exact_powers_of_two() {
        assert_eq!(bucket_index(1.0), 0);
        assert_eq!(bucket_index(1.999_999_9), 0);
        assert_eq!(bucket_index(2.0), 1);
        assert_eq!(bucket_index(4.0), 2);
        assert_eq!(bucket_index(3.999_999_9), 1);
        assert_eq!(bucket_index(0.5), -1);
        assert_eq!(bucket_index(0.499_999_99), -2);
        assert_eq!(bucket_index(1024.0), 10);
        assert_eq!(bucket_index(1023.999), 9);
    }

    #[test]
    fn bucket_degenerate_values() {
        assert_eq!(bucket_index(0.0), i64::MIN);
        assert_eq!(bucket_index(-3.0), i64::MIN);
        assert_eq!(bucket_index(f64::NAN), i64::MIN);
        assert_eq!(bucket_index(f64::MIN_POSITIVE / 2.0), -1075, "subnormal");
        assert_eq!(bucket_index(f64::INFINITY), 1024);
        assert!((bucket_lo(3) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_and_moments() {
        let mut h = HistogramSnapshot::new();
        for v in [1.0, 1.5, 2.0, 7.9, 8.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.buckets[&0], 2, "1.0 and 1.5 share [1,2)");
        assert_eq!(h.buckets[&1], 1, "2.0 opens [2,4)");
        assert_eq!(h.buckets[&2], 1, "7.9 in [4,8)");
        assert_eq!(h.buckets[&3], 1, "8.0 opens [8,16)");
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 8.0);
        assert!((h.mean() - 20.4 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn registry_take_and_absorb_merge_commutatively() {
        let _ = take();
        counter_add("drops_queue", 2);
        gauge_set("depth", 3.0);
        observe("rtt_ms", 10.0);
        let a = take();
        counter_add("drops_queue", 1);
        counter_add("drops_loss", 4);
        gauge_set("depth", 5.0);
        observe("rtt_ms", 20.0);
        let b = take();

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.counters["drops_queue"], 3);
        assert_eq!(ab.counters["drops_loss"], 4);
        assert_eq!(ab.gauges["depth"], 5.0);
        assert_eq!(ab.histograms["rtt_ms"].count, 2);

        absorb(&ab);
        let again = take();
        assert_eq!(again, ab);
    }

    #[test]
    fn prefixed_strips_and_filters() {
        let _ = take();
        counter_add("drops_queue", 1);
        counter_add("drops_ttl", 2);
        counter_add("harq_tx", 9);
        let snap = take();
        let drops = snap.prefixed("drops_");
        assert_eq!(drops.len(), 2);
        assert_eq!(drops["queue"], 1);
        assert_eq!(drops["ttl"], 2);
    }

    #[test]
    fn interned_counters_fold_into_the_snapshot() {
        let _ = take();
        let id = register_counter("test_interned");
        let same = register_counter("test_interned");
        assert_eq!(id, same, "re-registration returns the same handle");
        id.add(2);
        same.add(3);
        counter_add("test_interned", 1); // the string API merges with it
        let snap = take();
        assert_eq!(snap.counters["test_interned"], 6);
        // The cells drained: a fresh take sees nothing.
        assert!(!take().counters.contains_key("test_interned"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let _ = take();
        counter_add("c", 1);
        gauge_set("g", 2.5);
        observe("h", 0.75);
        let snap = take();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
