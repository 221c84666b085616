//! Named atomic counters/gauges, log₂ latency histograms and snapshots.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! of shared atomics: a layer registers its metrics once at startup,
//! stores the handles, and records with plain `fetch_add`s — no lock, no
//! allocation, no branch on a registry lookup. [`MetricsRegistry::snapshot`]
//! walks the registry under its lock and copies every value out into a
//! [`MetricsSnapshot`].

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket `0` counts zero-valued samples and
/// bucket `i ≥ 1` counts samples in `[2^(i-1), 2^i)` — 64 power-of-two
/// ranges cover the whole `u64` domain.
pub const HIST_BUCKETS: usize = 65;

/// The bucket a sample lands in: `0` for `0`, else `64 - leading_zeros`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The largest value that lands in bucket `idx` (the inclusive upper
/// bound reported for percentile estimates): `0`, `2^idx - 1`, …,
/// `u64::MAX`.
pub fn bucket_bound(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// A monotonically increasing event counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (not registry-backed) — handy in tests.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (live sessions, queue depth, …).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A free-standing gauge (not registry-backed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the level by `n`.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared histogram storage: one atomic per log₂ bucket plus running
/// count and sum.
#[derive(Debug)]
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// A fixed-bucket log₂ histogram of `u64` samples (latencies in ns/µs,
/// batch sizes, occupancy percentages).
///
/// `observe` is three relaxed `fetch_add`s — no lock, no allocation, no
/// floating point — so it is safe on the zero-alloc stepping hot path.
/// Percentiles are estimated from the bucket upper bounds at snapshot
/// time, which for log₂ buckets means at most 2× overestimation — the
/// right trade for an always-on production histogram.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A free-standing histogram (not registry-backed).
    pub fn new() -> Self {
        Self(Arc::new(HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }

    /// Records one sample.
    pub fn observe(&self, value: u64) {
        self.0.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Copies the current state out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets: self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Per-bucket sample counts, [`HIST_BUCKETS`] long.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile (`q ∈ [0, 1]`): the upper bound of the
    /// bucket where the cumulative count reaches `⌈q·count⌉`. Zero for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= target {
                return bucket_bound(i);
            }
        }
        bucket_bound(HIST_BUCKETS - 1)
    }

    /// Upper bound of the highest occupied bucket (≈ the maximum sample).
    pub fn max_bound(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, bucket_bound)
    }

    /// Mean sample value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Accumulates another snapshot into this one. All additions
    /// saturate, so merging long-lived roll-ups can never overflow and
    /// wrap a counter back past zero.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, &src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst = dst.saturating_add(src);
        }
    }
}

/// What the registry holds per name.
#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

/// A named registry of metrics.
///
/// `counter`/`gauge`/`histogram` get-or-register under a lock (startup
/// and session-open cost); the returned handles record lock-free. Names
/// are kept in registration order, so snapshots group related metrics the
/// way the instrumenting layer registered them.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name` (registering it if new).
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::new();
        inner.counters.push((name.to_string(), c.clone()));
        c
    }

    /// The gauge registered under `name` (registering it if new).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::new();
        inner.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// The histogram registered under `name` (registering it if new).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, h)) = inner.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::new();
        inner.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// Unregisters `name` from every kind (dynamic per-session metrics
    /// are removed on close so the registry stays bounded by live
    /// sessions). Outstanding handles keep working; the metric simply
    /// stops appearing in snapshots.
    pub fn remove(&self, name: &str) {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.retain(|(n, _)| n != name);
        inner.gauges.retain(|(n, _)| n != name);
        inner.histograms.retain(|(n, _)| n != name);
    }

    /// Copies every registered metric's current value out.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(n, c)| (n.clone(), c.get())).collect(),
            gauges: inner.gauges.iter().map(|(n, g)| (n.clone(), g.get())).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a whole registry: the payload of the serving
/// protocol's `Metrics` command and of the `throughput --json` telemetry
/// section.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per registered counter, in registration order.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` per registered gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, state)` per registered histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The counter value under `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The gauge level under `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram under `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Accumulates another snapshot into this one, by name: counters and
    /// histogram buckets add **saturating** (a merged roll-up can never
    /// overflow and wrap), gauges take the other side's level (a level is
    /// not additive across time). Names only on the other side are
    /// appended.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, dst)) => *dst = dst.saturating_add(*v),
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, dst)) => *dst = *v,
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, dst)) => dst.merge(h),
                None => self.histograms.push((name.clone(), h.clone())),
            }
        }
    }

    /// Renders the snapshot as a JSON object, written by hand (the crate
    /// has no dependencies). Histograms are summarized as count / sum /
    /// quantile estimates plus a sparse `[bucket, count]` list.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_key(&mut s, name);
            s.push_str(&v.to_string());
        }
        s.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_key(&mut s, name);
            s.push_str(&v.to_string());
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_key(&mut s, name);
            s.push_str(&format!(
                "{{\"count\":{},\"sum\":{},\"mean\":{:.1},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max_bound(),
            ));
            let mut first = true;
            for (idx, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str(&format!("[{idx},{c}]"));
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }
}

/// Appends `"name":` with minimal JSON string escaping (metric names are
/// ASCII identifiers, but stay total anyway).
fn push_json_key(s: &mut String, name: &str) {
    s.push('"');
    for ch in name.chars() {
        match ch {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push_str("\":");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("a").get(), 5, "same handle under one name");
        let g = reg.gauge("b");
        g.add(3);
        g.sub(1);
        assert_eq!(g.get(), 2);
        g.set(-7);
        assert_eq!(reg.gauge("b").get(), -7);
    }

    #[test]
    fn bucket_index_covers_the_domain() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for idx in 0..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_bound(idx)), idx, "bound of {idx} maps back");
        }
    }

    #[test]
    fn histogram_quantiles_estimate_from_bucket_bounds() {
        let h = Histogram::new();
        for v in [1u64, 1, 1, 100, 100, 10_000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 10_203);
        assert_eq!(s.quantile(0.5), 1, "median is in the [1,2) bucket");
        assert_eq!(s.quantile(1.0), bucket_bound(bucket_index(10_000)));
        assert_eq!(s.max_bound(), bucket_bound(bucket_index(10_000)));
        assert!(s.mean() > 1.0);
    }

    #[test]
    fn snapshot_lookup_and_json() {
        let reg = MetricsRegistry::new();
        reg.counter("x").add(3);
        reg.gauge("y").set(-1);
        reg.histogram("z").observe(5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x"), Some(3));
        assert_eq!(snap.gauge("y"), Some(-1));
        assert_eq!(snap.histogram("z").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
        let json = snap.to_json();
        assert!(json.contains("\"x\":3"), "{json}");
        assert!(json.contains("\"y\":-1"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
    }

    #[test]
    fn remove_unregisters_dynamic_metrics() {
        let reg = MetricsRegistry::new();
        reg.histogram("session.1.lat").observe(9);
        reg.remove("session.1.lat");
        assert!(reg.snapshot().histogram("session.1.lat").is_none());
    }
}
