//! Lock-free counters, gauges, and fixed-bucket histograms behind a
//! named registry.
//!
//! Hot paths ([`Counter::add`], [`Gauge::set`], [`Histogram::observe`])
//! are single relaxed atomic RMWs — safe to call from every worker
//! thread on every request. Registration hands out `Arc` handles so
//! callers hold their metrics directly and never touch the registry map
//! after startup; [`Registry::snapshot`] and [`Registry::to_ndjson`] walk
//! the map under its lock, off the request path.
//!
//! Histograms use caller-chosen inclusive upper bucket edges plus an
//! implicit unbounded overflow bucket, and track `count` and `sum` so
//! snapshots can report a mean alongside the distribution.

use crate::json_escape;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const: usable in statics).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed value (e.g. resident models, in-flight requests).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge (const: usable in statics).
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram: inclusive upper edges plus an overflow
/// bucket, with total count and sum.
#[derive(Debug)]
pub struct Histogram {
    edges: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// Point-in-time copy of a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper edge per bucket; `None` is the overflow bucket.
    pub buckets: Vec<(Option<u64>, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Histogram {
    /// A histogram over the given strictly increasing inclusive upper
    /// edges (an overflow bucket is appended automatically).
    ///
    /// # Panics
    ///
    /// Panics when `edges` is empty or not strictly increasing.
    pub fn new(edges: &[u64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        Histogram {
            edges: edges.to_vec(),
            buckets: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The configured inclusive upper edges (overflow excluded).
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Records one observation: the first bucket whose edge is `>= v`,
    /// or the overflow bucket.
    #[inline]
    pub fn observe(&self, v: u64) {
        // Linear scan: stage histograms have ≤ 8 edges, and the scan is
        // branch-predictable; a binary search would cost more in practice.
        let idx = self
            .edges
            .iter()
            .position(|&edge| v <= edge)
            .unwrap_or(self.edges.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copies every bucket.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, b)| (self.edges.get(i).copied(), b.load(Ordering::Relaxed)))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// A registered metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram snapshot.
    Histogram(HistogramSnapshot),
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics.
///
/// Registration is idempotent per name/type — asking again returns the
/// same handle — and name order in snapshots is deterministic
/// (lexicographic), so NDJSON output diffs cleanly.
#[derive(Default)]
pub struct Registry {
    map: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        // A poisoned registry lock only ever means a panic mid-snapshot;
        // the map itself is always structurally sound.
        match self.map.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// The counter named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric '{name}' is not a counter"),
        }
    }

    /// The gauge named `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different type.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric '{name}' is not a gauge"),
        }
    }

    /// The histogram named `name`, creating it with `edges` on first use
    /// (later calls ignore `edges` and return the existing histogram).
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different type, or
    /// on invalid `edges` at first registration.
    pub fn histogram(&self, name: &str, edges: &[u64]) -> Arc<Histogram> {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(edges))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric '{name}' is not a histogram"),
        }
    }

    /// Every metric's current value, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.lock()
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), v)
            })
            .collect()
    }

    /// One NDJSON line per metric:
    /// `{"metric":"...","type":"counter","value":N}` (histograms carry
    /// `buckets`/`count`/`sum`/`mean`).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            out.push_str("{\"metric\":");
            json_escape(&mut out, &name);
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(",\"type\":\"counter\",\"value\":{v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(",\"type\":\"gauge\",\"value\":{v}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(",\"type\":\"histogram\",\"buckets\":[");
                    for (i, (edge, count)) in h.buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        match edge {
                            Some(e) => out.push_str(&format!("{{\"le\":{e},\"count\":{count}}}")),
                            None => {
                                out.push_str(&format!("{{\"le\":\"inf\",\"count\":{count}}}"));
                            }
                        }
                    }
                    out.push_str(&format!(
                        "],\"count\":{},\"sum\":{},\"mean\":{:.1}}}",
                        h.count,
                        h.sum,
                        h.mean()
                    ));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_bucket_selection_is_inclusive() {
        let h = Histogram::new(&[10, 100]);
        h.observe(0);
        h.observe(10); // inclusive: lands in the first bucket
        h.observe(11);
        h.observe(100);
        h.observe(101); // overflow
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![(Some(10), 2), (Some(100), 2), (None, 1)]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 222);
        assert!((s.mean() - 44.4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_edges() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn registry_hands_out_shared_handles() {
        let r = Registry::new();
        let a = r.counter("requests");
        let b = r.counter("requests");
        a.add(3);
        assert_eq!(b.get(), 3);
        r.gauge("inflight").set(2);
        r.histogram("lat", &[1, 2]).observe(2);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["inflight", "lat", "requests"], "sorted");
        let text = r.to_ndjson();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"metric\":\"requests\",\"type\":\"counter\",\"value\":3"));
        assert!(text.contains("{\"le\":\"inf\",\"count\":0}"));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn registry_rejects_type_confusion() {
        let r = Registry::new();
        r.gauge("x");
        r.counter("x");
    }
}
