//! A lightweight metrics registry: counters, gauges, histograms, JSON
//! export.
//!
//! Simulator components (memory controller, LLC, chipkill engine) publish
//! their counters into one [`MetricsRegistry`], giving every experiment
//! binary a uniform observability surface: `registry.to_json().pretty()`
//! is the whole story of a run.
//!
//! The registry is where finished numbers are published, not where they
//! are counted: a component keeps its own plain counters (a stats struct)
//! and [`Histogram`]s on its hot path and hands them over with
//! `set_counter` / `set_gauge` / `set_histogram`, one map lock per call.
//!
//! [`Histogram`] is an HDR-style log-bucketed histogram: power-of-two
//! major buckets refined by 16 linear sub-buckets each, so any recorded
//! value is off by at most 1/16 (6.25%) and p50/p99/p999 extraction
//! ([`Histogram::quantile`]) is a single bucket walk. Latency samples in
//! nanoseconds span nine decades; this layout covers the full `u64`
//! range in 976 counters.
//!
//! # Examples
//!
//! ```
//! use pmck_rt::metrics::Histogram;
//! use pmck_rt::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! reg.set_counter("mem.reads", 3);
//! reg.set_gauge("llc.hit_rate", 0.93);
//! let mut latency = Histogram::new();
//! latency.record(120);
//! reg.set_histogram("read.latency_ns", &latency);
//! assert_eq!(reg.counter("mem.reads"), 3);
//! assert_eq!(reg.histogram("read.latency_ns").unwrap().count(), 1);
//! ```

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::Json;

/// Linear sub-buckets per power-of-two major bucket (and the size of
/// the leading exact-value region `0..16`).
const SUB: usize = 16;
const SUB_BITS: u32 = 4;
/// 16 exact low buckets + 16 sub-buckets for each exponent 4..=63.
const HIST_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// An HDR-style histogram of non-negative integer samples (latencies in
/// nanoseconds, sizes in bytes, ...).
///
/// Values `0..16` are exact; larger values land in the sub-bucket
/// `[v, v·(1+1/16))` of their power of two, so quantiles are tight to
/// 6.25% across the whole `u64` range with a fixed 976-slot footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Box<[u64; HIST_BUCKETS]>,
    sum: f64,
    count: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([0; HIST_BUCKETS]),
            sum: 0.0,
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            v as usize
        } else {
            let e = 63 - v.leading_zeros(); // 4..=63
            let sub = ((v >> (e - SUB_BITS)) & (SUB as u64 - 1)) as usize;
            SUB + (e - SUB_BITS) as usize * SUB + sub
        }
    }

    /// The largest value mapping into bucket `i` (the bound
    /// [`Histogram::quantile`] reports).
    fn bucket_upper(i: usize) -> u64 {
        if i < SUB {
            i as u64
        } else {
            let e = (i - SUB) / SUB + SUB_BITS as usize;
            let sub = ((i - SUB) % SUB) as u128;
            let upper = (SUB as u128 + sub + 1) << (e - SUB_BITS as usize);
            u64::try_from(upper - 1).unwrap_or(u64::MAX)
        }
    }

    /// Records one integer sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.sum += v as f64;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile: an upper bound within 1/16 of the true value
    /// (0 when empty; `q` clamps to `[0, 1]`). `quantile(0.5)` is the
    /// median bucket's upper edge, `quantile(0.999)` the p999.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Never report past the actually-observed extremes.
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    fn to_json(&self) -> Json {
        let mut j = Json::object();
        j.set("count", self.count);
        j.set("sum", self.sum);
        j.set("mean", self.mean());
        j.set("min", self.min());
        j.set("max", self.max());
        j.set("p50", self.quantile(0.5));
        j.set("p99", self.quantile(0.99));
        j.set("p999", self.quantile(0.999));
        j
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// Names are free-form; the convention used by the simulators is
/// dotted paths with a component prefix (`mem.row_hits`,
/// `llc.omv_hits`, `core.fallbacks`).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_lock<T>(&self, f: impl FnOnce(&mut BTreeMap<String, Metric>) -> T) -> T {
        f(&mut self.metrics.lock().expect("metrics registry poisoned"))
    }

    /// Stores `metric` under `name`, replacing a metric of the same kind.
    fn set(&self, name: &str, metric: Metric) {
        self.with_lock(|m| match m.get_mut(name) {
            Some(old) if old.kind() != metric.kind() => {
                panic!("metric {name} is not a {}", metric.kind())
            }
            Some(old) => *old = metric,
            None => {
                m.insert(name.to_owned(), metric);
            }
        });
    }

    /// Sets the counter `name` to an absolute value (for publishing a
    /// finished stats struct in one shot).
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a gauge or histogram.
    pub fn set_counter(&self, name: &str, value: u64) {
        self.set(name, Metric::Counter(value));
    }

    /// Sets the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a counter or histogram.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.set(name, Metric::Gauge(value));
    }

    /// Replaces the histogram `name` with a snapshot (overwrite, not
    /// merge) — for republishing a live histogram each reporting tick.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a counter or gauge.
    pub fn set_histogram(&self, name: &str, hist: &Histogram) {
        self.set(name, Metric::Histogram(hist.clone()));
    }

    /// Reads a counter (0 if absent or a different kind).
    pub fn counter(&self, name: &str) -> u64 {
        self.with_lock(|m| match m.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        })
    }

    /// Reads a gauge (`None` if absent or a different kind).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.with_lock(|m| match m.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        })
    }

    /// Reads a snapshot of the histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.with_lock(|m| match m.get(name) {
            Some(Metric::Histogram(h)) => Some(h.clone()),
            _ => None,
        })
    }

    /// Exports every metric as one JSON object, keys sorted; counters
    /// become integers, gauges floats, histograms summary objects.
    pub fn to_json(&self) -> Json {
        self.with_lock(|m| {
            let mut out = Json::object();
            for (name, metric) in m.iter() {
                match metric {
                    Metric::Counter(v) => out.set(name.clone(), *v),
                    Metric::Gauge(v) => out.set(name.clone(), *v),
                    Metric::Histogram(h) => out.set(name.clone(), h.to_json()),
                };
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_overwrite() {
        let reg = MetricsRegistry::new();
        reg.set_counter("a", 3);
        reg.set_counter("a", 10);
        assert_eq!(reg.counter("a"), 10);
        assert_eq!(reg.counter("missing"), 0);
        reg.set_gauge("g", 1.5);
        reg.set_gauge("g", 2.5);
        assert_eq!(reg.gauge("g"), Some(2.5));
        assert_eq!(reg.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_are_tight() {
        // Exact below 16.
        for v in 0..16u64 {
            assert_eq!(Histogram::bucket_upper(Histogram::bucket(v)), v);
        }
        // Within 1/16 above.
        for &v in &[16u64, 100, 1000, 123_456, u32::MAX as u64, u64::MAX / 3] {
            let upper = Histogram::bucket_upper(Histogram::bucket(v));
            assert!(upper >= v, "{v}: upper {upper}");
            assert!(
                (upper - v) as f64 <= v as f64 / 16.0 + 1.0,
                "{v}: upper {upper} too loose"
            );
        }
        assert_eq!(
            Histogram::bucket_upper(Histogram::bucket(u64::MAX)),
            u64::MAX
        );
    }

    #[test]
    fn histogram_summary_and_quantiles() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 26.5).abs() < 1e-12);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!(h.quantile(0.5) <= 4);
        assert!(h.quantile(1.0) >= 100);
        let empty = Histogram::default();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.min(), 0);

        // A long-tailed latency shape: quantiles order correctly and
        // land inside 1/16 of the true order statistics.
        let mut lat = Histogram::default();
        for i in 0..1000u64 {
            lat.record(100 + i); // uniform 100..1100
        }
        lat.record(1_000_000); // one outlier
        let (p50, p99, p999) = (lat.quantile(0.5), lat.quantile(0.99), lat.quantile(0.999));
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        assert!((550..=700).contains(&p50), "p50 {p50}");
        assert!((1050..=1200).contains(&p99), "p99 {p99}");
        // True p999 order statistic is 1099; the bound is its bucket's
        // upper edge, within 1/16.
        assert!((1099..=1099 + 1099 / 16 + 1).contains(&p999), "p999 {p999}");
        assert_eq!(lat.quantile(1.0), 1_000_000);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut both = Histogram::default();
        for i in 0..500u64 {
            a.record(i * 3);
            both.record(i * 3);
        }
        for i in 0..300u64 {
            b.record(i * 7 + 1);
            both.record(i * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a, both);
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.set_gauge("x", 1.0);
        reg.set_counter("x", 1);
    }

    #[test]
    fn json_export_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.set_counter("z.counter", 5);
        reg.set_gauge("a.gauge", 0.5);
        let mut hist = Histogram::new();
        hist.record(7);
        reg.set_histogram("m.hist", &hist);
        let j = reg.to_json();
        let keys: Vec<&str> = j
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["a.gauge", "m.hist", "z.counter"]);
        assert_eq!(j.get("z.counter").unwrap().as_u64(), Some(5));
        assert_eq!(j.get("a.gauge").unwrap().as_f64(), Some(0.5));
        let hist = j.get("m.hist").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("p999").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn set_histogram_overwrites() {
        let reg = MetricsRegistry::new();
        let mut local = Histogram::default();
        for v in [10u64, 20, 30] {
            local.record(v);
            reg.set_histogram("lat", &local);
        }
        assert_eq!(reg.histogram("lat").unwrap(), local);
    }
}
