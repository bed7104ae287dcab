//! A lightweight metrics registry: counters, gauges, histograms, JSON
//! export.
//!
//! Simulator components (memory controller, LLC, chipkill engine) publish
//! their counters into one [`MetricsRegistry`], giving every experiment
//! binary a uniform observability surface: `registry.to_json().pretty()`
//! is the whole story of a run.
//!
//! Two recording speeds coexist:
//!
//! * **Registry calls** (`inc`, `set_gauge`, `observe`) take the map
//!   mutex per call — fine for publishing a finished stats struct or
//!   low-rate events.
//! * **Handles** ([`MetricsRegistry::counter_handle`] /
//!   [`MetricsRegistry::gauge_handle`]) resolve the name once and hand
//!   back the underlying atomic cell; recording through a handle is one
//!   `fetch_add`/`store`, safe from any number of threads, and never
//!   touches the registry lock — the shape per-op hot paths (shard
//!   workers, producer threads) need.
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
//! use pmck_rt::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! reg.inc("mem.reads", 3);
//! reg.set_gauge("llc.hit_rate", 0.93);
//! reg.observe("read.latency_ns", 120.0);
//! assert_eq!(reg.counter("mem.reads"), 3);
//!
//! // Hot-path form: resolve once, record lock-free.
//! let reads = reg.counter_handle("mem.reads");
//! reads.inc(1);
//! assert_eq!(reg.counter("mem.reads"), 4);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

    /// Records one float sample; negative or non-finite samples clamp
    /// to 0, fractional samples round to the nearest integer.
    pub fn observe(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.record(v.round() as u64);
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

/// A lock-free counter cell handed out by
/// [`MetricsRegistry::counter_handle`]. Cloning shares the same cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `by` (wrapping); safe from any thread, no lock.
    pub fn inc(&self, by: u64) {
        self.cell.fetch_add(by, Ordering::Relaxed);
    }

    /// Sets the absolute value.
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A lock-free gauge cell handed out by
/// [`MetricsRegistry::gauge_handle`]. Cloning shares the same cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge; safe from any thread, no lock.
    pub fn set(&self, value: f64) {
        self.cell.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Clone)]
enum Metric {
    /// The cell is shared with every handed-out [`Counter`], so
    /// `set_counter`/`inc` and handle recordings see one value.
    Counter(Arc<AtomicU64>),
    /// f64 bits, shared with every handed-out [`Gauge`].
    Gauge(Arc<AtomicU64>),
    Histogram(Histogram),
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

    /// Adds `by` to the counter `name` (creating it at 0).
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a gauge or histogram.
    pub fn inc(&self, name: &str, by: u64) {
        self.counter_cell(name).fetch_add(by, Ordering::Relaxed);
    }

    /// Sets the counter `name` to an absolute value (for publishing a
    /// finished stats struct in one shot).
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a gauge or histogram.
    pub fn set_counter(&self, name: &str, value: u64) {
        self.counter_cell(name).store(value, Ordering::Relaxed);
    }

    /// The shared atomic cell behind counter `name`, creating it at 0.
    /// Recording through the returned [`Counter`] never takes the
    /// registry lock — hand one to each hot-path thread.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a gauge or histogram.
    pub fn counter_handle(&self, name: &str) -> Counter {
        Counter {
            cell: self.counter_cell(name),
        }
    }

    fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        self.with_lock(|m| {
            match m
                .entry(name.to_owned())
                .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))))
            {
                Metric::Counter(cell) => Arc::clone(cell),
                _ => panic!("metric {name} is not a counter"),
            }
        })
    }

    /// Sets the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a counter or histogram.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.gauge_cell(name)
            .store(value.to_bits(), Ordering::Relaxed);
    }

    /// The shared atomic cell behind gauge `name`, creating it at 0.0.
    /// Recording through the returned [`Gauge`] never takes the
    /// registry lock.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a counter or histogram.
    pub fn gauge_handle(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.gauge_cell(name),
        }
    }

    fn gauge_cell(&self, name: &str) -> Arc<AtomicU64> {
        self.with_lock(|m| {
            match m
                .entry(name.to_owned())
                .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
            {
                Metric::Gauge(cell) => Arc::clone(cell),
                _ => panic!("metric {name} is not a gauge"),
            }
        })
    }

    /// Records a sample into the histogram `name` (creating it empty).
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a counter or gauge.
    pub fn observe(&self, name: &str, value: f64) {
        self.with_lock(|m| {
            match m
                .entry(name.to_owned())
                .or_insert_with(|| Metric::Histogram(Histogram::default()))
            {
                Metric::Histogram(h) => h.observe(value),
                _ => panic!("metric {name} is not a histogram"),
            }
        });
    }

    /// Merges a whole pre-aggregated histogram into `name` (creating it
    /// empty first) — the bulk-publication path for components that
    /// record into their own [`Histogram`] off-lock and flush
    /// periodically.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a counter or gauge.
    pub fn record_histogram(&self, name: &str, hist: &Histogram) {
        self.with_lock(|m| {
            match m
                .entry(name.to_owned())
                .or_insert_with(|| Metric::Histogram(Histogram::default()))
            {
                Metric::Histogram(h) => h.merge(hist),
                _ => panic!("metric {name} is not a histogram"),
            }
        });
    }

    /// Replaces the histogram `name` with a snapshot (overwrite, not
    /// merge) — for republishing a live histogram each reporting tick.
    pub fn set_histogram(&self, name: &str, hist: &Histogram) {
        self.with_lock(|m| {
            m.insert(name.to_owned(), Metric::Histogram(hist.clone()));
        });
    }

    /// Reads a counter (0 if absent or a different kind).
    pub fn counter(&self, name: &str) -> u64 {
        self.with_lock(|m| match m.get(name) {
            Some(Metric::Counter(v)) => v.load(Ordering::Relaxed),
            _ => 0,
        })
    }

    /// Reads a gauge (`None` if absent or a different kind).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.with_lock(|m| match m.get(name) {
            Some(Metric::Gauge(v)) => Some(f64::from_bits(v.load(Ordering::Relaxed))),
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

    /// The sorted metric names currently registered.
    pub fn names(&self) -> Vec<String> {
        self.with_lock(|m| m.keys().cloned().collect())
    }

    /// Removes every metric. Handles issued earlier keep working but
    /// are orphaned (their cells are no longer exported).
    pub fn clear(&self) {
        self.with_lock(|m| m.clear());
    }

    /// Exports every metric as one JSON object, keys sorted; counters
    /// become integers, gauges floats, histograms summary objects.
    pub fn to_json(&self) -> Json {
        self.with_lock(|m| {
            let mut out = Json::object();
            for (name, metric) in m.iter() {
                match metric {
                    Metric::Counter(v) => out.set(name.clone(), v.load(Ordering::Relaxed)),
                    Metric::Gauge(v) => {
                        out.set(name.clone(), f64::from_bits(v.load(Ordering::Relaxed)))
                    }
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
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        reg.inc("a", 1);
        reg.inc("a", 2);
        assert_eq!(reg.counter("a"), 3);
        assert_eq!(reg.counter("missing"), 0);
        reg.set_counter("a", 10);
        assert_eq!(reg.counter("a"), 10);
    }

    #[test]
    fn counter_handles_share_the_cell() {
        let reg = MetricsRegistry::new();
        let h1 = reg.counter_handle("ops");
        let h2 = reg.counter_handle("ops");
        h1.inc(5);
        h2.inc(7);
        assert_eq!(h1.get(), 12);
        assert_eq!(reg.counter("ops"), 12);
        // set_counter writes the same cell the handles hold.
        reg.set_counter("ops", 100);
        assert_eq!(h2.get(), 100);
        h1.set(3);
        assert_eq!(reg.counter("ops"), 3);
    }

    #[test]
    fn handles_record_concurrently_without_the_lock() {
        let reg = MetricsRegistry::new();
        let h = reg.counter_handle("t");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.inc(1);
                    }
                });
            }
        });
        assert_eq!(reg.counter("t"), 4000);
    }

    #[test]
    fn gauges_overwrite() {
        let reg = MetricsRegistry::new();
        reg.set_gauge("g", 1.5);
        reg.set_gauge("g", 2.5);
        assert_eq!(reg.gauge("g"), Some(2.5));
        assert_eq!(reg.gauge("missing"), None);
        let h = reg.gauge_handle("g");
        h.set(-0.25);
        assert_eq!(reg.gauge("g"), Some(-0.25));
        assert_eq!(h.get(), -0.25);
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
        reg.inc("x", 1);
    }

    #[test]
    fn json_export_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.inc("z.counter", 5);
        reg.set_gauge("a.gauge", 0.5);
        reg.observe("m.hist", 7.0);
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
    fn record_histogram_merges_and_set_histogram_overwrites() {
        let reg = MetricsRegistry::new();
        let mut local = Histogram::default();
        for v in [10u64, 20, 30] {
            local.record(v);
        }
        reg.record_histogram("lat", &local);
        reg.record_histogram("lat", &local);
        assert_eq!(reg.histogram("lat").unwrap().count(), 6);
        reg.set_histogram("lat", &local);
        assert_eq!(reg.histogram("lat").unwrap(), local);
    }

    #[test]
    fn shared_across_threads() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        reg.inc("t", 1);
                    }
                });
            }
        });
        assert_eq!(reg.counter("t"), 4000);
    }
}
