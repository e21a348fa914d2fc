//! Lock-light metrics: atomic counters, gauges, and log-bucketed
//! histograms with deterministic percentile readout, collected in a
//! shared [`Registry`].
//!
//! All handles are cheap clones of `Arc`-backed inners; every hot-path
//! operation (`inc`, `add`, `set`, `observe`) is a handful of relaxed
//! atomic ops and never takes a lock. The registry's lock is only touched
//! on metric creation and export.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    inner: Arc<AtomicU64>,
}

impl Counter {
    /// Creates an unregistered counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }

    /// Overwrites the value. For scrape-time views only: a total that
    /// state outside the registry owns (e.g. the store's evictions),
    /// copied in when a snapshot is rendered. A component that counts events writes its counter live
    /// with [`Counter::add`] instead; do not mix the two on one counter.
    pub fn store(&self, v: u64) {
        self.inner.store(v, Ordering::Relaxed);
    }
}

/// A gauge holding an arbitrary `f64` (stored as bits in an atomic).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Creates an unregistered gauge starting at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

// Histogram bucket layout: values are recorded in integer microseconds.
// The first `LINEAR_BUCKETS` buckets hold one microsecond each (exact for
// sub-128us values); above that, each power-of-two octave is split into
// `SUBS` linear sub-buckets, giving a worst-case relative error of
// 1/SUBS = 6.25%. Values above ~2^40us (~12.7 days) clamp into the last
// bucket.
const LINEAR_BUCKETS: usize = 128;
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
const MIN_EXP: u32 = 7;
const MAX_EXP: u32 = 39;
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
const BUCKETS: usize = LINEAR_BUCKETS + OCTAVES * SUBS;
const CLAMP_MAX: u64 = (1u64 << (MAX_EXP + 1)) - 1;

fn bucket_index(v: u64) -> usize {
    let v = v.min(CLAMP_MAX);
    if v < LINEAR_BUCKETS as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) as usize & (SUBS - 1);
    LINEAR_BUCKETS + (exp - MIN_EXP) as usize * SUBS + sub
}

/// Lower bound of the value range a bucket covers, in microseconds. This
/// is the representative value percentile queries report, so readouts are
/// deterministic and exact whenever recorded values are aligned to the
/// bucket resolution (always true below 128us).
fn bucket_low(index: usize) -> u64 {
    if index < LINEAR_BUCKETS {
        return index as u64;
    }
    let octave = (index - LINEAR_BUCKETS) / SUBS;
    let sub = (index - LINEAR_BUCKETS) % SUBS;
    ((SUBS + sub) as u64) << (MIN_EXP + octave as u32 - SUB_BITS)
}

struct HistogramInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
    min_us: AtomicU64,
}

/// A log-bucketed latency histogram recording microsecond samples.
///
/// Percentiles walk the bucket array and report the bucket's lower bound,
/// except that the top rank reports the exact observed maximum — so
/// `quantile(1.0)` (and any quantile whose rank lands on the last sample)
/// is always exact, and every readout is deterministic for a given sample
/// multiset.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("mean_ms", &self.mean_ms())
            .field("max_ms", &self.max_ms())
            .finish()
    }
}

impl Histogram {
    /// Creates an unregistered, empty histogram.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, || AtomicU64::new(0));
        Self {
            inner: Arc::new(HistogramInner {
                buckets,
                count: AtomicU64::new(0),
                sum_us: AtomicU64::new(0),
                max_us: AtomicU64::new(0),
                min_us: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// Records one sample, in microseconds.
    pub fn observe_us(&self, us: u64) {
        let us = us.min(CLAMP_MAX);
        let i = &self.inner;
        i.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        i.count.fetch_add(1, Ordering::Relaxed);
        i.sum_us.fetch_add(us, Ordering::Relaxed);
        i.max_us.fetch_max(us, Ordering::Relaxed);
        i.min_us.fetch_min(us, Ordering::Relaxed);
    }

    /// Records one sample, in milliseconds (rounded to the nearest
    /// microsecond; negative and non-finite samples are ignored).
    pub fn observe(&self, ms: f64) {
        if ms.is_finite() && ms >= 0.0 {
            self.observe_us((ms * 1000.0).round() as u64);
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.inner.sum_us.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// Mean sample, in milliseconds (`0.0` when empty).
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_ms() / n as f64
        }
    }

    /// Exact maximum sample, in milliseconds (`0.0` when empty).
    pub fn max_ms(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.inner.max_us.load(Ordering::Relaxed) as f64 / 1000.0
        }
    }

    /// Exact minimum sample, in milliseconds (`0.0` when empty).
    pub fn min_ms(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.inner.min_us.load(Ordering::Relaxed) as f64 / 1000.0
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), in milliseconds.
    ///
    /// Rank semantics: for `n` samples the query targets rank
    /// `clamp(ceil(q*n), 1, n)`; the answer is the lower bound of the
    /// bucket holding that rank, or the exact maximum when the rank is
    /// `n`. Returns `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        if rank == n {
            return self.max_ms();
        }
        let mut cum = 0u64;
        for (idx, b) in self.inner.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_low(idx) as f64 / 1000.0;
            }
        }
        self.max_ms()
    }

    /// Convenience: `(p50, p95, p99, max)` in milliseconds.
    pub fn percentiles(&self) -> (f64, f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
            self.max_ms(),
        )
    }
}

/// One registered metric handle.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Counter),
    /// A [`Gauge`].
    Gauge(Gauge),
    /// A [`Histogram`].
    Histogram(Histogram),
}

/// A shared, order-stable collection of named metrics.
///
/// Names may carry Prometheus-style labels inline, e.g.
/// `vqpy_delivery_latency_ms{query="RedCar"}`; the exporter splits the
/// base name off for `# TYPE` lines and merges `quantile` labels into the
/// existing set. Looking up an existing name returns a clone of the same
/// handle, so e.g. a re-attached query keeps accumulating into its
/// original histogram.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.metrics.lock().len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// A point-in-time copy of every registered metric handle, sorted by
    /// name.
    pub fn snapshot(&self) -> Vec<(String, Metric)> {
        self.metrics
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// Escapes a string for use as a Prometheus label value (backslash,
/// double quote, and newline). Use when building labelled metric names
/// from untrusted strings, e.g. user-supplied query names.
pub fn label_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_buckets_are_exact_microseconds() {
        let h = Histogram::new();
        for us in 1..=100u64 {
            h.observe_us(us);
        }
        // All samples sit in the 1us-exact linear range, so every readout
        // is exact: rank(ceil(q*100)).
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), 0.050);
        assert_eq!(h.quantile(0.95), 0.095);
        assert_eq!(h.quantile(0.99), 0.099);
        assert_eq!(h.max_ms(), 0.100);
        assert_eq!(h.min_ms(), 0.001);
        assert!((h.mean_ms() - 0.0505).abs() < 1e-12, "{}", h.mean_ms());
    }

    #[test]
    fn log_buckets_report_deterministic_lower_bounds() {
        let h = Histogram::new();
        // 50_000us lies in the [32768, 65536) octave with 2048us
        // resolution: its bucket's lower bound is 49_152us.
        for _ in 0..10 {
            h.observe_us(50_000);
        }
        h.observe_us(60_000);
        assert_eq!(h.quantile(0.5), 49.152);
        // The top rank always reports the exact max.
        assert_eq!(h.quantile(1.0), 60.0);
        assert_eq!(h.max_ms(), 60.0);
    }

    #[test]
    fn bucket_low_inverts_bucket_index_on_aligned_values() {
        for v in [0u64, 1, 17, 127, 128, 200, 1 << 20, (16 + 9) << 10] {
            let idx = bucket_index(v);
            let low = bucket_low(idx);
            assert!(low <= v, "low {low} > v {v}");
            assert_eq!(bucket_index(low), idx, "v={v}");
        }
        // Aligned values round-trip exactly.
        assert_eq!(bucket_low(bucket_index(200)), 200);
        assert_eq!(bucket_low(bucket_index(1 << 20)), 1 << 20);
    }

    #[test]
    fn observe_ms_rounds_and_guards() {
        let h = Histogram::new();
        h.observe(0.0421); // 42.1us -> 42us
        h.observe(-5.0); // ignored
        h.observe(f64::NAN); // ignored
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), 0.042);
    }

    #[test]
    fn clamp_does_not_panic_or_misfile() {
        let h = Histogram::new();
        h.observe_us(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(0.5) > 0.0);
    }

    #[test]
    fn registry_returns_same_handle_for_same_name() {
        let r = Registry::new();
        r.counter("hits").add(3);
        r.counter("hits").add(4);
        assert_eq!(r.counter("hits").get(), 7);
        r.gauge("depth").set(2.5);
        assert_eq!(r.gauge("depth").get(), 2.5);
        r.histogram("lat_ms").observe_us(10);
        assert_eq!(r.histogram("lat_ms").count(), 1);
        assert_eq!(r.snapshot().len(), 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }
}
