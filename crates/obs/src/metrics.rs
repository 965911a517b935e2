//! The metric primitives and the name-keyed [`Registry`].
//!
//! Recording is a single relaxed atomic op on a pre-resolved `Arc` handle;
//! the registry lock is only taken to resolve a name to a handle (done
//! once per call site) and to snapshot. Relaxed ordering is deliberate:
//! metrics are monotone tallies read after the fact, not synchronization
//! edges — a snapshot racing a recorder may miss the in-flight increment,
//! never see a torn one.

use crate::ring::TimeRing;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Longest accepted metric name (registration and remote reports).
pub const MAX_NAME_LEN: usize = 120;

/// Hard capacity of a [`CounterVec`]: cells are allocated up front so
/// indexed recording never locks or reallocates. 64 shards is far beyond
/// any deployment this workspace builds.
pub const COUNTER_VEC_CAPACITY: usize = 64;

/// Number of log₂ buckets per [`Histogram`]: values up to `2^39 - 1`
/// (≈ 9 days in µs) resolve to their power-of-two bucket; larger ones
/// clamp into the last.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A monotonically increasing event tally.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Count one event.
    pub fn inc(&self) {
        self.v.fetch_add(1, Relaxed);
    }

    /// Count `n` events at once.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Relaxed);
    }

    /// The tally so far.
    pub fn get(&self) -> u64 {
        self.v.load(Relaxed)
    }
}

/// A fixed family of counters indexed by a small integer — the per-shard
/// dimension of metrics like `kv.reads_fast`. All
/// [`COUNTER_VEC_CAPACITY`] cells exist from construction; `len` only
/// tracks the highest index a call site declared, so snapshots print the
/// meaningful prefix.
#[derive(Debug)]
pub struct CounterVec {
    cells: Vec<Counter>,
    len: AtomicUsize,
}

impl CounterVec {
    fn new(len: usize) -> CounterVec {
        let cells = (0..COUNTER_VEC_CAPACITY)
            .map(|_| Counter::default())
            .collect();
        CounterVec {
            cells,
            len: AtomicUsize::new(len.min(COUNTER_VEC_CAPACITY)),
        }
    }

    /// Grow the printed prefix to at least `len` cells (never shrinks).
    pub fn declare_len(&self, len: usize) {
        self.len.fetch_max(len.min(COUNTER_VEC_CAPACITY), Relaxed);
    }

    /// Count one event in cell `i` (clamped into capacity).
    pub fn inc(&self, i: usize) {
        self.add(i, 1);
    }

    /// Count `n` events in cell `i` (clamped into capacity).
    pub fn add(&self, i: usize, n: u64) {
        self.cells[i.min(COUNTER_VEC_CAPACITY - 1)].add(n);
    }

    /// The tally of cell `i` (0 beyond capacity).
    pub fn get(&self, i: usize) -> u64 {
        self.cells.get(i).map_or(0, Counter::get)
    }

    /// Sum across every cell.
    pub fn total(&self) -> u64 {
        self.cells.iter().map(Counter::get).sum()
    }

    /// The declared cell count (snapshot prefix length).
    pub fn len(&self) -> usize {
        self.len.load(Relaxed)
    }

    /// Whether no cell was ever declared.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The declared prefix of cell values.
    pub fn cells(&self) -> Vec<u64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

/// A fixed-memory log₂-bucketed histogram: recording a value is three
/// relaxed atomic ops (bucket, sum, count) plus a `fetch_max`. Quantiles
/// are read back as bucket upper bounds — exact enough for latency
/// dashboards, bounded regardless of traffic.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// One histogram, read out at a point in time.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Mean recorded value (0.0 when empty).
    pub mean: f64,
    /// Median, as the upper bound of the bucket holding it.
    pub p50: u64,
    /// 95th percentile, as a bucket upper bound.
    pub p95: u64,
    /// 99th percentile, as a bucket upper bound.
    pub p99: u64,
    /// Largest value recorded (exact, not bucketed).
    pub max: u64,
}

fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Upper bound of bucket `b`: bucket 0 holds exactly 0, bucket `b ≥ 1`
/// holds `[2^(b-1), 2^b - 1]`.
fn bucket_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        (1u64 << b) - 1
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// containing it; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, c) in self.buckets.iter().enumerate() {
            seen += c.load(Relaxed);
            if seen >= target {
                // The true max is tracked exactly; never report a bucket
                // bound beyond it.
                return bucket_bound(b).min(self.max.load(Relaxed));
            }
        }
        self.max.load(Relaxed)
    }

    /// Read the whole histogram out at once.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let sum = self.sum.load(Relaxed);
        HistogramSnapshot {
            count,
            sum,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max.load(Relaxed),
        }
    }
}

/// The four shapes a registered metric can take.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Vec(Arc<CounterVec>),
    Histogram(Arc<Histogram>),
    Ring(Arc<TimeRing>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Vec(_) => "counter_vec",
            Metric::Histogram(_) => "histogram",
            Metric::Ring(_) => "ring",
        }
    }
}

/// A name-keyed collection of metrics. One process-wide instance lives
/// behind [`Registry::global`]; tests that need exact, isolated counts
/// build their own with [`Registry::new`] and thread it through
/// (`StoreConfig::with_metrics` does exactly that).
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().expect("registry lock").len();
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

/// Valid metric names are short and drawn from `[A-Za-z0-9._-]` — which
/// also makes them JSON-safe without escaping.
pub(crate) fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry every production seam records into.
    pub fn global() -> Arc<Registry> {
        static GLOBAL: std::sync::OnceLock<Arc<Registry>> = std::sync::OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(Registry::new())))
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut metrics = self.metrics.lock().expect("registry lock");
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Resolve (or create) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.register(name, || Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Resolve (or create) the counter family `name`, declaring at least
    /// `len` cells.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another kind.
    pub fn counter_vec(&self, name: &str, len: usize) -> Arc<CounterVec> {
        match self.register(name, || Metric::Vec(Arc::new(CounterVec::new(len)))) {
            Metric::Vec(v) => {
                v.declare_len(len);
                v
            }
            other => panic!("metric {name:?} is a {}, not a counter_vec", other.kind()),
        }
    }

    /// Resolve (or create) the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.register(name, || Metric::Histogram(Arc::new(Histogram::default()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Resolve (or create) the time ring `name` with `slots` slots of
    /// `period` each (an existing ring keeps its original geometry).
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid or already registered as another kind.
    pub fn ring(&self, name: &str, slots: usize, period: Duration) -> Arc<TimeRing> {
        match self.register(name, || {
            Metric::Ring(Arc::new(TimeRing::new(slots, period)))
        }) {
            Metric::Ring(r) => r,
            other => panic!("metric {name:?} is a {}, not a ring", other.kind()),
        }
    }

    /// Add `n` to counter `name`, creating it on first sight — the entry
    /// point for counts *reported over the wire* (`Frame::Report`).
    /// Returns `false` (and records nothing) for invalid names or names
    /// registered as a non-counter: remote input must never panic the
    /// server or corrupt another metric's type.
    pub fn add_counter(&self, name: &str, n: u64) -> bool {
        if !valid_name(name) {
            return false;
        }
        match self.register(name, || Metric::Counter(Arc::new(Counter::default()))) {
            Metric::Counter(c) => {
                c.add(n);
                true
            }
            _ => false,
        }
    }

    /// The current value of counter `name` (counter-vec totals included);
    /// 0 if absent.
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.metrics.lock().expect("registry lock").get(name) {
            Some(Metric::Counter(c)) => c.get(),
            Some(Metric::Vec(v)) => v.total(),
            _ => 0,
        }
    }

    /// Serialize every metric as the `rastor-metrics/v1` JSON document.
    ///
    /// Line discipline: every counter — including each declared
    /// `counter_vec` cell as `name.<i>`, next to the family total under its
    /// bare name — is one `"name": value` line, so [`flat_counters`] can
    /// read the document back without a JSON parser. Histograms and rings
    /// serialize as one object/array line each.
    pub fn snapshot_json(&self) -> String {
        let metrics = self.metrics.lock().expect("registry lock");
        let mut counters: Vec<String> = Vec::new();
        let mut histograms: Vec<String> = Vec::new();
        let mut rings: Vec<String> = Vec::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => counters.push(format!("\"{name}\": {}", c.get())),
                Metric::Vec(v) => {
                    counters.push(format!("\"{name}\": {}", v.total()));
                    for (i, cell) in v.cells().into_iter().enumerate() {
                        counters.push(format!("\"{name}.{i}\": {cell}"));
                    }
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    histograms.push(format!(
                        "\"{name}\": {{\"count\":{},\"sum\":{},\"mean\":{:.2},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                        s.count, s.sum, s.mean, s.p50, s.p95, s.p99, s.max
                    ));
                }
                Metric::Ring(r) => {
                    let mut slots = String::new();
                    for (i, s) in r.snapshot().iter().enumerate() {
                        let _ = write!(
                            slots,
                            "{}[{},{},{},{:.2},{}]",
                            if i == 0 { "" } else { "," },
                            s.tick,
                            s.count,
                            s.min,
                            s.mean(),
                            s.max
                        );
                    }
                    rings.push(format!(
                        "\"{name}\": {{\"period_secs\":{},\"slots\":[{slots}]}}",
                        r.period().as_secs()
                    ));
                }
            }
        }
        let mut out = String::from("{\n\"schema\": \"rastor-metrics/v1\",\n");
        let _ = write!(out, "\"counters\": {{\n{}\n}},\n", counters.join(",\n"));
        let _ = write!(out, "\"histograms\": {{\n{}\n}},\n", histograms.join(",\n"));
        let _ = write!(out, "\"rings\": {{\n{}\n}}\n}}\n", rings.join(",\n"));
        out
    }
}

/// Scan a [`Registry::snapshot_json`] document for its plain-counter
/// lines (`"name": value`), in document order. Histogram/ring lines (and
/// anything else) are skipped — the reader counterpart of the emitter's
/// one-counter-per-line discipline.
pub fn flat_counters(doc: &str) -> Vec<(String, u64)> {
    doc.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            let rest = line.strip_prefix('"')?;
            let (name, rest) = rest.split_once('"')?;
            let value = rest.trim().strip_prefix(':')?.trim();
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_tally() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn counter_vec_indexes_and_totals() {
        let v = CounterVec::new(3);
        v.inc(0);
        v.add(2, 7);
        assert_eq!(v.get(0), 1);
        assert_eq!(v.get(1), 0);
        assert_eq!(v.get(2), 7);
        assert_eq!(v.total(), 8);
        assert_eq!(v.cells(), vec![1, 0, 7]);
        // Out-of-capacity indices clamp instead of panicking.
        v.inc(COUNTER_VEC_CAPACITY + 5);
        assert_eq!(v.get(COUNTER_VEC_CAPACITY - 1), 1);
    }

    #[test]
    fn counter_vec_len_grows_never_shrinks() {
        let v = CounterVec::new(2);
        v.declare_len(5);
        v.declare_len(3);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(10), 1023);
    }

    /// The deterministic-aggregation contract: a fixed value stream
    /// produces exact bucket counts and quantiles, run after run.
    #[test]
    fn histogram_aggregation_is_exact() {
        let h = Histogram::default();
        for v in [0u64, 1, 1, 2, 3, 500, 1000, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 2531);
        assert_eq!(s.max, 1024);
        // Median (target = 4th of 8) lands in bucket [2,3] → bound 3.
        assert_eq!(s.p50, 3);
        // p95 and p99 (both target = 8th of 8) land in the 1024 bucket,
        // capped by the exact max.
        assert_eq!(s.p95, 1024);
        assert_eq!(s.p99, 1024);
        assert!((s.mean - 316.375).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
    }

    #[test]
    fn registry_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("x.count");
        let b = r.counter("x.count");
        a.inc();
        b.inc();
        assert_eq!(r.counter_value("x.count"), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "not a histogram")]
    fn registry_refuses_kind_confusion() {
        let r = Registry::new();
        r.counter("x");
        r.histogram("x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_refuses_json_hostile_names() {
        Registry::new().counter("evil\"name");
    }

    #[test]
    fn remote_reports_never_panic() {
        let r = Registry::new();
        r.histogram("h");
        assert!(!r.add_counter("h", 1), "kind confusion is refused");
        assert!(!r.add_counter("bad\"name", 1), "hostile names are refused");
        assert!(!r.add_counter(&"x".repeat(MAX_NAME_LEN + 1), 1));
        assert!(r.add_counter("client.reads", 3));
        assert_eq!(r.counter_value("client.reads"), 3);
    }

    #[test]
    fn snapshot_roundtrips_through_flat_counters() {
        let r = Registry::new();
        r.counter("a.ones").add(11);
        let v = r.counter_vec("b.cells", 2);
        v.inc(0);
        v.add(1, 4);
        r.histogram("c.lat").record(7);
        r.ring("d.ring", 4, Duration::from_secs(60)).record_at(0, 9);
        let doc = r.snapshot_json();
        assert!(doc.contains("\"schema\": \"rastor-metrics/v1\""));
        let flat = flat_counters(&doc);
        let get = |n: &str| flat.iter().find(|(k, _)| k == n).map(|(_, v)| *v);
        assert_eq!(get("a.ones"), Some(11));
        assert_eq!(get("b.cells"), Some(5));
        assert_eq!(get("b.cells.0"), Some(1));
        assert_eq!(get("b.cells.1"), Some(4));
        assert_eq!(get("c.lat"), None, "histograms are not flat counters");
        // The document is real JSON: balanced braces/brackets, and the
        // histogram/ring lines carry their aggregates.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        assert!(doc.contains("\"c.lat\": {\"count\":1,\"sum\":7"));
        assert!(doc.contains("\"d.ring\": {\"period_secs\":60,\"slots\":[[0,1,9,9.00,9]]"));
    }

    #[test]
    fn snapshots_of_an_empty_registry_are_well_formed() {
        let doc = Registry::new().snapshot_json();
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(flat_counters(&doc).is_empty());
    }

    /// `snapshot_json` taken *while* recorders hammer every metric kind
    /// must always be a well-formed document — the in-band `Metrics`
    /// frame serves snapshots of a live registry, so a torn or unbalanced
    /// document would corrupt the ops plane under load.
    #[test]
    fn snapshot_json_is_well_formed_under_concurrent_recording() {
        let r = Arc::new(Registry::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Registered before the first snapshot, whichever thread runs first.
        r.counter("w.count");
        let writers: Vec<_> = (0..3)
            .map(|t| {
                let r = Arc::clone(&r);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let c = r.counter("w.count");
                    let h = r.histogram("w.lat");
                    let ring = r.ring("w.ring", 8, Duration::from_secs(60));
                    let mut i = 0u64;
                    while !stop.load(Relaxed) {
                        c.inc();
                        h.record(i % 2048);
                        ring.record_at(i % 16, t * 100 + i);
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            let doc = r.snapshot_json();
            assert!(doc.contains("\"schema\": \"rastor-metrics/v1\""));
            assert_eq!(doc.matches('{').count(), doc.matches('}').count());
            assert_eq!(doc.matches('[').count(), doc.matches(']').count());
            // Counter lines stay scannable mid-traffic.
            let flat = flat_counters(&doc);
            assert!(flat.iter().any(|(k, _)| k == "w.count"));
        }
        stop.store(true, Relaxed);
        for w in writers {
            w.join().expect("writer thread");
        }
    }

    /// Recording stays correct under concurrent writers — the lock-cheap
    /// claim, exercised.
    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = Arc::new(Registry::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("n");
                    let h = r.histogram("h");
                    let v = r.counter_vec("v", 4);
                    for i in 0..1000u64 {
                        c.inc();
                        h.record(i);
                        v.inc(t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }
        assert_eq!(r.counter_value("n"), 4000);
        assert_eq!(r.histogram("h").count(), 4000);
        assert_eq!(r.counter_vec("v", 4).cells(), vec![1000; 4]);
    }
}
