#![deny(missing_docs)]
//! `pfe-obs` — zero-dependency observability primitives for the serving
//! path: lock-free counters and gauges, log-bucketed latency histograms
//! with p50/p90/p99/max extraction, a lightweight span API, and a
//! ring-buffered slow-query log — all behind one named [`Recorder`]
//! registry that renders to Prometheus text exposition.
//!
//! Every serving crate (`pfe-engine`, `pfe-window`, `pfe-server`) threads
//! one shared `Arc<Recorder>` through its hot path, and the registry is
//! the stats schema: the `stats`, `window_stats` and `server_stats`
//! replies are declared tables of registry series (`pfe_server::proto`),
//! so they, the `metrics` wire op and the Prometheus endpoint can never
//! disagree.
//!
//! ```
//! use pfe_obs::Recorder;
//! use std::sync::Arc;
//!
//! let rec = Arc::new(Recorder::new());
//! rec.counter("requests").inc();
//! rec.gauge("in_flight").set(3);
//! {
//!     let _span = rec.span("plan"); // records elapsed ns into the
//!                                   // "plan" histogram on drop
//! }
//! let snap = rec.histogram("plan").snapshot();
//! assert_eq!(snap.count, 1);
//! assert!(rec.render_prometheus("pfe").contains("pfe_requests_total 1"));
//! ```

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

mod trace;

pub use trace::{
    chrome_trace_json, AttrValue, CompletedTrace, SpanGuard, SpanRecord, TraceContext, TraceHandle,
    TraceStore, MAX_SPAN_ATTRS, TRACE_STORE_CAPACITY,
};

/// A monotonically increasing counter (lock-free).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A detached counter (not registered anywhere) — useful as a default
    /// before a [`Recorder`] handle is installed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (lock-free).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A detached gauge (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` (saturating at 0 via wrapping guard: concurrent
    /// decrements below zero clamp on read).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value (a transient underflow from racing `sub`s reads as
    /// 0 rather than a huge number).
    pub fn get(&self) -> u64 {
        let v = self.0.load(Ordering::Relaxed);
        if v > u64::MAX / 2 {
            0
        } else {
            v
        }
    }
}

/// Total histogram buckets: values 0–15 exactly, then four sub-buckets
/// per power of two (≤ 25% relative bucket width) up to `u64::MAX`.
const BUCKETS: usize = 256;

fn bucket_index(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let o = 63 - v.leading_zeros() as usize; // v in [2^o, 2^(o+1)), o >= 4
    let sub = ((v >> (o - 2)) & 3) as usize;
    16 + (o - 4) * 4 + sub
}

fn bucket_upper_bound(i: usize) -> u64 {
    if i < 16 {
        return i as u64;
    }
    let o = 4 + (i - 16) / 4;
    let sub = ((i - 16) % 4) as u128;
    let ub = (1u128 << o) + (sub + 1) * (1u128 << (o - 2)) - 1;
    ub.min(u64::MAX as u128) as u64
}

/// A lock-free log-bucketed histogram of nonnegative integer values
/// (typically latencies in nanoseconds).
///
/// Values 0–15 are recorded exactly; above that, buckets are
/// quarter-powers-of-two, so quantiles resolve to within 25% of the true
/// value. `max` is tracked exactly. All updates are relaxed atomic adds —
/// no locks on the hot path.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Histogram(count={}, p50={}, max={})",
            s.count, s.p50, s.max
        )
    }
}

/// A point-in-time read of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Median (bucket-resolved, capped at `max`).
    pub p50: u64,
    /// 90th percentile (bucket-resolved, capped at `max`).
    pub p90: u64,
    /// 99th percentile (bucket-resolved, capped at `max`).
    pub p99: u64,
}

impl HistogramSnapshot {}

impl Histogram {
    /// A detached histogram (not registered anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration as nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Read counts, max, and the standard quantiles in one pass.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let max = self.max.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            // Rank of the q-quantile among `total` ordered samples.
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper_bound(i).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count: total,
            sum: self.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }

    /// Nonzero buckets as `(upper_bound, cumulative_count)` pairs — the
    /// shape Prometheus `_bucket{le=...}` lines want.
    fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                cum += c;
                out.push((bucket_upper_bound(i), cum));
            }
        }
        out
    }
}

/// An RAII timer: records elapsed nanoseconds into its histogram when
/// dropped. Created by [`Recorder::span`] or [`Span::on`].
pub struct Span {
    hist: Arc<Histogram>,
    start: Instant,
}

impl Span {
    /// Start a span recording into an explicit histogram handle (avoids
    /// the registry lookup of [`Recorder::span`] on hot paths).
    pub fn on(hist: Arc<Histogram>) -> Self {
        Self {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// One slow-operation record: what ran, how long it took, and free-form
/// provenance detail (query key, covering window, stage breakdown, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowEntry {
    /// What was slow (an op or stage name).
    pub what: String,
    /// Wall-clock duration in microseconds.
    pub micros: u64,
    /// Ordered `(key, value)` detail pairs.
    pub detail: Vec<(String, String)>,
}

/// A bounded ring buffer of [`SlowEntry`] records, gated by a runtime
/// threshold (`0` = disabled). The threshold check is one relaxed atomic
/// load, so a disabled log costs nothing on the hot path; detail strings
/// are only built when an entry is actually logged.
pub struct SlowLog {
    threshold_ms: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<SlowEntry>>,
}

impl SlowLog {
    /// A slow log keeping the most recent `capacity` entries, initially
    /// disabled.
    pub fn new(capacity: usize) -> Self {
        Self {
            threshold_ms: AtomicU64::new(0),
            capacity,
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Set the slowness threshold in milliseconds (`0` disables logging).
    pub fn set_threshold_ms(&self, ms: u64) {
        self.threshold_ms.store(ms, Ordering::Relaxed);
    }

    /// The current threshold in milliseconds (`0` = disabled).
    pub fn threshold_ms(&self) -> u64 {
        self.threshold_ms.load(Ordering::Relaxed)
    }

    /// Log `what` if `elapsed` meets the threshold; `detail` is only
    /// invoked when the entry is recorded. Returns whether it was logged.
    pub fn record(
        &self,
        what: &str,
        elapsed: Duration,
        detail: impl FnOnce() -> Vec<(String, String)>,
    ) -> bool {
        let ms = self.threshold_ms.load(Ordering::Relaxed);
        if ms == 0 || elapsed < Duration::from_millis(ms) {
            return false;
        }
        let entry = SlowEntry {
            what: what.to_string(),
            micros: elapsed.as_micros().min(u64::MAX as u128) as u64,
            detail: detail(),
        };
        let mut ring = self.ring.lock().expect("slow log lock");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
        true
    }

    /// Log an entry unconditionally, bypassing the duration threshold —
    /// for operational anomalies that are problems regardless of speed
    /// (a replica rejecting a corrupt snapshot, say). `micros` is 0: the
    /// entry records an event, not a duration.
    pub fn note(&self, what: &str, detail: Vec<(String, String)>) {
        let entry = SlowEntry {
            what: what.to_string(),
            micros: 0,
            detail,
        };
        let mut ring = self.ring.lock().expect("slow log lock");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        self.ring
            .lock()
            .expect("slow log lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("slow log lock").len()
    }

    /// Whether no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How many slow-log entries a [`Recorder`] retains.
pub const SLOW_LOG_CAPACITY: usize = 128;

/// The named metric registry: counters, gauges, histograms, and the slow
/// log, shared across threads behind an `Arc`.
///
/// Handles are registered on first use — `recorder.counter("x")` returns
/// the *same* `Arc<Counter>` every time, so a component restarted against
/// the same recorder continues the existing series (registry lifetime is
/// process lifetime, not component lifetime). Hot paths should resolve
/// handles once and keep the `Arc`; the lookup itself is one read-lock +
/// hash.
#[derive(Default)]
pub struct Recorder {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    /// Constant labeled info gauges (`build_info`-style): metric name →
    /// ordered label pairs; rendered with value 1.
    infos: RwLock<BTreeMap<String, Vec<(String, String)>>>,
    slow: Option<SlowLog>,
    traces: TraceStore,
}

impl Recorder {
    /// An empty registry (with a [`SLOW_LOG_CAPACITY`]-entry slow log,
    /// disabled until a threshold is set, and a
    /// [`TRACE_STORE_CAPACITY`]-trace store sampling every trace).
    pub fn new() -> Self {
        Self {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            infos: RwLock::new(BTreeMap::new()),
            slow: Some(SlowLog::new(SLOW_LOG_CAPACITY)),
            traces: TraceStore::default(),
        }
    }

    fn get_or_register<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
        if let Some(v) = map.read().expect("registry lock").get(name) {
            return Arc::clone(v);
        }
        let mut w = map.write().expect("registry lock");
        Arc::clone(w.entry(name.to_string()).or_default())
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::get_or_register(&self.counters, name)
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::get_or_register(&self.gauges, name)
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::get_or_register(&self.histograms, name)
    }

    /// Start a span that records its elapsed nanoseconds into the `name`
    /// histogram when dropped.
    pub fn span(&self, name: &str) -> Span {
        Span::on(self.histogram(name))
    }

    /// The slow-operation ring log.
    pub fn slow_log(&self) -> &SlowLog {
        self.slow
            .as_ref()
            .expect("Recorder::new installs a slow log")
    }

    /// The request-trace store (see [`TraceStore`]).
    pub fn trace_store(&self) -> &TraceStore {
        &self.traces
    }

    /// Begin a request trace on this recorder's store — shorthand for
    /// `trace_store().begin(ctx)`.
    pub fn begin_trace(&self, ctx: Option<TraceContext>) -> TraceHandle {
        self.traces.begin(ctx)
    }

    /// Register (or replace) a constant labeled info gauge — the
    /// `build_info` idiom: rendered as `name{labels…} 1` in Prometheus
    /// exposition, and surfaced by [`infos_snapshot`](Self::infos_snapshot)
    /// for JSON metric views.
    pub fn set_info(&self, name: &str, labels: &[(&str, &str)]) {
        self.infos.write().expect("registry lock").insert(
            name.to_string(),
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        );
    }

    /// All info gauges as sorted `(name, labels)` pairs.
    pub fn infos_snapshot(&self) -> Vec<(String, Vec<(String, String)>)> {
        self.infos
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// All counters as sorted `(name, value)` pairs.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All gauges as sorted `(name, value)` pairs.
    pub fn gauges_snapshot(&self) -> Vec<(String, u64)> {
        self.gauges
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All histograms as sorted `(name, snapshot)` pairs.
    pub fn histograms_snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Render the whole registry in Prometheus text exposition format
    /// (version 0.0.4). `prefix` namespaces every metric (`pfe` →
    /// `pfe_engine_queries_f0_total …`); counters get the conventional
    /// `_total` suffix, histograms emit cumulative `_bucket{le=…}` lines
    /// (nonzero buckets only) plus `_sum`/`_count`.
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        let name = |metric: &str| -> String {
            if prefix.is_empty() {
                sanitize_metric_name(metric)
            } else {
                sanitize_metric_name(&format!("{prefix}_{metric}"))
            }
        };
        for (k, v) in self.counters_snapshot() {
            let n = format!("{}_total", name(&k));
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (k, v) in self.gauges_snapshot() {
            let n = name(&k);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (k, labels) in self.infos_snapshot() {
            let n = name(&k);
            let rendered: Vec<String> = labels
                .iter()
                .map(|(lk, lv)| {
                    let v = lv.replace('\\', "\\\\").replace('"', "\\\"");
                    format!("{}=\"{v}\"", sanitize_metric_name(lk))
                })
                .collect();
            out.push_str(&format!(
                "# TYPE {n} gauge\n{n}{{{}}} 1\n",
                rendered.join(",")
            ));
        }
        let hists: Vec<(String, Arc<Histogram>)> = self
            .histograms
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        for (k, h) in hists {
            let n = name(&k);
            let snap = h.snapshot();
            out.push_str(&format!("# TYPE {n} histogram\n"));
            for (ub, cum) in h.cumulative_buckets() {
                out.push_str(&format!("{n}_bucket{{le=\"{ub}\"}} {cum}\n"));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
            out.push_str(&format!("{n}_sum {}\n", snap.sum));
            out.push_str(&format!("{n}_count {}\n", snap.count));
        }
        out
    }
}

/// Map an arbitrary name onto the Prometheus metric-name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): invalid characters become `_`, a
/// leading digit gets a `_` prefix.
fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else if ok {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
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
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        // Transient underflow clamps to 0 instead of wrapping huge.
        g.sub(100);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn bucket_roundtrip_bounds_every_value() {
        for v in (0u64..4096).chain([1 << 20, 1 << 40, u64::MAX / 2, u64::MAX]) {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "v={v} above its bucket");
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1), "v={v} fits a lower bucket");
            }
            // Quarter-octave resolution: upper bound within 25% above v.
            if v >= 16 && bucket_upper_bound(i) != u64::MAX {
                assert!(bucket_upper_bound(i) as f64 <= v as f64 * 1.25 + 1.0);
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_bucket_exact() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        // Bucket-resolved quantiles are within 25% above the true value
        // and never exceed the recorded max.
        assert!((50..=63).contains(&s.p50), "p50={}", s.p50);
        assert!((90..=100).contains(&s.p90), "p90={}", s.p90);
        assert!((99..=100).contains(&s.p99), "p99={}", s.p99);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn empty_and_single_value_histograms() {
        let h = Histogram::new();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        h.record(7);
        let s = h.snapshot();
        assert_eq!((s.count, s.p50, s.p99, s.max), (1, 7, 7, 7));
    }

    #[test]
    fn histogram_concurrent_records_lose_nothing() {
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 997);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().expect("no panic");
        }
        assert_eq!(h.snapshot().count, 40_000);
    }

    #[test]
    fn recorder_returns_the_same_handle_per_name() {
        let rec = Recorder::new();
        rec.counter("x").inc();
        rec.counter("x").inc();
        assert_eq!(rec.counter("x").get(), 2);
        assert_eq!(rec.counters_snapshot(), vec![("x".to_string(), 2)]);
        // Distinct kinds under one name do not collide.
        rec.gauge("x").set(9);
        assert_eq!(rec.gauges_snapshot(), vec![("x".to_string(), 9)]);
    }

    #[test]
    fn span_records_elapsed_into_named_histogram() {
        let rec = Recorder::new();
        {
            let _span = rec.span("plan");
            std::thread::sleep(Duration::from_millis(2));
        }
        let s = rec.histogram("plan").snapshot();
        assert_eq!(s.count, 1);
        assert!(s.max >= 2_000_000, "recorded {} ns", s.max);
    }

    #[test]
    fn slow_log_threshold_ring_and_lazy_detail() {
        let log = SlowLog::new(2);
        // Disabled: nothing is logged, detail closure never runs.
        assert!(!log.record("q", Duration::from_secs(5), || unreachable!()));
        log.set_threshold_ms(10);
        assert!(!log.record("fast", Duration::from_millis(3), Vec::new));
        for i in 0..3 {
            assert!(
                log.record(&format!("q{i}"), Duration::from_millis(20 + i), || vec![(
                    "slot".into(),
                    i.to_string()
                )])
            );
        }
        // Capacity 2: the oldest entry fell off.
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].what, "q1");
        assert_eq!(entries[1].what, "q2");
        assert!(entries[1].micros >= 22_000);
        assert_eq!(
            entries[1].detail,
            vec![("slot".to_string(), "2".to_string())]
        );
    }

    #[test]
    fn prometheus_rendering_follows_the_grammar() {
        let rec = Recorder::new();
        rec.counter("requests").add(3);
        rec.gauge("open").set(2);
        rec.histogram("latency_ns").record(100);
        rec.histogram("latency_ns").record(200);
        let text = rec.render_prometheus("pfe");
        assert!(text.contains("# TYPE pfe_requests_total counter"));
        assert!(text.contains("pfe_requests_total 3"));
        assert!(text.contains("# TYPE pfe_open gauge"));
        assert!(text.contains("pfe_open 2"));
        assert!(text.contains("# TYPE pfe_latency_ns histogram"));
        assert!(text.contains("pfe_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("pfe_latency_ns_sum 300"));
        assert!(text.contains("pfe_latency_ns_count 2"));
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.split_once(' ').expect("name value");
            let bare = name.split('{').next().expect("metric name");
            assert!(bare
                .chars()
                .enumerate()
                .all(|(i, c)| c.is_ascii_alphabetic()
                    || c == '_'
                    || c == ':'
                    || (i > 0 && c.is_ascii_digit())));
            assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
        }
        // Cumulative bucket counts are monotone and end at count.
        let cum: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("pfe_latency_ns_bucket"))
            .map(|l| {
                l.split(' ')
                    .next_back()
                    .expect("count")
                    .parse()
                    .expect("u64")
            })
            .collect();
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cum.last().expect("buckets"), 2);
    }

    #[test]
    fn info_gauges_render_with_labels() {
        let rec = Recorder::new();
        rec.set_info(
            "build_info",
            &[("version", "1.2.3"), ("statistics", "f0|fp")],
        );
        let text = rec.render_prometheus("pfe");
        assert!(text.contains("# TYPE pfe_build_info gauge"));
        assert!(text.contains("pfe_build_info{version=\"1.2.3\",statistics=\"f0|fp\"} 1"));
        // Replacement, not accumulation.
        rec.set_info("build_info", &[("version", "2.0.0")]);
        assert_eq!(
            rec.infos_snapshot(),
            vec![(
                "build_info".to_string(),
                vec![("version".to_string(), "2.0.0".to_string())]
            )]
        );
        // Quotes in label values escape instead of breaking the line.
        rec.set_info("weird", &[("v", "a\"b\\c")]);
        assert!(rec
            .render_prometheus("pfe")
            .contains("pfe_weird{v=\"a\\\"b\\\\c\"} 1"));
    }

    #[test]
    fn recorder_trace_store_round_trip() {
        let rec = Recorder::new();
        let trace = rec.begin_trace(Some(TraceContext {
            trace_id: 5,
            parent: None,
        }));
        drop(trace.span("session"));
        rec.trace_store().finish(trace);
        assert_eq!(rec.trace_store().lookup(5).expect("kept").spans.len(), 1);
    }

    #[test]
    fn sanitize_covers_bad_names() {
        assert_eq!(sanitize_metric_name("ok_name:x9"), "ok_name:x9");
        assert_eq!(sanitize_metric_name("9lead"), "_9lead");
        assert_eq!(sanitize_metric_name("sp ace-dash.dot"), "sp_ace_dash_dot");
        assert_eq!(sanitize_metric_name(""), "_");
    }
}
