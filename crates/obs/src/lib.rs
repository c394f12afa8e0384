//! Process-wide telemetry for the crawler stack: lock-free counters and
//! gauges, fixed-bucket **mergeable** histograms with quantile
//! estimates, and a global named-metric [`Registry`] rendered as
//! Prometheus text exposition (`GET /metrics`) or JSON (`GET /stats`,
//! `hdc serve --metrics-log`).
//!
//! Its only dependency is the workspace's JSON codec (`hdc-json`, for
//! string quoting; this workspace builds offline), and it is designed
//! around one invariant the rest of the stack relies on:
//! **recording is inert**. Metrics are plain atomic adds on shared
//! state; nothing here can perturb query sequences, charged costs, or
//! crawl results. The differential suites (`builder_equiv`,
//! `wire_equiv`) hold the whole stack to that.
//!
//! # Cost model
//!
//! * [`Counter::inc`]/[`Gauge::add`] — one `fetch_add`.
//! * [`Histogram::observe`] — a branchless-ish linear bucket scan (the
//!   bucket vectors are ≤ ~24 wide) plus three `fetch_add`s.
//! * Instrumented hot paths first check the global [`enabled`] switch
//!   (one relaxed load) so `hdc-bench` can measure the stack with
//!   telemetry compiled in but turned off — the "none" baseline in
//!   `BENCH_pr9.json`.
//!
//! # Example
//!
//! ```
//! let reqs = hdc_obs::registry().counter("doc_requests_total", "Requests served");
//! let lat = hdc_obs::registry().histogram(
//!     "doc_request_seconds",
//!     "Request latency",
//!     hdc_obs::latency_bounds(),
//!     hdc_obs::Unit::Nanos,
//! );
//! reqs.inc();
//! lat.observe_duration(std::time::Duration::from_micros(250));
//! let text = hdc_obs::registry().render_prometheus();
//! assert!(text.contains("doc_requests_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use hdc_json::quote;

// ---------------------------------------------------------------- switch --

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns instrumentation on or off process-wide. Off means instrumented
/// call sites skip clock reads and atomic updates; the metric *values*
/// are retained, not cleared. On by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumented call sites should record (one relaxed load).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// --------------------------------------------------------------- metrics --

/// A monotonically increasing counter (Prometheus `counter`).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to 0 (bench/test isolation; not part of the serving path).
    pub fn zero(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A value that can go up and down (Prometheus `gauge`).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to 0.
    pub fn zero(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// The raw unit of a histogram's observations, controlling how bucket
/// bounds and sums are rendered (Prometheus wants base units: seconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless observations (depths, sizes): rendered as-is.
    Count,
    /// Nanosecond observations: rendered as seconds.
    Nanos,
}

impl Unit {
    fn scale(self, raw: f64) -> f64 {
        match self {
            Unit::Count => raw,
            Unit::Nanos => raw / 1e9,
        }
    }
}

/// A fixed-bucket histogram (Prometheus `histogram`): cumulative-ready
/// per-bucket counts over caller-chosen upper bounds plus an implicit
/// `+Inf` bucket, a sum, and interpolated quantile estimates.
///
/// Observations and bounds are raw `u64`s (nanoseconds for latencies —
/// see [`Unit`]). Two histograms over the same bounds merge exactly by
/// element-wise addition ([`HistogramSnapshot::merge_from`]), which is
/// what makes per-shard latency distributions aggregable at the merge
/// thread without locks.
#[derive(Debug)]
pub struct Histogram {
    /// Upper (inclusive) bounds of the finite buckets, ascending.
    bounds: Vec<u64>,
    /// One count per finite bucket plus the trailing `+Inf` bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    unit: Unit,
}

impl Histogram {
    /// A histogram over `bounds` (ascending upper bounds; the `+Inf`
    /// bucket is implicit).
    pub fn new(bounds: Vec<u64>, unit: Unit) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            sum: AtomicU64::new(0),
            unit,
        }
    }

    /// Records one observation in raw units.
    pub fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    pub fn observe_duration(&self, d: Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations, raw units.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The histogram's rendering unit.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// An interpolated `q`-quantile estimate (`0 < q ≤ 1`) in raw
    /// units; 0 on an empty histogram. See
    /// [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy for merging or rendering. Counts and sum
    /// are read without a global lock, so a snapshot taken mid-update
    /// may be off by in-flight observations — fine for monitoring.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
            unit: self.unit,
        }
    }

    /// Adds a snapshot's counts into this histogram (bounds must
    /// match): the cross-shard merge path.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        assert_eq!(
            self.bounds, snap.bounds,
            "merging histograms over different buckets"
        );
        for (mine, theirs) in self.counts.iter().zip(&snap.counts) {
            mine.fetch_add(*theirs, Ordering::Relaxed);
        }
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
    }

    /// Resets every bucket and the sum to 0.
    pub fn zero(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// An owned point-in-time copy of a [`Histogram`], mergeable with
/// others taken over the same bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (`bounds.len() + 1` entries; last is `+Inf`).
    pub counts: Vec<u64>,
    /// Sum of observations, raw units.
    pub sum: u64,
    /// Rendering unit.
    pub unit: Unit,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Element-wise addition (bounds must match): merging per-shard
    /// distributions loses nothing because the buckets are fixed.
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms over different buckets"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }

    /// An interpolated `q`-quantile estimate (`0 < q ≤ 1`) in raw
    /// units: linear interpolation inside the bucket holding the
    /// target rank, the standard fixed-bucket estimate. Observations in
    /// the `+Inf` bucket clamp to the highest finite bound. Returns 0
    /// on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev_cum = cum;
            cum += c;
            if (cum as f64) >= target && c > 0 {
                if i == self.bounds.len() {
                    // +Inf bucket: clamp to the last finite bound.
                    return self.bounds[self.bounds.len() - 1] as f64;
                }
                let lo = if i == 0 {
                    0.0
                } else {
                    self.bounds[i - 1] as f64
                };
                let hi = self.bounds[i] as f64;
                let frac = (target - prev_cum as f64) / c as f64;
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
        }
        self.bounds[self.bounds.len() - 1] as f64
    }
}

/// Default latency bucket bounds in **nanoseconds**: 1µs → 10s,
/// roughly 1–2.5–5 per decade. Wide enough for in-process engine
/// evaluates (µs) and stalled wire requests (seconds) alike.
pub fn latency_bounds() -> Vec<u64> {
    vec![
        1_000,
        2_500,
        5_000,
        10_000,
        25_000,
        50_000,
        100_000,
        250_000,
        500_000,
        1_000_000,
        2_500_000,
        5_000_000,
        10_000_000,
        25_000_000,
        50_000_000,
        100_000_000,
        250_000_000,
        500_000_000,
        1_000_000_000,
        2_500_000_000,
        5_000_000_000,
        10_000_000_000,
    ]
}

/// Default small-integer bucket bounds (discovery depths, batch sizes):
/// 0..=16 linear, then 32/64.
pub fn depth_bounds() -> Vec<u64> {
    let mut b: Vec<u64> = (0..=16).collect();
    b.extend([32, 64]);
    b
}

// -------------------------------------------------------------- registry --

#[derive(Debug)]
enum MetricKind {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl MetricKind {
    fn type_name(&self) -> &'static str {
        match self {
            MetricKind::Counter(_) => "counter",
            MetricKind::Gauge(_) => "gauge",
            MetricKind::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Metric {
    name: String,
    /// Optional single label pair, e.g. `("kind", "probe")`.
    label: Option<(String, String)>,
    help: String,
    kind: MetricKind,
}

/// A named-metric store: get-or-create handles by `(name, label)`,
/// rendered whole as Prometheus text or JSON. One process-wide instance
/// lives behind [`registry`]; independent instances are constructible
/// for tests.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<Vec<Metric>>,
}

impl Registry {
    /// An empty registry (tests; production code uses [`registry`]).
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert<T, F, G>(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        help: &str,
        extract: F,
        create: G,
    ) -> Arc<T>
    where
        F: Fn(&MetricKind) -> Option<Arc<T>>,
        G: FnOnce() -> (Arc<T>, MetricKind),
    {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        if let Some(m) = metrics.iter().find(|m| {
            m.name == name && m.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str())) == label
        }) {
            return extract(&m.kind)
                .unwrap_or_else(|| panic!("metric {name:?} re-registered as a different type"));
        }
        let (handle, kind) = create();
        metrics.push(Metric {
            name: name.to_string(),
            label: label.map(|(k, v)| (k.to_string(), v.to_string())),
            help: help.to_string(),
            kind,
        });
        handle
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, None, help)
    }

    /// A labelled counter (one `key="value"` pair per handle; handles
    /// sharing a name render as one Prometheus family).
    pub fn counter_with(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        help: &str,
    ) -> Arc<Counter> {
        self.get_or_insert(
            name,
            label,
            help,
            |k| match k {
                MetricKind::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::default());
                (Arc::clone(&c), MetricKind::Counter(c))
            },
        )
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            None,
            help,
            |k| match k {
                MetricKind::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::default());
                (Arc::clone(&g), MetricKind::Gauge(g))
            },
        )
    }

    /// The histogram named `name`, created on first use with `bounds`
    /// and `unit` (later lookups reuse the first registration's
    /// buckets).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        bounds: Vec<u64>,
        unit: Unit,
    ) -> Arc<Histogram> {
        self.histogram_with(name, None, help, bounds, unit)
    }

    /// A labelled histogram (see [`Registry::counter_with`]).
    pub fn histogram_with(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        help: &str,
        bounds: Vec<u64>,
        unit: Unit,
    ) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            label,
            help,
            |k| match k {
                MetricKind::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::new(bounds, unit));
                (Arc::clone(&h), MetricKind::Histogram(h))
            },
        )
    }

    /// Zeroes every registered metric (bench phase isolation).
    pub fn reset(&self) {
        for m in self.metrics.lock().expect("registry poisoned").iter() {
            match &m.kind {
                MetricKind::Counter(c) => c.zero(),
                MetricKind::Gauge(g) => g.zero(),
                MetricKind::Histogram(h) => h.zero(),
            }
        }
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` once per family, then one
    /// sample line per value, histograms as cumulative `_bucket{le=…}`
    /// plus `_sum` / `_count`. Nanosecond histograms render in seconds,
    /// per Prometheus base-unit convention.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock().expect("registry poisoned");
        let mut order: Vec<&Metric> = metrics.iter().collect();
        order.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        let mut out = String::new();
        let mut last_family = "";
        for m in order {
            if m.name != last_family {
                out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
                out.push_str(&format!("# TYPE {} {}\n", m.name, m.kind.type_name()));
                last_family = &m.name;
            }
            let label = |extra: Option<String>| -> String {
                let mut pairs = Vec::new();
                if let Some((k, v)) = &m.label {
                    pairs.push(format!("{k}=\"{v}\""));
                }
                if let Some(e) = extra {
                    pairs.push(e);
                }
                if pairs.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", pairs.join(","))
                }
            };
            match &m.kind {
                MetricKind::Counter(c) => {
                    out.push_str(&format!("{}{} {}\n", m.name, label(None), c.get()));
                }
                MetricKind::Gauge(g) => {
                    out.push_str(&format!("{}{} {}\n", m.name, label(None), g.get()));
                }
                MetricKind::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (i, c) in snap.counts.iter().enumerate() {
                        cum += c;
                        let le = if i == snap.bounds.len() {
                            "+Inf".to_string()
                        } else {
                            trim_float(snap.unit.scale(snap.bounds[i] as f64))
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            m.name,
                            label(Some(format!("le=\"{le}\""))),
                            cum
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        m.name,
                        label(None),
                        trim_float(snap.unit.scale(snap.sum as f64))
                    ));
                    out.push_str(&format!("{}_count{} {}\n", m.name, label(None), cum));
                }
            }
        }
        out
    }

    /// Renders every metric as one line of JSON (the `GET /stats` body
    /// and the `--metrics-log` record): counters/gauges as
    /// name→value, histograms with count, sum, p50/p90/p99 (raw
    /// units), and per-bucket counts.
    pub fn render_json(&self) -> String {
        let metrics = self.metrics.lock().expect("registry poisoned");
        let mut order: Vec<&Metric> = metrics.iter().collect();
        order.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for m in order {
            let label = match &m.label {
                Some((k, v)) => format!(",\"label\":{{{}:{}}}", quote(k), quote(v)),
                None => String::new(),
            };
            match &m.kind {
                MetricKind::Counter(c) => counters.push(format!(
                    "{{\"name\":{}{label},\"value\":{}}}",
                    quote(&m.name),
                    c.get()
                )),
                MetricKind::Gauge(g) => gauges.push(format!(
                    "{{\"name\":{}{label},\"value\":{}}}",
                    quote(&m.name),
                    g.get()
                )),
                MetricKind::Histogram(h) => {
                    let snap = h.snapshot();
                    let buckets: Vec<String> = snap
                        .counts
                        .iter()
                        .enumerate()
                        .map(|(i, c)| {
                            let le = if i == snap.bounds.len() {
                                "null".to_string()
                            } else {
                                snap.bounds[i].to_string()
                            };
                            format!("{{\"le\":{le},\"count\":{c}}}")
                        })
                        .collect();
                    histograms.push(format!(
                        "{{\"name\":{}{label},\"unit\":\"{}\",\"count\":{},\"sum\":{},\
                         \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}",
                        quote(&m.name),
                        match snap.unit {
                            Unit::Count => "count",
                            Unit::Nanos => "ns",
                        },
                        snap.count(),
                        snap.sum,
                        trim_float(snap.quantile(0.50)),
                        trim_float(snap.quantile(0.90)),
                        trim_float(snap.quantile(0.99)),
                        buckets.join(",")
                    ));
                }
            }
        }
        format!(
            "{{\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}]}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }
}

/// Formats a float compactly: integers without a trailing `.0`,
/// everything else with enough precision to round-trip bucket bounds.
fn trim_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The process-wide registry every instrumented layer records into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("x_total", "help");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same handle on re-lookup.
        assert_eq!(r.counter("x_total", "help").get(), 5);
        let g = r.gauge("g", "help");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(vec![10, 20, 40], Unit::Count);
        for v in [1, 5, 10, 11, 19, 35, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 181);
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![3, 2, 1, 1]);
        // Quantiles interpolate inside the right bucket and stay
        // monotone.
        let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
        // True median is 11; the estimate must land in its bucket.
        assert!((10.0..=20.0).contains(&p50), "{p50}");
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert_eq!(p99, 40.0, "+Inf clamps to the last finite bound");
        assert_eq!(Histogram::new(vec![1], Unit::Count).quantile(0.5), 0.0);
    }

    #[test]
    fn snapshots_merge_exactly() {
        let a = Histogram::new(vec![10, 20], Unit::Count);
        let b = Histogram::new(vec![10, 20], Unit::Count);
        for v in [1, 15, 30] {
            a.observe(v);
        }
        for v in [2, 16] {
            b.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge_from(&b.snapshot());
        // Equals observing everything into one histogram.
        let whole = Histogram::new(vec![10, 20], Unit::Count);
        for v in [1, 15, 30, 2, 16] {
            whole.observe(v);
        }
        assert_eq!(merged, whole.snapshot());
        // absorb() is the same operation on a live histogram.
        a.absorb(&b.snapshot());
        assert_eq!(a.snapshot(), whole.snapshot());
    }

    #[test]
    #[should_panic(expected = "different buckets")]
    fn mismatched_merge_panics() {
        let mut a = Histogram::new(vec![10], Unit::Count).snapshot();
        let b = Histogram::new(vec![20], Unit::Count).snapshot();
        a.merge_from(&b);
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let r = Registry::new();
        r.counter("hdc_q_total", "Queries charged").add(3);
        r.counter_with("hdc_evals_total", Some(("kind", "probe")), "Evals")
            .add(2);
        r.counter_with("hdc_evals_total", Some(("kind", "scan")), "Evals")
            .inc();
        let h = r.histogram(
            "hdc_lat_seconds",
            "Latency",
            vec![1_000_000, 1_000_000_000],
            Unit::Nanos,
        );
        h.observe(500_000); // 0.5 ms
        h.observe(2_000_000_000); // 2 s → +Inf
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE hdc_q_total counter\n"));
        assert!(text.contains("hdc_q_total 3\n"));
        assert!(text.contains("hdc_evals_total{kind=\"probe\"} 2\n"));
        assert!(text.contains("hdc_evals_total{kind=\"scan\"} 1\n"));
        // One HELP/TYPE header per family, not per labelled variant.
        assert_eq!(text.matches("# TYPE hdc_evals_total").count(), 1);
        // Histogram: cumulative buckets in seconds, +Inf, sum, count.
        assert!(
            text.contains("hdc_lat_seconds_bucket{le=\"0.001\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("hdc_lat_seconds_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("hdc_lat_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("hdc_lat_seconds_count 2\n"));
    }

    #[test]
    fn json_rendering_is_one_line_and_parseable_shape() {
        let r = Registry::new();
        r.counter("a_total", "help").inc();
        r.gauge("g", "help").set(-2);
        r.histogram("h", "help", vec![10], Unit::Count).observe(4);
        let json = r.render_json();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"counters\":["));
        assert!(json.contains("\"name\":\"a_total\",\"value\":1"));
        assert!(json.contains("\"value\":-2"));
        assert!(json.contains("\"p99\":"));
        assert!(json.contains("\"le\":null"));
    }

    #[test]
    fn reset_zeroes_everything() {
        let r = Registry::new();
        let c = r.counter("c_total", "h");
        let h = r.histogram("h", "h", vec![5], Unit::Count);
        c.add(9);
        h.observe(1);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
    }

    #[test]
    fn enabled_switch_toggles() {
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
