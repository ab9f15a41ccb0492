//! # qob-obs
//!
//! Runtime observability for the warm server: a lock-free metrics registry
//! (atomic counters and log-bucketed latency histograms), Prometheus text
//! exposition, and a structured JSON-lines event log.
//!
//! The crate is a leaf — no dependencies on the rest of the workspace — so
//! every layer (session, cache, adaptive, executor, server) can feed it.
//! All hot-path instruments are plain atomics: recording a sample is a
//! handful of `fetch_add`s, never a lock, so instrumented and
//! uninstrumented runs stay tuple-identical (see `docs/OBSERVABILITY.md`).
//!
//! * [`Counter`] / [`Gauge`] — monotonic and set-point `u64` cells.
//! * [`Histogram`] — power-of-two-bucketed latency histogram over
//!   microseconds; p50/p95/p99 come from bucket counts alone, no sample
//!   retention.
//! * [`MetricsRegistry`] — the fixed set of instruments the server owns.
//! * [`Exposition`] — renders instruments in the Prometheus text format
//!   (version 0.0.4); [`validate_exposition`] re-parses a rendered body.
//! * [`EventLog`] — JSON-lines events (replans, fence rejects, evictions,
//!   worker panics, slow queries, regressions) behind the
//!   `slow_query_ms` option, each line carrying a process-monotonic
//!   `seq` so concurrent sessions' lines totally order.
//! * [`QueryHistory`] — per-fingerprint latency history with top-K
//!   aggregation and windowed regression detection (see [`history`]).

#![warn(missing_docs)]

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

pub mod history;

pub use history::{
    regression_medians, CacheOutcome, FingerprintStats, HistorySample, HistorySnapshot,
    QueryHistory, Regression, BASELINE_WINDOW, HISTORY_RING_CAPACITY, RECENT_WINDOW,
};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
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

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets.  Bucket `k` (for `k ≥ 1`) counts samples
/// in `[2^(k-1), 2^k)` microseconds; bucket `0` counts zero-microsecond
/// samples.  `2^(BUCKETS-2)` µs ≈ 6.4 days, so the top bucket is an
/// effective `+Inf` catch-all.
pub const BUCKETS: usize = 40;

/// A log-bucketed latency histogram over microseconds.
///
/// Recording is three relaxed `fetch_add`s; percentiles are estimated from
/// the bucket counts by linear interpolation inside the covering bucket, so
/// no samples are retained.  The relative error is bounded by the bucket
/// width (a factor of two).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn index(micros: u64) -> usize {
        ((u64::BITS - micros.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one sample, in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[Self::index(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one sample from a [`Duration`].
    pub fn record(&self, elapsed: Duration) {
        self.record_micros(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Takes a consistent-enough snapshot of the bucket counts.
    ///
    /// Concurrent recording may skew `sum`/`count` against the buckets by a
    /// few in-flight samples; percentile estimates are unaffected in
    /// practice.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`BUCKETS`] for the bucket scheme).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded samples, in microseconds.
    pub sum_micros: u64,
    /// Number of recorded samples.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) in microseconds, by
    /// linear interpolation within the covering bucket.
    ///
    /// On an **empty histogram the result is exactly `0.0` — never NaN**,
    /// for any `q` (including non-finite `q`, which clamps).  Live
    /// renderers (`qob top`) read quantiles continuously from their first
    /// refresh, before any query has run, so this edge is pinned by a
    /// regression test.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= rank {
                let (lo, hi) = bucket_bounds(k);
                let into = (rank - seen as f64) / n as f64;
                return lo as f64 + into * (hi - lo) as f64;
            }
            seen += n;
        }
        let (_, hi) = bucket_bounds(BUCKETS - 1);
        hi as f64
    }
}

/// The `[lo, hi)` microsecond range bucket `k` covers.
fn bucket_bounds(k: usize) -> (u64, u64) {
    match k {
        0 => (0, 1),
        _ => (1u64 << (k - 1), 1u64 << k),
    }
}

/// The fixed instrument set the server owns: one registry per
/// `ServerContext`, shared by every session.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Statements answered (queries and prepared executes), all sessions.
    pub queries_total: Counter,
    /// Statements that failed (parse, bind, optimize or execute errors).
    pub query_errors_total: Counter,
    /// Adaptive re-optimization rounds fired.
    pub replans_total: Counter,
    /// Statements slower than the session's `slow_query_ms` threshold.
    pub slow_queries_total: Counter,
    /// Per-fingerprint latency regressions detected by the query
    /// history's windowed detector.
    pub regressions_total: Counter,
    /// Executor worker panics observed.
    pub worker_panics_total: Counter,
    /// Statements admitted to execution by the admission controller.
    pub admitted_total: Counter,
    /// Statements rejected because the admission queue was full.
    pub rejected_total: Counter,
    /// End-to-end statement latency (parse through execute).
    pub query_latency: Histogram,
    /// Parse-phase latency.
    pub parse_latency: Histogram,
    /// Bind-phase latency.
    pub bind_latency: Histogram,
    /// Optimize-phase latency (includes the plan-cache lookup).
    pub optimize_latency: Histogram,
    /// Execute-phase latency.
    pub execute_latency: Histogram,
    /// Time statements waited in the admission queue before executing.
    pub queue_wait_latency: Histogram,
}

impl MetricsRegistry {
    /// Creates a registry with all instruments at zero.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Renders every instrument into `ex` under the `qob_` prefix.
    pub fn render(&self, ex: &mut Exposition) {
        ex.counter(
            "qob_queries_total",
            "Statements answered across all sessions",
            self.queries_total.get(),
        );
        ex.counter(
            "qob_query_errors_total",
            "Statements that failed",
            self.query_errors_total.get(),
        );
        ex.counter(
            "qob_replans_total",
            "Adaptive re-optimization rounds",
            self.replans_total.get(),
        );
        ex.counter(
            "qob_slow_queries_total",
            "Statements over the slow_query_ms threshold",
            self.slow_queries_total.get(),
        );
        ex.counter(
            "qob_regressions_total",
            "Per-fingerprint latency regressions detected",
            self.regressions_total.get(),
        );
        ex.counter(
            "qob_worker_panics_total",
            "Executor worker panics",
            self.worker_panics_total.get(),
        );
        ex.histogram(
            "qob_query_seconds",
            "End-to-end statement latency",
            &self.query_latency.snapshot(),
        );
        ex.histogram("qob_parse_seconds", "Parse-phase latency", &self.parse_latency.snapshot());
        ex.histogram("qob_bind_seconds", "Bind-phase latency", &self.bind_latency.snapshot());
        ex.histogram(
            "qob_optimize_seconds",
            "Optimize-phase latency (incl. plan-cache lookup)",
            &self.optimize_latency.snapshot(),
        );
        ex.histogram(
            "qob_execute_seconds",
            "Execute-phase latency",
            &self.execute_latency.snapshot(),
        );
        ex.counter(
            "qob_admitted_total",
            "Statements admitted to execution",
            self.admitted_total.get(),
        );
        ex.counter(
            "qob_rejected_total",
            "Statements rejected by admission control",
            self.rejected_total.get(),
        );
        ex.histogram(
            "qob_queue_wait_seconds",
            "Admission queue wait before execution",
            &self.queue_wait_latency.snapshot(),
        );
    }
}

/// A Prometheus text-format (version 0.0.4) builder.
///
/// Families are rendered in call order; each family gets `# HELP` and
/// `# TYPE` comments followed by its samples.  Labelled samples of one
/// family may be added across several [`Exposition::counter_with`] /
/// [`Exposition::gauge_with`] calls — the family header is emitted only
/// once (the format forbids repeating it).
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
    headered: HashSet<String>,
}

impl Exposition {
    /// Creates an empty exposition.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        if !self.headered.insert(name.to_owned()) {
            return;
        }
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Renders `labels` as a `{name="value",…}` fragment (empty for no
    /// labels), escaping `\`, `"` and newlines in values per the text
    /// format.
    fn push_labels(&mut self, labels: &[(&str, &str)]) {
        if labels.is_empty() {
            return;
        }
        self.out.push('{');
        for (i, (key, value)) in labels.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            debug_assert!(
                key.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                    && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad label name `{key}`"
            );
            self.out.push_str(key);
            self.out.push_str("=\"");
            for c in value.chars() {
                match c {
                    '\\' => self.out.push_str("\\\\"),
                    '"' => self.out.push_str("\\\""),
                    '\n' => self.out.push_str("\\n"),
                    c => self.out.push(c),
                }
            }
            self.out.push('"');
        }
        self.out.push('}');
    }

    /// Renders one counter family.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.counter_with(name, help, &[], value);
    }

    /// Renders one counter sample carrying `labels`.  Repeat calls with
    /// the same `name` extend the family (one sample per label set);
    /// the header renders once.
    pub fn counter_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.header(name, help, "counter");
        self.out.push_str(name);
        self.push_labels(labels);
        let _ = writeln!(self.out, " {value}");
    }

    /// Renders one gauge family.
    pub fn gauge(&mut self, name: &str, help: &str, value: u64) {
        self.gauge_with(name, help, &[], value);
    }

    /// Renders one gauge sample carrying `labels` — the labelled twin of
    /// [`Exposition::gauge`], same family-extension rule as
    /// [`Exposition::counter_with`].
    pub fn gauge_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.header(name, help, "gauge");
        self.out.push_str(name);
        self.push_labels(labels);
        let _ = writeln!(self.out, " {value}");
    }

    /// Renders one histogram family: cumulative `_bucket{le="…"}` samples
    /// (bucket bounds converted from microseconds to seconds), `_sum` and
    /// `_count`.  Empty trailing buckets collapse into `+Inf`.
    pub fn histogram(&mut self, name: &str, help: &str, snap: &HistogramSnapshot) {
        self.header(name, help, "histogram");
        let last = snap.buckets.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
        let mut cumulative = 0u64;
        for (k, &n) in snap.buckets.iter().enumerate().take(last) {
            cumulative += n;
            let (_, hi) = bucket_bounds(k);
            let le = hi as f64 / 1e6;
            let _ = writeln!(self.out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let total: u64 = snap.buckets.iter().sum();
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {total}");
        let _ = writeln!(self.out, "{name}_sum {}", snap.sum_micros as f64 / 1e6);
        let _ = writeln!(self.out, "{name}_count {total}");
    }

    /// Finishes the build and returns the exposition body.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Checks that `body` is well-formed Prometheus text format: every line is
/// a `# HELP`/`# TYPE` comment or a `name[{labels}] value` sample with a
/// parsable float value.  The label fragment is parsed for real — label
/// names must be `[a-zA-Z_][a-zA-Z0-9_]*`, values must be double-quoted
/// with only `\\`, `\"` and `\n` escapes, pairs separated by commas.
/// Returns the number of sample lines, or a description of the first
/// malformed line.
pub fn validate_exposition(body: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (i, line) in body.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let rest = comment.trim_start();
            if !(rest.starts_with("HELP ") || rest.starts_with("TYPE ")) {
                return Err(format!("line {}: unknown comment `{line}`", i + 1));
            }
            continue;
        }
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return Err(format!("line {}: no value in `{line}`", i + 1)),
        };
        let name = name_part.split('{').next().unwrap_or("");
        let name_ok = !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        if !name_ok {
            return Err(format!("line {}: bad metric name in `{line}`", i + 1));
        }
        if let Some(labels) = name_part.strip_prefix(name) {
            if let Err(what) = validate_labels(labels) {
                return Err(format!("line {}: {what} in `{line}`", i + 1));
            }
        }
        if value_part != "+Inf" && value_part != "-Inf" && value_part.parse::<f64>().is_err() {
            return Err(format!("line {}: bad value `{value_part}`", i + 1));
        }
        samples += 1;
    }
    Ok(samples)
}

/// Parses a sample line's label fragment: empty, or
/// `{name="value",name="value"}` with the text format's escape rules.
fn validate_labels(labels: &str) -> Result<(), &'static str> {
    if labels.is_empty() {
        return Ok(());
    }
    let inner = labels
        .strip_prefix('{')
        .and_then(|rest| rest.strip_suffix('}'))
        .ok_or("unbalanced label braces")?;
    let mut chars = inner.chars().peekable();
    loop {
        // Label name.
        let mut name_len = 0usize;
        while let Some(&c) = chars.peek() {
            let ok = if name_len == 0 {
                c.is_ascii_alphabetic() || c == '_'
            } else {
                c.is_ascii_alphanumeric() || c == '_'
            };
            if !ok {
                break;
            }
            chars.next();
            name_len += 1;
        }
        if name_len == 0 {
            return Err("bad label name");
        }
        if chars.next() != Some('=') {
            return Err("label without `=`");
        }
        if chars.next() != Some('"') {
            return Err("unquoted label value");
        }
        // Quoted value with escapes.
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') | Some('"') | Some('n') => {}
                    _ => return Err("bad escape in label value"),
                },
                Some(_) => {}
                None => return Err("unterminated label value"),
            }
        }
        match chars.next() {
            None => return Ok(()),
            Some(',') => {
                // A trailing comma before `}` is tolerated, as Prometheus
                // itself tolerates it.
                if chars.peek().is_none() {
                    return Ok(());
                }
            }
            Some(_) => return Err("junk after label value"),
        }
    }
}

/// One structured event, built field-by-field and serialised as a single
/// JSON line.  Field order is preserved; the `event` kind always leads.
/// [`EventLog::emit`] appends a process-monotonic `seq` field as the
/// last pair, so interleaved stderr lines from concurrent sessions can
/// be totally ordered after the fact.
#[derive(Debug)]
pub struct Event {
    line: String,
}

impl Event {
    /// Starts an event of the given kind.
    pub fn new(kind: &str) -> Event {
        let mut line = String::from("{\"event\":");
        push_json_str(&mut line, kind);
        Event { line }
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Event {
        self.key(key);
        push_json_str(&mut self.line, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn num(mut self, key: &str, value: u64) -> Event {
        self.key(key);
        let _ = write!(self.line, "{value}");
        self
    }

    /// Adds a float field (rendered with two decimals; non-finite → null).
    pub fn float(mut self, key: &str, value: f64) -> Event {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.line, "{value:.2}");
        } else {
            self.line.push_str("null");
        }
        self
    }

    fn key(&mut self, key: &str) {
        self.line.push(',');
        push_json_str(&mut self.line, key);
        self.line.push(':');
    }

    /// Finishes the event and returns the JSON line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.line.push('}');
        self.line
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Where an [`EventLog`] writes its lines.
enum EventSink {
    /// Process standard error (the default: `qob serve` logs are stderr).
    Stderr,
    /// An in-memory buffer, for tests.
    Buffer(Vec<String>),
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventSink::Stderr => f.write_str("Stderr"),
            EventSink::Buffer(lines) => write!(f, "Buffer({} lines)", lines.len()),
        }
    }
}

/// A JSON-lines event log.
///
/// Disabled by default; enabling it (a positive server-default
/// `slow_query_ms`, i.e. `qob serve --slow-query-ms`) turns on *all* event
/// kinds — replans, fence rejects, evictions, worker panics, slow queries
/// and regressions.  The enabled check is one relaxed atomic load, so a
/// disabled log costs nothing on the hot path; the sink lock is only taken
/// when a line is actually written.  Each written line gets a `seq` field
/// assigned under that lock, so `seq` order **is** write order — strictly
/// monotonic even under concurrent emitters.
#[derive(Debug)]
pub struct EventLog {
    enabled: AtomicBool,
    seq: AtomicU64,
    sink: Mutex<EventSink>,
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog::new()
    }
}

impl EventLog {
    /// Creates a disabled log writing to stderr.
    pub fn new() -> EventLog {
        EventLog {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            sink: Mutex::new(EventSink::Stderr),
        }
    }

    /// Turns the log on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether events are currently written.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Redirects events into an in-memory buffer (for tests); returns any
    /// lines already buffered.
    pub fn capture(&self) -> Vec<String> {
        let mut sink = self.sink.lock().expect("event sink");
        match std::mem::replace(&mut *sink, EventSink::Buffer(Vec::new())) {
            EventSink::Buffer(lines) => lines,
            EventSink::Stderr => Vec::new(),
        }
    }

    /// Drains the buffered lines (empty when the sink is stderr).
    pub fn drain(&self) -> Vec<String> {
        let mut sink = self.sink.lock().expect("event sink");
        match &mut *sink {
            EventSink::Buffer(lines) => std::mem::take(lines),
            EventSink::Stderr => Vec::new(),
        }
    }

    /// Writes one event if the log is enabled, appending its `seq`
    /// field.  The sequence number is taken under the sink lock, so the
    /// written log is strictly `seq`-ordered.
    pub fn emit(&self, event: Event) {
        if !self.is_enabled() {
            return;
        }
        let mut sink = self.sink.lock().expect("event sink");
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let line = event.num("seq", seq).finish();
        match &mut *sink {
            EventSink::Stderr => eprintln!("{line}"),
            EventSink::Buffer(lines) => lines.push(line),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_hold_values() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(17);
        assert_eq!(g.get(), 17);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::index(0), 0);
        assert_eq!(Histogram::index(1), 1);
        assert_eq!(Histogram::index(2), 2);
        assert_eq!(Histogram::index(3), 2);
        assert_eq!(Histogram::index(4), 3);
        assert_eq!(Histogram::index(1023), 10);
        assert_eq!(Histogram::index(1024), 11);
        assert_eq!(Histogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.5), 0.0, "empty histogram");
        for micros in [100u64, 100, 100, 100, 100, 100, 100, 100, 100, 100_000] {
            h.record_micros(micros);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.sum_micros, 100_900);
        let p50 = snap.quantile(0.5);
        assert!((64.0..128.0).contains(&p50), "p50 inside the [64,128) bucket, got {p50}");
        let p99 = snap.quantile(0.99);
        assert!((65_536.0..131_072.0).contains(&p99), "p99 inside the top bucket, got {p99}");
        assert!(snap.quantile(0.0) <= snap.quantile(1.0));
    }

    #[test]
    fn quantile_of_uniform_samples_is_monotone() {
        let h = Histogram::new();
        for micros in 1..=1000u64 {
            h.record_micros(micros);
        }
        let snap = h.snapshot();
        let (p50, p95, p99) = (snap.quantile(0.5), snap.quantile(0.95), snap.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} ≤ {p95} ≤ {p99}");
        // Log-bucketed estimates are within a factor of two of the truth.
        assert!((250.0..1000.0).contains(&p50), "p50 ≈ 500 within 2×, got {p50}");
    }

    #[test]
    fn exposition_renders_and_validates() {
        let registry = MetricsRegistry::new();
        registry.queries_total.add(3);
        registry.query_latency.record(Duration::from_micros(250));
        registry.query_latency.record(Duration::from_millis(8));
        let mut ex = Exposition::new();
        registry.render(&mut ex);
        ex.gauge("qob_up", "Always one", 1);
        let body = ex.finish();
        assert!(body.contains("# TYPE qob_queries_total counter"), "{body}");
        assert!(body.contains("qob_queries_total 3"), "{body}");
        assert!(body.contains("qob_query_seconds_count 2"), "{body}");
        assert!(body.contains("qob_query_seconds_bucket{le=\"+Inf\"} 2"), "{body}");
        let samples = validate_exposition(&body).expect("rendered exposition validates");
        assert!(samples > 10, "{samples} samples");
    }

    #[test]
    fn validate_rejects_malformed_bodies() {
        assert!(validate_exposition("no_value_here").is_err());
        assert!(validate_exposition("name not-a-number").is_err());
        assert!(validate_exposition("# COMMENT nope").is_err());
        assert!(validate_exposition("9starts_with_digit 1").is_err());
        assert!(validate_exposition("bad{labels 1").is_err());
        assert_eq!(validate_exposition("ok 1\nok{a=\"b\"} 2\n# HELP ok fine"), Ok(2));
    }

    #[test]
    fn events_serialise_as_json_lines() {
        let log = EventLog::new();
        log.capture();
        log.emit(Event::new("dropped").str("q", "x")); // disabled → dropped
        log.set_enabled(true);
        assert!(log.is_enabled());
        log.emit(
            Event::new("slow_query")
                .str("query", "q\"1\"")
                .num("elapsed_ms", 250)
                .float("q_error", 12.5)
                .float("bad", f64::NAN),
        );
        let lines = log.drain();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0],
            "{\"event\":\"slow_query\",\"query\":\"q\\\"1\\\"\",\"elapsed_ms\":250,\
             \"q_error\":12.50,\"bad\":null,\"seq\":1}"
        );
        log.set_enabled(false);
        log.emit(Event::new("again").num("n", 1));
        assert!(log.drain().is_empty());
        // Dropped events do not consume sequence numbers: the next
        // written line continues at 2.
        log.set_enabled(true);
        log.emit(Event::new("next"));
        assert_eq!(log.drain(), vec!["{\"event\":\"next\",\"seq\":2}".to_owned()]);
    }

    fn seq_of(line: &str) -> u64 {
        let at = line.rfind("\"seq\":").expect("line carries a seq field");
        line[at + 6..].trim_end_matches('}').parse().expect("numeric seq")
    }

    #[test]
    fn event_seqs_are_strictly_monotonic_under_concurrent_emitters() {
        let log = std::sync::Arc::new(EventLog::new());
        log.capture();
        log.set_enabled(true);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let log = std::sync::Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    log.emit(Event::new("tick").num("thread", t).num("i", i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let lines = log.drain();
        assert_eq!(lines.len(), 800);
        let seqs: Vec<u64> = lines.iter().map(|l| seq_of(l)).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq order must equal write order, strictly");
        assert_eq!(*seqs.first().unwrap(), 1);
        assert_eq!(*seqs.last().unwrap(), 800);
    }

    #[test]
    fn empty_histogram_quantile_is_zero_never_nan() {
        let snap = Histogram::new().snapshot();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0, -3.0, 7.0, f64::NAN, f64::INFINITY] {
            let v = snap.quantile(q);
            assert_eq!(v, 0.0, "empty histogram quantile({q}) must be exactly 0.0");
            assert!(!v.is_nan());
        }
    }

    #[test]
    fn labelled_samples_render_and_validate() {
        let mut ex = Exposition::new();
        ex.gauge_with("qob_storage_encoded_bytes", "Encoded bytes", &[("table", "title")], 42);
        ex.gauge_with("qob_storage_encoded_bytes", "Encoded bytes", &[("table", "movie_info")], 7);
        ex.counter_with("qob_oddities_total", "Escapes", &[("kind", "a\"b\\c\nd")], 1);
        let body = ex.finish();
        assert_eq!(
            body.matches("# TYPE qob_storage_encoded_bytes gauge").count(),
            1,
            "one header per family, however many label sets: {body}"
        );
        assert!(body.contains("qob_storage_encoded_bytes{table=\"title\"} 42"), "{body}");
        assert!(body.contains("qob_storage_encoded_bytes{table=\"movie_info\"} 7"), "{body}");
        assert!(body.contains("{kind=\"a\\\"b\\\\c\\nd\"} 1"), "{body}");
        assert_eq!(validate_exposition(&body), Ok(3));
    }

    #[test]
    fn validate_checks_label_syntax_strictly() {
        // Well-formed labelled samples pass.
        assert_eq!(validate_exposition("m{a=\"b\"} 1"), Ok(1));
        assert_eq!(validate_exposition("m{a=\"b\",c_9=\"d e f\"} 1"), Ok(1));
        assert_eq!(validate_exposition("m{a=\"b\",} 1"), Ok(1), "trailing comma tolerated");
        assert_eq!(validate_exposition("m{le=\"+Inf\"} 1"), Ok(1));
        assert_eq!(validate_exposition("m{a=\"x\\\\y\\\"z\\n\"} 1"), Ok(1), "escapes");
        // Malformed fragments are rejected with the reason.
        for bad in [
            "m{a=\"b\" 1",         // unbalanced braces
            "m{=\"b\"} 1",         // missing label name
            "m{9a=\"b\"} 1",       // label name starts with a digit
            "m{a=b} 1",            // unquoted value
            "m{a=\"b} 1",          // unterminated value
            "m{a=\"b\"c=\"d\"} 1", // missing comma
            "m{a=\"\\x\"} 1",      // unknown escape
            "m{a} 1",              // no `=`
        ] {
            assert!(validate_exposition(bad).is_err(), "accepted: {bad}");
        }
    }
}
