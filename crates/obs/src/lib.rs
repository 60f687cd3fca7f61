#![warn(missing_docs)]

//! # fieldswap-obs
//!
//! First-party observability for the FieldSwap workspace: hierarchical
//! **spans** (RAII guards over a thread-keyed collector, so the scoped
//! worker pool composes cleanly), **counters / gauges / histograms**
//! (fixed-bucket histograms with p50/p90/p99), a **JSONL event sink**,
//! an end-of-run **span-tree summary** (per-phase wall time, call
//! counts, self vs. child time), and a **Prometheus-style** text
//! exposition of the metrics registry.
//!
//! The build environment is offline and the workspace vendors its own
//! dependencies, so this layer is written from scratch on `std` alone
//! and sits *below* every other crate — `docmodel` included — in the
//! dependency graph.
//!
//! ## Inert by default
//!
//! Observability must never change results. The contract, regression-
//! tested from `fieldswap-bench`:
//!
//! * A disabled (default) collector compiles each call site down to one
//!   relaxed atomic load — no clocks, no allocation, no locks.
//! * Instrumentation never touches an RNG stream; every event is
//!   derived from already-computed values and wall clocks.
//! * All output goes to stderr or to explicitly requested files, so
//!   stdout and result JSON stay byte-identical with tracing on or off.
//!
//! ## Usage
//!
//! ```
//! use fieldswap_obs as obs;
//!
//! // Opt in (the bench bins do this from --trace / --metrics):
//! obs::enable_tracing();
//! obs::enable_metrics();
//!
//! {
//!     let _outer = obs::span("train");
//!     let _inner = obs::span_tagged("epoch", || vec![("idx", "0".into())]);
//!     obs::counter_add("fieldswap_train_updates_total", 17);
//!     obs::observe("fieldswap_train_epoch_ms", 12.5);
//! } // guards drop -> span records flow into the global collector
//!
//! assert!(obs::span_summary().contains("train"));
//! assert!(obs::render_prometheus().contains("fieldswap_train_updates_total 17"));
//! ```
//!
//! The global [`Collector`] is process-wide and enable-only (flags are
//! never cleared), matching the one-shot lifecycle of the bench bins.
//! Tests that need isolation instantiate their own [`Collector`].

pub mod cli;
pub mod export;
pub mod logger;
pub mod metrics;
pub mod serve;
pub mod sink;
pub mod span;

pub use export::render_chrome_trace;
pub use logger::{Level, Verbosity};
pub use metrics::{Histogram, Registry};
pub use serve::{Handler, HttpRequest, HttpResponse, HttpServer, ObsServer, PeriodicFlush};
pub use sink::Event;
pub use span::{
    aggregate_path_durations, aggregate_spans, render_span_tree, SpanGuard, SpanNode, SpanRecord,
};

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One observability domain: enable flags, the metrics registry, and the
/// event buffer spans and log lines are collected into.
///
/// The process-wide instance lives behind [`global`]; the free functions
/// at the crate root all forward to it. Tests construct their own
/// collectors for isolation.
pub struct Collector {
    tracing: AtomicBool,
    metrics: AtomicBool,
    /// Verbosity as `u8` (see [`Verbosity`]); default [`Verbosity::Normal`].
    verbosity: AtomicU8,
    registry: Registry,
    events: Mutex<Vec<Event>>,
    epoch: Instant,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A fresh collector with tracing and metrics disabled.
    pub fn new() -> Self {
        Self {
            tracing: AtomicBool::new(false),
            metrics: AtomicBool::new(false),
            verbosity: AtomicU8::new(Verbosity::Normal as u8),
            registry: Registry::new(),
            events: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// Turns on span/event collection.
    pub fn enable_tracing(&self) {
        self.tracing.store(true, Ordering::Relaxed);
    }

    /// Turns on counter/gauge/histogram recording.
    pub fn enable_metrics(&self) {
        self.metrics.store(true, Ordering::Relaxed);
    }

    /// Whether spans and events are being collected.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Whether metrics are being recorded.
    #[inline]
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.load(Ordering::Relaxed)
    }

    /// Sets the stderr log verbosity.
    pub fn set_verbosity(&self, v: Verbosity) {
        self.verbosity.store(v as u8, Ordering::Relaxed);
    }

    /// The current stderr log verbosity.
    pub fn verbosity(&self) -> Verbosity {
        Verbosity::from_u8(self.verbosity.load(Ordering::Relaxed))
    }

    /// Opens a span named `name`. When tracing is disabled this is one
    /// relaxed load and an inert guard.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_tagged(name, Vec::new)
    }

    /// Opens a span with attributes. `attrs` is only evaluated when
    /// tracing is enabled, so tag construction costs nothing by default.
    pub fn span_tagged<F>(&self, name: &'static str, attrs: F) -> SpanGuard<'_>
    where
        F: FnOnce() -> Vec<(&'static str, String)>,
    {
        if !self.tracing_enabled() {
            return SpanGuard::inert();
        }
        SpanGuard::enter(self, name, attrs())
    }

    /// Microseconds elapsed since this collector was created (the
    /// timestamp origin of every event it records).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    pub(crate) fn record_event(&self, event: Event) {
        self.events.lock().expect("obs events poisoned").push(event);
    }

    /// Adds `delta` to the counter `name` (no-op unless metrics are
    /// enabled). Names may carry inline Prometheus labels, e.g.
    /// `fieldswap_cache_hits_total{cache="phrases"}`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if self.metrics_enabled() {
            self.registry.counter_add(name, delta);
        }
    }

    /// Sets the gauge `name` (no-op unless metrics are enabled).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if self.metrics_enabled() {
            self.registry.gauge_set(name, value);
        }
    }

    /// Records `value` into the histogram `name` (no-op unless metrics
    /// are enabled).
    pub fn observe(&self, name: &str, value: f64) {
        if self.metrics_enabled() {
            self.registry.observe(name, value);
        }
    }

    /// The metrics registry (for direct inspection in tests).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Logs `msg` at `level`: printed to stderr when `level` passes the
    /// verbosity filter, and recorded as an event when tracing is on.
    pub fn log(&self, level: Level, msg: &str) {
        if self.verbosity().prints(level) {
            match level {
                Level::Error => eprintln!("error: {msg}"),
                Level::Warn => eprintln!("warning: {msg}"),
                Level::Info | Level::Debug => eprintln!("{msg}"),
            }
        }
        if self.tracing_enabled() {
            self.record_event(Event::Log {
                level,
                msg: msg.to_string(),
                ts_us: self.now_us(),
                thread: span::thread_id(),
            });
        }
    }

    /// Whether a `log` call at `level` would do anything (used by the
    /// macros to skip message formatting entirely).
    pub fn would_log(&self, level: Level) -> bool {
        self.verbosity().prints(level) || self.tracing_enabled()
    }

    /// Number of buffered events.
    pub fn events_len(&self) -> usize {
        self.events.lock().expect("obs events poisoned").len()
    }

    /// A snapshot of the buffered events.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("obs events poisoned").clone()
    }

    /// Serializes every buffered event as one JSON object per line.
    pub fn render_jsonl(&self) -> String {
        let events = self.events.lock().expect("obs events poisoned");
        let mut out = String::new();
        for e in events.iter() {
            sink::to_json_line(e, &mut out);
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL event log to `path`.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render_jsonl())
    }

    /// Aggregates the recorded spans into per-path [`SpanNode`]s — the
    /// snapshot behind the end-of-run summary and the `/spans` endpoint.
    /// Safe to call while a run is in flight: it sees every span closed
    /// so far.
    pub fn span_nodes(&self) -> Vec<SpanNode> {
        let events = self.events.lock().expect("obs events poisoned");
        let records: Vec<&SpanRecord> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span(r) => Some(r),
                Event::Log { .. } => None,
            })
            .collect();
        aggregate_spans(records.into_iter())
    }

    /// Aggregates the recorded spans into the end-of-run tree summary.
    pub fn span_summary(&self) -> String {
        render_span_tree(&self.span_nodes())
    }

    /// The aggregated span tree as a JSON document (the `/spans`
    /// endpoint body): `{"spans":[{"path":…,"calls":…,"total_us":…,
    /// "self_us":…},…]}`, sorted so children follow their parents.
    pub fn render_spans_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, n) in self.span_nodes().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {\"path\":");
            sink::push_json_str(&n.path, &mut out);
            out.push_str(&format!(
                ",\"calls\":{},\"total_us\":{},\"self_us\":{}}}",
                n.calls,
                n.total_us,
                n.self_us()
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the event log as Chrome trace-event JSON (Perfetto /
    /// `chrome://tracing` loadable, one track per recording thread).
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<()> {
        let events = self.events();
        std::fs::write(path, render_chrome_trace(&events))
    }

    /// Renders the metrics registry in Prometheus text exposition style.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Writes the Prometheus exposition to `path`.
    pub fn write_prometheus(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render_prometheus())
    }
}

static GLOBAL: OnceLock<Collector> = OnceLock::new();

/// The process-wide collector every free function forwards to.
pub fn global() -> &'static Collector {
    GLOBAL.get_or_init(Collector::new)
}

/// Enables span/event collection on the global collector.
pub fn enable_tracing() {
    global().enable_tracing();
}

/// Enables metric recording on the global collector.
pub fn enable_metrics() {
    global().enable_metrics();
}

/// Whether the global collector records spans/events.
#[inline]
pub fn tracing_enabled() -> bool {
    global().tracing_enabled()
}

/// Whether the global collector records metrics.
#[inline]
pub fn metrics_enabled() -> bool {
    global().metrics_enabled()
}

/// Sets the global stderr log verbosity.
pub fn set_verbosity(v: Verbosity) {
    global().set_verbosity(v);
}

/// Opens a span on the global collector.
pub fn span(name: &'static str) -> SpanGuard<'static> {
    global().span(name)
}

/// Opens a tagged span on the global collector; `attrs` is evaluated
/// only when tracing is enabled.
pub fn span_tagged<F>(name: &'static str, attrs: F) -> SpanGuard<'static>
where
    F: FnOnce() -> Vec<(&'static str, String)>,
{
    global().span_tagged(name, attrs)
}

/// Adds `delta` to a global counter (no-op when metrics are disabled).
pub fn counter_add(name: &str, delta: u64) {
    global().counter_add(name, delta);
}

/// Sets a global gauge (no-op when metrics are disabled).
pub fn gauge_set(name: &str, value: f64) {
    global().gauge_set(name, value);
}

/// Records a histogram observation (no-op when metrics are disabled).
pub fn observe(name: &str, value: f64) {
    global().observe(name, value);
}

/// Logs a preformatted message on the global collector. Prefer the
/// [`error!`]/[`warn!`]/[`info!`]/[`debug!`] macros, which skip message
/// formatting when nothing would be printed or recorded.
pub fn log(level: Level, msg: &str) {
    global().log(level, msg);
}

/// Macro backend: formats and logs only when the message would go
/// somewhere.
pub fn log_fmt(level: Level, args: std::fmt::Arguments) {
    let c = global();
    if c.would_log(level) {
        c.log(level, &args.to_string());
    }
}

/// The global span-tree summary.
pub fn span_summary() -> String {
    global().span_summary()
}

/// The global metrics registry in Prometheus text form.
pub fn render_prometheus() -> String {
    global().render_prometheus()
}

/// Logs at [`Level::Error`] (always printed, even under `-q`).
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::log_fmt($crate::Level::Error, format_args!($($arg)*)) };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::log_fmt($crate::Level::Warn, format_args!($($arg)*)) };
}

/// Logs at [`Level::Info`] (the default progress level).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::log_fmt($crate::Level::Info, format_args!($($arg)*)) };
}

/// Logs at [`Level::Debug`] (printed only under `--verbose`).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::log_fmt($crate::Level::Debug, format_args!($($arg)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::new();
        {
            let _g = c.span("nope");
            c.counter_add("n", 5);
            c.observe("h", 1.0);
            c.gauge_set("g", 2.0);
        }
        assert_eq!(c.events_len(), 0);
        assert_eq!(c.render_prometheus(), "");
        assert_eq!(c.span_summary(), "");
    }

    #[test]
    fn enabled_collector_records_spans_and_metrics() {
        let c = Collector::new();
        c.enable_tracing();
        c.enable_metrics();
        {
            let _outer = c.span("outer");
            let _inner = c.span_tagged("inner", || vec![("k", "v".into())]);
            c.counter_add("hits_total", 2);
            c.counter_add("hits_total", 3);
        }
        assert_eq!(c.events_len(), 2, "two span-end events");
        let summary = c.span_summary();
        assert!(summary.contains("outer"), "{summary}");
        assert!(summary.contains("inner"), "{summary}");
        assert!(c.render_prometheus().contains("hits_total 5"));
    }

    #[test]
    fn log_respects_verbosity_for_recording() {
        let c = Collector::new();
        c.set_verbosity(Verbosity::Quiet);
        // Not tracing: nothing recorded regardless of level.
        c.log(Level::Error, "boom");
        assert_eq!(c.events_len(), 0);
        // Tracing: recorded even when not printed.
        c.enable_tracing();
        c.log(Level::Debug, "detail");
        assert_eq!(c.events_len(), 1);
        assert!(c.would_log(Level::Debug));
    }

    #[test]
    fn concurrent_span_and_counter_recording_is_lossless() {
        // Two worker threads interleave spans and counter increments;
        // nothing may be lost and the totals must be exact.
        const PER_THREAD: usize = 500;
        let c = Collector::new();
        c.enable_tracing();
        c.enable_metrics();
        std::thread::scope(|s| {
            for t in 0..2 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let _outer = c.span("work");
                        let _inner = c.span_tagged("step", || {
                            vec![("thread", t.to_string()), ("i", i.to_string())]
                        });
                        c.counter_add("work_total", 1);
                        c.observe("step_ms", (i % 7) as f64);
                    }
                });
            }
        });
        assert_eq!(c.events_len(), 2 * 2 * PER_THREAD, "one event per span");
        assert!(c
            .render_prometheus()
            .contains(&format!("work_total {}", 2 * PER_THREAD)));
        let nodes = aggregate_spans(
            c.events()
                .iter()
                .filter_map(|e| match e {
                    Event::Span(r) => Some(r),
                    _ => None,
                })
                .collect::<Vec<_>>()
                .into_iter(),
        );
        let work = nodes.iter().find(|n| n.path == "work").unwrap();
        let step = nodes.iter().find(|n| n.path == "work/step").unwrap();
        assert_eq!(work.calls, 2 * PER_THREAD as u64);
        assert_eq!(step.calls, 2 * PER_THREAD as u64);
    }

    #[test]
    fn jsonl_has_one_object_per_event() {
        let c = Collector::new();
        c.enable_tracing();
        drop(c.span("a"));
        c.log(Level::Error, "oops \"quoted\"\npath\\x");
        let jsonl = c.render_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(jsonl.contains(r#"\"quoted\""#));
        assert!(jsonl.contains(r"\n"));
        assert!(jsonl.contains(r"\\x"));
    }
}
