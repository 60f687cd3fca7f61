//! Hierarchical spans: RAII guards over a thread-keyed stack, span
//! records, and the end-of-run span-tree aggregation.
//!
//! Each thread keeps its own stack of open span names, so nesting is
//! tracked per worker and the scoped thread pool composes cleanly: a
//! span opened on a worker thread roots its own subtree there instead
//! of racing on shared parent state. A span's *path* is the `/`-joined
//! chain of open names on its thread at the moment it closes.

use crate::sink::Event;
use crate::Collector;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

/// Dense id → OS thread name, filled in the first time each thread
/// records an event. Process-global (dense ids are process-global too)
/// so the trace exporters can label per-worker tracks.
static THREAD_NAMES: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD_ID: u64 = {
        let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{id}"));
        THREAD_NAMES
            .lock()
            .expect("thread names poisoned")
            .push((id, name));
        id
    };
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A small dense id for the current thread (assigned on first use).
pub(crate) fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// A snapshot of `(dense id, thread name)` for every thread that has
/// recorded at least one event, in id-assignment order. Unnamed threads
/// report as `thread-<id>`; the pools name their workers
/// (`fieldswap-pool-N`, `fieldswap-grid-N`), which is what gives the
/// Chrome-trace export its per-worker tracks.
pub fn thread_names() -> Vec<(u64, String)> {
    THREAD_NAMES.lock().expect("thread names poisoned").clone()
}

/// One closed span, as recorded into the event sink.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// `/`-joined chain of open span names on this thread, ending in
    /// `name` — e.g. `cell/train`.
    pub path: String,
    /// The span's own name (the last path segment).
    pub name: &'static str,
    /// Dense id of the recording thread.
    pub thread: u64,
    /// Start time in microseconds since the collector's epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Attribute key/value pairs (e.g. the experiment coordinates).
    pub attrs: Vec<(&'static str, String)>,
}

/// RAII guard returned by [`Collector::span`]: records a [`SpanRecord`]
/// when dropped. Inert guards (tracing disabled) do nothing.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct SpanGuard<'a> {
    collector: Option<&'a Collector>,
    name: &'static str,
    start_us: u64,
    attrs: Vec<(&'static str, String)>,
}

impl<'a> SpanGuard<'a> {
    /// The do-nothing guard handed out while tracing is disabled.
    pub(crate) fn inert() -> Self {
        Self {
            collector: None,
            name: "",
            start_us: 0,
            attrs: Vec::new(),
        }
    }

    /// Opens a live span: pushes `name` onto this thread's stack.
    pub(crate) fn enter(
        collector: &'a Collector,
        name: &'static str,
        attrs: Vec<(&'static str, String)>,
    ) -> Self {
        STACK.with(|s| s.borrow_mut().push(name));
        Self {
            collector: Some(collector),
            name,
            start_us: collector.now_us(),
            attrs,
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(collector) = self.collector else {
            return;
        };
        // Both ends on the collector's clock, truncated the same way, so
        // a child never appears to end after its parent.
        let dur_us = collector.now_us().saturating_sub(self.start_us);
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        collector.record_event(Event::Span(SpanRecord {
            path,
            name: self.name,
            thread: thread_id(),
            start_us: self.start_us,
            dur_us,
            attrs: std::mem::take(&mut self.attrs),
        }));
    }
}

/// One aggregated node of the span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Full `/`-joined path.
    pub path: String,
    /// Number of spans recorded at this path.
    pub calls: u64,
    /// Total wall time across all calls, in microseconds. Summed across
    /// threads, so a parallel phase can exceed the run's wall clock.
    pub total_us: u64,
    /// Wall time attributed to child spans, in microseconds.
    pub child_us: u64,
}

impl SpanNode {
    /// Time spent in this span itself: total minus child time
    /// (saturating, in case children raced past a parent's clock).
    pub fn self_us(&self) -> u64 {
        self.total_us.saturating_sub(self.child_us)
    }

    /// Nesting depth (number of `/` separators).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    /// The node's own name (last path segment).
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// Aggregates span records into per-path nodes, sorted by path so
/// children immediately follow their parents. Each record contributes
/// its duration to its own path's total and to its parent path's child
/// time.
pub fn aggregate_spans<'a>(records: impl Iterator<Item = &'a SpanRecord>) -> Vec<SpanNode> {
    aggregate_path_durations(records.map(|r| (r.path.as_str(), r.dur_us)))
}

/// The aggregation behind [`aggregate_spans`], keyed on bare
/// `(path, duration)` pairs so callers that parsed a trace from disk
/// (owned strings, no `&'static` names) can reuse it verbatim — the
/// `trace_report` analyzer feeds it JSONL records.
pub fn aggregate_path_durations<'a>(
    records: impl Iterator<Item = (&'a str, u64)>,
) -> Vec<SpanNode> {
    use std::collections::BTreeMap;
    // path -> (calls, total, child)
    let mut map: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (path, dur_us) in records {
        let e = map.entry(path.to_string()).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += dur_us;
        if let Some(pos) = path.rfind('/') {
            let parent = &path[..pos];
            if let Some(p) = map.get_mut(parent) {
                p.2 += dur_us;
            } else {
                map.insert(parent.to_string(), (0, 0, dur_us));
            }
        }
    }
    map.into_iter()
        .map(|(path, (calls, total_us, child_us))| SpanNode {
            path,
            calls,
            total_us,
            child_us,
        })
        .collect()
}

/// Renders aggregated nodes as the indented end-of-run summary:
///
/// ```text
/// span tree — total wall, self (total - children), calls
/// cell                            total 1234.5ms  self   12.3ms  x9
///   train                         total  800.0ms  self  800.0ms  x9
/// ```
pub fn render_span_tree(nodes: &[SpanNode]) -> String {
    if nodes.is_empty() {
        return String::new();
    }
    let mut out = String::from("span tree — total wall, self (total - children), calls\n");
    for n in nodes {
        let indent = "  ".repeat(n.depth());
        let label = format!("{indent}{}", n.name());
        out.push_str(&format!(
            "{label:<32} total {:>9.1}ms  self {:>9.1}ms  x{}\n",
            n.total_us as f64 / 1e3,
            n.self_us() as f64 / 1e3,
            n.calls
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(path: &str, dur_us: u64) -> SpanRecord {
        SpanRecord {
            path: path.to_string(),
            name: "",
            thread: 0,
            start_us: 0,
            dur_us,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn aggregation_computes_self_and_child_time() {
        let records = [
            rec("cell", 100),
            rec("cell", 140),
            rec("cell/train", 80),
            rec("cell/train", 90),
            rec("cell/eval", 40),
        ];
        let nodes = aggregate_spans(records.iter());
        assert_eq!(nodes.len(), 3);
        let cell = nodes.iter().find(|n| n.path == "cell").unwrap();
        assert_eq!(cell.calls, 2);
        assert_eq!(cell.total_us, 240);
        assert_eq!(cell.child_us, 80 + 90 + 40);
        assert_eq!(cell.self_us(), 240 - 210);
        let train = nodes.iter().find(|n| n.path == "cell/train").unwrap();
        assert_eq!(train.calls, 2);
        assert_eq!(train.total_us, 170);
        assert_eq!(train.self_us(), 170);
    }

    #[test]
    fn aggregation_orders_children_after_parents() {
        let records = [rec("b", 1), rec("a/x", 2), rec("a", 5), rec("a/x/y", 1)];
        let nodes = aggregate_spans(records.iter());
        let paths: Vec<&str> = nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(paths, vec!["a", "a/x", "a/x/y", "b"]);
        assert_eq!(nodes[0].depth(), 0);
        assert_eq!(nodes[2].depth(), 2);
        assert_eq!(nodes[2].name(), "y");
    }

    #[test]
    fn parent_never_recorded_still_gets_child_time() {
        // A child closing on a worker thread may reference a parent path
        // that itself never closed (e.g. the run was cut short); the
        // aggregate must still account the child time somewhere visible.
        let records = [rec("run/cell", 50)];
        let nodes = aggregate_spans(records.iter());
        let parent = nodes.iter().find(|n| n.path == "run").unwrap();
        assert_eq!(parent.calls, 0);
        assert_eq!(parent.child_us, 50);
        assert_eq!(parent.self_us(), 0, "saturates instead of underflowing");
    }

    #[test]
    fn render_indents_by_depth() {
        let nodes = aggregate_spans([rec("cell", 1000), rec("cell/train", 600)].iter());
        let text = render_span_tree(&nodes);
        assert!(text.contains("\ncell "), "{text}");
        assert!(text.contains("\n  train "), "{text}");
        assert_eq!(render_span_tree(&[]), "");
    }

    #[test]
    fn nested_guards_produce_hierarchical_paths() {
        let c = Collector::new();
        c.enable_tracing();
        {
            let _a = c.span("outer");
            {
                let _b = c.span("mid");
                let _c = c.span("leaf");
            }
            let _d = c.span("mid2");
        }
        let events = c.events();
        let paths: Vec<String> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span(r) => Some(r.path.clone()),
                _ => None,
            })
            .collect();
        // Drop order: leaf, mid, mid2, outer.
        assert_eq!(
            paths,
            vec!["outer/mid/leaf", "outer/mid", "outer/mid2", "outer"]
        );
    }
}
