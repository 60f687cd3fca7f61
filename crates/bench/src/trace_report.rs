//! Trace analysis for the JSONL traces written by `--trace` (the
//! `trace_report` binary): the per-phase span tree (total, self and
//! calls, as [`fieldswap_obs::render_span_tree`] prints it at the end of
//! a traced run), the critical path through it, and per-worker
//! utilization timelines.

use fieldswap_obs::{aggregate_path_durations, render_span_tree, SpanNode};
use serde_json::Value;
use std::collections::BTreeMap;

/// One span parsed back out of a JSONL trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// `/`-joined span path (e.g. `cell/train`).
    pub path: String,
    /// Dense id of the recording thread.
    pub thread: u64,
    /// Start time in microseconds since the run's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Parses a JSONL trace into its span records, skipping log events.
/// Lines that are not valid JSON objects are an error (a truncated
/// trace should be diagnosed, not silently half-read); unknown event
/// types are skipped so the format can grow.
pub fn parse_trace(jsonl: &str) -> Result<Vec<TraceSpan>, String> {
    let mut spans = Vec::new();
    for (idx, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {}: not valid JSON ({e:?})", idx + 1))?;
        if v.get("type").and_then(Value::as_str) != Some("span") {
            continue;
        }
        let field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("line {}: span missing {k}", idx + 1))
        };
        spans.push(TraceSpan {
            path: v
                .get("path")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: span missing path", idx + 1))?
                .to_string(),
            thread: field("thread")?,
            start_us: field("start_us")?,
            dur_us: field("dur_us")?,
        });
    }
    Ok(spans)
}

/// Aggregates parsed spans into per-path nodes (same aggregation as the
/// live collector's span summary).
pub fn aggregate(spans: &[TraceSpan]) -> Vec<SpanNode> {
    aggregate_path_durations(spans.iter().map(|s| (s.path.as_str(), s.dur_us)))
}

/// The critical path: starting from the root with the largest total
/// time, repeatedly descend into the child with the largest total time.
/// On an aggregated tree this is the chain of phases that dominated the
/// run — the place an optimization must land to move the wall clock.
pub fn critical_path(nodes: &[SpanNode]) -> Vec<&SpanNode> {
    let mut path = Vec::new();
    let mut current = nodes
        .iter()
        .filter(|n| n.depth() == 0)
        .max_by_key(|n| n.total_us);
    while let Some(node) = current {
        path.push(node);
        let prefix = format!("{}/", node.path);
        current = nodes
            .iter()
            .filter(|n| n.path.starts_with(&prefix) && n.depth() == node.depth() + 1)
            .max_by_key(|n| n.total_us);
    }
    path
}

/// Renders the critical path with per-step totals and the share each
/// step's self time takes of the path root.
pub fn render_critical_path(nodes: &[SpanNode]) -> String {
    let path = critical_path(nodes);
    let Some(root) = path.first() else {
        return "critical path: (no spans)\n".to_string();
    };
    let mut out = String::from("critical path (largest-total chain):\n");
    for n in &path {
        let share = if root.total_us > 0 {
            100.0 * n.total_us as f64 / root.total_us as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:<38} total {:>9.1}ms  self {:>9.1}ms  {share:>5.1}% of {}\n",
            n.path,
            n.total_us as f64 / 1e3,
            n.self_us() as f64 / 1e3,
            root.name(),
        ));
    }
    out
}

/// Per-thread busy time, computed as the union of the thread's span
/// intervals (nested spans don't double-count).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerUtilization {
    /// Dense thread id from the trace.
    pub thread: u64,
    /// Number of spans recorded on this thread.
    pub spans: u64,
    /// Busy microseconds (union of span intervals).
    pub busy_us: u64,
    /// Per-bucket busy fraction over the run window, for the ASCII
    /// timeline (fixed bucket count, run window split evenly).
    pub timeline: Vec<f64>,
}

/// Number of buckets in the utilization timeline.
pub const TIMELINE_BUCKETS: usize = 48;

/// Computes per-worker utilization over the run window
/// `[min start, max end]` across all spans.
pub fn worker_utilization(spans: &[TraceSpan]) -> Vec<WorkerUtilization> {
    let Some(t0) = spans.iter().map(|s| s.start_us).min() else {
        return Vec::new();
    };
    let t1 = spans
        .iter()
        .map(|s| s.start_us + s.dur_us)
        .max()
        .unwrap_or(t0);
    let window = (t1 - t0).max(1);
    let mut by_thread: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        by_thread
            .entry(s.thread)
            .or_default()
            .push((s.start_us, s.start_us + s.dur_us));
    }
    by_thread
        .into_iter()
        .map(|(thread, mut intervals)| {
            let spans = intervals.len() as u64;
            // Union of intervals: sort by start, merge overlaps.
            intervals.sort_unstable();
            let mut merged: Vec<(u64, u64)> = Vec::new();
            for (start, end) in intervals {
                match merged.last_mut() {
                    Some(last) if start <= last.1 => last.1 = last.1.max(end),
                    _ => merged.push((start, end)),
                }
            }
            let busy_us: u64 = merged.iter().map(|(s, e)| e - s).sum();
            let bucket_us = (window as f64) / TIMELINE_BUCKETS as f64;
            let mut timeline = vec![0.0f64; TIMELINE_BUCKETS];
            for &(start, end) in &merged {
                for (b, slot) in timeline.iter_mut().enumerate() {
                    let b0 = t0 as f64 + b as f64 * bucket_us;
                    let b1 = b0 + bucket_us;
                    let overlap = (end as f64).min(b1) - (start as f64).max(b0);
                    if overlap > 0.0 {
                        *slot += overlap / bucket_us;
                    }
                }
            }
            for slot in &mut timeline {
                *slot = slot.min(1.0);
            }
            WorkerUtilization {
                thread,
                spans,
                busy_us,
                timeline,
            }
        })
        .collect()
}

/// Renders the per-worker utilization table with an ASCII timeline:
/// each column is one slice of the run window, shaded by busy fraction.
pub fn render_utilization(spans: &[TraceSpan]) -> String {
    let workers = worker_utilization(spans);
    if workers.is_empty() {
        return "worker utilization: (no spans)\n".to_string();
    }
    let window_us = spans
        .iter()
        .map(|s| s.start_us + s.dur_us)
        .max()
        .unwrap_or(0)
        .saturating_sub(spans.iter().map(|s| s.start_us).min().unwrap_or(0))
        .max(1);
    let mut out = format!(
        "worker utilization over {:.1}ms window ('.'<25% ':'<50% '+'<75% '#'>=75%):\n",
        window_us as f64 / 1e3
    );
    for w in &workers {
        let bar: String = w
            .timeline
            .iter()
            .map(|&f| match f {
                f if f >= 0.75 => '#',
                f if f >= 0.50 => '+',
                f if f >= 0.25 => ':',
                f if f > 0.0 => '.',
                _ => ' ',
            })
            .collect();
        out.push_str(&format!(
            "  thread {:>3}  {:>5.1}% busy  {:>6} spans  |{bar}|\n",
            w.thread,
            100.0 * w.busy_us as f64 / window_us as f64,
            w.spans,
        ));
    }
    out
}

/// Renders the full single-trace report: span tree, critical path,
/// worker utilization.
pub fn render_report(spans: &[TraceSpan]) -> String {
    let nodes = aggregate(spans);
    let mut out = render_span_tree(&nodes);
    out.push('\n');
    out.push_str(&render_critical_path(&nodes));
    out.push('\n');
    out.push_str(&render_utilization(spans));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(path: &str, thread: u64, start: u64, dur: u64) -> TraceSpan {
        TraceSpan {
            path: path.to_string(),
            thread,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn parses_spans_and_skips_logs() {
        let jsonl = concat!(
            r#"{"type":"span","path":"cell/train","name":"train","thread":3,"start_us":120,"dur_us":4500,"attrs":{"domain":"Earnings"}}"#,
            "\n",
            r#"{"type":"log","level":"info","msg":"hi","ts_us":99,"thread":0}"#,
            "\n\n",
            r#"{"type":"span","path":"cell","name":"cell","thread":3,"start_us":100,"dur_us":5000}"#,
            "\n",
        );
        let spans = parse_trace(jsonl).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0], span("cell/train", 3, 120, 4500));
        assert_eq!(spans[1], span("cell", 3, 100, 5000));
    }

    #[test]
    fn truncated_line_is_an_error() {
        let err = parse_trace("{\"type\":\"span\",\"path\":\"a\"").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_trace("{\"type\":\"span\",\"thread\":0,\"start_us\":0,\"dur_us\":1}")
            .unwrap_err();
        assert!(err.contains("missing path"), "{err}");
    }

    #[test]
    fn phase_table_shows_self_and_total() {
        let spans = [
            span("cell", 0, 0, 1000),
            span("cell/train", 0, 0, 600),
            span("cell/eval", 0, 600, 300),
        ];
        let report = render_report(&spans);
        // cell: total 1000us = 1.0ms, self 1000 - 900 = 100us = 0.1ms.
        let cell = report.lines().find(|l| l.starts_with("cell ")).unwrap();
        assert!(
            cell.contains("total       1.0ms") && cell.contains("self       0.1ms"),
            "{report}"
        );
        assert!(report.contains("\n  train "), "{report}");
    }

    #[test]
    fn critical_path_follows_largest_totals() {
        let spans = [
            span("grid", 0, 0, 10_000),
            span("grid/cell", 0, 0, 6_000),
            span("grid/cell/train", 0, 0, 4_000),
            span("grid/cell/eval", 0, 4_000, 1_500),
            span("grid/setup", 0, 9_000, 500),
            span("other_root", 1, 0, 50),
        ];
        let nodes = aggregate(&spans);
        let path: Vec<&str> = critical_path(&nodes)
            .iter()
            .map(|n| n.path.as_str())
            .collect();
        assert_eq!(path, vec!["grid", "grid/cell", "grid/cell/train"]);
        let text = render_critical_path(&nodes);
        assert!(text.contains("grid/cell/train"), "{text}");
        assert!(render_critical_path(&[]).contains("no spans"));
    }

    #[test]
    fn utilization_unions_nested_spans() {
        // Thread 0 busy [0,100) with a nested child [10,90) — busy time
        // must be 100, not 180.
        let spans = [
            span("a", 0, 0, 100),
            span("a/b", 0, 10, 80),
            span("c", 1, 50, 50),
        ];
        let workers = worker_utilization(&spans);
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[0].thread, 0);
        assert_eq!(workers[0].busy_us, 100);
        assert_eq!(workers[0].spans, 2);
        assert_eq!(workers[1].busy_us, 50);
        // Thread 0 is busy the whole window, thread 1 only the back half.
        let text = render_utilization(&spans);
        assert!(text.contains("thread   0  100.0% busy"), "{text}");
        assert!(text.contains("thread   1   50.0% busy"), "{text}");
    }

    #[test]
    fn full_report_renders_all_sections() {
        let spans = [span("grid", 0, 0, 1000), span("grid/cell", 1, 0, 800)];
        let report = render_report(&spans);
        assert!(report.contains("span tree"), "{report}");
        assert!(report.contains("critical path"), "{report}");
        assert!(report.contains("worker utilization"), "{report}");
    }
}
