//! The trace exporter beyond the native JSONL: Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`).
//!
//! The Chrome export puts each recording thread on its own track,
//! labeled with its OS thread name (`fieldswap-pool-3`,
//! `fieldswap-grid-0`, …), so the worker-pool utilization from the
//! parallel grid/training is directly visible on the timeline. Spans
//! become `"X"` (complete) events, log lines become `"i"` (instant)
//! events. Per-phase self time is the `self` column of
//! [`render_span_tree`](crate::render_span_tree).

use crate::sink::{push_json_str, Event};
use crate::span::{thread_names, SpanRecord};

/// Renders events as a Chrome trace-event JSON document (the
/// `{"traceEvents":[...]}` object form). Timestamps and durations are
/// microseconds since the collector's epoch, which is what the
/// `ts`/`dur` fields expect.
pub fn render_chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push_sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n  ");
    };
    // Metadata first: name each thread's track. Only threads that
    // actually recorded events have entries.
    for (tid, name) in thread_names() {
        push_sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":"
        ));
        push_json_str(&name, &mut out);
        out.push_str("}}");
    }
    for e in events {
        push_sep(&mut out);
        match e {
            Event::Span(r) => push_complete_event(r, &mut out),
            Event::Log {
                level,
                msg,
                ts_us,
                thread,
            } => {
                out.push_str("{\"name\":");
                push_json_str(level.name(), &mut out);
                out.push_str(&format!(
                    ",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{thread},\"ts\":{ts_us},\"args\":{{\"msg\":"
                ));
                push_json_str(msg, &mut out);
                out.push_str("}}");
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

fn push_complete_event(r: &SpanRecord, out: &mut String) {
    out.push_str("{\"name\":");
    push_json_str(r.name, out);
    out.push_str(",\"cat\":");
    // Category = the parent path, so Perfetto's filter box can slice by
    // subtree ("cell", "cell/train", ...).
    let parent = r.path.rfind('/').map(|p| &r.path[..p]).unwrap_or("root");
    push_json_str(parent, out);
    out.push_str(&format!(
        ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
        r.thread, r.start_us, r.dur_us
    ));
    if !r.attrs.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in r.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(k, out);
            out.push(':');
            push_json_str(v, out);
        }
        out.push('}');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::Level;
    use crate::Collector;

    fn span(path: &str, name: &'static str, thread: u64, start: u64, dur: u64) -> Event {
        Event::Span(SpanRecord {
            path: path.to_string(),
            name,
            thread,
            start_us: start,
            dur_us: dur,
            attrs: Vec::new(),
        })
    }

    #[test]
    fn chrome_trace_is_valid_json_with_complete_events() {
        let events = [
            span("cell", "cell", 0, 0, 100),
            span("cell/train", "train", 1, 10, 60),
            Event::Log {
                level: Level::Info,
                msg: "note \"quoted\"".into(),
                ts_us: 42,
                thread: 0,
            },
        ];
        let doc = render_chrome_trace(&events);
        assert!(doc.starts_with("{\"traceEvents\":["), "{doc}");
        assert!(doc.trim_end().ends_with("]}"), "{doc}");
        assert!(
            doc.contains("\"name\":\"train\",\"cat\":\"cell\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":10,\"dur\":60"),
            "{doc}"
        );
        assert!(doc.contains("\"ph\":\"i\""), "{doc}");
        assert!(doc.contains(r#"note \"quoted\""#), "{doc}");
        // Balanced braces/brackets: a cheap structural sanity check for
        // the hand-rolled serializer.
        let open = doc.matches('{').count();
        let close = doc.matches('}').count();
        assert_eq!(open, close, "{doc}");
    }

    #[test]
    fn chrome_trace_names_recording_threads() {
        let c = Collector::new();
        c.enable_tracing();
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .name("export-test-worker".into())
                .spawn_scoped(s, || drop(c.span("w")))
                .unwrap();
        });
        let doc = render_chrome_trace(&c.events());
        assert!(doc.contains("\"ph\":\"M\""), "{doc}");
        assert!(doc.contains("export-test-worker"), "{doc}");
    }

    #[test]
    fn empty_event_lists_render_cleanly() {
        let doc = render_chrome_trace(&[]);
        assert!(doc.contains("traceEvents"), "{doc}");
    }
}
