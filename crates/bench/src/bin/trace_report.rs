//! `trace_report` — analyze a `--trace` JSONL trace: the per-phase span
//! tree (total, self, calls), the critical path, and per-worker
//! utilization.
//!
//! ```text
//! trace_report TRACE.jsonl
//! ```

use fieldswap_bench::fail;
use fieldswap_bench::trace_report::{parse_trace, render_report};
use fieldswap_obs::cli::Flags;

fn main() {
    let path = Flags::from_env()
        .read(|f| {
            f.positional()
                .ok_or_else(|| "missing TRACE.jsonl argument".into())
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("usage: trace_report TRACE.jsonl");
            std::process::exit(1)
        });
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let spans = parse_trace(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    println!("trace report: {path} ({} spans)", spans.len());
    println!();
    print!("{}", render_report(&spans));
}
