//! `trace_report` — analyze a `--trace` JSONL trace: per-phase
//! total/self/call tables, the critical path, per-worker utilization,
//! and (with `--baseline`) a phase-level regression diff that exits
//! nonzero when a phase regresses past `--gate-pct`.
//!
//! ```text
//! trace_report TRACE.jsonl
//! trace_report TRACE.jsonl --baseline OLD.jsonl --gate-pct 30 --min-ms 50
//! ```

use fieldswap_bench::trace_report::{
    aggregate, diff_phases, parse_trace, render_diff, render_report,
};
use fieldswap_bench::{fail, trace_report::TraceSpan};
use fieldswap_obs::cli::Flags;

struct Args {
    trace: String,
    baseline: Option<String>,
    gate_pct: f64,
    min_ms: f64,
}

fn load(path: &str) -> Vec<TraceSpan> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    parse_trace(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

fn main() {
    let args = Flags::from_env()
        .read(|f| {
            Ok(Args {
                baseline: f.value("--baseline")?,
                gate_pct: f.num("--gate-pct")?.unwrap_or(30.0),
                min_ms: f.num("--min-ms")?.unwrap_or(50.0),
                trace: f.positional().ok_or("missing TRACE.jsonl argument")?,
            })
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!(
                "usage: trace_report TRACE.jsonl [--baseline OLD.jsonl] [--gate-pct PCT] [--min-ms MS]"
            );
            std::process::exit(1)
        });
    let spans = load(&args.trace);
    println!("trace report: {} ({} spans)", args.trace, spans.len());
    println!();
    print!("{}", render_report(&spans));

    if let Some(baseline_path) = &args.baseline {
        let baseline = load(baseline_path);
        let deltas = diff_phases(&aggregate(&baseline), &aggregate(&spans));
        let (table, failures) = render_diff(&deltas, args.gate_pct, args.min_ms);
        println!();
        print!("{table}");
        if !failures.is_empty() {
            eprintln!(
                "error: {} phase(s) regressed more than {:.0}% vs {baseline_path}",
                failures.len(),
                args.gate_pct
            );
            std::process::exit(1);
        }
        println!(
            "gate ok: no phase grew more than {:.0}% (noise floor {:.0}ms)",
            args.gate_pct, args.min_ms
        );
    }
}
