//! The FieldSwap benchmark runner.
//!
//! ```text
//! fieldswap-perfbench --workload <grid-quick|serve-batch>
//!                     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates its inputs from the seed, measures the workload,
//! checks every output, prints a human-readable report (the machine
//! fingerprint, operation counts per phase, every metric with its unit)
//! and ends with one JSON line: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. It exits non-zero on any output mismatch
//! or failed operation.
//!
//! See `perfbench/README.md` for the workloads, the metrics and which
//! layer metric should move which end-to-end metric.

mod grid;
mod http;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Mismatches printed in full; the rest are counted.
const MISMATCHES_SHOWN: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("flag {flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fieldswap-perfbench --workload <grid-quick|serve-batch> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let result = run(&args, &out_dir, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the workload and prints the report; `Ok(false)` when an output
/// was wrong.
fn run(args: &Args, out_dir: &std::path::Path, work: &std::path::Path) -> Result<bool, String> {
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", report::fingerprint());
    let service = match args.workload.as_str() {
        "grid-quick" => false,
        "serve-batch" => true,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let (mut outcome, spans): (Outcome, Option<trace::Tracer>) = match (service, args.trace) {
        (false, false) => (grid::run(args.seed, args.seconds), None),
        (false, true) => {
            let (o, t) = grid::run_traced(args.seed);
            (o, Some(t))
        }
        (true, false) => (serve::run(args.seed, args.seconds, work)?, None),
        (true, true) => {
            let (o, t) = serve::run_traced(args.seed, args.seconds, work)?;
            (o, Some(t))
        }
    };
    let table: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        if service {
            outcome.set("peak_rss_mb", report::peak_rss_mb());
        }
        &END_TO_END
    };
    if let Some(t) = spans {
        std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir:?}: {e}"))?;
        let path = out_dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        t.write_jsonl(&path)
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        println!("spans: {} written to {}", t.spans().len(), path.display());
    }
    outcome.check_metrics(table)?;

    for p in &outcome.phases {
        println!(
            "phase {:<8} attempted {:>7} succeeded {:>7} failed {:>5}",
            p.name, p.attempted, p.succeeded, p.failed
        );
    }
    for n in &outcome.notes {
        println!("{n}");
    }
    for (name, unit) in table {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .expect("checked above");
        println!("metric {name:<24} {value:>16.6} {unit}");
    }
    for m in outcome.mismatches.iter().take(MISMATCHES_SHOWN) {
        eprintln!("mismatch: {m}");
    }
    if outcome.mismatches.len() > MISMATCHES_SHOWN {
        eprintln!(
            "mismatch: ... and {} more",
            outcome.mismatches.len() - MISMATCHES_SHOWN
        );
    }
    println!("{}", outcome.result_json(table));
    Ok(outcome.mismatches.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_run_flags() {
        let a = args("--workload serve-batch --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-batch", 7, 10.0, true)
        );
        assert!(args("--workload x --seed 1 --seconds 10").is_err());
        assert!(args("--workload x --seed -1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload x --seed 1 --seconds 10 --trace").is_err());
        assert!(args("--bogus 1").is_err());
    }

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// metrics this runner prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = v
                .get(key)
                .and_then(serde::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(serde::Value::as_str)
                            .unwrap()
                            .to_string(),
                        m.get("unit")
                            .and_then(serde::Value::as_str)
                            .unwrap()
                            .to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(serde::Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(serde::Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, ["grid-quick", "serve-batch"]);
    }

    #[test]
    fn every_per_layer_metric_is_set_by_exactly_one_side() {
        let mut names: Vec<&str> = grid::GRID_ONLY
            .iter()
            .chain(serve::SERVE_ONLY.iter())
            .copied()
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for n in names {
            assert!(PER_LAYER.iter().any(|(p, _)| *p == n), "{n}");
        }
    }
}
