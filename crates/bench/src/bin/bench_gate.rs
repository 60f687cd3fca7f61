//! CI gate runner: compares benchmark/accuracy artifacts and exits
//! non-zero on regression. All comparison logic lives in
//! [`fieldswap_bench::gate`] where it is unit-tested; this binary only
//! parses flags, loads JSON, prints the table, and sets the exit code.
//!
//! Modes:
//!
//! ```text
//! bench_gate perf  --baseline BENCH_train.json --current fresh.json [--max-regress 0.30]
//! bench_gate quant --exact f32.json --quantized q8.json [--epsilon E] [--table PATH]
//! bench_gate serve --baseline BENCH_serve.json --current fresh.json [--max-regress 0.30]
//! ```
//!
//! * `perf` and `serve` run one comparator,
//!   [`fieldswap_bench::gate::regression_gate`], and differ only in the
//!   table of metrics it reads. `perf` fails when the throughput of any
//!   stage in [`fieldswap_bench::gate::PERF_GATE`] (`infer_frozen`,
//!   `extract_train`, `nn_train`) dropped by more than `--max-regress`
//!   (fraction, default 0.30) versus the committed baseline.
//! * `quant` matches fig4 points by `(domain, size, arm)` between an
//!   exact-f32 and a `--quantized` `fig4_macro_f1 --json` dump and fails
//!   when any macro-F1 delta exceeds `--epsilon` (default
//!   [`fieldswap_eval::QUANT_MACRO_F1_EPSILON`], the same bound the
//!   in-repo guard test enforces). `--table` additionally writes the
//!   delta table to a file for artifact upload.
//! * `serve` fails when a fresh `serve_bench --json` dump's throughput
//!   dropped, or its p99 latency rose, by more than `--max-regress`
//!   versus the committed `BENCH_serve.json`
//!   ([`fieldswap_bench::gate::SERVE_GATE`]).

use fieldswap_bench::gate;
use fieldswap_obs::cli::Flags;
use serde_json::Value;

fn usage(msg: &str) -> ! {
    eprintln!(
        "usage: bench_gate perf --baseline PATH --current PATH [--max-regress X]\n       \
         bench_gate quant --exact PATH --quantized PATH [--epsilon E] [--table PATH]\n       \
         bench_gate serve --baseline PATH --current PATH [--max-regress X]"
    );
    fieldswap_bench::fail(msg)
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fieldswap_bench::fail(&format!("read {path}: {e}")));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| fieldswap_bench::fail(&format!("parse {path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = args.split_first() else {
        usage("missing mode (perf|quant|serve)");
    };
    let flags = Flags::new(rest.to_vec());
    let required =
        |name: &str, path: Option<String>| path.ok_or_else(|| format!("{mode} requires {name}"));

    let failed = match mode.as_str() {
        "perf" | "serve" => {
            let rows: &[_] = if mode == "perf" {
                &gate::PERF_GATE
            } else {
                &gate::SERVE_GATE
            };
            let (baseline, current, max_regress) = flags
                .read(|f| {
                    Ok((
                        required("--baseline", f.value("--baseline")?)?,
                        required("--current", f.value("--current")?)?,
                        f.num("--max-regress")?.unwrap_or(0.30),
                    ))
                })
                .unwrap_or_else(|e| usage(&e));
            let deltas =
                gate::regression_gate(rows, &load(&baseline), &load(&current), max_regress);
            print!("{}", gate::render_table(&deltas));
            println!("(gate fails when regression > {:.0}%)", max_regress * 100.0);
            deltas.iter().any(|d| d.failed)
        }
        "quant" => {
            let (exact, quantized, epsilon, table_path) = flags
                .read(|f| {
                    Ok((
                        required("--exact", f.value("--exact")?)?,
                        required("--quantized", f.value("--quantized")?)?,
                        f.num("--epsilon")?
                            .unwrap_or(fieldswap_eval::QUANT_MACRO_F1_EPSILON),
                        f.value("--table")?,
                    ))
                })
                .unwrap_or_else(|e| usage(&e));
            let deltas = gate::quant_gate(&load(&exact), &load(&quantized), epsilon);
            if deltas.is_empty() {
                fieldswap_bench::fail("no comparable points found in the two dumps");
            }
            let table = gate::render_quant_table(&deltas, epsilon);
            print!("{table}");
            if let Some(path) = table_path {
                std::fs::write(&path, &table)
                    .unwrap_or_else(|e| fieldswap_bench::fail(&format!("write {path}: {e}")));
                fieldswap_obs::info!("wrote {path}");
            }
            deltas.iter().any(|d| d.failed)
        }
        other => usage(&format!("unknown mode {other:?} (perf|quant|serve)")),
    };
    if failed {
        fieldswap_bench::fail("gate FAILED");
    }
    println!("gate ok");
}
