//! CI gate logic: the comparisons behind the `bench_gate` binary, kept as
//! plain functions over parsed JSON so they are unit-testable instead of
//! living in workflow YAML.
//!
//! Two comparators:
//!
//! * **regression** ([`regression_gate`]) — compares a fresh report
//!   against a committed baseline over a table of metric rows, each a
//!   JSON path and the direction that counts as better, and fails a row
//!   only when it regressed by more than the tolerance (default 30%,
//!   generous because CI machines are noisy). `perf` mode gates a
//!   `perf_profile` report against `BENCH_train.json` over
//!   [`PERF_GATE`]; `serve` mode gates a `serve_bench --json` dump
//!   against `BENCH_serve.json` over [`SERVE_GATE`].
//! * **quant** — compares two `fig4_macro_f1 --json` dumps (exact f32 vs
//!   `--quantized`) point by point, and fails when any point's macro-F1
//!   drifts by more than the epsilon shared with the in-repo guard test
//!   ([`fieldswap_eval::QUANT_MACRO_F1_EPSILON`]).

use serde_json::Value;

/// Which way a gated metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughput-like: a drop is a regression.
    Higher,
    /// Latency-like: a rise is a regression.
    Lower,
}

/// One metric's comparison in a regression gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// The metric's JSON path (`infer_frozen.docs_per_sec`, `p99_ms`, ...).
    pub metric: &'static str,
    /// Baseline value from the committed report.
    pub baseline: f64,
    /// Current value from the fresh report.
    pub current: f64,
    /// Fractional regression in the metric's bad direction: throughput
    /// dropping and latency rising are both positive. Negative means the
    /// current run improved.
    pub regression: f64,
    /// Whether this metric alone fails the gate.
    pub failed: bool,
}

/// The `perf_profile` stages `perf` mode gates, by docs/sec. The decode
/// path (`infer_frozen`, which times the crate's one decoder) is a tight
/// loop whose floor is stable, and since schema 4 the training stages
/// are warm-up + min-of-K measurements rather than single shots, so
/// their floor is stable enough to gate too. The remaining stages
/// (`nn_forward`, `backward`, `harness_build`) stay informational.
pub const PERF_GATE: [(&str, Better); 3] = [
    ("infer_frozen.docs_per_sec", Better::Higher),
    ("extract_train.docs_per_sec", Better::Higher),
    ("nn_train.docs_per_sec", Better::Higher),
];

/// The `BENCH_serve.json` metrics `serve` mode gates. Median latency
/// stays informational — p99 is the serving contract, p50 is too twitchy
/// under CI noise. A failed request needs no row: `serve_bench` exits
/// nonzero on any non-200 response, before the gate runs.
pub const SERVE_GATE: [(&str, Better); 2] = [
    ("throughput_rps", Better::Higher),
    ("p99_ms", Better::Lower),
];

fn lookup(report: &Value, path: &str) -> Option<f64> {
    path.split('.')
        .try_fold(report, |v, key| v.get(key))?
        .as_f64()
}

/// Compares `current` against `baseline` over `rows` (JSON path, better
/// direction). A row fails when it moved in its bad direction by more
/// than `max_regression` (a fraction, e.g. `0.30`) of the baseline.
///
/// A metric missing from the *baseline* passes with a zero baseline —
/// new metrics must not fail the gate on the commit that introduces
/// them (the committed baselines carry every row; a test checks it). A metric missing from *current* fails: the fresh run did not
/// produce the number the gate exists to check. A zero/negative baseline
/// cannot express a regression fraction, so it is treated as new.
/// Baseline entries no row names are ignored.
pub fn regression_gate(
    rows: &[(&'static str, Better)],
    baseline: &Value,
    current: &Value,
    max_regression: f64,
) -> Vec<Delta> {
    rows.iter()
        .map(|&(metric, better)| {
            let b = lookup(baseline, metric).unwrap_or(0.0);
            let Some(c) = lookup(current, metric) else {
                return Delta {
                    metric,
                    baseline: b,
                    current: 0.0,
                    regression: 1.0,
                    failed: true,
                };
            };
            let regression = if b > 0.0 {
                match better {
                    Better::Higher => (b - c) / b,
                    Better::Lower => (c - b) / b,
                }
            } else {
                0.0
            };
            Delta {
                metric,
                baseline: b,
                current: c,
                regression,
                failed: regression > max_regression,
            }
        })
        .collect()
}

/// One grid point's macro-F1 comparison in the quantization gate.
#[derive(Debug, Clone, PartialEq)]
pub struct PointDelta {
    /// `domain / size / arm` label of the point.
    pub label: String,
    /// Macro-F1 of the exact f32 run.
    pub exact: f64,
    /// Macro-F1 of the quantized run.
    pub quantized: f64,
    /// `|exact - quantized|` in F1 points.
    pub delta: f64,
    /// Whether this point alone fails the gate.
    pub failed: bool,
}

fn point_entries(dump: &Value) -> Vec<(String, f64)> {
    let Some(points) = dump.as_array() else {
        return Vec::new();
    };
    points
        .iter()
        .filter_map(|p| {
            let label = format!(
                "{} / {} / {}",
                p.get("domain")?.as_str()?,
                p.get("size")?.as_u64()?,
                p.get("arm")?.as_str()?
            );
            Some((label, p.get("macro_f1")?.as_f64()?))
        })
        .collect()
}

/// Compares two `fig4_macro_f1 --json` dumps point by point. Points are
/// matched by `(domain, size, arm)`; a point present in only one dump
/// fails (the two runs did not cover the same grid, so the comparison is
/// meaningless), and a matched point fails when its absolute macro-F1
/// delta exceeds `epsilon`.
pub fn quant_gate(exact: &Value, quantized: &Value, epsilon: f64) -> Vec<PointDelta> {
    let ex = point_entries(exact);
    let qu = point_entries(quantized);
    let mut out = Vec::new();
    for (label, e) in &ex {
        match qu.iter().find(|(l, _)| l == label) {
            Some((_, q)) => {
                let delta = (e - q).abs();
                out.push(PointDelta {
                    label: label.clone(),
                    exact: *e,
                    quantized: *q,
                    delta,
                    failed: delta > epsilon,
                });
            }
            None => out.push(PointDelta {
                label: label.clone(),
                exact: *e,
                quantized: f64::NAN,
                delta: f64::INFINITY,
                failed: true,
            }),
        }
    }
    for (label, q) in &qu {
        if !ex.iter().any(|(l, _)| l == label) {
            out.push(PointDelta {
                label: label.clone(),
                exact: f64::NAN,
                quantized: *q,
                delta: f64::INFINITY,
                failed: true,
            });
        }
    }
    out
}

/// Renders a regression comparison as a fixed-width table string.
pub fn render_table(deltas: &[Delta]) -> String {
    let mut s = format!(
        "{:<28} {:>12} {:>12} {:>12}  {}\n",
        "metric", "baseline", "current", "regression", "verdict"
    );
    for d in deltas {
        s.push_str(&format!(
            "{:<28} {:>12.2} {:>12.2} {:>11.1}%  {}\n",
            d.metric,
            d.baseline,
            d.current,
            d.regression * 100.0,
            if d.failed { "FAIL" } else { "ok" }
        ));
    }
    s
}

/// Renders the quantization comparison as a fixed-width table string.
pub fn render_quant_table(deltas: &[PointDelta], epsilon: f64) -> String {
    let mut s = format!(
        "{:<50} {:>10} {:>10} {:>8}  verdict (epsilon {epsilon})\n",
        "point", "exact F1", "quant F1", "delta"
    );
    for d in deltas {
        s.push_str(&format!(
            "{:<50} {:>10.2} {:>10.2} {:>8.3}  {}\n",
            d.label,
            d.exact,
            d.quantized,
            d.delta,
            if d.failed { "FAIL" } else { "ok" }
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("test JSON")
    }

    fn report(frozen_dps: f64, train_dps: f64, nn_train_dps: f64) -> Value {
        parse(&format!(
            r#"{{"schema_version": 5,
                 "infer_frozen": {{"wall_ms": 10.0, "docs_per_sec": {frozen_dps}}},
                 "extract_train": {{"wall_ms": 250.0, "docs_per_sec": {train_dps}, "iters": 3, "jobs": 1}},
                 "nn_train": {{"wall_ms": 800.0, "docs_per_sec": {nn_train_dps}, "iters": 3, "jobs": 1}}}}"#
        ))
    }

    fn perf_gate(baseline: &Value, current: &Value, max_regression: f64) -> Vec<Delta> {
        regression_gate(&PERF_GATE, baseline, current, max_regression)
    }

    fn serve_gate(baseline: &Value, current: &Value, max_regression: f64) -> Vec<Delta> {
        regression_gate(&SERVE_GATE, baseline, current, max_regression)
    }

    fn stage<'a>(deltas: &'a [Delta], stage: &str) -> &'a Delta {
        let metric = format!("{stage}.docs_per_sec");
        deltas.iter().find(|d| d.metric == metric).unwrap()
    }

    #[test]
    fn perf_gate_passes_within_tolerance() {
        let deltas = perf_gate(
            &report(12000.0, 2800.0, 190.0),
            &report(9000.0, 2100.0, 150.0),
            0.30,
        );
        assert_eq!(deltas.len(), 3);
        assert!(deltas.iter().all(|d| !d.failed), "{deltas:?}");
        // 21–25% regressions across the stages — inside the 30% budget.
        assert!((deltas[0].regression - (12000.0 - 9000.0) / 12000.0).abs() < 1e-12);
    }

    #[test]
    fn perf_gate_fails_beyond_tolerance() {
        let base = report(12000.0, 2800.0, 190.0);
        let deltas = perf_gate(&base, &report(8000.0, 2800.0, 190.0), 0.30);
        assert!(stage(&deltas, "infer_frozen").failed);
        assert_eq!(deltas.iter().filter(|d| d.failed).count(), 1);

        // A training-stage collapse fails the gate on its own.
        let deltas = perf_gate(&base, &report(12000.0, 1500.0, 190.0), 0.30);
        assert!(stage(&deltas, "extract_train").failed);
        assert!(deltas.iter().filter(|d| d.failed).count() == 1);

        let deltas = perf_gate(&base, &report(12000.0, 2800.0, 90.0), 0.30);
        assert!(stage(&deltas, "nn_train").failed);
    }

    #[test]
    fn perf_gate_improvement_never_fails() {
        let deltas = perf_gate(
            &report(12000.0, 2800.0, 190.0),
            &report(50000.0, 9500.0, 700.0),
            0.30,
        );
        assert!(deltas.iter().all(|d| !d.failed));
        assert!(deltas.iter().all(|d| d.regression < 0.0));
    }

    #[test]
    fn perf_gate_new_stage_passes_missing_current_fails() {
        // Baseline predates the gated training stages and still carries
        // a stage the gate no longer watches (the retired
        // `extract_predict`), which is ignored.
        let old = parse(
            r#"{"extract_predict": {"docs_per_sec": 2400.0},
                "infer_frozen": {"docs_per_sec": 12000.0}}"#,
        );
        let deltas = perf_gate(&old, &report(12000.0, 2800.0, 190.0), 0.30);
        assert_eq!(deltas.len(), 3);
        assert!(deltas
            .iter()
            .all(|d| !d.metric.starts_with("extract_predict")));
        for name in ["extract_train", "nn_train"] {
            let d = stage(&deltas, name);
            assert!(!d.failed, "new stage {name} must not fail the gate");
            assert_eq!(d.baseline, 0.0);
        }

        // Current run lost stages the baseline has: each fails.
        let deltas = perf_gate(&report(12000.0, 2800.0, 190.0), &old, 0.30);
        for name in ["extract_train", "nn_train"] {
            assert!(
                stage(&deltas, name).failed,
                "missing current stage {name} must fail"
            );
        }
    }

    #[test]
    fn perf_gate_zero_baseline_guarded() {
        // A corrupt baseline with 0 docs/sec must not divide by zero or
        // auto-fail the stage.
        let zero = parse(
            r#"{"infer_frozen": {"docs_per_sec": 0.0},
                "extract_train": {"docs_per_sec": 0.0},
                "nn_train": {"docs_per_sec": 0.0}}"#,
        );
        let deltas = perf_gate(&zero, &report(12000.0, 2800.0, 190.0), 0.30);
        assert!(deltas.iter().all(|d| !d.failed));
        assert!(deltas.iter().all(|d| d.regression == 0.0));
    }

    fn serve_report(throughput_rps: f64, p99_ms: f64) -> Value {
        parse(&format!(
            r#"{{"schema_version": 3, "seed": 7, "requests": 2000,
                 "concurrency": 4, "docs_per_request": 1,
                 "throughput_rps": {throughput_rps},
                 "p50_ms": 2.5, "p99_ms": {p99_ms}, "errors": 0}}"#
        ))
    }

    #[test]
    fn serve_gate_passes_within_tolerance() {
        // Throughput down 20%, p99 up 20% — both inside the 30% budget.
        let deltas = serve_gate(&serve_report(1000.0, 5.0), &serve_report(800.0, 6.0), 0.30);
        assert_eq!(deltas.len(), 2);
        assert!(deltas.iter().all(|d| !d.failed), "{deltas:?}");
        assert!((deltas[0].regression - 0.20).abs() < 1e-12);
        assert!((deltas[1].regression - 0.20).abs() < 1e-12);
    }

    #[test]
    fn serve_gate_fails_on_throughput_drop_or_p99_rise() {
        let base = serve_report(1000.0, 5.0);
        let deltas = serve_gate(&base, &serve_report(600.0, 5.0), 0.30);
        let tp = deltas
            .iter()
            .find(|d| d.metric == "throughput_rps")
            .unwrap();
        assert!(tp.failed);
        assert!(deltas.iter().filter(|d| d.failed).count() == 1);

        let deltas = serve_gate(&base, &serve_report(1000.0, 7.0), 0.30);
        let p99 = deltas.iter().find(|d| d.metric == "p99_ms").unwrap();
        assert!(p99.failed);
        assert!(deltas.iter().filter(|d| d.failed).count() == 1);
    }

    #[test]
    fn serve_gate_improvement_never_fails() {
        // Faster and lower-latency: every regression is negative.
        let deltas = serve_gate(&serve_report(1000.0, 5.0), &serve_report(3000.0, 2.0), 0.30);
        assert!(deltas.iter().all(|d| !d.failed));
        assert!(deltas.iter().all(|d| d.regression < 0.0));
    }

    #[test]
    fn serve_gate_new_metric_passes_missing_current_fails() {
        // A v1 baseline predates p99_ms: a new metric must not fail the
        // gate on the commit introducing it.
        let old = parse(r#"{"throughput_rps": 1000.0}"#);
        let deltas = serve_gate(&old, &serve_report(1000.0, 5.0), 0.30);
        let d = deltas.iter().find(|d| d.metric == "p99_ms").unwrap();
        assert!(!d.failed, "new metric p99_ms must not fail the gate");
        assert_eq!(d.baseline, 0.0);

        // Current run lost a metric the baseline has: it fails.
        let deltas = serve_gate(&serve_report(1000.0, 5.0), &old, 0.30);
        let d = deltas.iter().find(|d| d.metric == "p99_ms").unwrap();
        assert!(d.failed, "missing current metric p99_ms must fail");
        assert_eq!(d.regression, 1.0);
    }

    #[test]
    fn serve_gate_zero_baseline_guarded() {
        // A corrupt all-zero baseline must not divide by zero or
        // auto-fail either metric (a zero-p99 baseline would otherwise
        // make any real latency an infinite regression).
        let deltas = serve_gate(&serve_report(0.0, 0.0), &serve_report(1000.0, 5.0), 0.30);
        assert!(deltas.iter().all(|d| !d.failed), "{deltas:?}");
        assert!(deltas.iter().all(|d| d.regression == 0.0));
    }

    #[test]
    fn committed_baselines_cover_every_gated_row() {
        // `regression_gate` passes a row whose baseline is missing or
        // zero, so a gated row the committed baseline lacks can never
        // fail in CI.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for (file, rows) in [
            ("BENCH_train.json", &PERF_GATE[..]),
            ("BENCH_serve.json", &SERVE_GATE[..]),
        ] {
            let text = std::fs::read_to_string(format!("{root}/{file}")).unwrap();
            let baseline = parse(&text);
            for &(metric, _) in rows {
                let value = lookup(&baseline, metric);
                assert!(
                    value.is_some_and(|v| v > 0.0),
                    "{file}: gated row {metric} is {value:?}"
                );
            }
        }
    }

    fn points(f1s: &[(&str, u64, &str, f64)]) -> Value {
        let items: Vec<String> = f1s
            .iter()
            .map(|(d, s, a, f)| {
                format!(r#"{{"domain": "{d}", "size": {s}, "arm": "{a}", "macro_f1": {f}}}"#)
            })
            .collect();
        parse(&format!("[{}]", items.join(",")))
    }

    #[test]
    fn quant_gate_within_epsilon_passes() {
        let ex = points(&[
            ("Earnings", 50, "baseline", 47.33),
            ("Earnings", 50, "t2t", 52.10),
        ]);
        let qu = points(&[
            ("Earnings", 50, "baseline", 47.37),
            ("Earnings", 50, "t2t", 51.80),
        ]);
        let deltas = quant_gate(&ex, &qu, 1.5);
        assert_eq!(deltas.len(), 2);
        assert!(deltas.iter().all(|d| !d.failed), "{deltas:?}");
    }

    #[test]
    fn quant_gate_drift_fails() {
        let ex = points(&[("Earnings", 50, "baseline", 47.33)]);
        let qu = points(&[("Earnings", 50, "baseline", 43.00)]);
        let deltas = quant_gate(&ex, &qu, 1.5);
        assert!(deltas[0].failed);
        assert!((deltas[0].delta - 4.33).abs() < 1e-9);
    }

    #[test]
    fn quant_gate_mismatched_grids_fail() {
        let ex = points(&[("Earnings", 50, "baseline", 47.33)]);
        let qu = points(&[("Earnings", 100, "baseline", 47.33)]);
        let deltas = quant_gate(&ex, &qu, 1.5);
        assert_eq!(deltas.len(), 2);
        assert!(deltas.iter().all(|d| d.failed));
    }

    #[test]
    fn tables_render_every_row() {
        let deltas = perf_gate(
            &report(12000.0, 2800.0, 190.0),
            &report(8000.0, 2800.0, 190.0),
            0.30,
        );
        let table = render_table(&deltas);
        assert!(table.contains("infer_frozen.docs_per_sec"));
        assert!(table.contains("extract_train") && table.contains("nn_train"));
        assert!(table.contains("FAIL") && table.contains("ok"));

        let ex = points(&[("Earnings", 50, "baseline", 47.33)]);
        let qu = points(&[("Earnings", 50, "baseline", 47.37)]);
        let table = render_quant_table(&quant_gate(&ex, &qu, 1.5), 1.5);
        assert!(table.contains("Earnings / 50 / baseline"));

        let deltas = serve_gate(&serve_report(1000.0, 5.0), &serve_report(600.0, 2.0), 0.30);
        let table = render_table(&deltas);
        assert!(table.contains("throughput_rps") && table.contains("p99_ms"));
        assert!(table.contains("FAIL") && table.contains("ok"));
    }
}
