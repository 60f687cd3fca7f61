//! What a run reports: named metrics with units, per-phase operation
//! counts, output mismatches, the machine fingerprint, and the one-line
//! JSON result every run ends with.

use std::fmt::Write as _;

/// The end-to-end metrics every workload prints with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("throughput", "1/s"),
    ("macro_f1", "points"),
];

/// The per-layer metrics every workload prints with `--trace 1`. A layer
/// a workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("datagen.gen_ms", "ms"),
    ("datagen.docs", "count"),
    ("keyphrase.pretrain_ms", "ms"),
    ("extract.lexicon_ms", "ms"),
    ("keyphrase.infer_ms", "ms"),
    ("core.augment_ms", "ms"),
    ("core.synthetics", "count"),
    ("core.kept_ratio", "ratio"),
    ("core.match_ratio", "ratio"),
    ("extract.train_ms", "ms"),
    ("extract.train_docs", "count"),
    ("extract.freeze_ms", "ms"),
    ("eval.score_ms", "ms"),
    ("eval.docs", "count"),
    ("eval.other_ms", "ms"),
    ("parallel.idle_ratio", "ratio"),
    ("grid.fieldswap_gain", "points"),
    ("registry.load_ms", "ms"),
    ("obs.rtt_ms", "ms"),
    ("obs.conns_per_req", "ratio"),
    ("obs.scrape_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("registry.route_ms", "ms"),
    ("extract.featurize_ms", "ms"),
    ("extract.infer_ms", "ms"),
    ("extract.switch_share", "ratio"),
    ("executor.batch_ms", "ms"),
    ("executor.wait_ms", "ms"),
    ("serve.stage_parse_ms", "ms"),
    ("serve.stage_route_ms", "ms"),
    ("serve.stage_infer_ms", "ms"),
    ("serve.stage_respond_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.shed_503", "count"),
    ("serve.err_5xx", "count"),
    ("fail_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Operation counts of one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// `warm-up`, `timed` or `traced`.
    pub name: &'static str,
    /// Operations started.
    pub attempted: u64,
    /// Operations that completed with a correct output.
    pub succeeded: u64,
    /// Operations that failed: an error status, a wrong output, a
    /// transport error or a failed cell.
    pub failed: u64,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name; the unit comes from the metric tables.
    pub metrics: Vec<(&'static str, f64)>,
    /// Operation counts per phase.
    pub phases: Vec<Phase>,
    /// Output mismatches; any makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records an output mismatch (kept to the first few in the report).
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Operations attempted across all phases.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Operations failed across all phases.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Checks the run reported exactly the metrics of `table`, each once
    /// and finite.
    pub fn check_metrics(&self, table: &[(&str, &str)]) -> Result<(), String> {
        let mut names: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let mut want: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        if names != want {
            return Err(format!("reported metrics {names:?}, expected {want:?}"));
        }
        match self.metrics.iter().find(|(_, v)| !v.is_finite()) {
            Some((n, v)) => Err(format!("metric {n} is not finite: {v}")),
            None => Ok(()),
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and
    /// every metric of `table` with its value and unit.
    pub fn result_json(&self, table: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches.is_empty(),
            self.attempted(),
            self.failed()
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest text that reads back to the same
            // f64: every digit measured, nothing rounded away.
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The SIMD level the frozen decoder dispatches to, probed in the same
/// avx512f, avx2, scalar order as `fieldswap_extract::infer`.
pub fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

/// One line identifying the machine and toolchain a result came from.
pub fn fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "fingerprint: cpu=\"{cpu}\" nproc={nproc} simd={} rustc=\"{}\" rustc_commit={}",
        simd_level(),
        env!("PERFBENCH_RUSTC_VERSION"),
        env!("PERFBENCH_RUSTC_COMMIT"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_its_keys_and_all_digits() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.812_345_678_9);
        o.set("peak_rss_mb", 100.0);
        o.phases.push(Phase {
            name: "timed",
            attempted: 10,
            succeeded: 9,
            failed: 1,
        });
        let table = [("setup_s", "s"), ("peak_rss_mb", "MiB")];
        assert!(o.check_metrics(&table).is_ok());
        assert_eq!(
            o.result_json(&table),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.8123456789, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 100.0, \"unit\": \"MiB\"}}}"
        );
        o.mismatch("doc 3".into());
        assert!(o.result_json(&table).starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_set_must_match_the_table() {
        let mut o = Outcome::default();
        o.set("setup_s", 1.0);
        assert!(o
            .check_metrics(&[("setup_s", "s"), ("p50_ms", "ms")])
            .is_err());
        o.set("p50_ms", f64::NAN);
        assert!(o
            .check_metrics(&[("setup_s", "s"), ("p50_ms", "ms")])
            .is_err());
    }

    #[test]
    fn tables_have_unique_names() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn fingerprint_names_cpu_simd_and_compiler() {
        let f = fingerprint();
        for key in ["cpu=", "nproc=", "simd=", "rustc=", "rustc_commit="] {
            assert!(f.contains(key), "{f}");
        }
        assert!(peak_rss_mb() > 0.0);
    }
}
