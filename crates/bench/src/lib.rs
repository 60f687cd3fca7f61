//! # fieldswap-bench
//!
//! Benchmarks and the table/figure regeneration binaries for the
//! FieldSwap paper. Each binary under `src/bin/` reproduces one table or
//! figure of the evaluation section (see `DESIGN.md` for the experiment
//! index) and prints paper-reported values next to measured ones.
//!
//! Binaries accept:
//! * `--full` — the paper's full 3x3 protocol on full test sets (slow);
//!   the default is the reduced quick protocol.
//! * `--domain <name>` — restrict to one domain (`fara`, `fcc`,
//!   `brokerage`, `earnings`, `loan`).
//! * `--seed <n>` — override the master seed.
//! * `--json <path>` — also dump results as JSON.
//! * `--jobs <n>` — worker threads for the experiment grid (0 = all
//!   cores, the default; 1 = serial). Results are bit-identical for
//!   every setting.
//! * `--train-jobs <n>` — worker threads *inside* each training run:
//!   corpus rendering, perceptron decode windows, and importance-model
//!   gradient batches (0 = all cores; default 1 = serial). Training is
//!   bitwise-identical for every setting.
//! * `--trace <path>` — record a JSONL span/log trace, print a span-tree
//!   summary to stderr at exit.
//! * `--trace-chrome <path>` — also export the trace as Chrome
//!   trace-event JSON (load in Perfetto; one track per worker thread).
//! * `--metrics <path>` — dump Prometheus-style counters/gauges/
//!   histograms at exit.
//! * `--metrics-flush-secs <n>` — additionally rewrite the `--metrics`
//!   file every `n` seconds, so a killed run leaves metrics on disk.
//! * `--obs-listen <addr>` — serve `/metrics`, `/healthz`, and `/spans`
//!   over HTTP (e.g. `127.0.0.1:9464`) for the lifetime of the run.
//! * `--checkpoint-dir <path>` — persist each completed grid cell to the
//!   directory (created if needed) so a killed run can be resumed.
//! * `--resume <path>` — resume from an existing checkpoint directory:
//!   finished cells are loaded instead of recomputed, and the output is
//!   byte-identical to an uninterrupted run.
//! * `--attacks <list>` — comma-separated form-attack names for the
//!   robustness binaries (`keyphrase-abbrev`, `token-drop`, `box-jitter`,
//!   `line-merge-split`, `value-noise`, `separation-shift`, or `all`).
//! * `--attack-strength <x>` — attack strength in `[0, 1]` (default 0.5).
//! * `--quantized` — evaluate through the int8-quantized frozen
//!   emission table instead of exact f32. Approximate (see the CI
//!   quantization gate); training is unaffected.
//! * `--verbose`/`-v`, `--quiet`/`-q` — logger verbosity.
//!
//! Flags are read by the one workspace reader,
//! [`fieldswap_obs::cli::Flags`]: an option that takes a value rejects a
//! `--`-prefixed token in the value position (`--json --seed` is a
//! forgotten path, not a file named `--seed`), and a repeated or unknown
//! flag is a usage error rather than silently swallowed.
//!
//! Tracing and metrics are **inert for correctness**: stdout tables and
//! `--json` dumps are byte-identical with or without them (enforced by
//! `tests/trace_identity.rs` and the CI diff job).

use fieldswap_datagen::Domain;
use fieldswap_eval::{CellCache, Harness, HarnessOptions};
use fieldswap_obs::cli::Flags;

pub mod gate;
pub mod trace_report;

/// Command-line options shared by the regeneration binaries.
#[derive(Debug, Clone)]
pub struct BinArgs {
    /// Paper protocol (3x3, full test sets) instead of the quick one.
    pub full: bool,
    /// Optional domain filter.
    pub domain: Option<Domain>,
    /// Master seed.
    pub seed: u64,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Override: document samples per point.
    pub samples: Option<usize>,
    /// Override: training trials per sample.
    pub trials: Option<usize>,
    /// Override: test-set cap (0 = full).
    pub test_cap: Option<usize>,
    /// Override: worker threads (0 = all cores, 1 = serial).
    pub jobs: Option<usize>,
    /// Override: worker threads inside each training run
    /// (`--train-jobs`; 0 = all cores, 1 = serial). Bitwise-neutral.
    pub train_jobs: Option<usize>,
    /// Checkpoint directory for per-cell result persistence
    /// (`--checkpoint-dir`, created if needed).
    pub checkpoint_dir: Option<String>,
    /// Existing checkpoint directory to resume from (`--resume`).
    pub resume: Option<String>,
    /// Comma-separated attack names for the robustness binaries
    /// (`--attacks`; `all` or absent = the full taxonomy).
    pub attacks: Option<String>,
    /// Attack strength in `[0, 1]` (`--attack-strength`, default 0.5).
    pub attack_strength: Option<f64>,
    /// Evaluate through the int8-quantized frozen emission table
    /// (`--quantized`). Approximate; training is unaffected.
    pub quantized: bool,
    /// Trace, metrics and logger flags.
    pub obs: ObsArgs,
}

/// The observability flags every regeneration binary accepts; the
/// other binaries take a subset.
pub const OBS_FLAGS: [&str; 5] = [
    "--trace",
    "--trace-chrome",
    "--metrics",
    "--metrics-flush-secs",
    "--obs-listen",
];

/// Observability flags: where traces and metrics go, the live server
/// address, and the logger verbosity.
#[derive(Debug, Clone, Default)]
pub struct ObsArgs {
    /// JSONL trace output path (`--trace`); enables span recording.
    pub trace: Option<String>,
    /// Chrome trace-event JSON output path (`--trace-chrome`); enables
    /// span recording. Loadable in Perfetto with one track per worker
    /// thread.
    pub trace_chrome: Option<String>,
    /// Prometheus-style metrics output path (`--metrics`).
    pub metrics: Option<String>,
    /// Seconds between periodic metrics flushes to the `--metrics` path
    /// (`--metrics-flush-secs`; 0 or absent = write only at exit).
    pub metrics_flush_secs: Option<u64>,
    /// Address for the live observability HTTP server
    /// (`--obs-listen`, e.g. `127.0.0.1:9464`): serves `/metrics`,
    /// `/healthz`, and `/spans` for the lifetime of the process.
    /// Enables tracing and metrics; results stay byte-identical.
    pub obs_listen: Option<String>,
    /// Logger verbosity override (`--verbose`/`-v`, `--quiet`/`-q`).
    pub verbosity: Option<fieldswap_obs::Verbosity>,
}

impl ObsArgs {
    /// Reads the flags of [`OBS_FLAGS`] named in `accepted`, plus
    /// `-v`/`-q`, which every binary takes. Call it after the binary's
    /// own value flags: it reads the verbosity switches.
    pub fn read(flags: &mut Flags, accepted: &[&str]) -> Result<Self, String> {
        let mut out = Self::default();
        for &name in accepted {
            match name {
                "--trace" => out.trace = flags.value(name)?,
                "--trace-chrome" => out.trace_chrome = flags.value(name)?,
                "--metrics" => out.metrics = flags.value(name)?,
                "--metrics-flush-secs" => out.metrics_flush_secs = flags.num(name)?,
                "--obs-listen" => out.obs_listen = flags.value(name)?,
                other => unreachable!("{other} is not an observability flag"),
            }
        }
        if out.metrics_flush_secs.is_some() && out.metrics.is_none() {
            return Err(
                "--metrics-flush-secs needs --metrics PATH (it controls how often that file is \
                 rewritten)"
                    .to_string(),
            );
        }
        use fieldswap_obs::Verbosity::{Quiet, Verbose};
        out.verbosity = match (
            flags.switch(&["--verbose", "-v"])?,
            flags.switch(&["--quiet", "-q"])?,
        ) {
            (true, true) => return Err("--verbose and --quiet are mutually exclusive".into()),
            (true, false) => Some(Verbose),
            (false, true) => Some(Quiet),
            (false, false) => None,
        };
        Ok(out)
    }

    /// Switches on what the flags ask for: span recording, metrics,
    /// verbosity, the live `--obs-listen` server and the periodic
    /// metrics flush. Failures exit through [`fail`].
    pub fn apply(&self) {
        if self.trace.is_some() || self.trace_chrome.is_some() {
            fieldswap_obs::enable_tracing();
        }
        if self.metrics.is_some() {
            fieldswap_obs::enable_metrics();
        }
        if let Some(v) = self.verbosity {
            fieldswap_obs::set_verbosity(v);
        }
        if let Some(addr) = &self.obs_listen {
            // The live endpoints need both spans and metrics to serve
            // anything useful; both are inert for results (see the
            // byte-identity tests and the CI diff step).
            fieldswap_obs::enable_tracing();
            fieldswap_obs::enable_metrics();
            let server = fieldswap_obs::ObsServer::start(fieldswap_obs::global(), addr)
                .unwrap_or_else(|e| fail(&format!("--obs-listen {addr}: {e}")));
            fieldswap_obs::info!("obs server listening on http://{}", server.addr());
            // Process-lifetime server: leak the handle so the thread
            // keeps serving until exit.
            std::mem::forget(server);
        }
        if let (Some(path), Some(secs)) = (&self.metrics, self.metrics_flush_secs) {
            if secs > 0 {
                let flusher = fieldswap_obs::PeriodicFlush::start(
                    fieldswap_obs::global(),
                    path,
                    std::time::Duration::from_secs(secs),
                )
                .unwrap_or_else(|e| fail(&format!("--metrics-flush-secs: {e}")));
                std::mem::forget(flusher);
            }
        }
    }

    /// Flushes observability outputs: the JSONL trace plus a span-tree
    /// summary on stderr (`--trace`), the Chrome trace-event export
    /// (`--trace-chrome`), and the Prometheus metrics dump (`--metrics`).
    /// Call once at the end of `main`; a no-op when no obs flag was
    /// given.
    pub fn finish(&self) {
        let collector = fieldswap_obs::global();
        if let Some(path) = &self.trace {
            collector
                .write_jsonl(path)
                .unwrap_or_else(|e| fail(&format!("write trace {path}: {e}")));
            eprint!("{}", collector.span_summary());
            fieldswap_obs::info!("wrote trace {path} ({} events)", collector.events_len());
        }
        if let Some(path) = &self.metrics {
            collector
                .write_prometheus(path)
                .unwrap_or_else(|e| fail(&format!("write metrics {path}: {e}")));
            fieldswap_obs::info!("wrote metrics {path}");
        }
        if let Some(path) = &self.trace_chrome {
            collector
                .write_chrome_trace(path)
                .unwrap_or_else(|e| fail(&format!("write chrome trace {path}: {e}")));
            fieldswap_obs::info!("wrote chrome trace {path} (load in Perfetto)");
        }
    }
}

impl BinArgs {
    /// Parses `std::env::args()`, applying observability side effects
    /// (tracing/metrics enablement, verbosity). Errors abort with a
    /// usage message.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let out = Self::try_parse_from(&args).unwrap_or_else(|msg| usage(&msg));
        out.obs.apply();
        out
    }

    /// The pure parser behind [`parse`](Self::parse): no process exit,
    /// no global side effects — testable.
    pub fn try_parse_from(args: &[String]) -> Result<Self, String> {
        let mut flags = Flags::new(args.to_vec());
        let domain = flags
            .value("--domain")?
            .map(|name| Domain::parse(&name).ok_or_else(|| format!("bad domain {name:?}")))
            .transpose()?;
        let mut out = Self {
            full: false,
            domain,
            seed: flags.num("--seed")?.unwrap_or(0x5EED),
            json: flags.value("--json")?,
            samples: flags.num("--samples")?,
            trials: flags.num("--trials")?,
            test_cap: flags.num("--testcap")?,
            jobs: flags.num("--jobs")?,
            train_jobs: flags.num("--train-jobs")?,
            checkpoint_dir: flags.value("--checkpoint-dir")?,
            resume: flags.value("--resume")?,
            attacks: flags.value("--attacks")?,
            attack_strength: flags.num("--attack-strength")?,
            quantized: false,
            obs: ObsArgs::read(&mut flags, &OBS_FLAGS)?,
        };
        if let Some(s) = out.attack_strength.filter(|s| !(0.0..=1.0).contains(s)) {
            return Err(format!("--attack-strength: {s} outside [0, 1]"));
        }
        out.full = flags.switch(&["--full"])?;
        if flags.switch(&["--quick"])? && out.full {
            return Err("--full and --quick are mutually exclusive".into());
        }
        out.quantized = flags.switch(&["--quantized"])?;
        flags.finish()?;
        if out.checkpoint_dir.is_some() && out.resume.is_some() {
            return Err(
                "--checkpoint-dir and --resume are mutually exclusive (--resume already writes \
                 new cells to the directory it resumes from)"
                    .to_string(),
            );
        }
        Ok(out)
    }

    /// Harness options for the chosen protocol, with any command-line
    /// overrides applied.
    pub fn harness_options(&self) -> HarnessOptions {
        let mut o = if self.full {
            HarnessOptions::full()
        } else {
            HarnessOptions::quick()
        };
        o.seed = self.seed;
        if let Some(s) = self.samples {
            o.n_samples = s;
        }
        if let Some(t) = self.trials {
            o.n_trials = t;
        }
        if let Some(c) = self.test_cap {
            o.test_cap = c;
        }
        if let Some(j) = self.jobs {
            o.jobs = j;
        }
        if let Some(j) = self.train_jobs {
            o.train_jobs = j;
        }
        o.quantized = self.quantized;
        o
    }

    /// The attack suite selected by `--attacks`/`--attack-strength`
    /// (default: the full taxonomy at strength 0.5). Errors abort with a
    /// usage message, matching the other flag validators.
    pub fn attack_suite(&self) -> Vec<fieldswap_eval::AttackSpec> {
        let strength = self.attack_strength.unwrap_or(0.5);
        fieldswap_eval::AttackSpec::parse_list(self.attacks.as_deref().unwrap_or("all"), strength)
            .unwrap_or_else(|msg| usage(&format!("--attacks: {msg}")))
    }

    /// Builds the harness for these options and attaches the cell cache
    /// when `--checkpoint-dir` or `--resume` was given. A missing
    /// `--resume` directory is a hard error: the user pointed at the
    /// wrong path, and silently starting over would waste the very hours
    /// the flag exists to save.
    pub fn build_harness(&self) -> Harness {
        let opts = self.harness_options();
        let mut h = Harness::new(opts);
        let cache = if let Some(dir) = &self.resume {
            Some(CellCache::open(dir, &opts).unwrap_or_else(|e| fail(&format!("--resume: {e}"))))
        } else {
            self.checkpoint_dir.as_ref().map(|dir| {
                CellCache::create(dir, &opts)
                    .unwrap_or_else(|e| fail(&format!("--checkpoint-dir: {e}")))
            })
        };
        if let Some(cache) = cache {
            fieldswap_obs::info!("checkpointing cells to {}", cache.dir().display());
            h.attach_checkpoint(cache);
        }
        h
    }

    /// The domains to run: the filter, or all five evaluation domains.
    pub fn domains(&self) -> Vec<Domain> {
        match self.domain {
            Some(d) => vec![d],
            None => Domain::EVAL.to_vec(),
        }
    }

    /// Writes `value` to the `--json` path when given.
    pub fn maybe_write_json<T: serde::Serialize>(&self, value: &T) {
        if let Some(path) = &self.json {
            let s = serde_json::to_string_pretty(value).expect("serializable");
            std::fs::write(path, s).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            fieldswap_obs::info!("wrote {path}");
        }
    }

    /// Flushes the observability outputs ([`ObsArgs::finish`]). Call
    /// once at the end of `main`.
    pub fn finish(&self) {
        self.obs.finish();
    }
}

/// Prints `msg` as an error through the obs logger and exits with status
/// 1 — the one failure path shared by every binary, so scripts can rely
/// on a uniform exit code and stderr shape for both usage mistakes and
/// runtime errors.
pub fn fail(msg: &str) -> ! {
    fieldswap_obs::error!("{msg}");
    std::process::exit(1)
}

/// Prints `msg` plus the shared usage line to stderr and exits 1.
pub fn usage(msg: &str) -> ! {
    fieldswap_obs::error!("{msg}");
    eprintln!("usage: <bin> [--full|--quick] [--domain fara|fcc|brokerage|earnings|loan] [--seed N] [--json PATH] [--samples N] [--trials N] [--testcap N] [--jobs N] [--train-jobs N] [--trace PATH] [--trace-chrome PATH] [--metrics PATH] [--metrics-flush-secs N] [--obs-listen ADDR] [--checkpoint-dir PATH] [--resume PATH] [--attacks LIST] [--attack-strength X] [--quantized] [--verbose|-v] [--quiet|-q]");
    std::process::exit(1)
}

/// Fixed-width table printer.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Creates a printer and prints the header row + rule.
    pub fn new(headers: &[(&str, usize)]) -> Self {
        let widths: Vec<usize> = headers.iter().map(|(_, w)| *w).collect();
        let p = Self { widths };
        p.row(
            &headers
                .iter()
                .map(|(h, _)| h.to_string())
                .collect::<Vec<_>>(),
        );
        println!(
            "{}",
            "-".repeat(p.widths.iter().sum::<usize>() + 2 * p.widths.len())
        );
        p
    }

    /// Prints one row.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            let w = self.widths.get(i).copied().unwrap_or(12);
            line.push_str(&format!("{c:<w$}  "));
        }
        println!("{}", line.trim_end());
    }
}

/// Paper-reported reference values, transcribed from the evaluation
/// section so binaries can print paper-vs-measured side by side.
pub mod paper {
    /// Table III: (domain, size, field-to-field, type-to-type,
    /// human-expert or None).
    pub const TABLE3: [(&str, usize, usize, usize, Option<usize>); 15] = [
        ("FARA", 10, 2, 5, None),
        ("FARA", 50, 176, 374, None),
        ("FARA", 100, 592, 1616, None),
        ("FCC Forms", 10, 246, 842, None),
        ("FCC Forms", 50, 1663, 5755, None),
        ("FCC Forms", 100, 3310, 11346, None),
        ("Brokerage Statements", 10, 256, 1266, None),
        ("Brokerage Statements", 50, 1486, 7994, None),
        ("Brokerage Statements", 100, 2917, 16590, None),
        ("Loan Payments", 10, 435, 2378, Some(1136)),
        ("Loan Payments", 50, 2699, 18118, Some(5933)),
        ("Loan Payments", 100, 6083, 38081, Some(11682)),
        ("Earnings", 10, 197, 1542, Some(366)),
        ("Earnings", 50, 1345, 11643, Some(1862)),
        ("Earnings", 100, 2717, 26001, Some(3707)),
    ];

    /// Table IV (Earnings @ 50 docs): field, document frequency,
    /// F1 automatic, F1 human expert.
    pub const TABLE4: [(&str, f64, f64, f64); 4] = [
        ("year_to_date.sales_pay", 0.039, 27.91, 56.27),
        ("current.sales_pay", 0.0285, 17.97, 46.23),
        ("year_to_date.pto_pay", 0.159, 50.30, 66.78),
        ("current.pto_pay", 0.095, 14.36, 28.18),
    ];

    /// Headline macro-F1 improvement ranges from Section IV-C1, per
    /// domain: (domain, min gain, max gain) in F1 points.
    pub const FIG4_GAINS: [(&str, f64, f64); 3] = [
        ("FCC Forms", 1.0, 4.0),
        ("Brokerage Statements", 2.0, 5.0),
        ("Earnings", 4.0, 11.0),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn try_parse_full_combo() {
        let a = BinArgs::try_parse_from(&argv(&[
            "--full",
            "--domain",
            "earnings",
            "--seed",
            "7",
            "--jobs",
            "2",
            "--train-jobs",
            "4",
            "--json",
            "out.json",
            "--checkpoint-dir",
            "ckpt",
            "--verbose",
        ]))
        .unwrap();
        assert!(a.full);
        assert_eq!(a.domain, Some(Domain::Earnings));
        assert_eq!(a.seed, 7);
        assert_eq!(a.jobs, Some(2));
        assert_eq!(a.train_jobs, Some(4));
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.checkpoint_dir.as_deref(), Some("ckpt"));
        assert_eq!(a.obs.verbosity, Some(fieldswap_obs::Verbosity::Verbose));
        assert_eq!(a.harness_options().seed, 7);
        assert_eq!(a.harness_options().jobs, 2);
        assert_eq!(a.harness_options().train_jobs, 4);

        // Absent, `--train-jobs` inherits the protocol default (serial).
        let d = BinArgs::try_parse_from(&argv(&[])).unwrap();
        assert_eq!(d.train_jobs, None);
        assert_eq!(d.harness_options().train_jobs, 1);
    }

    #[test]
    fn flag_like_value_is_rejected_not_swallowed() {
        // The old parser took `--seed` as the JSON path and dropped the
        // seed override entirely.
        let err = BinArgs::try_parse_from(&argv(&["--json", "--seed", "7"])).unwrap_err();
        assert!(err.contains("--json") && err.contains("--seed"), "{err}");
        for flag in [
            "--domain",
            "--seed",
            "--json",
            "--samples",
            "--trials",
            "--testcap",
            "--jobs",
            "--train-jobs",
            "--trace",
            "--metrics",
            "--checkpoint-dir",
            "--resume",
            "--attacks",
            "--attack-strength",
        ] {
            let err = BinArgs::try_parse_from(&argv(&[flag, "--full"])).unwrap_err();
            assert!(err.contains(flag), "{flag}: {err}");
        }
    }

    #[test]
    fn attack_flags_parse_and_validate() {
        let a = BinArgs::try_parse_from(&argv(&[
            "--attacks",
            "token-drop,box-jitter",
            "--attack-strength",
            "0.25",
        ]))
        .unwrap();
        assert_eq!(a.attacks.as_deref(), Some("token-drop,box-jitter"));
        assert_eq!(a.attack_strength, Some(0.25));
        let suite = a.attack_suite();
        assert_eq!(suite.len(), 2);
        assert!((suite[0].strength - 0.25).abs() < 1e-12);

        // Default: the full taxonomy at 0.5.
        let d = BinArgs::try_parse_from(&argv(&[])).unwrap();
        assert_eq!(d.attack_suite().len(), 6);
        assert!((d.attack_suite()[0].strength - 0.5).abs() < 1e-12);

        let err = BinArgs::try_parse_from(&argv(&["--attack-strength", "1.5"])).unwrap_err();
        assert!(err.contains("outside"), "{err}");
        // Ingestion sanitization always runs: there is no flag to skip it.
        let err = BinArgs::try_parse_from(&argv(&["--no-sanitize"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn quantized_flag_threads_into_options() {
        let a = BinArgs::try_parse_from(&argv(&["--quantized"])).unwrap();
        assert!(a.quantized);
        assert!(a.harness_options().quantized);
        let d = BinArgs::try_parse_from(&argv(&[])).unwrap();
        assert!(!d.quantized);
        assert!(!d.harness_options().quantized);
    }

    #[test]
    fn obs_v2_flags_parse() {
        let a = BinArgs::try_parse_from(&argv(&[
            "--trace-chrome",
            "t.json",
            "--metrics",
            "m.prom",
            "--metrics-flush-secs",
            "5",
            "--obs-listen",
            "127.0.0.1:9464",
        ]))
        .unwrap();
        assert_eq!(a.obs.trace_chrome.as_deref(), Some("t.json"));
        assert_eq!(a.obs.metrics_flush_secs, Some(5));
        assert_eq!(a.obs.obs_listen.as_deref(), Some("127.0.0.1:9464"));

        for flag in ["--trace-chrome", "--obs-listen", "--metrics-flush-secs"] {
            let err = BinArgs::try_parse_from(&argv(&[flag, "--full"])).unwrap_err();
            assert!(err.contains(flag), "{flag}: {err}");
        }
        // No collapsed-stack export: the span tree's `self` column holds
        // the same per-path self times.
        let err = BinArgs::try_parse_from(&argv(&["--flame", "t.folded"])).unwrap_err();
        assert!(err.contains("--flame"), "{err}");
    }

    #[test]
    fn metrics_flush_requires_metrics_path() {
        let err = BinArgs::try_parse_from(&argv(&["--metrics-flush-secs", "5"])).unwrap_err();
        assert!(err.contains("--metrics"), "{err}");
        assert!(BinArgs::try_parse_from(&argv(&[
            "--metrics",
            "m.prom",
            "--metrics-flush-secs",
            "5"
        ]))
        .is_ok());
    }

    #[test]
    fn missing_trailing_value_is_an_error() {
        let err = BinArgs::try_parse_from(&argv(&["--seed"])).unwrap_err();
        assert!(err.contains("--seed") && err.contains("value"), "{err}");
    }

    #[test]
    fn bad_numeric_and_unknown_flag_are_errors() {
        assert!(BinArgs::try_parse_from(&argv(&["--seed", "xyz"])).is_err());
        assert!(BinArgs::try_parse_from(&argv(&["--domain", "narnia"])).is_err());
        let err = BinArgs::try_parse_from(&argv(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn repeated_and_contradictory_flags_are_errors() {
        let err = BinArgs::try_parse_from(&argv(&["--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        let err = BinArgs::try_parse_from(&argv(&["--quantized", "--quantized"])).unwrap_err();
        assert!(err.contains("--quantized"), "{err}");
        assert!(BinArgs::try_parse_from(&argv(&["--full", "--quick"])).is_err());
        assert!(BinArgs::try_parse_from(&argv(&["-v", "-q"])).is_err());
        // A value flag takes a single-dash token, even one spelled like
        // a switch.
        let a = BinArgs::try_parse_from(&argv(&["--json", "-v"])).unwrap();
        assert_eq!(a.json.as_deref(), Some("-v"));
        assert_eq!(a.obs.verbosity, None);
    }

    #[test]
    fn checkpoint_and_resume_conflict() {
        let err = BinArgs::try_parse_from(&argv(&["--checkpoint-dir", "a", "--resume", "b"]))
            .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        assert!(BinArgs::try_parse_from(&argv(&["--resume", "b"])).is_ok());
    }

    #[test]
    fn non_flag_dash_value_is_accepted() {
        // Only `--`-prefixed tokens are rejected in value position; a
        // file literally named `-odd.json` still works.
        let a = BinArgs::try_parse_from(&argv(&["--json", "-odd.json"])).unwrap();
        assert_eq!(a.json.as_deref(), Some("-odd.json"));
    }

    #[test]
    fn parse_domain_aliases() {
        let domain =
            |name: &str| BinArgs::try_parse_from(&argv(&["--domain", name])).map(|a| a.domain);
        assert_eq!(domain("earnings"), Ok(Some(Domain::Earnings)));
        assert_eq!(domain("LOAN"), Ok(Some(Domain::LoanPayments)));
        assert_eq!(domain("fcc_forms"), Ok(Some(Domain::FccForms)));
        assert!(domain("nope").is_err());
    }

    #[test]
    fn paper_tables_well_formed() {
        assert_eq!(paper::TABLE3.len(), 15);
        // t2t always exceeds f2f in the paper's Table III.
        for (_, _, f2f, t2t, _) in paper::TABLE3 {
            assert!(t2t > f2f);
        }
        for (_, freq, auto, expert) in paper::TABLE4 {
            assert!(freq < 0.2);
            assert!(expert > auto);
        }
    }
}
