//! The experiment runner: the paper's protocol (Section IV-B) end to end.
//!
//! One *experiment* is `(domain, train size, arm, sample, trial)`:
//!
//! 1. sample `N` documents from the domain's training pool (3 different
//!    samples per point);
//! 2. obtain a FieldSwap configuration — inferred automatically from the
//!    sample via the pre-trained importance model, or supplied by the
//!    human expert;
//! 3. augment the sample with FieldSwap;
//! 4. train the sequence-labeling backbone on originals + synthetics
//!    (3 training trials per sample, varying only the training seed; both
//!    arms get the same per-epoch document budget — the "same training
//!    time" control);
//! 5. evaluate end-to-end on the fixed hold-out test set.
//!
//! Shared state — the importance model pre-trained on out-of-domain
//! invoices, the unsupervised lexicon, the per-domain pools/test sets, and
//! the per-(domain, size, sample) inferred phrase cache — lives in
//! [`Harness`].

use crate::checkpoint::{CellCache, CellCoords};
use crate::expert::expert_config;
use crate::metrics::{evaluate_frozen, EvalResult};
use crate::robustness::AttackSpec;
use fieldswap_core::{
    attack_corpus, AttackKind, EngineOptions, FieldSwapConfig, PairStrategy, SwapPlan,
};
use fieldswap_datagen::{generate_jobs, Domain};
use fieldswap_docmodel::Corpus;
use fieldswap_extract::{Extractor, Lexicon, TrainConfig};
use fieldswap_keyphrase::{infer_key_phrases, ImportanceModel, InferenceConfig, ModelConfig};
use fieldswap_parallel::{par_map_indexed, par_try_map_indexed, OnceMap};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// The experimental arms of Fig. 4 / Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arm {
    /// No augmentation.
    Baseline,
    /// FieldSwap with automatically inferred phrases, field-to-field.
    AutoFieldToField,
    /// FieldSwap with automatically inferred phrases, type-to-type.
    AutoTypeToType,
    /// FieldSwap with automatically inferred phrases, all-to-all (the
    /// ablation the paper reports as "nearly always worse").
    AutoAllToAll,
    /// FieldSwap with the human-expert configuration (Earnings and Loan
    /// Payments only).
    HumanExpert,
    /// Extension (paper Section VI): phrases derived from field *names*
    /// by the simulated-LLM expander — zero annotations needed.
    NameDerived,
    /// Extension (paper Section II-C): type-to-type FieldSwap with the
    /// value-swap post-pass — relabeled instances receive values sampled
    /// from the target field's observed values.
    TypeToTypeValueSwap,
}

impl Arm {
    /// Label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Arm::Baseline => "baseline",
            Arm::AutoFieldToField => "fieldswap (field-to-field)",
            Arm::AutoTypeToType => "fieldswap (type-to-type)",
            Arm::AutoAllToAll => "fieldswap (all-to-all)",
            Arm::HumanExpert => "fieldswap (human expert)",
            Arm::NameDerived => "fieldswap (name-derived phrases)",
            Arm::TypeToTypeValueSwap => "fieldswap (t2t + value swap)",
        }
    }
}

/// Harness-level knobs. `quick()` trades protocol fidelity for wall-clock
/// time; `full()` follows the paper's 3x3 protocol.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Document samples per (domain, size) point (paper: 3).
    pub n_samples: usize,
    /// Training trials per sample (paper: 3).
    pub n_trials: usize,
    /// Size of the invoice corpus used to pre-train the importance model.
    pub pretrain_docs: usize,
    /// Size of the unlabeled corpus for the lexicon pass.
    pub lexicon_docs: usize,
    /// Neighbors per candidate in the importance model (paper: 100).
    pub neighbors: usize,
    /// Cap on test-set size (0 = the full Table I test set).
    pub test_cap: usize,
    /// Backbone training epochs.
    pub epochs: usize,
    /// Synthetic documents per original per epoch (the baseline repeats
    /// originals to match total updates).
    pub synth_ratio: f32,
    /// Cap on synthetic documents fed to training (0 = no cap): a seeded
    /// random subset of at most this many planned synthetics is kept.
    /// Only the kept synthetics are built, so the cap also bounds
    /// augmentation time and memory; the per-epoch budget already
    /// equalizes exposure across arms.
    pub synthetic_cap: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the grid fan-out (`run_grid`,
    /// `run_robustness_grid`; 0 = all cores, 1 = serial). Results are
    /// bit-identical for every setting: each experiment's randomness is
    /// derived purely from its grid coordinates, never from scheduling
    /// order.
    pub jobs: usize,
    /// Worker threads *inside* each training run (0 = all cores,
    /// 1 = serial): the decode windows of the backbone trainer, the
    /// gradient windows of the importance-model pre-training, and the
    /// per-document render phase of corpus generation. Like `jobs`,
    /// any value produces bit-identical results — see
    /// [`fieldswap_extract::TRAIN_BATCH`] for the contract.
    pub train_jobs: usize,
    /// Evaluate through the int8-quantized emission table instead of the
    /// exact f32 one. Scores are approximate (guarded by the quantization
    /// accuracy gate); training is unaffected.
    pub quantized: bool,
}

impl HarnessOptions {
    /// The paper's protocol: 3 samples x 3 trials, full test sets.
    pub fn full() -> Self {
        Self {
            n_samples: 3,
            n_trials: 3,
            pretrain_docs: 400,
            lexicon_docs: 1000,
            neighbors: 100,
            test_cap: 0,
            epochs: 8,
            synth_ratio: 2.0,
            synthetic_cap: 4000,
            seed: 0x5EED,
            jobs: 0,
            train_jobs: 1,
            quantized: false,
        }
    }

    /// A reduced 1x1 protocol for smoke runs and benches.
    pub fn quick() -> Self {
        Self {
            n_samples: 1,
            n_trials: 1,
            pretrain_docs: 80,
            lexicon_docs: 200,
            neighbors: 24,
            test_cap: 120,
            epochs: 5,
            synth_ratio: 2.0,
            synthetic_cap: 1500,
            seed: 0x5EED,
            jobs: 0,
            train_jobs: 1,
            quantized: false,
        }
    }
}

/// The outcome of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Macro-F1 in points on the hold-out test set.
    pub macro_f1: f64,
    /// Micro-F1 in points.
    pub micro_f1: f64,
    /// Per-field F1 in points (`None` where the test set has no gold).
    pub per_field_f1: Vec<Option<f64>>,
    /// Synthetic documents generated by FieldSwap for this run.
    pub n_synthetics: usize,
    /// Training sample size (original documents).
    pub n_train_docs: usize,
}

/// Mean macro/micro-F1 over the protocol's repeated runs at one point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointSummary {
    /// Domain name (paper spelling).
    pub domain: String,
    /// Training set size.
    pub size: usize,
    /// Arm label.
    pub arm: String,
    /// Mean macro-F1 over all runs.
    pub macro_f1: f64,
    /// Mean micro-F1 over all runs.
    pub micro_f1: f64,
    /// Mean number of synthetic documents.
    pub synthetics: f64,
    /// Cells that panicked twice and were dropped from the averages.
    /// Non-zero means the means cover `runs.len()` successes, not the
    /// full protocol — reported rather than silently averaged over.
    pub failed_cells: usize,
    /// All individual runs.
    pub runs: Vec<ExperimentResult>,
}

/// A deterministic per-experiment seed, mixed purely from the master
/// seed and the experiment's grid coordinates. Because no scheduling
/// state enters the mix, a cell computes the same numbers whether it
/// runs first on one thread or last on sixteen.
pub fn cell_seed(
    master: u64,
    domain: Domain,
    size: usize,
    arm: Arm,
    sample_idx: usize,
    trial_idx: usize,
) -> u64 {
    mix_coords(
        master,
        &[
            domain as u64,
            size as u64,
            arm as u64,
            sample_idx as u64,
            trial_idx as u64,
        ],
    )
}

/// Folds coordinates into a master seed with a SplitMix64-style
/// avalanche per step, so neighboring grid cells get uncorrelated
/// streams. Also reused by [`crate::checkpoint`] to fingerprint
/// harness options.
pub(crate) fn mix_coords(master: u64, coords: &[u64]) -> u64 {
    let mut h = master ^ 0x9E37_79B9_7F4A_7C15;
    for &c in coords {
        let mut z = h.rotate_left(17) ^ c.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// Stream separators so the independent random decisions inside one
/// experiment never share a seed.
const STREAM_SAMPLE: u64 = 0x5A;
const STREAM_TRAIN: u64 = 0x7A;
const STREAM_CAP: u64 = 0xCA;
const STREAM_VALUE_SWAP: u64 = 0xE5;

/// The mean of `f` over a point's successful runs, or 0.0 when every cell
/// failed: 0/0 would be NaN, unrepresentable in the JSON reports.
pub(crate) fn mean_over<R>(runs: &[R], f: impl Fn(&R) -> f64) -> f64 {
    if runs.is_empty() {
        0.0
    } else {
        runs.iter().map(f).sum::<f64>() / runs.len() as f64
    }
}

/// Immutable state shared by every experiment: built once in
/// [`Harness::new`], read concurrently by all workers.
struct Shared {
    /// Importance model pre-trained on out-of-domain invoices.
    importance: ImportanceModel,
    /// Unsupervised lexicon from the out-of-domain pass.
    lexicon: Lexicon,
}

/// Shared experiment state. Create one and reuse it for a whole sweep —
/// pre-training and corpus generation happen once.
///
/// All methods take `&self`: the immutable inputs (importance model,
/// lexicon) sit behind an [`Arc`], and the lazy caches (per-domain
/// pools, inferred phrase configs) are concurrent [`OnceMap`]s that
/// initialize each key exactly once regardless of how many workers race
/// on it. This is what lets [`run_point`](Self::run_point) and
/// [`run_grid`](Self::run_grid) fan experiments out across threads while
/// staying bit-identical to a serial run.
pub struct Harness {
    opts: HarnessOptions,
    shared: Arc<Shared>,
    /// (pool, test) per domain.
    data: OnceMap<Domain, Arc<(Corpus, Corpus)>>,
    /// Attacked test corpora per (domain, attack kind, strength bits),
    /// built once per key and shared by every robustness cell.
    attacked_tests: OnceMap<(Domain, AttackKind, u64), Arc<Corpus>>,
    /// Inferred phrase configs per (domain, size, sample).
    phrase_cache: OnceMap<(Domain, usize, usize), FieldSwapConfig>,
    /// On-disk per-cell result cache; when set, completed cells are
    /// persisted and consulted before computing (`--checkpoint-dir` /
    /// `--resume`).
    checkpoint: Option<CellCache>,
    /// Test hook: cells that should panic, with a remaining-failure
    /// count. Consulted *after* the cache, decremented per attempt, so a
    /// count of 1 exercises the retry path and a large count the
    /// failed-cell path.
    fail_injections: Mutex<HashMap<CellCoords, usize>>,
    /// Test hook: cells whose training should hit a non-finite epoch
    /// loss, exercising the trainer's divergence recovery end to end.
    diverge_injections: Mutex<HashSet<CellCoords>>,
}

impl Harness {
    /// Builds the harness: generates the invoice pre-training corpus,
    /// trains the importance model, and runs the unsupervised lexicon
    /// pass (all out-of-domain, per Section IV-B).
    pub fn new(opts: HarnessOptions) -> Self {
        let _span = fieldswap_obs::span("harness_build");
        let pretrain = generate_jobs(
            Domain::Invoices,
            opts.seed ^ 0xABCD,
            opts.pretrain_docs,
            opts.train_jobs,
        );
        let model_cfg = ModelConfig {
            neighbors: opts.neighbors,
            epochs: 2,
            train_jobs: opts.train_jobs,
            ..ModelConfig::default()
        };
        let mut importance = ImportanceModel::new(model_cfg, pretrain.schema.len(), opts.seed);
        {
            let _span = fieldswap_obs::span("pretrain_importance");
            importance.train(&pretrain, opts.seed ^ 0xF00D);
        }
        let lexicon = {
            let _span = fieldswap_obs::span("lexicon_pass");
            let lexicon_corpus = generate_jobs(
                Domain::Invoices,
                opts.seed ^ 0x1E81C0,
                opts.lexicon_docs,
                opts.train_jobs,
            );
            Lexicon::pretrain(&lexicon_corpus.documents)
        };
        Self {
            opts,
            shared: Arc::new(Shared {
                importance,
                lexicon,
            }),
            data: OnceMap::named("domain_data"),
            attacked_tests: OnceMap::named("attacked_tests"),
            phrase_cache: OnceMap::named("phrase_cache"),
            checkpoint: None,
            fail_injections: Mutex::new(HashMap::new()),
            diverge_injections: Mutex::new(HashSet::new()),
        }
    }

    /// The harness options.
    pub fn options(&self) -> &HarnessOptions {
        &self.opts
    }

    /// Attaches an on-disk cell cache: every completed cell is persisted,
    /// and already-persisted cells are returned without recomputation.
    /// Because cells are deterministic in their coordinates, a resumed
    /// grid is byte-identical to an uninterrupted one.
    pub fn attach_checkpoint(&mut self, cache: CellCache) {
        self.checkpoint = Some(cache);
    }

    /// Test hook: make a cell panic on its next `times` attempts. The
    /// injection sits between the cache lookup and the real computation,
    /// so `times = 1` exercises the worker retry and a larger count the
    /// failed-cell accounting.
    #[doc(hidden)]
    pub fn fail_cell_for_tests(&self, coords: CellCoords, times: usize) {
        self.fail_injections
            .lock()
            .expect("injection map poisoned")
            .insert(coords, times);
    }

    /// Test hook: force a cell's training to report a non-finite epoch
    /// loss, driving the trainer through its divergence recovery. The
    /// cell still completes — recovered, counted, logged — which is
    /// exactly the behavior the injection exists to prove.
    #[doc(hidden)]
    pub fn diverge_cell_for_tests(&self, coords: CellCoords) {
        self.diverge_injections
            .lock()
            .expect("divergence set poisoned")
            .insert(coords);
    }

    /// Test hook: pre-populate a domain's (pool, test) corpora instead of
    /// generating them — the injection point for feeding documents that
    /// fail `validate()` through the full grid. The injected corpora go
    /// through the same ingestion sanitization as generated ones.
    #[doc(hidden)]
    pub fn inject_domain_data_for_tests(&self, domain: Domain, pool: Corpus, test: Corpus) {
        self.data
            .get_or_init(domain, || Arc::new(Self::ingest(pool, test)));
    }

    /// The one cached-cell step every grid cell runs through: a cache
    /// hit under `family` returns the stored result; a miss passes the
    /// `fail_cell_for_tests` hook, computes, and stores. Panics (injected
    /// or organic) propagate to the worker pool's `catch_unwind`.
    fn cached_cell<R: Serialize + Deserialize>(
        &self,
        family: &str,
        coords: CellCoords,
        compute: impl FnOnce() -> R,
    ) -> R {
        if let Some(hit) = self
            .checkpoint
            .as_ref()
            .and_then(|c| c.load(family, coords))
        {
            fieldswap_obs::counter_add("fieldswap_grid_cells_cached", 1);
            return hit;
        }
        let inject = {
            // Decrement inside the lock, panic outside it: unwinding
            // while holding the guard would poison the map for every
            // other worker.
            let mut map = self.fail_injections.lock().expect("injection map poisoned");
            match map.get_mut(&coords) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    true
                }
                _ => false,
            }
        };
        if inject {
            panic!("injected failure for cell {coords:?}");
        }
        let result = compute();
        if let Some(cache) = &self.checkpoint {
            cache.store(family, coords, Ok(&result));
        }
        result
    }

    /// The one fan-out behind every grid: maps the `n_samples x n_trials`
    /// cells of every point to their coordinates, runs them all through
    /// [`cached_cell`](Self::cached_cell) on one worker pool (so small
    /// points can't leave cores idle while a big point finishes), and
    /// groups the outcomes per point, in the order of `points`. Each
    /// point's runs come with its count of cells that panicked twice:
    /// such a cell is logged, recorded under `family`, and dropped,
    /// never fatal to the grid.
    pub(crate) fn fan_out<R: Serialize + Deserialize + Send>(
        &self,
        points: &[(Domain, usize, Arm)],
        family: &str,
        cell: impl Fn(CellCoords) -> R + Sync,
    ) -> Vec<(Vec<R>, usize)> {
        let n_trials = self.opts.n_trials;
        let per_point = self.opts.n_samples * n_trials;
        // Root span on the caller's thread: cell spans close on worker
        // threads, so this is what gives a trace its wall-clock root
        // (and `trace_report` its critical-path anchor).
        let _grid_span = fieldswap_obs::span_tagged("grid", || {
            vec![
                ("points", points.len().to_string()),
                ("cells", (points.len() * per_point).to_string()),
                ("jobs", self.opts.jobs.to_string()),
            ]
        });
        let coords = |i: usize| {
            let (domain, size, arm) = points[i / per_point];
            let cell = i % per_point;
            (domain, size, arm, cell / n_trials, cell % n_trials)
        };
        let outcomes = par_try_map_indexed(points.len() * per_point, self.opts.jobs, |i| {
            self.cached_cell(family, coords(i), || cell(coords(i)))
        });
        let mut outcomes = outcomes.into_iter().enumerate();
        let mut out = Vec::with_capacity(points.len());
        for &(domain, size, arm) in points {
            let mut runs = Vec::with_capacity(per_point);
            let mut failed = 0;
            for (i, outcome) in outcomes.by_ref().take(per_point) {
                match outcome {
                    Ok(r) => runs.push(r),
                    Err(p) => {
                        failed += 1;
                        fieldswap_obs::error!(
                            "grid cell {:?} failed after retry: {}",
                            coords(i),
                            p.payload
                        );
                        if let Some(cache) = &self.checkpoint {
                            cache.store(family, coords(i), Err(&p.payload));
                        }
                    }
                }
            }
            if failed > 0 {
                fieldswap_obs::warn!(
                    "({}, {size}, {}): {failed} cell(s) failed; means cover {} success(es) only",
                    domain.name(),
                    arm.label(),
                    runs.len()
                );
            }
            out.push((runs, failed));
        }
        out
    }

    /// The (pool, test) corpora for a domain, generated on first use at
    /// the paper's Table I sizes (test capped per options). Concurrent
    /// callers block until the single in-flight generation finishes.
    pub fn domain_data(&self, domain: Domain) -> Arc<(Corpus, Corpus)> {
        let opts = self.opts;
        self.data.get_or_init(domain, || {
            let (pool, mut test) =
                fieldswap_datagen::generate_paper_splits_jobs(domain, opts.seed, opts.train_jobs);
            if opts.test_cap > 0 && test.len() > opts.test_cap {
                test.documents.truncate(opts.test_cap);
            }
            Arc::new(Self::ingest(pool, test))
        })
    }

    /// Corpus ingestion: the validation/repair gate every (pool, test)
    /// pair passes through, generated or injected. Documents failing
    /// [`fieldswap_docmodel::Document::validate`] are repaired in place
    /// and counted; well-formed documents are untouched, byte for byte.
    fn ingest(mut pool: Corpus, mut test: Corpus) -> (Corpus, Corpus) {
        let (pool_report, pool_docs) = pool.sanitize();
        let (test_report, test_docs) = test.sanitize();
        let docs = pool_docs + test_docs;
        if docs > 0 {
            fieldswap_obs::warn!(
                "ingestion sanitized {docs} document(s) ({} repairs)",
                pool_report.total() + test_report.total()
            );
            fieldswap_obs::counter_add("fieldswap_ingest_sanitized_docs_total", docs as u64);
        }
        (pool, test)
    }

    /// The attacked variant of a domain's test set, built once per
    /// `(domain, kind, strength)` and shared across all robustness cells.
    /// Per-document attack seeds derive from the master seed and the
    /// document index (see [`fieldswap_core::attack_corpus`]), so the
    /// corpus is byte-identical across worker counts and resumes.
    pub fn attacked_test(&self, domain: Domain, spec: AttackSpec) -> Arc<Corpus> {
        let opts = self.opts;
        let data = self.domain_data(domain);
        self.attacked_tests
            .get_or_init((domain, spec.kind, spec.strength.to_bits()), || {
                let seed = mix_coords(opts.seed, &[domain as u64]);
                Arc::new(attack_corpus(&data.1, spec.kind, spec.strength, seed))
            })
    }

    /// The training sample for `(domain, size, sample_idx)`: a seeded
    /// random subset of the pool, identical across arms and trials.
    pub fn sample(&self, domain: Domain, size: usize, sample_idx: usize) -> Corpus {
        let seed = mix_coords(
            self.opts.seed,
            &[STREAM_SAMPLE, domain as u64, size as u64, sample_idx as u64],
        );
        let data = self.domain_data(domain);
        let pool = &data.0;
        let mut indices: Vec<usize> = (0..pool.len()).collect();
        indices.shuffle(&mut StdRng::seed_from_u64(seed));
        indices.truncate(size.min(pool.len()));
        pool.subset(&indices)
    }

    /// Automatically inferred key phrases for a sample (cached across
    /// arms and trials; the paper infers once per training set). Under
    /// concurrent access the inference for a key runs exactly once.
    fn inferred_phrases(&self, domain: Domain, size: usize, sample_idx: usize) -> FieldSwapConfig {
        self.phrase_cache
            .get_or_init((domain, size, sample_idx), || {
                let _span = fieldswap_obs::span("infer");
                let sample = self.sample(domain, size, sample_idx);
                let ranked = infer_key_phrases(
                    &self.shared.importance,
                    &sample,
                    &InferenceConfig::default(),
                );
                fieldswap_keyphrase::pipeline::to_fieldswap_config(&ranked)
            })
    }

    /// The FieldSwap configuration for an arm, or `None` for the baseline
    /// (and for the expert arm on unsupported domains).
    pub fn arm_config(
        &self,
        domain: Domain,
        size: usize,
        sample_idx: usize,
        arm: Arm,
    ) -> Option<FieldSwapConfig> {
        let schema = self.domain_data(domain).0.schema.clone();
        match arm {
            Arm::Baseline => None,
            Arm::HumanExpert => expert_config(domain, &schema),
            Arm::NameDerived => {
                let mut config = fieldswap_keyphrase::config_from_schema(&schema);
                config.set_pairs(PairStrategy::TypeToType.build(&schema, &config));
                Some(config)
            }
            Arm::AutoFieldToField
            | Arm::AutoTypeToType
            | Arm::AutoAllToAll
            | Arm::TypeToTypeValueSwap => {
                let mut config = self.inferred_phrases(domain, size, sample_idx);
                let strategy = match arm {
                    Arm::AutoFieldToField => PairStrategy::FieldToField,
                    Arm::AutoAllToAll => PairStrategy::AllToAll,
                    _ => PairStrategy::TypeToType,
                };
                config.set_pairs(strategy.build(&schema, &config));
                Some(config)
            }
        }
    }

    /// The training front half of one experiment, shared verbatim by
    /// every cell kind through [`score_cell`](Self::score_cell): sample,
    /// configure, augment, and train — everything except the final
    /// evaluation. Identical spans, identical random draws, identical
    /// extractor.
    pub(crate) fn train_cell(
        &self,
        domain: Domain,
        size: usize,
        arm: Arm,
        sample_idx: usize,
        trial_idx: usize,
    ) -> (Extractor, usize) {
        let cell = cell_seed(self.opts.seed, domain, size, arm, sample_idx, trial_idx);
        let sample = {
            let _span = fieldswap_obs::span("sample");
            self.sample(domain, size, sample_idx)
        };
        let config = self.arm_config(domain, size, sample_idx, arm);
        // Plan every swap, then build only the ones the cap keeps. The
        // shuffle permutes plan indices with the draws it would spend on
        // the built documents (Fisher–Yates depends only on the length),
        // so the survivors are the same synthetics in the same order.
        let (mut synthetics, kept) = {
            let _span = fieldswap_obs::span("augment");
            match &config {
                Some(c) => {
                    let plan = SwapPlan::new(&sample, c, &EngineOptions::default());
                    let mut kept: Vec<usize> = (0..plan.len()).collect();
                    if self.opts.synthetic_cap > 0 && kept.len() > self.opts.synthetic_cap {
                        let mut rng = StdRng::seed_from_u64(mix_coords(cell, &[STREAM_CAP]));
                        kept.shuffle(&mut rng);
                        kept.truncate(self.opts.synthetic_cap);
                    }
                    let built: Vec<_> = kept.iter().map(|&k| plan.build(k)).collect();
                    (built, kept)
                }
                None => (Vec::new(), Vec::new()),
            }
        };
        if arm == Arm::TypeToTypeValueSwap {
            // The Section II-C extension: give relabeled instances values
            // drawn from their new field's observed value bank, seeded by
            // each synthetic's pre-cap plan index `k`.
            let bank = fieldswap_core::ValueBank::collect(&sample);
            synthetics = synthetics
                .iter()
                .zip(&kept)
                .map(|(s, &k)| {
                    fieldswap_core::apply_value_swap_all(
                        s,
                        &bank,
                        mix_coords(cell, &[STREAM_VALUE_SWAP, k as u64]),
                    )
                })
                .collect();
        }
        let n_synthetics = synthetics.len();
        let train_cfg = TrainConfig {
            epochs: self.opts.epochs,
            synth_ratio: self.opts.synth_ratio,
            // Deliberately excludes `arm`: all arms of one (sample, trial)
            // share a training seed — the paper's matched-training
            // control, so F1 deltas come from the data, not the draw.
            seed: mix_coords(
                self.opts.seed,
                &[
                    STREAM_TRAIN,
                    domain as u64,
                    size as u64,
                    sample_idx as u64,
                    trial_idx as u64,
                ],
            ),
            inject_nan_epoch_mask: {
                let injected = self
                    .diverge_injections
                    .lock()
                    .expect("divergence set poisoned")
                    .contains(&(domain, size, arm, sample_idx, trial_idx));
                if injected {
                    1 // epoch 0 diverges once; recovery replays it
                } else {
                    0
                }
            },
            train_jobs: self.opts.train_jobs,
            ..TrainConfig::default()
        };
        let schema = sample.schema.clone();
        let extractor = {
            let _span = fieldswap_obs::span("train");
            Extractor::train_on(
                &schema,
                self.shared.lexicon.clone(),
                &sample,
                &synthetics,
                &train_cfg,
            )
        };
        let report = extractor.train_report();
        if report.divergences > 0 {
            fieldswap_obs::warn!(
                "cell ({}, {size}, {}, {sample_idx}, {trial_idx}): training diverged {} time(s), \
                 {} retr{} used{}",
                domain.name(),
                arm.label(),
                report.divergences,
                report.retries,
                if report.retries == 1 { "y" } else { "ies" },
                if report.exhausted {
                    "; retry budget exhausted, weights scrubbed"
                } else {
                    ""
                }
            );
        }
        (extractor, n_synthetics)
    }

    /// The scoring back half shared by every cell kind: trains the cell
    /// ([`train_cell`](Self::train_cell)), freezes it once — int8 when
    /// `opts.quantized` is set — and scores the clean test set, then the
    /// attacked test set of each of `attacks`, in suite order. Returns the
    /// clean score, the attacked scores and the synthetic count.
    pub(crate) fn score_cell(
        &self,
        coords: CellCoords,
        attacks: &[AttackSpec],
    ) -> (EvalResult, Vec<EvalResult>, usize) {
        let (domain, size, arm, sample_idx, trial_idx) = coords;
        let (extractor, n_synthetics) = self.train_cell(domain, size, arm, sample_idx, trial_idx);
        let frozen;
        let clean = {
            let _span = fieldswap_obs::span("eval");
            frozen = if self.opts.quantized {
                extractor.freeze().quantize()
            } else {
                extractor.freeze()
            };
            evaluate_frozen(&frozen, &self.domain_data(domain).1)
        };
        let attacked = attacks
            .iter()
            .map(|spec| {
                let test = self.attacked_test(domain, *spec);
                let started = fieldswap_obs::metrics_enabled().then(std::time::Instant::now);
                let eval = {
                    let _span = fieldswap_obs::span_tagged("eval_attacked", || {
                        vec![
                            ("attack", spec.kind.name().to_string()),
                            ("strength", format!("{}", spec.strength)),
                        ]
                    });
                    evaluate_frozen(&frozen, &test)
                };
                if let Some(t) = started {
                    fieldswap_obs::observe(
                        &format!("fieldswap_attack_eval_ms{{kind=\"{}\"}}", spec.kind.name()),
                        t.elapsed().as_secs_f64() * 1e3,
                    );
                }
                eval
            })
            .collect();
        (clean, attacked, n_synthetics)
    }

    /// Runs one experiment. Every random decision is seeded from the
    /// experiment's grid coordinates via [`cell_seed`], so the result is
    /// the same whether this cell runs serially or on a worker thread.
    pub fn run_single(
        &self,
        domain: Domain,
        size: usize,
        arm: Arm,
        sample_idx: usize,
        trial_idx: usize,
    ) -> ExperimentResult {
        let _cell_span = fieldswap_obs::span_tagged("cell", || {
            vec![
                ("domain", domain.name().to_string()),
                ("size", size.to_string()),
                ("arm", arm.label().to_string()),
                ("sample", sample_idx.to_string()),
                ("trial", trial_idx.to_string()),
            ]
        });
        let (eval, _, n_synthetics) =
            self.score_cell((domain, size, arm, sample_idx, trial_idx), &[]);
        ExperimentResult {
            macro_f1: eval.macro_f1(),
            micro_f1: eval.micro_f1(),
            per_field_f1: eval.per_field_f1(),
            n_synthetics,
            n_train_docs: size,
        }
    }

    /// Runs the full protocol for one `(domain, size, arm)` point: the
    /// one-point [`run_grid`](Self::run_grid).
    pub fn run_point(&self, domain: Domain, size: usize, arm: Arm) -> PointSummary {
        self.run_grid(&[(domain, size, arm)])
            .pop()
            .expect("one point in, one summary out")
    }

    /// Runs every `(domain, size, arm)` point of a grid: `n_samples x
    /// n_trials` experiments per point, averaged. All experiments of all
    /// points fan out over `opts.jobs` workers; each summary is
    /// bit-identical to a serial run because each cell's randomness and
    /// output slot depend only on its coordinates. Summaries come back in
    /// the order of `points`. A cell that panics twice is dropped from the
    /// averages and counted in its point's `failed_cells` while the rest
    /// of the grid completes.
    pub fn run_grid(&self, points: &[(Domain, usize, Arm)]) -> Vec<PointSummary> {
        let cells = self.fan_out(points, "", |(domain, size, arm, sample_idx, trial_idx)| {
            self.run_single(domain, size, arm, sample_idx, trial_idx)
        });
        points
            .iter()
            .zip(cells)
            .map(
                |(&(domain, size, arm), (runs, failed_cells))| PointSummary {
                    domain: domain.name().to_string(),
                    size,
                    arm: arm.label().to_string(),
                    macro_f1: mean_over(&runs, |r| r.macro_f1),
                    micro_f1: mean_over(&runs, |r| r.micro_f1),
                    synthetics: mean_over(&runs, |r| r.n_synthetics as f64),
                    failed_cells,
                    runs,
                },
            )
            .collect()
    }

    /// Counts synthetic documents for one point without training — the
    /// Table III measurement (averaged over samples, in parallel).
    pub fn count_synthetics(&self, domain: Domain, size: usize, arm: Arm) -> f64 {
        let n = self.opts.n_samples;
        let counts = par_map_indexed(n, self.opts.jobs, |sample_idx| {
            let sample = self.sample(domain, size, sample_idx);
            match self.arm_config(domain, size, sample_idx, arm) {
                Some(c) => SwapPlan::new(&sample, &c, &EngineOptions::default()).len(),
                None => 0,
            }
        });
        counts.iter().sum::<usize>() as f64 / n as f64
    }
}

// The whole point of the `&self` refactor: a `Harness` reference can be
// handed to worker threads. Compile-time proof.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Harness>();
    assert_sync_send::<HarnessOptions>();
    assert_sync_send::<PointSummary>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> HarnessOptions {
        HarnessOptions {
            n_samples: 1,
            n_trials: 1,
            pretrain_docs: 30,
            lexicon_docs: 50,
            neighbors: 12,
            test_cap: 40,
            epochs: 3,
            synth_ratio: 2.0,
            synthetic_cap: 300,
            seed: 0x7E57,
            jobs: 1,
            train_jobs: 1,
            quantized: false,
        }
    }

    /// The reference for the capped plan: one cell through public calls
    /// only, as an external benchmark drives it. It builds every
    /// synthetic with `augment_corpus`, value-swaps all of them, then
    /// shuffles and truncates the documents.
    fn build_all_then_cap(h: &Harness, coords: CellCoords) -> ExperimentResult {
        let (domain, size, arm, sample_idx, trial_idx) = coords;
        let opts = *h.options();
        let cell = cell_seed(opts.seed, domain, size, arm, sample_idx, trial_idx);
        let sample = h.sample(domain, size, sample_idx);
        let mut synthetics = match h.arm_config(domain, size, sample_idx, arm) {
            Some(c) => fieldswap_core::augment_corpus(&sample, &c).0,
            None => Vec::new(),
        };
        if arm == Arm::TypeToTypeValueSwap {
            let bank = fieldswap_core::ValueBank::collect(&sample);
            synthetics = synthetics
                .iter()
                .enumerate()
                .map(|(k, s)| {
                    let seed = mix_coords(cell, &[STREAM_VALUE_SWAP, k as u64]);
                    fieldswap_core::apply_value_swap_all(s, &bank, seed)
                })
                .collect();
        }
        if opts.synthetic_cap > 0 && synthetics.len() > opts.synthetic_cap {
            let mut rng = StdRng::seed_from_u64(mix_coords(cell, &[STREAM_CAP]));
            synthetics.shuffle(&mut rng);
            synthetics.truncate(opts.synthetic_cap);
        }
        let cfg = TrainConfig {
            epochs: opts.epochs,
            synth_ratio: opts.synth_ratio,
            seed: mix_coords(
                opts.seed,
                &[
                    STREAM_TRAIN,
                    domain as u64,
                    size as u64,
                    sample_idx as u64,
                    trial_idx as u64,
                ],
            ),
            train_jobs: opts.train_jobs,
            ..TrainConfig::default()
        };
        let extractor = Extractor::train_on(
            &sample.schema,
            h.shared.lexicon.clone(),
            &sample,
            &synthetics,
            &cfg,
        );
        let eval = crate::metrics::evaluate_frozen(&extractor.freeze(), &h.domain_data(domain).1);
        ExperimentResult {
            macro_f1: eval.macro_f1(),
            micro_f1: eval.micro_f1(),
            per_field_f1: eval.per_field_f1(),
            n_synthetics: synthetics.len(),
            n_train_docs: size,
        }
    }

    #[test]
    fn capped_plan_matches_building_every_synthetic_for_all_arms() {
        let mut opts = tiny_options();
        opts.synthetic_cap = 40;
        opts.epochs = 1;
        let h = Harness::new(opts);
        let (domain, size) = (Domain::Earnings, 10);
        let sample = h.sample(domain, size, 0);
        let mut cap_bound = false;
        for arm in [
            Arm::Baseline,
            Arm::AutoFieldToField,
            Arm::AutoTypeToType,
            Arm::AutoAllToAll,
            Arm::HumanExpert,
            Arm::NameDerived,
            Arm::TypeToTypeValueSwap,
        ] {
            let all = h
                .arm_config(domain, size, 0, arm)
                .map_or(0, |c| fieldswap_core::augment_corpus(&sample, &c).0.len());
            cap_bound |= all > opts.synthetic_cap;
            assert_eq!(h.count_synthetics(domain, size, arm), all as f64, "{arm:?}");
            let coords = (domain, size, arm, 0, 0);
            assert_eq!(
                h.run_single(domain, size, arm, 0, 0),
                build_all_then_cap(&h, coords),
                "{arm:?}"
            );
        }
        assert!(cap_bound, "no arm exceeded the cap");
    }

    #[test]
    fn quantized_scores_stay_close_to_f32() {
        // The int8 emission table is an approximation; this guards the
        // accuracy contract behind `HarnessOptions::quantized` (and the CI
        // quantization gate) on a small trained cell.
        let h = Harness::new(tiny_options());
        let (extractor, _) = h.train_cell(Domain::Earnings, 12, Arm::Baseline, 0, 0);
        let data = h.domain_data(Domain::Earnings);
        let frozen = extractor.freeze();
        let exact = crate::metrics::evaluate_frozen(&frozen, &data.1);
        let quant = crate::metrics::evaluate_frozen(&frozen.quantize(), &data.1);
        let delta = (exact.macro_f1() - quant.macro_f1()).abs();
        assert!(
            delta <= crate::metrics::QUANT_MACRO_F1_EPSILON,
            "quantized macro-F1 drifted {delta:.3} points (exact {:.3}, quantized {:.3})",
            exact.macro_f1(),
            quant.macro_f1()
        );
    }

    #[test]
    fn baseline_experiment_runs() {
        let h = Harness::new(tiny_options());
        let r = h.run_single(Domain::Fara, 10, Arm::Baseline, 0, 0);
        assert_eq!(r.n_synthetics, 0);
        assert_eq!(r.n_train_docs, 10);
        assert!(r.macro_f1 >= 0.0 && r.macro_f1 <= 100.0);
        assert!(r.micro_f1 >= 0.0 && r.micro_f1 <= 100.0);
    }

    #[test]
    fn augmented_arm_generates_synthetics() {
        let h = Harness::new(tiny_options());
        let r = h.run_single(Domain::Earnings, 10, Arm::HumanExpert, 0, 0);
        assert!(r.n_synthetics > 0, "expert arm produced no synthetics");
    }

    #[test]
    fn type_to_type_produces_more_than_field_to_field() {
        let h = Harness::new(tiny_options());
        let f2f = h.count_synthetics(Domain::Earnings, 20, Arm::AutoFieldToField);
        let t2t = h.count_synthetics(Domain::Earnings, 20, Arm::AutoTypeToType);
        assert!(
            t2t > f2f,
            "t2t ({t2t}) should generate more synthetics than f2f ({f2f})"
        );
    }

    #[test]
    fn samples_are_deterministic_and_distinct() {
        let h = Harness::new(tiny_options());
        let a = h.sample(Domain::Fara, 10, 0);
        let b = h.sample(Domain::Fara, 10, 0);
        let c = h.sample(Domain::Fara, 10, 1);
        assert_eq!(a.documents, b.documents);
        assert_ne!(a.documents, c.documents);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn expert_arm_unsupported_domain_falls_back_to_none() {
        let h = Harness::new(tiny_options());
        assert!(h
            .arm_config(Domain::Fara, 10, 0, Arm::HumanExpert)
            .is_none());
        assert!(h.arm_config(Domain::Fara, 10, 0, Arm::Baseline).is_none());
    }

    #[test]
    fn phrase_cache_hits() {
        let h = Harness::new(tiny_options());
        let a = h.arm_config(Domain::Fara, 10, 0, Arm::AutoTypeToType);
        let b = h.arm_config(Domain::Fara, 10, 0, Arm::AutoFieldToField);
        // Same inferred phrases behind both arms.
        let (a, b) = (a.unwrap(), b.unwrap());
        for f in 0..a.n_fields() {
            assert_eq!(a.phrases(f as u16), b.phrases(f as u16));
        }
        assert_eq!(h.phrase_cache.len(), 1);
        assert_eq!(h.phrase_cache.init_count(), 1, "inference ran twice");
    }

    #[test]
    fn phrase_cache_initializes_once_under_concurrency() {
        let h = Harness::new(tiny_options());
        // Eight threads race on the same (domain, size, sample) key via
        // two different arms; inference must run exactly once.
        std::thread::scope(|s| {
            for i in 0..8 {
                let h = &h;
                s.spawn(move || {
                    let arm = if i % 2 == 0 {
                        Arm::AutoTypeToType
                    } else {
                        Arm::AutoFieldToField
                    };
                    assert!(h.arm_config(Domain::Fara, 10, 0, arm).is_some());
                });
            }
        });
        assert_eq!(h.phrase_cache.len(), 1);
        assert_eq!(h.phrase_cache.init_count(), 1, "racing init ran twice");
    }

    #[test]
    fn run_point_averages_runs() {
        let mut opts = tiny_options();
        opts.n_trials = 2;
        let h = Harness::new(opts);
        let p = h.run_point(Domain::Fara, 10, Arm::Baseline);
        assert_eq!(p.runs.len(), 2);
        let mean = (p.runs[0].macro_f1 + p.runs[1].macro_f1) / 2.0;
        assert!((p.macro_f1 - mean).abs() < 1e-9);
        assert_eq!(p.domain, "FARA");
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let mut opts = tiny_options();
        opts.n_samples = 2;
        opts.n_trials = 2;

        opts.jobs = 1;
        let serial = Harness::new(opts);
        let s = serial.run_point(Domain::Earnings, 10, Arm::AutoTypeToType);

        opts.jobs = 4;
        let parallel = Harness::new(opts);
        let p = parallel.run_point(Domain::Earnings, 10, Arm::AutoTypeToType);

        // PartialEq over every field, including each run's full
        // per-field F1 vector: bit-identical, not approximately equal.
        assert_eq!(s, p);
    }

    #[test]
    fn parallel_training_run_is_bit_identical_to_serial() {
        // Unlike `jobs` (which shards whole cells), `train_jobs` threads
        // the training loops *inside* a cell: corpus rendering, the
        // perceptron decode windows, and the importance-model gradient
        // batches. The end-to-end summary must not move by a single bit.
        let mut opts = tiny_options();
        opts.n_trials = 2;

        opts.train_jobs = 1;
        let s = Harness::new(opts).run_point(Domain::Earnings, 10, Arm::AutoTypeToType);

        opts.train_jobs = 4;
        let p = Harness::new(opts).run_point(Domain::Earnings, 10, Arm::AutoTypeToType);

        assert_eq!(s, p);
    }

    #[test]
    fn run_grid_matches_point_by_point() {
        let mut opts = tiny_options();
        opts.jobs = 4;
        let h = Harness::new(opts);
        let points = [
            (Domain::Fara, 10, Arm::Baseline),
            (Domain::Fara, 20, Arm::Baseline),
        ];
        let grid = h.run_grid(&points);
        assert_eq!(grid.len(), 2);
        for ((domain, size, arm), summary) in points.iter().zip(&grid) {
            assert_eq!(summary, &h.run_point(*domain, *size, *arm));
        }
    }

    #[test]
    fn injected_panic_fails_cell_but_grid_survives() {
        let mut opts = tiny_options();
        opts.n_trials = 2;
        opts.jobs = 2;
        let h = Harness::new(opts);
        // Panic persistently: first attempt AND retry both die.
        h.fail_cell_for_tests((Domain::Fara, 10, Arm::Baseline, 0, 1), usize::MAX);
        let p = h.run_point(Domain::Fara, 10, Arm::Baseline);
        assert_eq!(p.failed_cells, 1);
        assert_eq!(p.runs.len(), 1, "surviving cell still reported");
        // The surviving cell matches what a clean harness computes.
        let clean = Harness::new(tiny_options());
        let expect = clean.run_single(Domain::Fara, 10, Arm::Baseline, 0, 0);
        assert_eq!(p.runs[0], expect);
        assert_eq!(p.macro_f1, expect.macro_f1, "mean over successes only");
    }

    #[test]
    fn transient_injected_panic_is_retried_to_success() {
        let mut opts = tiny_options();
        opts.n_trials = 2;
        let h = Harness::new(opts);
        // One failure: the first attempt panics, the retry computes.
        h.fail_cell_for_tests((Domain::Fara, 10, Arm::Baseline, 0, 0), 1);
        let p = h.run_point(Domain::Fara, 10, Arm::Baseline);
        assert_eq!(p.failed_cells, 0);
        assert_eq!(p.runs.len(), 2);
        let clean = Harness::new({
            let mut o = tiny_options();
            o.n_trials = 2;
            o
        });
        assert_eq!(p, clean.run_point(Domain::Fara, 10, Arm::Baseline));
    }

    #[test]
    fn all_cells_failed_reports_zeroed_means_not_nan() {
        let h = Harness::new(tiny_options());
        h.fail_cell_for_tests((Domain::Fara, 10, Arm::Baseline, 0, 0), usize::MAX);
        let p = h.run_point(Domain::Fara, 10, Arm::Baseline);
        assert_eq!(p.failed_cells, 1);
        assert!(p.runs.is_empty());
        assert_eq!(p.macro_f1, 0.0);
        // The summary must stay representable in the JSON reports.
        assert!(serde_json::to_string(&p).is_ok());
    }

    #[test]
    fn cell_seeds_are_distinct_across_coordinates() {
        let mut seen = std::collections::HashSet::new();
        for size in [10, 50] {
            for arm in [Arm::Baseline, Arm::AutoTypeToType] {
                for sample in 0..3 {
                    for trial in 0..3 {
                        assert!(seen.insert(cell_seed(
                            0x5EED,
                            Domain::Fara,
                            size,
                            arm,
                            sample,
                            trial
                        )));
                    }
                }
            }
        }
        assert_eq!(seen.len(), 2 * 2 * 3 * 3);
    }
}
