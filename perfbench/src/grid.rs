//! `grid-quick`: a slice of the quick Fig. 4 protocol — Earnings and
//! Loan Payments x sizes {10, 50, 100} x {baseline, field-to-field,
//! type-to-type, human expert}, 24 cells — through
//! `fieldswap_eval::Harness`.
//!
//! The untraced run times `Harness::new` plus corpus generation (set-up,
//! repeated) and `Harness::run_grid` on all cores. The traced run times
//! the same set-up calls one by one, runs the grid untraced once more for
//! its wall time, then drives the same cells serially through the public
//! calls `run_single` makes (`sample`, `arm_config`, `augment_corpus`,
//! `Extractor::train_on`, `freeze`, `evaluate_frozen`) with one span per
//! call, and finally runs every cell through `run_single` untraced for
//! the tracing overhead. The point summaries of all three must be
//! byte-identical.

use crate::report::{peak_rss_mb, Outcome, Phase};
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use fieldswap_core::augment_corpus;
use fieldswap_datagen::{generate_jobs, generate_paper_splits_jobs, Domain};
use fieldswap_eval::{
    cell_seed, effective_jobs, evaluate_frozen, Arm, CellCoords, ExperimentResult, Harness,
    HarnessOptions, PointSummary,
};
use fieldswap_extract::{Extractor, Lexicon, TrainConfig};
use fieldswap_keyphrase::{ImportanceModel, ModelConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// The slice's domains: the largest FieldSwap gains and the only expert
/// configurations.
const DOMAINS: [Domain; 2] = [Domain::Earnings, Domain::LoanPayments];
const SIZES: [usize; 3] = [10, 50, 100];
const ARMS: [Arm; 4] = [
    Arm::Baseline,
    Arm::AutoFieldToField,
    Arm::AutoTypeToType,
    Arm::HumanExpert,
];

/// Set-ups timed per untraced run; the median is reported.
const SETUP_REPEATS: usize = 3;

/// Seed stream of the point order.
const STREAM_ORDER: u64 = 0x0D;

/// Stream separators of `fieldswap_eval::runner`, which keeps them
/// private; the traced drive must draw exactly the same numbers.
const STREAM_TRAIN: u64 = 0x7A;
const STREAM_CAP: u64 = 0xCA;

/// Per-layer metrics only the grid measures; serve runs report them as 0.
pub const GRID_ONLY: [&str; 11] = [
    "keyphrase.pretrain_ms",
    "keyphrase.infer_ms",
    "core.augment_ms",
    "core.synthetics",
    "core.kept_ratio",
    "core.match_ratio",
    "eval.score_ms",
    "eval.docs",
    "eval.other_ms",
    "parallel.idle_ratio",
    "grid.fieldswap_gain",
];

/// The slice's points in figure order.
pub fn points() -> Vec<(Domain, usize, Arm)> {
    let mut out = Vec::new();
    for d in DOMAINS {
        for s in SIZES {
            for a in ARMS {
                out.push((d, s, a));
            }
        }
    }
    out
}

/// The quick protocol exactly as the figure binaries run it: master seed
/// 0x5EED and the default jobs (all cores). Results are comparable with
/// `fig4_macro_f1 --quick` and identical on every run.
pub fn options() -> HarnessOptions {
    HarnessOptions::quick()
}

/// The slice's points in figure order, rotated to start at a point the
/// run seed picks, as handed to `run_grid`. Results do not depend on the
/// order (every cell's randomness comes from its coordinates); where the
/// pool starts and ends does. A rotation keeps neighbouring cells, which
/// share the pool at the same time, together, as the figure binaries run
/// them.
pub fn seeded_points(seed: u64) -> Vec<(Domain, usize, Arm)> {
    let mut p = points();
    let start = Rng::new(seed, STREAM_ORDER).below(p.len());
    p.rotate_left(start);
    p
}

/// Summaries put back in figure order, so their digest is the same
/// whatever order the points ran in.
fn in_figure_order(
    order: &[(Domain, usize, Arm)],
    summaries: Vec<PointSummary>,
) -> Vec<PointSummary> {
    let mut pairs: Vec<((Domain, usize, Arm), PointSummary)> =
        order.iter().copied().zip(summaries).collect();
    let canon = points();
    pairs.sort_by_key(|(p, _)| canon.iter().position(|c| c == p));
    pairs.into_iter().map(|(_, s)| s).collect()
}

/// `Harness::new` plus corpus generation for the slice's domains.
fn build(opts: HarnessOptions) -> Harness {
    let h = Harness::new(opts);
    for d in DOMAINS {
        h.domain_data(d);
    }
    h
}

/// FNV-1a over the serialized point summaries: equal digests mean
/// byte-identical results.
pub fn digest(summaries: &[PointSummary]) -> u64 {
    let text = serde_json::to_string(&summaries.to_vec()).expect("point summaries serialize");
    fnv1a(text.as_bytes())
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The harness's coordinate mix (`fieldswap_eval::runner::mix_coords`,
/// crate-private). [`cell_seed`] is this mix over a cell's coordinates,
/// which the tests use to prove the copy exact.
pub fn mix_coords(master: u64, coords: &[u64]) -> u64 {
    let mut h = master ^ 0x9E37_79B9_7F4A_7C15;
    for &c in coords {
        let mut z = h.rotate_left(17) ^ c.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// Mean macro-F1 over the points.
fn mean_macro_f1(summaries: &[PointSummary]) -> f64 {
    stats::mean(&summaries.iter().map(|p| p.macro_f1).collect::<Vec<_>>())
}

/// Mean macro-F1 of the FieldSwap arms minus the baseline at the same
/// domain and size: the paper's headline effect.
fn fieldswap_gain(points: &[(Domain, usize, Arm)], summaries: &[PointSummary]) -> f64 {
    let mut gains = Vec::new();
    for (i, &(d, s, a)) in points.iter().enumerate() {
        if a == Arm::Baseline {
            continue;
        }
        let base = points
            .iter()
            .position(|&p| p == (d, s, Arm::Baseline))
            .expect("every point has a baseline");
        gains.push(summaries[i].macro_f1 - summaries[base].macro_f1);
    }
    stats::mean(&gains)
}

/// Failed cells across the summaries.
fn failed_cells(summaries: &[PointSummary]) -> u64 {
    summaries.iter().map(|p| p.failed_cells as u64).sum()
}

fn cells_per_point(opts: &HarnessOptions) -> u64 {
    (opts.n_samples * opts.n_trials) as u64
}

/// The untraced run: set-up repeated, then `run_grid` passes (each on a
/// freshly built harness, so no pass reuses another's caches) until
/// `seconds` of grid time have been measured. The grid's latency is the
/// best pass's wall time, its throughput cells per second in that pass.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let opts = options();
    let order = seeded_points(seed);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<(u64, Vec<PointSummary>)> = None;
    let mut warm = Phase {
        name: "warm-up",
        ..Phase::default()
    };
    let mut timed = Phase {
        name: "timed",
        ..Phase::default()
    };
    let mut harness = None;
    for _ in 0..SETUP_REPEATS {
        drop(harness.take());
        let t0 = Instant::now();
        harness = Some(build(opts));
        setups.push(t0.elapsed().as_secs_f64());
        warm.attempted += 1;
        warm.succeeded += 1;
    }
    while walls.iter().sum::<f64>() < seconds {
        let h = match harness.take() {
            Some(h) => h,
            None => {
                let t0 = Instant::now();
                let h = build(opts);
                setups.push(t0.elapsed().as_secs_f64());
                warm.attempted += 1;
                warm.succeeded += 1;
                h
            }
        };
        let t0 = Instant::now();
        let summaries = h.run_grid(&order);
        walls.push(t0.elapsed().as_secs_f64());
        drop(h);
        // Memory is read after the first pass: later passes only add the
        // allocator's leftovers from the harnesses before them, and how
        // many passes fit in a run depends on the machine's speed.
        if walls.len() == 1 {
            out.set("peak_rss_mb", peak_rss_mb());
        }
        let summaries = in_figure_order(&order, summaries);
        let cells = order.len() as u64 * cells_per_point(&opts);
        let failed = failed_cells(&summaries);
        timed.attempted += cells;
        timed.failed += failed;
        timed.succeeded += cells - failed;
        let d = digest(&summaries);
        match &first {
            None => first = Some((d, summaries)),
            Some((d0, _)) if *d0 != d => out.mismatch(format!(
                "grid pass {} digest {d:016x} differs from the first pass's {d0:016x}",
                walls.len()
            )),
            Some(_) => {}
        }
    }
    let (d0, summaries) = first.expect("at least one pass");
    if timed.failed > 0 {
        out.mismatch(format!("{} grid cells failed", timed.failed));
    }
    // The best pass: noise on a shared host only ever slows a pass down.
    let best = stats::min(&walls);
    let cells = order.len() as f64 * cells_per_point(&opts) as f64;
    out.set("setup_s", stats::median(&setups));
    out.set("p50_ms", best * 1e3);
    out.set("throughput", cells / best);
    out.set("macro_f1", mean_macro_f1(&summaries));
    out.notes.push(format!(
        "grid: {} pass(es) of {} points on {} jobs, digest {d0:016x}, fieldswap gain {:+.4} points",
        walls.len(),
        order.len(),
        effective_jobs(opts.jobs),
        fieldswap_gain(&points(), &summaries),
    ));
    out.phases = vec![warm, timed];
    out
}

/// Per-layer tallies of the traced drive beyond what the spans hold.
#[derive(Default)]
struct Counts {
    gen_docs: usize,
    generated: usize,
    kept: usize,
    probes: usize,
    matches: usize,
    train_docs: usize,
    eval_docs: usize,
}

/// One cell through the public calls `Harness::run_single` makes, with a
/// span per call. `lexicon` is the out-of-domain lexicon `Harness::new`
/// builds (the harness keeps its own private).
fn traced_cell(
    h: &Harness,
    lexicon: &Lexicon,
    t: &mut Tracer,
    counts: &mut Counts,
    group: u64,
    (domain, size, arm, sample_idx, trial_idx): CellCoords,
) -> ExperimentResult {
    let opts = *h.options();
    let cell = t.open("cell", group, None);
    let sample = h.sample(domain, size, sample_idx);
    let config = t.time("keyphrase.infer", group, Some(cell), || {
        h.arm_config(domain, size, sample_idx, arm)
    });
    let (mut synthetics, aug) = match &config {
        Some(c) => t.time("core.augment", group, Some(cell), || {
            augment_corpus(&sample, c)
        }),
        None => (Vec::new(), Default::default()),
    };
    counts.generated += synthetics.len();
    counts.probes += aug.phrase_probes;
    counts.matches += aug.phrase_matches;
    let seed = cell_seed(opts.seed, domain, size, arm, sample_idx, trial_idx);
    if opts.synthetic_cap > 0 && synthetics.len() > opts.synthetic_cap {
        let mut rng = StdRng::seed_from_u64(mix_coords(seed, &[STREAM_CAP]));
        synthetics.shuffle(&mut rng);
        synthetics.truncate(opts.synthetic_cap);
    }
    counts.kept += synthetics.len();
    counts.train_docs += sample.len() + synthetics.len();
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
    let schema = sample.schema.clone();
    let extractor = t.time("extract.train", group, Some(cell), || {
        Extractor::train_on(&schema, lexicon.clone(), &sample, &synthetics, &cfg)
    });
    let frozen = t.time("extract.freeze", group, Some(cell), || {
        let f = extractor.freeze();
        if opts.quantized {
            f.quantize()
        } else {
            f
        }
    });
    let data = h.domain_data(domain);
    counts.eval_docs += data.1.len();
    let eval = t.time("eval.score", group, Some(cell), || {
        evaluate_frozen(&frozen, &data.1)
    });
    let result = ExperimentResult {
        macro_f1: eval.macro_f1(),
        micro_f1: eval.micro_f1(),
        per_field_f1: eval.per_field_f1(),
        n_synthetics: synthetics.len(),
        n_train_docs: size,
    };
    drop((sample, synthetics, extractor, frozen, data));
    t.close(cell);
    result
}

/// Averages a point's runs the way `Harness::run_grid` summarizes them.
fn summarize(
    (domain, size, arm): (Domain, usize, Arm),
    runs: Vec<ExperimentResult>,
) -> PointSummary {
    let n = runs.len() as f64;
    PointSummary {
        domain: domain.name().to_string(),
        size,
        arm: arm.label().to_string(),
        macro_f1: runs.iter().map(|r| r.macro_f1).sum::<f64>() / n,
        micro_f1: runs.iter().map(|r| r.micro_f1).sum::<f64>() / n,
        synthetics: runs.iter().map(|r| r.n_synthetics as f64).sum::<f64>() / n,
        failed_cells: 0,
        runs,
    }
}

/// The traced run. Returns the outcome and the spans.
pub fn run_traced(seed: u64) -> (Outcome, Tracer) {
    let opts = options();
    let points = seeded_points(seed);
    let per_point = cells_per_point(&opts) as usize;
    let mut out = Outcome::default();
    let mut t = Tracer::new();
    let mut counts = Counts::default();

    // Set-up, one public call at a time, with the seeds and sizes
    // `Harness::new` and `Harness::domain_data` use.
    let pretrain = t.time("datagen.gen", 0, None, || {
        generate_jobs(
            Domain::Invoices,
            opts.seed ^ 0xABCD,
            opts.pretrain_docs,
            opts.train_jobs,
        )
    });
    t.time("keyphrase.pretrain", 0, None, || {
        let cfg = ModelConfig {
            neighbors: opts.neighbors,
            epochs: 2,
            train_jobs: opts.train_jobs,
            ..ModelConfig::default()
        };
        let mut m = ImportanceModel::new(cfg, pretrain.schema.len(), opts.seed);
        m.train(&pretrain, opts.seed ^ 0xF00D);
        m
    });
    let lexicon_corpus = t.time("datagen.gen", 0, None, || {
        generate_jobs(
            Domain::Invoices,
            opts.seed ^ 0x1E81C0,
            opts.lexicon_docs,
            opts.train_jobs,
        )
    });
    let lexicon = t.time("extract.lexicon", 0, None, || {
        Lexicon::pretrain(&lexicon_corpus.documents)
    });
    counts.gen_docs += pretrain.len() + lexicon_corpus.len();
    drop((pretrain, lexicon_corpus));
    for d in DOMAINS {
        let (pool, test) = t.time("datagen.gen", 0, None, || {
            generate_paper_splits_jobs(d, opts.seed, opts.train_jobs)
        });
        counts.gen_docs += pool.len() + test.len();
    }

    let mut warm = Phase {
        name: "warm-up",
        ..Phase::default()
    };
    let mut timed = Phase {
        name: "timed",
        ..Phase::default()
    };
    let mut traced = Phase {
        name: "traced",
        ..Phase::default()
    };
    let cells = (points.len() * per_point) as u64;

    // The grid, untraced, for its wall time and reference summaries.
    let h = build(opts);
    warm.attempted += 1;
    warm.succeeded += 1;
    let t0 = Instant::now();
    let reference = in_figure_order(&points, h.run_grid(&points));
    let wall_s = t0.elapsed().as_secs_f64();
    drop(h);
    timed.attempted += cells;
    timed.failed += failed_cells(&reference);
    timed.succeeded += cells - failed_cells(&reference);

    // The same cells serially, twice: once with one span per public
    // call, once through `run_single` untraced. Each side has a fresh
    // harness, so key-phrase inference is never served from the other's
    // cache, and the two alternate which goes first from cell to cell so
    // neither always runs on the warmer machine.
    let (h_traced, h_plain) = (build(opts), build(opts));
    warm.attempted += 2;
    warm.succeeded += 2;
    let mut untraced_ms = 0.0;
    let mut summaries = Vec::new();
    for (pi, &p) in points.iter().enumerate() {
        let mut runs = Vec::new();
        for c in 0..per_point {
            let cell = pi * per_point + c;
            let (sample_idx, trial_idx) = (c / opts.n_trials, c % opts.n_trials);
            let plain = || {
                let t0 = Instant::now();
                let r = h_plain.run_single(p.0, p.1, p.2, sample_idx, trial_idx);
                (r, t0.elapsed().as_secs_f64() * 1e3)
            };
            let traced_run = |t: &mut Tracer, counts: &mut Counts| {
                traced_cell(
                    &h_traced,
                    &lexicon,
                    t,
                    counts,
                    cell as u64 + 1,
                    (p.0, p.1, p.2, sample_idx, trial_idx),
                )
            };
            let ((reference_run, ms), r) = if cell.is_multiple_of(2) {
                let a = plain();
                (a, traced_run(&mut t, &mut counts))
            } else {
                let b = traced_run(&mut t, &mut counts);
                (plain(), b)
            };
            untraced_ms += ms;
            if r != reference_run {
                out.mismatch(format!(
                    "cell ({}, {}, {}, {c}): traced result differs from run_single",
                    p.0.name(),
                    p.1,
                    p.2.label()
                ));
            }
            runs.push(r);
        }
        summaries.push(summarize(p, runs));
    }
    drop((h_traced, h_plain));
    traced.attempted += 2 * cells;
    traced.succeeded += 2 * cells;

    let summaries = in_figure_order(&points, summaries);
    let (d_ref, d_traced) = (digest(&reference), digest(&summaries));
    if d_ref != d_traced {
        out.mismatch(format!(
            "traced point summaries (digest {d_traced:016x}) differ from run_grid's ({d_ref:016x})"
        ));
    }
    if timed.failed > 0 {
        out.mismatch(format!("{} grid cells failed", timed.failed));
    }

    let cell_ms = t.total_ms("cell");
    let jobs = effective_jobs(opts.jobs) as f64;
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.set("datagen.gen_ms", t.total_ms("datagen.gen"));
    out.set("datagen.docs", counts.gen_docs as f64);
    out.set("keyphrase.pretrain_ms", t.total_ms("keyphrase.pretrain"));
    out.set("extract.lexicon_ms", t.total_ms("extract.lexicon"));
    out.set("keyphrase.infer_ms", t.total_ms("keyphrase.infer"));
    out.set("core.augment_ms", t.total_ms("core.augment"));
    out.set("core.synthetics", counts.generated as f64);
    out.set("core.kept_ratio", ratio(counts.kept, counts.generated));
    out.set("core.match_ratio", ratio(counts.matches, counts.probes));
    out.set("extract.train_ms", t.total_ms("extract.train"));
    out.set("extract.train_docs", counts.train_docs as f64);
    out.set("extract.freeze_ms", t.total_ms("extract.freeze"));
    out.set("eval.score_ms", t.total_ms("eval.score"));
    out.set("eval.docs", counts.eval_docs as f64);
    out.set("eval.other_ms", t.self_ms("cell"));
    out.set("parallel.idle_ratio", 1.0 - cell_ms / (wall_s * 1e3 * jobs));
    out.set(
        "grid.fieldswap_gain",
        fieldswap_gain(&self::points(), &summaries),
    );
    out.set(
        "trace.overhead_pct",
        (cell_ms - untraced_ms) / untraced_ms * 100.0,
    );
    out.set(
        "fail_ratio",
        ratio(timed.failed as usize, timed.attempted as usize),
    );
    for name in crate::serve::SERVE_ONLY {
        out.set(name, 0.0);
    }
    out.notes.push(format!(
        "grid traced: run_grid wall {:.1} ms on {jobs} jobs; serial cells {cell_ms:.1} ms traced vs {untraced_ms:.1} ms untraced; digest {d_traced:016x}",
        wall_s * 1e3
    ));
    out.phases = vec![warm, timed, traced];
    (out, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_coords_matches_the_harness_cell_seed() {
        for (d, s, a) in points() {
            for seed in [0u64, 7, 0x5EED] {
                assert_eq!(
                    mix_coords(seed, &[d as u64, s as u64, a as u64, 0, 0]),
                    cell_seed(seed, d, s, a, 0, 0)
                );
            }
        }
    }

    #[test]
    fn point_order_is_a_seeded_rotation() {
        let a = seeded_points(5);
        assert_eq!(a, seeded_points(5));
        assert!((0..30).any(|s| seeded_points(s) != a));
        let start = points().iter().position(|p| *p == a[0]).unwrap();
        let mut back = a.clone();
        back.rotate_right(start);
        assert_eq!(back, points());
    }

    #[test]
    fn summaries_return_to_figure_order() {
        let order = seeded_points(9);
        let summaries: Vec<PointSummary> = order
            .iter()
            .map(|&(_, s, a)| PointSummary {
                size: s,
                ..summary(a, s as f64)
            })
            .collect();
        let back = in_figure_order(&order, summaries);
        let want: Vec<(usize, String)> = points()
            .iter()
            .map(|&(_, s, a)| (s, a.label().to_string()))
            .collect();
        let got: Vec<(usize, String)> = back.iter().map(|p| (p.size, p.arm.clone())).collect();
        // Each size/arm pair appears once per domain, in figure order.
        assert_eq!(got, want);
    }

    #[test]
    fn slice_is_24_points_with_a_baseline_each() {
        let p = points();
        assert_eq!(p.len(), 24);
        for &(d, s, _) in &p {
            assert!(p.contains(&(d, s, Arm::Baseline)));
        }
    }

    fn summary(arm: Arm, f1: f64) -> PointSummary {
        PointSummary {
            domain: "Earnings".into(),
            size: 10,
            arm: arm.label().into(),
            macro_f1: f1,
            micro_f1: f1,
            synthetics: 0.0,
            failed_cells: 0,
            runs: Vec::new(),
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = vec![
            summary(Arm::Baseline, 41.5),
            summary(Arm::AutoTypeToType, 50.25),
        ];
        let b = a.clone();
        assert_eq!(digest(&a), digest(&b));
        // Pinned: the digest is FNV-1a of the serialized summaries, so a
        // change in either shows here.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut c = a.clone();
        c[1].macro_f1 += 1e-12;
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn gain_is_mean_delta_against_same_size_baseline() {
        let pts = vec![
            (Domain::Earnings, 10, Arm::Baseline),
            (Domain::Earnings, 10, Arm::AutoTypeToType),
            (Domain::Earnings, 10, Arm::HumanExpert),
        ];
        let s = vec![
            summary(Arm::Baseline, 40.0),
            summary(Arm::AutoTypeToType, 44.0),
            summary(Arm::HumanExpert, 46.0),
        ];
        assert_eq!(fieldswap_gain(&pts, &s), 5.0);
    }

    #[test]
    fn traced_drive_reproduces_run_single_on_a_tiny_harness() {
        let opts = HarnessOptions {
            n_samples: 1,
            n_trials: 1,
            pretrain_docs: 12,
            lexicon_docs: 20,
            neighbors: 8,
            test_cap: 10,
            epochs: 1,
            synthetic_cap: 30,
            seed: 3,
            jobs: 1,
            ..HarnessOptions::quick()
        };
        let h = Harness::new(opts);
        let lexicon = Lexicon::pretrain(
            &generate_jobs(Domain::Invoices, opts.seed ^ 0x1E81C0, opts.lexicon_docs, 1).documents,
        );
        let mut t = Tracer::new();
        let mut counts = Counts::default();
        for arm in [Arm::Baseline, Arm::AutoTypeToType] {
            let p = (Domain::Earnings, 10, arm);
            let traced = traced_cell(&h, &lexicon, &mut t, &mut counts, 1, (p.0, p.1, p.2, 0, 0));
            assert_eq!(traced, h.run_single(p.0, p.1, p.2, 0, 0), "{arm:?}");
        }
        assert!(counts.generated >= counts.kept && counts.kept > 0);
        assert_eq!(t.spans().iter().filter(|s| s.layer == "cell").count(), 2);
    }
}
