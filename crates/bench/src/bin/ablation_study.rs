//! Quality ablations of the paper's design choices (DESIGN.md Section 4).
//! Each ablation swaps one decision for its alternative and reports the
//! effect on (a) the inferred key phrases' agreement with the generator's
//! oracle banks, or (b) end-to-end macro-F1.
//!
//! Choices covered:
//! 1. off-axis vs Euclidean neighbor selection;
//! 2. sparsemax vs hard top-k sparsification;
//! 3. noisy-or (Eq. 1) vs mean aggregation;
//! 4. the discard-unchanged rule on vs off;
//! 5. ground-truth-token exclusion on vs off;
//! 6. all-to-all vs type-to-type pair mapping (end-to-end).
//!
//! `--json PATH` writes every printed row.

use fieldswap_bench::{BinArgs, TablePrinter};
use fieldswap_core::config::normalize_phrase;
use fieldswap_core::{EngineOptions, FieldSwapConfig, PairStrategy, SwapPlan};
use fieldswap_datagen::{generate, Domain};
use fieldswap_docmodel::NeighborMetric;
use fieldswap_eval::{Arm, PointSummary};
use fieldswap_keyphrase::{
    infer_key_phrases, Aggregation, ImportanceModel, InferenceConfig, ModelConfig, Sparsify,
};
use serde::Serialize;

/// One variant's key-phrase quality.
#[derive(Serialize)]
struct HitRow {
    variant: String,
    /// Oracle hit rate in `[0, 1]`.
    hit_rate: f64,
    /// Inferred phrases over all fields.
    phrases: usize,
}

/// Synthetic counts with the discard-unchanged rule on and off.
#[derive(Serialize)]
struct DiscardReport {
    rule_on: usize,
    rule_off: usize,
}

/// Every table the study prints.
#[derive(Serialize)]
struct AblationReport {
    inference: Vec<HitRow>,
    neighbor_metric: Vec<HitRow>,
    discard_unchanged: DiscardReport,
    pair_mapping: Vec<PointSummary>,
}

/// Fraction of fields (with oracle phrases and at least one inferred
/// phrase) whose top-3 inferred phrases hit the oracle bank.
fn oracle_hit_rate(domain: Domain, ranked: &[Vec<fieldswap_keyphrase::RankedPhrase>]) -> f64 {
    let schema = domain.generator().schema();
    let bank = domain.generator().phrase_bank();
    let mut hits = 0usize;
    let mut total = 0usize;
    for (name, oracle) in &bank {
        if oracle.is_empty() {
            continue;
        }
        let fid = schema.field_id(name).unwrap() as usize;
        if ranked[fid].is_empty() {
            continue;
        }
        total += 1;
        let oracle_norm: Vec<String> = oracle.iter().map(|p| normalize_phrase(p)).collect();
        if ranked[fid].iter().any(|r| {
            oracle_norm
                .iter()
                .any(|o| r.phrase.contains(o.as_str()) || o.contains(r.phrase.as_str()))
        }) {
            hits += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

fn main() {
    let args = BinArgs::parse();
    let seed = args.seed;

    // Shared importance model, pre-trained on invoices.
    let pretrain = generate(Domain::Invoices, seed, if args.full { 300 } else { 100 });
    let mut model = ImportanceModel::new(
        ModelConfig {
            neighbors: if args.full { 100 } else { 24 },
            epochs: 2,
            ..ModelConfig::default()
        },
        pretrain.schema.len(),
        seed,
    );
    model.train(&pretrain, seed ^ 1);
    let target = generate(Domain::Earnings, seed ^ 2, if args.full { 80 } else { 40 });

    println!(
        "Ablation study ({} scale)\n",
        if args.full { "full" } else { "quick" }
    );

    // --- 1/2/3/5: inference-pipeline ablations, scored by oracle hit rate.
    println!("key-phrase inference ablations (oracle hit rate on Earnings):");
    let hit_table = || TablePrinter::new(&[("variant", 40), ("hit rate", 9), ("phrases", 8)]);
    let hit_row = |t: &TablePrinter, variant: &str, ranked: &[Vec<_>]| {
        let row = HitRow {
            variant: variant.to_string(),
            hit_rate: oracle_hit_rate(Domain::Earnings, ranked),
            phrases: ranked.iter().map(Vec::len).sum(),
        };
        t.row(&[
            row.variant.clone(),
            format!("{:.0}%", row.hit_rate * 100.0),
            row.phrases.to_string(),
        ]);
        row
    };
    let t = hit_table();
    let variants: Vec<(&str, InferenceConfig)> = vec![
        (
            "paper defaults (sparsemax, noisy-or, excl.)",
            InferenceConfig::default(),
        ),
        (
            "sparsify = top-5 cosine",
            InferenceConfig {
                sparsify: Sparsify::TopK(5),
                ..InferenceConfig::default()
            },
        ),
        (
            "aggregation = mean",
            InferenceConfig {
                aggregation: Aggregation::Mean,
                ..InferenceConfig::default()
            },
        ),
        (
            "ground-truth exclusion OFF",
            InferenceConfig {
                exclude_ground_truth: false,
                ..InferenceConfig::default()
            },
        ),
    ];
    let inference = variants
        .iter()
        .map(|(name, cfg)| hit_row(&t, name, &infer_key_phrases(&model, &target, cfg)))
        .collect();

    // --- 1b: neighbor metric, via a model trained with each metric.
    println!("\nneighbor metric ablation (oracle hit rate on Earnings):");
    let t = hit_table();
    let mut neighbor_metric = Vec::new();
    for (name, metric) in [
        ("off-axis |dx|*|dy| (paper)", NeighborMetric::OffAxis),
        ("euclidean", NeighborMetric::Euclidean),
    ] {
        let mut m = ImportanceModel::new(
            ModelConfig {
                neighbors: if args.full { 100 } else { 24 },
                epochs: 2,
                neighbor_metric: metric,
                ..ModelConfig::default()
            },
            pretrain.schema.len(),
            seed,
        );
        m.train(&pretrain, seed ^ 1);
        let ranked = infer_key_phrases(&m, &target, &InferenceConfig::default());
        neighbor_metric.push(hit_row(&t, name, &ranked));
    }

    // --- 4: discard-unchanged rule, measured by contradiction count.
    println!("\ndiscard-unchanged rule (Earnings, oracle phrases, t2t):");
    let corpus = generate(Domain::Earnings, seed ^ 3, 20);
    let mut config = FieldSwapConfig::new(corpus.schema.len());
    for (name, phrases) in Domain::Earnings.generator().phrase_bank() {
        let id = corpus.schema.field_id(&name).unwrap();
        config.set_phrases(id, phrases);
    }
    config.set_pairs(PairStrategy::TypeToType.build(&corpus.schema, &config));
    let t = TablePrinter::new(&[("variant", 16), ("synthetics", 11), ("unchanged kept", 14)]);
    // Counts only: plan the swaps, build none.
    let generated = |discard_unchanged| {
        SwapPlan::new(&corpus, &config, &EngineOptions { discard_unchanged }).len()
    };
    let (on, off) = (generated(true), generated(false));
    t.row(&["rule ON".to_string(), on.to_string(), "0".to_string()]);
    t.row(&[
        "rule OFF".to_string(),
        off.to_string(),
        (off - on).to_string(),
    ]);
    println!("(with the rule off, every 'unchanged kept' document is a mislabeled");
    println!(" contradictory example of the Section II-B kind)");

    // --- 6: all-to-all vs type-to-type, end to end.
    println!("\npair-mapping ablation (Earnings @ 10 docs, macro-F1):");
    let harness = args.build_harness();
    let t = TablePrinter::new(&[("arm", 30), ("macro-F1", 9)]);
    let points: Vec<_> = [Arm::Baseline, Arm::AutoTypeToType, Arm::AutoAllToAll]
        .into_iter()
        .map(|arm| (Domain::Earnings, 10, arm))
        .collect();
    let pair_mapping = harness.run_grid(&points);
    for p in &pair_mapping {
        t.row(&[p.arm.clone(), format!("{:.2}", p.macro_f1)]);
    }
    println!("(paper: all-to-all is 'nearly always worse' than type-to-type)");
    args.maybe_write_json(&AblationReport {
        inference,
        neighbor_metric,
        discard_unchanged: DiscardReport {
            rule_on: on,
            rule_off: off,
        },
        pair_mapping,
    });
    args.finish();
}
