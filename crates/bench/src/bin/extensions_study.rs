//! Extension study: the paper's Section VI future-work directions,
//! implemented and measured.
//!
//! 1. **Name-derived key phrases** (the "LLM instead of a human expert"
//!    question) — zero-annotation FieldSwap configuration from field
//!    names alone, via the rule-based simulated-LLM expander.
//! 2. **Value swapping** (the Section II-C open question) — relabeled
//!    instances receive values sampled from the target field's observed
//!    value bank.
//! 3. **Cross-document-type swapping** — synthetics for the target domain
//!    generated from a *different* domain's labeled corpus.
//! 4. **Semi-supervised key-phrase mining** — seed phrases expanded with
//!    template lines mined from an *unlabeled* corpus of the target
//!    domain.

use fieldswap_bench::{BinArgs, TablePrinter};
use fieldswap_core::{
    augment_cross_domain, cross_pairs_by_type, CrossDomainSpec, EngineOptions, FieldSwapConfig,
    SwapPlan,
};
use fieldswap_datagen::{generate, Domain};
use fieldswap_eval::{evaluate, Arm};
use fieldswap_extract::{Extractor, Lexicon, TrainConfig};

fn main() {
    let args = BinArgs::parse();
    let harness = args.build_harness();
    let domain = Domain::Earnings;
    let size = 10usize;

    println!(
        "Extension study on {} @ {size} docs ({} protocol)\n",
        domain.name(),
        if args.full { "full" } else { "quick" }
    );

    // --- Extensions 1 & 2, through the harness arms (one grid).
    println!("macro-F1 by arm:");
    let t = TablePrinter::new(&[("arm", 34), ("macro-F1", 9), ("synthetics", 10)]);
    let points: Vec<_> = [
        Arm::Baseline,
        Arm::AutoTypeToType,
        Arm::NameDerived,
        Arm::TypeToTypeValueSwap,
        Arm::HumanExpert,
    ]
    .into_iter()
    .map(|arm| (domain, size, arm))
    .collect();
    for p in harness.run_grid(&points) {
        t.row(&[
            p.arm.clone(),
            format!("{:.2}", p.macro_f1),
            format!("{:.0}", p.synthetics),
        ]);
    }
    println!("(name-derived = zero labeled examples used for configuration)\n");

    // --- Extension 3: cross-domain synthetics from Invoices -> Earnings.
    println!("cross-document-type swap (Invoices -> Earnings):");
    let invoices = generate(Domain::Invoices, args.seed ^ 7, 40);
    let sample = harness.sample(domain, size, 0);
    let test = harness.domain_data(domain).1.clone();

    let mut src_config = FieldSwapConfig::new(invoices.schema.len());
    for (name, phrases) in Domain::Invoices.generator().phrase_bank() {
        let id = invoices.schema.field_id(&name).unwrap();
        src_config.set_phrases(id, phrases);
    }
    // Target phrases: the zero-annotation name-derived configuration, so
    // the whole cross-domain path needs no target-domain labels at all.
    let tgt_config = fieldswap_keyphrase::config_from_schema(&sample.schema);
    let pairs = cross_pairs_by_type(&invoices.schema, &sample.schema, &src_config, &tgt_config);
    let spec = CrossDomainSpec {
        source_config: &src_config,
        target_config: &tgt_config,
        pairs,
    };
    let (cross_synths, stats) = augment_cross_domain(&invoices, &spec);
    println!(
        "  {} cross-domain synthetics from {} invoices ({} productive pairs)",
        stats.generated,
        invoices.len(),
        stats.productive_pairs
    );

    let lexicon = Lexicon::pretrain(&generate(Domain::Invoices, args.seed ^ 9, 150).documents);
    let cfg = TrainConfig {
        epochs: if args.full { 8 } else { 5 },
        synth_ratio: 2.0,
        seed: args.seed,
        ..TrainConfig::default()
    };
    let base = evaluate(
        &Extractor::train_on(&sample.schema, lexicon.clone(), &sample, &[], &cfg),
        &test,
    );
    let boosted = evaluate(
        &Extractor::train_on(&sample.schema, lexicon, &sample, &cross_synths, &cfg),
        &test,
    );
    let t = TablePrinter::new(&[("training data", 40), ("macro-F1", 9)]);
    t.row(&[
        format!("{size} earnings docs"),
        format!("{:.2}", base.macro_f1()),
    ]);
    t.row(&[
        format!("{size} earnings docs + cross-domain synthetics"),
        format!("{:.2}", boosted.macro_f1()),
    ]);
    println!(
        "\ndelta: {:+.2} macro-F1 (the paper asks 'under what circumstances does",
        boosted.macro_f1() - base.macro_f1()
    );
    println!("swapping across document types help?' — measure across seeds/domains to answer)");

    // --- Extension 4: semi-supervised mining from unlabeled documents.
    println!("\nsemi-supervised key-phrase mining (unlabeled Earnings corpus):");
    let unlabeled = {
        // Strip labels: the mining pass must not see them.
        let mut c = generate(domain, args.seed ^ 11, if args.full { 400 } else { 150 });
        for d in &mut c.documents {
            d.annotations.clear();
        }
        c
    };
    let seed_config = harness
        .arm_config(domain, size, 0, Arm::AutoTypeToType)
        .expect("auto config");
    let seed_phrases: usize = (0..seed_config.n_fields())
        .map(|f| seed_config.phrases(f as u16).len())
        .sum();
    let (mut expanded, added) = fieldswap_keyphrase::expand_with_unlabeled(
        &seed_config,
        &unlabeled.documents,
        &fieldswap_keyphrase::MiningConfig::default(),
    );
    println!(
        "  seed config: {seed_phrases} phrases; mined {added} additional phrases from {} unlabeled docs",
        unlabeled.len()
    );
    expanded.set_pairs(fieldswap_core::PairStrategy::TypeToType.build(&sample.schema, &expanded));
    // Counts only: plan the swaps, build none.
    let planned =
        |config: &FieldSwapConfig| SwapPlan::new(&sample, config, &EngineOptions::default()).len();
    println!(
        "  synthetics: {} with seed phrases -> {} with mined expansion",
        planned(&seed_config),
        planned(&expanded)
    );
    args.finish();
}
