//! Integration coverage of the future-work extensions: name-derived
//! phrases, value swapping, cross-domain swapping, and model
//! serialization in a full train → save → load → predict flow.

use fieldswap_core::{
    apply_value_swap_all, augment_corpus, augment_cross_domain, cross_pairs_by_type,
    CrossDomainSpec, FieldSwapConfig, PairStrategy, ValueBank,
};
use fieldswap_datagen::{generate, Domain};
use fieldswap_extract::{Extractor, FrozenModel, InferScratch, Lexicon, TrainConfig};
use fieldswap_keyphrase::config_from_schema;

#[test]
fn name_derived_config_generates_synthetics_on_every_domain() {
    for domain in Domain::EVAL {
        let corpus = generate(domain, 111, 15);
        let mut config = config_from_schema(&corpus.schema);
        config.set_pairs(PairStrategy::TypeToType.build(&corpus.schema, &config));
        let (synths, _) = augment_corpus(&corpus, &config);
        // FARA's phrase-less/one-off fields may produce few, but every
        // domain must produce something from names alone.
        assert!(!synths.is_empty(), "{domain:?}: zero synthetics from names");
        for s in synths.iter().take(10) {
            assert!(s.validate().is_ok());
        }
    }
}

#[test]
fn value_swapped_synthetics_use_observed_values() {
    let corpus = generate(Domain::Earnings, 112, 12);
    let mut config = FieldSwapConfig::new(corpus.schema.len());
    for (name, phrases) in Domain::Earnings.generator().phrase_bank() {
        let id = corpus.schema.field_id(&name).unwrap();
        config.set_phrases(id, phrases);
    }
    config.set_pairs(PairStrategy::TypeToType.build(&corpus.schema, &config));
    let (synths, _) = augment_corpus(&corpus, &config);
    let bank = ValueBank::collect(&corpus);

    // Every value in a swapped document must be one observed in the
    // original corpus for the same field.
    let mut originals: std::collections::HashMap<u16, std::collections::HashSet<String>> =
        std::collections::HashMap::new();
    for d in &corpus.documents {
        for a in &d.annotations {
            originals
                .entry(a.field)
                .or_default()
                .insert(d.span_text(a.start, a.end));
        }
    }
    for (k, s) in synths.iter().take(30).enumerate() {
        let swapped = apply_value_swap_all(s, &bank, k as u64);
        assert!(swapped.validate().is_ok());
        for a in &swapped.annotations {
            let text = swapped.span_text(a.start, a.end);
            assert!(
                originals
                    .get(&a.field)
                    .is_some_and(|set| set.contains(&text)),
                "field {} has unobserved value {:?}",
                a.field,
                text
            );
        }
    }
}

#[test]
fn cross_domain_synthetics_trainable() {
    // Cross-domain synthetics must at minimum be consumable by the
    // trainer without breaking anything.
    let invoices = generate(Domain::Invoices, 113, 15);
    let earnings = generate(Domain::Earnings, 114, 8);
    let mut src = FieldSwapConfig::new(invoices.schema.len());
    for (name, phrases) in Domain::Invoices.generator().phrase_bank() {
        let id = invoices.schema.field_id(&name).unwrap();
        src.set_phrases(id, phrases);
    }
    let tgt = config_from_schema(&earnings.schema);
    let pairs = cross_pairs_by_type(&invoices.schema, &earnings.schema, &src, &tgt);
    let (synths, stats) = augment_cross_domain(
        &invoices,
        &CrossDomainSpec {
            source_config: &src,
            target_config: &tgt,
            pairs,
        },
    );
    assert!(stats.generated > 0);
    let capped: Vec<_> = synths.into_iter().take(100).collect();
    let ex = Extractor::train_on(
        &earnings.schema,
        Lexicon::empty(),
        &earnings,
        &capped,
        &TrainConfig::tiny(),
    );
    // Predictions on earnings documents still valid.
    for d in &earnings.documents[..3] {
        for s in ex.predict(d) {
            assert!((s.field as usize) < earnings.schema.len());
        }
    }
}

#[test]
fn serialized_model_round_trip_end_to_end() {
    let train = generate(Domain::Brokerage, 115, 25);
    let test = generate(Domain::Brokerage, 116, 10);
    let lex = Lexicon::pretrain(&train.documents);
    let ex = Extractor::train_on(
        &train.schema,
        lex,
        &train,
        &[],
        &TrainConfig {
            epochs: 3,
            synth_ratio: 0.0,
            seed: 5,
            ..TrainConfig::default()
        },
    );
    let frozen = ex.freeze();
    let bytes = frozen.to_bytes().expect("serialize");
    let restored = FrozenModel::from_bytes(&bytes).expect("round trip");
    let mut scratch = InferScratch::default();
    for d in &test.documents {
        let spans = restored.predict(d, &mut scratch);
        assert_eq!(spans, frozen.predict(d, &mut scratch));
        assert_eq!(spans, ex.predict(d));
    }
}
