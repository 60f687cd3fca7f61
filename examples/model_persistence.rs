//! Train → save → load → predict: the deployment loop a downstream user
//! runs. The saved file is FSFROZN1, the one model format, so
//! `fieldswap-serve serve --models DIR` can load it from `DIR` as is.
//! Also shows corpus/config JSON round-trips for interchange with other
//! tooling.
//!
//! ```sh
//! cargo run --release -p fieldswap-integration --example model_persistence
//! ```

use fieldswap_core::{augment_corpus, FieldSwapConfig, PairStrategy};
use fieldswap_datagen::{generate, Domain};
use fieldswap_eval::evaluate_frozen;
use fieldswap_extract::{Extractor, FrozenModel, Lexicon, TrainConfig};

fn main() {
    let dir = std::env::temp_dir().join("fieldswap-example");
    std::fs::create_dir_all(&dir).expect("temp dir");

    // --- Train an augmented extractor.
    let train = generate(Domain::Brokerage, 21, 30);
    let test = generate(Domain::Brokerage, 22, 50);
    let mut config = FieldSwapConfig::new(train.schema.len());
    for (name, phrases) in Domain::Brokerage.generator().phrase_bank() {
        let id = train.schema.field_id(&name).unwrap();
        config.set_phrases(id, phrases);
    }
    config.set_pairs(PairStrategy::TypeToType.build(&train.schema, &config));

    // The FieldSwap configuration is a reviewable JSON artifact.
    let config_path = dir.join("fieldswap-config.json");
    std::fs::write(&config_path, config.to_json()).expect("write config");
    let config =
        FieldSwapConfig::from_json(&std::fs::read_to_string(&config_path).expect("read config"))
            .expect("parse config");
    println!("config round-tripped through {}", config_path.display());

    let (synths, _) = augment_corpus(&train, &config);
    let lexicon = Lexicon::pretrain(&generate(Domain::Invoices, 23, 150).documents);
    let extractor = Extractor::train_on(
        &train.schema,
        lexicon,
        &train,
        &synths,
        &TrainConfig {
            epochs: 5,
            synth_ratio: 2.0,
            seed: 3,
            ..TrainConfig::default()
        },
    );

    // --- Save the trained model.
    let frozen = extractor.freeze();
    let model_path = dir.join("brokerage.fsm");
    std::fs::write(&model_path, frozen.to_bytes().expect("serialize model")).expect("write model");
    let size = std::fs::metadata(&model_path).unwrap().len();
    println!(
        "saved model: {} ({:.1} MiB)",
        model_path.display(),
        size as f64 / (1 << 20) as f64
    );

    // --- Load it back and verify identical behavior.
    let bytes = std::fs::read(&model_path).expect("read model");
    let restored = FrozenModel::from_bytes(&bytes).expect("parse model");
    let before = evaluate_frozen(&frozen, &test);
    let after = evaluate_frozen(&restored, &test);
    println!(
        "macro-F1 before save: {:.2}   after load: {:.2}",
        before.macro_f1(),
        after.macro_f1()
    );
    assert_eq!(before, after, "round trip must be exact");
    println!("round trip exact ✓");
}
