//! `augment_json` — a file-in / file-out CLI around the FieldSwap engine,
//! for users who bring their own OCR output rather than the built-in
//! generators.
//!
//! ```sh
//! # Produce a demo corpus + config to look at:
//! cargo run --release -p fieldswap-bench --bin augment_json -- --demo /tmp/fs
//! # Augment it:
//! cargo run --release -p fieldswap-bench --bin augment_json -- \
//!     --corpus /tmp/fs/corpus.json --config /tmp/fs/config.json \
//!     --out /tmp/fs/augmented.json
//! ```
//!
//! The corpus JSON is the serde form of [`fieldswap_docmodel::Corpus`]
//! (schema + documents with tokens/bboxes/lines/annotations); the config
//! JSON is the serde form of [`fieldswap_core::FieldSwapConfig`].

use fieldswap_bench::{fail, ObsArgs};
use fieldswap_core::{augment_corpus, FieldSwapConfig, PairStrategy};
use fieldswap_datagen::{generate, Domain};
use fieldswap_docmodel::Corpus;
use fieldswap_obs::cli::Flags;
use std::path::Path;

fn usage(msg: &str) -> ! {
    eprintln!("usage: augment_json --corpus CORPUS.json --config CONFIG.json --out OUT.json");
    eprintln!("       augment_json --corpus CORPUS.json --strategy t2t|f2f|a2a --out OUT.json");
    eprintln!("         (--strategy derives phrases from field names when no --config is given)");
    eprintln!("       augment_json --demo DIR        write a demo corpus + config into DIR");
    eprintln!("       common flags: [--trace PATH] [--metrics PATH] [--verbose|-v] [--quiet|-q]");
    fail(msg)
}

/// Command-line options.
struct Args {
    corpus: Option<String>,
    config: Option<String>,
    out: Option<String>,
    strategy: Option<String>,
    demo: Option<String>,
    obs: ObsArgs,
}

fn main() {
    let args = Flags::from_env()
        .read(|f| {
            Ok(Args {
                corpus: f.value("--corpus")?,
                config: f.value("--config")?,
                out: f.value("--out")?,
                strategy: f.value("--strategy")?,
                demo: f.value("--demo")?,
                obs: ObsArgs::read(f, &["--trace", "--metrics"])?,
            })
        })
        .unwrap_or_else(|e| usage(&e));
    args.obs.apply();

    if let Some(dir) = &args.demo {
        write_demo(Path::new(dir));
        args.obs.finish();
        return;
    }
    let (Some(corpus_path), Some(out_path)) = (&args.corpus, &args.out) else {
        usage("--corpus and --out are required (or --demo DIR)")
    };

    let corpus_json = std::fs::read_to_string(corpus_path)
        .unwrap_or_else(|e| fail(&format!("cannot read {corpus_path}: {e}")));
    let mut corpus: Corpus = serde_json::from_str(&corpus_json)
        .unwrap_or_else(|e| fail(&format!("{corpus_path} is not a corpus JSON: {e}")));
    corpus.schema.rebuild_index();
    for (k, d) in corpus.documents.iter().enumerate() {
        if let Err(e) = d.validate() {
            fail(&format!("document {k} ({}) is invalid: {e}", d.id));
        }
    }

    let config = match (&args.config, &args.strategy) {
        (Some(p), _) => {
            let s = std::fs::read_to_string(p)
                .unwrap_or_else(|e| fail(&format!("cannot read {p}: {e}")));
            FieldSwapConfig::from_json(&s)
                .unwrap_or_else(|e| fail(&format!("{p} is not a FieldSwap config: {e}")))
        }
        (None, Some(strat)) => {
            // Zero-annotation path: phrases from field names.
            let mut config = fieldswap_keyphrase::config_from_schema(&corpus.schema);
            let strategy = match strat.as_str() {
                "f2f" => PairStrategy::FieldToField,
                "t2t" => PairStrategy::TypeToType,
                "a2a" => PairStrategy::AllToAll,
                other => usage(&format!("--strategy: unknown strategy {other:?}")),
            };
            config.set_pairs(strategy.build(&corpus.schema, &config));
            config
        }
        (None, None) => usage("--config or --strategy is required"),
    };

    let (synthetics, stats) = augment_corpus(&corpus, &config);
    fieldswap_obs::info!(
        "{} documents in, {} synthetics out ({} discarded as unchanged, {} productive pairs)",
        corpus.len(),
        stats.generated,
        stats.discarded_unchanged,
        stats.productive_pairs
    );
    let out = Corpus::new(corpus.schema.clone(), synthetics);
    let json = serde_json::to_string(&out).expect("corpus serializes");
    std::fs::write(out_path, json)
        .unwrap_or_else(|e| fail(&format!("cannot write {out_path}: {e}")));
    fieldswap_obs::info!("wrote {out_path}");
    args.obs.finish();
}

fn write_demo(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create demo dir");
    let corpus = generate(Domain::Earnings, 1, 5);
    let mut config = FieldSwapConfig::new(corpus.schema.len());
    for (name, phrases) in Domain::Earnings.generator().phrase_bank() {
        let id = corpus.schema.field_id(&name).unwrap();
        config.set_phrases(id, phrases);
    }
    config.set_pairs(PairStrategy::TypeToType.build(&corpus.schema, &config));
    std::fs::write(
        dir.join("corpus.json"),
        serde_json::to_string_pretty(&corpus).unwrap(),
    )
    .expect("write corpus");
    std::fs::write(dir.join("config.json"), config.to_json()).expect("write config");
    fieldswap_obs::info!(
        "wrote {}/corpus.json (5 earnings docs) and {}/config.json",
        dir.display(),
        dir.display()
    );
}
