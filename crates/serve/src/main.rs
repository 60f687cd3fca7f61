//! `fieldswap-serve` — the online extraction service CLI.
//!
//! Subcommands:
//!
//! * `serve --models DIR [--listen ADDR] [--workers N] [--quantized]
//!   [--max-inflight N] [--max-docs-per-request N]
//!   [--default-deadline-ms MS]` — load every `*.fsm` in DIR and serve
//!   until `POST /quitquitquit`. The binary defaults to a bounded
//!   admission budget (64 inflight extracts, 256 docs/request); pass 0
//!   to disable either limit. A hidden `--chaos SPEC` flag enables
//!   deterministic fault injection for the chaos harness.
//! * `train --domain KEY --models DIR [--seed S] [--docs N] [--epochs E]`
//!   — train a small model on generated documents for one domain and
//!   write `KEY.fsm` + `KEY.fields.json` into DIR. `--domain` takes any
//!   spelling `Domain::parse` accepts; the files are named by
//!   `domain_key`, so `--domain loan` writes `loans.fsm`.
//! * `sample --domain KEY --out PATH [--seed S]` — write a ready-to-POST
//!   `/v1/extract` request body containing one generated document.

use fieldswap_datagen::{generate, Domain};
use fieldswap_extract::{Extractor, Lexicon, TrainConfig};
use fieldswap_obs::cli::Flags;
use fieldswap_serve::{domain_key, FaultPlan, ServeConfig, ServeHandle};
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "serve" => cmd_serve(rest),
        "train" => cmd_train(rest),
        "sample" => cmd_sample(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: fieldswap-serve <serve|train|sample> [flags]\n\
     serve  --models DIR [--listen ADDR] [--workers N] [--quantized]\n\
            [--max-inflight N] [--max-docs-per-request N] [--default-deadline-ms MS]\n\
     train  --domain KEY --models DIR [--seed S] [--docs N] [--epochs E]\n\
     sample --domain KEY --out PATH [--seed S]"
        .into()
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let config = Flags::new(args.to_vec()).read(|f| {
        Ok(ServeConfig {
            models_dir: Some(PathBuf::from(
                f.value("--models")?.ok_or("serve requires --models DIR")?,
            )),
            listen: f
                .value("--listen")?
                .unwrap_or_else(|| "127.0.0.1:8080".into()),
            initial: None,
            workers: f.num("--workers")?.unwrap_or(0),
            max_inflight: f.num("--max-inflight")?.unwrap_or(64),
            max_docs_per_request: f.num("--max-docs-per-request")?.unwrap_or(256),
            default_deadline_ms: f.num("--default-deadline-ms")?.unwrap_or(0),
            // Hidden: deterministic fault injection for the chaos harness only.
            chaos: f
                .value("--chaos")?
                .map(|spec| FaultPlan::parse(&spec))
                .transpose()?,
            quantized: f.switch(&["--quantized"])?,
        })
    })?;

    let handle = ServeHandle::start(config)?;
    println!("listening on {}", handle.addr());
    handle.wait_for_quit();
    // Let the quit response flush before tearing the listener down.
    std::thread::sleep(Duration::from_millis(200));
    handle.shutdown();
    println!("shut down cleanly");
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let (key, models, seed, docs, epochs) = Flags::new(args.to_vec()).read(|f| {
        Ok((
            f.value("--domain")?.ok_or("train requires --domain KEY")?,
            f.value("--models")?.ok_or("train requires --models DIR")?,
            f.num("--seed")?.unwrap_or(7u64),
            f.num("--docs")?.unwrap_or(40usize),
            f.num("--epochs")?.unwrap_or(TrainConfig::tiny().epochs),
        ))
    })?;

    let domain = Domain::parse(&key)
        .ok_or_else(|| format!("unknown domain {key:?} (try: fara, earnings)"))?;
    let corpus = generate(domain, seed, docs);
    let lex = Lexicon::pretrain(&corpus.documents);
    let cfg = TrainConfig {
        epochs,
        seed,
        ..TrainConfig::tiny()
    };
    let ex = Extractor::train_on(&corpus.schema, lex, &corpus, &[], &cfg);
    let frozen = ex.freeze();
    let bytes = frozen.to_bytes().map_err(|e| format!("serializing: {e}"))?;

    let dir = PathBuf::from(&models);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {models:?}: {e}"))?;
    let model_path = dir.join(format!("{}.fsm", domain_key(domain)));
    std::fs::write(&model_path, &bytes).map_err(|e| format!("writing {model_path:?}: {e}"))?;
    let names: Vec<String> = (0..corpus.schema.len())
        .map(|id| corpus.schema.field(id as u16).name.clone())
        .collect();
    let sidecar = dir.join(format!("{}.fields.json", domain_key(domain)));
    std::fs::write(
        &sidecar,
        serde_json::to_string(&names).expect("string array"),
    )
    .map_err(|e| format!("writing {sidecar:?}: {e}"))?;
    println!(
        "trained {} ({} docs, {} epochs) -> {} ({} bytes)",
        domain_key(domain),
        docs,
        epochs,
        model_path.display(),
        bytes.len()
    );
    Ok(())
}

fn cmd_sample(args: &[String]) -> Result<(), String> {
    let (key, out, seed) = Flags::new(args.to_vec()).read(|f| {
        Ok((
            f.value("--domain")?.ok_or("sample requires --domain KEY")?,
            f.value("--out")?.ok_or("sample requires --out PATH")?,
            f.num("--seed")?.unwrap_or(8u64),
        ))
    })?;

    let domain = Domain::parse(&key).ok_or_else(|| format!("unknown domain {key:?}"))?;
    let doc = generate(domain, seed, 1).documents.remove(0);
    let body = serde::Value::Object(vec![(
        "documents".into(),
        serde::Value::Array(vec![serde::Serialize::to_value(&doc)]),
    )]);
    std::fs::write(&out, serde_json::to_string(&body).expect("document tree"))
        .map_err(|e| format!("writing {out:?}: {e}"))?;
    println!("wrote sample request for {key} to {out}");
    Ok(())
}
