//! Load generator for the extraction service: starts an in-process
//! server with freshly trained models, hammers it with concurrent
//! clients over real TCP sockets, and reports sustained throughput and
//! p50/p99 latency. `--json PATH` writes the additive-versioned
//! `BENCH_serve.json` consumed by `bench_gate serve`.
//!
//! The server runs with no admission limit and no default deadline, so
//! every request should end in a `200`. Any other response is a failed
//! request: it is printed with its status, and the run exits nonzero.
//!
//! The default 2000 requests leave 20 samples beyond the p99 that the
//! CI gate reads. Overload, deadlines and fault injection are tested by
//! `tests/overload_deadline.rs` and the chaos soak
//! (`tests/chaos_soak.rs`), not by this benchmark.

use fieldswap_datagen::{generate, Domain};
use fieldswap_extract::{Extractor, Lexicon, TrainConfig};
use fieldswap_obs::cli::Flags;
use fieldswap_serve::{domain_key, ModelEntry, RegistrySnapshot, ServeConfig, ServeHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Additive-versioned schema of `BENCH_serve.json`. Bump when the fields
/// change; the gate only reads fields it knows. v3 drops v2's overload
/// fields (`shed_503`, `deadline_504`, `retries`, `shed_rate`,
/// `availability`); `errors` counts every request that did not end in a
/// `200`.
const SCHEMA_VERSION: u64 = 3;

struct Args {
    requests: usize,
    concurrency: usize,
    docs_per_request: usize,
    workers: usize,
    train_docs: usize,
    seed: u64,
    json: Option<String>,
}

fn main() {
    let args = Flags::from_env()
        .read(|f| {
            let args = Args {
                requests: f.num("--requests")?.unwrap_or(2000),
                concurrency: f.num("--concurrency")?.unwrap_or(4),
                docs_per_request: f.num("--docs-per-request")?.unwrap_or(1),
                workers: f.num("--workers")?.unwrap_or(0),
                train_docs: f.num("--train-docs")?.unwrap_or(15),
                seed: f.num("--seed")?.unwrap_or(7),
                json: f.value("--json")?,
            };
            if args.requests == 0 || args.concurrency == 0 || args.docs_per_request == 0 {
                return Err("requests, concurrency, and docs-per-request must be positive".into());
            }
            Ok(args)
        })
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn train_entry(domain: Domain, seed: u64, docs: usize) -> ModelEntry {
    let corpus = generate(domain, seed, docs);
    let lex = Lexicon::pretrain(&corpus.documents);
    let frozen =
        Extractor::train_on(&corpus.schema, lex, &corpus, &[], &TrainConfig::tiny()).freeze();
    ModelEntry {
        name: domain_key(domain).into(),
        model: Arc::new(frozen),
        field_names: (0..corpus.schema.len())
            .map(|id| corpus.schema.field(id as u16).name.clone())
            .collect(),
    }
}

/// One HTTP request over a fresh socket: its end-to-end latency when the
/// server answered `200`, the response's status line as the error
/// otherwise.
fn post_extract(addr: SocketAddr, body: &[u8]) -> Result<Duration, String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let header = format!(
        "POST /v1/extract HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(header.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    if response.starts_with("HTTP/1.1 200 ") {
        Ok(t0.elapsed())
    } else {
        Err(response.lines().next().unwrap_or("empty response").into())
    }
}

fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx] as f64 / 1e3
}

fn run(args: &Args) -> Result<(), String> {
    // Train one small model per benchmark domain, fully in memory.
    let domains = [Domain::Fara, Domain::Earnings];
    eprintln!(
        "training {} models ({} docs each)...",
        domains.len(),
        args.train_docs
    );
    let entries: Vec<ModelEntry> = domains
        .iter()
        .enumerate()
        .map(|(i, &d)| train_entry(d, args.seed + i as u64, args.train_docs))
        .collect();
    let snapshot = RegistrySnapshot::from_entries(entries)?;

    let handle = ServeHandle::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        models_dir: None,
        initial: Some(snapshot),
        workers: args.workers,
        quantized: false,
        max_inflight: 0,
        max_docs_per_request: 0,
        default_deadline_ms: 0,
        chaos: None,
    })?;
    let addr = handle.addr();
    eprintln!("server on {addr}");

    // Pre-serialize request bodies, alternating domains so routing and
    // multi-model scratch reuse are both on the measured path.
    let bodies: Vec<Vec<u8>> = domains
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let docs = generate(d, args.seed + 100 + i as u64, args.docs_per_request).documents;
            let fields = vec![(
                "documents".into(),
                serde::Value::Array(docs.iter().map(serde::Serialize::to_value).collect()),
            )];
            serde_json::to_string(&serde::Value::Object(fields))
                .expect("document tree")
                .into_bytes()
        })
        .collect();

    // Warmup: prime scratches and the row caches off the clock.
    for body in &bodies {
        post_extract(addr, body).map_err(|e| format!("warmup failed: {e}"))?;
    }

    let next = AtomicUsize::new(0);
    let failed = AtomicUsize::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(args.requests));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..args.concurrency {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= args.requests {
                        break;
                    }
                    match post_extract(addr, &bodies[i % bodies.len()]) {
                        Ok(lat) => local.push(lat.as_micros() as u64),
                        Err(e) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                            eprintln!("request {i} failed: {e}");
                        }
                    }
                }
                latencies.lock().expect("latencies").extend(local);
            });
        }
    });
    let wall = t0.elapsed();

    let mut lat_us = latencies.into_inner().expect("latencies");
    lat_us.sort_unstable();
    let ok = lat_us.len();
    let failed = failed.into_inner();
    let throughput = ok as f64 / wall.as_secs_f64();
    let p50 = percentile_ms(&lat_us, 50.0);
    let p99 = percentile_ms(&lat_us, 99.0);
    println!(
        "serve_bench: {ok}/{} ok, {failed} failed, {:.1}s wall",
        args.requests,
        wall.as_secs_f64()
    );
    println!("  throughput  {throughput:>10.1} req/s");
    println!("  p50 latency {p50:>10.3} ms");
    println!("  p99 latency {p99:>10.3} ms");

    handle.shutdown();

    if let Some(path) = &args.json {
        let json = format!(
            "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"seed\": {},\n  \"requests\": {},\n  \"concurrency\": {},\n  \"docs_per_request\": {},\n  \"workers\": {},\n  \"train_docs\": {},\n  \"throughput_rps\": {throughput:.2},\n  \"p50_ms\": {p50:.4},\n  \"p99_ms\": {p99:.4},\n  \"errors\": {failed}\n}}\n",
            args.seed,
            args.requests,
            args.concurrency,
            args.docs_per_request,
            args.workers,
            args.train_docs,
        );
        std::fs::write(path, json).map_err(|e| format!("writing {path:?}: {e}"))?;
        println!("wrote {path}");
    }
    if failed > 0 {
        return Err(format!("{failed} requests failed"));
    }
    Ok(())
}
