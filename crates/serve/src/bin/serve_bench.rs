//! Load generator for the extraction service: starts an in-process
//! server with freshly trained models, hammers it with concurrent
//! clients over real TCP sockets, and reports sustained throughput and
//! p50/p99 latency. `--json PATH` writes the additive-versioned
//! `BENCH_serve.json` consumed by `bench_gate serve`.
//!
//! Clients honor overload semantics: a `503` + `Retry-After` response is
//! retried after a deterministic jittered backoff ([`backoff_ms`]), and
//! shed/`503`/`504`/retry totals land in the JSON report alongside
//! `shed_rate` and `availability`. The run fails if any request never
//! reached a `200`.
//!
//! The default 2000 requests leave 20 samples beyond the p99 that the
//! CI gate reads. Fault injection is tested by the chaos soak
//! (`tests/chaos_soak.rs`), not by this benchmark.

use fieldswap_datagen::{generate, Domain};
use fieldswap_extract::{Extractor, Lexicon, TrainConfig};
use fieldswap_obs::cli::Flags;
use fieldswap_serve::{
    backoff_ms, domain_key, ModelEntry, RegistrySnapshot, ServeConfig, ServeHandle,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Additive-versioned schema of `BENCH_serve.json`. Bump when adding
/// fields; the gate only reads fields it knows. v2 adds `shed_503`,
/// `deadline_504`, `retries`, `shed_rate`, and `availability`.
const SCHEMA_VERSION: u64 = 2;

/// How many times a shed request is retried before counting as failed.
const MAX_RETRIES: u64 = 5;

struct Args {
    requests: usize,
    concurrency: usize,
    docs_per_request: usize,
    workers: usize,
    train_docs: usize,
    seed: u64,
    json: Option<String>,
    max_inflight: usize,
    default_deadline_ms: u64,
    timeout_ms: Option<u64>,
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
                max_inflight: f.num("--max-inflight")?.unwrap_or(0),
                default_deadline_ms: f.num("--default-deadline-ms")?.unwrap_or(0),
                timeout_ms: f.num("--timeout-ms")?,
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

/// One `/v1/extract` response, classified by overload semantics.
enum Outcome {
    /// HTTP 200, with end-to-end latency.
    Ok(Duration),
    /// HTTP 503 shed, carrying the advertised `Retry-After` seconds.
    Shed { retry_after_secs: u64 },
    /// HTTP 504 deadline exceeded.
    Deadline,
    /// HTTP 500 (an isolated worker panic).
    ServerError,
}

/// One HTTP request over a fresh socket, classified.
fn post_extract(addr: SocketAddr, body: &[u8]) -> Result<Outcome, String> {
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
    let status = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            format!(
                "unparsable response: {}",
                response.lines().next().unwrap_or("<empty>")
            )
        })?;
    match status {
        200 => Ok(Outcome::Ok(t0.elapsed())),
        503 => Ok(Outcome::Shed {
            retry_after_secs: response
                .lines()
                .find_map(|l| l.strip_prefix("Retry-After: "))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(1),
        }),
        504 => Ok(Outcome::Deadline),
        500 => Ok(Outcome::ServerError),
        other => Err(format!(
            "unexpected status {other}: {}",
            response.lines().next().unwrap_or("<empty>")
        )),
    }
}

fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx] as f64 / 1e3
}

#[derive(Default)]
struct Tally {
    shed_503: AtomicUsize,
    deadline_504: AtomicUsize,
    server_500: AtomicUsize,
    retries: AtomicUsize,
    /// Requests that never reached a 200 (post-retry sheds, 504s, 500s).
    failed: AtomicUsize,
    /// Transport-level errors (connect/read failures).
    errors: AtomicUsize,
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
        max_inflight: args.max_inflight,
        max_docs_per_request: 0,
        default_deadline_ms: args.default_deadline_ms,
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
            let mut fields = vec![(
                "documents".into(),
                serde::Value::Array(docs.iter().map(serde::Serialize::to_value).collect()),
            )];
            if let Some(ms) = args.timeout_ms {
                fields.push(("timeout_ms".into(), serde::Value::Int(ms as i64)));
            }
            serde_json::to_string(&serde::Value::Object(fields))
                .expect("document tree")
                .into_bytes()
        })
        .collect();

    // Warmup: prime scratches and the row caches off the clock.
    for body in &bodies {
        match post_extract(addr, body) {
            Ok(Outcome::Ok(_)) => {}
            Ok(_) if args.timeout_ms.is_some() => {}
            Ok(_) => return Err("warmup request was rejected".into()),
            Err(e) => return Err(format!("warmup failed: {e}")),
        }
    }

    let next = AtomicUsize::new(0);
    let tally = Tally::default();
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
                    let body = &bodies[i % bodies.len()];
                    let mut attempt = 0u64;
                    loop {
                        match post_extract(addr, body) {
                            Ok(Outcome::Ok(lat)) => {
                                local.push(lat.as_micros() as u64);
                                break;
                            }
                            Ok(Outcome::Shed { retry_after_secs }) => {
                                tally.shed_503.fetch_add(1, Ordering::Relaxed);
                                if attempt >= MAX_RETRIES {
                                    tally.failed.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                // Honor Retry-After with deterministic
                                // jitter so retries spread out instead of
                                // re-stampeding in lockstep.
                                let wait = backoff_ms(
                                    args.seed,
                                    i as u64,
                                    attempt,
                                    retry_after_secs.max(1) * 1000,
                                );
                                std::thread::sleep(Duration::from_millis(wait));
                                attempt += 1;
                                tally.retries.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(Outcome::Deadline) => {
                                tally.deadline_504.fetch_add(1, Ordering::Relaxed);
                                tally.failed.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Ok(Outcome::ServerError) => {
                                tally.server_500.fetch_add(1, Ordering::Relaxed);
                                tally.failed.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(e) => {
                                tally.errors.fetch_add(1, Ordering::Relaxed);
                                eprintln!("request {i} failed: {e}");
                                break;
                            }
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
    let shed_503 = tally.shed_503.load(Ordering::Relaxed);
    let deadline_504 = tally.deadline_504.load(Ordering::Relaxed);
    let server_500 = tally.server_500.load(Ordering::Relaxed);
    let retries = tally.retries.load(Ordering::Relaxed);
    let failed = tally.failed.load(Ordering::Relaxed);
    let errors = tally.errors.load(Ordering::Relaxed);
    let attempts = ok + shed_503 + deadline_504 + server_500 + errors;
    let shed_rate = if attempts > 0 {
        shed_503 as f64 / attempts as f64
    } else {
        0.0
    };
    let availability = ok as f64 / args.requests as f64;
    let throughput = ok as f64 / wall.as_secs_f64();
    let p50 = percentile_ms(&lat_us, 50.0);
    let p99 = percentile_ms(&lat_us, 99.0);
    println!(
        "serve_bench: {ok}/{} ok, {failed} failed, {errors} transport errors, {:.1}s wall",
        args.requests,
        wall.as_secs_f64()
    );
    println!("  throughput  {throughput:>10.1} req/s");
    println!("  p50 latency {p50:>10.3} ms");
    println!("  p99 latency {p99:>10.3} ms");
    println!("  503 shed    {shed_503:>10}  (retries {retries})");
    println!("  504 dead    {deadline_504:>10}");
    println!("  500 panic   {server_500:>10}");
    println!("  availability {availability:>9.4}");

    handle.shutdown();

    if let Some(path) = &args.json {
        let json = format!(
            "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"seed\": {},\n  \"requests\": {},\n  \"concurrency\": {},\n  \"docs_per_request\": {},\n  \"workers\": {},\n  \"train_docs\": {},\n  \"throughput_rps\": {throughput:.2},\n  \"p50_ms\": {p50:.4},\n  \"p99_ms\": {p99:.4},\n  \"errors\": {errors},\n  \"shed_503\": {shed_503},\n  \"deadline_504\": {deadline_504},\n  \"retries\": {retries},\n  \"shed_rate\": {shed_rate:.4},\n  \"availability\": {availability:.4}\n}}\n",
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
    if failed + errors > 0 {
        return Err(format!("{} requests failed", failed + errors));
    }
    Ok(())
}
