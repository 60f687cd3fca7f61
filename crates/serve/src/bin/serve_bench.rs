//! Load generator for the extraction service: starts an in-process
//! server with freshly trained models, hammers it with concurrent
//! clients over real TCP sockets, and reports sustained throughput and
//! p50/p99 latency. `--json PATH` writes the additive-versioned
//! `BENCH_serve.json` consumed by `bench_gate serve`.
//!
//! Clients honor overload semantics: a `503` + `Retry-After` response is
//! retried after a deterministic jittered backoff ([`backoff_ms`]), and
//! shed/`503`/`504`/retry totals land in the JSON report alongside
//! `shed_rate` and `availability`.
//!
//! `--chaos SPEC` switches to the chaos harness: the server runs with
//! the same seeded [`FaultPlan`] (injected latency, forced panics,
//! corrupt reloads), stalled-writer clients hold half-written requests,
//! and a healthz prober runs through the whole storm. The run fails
//! unless the availability invariants hold: healthz p99 stays bounded,
//! final `500`s never exceed the injected panic count, and the server
//! fully recovers (all-200 probes) after the fault window.

use fieldswap_datagen::{generate, Domain};
use fieldswap_extract::{Extractor, Lexicon, TrainConfig};
use fieldswap_obs::cli::Flags;
use fieldswap_serve::{
    backoff_ms, domain_key, FaultPlan, ModelEntry, RegistrySnapshot, ServeConfig, ServeHandle,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Additive-versioned schema of `BENCH_serve.json`. Bump when adding
/// fields; the gate only reads fields it knows. v2 adds `shed_503`,
/// `deadline_504`, `retries`, `shed_rate`, and `availability`.
const SCHEMA_VERSION: u64 = 2;

/// How many times a shed request is retried before counting as failed.
const MAX_RETRIES: u64 = 5;

/// Healthz p99 bound asserted by `--chaos` runs.
const HEALTHZ_P99_BOUND_MS: f64 = 250.0;

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
    chaos: Option<FaultPlan>,
}

fn main() {
    let args = Flags::from_env()
        .read(|f| {
            let args = Args {
                requests: f.num("--requests")?.unwrap_or(400),
                concurrency: f.num("--concurrency")?.unwrap_or(4),
                docs_per_request: f.num("--docs-per-request")?.unwrap_or(1),
                workers: f.num("--workers")?.unwrap_or(0),
                train_docs: f.num("--train-docs")?.unwrap_or(15),
                seed: f.num("--seed")?.unwrap_or(7),
                json: f.value("--json")?,
                max_inflight: f.num("--max-inflight")?.unwrap_or(0),
                default_deadline_ms: f.num("--default-deadline-ms")?.unwrap_or(0),
                timeout_ms: f.num("--timeout-ms")?,
                chaos: f
                    .value("--chaos")?
                    .map(|spec| FaultPlan::parse(&spec))
                    .transpose()?,
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
    /// HTTP 500 (an isolated worker panic under chaos).
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

/// One `GET /healthz` over a fresh socket; returns latency on 200.
fn get_healthz(addr: SocketAddr) -> Result<Duration, String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n")
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    if !response.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "healthz non-200: {}",
            response.lines().next().unwrap_or("<empty>")
        ));
    }
    Ok(t0.elapsed())
}

/// Fetches the raw `/metrics` exposition text.
fn get_metrics(addr: SocketAddr) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    Ok(response)
}

/// Reads a counter (by its full name, labels included) out of
/// Prometheus exposition text; absent counters read 0.
fn scrape_counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).map(str::trim))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}

fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx] as f64 / 1e3
}

/// A client that connects, writes half a request, stalls, and hangs up —
/// repeating until `stop`. The server's connection timeouts must absorb
/// these without starving real traffic.
fn stalled_writer(addr: SocketAddr, stall_ms: u64, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = stream.write_all(b"POST /v1/extract HTTP/1.1\r\nHost: st");
            std::thread::sleep(Duration::from_millis(stall_ms));
        } else {
            std::thread::sleep(Duration::from_millis(stall_ms));
        }
    }
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

    let plan = args.chaos.clone().unwrap_or_default();
    let chaos_mode = args.chaos.is_some();
    let handle = ServeHandle::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        models_dir: None,
        initial: Some(snapshot),
        workers: args.workers,
        quantized: false,
        max_inflight: args.max_inflight,
        max_docs_per_request: 0,
        default_deadline_ms: args.default_deadline_ms,
        chaos: args.chaos.clone().filter(FaultPlan::has_server_faults),
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

    // Warmup: prime scratches and the row caches off the clock. Chaos
    // runs tolerate warmup faults (they tick the same fault clock).
    for body in &bodies {
        match post_extract(addr, body) {
            Ok(Outcome::Ok(_)) => {}
            Ok(_) if chaos_mode || args.timeout_ms.is_some() => {}
            Ok(_) => return Err("warmup request was rejected".into()),
            Err(e) => return Err(format!("warmup failed: {e}")),
        }
    }

    // Chaos-only background actors: stalled writers and a healthz prober.
    let stop = AtomicBool::new(false);
    let healthz_us: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let healthz_errors = AtomicUsize::new(0);

    let next = AtomicUsize::new(0);
    let tally = Tally::default();
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(args.requests));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        if chaos_mode {
            for _ in 0..plan.stall_clients {
                s.spawn(|| stalled_writer(addr, plan.stall_ms.max(10), &stop));
            }
            s.spawn(|| {
                // Liveness must hold through the whole storm: probe
                // healthz continuously and keep every latency.
                while !stop.load(Ordering::Relaxed) {
                    match get_healthz(addr) {
                        Ok(lat) => healthz_us
                            .lock()
                            .expect("healthz latencies")
                            .push(lat.as_micros() as u64),
                        Err(_) => {
                            healthz_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }
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
        // thread::scope joins all spawns at block end; the background
        // actors loop on `stop`, so flip it from a watcher keyed on
        // `next` — it passes requests + concurrency exactly when every
        // worker has finished its last claimed request.
        s.spawn(|| {
            while next.load(Ordering::Relaxed) < args.requests + args.concurrency {
                std::thread::sleep(Duration::from_millis(5));
            }
            // All request indices are claimed; give in-flight retries a
            // moment, then stop the background actors.
            std::thread::sleep(Duration::from_millis(50));
            stop.store(true, Ordering::Relaxed);
        });
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

    let mut verdict = Ok(());
    if chaos_mode {
        verdict = chaos_invariants(
            addr,
            &plan,
            &bodies,
            server_500,
            &healthz_us.into_inner().expect("healthz latencies"),
            healthz_errors.load(Ordering::Relaxed),
        );
    } else if failed + errors > 0 {
        verdict = Err(format!("{} requests failed", failed + errors));
    }

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
    verdict
}

/// The availability invariants a `--chaos` run must satisfy.
fn chaos_invariants(
    addr: SocketAddr,
    plan: &FaultPlan,
    bodies: &[Vec<u8>],
    server_500: usize,
    healthz_us: &[u64],
    healthz_errors: usize,
) -> Result<(), String> {
    // 1. Liveness: healthz answered throughout, p99 bounded.
    if healthz_errors > 0 {
        return Err(format!(
            "{healthz_errors} healthz probes failed during chaos"
        ));
    }
    let mut sorted = healthz_us.to_vec();
    sorted.sort_unstable();
    let hp99 = percentile_ms(&sorted, 99.0);
    println!(
        "  healthz     {:>10} probes, p99 {hp99:.3} ms",
        sorted.len()
    );
    if sorted.is_empty() {
        return Err("healthz prober recorded no samples".into());
    }
    if hp99 > HEALTHZ_P99_BOUND_MS {
        return Err(format!(
            "healthz p99 {hp99:.1} ms exceeds the {HEALTHZ_P99_BOUND_MS} ms bound"
        ));
    }

    // 2. Error budget: every 500 is an injected panic, never more.
    let metrics = get_metrics(addr)?;
    let injected_panics = scrape_counter(
        &metrics,
        "fieldswap_serve_chaos_injected_total{kind=\"panic\"}",
    );
    let isolated_panics = scrape_counter(&metrics, "fieldswap_serve_panics_total");
    println!("  injected    {injected_panics:>10} panics ({isolated_panics} isolated)");
    if (server_500 as u64) > injected_panics {
        return Err(format!(
            "{server_500} requests got 500 but only {injected_panics} panics were injected"
        ));
    }
    if isolated_panics != injected_panics {
        return Err(format!(
            "panic accounting drift: {isolated_panics} isolated vs {injected_panics} injected"
        ));
    }

    // 3. Recovery: past the fault window the server must be fully
    // clean again. Each probe also ticks the fault clock, so probing
    // until a streak of successes tolerates a window the main load
    // didn't quite finish crossing.
    if plan.window_docs > 0 {
        let mut streak = 0usize;
        for probe in 0..200usize {
            match post_extract(addr, &bodies[probe % bodies.len()]) {
                Ok(Outcome::Ok(_)) => streak += 1,
                Ok(_) => streak = 0,
                Err(e) => return Err(format!("post-window probe {probe} failed: {e}")),
            }
            if streak >= 4 {
                println!("  recovery    clean-200 streak after {} probes", probe + 1);
                return Ok(());
            }
        }
        return Err("no post-window recovery: never saw 4 consecutive 200s".into());
    }
    Ok(())
}
