//! The chaos soak: one long scenario driving the server through
//! injected worker panics, inference latency, and corrupt reloads, over
//! real TCP sockets, while stalled writers hold half-written
//! `/v1/extract` requests open through the whole storm. It asserts the
//! availability invariants end to end:
//!
//! * every request gets an orderly HTTP answer (200/500/503) — no
//!   connection thread ever dies;
//! * `/healthz` answers 200 within 250 ms on every probe through the
//!   whole storm;
//! * repeated corrupt reloads trip the circuit breaker (fast `503` +
//!   `Retry-After`), which half-opens after its cool-down and recovers;
//! * observed `500`s never exceed the injected panic count, and the
//!   panic-isolation counter agrees with the injection counter;
//! * after the fault window, served spans are bitwise-identical to
//!   offline [`FrozenModel::predict`].

use fieldswap_datagen::{generate, Domain};
use fieldswap_docmodel::Document;
use fieldswap_extract::{Extractor, FrozenModel, InferScratch, Lexicon, TrainConfig};
use fieldswap_serve::server::{RELOAD_BREAKER_COOLDOWN, RELOAD_BREAKER_THRESHOLD};
use fieldswap_serve::{domain_key, FaultPlan, ServeConfig, ServeHandle};
use serde::{Serialize, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const CHAOS_SPEC: &str = "delay-ms=2,panic-every=5,window-docs=60,corrupt-reloads=3";

/// Clients that hold a half-written request open through the storm.
const STALLED_WRITERS: usize = 2;

/// How long a stalled writer holds one half-written request before it
/// opens the next: well inside the server's 5 s read timeout, so every
/// stalled request is still open when the writer drops it.
const STALL_HOLD: Duration = Duration::from_millis(500);

fn train_frozen(domain: Domain, seed: u64, docs: usize) -> FrozenModel {
    let corpus = generate(domain, seed, docs);
    let lex = Lexicon::pretrain(&corpus.documents);
    Extractor::train_on(&corpus.schema, lex, &corpus, &[], &TrainConfig::tiny()).freeze()
}

fn http_raw(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn post_raw(addr: SocketAddr, path: &str, body: &str) -> String {
    http_raw(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn get_raw(addr: SocketAddr, path: &str) -> String {
    http_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn extract_body(docs: &[Document]) -> String {
    let fields = vec![(
        "documents".into(),
        Value::Array(docs.iter().map(Serialize::to_value).collect()),
    )];
    serde_json::to_string(&Value::Object(fields)).unwrap()
}

/// Writes half a `POST /v1/extract` request head and holds the
/// connection open, opening the next one every [`STALL_HOLD`], until
/// `stop`. `opened` counts the stalled requests.
fn stalled_writer(addr: SocketAddr, stop: &AtomicBool, opened: &AtomicUsize) {
    while !stop.load(Ordering::Relaxed) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /v1/extract HTTP/1.1\r\nHost: st")
            .unwrap();
        opened.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        while !stop.load(Ordering::Relaxed) && t0.elapsed() < STALL_HOLD {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Reads a counter (full name, labels included) from exposition text.
fn scrape_counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).map(str::trim))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}

#[test]
fn chaos_soak_survives_panics_latency_and_corrupt_reloads() {
    // Models live on disk so /reload exercises the real loader.
    let dir = std::env::temp_dir().join(format!("chaos-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fara = train_frozen(Domain::Fara, 91, 12);
    let earnings = train_frozen(Domain::Earnings, 92, 12);
    for (domain, model) in [(Domain::Fara, &fara), (Domain::Earnings, &earnings)] {
        std::fs::write(
            dir.join(format!("{}.fsm", domain_key(domain))),
            model.to_bytes().unwrap(),
        )
        .unwrap();
    }

    let plan = FaultPlan::parse(CHAOS_SPEC).unwrap();
    let server = ServeHandle::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        models_dir: Some(dir.clone()),
        workers: 2,
        max_inflight: 8,
        chaos: Some(plan.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let fara_docs = generate(Domain::Fara, 93, 3).documents;
    let earn_docs = generate(Domain::Earnings, 94, 3).documents;

    // --- The storm: hammer through the fault window while probing
    // liveness, with every stalled writer holding a half-written request
    // before the first storm request goes out. Every response must be an
    // orderly 200/500/503.
    let ok = AtomicUsize::new(0);
    let panicked_500 = AtomicUsize::new(0);
    let shed_503 = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let stalled = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..STALLED_WRITERS {
            s.spawn(|| stalled_writer(addr, &stop, &stalled));
        }
        let t0 = Instant::now();
        while stalled.load(Ordering::Relaxed) < STALLED_WRITERS {
            if t0.elapsed() > Duration::from_secs(10) {
                stop.store(true, Ordering::Relaxed);
                panic!("stalled writers never connected");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for t in 0..3usize {
            let (ok, panicked_500, shed_503) = (&ok, &panicked_500, &shed_503);
            let (fara_docs, earn_docs) = (&fara_docs, &earn_docs);
            s.spawn(move || {
                for i in 0..40usize {
                    let docs = if (t + i) % 2 == 0 {
                        fara_docs
                    } else {
                        earn_docs
                    };
                    let doc = &docs[i % docs.len()];
                    let response = post_raw(
                        addr,
                        "/v1/extract",
                        &extract_body(std::slice::from_ref(doc)),
                    );
                    match status_of(&response) {
                        200 => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        500 => {
                            panicked_500.fetch_add(1, Ordering::Relaxed);
                        }
                        503 => {
                            shed_503.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("disorderly response {other}:\n{response}"),
                    }
                }
            });
        }
        s.spawn(|| {
            // Liveness through the storm.
            while !stop.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                let response = get_raw(addr, "/healthz");
                assert_eq!(status_of(&response), 200, "healthz died mid-storm");
                assert!(
                    t0.elapsed() < Duration::from_millis(250),
                    "healthz stalled {:?} mid-storm",
                    t0.elapsed()
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        s.spawn(|| {
            // The watcher: hammering 3×40 single-doc requests pushes the
            // doc clock well past window-docs=60.
            while ok.load(Ordering::Relaxed)
                + panicked_500.load(Ordering::Relaxed)
                + shed_503.load(Ordering::Relaxed)
                < 120
            {
                std::thread::sleep(Duration::from_millis(10));
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
    let ok = ok.load(Ordering::Relaxed);
    let panicked_500 = panicked_500.load(Ordering::Relaxed);
    let shed_503 = shed_503.load(Ordering::Relaxed);
    assert_eq!(ok + panicked_500 + shed_503, 120);
    assert!(panicked_500 > 0, "the fault window injected no panics");
    assert!(ok > 0, "nothing succeeded during the storm");

    // --- Error accounting: every 500 maps to an injected panic.
    let metrics = get_raw(addr, "/metrics");
    let injected = scrape_counter(
        &metrics,
        "fieldswap_serve_chaos_injected_total{kind=\"panic\"}",
    );
    let isolated = scrape_counter(&metrics, "fieldswap_serve_panics_total");
    assert!(injected > 0);
    assert_eq!(
        isolated, injected,
        "panic isolation count drifted from injection count"
    );
    assert!(
        panicked_500 as u64 <= injected,
        "{panicked_500} × 500 but only {injected} injected panics"
    );

    // --- Reload breaker: corrupt-reloads=3 fails exactly the breaker
    // threshold, so the next reload is answered by the open breaker.
    assert_eq!(plan.corrupt_reloads, RELOAD_BREAKER_THRESHOLD);
    for i in 0..RELOAD_BREAKER_THRESHOLD {
        let response = post_raw(addr, "/reload", "");
        assert_eq!(status_of(&response), 500, "corrupt reload {i}:\n{response}");
    }
    let t0 = Instant::now();
    let response = post_raw(addr, "/reload", "");
    assert_eq!(status_of(&response), 503, "breaker not open:\n{response}");
    assert!(
        response.contains("Retry-After:"),
        "open breaker without Retry-After:\n{response}"
    );
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "open breaker answered slowly: {:?}",
        t0.elapsed()
    );
    // Half-open after the cool-down: the chaos budget is exhausted, so
    // the probe reload reads the (healthy) directory and recovers.
    std::thread::sleep(RELOAD_BREAKER_COOLDOWN + Duration::from_millis(200));
    let response = post_raw(addr, "/reload", "");
    assert_eq!(
        status_of(&response),
        200,
        "breaker never recovered:\n{response}"
    );

    // --- Post-window recovery: clean requests, bitwise-identical spans
    // to offline predict on the very same models.
    let mut scratch = InferScratch::default();
    for (docs, model, name) in [
        (&fara_docs, &fara, "fara"),
        (&earn_docs, &earnings, "earnings"),
    ] {
        for doc in docs.iter() {
            let response = post_raw(
                addr,
                "/v1/extract",
                &extract_body(std::slice::from_ref(doc)),
            );
            assert_eq!(status_of(&response), 200, "post-window:\n{response}");
            let body = response.split_once("\r\n\r\n").unwrap().1;
            let v: Value = serde_json::from_str(body).unwrap();
            let result = &v.get("results").unwrap().as_array().unwrap()[0];
            assert_eq!(result.get("model").unwrap().as_str().unwrap(), name);
            let got: Vec<(u16, u32, u32)> = result
                .get("fields")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|f| {
                    (
                        f.get("field").unwrap().as_u64().unwrap() as u16,
                        f.get("start").unwrap().as_u64().unwrap() as u32,
                        f.get("end").unwrap().as_u64().unwrap() as u32,
                    )
                })
                .collect();
            let want: Vec<(u16, u32, u32)> = model
                .predict(doc, &mut scratch)
                .iter()
                .map(|sp| (sp.field, sp.start, sp.end))
                .collect();
            assert_eq!(got, want, "post-chaos span drift on {}", doc.id);
        }
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
