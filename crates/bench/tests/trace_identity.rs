//! Observability must be inert for correctness: enabling tracing and
//! metrics collection may not change a single byte of experiment output.
//!
//! The test runs a small grid twice — first with the collector disabled,
//! then with tracing + metrics globally enabled — and compares the
//! serialized results byte for byte. The untraced pass MUST come first:
//! the global enable flags are one-way by design (call sites only ever
//! check a relaxed atomic, there is no disable path to race with).

use fieldswap_datagen::Domain;
use fieldswap_eval::{Arm, Harness, HarnessOptions};
use std::io::{Read, Write};
use std::net::TcpStream;

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect obs server");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
        .unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    let status = out
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = out
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn tiny_options() -> HarnessOptions {
    HarnessOptions {
        n_samples: 1,
        n_trials: 1,
        pretrain_docs: 30,
        lexicon_docs: 50,
        neighbors: 12,
        test_cap: 40,
        epochs: 3,
        synth_ratio: 2.0,
        synthetic_cap: 300,
        seed: 0x7E57,
        jobs: 2,
        train_jobs: 2,
        quantized: false,
    }
}

#[test]
fn quick_grid_is_byte_identical_with_tracing_on() {
    let opts = tiny_options();
    let points = [
        (Domain::Earnings, 10, Arm::AutoTypeToType),
        (Domain::Fara, 10, Arm::Baseline),
    ];

    // Pass 1: collector disabled (process default).
    assert!(!fieldswap_obs::tracing_enabled());
    assert!(!fieldswap_obs::metrics_enabled());
    let untraced = Harness::new(opts).run_grid(&points);
    let untraced_json = serde_json::to_string_pretty(&untraced).unwrap();
    assert_eq!(
        fieldswap_obs::global().events_len(),
        0,
        "disabled collector recorded events"
    );

    // Pass 2: everything on — including the live exposition server on
    // an ephemeral port, polled concurrently while the grid runs, which
    // is exactly the `--obs-listen` production shape.
    fieldswap_obs::enable_tracing();
    fieldswap_obs::enable_metrics();
    let server = fieldswap_obs::ObsServer::start(fieldswap_obs::global(), "127.0.0.1:0")
        .expect("bind ephemeral obs port");
    let addr = server.addr();
    let stop_polling = std::sync::atomic::AtomicBool::new(false);
    let traced_json = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut polls = 0u32;
            while !stop_polling.load(std::sync::atomic::Ordering::Relaxed) {
                let (status, body) = http_get(addr, "/healthz");
                assert_eq!(status, 200, "healthz failed mid-run");
                assert_eq!(body, "ok\n");
                let (status, _) = http_get(addr, "/metrics");
                assert_eq!(status, 200, "metrics failed mid-run");
                polls += 1;
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            polls
        });
        let traced = Harness::new(opts).run_grid(&points);
        stop_polling.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(poller.join().unwrap() > 0, "poller never ran");
        serde_json::to_string_pretty(&traced).unwrap()
    });

    assert_eq!(
        untraced_json, traced_json,
        "tracing/metrics/live server changed experiment output"
    );

    // After the run, the endpoints serve the collected state.
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("fieldswap_train_epochs_total"), "{body}");
    let (status, body) = http_get(addr, "/spans");
    assert_eq!(status, 200);
    assert!(body.contains("\"path\":\"cell\""), "{body}");
    assert!(body.contains("\"path\":\"cell/train\""), "{body}");
    server.shutdown();

    // The Chrome export carries the span data, with the named grid
    // workers as per-thread tracks.
    let events = fieldswap_obs::global().events();
    let chrome = fieldswap_obs::render_chrome_trace(&events);
    assert!(chrome.contains("\"ph\":\"X\""), "no complete events");
    assert!(chrome.contains("\"ph\":\"M\""), "no thread metadata");
    assert!(
        chrome.contains("fieldswap-grid-"),
        "grid workers unnamed in chrome trace"
    );
    // And trace_report can ingest the JSONL round-trip.
    let jsonl = fieldswap_obs::global().render_jsonl();
    let spans = fieldswap_bench::trace_report::parse_trace(&jsonl).expect("parse own trace");
    assert!(!spans.is_empty());
    let report = fieldswap_bench::trace_report::render_report(&spans);
    assert!(report.contains("\n  train "), "{report}");
    assert!(report.contains("critical path"), "{report}");
    assert!(report.contains("worker utilization"), "{report}");

    // The traced pass must actually have observed the run.
    assert!(
        fieldswap_obs::global().events_len() > 0,
        "no events recorded"
    );
    let summary = fieldswap_obs::span_summary();
    for phase in [
        "harness_build",
        "cell",
        "sample",
        "infer",
        "augment",
        "train",
        "eval",
    ] {
        assert!(
            summary.contains(phase),
            "span summary missing {phase}:\n{summary}"
        );
    }
    let prom = fieldswap_obs::render_prometheus();
    for metric in [
        "fieldswap_swap_attempts_total",
        "fieldswap_swap_synthetics_total",
        "fieldswap_swap_built_total",
        "fieldswap_matcher_probes_total",
        "fieldswap_cache_hits_total{cache=\"domain_data\"}",
        "fieldswap_cache_misses_total{cache=\"phrase_cache\"}",
        "fieldswap_train_epochs_total",
        "fieldswap_train_epoch_ms",
        "fieldswap_train_rows_total",
        "fieldswap_train_row_writes_total",
        "fieldswap_eval_docs_total",
        "fieldswap_keyphrase_candidates_total",
        "fieldswap_worker_threads",
    ] {
        assert!(
            prom.contains(metric),
            "prometheus dump missing {metric}:\n{prom}"
        );
    }
}
