//! End-to-end socket tests for the extraction service: everything here
//! talks to a live server over real TCP, exactly like an external
//! client.

use fieldswap_datagen::{generate, Domain};
use fieldswap_docmodel::Document;
use fieldswap_extract::{Extractor, FrozenModel, InferScratch, Lexicon, TrainConfig};
use fieldswap_serve::{domain_key, ServeConfig, ServeHandle};
use serde::{Serialize, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;

fn train_frozen(domain: Domain, seed: u64, docs: usize) -> FrozenModel {
    let corpus = generate(domain, seed, docs);
    let lex = Lexicon::pretrain(&corpus.documents);
    Extractor::train_on(&corpus.schema, lex, &corpus, &[], &TrainConfig::tiny()).freeze()
}

fn write_model(dir: &Path, domain: Domain, model: &FrozenModel) {
    let key = domain_key(domain);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join(format!("{key}.fsm")), model.to_bytes().unwrap()).unwrap();
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(models_dir: &Path) -> ServeHandle {
    ServeHandle::start(ServeConfig {
        listen: "127.0.0.1:0".into(),
        models_dir: Some(models_dir.to_path_buf()),
        initial: None,
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap()
}

fn http(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw).unwrap();
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

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn extract_body(docs: &[Document], model: Option<&str>) -> String {
    let mut fields = vec![(
        "documents".into(),
        Value::Array(docs.iter().map(Serialize::to_value).collect()),
    )];
    if let Some(m) = model {
        fields.push(("model".into(), Value::Str(m.into())));
    }
    serde_json::to_string(&Value::Object(fields)).unwrap()
}

/// The value under `key` in an object value.
fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(fields) = v else {
        panic!("expected an object, found {v:?}")
    };
    &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
}

type ResultFields = Vec<(u16, u32, u32, String)>;

/// `(model, [(field, start, end, value)])` for each result in a 200
/// response — panics on any shape surprise, which is the point.
fn parse_results(body: &str) -> Vec<(String, ResultFields)> {
    let v: Value = serde_json::from_str(body).unwrap();
    v.get("results")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|r| {
            let model = r.get("model").unwrap().as_str().unwrap().to_string();
            let fields = r
                .get("fields")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|f| {
                    // Confidence and box must be present and numeric.
                    assert!(f.get("confidence").unwrap().as_f64().is_some());
                    let b = f.get("box").unwrap();
                    for k in ["x0", "y0", "x1", "y1"] {
                        assert!(b.get(k).unwrap().as_f64().is_some());
                    }
                    (
                        f.get("field").unwrap().as_u64().unwrap() as u16,
                        f.get("start").unwrap().as_u64().unwrap() as u32,
                        f.get("end").unwrap().as_u64().unwrap() as u32,
                        f.get("value").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect();
            (model, fields)
        })
        .collect()
}

#[test]
fn served_predictions_are_bitwise_identical_to_offline_predict() {
    let dir = temp_dir("identity");
    let frozen = train_frozen(Domain::Fara, 61, 15);
    write_model(&dir, Domain::Fara, &frozen);
    let server = start(&dir);
    let addr = server.addr();

    // The server round-trips the model through disk; predictions must
    // still match the in-memory model bit for bit.
    let probe = generate(Domain::Fara, 62, 6).documents;
    let mut scratch = InferScratch::default();
    for doc in &probe {
        let offline = frozen.predict(doc, &mut scratch);
        let (status, body) = post(
            addr,
            "/v1/extract",
            &extract_body(std::slice::from_ref(doc), None),
        );
        assert_eq!(status, 200, "{body}");
        let results = parse_results(&body);
        assert_eq!(results.len(), 1);
        let (model, fields) = &results[0];
        assert_eq!(model, "fara");
        let served: Vec<(u16, u32, u32)> = fields.iter().map(|f| (f.0, f.1, f.2)).collect();
        let expected: Vec<(u16, u32, u32)> =
            offline.iter().map(|s| (s.field, s.start, s.end)).collect();
        assert_eq!(served, expected, "span drift on {}", doc.id);
        for (f, s) in fields.iter().zip(&offline) {
            assert_eq!(
                f.3,
                doc.span_text(s.start, s.end),
                "value drift on {}",
                doc.id
            );
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_requests_route_across_two_models() {
    let dir = temp_dir("routing");
    write_model(&dir, Domain::Fara, &train_frozen(Domain::Fara, 63, 12));
    write_model(
        &dir,
        Domain::Earnings,
        &train_frozen(Domain::Earnings, 64, 12),
    );
    let server = start(&dir);
    let addr = server.addr();

    let fara_docs = generate(Domain::Fara, 65, 4).documents;
    let earn_docs = generate(Domain::Earnings, 66, 4).documents;
    std::thread::scope(|s| {
        for round in 0..4 {
            let (docs, want): (&Vec<Document>, &str) = if round % 2 == 0 {
                (&fara_docs, "fara")
            } else {
                (&earn_docs, "earnings")
            };
            s.spawn(move || {
                for doc in docs {
                    let (status, body) = post(
                        addr,
                        "/v1/extract",
                        &extract_body(std::slice::from_ref(doc), None),
                    );
                    assert_eq!(status, 200, "{body}");
                    let results = parse_results(&body);
                    assert_eq!(results[0].0, want, "misrouted {}", doc.id);
                }
            });
        }
    });

    // Pinning beats routing; pinning to a missing model is a 404.
    let (status, body) = post(
        addr,
        "/v1/extract",
        &extract_body(&fara_docs[..1], Some("earnings")),
    );
    assert_eq!(status, 200);
    assert_eq!(parse_results(&body)[0].0, "earnings");
    let (status, _) = post(
        addr,
        "/v1/extract",
        &extract_body(&fara_docs[..1], Some("brokerage")),
    );
    assert_eq!(status, 404);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_reload_mid_traffic_never_serves_a_torn_registry() {
    let dir = temp_dir("reload");
    write_model(&dir, Domain::Fara, &train_frozen(Domain::Fara, 67, 12));
    let earnings = train_frozen(Domain::Earnings, 68, 12);
    let server = start(&dir);
    let addr = server.addr();

    let probe = generate(Domain::Fara, 69, 3).documents;
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        // Two hammer threads: every response mid-reload must be a
        // well-formed 200 routed to a complete model.
        for _ in 0..2 {
            s.spawn(|| {
                let mut hits = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for doc in &probe {
                        let (status, body) = post(
                            addr,
                            "/v1/extract",
                            &extract_body(std::slice::from_ref(doc), None),
                        );
                        assert_eq!(status, 200, "mid-reload failure: {body}");
                        let results = parse_results(&body);
                        assert!(
                            results[0].0 == "fara" || results[0].0 == "earnings",
                            "unknown model {:?}",
                            results[0].0
                        );
                        hits += 1;
                    }
                }
                assert!(hits > 0);
            });
        }
        // Reload loop: add and remove the earnings model repeatedly.
        for i in 0..6 {
            let earnings_path = dir.join("earnings.fsm");
            if i % 2 == 0 {
                std::fs::write(&earnings_path, earnings.to_bytes().unwrap()).unwrap();
            } else {
                std::fs::remove_file(&earnings_path).unwrap();
            }
            let (status, body) = post(addr, "/reload", "");
            assert_eq!(status, 200, "{body}");
            let v: Value = serde_json::from_str(&body).unwrap();
            let n = v.get("models").unwrap().as_u64().unwrap();
            assert_eq!(n, if i % 2 == 0 { 2 } else { 1 });
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    // A half-written model file must fail the reload and leave the old
    // registry serving.
    std::fs::write(dir.join("earnings.fsm"), b"FSFROZN1garbage").unwrap();
    let (status, body) = post(addr, "/reload", "");
    assert_eq!(status, 500, "{body}");
    let (status, body) = post(addr, "/v1/extract", &extract_body(&probe[..1], None));
    assert_eq!(
        status, 200,
        "server must keep serving after a bad reload: {body}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_and_oversized_requests_get_4xx_without_killing_the_server() {
    let dir = temp_dir("reject");
    write_model(&dir, Domain::Fara, &train_frozen(Domain::Fara, 70, 12));
    let server = start(&dir);
    let addr = server.addr();

    // Malformed JSON.
    let (status, _) = post(addr, "/v1/extract", "{not json");
    assert_eq!(status, 400);
    // Valid JSON, wrong shape.
    let (status, _) = post(addr, "/v1/extract", "{\"docs\": []}");
    assert_eq!(status, 422);
    let (status, _) = post(addr, "/v1/extract", "{\"documents\": [{\"bogus\": 1}]}");
    assert_eq!(status, 422);
    // Structurally invalid document (annotation out of token range).
    let mut doc = generate(Domain::Fara, 71, 1).documents.remove(0);
    doc.tokens.truncate(1);
    let (status, _) = post(addr, "/v1/extract", &extract_body(&[doc], None));
    assert_eq!(status, 422);
    // A type error followed by a syntax error is still malformed JSON.
    let (status, body) = post(addr, "/v1/extract", "{\"documents\": 5, \"x\": }");
    assert_eq!(status, 400, "{body}");
    assert!(body.starts_with("malformed JSON: "), "{body}");
    // Nesting deep enough to overflow a recursive parser's stack.
    let (status, _) = post(
        addr,
        "/v1/extract",
        &format!("{{\"documents\": {}", "[".repeat(100_000)),
    );
    assert_eq!(status, 400);
    let docs = generate(Domain::Fara, 73, 3).documents;
    let doc_json = |d: &Document| serde_json::to_string(&d.to_value()).unwrap();
    // A number with a leading zero is not JSON, so it is refused as
    // malformed instead of read as the number.
    let leading_zero = doc_json(&docs[0]).replacen("\"start\":", "\"start\": 0", 1);
    assert!(leading_zero.contains("\"start\": 0"), "{leading_zero}");
    let (status, body) = post(
        addr,
        "/v1/extract",
        &format!("{{\"documents\": [{leading_zero}]}}"),
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.starts_with("malformed JSON: "), "{body}");
    // A line token written as a negative float is out of range, not 0.
    let mut bad_line = docs[0].to_value();
    let Value::Array(lines) = field_mut(&mut bad_line, "lines") else {
        panic!("lines is an array")
    };
    *field_mut(&mut lines[0], "tokens") = Value::Array(vec![Value::Float(-1.0)]);
    let (status, body) = post(
        addr,
        "/v1/extract",
        &format!(
            "{{\"documents\": [{}]}}",
            serde_json::to_string(&bad_line).unwrap()
        ),
    );
    assert_eq!(status, 422, "{body}");
    // "timeout_ms" counts wherever it sits in the body.
    let (status, _) = post(
        addr,
        "/v1/extract",
        &format!(
            "{{\"documents\": [{}], \"timeout_ms\": 0}}",
            doc_json(&docs[0])
        ),
    );
    assert_eq!(status, 504);
    // A duplicate "documents" key: the first one is served.
    let (status, body) = post(
        addr,
        "/v1/extract",
        &format!(
            "{{\"documents\": [{}], \"documents\": [{}, {}]}}",
            doc_json(&docs[0]),
            doc_json(&docs[1]),
            doc_json(&docs[2])
        ),
    );
    assert_eq!(status, 200, "{body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    let results = v.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(
        results[0].get("doc_id").unwrap().as_str(),
        Some(docs[0].id.as_str())
    );
    // Unknown top-level keys are ignored.
    let (status, body) = post(
        addr,
        "/v1/extract",
        &format!(
            "{{\"trace\": {{\"a\": [1, \"x\"]}}, \"documents\": [{}]}}",
            doc_json(&docs[0])
        ),
    );
    assert_eq!(status, 200, "{body}");
    // A non-string "model" is refused.
    let (status, _) = post(
        addr,
        "/v1/extract",
        &format!("{{\"documents\": [{}], \"model\": 5}}", doc_json(&docs[0])),
    );
    assert_eq!(status, 422);
    // Oversized declared body: rejected before the handler ever runs.
    let (status, _) = http(
        addr,
        format!(
            "POST /v1/extract HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            fieldswap_obs::serve::MAX_BODY_BYTES + 1
        )
        .as_bytes(),
    );
    assert_eq!(status, 413);
    // Wrong method on a POST route.
    let (status, _) = get(addr, "/v1/extract");
    assert_eq!(status, 405);

    // After all of that, the server still serves.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let probe = generate(Domain::Fara, 72, 1).documents;
    let (status, body) = post(addr, "/v1/extract", &extract_body(&probe, None));
    assert_eq!(status, 200, "{body}");
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("fieldswap_serve_requests_total"),
        "{metrics}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
