//! `serve-batch`: the extraction service over real sockets.
//!
//! Each run trains five domain models the way `fieldswap-serve train`
//! does and writes them to a model directory, starts the server from that
//! directory the way `fieldswap-serve serve` ships it (admission budget
//! 64, 256-document cap, workers on all cores), and drives it with
//! `nproc` client threads in a closed loop, each holding at most one
//! connection: every client sends 32-document requests back to back, one
//! domain per request, the domain rotating across requests. Client 0 adds
//! one `/metrics` scrape and one `/healthz` probe every second.
//!
//! Every 200 response must be byte-identical to the first response for
//! the same body, and that first response must equal offline
//! `FrozenModel::predict_scored` under the document's own domain model,
//! in spans and confidences, and name that model (which proves routing).
//! Any non-200, transport error or drifting 200 makes the run incorrect.

use crate::grid::fnv1a;
use crate::http::Client;
use crate::report::{Outcome, Phase};
use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use fieldswap_datagen::{generate, Domain};
use fieldswap_docmodel::{Document, EntitySpan};
use fieldswap_eval::metrics::{score_document, EvalResult, FieldScore};
use fieldswap_extract::features::{extract_into, FeatureScratch, FlatFeatures};
use fieldswap_extract::{Extractor, FrozenModel, InferScratch, Lexicon, TrainConfig};
use fieldswap_serve::{domain_key, Executor, RegistrySnapshot, ServeConfig, ServeHandle};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Rounds a timed phase is cut into, spread over the whole run; median
/// latency and throughput are reported for the best round. Noise on a
/// shared host only ever slows the program down and comes and goes over
/// seconds, so the best round is what a change to the program can move.
const ROUNDS: usize = 10;

/// The five evaluation domains, one registered model each.
const DOMAINS: [Domain; 5] = Domain::EVAL;

/// Documents each model is trained on and the training seed: the
/// defaults of `fieldswap-serve train`. The deployed models are the same
/// on every run; the run seed drives the traffic.
const TRAIN_DOCS: usize = 40;
const TRAIN_SEED: u64 = 7;

/// Documents per `serve-batch` request, and requests pooled per domain.
const BATCH_DOCS: usize = 32;
const BATCHES_PER_DOMAIN: usize = 2;

/// The shipped admission budget and per-request document cap.
const MAX_INFLIGHT: usize = 64;
const MAX_DOCS_PER_REQUEST: usize = 256;

/// Server start-ups timed per run; the median is reported.
const SETUP_REPEATS: usize = 9;

/// Seed stream of the pooled request documents.
const STREAM_POOL: u64 = 2;

/// Per-layer metrics only the serve workload measures; the grid reports
/// them as 0.
pub const SERVE_ONLY: [&str; 18] = [
    "registry.load_ms",
    "obs.rtt_ms",
    "obs.conns_per_req",
    "obs.scrape_ms",
    "serve.parse_ms",
    "registry.route_ms",
    "extract.featurize_ms",
    "extract.infer_ms",
    "extract.switch_share",
    "executor.batch_ms",
    "executor.wait_ms",
    "serve.stage_parse_ms",
    "serve.stage_route_ms",
    "serve.stage_infer_ms",
    "serve.stage_respond_ms",
    "serve.queue_ms",
    "serve.shed_503",
    "serve.err_5xx",
];

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `POST /v1/extract` with the pooled body of this index.
    Extract(usize),
    /// `GET /metrics`.
    Metrics,
    /// `GET /healthz`.
    Healthz,
}

/// The generated inputs of one run.
struct Inputs {
    /// The model directory the server loads.
    dir: PathBuf,
    /// Request bodies.
    bodies: Vec<Vec<u8>>,
    /// Each body's documents, as sent (no gold annotations).
    docs: Vec<Vec<Document>>,
    /// Each body's gold spans, per document.
    gold: Vec<Vec<Vec<EntitySpan>>>,
    /// Each body's domain index into [`DOMAINS`].
    domain: Vec<usize>,
    /// Offline `predict_scored` of each body's documents under their own
    /// domain's model.
    expected: Vec<Vec<Vec<(EntitySpan, f32)>>>,
    /// Fields per domain.
    n_fields: Vec<usize>,
    /// Documents generated (training corpora and request pool).
    gen_docs: usize,
}

/// Trains the five models into `dir` and generates the request pool,
/// with a span per public call.
fn prepare(seed: u64, dir: &Path, t: &mut Tracer) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
    let mut models = Vec::new();
    let mut n_fields = Vec::new();
    let mut gen_docs = 0;
    for &d in &DOMAINS {
        let corpus = t.time("datagen.gen", 0, None, || {
            generate(d, TRAIN_SEED, TRAIN_DOCS)
        });
        gen_docs += corpus.len();
        let lex = t.time("extract.lexicon", 0, None, || {
            Lexicon::pretrain(&corpus.documents)
        });
        let cfg = TrainConfig {
            seed: TRAIN_SEED,
            ..TrainConfig::tiny()
        };
        let ex = t.time("extract.train", 0, None, || {
            Extractor::train_on(&corpus.schema, lex, &corpus, &[], &cfg)
        });
        let frozen = t.time("extract.freeze", 0, None, || ex.freeze());
        let bytes = frozen
            .to_bytes()
            .map_err(|e| format!("serializing model: {e}"))?;
        let key = domain_key(d);
        write(&dir.join(format!("{key}.fsm")), &bytes)?;
        let names: Vec<String> = (0..corpus.schema.len())
            .map(|id| corpus.schema.field(id as u16).name.clone())
            .collect();
        let names = serde_json::to_string(&names).expect("field names serialize");
        write(&dir.join(format!("{key}.fields.json")), names.as_bytes())?;
        // Expectations come from the bytes the server loads.
        models.push(FrozenModel::from_bytes(&bytes).map_err(|e| format!("reloading model: {e}"))?);
        n_fields.push(corpus.schema.len());
    }

    let per_domain = BATCH_DOCS * BATCHES_PER_DOMAIN;
    let mut pools = Vec::new();
    for (i, &d) in DOMAINS.iter().enumerate() {
        let pool_seed = Rng::new(seed, STREAM_POOL ^ ((i as u64) << 8)).next_u64();
        let corpus = t.time("datagen.gen", 0, None, || {
            generate(d, pool_seed, per_domain)
        });
        gen_docs += corpus.len();
        pools.push(corpus.documents);
    }
    let mut inputs = Inputs {
        dir: dir.to_path_buf(),
        bodies: Vec::new(),
        docs: Vec::new(),
        gold: Vec::new(),
        domain: Vec::new(),
        expected: Vec::new(),
        n_fields,
        gen_docs,
    };
    // Bodies interleave the domains, so consecutive indices rotate
    // through them.
    let mut scratch = InferScratch::default();
    for chunk in 0..BATCHES_PER_DOMAIN {
        for (i, pool) in pools.iter().enumerate() {
            let mut docs: Vec<Document> =
                pool[chunk * BATCH_DOCS..(chunk + 1) * BATCH_DOCS].to_vec();
            let gold = docs
                .iter_mut()
                .map(|d| std::mem::take(&mut d.annotations))
                .collect();
            let expected = docs
                .iter()
                .map(|d| models[i].predict_scored(d, &mut scratch))
                .collect();
            let body = Value::Object(vec![(
                "documents".into(),
                Value::Array(docs.iter().map(Serialize::to_value).collect()),
            )]);
            inputs.bodies.push(
                serde_json::to_string(&body)
                    .expect("documents serialize")
                    .into_bytes(),
            );
            inputs.docs.push(docs);
            inputs.gold.push(gold);
            inputs.domain.push(i);
            inputs.expected.push(expected);
        }
    }
    Ok(inputs)
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("writing {path:?}: {e}"))
}

/// What the checker remembers of one request body.
#[derive(Debug, Clone, Default)]
struct Seen {
    /// The first 200 body and its digest.
    first: Option<(u64, Vec<u8>)>,
    /// Later 200 bodies that differed from the first.
    drifted: u64,
}

/// Remembers the first 200 body per request body and checks every later
/// one against it.
struct Checker {
    seen: Mutex<Vec<Seen>>,
}

impl Checker {
    fn new(n: usize) -> Self {
        Self {
            seen: Mutex::new(vec![Seen::default(); n]),
        }
    }

    /// Whether `resp` agrees with the first response seen for `body`.
    fn check(&self, body: usize, resp: &[u8]) -> bool {
        let h = fnv1a(resp);
        let mut seen = self.seen.lock().expect("checker lock poisoned");
        let s = &mut seen[body];
        match &s.first {
            Some((h0, _)) if *h0 == h => true,
            Some(_) => {
                s.drifted += 1;
                false
            }
            None => {
                s.first = Some((h, resp.to_vec()));
                true
            }
        }
    }
}

/// Makes the run incorrect when any operation failed: a non-200, a
/// transport error, or a 200 that differs from the first response for its
/// body. Call after `out.phases` is complete.
fn fail_on_errors(out: &mut Outcome, checker: &Checker) {
    let seen = checker.seen.lock().expect("checker lock poisoned");
    for (b, s) in seen.iter().enumerate().filter(|(_, s)| s.drifted > 0) {
        out.mismatch(format!(
            "body {b}: {} responses differ from the first response for the same body",
            s.drifted
        ));
    }
    let failed: Vec<String> = out
        .phases
        .iter()
        .filter(|p| p.failed > 0)
        .map(|p| {
            format!(
                "{} of {} operations failed in the {} phase",
                p.failed, p.attempted, p.name
            )
        })
        .collect();
    for f in failed {
        out.mismatch(f);
    }
}

/// One request as a client saw it. Times are nanoseconds from the phase
/// start.
#[derive(Debug, Clone, Copy)]
struct Rec {
    kind: Kind,
    sent_ns: u64,
    done_ns: u64,
    /// HTTP status, 0 for a transport error.
    status: u16,
    /// 200 with the expected body.
    ok: bool,
}

impl Rec {
    /// Latency in ms; a failed request misses every limit.
    fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.done_ns - self.sent_ns) as f64 / 1e6
        } else {
            f64::INFINITY
        }
    }

    fn is_extract(&self) -> bool {
        matches!(self.kind, Kind::Extract(_))
    }
}

/// What one load phase produced.
struct Load {
    recs: Vec<Rec>,
    connects: u64,
    elapsed_s: f64,
}

impl Load {
    fn extracts(&self) -> impl Iterator<Item = &Rec> {
        self.recs.iter().filter(|r| r.is_extract())
    }

    /// Extract latencies in the order the requests were sent, ms.
    fn latencies_in_order(&self) -> Vec<f64> {
        self.extracts().map(Rec::latency_ms).collect()
    }

    /// Completed extract requests per second over the phase, times
    /// `docs` per request.
    fn rate(&self, docs: usize) -> f64 {
        (self.extracts().filter(|r| r.ok).count() * docs) as f64 / self.elapsed_s
    }

    /// Mean latency of the `kind` probes that succeeded, ms.
    fn probe_ms(&self, kind: Kind) -> f64 {
        let v: Vec<f64> = self
            .recs
            .iter()
            .filter(|r| r.kind == kind && r.ok)
            .map(Rec::latency_ms)
            .collect();
        stats::mean(&v)
    }

    fn phase(&self, phase: &mut Phase) {
        for r in &self.recs {
            phase.attempted += 1;
            if r.ok {
                phase.succeeded += 1;
            } else {
                phase.failed += 1;
            }
        }
    }
}

/// The server and the pooled bodies a load phase sends.
struct Target<'a> {
    addr: SocketAddr,
    bodies: &'a [Vec<u8>],
    checker: &'a Checker,
}

impl Target<'_> {
    fn send(&self, client: &mut Client, kind: Kind) -> (u16, bool) {
        let outcome = match kind {
            Kind::Extract(b) => client.request("POST", "/v1/extract", &self.bodies[b]),
            Kind::Metrics => client.request("GET", "/metrics", b""),
            Kind::Healthz => client.request("GET", "/healthz", b""),
        };
        match outcome {
            Ok(resp) if resp.status == 200 => {
                let ok = match kind {
                    Kind::Extract(b) => self.checker.check(b, &resp.body),
                    _ => true,
                };
                (200, ok)
            }
            Ok(resp) => (resp.status, false),
            Err(_) => (0, false),
        }
    }
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// `k` clients sending bodies back to back for `seconds`; request `j`
/// (in claim order) sends body `j % bodies`. Client 0 adds one `/metrics`
/// scrape and one `/healthz` probe each second. With `tracer`, each
/// request is recorded as a span.
fn closed_loop(
    target: &Target,
    next: &AtomicUsize,
    k: usize,
    seconds: f64,
    tracer: Option<&Mutex<Tracer>>,
) -> Load {
    let start = Instant::now();
    let end_ns = (seconds * 1e9) as u64;
    let n = target.bodies.len();
    let per_thread: Vec<(Vec<Rec>, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..k)
            .map(|w| {
                s.spawn(move || {
                    let mut client = Client::new(target.addr);
                    let mut recs = Vec::new();
                    let mut probe_at = 250_000_000u64;
                    while nanos(start) < end_ns {
                        let mut kinds = Vec::with_capacity(3);
                        if w == 0 && nanos(start) >= probe_at {
                            kinds.extend([Kind::Metrics, Kind::Healthz]);
                            probe_at += 1_000_000_000;
                        }
                        kinds.push(Kind::Extract(next.fetch_add(1, Ordering::Relaxed) % n));
                        for kind in kinds {
                            let sent_ns = nanos(start);
                            let span = tracer.map(|t| {
                                t.lock().expect("tracer lock poisoned").open(
                                    "client.request",
                                    recs.len() as u64,
                                    None,
                                )
                            });
                            let (status, ok) = target.send(&mut client, kind);
                            if let (Some(t), Some(id)) = (tracer, span) {
                                t.lock().expect("tracer lock poisoned").close(id);
                            }
                            recs.push(Rec {
                                kind,
                                sent_ns,
                                done_ns: nanos(start),
                                status,
                                ok,
                            });
                        }
                    }
                    (recs, client.connects)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut recs: Vec<Rec> = Vec::new();
    let mut connects = 0;
    for (r, c) in per_thread {
        recs.extend(r);
        connects += c;
    }
    recs.sort_by_key(|r| r.sent_ns);
    Load {
        recs,
        connects,
        elapsed_s,
    }
}

fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        listen: "127.0.0.1:0".into(),
        models_dir: Some(dir.to_path_buf()),
        workers: 0,
        max_inflight: MAX_INFLIGHT,
        max_docs_per_request: MAX_DOCS_PER_REQUEST,
        ..ServeConfig::default()
    }
}

/// Starts the server from the model directory and waits until it is
/// warm: `/healthz` answers and every model has served one request.
fn start_warm(inputs: &Inputs, checker: &Checker, warm: &mut Phase) -> Result<ServeHandle, String> {
    let handle = ServeHandle::start(serve_config(&inputs.dir))?;
    let target = Target {
        addr: handle.addr(),
        bodies: &inputs.bodies,
        checker,
    };
    let mut client = Client::new(handle.addr());
    let mut kinds = vec![Kind::Healthz];
    kinds.extend((0..DOMAINS.len()).map(Kind::Extract));
    for kind in kinds {
        let (status, ok) = target.send(&mut client, kind);
        warm.attempted += 1;
        if ok {
            warm.succeeded += 1;
        } else {
            warm.failed += 1;
            return Err(format!("warm-up {kind:?} failed with status {status}"));
        }
    }
    Ok(handle)
}

/// Scrapes `/metrics` into a name -> value map.
fn scrape(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    let resp = Client::new(addr)
        .request("GET", "/metrics", b"")
        .map_err(|e| format!("scraping /metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/metrics answered {}", resp.status));
    }
    let text = String::from_utf8_lossy(&resp.body);
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Mean of stage `stage`'s `fieldswap_serve_stage_ms` observations
/// between two scrapes, ms.
fn stage_mean(before: &HashMap<String, f64>, after: &HashMap<String, f64>, stage: &str) -> f64 {
    let get = |m: &HashMap<String, f64>, suffix: &str| {
        m.get(&format!(
            "fieldswap_serve_stage_ms_{suffix}{{stage=\"{stage}\"}}"
        ))
        .copied()
        .unwrap_or(0.0)
    };
    let count = get(after, "count") - get(before, "count");
    if count <= 0.0 {
        0.0
    } else {
        (get(after, "sum") - get(before, "sum")) / count
    }
}

/// Checks each body's first 200 against the offline predictions and
/// returns the served macro-F1 (mean over domains).
fn verify(inputs: &Inputs, checker: &Checker, out: &mut Outcome) -> f64 {
    let seen = checker.seen.lock().expect("checker lock poisoned");
    let mut scores: Vec<Vec<FieldScore>> = inputs
        .n_fields
        .iter()
        .map(|&n| vec![FieldScore::default(); n])
        .collect();
    let mut served = vec![false; DOMAINS.len()];
    for (b, s) in seen.iter().enumerate() {
        let Some((_, body)) = &s.first else { continue };
        let dom = inputs.domain[b];
        match served_spans(body, domain_key(DOMAINS[dom]), &inputs.docs[b]) {
            Ok(got) => {
                for (i, spans) in got.iter().enumerate() {
                    let want = &inputs.expected[b][i];
                    let same = spans.len() == want.len()
                        && spans
                            .iter()
                            .zip(want)
                            .all(|((s, c), (ws, wc))| s == ws && *c == f64::from(*wc));
                    if !same {
                        out.mismatch(format!(
                            "doc {:?}: served spans differ from offline predict_scored",
                            inputs.docs[b][i].id
                        ));
                    }
                    let pred: Vec<EntitySpan> = spans.iter().map(|(s, _)| *s).collect();
                    score_document(&inputs.gold[b][i], &pred, &mut scores[dom]);
                }
                served[dom] = true;
            }
            Err(e) => out.mismatch(format!("body {b}: {e}")),
        }
    }
    let f1: Vec<f64> = scores
        .into_iter()
        .zip(served)
        .filter(|(_, s)| *s)
        .map(|(fields, _)| EvalResult { fields }.macro_f1())
        .collect();
    stats::mean(&f1)
}

/// Parses a `/v1/extract` response into `(span, confidence)` per
/// document, checking document ids and the serving model's name.
fn served_spans(
    body: &[u8],
    key: &str,
    docs: &[Document],
) -> Result<Vec<Vec<(EntitySpan, f64)>>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let v: Value = serde_json::from_str(text).map_err(|e| format!("response JSON: {e}"))?;
    let results = v
        .get("results")
        .and_then(Value::as_array)
        .ok_or("response without a results array")?;
    if results.len() != docs.len() {
        return Err(format!(
            "{} results for {} documents",
            results.len(),
            docs.len()
        ));
    }
    let num = |f: &Value, k: &str| {
        f.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("field without {k}"))
    };
    results
        .iter()
        .zip(docs)
        .map(|(r, d)| {
            if r.get("doc_id").and_then(Value::as_str) != Some(d.id.as_str()) {
                return Err(format!(
                    "result for the wrong document, expected {:?}",
                    d.id
                ));
            }
            let model = r.get("model").and_then(Value::as_str);
            if model != Some(key) {
                return Err(format!("doc {:?} routed to {model:?}, not {key:?}", d.id));
            }
            let fields = r
                .get("fields")
                .and_then(Value::as_array)
                .ok_or("result without fields")?;
            fields
                .iter()
                .map(|f| {
                    let span = EntitySpan {
                        field: num(f, "field")? as u16,
                        start: num(f, "start")? as u32,
                        end: num(f, "end")? as u32,
                    };
                    Ok((span, num(f, "confidence")?))
                })
                .collect()
        })
        .collect()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut prep = Tracer::new();
    let inputs = prepare(seed, &work.join("models"), &mut prep)?;
    let checker = Checker::new(inputs.bodies.len());
    let mut warm = Phase {
        name: "warm-up",
        ..Phase::default()
    };
    let mut timed = Phase {
        name: "timed",
        ..Phase::default()
    };
    let k = nproc();

    let mut setups = Vec::new();
    let mut handle = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(h) = handle.take() {
            ServeHandle::shutdown(h);
        }
        let t0 = Instant::now();
        handle = Some(start_warm(&inputs, &checker, &mut warm)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let handle = handle.expect("started above");
    let target = Target {
        addr: handle.addr(),
        bodies: &inputs.bodies,
        checker: &checker,
    };

    // The timed phase runs in rounds spread over the whole run, and the
    // median latency and the throughput are the best round's (see
    // `ROUNDS`).
    closed_loop(&target, &AtomicUsize::new(0), k, 1.0, None).phase(&mut warm);
    let round_s = seconds / ROUNDS as f64;
    let next = AtomicUsize::new(0);
    let mut round_rate = Vec::new();
    let mut round_p50 = Vec::new();
    let mut lat = Vec::new();
    for _ in 0..ROUNDS {
        let load = closed_loop(&target, &next, k, round_s, None);
        load.phase(&mut timed);
        round_p50.push(stats::median(&load.latencies_in_order()));
        round_rate.push(load.rate(BATCH_DOCS));
        lat.extend(load.latencies_in_order());
    }
    handle.shutdown();

    let f1 = verify(&inputs, &checker, &mut out);
    let mut sorted = lat;
    sorted.sort_by(f64::total_cmp);
    let tail = stats::tail(&sorted);
    out.notes.push(format!(
        "latency: p50 {:.3} ms, p{:.2} {:.3} ms over {} requests",
        stats::percentile(&sorted, 0.5),
        tail.q * 100.0,
        tail.value,
        tail.n,
    ));
    out.set("p50_ms", finite(stats::min(&round_p50)));
    let throughput = round_rate.iter().copied().fold(0.0, f64::max);
    out.set("setup_s", stats::median(&setups));
    out.set("throughput", throughput);
    out.set("macro_f1", f1);
    out.phases = vec![warm, timed];
    fail_on_errors(&mut out, &checker);
    Ok(out)
}

/// A latency that missed every limit (a refused or failed request) is
/// reported as the largest finite number, which JSON can carry.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

/// Share of documents whose executor scratch last served another model,
/// replaying `(model, documents)` requests in traffic order. This models
/// the executor's scratch assignment; the program does not count it.
/// Single documents take the executor's round-robin scratch; a batch
/// spreads over every worker, so each worker's scratch switches at most
/// once per batch. A change to how the executor assigns scratches leaves
/// this figure unchanged until the model here follows it.
fn switch_share(requests: &[(usize, usize)], workers: usize) -> f64 {
    let mut last: Vec<Option<usize>> = vec![None; workers];
    let (mut switches, mut docs, mut rr) = (0usize, 0usize, 0usize);
    for &(model, n) in requests {
        let touched = if n == 1 {
            rr += 1;
            (rr - 1) % workers..(rr - 1) % workers + 1
        } else {
            0..workers.min(n)
        };
        for w in touched {
            if last[w].is_some_and(|m| m != model) {
                switches += 1;
            }
            last[w] = Some(model);
        }
        docs += n;
    }
    if docs == 0 {
        0.0
    } else {
        switches as f64 / docs as f64
    }
}

/// The traced run: rounds of the workload's load, untraced with
/// `/metrics` scraped around them and traced with a client span per
/// request, then the untraced bodies replayed in traffic order through the
/// parse, route and executor calls.
pub fn run_traced(seed: u64, seconds: f64, work: &Path) -> Result<(Outcome, Tracer), String> {
    let mut out = Outcome::default();
    let mut t = Tracer::new();
    let inputs = prepare(seed, &work.join("models"), &mut t)?;
    let checker = Checker::new(inputs.bodies.len());
    let mut warm = Phase {
        name: "warm-up",
        ..Phase::default()
    };
    let mut timed = Phase {
        name: "timed",
        ..Phase::default()
    };
    let mut traced = Phase {
        name: "traced",
        ..Phase::default()
    };
    let k = nproc();

    let mut loads = Vec::new();
    let mut snapshot = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        snapshot = Some(RegistrySnapshot::load_dir(&inputs.dir, false)?);
        loads.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let snapshot = snapshot.expect("loaded above");

    let handle = start_warm(&inputs, &checker, &mut warm)?;
    let addr = handle.addr();
    let target = Target {
        addr,
        bodies: &inputs.bodies,
        checker: &checker,
    };
    // Untraced and traced rounds alternate, which goes first switching
    // from round to round, so drift on the host favours neither. The
    // server's stage histograms are scraped around every untraced round.
    let round_s = seconds / 2.0 / ROUNDS as f64;
    let spans = Mutex::new(Tracer::new());
    let mut plain = Load {
        recs: Vec::new(),
        connects: 0,
        elapsed_s: 0.0,
    };
    let mut plain_lat = Vec::new();
    let mut traced_lat = Vec::new();
    let mut statuses: Vec<u16> = Vec::new();
    let mut stage_sums: HashMap<String, f64> = HashMap::new();
    let mut order: Vec<usize> = Vec::new();
    let next = AtomicUsize::new(0);
    closed_loop(&target, &next, k, 1.0, None).phase(&mut warm);
    for round in 0..ROUNDS {
        for with_spans in [round % 2 == 1, round % 2 == 0] {
            let tracer = with_spans.then_some(&spans);
            let before = if with_spans {
                None
            } else {
                Some(scrape(addr)?)
            };
            let load = closed_loop(&target, &next, k, round_s, tracer);
            statuses.extend(load.recs.iter().map(|r| r.status));
            let Some(before) = before else {
                load.phase(&mut traced);
                traced_lat.extend(load.latencies_in_order());
                continue;
            };
            for (name, v) in scrape(addr)? {
                *stage_sums.entry(name.clone()).or_insert(0.0) +=
                    v - before.get(&name).copied().unwrap_or(0.0);
            }
            load.phase(&mut timed);
            plain_lat.extend(load.latencies_in_order());
            let mut sent: Vec<&Rec> = load.extracts().collect();
            sent.sort_by_key(|r| r.sent_ns);
            order.extend(sent.iter().filter_map(|r| match r.kind {
                Kind::Extract(b) => Some(b),
                _ => None,
            }));
            plain.connects += load.connects;
            plain.elapsed_s += load.elapsed_s;
            plain.recs.extend(load.recs);
        }
    }
    handle.shutdown();
    let client_spans = spans.into_inner().expect("tracer lock poisoned");

    let executor = Executor::new(0);
    let mut fscratch = FeatureScratch::default();
    let mut flat = FlatFeatures::default();
    for (g, &b) in order.iter().enumerate() {
        let g = g as u64;
        let docs = t.time("serve.parse", g, None, || parse_body(&inputs.bodies[b]))?;
        let routed = t.time("registry.route", g, None, || {
            docs.iter().map(|d| snapshot.route(d)).collect::<Vec<_>>()
        });
        let mut models: Vec<&FrozenModel> = Vec::with_capacity(docs.len());
        for (i, r) in routed.iter().enumerate() {
            let want = domain_key(DOMAINS[inputs.domain[b]]);
            match r {
                Some((e, _)) if snapshot.entries()[*e].name == want => {
                    models.push(snapshot.entries()[*e].model.as_ref());
                }
                _ => {
                    out.mismatch(format!(
                        "replayed doc {:?} not routed to {want}",
                        docs[i].id
                    ));
                    models.push(snapshot.get(want).ok_or("model missing")?.model.as_ref());
                }
            }
        }
        t.time("extract.featurize", g, None, || {
            for (d, m) in docs.iter().zip(&models) {
                extract_into(d, m.lexicon(), &mut fscratch, &mut flat);
            }
        });
        let preds = t.time("extract.infer", g, None, || {
            executor.predict_batch(&models, &docs)
        });
        for (i, p) in preds.iter().enumerate() {
            if p.as_ref().ok() != Some(&inputs.expected[b][i]) {
                out.mismatch(format!(
                    "replayed doc {:?}: executor output differs",
                    docs[i].id
                ));
            }
        }
    }

    // One request's documents through an idle executor.
    let mut batch_ms = Vec::new();
    let mut distinct = order.clone();
    distinct.sort_unstable();
    distinct.dedup();
    for &b in distinct.iter().take(64) {
        let models: Vec<&FrozenModel> = inputs.docs[b]
            .iter()
            .map(|_| {
                snapshot
                    .get(domain_key(DOMAINS[inputs.domain[b]]))
                    .expect("registered model")
                    .model
                    .as_ref()
            })
            .collect();
        let mut reps = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box(executor.predict_batch(&models, &inputs.docs[b]));
            reps.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        batch_ms.push(stats::median(&reps));
    }
    let batch_ms = stats::mean(&batch_ms);

    let f1 = verify(&inputs, &checker, &mut out);
    let reqs = order.len().max(1) as f64;
    let per_req = |layer: &str| t.total_ms(layer) / reqs;
    let stages: Vec<f64> = ["parse", "route", "infer", "respond"]
        .iter()
        .map(|s| stage_mean(&HashMap::new(), &stage_sums, s))
        .collect();
    let lat = stats::mean(
        &plain
            .extracts()
            .filter(|r| r.ok)
            .map(Rec::latency_ms)
            .collect::<Vec<_>>(),
    );
    let p50 = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, 0.5)
    };
    let (mut shed, mut err5xx) = (0, 0);
    for s in statuses {
        match s {
            503 => shed += 1,
            500..=599 => err5xx += 1,
            _ => {}
        }
    }
    out.set("datagen.gen_ms", t.total_ms("datagen.gen"));
    out.set("datagen.docs", inputs.gen_docs as f64);
    out.set("extract.lexicon_ms", t.total_ms("extract.lexicon"));
    out.set("extract.train_ms", t.total_ms("extract.train"));
    out.set("extract.train_docs", (TRAIN_DOCS * DOMAINS.len()) as f64);
    out.set("extract.freeze_ms", t.total_ms("extract.freeze"));
    out.set("registry.load_ms", stats::median(&loads));
    out.set("obs.rtt_ms", plain.probe_ms(Kind::Healthz));
    out.set(
        "obs.conns_per_req",
        plain.connects as f64 / plain.recs.len().max(1) as f64,
    );
    out.set("obs.scrape_ms", plain.probe_ms(Kind::Metrics));
    out.set("serve.parse_ms", per_req("serve.parse"));
    out.set("registry.route_ms", per_req("registry.route"));
    out.set("extract.featurize_ms", per_req("extract.featurize"));
    out.set("extract.infer_ms", per_req("extract.infer"));
    let requests: Vec<(usize, usize)> = order
        .iter()
        .map(|&b| (inputs.domain[b], inputs.docs[b].len()))
        .collect();
    out.set(
        "extract.switch_share",
        switch_share(&requests, executor.jobs()),
    );
    out.set("executor.batch_ms", batch_ms);
    out.set("executor.wait_ms", stages[2] - batch_ms);
    out.set("serve.stage_parse_ms", stages[0]);
    out.set("serve.stage_route_ms", stages[1]);
    out.set("serve.stage_infer_ms", stages[2]);
    out.set("serve.stage_respond_ms", stages[3]);
    out.set("serve.queue_ms", lat - stages.iter().sum::<f64>());
    out.set("serve.shed_503", f64::from(shed));
    out.set("serve.err_5xx", f64::from(err5xx));
    out.set(
        "trace.overhead_pct",
        (p50(traced_lat) / p50(plain_lat) - 1.0) * 100.0,
    );
    for name in crate::grid::GRID_ONLY {
        out.set(name, 0.0);
    }
    out.notes.push(format!(
        "traced: {} requests replayed, served macro-F1 {f1:.4}, {} client spans",
        order.len(),
        client_spans.spans().len()
    ));
    out.phases = vec![warm, timed, traced];
    fail_on_errors(&mut out, &checker);
    let failed = out.failed();
    let attempted = out.attempted();
    out.set("fail_ratio", failed as f64 / attempted.max(1) as f64);
    Ok((out, t))
}

/// What the server's parse stage does to a body: JSON text to a value
/// tree, the documents out of it, and validation.
fn parse_body(body: &[u8]) -> Result<Vec<Document>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v: Value = serde_json::from_str(text).map_err(|e| format!("body JSON: {e}"))?;
    let docs: Vec<Document> = Deserialize::from_value(v.get("documents").ok_or("no documents")?)
        .map_err(|e| format!("documents: {e}"))?;
    for d in &docs {
        d.validate()
            .map_err(|e| format!("invalid document {:?}: {e}", d.id))?;
    }
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::tests::scripted_server;

    fn rec(kind: Kind, sent_ms: u64, ok: bool) -> Rec {
        let sent_ns = sent_ms * 1_000_000;
        Rec {
            kind,
            sent_ns,
            done_ns: sent_ns + 2_000_000,
            status: if ok { 200 } else { 503 },
            ok,
        }
    }

    #[test]
    fn refusals_miss_every_latency_limit() {
        assert_eq!(rec(Kind::Extract(0), 10, true).latency_ms(), 2.0);
        assert_eq!(rec(Kind::Extract(0), 10, false).latency_ms(), f64::INFINITY);
        assert_eq!(finite(f64::INFINITY), f64::MAX);
    }

    #[test]
    fn rate_counts_successful_extracts_only() {
        let mut recs: Vec<Rec> = (0..100)
            .map(|i| rec(Kind::Extract(0), i * 10, true))
            .collect();
        recs.push(rec(Kind::Healthz, 950, true));
        recs[0].ok = false;
        let l = Load {
            recs,
            connects: 0,
            elapsed_s: 1.0,
        };
        assert_eq!(l.rate(1), 99.0);
        assert_eq!(l.rate(32), 99.0 * 32.0);
    }

    #[test]
    fn stage_means_come_from_scrape_deltas() {
        let m = |sum: f64, count: f64| {
            HashMap::from([
                (
                    "fieldswap_serve_stage_ms_sum{stage=\"parse\"}".to_string(),
                    sum,
                ),
                (
                    "fieldswap_serve_stage_ms_count{stage=\"parse\"}".to_string(),
                    count,
                ),
            ])
        };
        assert_eq!(stage_mean(&m(10.0, 5.0), &m(40.0, 15.0), "parse"), 3.0);
        assert_eq!(stage_mean(&m(10.0, 5.0), &m(10.0, 5.0), "parse"), 0.0);
        assert_eq!(stage_mean(&m(10.0, 5.0), &m(40.0, 15.0), "route"), 0.0);
    }

    #[test]
    fn switch_share_counts_scratches_changing_model() {
        // Two scratches, single documents alternating A B A B: scratch 0
        // always serves A, scratch 1 always B, so nothing switches.
        assert_eq!(switch_share(&[(0, 1), (1, 1), (0, 1), (1, 1)], 2), 0.0);
        // A A B B on two scratches: the third and fourth requests land on
        // scratches that last served A.
        assert_eq!(switch_share(&[(0, 1), (0, 1), (1, 1), (1, 1)], 2), 0.5);
        // Batches of 32 rotating domains switch both workers' scratches
        // once per batch after the first.
        assert_eq!(switch_share(&[(0, 32), (1, 32), (2, 32)], 2), 4.0 / 96.0);
    }

    #[test]
    fn checker_accepts_repeats_and_rejects_drift() {
        let c = Checker::new(2);
        assert!(c.check(0, b"a"));
        assert!(c.check(0, b"a"));
        assert!(!c.check(0, b"b"));
        assert!(c.check(1, b"b"));
        let mut out = Outcome::default();
        fail_on_errors(&mut out, &c);
        assert_eq!(out.mismatches.len(), 1, "{:?}", out.mismatches);
    }

    /// Sends `responses.len()` requests for body 0 to a server that
    /// answers with `responses`, and returns the outcome of a run whose
    /// only phase holds them.
    fn outcome_of(responses: Vec<&'static str>) -> (Vec<(u16, bool)>, Outcome) {
        let n = responses.len();
        let (addr, server) = scripted_server(responses);
        let bodies = vec![b"{}".to_vec()];
        let checker = Checker::new(1);
        let target = Target {
            addr,
            bodies: &bodies,
            checker: &checker,
        };
        let mut client = Client::new(addr);
        let got: Vec<(u16, bool)> = (0..n)
            .map(|_| target.send(&mut client, Kind::Extract(0)))
            .collect();
        server.join().unwrap();
        let recs = got
            .iter()
            .map(|&(status, ok)| Rec {
                kind: Kind::Extract(0),
                sent_ns: 0,
                done_ns: 0,
                status,
                ok,
            })
            .collect();
        let mut timed = Phase {
            name: "timed",
            ..Phase::default()
        };
        let load = Load {
            recs,
            connects: 0,
            elapsed_s: 1.0,
        };
        load.phase(&mut timed);
        let mut out = Outcome {
            phases: vec![timed],
            ..Outcome::default()
        };
        fail_on_errors(&mut out, &checker);
        (got, out)
    }

    const OK_A: &str = "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na";

    #[test]
    fn identical_200s_keep_the_run_correct() {
        let (got, out) = outcome_of(vec![OK_A, OK_A, OK_A]);
        assert_eq!(got, [(200, true); 3]);
        assert!(out.mismatches.is_empty(), "{:?}", out.mismatches);
        assert!(out.result_json(&[]).starts_with("{\"correct\": true"));
    }

    #[test]
    fn a_drifting_200_makes_the_run_incorrect() {
        let (got, out) = outcome_of(vec![OK_A, "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nb"]);
        assert_eq!(got, [(200, true), (200, false)]);
        assert!(out.result_json(&[]).starts_with("{\"correct\": false"));
        assert!(out.mismatches.iter().any(|m| m.contains("differ")));
    }

    #[test]
    fn a_5xx_makes_the_run_incorrect() {
        let (got, out) = outcome_of(vec![
            OK_A,
            "HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        ]);
        assert_eq!(got, [(200, true), (500, false)]);
        assert_eq!(out.failed(), 1);
        assert!(out.result_json(&[]).starts_with("{\"correct\": false"));
    }
}
