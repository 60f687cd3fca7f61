//! The HTTP/JSON service: endpoint dispatch, request parsing, routed
//! batched inference, per-stage instrumentation, and the overload
//! armor — admission control, per-request deadlines, panic isolation,
//! and a `/reload` circuit breaker.
//!
//! Built on the dependency-free [`HttpServer`] from `fieldswap-obs`, so
//! the whole service — observability included — runs on `std` alone.
//!
//! Endpoints:
//!
//! * `POST /v1/extract` — body `{"documents": [Document, …], "model":
//!   "name"?, "timeout_ms": N?}`. Each document is routed (or pinned to
//!   `"model"`) and decoded on the frozen fast path; the response
//!   carries per-field values, confidences, and boxes.
//! * `GET /models` — the registered models and their fields.
//! * `POST /reload` — atomically reload the registry from the model
//!   directory; in-flight requests keep the snapshot they started with.
//! * `GET /metrics` — Prometheus exposition (request counters, per-stage
//!   latency histograms `fieldswap_serve_stage_ms{stage=…}`).
//! * `GET /healthz` — liveness.
//! * `POST /quitquitquit` — orderly shutdown (for CI and scripts).
//!
//! Overload semantics (see README "Overload, deadlines, and fault
//! tolerance"):
//!
//! * **Admission control** — `/v1/extract` holds a slot in a bounded
//!   inflight budget (`max_inflight`); when the budget is full the
//!   request is shed immediately with `503` + `Retry-After` and
//!   `fieldswap_serve_shed_total` ticks. `/healthz` and `/metrics` are
//!   never shed — liveness and visibility must survive overload.
//!   Requests carrying more than `max_docs_per_request` documents get
//!   `413` before any work is done.
//! * **Deadlines** — a request may carry `"timeout_ms"`; the server may
//!   also impose `default_deadline_ms`. The effective deadline (the
//!   tighter of the two) is checked between the parse → route → infer →
//!   respond stages — in particular *before* dispatching to the worker
//!   pool — and an exceeded deadline returns `504`, counted per stage in
//!   `fieldswap_serve_deadline_exceeded_total{stage=…}`.
//! * **Panic isolation** — a panicking decode fails only its own request
//!   with `500` (`fieldswap_serve_panics_total`); the worker scratch is
//!   replaced and every other request proceeds.
//! * **Reload circuit breaker** — after
//!   [`RELOAD_BREAKER_THRESHOLD`] consecutive `/reload` failures the
//!   breaker opens: reload answers `503` + `Retry-After` instantly for
//!   [`RELOAD_BREAKER_COOLDOWN`] instead of re-reading a known-bad
//!   directory, then half-opens to admit one probe attempt.

use crate::chaos::{Chaos, FaultPlan};
use crate::executor::Executor;
use crate::registry::{match_score, ModelEntry, Registry, RegistrySnapshot};
use fieldswap_docmodel::Document;
use fieldswap_extract::FrozenModel;
use fieldswap_obs::{Collector, Handler, HttpRequest, HttpResponse, HttpServer};
use serde::{Deserialize, Reader, Value};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Consecutive `/reload` failures that open the circuit breaker.
pub const RELOAD_BREAKER_THRESHOLD: u32 = 3;

/// How long an open reload breaker answers `503` before half-opening.
pub const RELOAD_BREAKER_COOLDOWN: Duration = Duration::from_secs(2);

/// `Retry-After` seconds advertised on shed (`503`) responses.
pub const RETRY_AFTER_SECS: u64 = 1;

/// Server configuration.
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 for ephemeral).
    pub listen: String,
    /// Model directory for startup load and `/reload`. `None` disables
    /// reload (registry fixed to `initial`).
    pub models_dir: Option<PathBuf>,
    /// A pre-built registry to serve instead of loading `models_dir` at
    /// startup (tests and benchmarks).
    pub initial: Option<RegistrySnapshot>,
    /// Inference workers (0 = all cores).
    pub workers: usize,
    /// Quantize models to int8 at (re)load time.
    pub quantized: bool,
    /// Admission budget for `/v1/extract`: concurrent requests beyond
    /// this are shed with `503` + `Retry-After`. 0 disables admission
    /// control (the library default, preserving pre-PR behavior; the
    /// `fieldswap-serve serve` binary defaults to a bounded budget).
    pub max_inflight: usize,
    /// Maximum documents per `/v1/extract` request (`413` beyond it).
    /// 0 disables the cap.
    pub max_docs_per_request: usize,
    /// Server-imposed deadline for `/v1/extract` in milliseconds,
    /// measured from request handling start. 0 disables it. A request's
    /// own `"timeout_ms"` can only tighten the effective deadline.
    pub default_deadline_ms: u64,
    /// Deterministic fault injection (the hidden `--chaos` flag). `None`
    /// — the default — runs the exact clean-path code.
    pub chaos: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".into(),
            models_dir: None,
            initial: None,
            workers: 0,
            quantized: false,
            max_inflight: 0,
            max_docs_per_request: 0,
            default_deadline_ms: 0,
            chaos: None,
        }
    }
}

struct ServeState {
    registry: Registry,
    executor: Executor,
    models_dir: Option<PathBuf>,
    quantized: bool,
    collector: &'static Collector,
    // `Sender` is `Sync` for `()` sends; no lock (and no lock-poison
    // panic path) needed.
    quit_tx: Sender<()>,
    max_inflight: usize,
    max_docs_per_request: usize,
    default_deadline_ms: u64,
    inflight: AtomicUsize,
    chaos: Option<Arc<Chaos>>,
    /// Consecutive `/reload` failures (reset on success).
    reload_failures: AtomicU32,
    /// While `Some(t)` and `now < t`, the reload breaker is open.
    breaker_until: Mutex<Option<Instant>>,
}

/// A running extraction server.
pub struct ServeHandle {
    http: HttpServer,
    quit_rx: Receiver<()>,
}

impl ServeHandle {
    /// Loads the registry and starts serving. Metrics recording on the
    /// global collector is enabled so `/metrics` is live from the start.
    pub fn start(cfg: ServeConfig) -> Result<ServeHandle, String> {
        let snapshot = match (cfg.initial, &cfg.models_dir) {
            (Some(snap), _) => snap,
            (None, Some(dir)) => RegistrySnapshot::load_dir(dir, cfg.quantized)?,
            (None, None) => RegistrySnapshot::empty(),
        };
        let collector = fieldswap_obs::global();
        collector.enable_metrics();
        let (quit_tx, quit_rx) = std::sync::mpsc::channel();
        let chaos = cfg.chaos.map(|plan| Arc::new(Chaos::new(plan)));
        let state = Arc::new(ServeState {
            registry: Registry::new(snapshot),
            executor: Executor::with_chaos(cfg.workers, chaos.clone()),
            models_dir: cfg.models_dir,
            quantized: cfg.quantized,
            collector,
            quit_tx,
            max_inflight: cfg.max_inflight,
            max_docs_per_request: cfg.max_docs_per_request,
            default_deadline_ms: cfg.default_deadline_ms,
            inflight: AtomicUsize::new(0),
            chaos,
            reload_failures: AtomicU32::new(0),
            breaker_until: Mutex::new(None),
        });
        let handler: Handler = Arc::new(move |req: &HttpRequest| state.handle(req));
        let http = HttpServer::start(&cfg.listen, "fieldswap-serve", handler)
            .map_err(|e| format!("binding listener: {e}"))?;
        Ok(ServeHandle { http, quit_rx })
    }

    /// The bound address (resolves an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// Blocks until a client POSTs `/quitquitquit`.
    pub fn wait_for_quit(&self) {
        let _ = self.quit_rx.recv();
    }

    /// Stops accepting connections and joins the accept thread.
    pub fn shutdown(self) {
        self.http.shutdown()
    }
}

/// A request failure: status code + message for the body, plus an
/// optional `Retry-After` (seconds) header for shed responses.
struct Reject {
    status: u16,
    msg: String,
    retry_after: Option<u64>,
}

impl Reject {
    fn new(status: u16, msg: impl Into<String>) -> Self {
        Self {
            status,
            msg: msg.into(),
            retry_after: None,
        }
    }

    fn retry_after(mut self, secs: u64) -> Self {
        self.retry_after = Some(secs);
        self
    }
}

/// RAII admission slot: decrements the inflight count (and refreshes
/// the gauge) on drop, so the budget survives any exit path — including
/// a panicking handler.
struct InflightSlot<'a>(&'a ServeState);

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        let now = self.0.inflight.fetch_sub(1, Ordering::AcqRel) - 1;
        self.0
            .collector
            .gauge_set("fieldswap_serve_inflight", now as f64);
    }
}

impl ServeState {
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        let endpoint = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => "healthz",
            ("GET", "/metrics") => "metrics",
            ("GET", "/models") => "models",
            ("POST", "/reload") => "reload",
            ("POST", "/v1/extract") => "extract",
            ("POST", "/quitquitquit") => "quit",
            (
                _,
                "/healthz" | "/metrics" | "/models" | "/reload" | "/v1/extract" | "/quitquitquit",
            ) => return self.reject(Reject::new(405, "method not allowed\n")),
            _ => return self.reject(Reject::new(404, "not found\n")),
        };
        self.collector.counter_add(
            &format!("fieldswap_serve_requests_total{{endpoint=\"{endpoint}\"}}"),
            1,
        );
        match endpoint {
            // Liveness and visibility are never shed: they bypass
            // admission control entirely so overload stays observable.
            "healthz" => HttpResponse::text(200, "ok\n"),
            "metrics" => HttpResponse::with_body(
                200,
                "text/plain; version=0.0.4",
                self.collector.render_prometheus().into_bytes(),
            ),
            "models" => self.models_response(),
            "reload" => match self.reload() {
                Ok(n) => HttpResponse::json(200, format!("{{\"reloaded\":true,\"models\":{n}}}\n")),
                Err(r) => self.reject(r),
            },
            "quit" => {
                let _ = self.quit_tx.send(());
                HttpResponse::text(200, "shutting down\n")
            }
            _ => {
                let _slot = match self.admit() {
                    Ok(slot) => slot,
                    Err(r) => return self.reject(r),
                };
                match self.extract(&req.body) {
                    Ok(resp) => resp,
                    Err(r) => self.reject(r),
                }
            }
        }
    }

    /// Admission control for `/v1/extract`: claims an inflight slot or
    /// sheds with `503` + `Retry-After` when the budget is exhausted.
    fn admit(&self) -> Result<InflightSlot<'_>, Reject> {
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if self.max_inflight > 0 && prev >= self.max_inflight {
            // Over budget: hand the increment straight back via the
            // slot's drop and shed.
            drop(InflightSlot(self));
            self.collector.counter_add("fieldswap_serve_shed_total", 1);
            return Err(Reject::new(
                503,
                format!(
                    "server at capacity ({} inflight requests); retry later\n",
                    self.max_inflight
                ),
            )
            .retry_after(RETRY_AFTER_SECS));
        }
        self.collector
            .gauge_set("fieldswap_serve_inflight", (prev + 1) as f64);
        Ok(InflightSlot(self))
    }

    fn reject(&self, reject: Reject) -> HttpResponse {
        self.collector.counter_add(
            &format!("fieldswap_serve_errors_total{{code=\"{}\"}}", reject.status),
            1,
        );
        let resp = HttpResponse::text(reject.status, reject.msg);
        match reject.retry_after {
            Some(secs) => resp.with_header("Retry-After", secs.to_string()),
            None => resp,
        }
    }

    /// Fails with `504` when `deadline` has passed. Called between the
    /// request stages — `stage` names the one just finished, so the
    /// `route` check is also the dispatch barrier: an already-expired
    /// request never reaches the worker pool.
    fn check_deadline(&self, deadline: Option<Instant>, stage: &str) -> Result<(), Reject> {
        let Some(deadline) = deadline else {
            return Ok(());
        };
        if Instant::now() >= deadline {
            self.collector.counter_add(
                &format!("fieldswap_serve_deadline_exceeded_total{{stage=\"{stage}\"}}"),
                1,
            );
            return Err(Reject::new(
                504,
                format!("deadline exceeded after {stage} stage\n"),
            ));
        }
        Ok(())
    }

    fn observe_stage(&self, stage: &str, since: Instant) {
        self.collector.observe(
            &format!("fieldswap_serve_stage_ms{{stage=\"{stage}\"}}"),
            since.elapsed().as_secs_f64() * 1e3,
        );
    }

    fn models_response(&self) -> HttpResponse {
        let snap = self.registry.snapshot();
        let models: Vec<Value> = snap
            .entries()
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("name".into(), Value::Str(e.name.clone())),
                    (
                        "fields".into(),
                        Value::Array(
                            e.field_names
                                .iter()
                                .map(|f| Value::Str(f.clone()))
                                .collect(),
                        ),
                    ),
                    ("quantized".into(), Value::Bool(e.model.is_quantized())),
                ])
            })
            .collect();
        let body = Value::Object(vec![("models".into(), Value::Array(models))]);
        match serde_json::to_string(&body) {
            Ok(s) => HttpResponse::json(200, s),
            Err(e) => self.reject(Reject::new(500, format!("serialization failed: {e}\n"))),
        }
    }

    fn reload(&self) -> Result<usize, Reject> {
        let Some(dir) = &self.models_dir else {
            return Err(Reject::new(409, "server has no model directory\n"));
        };
        // Circuit breaker: after RELOAD_BREAKER_THRESHOLD consecutive
        // failures, answer 503 instantly for the cool-down instead of
        // re-reading a known-bad directory; afterwards admit one probe.
        {
            let mut until = self.breaker_until.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(t) = *until {
                if Instant::now() < t {
                    self.collector
                        .counter_add("fieldswap_serve_reload_breaker_open_total", 1);
                    return Err(
                        Reject::new(503, "reload circuit breaker open; cooling down\n")
                            .retry_after(RELOAD_BREAKER_COOLDOWN.as_secs()),
                    );
                }
                // Cool-down elapsed: half-open, let this probe through.
                *until = None;
            }
        }
        let loaded = if self.chaos.as_ref().is_some_and(|c| c.fail_reload()) {
            Err("chaos: injected corrupt model directory".to_string())
        } else {
            RegistrySnapshot::load_dir(dir, self.quantized)
        };
        match loaded {
            Ok(snap) => {
                let n = snap.entries().len();
                self.registry.replace(snap);
                self.reload_failures.store(0, Ordering::Relaxed);
                self.collector
                    .counter_add("fieldswap_serve_reloads_total", 1);
                Ok(n)
            }
            Err(e) => {
                let failures = self.reload_failures.fetch_add(1, Ordering::Relaxed) + 1;
                if failures >= RELOAD_BREAKER_THRESHOLD {
                    *self.breaker_until.lock().unwrap_or_else(|e| e.into_inner()) =
                        Some(Instant::now() + RELOAD_BREAKER_COOLDOWN);
                }
                Err(Reject::new(500, format!("reload failed: {e}\n")))
            }
        }
    }

    fn extract(&self, body: &[u8]) -> Result<HttpResponse, Reject> {
        let start = Instant::now();

        // Parse: bytes -> documents in one pass -> validated documents.
        let t_parse = Instant::now();
        let text =
            std::str::from_utf8(body).map_err(|_| Reject::new(400, "body is not valid UTF-8\n"))?;
        // Only a failed decode reads the body twice: a syntax error
        // anywhere in it is a 400, even after a type error earlier in
        // the text.
        let request: ExtractRequest =
            serde_json::from_str(text).map_err(|e| match serde_json::from_str::<Value>(text) {
                Err(syntax) => Reject::new(400, format!("malformed JSON: {syntax}\n")),
                Ok(_) => Reject::new(422, format!("bad document: {e}\n")),
            })?;
        // The effective deadline is the tighter of the request's own
        // "timeout_ms" and the server default, measured from entry.
        let timeout_ms = match request.timeout_ms {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                Reject::new(422, "\"timeout_ms\" must be a non-negative integer\n")
            })?),
        };
        let effective_ms = match (timeout_ms, self.default_deadline_ms) {
            (Some(t), 0) => Some(t),
            (Some(t), d) => Some(t.min(d)),
            (None, 0) => None,
            (None, d) => Some(d),
        };
        let deadline = effective_ms.map(|ms| start + Duration::from_millis(ms));
        let docs = request
            .documents
            .ok_or_else(|| Reject::new(422, "missing \"documents\" array\n"))?;
        if self.max_docs_per_request > 0 && docs.len() > self.max_docs_per_request {
            return Err(Reject::new(
                413,
                format!(
                    "request carries {} documents; the per-request cap is {}\n",
                    docs.len(),
                    self.max_docs_per_request
                ),
            ));
        }
        for d in &docs {
            d.validate()
                .map_err(|e| Reject::new(422, format!("invalid document {:?}: {e}\n", d.id)))?;
        }
        let pinned = match request.model {
            None | Some(Value::Null) => None,
            Some(Value::Str(name)) => Some(name),
            Some(_) => return Err(Reject::new(422, "\"model\" must be a string\n")),
        };
        self.observe_stage("parse", t_parse);
        self.check_deadline(deadline, "parse")?;

        // Route: resolve each document to a registered model.
        let t_route = Instant::now();
        let snap = self.registry.snapshot();
        if snap.entries().is_empty() {
            return Err(Reject::new(503, "no models registered\n"));
        }
        let routed: Vec<(&ModelEntry, f32)> = if let Some(name) = &pinned {
            let entry = snap
                .get(name)
                .ok_or_else(|| Reject::new(404, format!("unknown model {name:?}\n")))?;
            docs.iter()
                .map(|d| (entry, match_score(entry.model.lexicon(), d)))
                .collect()
        } else {
            docs.iter()
                .map(|d| {
                    snap.route(d)
                        .map(|(i, score)| (&snap.entries()[i], score))
                        .ok_or_else(|| Reject::new(500, "routing failed on a non-empty registry\n"))
                })
                .collect::<Result<_, _>>()?
        };
        self.observe_stage("route", t_route);
        // The "route" check doubles as the dispatch barrier: an expired
        // request never reaches the worker pool.
        self.check_deadline(deadline, "route")?;

        // Infer: batched over the worker pool, per-worker scratch.
        let t_infer = Instant::now();
        let models: Vec<&FrozenModel> = routed.iter().map(|(e, _)| e.model.as_ref()).collect();
        let outcomes = self.executor.predict_batch(&models, &docs);
        self.observe_stage("infer", t_infer);
        self.collector
            .counter_add("fieldswap_serve_documents_total", docs.len() as u64);
        self.check_deadline(deadline, "infer")?;
        let mut predictions = Vec::with_capacity(outcomes.len());
        for (doc, outcome) in docs.iter().zip(outcomes) {
            match outcome {
                Ok(spans) => predictions.push(spans),
                Err(e) => {
                    return Err(Reject::new(
                        500,
                        format!("inference failed on document {:?}: {e}\n", doc.id),
                    ));
                }
            }
        }

        // Respond: render values, confidences, and boxes.
        let t_respond = Instant::now();
        let results: Vec<Value> = docs
            .iter()
            .zip(&routed)
            .zip(&predictions)
            .map(|((doc, (entry, route_score)), spans)| {
                let fields: Vec<Value> = spans
                    .iter()
                    .map(|(s, confidence)| {
                        let b = doc.span_bbox(s.start, s.end);
                        Value::Object(vec![
                            ("field".into(), Value::Int(i64::from(s.field))),
                            (
                                "name".into(),
                                Value::Str(
                                    entry
                                        .field_names
                                        .get(s.field as usize)
                                        .cloned()
                                        .unwrap_or_else(|| format!("field-{}", s.field)),
                                ),
                            ),
                            ("value".into(), Value::Str(doc.span_text(s.start, s.end))),
                            ("confidence".into(), Value::Float(f64::from(*confidence))),
                            ("start".into(), Value::Int(i64::from(s.start))),
                            ("end".into(), Value::Int(i64::from(s.end))),
                            (
                                "box".into(),
                                Value::Object(vec![
                                    ("x0".into(), Value::Float(f64::from(b.x0))),
                                    ("y0".into(), Value::Float(f64::from(b.y0))),
                                    ("x1".into(), Value::Float(f64::from(b.x1))),
                                    ("y1".into(), Value::Float(f64::from(b.y1))),
                                ]),
                            ),
                        ])
                    })
                    .collect();
                Value::Object(vec![
                    ("doc_id".into(), Value::Str(doc.id.clone())),
                    ("model".into(), Value::Str(entry.name.clone())),
                    ("route_score".into(), Value::Float(f64::from(*route_score))),
                    ("fields".into(), Value::Array(fields)),
                ])
            })
            .collect();
        let body = Value::Object(vec![("results".into(), Value::Array(results))]);
        let rendered = serde_json::to_string(&body)
            .map_err(|e| Reject::new(500, format!("response serialization failed: {e}\n")))?;
        self.observe_stage("respond", t_respond);
        self.check_deadline(deadline, "respond")?;
        Ok(HttpResponse::json(200, rendered))
    }
}

/// A `/v1/extract` body: the documents plus the raw `"timeout_ms"` and
/// `"model"` values, which the handler checks after decoding.
///
/// [`serde_json::from_str`] reads it in one pass, straight from the text
/// into [`Document`]s. As with [`Value::get`], the first occurrence of a
/// key wins; later duplicates and unknown keys are skipped, and a body
/// that is not an object reads as one without keys.
#[derive(Debug, Default, PartialEq)]
pub struct ExtractRequest {
    /// The `"documents"` array, if present.
    pub documents: Option<Vec<Document>>,
    /// The raw `"timeout_ms"` value, if present.
    pub timeout_ms: Option<Value>,
    /// The raw `"model"` value, if present.
    pub model: Option<Value>,
}

impl Deserialize for ExtractRequest {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            documents: v
                .get("documents")
                .map(Deserialize::from_value)
                .transpose()?,
            timeout_ms: v.get("timeout_ms").cloned(),
            model: v.get("model").cloned(),
        })
    }

    fn from_json(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let mut req = Self::default();
        if r.peek() != Some(b'{') {
            r.skip()?;
            return Ok(req);
        }
        r.object(|r, key| {
            match &*key {
                "documents" if req.documents.is_none() => {
                    req.documents = Some(Deserialize::from_json(r)?)
                }
                "timeout_ms" if req.timeout_ms.is_none() => req.timeout_ms = Some(r.value()?),
                "model" if req.model.is_none() => req.model = Some(r.value()?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(req)
    }
}
