//! Live exposition and the shared dependency-free HTTP machinery.
//!
//! Two layers live here:
//!
//! * [`HttpServer`] — a tiny blocking HTTP/1.1 server: one named accept
//!   thread, one short-lived thread per connection (so a stalled client
//!   can never delay anyone else — head-of-line blocking across
//!   connections was a real bug in the single-threaded predecessor), a
//!   request parser that understands methods, paths, and
//!   `Content-Length` bodies, and an orderly shutdown that works for
//!   wildcard binds. The `fieldswap-serve` extraction service reuses
//!   this machinery with its own handler.
//! * [`ObsServer`] — the observability exposition built on top of it:
//!
//!   * `GET /metrics` — Prometheus text exposition of the registry.
//!   * `GET /healthz` — `ok\n` (liveness for scripts and CI curls).
//!   * `GET /spans`   — JSON snapshot of the aggregated live span tree.
//!
//! The obs server never touches experiment state beyond the same
//! snapshot accessors the end-of-run writers use, so turning it on
//! cannot change results (the bench suite proves fig4 byte-identity
//! with the server on vs off).

use crate::Collector;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection read/write timeout: bounds how long one slow client
/// can hold its *own* connection thread (other connections are
/// unaffected — each gets its own thread).
const CONN_TIMEOUT: Duration = Duration::from_secs(5);

/// Maximum concurrently-handled connections. Beyond this the server
/// answers `503` immediately instead of spawning more threads, so a
/// connection flood degrades loudly rather than exhausting the process.
const MAX_INFLIGHT: usize = 128;

/// Maximum request head (request line + headers) size.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum accepted request body. Requests declaring more get `413`
/// without the body ever being read.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed HTTP request as seen by an [`HttpServer`] handler.
pub struct HttpRequest {
    /// Uppercase method token (`GET`, `POST`, ...), verbatim.
    pub method: String,
    /// Request path with any query string stripped (`/metrics?x=1`
    /// arrives as `/metrics`).
    pub path: String,
    /// Raw request body (empty unless the client sent `Content-Length`).
    pub body: Vec<u8>,
}

/// A response for an [`HttpServer`] handler to return.
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers, written verbatim after `Content-Type`
    /// (e.g. `Retry-After` on load-shedding `503`s).
    pub headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A response with an explicit content type and raw body.
    pub fn with_body(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        Self {
            status,
            content_type,
            headers: Vec::new(),
            body,
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self::with_body(status, "text/plain", body.into().into_bytes())
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self::with_body(status, "application/json", body.into().into_bytes())
    }

    /// Adds a response header (builder-style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }
}

/// The handler type an [`HttpServer`] serves: shared across connection
/// threads, called once per request.
pub type Handler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// A running HTTP server. Call [`HttpServer::shutdown`] for an orderly
/// stop; dropping the handle leaves the threads running (process-lifetime
/// servers leak the handle deliberately).
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or port `0` for an ephemeral
    /// port) and serves `handler` on a background accept thread named
    /// `name`, handing each accepted connection to a short-lived worker
    /// thread. Returns the bound address, which is how tests and bins
    /// discover the ephemeral port.
    pub fn start(addr: &str, name: &str, handler: Handler) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_name = name.to_string();
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || accept_loop(listener, handler, thread_stop, thread_name))?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The address the server actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the accept thread. In-flight
    /// connection threads finish on their own (bounded by the
    /// per-connection timeout).
    ///
    /// Works for wildcard binds: a server bound to `0.0.0.0:p` is woken
    /// via `127.0.0.1:p` — connecting to the unspecified address
    /// verbatim would hang forever, which is exactly the bug this used
    /// to have. The wake connect also carries a timeout so `shutdown`
    /// can never wedge the caller.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The loop blocks in accept(); poke it awake with a throwaway
        // connection so it observes the stop flag.
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The address to poke a listener awake: the bind address itself, with
/// unspecified IPs (`0.0.0.0` / `::`) mapped to the loopback of the same
/// family — you cannot *connect* to the unspecified address.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

fn accept_loop(listener: TcpListener, handler: Handler, stop: Arc<AtomicBool>, name: String) {
    let inflight = Arc::new(AtomicUsize::new(0));
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        // Bound both directions so a stalled client only ever costs its
        // own connection thread, never the process.
        let _ = stream.set_read_timeout(Some(CONN_TIMEOUT));
        let _ = stream.set_write_timeout(Some(CONN_TIMEOUT));
        if inflight.load(Ordering::Relaxed) >= MAX_INFLIGHT {
            let _ = write_response(
                &mut stream,
                &HttpResponse::text(503, "server overloaded\n").with_header("Retry-After", "1"),
            );
            continue;
        }
        // RAII so the count can never leak, whatever the connection
        // thread does — a leaked increment here would permanently eat an
        // inflight slot until the cap rejects everything.
        let permit = ConnPermit(Arc::clone(&inflight));
        permit.0.fetch_add(1, Ordering::Relaxed);
        let handler = Arc::clone(&handler);
        let spawned = std::thread::Builder::new()
            .name(format!("{name}-conn"))
            .spawn(move || {
                let _permit = permit;
                handle_connection(&handler, &mut stream);
            });
        // Thread spawn failed (resource exhaustion): the closure (and
        // its permit) is returned inside the error and dropped here.
        drop(spawned);
    }
}

/// Decrements the connection-inflight count on drop, so the count stays
/// exact even if the connection thread panics.
struct ConnPermit(Arc<AtomicUsize>);

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_connection(handler: &Handler, stream: &mut TcpStream) {
    let response = match read_request(stream) {
        // A panicking handler must cost exactly one response, never the
        // connection thread: catch the unwind and answer `500` so the
        // client sees a definite outcome instead of a dropped socket.
        Ok(req) => catch_unwind(AssertUnwindSafe(|| handler(&req)))
            .unwrap_or_else(|_| HttpResponse::text(500, "internal server error\n")),
        // The client closed without sending anything: nothing to answer.
        Err(0) => return,
        Err(status) => HttpResponse::text(status, error_reason(status).to_string() + "\n"),
    };
    let _ = write_response(stream, &response);
}

/// Reads and parses one request. `Err(status)` asks for an error
/// response with that code; `Err(0)` means the client went away before
/// sending a request line and no response should be written.
fn read_request(stream: &mut TcpStream) -> Result<HttpRequest, u16> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(431);
        }
        let n = stream.read(&mut chunk).map_err(|_| 400u16)?;
        if n == 0 {
            if buf.is_empty() {
                return Err(0);
            }
            return Err(400);
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| 400u16)?;
    let mut lines = head.lines();
    let request_line = lines.next().ok_or(400u16)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(400u16)?.to_string();
    let path = parts.next().ok_or(400u16)?;
    // Ignore any query string: /metrics?x=1 serves /metrics.
    let path = path.split('?').next().unwrap_or(path).to_string();
    let mut content_length = 0usize;
    for line in lines {
        let Some((k, v)) = line.split_once(':') else {
            continue;
        };
        if k.trim().eq_ignore_ascii_case("content-length") {
            content_length = v.trim().parse().map_err(|_| 400u16)?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(413);
    }
    // One allocation for the whole body. `vec!` zero-fills lazily, so a
    // client that declares a large body and stalls does not get it paged
    // in; a short body or a read timeout fails `read_exact` with a 400.
    let mut body = vec![0u8; content_length];
    let early = &buf[head_end + 4..];
    let have = early.len().min(content_length);
    body[..have].copy_from_slice(&early[..have]);
    stream.read_exact(&mut body[have..]).map_err(|_| 400u16)?;
    Ok(HttpRequest { method, path, body })
}

/// Index of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn error_reason(status: u16) -> &'static str {
    match status {
        400 => "bad request",
        404 => "not found",
        405 => "method not allowed",
        413 => "payload too large",
        422 => "unprocessable request",
        431 => "request header too large",
        500 => "internal server error",
        503 => "server overloaded",
        504 => "deadline exceeded",
        _ => "error",
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    }
}

fn write_response(stream: &mut TcpStream, response: &HttpResponse) -> std::io::Result<()> {
    let mut header = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.headers {
        header.push_str(name);
        header.push_str(": ");
        header.push_str(value);
        header.push_str("\r\n");
    }
    header.push_str("\r\n");
    stream.write_all(header.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// A running exposition server. Dropping the handle leaves the threads
/// running (the bench bins leak it for process lifetime); call
/// [`ObsServer::shutdown`] for an orderly stop in tests.
pub struct ObsServer {
    inner: HttpServer,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or port `0` for an
    /// ephemeral port) and starts serving `collector` on background
    /// threads. Returns the bound address, which is the way tests
    /// discover the ephemeral port.
    pub fn start(collector: &'static Collector, addr: &str) -> std::io::Result<Self> {
        let handler: Handler = Arc::new(move |req: &HttpRequest| {
            if req.method != "GET" {
                return HttpResponse::text(400, "bad request\n");
            }
            match req.path.as_str() {
                "/metrics" => HttpResponse::with_body(
                    200,
                    "text/plain; version=0.0.4",
                    collector.render_prometheus().into_bytes(),
                ),
                "/healthz" => HttpResponse::text(200, "ok\n"),
                "/spans" => HttpResponse::json(200, collector.render_spans_json()),
                _ => HttpResponse::text(404, "not found\n"),
            }
        });
        let inner = HttpServer::start(addr, "fieldswap-obs-http", handler)?;
        Ok(Self { inner })
    }

    /// The address the server actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Stops the accept loop and joins the server thread. Safe for
    /// wildcard binds (`0.0.0.0:p`) — see [`HttpServer::shutdown`].
    pub fn shutdown(self) {
        self.inner.shutdown()
    }
}

/// Periodically writes the Prometheus exposition to a file, so a run
/// killed mid-grid (the PR 4 resume scenario) still leaves metrics on
/// disk. Writes go through a temp file + rename, so readers never see a
/// torn file.
pub struct PeriodicFlush {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl PeriodicFlush {
    /// Starts flushing `collector`'s metrics to `path` every `period`.
    /// The first write happens after one period, and an orderly
    /// [`PeriodicFlush::shutdown`] performs a final flush.
    pub fn start(
        collector: &'static Collector,
        path: &str,
        period: Duration,
    ) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let path = path.to_string();
        let handle = std::thread::Builder::new()
            .name("fieldswap-obs-flush".into())
            .spawn(move || {
                // Sleep in short slices so shutdown is prompt even with
                // a long period.
                let slice = Duration::from_millis(50).min(period);
                let mut elapsed = Duration::ZERO;
                loop {
                    std::thread::sleep(slice);
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    elapsed += slice;
                    if elapsed >= period {
                        elapsed = Duration::ZERO;
                        let _ = flush_atomic(collector, &path);
                    }
                }
                let _ = flush_atomic(collector, &path);
            })?;
        Ok(Self {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the flusher after one final write.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn flush_atomic(collector: &Collector, path: &str) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, collector.render_prometheus())?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn leaked_collector() -> &'static Collector {
        Box::leak(Box::new(Collector::new()))
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let status: u16 = out
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

    #[test]
    fn serves_metrics_healthz_and_spans() {
        let c = leaked_collector();
        c.enable_tracing();
        c.enable_metrics();
        c.counter_add("serve_hits_total", 3);
        drop(c.span("phase"));
        let server = ObsServer::start(c, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("serve_hits_total 3"), "{body}");

        let (status, body) = get(addr, "/spans");
        assert_eq!(status, 200);
        assert!(body.contains("\"path\":\"phase\""), "{body}");

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        server.shutdown();
    }

    #[test]
    fn rejects_non_get_requests() {
        let server = ObsServer::start(leaked_collector(), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        server.shutdown();
    }

    #[test]
    fn stalled_connection_does_not_block_others() {
        // Regression test for head-of-line blocking: the old server
        // handled connections inline on the accept thread, so one
        // stalled client (connected, sending nothing) parked /healthz
        // behind a 5 s read timeout for everyone. With per-connection
        // threads, a concurrent /healthz must answer immediately while
        // the stall is still in progress.
        let server = ObsServer::start(leaked_collector(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let _stalled = TcpStream::connect(addr).unwrap();
        // Give the accept loop a moment to pick up the stalled socket.
        std::thread::sleep(Duration::from_millis(50));
        // Min-of-3 so one slow scheduler tick on a loaded CI machine
        // can't fail the test; the pre-fix behavior blocks >= 5 s.
        let mut fastest = Duration::MAX;
        for _ in 0..3 {
            let t0 = Instant::now();
            let (status, body) = get(addr, "/healthz");
            fastest = fastest.min(t0.elapsed());
            assert_eq!(status, 200);
            assert_eq!(body, "ok\n");
        }
        assert!(
            fastest < Duration::from_millis(100),
            "healthz behind a stalled client took {fastest:?}"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_works_with_unspecified_bind() {
        // Regression test: shutdown used to poke the bind address
        // verbatim, and connecting to 0.0.0.0 never reaches the
        // listener, hanging the join forever.
        let server = ObsServer::start(leaked_collector(), "0.0.0.0:0").unwrap();
        let port = server.addr().port();
        let loopback: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
        let (status, _) = get(loopback, "/healthz");
        assert_eq!(status, 200);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("shutdown of a 0.0.0.0 listener hung");
    }

    #[test]
    fn generic_server_parses_posted_bodies() {
        let handler: Handler = Arc::new(|req: &HttpRequest| {
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/echo");
            HttpResponse::text(200, String::from_utf8(req.body.clone()).unwrap())
        });
        let server = HttpServer::start("127.0.0.1:0", "test-http", handler).unwrap();
        let body = "x".repeat(10_000); // spans several reads
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                format!(
                    "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        assert!(out.ends_with(&body));
        server.shutdown();
    }

    #[test]
    fn short_or_stalled_bodies_get_400_and_extra_bytes_are_ignored() {
        let handler: Handler = Arc::new(|req: &HttpRequest| {
            HttpResponse::text(200, String::from_utf8(req.body.clone()).unwrap())
        });
        let server = HttpServer::start("127.0.0.1:0", "test-http", handler).unwrap();
        let addr = server.addr();
        let send = |body: &str, declared: usize, close: bool| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(
                    format!(
                        "POST /b HTTP/1.1\r\nHost: x\r\nContent-Length: {declared}\r\n\r\n{body}"
                    )
                    .as_bytes(),
                )
                .unwrap();
            if close {
                stream.shutdown(std::net::Shutdown::Write).unwrap();
            }
            let mut out = String::new();
            stream.read_to_string(&mut out).unwrap();
            out
        };
        std::thread::scope(|s| {
            // Declared 100 bytes, sent 10 and stalled: the read times out.
            let stalled = s.spawn(|| send(&"y".repeat(10), 100, false));
            // Declared 100 bytes, sent 10 and closed.
            let out = send(&"y".repeat(10), 100, true);
            assert!(out.starts_with("HTTP/1.1 400"), "{out}");
            // Bytes past the declared length are not part of the body.
            let out = send("abcdef", 3, true);
            assert!(out.starts_with("HTTP/1.1 200"), "{out}");
            assert!(out.ends_with("\r\n\r\nabc"), "{out}");
            let out = stalled.join().unwrap();
            assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        });
        server.shutdown();
    }

    #[test]
    fn panicking_handler_yields_500_and_server_survives() {
        // A handler panic must be absorbed by the connection thread:
        // the panicking request gets a definite 500, the inflight count
        // does not leak, and the very next request is served normally.
        let handler: Handler = Arc::new(|req: &HttpRequest| {
            if req.path == "/boom" {
                panic!("injected handler panic");
            }
            HttpResponse::text(200, "fine\n")
        });
        let server = HttpServer::start("127.0.0.1:0", "test-http", handler).unwrap();
        let addr = server.addr();
        for _ in 0..3 {
            let (status, body) = get(addr, "/boom");
            assert_eq!(status, 500, "{body}");
            let (status, body) = get(addr, "/ok");
            assert_eq!(status, 200);
            assert_eq!(body, "fine\n");
        }
        server.shutdown();
    }

    #[test]
    fn extra_headers_are_written() {
        let handler: Handler = Arc::new(|_req: &HttpRequest| {
            HttpResponse::text(503, "busy\n").with_header("Retry-After", "7")
        });
        let server = HttpServer::start("127.0.0.1:0", "test-http", handler).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 503"), "{out}");
        assert!(out.contains("Retry-After: 7\r\n"), "{out}");
        server.shutdown();
    }

    #[test]
    fn generic_server_rejects_oversized_body_declarations() {
        let handler: Handler =
            Arc::new(|_req: &HttpRequest| unreachable!("oversized request must not reach handler"));
        let server = HttpServer::start("127.0.0.1:0", "test-http", handler).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                format!(
                    "POST /big HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                )
                .as_bytes(),
            )
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
        server.shutdown();
    }

    #[test]
    fn periodic_flush_writes_and_final_flushes() {
        let c = leaked_collector();
        c.enable_metrics();
        c.counter_add("flush_total", 1);
        let dir = std::env::temp_dir().join(format!("obs-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let path_str = path.to_str().unwrap();
        let flusher = PeriodicFlush::start(c, path_str, Duration::from_millis(30)).unwrap();
        // Wait for at least one periodic write.
        for _ in 0..100 {
            if path.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(path.exists(), "periodic flush never wrote {path_str}");
        c.counter_add("flush_total", 41);
        flusher.shutdown();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("flush_total 42"), "final flush stale: {text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
