//! A small HTTP/1.1 client for the load generator.
//!
//! Each response is framed by its `Content-Length`. The connection is
//! reused for the next request unless the server answered
//! `Connection: close`, so a server that keeps connections alive is
//! measured as one without any change here. Connections opened are
//! counted, which is how `obs.conns_per_req` is measured.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest response head accepted.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest response body accepted.
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// How long one request may wait on the socket before it counts as a
/// transport error.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Retry-After` seconds, when the server sent one.
    pub retry_after: Option<u64>,
    /// Whether the server asked to close the connection.
    pub close: bool,
    /// Body bytes, exactly `Content-Length` of them.
    pub body: Vec<u8>,
}

/// Reads one response from `r`: the head up to the blank line, then
/// exactly `Content-Length` body bytes. Bytes after the body stay in `r`
/// for the next response.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<Response> {
    let mut head = Vec::with_capacity(256);
    loop {
        let before = head.len();
        let n = r.read_until(b'\n', &mut head)?;
        if n == 0 {
            let kind = if head.is_empty() {
                io::ErrorKind::UnexpectedEof
            } else {
                io::ErrorKind::InvalidData
            };
            return Err(io::Error::new(
                kind,
                "connection closed inside response head",
            ));
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(invalid("response head too large"));
        }
        if &head[before..] == b"\r\n" || &head[before..] == b"\n" {
            break;
        }
    }
    let head = std::str::from_utf8(&head).map_err(|_| invalid("non-UTF-8 response head"))?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split_whitespace();
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(invalid("not an HTTP/1.x status line"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status code"))?;
    let mut content_length = None;
    let mut close = false;
    let mut retry_after = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            let len: usize = value.parse().map_err(|_| invalid("bad Content-Length"))?;
            if len > MAX_BODY_BYTES {
                return Err(invalid("response body too large"));
            }
            content_length = Some(len);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value
                .split(',')
                .any(|t| t.trim().eq_ignore_ascii_case("close"));
        } else if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.parse().ok();
        }
    }
    let len = content_length.ok_or_else(|| invalid("response without Content-Length"))?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Response {
        status,
        retry_after,
        close,
        body,
    })
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The bytes of one request: head and body in a single buffer, so the
/// request leaves in one write.
pub fn encode_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A client holding at most one connection to one server.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened so far.
    pub connects: u64,
}

impl Client {
    /// A client for `addr`; it connects on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            connects: 0,
        }
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        self.connects += 1;
        self.conn = Some(BufReader::new(stream));
        Ok(())
    }

    /// Sends one request and reads its response. A reused connection
    /// that the server has already closed is replaced once; a failure on
    /// a fresh connection is returned.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let wire = encode_request(method, path, body);
        let reused = self.conn.is_some();
        match self.exchange(&wire) {
            Err(e) if reused && stale_connection(&e) => {
                self.conn = None;
                self.exchange(&wire)
            }
            other => other,
        }
    }

    fn exchange(&mut self, wire: &[u8]) -> io::Result<Response> {
        if self.conn.is_none() {
            self.connect()?;
        }
        let conn = self.conn.as_mut().expect("connected above");
        let outcome = conn
            .get_mut()
            .write_all(wire)
            .and_then(|()| read_response(conn));
        match outcome {
            Ok(resp) => {
                if resp.close {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// Errors that mean the server closed an idle kept-alive connection
/// before this request reached it.
fn stale_connection(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::{Cursor, Read};
    use std::net::TcpListener;

    fn parse(bytes: &[u8]) -> io::Result<Response> {
        read_response(&mut Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn frames_body_by_content_length() {
        let wire =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello";
        let r = parse(wire).unwrap();
        assert_eq!(
            (r.status, r.close, r.body.as_slice()),
            (200, false, &b"hello"[..])
        );
    }

    #[test]
    fn leaves_the_next_response_in_the_stream() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nabHTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nxyz";
        let mut r = Cursor::new(wire.to_vec());
        assert_eq!(read_response(&mut r).unwrap().body, b"ab");
        let second = read_response(&mut r).unwrap();
        assert_eq!((second.status, second.body.as_slice()), (404, &b"xyz"[..]));
    }

    #[test]
    fn detects_connection_close_in_any_case() {
        let r =
            parse(b"HTTP/1.1 200 OK\r\ncOnNeCtIoN: keep-alive, Close\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
        assert!(r.close);
        let r = parse(b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        assert!(!r.close);
    }

    #[test]
    fn reads_retry_after_on_shed_responses() {
        let r = parse(
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nContent-Length: 5\r\nConnection: close\r\nRetry-After: 1\r\n\r\nbusy\n",
        )
        .unwrap();
        assert_eq!((r.status, r.retry_after, r.close), (503, Some(1), true));
        assert_eq!(r.body, b"busy\n");
    }

    #[test]
    fn rejects_truncated_and_unframed_responses() {
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\n\r\nbody").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Le").is_err());
        assert_eq!(parse(b"").unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert!(parse(b"SSH-2.0-x\r\n\r\n").is_err());
    }

    #[test]
    fn encodes_one_buffer_with_content_length() {
        let wire = encode_request("POST", "/v1/extract", b"{}");
        assert_eq!(
            wire,
            b"POST /v1/extract HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 2\r\n\r\n{}"
        );
    }

    /// Serves `responses` in order, one per request, closing the
    /// connection after any response that says `Connection: close`.
    pub(crate) fn scripted_server(
        responses: Vec<&'static str>,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut accepted = 0;
            let mut pending = responses.into_iter().peekable();
            while pending.peek().is_some() {
                let (stream, _) = listener.accept().unwrap();
                accepted += 1;
                let mut reader = BufReader::new(stream);
                for resp in pending.by_ref() {
                    let mut line = String::new();
                    let mut len = 0usize;
                    loop {
                        line.clear();
                        reader.read_line(&mut line).unwrap();
                        if let Some(v) = line.strip_prefix("Content-Length: ") {
                            len = v.trim().parse().unwrap();
                        }
                        if line == "\r\n" {
                            break;
                        }
                    }
                    let mut body = vec![0; len];
                    reader.read_exact(&mut body).unwrap();
                    reader.get_mut().write_all(resp.as_bytes()).unwrap();
                    if resp.contains("Connection: close") {
                        break;
                    }
                }
            }
            accepted
        });
        (addr, handle)
    }

    #[test]
    fn reuses_kept_alive_connections_and_reconnects_after_close() {
        let (addr, server) = scripted_server(vec![
            "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na",
            "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nConnection: close\r\n\r\nb",
            "HTTP/1.1 200 OK\r\nContent-Length: 1\r\nConnection: close\r\n\r\nc",
        ]);
        let mut client = Client::new(addr);
        for want in [b"a", b"b", b"c"] {
            let r = client.request("POST", "/x", b"body").unwrap();
            assert_eq!(&r.body, want);
        }
        // a and b shared one connection; c needed a second one.
        assert_eq!(client.connects, 2);
        assert_eq!(server.join().unwrap(), 2);
    }
}
