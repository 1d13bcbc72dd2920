//! Minimal zero-dependency blocking HTTP/1.0: framing plus the one
//! listener every endpoint runs on.
//!
//! Shared by the live status endpoint ([`crate::live`]) and the
//! `tmm-serve` request/response protocol. The design goals are the same
//! for both users:
//!
//! * **no polling** — [`listen`] blocks in `accept()`; shutdown wakes it
//!   with a connection to the bound address, so a request waits only for
//!   a free handler, never for a timer;
//! * **bounded threads** — a fixed handler pool fed through a bounded
//!   queue; a connection arriving while the queue is full is answered
//!   `503` at once and closed, so thread count never grows with clients;
//! * **no truncation** — [`write_fully`] retries short writes and
//!   `EAGAIN`/`EINTR` until a deadline, so multi-megabyte `/metrics`
//!   bodies survive slow readers instead of being silently cut off;
//! * **no wedging** — [`read_request`] is bounded by a whole-request
//!   deadline as well as by the per-read socket timeouts, so a client
//!   dribbling bytes cannot hold a handler longer than that deadline;
//! * **POST bodies** — [`read_request`] honours `Content-Length`, which
//!   the serve protocol needs for batched query submissions.

use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request body accepted by [`read_request`].
pub const MAX_BODY: usize = 16 * 1024 * 1024;
/// Overall deadline for writing one response, across all retries.
const WRITE_DEADLINE: Duration = Duration::from_secs(15);
/// Pause before retrying a `WouldBlock`/`TimedOut` write.
const WRITE_RETRY_PAUSE: Duration = Duration::from_millis(5);
/// Wait before retrying an `accept()` that failed for lack of resources
/// (`EMFILE`, `ENOBUFS`, …), so exhaustion does not spin a core. Shutdown
/// cuts it short.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(50);
/// Bound on the shutdown wake-up connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// One parsed HTTP request: method, path (query string stripped), body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `HEAD`, `POST`, ...), uppercase as sent.
    pub method: String,
    /// Request path with any `?query` suffix removed.
    pub path: String,
    /// Request body (empty unless `Content-Length` was present).
    pub body: String,
}

/// Why [`read_request`] produced no request; [`RequestError::status`] is
/// the answer the listener sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// Malformed head or body, or a client that vanished mid-request.
    Malformed,
    /// Head over 16 KiB, or `Content-Length` over [`MAX_BODY`].
    TooLarge,
    /// The whole-request deadline or a per-read socket timeout passed.
    TimedOut,
}

impl RequestError {
    /// The HTTP status that reports this failure: 400, 413 or 408.
    #[must_use]
    pub fn status(self) -> u16 {
        match self {
            RequestError::Malformed => 400,
            RequestError::TooLarge => 413,
            RequestError::TimedOut => 408,
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RequestError::Malformed => "bad request",
            RequestError::TooLarge => "payload too large",
            RequestError::TimedOut => "request timeout",
        })
    }
}

impl std::error::Error for RequestError {}

/// Reads one request from `stream`: head until the blank line, then a
/// `Content-Length`-delimited body, all before `deadline`. Each read
/// waits at most the stream's own read timeout and never past
/// `deadline`.
///
/// # Errors
///
/// [`RequestError::TooLarge`] for an oversized head or declared body,
/// [`RequestError::TimedOut`] when `deadline` or a read timeout passes
/// first, and [`RequestError::Malformed`] for anything else (bad syntax,
/// non-UTF-8, a client that closed mid-request).
pub fn read_request(stream: &mut TcpStream, deadline: Instant) -> Result<Request, RequestError> {
    let per_read = stream.read_timeout().map_err(|_| RequestError::Malformed)?;
    let mut reader = DeadlineReader { stream, deadline, per_read };
    let mut buf: Vec<u8> = Vec::with_capacity(2048);
    let mut tmp = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() >= MAX_HEAD {
            return Err(RequestError::TooLarge);
        }
        let n = reader.read(&mut tmp)?;
        buf.extend_from_slice(&tmp[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| RequestError::Malformed)?;
    let mut lines = head.lines();
    let mut parts = lines.next().ok_or(RequestError::Malformed)?.split_whitespace();
    let method = parts.next().ok_or(RequestError::Malformed)?.to_string();
    let path = parts.next().ok_or(RequestError::Malformed)?;
    let path = path.split('?').next().unwrap_or("/").to_string();
    let mut content_len = 0usize;
    for line in lines {
        let Some((key, value)) = line.split_once(':') else { continue };
        if key.trim().eq_ignore_ascii_case("content-length") {
            // All digits but too big for usize is oversize, not malformed.
            let value = value.trim();
            content_len = match value.parse() {
                Ok(n) => n,
                Err(_) if !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit()) => {
                    return Err(RequestError::TooLarge)
                }
                Err(_) => return Err(RequestError::Malformed),
            };
        }
    }
    if content_len > MAX_BODY {
        return Err(RequestError::TooLarge);
    }
    let mut body = buf[(head_end + 4).min(buf.len())..].to_vec();
    while body.len() < content_len {
        let n = reader.read(&mut tmp)?;
        body.extend_from_slice(&tmp[..n]);
    }
    body.truncate(content_len);
    let body = String::from_utf8(body).map_err(|_| RequestError::Malformed)?;
    Ok(Request { method, path, body })
}

/// A stream whose reads all end by one deadline.
struct DeadlineReader<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
    /// The caller's per-read socket timeout (`None` = none).
    per_read: Option<Duration>,
}

impl DeadlineReader<'_> {
    /// One read of at least a byte, waiting at most the per-read timeout
    /// or the time left before the deadline, whichever is shorter.
    fn read(&mut self, tmp: &mut [u8]) -> Result<usize, RequestError> {
        loop {
            let left = self.deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RequestError::TimedOut);
            }
            let wait = self.per_read.map_or(left, |t| t.min(left));
            self.stream.set_read_timeout(Some(wait)).map_err(|_| RequestError::Malformed)?;
            match self.stream.read(tmp) {
                Ok(0) => return Err(RequestError::Malformed),
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(RequestError::TimedOut)
                }
                Err(_) => return Err(RequestError::Malformed),
            }
        }
    }
}

/// What a route answers: status, `Content-Type`, body.
pub type Response = (u16, &'static str, String);

/// Sizes and time bounds of one [`listen`] endpoint. Every caller sets
/// its own as a constant.
#[derive(Debug, Clone, Copy)]
pub struct ListenerConfig {
    /// Names the threads (`tmm-<name>-accept`, `tmm-<name>-http`) and
    /// the `listener` field of refusal log lines.
    pub name: &'static str,
    /// Handler threads; each serves one connection at a time (min 1).
    pub handlers: usize,
    /// Accepted connections that may wait for a free handler; the next
    /// one is answered `503`.
    pub queue: usize,
    /// Socket timeout for each read.
    pub read_timeout: Duration,
    /// Socket timeout for each write.
    pub write_timeout: Duration,
    /// Bound on reading one whole request (head and body).
    pub request_deadline: Duration,
}

/// A running [`listen`] endpoint. Dropping it stops accepting, wakes the
/// accept thread with a connection to the bound address, lets each
/// handler finish its current request, closes the queued connections
/// unanswered, and joins every thread. The port is closed once drop
/// returns.
pub struct Listener {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

impl Listener {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let Some(accept) = self.accept.take() else { return };
        // A wildcard bind is not a connectable address; its loopback is.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        accept.thread().unpark();
        match TcpStream::connect_timeout(&wake, WAKE_TIMEOUT) {
            Ok(_) => {}
            // Refused: the accept thread already closed the listener.
            Err(e) if e.kind() == ErrorKind::ConnectionRefused => {}
            // The accept thread may still be blocked: joining it (or the
            // handlers, which wait on its queue) could hang forever.
            Err(e) => {
                crate::log::warn(
                    &[("addr", wake.to_string().as_str()), ("err", e.to_string().as_str())],
                    "listener wake-up failed; leaving its threads detached",
                );
                return;
            }
        }
        let _ = accept.join();
        for h in self.handlers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Binds `addr`, then serves every request on it with `route`: one
/// thread blocks in `accept()` and hands each connection to a pool of
/// `config.handlers` threads through a queue of `config.queue`. A
/// connection that finds the queue full is answered `503 Service
/// Unavailable` from the accept thread and closed; each refusal adds 1 to
/// `tmm_http_refused_total` and logs a `warn` line with the peer and
/// `config.name`. A request that cannot be read is answered with
/// [`RequestError::status`]; a route that panics, with `500`.
///
/// # Errors
///
/// Propagates the bind failure (address in use, bad syntax, …) and
/// thread spawn failures.
pub fn listen<F>(addr: &str, config: ListenerConfig, route: F) -> std::io::Result<Listener>
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = sync_channel::<TcpStream>(config.queue);
    let rx = Arc::new(Mutex::new(rx));
    let route = Arc::new(route);
    let handlers = (0..config.handlers.max(1))
        .map(|_| {
            let (rx, route, stop) = (Arc::clone(&rx), Arc::clone(&route), Arc::clone(&stop));
            std::thread::Builder::new()
                .name(format!("tmm-{}-http", config.name))
                .spawn(move || handler_loop(&rx, &stop, &config, &*route))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let accept_stop = Arc::clone(&stop);
    let accept = std::thread::Builder::new()
        .name(format!("tmm-{}-accept", config.name))
        .spawn(move || accept_loop(&listener, &tx, &accept_stop, config.name))?;
    Ok(Listener { stop, addr: local, accept: Some(accept), handlers })
}

/// Blocks in `accept()` and queues each connection, refusing it when the
/// queue is full, until a connection arrives after `stop` is set.
/// Returning drops the listener (closing the port) and, with it, the
/// only sender, which ends the handlers once the queue is empty.
fn accept_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, stop: &AtomicBool, name: &str) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            // The shutdown wake-up, or a client racing it.
            Ok(_) if stop.load(Ordering::SeqCst) => return,
            Ok((stream, peer)) => match tx.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(stream)) => refuse(stream, peer, name),
                Err(TrySendError::Disconnected(_)) => return,
            },
            // EINTR, or a client that reset between SYN and accept.
            Err(e) if matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::ConnectionAborted) => {
            }
            Err(e) => {
                crate::log::warn(
                    &[("listener", name), ("err", e.to_string().as_str())],
                    "accept failed",
                );
                std::thread::park_timeout(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

fn handler_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    stop: &AtomicBool,
    config: &ListenerConfig,
    route: &(dyn Fn(&Request) -> Response + Sync),
) {
    loop {
        // The receiver holds no state a panicking holder could break.
        let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(stream) = next else { return };
        if stop.load(Ordering::SeqCst) {
            continue; // shutting down: close queued connections unanswered
        }
        handle(stream, config, route);
    }
}

fn handle(
    mut stream: TcpStream,
    config: &ListenerConfig,
    route: &(dyn Fn(&Request) -> Response + Sync),
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let (status, content_type, body) =
        match read_request(&mut stream, Instant::now() + config.request_deadline) {
            Ok(req) => catch_unwind(AssertUnwindSafe(|| route(&req))).unwrap_or_else(|_| {
                crate::log::error(&[("listener", config.name)], "route panicked");
                (500, "text/plain", "internal server error\n".to_string())
            }),
            Err(e) => (e.status(), "text/plain", format!("{e}\n")),
        };
    if let Err(e) = write_response(&mut stream, status, content_type, &body) {
        crate::log::debug(
            &[("listener", config.name), ("err", e.to_string().as_str())],
            "response dropped",
        );
    }
}

/// Answers `503` with one nonblocking write, so a client that never
/// reads cannot stall the accept thread; a fresh socket's send buffer
/// always holds the short response.
fn refuse(mut stream: TcpStream, peer: SocketAddr, listener: &str) {
    crate::metrics::counter_add("tmm_http_refused_total", &[], 1);
    crate::log::warn(
        &[("listener", listener), ("peer", peer.to_string().as_str())],
        "connection refused: handler queue full",
    );
    let body = "service unavailable\n";
    let mut msg = response_head(503, "text/plain", body.len());
    msg.push_str(body);
    let _ = stream.set_nonblocking(true);
    let _ = stream.write(msg.as_bytes());
}

/// Writes all of `buf`, looping over short writes and retrying
/// `Interrupted` immediately and `WouldBlock`/`TimedOut` (with a short
/// pause) until [`WRITE_DEADLINE`] expires.
///
/// # Errors
///
/// Returns the underlying error once the deadline passes, on a zero-byte
/// write, or on any other socket error (connection reset, broken pipe).
pub fn write_fully(stream: &mut TcpStream, buf: &[u8]) -> std::io::Result<()> {
    let deadline = Instant::now() + WRITE_DEADLINE;
    let mut off = 0;
    while off < buf.len() {
        match stream.write(&buf[off..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(WRITE_RETRY_PAUSE);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes one complete `HTTP/1.0` response (status line, `Content-Type`,
/// `Content-Length`, `Connection: close`, body) via [`write_fully`].
///
/// # Errors
///
/// Propagates [`write_fully`] errors; the caller decides whether a failed
/// response to one client matters (service loops typically log and move
/// on).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = response_head(status, content_type, body.len());
    write_fully(stream, head.as_bytes())?;
    write_fully(stream, body.as_bytes())?;
    stream.flush()
}

fn response_head(status: u16, content_type: &str, len: usize) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {len}\r\nConnection: close\r\n\r\n"
    )
}

/// Blocking one-shot HTTP client: connects, sends `method path` with
/// `body`, and returns `(status, response body)`. Used by the load
/// generator, smoke tests, and anything else that needs to talk to the
/// live or serve endpoints without a dependency.
///
/// # Errors
///
/// Propagates connect/read/write failures and malformed responses.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let head = format!(
        "{method} {path} HTTP/1.0\r\nHost: tmm\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    write_fully(&mut stream, head.as_bytes())?;
    write_fully(&mut stream, body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|_| std::io::Error::new(ErrorKind::InvalidData, "non-utf8 response"))?;
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "bad status line"))?;
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deadline no test reaches.
    fn far() -> Instant {
        Instant::now() + Duration::from_secs(30)
    }

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn write_fully_survives_would_block_on_large_bodies() {
        let (client, mut server) = socket_pair();
        // Nonblocking sender: once the kernel buffer fills, `write`
        // returns WouldBlock mid-body — exactly the short-write shape that
        // used to truncate large /metrics responses.
        server.set_nonblocking(true).unwrap();
        let big = "m".repeat(4 * 1024 * 1024);
        let want = big.len();
        let reader = std::thread::spawn(move || {
            let mut client = client;
            // Let the writer hit WouldBlock before draining.
            std::thread::sleep(Duration::from_millis(100));
            let mut total = 0usize;
            let mut buf = [0u8; 65536];
            loop {
                match client.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => total += n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            total
        });
        write_fully(&mut server, big.as_bytes()).expect("large body completes");
        drop(server);
        assert_eq!(reader.join().unwrap(), want, "no bytes truncated");
    }

    #[test]
    fn write_fully_reports_reset_clients() {
        let (client, mut server) = socket_pair();
        drop(client);
        let big = "m".repeat(8 * 1024 * 1024);
        // Either the first or a later write observes the closed peer; it
        // must surface as an error, not hang or panic.
        assert!(write_fully(&mut server, big.as_bytes()).is_err());
    }

    #[test]
    fn read_request_parses_post_with_content_length() {
        let (mut client, mut server) = socket_pair();
        let body = "slack 3 u7/Z\nat 3 u9/A\n";
        let writer = std::thread::spawn(move || {
            let req = format!(
                "POST /v1/batch HTTP/1.0\r\nHost: x\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            );
            // Dribble the request in two chunks to exercise re-reads.
            client.write_all(&req.as_bytes()[..20]).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            client.write_all(&req.as_bytes()[20..]).unwrap();
        });
        let req = read_request(&mut server, far()).expect("parses");
        writer.join().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/batch");
        assert_eq!(req.body, body);
    }

    #[test]
    fn read_request_strips_query_and_handles_no_body() {
        let (mut client, mut server) = socket_pair();
        client.write_all(b"GET /metrics?x=1 HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        let req = read_request(&mut server, far()).expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.body, "");
    }

    #[test]
    fn read_request_rejects_oversized_content_length() {
        let (mut client, mut server) = socket_pair();
        client
            .write_all(
                format!("POST / HTTP/1.0\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1).as_bytes(),
            )
            .unwrap();
        let err = read_request(&mut server, far()).unwrap_err();
        assert_eq!(err, RequestError::TooLarge);
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn response_roundtrip_via_client_helper() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream, far()).unwrap();
            assert_eq!(req.body, "ping");
            write_response(&mut stream, 200, "text/plain", "pong").unwrap();
        });
        let (status, body) = http_request(addr, "POST", "/echo", "ping").unwrap();
        server.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "pong");
    }

    #[test]
    fn status_lines_name_every_answered_code() {
        for (status, reason) in
            [(408, "Request Timeout"), (413, "Payload Too Large"), (503, "Service Unavailable")]
        {
            let head = response_head(status, "text/plain", 0);
            assert!(head.starts_with(&format!("HTTP/1.0 {status} {reason}\r\n")), "{head}");
        }
    }

    #[test]
    fn dribbling_client_is_cut_off_at_the_request_deadline() {
        let config = ListenerConfig {
            name: "slowloris_test",
            handlers: 1,
            queue: 1,
            // Only the whole-request deadline can end this request.
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_millis(300),
        };
        let listener =
            listen("127.0.0.1:0", config, |_| (200, "text/plain", String::new())).expect("bind");
        let mut client = TcpStream::connect(listener.addr()).unwrap();
        client.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let started = Instant::now();
        let mut reply = Vec::new();
        // A head that never ends, one byte per 50 ms.
        for byte in b"GET /".iter().chain(std::iter::repeat(&b'a')) {
            assert!(started.elapsed() < Duration::from_secs(1), "still connected after 1 s");
            if client.write_all(&[*byte]).is_err() {
                break;
            }
            let mut buf = [0u8; 256];
            match client.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => reply.extend_from_slice(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => break,
            }
        }
        let took = started.elapsed();
        assert!(took >= Duration::from_millis(250), "dropped early: {took:?}");
        let reply = String::from_utf8_lossy(&reply);
        assert!(reply.is_empty() || reply.starts_with("HTTP/1.0 408"), "{reply}");
    }
}
