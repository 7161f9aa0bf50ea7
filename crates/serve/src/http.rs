//! Hand-rolled HTTP/1.1: a pure, fuzz-tested request parser, the one
//! listener and connection loop both front ends (`occache-serve`'s
//! [`crate::service::Service`] and `occache-route`'s
//! [`crate::router::Router`]) run behind a [`Handler`], and the one
//! response reader every client side uses ([`read_response_from`]).
//!
//! The wire-facing surface is deliberately tiny: `GET`/`POST`, explicit
//! `Content-Length` bodies only (chunked transfer encoding is rejected),
//! keep-alive by default. [`parse_head`] is a pure function of the bytes
//! received so far — it either needs more bytes, yields a complete head,
//! or rejects the input — which makes torn reads, oversized heads and
//! malformed framing directly property-testable without sockets.
//!
//! [`Listener`] accepts on a non-blocking socket, polls for shutdown
//! ([`Listener::stop`] or SIGINT/SIGTERM via
//! `occache_runtime::interrupt`), runs one thread per connection, and on
//! shutdown calls [`Handler::drain`] and waits up to a bounded deadline
//! for in-flight connections. Each connection runs under a wall-clock
//! deadline: a half-sent request gets a 408, bad framing a 413 or 400,
//! an idle keep-alive a quiet close. The connection faults of
//! `OCCACHE_SERVE_FAULT` (`stall-read`, `drop-conn`, `torn-write`) fire
//! here, so they fire on whichever front end is configured with them.

use std::io::{self, BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::ServeFault;
use crate::json::ErrorBody;

/// The per-connection wall-clock deadline of both front ends, and the
/// bound on each socket read: how long a connection may sit idle (or
/// mid-read) before the server gives up on it.
pub const CONN_TIMEOUT: Duration = Duration::from_secs(5);

/// Accept-loop poll interval (shutdown-flag latency bound).
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// How long shutdown waits for in-flight connections to finish.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Upper bound on a response head (status line + headers) that
/// [`read_response_from`] buffers.
const MAX_RESPONSE_HEAD: usize = 64 * 1024;

/// Upper bound on a response body that [`read_response_from`] accepts
/// (the service never sends bodies anywhere near it).
const MAX_RESPONSE_BODY: usize = 64 * 1024 * 1024;

/// Upper bound on the request head (request line + headers + blank
/// line). Heads that exceed this without terminating are rejected.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// Request method, as sent (e.g. `GET`, `POST`).
    pub method: String,
    /// Request target (path + optional query), as sent.
    pub target: String,
    /// Declared body length (0 when absent).
    pub content_length: usize,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless `Connection: close`).
    pub keep_alive: bool,
}

/// What [`parse_head`] concluded about the bytes so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// No complete head yet — read more bytes and call again.
    Incomplete,
    /// A complete head; `head_len` bytes of the buffer were consumed by
    /// it (the body, if any, starts there).
    Ready {
        /// The parsed head.
        head: RequestHead,
        /// Bytes consumed by the head, including the blank line.
        head_len: usize,
    },
}

/// Why a request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The head exceeded [`MAX_HEAD_BYTES`] without terminating.
    TooLarge,
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// Malformed request line, header, or framing.
    Bad(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::TooLarge => write!(f, "request head larger than {MAX_HEAD_BYTES} bytes"),
            ParseError::BodyTooLarge => {
                write!(f, "request body larger than {MAX_BODY_BYTES} bytes")
            }
            ParseError::Bad(why) => write!(f, "malformed request: {why}"),
        }
    }
}

/// Finds the end of the head: the index just past the first blank line.
/// Accepts both `\r\n\r\n` and bare `\n\n` separators.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if buf.get(i + 1) == Some(&b'\n') {
                return Some(i + 2);
            }
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Parses an HTTP/1.x request head from the bytes received so far.
///
/// Pure function: same bytes, same answer. Returns
/// [`ParseOutcome::Incomplete`] until the blank line has arrived, so a
/// caller can feed it arbitrarily torn reads.
///
/// # Errors
///
/// [`ParseError::TooLarge`] once the unterminated head passes
/// [`MAX_HEAD_BYTES`]; [`ParseError::BodyTooLarge`] for an oversized
/// declared body; [`ParseError::Bad`] for malformed framing (bad request
/// line, non-numeric or conflicting `Content-Length`, chunked transfer
/// encoding, binary junk).
pub fn parse_head(buf: &[u8]) -> Result<ParseOutcome, ParseError> {
    let Some(head_len) = head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ParseError::TooLarge);
        }
        return Ok(ParseOutcome::Incomplete);
    };
    if head_len > MAX_HEAD_BYTES {
        return Err(ParseError::TooLarge);
    }
    let head_text = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| ParseError::Bad("head is not UTF-8".into()))?;
    let mut lines = head_text
        .split('\n')
        .map(|l| l.strip_suffix('\r').unwrap_or(l));

    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Bad("empty request line".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Bad("request line has no target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Bad("request line has no version".into()))?;
    if parts.next().is_some() {
        return Err(ParseError::Bad("request line has extra fields".into()));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("unsupported version {version:?}")));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_alphanumeric()) {
        return Err(ParseError::Bad(format!("bad method {method:?}")));
    }

    let mut content_length: Option<usize> = None;
    let mut keep_alive = true;
    for line in lines {
        if line.is_empty() {
            break; // the blank line terminating the head
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Bad(format!("header without colon: {line:?}")))?;
        let name = name.trim();
        let value = value.trim();
        if name.is_empty() || !name.bytes().all(|b| b.is_ascii_graphic()) {
            return Err(ParseError::Bad(format!("bad header name {name:?}")));
        }
        if name.eq_ignore_ascii_case("content-length") {
            let n: usize = value
                .parse()
                .map_err(|_| ParseError::Bad(format!("bad content-length {value:?}")))?;
            if let Some(prev) = content_length {
                if prev != n {
                    return Err(ParseError::Bad("conflicting content-length".into()));
                }
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ParseError::Bad(
                "transfer-encoding is not supported (use content-length)".into(),
            ));
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::BodyTooLarge);
    }
    Ok(ParseOutcome::Ready {
        head: RequestHead {
            method: method.to_string(),
            target: target.to_string(),
            content_length,
            keep_alive,
        },
        head_len,
    })
}

/// A complete request: head plus body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The parsed head.
    pub head: RequestHead,
    /// The body bytes (`content_length` of them).
    pub body: Vec<u8>,
}

/// What one read attempt on a connection produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// A complete request.
    Complete(Request),
    /// The peer sent something unusable; respond 4xx and close.
    Malformed(ParseError),
}

/// One HTTP connection: buffers reads, retains pipelined leftovers
/// between requests, writes responses.
#[derive(Debug)]
pub struct Connection<S> {
    stream: S,
    buf: Vec<u8>,
}

impl<S: Read + Write> Connection<S> {
    /// Wraps a stream.
    pub fn new(stream: S) -> Self {
        Connection {
            stream,
            buf: Vec::new(),
        }
    }

    /// Reads until one complete request (head + declared body) is
    /// buffered. Bytes beyond the request stay buffered for the next
    /// call (pipelining).
    ///
    /// # Errors
    ///
    /// Propagates transport errors (including read timeouts, surfaced by
    /// the OS as `WouldBlock`/`TimedOut`).
    pub fn read_request(&mut self) -> io::Result<ReadOutcome> {
        self.read_request_before(None)
    }

    /// [`Connection::read_request`] with an overall wall-clock deadline.
    ///
    /// The stream's own read timeout bounds each *individual* read; the
    /// deadline bounds the *whole* request, which is what defeats a
    /// slow-loris client trickling one byte per read-timeout window. The
    /// clock is checked between reads, so the deadline can overshoot by
    /// at most one read-timeout.
    ///
    /// # Errors
    ///
    /// `TimedOut` once the deadline passes (check
    /// [`Connection::mid_request`] to distinguish a half-sent request
    /// from an idle keep-alive); transport errors propagate.
    pub fn read_request_before(&mut self, deadline: Option<Instant>) -> io::Result<ReadOutcome> {
        loop {
            match parse_head(&self.buf) {
                Err(e) => return Ok(ReadOutcome::Malformed(e)),
                Ok(ParseOutcome::Ready { head, head_len }) => {
                    let total = head_len + head.content_length;
                    if self.buf.len() >= total {
                        let mut rest = self.buf.split_off(total);
                        std::mem::swap(&mut rest, &mut self.buf);
                        let body = rest[head_len..].to_vec();
                        return Ok(ReadOutcome::Complete(Request { head, body }));
                    }
                }
                Ok(ParseOutcome::Incomplete) => {}
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "connection deadline exceeded",
                    ));
                }
            }
            let mut chunk = [0u8; 8 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Ok(if self.buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Malformed(ParseError::Bad("connection died mid-request".into()))
                });
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Whether a partial request is buffered — a timeout with bytes
    /// pending deserves a 408, an idle keep-alive just a quiet close.
    pub fn mid_request(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Writes a response with the given status, extra headers, and body.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_response(
        &mut self,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
        body: &[u8],
    ) -> io::Result<()> {
        self.write_wire(&render_response(status, content_type, extra_headers, body))
    }

    /// Writes already-rendered response bytes (or, for torn-write
    /// injection, a prefix of them).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_wire(&mut self, wire: &[u8]) -> io::Result<()> {
        self.stream.write_all(wire)?;
        self.stream.flush()
    }
}

/// Renders a complete response (status line, headers, blank line, body)
/// to wire bytes. Pure, so torn-write injection can truncate the exact
/// bytes an intact response would have sent.
pub fn render_response(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> Vec<u8> {
    let reason = reason_phrase(status);
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    wire
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// What a [`Handler`] answers: status, content type, extra headers and
/// body.
#[derive(Debug)]
pub struct Reply {
    /// The status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Headers beyond `Content-Type` and `Content-Length`.
    pub headers: Vec<(&'static str, String)>,
    /// The body.
    pub body: String,
}

impl Reply {
    /// A JSON reply with no extra headers.
    pub fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    /// A `200` Prometheus text-format reply: the `GET /metrics` route's,
    /// on node and router alike. Every other answer on that path (a
    /// `405`, say) is JSON.
    pub fn metrics(text: String) -> Reply {
        Reply {
            content_type: "text/plain; version=0.0.4",
            ..Reply::json(200, text)
        }
    }

    fn render(&self) -> Vec<u8> {
        render_response(
            self.status,
            self.content_type,
            &self.headers,
            self.body.as_bytes(),
        )
    }
}

/// A front end's request logic, plugged in behind a [`Listener`].
pub trait Handler: Send + Sync + std::fmt::Debug + 'static {
    /// Answers one complete request.
    fn handle(&self, request: &Request) -> Reply;

    /// Sees every status the connection loop writes — the handler's own
    /// and the loop's 408/413/400 — just before it is written.
    fn answered(&self, status: u16);

    /// Called when the listener stops accepting, before in-flight
    /// connections drain.
    fn drain(&self) {}

    /// Called once the listener has drained and stopped: stop whatever
    /// the handler runs in the background.
    fn shutdown(&self) {}
}

/// What every connection thread of one listener shares.
#[derive(Debug)]
struct Front<H> {
    handler: Arc<H>,
    conn_timeout: Option<Duration>,
    fault: Option<Arc<ServeFault>>,
    stop: AtomicBool,
}

/// A running front end: the accept loop on its own thread, one thread
/// per connection, every request answered by one [`Handler`]. The node
/// is `Listener<Service>` ([`crate::service::Server`]) and the router
/// `Listener<Router>` ([`crate::router::RouterServer`]).
#[derive(Debug)]
pub struct Listener<H> {
    addr: SocketAddr,
    front: Arc<Front<H>>,
    accept: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl<H: Handler> Listener<H> {
    /// Starts the accept loop on an already-bound socket. `name`
    /// prefixes the thread names (`<name>-accept`, `<name>-conn`);
    /// `conn_timeout` is the per-connection deadline (`None` disables
    /// it); `fault` injects connection faults.
    ///
    /// # Errors
    ///
    /// Propagates socket setup and thread spawn failures.
    pub fn spawn(
        socket: TcpListener,
        name: &str,
        handler: Arc<H>,
        conn_timeout: Option<Duration>,
        fault: Option<Arc<ServeFault>>,
    ) -> io::Result<Listener<H>> {
        socket.set_nonblocking(true)?;
        let addr = socket.local_addr()?;
        let front = Arc::new(Front {
            handler,
            conn_timeout,
            fault,
            stop: AtomicBool::new(false),
        });
        let accept = {
            let front = Arc::clone(&front);
            let name = name.to_string();
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(&socket, &front, &name))?
        };
        Ok(Listener {
            addr,
            front,
            accept: Some(accept),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared handler.
    pub fn handler(&self) -> &Arc<H> {
        &self.front.handler
    }

    /// Whether the accept loop has exited (e.g. after SIGINT).
    pub fn finished(&self) -> bool {
        self.accept.as_ref().is_none_or(|h| h.is_finished())
    }

    /// Graceful shutdown: [`Handler::drain`], stop accepting, drain
    /// in-flight connections, join the accept loop, then
    /// [`Handler::shutdown`].
    ///
    /// # Errors
    ///
    /// Propagates an accept-loop I/O failure (the drain still ran).
    pub fn stop(mut self) -> io::Result<()> {
        self.front.handler.drain();
        self.front.stop.store(true, Ordering::SeqCst);
        let outcome = match self.accept.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("accept loop panicked"))),
            None => Ok(()),
        };
        self.front.handler.shutdown();
        outcome
    }
}

fn accept_loop<H: Handler>(
    socket: &TcpListener,
    front: &Arc<Front<H>>,
    name: &str,
) -> io::Result<()> {
    let active = Arc::new(AtomicUsize::new(0));
    while !front.stop.load(Ordering::SeqCst) && !occache_runtime::interrupt::requested() {
        match socket.accept() {
            Ok((stream, _peer)) => {
                active.fetch_add(1, Ordering::SeqCst);
                let front = Arc::clone(front);
                let conn_active = Arc::clone(&active);
                let spawned = std::thread::Builder::new()
                    .name(format!("{name}-conn"))
                    .spawn(move || {
                        let _ = serve_connection(stream, &front);
                        conn_active.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    active.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) => return Err(e),
        }
    }
    // Drain: the handler flips its readiness first so health checks
    // route away, then in-flight connections get a bounded window.
    front.handler.drain();
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(ACCEPT_POLL);
    }
    Ok(())
}

/// Reports `reply`'s status to the handler, then writes it.
fn send<H: Handler>(
    conn: &mut Connection<TcpStream>,
    front: &Front<H>,
    reply: &Reply,
) -> io::Result<()> {
    front.handler.answered(reply.status);
    conn.write_wire(&reply.render())
}

fn serve_connection<H: Handler>(stream: TcpStream, front: &Front<H>) -> io::Result<()> {
    // The socket read timeout bounds each individual read; the
    // connection deadline bounds the whole request, so a slow-loris
    // trickling bytes inside the read timeout still gets cut off. A
    // deadline shorter than the default read timeout tightens the
    // per-read bound too, so the deadline overshoots by at most itself.
    let read_timeout = front
        .conn_timeout
        .map_or(CONN_TIMEOUT, |t| t.min(CONN_TIMEOUT));
    stream.set_read_timeout(Some(read_timeout))?;
    let fault = front.fault.as_deref();
    let mut conn = Connection::new(stream);
    loop {
        let deadline = front.conn_timeout.map(|t| Instant::now() + t);
        let request = match conn.read_request_before(deadline) {
            Ok(ReadOutcome::Complete(request)) => request,
            Ok(ReadOutcome::Closed) => return Ok(()),
            Ok(ReadOutcome::Malformed(e)) => {
                let (status, code) = match e {
                    ParseError::TooLarge | ParseError::BodyTooLarge => (413, "payload-too-large"),
                    ParseError::Bad(_) => (400, "bad-request"),
                };
                let body = ErrorBody::new(code, &e.to_string(), false).render();
                // Framing is gone: answer, then close.
                return send(&mut conn, front, &Reply::json(status, body));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // A half-sent request deserves a structured 408; an
                // idle keep-alive timing out is a normal close.
                if conn.mid_request() {
                    let body =
                        ErrorBody::new("request-timeout", "request not completed in time", true)
                            .render();
                    return send(&mut conn, front, &Reply::json(408, body));
                }
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if let Some(stall) = fault.and_then(ServeFault::stall_read_now) {
            std::thread::sleep(stall);
        }
        if fault.is_some_and(ServeFault::drop_conn_now) {
            return Ok(()); // injected: vanish without a response
        }
        let reply = front.handler.handle(&request);
        if fault.is_some_and(ServeFault::torn_write_now) {
            // Injected: send only half the response, then close.
            front.handler.answered(reply.status);
            let wire = reply.render();
            return conn.write_wire(&wire[..wire.len() / 2]);
        }
        send(&mut conn, front, &reply)?;
        if !request.head.keep_alive || front.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

/// A parsed HTTP response: status code, body, and the `Retry-After`
/// header when the server sent one (429 backpressure).
#[derive(Debug)]
pub struct Response {
    /// The status code (200, 429, ...).
    pub status: u16,
    /// The response body, which must be UTF-8.
    pub body: String,
    /// Whole seconds from a `Retry-After` header, if present.
    pub retry_after: Option<u64>,
}

/// Reads one HTTP/1.1 response (status line, headers, Content-Length
/// body) from any buffered stream. Any truncation — a torn status
/// line, headers cut short, a body shorter than its `Content-Length` —
/// is an error, never a short read passed off as success. The head is
/// capped at 64 KiB and the body at 64 MiB, so a misbehaving server
/// cannot make the caller buffer without bound.
///
/// # Errors
///
/// Transport failures (a socket timeout included) propagate; any
/// framing violation is `InvalidData`.
pub fn read_response_from<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let mut head_left = MAX_RESPONSE_HEAD;
    let line = head_line(reader, &mut head_left)?;
    let mut parts = line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| bad(format!("unparseable status {code:?}")))?,
        _ => return Err(bad(format!("bad status line {line:?}"))),
    };
    let mut content_length: Option<usize> = None;
    let mut retry_after: Option<u64> = None;
    loop {
        let header = head_line(reader, &mut head_left)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let n = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| bad(format!("bad content-length {value:?}")))?;
                content_length = Some(n);
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse::<u64>().ok();
            }
        }
    }
    let len = content_length.ok_or_else(|| bad("response without content-length".into()))?;
    if len > MAX_RESPONSE_BODY {
        return Err(bad(format!("response body of {len} bytes is too large")));
    }
    let mut body = Vec::new();
    reader.by_ref().take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(bad(format!(
            "body ended after {} of {len} bytes",
            body.len()
        )));
    }
    let body = String::from_utf8(body).map_err(|_| bad("response body is not UTF-8".into()))?;
    Ok(Response {
        status,
        body,
        retry_after,
    })
}

/// Reads one complete head line, charging it to the head budget.
fn head_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> io::Result<String> {
    let mut line = String::new();
    reader.by_ref().take(*budget as u64).read_line(&mut line)?;
    *budget -= line.len();
    if line.ends_with('\n') {
        Ok(line)
    } else if *budget == 0 {
        Err(bad(format!(
            "response head larger than {MAX_RESPONSE_HEAD} bytes"
        )))
    } else {
        Err(bad(format!("truncated response head at {line:?}")))
    }
}

fn bad(message: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed HTTP response: {message}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(buf: &[u8]) -> (RequestHead, usize) {
        match parse_head(buf) {
            Ok(ParseOutcome::Ready { head, head_len }) => (head, head_len),
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn parses_post_with_body_framing() {
        let raw = b"POST /v1/simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let (head, head_len) = ready(raw);
        assert_eq!(head.method, "POST");
        assert_eq!(head.target, "/v1/simulate");
        assert_eq!(head.content_length, 4);
        assert!(head.keep_alive);
        assert_eq!(&raw[head_len..], b"body");
    }

    #[test]
    fn connection_close_is_honoured() {
        let raw = b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (head, _) = ready(raw);
        assert!(!head.keep_alive);
    }

    #[test]
    fn bare_lf_heads_parse_too() {
        let (head, head_len) = ready(b"GET /v1/status HTTP/1.0\n\n");
        assert_eq!(head.method, "GET");
        assert_eq!(head_len, 25);
    }

    #[test]
    fn incomplete_until_blank_line() {
        assert_eq!(
            parse_head(b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 4\r\n"),
            Ok(ParseOutcome::Incomplete)
        );
    }

    #[test]
    fn oversized_head_is_rejected() {
        let big = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert_eq!(parse_head(&big), Err(ParseError::TooLarge));
    }

    #[test]
    fn bad_content_length_is_rejected() {
        for bad in ["-1", "abc", "1e3", ""] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            assert!(
                matches!(parse_head(raw.as_bytes()), Err(ParseError::Bad(_))),
                "{bad:?}"
            );
        }
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(matches!(
            parse_head(raw.as_bytes()),
            Err(ParseError::BodyTooLarge)
        ));
    }

    #[test]
    fn chunked_transfer_is_rejected() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(parse_head(raw), Err(ParseError::Bad(_))));
    }

    #[test]
    fn connection_reads_pipelined_requests() {
        let wire: Vec<u8> =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi".to_vec();
        let mut conn = Connection::new(io::Cursor::new(wire));
        let first = match conn.read_request().unwrap() {
            ReadOutcome::Complete(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(first.head.target, "/a");
        let second = match conn.read_request().unwrap() {
            ReadOutcome::Complete(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(second.head.target, "/b");
        assert_eq!(second.body, b"hi");
        assert!(matches!(conn.read_request().unwrap(), ReadOutcome::Closed));
    }

    #[test]
    fn response_is_well_formed() {
        let mut conn = Connection::new(io::Cursor::new(Vec::new()));
        conn.write_response(
            429,
            "application/json",
            &[("Retry-After", "1".into())],
            b"{}",
        )
        .unwrap();
        let wire = String::from_utf8(conn.stream.into_inner()).unwrap();
        assert!(
            wire.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{wire}"
        );
        assert!(wire.contains("Retry-After: 1\r\n"), "{wire}");
        assert!(wire.ends_with("\r\n\r\n{}"), "{wire}");
    }

    #[test]
    fn parses_full_response_with_retry_after() {
        let wire =
            "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\nRetry-After: 7\r\n\r\nhi";
        let response = read_response_from(&mut wire.as_bytes()).unwrap();
        assert_eq!(response.status, 429);
        assert_eq!(response.body, "hi");
        assert_eq!(response.retry_after, Some(7));
    }

    #[test]
    fn truncated_responses_error_out() {
        let wire = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        for cut in 0..wire.len() {
            let err = read_response_from(&mut wire.as_bytes().take(cut as u64));
            assert!(err.is_err(), "prefix of {cut} bytes parsed as a response");
        }
        assert!(read_response_from(&mut wire.as_bytes()).is_err());
    }

    #[test]
    fn response_heads_over_the_cap_are_refused() {
        let head = |pad: usize| {
            format!(
                "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Pad: {}\r\n\r\nhi",
                "p".repeat(pad)
            )
        };
        // "X-Pad: " and its CRLF, the status line, the Content-Length
        // line and the blank line fill the rest of the cap exactly.
        let fixed = head(0).len() - 2;
        let at_cap = head(MAX_RESPONSE_HEAD - fixed);
        let response = read_response_from(&mut at_cap.as_bytes()).unwrap();
        assert_eq!(response.body, "hi");

        let over = head(MAX_RESPONSE_HEAD - fixed + 1);
        let err = read_response_from(&mut over.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("larger than"), "{err}");
        // An endless header line is cut off at the cap, not buffered.
        let mut endless = "HTTP/1.1 200 OK\r\nX-Pad: "
            .as_bytes()
            .chain(io::repeat(b'p'));
        assert!(read_response_from(&mut io::BufReader::new(&mut endless)).is_err());
    }
}
