//! Hand-rolled HTTP/1.1: a pure, fuzz-tested request parser plus small
//! connection and response helpers over any `Read + Write` stream.
//!
//! The wire-facing surface is deliberately tiny: `GET`/`POST`, explicit
//! `Content-Length` bodies only (chunked transfer encoding is rejected),
//! keep-alive by default. [`parse_head`] is a pure function of the bytes
//! received so far — it either needs more bytes, yields a complete head,
//! or rejects the input — which makes torn reads, oversized heads and
//! malformed framing directly property-testable without sockets.

use std::io::{self, Read, Write};
use std::time::Instant;

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
        let wire = render_response(status, content_type, extra_headers, body);
        self.stream.write_all(&wire)?;
        self.stream.flush()
    }

    /// Writes only the first `prefix` bytes of the response — the chaos
    /// harness's torn-write injection. The caller must close the
    /// connection afterwards; the peer sees a response whose body stops
    /// short of its declared `Content-Length`.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_torn_response(
        &mut self,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
        body: &[u8],
        prefix: usize,
    ) -> io::Result<()> {
        let wire = render_response(status, content_type, extra_headers, body);
        self.stream.write_all(&wire[..prefix.min(wire.len())])?;
        self.stream.flush()
    }

    /// Convenience: a JSON body.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_json(&mut self, status: u16, body: &str) -> io::Result<()> {
        self.write_response(status, "application/json", &[], body.as_bytes())
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
}
