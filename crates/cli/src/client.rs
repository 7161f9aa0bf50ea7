//! A minimal blocking HTTP/1.1 client for talking to `occache-serve`.
//!
//! One keep-alive connection per client; requests are closed-loop (each
//! waits for its response). Std-only, like the server it talks to.
//!
//! Responses are read by the service crate's one reader,
//! [`occache_serve::http::read_response_from`]: a torn or truncated
//! response (chaos injection, mid-write crash) surfaces as an error the
//! caller can retry on a fresh connection — never a panic, never a
//! silently short body — and an endless head or body is refused at its
//! cap.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use occache_serve::http::read_response_from;
pub use occache_serve::http::Response;

use crate::CliError;

/// How long a single response may take before the client gives up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(600);

/// A keep-alive HTTP/1.1 connection to one server.
#[derive(Debug)]
pub struct HttpClient {
    addr: String,
    reader: BufReader<TcpStream>,
}

impl HttpClient {
    /// Connects to `addr` (`host:port`) with the default 600 s response
    /// timeout.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Io`] when the connection cannot be made.
    pub fn connect(addr: &str) -> Result<HttpClient, CliError> {
        HttpClient::connect_with_timeout(addr, RESPONSE_TIMEOUT)
    }

    /// Connects to `addr` (`host:port`) and bounds every subsequent
    /// read by `timeout`, so a stalled server (chaos `stall-read`, a
    /// hung worker) turns into a retryable error instead of a hang.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Io`] when the connection cannot be made.
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> Result<HttpClient, CliError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            addr: addr.to_string(),
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads the full response. `body` is sent as
    /// `application/json` when present.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Io`] on transport failure or a malformed
    /// response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, CliError> {
        let payload = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n{}Connection: keep-alive\r\n\r\n",
            self.addr,
            payload.len(),
            if body.is_some() {
                "Content-Type: application/json\r\n"
            } else {
                ""
            },
        );
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(payload.as_bytes())?;
        stream.flush()?;
        Ok(read_response_from(&mut self.reader)?)
    }

    /// Convenience: `POST` a JSON body.
    ///
    /// # Errors
    ///
    /// As [`HttpClient::request`].
    pub fn post(&mut self, path: &str, body: &str) -> Result<Response, CliError> {
        self.request("POST", path, Some(body))
    }

    /// Convenience: `GET`.
    ///
    /// # Errors
    ///
    /// As [`HttpClient::request`].
    pub fn get(&mut self, path: &str) -> Result<Response, CliError> {
        self.request("GET", path, None)
    }
}
