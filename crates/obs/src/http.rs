//! A hardened, minimal HTTP/1.1 request parser and response writer.
//!
//! `scanbistd` and the `--serve-metrics` endpoint ([`crate::serve`])
//! both read requests through [`parse_request`]: they speak exactly the
//! HTTP they need and reject everything else *explicitly* — every
//! malformed shape maps to a specific status code instead of a hung
//! connection or an unbounded read:
//!
//! | condition                         | status |
//! |-----------------------------------|--------|
//! | unparsable head / bad header      | 400    |
//! | read timed out (slow loris)       | 408    |
//! | `Content-Length` over the limit   | 413    |
//! | request line over the limit       | 414    |
//! | head over the limit / too many headers | 431 |
//! | `Transfer-Encoding` (chunked etc.)| 501    |
//! | duplicate `Content-Length`        | 400    |
//!
//! The parser reads from any [`Read`] (tests feed byte slices, the
//! servers feed sockets with OS read timeouts) and never allocates
//! beyond the configured limits. A `HEAD` request is answered by
//! [`write_reply`] with the `GET` status, headers and
//! `Content-Length`, and no body (RFC 9110 §9.3.2).

use std::io::{Read, Write};

/// Size caps enforced while reading a request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Longest accepted request line (method + target + version).
    pub request_line: usize,
    /// Longest accepted head (request line + all headers).
    pub head: usize,
    /// Largest accepted declared body.
    pub body: usize,
    /// Most headers accepted.
    pub headers: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            request_line: 2 * 1024,
            head: 8 * 1024,
            body: 1024 * 1024,
            headers: 64,
        }
    }
}

/// A parsed request: method, target, headers (order preserved), body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, query string included.
    pub target: String,
    /// Headers in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (case-insensitive lookup; names
    /// are stored lowercased).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The target with any query string stripped.
    #[must_use]
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }
}

/// Every way a request can be refused, with its wire status code.
#[derive(Clone, Copy, Eq, PartialEq, Debug)]
#[non_exhaustive]
pub enum HttpError {
    /// Peer closed before sending a complete head; nothing to answer.
    Closed,
    /// Read timed out mid-request (slow loris) → 408.
    Timeout,
    /// Head is not well-formed HTTP/1.x → 400.
    Malformed(&'static str),
    /// Request line exceeds [`Limits::request_line`] → 414.
    RequestLineTooLong,
    /// Head exceeds [`Limits::head`] or [`Limits::headers`] → 431.
    HeadTooLarge,
    /// Declared body exceeds [`Limits::body`] → 413.
    BodyTooLarge,
    /// `Transfer-Encoding` is not supported (chunked bodies) → 501.
    UnsupportedTransferEncoding,
    /// More than one `Content-Length` header → 400 (smuggling guard).
    DuplicateContentLength,
}

impl HttpError {
    /// The response status for this rejection, or `None` when the
    /// connection should just be dropped (peer already gone).
    #[must_use]
    pub fn status(self) -> Option<u16> {
        match self {
            HttpError::Closed => None,
            HttpError::Timeout => Some(408),
            HttpError::Malformed(_) | HttpError::DuplicateContentLength => Some(400),
            HttpError::RequestLineTooLong => Some(414),
            HttpError::HeadTooLarge => Some(431),
            HttpError::BodyTooLarge => Some(413),
            HttpError::UnsupportedTransferEncoding => Some(501),
        }
    }

    /// A short plain-text body explaining the rejection.
    #[must_use]
    pub fn message(self) -> &'static str {
        match self {
            HttpError::Closed => "connection closed",
            HttpError::Timeout => "request timed out",
            HttpError::Malformed(why) => why,
            HttpError::RequestLineTooLong => "request line too long",
            HttpError::HeadTooLarge => "request head too large",
            HttpError::BodyTooLarge => "request body exceeds limit",
            HttpError::UnsupportedTransferEncoding => "transfer encodings are not supported",
            HttpError::DuplicateContentLength => "duplicate content-length",
        }
    }
}

fn io_error(e: &std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Closed,
    }
}

/// Reads and validates one request.
///
/// # Errors
///
/// Returns an [`HttpError`] naming the precise rejection; see the
/// module table for the status mapping.
pub fn parse_request(reader: &mut impl Read, limits: &Limits) -> Result<Request, HttpError> {
    let (head, leftover) = read_head(reader, limits)?;
    let text = std::str::from_utf8(&head).map_err(|_| HttpError::Malformed("head is not utf-8"))?;

    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    if request_line.len() > limits.request_line {
        return Err(HttpError::RequestLineTooLong);
    }
    let (method, target) = parse_request_line(request_line)?;

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut content_length_count = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= limits.headers {
            return Err(HttpError::HeadTooLarge);
        }
        let (name, value) = parse_header_line(line)?;
        if name == "transfer-encoding" {
            return Err(HttpError::UnsupportedTransferEncoding);
        }
        if name == "content-length" {
            content_length_count += 1;
            if content_length_count > 1 {
                return Err(HttpError::DuplicateContentLength);
            }
            // `1*DIGIT` (RFC 9110 §8.6): `usize::from_str` alone would
            // also take a leading `+`.
            let len: usize = Some(value.as_str())
                .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse().ok())
                .ok_or(HttpError::Malformed("bad content-length"))?;
            if len > limits.body {
                return Err(HttpError::BodyTooLarge);
            }
            content_length = Some(len);
        }
        headers.push((name, value));
    }

    let body = read_body(reader, leftover, content_length.unwrap_or(0))?;
    Ok(Request {
        method,
        target,
        headers,
        body,
    })
}

/// Reads until the `\r\n\r\n` head terminator; returns the head bytes
/// and whatever body prefix was read past it.
fn read_head(reader: &mut impl Read, limits: &Limits) -> Result<(Vec<u8>, Vec<u8>), HttpError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(end) = find_terminator(&buf) {
            let leftover = buf.split_off(end + 4);
            buf.truncate(end);
            return Ok((buf, leftover));
        }
        if buf.len() > limits.head {
            // No terminator within the cap: distinguish an endless
            // request line (414) from an endless header block (431).
            return Err(if buf.contains(&b'\n') {
                HttpError::HeadTooLarge
            } else {
                HttpError::RequestLineTooLong
            });
        }
        let n = reader.read(&mut chunk).map_err(|e| io_error(&e))?;
        if n == 0 {
            return Err(if buf.is_empty() {
                HttpError::Closed
            } else {
                HttpError::Malformed("truncated head")
            });
        }
        // lint:allow(L012): `read()` guarantees `n <= chunk.len()`
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_request_line(line: &str) -> Result<(String, String), HttpError> {
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or("");
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing http version"))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed("extra tokens in request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("bad method"));
    }
    if !target.starts_with('/') || target.bytes().any(|b| b <= b' ' || b == 0x7f) {
        return Err(HttpError::Malformed("bad request target"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed("unsupported http version"));
    }
    Ok((method.to_owned(), target.to_owned()))
}

fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    // Obsolete line folding would let a value smuggle a second line.
    if line.starts_with(' ') || line.starts_with('\t') {
        return Err(HttpError::Malformed("folded header"));
    }
    let (name, value) = line
        .split_once(':')
        .ok_or(HttpError::Malformed("header missing colon"))?;
    if name.is_empty()
        || !name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
    {
        return Err(HttpError::Malformed("bad header name"));
    }
    let value = value.trim();
    // Any control byte in a header value — including a bare CR or LF
    // that survived the CRLF split — is an injection attempt.
    if value.bytes().any(|b| (b < 0x20 && b != b'\t') || b == 0x7f) {
        return Err(HttpError::Malformed("control byte in header value"));
    }
    Ok((name.to_ascii_lowercase(), value.to_owned()))
}

/// Reads the rest of a `declared`-byte body straight into one buffer
/// (`declared` is already capped by [`Limits::body`]).
fn read_body(
    reader: &mut impl Read,
    mut body: Vec<u8>,
    declared: usize,
) -> Result<Vec<u8>, HttpError> {
    if body.len() > declared {
        // More bytes than declared: pipelining is not supported here.
        return Err(HttpError::Malformed("body longer than content-length"));
    }
    let mut filled = body.len();
    body.resize(declared, 0);
    while let Some(rest) = body.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        let n = reader.read(rest).map_err(|e| io_error(&e))?;
        if n == 0 {
            return Err(HttpError::Malformed("truncated body"));
        }
        filled += n;
    }
    Ok(body)
}

/// The canonical reason phrase for every status these servers emit.
#[must_use]
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes a full `Connection: close` response, head and body in one
/// write. `extra_headers` lets callers attach `Retry-After`, trace
/// ids, or chaos markers.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let mut out = response_head(status, content_type, body.len(), extra_headers).into_bytes();
    out.extend_from_slice(body);
    w.write_all(&out)?;
    w.flush()
}

/// Answers a request made with `method`: [`write_response`], except
/// that a `HEAD` gets only the head — the `GET` status, headers and
/// `Content-Length` — and no body (RFC 9110 §9.3.2).
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_reply(
    w: &mut impl Write,
    method: &str,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    if method != "HEAD" {
        return write_response(w, status, content_type, body, &[]);
    }
    w.write_all(response_head(status, content_type, body.len(), &[]).as_bytes())?;
    w.flush()
}

fn response_head(
    status: u16,
    content_type: &str,
    content_length: usize,
    extra_headers: &[(&str, String)],
) -> String {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {content_length}\r\nConnection: close\r\n",
        status_reason(status),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        parse_request(&mut &bytes[..], &Limits::default())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /diagnose HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
            .expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/diagnose");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse(b"GET /metrics?x=1 HTTP/1.1\r\n\r\n").expect("valid request");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn content_length_is_digits_only() {
        for value in ["+5", "5 5", "0x5", ""] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello");
            assert_eq!(
                parse(raw.as_bytes()),
                Err(HttpError::Malformed("bad content-length")),
                "{value:?}"
            );
        }
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 005\r\n\r\nhello")
                .unwrap()
                .body,
            b"hello"
        );
    }

    #[test]
    fn empty_connection_reports_closed() {
        assert_eq!(parse(b""), Err(HttpError::Closed));
    }

    #[test]
    fn status_mapping_is_total() {
        for e in [
            HttpError::Timeout,
            HttpError::Malformed("x"),
            HttpError::RequestLineTooLong,
            HttpError::HeadTooLarge,
            HttpError::BodyTooLarge,
            HttpError::UnsupportedTransferEncoding,
            HttpError::DuplicateContentLength,
        ] {
            assert!(e.status().is_some(), "{e:?}");
            assert!(!e.message().is_empty());
        }
        assert_eq!(HttpError::Closed.status(), None);
    }

    #[test]
    fn response_writer_emits_extra_headers() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "application/json",
            b"{}",
            &[("Retry-After", "1".to_owned())],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }
}
