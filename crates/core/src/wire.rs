//! The HTTP/1.1 wire layer: incremental request parsing and response
//! serialization, with no external dependencies.
//!
//! The paper's evaluation (§6) serves real HTTP traffic; this module
//! is the byte-level half of that story for the Rust reproduction.
//! [`read_request`] parses one request off a buffered socket —
//! request line, headers, percent-decoded query parameters, and
//! `application/x-www-form-urlencoded` POST bodies — into a
//! [`WireRequest`]; [`Response::serialize`] renders the framework's
//! [`Response`] back into bytes. The [`server`](crate::server) module
//! glues the two around inline dispatch on its connection workers.
//!
//! Hard limits (request-line length, header count/size, body size)
//! are enforced *during* parsing, so a hostile peer cannot make the
//! server buffer unbounded input. Every malformed-input case maps to
//! a concrete status code: `400` for syntax errors (bad escapes,
//! missing `Host`, truncated bodies), `405` unknown method, `413`
//! oversized body, `414` oversized request line, `431` oversized
//! header block, `505` unknown HTTP version.
//!
//! Parameter precedence is defined (and pinned by tests): duplicate
//! query keys resolve to the **last** occurrence, and form-body
//! parameters override query parameters of the same name.

use std::collections::BTreeMap;
use std::io::BufRead;

use crate::http::Response;

/// Longest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted single header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted on one request.
pub const MAX_HEADERS: usize = 100;
/// Largest accepted request body.
pub const MAX_BODY: usize = 1024 * 1024;

/// Why a request could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the connection before sending any byte — the
    /// clean end of a keep-alive session, not an error to answer.
    Closed,
    /// The socket timed out before the first byte of a request (an
    /// idle keep-alive connection); the caller decides whether to
    /// keep waiting or hang up.
    Idle,
    /// A malformed request: the status code to answer with, plus a
    /// human-readable reason (sent as the body).
    Bad {
        /// Response status (400/405/408/413/414/431/505).
        status: u16,
        /// What was wrong.
        reason: String,
    },
    /// The transport failed mid-request (reset, broken pipe …).
    Io(String),
}

impl WireError {
    fn bad(status: u16, reason: impl Into<String>) -> WireError {
        WireError::Bad {
            status,
            reason: reason.into(),
        }
    }

    /// The error response to answer a [`WireError::Bad`] with. A 405
    /// names the implemented methods, per RFC 9110 §15.5.6.
    #[must_use]
    pub fn response(&self) -> Option<Response> {
        match self {
            WireError::Bad { status, reason } => {
                let response = Response {
                    status: *status,
                    body: reason.clone(),
                    headers: Vec::new(),
                };
                Some(if *status == 405 {
                    response.with_header("Allow", "GET, HEAD, POST")
                } else {
                    response
                })
            }
            _ => None,
        }
    }
}

/// One parsed HTTP request, before authentication and routing.
///
/// Deliberately *not* the framework's [`Request`](crate::Request):
/// the wire request carries no viewer. Viewer identity is resolved
/// from the session cookie/header by the
/// [`Authenticator`](crate::Authenticator) at the connection
/// boundary — application code never sees an unauthenticated
/// request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireRequest {
    /// Upper-cased method (`GET`, `HEAD`, `POST`).
    pub method: String,
    /// Percent-decoded path with the leading `/` stripped — the route
    /// name (`papers/all`).
    pub path: String,
    /// Merged query + form parameters (form wins on conflicts;
    /// duplicate keys resolve to the last occurrence).
    pub params: BTreeMap<String, String>,
    /// Raw headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Parsed `Cookie:` pairs (malformed fragments are skipped).
    pub cookies: BTreeMap<String, String>,
    /// Raw request body (empty unless `POST` with a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl WireRequest {
    /// The first header with this (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Percent-decodes `%XX` escapes (and, when `plus_as_space`, `+`).
///
/// # Errors
///
/// Describes the first invalid escape or non-UTF-8 result.
pub fn percent_decode(s: &str, plus_as_space: bool) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| format!("truncated %-escape in {s:?}"))?;
                let hi = hex_digit(hex[0]).ok_or_else(|| format!("bad %-escape in {s:?}"))?;
                let lo = hex_digit(hex[1]).ok_or_else(|| format!("bad %-escape in {s:?}"))?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("%-escapes in {s:?} decode to invalid UTF-8"))
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Parses a query string / form body into parameters. Duplicate keys:
/// last occurrence wins (pinned by a test — callers must not depend
/// on first-wins silently).
///
/// # Errors
///
/// Propagates percent-decoding failures.
pub fn parse_form_params(s: &str, into: &mut BTreeMap<String, String>) -> Result<(), String> {
    for pair in s.split('&') {
        if pair.is_empty() {
            continue;
        }
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let key = percent_decode(k, true)?;
        let value = percent_decode(v, true)?;
        if key.is_empty() {
            continue;
        }
        into.insert(key, value);
    }
    Ok(())
}

/// Parses a `Cookie:` header value. Malformed fragments (no `=`,
/// empty name) are skipped rather than failing the request — cookie
/// jars routinely hold junk the server never set.
#[must_use]
pub fn parse_cookies(header: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for part in header.split(';') {
        let Some((name, value)) = part.split_once('=') else {
            continue;
        };
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        out.insert(name.to_owned(), value.trim().to_owned());
    }
    out
}

/// Reads one `\r\n`-terminated line, refusing to buffer more than
/// `limit` bytes. `Ok(None)` means EOF before any byte. `over_limit`
/// is the status and reason of the error a too-long line gets; the
/// error itself is built only then.
fn read_line(
    reader: &mut impl BufRead,
    limit: usize,
    over_limit: (u16, &'static str),
) -> Result<Option<String>, WireError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(WireError::bad(400, "connection closed mid-line"));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| WireError::bad(400, "non-UTF-8 request line or header"));
                }
                line.push(byte[0]);
                if line.len() > limit {
                    return Err(WireError::bad(over_limit.0, over_limit.1));
                }
            }
            Err(e) if is_timeout(&e) => {
                return Err(if line.is_empty() {
                    WireError::Idle
                } else {
                    WireError::bad(408, "timed out mid-request")
                });
            }
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads and parses one HTTP request off `reader` (incremental: it
/// consumes exactly one request, leaving any pipelined follow-up
/// untouched for the next call — this is what keep-alive loops on).
///
/// # Errors
///
/// [`WireError::Closed`]/[`WireError::Idle`] before the first byte;
/// [`WireError::Bad`] (with the status to answer) on malformed input;
/// [`WireError::Io`] on transport failures.
pub fn read_request(reader: &mut impl BufRead) -> Result<WireRequest, WireError> {
    let Some(request_line) = read_line(reader, MAX_REQUEST_LINE, (414, "request line too long"))?
    else {
        return Err(WireError::Closed);
    };
    if request_line.is_empty() {
        return Err(WireError::bad(400, "empty request line"));
    }
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_ascii_uppercase(), t, v),
        _ => {
            return Err(WireError::bad(
                400,
                format!("malformed request line {request_line:?}"),
            ))
        }
    };
    if !matches!(method.as_str(), "GET" | "HEAD" | "POST") {
        return Err(WireError::bad(405, format!("method {method} not allowed")));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(WireError::bad(505, format!("unsupported version {other}")));
        }
    };

    // Headers.
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let Some(line) = read_line(reader, MAX_HEADER_LINE, (431, "header line too long"))? else {
            return Err(WireError::bad(400, "connection closed inside headers"));
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(WireError::bad(431, "too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(WireError::bad(400, format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    if http11 && header("host").is_none() {
        return Err(WireError::bad(400, "HTTP/1.1 request without Host header"));
    }
    // Framing must be unambiguous, or this parser and an intermediary
    // could disagree about where the request ends (request smuggling):
    // chunked bodies are not implemented, so any Transfer-Encoding is
    // refused rather than ignored, and repeated Content-Length
    // headers must agree (RFC 7230 §3.3.3).
    if header("transfer-encoding").is_some() {
        return Err(WireError::bad(
            501,
            "Transfer-Encoding is not supported; use Content-Length",
        ));
    }
    {
        let mut lengths = headers
            .iter()
            .filter(|(n, _)| n == "content-length")
            .map(|(_, v)| v.trim());
        if let Some(first) = lengths.next() {
            if lengths.any(|l| l != first) {
                return Err(WireError::bad(400, "conflicting Content-Length headers"));
            }
        }
    }
    let keep_alive = match header("connection").map(str::to_ascii_lowercase) {
        Some(c) if c == "close" => false,
        Some(c) if c == "keep-alive" => true,
        _ => http11, // the version's default
    };

    // Target: split query off, decode the path.
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path, false)
        .map_err(|e| WireError::bad(400, e))?
        .trim_start_matches('/')
        .to_owned();
    let mut params = BTreeMap::new();
    if let Some(q) = raw_query {
        parse_form_params(q, &mut params).map_err(|e| WireError::bad(400, e))?;
    }

    // Body (POST only): exactly Content-Length bytes. A body on any
    // other method is refused outright — silently *ignoring* a
    // GET/HEAD Content-Length would leave the body bytes in the
    // buffer to be parsed as the next pipelined request (the classic
    // request-smuggling desync).
    let mut body = Vec::new();
    if method != "POST" {
        let has_body = header("content-length").is_some_and(|v| v.trim() != "0");
        if has_body {
            return Err(WireError::bad(
                400,
                format!("{method} requests must not carry a body"),
            ));
        }
    }
    if method == "POST" {
        let length: usize = match header("content-length") {
            None => 0,
            Some(v) => v
                .trim()
                .parse()
                .map_err(|_| WireError::bad(400, format!("bad Content-Length {v:?}")))?,
        };
        if length > MAX_BODY {
            return Err(WireError::bad(413, format!("body of {length} bytes")));
        }
        body.resize(length, 0);
        if let Err(e) = reader.read_exact(&mut body) {
            return Err(match e.kind() {
                std::io::ErrorKind::UnexpectedEof => {
                    WireError::bad(400, "body shorter than Content-Length")
                }
                _ if is_timeout(&e) => WireError::bad(408, "timed out reading body"),
                _ => WireError::Io(e.to_string()),
            });
        }
        let is_form = header("content-type")
            .is_some_and(|ct| ct.starts_with("application/x-www-form-urlencoded"));
        if is_form && !body.is_empty() {
            let text = std::str::from_utf8(&body)
                .map_err(|_| WireError::bad(400, "non-UTF-8 form body"))?;
            // Form parameters override query parameters of the same
            // name (pinned by a test).
            parse_form_params(text, &mut params).map_err(|e| WireError::bad(400, e))?;
        }
    }

    let cookies = header("cookie").map(parse_cookies).unwrap_or_default();
    Ok(WireRequest {
        method,
        path,
        params,
        headers,
        cookies,
        body,
        keep_alive,
    })
}

impl Response {
    /// Serializes the response as HTTP/1.1 bytes. `Content-Type`
    /// defaults to `text/plain; charset=utf-8` unless a header
    /// overrides it; `Content-Length` and `Connection` are always
    /// emitted. With `head` the body is framed (correct
    /// `Content-Length`) but not sent.
    #[must_use]
    pub fn serialize(&self, keep_alive: bool, head: bool) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\n",
            self.status,
            Response::status_text(self.status)
        );
        if self.header("content-type").is_none() {
            out.push_str("Content-Type: text/plain; charset=utf-8\r\n");
        }
        for (name, value) in &self.headers {
            // Framing headers are owned by the serializer: a
            // controller-supplied Content-Length/Connection would
            // conflict with the authoritative copies emitted below
            // and desync keep-alive clients.
            if name.eq_ignore_ascii_case("content-length")
                || name.eq_ignore_ascii_case("connection")
            {
                continue;
            }
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        out.push_str(if keep_alive {
            "Connection: keep-alive\r\n"
        } else {
            "Connection: close\r\n"
        });
        out.push_str("\r\n");
        let mut bytes = out.into_bytes();
        if !head {
            bytes.extend_from_slice(self.body.as_bytes());
        }
        bytes
    }
}

/// A parsed HTTP response — the *client* half of the wire layer, used
/// by the integration tests, the load harness, and the CI smoke
/// script (the server never parses responses).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl WireResponse {
    /// The first header with this (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one HTTP response off `reader` (client side).
///
/// # Errors
///
/// [`WireError::Closed`] on immediate EOF, [`WireError::Bad`] on a
/// malformed status line / headers, [`WireError::Io`] on transport
/// failures.
pub fn read_response(reader: &mut impl BufRead) -> Result<WireResponse, WireError> {
    let Some(status_line) = read_line(reader, MAX_HEADER_LINE, (400, "status line too long"))?
    else {
        return Err(WireError::Closed);
    };
    let status: u16 = status_line
        .strip_prefix("HTTP/1.1 ")
        .or_else(|| status_line.strip_prefix("HTTP/1.0 "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| WireError::bad(400, format!("malformed status line {status_line:?}")))?;
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(reader, MAX_HEADER_LINE, (431, "header line too long"))? else {
            return Err(WireError::bad(400, "connection closed inside headers"));
        };
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    reader
        .read_exact(&mut body)
        .map_err(|e| WireError::Io(e.to_string()))?;
    Ok(WireResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<WireRequest, WireError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    fn parse_bytes(raw: &[u8]) -> Result<WireRequest, WireError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_a_plain_get() {
        let r = parse("GET /papers/all?id=3 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "papers/all");
        assert_eq!(r.params.get("id").map(String::as_str), Some("3"));
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_form_post_and_body_overrides_query() {
        let body = "title=Faceted+Systems&x=%32";
        let raw = format!(
            "POST /papers/submit?x=1&q=keep HTTP/1.1\r\nHost: x\r\n\
             Content-Type: application/x-www-form-urlencoded\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let r = parse(&raw).unwrap();
        assert_eq!(
            r.params.get("title").map(String::as_str),
            Some("Faceted Systems")
        );
        assert_eq!(
            r.params.get("x").map(String::as_str),
            Some("2"),
            "body wins"
        );
        assert_eq!(r.params.get("q").map(String::as_str), Some("keep"));
    }

    /// The satellite's table of malformed-input cases: each row is
    /// (raw request bytes, expected status).
    #[test]
    fn malformed_requests_map_to_distinct_statuses() {
        let oversized_line = format!(
            "GET /{} HTTP/1.1\r\nHost: x\r\n\r\n",
            "a".repeat(MAX_REQUEST_LINE + 10)
        );
        let oversized_header = format!(
            "GET / HTTP/1.1\r\nHost: x\r\nX-Big: {}\r\n\r\n",
            "b".repeat(MAX_HEADER_LINE + 10)
        );
        let too_many_headers = format!(
            "GET / HTTP/1.1\r\nHost: x\r\n{}\r\n",
            "X-N: 1\r\n".repeat(MAX_HEADERS + 1)
        );
        let huge_body = format!(
            "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let cases: Vec<(&str, u16, &str)> = vec![
            (&oversized_line, 414, "oversized request line"),
            (&oversized_header, 431, "oversized header line"),
            (&too_many_headers, 431, "too many headers"),
            (&huge_body, 413, "body over the limit"),
            ("GET / HTTP/1.1\r\n\r\n", 400, "missing Host on HTTP/1.1"),
            (
                "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nshort",
                400,
                "body shorter than Content-Length",
            ),
            (
                "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: nope\r\n\r\n",
                400,
                "unparseable Content-Length",
            ),
            ("BREW / HTTP/1.1\r\nHost: x\r\n\r\n", 405, "unknown method"),
            ("GET / HTTP/2\r\nHost: x\r\n\r\n", 505, "unknown version"),
            (
                "GET / HTTP/1.1 extra\r\nHost: x\r\n\r\n",
                400,
                "4-part line",
            ),
            ("GET /%zz HTTP/1.1\r\nHost: x\r\n\r\n", 400, "bad escape"),
            (
                "GET /a?x=%f HTTP/1.1\r\nHost: x\r\n\r\n",
                400,
                "short escape",
            ),
            (
                "GET / HTTP/1.1\r\nHost x-no-colon\r\n\r\n",
                400,
                "header without a colon",
            ),
            ("\r\n", 400, "empty request line"),
            (
                // A GET that smuggles body bytes (which would desync
                // the keep-alive framing if ignored).
                "GET /a HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
                400,
                "body on a GET",
            ),
            (
                // Chunked framing is not implemented; ignoring it
                // would leave the chunk bytes in the buffer as a
                // phantom next request.
                "POST /a HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
                 5\r\nhello\r\n0\r\n\r\n",
                501,
                "Transfer-Encoding",
            ),
            (
                // Conflicting repeated Content-Length: this parser and
                // an intermediary could frame the body differently.
                "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\
                 Content-Length: 0\r\n\r\nAAAAA",
                400,
                "conflicting Content-Length",
            ),
        ];
        for (raw, expected, what) in cases {
            match parse(raw) {
                Err(WireError::Bad { status, reason }) => {
                    assert_eq!(status, expected, "{what}: got {status} ({reason})");
                }
                other => panic!("{what}: expected Bad({expected}), got {other:?}"),
            }
        }
    }

    #[test]
    fn eof_before_any_byte_is_closed_not_bad() {
        assert_eq!(parse("").unwrap_err(), WireError::Closed);
        // … but EOF *inside* a request is a hard 400.
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nHost: x\r\n"),
            Err(WireError::Bad { status: 400, .. })
        ));
    }

    #[test]
    fn duplicate_query_keys_last_one_wins() {
        let r = parse("GET /p?id=1&id=2&id=3 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.params.get("id").map(String::as_str), Some("3"));
    }

    #[test]
    fn percent_decoding_round_trips() {
        assert_eq!(percent_decode("a%20b%2Fc", false).unwrap(), "a b/c");
        assert_eq!(percent_decode("a+b", true).unwrap(), "a b");
        assert_eq!(percent_decode("a+b", false).unwrap(), "a+b");
        assert_eq!(percent_decode("%E2%9C%93", false).unwrap(), "✓");
        assert!(percent_decode("%GG", false).is_err());
        assert!(percent_decode("%2", false).is_err());
        assert!(percent_decode("%ff", false).is_err(), "invalid UTF-8");
    }

    #[test]
    fn cookies_parse_and_malformed_fragments_are_skipped() {
        let jar = parse_cookies("session=abc123; theme=dark;  ; garbage; =noname; x=");
        assert_eq!(jar.get("session").map(String::as_str), Some("abc123"));
        assert_eq!(jar.get("theme").map(String::as_str), Some("dark"));
        assert_eq!(jar.get("x").map(String::as_str), Some(""));
        assert_eq!(jar.len(), 3, "junk fragments contribute nothing: {jar:?}");
        // A cookie header that is pure junk still parses (empty jar).
        assert!(parse_cookies(";;;").is_empty());
    }

    #[test]
    fn connection_header_overrides_version_default() {
        let r = parse("GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
        let r = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(
            !r.keep_alive,
            "HTTP/1.0 defaults to close (and needs no Host)"
        );
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let raw = "GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        assert_eq!(read_request(&mut reader).unwrap().path, "a");
        assert_eq!(read_request(&mut reader).unwrap().path, "b");
        assert_eq!(read_request(&mut reader).unwrap_err(), WireError::Closed);
    }

    #[test]
    fn post_without_content_length_has_empty_body() {
        let r = parse("POST /p HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(r.body.is_empty() && r.params.is_empty());
    }

    #[test]
    fn non_utf8_input_is_a_400() {
        assert!(matches!(
            parse_bytes(b"GET /\xff\xfe HTTP/1.1\r\nHost: x\r\n\r\n"),
            Err(WireError::Bad { status: 400, .. })
        ));
    }

    #[test]
    fn response_serializes_and_round_trips() {
        let resp = Response::ok("hello".into()).with_header("Set-Cookie", "session=tok");
        let bytes = resp.serialize(true, false);
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Content-Type: text/plain"), "{text}");
        assert!(text.ends_with("\r\n\r\nhello"));
        let parsed = read_response(&mut BufReader::new(bytes.as_slice())).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.text(), "hello");
        assert_eq!(parsed.header("set-cookie"), Some("session=tok"));
    }

    #[test]
    fn head_serialization_frames_but_omits_the_body() {
        let resp = Response::not_found();
        let bytes = resp.serialize(false, true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Content-Length: 9\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n"), "no body after the blank line");
        assert!(text.contains("Connection: close\r\n"));
    }

    #[test]
    fn content_type_header_overrides_the_default() {
        let resp = Response::ok("<p>x</p>".into()).with_header("Content-Type", "text/html");
        let text = String::from_utf8(resp.serialize(true, false)).unwrap();
        assert!(text.contains("Content-Type: text/html\r\n"));
        assert!(!text.contains("text/plain"));
    }

    #[test]
    fn framing_headers_cannot_be_overridden_by_controllers() {
        // Content-Length/Connection are owned by the serializer; a
        // controller-supplied copy would conflict with the
        // authoritative values and desync keep-alive clients.
        let resp = Response::ok("hello".into())
            .with_header("Content-Length", "0")
            .with_header("Connection", "close");
        let text = String::from_utf8(resp.serialize(true, false)).unwrap();
        assert_eq!(text.matches("Content-Length:").count(), 1, "{text}");
        assert!(text.contains("Content-Length: 5\r\n"));
        assert_eq!(text.matches("Connection:").count(), 1);
        assert!(text.contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn repeated_identical_content_length_is_tolerated() {
        let raw = "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\
                   Content-Length: 2\r\n\r\nok";
        assert_eq!(parse(raw).unwrap().body, b"ok");
    }
}
