//! Minimal HTTP/1.0-style framing for the client ↔ server hop.
//!
//! In every architecture the *client* speaks HTTP to whichever server it is
//! pointed at (an edge server, or the remote application server in
//! Clients/RAS). The size of these messages is what makes the Clients/RAS
//! architecture expensive in Figure 8 — the whole rendered HTML page crosses
//! the high-latency path — so requests and responses are rendered to real
//! bytes.
//!
//! A message is its bytes, and parsing borrows them: a request is its text
//! plus where its method, URI, query and cookie lie in it, and a parsed
//! response's body is a slice of the bytes that crossed the wire.

use std::borrow::Cow;
use std::ops::Range;

/// What every request carries between its request line and its cookie.
const REQUEST_HEADERS: &str = " HTTP/1.0\r\n\
    Host: trade.example.com\r\n\
    User-Agent: sli-edge-loadgen/1.0\r\n\
    Accept: text/html\r\n";
const COOKIE: &str = "Cookie: JSESSIONID=";
/// Room a request is built with beyond its URI and constant lines: enough
/// for any Trade query and a session cookie line, so neither grows it.
const QUERY_AND_COOKIE_ROOM: usize = 128;
/// The blank line that ends a message's head.
const BLANK_LINE: &str = "\r\n\r\n";

/// The constant parts of a response head, in order.
const STATUS_LEAD: &str = "HTTP/1.0 ";
const RESPONSE_HEADERS: &str = "\r\n\
    Server: sli-edge/1.0\r\n\
    Content-Type: text/html; charset=iso-8859-1\r\n\
    Content-Length: ";
const SET_COOKIE: &str = "Set-Cookie: JSESSIONID=";
const SET_COOKIE_TAIL: &str = "; Path=/\r\n";

/// Digits of `n` in decimal.
fn decimal_len(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Appends `n` in decimal.
fn put_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Where `part`, a slice of `text`, lies in it.
fn range_in(text: &str, part: &str) -> Range<usize> {
    let start = part.as_ptr() as usize - text.as_ptr() as usize;
    start..start + part.len()
}

/// An HTTP request as issued by the simulated browser / load generator:
/// its text, and where its parts lie in it.
///
/// [`HttpRequest::get`] writes the text once; [`HttpRequest::parse`]
/// borrows the bytes it is given and copies nothing. Two requests are equal
/// when their bytes are.
#[derive(Debug, Clone)]
pub struct HttpRequest<'a> {
    /// The request line and headers, blank line included.
    text: Cow<'a, str>,
    method: Range<usize>,
    /// The path, without the query string.
    uri: Range<usize>,
    /// What follows the `?`; empty without one.
    query: Range<usize>,
    /// The `JSESSIONID` value of the `Cookie` header.
    cookie: Option<Range<usize>>,
}

impl HttpRequest<'static> {
    /// Builds a GET request for `uri` with the given query parameters,
    /// written once into a buffer with room for a cookie line.
    pub fn get<K: AsRef<str>, V: AsRef<str>>(
        uri: impl AsRef<str>,
        params: impl IntoIterator<Item = (K, V)>,
    ) -> HttpRequest<'static> {
        const METHOD: &str = "GET";
        let uri = uri.as_ref();
        let mut text = String::with_capacity(
            METHOD.len() + 1 + uri.len() + REQUEST_HEADERS.len() + 2 + QUERY_AND_COOKIE_ROOM,
        );
        text.push_str(METHOD);
        text.push(' ');
        text.push_str(uri);
        let uri = METHOD.len() + 1..text.len();
        let mut query = uri.end..uri.end;
        for (k, v) in params {
            if query.is_empty() {
                text.push('?');
                query.start = text.len();
            } else {
                text.push('&');
            }
            text.push_str(k.as_ref());
            text.push('=');
            text.push_str(v.as_ref());
            query.end = text.len();
        }
        text.push_str(REQUEST_HEADERS);
        text.push_str("\r\n");
        HttpRequest {
            text: Cow::Owned(text),
            method: 0..METHOD.len(),
            uri,
            query,
            cookie: None,
        }
    }
}

impl<'a> HttpRequest<'a> {
    /// Attaches a session cookie: its line is written in place of the
    /// blank line's first CRLF. A cookie already set is replaced.
    pub fn with_cookie(mut self, cookie: impl AsRef<str>) -> HttpRequest<'a> {
        let text = self.text.to_mut();
        if let Some(old) = self.cookie.take() {
            let start = text[..old.start].rfind("\r\n").map_or(0, |at| at + 2);
            let end = HeadLines::new(&text.as_bytes()[old.end..])
                .next()
                .map_or(text.len(), |line| old.end + line.end + 2);
            text.replace_range(start..end, "");
        }
        text.truncate(text.len() - 2);
        text.push_str(COOKIE);
        let start = text.len();
        text.push_str(cookie.as_ref());
        self.cookie = Some(start..text.len());
        text.push_str(BLANK_LINE);
        self
    }

    /// The request's wire bytes: hands over the buffer it was written in.
    pub fn encode(self) -> Vec<u8> {
        self.text.into_owned().into_bytes()
    }

    /// Size of the encoded request in bytes.
    pub fn encoded_len(&self) -> usize {
        self.text.len()
    }

    /// Request method (`GET` or `POST`).
    pub fn method(&self) -> &str {
        &self.text[self.method.clone()]
    }

    /// Request path, without the query string, e.g. `/trade/app`.
    pub fn uri(&self) -> &str {
        &self.text[self.uri.clone()]
    }

    /// Query parameters in order; a pair without `=` has an empty value.
    pub fn params(&self) -> impl Iterator<Item = (&str, &str)> {
        self.text[self.query.clone()]
            .split('&')
            .filter(|pair| !pair.is_empty())
            .map(|pair| pair.split_once('=').unwrap_or((pair, &pair[pair.len()..])))
    }

    /// The first parameter named `name`.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Session cookie, if the client has one.
    pub fn session_cookie(&self) -> Option<&str> {
        self.cookie.clone().map(|at| &self.text[at])
    }

    /// Parses a request head produced by [`HttpRequest::encode`] — the
    /// server side of the hop — as a view of `raw`: query parameters are
    /// read out of the URI and the session cookie out of the `Cookie`
    /// header where they lie. Bytes after the head are not part of it.
    ///
    /// # Errors
    /// Returns a description of the first malformed line, or of a head that
    /// no blank line ends (a truncated request).
    pub fn parse(raw: &'a [u8]) -> Result<HttpRequest<'a>, String> {
        let text = std::str::from_utf8(raw).map_err(|e| format!("non-utf8 request: {e}"))?;
        let mut lines = HeadLines::new(raw);
        let line_end = lines.next().map_or(text.len(), |line| line.end);
        let mut parts = text[..line_end].split(' ');
        let method = parts.next().ok_or("missing method")?;
        let uri_full = parts.next().ok_or("missing uri")?;
        match parts.next() {
            Some(v) if v.starts_with("HTTP/") => {}
            other => return Err(format!("bad http version: {other:?}")),
        }
        let (uri, query) = uri_full
            .split_once('?')
            .unwrap_or((uri_full, &uri_full[uri_full.len()..]));
        let mut cookie = None;
        for line in lines.by_ref() {
            if let Some(value) = text[line].strip_prefix("Cookie: ") {
                for c in value.split("; ") {
                    if let Some(id) = c.strip_prefix("JSESSIONID=") {
                        cookie = Some(range_in(text, id));
                    }
                }
            }
        }
        let head_end = lines
            .end()
            .ok_or("truncated request: no blank line ends the head")?;
        Ok(HttpRequest {
            text: Cow::Borrowed(&text[..head_end]),
            method: range_in(text, method),
            uri: range_in(text, uri),
            query: range_in(text, query),
            cookie,
        })
    }
}

/// By the bytes on the wire.
impl PartialEq for HttpRequest<'_> {
    fn eq(&self, other: &HttpRequest<'_>) -> bool {
        self.text == other.text
    }
}

impl Eq for HttpRequest<'_> {}

/// An HTTP response carrying a rendered HTML page. A parsed response's
/// body borrows the bytes it was parsed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse<'a> {
    /// HTTP status code (200, 302, 500, ...).
    pub status: u16,
    /// Response body (HTML rendered by the JSP layer).
    pub body: Cow<'a, str>,
    /// `Set-Cookie` session id, if the server established a session.
    pub set_cookie: Option<String>,
}

impl<'a> HttpResponse<'a> {
    /// Builds a `200 OK` response around `body`.
    pub fn ok(body: impl Into<Cow<'a, str>>) -> HttpResponse<'a> {
        HttpResponse {
            status: 200,
            body: body.into(),
            set_cookie: None,
        }
    }

    /// Builds an error response.
    pub fn error(status: u16, body: impl Into<Cow<'a, str>>) -> HttpResponse<'a> {
        HttpResponse {
            status,
            body: body.into(),
            set_cookie: None,
        }
    }

    /// Attaches a `Set-Cookie` header.
    pub fn with_cookie(mut self, cookie: impl Into<String>) -> HttpResponse<'a> {
        self.set_cookie = Some(cookie.into());
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            302 => "Found",
            404 => "Not Found",
            409 => "Conflict",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Renders the status line, headers and body to wire bytes, in one
    /// buffer of [`HttpResponse::encoded_len`] bytes.
    pub fn encode(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(STATUS_LEAD.as_bytes());
        put_decimal(&mut out, usize::from(self.status));
        out.push(b' ');
        out.extend_from_slice(self.reason().as_bytes());
        out.extend_from_slice(RESPONSE_HEADERS.as_bytes());
        put_decimal(&mut out, self.body.len());
        out.extend_from_slice(b"\r\n");
        if let Some(c) = &self.set_cookie {
            out.extend_from_slice(SET_COOKIE.as_bytes());
            out.extend_from_slice(c.as_bytes());
            out.extend_from_slice(SET_COOKIE_TAIL.as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    /// Size of the encoded response in bytes.
    pub fn encoded_len(&self) -> usize {
        let cookie = self
            .set_cookie
            .as_ref()
            .map_or(0, |c| SET_COOKIE.len() + c.len() + SET_COOKIE_TAIL.len());
        STATUS_LEAD.len()
            + decimal_len(usize::from(self.status))
            + 1
            + self.reason().len()
            + RESPONSE_HEADERS.len()
            + decimal_len(self.body.len())
            + 2
            + cookie
            + 2
            + self.body.len()
    }

    /// Parses a response produced by [`HttpResponse::encode`] — the client
    /// side of the hop. The head and the body are checked as UTF-8 apart,
    /// the body against `Content-Length`, and the body is borrowed from
    /// `raw`; `Set-Cookie` is recovered.
    ///
    /// # Errors
    /// Returns a description of the first malformed line, of a head without
    /// `Content-Length`, or of a body that is not as long as it says.
    pub fn parse(raw: &'a [u8]) -> Result<HttpResponse<'a>, String> {
        fn utf8(bytes: &[u8]) -> Result<&str, String> {
            std::str::from_utf8(bytes).map_err(|e| format!("non-utf8 response: {e}"))
        }
        let mut lines = HeadLines::new(raw);
        let status_line = utf8(&raw[lines.next().ok_or("missing header/body separator")?])?;
        let mut parts = status_line.split(' ');
        match parts.next() {
            Some(v) if v.starts_with("HTTP/") => {}
            other => return Err(format!("bad http version: {other:?}")),
        }
        let status: u16 = parts
            .next()
            .ok_or("missing status code")?
            .parse()
            .map_err(|e| format!("bad status code: {e}"))?;
        let mut set_cookie = None;
        let mut content_length = None;
        for line in lines.by_ref() {
            let line = utf8(&raw[line])?;
            if let Some(value) = line.strip_prefix("Set-Cookie: JSESSIONID=") {
                set_cookie = Some(
                    value
                        .split_once(';')
                        .map(|(id, _)| id)
                        .unwrap_or(value)
                        .to_owned(),
                );
            } else if let Some(value) = line.strip_prefix("Content-Length: ") {
                content_length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("bad length: {e}"))?,
                );
            }
        }
        let head_end = lines.end().ok_or("missing header/body separator")?;
        let body = utf8(&raw[head_end..])?;
        let len = content_length.ok_or("truncated response: no Content-Length in the head")?;
        if body.len() != len {
            return Err(format!(
                "content-length mismatch: header says {len}, body is {}",
                body.len()
            ));
        }
        Ok(HttpResponse {
            status,
            body: Cow::Borrowed(body),
            set_cookie,
        })
    }
}

/// The lines of a message head, each without its CRLF: the first line,
/// then every line up to the empty one that ends the head. A CRLF is found
/// by a scan for `\n` that checks the byte before it.
#[derive(Debug, Clone)]
pub struct HeadLines<'a> {
    bytes: &'a [u8],
    /// Where the next line starts.
    at: usize,
    /// Past the blank line, once it has been reached.
    end: Option<usize>,
}

impl<'a> HeadLines<'a> {
    /// The head lines at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> HeadLines<'a> {
        HeadLines {
            bytes,
            at: 0,
            end: None,
        }
    }

    /// Where the head ends, just past its blank line; `None` until the
    /// lines have run out, and after that when no blank line ends them.
    pub fn end(&self) -> Option<usize> {
        self.end
    }
}

impl Iterator for HeadLines<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        if self.end.is_some() {
            return None;
        }
        let start = self.at;
        let mut lf = start;
        let cr = loop {
            lf += 1 + self.bytes.get(lf + 1..)?.iter().position(|&b| b == b'\n')?;
            if self.bytes[lf - 1] == b'\r' {
                break lf - 1;
            }
        };
        self.at = cr + 2;
        if cr == start && start > 0 {
            self.end = Some(self.at);
            return None;
        }
        Some(start..cr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request without query parameters.
    const NO_PARAMS: [(&str, &str); 0] = [];

    #[test]
    fn get_request_encodes_query_string() {
        let req = HttpRequest::get("/trade/app", [("action", "quote"), ("symbol", "s:5")]);
        assert_eq!(req.method(), "GET");
        assert_eq!(req.uri(), "/trade/app");
        assert_eq!(req.param("action"), Some("quote"));
        assert_eq!(req.param("missing"), None);
        assert_eq!(req.session_cookie(), None);
        let text = String::from_utf8(req.encode()).unwrap();
        assert!(text.starts_with("GET /trade/app?action=quote&symbol=s:5 HTTP/1.0\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn cookie_appears_in_both_directions() {
        let req = HttpRequest::get("/", NO_PARAMS).with_cookie("abc123");
        assert_eq!(req.session_cookie(), Some("abc123"));
        assert!(String::from_utf8(req.encode())
            .unwrap()
            .contains("Cookie: JSESSIONID=abc123"));
        let resp = HttpResponse::ok("<html></html>").with_cookie("abc123");
        assert!(String::from_utf8(resp.encode())
            .unwrap()
            .contains("Set-Cookie: JSESSIONID=abc123"));
    }

    #[test]
    fn a_second_cookie_replaces_the_first() {
        let once = HttpRequest::get("/a", [("k", "v")]).with_cookie("second");
        let twice = HttpRequest::get("/a", [("k", "v")])
            .with_cookie("a-longer-first-cookie")
            .with_cookie("second");
        assert_eq!(twice, once);
        assert_eq!(twice.session_cookie(), Some("second"));
        // On a parsed request too, where the text is borrowed until then.
        let raw = once.clone().encode();
        let parsed = HttpRequest::parse(&raw).unwrap().with_cookie("third");
        assert_eq!(
            parsed,
            HttpRequest::get("/a", [("k", "v")]).with_cookie("third")
        );
    }

    #[test]
    fn response_length_includes_body() {
        let body = "x".repeat(5_000);
        let resp = HttpResponse::ok(body);
        assert!(resp.encoded_len() > 5_000);
        assert!(resp.encoded_len() < 5_300);
    }

    #[test]
    fn error_response_has_status_line() {
        let resp = HttpResponse::error(409, "conflict");
        let text = String::from_utf8(resp.encode()).unwrap();
        assert!(text.starts_with("HTTP/1.0 409 Conflict"));
    }

    #[test]
    fn request_parse_round_trip() {
        let req = HttpRequest::get(
            "/trade/app",
            [("action", "buy"), ("uid", "uid:3"), ("quantity", "100")],
        )
        .with_cookie("sess-uid:3");
        let raw = req.clone().encode();
        let back = HttpRequest::parse(&raw).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.method(), "GET");
        assert_eq!(back.uri(), "/trade/app");
        assert!(back.params().eq(req.params()));
        assert_eq!(back.param("uid"), Some("uid:3"));
        assert_eq!(back.session_cookie(), Some("sess-uid:3"));
        let bare = HttpRequest::get("/", NO_PARAMS);
        let raw = bare.clone().encode();
        let back = HttpRequest::parse(&raw).unwrap();
        assert_eq!(back, bare);
        assert_eq!((back.params().count(), back.session_cookie()), (0, None));
    }

    #[test]
    fn response_parse_round_trip() {
        let resp = HttpResponse::ok("<html><body>hello</body></html>").with_cookie("abc");
        let raw = resp.clone().encode();
        let back = HttpResponse::parse(&raw).unwrap();
        assert!(matches!(back.body, Cow::Borrowed(_)));
        assert_eq!(back, resp);
        let err = HttpResponse::error(409, "conflict");
        assert_eq!(HttpResponse::parse(&err.clone().encode()).unwrap(), err);
    }

    #[test]
    fn parse_rejects_malformed_traffic() {
        assert!(HttpRequest::parse(b"not http").is_err());
        assert!(HttpRequest::parse(&[0xff, 0xfe]).is_err());
        assert!(HttpResponse::parse(b"HTTP/1.0 200 OK\r\n").is_err());
        // corrupted content-length
        let resp = HttpResponse::ok("body");
        let mut raw = resp.encode();
        let idx = raw
            .windows(17)
            .position(|w| w == b"Content-Length: 4")
            .unwrap();
        raw[idx + 16] = b'9';
        assert!(HttpResponse::parse(&raw).is_err());
    }

    #[test]
    fn a_truncated_message_is_an_error() {
        // Cut inside the headers: the cookie line that followed is lost,
        // and with it the session.
        let cut = b"GET /trade/app?action=home&uid=uid:3 HTTP/1.0\r\nHost: trade.exa";
        let err = HttpRequest::parse(cut).unwrap_err();
        assert!(err.starts_with("truncated request"), "{err}");
        // Without a Content-Length a body cut short cannot be told apart.
        let err = HttpResponse::parse(b"HTTP/1.0 200 OK\r\n\r\n<html>").unwrap_err();
        assert!(err.starts_with("truncated response"), "{err}");
    }

    #[test]
    fn encoded_len_matches_encode() {
        let req = HttpRequest::get("/a", [("k", "v")]);
        assert_eq!(req.encoded_len(), req.clone().encode().len());
    }

    #[test]
    fn message_bytes_are_pinned() {
        // Byte for byte what the `format!`-per-line encoder wrote: these
        // are the bytes the client path's bandwidth counts.
        let req = HttpRequest::get(
            "/trade/app",
            [
                ("action", "buy"),
                ("uid", "uid:3"),
                ("symbol", "s:5"),
                ("quantity", "100"),
            ],
        )
        .with_cookie("sess-uid:3");
        assert_eq!(
            String::from_utf8(req.encode()).unwrap(),
            "GET /trade/app?action=buy&uid=uid:3&symbol=s:5&quantity=100 HTTP/1.0\r\n\
             Host: trade.example.com\r\n\
             User-Agent: sli-edge-loadgen/1.0\r\n\
             Accept: text/html\r\n\
             Cookie: JSESSIONID=sess-uid:3\r\n\
             \r\n"
        );
        let resp = HttpResponse::ok("<html></html>").with_cookie("sess-uid:3");
        assert_eq!(
            String::from_utf8(resp.encode()).unwrap(),
            "HTTP/1.0 200 OK\r\n\
             Server: sli-edge/1.0\r\n\
             Content-Type: text/html; charset=iso-8859-1\r\n\
             Content-Length: 13\r\n\
             Set-Cookie: JSESSIONID=sess-uid:3; Path=/\r\n\
             \r\n\
             <html></html>"
        );
    }
}
