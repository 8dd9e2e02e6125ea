//! Minimal HTTP/1.0-style framing for the client ↔ server hop.
//!
//! In every architecture the *client* speaks HTTP to whichever server it is
//! pointed at (an edge server, or the remote application server in
//! Clients/RAS). The size of these messages is what makes the Clients/RAS
//! architecture expensive in Figure 8 — the whole rendered HTML page crosses
//! the high-latency path — so requests and responses are rendered to real
//! bytes.

/// What every request carries between its request line and its cookie.
const REQUEST_HEADERS: &str = " HTTP/1.0\r\n\
    Host: trade.example.com\r\n\
    User-Agent: sli-edge-loadgen/1.0\r\n\
    Accept: text/html\r\n";
const COOKIE: &str = "Cookie: JSESSIONID=";

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

/// An HTTP request as issued by the simulated browser / load generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET` or `POST`).
    pub method: String,
    /// Request URI including the query string, e.g. `/trade/app?action=buy`.
    pub uri: String,
    /// Form/query parameters (also folded into the encoded frame).
    pub params: Vec<(String, String)>,
    /// Session cookie, if the client has one.
    pub session_cookie: Option<String>,
}

impl HttpRequest {
    /// Builds a GET request for `uri` with the given query parameters.
    pub fn get(uri: impl Into<String>, params: Vec<(String, String)>) -> HttpRequest {
        HttpRequest {
            method: "GET".to_owned(),
            uri: uri.into(),
            params,
            session_cookie: None,
        }
    }

    /// Attaches a session cookie.
    pub fn with_cookie(mut self, cookie: impl Into<String>) -> HttpRequest {
        self.session_cookie = Some(cookie.into());
        self
    }

    /// Renders the request head + parameters to wire bytes, in one buffer
    /// of [`HttpRequest::encoded_len`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(self.method.as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.uri.as_bytes());
        for (i, (k, v)) in self.params.iter().enumerate() {
            out.push(if i == 0 { b'?' } else { b'&' });
            out.extend_from_slice(k.as_bytes());
            out.push(b'=');
            out.extend_from_slice(v.as_bytes());
        }
        out.extend_from_slice(REQUEST_HEADERS.as_bytes());
        if let Some(c) = &self.session_cookie {
            out.extend_from_slice(COOKIE.as_bytes());
            out.extend_from_slice(c.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out
    }

    /// Size of the encoded request in bytes.
    pub fn encoded_len(&self) -> usize {
        let params: usize = self
            .params
            .iter()
            .map(|(k, v)| 1 + k.len() + 1 + v.len())
            .sum();
        let cookie = self
            .session_cookie
            .as_ref()
            .map_or(0, |c| COOKIE.len() + c.len() + 2);
        self.method.len() + 1 + self.uri.len() + params + REQUEST_HEADERS.len() + cookie + 2
    }

    /// Convenience accessor for a named parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses a request head produced by [`HttpRequest::encode`] back into a
    /// request — the server side of the hop. Query parameters are split out
    /// of the URI; the session cookie is recovered from the `Cookie` header.
    ///
    /// # Errors
    /// Returns a description of the first malformed line.
    pub fn parse(raw: &[u8]) -> Result<HttpRequest, String> {
        let text = std::str::from_utf8(raw).map_err(|e| format!("non-utf8 request: {e}"))?;
        let mut lines = text.split("\r\n");
        let request_line = lines.next().ok_or("empty request")?;
        let mut parts = request_line.split(' ');
        let method = parts.next().ok_or("missing method")?.to_owned();
        let uri_full = parts.next().ok_or("missing uri")?;
        match parts.next() {
            Some(v) if v.starts_with("HTTP/") => {}
            other => return Err(format!("bad http version: {other:?}")),
        }
        let (uri, params) = match uri_full.split_once('?') {
            Some((path, query)) => {
                let params = query
                    .split('&')
                    .filter(|p| !p.is_empty())
                    .map(|pair| match pair.split_once('=') {
                        Some((k, v)) => (k.to_owned(), v.to_owned()),
                        None => (pair.to_owned(), String::new()),
                    })
                    .collect();
                (path.to_owned(), params)
            }
            None => (uri_full.to_owned(), Vec::new()),
        };
        let mut session_cookie = None;
        for line in lines {
            if line.is_empty() {
                break; // end of headers
            }
            if let Some(value) = line.strip_prefix("Cookie: ") {
                for cookie in value.split("; ") {
                    if let Some(id) = cookie.strip_prefix("JSESSIONID=") {
                        session_cookie = Some(id.to_owned());
                    }
                }
            }
        }
        Ok(HttpRequest {
            method,
            uri,
            params,
            session_cookie,
        })
    }
}

/// An HTTP response carrying a rendered HTML page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code (200, 302, 500, ...).
    pub status: u16,
    /// Response body (HTML rendered by the JSP layer).
    pub body: String,
    /// `Set-Cookie` session id, if the server established a session.
    pub set_cookie: Option<String>,
}

impl HttpResponse {
    /// Builds a `200 OK` response around `body`.
    pub fn ok(body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status: 200,
            body: body.into(),
            set_cookie: None,
        }
    }

    /// Builds an error response.
    pub fn error(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            body: body.into(),
            set_cookie: None,
        }
    }

    /// Attaches a `Set-Cookie` header.
    pub fn with_cookie(mut self, cookie: impl Into<String>) -> HttpResponse {
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
    pub fn encode(&self) -> Vec<u8> {
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
    /// side of the hop. Honors `Content-Length` and recovers `Set-Cookie`.
    ///
    /// # Errors
    /// Returns a description of the first malformed line.
    pub fn parse(raw: &[u8]) -> Result<HttpResponse, String> {
        let text = std::str::from_utf8(raw).map_err(|e| format!("non-utf8 response: {e}"))?;
        let (head, body) = text
            .split_once("\r\n\r\n")
            .ok_or("missing header/body separator")?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or("empty response")?;
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
        for line in lines {
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
        if let Some(len) = content_length {
            if body.len() != len {
                return Err(format!(
                    "content-length mismatch: header says {len}, body is {}",
                    body.len()
                ));
            }
        }
        Ok(HttpResponse {
            status,
            body: body.to_owned(),
            set_cookie,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_request_encodes_query_string() {
        let req = HttpRequest::get(
            "/trade/app",
            vec![
                ("action".into(), "quote".into()),
                ("symbol".into(), "s:5".into()),
            ],
        );
        let text = String::from_utf8(req.encode()).unwrap();
        assert!(text.starts_with("GET /trade/app?action=quote&symbol=s:5 HTTP/1.0\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
        assert_eq!(req.param("action"), Some("quote"));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn cookie_appears_in_both_directions() {
        let req = HttpRequest::get("/", vec![]).with_cookie("abc123");
        assert!(String::from_utf8(req.encode())
            .unwrap()
            .contains("Cookie: JSESSIONID=abc123"));
        let resp = HttpResponse::ok("<html></html>").with_cookie("abc123");
        assert!(String::from_utf8(resp.encode())
            .unwrap()
            .contains("Set-Cookie: JSESSIONID=abc123"));
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
            vec![
                ("action".into(), "buy".into()),
                ("uid".into(), "uid:3".into()),
                ("quantity".into(), "100".into()),
            ],
        )
        .with_cookie("sess-uid:3");
        let back = HttpRequest::parse(&req.encode()).unwrap();
        assert_eq!(back, req);
        let bare = HttpRequest::get("/", vec![]);
        assert_eq!(HttpRequest::parse(&bare.encode()).unwrap(), bare);
    }

    #[test]
    fn response_parse_round_trip() {
        let resp = HttpResponse::ok("<html><body>hello</body></html>").with_cookie("abc");
        let back = HttpResponse::parse(&resp.encode()).unwrap();
        assert_eq!(back, resp);
        let err = HttpResponse::error(409, "conflict");
        assert_eq!(HttpResponse::parse(&err.encode()).unwrap(), err);
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
    fn encoded_len_matches_encode() {
        let req = HttpRequest::get("/a", vec![("k".into(), "v".into())]);
        assert_eq!(req.encoded_len(), req.encode().len());
    }

    #[test]
    fn message_bytes_are_pinned() {
        // Byte for byte what the `format!`-per-line encoder wrote: these
        // are the bytes the client path's bandwidth counts.
        let req = HttpRequest::get(
            "/trade/app",
            vec![
                ("action".into(), "buy".into()),
                ("uid".into(), "uid:3".into()),
                ("symbol".into(), "s:5".into()),
                ("quantity".into(), "100".into()),
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
