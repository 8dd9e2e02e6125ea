//! A minimal, self-contained JSON value.
//!
//! Objects use `BTreeMap`, so rendering is deterministic (sorted keys) —
//! important because emitted reports are diffed across runs and validated
//! in CI. The parser exists so a bench bin can re-parse the exact bytes it
//! wrote to disk and validate them, closing the loop on serialization bugs.

use std::collections::BTreeMap;
use std::fmt;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// Parsing, validating and dropping a value recurse once per level, so the
/// text must not choose the depth; the documents the bins write nest six.
pub const MAX_JSON_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (rendered as an integer when exactly integral).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministically ordered keys.
    Obj(BTreeMap<String, Json>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on an object; `None` on other kinds.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is a non-negative integer below 2^53,
    /// the range in which an `f64` (all a [`Json::Num`] holds) is exact.
    /// Wider values travel as hex strings.
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        (v >= 0.0 && v.fract() == 0.0 && v < EXACT_INT_LIMIT).then_some(v as u64)
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The required member `key` of the object at `at`, or the shared
    /// "missing key" message.
    pub fn req(&self, key: &str, at: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("{at}: missing key {key:?}"))
    }

    /// The required numeric member `key` of the object at `at`.
    pub fn req_num(&self, key: &str, at: &str) -> Result<f64, String> {
        self.req(key, at)?
            .as_f64()
            .ok_or_else(|| format!("{at}: {key:?} must be a number"))
    }

    /// The required member `key` of the object at `at` as a `u64` (see
    /// [`Json::as_u64`]).
    pub fn req_u64(&self, key: &str, at: &str) -> Result<u64, String> {
        let v = self.req_num(key, at)?;
        Json::Num(v)
            .as_u64()
            .ok_or_else(|| format!("{at}: {key:?} = {v} must be a non-negative integer below 2^53"))
    }

    /// The required string member `key` of the object at `at`.
    pub fn req_str(&self, key: &str, at: &str) -> Result<&str, String> {
        self.req(key, at)?
            .as_str()
            .ok_or_else(|| format!("{at}: {key:?} must be a string"))
    }

    /// The required array member `key` of the object at `at`.
    pub fn req_arr(&self, key: &str, at: &str) -> Result<&[Json], String> {
        self.req(key, at)?
            .as_arr()
            .ok_or_else(|| format!("{at}: {key:?} must be an array"))
    }

    /// Renders to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(*v, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, MAX_JSON_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// 2^53: below it every integer is exactly representable in an `f64`.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

fn write_number(v: f64, out: &mut String) {
    use fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf
    } else if v.fract() == 0.0 && v.abs() < EXACT_INT_LIMIT {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_string(s: &str, out: &mut String) {
    use fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected {token:?} at byte {pos}"))
    }
}

/// Parses one value whose arrays and objects may nest `levels` deep.
fn parse_value(bytes: &[u8], pos: &mut usize, levels: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'[' | b'{') if levels == 0 => Err(format!(
            "nested deeper than {MAX_JSON_DEPTH} levels at byte {pos}"
        )),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, levels - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                map.insert(key, parse_value(bytes, pos, levels - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or escape at once
                // (neither byte occurs inside a multi-byte character).
                let end = bytes[*pos..]
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\'))
                    .map_or(bytes.len(), |n| *pos + n);
                let run = std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .map_err(|e| e.to_string())?
        .parse::<f64>()
        .map_err(|_| format!("bad number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_sorted_compact_objects() {
        let j = Json::obj([
            ("zeta", Json::from(1u64)),
            ("alpha", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(j.render(), r#"{"alpha":[null,true],"zeta":1}"#);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::from(3.0).render(), "3");
        assert_eq!(Json::Num(3.25).render(), "3.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::from("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn round_trips_through_parse() {
        let j = Json::obj([
            ("name", Json::from("fig6 \"smoke\"")),
            ("values", Json::Arr(vec![Json::from(1u64), Json::Num(2.5)])),
            ("nested", Json::obj([("ok", Json::Bool(false))])),
            ("nothing", Json::Null),
        ]);
        let text = j.render();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let j = Json::parse(" { \"k\" : [ 1 , \"\\u00e9µ\" ] } ").unwrap();
        assert_eq!(
            j.get("k").unwrap().as_arr().unwrap()[1].as_str(),
            Some("éµ")
        );
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // One 2 MiB string: minutes when every character re-validated the
        // rest of the document, milliseconds when runs are copied whole.
        let long = "xyé".repeat((2 << 20) / 4);
        assert_eq!(long.len(), 2 << 20);
        let j = Json::obj([("blob", Json::from(long.as_str()))]);
        let parsed = Json::parse(&j.render()).unwrap();
        assert_eq!(parsed.get("blob").unwrap().as_str(), Some(long.as_str()));
    }

    #[test]
    fn mixed_strings_parse_to_pinned_values() {
        let text = r#"{"a\"b":"tab\there \u00e9\u4e2d µ中😀 \\ \/ end","":"\ud800|\b\f\r\n"}"#;
        let j = Json::parse(text).unwrap();
        assert_eq!(
            j.get("a\"b").unwrap().as_str(),
            Some("tab\there é中 µ中😀 \\ / end")
        );
        // A lone surrogate decodes to the replacement character.
        assert_eq!(j.get("").unwrap().as_str(), Some("\u{fffd}|\u{8}\u{c}\r\n"));
        for (bad, error) in [
            (r#""open"#, "unterminated string"),
            (r#""open µ"#, "unterminated string"),
            (r#""bad \x""#, "bad escape Some(120)"),
            (r#""\u00"#, "truncated \\u escape"),
            (r#""\u00eµ""#, "incomplete utf-8 byte sequence from index 3"),
            (r#""\uzzzz""#, "invalid digit found in string"),
        ] {
            assert_eq!(Json::parse(bad), Err(error.to_owned()), "{bad}");
        }
        // A multi-byte character cut off by the end of the input (only
        // reachable below `Json::parse`, which takes a `&str`).
        let cut = parse_string(b"\"ab\xC3", &mut 0);
        assert_eq!(
            cut,
            Err("incomplete utf-8 byte sequence from index 2".to_owned())
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("nope").is_err());
    }

    #[test]
    fn accessors() {
        let j = Json::obj([("n", Json::from(4u64))]);
        assert_eq!(j.get("n").unwrap().as_f64(), Some(4.0));
        assert_eq!(j.get("missing"), None);
        assert_eq!(j.as_str(), None);
        assert_eq!(Json::from("x").as_str(), Some("x"));
        assert_eq!(j.req_u64("n", "j"), Ok(4));
        for bad in [-1.0, 1.5, EXACT_INT_LIMIT] {
            let j = Json::obj([("n", Json::Num(bad))]);
            assert!(j.req_u64("n", "j").is_err(), "{bad}");
        }
        let j = Json::obj([("n", Json::Num(EXACT_INT_LIMIT - 1.0))]);
        assert_eq!(j.req_u64("n", "j"), Ok((1 << 53) - 1));
    }
}
