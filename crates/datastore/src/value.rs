//! Typed SQL values with a total order and a wire encoding.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use sli_simnet::wire::{DecodeError, Reader, Writer};

/// A dynamically typed SQL value.
///
/// `Value` implements a *total* order (`Eq`/`Ord`) so it can serve as a
/// primary-key and index key type: values order first by type rank
/// (`Null < Bool < Int < Double < Str`) and then by payload, with doubles
/// compared via IEEE-754 total ordering.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer (also used for timestamps).
    Int(i64),
    /// A 64-bit float (DOUBLE).
    Double(f64),
    /// A variable-length string (VARCHAR). The text is shared: a clone —
    /// a row copied out of a table, a lock key, a log image, a bound
    /// parameter — is a reference count, not a copy.
    Str(Arc<str>),
}

impl Value {
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Whether this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload; `Int`s widen losslessly.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric comparison helper: compares `Int` and `Double` by numeric
    /// value (so `Int(2) == Double(2.0)` *for predicate evaluation*, which
    /// is looser than the total order used for keys).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Double(b)) => (*a as f64).partial_cmp(b),
            (Value::Double(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (a, b) if a.type_rank() == b.type_rank() => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Encodes this value onto a wire frame.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Value::Null => {
                w.put_u8(0);
            }
            Value::Bool(v) => {
                w.put_u8(1).put_bool(*v);
            }
            Value::Int(v) => {
                w.put_u8(2).put_i64(*v);
            }
            Value::Double(v) => {
                w.put_u8(3).put_f64(*v);
            }
            Value::Str(v) => {
                w.put_u8(4).put_str(v);
            }
        }
    }

    /// The number of bytes [`Value::encode`] writes.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Double(_) => 8,
            Value::Str(v) => 4 + v.len(),
        }
    }

    /// Decodes a value from a wire frame.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation or an unknown type tag.
    pub fn decode(r: &mut Reader) -> Result<Value, DecodeError> {
        match r.get_u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(r.get_bool()?)),
            2 => Ok(Value::Int(r.get_i64()?)),
            3 => Ok(Value::Double(r.get_f64()?)),
            4 => Ok(Value::Str(r.get_shared_str()?)),
            _ => Err(DecodeError::new("value tag")),
        }
    }

    /// Checks and skips a value nobody reads: what [`Value::decode`]
    /// accepts, without building it.
    pub(crate) fn skip(r: &mut Reader) -> Result<(), DecodeError> {
        match r.get_u8()? {
            0 => Ok(()),
            1 => r.get_bool().map(drop),
            2 => r.get_i64().map(drop),
            3 => r.get_f64().map(drop),
            4 => r.skip_str(),
            _ => Err(DecodeError::new("value tag")),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(v) => v.hash(state),
            Value::Int(v) => v.hash(state),
            Value::Double(v) => v.to_bits().hash(state),
            Value::Str(v) => v.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => match shortest_cents(*v) {
                Some(cents) => write_cents(f, v.is_sign_negative(), cents, true),
                None => write!(f, "{v}"),
            },
            Value::Str(v) => write!(f, "'{v}'"),
        }
    }
}

/// An amount of money as a page shows it: the bytes `format!("{:.2}", v)`
/// writes. Like [`Value`]'s `Display`, it applies no formatter flags.
///
/// Most amounts are written from their integer cents. An amount the cents
/// cannot be proved for — one within 10⁻³ cent of a half cent, one of
/// 10⁹ or more, a non-finite one — is written by `core::fmt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Money(pub f64);

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match rounded_cents(self.0) {
            Some(cents) => write_cents(f, self.0.is_sign_negative(), cents, false),
            None => write!(f, "{:.2}", self.0),
        }
    }
}

/// Magnitudes below this have `|v|·100 < 2³⁷`, so the product's rounding
/// error is at most 2⁻¹⁶ cent.
const CENTS_LIMIT: f64 = 1e9;

/// The cents `{:.2}` rounds `|v|` to. `fl(|v|·100)` is within 2⁻¹⁶ of the
/// exact product, so when it lies more than 10⁻³ from a half cent both
/// round to the same integer, and that is the exact product's rounding.
fn rounded_cents(v: f64) -> Option<u64> {
    let x = v.abs() * 100.0;
    (v.abs() < CENTS_LIMIT && (x.fract() - 0.5).abs() > 1e-3).then(|| x.round() as u64)
}

/// The cents `n` when `n / 100`, trailing zeros trimmed, is the shortest
/// text that reads back as `|v|`: division rounds correctly, so the text
/// reads back when `n / 100.0 == |v|`, and doubles below 10⁹ lie closer
/// than a cent apart, so no other text of at most two places does.
fn shortest_cents(v: f64) -> Option<u64> {
    let a = v.abs();
    let n = (a * 100.0).round();
    (a > 0.0 && a < CENTS_LIMIT && n / 100.0 == a).then_some(n as u64)
}

/// Writes `cents / 100` with two places, or with its trailing zeros (and
/// then its point) trimmed.
fn write_cents(f: &mut fmt::Formatter<'_>, negative: bool, cents: u64, trim: bool) -> fmt::Result {
    let mut buf = [0u8; 24];
    let mut at = buf.len();
    let (mut whole, mut frac, mut places) = (cents / 100, cents % 100, 2);
    while trim && places > 0 && frac % 10 == 0 {
        frac /= 10;
        places -= 1;
    }
    for _ in 0..places {
        at -= 1;
        buf[at] = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    if places > 0 {
        at -= 1;
        buf[at] = b'.';
    }
    loop {
        at -= 1;
        buf[at] = b'0' + (whole % 10) as u8;
        whole /= 10;
        if whole == 0 {
            break;
        }
    }
    if negative {
        at -= 1;
        buf[at] = b'-';
    }
    f.write_str(std::str::from_utf8(&buf[at..]).expect("digits are ASCII"))
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(Arc::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_ranks_types() {
        let mut vs = vec![
            Value::from("a"),
            Value::from(1.5),
            Value::from(3),
            Value::from(true),
            Value::Null,
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::from(true),
                Value::from(3),
                Value::from(1.5),
                Value::from("a"),
            ]
        );
    }

    #[test]
    fn sql_cmp_mixes_numerics() {
        assert_eq!(
            Value::from(2).sql_cmp(&Value::from(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::from(1.5).sql_cmp(&Value::from(2)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::from(1)), None);
        assert_eq!(Value::from("a").sql_cmp(&Value::from(1)), None);
    }

    #[test]
    fn doubles_use_total_order_for_keys() {
        assert_eq!(
            Value::from(f64::NAN).cmp(&Value::from(f64::NAN)),
            Ordering::Equal
        );
        assert!(Value::from(-0.0) < Value::from(0.0));
    }

    #[test]
    fn wire_round_trip_all_variants() {
        let vals = vec![
            Value::Null,
            Value::from(false),
            Value::from(-42),
            Value::from(2.75),
            Value::from("hello"),
        ];
        let mut w = Writer::new();
        for v in &vals {
            let start = w.len();
            v.encode(&mut w);
            assert_eq!(v.encoded_len(), w.len() - start, "{v}");
        }
        let mut r = Reader::new(w.finish());
        for v in &vals {
            assert_eq!(&Value::decode(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn bad_tag_is_decode_error() {
        let mut w = Writer::new();
        w.put_u8(99);
        let mut r = Reader::new(w.finish());
        assert!(Value::decode(&mut r).is_err());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::from(7).as_int(), Some(7));
        assert_eq!(Value::from(7).as_double(), Some(7.0));
        assert_eq!(Value::from(1.5).as_double(), Some(1.5));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::from("x").as_int(), None);
    }

    #[test]
    fn a_string_is_shared_text_in_a_three_word_value() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        let original = Value::from(String::from("uid:3"));
        let copy = original.clone();
        match (&original, &copy) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("not strings: {other:?}"),
        }
        assert_eq!(copy, Value::from("uid:3"));
    }

    #[test]
    fn display_quotes_strings() {
        assert_eq!(Value::from("abc").to_string(), "'abc'");
        assert_eq!(Value::from(3).to_string(), "3");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
