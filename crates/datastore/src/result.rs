//! Query results and their wire encoding.

use bytes::Bytes;
use sli_simnet::wire::{DecodeError, Reader, Writer};

use crate::value::Value;

/// Fewest bytes a result set encodes to: its three counts.
pub(crate) const MIN_ENCODED_LEN: usize = 12;

/// The outcome of one statement: a (possibly empty) result set and the
/// number of rows a DML statement affected.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    /// The projected names in wire form — a count, then each name under
    /// its length prefix — or empty for no columns. Checked where it is
    /// made: [`encode_header`] writes it from strings, [`ResultSet::decode`]
    /// checks every name of the slice of the reply it keeps.
    header: Bytes,
    rows: Vec<Vec<Value>>,
    affected: usize,
}

/// Encodes projected column names as a result carries them.
pub(crate) fn encode_header<'a>(names: impl ExactSizeIterator<Item = &'a str>) -> Bytes {
    let mut w = Writer::new();
    w.put_u32(names.len() as u32);
    for name in names {
        w.put_str(name);
    }
    w.finish()
}

impl ResultSet {
    /// An empty result reporting `affected` modified rows (DML).
    pub fn affected(affected: usize) -> ResultSet {
        ResultSet {
            affected,
            ..ResultSet::default()
        }
    }

    /// A query result with the given projection and rows.
    pub fn with_rows(columns: Vec<String>, rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet::with_header(encode_header(columns.iter().map(String::as_str)), rows)
    }

    /// A query result whose projection is already in wire form (see
    /// [`encode_header`]).
    pub(crate) fn with_header(header: Bytes, rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet {
            header,
            rows,
            affected: 0,
        }
    }

    /// Projected column names, read from their wire form on demand.
    pub fn columns(&self) -> impl Iterator<Item = &str> + '_ {
        let mut rest = self.header.get(4..).unwrap_or_default();
        std::iter::from_fn(move || {
            let (len, tail) = rest.split_first_chunk::<4>()?;
            let (name, tail) = tail.split_at(u32::from_be_bytes(*len) as usize);
            rest = tail;
            Some(std::str::from_utf8(name).expect("checked when the header was made"))
        })
    }

    /// The result rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Consumes the result set, yielding its rows.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }

    /// Rows affected by a DML statement.
    pub fn affected_rows(&self) -> usize {
        self.affected
    }

    /// Whether the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Index of a projected column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns().position(|c| c == name)
    }

    /// The value at (`row`, `column-name`), if present.
    pub fn value(&self, row: usize, column: &str) -> Option<&Value> {
        let ci = self.column_index(column)?;
        self.rows.get(row).and_then(|r| r.get(ci))
    }

    /// The single value of a one-row, one-column result (e.g. `COUNT(*)`).
    pub fn scalar(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }

    /// Encodes the result set onto a wire frame.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u32(self.affected as u32);
        if self.header.is_empty() {
            w.put_u32(0);
        } else {
            w.put_raw(&self.header);
        }
        w.put_u32(self.rows.len() as u32);
        for row in &self.rows {
            for v in row {
                v.encode(w);
            }
        }
    }

    /// Decodes a result set from a wire frame. The column header is not
    /// decoded: every name is checked and the result keeps that slice of
    /// the frame.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation, a name that is not UTF-8, or
    /// counts that announce more cells than the frame has bytes left.
    pub fn decode(r: &mut Reader) -> Result<ResultSet, DecodeError> {
        let affected = r.get_u32()? as usize;
        let mut names = r.clone();
        let ncols = names.get_u32()? as usize;
        for _ in 0..ncols {
            names.skip_str()?;
        }
        let header = r.get_bytes_raw(r.remaining() - names.remaining())?;
        let nrows = r.get_u32()? as usize;
        // A length prefix is not a budget. Every cell is at least its tag
        // byte, so the counts are checked against the bytes left before
        // anything is reserved — with the columns counted as at least one,
        // or rows of nothing would cost no bytes and never end.
        if nrows.saturating_mul(ncols.max(1)) > r.remaining() {
            return Err(DecodeError::new("result set size"));
        }
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let mut row = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                row.push(Value::decode(r)?);
            }
            rows.push(row);
        }
        Ok(ResultSet {
            header,
            rows,
            affected,
        })
    }
}

/// By the names a header holds, so no columns is no columns however it is
/// spelt.
impl PartialEq for ResultSet {
    fn eq(&self, other: &ResultSet) -> bool {
        self.affected == other.affected
            && self.rows == other.rows
            && self.columns().eq(other.columns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResultSet {
        ResultSet::with_rows(
            vec!["symbol".into(), "price".into()],
            vec![
                vec![Value::from("s:0"), Value::from(10.0)],
                vec![Value::from("s:1"), Value::from(12.5)],
            ],
        )
    }

    #[test]
    fn accessors() {
        let rs = sample();
        assert_eq!(rs.len(), 2);
        assert!(!rs.is_empty());
        assert_eq!(rs.column_index("price"), Some(1));
        assert_eq!(rs.value(1, "price"), Some(&Value::from(12.5)));
        assert_eq!(rs.value(5, "price"), None);
        assert_eq!(rs.value(0, "nope"), None);
        assert_eq!(rs.affected_rows(), 0);
    }

    #[test]
    fn scalar_shape() {
        let one = ResultSet::with_rows(vec!["count".into()], vec![vec![Value::from(7)]]);
        assert_eq!(one.scalar(), Some(&Value::from(7)));
        assert_eq!(sample().scalar(), None);
        assert_eq!(ResultSet::affected(3).scalar(), None);
    }

    #[test]
    fn dml_result() {
        let rs = ResultSet::affected(4);
        assert_eq!(rs.affected_rows(), 4);
        assert!(rs.is_empty());
    }

    #[test]
    fn wire_round_trip() {
        let rs = sample();
        let mut w = Writer::new();
        rs.encode(&mut w);
        let mut r = Reader::new(w.finish());
        assert_eq!(ResultSet::decode(&mut r).unwrap(), rs);
        assert!(r.is_empty());
    }

    #[test]
    fn wire_bytes_are_pinned() {
        // Affected count, column count, each name under its length, row
        // count, then the cells row by row — byte for byte what a result
        // wrote while its names were a vector of strings.
        let hex = |rs: &ResultSet| {
            let mut w = Writer::new();
            rs.encode(&mut w);
            let bytes = w.finish();
            bytes.iter().map(|b| format!("{b:02x}")).collect::<String>()
        };
        assert_eq!(
            hex(&sample()),
            concat!(
                "00000000000000020000000673796d626f6c0000000570726963650000000204",
                "00000003733a300340240000000000000400000003733a310340290000000000",
                "00",
            )
        );
        assert_eq!(hex(&ResultSet::affected(3)), "000000030000000000000000");
    }

    #[test]
    fn truncated_decode_fails() {
        let mut w = Writer::new();
        sample().encode(&mut w);
        let frame = w.finish();
        let cut = frame.slice(0..frame.len() - 3);
        assert!(ResultSet::decode(&mut Reader::new(cut)).is_err());
    }

    #[test]
    fn into_rows_moves_data() {
        let rows = sample().into_rows();
        assert_eq!(rows.len(), 2);
    }
}
