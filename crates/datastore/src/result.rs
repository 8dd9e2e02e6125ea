//! Query results and their wire encoding.

use std::fmt;
use std::hash::Hasher;
use std::ops::Index;

use bytes::Bytes;
use sli_simnet::hash::FxHasher;
use sli_simnet::wire::{DecodeError, Reader, Writer};

use crate::value::Value;

/// Fewest bytes a result set encodes to: its three counts.
pub(crate) const MIN_ENCODED_LEN: usize = 12;

/// The outcome of one statement: a (possibly empty) result set and the
/// number of rows a DML statement affected.
///
/// The rows are one vector of cells, row after row, `width` to a row: a
/// result is built, and decoded, into one allocation whatever its shape.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    /// The projected names in wire form — a count, then each name under
    /// its length prefix — or empty for no columns. Checked where it is
    /// made: [`encode_header`] writes it from strings, [`ResultSet::decode`]
    /// checks every name of the reply's header before it keeps it.
    header: Bytes,
    /// Cells per row: the number of names the header holds.
    width: usize,
    /// Rows, counted apart from the cells: rows of no columns have none.
    len: usize,
    /// `width × len` cells in row order.
    cells: Vec<Value>,
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
    ///
    /// # Panics
    /// Panics if a row does not have one value per column.
    pub fn with_rows(columns: Vec<String>, rows: Vec<Vec<Value>>) -> ResultSet {
        let width = columns.len();
        assert!(
            rows.iter().all(|row| row.len() == width),
            "every row has one value per column"
        );
        ResultSet::with_cells(
            encode_header(columns.iter().map(String::as_str)),
            width,
            rows.len(),
            rows.into_iter().flatten().collect(),
        )
    }

    /// A query result whose projection is already in wire form (see
    /// [`encode_header`]) naming `width` columns, over `len` rows of
    /// `cells`.
    pub(crate) fn with_cells(
        header: Bytes,
        width: usize,
        len: usize,
        cells: Vec<Value>,
    ) -> ResultSet {
        debug_assert_eq!(cells.len(), width * len, "width × len cells");
        ResultSet {
            header,
            width,
            len,
            cells,
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
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            cells: &self.cells,
            width: self.width,
            len: self.len,
        }
    }

    /// Rows affected by a DML statement.
    pub fn affected_rows(&self) -> usize {
        self.affected
    }

    /// Whether the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Index of a projected column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns().position(|c| c == name)
    }

    /// The value at (`row`, `column-name`), if present.
    pub fn value(&self, row: usize, column: &str) -> Option<&Value> {
        let ci = self.column_index(column)?;
        self.rows().get(row).map(|r| &r[ci])
    }

    /// The single value of a one-row, one-column result (e.g. `COUNT(*)`).
    pub fn scalar(&self) -> Option<&Value> {
        if self.len == 1 && self.width == 1 {
            Some(&self.cells[0])
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
        w.put_u32(self.len as u32);
        for v in &self.cells {
            v.encode(w);
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
        ResultSet::decode_with(r, None)
    }

    /// Decodes a result set as [`ResultSet::decode`] does, but with
    /// `headers` keeps the header that table holds for it instead, so the
    /// result does not pin its frame.
    pub(crate) fn decode_with(
        r: &mut Reader,
        headers: Option<&mut HeaderTable>,
    ) -> Result<ResultSet, DecodeError> {
        let affected = r.get_u32()? as usize;
        let mut names = r.clone();
        let width = names.get_u32()? as usize;
        for _ in 0..width {
            names.skip_str()?;
        }
        let header = r.get_bytes_raw(r.remaining() - names.remaining())?;
        let header = match headers {
            Some(headers) => headers.share(&header),
            None => header,
        };
        let len = r.get_u32()? as usize;
        // A length prefix is not a budget. Every cell is at least its tag
        // byte, so the counts are checked against the bytes left before
        // anything is reserved — with the columns counted as at least one,
        // or rows of nothing would cost no bytes and never end. The cells
        // reserved are then at most one per byte left.
        if len.saturating_mul(width.max(1)) > r.remaining() {
            return Err(DecodeError::new("result set size"));
        }
        let mut cells = Vec::with_capacity(len * width);
        for _ in 0..len * width {
            cells.push(Value::decode(r)?);
        }
        Ok(ResultSet {
            header,
            width,
            len,
            cells,
            affected,
        })
    }
}

/// Slots in a [`HeaderTable`]: a connection sees one header per statement
/// shape. At 64, two of the benchmark's `jdbc_mix` headers share a slot
/// (16.91 allocations per interaction); 128, 256 and 1 024 read 16.77, and
/// 128 costs the least peak live memory of those.
const HEADER_SLOTS: usize = 128;

/// Length past which a header is copied out but never tabled. Trade's
/// widest, `SELECT *` of a holding, is 82 bytes.
const MAX_TABLED_HEADER: usize = 256;

/// The column headers one connection has read in its replies, so a result
/// whose header the connection read before holds another handle on that
/// copy — not a slice of its reply, which would pin the frame for as long
/// as the result lives (DESIGN §21).
///
/// Direct-mapped, as [`StrTable`](sli_simnet::wire::StrTable) is: a
/// header's slot is a fixed hash of its bytes; one not found in its slot
/// is copied exactly and takes the slot. Nothing probes and nothing grows,
/// so a peer can pin at most 128 × 256 bytes, whatever it sends.
#[derive(Debug)]
pub(crate) struct HeaderTable {
    slots: Box<[Option<Bytes>]>,
}

impl HeaderTable {
    pub(crate) fn new() -> HeaderTable {
        HeaderTable {
            slots: vec![None; HEADER_SLOTS].into_boxed_slice(),
        }
    }

    /// The tabled copy of `header`, or a new exact one, which takes its
    /// slot unless it is longer than [`MAX_TABLED_HEADER`].
    fn share(&mut self, header: &[u8]) -> Bytes {
        if header.len() > MAX_TABLED_HEADER {
            return Bytes::copy_from_slice(header);
        }
        let slot = &mut self.slots[Self::slot(header)];
        match slot {
            Some(tabled) if tabled[..] == *header => tabled.clone(),
            _ => slot.insert(Bytes::copy_from_slice(header)).clone(),
        }
    }

    /// The hash's top bits, into which its last multiply mixes every bit.
    fn slot(header: &[u8]) -> usize {
        let mut hasher = FxHasher::default();
        hasher.write(header);
        (hasher.finish() >> (64 - HEADER_SLOTS.trailing_zeros())) as usize
    }
}

/// By the names a header holds, so no columns is no columns however it is
/// spelt.
impl PartialEq for ResultSet {
    fn eq(&self, other: &ResultSet) -> bool {
        self.affected == other.affected
            && self.len == other.len
            && self.cells == other.cells
            && self.columns().eq(other.columns())
    }
}

/// A result's rows, each a slice of its cells: indexed, counted and
/// iterated as the `&[Vec<Value>]` a result used to hand out.
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    cells: &'a [Value],
    width: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<&'a [Value]> {
        (i < self.len).then(|| &self.cells[i * self.width..(i + 1) * self.width])
    }

    /// The first row, if there is one.
    pub fn first(&self) -> Option<&'a [Value]> {
        self.get(0)
    }

    /// The rows in order.
    pub fn iter(&self) -> RowIter<'a> {
        RowIter {
            rest: self.cells,
            width: self.width,
            left: self.len,
        }
    }

    /// Copies the rows out, one vector each.
    pub fn to_vec(&self) -> Vec<Vec<Value>> {
        self.iter().map(<[Value]>::to_vec).collect()
    }
}

impl Index<usize> for Rows<'_> {
    type Output = [Value];

    /// # Panics
    /// Panics if there is no row `i`.
    fn index(&self, i: usize) -> &[Value] {
        match self.get(i) {
            Some(row) => row,
            None => panic!("row {i} of a result of {} rows", self.len),
        }
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a [Value];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a result's [`Rows`].
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    rest: &'a [Value],
    width: usize,
    left: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        self.left = self.left.checked_sub(1)?;
        let (row, rest) = self.rest.split_at(self.width);
        self.rest = rest;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

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
        let rows = rs.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], [Value::from("s:1"), Value::from(12.5)]);
        assert_eq!(rows.first(), rows.get(0));
        assert_eq!(rows.get(2), None);
        assert_eq!(rows.iter().len(), 2);
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
        assert!(rs.rows().is_empty());
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

    /// A frame of `rs` encoded, and the result decoded from it through
    /// `headers`.
    fn through(headers: &mut HeaderTable, rs: &ResultSet) -> (Bytes, ResultSet) {
        let mut w = Writer::new();
        rs.encode(&mut w);
        let frame = w.finish();
        let mut r = Reader::new(frame.clone());
        let back = ResultSet::decode_with(&mut r, Some(headers)).unwrap();
        assert_eq!(back, *rs);
        (frame, back)
    }

    /// Whether `inner` lies within `outer`'s bytes.
    fn within(inner: &Bytes, outer: &Bytes) -> bool {
        outer.as_ptr_range().contains(&inner.as_ptr())
    }

    #[test]
    fn a_header_read_again_is_the_tabled_one_and_never_its_frame() {
        let mut headers = HeaderTable::new();
        let (frame, first) = through(&mut headers, &sample());
        assert!(!within(&first.header, &frame), "a copy, not a slice");
        let (frame, again) = through(&mut headers, &sample());
        assert!(!within(&again.header, &frame));
        assert_eq!(first.header.as_ptr(), again.header.as_ptr());
        // Without a table the header stays a slice of its frame.
        let mut w = Writer::new();
        sample().encode(&mut w);
        let frame = w.finish();
        let plain = ResultSet::decode(&mut Reader::new(frame.clone())).unwrap();
        assert!(within(&plain.header, &frame));
    }

    #[test]
    fn a_colliding_header_decodes_its_own_names() {
        let named = |i: usize| ResultSet::with_rows(vec![format!("c{i}")], vec![]);
        let header = |i: usize| named(i).header;
        let other = (1..)
            .find(|&i| HeaderTable::slot(&header(i)) == HeaderTable::slot(&header(0)))
            .unwrap();
        let mut headers = HeaderTable::new();
        let (_, a) = through(&mut headers, &named(0));
        let (_, b) = through(&mut headers, &named(other));
        assert_eq!(a.columns().collect::<Vec<_>>(), ["c0"]);
        assert_eq!(b.columns().collect::<Vec<_>>(), [format!("c{other}")]);
        let (_, back) = through(&mut headers, &named(0));
        assert_ne!(
            back.header.as_ptr(),
            a.header.as_ptr(),
            "evicted, read anew"
        );
    }

    #[test]
    fn an_oversized_header_is_never_tabled() {
        let wide: Vec<String> = (0..40).map(|i| format!("column{i}")).collect();
        let rs = ResultSet::with_rows(wide, vec![]);
        assert!(rs.header.len() > MAX_TABLED_HEADER);
        let mut headers = HeaderTable::new();
        let (frame, a) = through(&mut headers, &rs);
        let (_, b) = through(&mut headers, &rs);
        assert!(!within(&a.header, &frame), "still a copy");
        assert_ne!(a.header.as_ptr(), b.header.as_ptr());
        assert!(headers.slots.iter().all(Option::is_none));
    }

    #[test]
    fn rows_copy_out() {
        let rows = sample().rows().to_vec();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], [Value::from("s:0"), Value::from(10.0)]);
    }

    #[test]
    #[should_panic(expected = "row 2 of a result of 2 rows")]
    fn indexing_past_the_last_row_panics() {
        let rs = sample();
        let _ = &rs.rows()[2];
    }
}
