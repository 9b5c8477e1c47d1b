//! Primitive little-endian codecs shared by every binary format: wire
//! messages (`asr-net`) and checkpoint documents ([`crate::persist`]).
//!
//! The writer side is infallible (`Vec<u8>` appends); the reader side
//! returns [`CodecError`] on any shortfall or malformed tag so the caller
//! can treat the whole frame as damaged.  Fixed-width integers are
//! little-endian, matching the WAL frame header; a string is its `u32`
//! length and its UTF-8 bytes; a wire sequence is its `u32` count and its
//! elements.  Checkpoint structure (counts, page ids) uses unsigned
//! LEB128 varints ([`Writer::varint`]) and a tree page's cells are packed
//! ([`Writer::packed_cell`]); values are encoded the same way in both
//! formats.

use std::fmt;

use asr_gom::{Oid, Value};
use asr_pagesim::IoSnapshot;

use crate::cell::Cell;
use crate::row::Row;

/// Why a payload failed to decode.  Callers normally collapse this to
/// "frame damaged" — the distinction is for tests and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remained than the field needs.
    Short,
    /// A tag byte named no known variant.
    BadTag(u8),
    /// String bytes were not UTF-8.
    BadUtf8,
    /// Bytes remained after the message was fully decoded.
    TrailingBytes(usize),
    /// A varint ran past ten bytes or past 64 bits.
    BadVarint,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Short => write!(f, "payload too short"),
            CodecError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            CodecError::BadVarint => write!(f, "malformed varint"),
        }
    }
}

/// Append-only payload builder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// The finished payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Nothing written yet?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Overwrite the four bytes at `at` with `v` (little-endian) — how a
    /// length or checksum reserved before its payload is filled in.
    pub fn put_u32_at(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Drop everything written after the first `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Raw bytes, no length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// `0` or `1`.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Four bytes, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Eight bytes, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Eight bytes, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Unsigned LEB128: seven bits a byte, low bits first, the high bit
    /// set on every byte but the last (one byte below 128, ten at most).
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// `u32` byte length, then the UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// An OID as its raw `u64`.
    pub fn oid(&mut self, oid: Oid) {
        self.u64(oid.as_raw());
    }

    /// A tag byte, then the value's payload.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Integer(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Float(bits) => {
                self.u8(2);
                self.u64(*bits);
            }
            Value::Decimal(d) => {
                self.u8(3);
                self.i64(*d);
            }
            Value::String(s) => {
                self.u8(4);
                self.str(s);
            }
            Value::Char(c) => {
                self.u8(5);
                self.u32(*c as u32);
            }
            Value::Bool(b) => {
                self.u8(6);
                self.bool(*b);
            }
            Value::Ref(oid) => {
                self.u8(7);
                self.oid(*oid);
            }
        }
    }

    /// `0` + OID, or `1` + value.
    pub fn cell(&mut self, c: &Cell) {
        match c {
            Cell::Oid(oid) => {
                self.u8(0);
                self.oid(*oid);
            }
            Cell::Value(v) => {
                self.u8(1);
                self.value(v);
            }
        }
    }

    /// One row column: NULL (`0`), or `1` + cell.
    pub fn opt_cell(&mut self, c: &Option<Cell>) {
        match c {
            None => self.u8(0),
            Some(c) => {
                self.u8(1);
                self.cell(c);
            }
        }
    }

    /// One row column, packed for the checkpoint's tree pages: NULL
    /// (`0`), an OID (`1` + its raw value as a varint), or a value (`2` +
    /// [`Writer::value`]).
    pub fn packed_cell(&mut self, c: &Option<Cell>) {
        match c {
            None => self.u8(0),
            Some(Cell::Oid(oid)) => {
                self.u8(1);
                self.varint(oid.as_raw());
            }
            Some(Cell::Value(v)) => {
                self.u8(2);
                self.value(v);
            }
        }
    }

    /// A row: arity, then each column as [`Writer::opt_cell`].
    pub fn row(&mut self, row: &Row) {
        self.u32(row.arity() as u32);
        for cell in row.cells() {
            self.opt_cell(cell);
        }
    }

    /// `u32` count, then each cell.
    pub fn cells(&mut self, cells: &[Cell]) {
        self.u32(cells.len() as u32);
        for c in cells {
            self.cell(c);
        }
    }

    /// `u32` count, then each row.
    pub fn rows(&mut self, rows: &[Row]) {
        self.u32(rows.len() as u32);
        for r in rows {
            self.row(r);
        }
    }

    /// The five I/O counters, in declaration order.
    pub fn io(&mut self, io: &IoSnapshot) {
        self.u64(io.reads);
        self.u64(io.writes);
        self.u64(io.buffer_hits);
        self.u64(io.batch_probes);
        self.u64(io.batch_pages_saved);
    }
}

/// Cursor over a received payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Short);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// `0` or `1`; anything else is a bad tag.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// Four bytes, little-endian.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// Eight bytes, little-endian.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Eight bytes, little-endian two's complement.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// An unsigned LEB128 varint ([`Writer::varint`]).
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(CodecError::BadVarint);
            }
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(CodecError::BadVarint)
    }

    /// A varint that counts items of at least `min_bytes` bytes each:
    /// bounded by what remains, so a damaged count cannot make the caller
    /// allocate more than the payload could hold.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let n = usize::try_from(self.varint()?).map_err(|_| CodecError::Short)?;
        if n.saturating_mul(min_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Short);
        }
        Ok(n)
    }

    /// A [`Writer::str`] string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// A [`Writer::oid`] OID.
    pub fn oid(&mut self) -> Result<Oid, CodecError> {
        Ok(Oid::from_raw(self.u64()?))
    }

    /// A [`Writer::value`] value.
    pub fn value(&mut self) -> Result<Value, CodecError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Integer(self.i64()?)),
            2 => Ok(Value::Float(self.u64()?)),
            3 => Ok(Value::Decimal(self.i64()?)),
            4 => Ok(Value::string(self.str()?)),
            5 => {
                let raw = self.u32()?;
                char::from_u32(raw)
                    .map(Value::Char)
                    .ok_or(CodecError::BadTag(5))
            }
            6 => Ok(Value::Bool(self.bool()?)),
            7 => Ok(Value::Ref(self.oid()?)),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// A [`Writer::cell`] cell.
    pub fn cell(&mut self) -> Result<Cell, CodecError> {
        match self.u8()? {
            0 => Ok(Cell::Oid(self.oid()?)),
            1 => Ok(Cell::Value(self.value()?)),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// A [`Writer::opt_cell`] row column.
    pub fn opt_cell(&mut self) -> Result<Option<Cell>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.cell()?)),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// A [`Writer::packed_cell`] row column.
    pub fn packed_cell(&mut self) -> Result<Option<Cell>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(Cell::Oid(Oid::from_raw(self.varint()?)))),
            2 => Ok(Some(Cell::Value(self.value()?))),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// A [`Writer::row`] row.
    pub fn row(&mut self) -> Result<Row, CodecError> {
        let arity = self.u32()? as usize;
        // Arity is bounded by the payload length: each column is ≥ 1 byte.
        if arity > self.remaining() {
            return Err(CodecError::Short);
        }
        let mut cells = Vec::with_capacity(arity);
        for _ in 0..arity {
            cells.push(self.opt_cell()?);
        }
        Ok(Row::new(cells))
    }

    /// A [`Writer::cells`] sequence.
    pub fn cells(&mut self) -> Result<Vec<Cell>, CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(CodecError::Short);
        }
        (0..n).map(|_| self.cell()).collect()
    }

    /// A [`Writer::rows`] sequence.
    pub fn rows(&mut self) -> Result<Vec<Row>, CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(CodecError::Short);
        }
        (0..n).map(|_| self.row()).collect()
    }

    /// A [`Writer::io`] snapshot.
    pub fn io(&mut self) -> Result<IoSnapshot, CodecError> {
        Ok(IoSnapshot {
            reads: self.u64()?,
            writes: self.u64()?,
            buffer_hits: self.u64()?,
            batch_probes: self.u64()?,
            batch_pages_saved: self.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.str("héllo");
        w.oid(Oid::from_raw(99));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.oid().unwrap(), Oid::from_raw(99));
        r.finish().unwrap();
    }

    #[test]
    fn values_cells_rows_round_trip() {
        let values = vec![
            Value::Null,
            Value::Integer(-7),
            Value::float(2.75),
            Value::decimal(1205, 50),
            Value::string("Kemper & Moerkotte"),
            Value::Char('π'),
            Value::Bool(false),
            Value::Ref(Oid::from_raw(12)),
        ];
        let row = Row::new(vec![
            Some(Cell::Oid(Oid::from_raw(3))),
            None,
            Some(Cell::Value(Value::string("wing"))),
        ]);
        let mut w = Writer::new();
        for v in &values {
            w.value(v);
        }
        w.row(&row);
        w.rows(&[row.clone(), row.clone()]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in &values {
            assert_eq!(&r.value().unwrap(), v);
        }
        assert_eq!(r.row().unwrap(), row);
        assert_eq!(r.rows().unwrap(), vec![row.clone(), row]);
        r.finish().unwrap();
    }

    #[test]
    fn short_and_bad_tag_rejected() {
        // String tag claiming 1 byte with none following.
        let mut r = Reader::new(&[4, 1, 0, 0, 0]);
        assert_eq!(r.value().unwrap_err(), CodecError::Short);
        let mut r = Reader::new(&[0xFF]);
        assert_eq!(r.value().unwrap_err(), CodecError::BadTag(0xFF));
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u64().unwrap_err(), CodecError::Short);
        // A huge claimed arity must not allocate: bounded by remaining().
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).rows().unwrap_err(), CodecError::Short);
    }

    #[test]
    fn varints_round_trip_and_reject_overlong() {
        let samples = [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mut w = Writer::new();
        for v in samples {
            w.varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in samples {
            assert_eq!(r.varint().unwrap(), v);
        }
        r.finish().unwrap();
        // One and two bytes at the 7-bit boundary; ten at the top.
        for (v, len) in [(127, 1), (128, 2), (u64::MAX, 10)] {
            let mut w = Writer::new();
            w.varint(v);
            assert_eq!(w.len(), len, "{v}");
        }
        // An eleventh byte, or a tenth carrying more than bit 63.
        let unfinished = [0x80u8; 9];
        assert_eq!(
            Reader::new(&unfinished).varint().unwrap_err(),
            CodecError::Short
        );
        let mut eleven = vec![0x80u8; 10];
        eleven.push(0);
        assert_eq!(
            Reader::new(&eleven).varint().unwrap_err(),
            CodecError::BadVarint
        );
        let mut wide = vec![0xFFu8; 9];
        wide.push(0x02);
        assert_eq!(
            Reader::new(&wide).varint().unwrap_err(),
            CodecError::BadVarint
        );
        // A count larger than what remains cannot be trusted.
        let mut w = Writer::new();
        w.varint(1_000);
        assert_eq!(
            Reader::new(&w.into_bytes()).count(1).unwrap_err(),
            CodecError::Short
        );
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(r.finish().unwrap_err(), CodecError::TrailingBytes(1));
    }

    #[test]
    fn io_snapshot_round_trips() {
        let io = IoSnapshot {
            reads: 1,
            writes: 2,
            buffer_hits: 3,
            batch_probes: 4,
            batch_pages_saved: 5,
        };
        let mut w = Writer::new();
        w.io(&io);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.io().unwrap(), io);
        r.finish().unwrap();
    }
}
