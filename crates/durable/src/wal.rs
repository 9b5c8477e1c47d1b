//! The write-ahead log: checksummed framing, group flush, and the
//! torn-tail scanner used during recovery.
//!
//! # On-disk frame
//!
//! Each record occupies one frame of
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload bytes]
//! ```
//!
//! The payload is the record's text line ([`Record::to_payload`]).  The
//! CRC covers only the payload; the length prefix is implicitly validated
//! by the CRC check (a corrupted length either points past the end of the
//! file — an incomplete frame — or frames the wrong bytes, which then
//! fail the CRC).
//!
//! # Torn-tail rule
//!
//! A crash can tear the last append, so [`scan_wal`] stops — and recovery
//! discards everything from that offset on — at the first of:
//!
//! 1. an incomplete 8-byte frame header,
//! 2. a length that exceeds the remaining bytes,
//! 3. a CRC mismatch.
//!
//! A frame that passes its CRC but fails to *parse* is different: the
//! bytes were written intact, so the log is from an incompatible version
//! or a logic bug, and recovery fails with [`DurableError::Corrupt`]
//! rather than silently dropping acknowledged history.

use asr_core::crc32;

use crate::error::{DurableError, Result};
use crate::record::Record;
use crate::storage::Storage;

/// Maximum sane payload length (a frame claiming more is treated as torn
/// garbage even if the file happens to be long enough).
const MAX_PAYLOAD: usize = 1 << 24;

/// When buffered records are forced to storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush after every record — maximum durability, one append each.
    EveryRecord,
    /// Group commit: flush once `n` records are pending (and on
    /// checkpoint/explicit flush).  Up to `n - 1` acknowledged operations
    /// can be lost in a crash.
    EveryN(usize),
    /// Flush only on an explicit [`WalWriter::flush`] (or checkpoint).
    Explicit,
}

impl FlushPolicy {
    fn threshold(self) -> usize {
        match self {
            FlushPolicy::EveryRecord => 1,
            FlushPolicy::EveryN(n) => n.max(1),
            FlushPolicy::Explicit => usize::MAX,
        }
    }
}

/// Frame one payload: `[len][crc][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why no intact frame could be taken off the front of some bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer than the 8 header bytes.
    ShortHeader,
    /// The length word claims more payload than the reader's cap — a
    /// corrupt or foreign header, never worth waiting for.
    OverCap,
    /// The length word claims more payload than the bytes at hand.
    Truncated,
    /// The payload does not match the header's CRC.
    CrcMismatch,
}

/// The whole size (header + payload) of the frame at the front of `bytes`,
/// read from its length word alone — the one reader of that word.  A
/// byte stream is delimited by this; [`split_frame`] adds the CRC check.
pub fn frame_len(bytes: &[u8], cap: usize) -> std::result::Result<usize, FrameError> {
    if bytes.len() < 8 {
        return Err(FrameError::ShortHeader);
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if len > cap {
        Err(FrameError::OverCap)
    } else if len > bytes.len() - 8 {
        Err(FrameError::Truncated)
    } else {
        Ok(8 + len)
    }
}

/// Split the next intact frame off `bytes` — its payload and what follows
/// it — refusing a payload longer than `cap`.
pub fn split_frame(bytes: &[u8], cap: usize) -> std::result::Result<(&[u8], &[u8]), FrameError> {
    let (frame, rest) = bytes.split_at(frame_len(bytes, cap)?);
    let crc = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
    let payload = &frame[8..];
    if crc32(payload) != crc {
        return Err(FrameError::CrcMismatch);
    }
    Ok((payload, rest))
}

/// Why a WAL scan stopped before the end of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than 8 bytes remained — a torn frame header.
    PartialHeader,
    /// The header's length points past the end of the file (or is
    /// implausibly large).
    LengthBeyondEof,
    /// The payload bytes do not match the header's CRC.
    CrcMismatch,
}

impl TornReason {
    /// Short human-readable label for status output.
    pub fn label(self) -> &'static str {
        match self {
            TornReason::PartialHeader => "partial header",
            TornReason::LengthBeyondEof => "length beyond EOF",
            TornReason::CrcMismatch => "crc mismatch",
        }
    }
}

/// Result of scanning a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Every intact record, in log order.
    pub records: Vec<Record>,
    /// Bytes of the valid prefix (where the next append would go after a
    /// truncating recovery).
    pub valid_bytes: usize,
    /// Bytes of discarded tail (0 when the file ends cleanly).
    pub torn_bytes: usize,
    /// Why the tail was discarded, when it was.
    pub torn_reason: Option<TornReason>,
}

/// Scan raw WAL bytes, applying the torn-tail rule.
///
/// Returns `Err(Corrupt)` only for CRC-valid frames whose payload fails
/// to parse — torn tails are reported in the scan result, not as errors.
pub fn scan_wal(bytes: &[u8]) -> Result<WalScan> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut torn_reason = None;
    while pos < bytes.len() {
        let payload = match split_frame(&bytes[pos..], MAX_PAYLOAD) {
            Ok((payload, _)) => payload,
            Err(e) => {
                torn_reason = Some(match e {
                    FrameError::ShortHeader => TornReason::PartialHeader,
                    FrameError::OverCap | FrameError::Truncated => TornReason::LengthBeyondEof,
                    FrameError::CrcMismatch => TornReason::CrcMismatch,
                });
                break;
            }
        };
        let text = std::str::from_utf8(payload).map_err(|_| {
            DurableError::Corrupt(format!("CRC-valid record at offset {pos} is not UTF-8"))
        })?;
        records.push(Record::from_payload(text)?);
        pos += 8 + payload.len();
    }
    Ok(WalScan {
        records,
        valid_bytes: pos,
        torn_bytes: bytes.len() - pos,
        torn_reason,
    })
}

/// The append side of the log: frames records, buffers them according to
/// the [`FlushPolicy`], and appends to a file in the provided storage.
#[derive(Debug)]
pub struct WalWriter {
    file: String,
    policy: FlushPolicy,
    next_lsn: u64,
    buf: Vec<u8>,
    pending: usize,
    durable_bytes: usize,
    flushes: u64,
}

impl WalWriter {
    /// A writer appending to `file`, continuing after `durable_bytes` of
    /// existing log with `next_lsn` as the next sequence number.
    pub fn new(
        file: impl Into<String>,
        policy: FlushPolicy,
        next_lsn: u64,
        durable_bytes: usize,
    ) -> Self {
        WalWriter {
            file: file.into(),
            policy,
            next_lsn,
            buf: Vec::new(),
            pending: 0,
            durable_bytes,
            flushes: 0,
        }
    }

    /// The LSN the next logged operation will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The LSN of the last record handed out (0 before the first).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Records framed but not yet flushed to storage.
    pub fn pending_records(&self) -> usize {
        self.pending
    }

    /// Bytes known durable in the log file.
    pub fn durable_bytes(&self) -> usize {
        self.durable_bytes
    }

    /// Number of storage appends performed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// The active flush policy.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Change the flush policy; takes effect from the next append.
    pub fn set_policy(&mut self, policy: FlushPolicy) {
        self.policy = policy;
    }

    /// Stamp `op` with the next LSN, frame it, and flush if the policy
    /// says so.  Returns the record's LSN.
    pub fn append<S: Storage>(&mut self, storage: &mut S, op: crate::record::LogOp) -> Result<u64> {
        let lsn = self.next_lsn;
        let rec = Record { lsn, op };
        self.buf
            .extend_from_slice(&frame(rec.to_payload().as_bytes()));
        self.next_lsn += 1;
        self.pending += 1;
        if self.pending >= self.policy.threshold() {
            self.flush(storage)?;
        }
        Ok(lsn)
    }

    /// Force all buffered records to storage (one group append).
    pub fn flush<S: Storage>(&mut self, storage: &mut S) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        storage.append(&self.file, &self.buf)?;
        self.durable_bytes += self.buf.len();
        self.buf.clear();
        self.pending = 0;
        self.flushes += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogOp;
    use crate::storage::MemStorage;
    use asr_gom::{Oid, Value};

    fn op(i: u64) -> LogOp {
        LogOp::Set {
            owner: Oid::from_raw(i),
            attr: "Name".into(),
            value: Value::Integer(i as i64),
        }
    }

    #[test]
    fn every_record_policy_appends_each() {
        let mut mem = MemStorage::new();
        let mut w = WalWriter::new("wal.log", FlushPolicy::EveryRecord, 1, 0);
        for i in 0..3 {
            let lsn = w.append(&mut mem, op(i)).unwrap();
            assert_eq!(lsn, i + 1);
        }
        assert_eq!(w.flushes(), 3);
        let scan = scan_wal(&mem.read("wal.log").unwrap().unwrap()).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.records[2].lsn, 3);
        assert_eq!(scan.valid_bytes, w.durable_bytes());
    }

    #[test]
    fn group_commit_buffers_until_threshold() {
        let mut mem = MemStorage::new();
        let mut w = WalWriter::new("wal.log", FlushPolicy::EveryN(3), 1, 0);
        w.append(&mut mem, op(0)).unwrap();
        w.append(&mut mem, op(1)).unwrap();
        assert_eq!(mem.len("wal.log"), 0, "nothing durable yet");
        assert_eq!(w.pending_records(), 2);
        w.append(&mut mem, op(2)).unwrap();
        assert_eq!(w.flushes(), 1, "one group append for three records");
        assert_eq!(
            scan_wal(&mem.read("wal.log").unwrap().unwrap())
                .unwrap()
                .records
                .len(),
            3
        );
    }

    #[test]
    fn explicit_policy_waits_for_flush() {
        let mut mem = MemStorage::new();
        let mut w = WalWriter::new("wal.log", FlushPolicy::Explicit, 1, 0);
        for i in 0..5 {
            w.append(&mut mem, op(i)).unwrap();
        }
        assert_eq!(mem.len("wal.log"), 0);
        w.flush(&mut mem).unwrap();
        w.flush(&mut mem).unwrap(); // idempotent when empty
        assert_eq!(w.flushes(), 1);
        assert_eq!(
            scan_wal(&mem.read("wal.log").unwrap().unwrap())
                .unwrap()
                .records
                .len(),
            5
        );
    }

    #[test]
    fn scan_detects_each_torn_tail_shape() {
        let mut mem = MemStorage::new();
        let mut w = WalWriter::new("wal.log", FlushPolicy::EveryRecord, 1, 0);
        w.append(&mut mem, op(0)).unwrap();
        w.append(&mut mem, op(1)).unwrap();
        let clean = mem.read("wal.log").unwrap().unwrap();

        // Partial header.
        let mut torn = clean.clone();
        torn.extend_from_slice(&[1, 2, 3]);
        let scan = scan_wal(&torn).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.torn_reason, Some(TornReason::PartialHeader));
        assert_eq!(scan.torn_bytes, 3);

        // Length beyond EOF: full header claiming a huge payload.
        let mut torn = clean.clone();
        torn.extend_from_slice(&999u32.to_le_bytes());
        torn.extend_from_slice(&0u32.to_le_bytes());
        torn.extend_from_slice(b"short");
        let scan = scan_wal(&torn).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.torn_reason, Some(TornReason::LengthBeyondEof));

        // CRC mismatch: flip a payload bit of the *last* record.
        let mut torn = clean.clone();
        let last = torn.len() - 1;
        torn[last] ^= 0x40;
        let scan = scan_wal(&torn).unwrap();
        assert_eq!(scan.records.len(), 1, "first record still intact");
        assert_eq!(scan.torn_reason, Some(TornReason::CrcMismatch));
        assert!(scan.torn_bytes > 8);

        // Truncation at every byte offset never errors and never loses
        // more than the torn record.
        for k in 0..clean.len() {
            let scan = scan_wal(&clean[..k]).unwrap();
            assert!(scan.records.len() <= 2);
            assert_eq!(scan.valid_bytes + scan.torn_bytes, k);
        }
    }

    #[test]
    fn crc_valid_garbage_is_a_hard_error() {
        let framed = frame(b"not a record at all");
        let err = scan_wal(&framed).unwrap_err();
        assert!(matches!(err, DurableError::Corrupt(_)), "{err:?}");
        let framed = frame(&[0xFF, 0xFE, 0x80]);
        let err = scan_wal(&framed).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn writer_resumes_after_existing_log() {
        let mut mem = MemStorage::new();
        let mut w = WalWriter::new("wal.log", FlushPolicy::EveryRecord, 1, 0);
        w.append(&mut mem, op(0)).unwrap();
        let bytes = mem.read("wal.log").unwrap().unwrap();
        let scan = scan_wal(&bytes).unwrap();
        let mut w2 = WalWriter::new(
            "wal.log",
            FlushPolicy::EveryRecord,
            scan.records.last().unwrap().lsn + 1,
            scan.valid_bytes,
        );
        w2.append(&mut mem, op(1)).unwrap();
        let scan = scan_wal(&mem.read("wal.log").unwrap().unwrap()).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].lsn, 2);
    }
}
