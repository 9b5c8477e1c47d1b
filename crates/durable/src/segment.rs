//! WAL segmentation: sealed log segments, archived checkpoints, and the
//! manifest that indexes both.
//!
//! # Why segments
//!
//! A single `wal.log` is enough for crash recovery, but replication and
//! point-in-time recovery need *history*: the shipper streams whole
//! sealed files to a replica, and `recover_to_lsn` replays from an old
//! checkpoint forward.  So the active log rotates into immutable
//! segments:
//!
//! * `wal.000001.seg`, `wal.000002.seg`, … — each a byte-for-byte copy
//!   of a retired `wal.log` (the same `[len][crc][payload]` frames),
//!   whole-file checksummed at seal time;
//! * `ckpt.000000000042.snap` — an archived copy of `checkpoint.snap`
//!   as it stood at checkpoint LSN 42, kept so PITR can start below the
//!   current checkpoint;
//! * `segments.manifest` — the index over both.
//!
//! # Manifest grammar
//!
//! ```text
//! SEGS 1
//! S <seqno> <first_lsn> <last_lsn> <bytes> <crc32-hex>
//! C <checkpoint_lsn>
//! D <checkpoint_lsn> <base_lsn>
//! ```
//!
//! `S` lines are sealed segments in rotation (= LSN) order; `C` lines
//! are archived checkpoints in ascending LSN order.  A `D` line marks an
//! archived checkpoint as a *delta* whose application needs
//! the archived checkpoint at `base_lsn` (which may itself be a delta —
//! lineage chains down to a full snapshot).  The manifest is
//! replaced atomically, *before* the new `checkpoint.snap` is published
//! during a checkpoint — every crash window then falls back to the old
//! checkpoint plus a longer (duplicate-tolerant) replay, never to a
//! manifest that references state which does not exist.
//!
//! A directory without `segments.manifest` is a pre-segmentation
//! database: recovery treats it as an empty manifest (checkpoint +
//! `wal.log` only), which keeps the v1 golden fixtures loading.

use asr_core::crc32;

use crate::error::{DurableError, Result};
use crate::storage::{read_stable, Storage};

/// The segment/checkpoint index file.
pub const SEGMENT_MANIFEST_FILE: &str = "segments.manifest";

const SEG_MAGIC: &str = "SEGS 1";

/// How many disagreeing read pairs [`read_stable`] tolerates before
/// declaring the read path broken (shared by all recovery-side reads).
pub(crate) const READ_RETRIES: usize = 4;

/// The file name of sealed segment `seqno`.
pub fn segment_file_name(seqno: u64) -> String {
    format!("wal.{seqno:06}.seg")
}

/// The file name of the archived checkpoint covering `lsn`.
pub fn checkpoint_archive_name(lsn: u64) -> String {
    format!("ckpt.{lsn:012}.snap")
}

/// One sealed, immutable log segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Rotation sequence number (1-based, monotonic, never reused after
    /// a successful seal).
    pub seqno: u64,
    /// LSN of the first record in the segment.
    pub first_lsn: u64,
    /// LSN of the last record in the segment.
    pub last_lsn: u64,
    /// Exact size of the segment file in bytes.
    pub bytes: u64,
    /// CRC-32 of the whole segment file.
    pub crc: u32,
}

impl SegmentMeta {
    /// The file this segment is stored under.
    pub fn file_name(&self) -> String {
        segment_file_name(self.seqno)
    }

    /// Check `data` against the sealed size and whole-file checksum.
    /// Sealed segments were fully acknowledged, so a mismatch is at-rest
    /// corruption — a hard error for the caller, never a silent discard.
    pub fn verify(&self, data: &[u8]) -> Result<()> {
        if data.len() as u64 != self.bytes {
            return Err(DurableError::Corrupt(format!(
                "segment {} is {} bytes, manifest says {}",
                self.file_name(),
                data.len(),
                self.bytes
            )));
        }
        let got = crc32(data);
        if got != self.crc {
            return Err(DurableError::Corrupt(format!(
                "segment {} fails its whole-file CRC ({got:08x} != {:08x})",
                self.file_name(),
                self.crc
            )));
        }
        Ok(())
    }
}

/// The parsed `segments.manifest`: sealed segments plus archived
/// checkpoint LSNs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentManifest {
    /// Sealed segments in rotation (= LSN) order.
    pub segments: Vec<SegmentMeta>,
    /// Archived checkpoint LSNs, ascending; each has a
    /// [`checkpoint_archive_name`] file.
    pub checkpoints: Vec<u64>,
    /// Delta lineage: `(checkpoint_lsn, base_lsn)` pairs, ascending by
    /// checkpoint LSN.  A checkpoint LSN absent from this list is a full
    /// snapshot.
    pub deltas: Vec<(u64, u64)>,
}

impl SegmentManifest {
    /// Serialize to the manifest grammar.
    pub fn encode(&self) -> String {
        let mut out = String::from(SEG_MAGIC);
        out.push('\n');
        for s in &self.segments {
            out.push_str(&format!(
                "S {} {} {} {} {:08x}\n",
                s.seqno, s.first_lsn, s.last_lsn, s.bytes, s.crc
            ));
        }
        for c in &self.checkpoints {
            out.push_str(&format!("C {c}\n"));
        }
        for (lsn, base) in &self.deltas {
            out.push_str(&format!("D {lsn} {base}\n"));
        }
        out
    }

    /// Parse the manifest grammar.
    pub fn decode(text: &str) -> Result<Self> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(SEG_MAGIC) {
            return Err(DurableError::Corrupt(format!(
                "bad segments.manifest magic (expected `{SEG_MAGIC}`)"
            )));
        }
        let bad =
            |line: &str| DurableError::Corrupt(format!("bad segments.manifest line `{line}`"));
        let mut manifest = SegmentManifest::default();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("S") => {
                    let mut num = || -> Result<u64> {
                        parts
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| bad(line))
                    };
                    let (seqno, first_lsn, last_lsn, bytes) = (num()?, num()?, num()?, num()?);
                    let crc = parts
                        .next()
                        .and_then(|t| u32::from_str_radix(t, 16).ok())
                        .ok_or_else(|| bad(line))?;
                    if parts.next().is_some() || first_lsn > last_lsn {
                        return Err(bad(line));
                    }
                    manifest.segments.push(SegmentMeta {
                        seqno,
                        first_lsn,
                        last_lsn,
                        bytes,
                        crc,
                    });
                }
                Some("C") => {
                    let lsn = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad(line))?;
                    if parts.next().is_some() {
                        return Err(bad(line));
                    }
                    manifest.checkpoints.push(lsn);
                }
                Some("D") => {
                    let mut num = || -> Result<u64> {
                        parts
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| bad(line))
                    };
                    let (lsn, base) = (num()?, num()?);
                    // A delta based on itself (or the future) can never
                    // resolve — reject the lineage at parse time.
                    if parts.next().is_some() || base >= lsn {
                        return Err(bad(line));
                    }
                    manifest.deltas.push((lsn, base));
                }
                _ => return Err(bad(line)),
            }
        }
        Ok(manifest)
    }

    /// Load the manifest from `storage`; a missing file is an empty
    /// manifest (a pre-segmentation database).  Reads are stabilized —
    /// the manifest gates which history exists, so a transiently flipped
    /// read must not be trusted.
    pub fn load<S: Storage>(storage: &S) -> Result<Self> {
        match read_stable(storage, SEGMENT_MANIFEST_FILE, READ_RETRIES)? {
            None => Ok(SegmentManifest::default()),
            Some(bytes) => {
                let text = String::from_utf8(bytes)
                    .map_err(|_| DurableError::Corrupt("segments.manifest is not UTF-8".into()))?;
                Self::decode(&text)
            }
        }
    }

    /// Atomically replace the manifest in `storage`.
    pub fn store<S: Storage>(&self, storage: &mut S) -> Result<()> {
        storage.write_atomic(SEGMENT_MANIFEST_FILE, self.encode().as_bytes())
    }

    /// The sequence number the next sealed segment should take.  A
    /// manifest whose last segment already holds the largest seqno is
    /// corrupt: no seqno is left to seal under.
    pub fn next_seqno(&self) -> Result<u64> {
        let Some(last) = self.segments.last() else {
            return Ok(1);
        };
        last.seqno.checked_add(1).ok_or_else(|| {
            DurableError::Corrupt(format!(
                "segments.manifest: no seqno after segment {}",
                last.seqno
            ))
        })
    }

    /// Total bytes held in sealed segments (saturating: the sizes come
    /// off disk).
    pub fn archived_bytes(&self) -> u64 {
        self.segments
            .iter()
            .fold(0u64, |sum, s| sum.saturating_add(s.bytes))
    }

    /// The newest archived checkpoint at or below `bound`, if any.
    pub fn newest_checkpoint_at_or_below(&self, bound: u64) -> Option<u64> {
        self.checkpoints
            .iter()
            .copied()
            .filter(|c| *c <= bound)
            .max()
    }

    /// Record an archived full checkpoint LSN (idempotent, keeps order);
    /// it replaces a delta archived under the same LSN.
    pub fn add_checkpoint(&mut self, lsn: u64) {
        self.deltas.retain(|&(l, _)| l != lsn);
        if !self.checkpoints.contains(&lsn) {
            self.checkpoints.push(lsn);
            self.checkpoints.sort_unstable();
        }
    }

    /// Record an archived *delta* checkpoint at `lsn` whose application
    /// needs the archived checkpoint at `base` (idempotent, keeps order).
    pub fn add_delta_checkpoint(&mut self, lsn: u64, base: u64) {
        self.add_checkpoint(lsn);
        self.deltas.push((lsn, base));
        self.deltas.sort_unstable();
    }

    /// The base the archived checkpoint at `lsn` is a delta over, if it
    /// is one (`None` means a full snapshot).
    pub fn delta_base_of(&self, lsn: u64) -> Option<u64> {
        self.deltas
            .iter()
            .find(|(l, _)| *l == lsn)
            .map(|(_, base)| *base)
    }

    /// How many deltas sit between the checkpoint at `lsn` and its full
    /// base (0 for a full snapshot).  A broken lineage (cycle or a base
    /// whose record is gone) is reported as the walk length so far —
    /// callers that must *resolve* the chain surface the error when they
    /// read the missing archive.
    pub fn delta_depth(&self, lsn: u64) -> usize {
        self.chain_to_full(lsn).map_or(0, |c| c.len() - 1)
    }

    /// The checkpoint LSNs from the full base up to (and including)
    /// `lsn`, oldest first: `[full, delta, …, lsn]`.  A full checkpoint
    /// resolves to `[lsn]`.  Errors on a cyclic lineage.
    pub fn chain_to_full(&self, lsn: u64) -> Result<Vec<u64>> {
        let mut chain = vec![lsn];
        let mut cur = lsn;
        while let Some(base) = self.delta_base_of(cur) {
            if chain.contains(&base) || chain.len() > self.deltas.len() + 1 {
                return Err(DurableError::Corrupt(format!(
                    "delta checkpoint lineage for LSN {lsn} is cyclic at {base}"
                )));
            }
            chain.push(base);
            cur = base;
        }
        chain.reverse();
        Ok(chain)
    }

    /// The archived checkpoints that must survive a prune keeping
    /// `keep_lsn`: every checkpoint at or above the floor, plus —
    /// transitively — every base a retained delta needs.
    pub fn required_checkpoints(&self, keep_lsn: u64) -> std::collections::BTreeSet<u64> {
        let mut required: std::collections::BTreeSet<u64> = self
            .checkpoints
            .iter()
            .copied()
            .filter(|c| *c >= keep_lsn)
            .collect();
        let mut frontier: Vec<u64> = required.iter().copied().collect();
        while let Some(lsn) = frontier.pop() {
            if let Some(base) = self.delta_base_of(lsn) {
                if required.insert(base) {
                    frontier.push(base);
                }
            }
        }
        required
    }

    /// The first LSN of the oldest retained history, if any segments
    /// remain.
    pub fn oldest_segment_first_lsn(&self) -> Option<u64> {
        self.segments.first().map(|s| s.first_lsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn sample() -> SegmentManifest {
        SegmentManifest {
            segments: vec![
                SegmentMeta {
                    seqno: 1,
                    first_lsn: 1,
                    last_lsn: 9,
                    bytes: 420,
                    crc: 0xdead_beef,
                },
                SegmentMeta {
                    seqno: 2,
                    first_lsn: 10,
                    last_lsn: 17,
                    bytes: 390,
                    crc: 0x0000_00ff,
                },
            ],
            checkpoints: vec![0, 9],
            deltas: vec![(9, 0)],
        }
    }

    #[test]
    fn codec_round_trip() {
        let m = sample();
        let text = m.encode();
        assert!(text.starts_with("SEGS 1\n"));
        assert!(text.contains("S 1 1 9 420 deadbeef\n"));
        assert!(text.contains("C 9\n"));
        assert!(text.contains("D 9 0\n"));
        assert_eq!(SegmentManifest::decode(&text).unwrap(), m);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(SegmentManifest::decode("nope").is_err());
        assert!(SegmentManifest::decode("SEGS 1\nS 1 2 1 9 00\n").is_err()); // first > last
        assert!(SegmentManifest::decode("SEGS 1\nS 1 1\n").is_err());
        assert!(SegmentManifest::decode("SEGS 1\nC x\n").is_err());
        assert!(SegmentManifest::decode("SEGS 1\nX 1\n").is_err());
        assert!(SegmentManifest::decode("SEGS 1\nC 1 2\n").is_err());
        assert!(SegmentManifest::decode("SEGS 1\nD 5\n").is_err());
        assert!(SegmentManifest::decode("SEGS 1\nD 5 5\n").is_err()); // self-based
        assert!(SegmentManifest::decode("SEGS 1\nD 5 9\n").is_err()); // future base
        assert!(SegmentManifest::decode("SEGS 1\nD 9 5 1\n").is_err());
    }

    #[test]
    fn delta_lineage_resolves_and_guards_cycles() {
        let mut m = SegmentManifest::default();
        m.add_checkpoint(3);
        m.add_delta_checkpoint(7, 3);
        m.add_delta_checkpoint(12, 7);
        assert_eq!(m.delta_base_of(12), Some(7));
        assert_eq!(m.delta_base_of(3), None);
        assert_eq!(m.chain_to_full(12).unwrap(), vec![3, 7, 12]);
        assert_eq!(m.chain_to_full(3).unwrap(), vec![3]);
        assert_eq!(m.delta_depth(12), 2);
        assert_eq!(m.delta_depth(3), 0);
        // add_delta_checkpoint is idempotent per checkpoint LSN.
        m.add_delta_checkpoint(12, 7);
        assert_eq!(m.deltas, vec![(7, 3), (12, 7)]);
        // A hand-corrupted cyclic lineage (only constructible in memory —
        // decode rejects `base >= lsn`) is a typed error, not a hang.
        let cyclic = SegmentManifest {
            deltas: vec![(3, 7), (7, 3)],
            checkpoints: vec![3, 7],
            segments: vec![],
        };
        assert!(cyclic.chain_to_full(7).is_err());
    }

    #[test]
    fn required_checkpoints_keep_delta_bases() {
        let mut m = SegmentManifest::default();
        m.add_checkpoint(0);
        m.add_checkpoint(3);
        m.add_delta_checkpoint(7, 3);
        m.add_delta_checkpoint(12, 7);
        // Keeping LSN 12 keeps its whole lineage but drops checkpoint 0.
        let req = m.required_checkpoints(12);
        assert!(req.contains(&12) && req.contains(&7) && req.contains(&3));
        assert!(!req.contains(&0));
        // A floor below everything keeps everything.
        assert_eq!(m.required_checkpoints(0).len(), 4);
    }

    #[test]
    fn load_store_and_missing_is_empty() {
        let mut mem = MemStorage::new();
        assert_eq!(
            SegmentManifest::load(&mem).unwrap(),
            SegmentManifest::default()
        );
        let m = sample();
        m.store(&mut mem).unwrap();
        assert_eq!(SegmentManifest::load(&mem).unwrap(), m);
        assert_eq!(m.next_seqno().unwrap(), 3);
        assert_eq!(m.archived_bytes(), 810);
        assert_eq!(m.newest_checkpoint_at_or_below(8), Some(0));
        assert_eq!(m.newest_checkpoint_at_or_below(100), Some(9));
        assert_eq!(
            SegmentManifest::default().newest_checkpoint_at_or_below(5),
            None
        );
    }

    #[test]
    fn the_last_seqno_has_no_successor() {
        let text = format!("SEGS 1\nS {} 1 2 9 00\n", u64::MAX);
        let m = SegmentManifest::decode(&text).unwrap();
        assert!(matches!(m.next_seqno(), Err(DurableError::Corrupt(_))));
        assert_eq!(SegmentManifest::default().next_seqno().unwrap(), 1);
        let mut huge = m.clone();
        huge.segments.push(SegmentMeta {
            seqno: 1,
            bytes: u64::MAX,
            ..m.segments[0]
        });
        assert_eq!(huge.archived_bytes(), u64::MAX);
    }

    /// Every cut and every bit flip of an encoded manifest with `S`, `C`
    /// and `D` lines decodes or fails with a typed error — never a panic.
    #[test]
    fn damaged_manifests_decode_or_error() {
        let mut m = sample();
        m.segments[1].seqno = u64::MAX;
        m.segments[1].bytes = u64::MAX;
        let bytes = m.encode().into_bytes();
        let decode = |b: &[u8]| match std::str::from_utf8(b) {
            Ok(text) => SegmentManifest::decode(text).map(|_| ()),
            Err(_) => Err(DurableError::Corrupt("not UTF-8".into())),
        };
        for cut in 0..=bytes.len() {
            if let Err(e) = decode(&bytes[..cut]) {
                assert!(matches!(e, DurableError::Corrupt(_)), "cut {cut}: {e}");
            }
        }
        let mut decoded = 0;
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                match decode(&flipped) {
                    Ok(()) => decoded += 1,
                    Err(e) => assert!(matches!(e, DurableError::Corrupt(_)), "{i}/{bit}: {e}"),
                }
            }
        }
        // Digit flips that stay digits (and hex nibbles) still decode.
        assert!(decoded > 0);
    }

    #[test]
    fn verify_checks_size_and_crc() {
        let data = b"framed bytes";
        let meta = SegmentMeta {
            seqno: 1,
            first_lsn: 1,
            last_lsn: 2,
            bytes: data.len() as u64,
            crc: crc32(data),
        };
        meta.verify(data).unwrap();
        assert!(meta.verify(b"framed byteX").is_err());
        assert!(meta.verify(b"short").is_err());
    }

    #[test]
    fn names_are_zero_padded_and_sortable() {
        assert_eq!(segment_file_name(7), "wal.000007.seg");
        assert_eq!(checkpoint_archive_name(42), "ckpt.000000000042.snap");
        assert!(segment_file_name(9) < segment_file_name(10));
    }
}
