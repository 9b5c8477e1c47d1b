//! [`DurableDatabase`]: an [`asr_core::Database`] whose mutations are
//! write-ahead logged, checkpointed, and recoverable.
//!
//! # Files
//!
//! A durable database directory holds:
//!
//! * `MANIFEST` — marks the directory as a durable database
//!   (`ASRWAL 1`) and mirrors the checkpoint LSN for diagnostics;
//! * `checkpoint.snap` — a binary checkpoint document
//!   ([`asr_core::persist`]) whose header carries the LSN it covers and
//!   the live session ASR ids, in document order; a full checkpoint, or a
//!   delta over an archived one.  Checkpoints written before the binary
//!   format (`CKPT <lsn>` and `ASRIDS` text lines over an `ASRDB 1`/`2`
//!   snapshot) are still read;
//! * `wal.log` — checksummed frames of logical records since the last
//!   rotation ([`crate::wal`]);
//! * `wal.NNNNNN.seg`, `ckpt.NNNNNNNNNNNN.snap`, `segments.manifest` —
//!   sealed log segments and archived checkpoints for replication and
//!   point-in-time recovery ([`crate::segment`]).  A directory without
//!   `segments.manifest` (pre-segmentation, e.g. the v1 golden fixture)
//!   recovers through the plain checkpoint + `wal.log` path.
//!
//! # Protocol
//!
//! Every effective mutation is applied to the in-memory database and then
//! appended to the WAL (no-ops — setting an attribute to its current
//! value, inserting a present element — are filtered and *not* logged, so
//! the log replays exactly the operations that changed state).  Apply
//! happens before append because some outcomes (the OID an instantiation
//! picks, the id an ASR creation gets) are only known afterwards and are
//! part of the record; this is safe because the only state that survives
//! a crash *is* the checkpoint plus the log — in-memory state is lost
//! either way, and a failed append poisons the session so nothing
//! unlogged can be acknowledged afterwards.
//!
//! A checkpoint is *fuzzy*: `begin_checkpoint` flushes the WAL, takes
//! the fence LSN, and pins the state at the fence in an immutable
//! snapshot ([`asr_core::CheckpointSource`]); `complete_checkpoint`
//! serializes from that pin — concurrently with new commits — and
//! atomically writes the snapshot (with the fence LSN in its header)
//! before rewriting the manifest.  The log is never truncated by a
//! checkpoint: the snapshot's *own* header LSN is authoritative during
//! recovery, so records with `lsn <= checkpoint LSN` are simply skipped
//! and the next rotation seals them away.
//!
//! # Recovery
//!
//! [`DurableDatabase::open`] loads the checkpoint, scans the log under
//! the torn-tail rule (discarding at most the unacknowledged tail),
//! truncates any torn garbage, and replays the surviving records through
//! the incremental maintenance engine — cost proportional to the delta
//! since the checkpoint, not to the database size.
//!
//! # ASR id spaces
//!
//! The snapshot format stores only *live* ASRs, so loading a checkpoint
//! compacts dropped slots away while the crashed session kept logging
//! under its own (holey) ids.  The checkpoint header's ASR ids map
//! document order back to session ids, recovery translates replayed ids through
//! it, and whenever that translation was non-trivial recovery finishes
//! with an immediate checkpoint — truncating the log so records in the
//! old id space can never sit next to records in the new one.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use asr_core::{
    crc32, AsrConfig, AsrId, AsrLoadMode, CheckpointHeader, CheckpointSource, Database,
    Decomposition, Extension, Snapshot,
};
use asr_gom::{Oid, Schema, Value};
use asr_obs::FlightRecorder;
use asr_pagesim::{StructureId, StructureKind, PAGE_SIZE};

use crate::error::{DurableError, Result};
use crate::record::{LogOp, Record};
use crate::segment::{checkpoint_archive_name, SegmentManifest, SegmentMeta, READ_RETRIES};
use crate::storage::{read_stable, FsStorage, Storage};
use crate::wal::{scan_wal, FlushPolicy, WalWriter};

/// Marker + diagnostics file.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Checkpoint snapshot file.
pub const CHECKPOINT_FILE: &str = "checkpoint.snap";
/// Write-ahead log file.
pub const WAL_FILE: &str = "wal.log";

const MANIFEST_MAGIC: &str = "ASRWAL 1";

/// Structure-id label for modeled segment I/O.
const SEG_STRUCTURE: &str = "wal.segments";

/// Default size at which the active log rotates into a sealed segment.
/// Large enough that small interactive sessions and the crash-recovery
/// fuzzer never rotate unless they opt in via
/// [`DurableDatabase::set_segment_threshold`].
pub const DEFAULT_SEGMENT_THRESHOLD: usize = 64 * 1024;

/// How many flight-recorder events failure paths attach to their report
/// or error message ([`RecoveryReport::flight_tail`], the
/// [`DurableError::ReplicationStalled`] text).
pub const FLIGHT_TAIL_EVENTS: usize = 12;

/// Longest base→delta lineage [`DurableDatabase::checkpoint`] will extend
/// before it writes a full checkpoint.  Bounds both the recovery chain
/// walk and how much history a chain pins against
/// [`DurableDatabase::prune_segments`].
pub const DELTA_CHAIN_LIMIT: usize = 8;

/// What [`DurableDatabase::open`] did to bring the database back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN the loaded checkpoint covers.
    pub checkpoint_lsn: u64,
    /// Records replayed from the WAL tail.
    pub records_replayed: u64,
    /// Records skipped because the checkpoint already covered them.
    pub records_skipped: u64,
    /// Torn tail bytes discarded (and truncated away).
    pub torn_bytes: u64,
    /// Why the tail was discarded, when it was.
    pub torn_reason: Option<&'static str>,
    /// Modeled pages read to load the checkpoint *file* (headers, design
    /// and base sections).  Physical-section bytes are excluded: those
    /// pages are the ASR trees' images, and restoring them charges one
    /// read per node to the trees themselves.
    pub checkpoint_pages_read: u64,
    /// Modeled pages read to scan the WAL.
    pub wal_pages_read: u64,
    /// How each ASR came back from the checkpoint, in id order —
    /// physically adopted page images, delta-patched images, or a
    /// rebuild.
    pub asr_load_modes: Vec<(AsrId, AsrLoadMode)>,
    /// Deltas applied on top of the full base to resolve the checkpoint
    /// (0 when `checkpoint.snap` was itself a full snapshot).
    pub delta_chain: usize,
    /// The flight recorder's last events when recovery finished, compact
    /// one-line summaries oldest first.  When the session's recorder was
    /// shared with a fault injector (the crash-recovery harness does
    /// this), the tail names the injected fault that forced recovery.
    pub flight_tail: Vec<String>,
}

/// Point-in-time WAL status (what `\wal status` prints).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalStatus {
    /// Active flush policy.
    pub policy: FlushPolicy,
    /// LSN of the last logged record (0 when none yet).
    pub last_lsn: u64,
    /// LSN the current checkpoint covers.
    pub checkpoint_lsn: u64,
    /// Bytes durably in the log file.
    pub durable_bytes: usize,
    /// Records framed but not yet flushed.
    pub pending_records: usize,
    /// Whether a storage failure poisoned the session.
    pub poisoned: bool,
    /// Sealed segments currently retained.
    pub segment_count: usize,
    /// Total bytes held in sealed segments.
    pub archived_bytes: u64,
    /// First LSN crash recovery would replay (everything at or below the
    /// checkpoint LSN is prunable).
    pub oldest_needed_lsn: u64,
    /// The oldest LSN point-in-time recovery can still reach (the oldest
    /// archived checkpoint), when any history is archived.
    pub pitr_floor_lsn: Option<u64>,
    /// Base of the current checkpoint when it is a delta (`None` for a
    /// full snapshot).
    pub delta_base_lsn: Option<u64>,
    /// Deltas between the current checkpoint and its full base (0 for a
    /// full snapshot).
    pub delta_chain_depth: usize,
    /// Modeled pages the last checkpoint of this session wrote (0 before
    /// the first one).  [`DurableDatabase::full_checkpoint_pages`] prices
    /// a full one on demand.
    pub last_checkpoint_pages: u64,
    /// Group-commit pipeline counters, when the pipeline is enabled.
    pub group: Option<GroupCommitStatus>,
}

/// What [`DurableDatabase::checkpoint`] wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// LSN the checkpoint covers.
    pub lsn: u64,
    /// The base checkpoint the delta applies to (`None` for a full
    /// checkpoint).
    pub base_lsn: Option<u64>,
    /// Bytes of the published snapshot document (0 when nothing was
    /// logged since the current checkpoint and none was written).
    pub snapshot_bytes: u64,
    /// Modeled pages written (`checkpoint.snap` + its archived copy).
    pub pages_written: u64,
    /// Deltas between the checkpoint and its full base (0 for a full
    /// snapshot).
    pub chain_depth: usize,
}

impl CheckpointReport {
    /// `true` when the checkpoint was written as a delta.
    pub fn is_delta(&self) -> bool {
        self.base_lsn.is_some()
    }
}

/// Histogram bounds for group-commit batch sizes (records and sessions
/// per flushed group).
const GROUP_BATCH_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
/// Histogram bounds for group-commit latency (milliseconds from the
/// first pending commit to the flush that made it durable).
const GROUP_COMMIT_MS_BOUNDS: [f64; 6] = [0.05, 0.1, 0.5, 1.0, 5.0, 20.0];

/// Live state of the cross-session group-commit pipeline.
///
/// While enabled, the WAL runs under [`FlushPolicy::Explicit`] and
/// sessions announce commit points through
/// [`DurableDatabase::submit_commit`]; the pipeline flushes once per
/// *group* of commits — one `storage.append` (the modeled fsync) covers
/// every record of every session in the batch.
#[derive(Debug)]
struct GroupCommit {
    /// Flush once this many sessions have a commit pending.
    target: usize,
    /// Sessions with a commit submitted but not yet durable.
    pending: usize,
    /// When the oldest pending commit arrived (drives the commit-latency
    /// histogram); `None` while the group is empty.
    opened: Option<Instant>,
    /// Policy to restore when the pipeline is disabled.
    prev_policy: FlushPolicy,
    /// Groups flushed (batches that carried at least one record).
    groups: u64,
    /// Session commits made durable.
    commits: u64,
    /// Records made durable through the pipeline.
    records: u64,
    /// Modeled fsyncs (non-empty flushes) the pipeline performed.
    fsyncs: u64,
    /// Flush a *partial* group once this many ops (logged records +
    /// commit submissions) have elapsed since the group opened —
    /// `None` waits for a full group (or an explicit flush).
    deadline_ops: Option<u64>,
    /// Ops elapsed since the pipeline last flushed.
    ops_since_open: u64,
    /// Groups flushed by the deadline rather than by filling up.
    deadline_flushes: u64,
}

/// Point-in-time counters of the group-commit pipeline (the
/// `wal.group.*` slice of [`WalStatus`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitStatus {
    /// Sessions per group the pipeline waits for before flushing.
    pub target: usize,
    /// Sessions with a commit pending in the currently open group.
    pub pending_sessions: usize,
    /// Groups flushed so far.
    pub groups: u64,
    /// Session commits made durable so far.
    pub commits: u64,
    /// Records made durable through the pipeline so far.
    pub records: u64,
    /// Modeled fsyncs the pipeline performed so far.
    pub fsyncs: u64,
    /// Op-count deadline for flushing a partial group (`None` = wait
    /// for a full group).
    pub deadline_ops: Option<u64>,
    /// Ops elapsed since the pipeline last flushed.
    pub ops_since_open: u64,
    /// Groups flushed by the deadline rather than by filling up.
    pub deadline_flushes: u64,
}

impl GroupCommitStatus {
    /// Fsyncs per committed session — the group-commit win (`< 1.0`
    /// whenever batches carry more than one session's commit).
    pub fn fsyncs_per_commit(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.fsyncs as f64 / self.commits as f64
        }
    }
}

/// A checkpoint that has been *begun* but not yet published.
///
/// [`DurableDatabase::begin_checkpoint`] takes the WAL fence LSN and
/// pins the database state at that fence in an immutable
/// [`CheckpointSource`]; the session may keep committing — and readers
/// may keep querying [`PendingCheckpoint::snapshot`] — while the caller
/// serializes and publishes the image with
/// [`DurableDatabase::complete_checkpoint`].
#[derive(Debug)]
pub struct PendingCheckpoint {
    fence: u64,
    base_lsn: u64,
    /// Does the pinned source hold every change since `base_lsn`, so a
    /// delta over it can be written?
    tracked: bool,
    source: CheckpointSource,
}

impl PendingCheckpoint {
    /// The LSN this checkpoint will cover once published: every record
    /// at or below the fence is inside the pinned image, every record
    /// above it stays in the log for replay.
    pub fn fence(&self) -> u64 {
        self.fence
    }

    /// The pinned read-only view the checkpoint serializes from.
    /// Queries against it run concurrently with the session's writes
    /// *and* with [`DurableDatabase::complete_checkpoint`] itself.
    pub fn snapshot(&self) -> &Snapshot {
        self.source.snapshot()
    }
}

/// What a [`recover_to_lsn`] replay did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PitrReport {
    /// The LSN bound that was requested.
    pub bound: u64,
    /// The archived checkpoint the replay started from.
    pub checkpoint_lsn: u64,
    /// Records replayed on top of the checkpoint.
    pub records_replayed: u64,
    /// Records skipped as duplicates (already covered by the checkpoint
    /// or an earlier segment — rotation crash windows can overlap).
    pub records_skipped: u64,
    /// Sealed segments read during the replay.
    pub segments_read: u64,
    /// Modeled pages read (checkpoint + segments + tail).
    pub pages_read: u64,
}

/// What [`DurableDatabase::prune_segments`] reclaimed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Sealed segments deleted (all were fully covered by the newest
    /// checkpoint).
    pub segments_removed: u64,
    /// Bytes those segments held.
    pub bytes_reclaimed: u64,
    /// Archived checkpoints older than the newest one deleted with them.
    pub checkpoints_removed: u64,
}

/// A write-ahead-logged, checkpointed, crash-recoverable database.
///
/// Immutable access goes through `Deref<Target = Database>` (queries,
/// stats, the tracer); every mutation goes through the logged wrappers so
/// nothing durable can be skipped.
#[derive(Debug)]
pub struct DurableDatabase<S: Storage> {
    db: Database,
    storage: S,
    wal: WalWriter,
    checkpoint_lsn: u64,
    poisoned: bool,
    wal_sid: StructureId,
    ckpt_sid: StructureId,
    seg_sid: StructureId,
    report: RecoveryReport,
    manifest: SegmentManifest,
    /// LSN of the first record in the active `wal.log` (the next LSN
    /// when the file is empty) — the `first_lsn` a seal would record.
    active_first_lsn: u64,
    segment_threshold: usize,
    /// Modeled pages the last checkpoint wrote.
    last_ckpt_pages: u64,
    /// The session ASR ids the current checkpoint was written under: a
    /// delta over it must keep them.
    ckpt_ids: Vec<AsrId>,
    /// The cross-session group-commit pipeline, when enabled.
    group: Option<GroupCommit>,
    /// Highest fence a [`Self::begin_checkpoint`] ever took.  Beginning
    /// a checkpoint resets the database's dirty tracking at the fence,
    /// so if a pending checkpoint is abandoned (never completed) the
    /// next delta would silently miss the pre-fence changes — the next
    /// checkpoint is therefore a *full* one, republishing past the
    /// orphaned fence.
    fuzzy_fence: u64,
    /// Black-box recorder subscribed to the database's tracer; failure
    /// paths read their last-N-events tail from here.
    flightrec: Rc<FlightRecorder>,
}

fn pages(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(PAGE_SIZE as u64)
}

fn manifest_text(checkpoint_lsn: u64) -> String {
    format!("{MANIFEST_MAGIC}\ncheckpoint_lsn {checkpoint_lsn}\n")
}

impl<S: Storage> DurableDatabase<S> {
    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Make `db` durable in (empty) `storage`: writes an initial
    /// checkpoint capturing the schema and current state, then starts
    /// logging.  Errors with [`DurableError::AlreadyExists`] when the
    /// storage already holds a durable database.
    pub fn create(storage: S, db: Database, policy: FlushPolicy) -> Result<Self> {
        if storage.read(MANIFEST_FILE)?.is_some() {
            return Err(DurableError::AlreadyExists(
                "manifest present; use open() instead".into(),
            ));
        }
        let flightrec = FlightRecorder::shared();
        db.tracer().add_sink(flightrec.clone());
        let mut this = DurableDatabase {
            wal_sid: db.stats().register_structure(StructureKind::Wal, WAL_FILE),
            ckpt_sid: db
                .stats()
                .register_structure(StructureKind::Wal, CHECKPOINT_FILE),
            seg_sid: db
                .stats()
                .register_structure(StructureKind::Wal, SEG_STRUCTURE),
            db,
            storage,
            wal: WalWriter::new(WAL_FILE, policy, 1, 0),
            checkpoint_lsn: 0,
            poisoned: false,
            report: RecoveryReport::default(),
            manifest: SegmentManifest::default(),
            active_first_lsn: 1,
            segment_threshold: DEFAULT_SEGMENT_THRESHOLD,
            last_ckpt_pages: 0,
            ckpt_ids: Vec::new(),
            group: None,
            fuzzy_fence: 0,
            flightrec,
        };
        this.checkpoint()?;
        Ok(this)
    }

    /// Recover the database from `storage`: load the latest checkpoint
    /// and replay the WAL tail through incremental maintenance,
    /// discarding (and truncating) a torn tail.
    pub fn open(storage: S) -> Result<Self> {
        Self::open_with(storage, FlushPolicy::EveryRecord)
    }

    /// [`Self::open`] with an explicit flush policy for the new session.
    pub fn open_with(storage: S, policy: FlushPolicy) -> Result<Self> {
        Self::open_with_recorder(storage, policy, FlightRecorder::shared())
    }

    /// [`Self::open_with`] recovering into a caller-supplied flight
    /// recorder.  The crash-recovery harness shares one recorder between
    /// a [`crate::FaultyStorage`] and the reopening database, so the
    /// recovery report's [`RecoveryReport::flight_tail`] names the
    /// injected fault alongside the recovery phases it forced.
    pub fn open_with_recorder(
        mut storage: S,
        policy: FlushPolicy,
        flightrec: Rc<FlightRecorder>,
    ) -> Result<Self> {
        let r = Self::recover(&mut storage, policy, &flightrec)?;
        let mut this = DurableDatabase {
            db: r.db,
            storage,
            wal: r.wal,
            checkpoint_lsn: r.checkpoint_lsn,
            poisoned: false,
            wal_sid: r.wal_sid,
            ckpt_sid: r.ckpt_sid,
            seg_sid: r.seg_sid,
            report: r.report,
            manifest: r.manifest,
            active_first_lsn: r.active_first_lsn,
            segment_threshold: DEFAULT_SEGMENT_THRESHOLD,
            last_ckpt_pages: 0,
            ckpt_ids: r.checkpoint_ids,
            group: None,
            fuzzy_fence: r.checkpoint_lsn,
            flightrec,
        };
        if r.ids_remapped {
            // Replay translated ASR ids (dropped slots were compacted by
            // the checkpoint).  Checkpoint now so the log restarts in the
            // current id space — old-space and new-space records must
            // never share a log.
            this.checkpoint()?;
        }
        Ok(this)
    }

    fn recover(
        storage: &mut S,
        policy: FlushPolicy,
        flightrec: &Rc<FlightRecorder>,
    ) -> Result<Recovered> {
        // Manifest: the existence + version check.  It carries no
        // checksum, so it is read stabilized ([`read_stable`]): a single
        // read can be transiently mangled in flight, and recovery acting
        // on it would turn a one-off fault into permanent loss.  Every
        // binary file checksums its frames, so it is read once, and read
        // again stabilized only when a checksum fails or a frame looks
        // torn — before recovery acts on the damage.
        let manifest = read_stable(storage, MANIFEST_FILE, READ_RETRIES)?
            .ok_or_else(|| DurableError::NotADatabase("no MANIFEST in storage".into()))?;
        let manifest = String::from_utf8(manifest)
            .map_err(|_| DurableError::Corrupt("MANIFEST is not UTF-8".into()))?;
        if manifest.lines().next().map(str::trim) != Some(MANIFEST_MAGIC) {
            return Err(DurableError::Corrupt(format!(
                "bad MANIFEST magic (expected `{MANIFEST_MAGIC}`)"
            )));
        }

        // Checkpoint: its own header's LSN is authoritative — a
        // crash between writing the snapshot and the manifest leaves the
        // manifest stale.
        let load = |read: &dyn Fn(&str) -> Result<Option<Vec<u8>>>| {
            let snap = read(CHECKPOINT_FILE)?.ok_or_else(|| {
                DurableError::Corrupt("MANIFEST present but checkpoint.snap missing".into())
            })?;
            parse_checkpoint_chain(read, snap, CHECKPOINT_FILE)
        };
        // A text checkpoint (`CKPT ` over an `ASRDB 1`/`2` body) carries
        // no checksum either: it is read stabilized too.
        let read_once = |name: &str| -> Result<Option<Vec<u8>>> {
            match storage.read(name)? {
                Some(bytes) if bytes.starts_with(b"CKPT ") => {
                    read_stable(&*storage, name, READ_RETRIES)
                }
                read => Ok(read),
            }
        };
        let parsed = load(&read_once)
            .or_else(|_| load(&|name| read_stable(&*storage, name, READ_RETRIES)))?;
        let ParsedCheckpoint {
            mut db,
            lsn: checkpoint_lsn,
            mut asr_remap,
            pages_read: checkpoint_pages_read,
            asr_load_modes,
            asr_ids: checkpoint_ids,
            delta_chain,
            ..
        } = parsed;

        // The tracer only exists once the checkpoint-built database does,
        // so the black box attaches here and the checkpoint load itself
        // is recorded as an after-the-fact event rather than a span.
        db.tracer().add_sink(flightrec.clone());
        db.tracer().event(
            "recovery.checkpoint_loaded",
            &[
                ("lsn", checkpoint_lsn.to_string()),
                ("pages", checkpoint_pages_read.to_string()),
                ("delta_chain", delta_chain.to_string()),
            ],
        );

        // Sealed segments first (rotation/checkpoint crash windows can
        // leave records both sealed and still in `wal.log`; the LSN
        // cursor skips duplicates), then the active log under the
        // torn-tail rule.
        let seg_manifest = SegmentManifest::load(storage)?;
        let mut cursor = ReplayCursor::new(checkpoint_lsn);
        let mut seg_pages_read = 0u64;
        let mut seg_span = db.tracer().span("recovery.segment_replay");
        for seg in &seg_manifest.segments {
            if seg.last_lsn <= checkpoint_lsn {
                continue; // fully covered; prunable, not needed
            }
            let sealed = |read: &dyn Fn(&str) -> Result<Option<Vec<u8>>>| {
                let data = read(&seg.file_name())?.ok_or_else(|| {
                    DurableError::Corrupt(format!(
                        "segment {} is in segments.manifest but missing",
                        seg.file_name()
                    ))
                })?;
                seg.verify(&data)?;
                let scan = scan_wal(&data)?;
                if scan.torn_bytes > 0 {
                    // Sealed segments were fully acknowledged at seal
                    // time; a torn frame inside one is at-rest
                    // corruption, never an unacknowledged tail.
                    return Err(DurableError::Corrupt(format!(
                        "sealed segment {} has an invalid frame",
                        seg.file_name()
                    )));
                }
                Ok((data.len(), scan))
            };
            let (len, scan) = sealed(&|name| storage.read(name))
                .or_else(|_| sealed(&|name| read_stable(&*storage, name, READ_RETRIES)))?;
            seg_pages_read += pages(len);
            db.tracer().event(
                "recovery.segment_replayed",
                &[
                    ("seqno", seg.seqno.to_string()),
                    ("first_lsn", seg.first_lsn.to_string()),
                    ("last_lsn", seg.last_lsn.to_string()),
                ],
            );
            cursor.apply(&mut db, &scan.records, &mut asr_remap, u64::MAX)?;
        }
        let seg_replayed = cursor.replayed;
        seg_span.add_attr("replayed", seg_replayed.to_string());
        seg_span.finish();

        let mut wal_bytes = storage.read(WAL_FILE)?.unwrap_or_default();
        let scan = match scan_wal(&wal_bytes) {
            Ok(scan) if scan.torn_bytes == 0 => scan,
            // A torn tail is truncated below: first make sure the tear is
            // on disk, not in flight.
            _ => {
                wal_bytes = read_stable(&*storage, WAL_FILE, READ_RETRIES)?.unwrap_or_default();
                scan_wal(&wal_bytes)?
            }
        };
        let wal_pages_read = pages(wal_bytes.len());
        let mut wal_span = db.tracer().span("recovery.wal_replay");
        if scan.torn_bytes > 0 {
            db.tracer().event(
                "recovery.torn_tail",
                &[
                    (
                        "reason",
                        scan.torn_reason
                            .map_or("unknown", |r| r.label())
                            .to_string(),
                    ),
                    ("bytes", scan.torn_bytes.to_string()),
                ],
            );
            // Truncate the garbage so future appends extend a valid log.
            storage.write_atomic(WAL_FILE, &wal_bytes[..scan.valid_bytes])?;
        }
        cursor.apply(&mut db, &scan.records, &mut asr_remap, u64::MAX)?;
        wal_span.add_attr("replayed", (cursor.replayed - seg_replayed).to_string());
        wal_span.add_attr("skipped", cursor.skipped.to_string());
        wal_span.finish();
        let active_first_lsn = scan.records.first().map_or(cursor.tip + 1, |r| r.lsn);

        let report = RecoveryReport {
            checkpoint_lsn,
            records_replayed: cursor.replayed,
            records_skipped: cursor.skipped,
            torn_bytes: scan.torn_bytes as u64,
            torn_reason: scan.torn_reason.map(|r| r.label()),
            checkpoint_pages_read,
            wal_pages_read: wal_pages_read + seg_pages_read,
            asr_load_modes,
            delta_chain,
            flight_tail: flightrec.tail_summaries(FLIGHT_TAIL_EVENTS),
        };
        // Surface recovery through the freshly-built database's
        // observability layer (page reads + metrics counters).
        let stats = db.stats();
        let wal_sid = stats.register_structure(StructureKind::Wal, WAL_FILE);
        let ckpt_sid = stats.register_structure(StructureKind::Wal, CHECKPOINT_FILE);
        let seg_sid = stats.register_structure(StructureKind::Wal, SEG_STRUCTURE);
        for _ in 0..checkpoint_pages_read {
            stats.count_read_for(ckpt_sid);
        }
        for _ in 0..wal_pages_read {
            stats.count_read_for(wal_sid);
        }
        for _ in 0..seg_pages_read {
            stats.count_read_for(seg_sid);
        }
        let metrics = db.tracer().metrics();
        metrics.inc_counter("wal.recovery.records_replayed", cursor.replayed);
        metrics.inc_counter("wal.recovery.records_skipped", cursor.skipped);
        metrics.inc_counter("wal.recovery.torn_bytes", scan.torn_bytes as u64);
        metrics.set_gauge("wal.checkpoint_lsn", checkpoint_lsn as f64);
        metrics.set_gauge("wal.segments.count", seg_manifest.segments.len() as f64);
        metrics.set_gauge("wal.segments.bytes", seg_manifest.archived_bytes() as f64);

        Ok(Recovered {
            db,
            wal: WalWriter::new(WAL_FILE, policy, cursor.tip + 1, scan.valid_bytes),
            checkpoint_lsn,
            wal_sid,
            ckpt_sid,
            seg_sid,
            report,
            manifest: seg_manifest,
            active_first_lsn,
            checkpoint_ids,
            ids_remapped: !asr_remap.is_empty(),
        })
    }

    /// The report from the `open()` that produced this handle (all zeros
    /// for a freshly created database).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The black-box recorder subscribed to this database's tracer.
    /// Holds the last [`FlightRecorder::capacity`] spans/events; failure
    /// paths ([`crate::ship::replicate`] stalls, recovery reports) embed
    /// its tail.  Share it with a [`crate::FaultyChannel`] /
    /// [`crate::FaultyStorage`] so injected faults land in the same
    /// timeline.
    pub fn flight_recorder(&self) -> &Rc<FlightRecorder> {
        &self.flightrec
    }

    /// Give up durability and keep the in-memory database.  When the
    /// group-commit pipeline is on, buffered records are flushed first
    /// (best effort) so a clean teardown loses nothing.
    pub fn into_database(mut self) -> Database {
        if self.group.is_some() && !self.poisoned && self.wal.pending_records() > 0 {
            let _ = self.flush_wal_accounted();
        }
        std::mem::replace(&mut self.db, Database::new(Schema::new()))
    }

    /// The wrapped database (also available through `Deref`).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Pin a snapshot-isolated read view at the current commit epoch
    /// (see [`Database::snapshot`]).  The view is `Send` — readers on
    /// other threads keep answering from it, bit-identically, while
    /// this session continues to apply and log mutations.
    pub fn snapshot(&mut self) -> Snapshot {
        self.db.snapshot()
    }

    // ------------------------------------------------------------------
    // WAL control
    // ------------------------------------------------------------------

    /// Current WAL status.
    pub fn wal_status(&self) -> WalStatus {
        WalStatus {
            policy: self.wal.policy(),
            last_lsn: self.wal.last_lsn(),
            checkpoint_lsn: self.checkpoint_lsn,
            durable_bytes: self.wal.durable_bytes(),
            pending_records: self.wal.pending_records(),
            poisoned: self.poisoned,
            segment_count: self.manifest.segments.len(),
            archived_bytes: self.manifest.archived_bytes(),
            oldest_needed_lsn: self.checkpoint_lsn + 1,
            pitr_floor_lsn: self.manifest.checkpoints.first().copied(),
            delta_base_lsn: self.manifest.delta_base_of(self.checkpoint_lsn),
            delta_chain_depth: self.manifest.delta_depth(self.checkpoint_lsn),
            last_checkpoint_pages: self.last_ckpt_pages,
            group: self.group_commit_status(),
        }
    }

    /// The segment/checkpoint archive index.
    pub fn segment_manifest(&self) -> &SegmentManifest {
        &self.manifest
    }

    /// The storage backend (read access — e.g. for a
    /// [`crate::ship::LogShipper`] streaming this database's history).
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Rotate the active log into a sealed segment once it holds at
    /// least `bytes` durable bytes (checked after each flush).
    pub fn set_segment_threshold(&mut self, bytes: usize) {
        self.segment_threshold = bytes.max(1);
    }

    /// Change the group-flush policy (takes effect from the next record).
    pub fn set_flush_policy(&mut self, policy: FlushPolicy) {
        self.wal.set_policy(policy);
    }

    /// Force buffered records to storage.
    pub fn flush(&mut self) -> Result<()> {
        self.check_alive()?;
        let span = self.db.tracer().span("wal.flush");
        self.flush_wal_accounted()?;
        span.finish();
        self.maybe_rotate()
    }

    // ------------------------------------------------------------------
    // Group commit
    // ------------------------------------------------------------------

    /// Turn on the cross-session group-commit pipeline: the WAL switches
    /// to [`FlushPolicy::Explicit`] and commits submitted through
    /// [`Self::submit_commit`] are batched — the group flushes (one
    /// `storage.append`, the modeled fsync) once `target` sessions have
    /// a commit pending, amortizing one fsync over the whole batch.
    ///
    /// Explicit [`Self::flush`], checkpoints, and rotation still flush
    /// immediately; they close (and account) the open group.  Dropping
    /// the database or calling [`Self::into_database`] with the pipeline
    /// on flushes buffered records, so a clean teardown loses nothing.
    pub fn enable_group_commit(&mut self, target: usize) {
        let target = target.max(1);
        match self.group.as_mut() {
            Some(g) => g.target = target,
            None => {
                let prev_policy = self.wal.policy();
                self.wal.set_policy(FlushPolicy::Explicit);
                self.group = Some(GroupCommit {
                    target,
                    pending: 0,
                    opened: None,
                    prev_policy,
                    groups: 0,
                    commits: 0,
                    records: 0,
                    fsyncs: 0,
                    deadline_ops: None,
                    ops_since_open: 0,
                    deadline_flushes: 0,
                });
            }
        }
    }

    /// Turn the pipeline off: flush whatever the open group holds, then
    /// restore the flush policy that was active before
    /// [`Self::enable_group_commit`].
    pub fn disable_group_commit(&mut self) -> Result<()> {
        if self.group.is_none() {
            return Ok(());
        }
        self.check_alive()?;
        self.flush_wal_accounted()?;
        let g = self.group.take().expect("checked above");
        self.wal.set_policy(g.prev_policy);
        self.maybe_rotate()
    }

    /// Announce a session's commit point to the group-commit pipeline.
    ///
    /// Returns `Ok(true)` when the commit is durable on return (the
    /// group reached its target and flushed, or the pipeline is off and
    /// this degenerated to [`Self::flush`]); `Ok(false)` when the commit
    /// is parked in the open group, to be made durable by the flush that
    /// closes it.
    pub fn submit_commit(&mut self) -> Result<bool> {
        self.check_alive()?;
        if self.group.is_none() {
            self.flush()?;
            return Ok(true);
        }
        let (pending, target, due) = {
            let g = self.group.as_mut().expect("checked above");
            g.pending += 1;
            if g.opened.is_none() {
                g.opened = Some(Instant::now());
            }
            g.ops_since_open += 1;
            let due = g.deadline_ops.is_some_and(|d| g.ops_since_open >= d);
            (g.pending, g.target, due)
        };
        if pending >= target {
            self.flush()?;
            return Ok(true);
        }
        if due {
            self.flush_on_deadline()?;
            return Ok(true);
        }
        self.db
            .tracer()
            .metrics()
            .set_gauge("wal.group.pending_sessions", pending as f64);
        Ok(false)
    }

    /// Arm (or, with `None`, disarm) the group-flush deadline: a
    /// *partial* group flushes once `ops` ops — logged records plus
    /// commit submissions — have elapsed since the group opened, so a
    /// quiet session mix can't park a commit in the buffer
    /// indefinitely.  Deterministic (op-counted, not wall-clock), like
    /// every other schedule in the test harness.  No-op while the
    /// pipeline is off.
    pub fn set_group_commit_deadline(&mut self, ops: Option<u64>) {
        if let Some(g) = self.group.as_mut() {
            g.deadline_ops = ops.map(|o| o.max(1));
        }
    }

    /// A deadline-triggered group flush: count it, then flush normally
    /// (the ledger settles in [`Self::flush_wal_accounted`]).
    fn flush_on_deadline(&mut self) -> Result<()> {
        let pending = {
            let g = self.group.as_mut().expect("deadline implies pipeline");
            g.deadline_flushes += 1;
            g.pending
        };
        let metrics = self.db.tracer().metrics();
        metrics.inc_counter("wal.group.deadline_flushes", 1);
        self.db.tracer().event(
            "wal.group.deadline",
            &[("pending_sessions", pending.to_string())],
        );
        self.flush()
    }

    /// Pipeline counters, `None` while group commit is off.
    pub fn group_commit_status(&self) -> Option<GroupCommitStatus> {
        self.group.as_ref().map(|g| GroupCommitStatus {
            target: g.target,
            pending_sessions: g.pending,
            groups: g.groups,
            commits: g.commits,
            records: g.records,
            fsyncs: g.fsyncs,
            deadline_ops: g.deadline_ops,
            ops_since_open: g.ops_since_open,
            deadline_flushes: g.deadline_flushes,
        })
    }

    /// Flush the WAL and settle the group-commit ledger: the pending
    /// commits (and the records that carried them) are durable after
    /// the single `storage.append` a flush performs, so the open group
    /// closes here and the `wal.group.*` metrics record the batch.
    fn flush_wal_accounted(&mut self) -> Result<()> {
        let records = self.wal.pending_records() as u64;
        let before = self.wal.durable_bytes();
        let res = self.wal.flush(&mut self.storage);
        self.note_log_growth(before);
        self.poison_on_err(res)?;
        let Some(g) = self.group.as_mut() else {
            return Ok(());
        };
        let sessions = g.pending as u64;
        let elapsed_ms = g
            .opened
            .take()
            .map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
        g.pending = 0;
        g.ops_since_open = 0;
        g.commits += sessions;
        g.records += records;
        if records > 0 {
            g.groups += 1;
            g.fsyncs += 1;
        }
        let metrics = self.db.tracer().metrics();
        metrics.set_gauge("wal.group.pending_sessions", 0.0);
        if sessions > 0 {
            metrics.inc_counter("wal.group.commits", sessions);
            metrics.observe(
                "wal.group.batch_sessions",
                &GROUP_BATCH_BOUNDS,
                sessions as f64,
            );
            metrics.observe("wal.group.commit_ms", &GROUP_COMMIT_MS_BOUNDS, elapsed_ms);
        }
        if records > 0 {
            metrics.inc_counter("wal.group.records", records);
            metrics.inc_counter("wal.group.fsyncs", 1);
            metrics.observe(
                "wal.group.batch_records",
                &GROUP_BATCH_BOUNDS,
                records as f64,
            );
        }
        Ok(())
    }

    /// Checkpoint: flush, pin the state at the WAL fence, archive a PITR
    /// copy of the snapshot, publish the manifest, then atomically
    /// replace `checkpoint.snap` — writing only what changed since the
    /// current checkpoint whenever it can.
    ///
    /// The document is a delta over the current checkpoint when its
    /// archive is retained, the chain below it is shorter than
    /// [`DELTA_CHAIN_LIMIT`], and the physical design and the session's
    /// ASR ids are the ones it was written under; an ASR whose changed
    /// pages outweigh [`asr_core::persist::DELTA_FULL_FRACTION`] of its
    /// images ships the images inside the delta.  Otherwise it is a full
    /// document.  With nothing logged since the current checkpoint
    /// (and the ASR ids unchanged) it writes nothing and reports the
    /// standing checkpoint.
    ///
    /// Composes [`Self::begin_checkpoint`] + [`Self::complete_checkpoint`];
    /// see them for the fence/crash-window reasoning.  The log is *not*
    /// truncated — records at or below the fence are skipped by LSN
    /// during recovery and reclaimed by the next rotation.
    pub fn checkpoint(&mut self) -> Result<CheckpointReport> {
        self.check_alive()?;
        self.flush_wal_accounted()?;
        let ids: Vec<AsrId> = self.db.asrs().map(|(id, _)| id).collect();
        if self.wal.last_lsn() == self.checkpoint_lsn
            && self.manifest.checkpoints.contains(&self.checkpoint_lsn)
            && ids == self.ckpt_ids
        {
            let mut span = self.db.tracer().span("wal.checkpoint");
            span.add_attr("mode", "noop".to_string());
            span.finish();
            return Ok(CheckpointReport {
                lsn: self.checkpoint_lsn,
                base_lsn: self.manifest.delta_base_of(self.checkpoint_lsn),
                chain_depth: self.manifest.delta_depth(self.checkpoint_lsn),
                ..CheckpointReport::default()
            });
        }
        let pending = self.begin_checkpoint()?;
        self.complete_checkpoint(pending)
    }

    /// Start a fuzzy checkpoint: flush the WAL, take the fence LSN, and
    /// pin the database state at that fence in an immutable
    /// [`CheckpointSource`] snapshot — without pausing the session.
    ///
    /// Performs **no storage writes** of its own, so there is no new
    /// crash window: until [`Self::complete_checkpoint`] publishes the
    /// image, recovery sees the previous checkpoint plus the full log.
    /// Commits logged after `begin` carry LSNs above the fence and stay
    /// in the log for replay over the published image.
    ///
    /// Abandoning the returned [`PendingCheckpoint`] is safe, but the
    /// next checkpoint is then a full one (beginning a checkpoint clears
    /// the dirty tracking a delta would need).
    pub fn begin_checkpoint(&mut self) -> Result<PendingCheckpoint> {
        self.check_alive()?;
        self.flush_wal_accounted()?;
        let fence = self.wal.last_lsn();
        let base_lsn = self.checkpoint_lsn;
        // A delta's dirty sets are only complete when every earlier
        // fence was published (or covered by a published checkpoint).
        let tracked = self.fuzzy_fence <= base_lsn;
        self.fuzzy_fence = fence;
        let source = self.db.begin_checkpoint();
        Ok(PendingCheckpoint {
            fence,
            base_lsn,
            tracked,
            source,
        })
    }

    /// Publish a begun checkpoint — a delta over the checkpoint current
    /// at `begin` when one can be written (see [`Self::checkpoint`]),
    /// else a full document: archive copy + manifest entry first (PITR
    /// history + delta lineage), then the authoritative `checkpoint.snap`
    /// as the commit point, then the diagnostics `MANIFEST`.
    ///
    /// Every crash window falls *backwards*: until `checkpoint.snap` is
    /// replaced, recovery starts from the previous checkpoint and
    /// replays the longer log; after it, records at or below the fence
    /// are skipped by LSN.  Serialization reads only the pinned
    /// [`CheckpointSource`], so commits that landed between `begin` and
    /// `complete` are invisible to the image — they stay in the log,
    /// above the fence.
    pub fn complete_checkpoint(&mut self, pending: PendingCheckpoint) -> Result<CheckpointReport> {
        self.check_alive()?;
        let PendingCheckpoint {
            fence: lsn,
            base_lsn: base,
            tracked,
            source,
        } = pending;
        if lsn < self.checkpoint_lsn {
            return Err(DurableError::Corrupt(format!(
                "stale checkpoint: fence {lsn} is behind the published checkpoint {}",
                self.checkpoint_lsn
            )));
        }
        let mut span = self.db.tracer().span("wal.checkpoint");
        let ids = source.snapshot().asr_ids();
        // A delta never shares its base's LSN (and so its archive name).
        let delta = if tracked
            && base < lsn
            && base == self.checkpoint_lsn
            && self.manifest.checkpoints.contains(&base)
            && self.manifest.delta_depth(base) < DELTA_CHAIN_LIMIT
            && ids == self.ckpt_ids
        {
            source.save_delta(lsn, base)
        } else {
            None
        };
        let base_lsn = delta.is_some().then_some(base);
        let snap = delta.unwrap_or_else(|| source.save_full(lsn));
        drop(source);
        let res = self
            .storage
            .write_atomic(&checkpoint_archive_name(lsn), &snap);
        self.poison_on_err(res)?;
        match base_lsn {
            Some(b) => self.manifest.add_delta_checkpoint(lsn, b),
            None => self.manifest.add_checkpoint(lsn),
        }
        let res = self.manifest.store(&mut self.storage);
        self.poison_on_err(res)?;
        let res = self.storage.write_atomic(CHECKPOINT_FILE, &snap);
        self.poison_on_err(res)?;
        let res = self
            .storage
            .write_atomic(MANIFEST_FILE, manifest_text(lsn).as_bytes());
        self.poison_on_err(res)?;
        self.checkpoint_lsn = lsn;
        self.ckpt_ids = ids;
        let pages_written = pages(2 * snap.len());
        for _ in 0..pages_written {
            // checkpoint.snap + its archived copy
            self.db.stats().count_write_for(self.ckpt_sid);
        }
        self.last_ckpt_pages = pages_written;
        let chain_depth = self.manifest.delta_depth(lsn);
        let metrics = self.db.tracer().metrics();
        metrics.inc_counter("wal.checkpoints", 1);
        if base_lsn.is_some() {
            metrics.inc_counter("wal.checkpoints.delta", 1);
        }
        metrics.set_gauge("wal.checkpoint_lsn", lsn as f64);
        metrics.set_gauge("wal.checkpoint.chain_depth", chain_depth as f64);
        metrics.set_gauge("wal.segments.count", self.manifest.segments.len() as f64);
        metrics.set_gauge("wal.segments.bytes", self.manifest.archived_bytes() as f64);
        span.add_attr("lsn", lsn.to_string());
        span.add_attr("bytes", snap.len().to_string());
        span.add_attr(
            "mode",
            if base_lsn.is_some() { "delta" } else { "full" }.to_string(),
        );
        if let Some(b) = base_lsn {
            span.add_attr("base", b.to_string());
        }
        span.finish();
        Ok(CheckpointReport {
            lsn,
            base_lsn,
            snapshot_bytes: snap.len() as u64,
            pages_written,
            chain_depth,
        })
    }

    /// Modeled pages a full checkpoint of the state as it is now would
    /// write (`checkpoint.snap` + its archived copy), at the current
    /// checkpoint's LSN: the full document is rendered to price it, so
    /// only callers that show the comparison pay for it.
    pub fn full_checkpoint_pages(&self) -> u64 {
        pages(2 * self.db.save_checkpoint(self.checkpoint_lsn).len())
    }

    /// Rotate now: seal the active log (flushing first) into a segment
    /// and publish it in `segments.manifest`.  A no-op returning `None`
    /// when the log holds no records.
    pub fn rotate_segment(&mut self) -> Result<Option<SegmentMeta>> {
        self.check_alive()?;
        let mut span = self.db.tracer().span("wal.rotate");
        self.flush_wal_accounted()?;
        let Some(meta) = self.seal_active_log()? else {
            return Ok(None);
        };
        self.manifest.segments.push(meta);
        let res = self.manifest.store(&mut self.storage);
        self.poison_on_err(res)?;
        let res = self.storage.remove(WAL_FILE);
        self.poison_on_err(res)?;
        self.wal = WalWriter::new(WAL_FILE, self.wal.policy(), self.wal.next_lsn(), 0);
        self.active_first_lsn = self.wal.next_lsn();
        let metrics = self.db.tracer().metrics();
        metrics.inc_counter("wal.segments.sealed", 1);
        metrics.set_gauge("wal.segments.count", self.manifest.segments.len() as f64);
        metrics.set_gauge("wal.segments.bytes", self.manifest.archived_bytes() as f64);
        span.add_attr("seqno", meta.seqno.to_string());
        span.add_attr("first_lsn", meta.first_lsn.to_string());
        span.add_attr("last_lsn", meta.last_lsn.to_string());
        span.finish();
        Ok(Some(meta))
    }

    /// Delete sealed segments fully covered by the newest checkpoint,
    /// and archived checkpoints older than it — except checkpoints a
    /// retained delta chain still needs as bases (the PITR floor is
    /// delta-chain aware: pruning never orphans a delta).  Crash
    /// recovery never needs the pruned history; point-in-time recovery
    /// below the current checkpoint stops being served
    /// ([`recover_to_lsn`] then returns
    /// [`DurableError::PitrUnavailable`] for pruned bounds).
    pub fn prune_segments(&mut self) -> Result<PruneReport> {
        self.check_alive()?;
        let mut span = self.db.tracer().span("wal.prune");
        let keep_lsn = self.checkpoint_lsn;
        let required = self.manifest.required_checkpoints(keep_lsn);
        let pruned: Vec<SegmentMeta> = self
            .manifest
            .segments
            .iter()
            .copied()
            .filter(|s| s.last_lsn <= keep_lsn)
            .collect();
        let dropped_ckpts: Vec<u64> = self
            .manifest
            .checkpoints
            .iter()
            .copied()
            .filter(|c| !required.contains(c))
            .collect();
        if pruned.is_empty() && dropped_ckpts.is_empty() {
            return Ok(PruneReport::default());
        }
        let mut next = self.manifest.clone();
        next.segments.retain(|s| s.last_lsn > keep_lsn);
        next.checkpoints.retain(|c| required.contains(c));
        next.deltas.retain(|(l, _)| required.contains(l));
        // Publish the shrunken manifest first: a crash after it leaves
        // unreferenced files behind (harmless), a crash before it loses
        // nothing.
        let res = next.store(&mut self.storage);
        self.poison_on_err(res)?;
        self.manifest = next;
        for seg in &pruned {
            let res = self.storage.remove(&seg.file_name());
            self.poison_on_err(res)?;
        }
        for lsn in &dropped_ckpts {
            let res = self.storage.remove(&checkpoint_archive_name(*lsn));
            self.poison_on_err(res)?;
        }
        let report = PruneReport {
            segments_removed: pruned.len() as u64,
            bytes_reclaimed: pruned.iter().map(|s| s.bytes).sum(),
            checkpoints_removed: dropped_ckpts.len() as u64,
        };
        let metrics = self.db.tracer().metrics();
        metrics.inc_counter("wal.segments.pruned", report.segments_removed);
        metrics.set_gauge("wal.segments.count", self.manifest.segments.len() as f64);
        metrics.set_gauge("wal.segments.bytes", self.manifest.archived_bytes() as f64);
        span.add_attr("segments_removed", report.segments_removed.to_string());
        span.add_attr("bytes_reclaimed", report.bytes_reclaimed.to_string());
        span.finish();
        Ok(report)
    }

    /// Write the active log's bytes out as a sealed segment file (no
    /// manifest update, no log truncation — the caller sequences those
    /// for its own crash-window guarantees).  `None` when the log is
    /// empty.
    fn seal_active_log(&mut self) -> Result<Option<SegmentMeta>> {
        if self.wal.durable_bytes() == 0 {
            return Ok(None);
        }
        let bytes = self
            .poison_on_err(read_stable(&self.storage, WAL_FILE, READ_RETRIES))?
            .unwrap_or_default();
        let scan = scan_wal(&bytes)?;
        if scan.torn_bytes > 0 || bytes.len() != self.wal.durable_bytes() {
            // The writer acknowledged these bytes; disagreement here is
            // lost durability, not a crash artefact.
            self.poisoned = true;
            return Err(DurableError::Corrupt(format!(
                "active log holds {} valid of {} expected bytes at seal time",
                scan.valid_bytes,
                self.wal.durable_bytes()
            )));
        }
        let Some(first) = scan.records.first() else {
            return Ok(None);
        };
        let meta = SegmentMeta {
            seqno: self.manifest.next_seqno()?,
            first_lsn: first.lsn,
            last_lsn: scan.records.last().expect("non-empty").lsn,
            bytes: bytes.len() as u64,
            crc: crc32(&bytes),
        };
        let res = self.storage.write_atomic(&meta.file_name(), &bytes);
        self.poison_on_err(res)?;
        for _ in 0..pages(bytes.len()) {
            self.db.stats().count_write_for(self.seg_sid);
        }
        Ok(Some(meta))
    }

    /// Auto-rotation hook: seal once the durable log crosses the
    /// threshold and nothing is buffered (group-commit buffers flush on
    /// their own schedule; rotation never forces them early).
    fn maybe_rotate(&mut self) -> Result<()> {
        if self.wal.pending_records() == 0 && self.wal.durable_bytes() >= self.segment_threshold {
            self.rotate_segment()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Logged mutations
    // ------------------------------------------------------------------

    /// Create and register an object of `type_name` (logged).
    pub fn instantiate(&mut self, type_name: &str) -> Result<Oid> {
        self.check_alive()?;
        let oid = self.db.instantiate(type_name)?;
        self.log(LogOp::New {
            ty: type_name.to_string(),
            oid,
        })?;
        Ok(oid)
    }

    /// Assign an attribute with ASR maintenance (logged unless the value
    /// is unchanged).
    pub fn set_attribute(&mut self, owner: Oid, attr: &str, value: Value) -> Result<()> {
        self.check_alive()?;
        if self.db.base().get_attribute(owner, attr)? == value {
            return Ok(()); // no-op: nothing to maintain, nothing to log
        }
        self.db.set_attribute(owner, attr, value.clone())?;
        self.log(LogOp::Set {
            owner,
            attr: attr.to_string(),
            value,
        })
    }

    /// Insert into a set object with ASR maintenance (logged when the
    /// element was actually added).
    pub fn insert_into_set(&mut self, set: Oid, elem: Value) -> Result<bool> {
        self.check_alive()?;
        if !self.db.insert_into_set(set, elem.clone())? {
            return Ok(false);
        }
        self.log(LogOp::Insert { set, elem })?;
        Ok(true)
    }

    /// Remove from a set object with ASR maintenance (logged when the
    /// element was actually present).
    pub fn remove_from_set(&mut self, set: Oid, elem: &Value) -> Result<bool> {
        self.check_alive()?;
        if !self.db.remove_from_set(set, elem)? {
            return Ok(false);
        }
        self.log(LogOp::Remove {
            set,
            elem: elem.clone(),
        })?;
        Ok(true)
    }

    /// `insert o into owner.attr` — resolves the owning attribute to its
    /// set and logs the set-level insert.
    pub fn insert_into_attr_set(&mut self, owner: Oid, attr: &str, elem: Value) -> Result<bool> {
        self.check_alive()?;
        let set = self
            .db
            .base()
            .get_attribute(owner, attr)?
            .as_ref_oid()
            .ok_or_else(|| {
                DurableError::Asr(asr_core::AsrError::BadUpdatePosition(format!(
                    "{owner}.{attr} is NULL"
                )))
            })?;
        self.insert_into_set(set, elem)
    }

    /// Delete an object (logged; ASRs rebuild as in the plain database).
    pub fn delete_object(&mut self, oid: Oid) -> Result<()> {
        self.check_alive()?;
        self.db.delete_object(oid)?;
        self.log(LogOp::Delete { oid })
    }

    /// Bind a persistent variable (logged).
    pub fn bind_variable(&mut self, name: &str, value: Value) -> Result<()> {
        self.check_alive()?;
        self.db.bind_variable(name, value.clone());
        self.log(LogOp::Bind {
            name: name.to_string(),
            value,
        })
    }

    /// Configure the clustered object size of a type, by name (logged).
    pub fn set_type_size(&mut self, type_name: &str, bytes: usize) -> Result<()> {
        self.check_alive()?;
        let ty = self.db.base().schema().require(type_name)?;
        self.db.set_type_size(ty, bytes);
        self.log(LogOp::TypeSize {
            ty: type_name.to_string(),
            bytes,
        })
    }

    /// Build an access support relation over a dotted path (logged).
    pub fn create_asr_on(&mut self, dotted: &str, config: AsrConfig) -> Result<AsrId> {
        self.check_alive()?;
        let op = LogOp::CreateAsr {
            id: 0, // patched below with the assigned id
            path: dotted.to_string(),
            extension: config.extension.name().to_string(),
            cuts: config.decomposition.cuts().to_vec(),
            keep_set_oids: config.keep_set_oids,
        };
        let id = self.db.create_asr_on(dotted, config)?;
        let op = match op {
            LogOp::CreateAsr {
                path,
                extension,
                cuts,
                keep_set_oids,
                ..
            } => LogOp::CreateAsr {
                id,
                path,
                extension,
                cuts,
                keep_set_oids,
            },
            _ => unreachable!(),
        };
        self.log(op)?;
        Ok(id)
    }

    /// Drop an access support relation (logged).
    pub fn drop_asr(&mut self, id: AsrId) -> Result<()> {
        self.check_alive()?;
        self.db.drop_asr(id)?;
        self.log(LogOp::DropAsr { id })
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn check_alive(&self) -> Result<()> {
        if self.poisoned {
            Err(DurableError::Poisoned)
        } else {
            Ok(())
        }
    }

    fn poison_on_err<T>(&mut self, r: Result<T>) -> Result<T> {
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    /// Append one logical record, honouring the flush policy and
    /// attributing modeled page writes to the log's tail pages (group
    /// commit writes the shared tail page once, not once per record).
    fn log(&mut self, op: LogOp) -> Result<()> {
        let mut span = self.db.tracer().span("wal.append");
        let before = self.wal.durable_bytes();
        let res = self.wal.append(&mut self.storage, op);
        self.note_log_growth(before);
        self.poison_on_err(res)?;
        self.db.tracer().metrics().inc_counter("wal.records", 1);
        span.add_attr("lsn", self.wal.last_lsn().to_string());
        span.finish();
        // Each logged record ticks the group-flush deadline: parked
        // records and commits flush once the op budget elapses, even if
        // the group never fills (or never opens — a deadline bounds the
        // durability lag of *any* buffered record).
        let due = match self.group.as_mut() {
            Some(g) if g.deadline_ops.is_some() => {
                g.ops_since_open += 1;
                g.deadline_ops.is_some_and(|d| g.ops_since_open >= d)
            }
            _ => false,
        };
        if due {
            self.flush_on_deadline()?;
        }
        self.maybe_rotate()
    }

    /// Charge page writes for log growth from `before` to the current
    /// durable size: the tail page plus any newly filled pages.
    fn note_log_growth(&mut self, before: usize) {
        let after = self.wal.durable_bytes();
        if after == before {
            return;
        }
        let first = before / PAGE_SIZE;
        let last = (after - 1) / PAGE_SIZE;
        for _ in first..=last {
            self.db.stats().count_write_for(self.wal_sid);
        }
        let metrics = self.db.tracer().metrics();
        metrics.inc_counter("wal.flushes", 1);
        metrics.inc_counter("wal.bytes", (after - before) as u64);
    }
}

impl<S: Storage> Deref for DurableDatabase<S> {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

impl<S: Storage> Drop for DurableDatabase<S> {
    /// Clean-shutdown durability for the group-commit pipeline: records
    /// parked in an open group are flushed (best effort) so dropping a
    /// session that batched its commits loses nothing.  Sessions
    /// *without* the pipeline keep the historical semantics — dropping
    /// one models a process crash, and the unflushed suffix is lost
    /// (the crash-recovery harness relies on exactly that).
    fn drop(&mut self) {
        if self.group.is_some() && !self.poisoned && self.wal.pending_records() > 0 {
            let _ = self.flush_wal_accounted();
        }
    }
}

/// Replay one logical record against a recovering database.
///
/// ASR ids are remapped: checkpoint snapshots compact dropped slots away,
/// so an id logged after a drop may differ from the id the re-creation
/// yields; `asr_remap` carries logged-id → actual-id for later drops.
pub(crate) fn apply_op(
    db: &mut Database,
    op: &LogOp,
    asr_remap: &mut BTreeMap<AsrId, AsrId>,
) -> Result<()> {
    match op {
        LogOp::New { ty, oid } => {
            // Forced-OID restore: replay must reproduce the logged OID
            // even where a fresh instantiation would pick another one
            // (e.g. the pre-checkpoint maximum OID was deleted).
            db.instantiate_with_oid(ty, *oid)?;
        }
        LogOp::Set { owner, attr, value } => db.set_attribute(*owner, attr, value.clone())?,
        LogOp::Insert { set, elem } => {
            if !db.insert_into_set(*set, elem.clone())? {
                return Err(DurableError::ReplayMismatch(format!(
                    "insert into {set} was logged as effective but replayed as a no-op"
                )));
            }
        }
        LogOp::Remove { set, elem } => {
            if !db.remove_from_set(*set, elem)? {
                return Err(DurableError::ReplayMismatch(format!(
                    "remove from {set} was logged as effective but replayed as a no-op"
                )));
            }
        }
        LogOp::Delete { oid } => db.delete_object(*oid)?,
        LogOp::Bind { name, value } => db.bind_variable(name, value.clone()),
        LogOp::TypeSize { ty, bytes } => {
            let id = db.base().schema().require(ty)?;
            db.set_type_size(id, *bytes);
        }
        LogOp::CreateAsr {
            id,
            path,
            extension,
            cuts,
            keep_set_oids,
        } => {
            let ext = Extension::from_name(extension).ok_or_else(|| {
                DurableError::Corrupt(format!("unknown extension `{extension}` in WAL"))
            })?;
            let config = AsrConfig {
                extension: ext,
                decomposition: Decomposition::new(cuts.clone())?,
                keep_set_oids: *keep_set_oids,
            };
            let actual = db.create_asr_on(path, config)?;
            if actual != *id {
                asr_remap.insert(*id, actual);
            }
        }
        LogOp::DropAsr { id } => {
            let actual = asr_remap.get(id).copied().unwrap_or(*id);
            db.drop_asr(actual)?;
        }
    }
    Ok(())
}

/// Everything recovery produces except the storage handle itself (which
/// the caller still owns and moves into the assembled database).
struct Recovered {
    db: Database,
    wal: WalWriter,
    checkpoint_lsn: u64,
    wal_sid: StructureId,
    ckpt_sid: StructureId,
    seg_sid: StructureId,
    report: RecoveryReport,
    manifest: SegmentManifest,
    active_first_lsn: u64,
    /// The session ASR ids the loaded checkpoint was written under.
    checkpoint_ids: Vec<AsrId>,
    /// Replay had to translate ASR ids — the log must restart in the new
    /// id space (open() checkpoints immediately).
    ids_remapped: bool,
}

/// A checkpoint file pulled apart: header LSN, ASR id translation seeded
/// from the header's session ids, and the loaded database.
pub(crate) struct ParsedCheckpoint {
    pub(crate) db: Database,
    pub(crate) lsn: u64,
    pub(crate) asr_remap: BTreeMap<AsrId, AsrId>,
    /// Modeled pages to read the checkpoint *file(s)* (all but the ASR
    /// sections, which the load charges to the ASR trees).  A delta chain
    /// sums every link.
    pub(crate) pages_read: u64,
    pub(crate) asr_load_modes: Vec<(AsrId, AsrLoadMode)>,
    /// The session ASR ids the checkpoint was written under.
    pub(crate) asr_ids: Vec<AsrId>,
    /// Deltas applied on top of the full base (0 for a full checkpoint).
    pub(crate) delta_chain: usize,
    /// Raw bytes of every checkpoint file read (the top document plus
    /// any chain links).
    pub(crate) total_bytes: usize,
}

/// A checkpoint file's header, and the snapshot document it heads: the
/// file itself, or — for a text checkpoint written before the binary
/// format — the `ASRDB 1`/`2` body under its `CKPT <lsn>` and `ASRIDS
/// <ids>` lines.
pub(crate) fn checkpoint_parts<'a>(
    bytes: &'a [u8],
    what: &str,
) -> Result<(CheckpointHeader, &'a [u8])> {
    let corrupt = |msg: String| DurableError::Corrupt(format!("{what}: {msg}"));
    if !bytes.starts_with(b"CKPT ") {
        let header = CheckpointHeader::read(bytes).map_err(|e| corrupt(e.to_string()))?;
        return Ok((header, bytes));
    }
    let mut lines = bytes.splitn(3, |&b| b == b'\n');
    let (Some(ckpt), Some(ids), Some(body)) = (lines.next(), lines.next(), lines.next()) else {
        return Err(corrupt("text checkpoint header is cut short".into()));
    };
    let field = |line: &'a [u8], tag: &str| {
        std::str::from_utf8(line)
            .ok()
            .and_then(|l| l.strip_prefix(tag))
            .ok_or_else(|| corrupt(format!("bad {tag} header line")))
    };
    let lsn = field(ckpt, "CKPT ")?
        .trim()
        .parse()
        .map_err(|_| corrupt("bad checkpoint LSN".into()))?;
    let asr_ids = field(ids, "ASRIDS")?
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().map_err(|_| corrupt(format!("bad ASR id `{t}`"))))
        .collect::<Result<_>>()?;
    let header = CheckpointHeader {
        lsn,
        base: None,
        asr_ids,
    };
    Ok((header, body))
}

/// Loading compacts the document's ASRs into slots 0..k; seed the replay
/// translation from the session ids they had when logged.
pub(crate) fn remap_from_ids(session_ids: &[AsrId]) -> BTreeMap<AsrId, AsrId> {
    let mut asr_remap: BTreeMap<AsrId, AsrId> = BTreeMap::new();
    for (slot, orig) in session_ids.iter().enumerate() {
        if *orig != slot {
            asr_remap.insert(*orig, slot);
        }
    }
    asr_remap
}

fn assemble_parsed(
    header: &CheckpointHeader,
    db: Database,
    load: asr_core::LoadReport,
    total_bytes: usize,
) -> ParsedCheckpoint {
    ParsedCheckpoint {
        db,
        lsn: header.lsn,
        asr_remap: remap_from_ids(&header.asr_ids),
        pages_read: pages(total_bytes - load.physical_bytes.min(total_bytes)),
        asr_load_modes: load.asrs,
        asr_ids: header.asr_ids.clone(),
        delta_chain: load.delta_chain,
        total_bytes,
    }
}

/// Load a *full* checkpoint (a shipped bootstrap delivery, or any
/// checkpoint known to be full).  A delta is an error — it cannot be
/// loaded without its base chain (see [`parse_checkpoint_chain`]).
pub(crate) fn parse_checkpoint(bytes: &[u8], what: &str) -> Result<ParsedCheckpoint> {
    let (header, body) = checkpoint_parts(bytes, what)?;
    if header.is_delta() {
        return Err(DurableError::Corrupt(format!(
            "{what} is a delta checkpoint; its base chain is required to load it"
        )));
    }
    let (db, load) = Database::load_from_string_report(body)?;
    Ok(assemble_parsed(&header, db, load, bytes.len()))
}

/// Load a checkpoint, resolving a delta through its archived base chain:
/// each delta names its base checkpoint LSN, whose
/// [`checkpoint_archive_name`] file is read through `read`, down to a
/// full checkpoint; the chain is then applied oldest-first (leniently — a
/// patch that cannot apply falls back to a charged rebuild, as crash
/// recovery must come back up).
pub(crate) fn parse_checkpoint_chain(
    read: &dyn Fn(&str) -> Result<Option<Vec<u8>>>,
    bytes: Vec<u8>,
    what: &str,
) -> Result<ParsedCheckpoint> {
    let (top, _) = checkpoint_parts(&bytes, what)?;
    let Some(mut base_id) = top.base else {
        return parse_checkpoint(&bytes, what);
    };
    let mut total_bytes = bytes.len();
    let mut visited = std::collections::BTreeSet::from([top.lsn]);
    let mut deltas: Vec<Vec<u8>> = vec![bytes]; // newest first
    let full = loop {
        if !visited.insert(base_id) {
            return Err(DurableError::Corrupt(format!(
                "delta checkpoint chain under {what} is cyclic at LSN {base_id}"
            )));
        }
        let name = checkpoint_archive_name(base_id);
        let bytes = read(&name)?.ok_or_else(|| {
            DurableError::Corrupt(format!(
                "{what} is a delta over checkpoint LSN {base_id}, but its archive {name} is missing"
            ))
        })?;
        let (header, _) = checkpoint_parts(&bytes, &name)?;
        if header.lsn != base_id {
            return Err(DurableError::Corrupt(format!(
                "archived checkpoint {name} claims LSN {}",
                header.lsn
            )));
        }
        total_bytes += bytes.len();
        match header.base {
            Some(next) => {
                base_id = next;
                deltas.push(bytes);
            }
            None => break bytes,
        }
    };
    let (_, body) = checkpoint_parts(&full, "base checkpoint")?;
    let links: Vec<&[u8]> = deltas.iter().rev().map(Vec::as_slice).collect();
    let (db, load) = Database::load_from_chain_report(body, &links)?;
    Ok(assemble_parsed(&top, db, load, total_bytes))
}

/// LSN-driven replay over possibly-overlapping record streams
/// (checkpoint < segments < active log): duplicates are skipped, gaps
/// are hard errors, records past `bound` are ignored.
struct ReplayCursor {
    /// Highest LSN applied (or covered by the starting checkpoint).
    tip: u64,
    replayed: u64,
    skipped: u64,
}

impl ReplayCursor {
    fn new(checkpoint_lsn: u64) -> Self {
        ReplayCursor {
            tip: checkpoint_lsn,
            replayed: 0,
            skipped: 0,
        }
    }

    fn apply(
        &mut self,
        db: &mut Database,
        records: &[Record],
        asr_remap: &mut BTreeMap<AsrId, AsrId>,
        bound: u64,
    ) -> Result<()> {
        for rec in records {
            if rec.lsn > bound {
                break; // records are in LSN order within a stream
            }
            if rec.lsn <= self.tip {
                self.skipped += 1;
                continue;
            }
            if rec.lsn != self.tip + 1 {
                return Err(DurableError::Corrupt(format!(
                    "LSN gap in replay: have {}, next record is {}",
                    self.tip, rec.lsn
                )));
            }
            apply_op(db, &rec.op, asr_remap)?;
            self.tip = rec.lsn;
            self.replayed += 1;
        }
        Ok(())
    }
}

/// Point-in-time recovery: rebuild the database as it stood at LSN
/// `bound`.
///
/// Picks the newest archived checkpoint at or below the bound and
/// replays sealed segments (whole-file CRC verified) plus the active log
/// up to it.  Because the starting checkpoint is the *newest* one under
/// the bound, the replayed range never crosses a checkpoint — so the
/// ASR id translation of that one checkpoint covers every replayed
/// record.
///
/// Read-only: storage is not modified (a torn tail in the live log is
/// tolerated, not truncated).  Returns [`DurableError::PitrUnavailable`]
/// when no archived checkpoint at or below the bound survives (pruned or
/// pre-segmentation database) or when retained history ends before the
/// bound.
pub fn recover_to_lsn<S: Storage>(storage: &S, bound: u64) -> Result<(Database, PitrReport)> {
    let manifest = SegmentManifest::load(storage)?;
    let ckpt_lsn = manifest
        .newest_checkpoint_at_or_below(bound)
        .ok_or_else(|| {
            DurableError::PitrUnavailable(match manifest.checkpoints.first() {
                Some(floor) => {
                    format!("no archived checkpoint at or below LSN {bound} (floor is {floor})")
                }
                None => format!("no archived checkpoints exist (bound {bound})"),
            })
        })?;
    let archive = checkpoint_archive_name(ckpt_lsn);
    let snap = read_stable(storage, &archive, READ_RETRIES)?.ok_or_else(|| {
        DurableError::PitrUnavailable(format!("archived checkpoint {archive} is missing"))
    })?;
    let parsed = parse_checkpoint_chain(
        &|name| read_stable(storage, name, READ_RETRIES),
        snap,
        &archive,
    )?;
    let mut pages_read = pages(parsed.total_bytes);
    let ParsedCheckpoint {
        mut db,
        lsn,
        mut asr_remap,
        ..
    } = parsed;
    if lsn != ckpt_lsn {
        return Err(DurableError::Corrupt(format!(
            "archived checkpoint {archive} claims LSN {lsn}"
        )));
    }

    let mut cursor = ReplayCursor::new(ckpt_lsn);
    let mut segments_read = 0u64;
    for seg in &manifest.segments {
        if seg.last_lsn <= ckpt_lsn || seg.first_lsn > bound {
            continue;
        }
        let data = read_stable(storage, &seg.file_name(), READ_RETRIES)?.ok_or_else(|| {
            DurableError::Corrupt(format!(
                "segment {} is in segments.manifest but missing",
                seg.file_name()
            ))
        })?;
        seg.verify(&data)?;
        let scan = scan_wal(&data)?;
        if scan.torn_bytes > 0 {
            return Err(DurableError::Corrupt(format!(
                "sealed segment {} has an invalid frame",
                seg.file_name()
            )));
        }
        cursor.apply(&mut db, &scan.records, &mut asr_remap, bound)?;
        segments_read += 1;
        pages_read += pages(data.len());
    }
    if cursor.tip < bound {
        let wal_bytes = read_stable(storage, WAL_FILE, READ_RETRIES)?.unwrap_or_default();
        pages_read += pages(wal_bytes.len());
        let scan = scan_wal(&wal_bytes)?;
        cursor.apply(&mut db, &scan.records, &mut asr_remap, bound)?;
    }
    if cursor.tip < bound {
        return Err(DurableError::PitrUnavailable(format!(
            "retained history ends at LSN {}, bound {bound} is not reachable",
            cursor.tip
        )));
    }
    Ok((
        db,
        PitrReport {
            bound,
            checkpoint_lsn: ckpt_lsn,
            records_replayed: cursor.replayed,
            records_skipped: cursor.skipped,
            segments_read,
            pages_read,
        },
    ))
}

/// Extension trait putting `Database::open_durable(dir)` /
/// `Database::create_durable(dir)` in scope: file-system-backed
/// durability with one import.
pub trait OpenDurable: Sized {
    /// Recover a durable database from `dir`.
    fn open_durable(dir: impl AsRef<Path>) -> Result<DurableDatabase<FsStorage>>;

    /// Make this database durable in `dir` (which must not already hold
    /// one), flushing every record.
    fn create_durable(self, dir: impl AsRef<Path>) -> Result<DurableDatabase<FsStorage>>;
}

impl OpenDurable for Database {
    fn open_durable(dir: impl AsRef<Path>) -> Result<DurableDatabase<FsStorage>> {
        DurableDatabase::open(FsStorage::new(dir)?)
    }

    fn create_durable(self, dir: impl AsRef<Path>) -> Result<DurableDatabase<FsStorage>> {
        DurableDatabase::create(FsStorage::new(dir)?, self, FlushPolicy::EveryRecord)
    }
}
