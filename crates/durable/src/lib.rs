//! # asr-durable — durability for access-support databases
//!
//! Kemper & Moerkotte's access support relations are *derived* data: the
//! snapshot format (`asr-core/persist`) stores only their configuration
//! and rebuilds them on load.  That makes cold recovery O(database).
//! This crate adds the classical log-structured alternative so recovery
//! is O(delta) instead:
//!
//! * a **write-ahead log** ([`wal`]) of logical schema/object mutations
//!   and ASR maintenance operations — length-prefixed, CRC-32-checksummed
//!   frames with monotonic LSNs and group flush ([`FlushPolicy`]);
//! * **checkpoints** ([`db`]) that capture the whole database through the
//!   existing snapshot format, record the LSN they cover, and truncate
//!   the log;
//! * **recovery** that loads the latest checkpoint and replays the WAL
//!   tail through the incremental maintenance engine (Section 6 of the
//!   paper) rather than rebuilding every ASR from scratch, detecting and
//!   discarding torn tails by the CRC rule;
//! * a **fault-injection harness** ([`fault`], [`storage`]): storage is a
//!   trait with a real-file-system and an in-memory backend, and a
//!   decorator that crashes after N writes, tears the final append, or
//!   flips bits (on the write *and* read paths) — driving the exhaustive
//!   crash-recovery test in `tests/crash_recovery.rs`;
//! * **WAL segmentation** ([`segment`]): the log rotates into sealed,
//!   whole-file-checksummed segments indexed by `segments.manifest`,
//!   with archived checkpoint copies retained for history;
//! * **log shipping** ([`ship`], [`replica`]): a [`LogShipper`] streams
//!   sealed segments and live tail frames over an in-process [`Channel`]
//!   to a [`ReplicaApplier`], which detects gaps and corruption by LSN
//!   and CRC, NACKs, and converges a warm standby even when the channel
//!   drops, duplicates, reorders, truncates or bit-flips deliveries
//!   ([`FaultyChannel`]);
//! * **point-in-time recovery** ([`recover_to_lsn`]): rebuild the
//!   database as of any retained LSN from the newest archived checkpoint
//!   at or below the bound plus segment replay.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod db;
pub mod error;
pub mod fault;
pub mod record;
pub mod replica;
pub mod segment;
pub mod ship;
pub mod storage;
pub mod wal;

pub use asr_core::crc32;
pub use db::{
    recover_to_lsn, CheckpointReport, DurableDatabase, GroupCommitStatus, OpenDurable,
    PendingCheckpoint, PitrReport, PruneReport, RecoveryReport, WalStatus, CHECKPOINT_FILE,
    DEFAULT_SEGMENT_THRESHOLD, DELTA_CHAIN_LIMIT, FLIGHT_TAIL_EVENTS, MANIFEST_FILE, WAL_FILE,
};
pub use error::{DurableError, Result};
pub use fault::{BitFlip, FaultPlan, FaultyStorage, ReadFlip};
pub use record::{LogOp, Record};
pub use replica::{OfferOutcome, ReplicaApplier, ReplicaStatus};
pub use segment::{
    checkpoint_archive_name, segment_file_name, SegmentManifest, SegmentMeta, SEGMENT_MANIFEST_FILE,
};
pub use ship::{
    replicate, BackoffPolicy, Channel, ChannelStats, ChaosProfile, FaultyChannel, LogShipper,
    LosslessChannel, Need, ReplicateOptions, ShipReport,
};
pub use storage::{read_stable, FsStorage, MemStorage, Storage};
pub use wal::{
    frame, frame_len, scan_wal, split_frame, FlushPolicy, FrameError, TornReason, WalScan,
    WalWriter,
};
