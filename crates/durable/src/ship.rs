//! Log shipping: stream a primary's WAL history to a replica over a
//! lossy channel.
//!
//! # Protocol
//!
//! The protocol is *pull-shaped and stateless on the shipper side*: the
//! [`ReplicaApplier`] owns the only durable cursor (its applied LSN),
//! and every shipping round starts from what the replica says it needs
//! ([`ReplicaApplier::needed`] — effectively a NACK/resume point):
//!
//! ```text
//!          ┌────────────── NeedCheckpoint ──────────────┐
//!          ▼                                            │
//!   [Unseeded] --Checkpoint(lsn)--> [Caught-up to lsn]  │
//!                                        │              │
//!              Need From(l) ─────────────┘              │
//!                 │                                     │
//!                 ├─ history ≥ l retained: Segment*, Frames
//!                 └─ history pruned below l — the pump renegotiates:
//!                      · replica retains base B, B in the primary's
//!                        delta lineage: Need DeltaBootstrap(B) →
//!                        DeltaCheckpoint*, Segment*, Frames
//!                        (only the changed pages since B are shipped)
//!                      · otherwise: Checkpoint, DeltaCheckpoint*,
//!                        Segment*, Frames (the full chain)
//!
//!   delivery outcomes at the applier:
//!     Applied / Bootstrapped  → progress, reset backoff
//!     Duplicate               → ignored (dup or stale delivery)
//!     Gap / Corrupt           → NACK: next round re-ships from
//!                               `needed()`, after exponential backoff
//! ```
//!
//! A `DeltaCheckpoint` delivery carries a delta checkpoint whose header
//! names the checkpoint state it patches.  The applier retains its last
//! full-state checkpoint; a delta whose
//! base matches is applied strictly (any inconsistency NACKs — the
//! replica never silently rebuilds), a delta over an unknown base NACKs
//! as a gap, and the shipper answers a base it no longer has in its
//! lineage with the full chain instead.
//!
//! Every delivery is one [`ShipMessage`] wrapped in the WAL's
//! `[len][crc32][payload]` envelope ([`crate::wal::frame`]), so a
//! truncated or bit-flipped delivery is detected at the applier exactly
//! like a torn log tail — by length and CRC — and simply NACKed.
//! Reordered or duplicated deliveries are detected by LSN.  The replica
//! therefore either converges to the primary's state or surfaces a
//! typed error ([`DurableError::ReplicationStalled`]); it never
//! diverges silently.
//!
//! # Backoff
//!
//! Retries are *modeled*, not slept: a round that makes no progress
//! charges `min(cap, base << failures)` ticks to the report, doubling
//! per consecutive failed round.  Tests assert on tick totals without
//! wall-clock flakiness.

use std::collections::VecDeque;
use std::rc::Rc;

use asr_obs::{Attrs, FlightRecorder};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::db::{checkpoint_parts, DurableDatabase, CHECKPOINT_FILE, FLIGHT_TAIL_EVENTS, WAL_FILE};
use crate::error::{DurableError, Result};
use crate::replica::{OfferOutcome, ReplicaApplier};
use crate::segment::{checkpoint_archive_name, SegmentManifest, READ_RETRIES};
use crate::storage::{read_stable, Storage};
use crate::wal::{frame, scan_wal, split_frame};

// ----------------------------------------------------------------------
// Wire format
// ----------------------------------------------------------------------

const TAG_CHECKPOINT: u8 = b'C';
const TAG_SEGMENT: u8 = b'S';
const TAG_FRAMES: u8 = b'F';
const TAG_DELTA_CHECKPOINT: u8 = b'D';

/// One unit of shipped history (a delivery on the [`Channel`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipMessage {
    /// A full checkpoint snapshot (`checkpoint.snap` bytes) seeding or
    /// re-seeding the replica.
    Checkpoint(Vec<u8>),
    /// A delta checkpoint that patches the checkpoint state its header
    /// names as its base — shipped instead of a full snapshot when the
    /// replica holds the base.
    DeltaCheckpoint(Vec<u8>),
    /// A sealed segment: its manifest coordinates plus the raw frames.
    Segment {
        /// Rotation sequence number.
        seqno: u64,
        /// First LSN in the segment.
        first_lsn: u64,
        /// Last LSN in the segment.
        last_lsn: u64,
        /// The segment file's bytes (WAL frames).
        frames: Vec<u8>,
    },
    /// Live tail frames from the active `wal.log` (valid prefix only).
    Frames(Vec<u8>),
}

impl ShipMessage {
    /// Serialize into a delivery: `frame([tag][body])`, so the envelope
    /// CRC covers the whole message.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            ShipMessage::Checkpoint(bytes) => {
                payload.push(TAG_CHECKPOINT);
                payload.extend_from_slice(bytes);
            }
            ShipMessage::DeltaCheckpoint(bytes) => {
                payload.push(TAG_DELTA_CHECKPOINT);
                payload.extend_from_slice(bytes);
            }
            ShipMessage::Segment {
                seqno,
                first_lsn,
                last_lsn,
                frames,
            } => {
                payload.push(TAG_SEGMENT);
                payload
                    .extend_from_slice(format!("SEG {seqno} {first_lsn} {last_lsn}\n").as_bytes());
                payload.extend_from_slice(frames);
            }
            ShipMessage::Frames(bytes) => {
                payload.push(TAG_FRAMES);
                payload.extend_from_slice(bytes);
            }
        }
        frame(&payload)
    }

    /// Parse a delivery.  `None` means the envelope is damaged
    /// (truncated, extended, or failing its CRC) — the applier treats
    /// that as a NACKable corrupt delivery, never a hard error.
    pub fn decode(delivery: &[u8]) -> Option<ShipMessage> {
        let Ok((payload, [])) = split_frame(delivery, usize::MAX) else {
            return None;
        };
        let (&tag, body) = payload.split_first()?;
        match tag {
            TAG_CHECKPOINT => Some(ShipMessage::Checkpoint(body.to_vec())),
            TAG_DELTA_CHECKPOINT => Some(ShipMessage::DeltaCheckpoint(body.to_vec())),
            TAG_FRAMES => Some(ShipMessage::Frames(body.to_vec())),
            TAG_SEGMENT => {
                let nl = body.iter().position(|b| *b == b'\n')?;
                let header = std::str::from_utf8(&body[..nl]).ok()?;
                let mut parts = header.split_whitespace();
                if parts.next() != Some("SEG") {
                    return None;
                }
                let seqno: u64 = parts.next()?.parse().ok()?;
                let first_lsn: u64 = parts.next()?.parse().ok()?;
                let last_lsn: u64 = parts.next()?.parse().ok()?;
                if parts.next().is_some() {
                    return None;
                }
                Some(ShipMessage::Segment {
                    seqno,
                    first_lsn,
                    last_lsn,
                    frames: body[nl + 1..].to_vec(),
                })
            }
            _ => None,
        }
    }
}

/// What a replica asks the shipper for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    /// No state yet (or re-seed): ship a checkpoint plus everything
    /// after it.
    Checkpoint,
    /// Ship records with LSN `>= .0` (the applier's `applied + 1`).
    From(u64),
    /// Re-seed a replica that still holds the full checkpoint state at
    /// LSN `.0`: ship only the delta checkpoints above that base (plus
    /// history after the newest one).  A base the shipper's lineage no
    /// longer contains degrades to the full-chain answer.
    DeltaBootstrap(u64),
}

// ----------------------------------------------------------------------
// Channel
// ----------------------------------------------------------------------

/// The one byte-queue trait: shipper → applier here, and a wire client's
/// view of its session (`send` a request frame, `recv` the next response
/// delivery) in `asr-net`.  Deliveries are opaque byte blobs;
/// implementations are free to lose or mangle them — integrity is
/// enforced end-to-end by the message envelope, not by the channel.
pub trait Channel {
    /// Enqueue a delivery (which the channel may drop, damage, duplicate
    /// or reorder).
    fn send(&mut self, delivery: Vec<u8>);
    /// Dequeue the next delivery, if any.
    fn recv(&mut self) -> Option<Vec<u8>>;
}

/// A perfect FIFO channel.
#[derive(Debug, Default)]
pub struct LosslessChannel {
    queue: VecDeque<Vec<u8>>,
}

impl LosslessChannel {
    /// An empty channel.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Channel for LosslessChannel {
    fn send(&mut self, delivery: Vec<u8>) {
        self.queue.push_back(delivery);
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        self.queue.pop_front()
    }
}

/// Per-fault probabilities (percent, 0–100) for a [`FaultyChannel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosProfile {
    /// Chance a delivery vanishes entirely.
    pub drop_pct: u8,
    /// Chance a delivery is enqueued twice.
    pub dup_pct: u8,
    /// Chance a delivery is inserted at a random queue position instead
    /// of the back.
    pub reorder_pct: u8,
    /// Chance a delivery loses a random-length tail.
    pub truncate_pct: u8,
    /// Chance one random bit of a delivery is flipped.
    pub flip_pct: u8,
}

impl ChaosProfile {
    /// A moderately hostile profile derived deterministically from
    /// `seed` — every fault class gets a non-trivial probability, so a
    /// seeded fuzz run exercises all of them in combination.
    pub fn from_seed(seed: u64) -> Self {
        let mut r = seeded_rng(seed ^ 0x00C0_FFEE);
        ChaosProfile {
            drop_pct: (r.next_u64() % 30) as u8,
            dup_pct: (r.next_u64() % 30) as u8,
            reorder_pct: (r.next_u64() % 30) as u8,
            truncate_pct: (r.next_u64() % 25) as u8,
            flip_pct: (r.next_u64() % 25) as u8,
        }
    }

    /// Lose everything: every delivery is dropped (a network blackout).
    pub fn blackout() -> Self {
        ChaosProfile {
            drop_pct: 100,
            ..Self::default()
        }
    }
}

/// Delivery accounting for a [`FaultyChannel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Deliveries offered to the channel.
    pub sent: u64,
    /// Deliveries handed to the receiver.
    pub delivered: u64,
    /// Deliveries dropped outright.
    pub dropped: u64,
    /// Extra copies enqueued.
    pub duplicated: u64,
    /// Deliveries enqueued out of order.
    pub reordered: u64,
    /// Deliveries that lost a tail.
    pub truncated: u64,
    /// Deliveries with a flipped bit.
    pub flipped: u64,
}

/// A [`Channel`] that drops, duplicates, reorders, truncates, and
/// bit-flips deliveries on a deterministic, seeded schedule — the
/// shipping-side sibling of [`crate::fault::FaultyStorage`].
#[derive(Debug)]
pub struct FaultyChannel {
    queue: VecDeque<Vec<u8>>,
    rng: SmallRng,
    profile: ChaosProfile,
    stats: ChannelStats,
    recorder: Option<Rc<FlightRecorder>>,
}

impl FaultyChannel {
    /// A channel injecting `profile`'s faults, randomized by `seed`.
    pub fn new(profile: ChaosProfile, seed: u64) -> Self {
        FaultyChannel {
            queue: VecDeque::new(),
            rng: seeded_rng(seed),
            profile,
            stats: ChannelStats::default(),
            recorder: None,
        }
    }

    /// Record every injected fault as a typed `chaos.*` event in
    /// `recorder`.  Wiring in the primary's
    /// [`DurableDatabase::flight_recorder`] puts channel damage on the
    /// same timeline as the shipping rounds it disturbs — a
    /// [`DurableError::ReplicationStalled`] tail then names the faults
    /// that starved the replica.
    pub fn set_recorder(&mut self, recorder: Rc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Builder form of [`Self::set_recorder`].
    pub fn with_recorder(mut self, recorder: Rc<FlightRecorder>) -> Self {
        self.set_recorder(recorder);
        self
    }

    /// Delivery accounting so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Deliveries currently queued (sent, not yet received).
    pub fn undelivered(&self) -> usize {
        self.queue.len()
    }

    fn roll(&mut self, pct: u8) -> bool {
        (self.rng.next_u64() % 100) < u64::from(pct.min(100))
    }

    fn note(&self, name: &str, attrs: &[(&str, String)]) {
        if let Some(recorder) = &self.recorder {
            recorder.note(name, attrs);
        }
    }
}

impl Channel for FaultyChannel {
    fn send(&mut self, mut delivery: Vec<u8>) {
        self.stats.sent += 1;
        let delivery_no = self.stats.sent;
        let delivery_attr = |n: u64| [("delivery", n.to_string())];
        if self.roll(self.profile.drop_pct) {
            self.stats.dropped += 1;
            self.note("chaos.drop", &delivery_attr(delivery_no));
            return;
        }
        if self.roll(self.profile.truncate_pct) && !delivery.is_empty() {
            let keep = (self.rng.next_u64() as usize) % delivery.len();
            let lost = delivery.len() - keep;
            delivery.truncate(keep);
            self.stats.truncated += 1;
            self.note(
                "chaos.truncate",
                &[
                    ("delivery", delivery_no.to_string()),
                    ("bytes_lost", lost.to_string()),
                ],
            );
        }
        if self.roll(self.profile.flip_pct) && !delivery.is_empty() {
            let byte = (self.rng.next_u64() as usize) % delivery.len();
            let bit = (self.rng.next_u64() % 8) as u8;
            delivery[byte] ^= 1 << bit;
            self.stats.flipped += 1;
            self.note(
                "chaos.flip",
                &[
                    ("delivery", delivery_no.to_string()),
                    ("byte", byte.to_string()),
                    ("bit", bit.to_string()),
                ],
            );
        }
        let dup = self.roll(self.profile.dup_pct);
        if self.roll(self.profile.reorder_pct) && !self.queue.is_empty() {
            let at = (self.rng.next_u64() as usize) % self.queue.len();
            self.queue.insert(at, delivery.clone());
            self.stats.reordered += 1;
            self.note(
                "chaos.reorder",
                &[
                    ("delivery", delivery_no.to_string()),
                    ("at", at.to_string()),
                ],
            );
        } else {
            self.queue.push_back(delivery.clone());
        }
        if dup {
            self.queue.push_back(delivery);
            self.stats.duplicated += 1;
            self.note("chaos.dup", &delivery_attr(delivery_no));
        }
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        let d = self.queue.pop_front()?;
        self.stats.delivered += 1;
        Some(d)
    }
}

/// The generator behind every seeded fault schedule: a [`SmallRng`]
/// whose stream is the SplitMix64 sequence starting at `state`.
/// `seed_from_u64` XORs its seed with the golden-ratio increment, so undo
/// that here — the schedules pinned before this generator was shared
/// replay bit for bit.
fn seeded_rng(state: u64) -> SmallRng {
    SmallRng::seed_from_u64(state ^ 0x9E37_79B9_7F4A_7C15)
}

// ----------------------------------------------------------------------
// Shipper
// ----------------------------------------------------------------------

/// Reads a primary's durable history (checkpoint, sealed segments,
/// active log) and turns a replica's [`Need`] into deliveries.
///
/// The shipper holds no cursor of its own — it can be dropped and
/// rebuilt between rounds, and several replicas can be served from the
/// same storage.
#[derive(Debug)]
pub struct LogShipper<'a, S: Storage> {
    storage: &'a S,
}

/// One consistent read of the primary's shippable state.
struct ShipperState {
    manifest: SegmentManifest,
    ckpt_lsn: u64,
    ckpt_bytes: Option<Vec<u8>>,
    wal_frames: Vec<u8>,
    wal_first: Option<u64>,
    wal_last: Option<u64>,
}

impl ShipperState {
    fn tip(&self) -> u64 {
        let seg_last = self.manifest.segments.last().map_or(0, |s| s.last_lsn);
        self.ckpt_lsn.max(seg_last).max(self.wal_last.unwrap_or(0))
    }

    /// The oldest record LSN still on disk (segments, then the log).
    fn oldest_record(&self) -> Option<u64> {
        self.manifest.oldest_segment_first_lsn().or(self.wal_first)
    }
}

impl<'a, S: Storage> LogShipper<'a, S> {
    /// A shipper over a primary's storage (see
    /// [`DurableDatabase::storage`]).
    pub fn new(storage: &'a S) -> Self {
        LogShipper { storage }
    }

    fn load_state(&self) -> Result<ShipperState> {
        let manifest = SegmentManifest::load(self.storage)?;
        let ckpt_bytes = read_stable(self.storage, CHECKPOINT_FILE, READ_RETRIES)?;
        let ckpt_lsn = match &ckpt_bytes {
            None => 0,
            Some(bytes) => checkpoint_parts(bytes, "checkpoint")?.0.lsn,
        };
        let wal_bytes = read_stable(self.storage, WAL_FILE, READ_RETRIES)?.unwrap_or_default();
        let scan = scan_wal(&wal_bytes)?;
        Ok(ShipperState {
            manifest,
            ckpt_lsn,
            ckpt_bytes,
            wal_first: scan.records.first().map(|r| r.lsn),
            wal_last: scan.records.last().map(|r| r.lsn),
            // Ship only the valid prefix: a torn tail is unacknowledged.
            wal_frames: wal_bytes[..scan.valid_bytes].to_vec(),
        })
    }

    /// The highest durable LSN a replica can be brought to right now.
    pub fn tip(&self) -> Result<u64> {
        Ok(self.load_state()?.tip())
    }

    /// Bytes of history a replica at `applied_lsn` has not seen yet
    /// (modeled lag for status displays).
    pub fn lag_bytes(&self, applied_lsn: u64) -> Result<u64> {
        let st = self.load_state()?;
        let mut bytes: u64 = st
            .manifest
            .segments
            .iter()
            .filter(|s| s.last_lsn > applied_lsn)
            .map(|s| s.bytes)
            .sum();
        if st.wal_last.is_some_and(|l| l > applied_lsn) {
            bytes += st.wal_frames.len() as u64;
        }
        Ok(bytes)
    }

    /// Whether records from `lsn` onward are still on disk — when not,
    /// the pump renegotiates a (delta) re-seed instead of asking for
    /// history the shipper no longer has.
    pub fn can_serve_from(&self, lsn: u64) -> Result<bool> {
        Ok(self.load_state()?.oldest_record().is_some_and(|o| lsn >= o))
    }

    /// The current checkpoint's lineage, oldest first: the full base,
    /// then every delta up to (and including) `checkpoint.snap` itself.
    /// A full `checkpoint.snap` resolves to a single-element chain; no
    /// checkpoint at all to an empty one.
    fn checkpoint_chain(&self, st: &ShipperState) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut chain: Vec<(u64, Vec<u8>)> = Vec::new();
        let Some(mut cur) = st.ckpt_bytes.clone() else {
            return Ok(chain);
        };
        let mut cur_lsn = st.ckpt_lsn;
        loop {
            let base = checkpoint_parts(&cur, "checkpoint")?.0.base;
            chain.push((cur_lsn, cur));
            let Some(base) = base else { break };
            if chain.iter().any(|(l, _)| *l == base) {
                return Err(DurableError::Corrupt(format!(
                    "delta checkpoint chain is cyclic at LSN {base}"
                )));
            }
            let name = checkpoint_archive_name(base);
            cur = read_stable(self.storage, &name, READ_RETRIES)?.ok_or_else(|| {
                DurableError::Corrupt(format!(
                    "checkpoint chain needs archive {name}, which is missing"
                ))
            })?;
            cur_lsn = base;
        }
        chain.reverse();
        Ok(chain)
    }

    /// Encode a full re-seed: the chain's full base as a `Checkpoint`
    /// delivery, every delta above it as a `DeltaCheckpoint`.
    fn push_chain(out: &mut Vec<Vec<u8>>, chain: Vec<(u64, Vec<u8>)>) {
        let mut links = chain.into_iter();
        if let Some((_, bytes)) = links.next() {
            out.push(ShipMessage::Checkpoint(bytes).encode());
        }
        for (_, bytes) in links {
            out.push(ShipMessage::DeltaCheckpoint(bytes).encode());
        }
    }

    /// Deliveries satisfying `need`: sealed segments + live tail from
    /// the requested LSN; or — when that history is gone (pruned) or the
    /// replica has nothing — the checkpoint chain followed by everything
    /// after it.  [`Need::DeltaBootstrap`] ships only the deltas above
    /// the replica's retained base when that base is in the lineage.
    pub fn deliveries_for(&self, need: Need) -> Result<Vec<Vec<u8>>> {
        let st = self.load_state()?;
        let mut out = Vec::new();
        let ship_from = match need {
            Need::From(l) if st.oldest_record().is_some_and(|o| l >= o) => l,
            Need::DeltaBootstrap(base) => {
                let chain = self.checkpoint_chain(&st)?;
                match chain.iter().position(|(l, _)| *l == base) {
                    Some(pos) => {
                        for (_, bytes) in chain.into_iter().skip(pos + 1) {
                            out.push(ShipMessage::DeltaCheckpoint(bytes).encode());
                        }
                    }
                    // The replica's base left our lineage: full re-seed.
                    None => Self::push_chain(&mut out, chain),
                }
                st.ckpt_lsn + 1
            }
            Need::From(_) | Need::Checkpoint => {
                Self::push_chain(&mut out, self.checkpoint_chain(&st)?);
                st.ckpt_lsn + 1
            }
        };
        for seg in &st.manifest.segments {
            if seg.last_lsn < ship_from {
                continue;
            }
            let data =
                read_stable(self.storage, &seg.file_name(), READ_RETRIES)?.ok_or_else(|| {
                    DurableError::Corrupt(format!(
                        "segment {} is in segments.manifest but missing",
                        seg.file_name()
                    ))
                })?;
            // The primary's own file must be intact before it leaves the
            // machine — at-rest corruption is a loud error, not a NACK.
            seg.verify(&data)?;
            out.push(
                ShipMessage::Segment {
                    seqno: seg.seqno,
                    first_lsn: seg.first_lsn,
                    last_lsn: seg.last_lsn,
                    frames: data,
                }
                .encode(),
            );
        }
        if !st.wal_frames.is_empty() && st.wal_last.is_some_and(|l| l >= ship_from) {
            out.push(ShipMessage::Frames(st.wal_frames).encode());
        }
        Ok(out)
    }
}

// ----------------------------------------------------------------------
// The pump
// ----------------------------------------------------------------------

/// Modeled exponential backoff between fruitless shipping rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Ticks charged after the first fruitless round.
    pub base_ticks: u64,
    /// Ceiling on the per-round charge.
    pub cap_ticks: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_ticks: 1,
            cap_ticks: 64,
        }
    }
}

impl BackoffPolicy {
    /// Ticks to wait after the `failures`-th consecutive fruitless round
    /// (1-based): `min(cap, base << (failures - 1))`.
    pub fn delay_for(&self, failures: u32) -> u64 {
        let shift = failures.saturating_sub(1).min(63);
        self.base_ticks
            .checked_shl(shift)
            .unwrap_or(u64::MAX)
            .min(self.cap_ticks)
    }
}

/// Knobs for [`replicate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicateOptions {
    /// Shipping rounds before giving up with
    /// [`DurableError::ReplicationStalled`].
    pub max_rounds: u64,
    /// Backoff schedule for fruitless rounds.
    pub backoff: BackoffPolicy,
}

impl Default for ReplicateOptions {
    fn default() -> Self {
        ReplicateOptions {
            max_rounds: 64,
            backoff: BackoffPolicy::default(),
        }
    }
}

/// What a [`replicate`] pump did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShipReport {
    /// Rounds driven (each: ship `needed()`, drain the channel).
    pub rounds: u64,
    /// Deliveries handed to the channel.
    pub deliveries_sent: u64,
    /// Deliveries that came out of the channel.
    pub deliveries_received: u64,
    /// Records the applier applied.
    pub records_applied: u64,
    /// Deliveries ignored as duplicates / stale.
    pub duplicates: u64,
    /// Deliveries NACKed for an LSN gap.
    pub gaps: u64,
    /// Deliveries NACKed for a damaged envelope.
    pub corrupt: u64,
    /// Modeled backoff ticks accumulated over fruitless rounds.
    pub backoff_ticks: u64,
    /// The replica's applied LSN at convergence.
    pub converged_lsn: u64,
}

/// Histogram bounds for records applied per shipping round.
const FRAMES_PER_ROUND_BOUNDS: [f64; 7] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
/// Histogram bounds for bytes per shipped delivery.
const BYTES_PER_DELIVERY_BOUNDS: [f64; 6] = [256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0];
/// Histogram bounds for per-round modeled backoff charges.
const BACKOFF_DELAY_BOUNDS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Drive shipping rounds until the replica's applied LSN reaches the
/// primary's durable tip, or the round budget runs out
/// ([`DurableError::ReplicationStalled`]).
///
/// Each round ships what the applier says it needs, drains the channel
/// through [`ReplicaApplier::offer`], and — when nothing made progress —
/// charges modeled backoff ticks.  Emits `wal.ship.*` counters and
/// histograms on the primary's metrics and leaves `replica.*` gauges on
/// the replica's own database.  Every round is a `ship.round` span on
/// the primary's tracer, every NACK a `ship.nack` event (gap vs corrupt,
/// by LSN) and every fruitless round a `ship.backoff` event — so a
/// stall's error message carries the flight-recorder tail of what
/// actually happened ([`DurableDatabase::flight_recorder`]).
pub fn replicate<S: Storage, C: Channel>(
    primary: &DurableDatabase<S>,
    applier: &mut ReplicaApplier,
    channel: &mut C,
    opts: &ReplicateOptions,
) -> Result<ShipReport> {
    let shipper = LogShipper::new(primary.storage());
    let tracer = primary.database().tracer();
    let metrics = tracer.metrics();
    let mut report = ShipReport::default();
    let mut failures: u32 = 0;
    loop {
        let tip = shipper.tip()?;
        if applier.is_bootstrapped() && applier.applied_lsn() >= tip {
            break;
        }
        if report.rounds >= opts.max_rounds {
            let tail = primary
                .flight_recorder()
                .tail_summaries(FLIGHT_TAIL_EVENTS)
                .join(" | ");
            return Err(DurableError::ReplicationStalled(format!(
                "replica at LSN {} of {tip} after {} rounds ({} corrupt, {} gapped); \
                 flight tail: {}",
                applier.applied_lsn(),
                report.rounds,
                report.corrupt,
                report.gaps,
                if tail.is_empty() { "<empty>" } else { &tail },
            )));
        }
        report.rounds += 1;
        let round = report.rounds;
        let attrs: Attrs = &[("round", &round)];
        let mut span = tracer.span_with("ship.round", attrs);
        let sent_before = report.deliveries_sent;
        let applied_before = report.records_applied;
        let mut need = applier.needed();
        if let Need::From(l) = need {
            if !shipper.can_serve_from(l)? {
                // The segments the replica wants are pruned: renegotiate
                // a re-seed — delta when the replica still holds a base
                // checkpoint, full otherwise.
                need = applier.reseed_need();
                let kind = match need {
                    Need::DeltaBootstrap(_) => "delta",
                    _ => "full",
                };
                tracer.event("ship.reseed", &[("kind", kind.to_string())]);
            }
        }
        for delivery in shipper.deliveries_for(need)? {
            metrics.observe(
                "wal.ship.bytes_per_delivery",
                &BYTES_PER_DELIVERY_BOUNDS,
                delivery.len() as f64,
            );
            channel.send(delivery);
            report.deliveries_sent += 1;
        }
        let mut progress = false;
        while let Some(delivery) = channel.recv() {
            report.deliveries_received += 1;
            match applier.offer(&delivery)? {
                OfferOutcome::Bootstrapped { lsn } => {
                    progress = true;
                    tracer.event("ship.bootstrap", &[("lsn", lsn.to_string())]);
                }
                OfferOutcome::Applied { records } => {
                    report.records_applied += records;
                    progress |= records > 0;
                }
                OfferOutcome::Duplicate => report.duplicates += 1,
                OfferOutcome::Gap { have, got } => {
                    report.gaps += 1;
                    tracer.event(
                        "ship.nack",
                        &[
                            ("kind", "gap".to_string()),
                            ("have", have.to_string()),
                            ("got", got.to_string()),
                        ],
                    );
                }
                OfferOutcome::Corrupt => {
                    report.corrupt += 1;
                    tracer.event(
                        "ship.nack",
                        &[
                            ("kind", "corrupt".to_string()),
                            ("have", applier.applied_lsn().to_string()),
                        ],
                    );
                }
            }
        }
        let round_applied = report.records_applied - applied_before;
        metrics.observe(
            "wal.ship.frames_per_round",
            &FRAMES_PER_ROUND_BOUNDS,
            round_applied as f64,
        );
        if progress {
            failures = 0;
        } else {
            failures += 1;
            let ticks = opts.backoff.delay_for(failures);
            report.backoff_ticks += ticks;
            metrics.observe(
                "wal.ship.backoff_delay",
                &BACKOFF_DELAY_BOUNDS,
                ticks as f64,
            );
            tracer.event(
                "ship.backoff",
                &[
                    ("failures", failures.to_string()),
                    ("ticks", ticks.to_string()),
                ],
            );
        }
        span.add_attr("sent", (report.deliveries_sent - sent_before).to_string());
        span.add_attr("applied", round_applied.to_string());
        span.finish();
    }
    report.converged_lsn = applier.applied_lsn();
    metrics.inc_counter("wal.ship.rounds", report.rounds);
    metrics.inc_counter("wal.ship.deliveries", report.deliveries_sent);
    metrics.inc_counter("wal.ship.records", report.records_applied);
    metrics.inc_counter("wal.ship.nacks", report.gaps + report.corrupt);
    metrics.inc_counter("wal.ship.backoff_ticks", report.backoff_ticks);
    metrics.set_gauge("wal.ship.replica_lsn", report.converged_lsn as f64);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ship_message_round_trips() {
        let msgs = vec![
            ShipMessage::Checkpoint(b"checkpoint body".to_vec()),
            ShipMessage::Segment {
                seqno: 2,
                first_lsn: 4,
                last_lsn: 9,
                frames: vec![1, 2, 3, 4],
            },
            ShipMessage::Frames(vec![9, 9, 9]),
        ];
        for m in msgs {
            let enc = m.encode();
            assert_eq!(ShipMessage::decode(&enc), Some(m));
        }
    }

    #[test]
    fn decode_rejects_damage() {
        let enc = ShipMessage::Frames(vec![7; 64]).encode();
        // Truncation at every length fails cleanly.
        for k in 0..enc.len() {
            assert_eq!(ShipMessage::decode(&enc[..k]), None, "truncated to {k}");
        }
        // Any single bit flip is caught by the envelope CRC (or the
        // length check).
        for byte in 0..enc.len() {
            let mut bad = enc.clone();
            bad[byte] ^= 0x10;
            assert_eq!(ShipMessage::decode(&bad), None, "flip at {byte}");
        }
        // Trailing garbage is rejected too.
        let mut long = enc.clone();
        long.push(0);
        assert_eq!(ShipMessage::decode(&long), None);
    }

    #[test]
    fn faulty_channel_blackout_drops_everything() {
        let mut ch = FaultyChannel::new(ChaosProfile::blackout(), 7);
        for _ in 0..5 {
            ch.send(vec![1, 2, 3]);
        }
        assert_eq!(ch.recv(), None);
        assert_eq!(ch.stats().dropped, 5);
        assert_eq!(ch.undelivered(), 0);
    }

    /// The schedules as the private SplitMix64 copy drew them before
    /// `seeded_rng` replaced it: CI's pinned chaos seeds must keep
    /// replaying the same faults.
    #[test]
    fn seeded_schedules_are_pinned() {
        let profile = |drop_pct, dup_pct, reorder_pct, truncate_pct, flip_pct| ChaosProfile {
            drop_pct,
            dup_pct,
            reorder_pct,
            truncate_pct,
            flip_pct,
        };
        assert_eq!(ChaosProfile::from_seed(1337), profile(4, 24, 7, 20, 21));
        assert_eq!(ChaosProfile::from_seed(2026), profile(15, 13, 27, 16, 9));
        let mut ch = FaultyChannel::new(ChaosProfile::default(), 1337);
        let draws: Vec<u64> = (0..16).map(|_| ch.rng.next_u64()).collect();
        assert_eq!(
            draws,
            [
                13161956497586561035,
                14663483216071361993,
                3765287255879986010,
                8575537320440087138,
                4226762000762084508,
                12223891719901678529,
                6760084522805969585,
                1728794338555983553,
                16251688881497120858,
                4097099913247830087,
                14280954050082684027,
                1877559036795167846,
                7082475210656181602,
                13478281986401894193,
                3465286134883113247,
                17344962125124946274,
            ]
        );
    }

    #[test]
    fn faulty_channel_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut ch = FaultyChannel::new(ChaosProfile::from_seed(seed), seed);
            for i in 0..50u8 {
                ch.send(vec![i; 16]);
            }
            let mut out = Vec::new();
            while let Some(d) = ch.recv() {
                out.push(d);
            }
            (out, ch.stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1);
    }

    #[test]
    fn backoff_doubles_to_cap() {
        let b = BackoffPolicy {
            base_ticks: 2,
            cap_ticks: 16,
        };
        assert_eq!(b.delay_for(1), 2);
        assert_eq!(b.delay_for(2), 4);
        assert_eq!(b.delay_for(3), 8);
        assert_eq!(b.delay_for(4), 16);
        assert_eq!(b.delay_for(40), 16, "clamped at the cap");
    }
}
