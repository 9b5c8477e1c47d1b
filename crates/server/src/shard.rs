//! Sharded scatter-gather serving: hash placement plus a coordinator
//! that replays the partition walk over the wire.
//!
//! A [`ShardedDatabase`] is built *from* a durable primary: each of the
//! N [`ShardNode`]s is seeded through the replication substrate (its own
//! [`ReplicaApplier`] fed by [`replicate`]), then cut down to a
//! **placement slice** — for every ASR partition, a row lives on exactly
//! one shard, chosen by a deterministic hash of `(asr, partition, row)`
//! over the row's wire encoding.  The coordinator keeps a **catalog**
//! copy whose ASRs are retained to *zero* rows: it contributes schema,
//! decomposition metadata and the naive fallback over the (complete)
//! object base, but every supported span answer must come off the
//! shards.
//!
//! Scatter-gather replays `forward_supported` / `backward_supported`
//! (see `asr-core`'s `query.rs`) partition by partition: each border
//! probe or interior scan is broadcast to **all** shards as a
//! [`RequestBody::ShardProbe`] / [`RequestBody::ShardScan`], and the row
//! fragments are unioned before the next frontier is computed.
//! Broadcasting (rather than routing) is what makes the walk correct
//! under *any* row placement: the frontier join between partitions is by
//! value, so the rows that continue a path can live anywhere.  Because
//! shard slices partition each stored partition's row set exactly, the
//! union equals the single-node row set and the final projection is
//! bit-identical to the unsharded answer.
//!
//! # Fault domains
//!
//! Every shard is a fault domain with its own health state machine,
//! driven by per-request deadlines (a bounded wire-client attempt
//! budget) and a deterministic, tick-based health check:
//!
//! ```text
//! Up ──deadline miss──▶ Suspect ──miss──▶ Down ──tick──▶ Reseeding ──▶ Up
//!  ▲                       │                                  │
//!  └───────probe ok────────┘          failed attempt (backoff)┴──▶ Down
//! ```
//!
//! While a shard is `Down`/`Reseeding`, scatter-gather keeps serving in
//! **degraded mode**: surviving shards answer, and the coordinator
//! brands the result with the missing shard set — on the wire as the
//! response's `partial` field, in the shell as a `partial: missing
//! shards {…}` trailer — never a silently wrong union.  Recovery rides
//! the paper's central property: ASR slices are redundant, derived
//! state, so [`ShardedDatabase::tick`] re-seeds a replacement node
//! through [`replicate`]/[`ReplicaApplier`] (delta catch-up when the
//! crash retained the applier base, full bootstrap otherwise) and the
//! rebuilt slice is swapped in atomically.  Every transition emits a
//! typed flight-recorder event (`shard.suspect`, `shard.down`,
//! `shard.reseed.begin`/`end`, `shard.degraded_read`) and
//! `shard.health.*` metrics.
//!
//! Every broadcast rides the exactly-once wire client, so a chaotic
//! shard link (dropped, flipped, duplicated frames) costs retries and
//! backoff ticks — never a wrong answer.  Per-shard I/O comes back in
//! each response envelope and is merged via [`IoSnapshot::merge`];
//! [`Fleet::take_io`] exposes the merged cost and the per-shard maximum
//! (the scatter critical path) to benchmarks and `\shards status`.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use asr_core::{AsrError, AsrId, Cell, Database, Row, Snapshot};
use asr_durable::{
    replicate, seeded_rng, Channel, ChannelStats, ChaosProfile, DurableDatabase, FaultyChannel,
    LosslessChannel, MemStorage, Need, ReplicaApplier, ReplicateOptions, ShipReport, Storage,
};
use asr_gom::{Oid, PathExpression};
use asr_net::{ClientError, ClientStats, RequestBody, ResponseBody, ShardHealth, Writer};
use asr_obs::Tracer;
use asr_oql::SpanRouter;
use asr_pagesim::IoSnapshot;
use rand::RngCore;

use crate::exec::ServerDb;
use crate::session::NetServer;

/// Consecutive deadline misses before `Suspect` escalates to `Down`.
const DOWN_AFTER_MISSES: u32 = 2;
/// Base and cap (in health-check ticks) for the reseed retry backoff:
/// `min(cap, base << (attempt - 1))` — the same shape the wire client
/// and the replication pump charge.
const RESEED_BACKOFF_BASE: u64 = 1;
const RESEED_BACKOFF_CAP: u64 = 8;
/// Histogram bounds for ticks a shard spends Down before recovering.
const RECOVERY_TICK_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// A scatter-gather failure: seeding, a shard link, or a remote error.
#[derive(Debug)]
pub enum ShardError {
    /// Seeding or re-seeding a shard through replication failed.
    Seed(String),
    /// A shard link stayed down past the wire client's retry budget.
    Link {
        /// Which shard.
        shard: usize,
        /// The client-side failure.
        error: ClientError,
    },
    /// A shard executed the request and answered with an error.
    Remote {
        /// Which shard.
        shard: usize,
        /// The remote error message.
        message: String,
    },
    /// A shard answered with a response body of the wrong shape.
    Protocol {
        /// Which shard.
        shard: usize,
        /// What came back.
        got: &'static str,
    },
    /// Every shard was unreachable: not even a degraded answer exists.
    Unavailable,
    /// A catalog-side ASR error.
    Asr(AsrError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Seed(msg) => write!(f, "shard seeding failed: {msg}"),
            ShardError::Link { shard, error } => write!(f, "shard {shard} link failed: {error}"),
            ShardError::Remote { shard, message } => write!(f, "shard {shard} error: {message}"),
            ShardError::Protocol { shard, got } => {
                write!(f, "shard {shard} protocol error: unexpected {got}")
            }
            ShardError::Unavailable => write!(f, "every shard is down; no degraded answer exists"),
            ShardError::Asr(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<AsrError> for ShardError {
    fn from(e: AsrError) -> Self {
        ShardError::Asr(e)
    }
}

impl From<ShardError> for AsrError {
    fn from(e: ShardError) -> Self {
        match e {
            ShardError::Asr(e) => e,
            other => AsrError::Shard(other.to_string()),
        }
    }
}

/// Which shard of `n` owns `row` of `(asr, partition)` — a deterministic
/// hash of the row's wire encoding, so placement is stable across
/// re-seeds and independent of insertion order.
pub fn placement_shard(asr: AsrId, partition: usize, row: &Row, n: usize) -> usize {
    let mut w = Writer::new();
    w.u64(asr as u64);
    w.u64(partition as u64);
    w.row(row);
    let mut h = DefaultHasher::new();
    w.into_bytes().hash(&mut h);
    (h.finish() % n.max(1) as u64) as usize
}

/// A deterministic fault-injection plan for one [`ShardNode`] — the
/// serving-process sibling of [`ChaosProfile`] (which damages the
/// *links*; this crashes or stalls the *node*).  Ops are counted per
/// wire poll, so a schedule derived from a seed plays back identically
/// run over run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardFaultPlan {
    /// Crash (stop answering, permanently) at this poll count.
    pub crash_at_op: Option<u64>,
    /// Begin swallowing polls at this poll count…
    pub stall_at_op: Option<u64>,
    /// …for this many polls (the node then resumes on its own).
    pub stall_ops: u64,
    /// A crash also loses the node's retained replica base, forcing the
    /// replacement through a **full** bootstrap instead of delta
    /// catch-up.
    pub lose_applier: bool,
    /// The replacement node itself crashes mid-bootstrap this many
    /// times before a reseed finally sticks.
    pub reseed_crashes: u32,
}

impl ShardFaultPlan {
    /// A hostile plan derived deterministically from `seed`, mirroring
    /// [`ChaosProfile::from_seed`]: every schedule gets either a crash
    /// or a stall (sometimes both), a third lose their replica base,
    /// and a third crash again during the reseed.
    pub fn from_seed(seed: u64) -> Self {
        let mut r = seeded_rng(seed ^ 0x0FA7_A1D0);
        let crash = !r.next_u64().is_multiple_of(3);
        let stall = !crash || r.next_u64().is_multiple_of(3);
        ShardFaultPlan {
            crash_at_op: crash.then(|| 1 + r.next_u64() % 24),
            stall_at_op: stall.then(|| 1 + r.next_u64() % 24),
            stall_ops: 4 + r.next_u64() % 24,
            lose_applier: r.next_u64().is_multiple_of(3),
            reseed_crashes: r.next_u64().is_multiple_of(3) as u32 * (1 + (r.next_u64() % 2) as u32),
        }
    }

    /// True when the plan injects nothing.
    pub fn is_quiet(&self) -> bool {
        *self == ShardFaultPlan::default()
    }

    /// One-line human description for status output.
    pub fn describe(&self) -> String {
        if self.is_quiet() {
            return "quiet (no injections)".to_string();
        }
        let mut parts = Vec::new();
        if let Some(at) = self.crash_at_op {
            parts.push(format!("crash at op {at}"));
        }
        if let Some(at) = self.stall_at_op {
            parts.push(format!("stall at op {at} for {} op(s)", self.stall_ops));
        }
        if self.lose_applier {
            parts.push("replica base lost on crash".to_string());
        }
        if self.reseed_crashes > 0 {
            parts.push(format!("{} crash(es) mid-reseed", self.reseed_crashes));
        }
        parts.join(", ")
    }
}

/// One shard's position in the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Serving normally.
    #[default]
    Up,
    /// Missed a deadline; still queried, one more miss goes Down.
    Suspect,
    /// Unreachable: excluded from scatter, awaiting a reseed slot.
    Down,
    /// A replacement node is bootstrapping (transient within a tick).
    Reseeding,
}

impl HealthState {
    /// Lowercase label for status lines and events.
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Up => "up",
            HealthState::Suspect => "suspect",
            HealthState::Down => "down",
            HealthState::Reseeding => "reseeding",
        }
    }
}

/// Coordinator-side health bookkeeping for one shard.
#[derive(Debug, Clone, Copy, Default)]
struct HealthRecord {
    state: HealthState,
    /// Consecutive deadline misses.
    misses: u32,
    /// Reseed attempts since the shard went Down.
    reseed_attempts: u32,
    /// Earliest tick the next reseed attempt may run (backoff gate).
    backoff_until: u64,
    /// Tick the shard went Down (ticks-to-recover accounting).
    down_since: Option<u64>,
}

/// One in-process shard: a placement-slice database behind its own
/// exactly-once server, reached through a pair of (optionally chaotic)
/// channels.  Implements [`Channel`], so a [`asr_net::WireClient`] can
/// drive it like a remote peer: `send` enqueues the request frame,
/// `recv` pumps the server once and dequeues a response frame.  An
/// armed [`ShardFaultPlan`] makes `recv` crash or stall the node on a
/// deterministic schedule.
pub struct ShardNode {
    index: usize,
    db: Database,
    applier: ReplicaApplier,
    server: NetServer,
    sid: usize,
    inbox: FaultyChannel,
    outbox: FaultyChannel,
    placed_rows: u64,
    /// When set, probe/scan reads answer from this pinned MVCC view of
    /// the slice instead of the live database (opt-in, see
    /// [`ShardedDatabase::enable_snapshot_reads`]).
    snap: Option<Snapshot>,
    /// Serving-channel chaos, kept so a replacement node can rebuild
    /// its channels with the same profile on a fresh seed lane.
    chaos: (ChaosProfile, u64),
    /// Replacement generation (bumped per successful reseed).
    generation: u32,
    /// The injected fault schedule.
    fault: ShardFaultPlan,
    /// Polls observed since this node (or its replacement) started.
    ops: u64,
    /// The node stopped answering (fault-injected crash).
    crashed: bool,
    /// The current stall window has been announced on the timeline.
    stall_logged: bool,
    /// The coordinator's timeline: fault injections land as typed
    /// events next to the health transitions they provoke.
    tracer: Tracer,
}

impl ShardNode {
    /// The shard's serving slice (tests and status inspection).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The commit epoch reads are pinned to, when snapshot serving is on.
    pub fn snapshot_epoch(&self) -> Option<u64> {
        self.snap.as_ref().map(|s| s.epoch())
    }

    /// Rows this shard kept at the last placement.
    pub fn placed_rows(&self) -> u64 {
        self.placed_rows
    }

    /// The replication LSN the shard's applier has applied.
    pub fn applied_lsn(&self) -> u64 {
        self.applier.status().applied_lsn
    }

    /// Fault accounting for the (request, response) channel pair.
    pub fn channel_stats(&self) -> (ChannelStats, ChannelStats) {
        (self.inbox.stats(), self.outbox.stats())
    }

    /// The armed fault schedule.
    pub fn fault_plan(&self) -> ShardFaultPlan {
        self.fault
    }

    /// Has the injected crash fired (and no replacement come up yet)?
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Replacement generation: 0 for the original node, +1 per reseed.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Rebuild the serving slice from the applier's current snapshot:
    /// reload, then retain only this shard's placement share.  The new
    /// slice is built **aside** and swapped in whole — a failure
    /// anywhere leaves the old slice untouched, so a crash-interrupted
    /// reseed can never serve a half-installed (stale or duplicated)
    /// row set.
    fn replace_slice(&mut self, n: usize) -> Result<(), ShardError> {
        let snap = self
            .applier
            .snapshot()
            .ok_or_else(|| ShardError::Seed("applier has no snapshot".to_string()))?;
        let mut db =
            Database::load_from_string(&snap).map_err(|e| ShardError::Seed(e.to_string()))?;
        let ids: Vec<AsrId> = db.asrs().map(|(id, _)| id).collect();
        let me = self.index;
        let mut placed = 0u64;
        for id in ids {
            placed += db
                .retain_asr_rows(id, |part, row| placement_shard(id, part, row, n) == me)
                .map_err(|e| ShardError::Seed(e.to_string()))?;
        }
        self.placed_rows = placed;
        self.db = db;
        let lsn = self.applied_lsn();
        self.server.set_applied_lsn(lsn);
        // Snapshot serving pins the *new* slice: a reseed moves the
        // epoch forward, it never leaves readers on the stale image.
        if self.snap.is_some() {
            self.snap = Some(self.db.snapshot());
        }
        Ok(())
    }

    /// Apply the fault schedule to one poll.  `true` means the node is
    /// (now) dead or stalled and the poll must be swallowed.
    fn fault_gate(&mut self) -> bool {
        self.ops += 1;
        if self.crashed {
            return true;
        }
        if let Some(at) = self.fault.crash_at_op {
            if self.ops >= at {
                self.crashed = true;
                self.tracer.event(
                    "shard.fault.crash",
                    &[
                        ("shard", self.index.to_string()),
                        ("op", self.ops.to_string()),
                        ("phase", "serve".to_string()),
                    ],
                );
                self.tracer.metrics().inc_counter("shard.fault.crashes", 1);
                return true;
            }
        }
        if let Some(at) = self.fault.stall_at_op {
            if self.ops >= at && self.ops < at.saturating_add(self.fault.stall_ops) {
                if !self.stall_logged {
                    self.stall_logged = true;
                    self.tracer.event(
                        "shard.fault.stall",
                        &[
                            ("shard", self.index.to_string()),
                            ("op", self.ops.to_string()),
                            ("ops", self.fault.stall_ops.to_string()),
                        ],
                    );
                    self.tracer.metrics().inc_counter("shard.fault.stalls", 1);
                }
                return true;
            }
        }
        false
    }
}

impl Channel for ShardNode {
    fn send(&mut self, frame: Vec<u8>) {
        self.inbox.send(frame);
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        if self.fault_gate() {
            return None;
        }
        let Self {
            db,
            server,
            sid,
            inbox,
            outbox,
            snap,
            ..
        } = self;
        let mut view = ServerDb::<MemStorage>::Plain(db);
        match snap {
            Some(snap) => server.pump_session_snapshot(*sid, &mut view, snap, inbox, outbox),
            None => server.pump_session(*sid, &mut view, inbox, outbox),
        };
        outbox.recv()
    }
}

/// The coordinator's client side: one exactly-once wire client per
/// shard, the per-shard health state machine, and merged scatter I/O
/// accounting.  Implements [`SpanRouter`], so `asr_oql::execute_routed`
/// runs whole OQL plans scatter-gather — the `db` the executor passes
/// in is the catalog.
pub struct Fleet {
    shards: Vec<asr_net::WireClient<ShardNode>>,
    io: IoSnapshot,
    shard_pages: Vec<u64>,
    health: Vec<HealthRecord>,
    /// Shards whose contribution is missing from answers since the last
    /// [`Fleet::take_degraded`] — the wire `partial` set.
    missing: BTreeSet<u32>,
    /// Health-check ticks elapsed ([`ShardedDatabase::tick`]).
    clock: u64,
    /// Per-request attempt budget (the deadline).  The default equals
    /// the wire client's stock budget, so chaotic-but-alive links keep
    /// their full retry allowance until a deadline is configured.
    deadline_attempts: u32,
}

impl Fleet {
    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the fleet has no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Per-shard wire-client stats (retries, NACKs, backoff ticks).
    pub fn client_stats(&self) -> Vec<ClientStats> {
        self.shards.iter().map(|c| c.stats()).collect()
    }

    /// Per-shard channel fault stats.
    pub fn channel_stats(&self) -> Vec<(ChannelStats, ChannelStats)> {
        self.shards
            .iter()
            .map(|c| c.transport().channel_stats())
            .collect()
    }

    /// Direct access to a shard node (tests).
    pub fn node(&self, i: usize) -> &ShardNode {
        self.shards[i].transport()
    }

    /// Per-shard health states.
    pub fn health_states(&self) -> Vec<HealthState> {
        self.health.iter().map(|h| h.state).collect()
    }

    /// Is every shard serving normally?
    pub fn all_up(&self) -> bool {
        self.health.iter().all(|h| h.state == HealthState::Up)
    }

    /// Health-check ticks elapsed.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Cap every scatter request at `attempts` wire attempts — the
    /// per-request deadline that turns a dead shard into a fast,
    /// bounded miss instead of a long grind.
    pub fn set_deadline(&mut self, attempts: u32) {
        self.deadline_attempts = attempts.max(1);
    }

    /// Take the shard set whose contribution has been missing from
    /// answers since the last call — empty means every answer since
    /// then was complete.
    pub fn take_degraded(&mut self) -> BTreeSet<u32> {
        std::mem::take(&mut self.missing)
    }

    /// Take the merged scatter I/O and the per-shard page maximum
    /// accumulated since the last call — `(merged, max_per_shard)`.
    pub fn take_io(&mut self) -> (IoSnapshot, u64) {
        let merged = self.io;
        let max = self.shard_pages.iter().copied().max().unwrap_or(0);
        self.io = IoSnapshot::default();
        self.shard_pages.iter_mut().for_each(|p| *p = 0);
        (merged, max)
    }

    /// Is shard `i` queried by scatter right now?
    fn serving(&self, i: usize) -> bool {
        matches!(self.health[i].state, HealthState::Up | HealthState::Suspect)
    }

    /// A deadline miss on shard `i`: escalate `Up → Suspect → Down`.
    fn note_miss(&mut self, db: &Database, i: usize, error: &ClientError) {
        let tracer = db.tracer();
        let rec = &mut self.health[i];
        rec.misses += 1;
        match rec.state {
            HealthState::Up => {
                rec.state = HealthState::Suspect;
                tracer.event(
                    "shard.suspect",
                    &[
                        ("shard", i.to_string()),
                        ("misses", rec.misses.to_string()),
                        ("error", error.to_string()),
                    ],
                );
                tracer.metrics().inc_counter("shard.health.suspects", 1);
            }
            HealthState::Suspect if rec.misses >= DOWN_AFTER_MISSES => {
                rec.state = HealthState::Down;
                rec.down_since = Some(self.clock);
                rec.reseed_attempts = 0;
                rec.backoff_until = self.clock;
                tracer.event(
                    "shard.down",
                    &[
                        ("shard", i.to_string()),
                        ("misses", rec.misses.to_string()),
                        ("tick", self.clock.to_string()),
                    ],
                );
                tracer.metrics().inc_counter("shard.health.downs", 1);
            }
            _ => {}
        }
        self.note_up_gauge(db);
    }

    /// A deadline met on shard `i`: a Suspect proves itself back Up.
    fn note_ok(&mut self, db: &Database, i: usize) {
        let rec = &mut self.health[i];
        rec.misses = 0;
        if rec.state == HealthState::Suspect {
            rec.state = HealthState::Up;
            db.tracer().event(
                "shard.up",
                &[("shard", i.to_string()), ("via", "probe".to_string())],
            );
            self.note_up_gauge(db);
        }
    }

    /// Record shard `i` as missing from the answer under construction.
    fn note_missing(&mut self, db: &Database, i: usize) {
        if self.missing.insert(i as u32) {
            db.tracer().event(
                "shard.degraded_read",
                &[
                    ("shard", i.to_string()),
                    ("state", self.health[i].state.label().to_string()),
                ],
            );
            db.tracer()
                .metrics()
                .inc_counter("shard.health.degraded_reads", 1);
        }
    }

    fn note_up_gauge(&self, db: &Database) {
        let up = self
            .health
            .iter()
            .filter(|h| h.state == HealthState::Up)
            .count();
        db.tracer()
            .metrics()
            .set_gauge("shard.health.up", up as f64);
    }

    /// Broadcast one request to every serving shard, union the row
    /// fragments, and fold each shard's I/O into the scatter
    /// accounting.  A shard that misses its deadline transitions in the
    /// health machine and joins the degraded set instead of failing the
    /// query; only a fleet with **no** reachable shard errors.
    fn broadcast_rows(
        &mut self,
        db: &Database,
        body: &RequestBody,
    ) -> Result<BTreeSet<Row>, ShardError> {
        let metrics = db.tracer().metrics();
        metrics.inc_counter("shard.scatter.broadcasts", 1);
        let mut union: BTreeSet<Row> = BTreeSet::new();
        let mut served = 0usize;
        let deadline = self.deadline_attempts;
        for i in 0..self.shards.len() {
            if !self.serving(i) {
                self.note_missing(db, i);
                continue;
            }
            let client = &mut self.shards[i];
            client.set_max_attempts(deadline);
            match client.call(body.clone()) {
                Ok(resp) => {
                    self.io.merge(&resp.io);
                    self.shard_pages[i] += resp.io.accesses();
                    match resp.body {
                        ResponseBody::Rows(rows) => {
                            union.extend(rows);
                            served += 1;
                            self.note_ok(db, i);
                        }
                        ResponseBody::Err(message) => {
                            return Err(ShardError::Remote { shard: i, message })
                        }
                        other => {
                            return Err(ShardError::Protocol {
                                shard: i,
                                got: other.label(),
                            })
                        }
                    }
                }
                Err(error) => {
                    self.note_miss(db, i, &error);
                    self.note_missing(db, i);
                }
            }
        }
        if served == 0 {
            return Err(ShardError::Unavailable);
        }
        metrics.inc_counter("shard.scatter.rows", union.len() as u64);
        Ok(union)
    }

    /// Scatter-gather forward span query `Q_{i,j}(fw)` through ASR `id`,
    /// falling back to the catalog (naive evaluation over the full
    /// object base) exactly where single-node evaluation would.
    pub fn forward(
        &mut self,
        db: &Database,
        id: AsrId,
        i: usize,
        j: usize,
        start: Oid,
    ) -> asr_core::Result<Vec<Cell>> {
        let asr = db.asr(id)?;
        if !asr.supports(i, j) {
            // Invalid spans error and unsupported spans fall back to
            // naive traversal — identically to `Database::forward`,
            // which sees the same (complete) object base.
            return db.forward(id, i, j, start);
        }
        let metrics = db.tracer().metrics();
        metrics.inc_counter("shard.scatter.queries", 1);
        let io_before = self.io;
        let ci = asr.column_of(i);
        let cj = asr.column_of(j);
        let dec = asr.config().decomposition.clone();
        let mut frontier: BTreeSet<Cell> = BTreeSet::from([Cell::Oid(start)]);
        let mut result: Vec<Cell> = Vec::new();
        for (idx, (a, b)) in dec.partitions().enumerate() {
            if b <= ci {
                continue;
            }
            if a >= cj {
                break;
            }
            let keys: Vec<Cell> = frontier.iter().cloned().collect();
            let body = if a < ci {
                RequestBody::ShardScan {
                    asr: id as u32,
                    part: idx as u32,
                    offset: (ci - a) as u32,
                    frontier: keys,
                }
            } else {
                RequestBody::ShardProbe {
                    asr: id as u32,
                    part: idx as u32,
                    forward: true,
                    keys,
                }
            };
            let rows = self.broadcast_rows(db, &body).map_err(AsrError::from)?;
            if cj <= b {
                let offset = cj - a;
                let out: BTreeSet<Cell> =
                    rows.iter().filter_map(|r| r.cell(offset).clone()).collect();
                result = out.into_iter().collect();
                break;
            }
            frontier = rows.iter().filter_map(|r| r.last().clone()).collect();
            if frontier.is_empty() {
                break;
            }
        }
        self.note_scatter_pages(db, &io_before);
        Ok(result)
    }

    /// Scatter-gather backward span query `Q_{i,j}(bw)` through ASR
    /// `id`, with the same catalog fallback as [`Fleet::forward`].
    pub fn backward(
        &mut self,
        db: &Database,
        id: AsrId,
        i: usize,
        j: usize,
        target: &Cell,
    ) -> asr_core::Result<Vec<Oid>> {
        let asr = db.asr(id)?;
        if !asr.supports(i, j) {
            return db.backward(id, i, j, target);
        }
        let metrics = db.tracer().metrics();
        metrics.inc_counter("shard.scatter.queries", 1);
        let io_before = self.io;
        let ci = asr.column_of(i);
        let cj = asr.column_of(j);
        let dec = asr.config().decomposition.clone();
        let spans: Vec<(usize, usize)> = dec.partitions().collect();
        let mut frontier: BTreeSet<Cell> = BTreeSet::from([target.clone()]);
        let mut result: Vec<Cell> = Vec::new();
        for (idx, &(a, b)) in spans.iter().enumerate().rev() {
            if a >= cj {
                continue;
            }
            if b <= ci {
                break;
            }
            let keys: Vec<Cell> = frontier.iter().cloned().collect();
            let body = if b > cj {
                RequestBody::ShardScan {
                    asr: id as u32,
                    part: idx as u32,
                    offset: (cj - a) as u32,
                    frontier: keys,
                }
            } else {
                RequestBody::ShardProbe {
                    asr: id as u32,
                    part: idx as u32,
                    forward: false,
                    keys,
                }
            };
            let rows = self.broadcast_rows(db, &body).map_err(AsrError::from)?;
            if ci >= a {
                let offset = ci - a;
                let out: BTreeSet<Cell> =
                    rows.iter().filter_map(|r| r.cell(offset).clone()).collect();
                result = out.into_iter().collect();
                break;
            }
            frontier = rows.iter().filter_map(|r| r.first().clone()).collect();
            if frontier.is_empty() {
                break;
            }
        }
        self.note_scatter_pages(db, &io_before);
        Ok(result.into_iter().filter_map(|c| c.as_oid()).collect())
    }

    fn note_scatter_pages(&self, db: &Database, before: &IoSnapshot) {
        let pages = (self.io.reads + self.io.writes) - (before.reads + before.writes);
        db.tracer().metrics().observe(
            "shard.scatter.pages",
            &[1.0, 4.0, 16.0, 64.0, 256.0, 1024.0],
            pages as f64,
        );
    }

    /// Broadcast a status probe; one health record per shard.  Errors
    /// if any shard is unreachable — health-aware callers use
    /// [`Fleet::health_report`] instead.
    pub fn status(&mut self) -> Result<Vec<ShardHealth>, ShardError> {
        let mut out = Vec::with_capacity(self.shards.len());
        for (i, client) in self.shards.iter_mut().enumerate() {
            let resp = client
                .call(RequestBody::ShardStatus)
                .map_err(|error| ShardError::Link { shard: i, error })?;
            match resp.body {
                ResponseBody::ShardStatusReply(health) => out.push(health),
                ResponseBody::Err(message) => return Err(ShardError::Remote { shard: i, message }),
                other => {
                    return Err(ShardError::Protocol {
                        shard: i,
                        got: other.label(),
                    })
                }
            }
        }
        Ok(out)
    }

    /// Probe every shard the health machine still trusts; Down and
    /// Reseeding shards report `None`.  Misses transition the machine
    /// exactly like scatter misses.
    pub fn health_report(&mut self, db: &Database) -> Vec<(HealthState, Option<ShardHealth>)> {
        let deadline = self.deadline_attempts;
        (0..self.shards.len())
            .map(|i| {
                if !self.serving(i) {
                    return (self.health[i].state, None);
                }
                let client = &mut self.shards[i];
                client.set_max_attempts(deadline);
                match client.call(RequestBody::ShardStatus) {
                    Ok(resp) => match resp.body {
                        ResponseBody::ShardStatusReply(h) => {
                            self.note_ok(db, i);
                            (self.health[i].state, Some(h))
                        }
                        _ => (self.health[i].state, None),
                    },
                    Err(error) => {
                        self.note_miss(db, i, &error);
                        (self.health[i].state, None)
                    }
                }
            })
            .collect()
    }
}

impl SpanRouter for Fleet {
    fn forward_span(
        &mut self,
        db: &Database,
        path: &PathExpression,
        i: usize,
        j: usize,
        start: Oid,
    ) -> asr_core::Result<Vec<Cell>> {
        match db.find_supporting_asr(path, i, j) {
            Some(id) => self.forward(db, id, i, j, start),
            // No supporting ASR anywhere: unindexed traversal over the
            // catalog's complete object base, like `navigate_forward`.
            None => db.navigate_forward(path, i, j, start),
        }
    }

    fn backward_span(
        &mut self,
        db: &Database,
        asr: AsrId,
        i: usize,
        j: usize,
        target: &Cell,
    ) -> asr_core::Result<Vec<Oid>> {
        self.backward(db, asr, i, j, target)
    }
}

/// The scatter-gather coordinator: a zero-row catalog plus a [`Fleet`]
/// of placement shards, together answering the same span queries (and
/// whole OQL statements) as the primary they were seeded from.
pub struct ShardedDatabase {
    catalog: Database,
    fleet: Fleet,
}

impl ShardedDatabase {
    /// Seed `n` shards (and the catalog) from a durable primary through
    /// the replication substrate.  `chaos` arms every shard's serving
    /// channels with a fault profile (seeding links stay lossless);
    /// queries then pay retries, never correctness.
    pub fn from_primary<S: Storage>(
        primary: &DurableDatabase<S>,
        n: usize,
        chaos: Option<(ChaosProfile, u64)>,
    ) -> Result<Self, ShardError> {
        if n == 0 {
            return Err(ShardError::Seed("need at least one shard".to_string()));
        }
        let catalog = Self::seed_catalog(primary)?;
        let tracer = catalog.tracer().clone();
        let mut shards = Vec::with_capacity(n);
        for index in 0..n {
            let mut applier = ReplicaApplier::new();
            let mut link = LosslessChannel::new();
            replicate(
                primary,
                &mut applier,
                &mut link,
                &ReplicateOptions::default(),
            )
            .map_err(|e| ShardError::Seed(e.to_string()))?;
            let (profile, base) = match chaos {
                Some((profile, seed)) => (
                    profile,
                    seed ^ ((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ),
                None => (ChaosProfile::default(), 0),
            };
            let mut server = NetServer::new();
            let sid = server.open_session();
            let mut node = ShardNode {
                index,
                db: Database::new(primary.database().base().schema().clone()),
                applier,
                server,
                sid,
                inbox: FaultyChannel::new(profile, base),
                outbox: FaultyChannel::new(profile, base.wrapping_add(1)),
                placed_rows: 0,
                snap: None,
                chaos: (profile, base),
                generation: 0,
                fault: ShardFaultPlan::default(),
                ops: 0,
                crashed: false,
                stall_logged: false,
                tracer: tracer.clone(),
            };
            node.replace_slice(n)?;
            tracer.event(
                "shard.place",
                &[
                    ("shard", index.to_string()),
                    ("rows", node.placed_rows.to_string()),
                    ("lsn", node.applied_lsn().to_string()),
                ],
            );
            tracer
                .metrics()
                .inc_counter("shard.place.rows", node.placed_rows);
            shards.push(asr_net::WireClient::new(node));
        }
        tracer.metrics().set_gauge("shard.count", n as f64);
        tracer.metrics().set_gauge("shard.health.up", n as f64);
        let shard_pages = vec![0; n];
        Ok(ShardedDatabase {
            catalog,
            fleet: Fleet {
                shards,
                io: IoSnapshot::default(),
                shard_pages,
                health: vec![HealthRecord::default(); n],
                missing: BTreeSet::new(),
                clock: 0,
                deadline_attempts: 64,
            },
        })
    }

    /// Replicate the primary into a catalog copy and retain every ASR to
    /// zero rows: metadata and naive fallback only — supported span
    /// answers must come off the shards.
    fn seed_catalog<S: Storage>(primary: &DurableDatabase<S>) -> Result<Database, ShardError> {
        let mut applier = ReplicaApplier::new();
        let mut link = LosslessChannel::new();
        replicate(
            primary,
            &mut applier,
            &mut link,
            &ReplicateOptions::default(),
        )
        .map_err(|e| ShardError::Seed(e.to_string()))?;
        let snap = applier
            .snapshot()
            .ok_or_else(|| ShardError::Seed("catalog applier has no snapshot".to_string()))?;
        let mut catalog =
            Database::load_from_string(&snap).map_err(|e| ShardError::Seed(e.to_string()))?;
        let ids: Vec<AsrId> = catalog.asrs().map(|(id, _)| id).collect();
        for id in ids {
            catalog
                .retain_asr_rows(id, |_, _| false)
                .map_err(|e| ShardError::Seed(e.to_string()))?;
        }
        Ok(catalog)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.fleet.len()
    }

    /// Serve every shard's probe/scan reads from a pinned MVCC snapshot
    /// of its slice instead of the live database.  Opt-in, so existing
    /// charged-I/O profiles are unchanged unless asked for; the pin is
    /// refreshed on every reseed so reads track the durable tip at
    /// reseed granularity.
    pub fn enable_snapshot_reads(&mut self) {
        for client in &mut self.fleet.shards {
            let node = client.transport_mut();
            node.snap = Some(node.db.snapshot());
        }
    }

    /// Arm shard `i` with a fault-injection schedule (tests, chaos
    /// sweeps, `\shards fault`).
    pub fn set_fault_plan(&mut self, i: usize, plan: ShardFaultPlan) {
        self.fleet.shards[i].transport_mut().fault = plan;
    }

    /// Cap every scatter request at `attempts` wire attempts — see
    /// [`Fleet::set_deadline`].
    pub fn set_deadline(&mut self, attempts: u32) {
        self.fleet.set_deadline(attempts);
    }

    /// The catalog database (metadata + naive fallback).
    pub fn catalog(&self) -> &Database {
        &self.catalog
    }

    /// The shard fleet (I/O accounting, client stats, nodes).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Mutable fleet access (taking I/O, tests).
    pub fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    /// Per-shard health states.
    pub fn health_states(&self) -> Vec<HealthState> {
        self.fleet.health_states()
    }

    /// Is every shard serving normally?
    pub fn all_up(&self) -> bool {
        self.fleet.all_up()
    }

    /// Take the shard set missing from answers since the last call —
    /// the wire `partial` set (empty = every answer was complete).
    pub fn take_degraded(&mut self) -> BTreeSet<u32> {
        self.fleet.take_degraded()
    }

    /// Scatter-gather forward span query — same contract as
    /// [`Database::forward`] on the primary.
    pub fn forward(
        &mut self,
        id: AsrId,
        i: usize,
        j: usize,
        start: Oid,
    ) -> asr_core::Result<Vec<Cell>> {
        let Self { catalog, fleet } = self;
        fleet.forward(catalog, id, i, j, start)
    }

    /// Scatter-gather backward span query — same contract as
    /// [`Database::backward`] on the primary.
    pub fn backward(
        &mut self,
        id: AsrId,
        i: usize,
        j: usize,
        target: &Cell,
    ) -> asr_core::Result<Vec<Oid>> {
        let Self { catalog, fleet } = self;
        fleet.backward(catalog, id, i, j, target)
    }

    /// Run a whole OQL statement scatter-gather: the plan executes on
    /// the catalog, every span it touches routes through the fleet.
    pub fn query(&mut self, text: &str) -> asr_oql::Result<asr_oql::ResultSet> {
        let Self { catalog, fleet } = self;
        asr_oql::execute_routed(catalog, text, fleet)
    }

    /// Broadcast a health probe to every shard.
    pub fn status(&mut self) -> Result<Vec<ShardHealth>, ShardError> {
        self.fleet.status()
    }

    /// One deterministic health-check tick: probe every shard the
    /// machine still trusts, then give each Down shard past its backoff
    /// gate a reseed attempt.  This is the coordinator's self-healing
    /// loop — drive it from the serving loop (or `\shards tick`) and
    /// the fleet converges back to all-Up after any crash the
    /// replication substrate can repair.
    pub fn tick<S: Storage>(&mut self, primary: &DurableDatabase<S>) {
        let Self { catalog, fleet } = self;
        fleet.clock += 1;
        let tracer = catalog.tracer();
        tracer.metrics().inc_counter("shard.health.ticks", 1);
        fleet.health_report(catalog);
        for i in 0..fleet.shards.len() {
            let rec = fleet.health[i];
            if rec.state == HealthState::Down && fleet.clock >= rec.backoff_until {
                Self::recover_shard(catalog, fleet, i, primary);
            }
        }
        fleet.note_up_gauge(catalog);
    }

    /// Spin a replacement node for Down shard `i` and re-seed it
    /// through the replication substrate: delta catch-up when the crash
    /// retained the applier's base, full bootstrap otherwise.  On
    /// failure (including an injected crash-during-reseed) the shard
    /// stays Down and the next attempt waits out an exponential
    /// backoff.
    fn recover_shard<S: Storage>(
        catalog: &Database,
        fleet: &mut Fleet,
        i: usize,
        primary: &DurableDatabase<S>,
    ) {
        let tracer = catalog.tracer();
        let n = fleet.shards.len();
        {
            let rec = &mut fleet.health[i];
            rec.state = HealthState::Reseeding;
            rec.reseed_attempts += 1;
        }
        let attempt = fleet.health[i].reseed_attempts;
        let node = fleet.shards[i].transport_mut();
        // A crash that lost the node's disk also lost the retained
        // replica base: the replacement must bootstrap from scratch.
        if node.crashed && node.fault.lose_applier {
            node.applier = ReplicaApplier::new();
        }
        let mode = match node.applier.needed() {
            Need::Checkpoint => "full",
            Need::From(_) | Need::DeltaBootstrap(_) => "delta",
        };
        tracer.event(
            "shard.reseed.begin",
            &[
                ("shard", i.to_string()),
                ("attempt", attempt.to_string()),
                ("mode", mode.to_string()),
            ],
        );
        tracer
            .metrics()
            .inc_counter("shard.health.reseed_attempts", 1);
        let bytes_before = node.applier.status().bytes_received;
        let outcome = Self::bootstrap_replacement(node, primary, n);
        match outcome {
            Ok(report) => {
                node.crashed = false;
                node.ops = 0;
                node.stall_logged = false;
                // The replacement is a fresh process: the old schedule
                // died with the old node (reseed_crashes, if any, were
                // consumed above).
                node.fault = ShardFaultPlan::default();
                node.generation += 1;
                let (profile, base) = node.chaos;
                let lane = base ^ ((node.generation as u64) << 32);
                node.inbox = FaultyChannel::new(profile, lane);
                node.outbox = FaultyChannel::new(profile, lane.wrapping_add(1));
                let mut server = NetServer::new();
                let sid = server.open_session();
                server.set_applied_lsn(node.applied_lsn());
                node.server = server;
                node.sid = sid;
                let rows = node.placed_rows;
                let lsn = node.applied_lsn();
                let node_bytes = node.applier.status().bytes_received;
                let rec = &mut fleet.health[i];
                rec.state = HealthState::Up;
                rec.misses = 0;
                rec.backoff_until = 0;
                let ticks_down = rec
                    .down_since
                    .take()
                    .map_or(0, |since| fleet.clock.saturating_sub(since));
                tracer.event(
                    "shard.reseed.end",
                    &[
                        ("shard", i.to_string()),
                        ("outcome", "ok".to_string()),
                        ("mode", mode.to_string()),
                        ("deliveries", report.deliveries_sent.to_string()),
                        (
                            "bytes",
                            (node_bytes.saturating_sub(bytes_before)).to_string(),
                        ),
                        ("rows", rows.to_string()),
                        ("lsn", lsn.to_string()),
                        ("ticks_down", ticks_down.to_string()),
                    ],
                );
                let metrics = tracer.metrics();
                metrics.inc_counter("shard.reseeds", 1);
                metrics.inc_counter("shard.health.recoveries", 1);
                metrics.observe(
                    "shard.health.ticks_to_recover",
                    &RECOVERY_TICK_BOUNDS,
                    ticks_down as f64,
                );
            }
            Err(e) => {
                let rec = &mut fleet.health[i];
                rec.state = HealthState::Down;
                rec.backoff_until = fleet.clock
                    + RESEED_BACKOFF_CAP.min(RESEED_BACKOFF_BASE << (attempt - 1).min(63));
                tracer.event(
                    "shard.reseed.end",
                    &[
                        ("shard", i.to_string()),
                        ("outcome", "failed".to_string()),
                        ("error", e.to_string()),
                    ],
                );
                tracer
                    .metrics()
                    .inc_counter("shard.health.reseed_failures", 1);
            }
        }
    }

    /// Pump the replacement's applier to the primary's tip and rebuild
    /// its placement slice.  An injected `reseed_crashes` budget makes
    /// the replacement die before the slice swap — the build-aside
    /// discipline of [`ShardNode::replace_slice`] guarantees the dead
    /// node keeps serving *nothing* rather than a half-installed slice.
    fn bootstrap_replacement<S: Storage>(
        node: &mut ShardNode,
        primary: &DurableDatabase<S>,
        n: usize,
    ) -> Result<ShipReport, ShardError> {
        if node.fault.reseed_crashes > 0 {
            node.fault.reseed_crashes -= 1;
            node.tracer.event(
                "shard.fault.crash",
                &[
                    ("shard", node.index.to_string()),
                    ("op", node.ops.to_string()),
                    ("phase", "reseed".to_string()),
                ],
            );
            node.tracer.metrics().inc_counter("shard.fault.crashes", 1);
            return Err(ShardError::Seed(
                "replacement node crashed mid-bootstrap".to_string(),
            ));
        }
        let mut link = LosslessChannel::new();
        let report = replicate(
            primary,
            &mut node.applier,
            &mut link,
            &ReplicateOptions::default(),
        )
        .map_err(|e| ShardError::Seed(e.to_string()))?;
        node.replace_slice(n)?;
        Ok(report)
    }

    /// Render `\shards status` lines: per-shard health state, placement
    /// and replication figures, plus scatter and health-machine
    /// aggregates.
    pub fn render_status(&mut self) -> Result<String, ShardError> {
        let Self { catalog, fleet } = self;
        let report = fleet.health_report(catalog);
        let mut out = String::new();
        for (i, (state, health)) in report.iter().enumerate() {
            match health {
                Some(h) => out.push_str(&format!(
                    "shard {i}: state={} rows={} pages={} applied_lsn={} requests={}\n",
                    state.label(),
                    h.placed_rows,
                    h.pages,
                    h.applied_lsn,
                    h.requests
                )),
                None => {
                    let rec = &fleet.health[i];
                    out.push_str(&format!(
                        "shard {i}: state={} (unreachable; misses={} reseed_attempts={} next_attempt_tick={})\n",
                        rec.state.label(),
                        rec.misses,
                        rec.reseed_attempts,
                        rec.backoff_until
                    ))
                }
            }
        }
        let (merged, max) = fleet.take_io();
        out.push_str(&format!(
            "scatter: merged_pages={} max_shard_pages={max}\n",
            merged.accesses()
        ));
        let up = report.iter().filter(|(s, _)| *s == HealthState::Up).count();
        out.push_str(&format!(
            "health: tick={} up={up}/{}\n",
            fleet.clock,
            report.len()
        ));
        Ok(out)
    }

    /// Catch every shard (and the catalog) up to the primary's current
    /// durable tip: each applier replays the missing WAL suffix (or a
    /// delta bootstrap when segments were pruned), then the serving
    /// slice is rebuilt and re-placed.  Mutations flow through the
    /// primary; this is how they reach the fleet.
    pub fn reseed<S: Storage>(&mut self, primary: &DurableDatabase<S>) -> Result<(), ShardError> {
        // The rebuilt catalog adopts the old tracer so accumulated
        // `shard.*` metrics and attached sinks survive the reseed.
        let tracer = self.catalog.tracer().clone();
        let mut catalog = Self::seed_catalog(primary)?;
        catalog.adopt_tracer(tracer.clone());
        self.catalog = catalog;
        let n = self.fleet.len();
        for client in &mut self.fleet.shards {
            let node = client.transport_mut();
            let mut link = LosslessChannel::new();
            replicate(
                primary,
                &mut node.applier,
                &mut link,
                &ReplicateOptions::default(),
            )
            .map_err(|e| ShardError::Seed(e.to_string()))?;
            node.replace_slice(n)?;
            tracer.event(
                "shard.reseed",
                &[
                    ("shard", node.index.to_string()),
                    ("rows", node.placed_rows.to_string()),
                    ("lsn", node.applied_lsn().to_string()),
                ],
            );
            tracer.metrics().inc_counter("shard.reseeds", 1);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plans as the private SplitMix64 copy drew them before
    /// `seeded_rng` replaced it: CI's pinned failover seed must keep
    /// replaying the same crashes and stalls.
    #[test]
    fn seeded_fault_plans_are_pinned() {
        assert_eq!(
            ShardFaultPlan::from_seed(1337),
            ShardFaultPlan {
                crash_at_op: Some(21),
                stall_at_op: None,
                stall_ops: 20,
                lose_applier: false,
                reseed_crashes: 0,
            }
        );
        assert_eq!(
            ShardFaultPlan::from_seed(7),
            ShardFaultPlan {
                crash_at_op: Some(7),
                stall_at_op: Some(3),
                stall_ops: 24,
                lose_applier: true,
                reseed_crashes: 1,
            }
        );
    }
}
