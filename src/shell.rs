//! The `asrdb` shell: an interactive front-end over the whole stack.
//!
//! Plain input is executed as a query in the paper's SQL-like notation;
//! backslash commands manage the database and its physical design:
//!
//! ```text
//! \open company            load a built-in example database
//! \schema                  show the schema
//! \asr <path> <ext> <dec>  materialize an access support relation
//! \asrs                    list access support relations
//! \drop <id>               drop one
//! \explain <query>         show the evaluation plan
//! \analyze <query>         EXPLAIN ANALYZE: run it, measured vs predicted
//! \advise <path> [p_up]    run the physical-design advisor
//! \save <file> / \load <file|dir>   snapshot persistence / recovery
//! \wal on <dir>|off|status write-ahead logging for the open database
//! \wal rotate|prune        segment maintenance for the log archive
//! \checkpoint              checkpoint the durable state: only what changed
//!                          since the last one, when a delta can be written
//! \recover <lsn>           point-in-time recovery to an as-of view
//! \replica on|off|sync|status  warm standby fed by log shipping
//! \stats / \reset          page-access accounting
//! \trace on|off|show       capture finished spans in a ring buffer
//! \flightrec status|dump|tail <n>  inspect the always-on flight recorder
//! \serve <addr>            serve the open database over TCP until shutdown
//! \connect [chaos <seed>]  loopback wire mode: route queries through an
//!                          in-process server over (chaotic) channels
//! \help / \quit
//! ```
//!
//! The command interpreter is a pure function over [`ShellState`], which
//! keeps it unit-testable; the binary `asrdb` wraps it in a stdin loop.
//!
//! The session's [`UsageRecorder`] is *subscribed* to the database's
//! trace stream (see `asr_advisor::RecorderSink`): the query layer
//! announces every span query it performs as a `usage.*` event, and the
//! advisor consumes those tallies in `\advise`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use asr_advisor::{advise, RecorderSink, UsageRecorder};

use asr_core::{AsrConfig, AsrLoadMode, Database, Decomposition, Extension};
use asr_durable::{
    recover_to_lsn, replicate, Channel, ChaosProfile, DurableDatabase, FaultyChannel, FlushPolicy,
    FsStorage, LogShipper, LosslessChannel, OpenDurable, ReplicaApplier, ReplicateOptions,
    MANIFEST_FILE,
};
use asr_gom::PathExpression;
use asr_net::{decode_frame, Request, RequestBody, Response, ResponseBody, WireMessage};
use asr_obs::{FlightRecorder, RingBufferSink, SinkId};
use asr_oql as oql;
use asr_server::{NetServer, ServerDb, TcpServer};
use asr_workload::{company_database, robot_database};

/// The session's open database: plain in-memory, or write-ahead logged.
pub enum OpenDb {
    /// In-memory only; mutations do not survive the session.
    Plain(Box<Database>),
    /// WAL-backed (`\wal on <dir>` or `\load <dir>`): every mutation is
    /// logged and the directory is crash-recoverable.
    Durable(Box<DurableDatabase<FsStorage>>),
}

impl OpenDb {
    /// Read access, regardless of durability.
    pub fn as_db(&self) -> &Database {
        match self {
            OpenDb::Plain(db) => db,
            OpenDb::Durable(d) => d.database(),
        }
    }
}

/// Mutable shell session state.
#[derive(Default)]
pub struct ShellState {
    /// The open database, if any.
    pub db: Option<OpenDb>,
    /// Name of what was opened (diagnostics).
    pub origin: String,
    /// Observed usage, fed by the trace-stream subscription; feeds
    /// `\advise` when non-empty.
    pub recorder: Rc<RefCell<UsageRecorder>>,
    /// The `\trace` ring buffer, while tracing is on.  The [`SinkId`] is
    /// `None` when tracing was enabled before any database was open.
    trace: Option<(Option<SinkId>, Rc<RingBufferSink>)>,
    /// The always-on flight recorder of the open database (`\flightrec`).
    /// Durable databases bring their own; plain ones get one attached at
    /// install time.
    flightrec: Option<Rc<FlightRecorder>>,
    /// The in-process warm standby, while `\replica on` (WAL mode only).
    replica: Option<ReplicaApplier>,
    /// Loopback wire mode, while `\connect` (queries route through an
    /// in-process server session over possibly chaotic channels).
    wire: Option<WireSession>,
    /// Should the REPL terminate?
    pub done: bool,
}

/// One loopback wire session: a [`NetServer`] session plus the chaotic
/// request/response channels, with the client half of the exactly-once
/// protocol (ids, retries, NACK handling) inlined so the served database
/// can stay in [`ShellState::db`].
struct WireSession {
    server: NetServer,
    sid: usize,
    inbox: FaultyChannel,
    outbox: FaultyChannel,
    next_id: u64,
    frames_sent: u64,
    retries: u64,
    nacks: u64,
    damaged: u64,
    chaos_seed: Option<u64>,
}

impl WireSession {
    fn new(chaos_seed: Option<u64>) -> Self {
        let (profile, seed) = match chaos_seed {
            Some(seed) => (ChaosProfile::from_seed(seed), seed),
            None => (ChaosProfile::default(), 0),
        };
        let mut server = NetServer::new();
        let sid = server.open_session();
        WireSession {
            server,
            sid,
            inbox: FaultyChannel::new(profile, seed),
            outbox: FaultyChannel::new(profile, seed.wrapping_add(1)),
            next_id: 1,
            frames_sent: 0,
            retries: 0,
            nacks: 0,
            damaged: 0,
            chaos_seed,
        }
    }

    /// Issue `body` against the session, retrying through damage — the
    /// same at-least-once-plus-dedup loop as `asr_net::WireClient`.
    fn call(
        &mut self,
        view: &mut ServerDb<'_, FsStorage>,
        body: RequestBody,
    ) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = Request { id, body }.encode();
        for attempt in 1..=64u32 {
            self.inbox.send(frame.clone());
            self.frames_sent += 1;
            if attempt > 1 {
                self.retries += 1;
            }
            self.server
                .pump_session(self.sid, view, &mut self.inbox, &mut self.outbox);
            while let Some(delivery) = self.outbox.recv() {
                match decode_frame(&delivery) {
                    Some(WireMessage::Response(resp)) if resp.id == id => {
                        if matches!(resp.body, ResponseBody::Nack { .. }) {
                            self.nacks += 1;
                            break; // re-send the same frame
                        }
                        return Ok(resp);
                    }
                    Some(WireMessage::Response(resp)) if resp.id == 0 => {
                        self.nacks += 1; // NACK to an unreadable id
                        break;
                    }
                    Some(WireMessage::Response(_)) => {} // stale duplicate
                    Some(WireMessage::Request(_)) | None => self.damaged += 1,
                }
            }
        }
        Err(
            "wire link exhausted after 64 attempts — `\\connect off` to leave wire mode"
                .to_string(),
        )
    }
}

impl ShellState {
    /// Fresh, databaseless state.
    pub fn new() -> Self {
        Self::default()
    }

    fn db(&self) -> Result<&Database, String> {
        self.db
            .as_ref()
            .map(OpenDb::as_db)
            .ok_or_else(|| "no database open — try `\\open company`".to_string())
    }

    fn open_mut(&mut self) -> Result<&mut OpenDb, String> {
        self.db
            .as_mut()
            .ok_or_else(|| "no database open — try `\\open company`".to_string())
    }

    fn durable_mut(&mut self) -> Result<&mut DurableDatabase<FsStorage>, String> {
        match self.open_mut()? {
            OpenDb::Durable(d) => Ok(d),
            OpenDb::Plain(_) => Err("WAL is off — `\\wal on <dir>` first".to_string()),
        }
    }

    /// Install `db` as the open database, subscribing the session's usage
    /// recorder (and re-attaching the trace ring if tracing was on).
    /// Serving modes bound to the previous database are torn down.
    fn install_db(&mut self, db: OpenDb, origin: &str) {
        self.wire = None;
        db.as_db()
            .tracer()
            .add_sink(Rc::new(RecorderSink::new(Rc::clone(&self.recorder))));
        if let Some((_, ring)) = self.trace.take() {
            let id = db.as_db().tracer().add_sink(ring.clone());
            self.trace = Some((Some(id), ring));
        }
        self.flightrec = Some(match &db {
            OpenDb::Durable(d) => d.flight_recorder().clone(),
            OpenDb::Plain(p) => {
                let rec = FlightRecorder::shared();
                p.tracer().add_sink(rec.clone());
                rec
            }
        });
        self.db = Some(db);
        self.origin = origin.to_string();
    }
}

/// Execute one input line; returns the text to display.
pub fn run_line(state: &mut ShellState, line: &str) -> String {
    let line = line.trim();
    if line.is_empty() {
        return String::new();
    }
    let result = if let Some(rest) = line.strip_prefix('\\') {
        run_command(state, rest)
    } else {
        run_query(state, line)
    };
    match result {
        Ok(out) => out,
        Err(msg) => format!("error: {msg}"),
    }
}

fn run_command(state: &mut ShellState, input: &str) -> Result<String, String> {
    let mut parts = input.splitn(2, ' ');
    let cmd = parts.next().unwrap_or("");
    let rest = parts.next().unwrap_or("").trim();
    match cmd {
        "help" | "h" | "?" => Ok(HELP.to_string()),
        "quit" | "q" | "exit" => {
            state.done = true;
            Ok("bye".to_string())
        }
        "open" => cmd_open(state, rest),
        "schema" => cmd_schema(state),
        "asr" => cmd_asr(state, rest),
        "asrs" => cmd_asrs(state),
        "drop" => cmd_drop(state, rest),
        "explain" => {
            let db = state.db()?;
            oql::explain(db, rest).map_err(|e| e.to_string())
        }
        "analyze" => {
            let db = state.db()?;
            let report = oql::explain_analyze(db, rest).map_err(|e| e.to_string())?;
            Ok(format!("{}{}", report.result, report.render()))
        }
        "advise" => cmd_advise(state, rest),
        "save" => {
            let db = state.db()?;
            db.save(rest).map_err(|e| e.to_string())?;
            Ok(format!("saved to {rest}"))
        }
        "load" => cmd_load(state, rest),
        "wal" => cmd_wal(state, rest),
        "checkpoint" => cmd_checkpoint(state, rest),
        "recover" => cmd_recover(state, rest),
        "replica" => cmd_replica(state, rest),
        "stats" => cmd_stats(state),
        "txn" => cmd_txn(state, rest),
        "reset" => {
            let db = state.db()?;
            db.stats().reset();
            Ok("counters reset".to_string())
        }
        "trace" => cmd_trace(state, rest),
        "flightrec" => cmd_flightrec(state, rest),
        "serve" => cmd_serve(state, rest),
        "connect" => cmd_connect(state, rest),
        other => Err(format!("unknown command `\\{other}` — try `\\help`")),
    }
}

fn cmd_open(state: &mut ShellState, which: &str) -> Result<String, String> {
    let (db, desc) = match which {
        "company" => (
            company_database().db,
            "the paper's Figure 2 company database",
        ),
        "robots" | "robot" => (robot_database().db, "the paper's Figure 1 robot database"),
        other => {
            return Err(format!(
                "unknown example `{other}` (available: company, robots)"
            ))
        }
    };
    let summary = format!("opened {desc} ({} objects)", db.base().object_count());
    state.install_db(OpenDb::Plain(Box::new(db)), which);
    Ok(summary)
}

/// `\load <file|dir>`: a plain snapshot file, or (when the path holds a
/// `MANIFEST`) a durable directory — recovered via checkpoint + WAL
/// replay, staying in WAL mode afterwards.
fn cmd_load(state: &mut ShellState, rest: &str) -> Result<String, String> {
    if rest.is_empty() {
        return Err("usage: \\load <file|dir>".to_string());
    }
    if std::path::Path::new(rest).join(MANIFEST_FILE).is_file() {
        let d = Database::open_durable(rest).map_err(|e| e.to_string())?;
        let r = d.recovery_report().clone();
        let torn = match (r.torn_bytes, r.torn_reason) {
            (0, _) => String::new(),
            (n, reason) => format!(
                ", {n} torn byte(s) discarded ({})",
                reason.unwrap_or("unknown")
            ),
        };
        let summary = format!(
            "recovered {rest}: checkpoint LSN {}, {} record(s) replayed{torn}; \
             {} objects, {} access relations (WAL on){}",
            r.checkpoint_lsn,
            r.records_replayed,
            d.base().object_count(),
            d.asrs().count(),
            describe_load_modes(&r.asr_load_modes),
        );
        state.install_db(OpenDb::Durable(Box::new(d)), rest);
        Ok(summary)
    } else {
        let (db, report) = Database::load_report(rest).map_err(|e| e.to_string())?;
        let summary = format!(
            "loaded {rest}: {} objects, {} access relations (snapshot v{}){}",
            db.base().object_count(),
            db.asrs().count(),
            report.version,
            describe_load_modes(&report.asrs),
        );
        state.install_db(OpenDb::Plain(Box::new(db)), rest);
        Ok(summary)
    }
}

/// One line per ASR: was it restored physically from page images, or
/// rebuilt from the object base (and why)?
fn describe_load_modes(modes: &[(asr_core::AsrId, AsrLoadMode)]) -> String {
    let mut out = String::new();
    for (id, mode) in modes {
        match mode {
            AsrLoadMode::Physical => {
                let _ = write!(out, "\n  asr {id}: physical");
            }
            AsrLoadMode::Delta { pages } => {
                let _ = write!(out, "\n  asr {id}: delta-patched ({pages} changed pages)");
            }
            AsrLoadMode::Rebuilt(reason) => {
                let _ = write!(out, "\n  asr {id}: rebuilt ({reason})");
            }
        }
    }
    out
}

fn policy_name(p: FlushPolicy) -> String {
    match p {
        FlushPolicy::EveryRecord => "every-record".to_string(),
        FlushPolicy::EveryN(n) => format!("group({n})"),
        FlushPolicy::Explicit => "explicit".to_string(),
    }
}

fn cmd_wal(state: &mut ShellState, rest: &str) -> Result<String, String> {
    let mut parts = rest.split_whitespace();
    match parts.next() {
        Some("on") => {
            let dir = parts
                .next()
                .ok_or("usage: \\wal on <dir> — the durable directory")?;
            match state.open_mut()? {
                OpenDb::Durable(_) => Ok("WAL already on — `\\wal status`".to_string()),
                OpenDb::Plain(_) => {
                    if std::path::Path::new(dir).join(MANIFEST_FILE).is_file() {
                        return Err(format!(
                            "{dir} already holds a durable database — `\\load {dir}` recovers it"
                        ));
                    }
                    // `create` consumes the database (the initial
                    // checkpoint takes ownership); the manifest pre-check
                    // above keeps the common error from losing the session.
                    let Some(OpenDb::Plain(db)) = state.db.take() else {
                        unreachable!("matched Plain above");
                    };
                    let d = db.create_durable(dir).map_err(|e| e.to_string())?;
                    let lsn = d.wal_status().checkpoint_lsn;
                    // The durable wrapper attached its own recorder; point
                    // `\flightrec` at it so the tail covers WAL activity.
                    state.flightrec = Some(d.flight_recorder().clone());
                    state.db = Some(OpenDb::Durable(Box::new(d)));
                    Ok(format!(
                        "WAL on in {dir}: initial checkpoint written (LSN {lsn}); \
                         mutations are now logged"
                    ))
                }
            }
        }
        Some("off") => {
            let d = state.durable_mut()?;
            // A final checkpoint leaves the directory fully current; if
            // the session is poisoned we detach anyway (the directory is
            // consistent up to the last durable flush).
            let parting = match d.checkpoint() {
                Ok(_) => format!("final checkpoint at LSN {}", d.wal_status().checkpoint_lsn),
                Err(e) => format!("final checkpoint failed ({e})"),
            };
            let Some(OpenDb::Durable(d)) = state.db.take() else {
                unreachable!("durable_mut checked");
            };
            state.db = Some(OpenDb::Plain(Box::new(d.into_database())));
            Ok(format!("WAL off — {parting}; session continues in memory"))
        }
        Some("status") => {
            let d = state.durable_mut()?;
            let s = d.wal_status();
            let r = d.recovery_report();
            let mut out = format!(
                "WAL on: policy {}, last LSN {}, checkpoint LSN {}, \
                 {} durable byte(s), {} pending record(s){}\n",
                policy_name(s.policy),
                s.last_lsn,
                s.checkpoint_lsn,
                s.durable_bytes,
                s.pending_records,
                if s.poisoned { " [POISONED]" } else { "" }
            );
            let _ = writeln!(
                out,
                "segments: {} sealed, {} archived byte(s), oldest needed LSN {}{}",
                s.segment_count,
                s.archived_bytes,
                s.oldest_needed_lsn,
                s.pitr_floor_lsn
                    .map(|f| format!(", PITR floor LSN {f}"))
                    .unwrap_or_default()
            );
            if let Some(g) = d.group_commit_status() {
                let _ = writeln!(
                    out,
                    "group commit: target {} session(s), {} pending, {} group(s) flushed, \
                     {} commit(s) over {} fsync(s) ({:.2} fsyncs/commit){}",
                    g.target,
                    g.pending_sessions,
                    g.groups,
                    g.commits,
                    g.fsyncs,
                    g.fsyncs_per_commit(),
                    match g.deadline_ops {
                        Some(ops) => format!(
                            ", deadline {ops} op(s) ({} deadline flush(es))",
                            g.deadline_flushes
                        ),
                        None => String::new(),
                    }
                );
            }
            let lineage = match s.delta_base_lsn {
                Some(base) => format!(
                    "delta on base LSN {base}, chain depth {}",
                    s.delta_chain_depth
                ),
                None => "full".to_string(),
            };
            let _ = writeln!(
                out,
                "checkpoint lineage: {lineage}{}",
                if s.last_checkpoint_pages > 0 {
                    let full = d.full_checkpoint_pages();
                    format!(
                        "; last write {} page(s), a full one now {full} ({} saved)",
                        s.last_checkpoint_pages,
                        full.saturating_sub(s.last_checkpoint_pages)
                    )
                } else {
                    String::new()
                }
            );
            let _ = writeln!(
                out,
                "last recovery: {} record(s) replayed, {} skipped, {} torn byte(s){}",
                r.records_replayed,
                r.records_skipped,
                r.torn_bytes,
                r.torn_reason.map(|t| format!(" ({t})")).unwrap_or_default()
            );
            Ok(out)
        }
        Some("group") => {
            let d = state.durable_mut()?;
            match parts.next() {
                Some("off") => {
                    let parting = d
                        .group_commit_status()
                        .map(|g| {
                            format!(
                                " — {} commit(s) over {} fsync(s) while on",
                                g.commits, g.fsyncs
                            )
                        })
                        .unwrap_or_default();
                    d.disable_group_commit().map_err(|e| e.to_string())?;
                    Ok(format!(
                        "group commit off{parting}; previous flush policy restored"
                    ))
                }
                Some(n) => {
                    let usage = "usage: \\wal group <sessions> [deadline <ops>]|off";
                    let target: usize = n.parse().map_err(|_| usage.to_string())?;
                    let deadline = match parts.next() {
                        Some("deadline") => {
                            let ops: u64 = parts
                                .next()
                                .ok_or(usage)?
                                .parse()
                                .map_err(|_| usage.to_string())?;
                            Some(ops)
                        }
                        Some(other) => return Err(format!("unknown option `{other}`")),
                        None => None,
                    };
                    d.enable_group_commit(target);
                    d.set_group_commit_deadline(deadline);
                    Ok(format!(
                        "group commit on: one fsync once {target} session(s) have a \
                         commit pending{} (`\\wal status` shows the pipeline)",
                        match deadline {
                            Some(ops) => format!(", or after {ops} logged op(s)"),
                            None => String::new(),
                        }
                    ))
                }
                None => Err("usage: \\wal group <sessions> [deadline <ops>]|off".to_string()),
            }
        }
        Some("prune") => {
            let d = state.durable_mut()?;
            let report = d.prune_segments().map_err(|e| e.to_string())?;
            if report.segments_removed == 0 && report.checkpoints_removed == 0 {
                return Ok(
                    "nothing to prune: every segment is newer than the checkpoint".to_string(),
                );
            }
            Ok(format!(
                "pruned {} segment(s) ({} byte(s) reclaimed) and {} archived checkpoint(s); \
                 PITR floor is now LSN {}",
                report.segments_removed,
                report.bytes_reclaimed,
                report.checkpoints_removed,
                d.wal_status().pitr_floor_lsn.unwrap_or(0)
            ))
        }
        Some("rotate") => {
            let d = state.durable_mut()?;
            match d.rotate_segment().map_err(|e| e.to_string())? {
                Some(meta) => Ok(format!(
                    "sealed segment {} covering LSNs {}..={} ({} byte(s))",
                    meta.seqno, meta.first_lsn, meta.last_lsn, meta.bytes
                )),
                None => Ok("active log is empty — nothing to seal".to_string()),
            }
        }
        _ => Err("usage: \\wal on <dir>|off|status|group <n>|rotate|prune".to_string()),
    }
}

/// `\txn status`: the MVCC epoch/pin counters of the open database —
/// commit epoch, live snapshot pins, and reclamation progress.
fn cmd_txn(state: &mut ShellState, rest: &str) -> Result<String, String> {
    match rest.trim() {
        "" | "status" => {
            let t = state.db()?.txn_status();
            Ok(format!(
                "commit epoch {}, {} active snapshot(s), oldest pinned epoch {}, \
                 {} epoch(s) reclaimed",
                t.commit_epoch,
                t.active_snapshots,
                t.oldest_pinned
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "none".to_string()),
                t.epochs_reclaimed
            ))
        }
        _ => Err("usage: \\txn status".to_string()),
    }
}

/// `\recover <lsn>`: point-in-time recovery.  Reconstructs the database
/// as of the bound from archived checkpoints and sealed segments, and
/// installs it as an in-memory session — the durable directory itself is
/// never modified.
fn cmd_recover(state: &mut ShellState, rest: &str) -> Result<String, String> {
    let bound: u64 = rest
        .trim()
        .parse()
        .map_err(|_| "usage: \\recover <lsn>".to_string())?;
    let d = state.durable_mut()?;
    let (db, report) = recover_to_lsn(d.storage(), bound).map_err(|e| e.to_string())?;
    let summary = format!(
        "recovered as of LSN {}: checkpoint LSN {} + {} record(s) replayed \
         ({} segment(s), {} page(s) read); {} objects, {} access relations\n\
         in-memory as-of view — the durable directory is untouched; \\load it to return to the tip",
        report.bound,
        report.checkpoint_lsn,
        report.records_replayed,
        report.segments_read,
        report.pages_read,
        db.base().object_count(),
        db.asrs().count(),
    );
    state.install_db(OpenDb::Plain(Box::new(db)), &format!("pitr@{bound}"));
    Ok(summary)
}

/// `\replica on|off|sync|status`: an in-process warm standby fed by log
/// shipping from the open durable database.
fn cmd_replica(state: &mut ShellState, rest: &str) -> Result<String, String> {
    match rest.trim() {
        "on" => {
            state.durable_mut()?; // replication needs a durable primary
            if state.replica.is_some() {
                return Ok("replica already on — `\\replica sync` to catch it up".to_string());
            }
            state.replica = Some(ReplicaApplier::new());
            Ok("replica on (empty standby) — `\\replica sync` ships history to it".to_string())
        }
        "off" => match state.replica.take() {
            Some(r) => Ok(format!(
                "replica off (was at LSN {}, {} record(s) applied)",
                r.applied_lsn(),
                r.status().records_applied
            )),
            None => Ok("replica already off".to_string()),
        },
        "sync" => {
            let Some(mut applier) = state.replica.take() else {
                return Err("replica is off — `\\replica on` first".to_string());
            };
            let d = match state.durable_mut() {
                Ok(d) => d,
                Err(e) => {
                    state.replica = Some(applier);
                    return Err(e);
                }
            };
            let mut channel = LosslessChannel::new();
            let res = replicate(d, &mut applier, &mut channel, &ReplicateOptions::default());
            let out = match res {
                Ok(report) => Ok(format!(
                    "replica caught up to LSN {}: {} round(s), {} delivery(ies), \
                     {} record(s) applied",
                    report.converged_lsn,
                    report.rounds,
                    report.deliveries_sent,
                    report.records_applied
                )),
                Err(e) => Err(e.to_string()),
            };
            state.replica = Some(applier);
            out
        }
        "status" => {
            let Some(applier) = &state.replica else {
                return Err("replica is off — `\\replica on` first".to_string());
            };
            let st = applier.status();
            let d = state
                .db
                .as_ref()
                .and_then(|db| match db {
                    OpenDb::Durable(d) => Some(d),
                    OpenDb::Plain(_) => None,
                })
                .ok_or("WAL is off — `\\wal on <dir>` first")?;
            let shipper = LogShipper::new(d.storage());
            let tip = shipper.tip().map_err(|e| e.to_string())?;
            let lag_lsns = tip.saturating_sub(st.applied_lsn);
            let lag_bytes = shipper
                .lag_bytes(st.applied_lsn)
                .map_err(|e| e.to_string())?;
            let lag_pages = lag_bytes.div_ceil(asr_pagesim::PAGE_SIZE as u64);
            let mut out = format!(
                "replica: {}, applied LSN {} of {tip} (lag {lag_lsns} LSN(s), ~{lag_pages} page(s))\n",
                if st.bootstrapped {
                    "bootstrapped"
                } else {
                    "empty (never seeded)"
                },
                st.applied_lsn,
            );
            let _ = writeln!(
                out,
                "lifetime: {} record(s) applied, {} bootstrap(s), {} duplicate(s), \
                 {} gap NACK(s), {} corrupt NACK(s), {} byte(s) received",
                st.records_applied,
                st.bootstraps,
                st.duplicates,
                st.gaps,
                st.corrupt,
                st.bytes_received
            );
            Ok(out)
        }
        other => Err(format!(
            "usage: \\replica on|off|sync|status (got `{other}`)"
        )),
    }
}

fn cmd_checkpoint(state: &mut ShellState, rest: &str) -> Result<String, String> {
    let d = state.durable_mut()?;
    if !rest.is_empty() {
        return Err(format!("usage: \\checkpoint (got `{rest}`)"));
    }
    let r = d.checkpoint().map_err(|e| e.to_string())?;
    let lineage = r
        .base_lsn
        .map(|b| format!("delta on base LSN {b}, chain depth {}", r.chain_depth))
        .unwrap_or_else(|| "full".to_string());
    Ok(if r.snapshot_bytes == 0 {
        format!(
            "nothing logged since LSN {} — checkpoint unchanged ({lineage})",
            r.lsn
        )
    } else {
        format!(
            "checkpoint written at LSN {} ({lineage}): {} page(s) written; log truncated",
            r.lsn, r.pages_written
        )
    })
}

fn cmd_stats(state: &ShellState) -> Result<String, String> {
    let db = state.db()?;
    let stats = db.stats();
    let (reads, writes, hits) = (stats.reads(), stats.writes(), stats.buffer_hits());
    let requests = reads + hits;
    let hit_rate = if requests == 0 {
        0.0
    } else {
        100.0 * hits as f64 / requests as f64
    };
    let mut out = format!(
        "page accesses: {} ({reads} reads + {writes} writes), \
         {hits} buffer hits ({hit_rate:.1}% hit rate)\n",
        stats.accesses()
    );
    let batch_probes = stats.batch_probes();
    if batch_probes > 0 {
        let _ = writeln!(
            out,
            "batched probes: {batch_probes} ({} page read(s) saved vs. per-key descents)",
            stats.batch_pages_saved()
        );
    }
    let structures = stats.structures();
    if !structures.is_empty() {
        let width = structures
            .iter()
            .map(|s| s.label.len())
            .max()
            .unwrap_or(0)
            .max("structure".len());
        let kw = structures
            .iter()
            .map(|s| s.kind.name().len())
            .max()
            .unwrap_or(0)
            .max("kind".len());
        let _ = writeln!(
            out,
            "{:<width$}  {:<kw$} {:>8} {:>8} {:>8}",
            "structure", "kind", "reads", "writes", "hits"
        );
        for s in &structures {
            let _ = writeln!(
                out,
                "{:<width$}  {:<kw$} {:>8} {:>8} {:>8}",
                s.label,
                s.kind.name(),
                s.reads,
                s.writes,
                s.buffer_hits
            );
        }
    }
    let metrics = db.tracer().metrics().render_table();
    if !metrics.is_empty() {
        out.push_str(&metrics);
    }
    Ok(out)
}

fn cmd_trace(state: &mut ShellState, arg: &str) -> Result<String, String> {
    match arg {
        "on" => {
            if state.trace.is_some() {
                return Ok("tracing already on".to_string());
            }
            let ring = Rc::new(RingBufferSink::new(1024));
            // Only attach when a database is open; install_db attaches
            // the ring to any database opened later.
            let id = state
                .db
                .as_ref()
                .map(|db| db.as_db().tracer().add_sink(ring.clone()));
            state.trace = Some((id, ring));
            Ok("tracing on (ring of 1024 spans; `\\trace show` to drain)".to_string())
        }
        "off" => match state.trace.take() {
            Some((id, ring)) => {
                if let (Some(db), Some(id)) = (&state.db, id) {
                    db.as_db().tracer().remove_sink(id);
                }
                Ok(format!(
                    "tracing off ({} buffered span(s) discarded)",
                    ring.len()
                ))
            }
            None => Ok("tracing already off".to_string()),
        },
        "show" => match &state.trace {
            Some((_, ring)) => {
                let records = ring.drain();
                if records.is_empty() {
                    return Ok("trace buffer empty".to_string());
                }
                let mut out = String::new();
                for r in &records {
                    out.push_str(&r.to_jsonl());
                    out.push('\n');
                }
                Ok(out)
            }
            None => Err("tracing is off — `\\trace on` first".to_string()),
        },
        other => Err(format!("usage: \\trace on|off|show (got `{other}`)")),
    }
}

fn cmd_flightrec(state: &mut ShellState, arg: &str) -> Result<String, String> {
    let rec = state
        .flightrec
        .as_ref()
        .ok_or_else(|| "no database open — the flight recorder starts with one".to_string())?;
    let mut parts = arg.split_whitespace();
    match parts.next().unwrap_or("status") {
        "status" => {
            let s = rec.status();
            let span = match (s.first_seq, s.last_seq) {
                (Some(a), Some(b)) => format!("seq {a}..{b}"),
                _ => "empty".to_string(),
            };
            Ok(format!(
                "flight recorder: {}/{} event(s) buffered, {} recorded, {} dropped, {span}",
                s.len, s.capacity, s.recorded, s.dropped
            ))
        }
        "dump" => {
            let dump = rec.dump_jsonl();
            if dump.is_empty() {
                Ok("flight recorder empty".to_string())
            } else {
                Ok(dump)
            }
        }
        "tail" => {
            let n = parts
                .next()
                .unwrap_or("10")
                .parse::<usize>()
                .map_err(|_| "usage: \\flightrec tail <n>".to_string())?;
            let lines = rec.tail_summaries(n);
            if lines.is_empty() {
                Ok("flight recorder empty".to_string())
            } else {
                Ok(lines.join("\n"))
            }
        }
        other => Err(format!(
            "usage: \\flightrec status|dump|tail <n> (got `{other}`)"
        )),
    }
}

/// `\serve <addr>`: serve the open database over TCP.  Blocks this
/// session until a client sends `Shutdown` (every connection gets its
/// own exactly-once session).
fn cmd_serve(state: &mut ShellState, rest: &str) -> Result<String, String> {
    let addr = rest.trim();
    if addr.is_empty() {
        return Err("usage: \\serve <addr:port> — e.g. \\serve 127.0.0.1:7070".to_string());
    }
    let open = state.open_mut()?;
    let mut tcp = TcpServer::bind(addr).map_err(|e| e.to_string())?;
    let local = tcp.local_addr().map_err(|e| e.to_string())?;
    let report = match open {
        OpenDb::Plain(db) => tcp.serve_until_shutdown(&mut ServerDb::<FsStorage>::Plain(db)),
        OpenDb::Durable(d) => tcp.serve_until_shutdown(&mut ServerDb::Durable(d)),
    }
    .map_err(|e| e.to_string())?;
    Ok(format!(
        "served {local}: {} session(s), {} request(s) executed, {} replayed, {} NACKed",
        tcp.server().session_count(),
        report.executed,
        report.replayed,
        report.nacked
    ))
}

/// `\connect [chaos <seed>]` / `\connect status` / `\connect off`:
/// loopback wire mode.  While connected, query lines are framed as wire
/// requests and pumped through an in-process server session — with
/// `chaos`, over seeded fault-injecting channels, paying retries.
fn cmd_connect(state: &mut ShellState, rest: &str) -> Result<String, String> {
    let mut parts = rest.split_whitespace();
    match parts.next() {
        None => {
            state.db()?;
            if state.wire.is_some() {
                return Ok("already connected — `\\connect status`".to_string());
            }
            state.wire = Some(WireSession::new(None));
            Ok(
                "wire mode on (lossless loopback): queries now route through the \
                server session — `\\connect off` to leave"
                    .to_string(),
            )
        }
        Some("chaos") => {
            state.db()?;
            let seed: u64 = parts
                .next()
                .ok_or("usage: \\connect chaos <seed>")?
                .parse()
                .map_err(|_| "usage: \\connect chaos <seed>".to_string())?;
            state.wire = Some(WireSession::new(Some(seed)));
            Ok(format!(
                "wire mode on (chaos seed {seed}): frames are dropped, damaged, \
                 duplicated and reordered; every query still executes exactly once"
            ))
        }
        Some("off") => match state.wire.take() {
            Some(w) => Ok(format!(
                "wire mode off — {} request(s), {} frame(s) sent, {} retry(ies), \
                 {} NACK(s), {} damaged response(s)",
                w.next_id - 1,
                w.frames_sent,
                w.retries,
                w.nacks,
                w.damaged
            )),
            None => Ok("wire mode already off".to_string()),
        },
        Some("status") => {
            let Some(w) = &state.wire else {
                return Err("wire mode is off — `\\connect` first".to_string());
            };
            let (rx, tx) = (w.inbox.stats(), w.outbox.stats());
            let mut out = format!(
                "wire mode: {}, {} request(s), {} frame(s) sent, {} retry(ies), \
                 {} NACK(s), {} damaged response(s)\n",
                match w.chaos_seed {
                    Some(seed) => format!("chaos seed {seed}"),
                    None => "lossless".to_string(),
                },
                w.next_id - 1,
                w.frames_sent,
                w.retries,
                w.nacks,
                w.damaged
            );
            let _ = writeln!(
                out,
                "requests:  {} sent, {} delivered, {} dropped, {} dup, {} reordered, \
                 {} truncated, {} flipped",
                rx.sent,
                rx.delivered,
                rx.dropped,
                rx.duplicated,
                rx.reordered,
                rx.truncated,
                rx.flipped
            );
            let _ = writeln!(
                out,
                "responses: {} sent, {} delivered, {} dropped, {} dup, {} reordered, \
                 {} truncated, {} flipped",
                tx.sent,
                tx.delivered,
                tx.dropped,
                tx.duplicated,
                tx.reordered,
                tx.truncated,
                tx.flipped
            );
            Ok(out)
        }
        Some(other) => Err(format!(
            "usage: \\connect [chaos <seed>]|off|status (got `{other}`)"
        )),
    }
}

fn cmd_schema(state: &ShellState) -> Result<String, String> {
    let db = state.db()?;
    let schema = db.base().schema();
    let mut out = String::new();
    for (id, def) in schema.types() {
        match &def.kind {
            asr_gom::TypeKind::Tuple {
                supertypes,
                attributes,
            } => {
                let sups: Vec<&str> = supertypes.iter().map(|&s| schema.name(s)).collect();
                let attrs: Vec<String> = attributes
                    .iter()
                    .map(|a| format!("{}: {}", a.name, schema.ref_name(a.ty)))
                    .collect();
                let sup_txt = if sups.is_empty() {
                    String::new()
                } else {
                    format!(" supertypes ({})", sups.join(", "))
                };
                let _ = writeln!(
                    out,
                    "type {} is{sup_txt} [{}]   -- {} objects",
                    def.name,
                    attrs.join(", "),
                    db.base().extent(id).len()
                );
            }
            asr_gom::TypeKind::Set { element } => {
                let _ = writeln!(
                    out,
                    "type {} is {{{}}}",
                    def.name,
                    schema.ref_name(*element)
                );
            }
            asr_gom::TypeKind::List { element } => {
                let _ = writeln!(out, "type {} is <{}>", def.name, schema.ref_name(*element));
            }
        }
    }
    for (name, value) in db.base().variables() {
        let _ = writeln!(out, "var {name} = {value}");
    }
    Ok(out)
}

fn parse_decomposition(spec: &str, m: usize) -> Result<Decomposition, String> {
    match spec {
        "binary" | "bi" => Ok(Decomposition::binary(m)),
        "none" | "no" => Ok(Decomposition::none(m)),
        cuts => {
            let cuts: Vec<usize> = cuts
                .trim_matches(|c| c == '(' || c == ')')
                .split(',')
                .map(|c| c.trim().parse().map_err(|_| format!("bad cut `{c}`")))
                .collect::<Result<_, String>>()?;
            Decomposition::new(cuts).map_err(|e| e.to_string())
        }
    }
}

fn cmd_asr(state: &mut ShellState, rest: &str) -> Result<String, String> {
    let parts: Vec<&str> = rest.split_whitespace().collect();
    let [dotted, ext, dec] = parts.as_slice() else {
        return Err(
            "usage: \\asr <Type.A1.A2…> <canonical|full|left|right> <binary|none|0,2,4>"
                .to_string(),
        );
    };
    let open = state.open_mut()?;
    let path =
        PathExpression::parse(open.as_db().base().schema(), dotted).map_err(|e| e.to_string())?;
    let extension = Extension::from_name(ext)
        .ok_or_else(|| format!("unknown extension `{ext}` (canonical, full, left, right)"))?;
    let m = path.arity(false) - 1;
    let decomposition = parse_decomposition(dec, m)?;
    let config = AsrConfig {
        extension,
        decomposition,
        keep_set_oids: false,
    };
    // In WAL mode the creation goes through the durable wrapper so it is
    // logged (and replayed on recovery instead of rebuilt).
    let id = match open {
        OpenDb::Plain(db) => db.create_asr(path, config).map_err(|e| e.to_string())?,
        OpenDb::Durable(d) => d.create_asr_on(dotted, config).map_err(|e| e.to_string())?,
    };
    let asr = open.as_db().asr(id).map_err(|e| e.to_string())?;
    Ok(format!(
        "ASR #{id}: {} {} over {} — {} rows, {} pages",
        asr.config().extension,
        asr.config().decomposition,
        asr.path(),
        asr.total_rows(),
        asr.total_pages()
    ))
}

fn cmd_asrs(state: &ShellState) -> Result<String, String> {
    let db = state.db()?;
    let mut out = String::new();
    let mut any = false;
    for (id, asr) in db.asrs() {
        any = true;
        let _ = writeln!(
            out,
            "#{id}  {:<9} {:<14} {}  ({} rows, {} bytes)",
            asr.config().extension.name(),
            asr.config().decomposition.to_string(),
            asr.path(),
            asr.total_rows(),
            asr.data_bytes()
        );
    }
    if !any {
        out.push_str("no access support relations\n");
    }
    Ok(out)
}

fn cmd_drop(state: &mut ShellState, rest: &str) -> Result<String, String> {
    let id: usize = rest
        .trim()
        .parse()
        .map_err(|_| format!("bad ASR id `{rest}`"))?;
    match state.open_mut()? {
        OpenDb::Plain(db) => db.drop_asr(id).map_err(|e| e.to_string())?,
        OpenDb::Durable(d) => d.drop_asr(id).map_err(|e| e.to_string())?,
    }
    Ok(format!("dropped ASR #{id}"))
}

fn cmd_advise(state: &mut ShellState, rest: &str) -> Result<String, String> {
    let mut parts = rest.split_whitespace();
    let dotted = parts.next().ok_or("usage: \\advise <Type.A1.A2…> [p_up]")?;
    let p_up: Option<f64> = match parts.next() {
        Some(p) => Some(p.parse().map_err(|_| format!("bad p_up `{p}`"))?),
        None => None,
    };
    let db = state.db()?;
    let path = PathExpression::parse(db.base().schema(), dotted).map_err(|e| e.to_string())?;
    let n = path.len();
    // Prefer the session's recorded usage; otherwise synthesize a
    // representative whole-chain pattern at the requested update share.
    let recorded = state.recorder.borrow();
    let (recorder, basis) = if recorded.is_empty() || p_up.is_some() {
        let p_up = p_up.unwrap_or(0.1);
        let mut r = UsageRecorder::new();
        let ops = 1000usize;
        let updates = ((ops as f64) * p_up).round() as usize;
        for _ in 0..(ops - updates) {
            r.record_backward(0, n);
        }
        for _ in 0..updates {
            r.record_insert(n - 1);
        }
        (
            r,
            format!("assumed mix: Q_{{0,{n}}}(bw) with P_up = {p_up}"),
        )
    } else {
        (
            recorded.clone(),
            format!(
                "recorded session usage: {} queries, {} updates (P_up = {:.2})",
                recorded.query_count(),
                recorded.update_count(),
                recorded.p_up()
            ),
        )
    };
    drop(recorded);
    let advice = advise(db, &path, &recorder).map_err(|e| e.to_string())?;
    let mut out = advice.summary(6);
    let _ = writeln!(
        out,
        "{basis}; predicted cost ratio vs no support: {:.3}",
        advice.predicted_improvement(&recorder)
    );
    let _ = writeln!(
        out,
        "materialize with: \\asr {} {} {}",
        dotted,
        advice.best().extension.map(|e| e.name()).unwrap_or("none"),
        advice.best().decomposition
    );
    Ok(out)
}

fn run_query(state: &mut ShellState, text: &str) -> Result<String, String> {
    if state.wire.is_some() {
        return run_query_wire(state, text);
    }
    let db = state.db()?;
    let before = db.stats().accesses();
    let query = oql::parse(text).map_err(|e| e.to_string())?;
    // The executor announces its span usage as `usage.*` trace events,
    // which the subscribed RecorderSink folds into `state.recorder`.
    let result = oql::execute_query(db, &query).map_err(|e| e.to_string())?;
    let cost = db.stats().accesses() - before;
    let mut out = result.to_string();
    let _ = writeln!(out, "({} row(s), {cost} page accesses)", result.rows.len());
    Ok(out)
}

/// A query line while `\connect` is on: frame it, push it through the
/// chaotic loopback session, decode the response table.
fn run_query_wire(state: &mut ShellState, text: &str) -> Result<String, String> {
    let ShellState { db, wire, .. } = state;
    let Some(open) = db.as_mut() else {
        return Err("no database open — try `\\open company`".to_string());
    };
    let wire = wire.as_mut().expect("checked by run_query");
    let mut view = match open {
        OpenDb::Plain(db) => ServerDb::<FsStorage>::Plain(db),
        OpenDb::Durable(d) => ServerDb::Durable(d),
    };
    let sent_before = wire.frames_sent;
    let resp = wire.call(&mut view, RequestBody::Query(text.to_string()))?;
    let attempts = wire.frames_sent - sent_before;
    match resp.body {
        ResponseBody::Table { columns, rows } => {
            let nrows = rows.len();
            let result = oql::ResultSet { columns, rows };
            let mut out = result.to_string();
            let _ = writeln!(
                out,
                "({nrows} row(s) over the wire, {} server page accesses, {attempts} frame(s))",
                resp.io.accesses()
            );
            Ok(out)
        }
        ResponseBody::Err(msg) => Err(msg),
        other => Err(format!("unexpected response `{}`", other.label())),
    }
}

const HELP: &str = r#"commands:
  \open <company|robots>     load a built-in example database
  \load <file|dir> / \save <file>  snapshot persistence; a directory
                             with a MANIFEST is recovered (checkpoint
                             + WAL replay) and stays in WAL mode
  \wal on <dir>|off|status   write-ahead logging for the open database
  \wal group <n> [deadline <ops>]|off  group commit: one fsync per n
                             pending session commits; `deadline` flushes a
                             partial group after that many logged ops
  \wal rotate|prune          seal the active log / drop archived history
                             fully covered by the newest checkpoint
  \txn status                MVCC epochs: commit epoch, snapshot pins,
                             reclamation progress
  \checkpoint                flush and checkpoint: a delta of the pages
                             and objects changed since the last checkpoint,
                             or a full one after a design change or at the
                             chain limit; nothing when nothing was logged
  \recover <lsn>             point-in-time recovery: rebuild the state as
                             of that LSN (in-memory; directory untouched)
  \replica on|off|sync|status  in-process warm standby via log shipping;
                             status shows lag in LSNs and modeled pages
  \schema                    show types, extents and variables
  \asr <path> <ext> <dec>    materialize an access support relation
                             ext: canonical|full|left|right
                             dec: binary | none | 0,2,4
  \asrs                      list access support relations
  \drop <id>                 drop an access support relation
  \explain <query>           show the evaluation plan
  \analyze <query>           run it: per-operator I/O vs cost-model prediction
  \advise <path> [p_up]      physical-design advisor (default p_up 0.1)
  \stats / \reset            page-access counters, per structure
  \trace on|off|show         buffer finished trace spans, dump as JSONL
  \flightrec status|dump|tail <n>  the always-on bounded event recorder:
                             recent spans/events as summaries or JSONL
  \serve <addr:port>         serve the open database over TCP (blocks
                             until a client sends Shutdown)
  \connect [chaos <seed>]    loopback wire mode: queries go through an
                             in-process server session; `chaos` injects
                             frame damage (CRC-caught, retried, never
                             mis-executed).  \connect off|status
  \quit
anything else is executed as a query:
  select d.Name from d in Mercedes, b in d.Manufactures.Composition
  where b.Name = "Door""#;

#[cfg(test)]
mod tests {
    use super::*;

    fn run(state: &mut ShellState, lines: &[&str]) -> Vec<String> {
        lines.iter().map(|l| run_line(state, l)).collect()
    }

    #[test]
    fn full_session() {
        let mut s = ShellState::new();
        let out = run(&mut s, &[
            "\\open company",
            "\\schema",
            "\\asr Division.Manufactures.Composition.Name full binary",
            "\\asrs",
            r#"select d.Name from d in Mercedes, b in d.Manufactures.Composition where b.Name = "Door""#,
            "\\explain select d.Name from d in Division where d.Manufactures.Composition.Name = \"Door\"",
            "\\stats",
            "\\reset",
            "\\drop 0",
            "\\asrs",
            "\\quit",
        ]);
        assert!(out[0].contains("opened"));
        assert!(out[1].contains("type Division is"));
        assert!(out[1].contains("var Mercedes"));
        assert!(out[2].contains("ASR #0: full (0,1,2,3)"));
        assert!(out[3].contains("#0"));
        assert!(out[4].contains("\"Auto\"") && out[4].contains("\"Truck\""));
        assert!(out[4].contains("page accesses"));
        assert!(out[5].contains("backward span query through ASR"));
        assert!(out[6].contains("page accesses:"));
        assert!(out[8].contains("dropped"));
        assert!(out[9].contains("no access support relations"));
        assert!(s.done);
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = ShellState::new();
        assert!(run_line(&mut s, "select x from x in Y").starts_with("error:"));
        assert!(run_line(&mut s, "\\bogus").contains("unknown command"));
        run_line(&mut s, "\\open company");
        assert!(run_line(&mut s, "\\asr Nope.x full binary").starts_with("error:"));
        assert!(run_line(&mut s, "\\asr Division.Manufactures full").starts_with("error:"));
        assert!(run_line(&mut s, "\\drop 99").starts_with("error:"));
        assert!(run_line(&mut s, "select nonsense").starts_with("error:"));
        assert!(run_line(&mut s, "\\open nowhere").starts_with("error:"));
        assert!(!s.done);
    }

    #[test]
    fn advise_command() {
        let mut s = ShellState::new();
        run_line(&mut s, "\\open company");
        let out = run_line(
            &mut s,
            "\\advise Division.Manufactures.Composition.Name 0.2",
        );
        assert!(out.contains("advice for"), "{out}");
        assert!(out.contains("assumed mix"), "{out}");
        assert!(out.contains("materialize with:"), "{out}");
        assert!(run_line(
            &mut s,
            "\\advise Division.Manufactures.Composition.Name oops"
        )
        .starts_with("error:"));
    }

    #[test]
    fn advise_uses_recorded_session_usage() {
        let mut s = ShellState::new();
        run_line(&mut s, "\\open company");
        // Execute real queries: their spans are recorded.
        let q =
            r#"select d.Name from d in Division where d.Manufactures.Composition.Name = "Door""#;
        run_line(&mut s, q);
        run_line(&mut s, q);
        // Each execution records the predicate span (backward) and the
        // d.Name projection (forward) — via the trace-stream subscription,
        // not an explicit recorder call.
        assert_eq!(s.recorder.borrow().query_count(), 4);
        let out = run_line(&mut s, "\\advise Division.Manufactures.Composition.Name");
        assert!(out.contains("recorded session usage: 4 queries"), "{out}");
        // An explicit p_up overrides the recording.
        let out = run_line(
            &mut s,
            "\\advise Division.Manufactures.Composition.Name 0.5",
        );
        assert!(out.contains("assumed mix"), "{out}");
    }

    #[test]
    fn save_load_through_shell() {
        let mut s = ShellState::new();
        run_line(&mut s, "\\open robots");
        run_line(
            &mut s,
            "\\asr ROBOT.Arm.MountedTool.ManufacturedBy.Location canonical none",
        );
        let file = std::env::temp_dir().join("asrdb_shell_test.snap");
        let file_str = file.to_str().unwrap().to_string();
        assert!(run_line(&mut s, &format!("\\save {file_str}")).contains("saved"));
        let mut s2 = ShellState::new();
        let out = run_line(&mut s2, &format!("\\load {file_str}"));
        assert!(out.contains("1 access relations"), "{out}");
        let version = format!("(snapshot v{})", asr_core::persist::FORMAT_VERSION);
        assert!(out.contains(&version), "{out}");
        assert!(out.contains("asr 0: physical"), "{out}");
        let q = run_line(
            &mut s2,
            r#"select r.Name from r in OurRobots where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia""#,
        );
        assert!(q.contains("3 row(s)"), "{q}");
        std::fs::remove_file(file).ok();
    }

    #[test]
    fn wal_mode_logs_recovers_and_detaches() {
        let dir = std::env::temp_dir().join("asrdb_shell_wal_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_str().unwrap().to_string();
        let mut s = ShellState::new();
        run_line(&mut s, "\\open company");
        // Durability commands demand WAL mode.
        assert!(run_line(&mut s, "\\wal status").starts_with("error:"));
        assert!(run_line(&mut s, "\\checkpoint").starts_with("error:"));
        assert!(run_line(&mut s, "\\wal sideways").starts_with("error:"));
        let on = run_line(&mut s, &format!("\\wal on {dir_str}"));
        assert!(on.contains("WAL on"), "{on}");
        assert!(on.contains("initial checkpoint"), "{on}");
        // The ASR creation is logged, not just applied.
        let out = run_line(
            &mut s,
            "\\asr Division.Manufactures.Composition.Name full binary",
        );
        assert!(out.contains("ASR #0"), "{out}");
        let st = run_line(&mut s, "\\wal status");
        assert!(st.contains("policy every-record"), "{st}");
        assert!(st.contains("last LSN 1, checkpoint LSN 0"), "{st}");
        let stats = run_line(&mut s, "\\stats");
        assert!(stats.contains("wal.records"), "{stats}");
        assert!(stats.contains("wal.log"), "{stats}");

        // "Crash" (drop the session without a checkpoint); recovery
        // replays the logged creation instead of silently rebuilding.
        drop(s);
        let mut s2 = ShellState::new();
        let out = run_line(&mut s2, &format!("\\load {dir_str}"));
        assert!(out.contains("recovered"), "{out}");
        assert!(out.contains("1 record(s) replayed"), "{out}");
        assert!(out.contains("1 access relations"), "{out}");
        assert!(out.contains("(WAL on)"), "{out}");
        let q = run_line(
            &mut s2,
            r#"select d.Name from d in Mercedes, b in d.Manufactures.Composition where b.Name = "Door""#,
        );
        assert!(q.contains("\"Auto\""), "{q}");
        let st = run_line(&mut s2, "\\wal status");
        assert!(st.contains("last recovery: 1 record(s) replayed"), "{st}");

        // Checkpoint, then detach; the session keeps running in memory.
        assert!(run_line(&mut s2, "\\checkpoint").contains("checkpoint written at LSN 1"));
        let off = run_line(&mut s2, "\\wal off");
        assert!(off.contains("WAL off"), "{off}");
        assert!(run_line(&mut s2, "\\asrs").contains("#0"));
        assert!(run_line(&mut s2, "\\wal status").starts_with("error:"));

        // Reloading the checkpointed directory restores the ASR from its
        // page images (the checkpoint's ASR sections), not by re-joining.
        let mut s4 = ShellState::new();
        let out = run_line(&mut s4, &format!("\\load {dir_str}"));
        assert!(out.contains("0 record(s) replayed"), "{out}");
        assert!(out.contains("asr 0: physical"), "{out}");
        drop(s4);

        // Enabling WAL into a directory that already holds a durable
        // database is refused (the database would be lost) — `\load` it.
        let mut s3 = ShellState::new();
        run_line(&mut s3, "\\open company");
        let err = run_line(&mut s3, &format!("\\wal on {dir_str}"));
        assert!(err.starts_with("error:"), "{err}");
        assert!(err.contains("\\load"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn txn_status_and_group_commit_through_shell() {
        let mut s = ShellState::new();
        assert!(run_line(&mut s, "\\txn status").starts_with("error:"));
        run_line(&mut s, "\\open company");
        // `\txn` works on a plain in-memory database too.
        let t = run_line(&mut s, "\\txn status");
        assert!(t.contains("commit epoch 0"), "{t}");
        assert!(t.contains("0 active snapshot(s)"), "{t}");
        assert!(t.contains("oldest pinned epoch none"), "{t}");
        assert!(run_line(&mut s, "\\txn sideways").starts_with("error:"));

        // Group commit demands WAL mode.
        assert!(run_line(&mut s, "\\wal group 4").starts_with("error:"));
        let dir = std::env::temp_dir().join("asrdb_shell_group_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_str().unwrap().to_string();
        run_line(&mut s, &format!("\\wal on {dir_str}"));
        assert!(run_line(&mut s, "\\wal group").starts_with("error:"));
        assert!(run_line(&mut s, "\\wal group sideways").starts_with("error:"));
        let on = run_line(&mut s, "\\wal group 4");
        assert!(on.contains("group commit on"), "{on}");
        let st = run_line(&mut s, "\\wal status");
        assert!(st.contains("policy explicit"), "{st}");
        assert!(st.contains("group commit: target 4 session(s)"), "{st}");

        // A logged mutation parks in the open group ...
        run_line(
            &mut s,
            "\\asr Division.Manufactures.Composition.Name full binary",
        );
        let st = run_line(&mut s, "\\wal status");
        assert!(st.contains("1 pending record(s)"), "{st}");

        // ... and `\wal group off` flushes it and restores the policy.
        let off = run_line(&mut s, "\\wal group off");
        assert!(off.contains("group commit off"), "{off}");
        let st = run_line(&mut s, "\\wal status");
        assert!(st.contains("policy every-record"), "{st}");
        assert!(st.contains("0 pending record(s)"), "{st}");
        assert!(!st.contains("group commit: target"), "{st}");

        // With an op-count deadline the pipeline flushes a partial group
        // on its own: the lone logged mutation never waits for 3 peers.
        assert!(run_line(&mut s, "\\wal group 4 sideways").starts_with("error:"));
        assert!(run_line(&mut s, "\\wal group 4 deadline").starts_with("error:"));
        let on = run_line(&mut s, "\\wal group 4 deadline 1");
        assert!(on.contains("after 1 logged op(s)"), "{on}");
        run_line(&mut s, "\\drop 0");
        let st = run_line(&mut s, "\\wal status");
        assert!(st.contains("deadline 1 op(s)"), "{st}");
        assert!(st.contains("deadline flush(es)"), "{st}");
        assert!(st.contains("0 pending record(s)"), "{st}");
        run_line(&mut s, "\\wal group off");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_replica_and_prune_through_shell() {
        let dir = std::env::temp_dir().join("asrdb_shell_pitr_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_str().unwrap().to_string();
        let mut s = ShellState::new();
        run_line(&mut s, "\\open company");
        // PITR and replication demand WAL mode.
        assert!(run_line(&mut s, "\\recover 0").starts_with("error:"));
        assert!(run_line(&mut s, "\\replica on").starts_with("error:"));
        run_line(&mut s, &format!("\\wal on {dir_str}"));

        // LSN 1: create an ASR.  LSN 2 would be the next mutation.
        run_line(
            &mut s,
            "\\asr Division.Manufactures.Composition.Name full binary",
        );
        let st = run_line(&mut s, "\\wal status");
        assert!(st.contains("segments: 0 sealed"), "{st}");
        assert!(st.contains("oldest needed LSN 1"), "{st}");
        assert!(st.contains("PITR floor LSN 0"), "{st}");

        // Replica: seed it, verify it matches the primary byte for byte.
        assert!(run_line(&mut s, "\\replica status").starts_with("error:"));
        assert!(run_line(&mut s, "\\replica on").contains("replica on"));
        let status = run_line(&mut s, "\\replica status");
        assert!(status.contains("empty (never seeded)"), "{status}");
        assert!(
            status.contains("applied LSN 0 of 1 (lag 1 LSN(s)"),
            "{status}"
        );
        let sync = run_line(&mut s, "\\replica sync");
        assert!(sync.contains("caught up to LSN 1"), "{sync}");
        let status = run_line(&mut s, "\\replica status");
        assert!(
            status.contains("bootstrapped, applied LSN 1 of 1"),
            "{status}"
        );
        assert!(status.contains("lag 0 LSN(s), ~0 page(s)"), "{status}");
        assert!(run_line(&mut s, "\\replica sideways").starts_with("error:"));

        // Rotate + checkpoint + prune: segment lifecycle over the shell.
        let rot = run_line(&mut s, "\\wal rotate");
        assert!(
            rot.contains("sealed segment 1 covering LSNs 1..=1"),
            "{rot}"
        );
        assert!(run_line(&mut s, "\\wal rotate").contains("nothing to seal"));
        run_line(&mut s, "\\checkpoint");
        let pruned = run_line(&mut s, "\\wal prune");
        assert!(pruned.contains("pruned 1 segment(s)"), "{pruned}");
        assert!(pruned.contains("PITR floor is now LSN 1"), "{pruned}");
        assert!(run_line(&mut s, "\\wal prune").contains("nothing to prune"));

        // PITR below the floor is refused loudly; at the floor it works
        // and installs an in-memory as-of view.
        assert!(
            run_line(&mut s, "\\recover 0").contains("point-in-time recovery unavailable"),
            "pruned bound must be refused"
        );
        assert!(run_line(&mut s, "\\recover oops").starts_with("error:"));
        let rec = run_line(&mut s, "\\recover 1");
        assert!(rec.contains("recovered as of LSN 1"), "{rec}");
        assert!(rec.contains("1 access relations"), "{rec}");
        assert!(rec.contains("in-memory as-of view"), "{rec}");
        // The as-of view is plain: durable commands are gone until \load.
        assert!(run_line(&mut s, "\\wal status").starts_with("error:"));
        assert!(run_line(&mut s, "\\asrs").contains("#0"));
        let out = run_line(&mut s, &format!("\\load {dir_str}"));
        assert!(out.contains("recovered"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_checkpoints_through_shell() {
        let dir = std::env::temp_dir().join("asrdb_shell_delta_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let dir_str = dir.to_str().unwrap().to_string();
        let mut s = ShellState::new();
        run_line(&mut s, "\\open company");
        run_line(&mut s, &format!("\\wal on {dir_str}"));
        run_line(
            &mut s,
            "\\asr Division.Manufactures.Composition.Name full binary",
        );

        // The ASR creation dirtied the design: the checkpoint is a full
        // one, labeled as such.
        let full = run_line(&mut s, "\\checkpoint");
        assert!(
            full.contains("checkpoint written at LSN 1 (full)"),
            "{full}"
        );
        let st = run_line(&mut s, "\\wal status");
        assert!(st.contains("checkpoint lineage: full"), "{st}");

        // Nothing logged since: a checkpoint now is a no-op, not a
        // same-LSN self-overwrite.
        let noop = run_line(&mut s, "\\checkpoint");
        assert!(noop.contains("nothing logged since LSN 1"), "{noop}");

        // A plain object mutation later (no shell command mutates
        // objects, so reach through the session handle), the checkpoint
        // is a delta and the lineage line reports the pages saved.
        match s.db.as_mut().expect("session open") {
            OpenDb::Durable(d) => {
                d.instantiate("BasePart").expect("logged instantiate");
            }
            OpenDb::Plain(_) => panic!("session must be durable here"),
        }
        let delta = run_line(&mut s, "\\checkpoint");
        assert!(delta.contains("checkpoint written at LSN 2"), "{delta}");
        assert!(
            delta.contains("(delta on base LSN 1, chain depth 1)"),
            "{delta}"
        );
        let st = run_line(&mut s, "\\wal status");
        assert!(
            st.contains("checkpoint lineage: delta on base LSN 1, chain depth 1"),
            "{st}"
        );
        assert!(st.contains("last write"), "{st}");
        assert!(st.contains("saved)"), "{st}");

        assert!(run_line(&mut s, "\\checkpoint delta").starts_with("error:"));

        // Recovery through the delta chain round-trips the session.
        let mut s2 = ShellState::new();
        let out = run_line(&mut s2, &format!("\\load {dir_str}"));
        assert!(out.contains("recovered"), "{out}");
        assert!(run_line(&mut s2, "\\asrs").contains("#0"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replica_off_and_usage_errors() {
        let mut s = ShellState::new();
        run_line(&mut s, "\\open company");
        assert!(run_line(&mut s, "\\replica sync").starts_with("error:"));
        assert_eq!(run_line(&mut s, "\\replica off"), "replica already off");
    }

    #[test]
    fn analyze_command() {
        let mut s = ShellState::new();
        run_line(&mut s, "\\open company");
        run_line(
            &mut s,
            "\\asr Division.Manufactures.Composition.Name full binary",
        );
        let out = run_line(
            &mut s,
            "\\analyze select d.Name from d in Division where d.Manufactures.Composition.Name = \"Door\"",
        );
        assert!(out.contains("\"Auto\""), "{out}");
        assert!(out.contains("measured:"), "{out}");
        assert!(out.contains("predicted"), "{out}");
        assert!(out.contains("ASR #0"), "{out}");
        assert!(run_line(&mut s, "\\analyze select nonsense").starts_with("error:"));
    }

    #[test]
    fn stats_breakdown_per_structure() {
        let mut s = ShellState::new();
        run_line(&mut s, "\\open company");
        run_line(
            &mut s,
            "\\asr Division.Manufactures.Composition.Name full binary",
        );
        run_line(
            &mut s,
            r#"select d.Name from d in Division where d.Manufactures.Composition.Name = "Door""#,
        );
        let out = run_line(&mut s, "\\stats");
        assert!(out.contains("reads"), "{out}");
        assert!(out.contains("% hit rate"), "{out}");
        assert!(out.contains("objects.Division"), "{out}");
        assert!(out.contains("btree"), "{out}");
    }

    #[test]
    fn trace_ring_captures_spans() {
        let mut s = ShellState::new();
        // Turning tracing on before any database is open still works: the
        // ring attaches when the database arrives.
        assert!(run_line(&mut s, "\\trace on").contains("tracing on"));
        run_line(&mut s, "\\open company");
        run_line(&mut s, r#"select d.Name from d in Mercedes"#);
        let shown = run_line(&mut s, "\\trace show");
        assert!(shown.contains("\"oql.query\""), "{shown}");
        assert!(shown.contains("\"usage.forward\""), "{shown}");
        // Drained: a second show starts empty.
        assert_eq!(run_line(&mut s, "\\trace show"), "trace buffer empty");
        assert!(run_line(&mut s, "\\trace off").contains("tracing off"));
        // Detached: new queries no longer buffer anywhere.
        assert!(run_line(&mut s, "\\trace show").starts_with("error:"));
        assert!(run_line(&mut s, "\\trace sideways").starts_with("error:"));
    }

    #[test]
    fn flightrec_records_query_spans() {
        let mut s = ShellState::new();
        assert!(run_line(&mut s, "\\flightrec status").starts_with("error: no database"));
        run_line(&mut s, "\\open company");
        run_line(&mut s, r#"select d.Name from d in Mercedes"#);
        let status = run_line(&mut s, "\\flightrec status");
        assert!(status.contains("flight recorder:"), "{status}");
        assert!(!status.contains(" 0 recorded"), "{status}");
        let tail = run_line(&mut s, "\\flightrec tail 5");
        assert!(tail.contains("oql.query"), "{tail}");
        let dump = run_line(&mut s, "\\flightrec dump");
        assert!(dump.contains("\"seq\":"), "{dump}");
        assert!(run_line(&mut s, "\\flightrec sideways").starts_with("error:"));
    }

    #[test]
    fn help_and_blank_lines() {
        let mut s = ShellState::new();
        assert!(run_line(&mut s, "\\help").contains("\\asr"));
        assert_eq!(run_line(&mut s, "   "), "");
        assert!(run_line(&mut s, "\\stats").starts_with("error: no database"));
    }

    #[test]
    fn wire_mode_routes_queries_exactly_once() {
        let query =
            r#"select d.Name from d in Division where d.Manufactures.Composition.Name = "Door""#;
        let mut s = ShellState::new();
        assert!(run_line(&mut s, "\\connect").starts_with("error: no database"));
        run_line(&mut s, "\\open company");
        run_line(
            &mut s,
            "\\asr Division.Manufactures.Composition.Name full binary",
        );
        let direct = run_line(&mut s, query);

        // Lossless loopback first: same rows, wire-annotated trailer.
        assert!(run_line(&mut s, "\\connect").contains("wire mode on"));
        let wired = run_line(&mut s, query);
        assert!(wired.contains("Auto"), "{wired}");
        assert!(wired.contains("over the wire"), "{wired}");
        assert_eq!(
            wired.lines().next(),
            direct.lines().next(),
            "wire rows must match direct execution"
        );
        let off = run_line(&mut s, "\\connect off");
        assert!(off.contains("wire mode off"), "{off}");
        assert!(off.contains("1 request(s)"), "{off}");

        // Chaotic loopback: still the right rows, damage paid in retries.
        assert!(run_line(&mut s, "\\connect chaos 7").contains("chaos seed 7"));
        for _ in 0..6 {
            let wired = run_line(&mut s, query);
            assert!(wired.contains("Auto"), "{wired}");
        }
        let status = run_line(&mut s, "\\connect status");
        assert!(status.contains("chaos seed 7"), "{status}");
        assert!(status.contains("6 request(s)"), "{status}");
        // A server error stays a request error, not a broken session.
        assert!(run_line(&mut s, "select nonsense").starts_with("error:"));
        assert!(run_line(&mut s, query).contains("Auto"));
        run_line(&mut s, "\\connect off");
        assert!(run_line(&mut s, "\\connect off").contains("already off"));
        assert!(run_line(&mut s, "\\connect status").starts_with("error:"));
        assert!(run_line(&mut s, "\\connect sideways").starts_with("error:"));
    }

    #[test]
    fn serve_answers_a_tcp_client_until_shutdown() {
        // A fixed state inside the serving thread (Database is not Send);
        // only the port crosses over.
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe binds");
            let port = probe.local_addr().expect("addr").port();
            drop(probe);
            let mut s = ShellState::new();
            assert!(run_line(&mut s, "\\serve 127.0.0.1:0").starts_with("error: no database"));
            run_line(&mut s, "\\open company");
            assert!(run_line(&mut s, "\\serve").starts_with("error: usage"));
            addr_tx.send(port).expect("port crosses");
            run_line(&mut s, &format!("\\serve 127.0.0.1:{port}"))
        });
        let port = addr_rx.recv().expect("server thread reports its port");
        let addr = format!("127.0.0.1:{port}").parse().expect("addr parses");
        // The probe listener just closed; retry briefly while the serve
        // command rebinds.
        let mut transport = None;
        for _ in 0..100 {
            match asr_server::TcpTransport::connect(&addr) {
                Ok(t) => {
                    transport = Some(t);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        let mut client = asr_net::WireClient::new(transport.expect("connects"));
        let resp = client
            .call(RequestBody::Query(
                "select d.Name from d in Division".to_string(),
            ))
            .expect("query");
        assert!(matches!(resp.body, ResponseBody::Table { ref rows, .. } if rows.len() == 3));
        client.call(RequestBody::Shutdown).expect("shutdown");
        let summary = handle.join().expect("server thread exits");
        assert!(summary.contains("served 127.0.0.1"), "{summary}");
        assert!(summary.contains("2 request(s) executed"), "{summary}");
    }
}
