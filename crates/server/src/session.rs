//! The multi-client session multiplexer.
//!
//! [`NetServer`] owns no database and no channels — the host (shell,
//! TCP loop, tests) hands it a [`ServerDb`] view and the session's
//! receive/send channels each pump.  What it does own is the per-session
//! exactly-once state: the highest executed request id and the encoded
//! response it produced.  The rules, in request-id space:
//!
//! * `id == last_executed` — a duplicate of the request just served
//!   (response lost or the frame duplicated): **replay** the cached
//!   response, executing nothing.
//! * `id < last_executed` — a stale straggler the client has moved past:
//!   drop it.
//! * `id > last_executed` — fresh: execute, cache, respond.
//!
//! A delivery that fails [`asr_net::decode_frame`] (truncated, bit-flipped,
//! or not a request at all) is answered with a NACK carrying
//! `last_executed`, so the client re-sends — damage delays a request but
//! can never mis-execute it.

use asr_durable::{Channel, Storage};
use asr_net::{decode_frame, Request, RequestBody, Response, ResponseBody, WireMessage};
use asr_obs::Tracer;
use asr_pagesim::IoSnapshot;

use crate::exec::{self, ServerDb};

/// Histogram bounds for per-request (and per-batch) page counts.
const PAGE_BOUNDS: [f64; 6] = [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0];

/// Per-session exactly-once state.
#[derive(Debug, Default)]
struct SessionState {
    last_executed: u64,
    cached: Option<Vec<u8>>,
    closed: bool,
}

/// What one pump pass did (for tests and status lines).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Fresh requests executed.
    pub executed: u64,
    /// Duplicate requests answered from the response cache.
    pub replayed: u64,
    /// Damaged deliveries NACKed.
    pub nacked: u64,
    /// Stale deliveries dropped.
    pub dropped_stale: u64,
}

/// The serving front: session table + exactly-once bookkeeping.
#[derive(Debug, Default)]
pub struct NetServer {
    sessions: Vec<SessionState>,
    requests_executed: u64,
}

impl NetServer {
    /// A server with no sessions yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a session; the returned id indexes every later pump.
    pub fn open_session(&mut self) -> usize {
        self.sessions.push(SessionState::default());
        self.sessions.len() - 1
    }

    /// Number of sessions ever opened.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Is the session still serving (a handled `Shutdown` closes it)?
    pub fn session_open(&self, sid: usize) -> bool {
        self.sessions.get(sid).is_some_and(|s| !s.closed)
    }

    /// Total fresh requests executed across all sessions.
    pub fn requests_executed(&self) -> u64 {
        self.requests_executed
    }

    /// Settle a decoded request against the session's exactly-once
    /// state: closed sessions refuse, duplicates replay the cache, stale
    /// ids drop.  Returns the request only when it is fresh and must
    /// execute *now* — callers that defer execution must re-admit at
    /// execution time.
    fn admit(
        &mut self,
        sid: usize,
        req: Request,
        tracer: &Tracer,
        tx: &mut dyn Channel,
        report: &mut PumpReport,
    ) -> Option<Request> {
        let metrics = tracer.metrics();
        let sess = self.sessions.get_mut(sid)?;
        if sess.closed {
            tx.send(
                Response {
                    id: req.id,
                    body: ResponseBody::Err("session closed".to_string()),
                    io: IoSnapshot::default(),
                }
                .encode(),
            );
            return None;
        }
        if req.id == sess.last_executed {
            if let Some(frame) = &sess.cached {
                report.replayed += 1;
                metrics.inc_counter("server.replays", 1);
                tx.send(frame.clone());
            }
            return None;
        }
        if req.id < sess.last_executed {
            report.dropped_stale += 1;
            metrics.inc_counter("server.stale_dropped", 1);
            return None;
        }
        Some(req)
    }

    /// Decode one delivery and [`admit`](Self::admit) it: damaged frames
    /// NACK with the resume point, everything else settles against the
    /// exactly-once state.
    fn triage(
        &mut self,
        sid: usize,
        delivery: &[u8],
        tracer: &Tracer,
        tx: &mut dyn Channel,
        report: &mut PumpReport,
    ) -> Option<Request> {
        let req = match decode_frame(delivery) {
            Some(WireMessage::Request(req)) => req,
            _ => {
                // Damaged (or cross-wired) frame: NACK with the resume
                // point.  The id is unreadable, so the NACK carries 0.
                let last = self.sessions.get(sid).map_or(0, |s| s.last_executed);
                report.nacked += 1;
                tracer.metrics().inc_counter("server.nacks", 1);
                tracer.event(
                    "server.nack",
                    &[("session", sid.to_string()), ("last", last.to_string())],
                );
                tx.send(
                    Response {
                        id: 0,
                        body: ResponseBody::Nack {
                            last_executed: last,
                        },
                        io: IoSnapshot::default(),
                    }
                    .encode(),
                );
                return None;
            }
        };
        self.admit(sid, req, tracer, tx, report)
    }

    /// Exactly-once bookkeeping for a fresh request whose outcome is
    /// already computed: stamp, cache, count, respond.  Shared by the
    /// serial execution path and the snapshot worker pool.
    #[allow(clippy::too_many_arguments)]
    fn finish_fresh(
        &mut self,
        sid: usize,
        tracer: &Tracer,
        req_id: u64,
        label: &str,
        shutdown: bool,
        outcome: Result<ResponseBody, String>,
        io: IoSnapshot,
        from_snapshot: bool,
        tx: &mut dyn Channel,
        report: &mut PumpReport,
    ) {
        let metrics = tracer.metrics();
        let body = outcome.unwrap_or_else(|msg| {
            metrics.inc_counter("server.errors", 1);
            ResponseBody::Err(msg)
        });
        let frame = Response {
            id: req_id,
            body,
            io,
        }
        .encode();
        let sess = self
            .sessions
            .get_mut(sid)
            .expect("session existed before execute");
        sess.last_executed = req_id;
        sess.cached = Some(frame.clone());
        if shutdown {
            sess.closed = true;
            tracer.event("server.session_close", &[("session", sid.to_string())]);
        }
        self.requests_executed += 1;
        report.executed += 1;
        metrics.inc_counter("server.requests", 1);
        metrics.inc_counter(&format!("server.requests.{label}"), 1);
        if from_snapshot {
            metrics.inc_counter("server.snapshot.reads", 1);
        }
        metrics.observe("server.request.pages", &PAGE_BOUNDS, io.accesses() as f64);
        tx.send(frame);
    }

    /// Execute one fresh request against the live database and respond.
    fn respond_fresh<S: Storage>(
        &mut self,
        sid: usize,
        db: &mut ServerDb<'_, S>,
        req: Request,
        tx: &mut dyn Channel,
        report: &mut PumpReport,
    ) {
        let tracer = db.db().tracer().clone();
        let shutdown = matches!(req.body, RequestBody::Shutdown);
        let before = db.db().stats().snapshot();
        let outcome = exec::execute(db, &req.body);
        let after = db.db().stats().snapshot();
        let io = IoSnapshot {
            reads: after.reads - before.reads,
            writes: after.writes - before.writes,
            buffer_hits: after.buffer_hits - before.buffer_hits,
            batch_probes: after.batch_probes - before.batch_probes,
            batch_pages_saved: after.batch_pages_saved - before.batch_pages_saved,
        };
        self.finish_fresh(
            sid,
            &tracer,
            req.id,
            req.body.label(),
            shutdown,
            outcome,
            io,
            false,
            tx,
            report,
        );
    }

    /// Drain `rx`, executing fresh requests against `db` and pushing every
    /// response onto `tx`.
    pub fn pump_session<S: Storage>(
        &mut self,
        sid: usize,
        db: &mut ServerDb<'_, S>,
        rx: &mut dyn Channel,
        tx: &mut dyn Channel,
    ) -> PumpReport {
        let tracer = db.db().tracer().clone();
        let mut report = PumpReport::default();
        while let Some(delivery) = rx.recv() {
            let Some(req) = self.triage(sid, &delivery, &tracer, tx, &mut report) else {
                continue;
            };
            self.respond_fresh(sid, db, req, tx, &mut report);
        }
        report
    }

    /// Pump many sessions in one pass, executing each session's leading
    /// run of snapshot-eligible reads **concurrently** on a pool of
    /// `workers` OS threads against a single pinned
    /// [`Snapshot`](asr_core::Snapshot), then the remaining requests
    /// (mutations, plans, durable control) serially in arrival order.
    ///
    /// Per-session ordering is exactly what serial execution would give:
    /// a session's concurrent reads all precede its first non-read, so
    /// they observe the commit epoch in force when the session's turn
    /// began, and the exactly-once cache is maintained in intake order
    /// by the serial completion phase.  Cross-session interleaving
    /// carries no ordering guarantee in either pump, so answering every
    /// read at one pinned epoch is indistinguishable from some serial
    /// schedule.
    pub fn pump_sessions_parallel<S: Storage>(
        &mut self,
        db: &mut ServerDb<'_, S>,
        sessions: &mut [(usize, &mut dyn Channel, &mut dyn Channel)],
        workers: usize,
    ) -> PumpReport {
        let tracer = db.db().tracer().clone();
        let mut report = PumpReport::default();
        // Phase 1 — serial intake: triage every delivery (damage,
        // duplicates and staleness settle immediately); fresh requests
        // split into the concurrent read prefix and the serial tail.
        let mut reads: Vec<(usize, Request)> = Vec::new();
        let mut tail: Vec<(usize, Request)> = Vec::new();
        for (slot, (sid, rx, tx)) in sessions.iter_mut().enumerate() {
            let mut in_tail = false;
            // Highest id already admitted from this drain.  A repeat at
            // or below it (a duplicated or reordered frame) must NOT be
            // admitted again — it goes to the tail, where re-admission
            // at execution time replays or drops it exactly as the
            // serial pump would.  Without this, an in-batch duplicate
            // would execute twice.
            let mut admitted: Option<u64> = None;
            while let Some(delivery) = rx.recv() {
                let Some(req) = self.triage(*sid, &delivery, &tracer, *tx, &mut report) else {
                    continue;
                };
                if admitted.is_some_and(|high| req.id <= high) {
                    tail.push((slot, req));
                    continue;
                }
                admitted = Some(req.id);
                if !in_tail && exec::is_snapshot_read(&req.body) {
                    reads.push((slot, req));
                } else {
                    in_tail = true;
                    tail.push((slot, req));
                }
            }
        }

        // Phase 2 — the worker pool: one snapshot pin serves every read.
        // Workers pull indices off a shared cursor; results are slotted
        // back by index so completion order never leaks into responses.
        let mut outcomes: Vec<Option<Result<ResponseBody, String>>> = Vec::new();
        if !reads.is_empty() {
            let snap = db.snapshot();
            outcomes.resize_with(reads.len(), || None);
            let pool = workers.clamp(1, reads.len());
            let next = std::sync::atomic::AtomicUsize::new(0);
            let done: Vec<(usize, Result<ResponseBody, String>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..pool)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                if i >= reads.len() {
                                    break local;
                                }
                                let outcome = exec::execute_snapshot(&snap, &reads[i].1.body)
                                    .expect("phase 1 admits only snapshot reads");
                                local.push((i, outcome));
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("snapshot reader panicked"))
                    .collect()
            });
            for (i, outcome) in done {
                outcomes[i] = Some(outcome);
            }
            let metrics = tracer.metrics();
            metrics.inc_counter("server.snapshot.batches", 1);
            metrics.set_gauge("server.snapshot.epoch", snap.epoch() as f64);
            metrics.observe(
                "server.snapshot.batch_pages",
                &PAGE_BOUNDS,
                snap.pages_read() as f64,
            );
        }

        // Phase 3 — serial completion: stamp, cache and send every read
        // response in intake order (page I/O is metered per batch, not
        // per request — the envelope carries zero), then run the tail.
        for ((slot, req), outcome) in reads.into_iter().zip(outcomes) {
            let outcome = outcome.expect("every admitted read executed");
            let label = req.body.label();
            let (sid, _, tx) = &mut sessions[slot];
            let sid = *sid;
            self.finish_fresh(
                sid,
                &tracer,
                req.id,
                label,
                false,
                outcome,
                IoSnapshot::default(),
                true,
                &mut **tx,
                &mut report,
            );
        }
        for (slot, req) in tail {
            let (sid, _, tx) = &mut sessions[slot];
            let sid = *sid;
            // Re-admit against the state as of *execution* time: a
            // Shutdown earlier in this tail may have closed the session,
            // and deferred duplicates must replay or drop, not re-run.
            let Some(req) = self.admit(sid, req, &tracer, &mut **tx, &mut report) else {
                continue;
            };
            self.respond_fresh(sid, db, req, &mut **tx, &mut report);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use asr_core::Database;
    use asr_durable::{LosslessChannel, MemStorage};
    use asr_net::Request;

    use super::*;

    fn tiny_db() -> Database {
        asr_workload::company_database().db
    }

    fn plain<'a>(db: &'a mut Database) -> ServerDb<'a, MemStorage> {
        ServerDb::Plain(db)
    }

    fn send_req(ch: &mut LosslessChannel, id: u64, body: RequestBody) {
        ch.send(Request { id, body }.encode());
    }

    fn recv_resp(ch: &mut LosslessChannel) -> Response {
        match decode_frame(&ch.recv().expect("delivery")) {
            Some(WireMessage::Response(resp)) => resp,
            other => panic!("expected response, got {other:?}"),
        }
    }

    #[test]
    fn fresh_requests_execute_and_respond() {
        let mut db = tiny_db();
        let mut server = NetServer::new();
        let sid = server.open_session();
        let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
        send_req(&mut rx, 1, RequestBody::Ping);
        send_req(&mut rx, 2, RequestBody::ListAsrs);
        let report = server.pump_session(sid, &mut plain(&mut db), &mut rx, &mut tx);
        assert_eq!(report.executed, 2);
        assert_eq!(recv_resp(&mut tx).body, ResponseBody::Ok);
        match recv_resp(&mut tx).body {
            ResponseBody::Text(_) => {}
            other => panic!("expected text, got {other:?}"),
        }
        assert_eq!(db.tracer().metrics().counter("server.requests"), 2);
    }

    #[test]
    fn duplicate_replays_without_reexecution() {
        let mut db = tiny_db();
        let mut server = NetServer::new();
        let sid = server.open_session();
        let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
        let body = RequestBody::Instantiate {
            type_name: "EMP".into(),
        };
        send_req(&mut rx, 1, body.clone());
        send_req(&mut rx, 1, body.clone());
        send_req(&mut rx, 1, body);
        let report = server.pump_session(sid, &mut plain(&mut db), &mut rx, &mut tx);
        assert_eq!(report.executed, 1);
        assert_eq!(report.replayed, 2);
        // All three responses are byte-identical: one object, not three.
        let first = recv_resp(&mut tx);
        assert_eq!(recv_resp(&mut tx), first);
        assert_eq!(recv_resp(&mut tx), first);
        assert_eq!(server.requests_executed(), 1);
    }

    #[test]
    fn damaged_frame_nacks_and_stale_drops() {
        let mut db = tiny_db();
        let mut server = NetServer::new();
        let sid = server.open_session();
        let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
        // Execute ids 1 and 2, then replay id 1 (stale) and damage a frame.
        send_req(&mut rx, 1, RequestBody::Ping);
        send_req(&mut rx, 2, RequestBody::Ping);
        send_req(&mut rx, 1, RequestBody::Ping);
        let mut bad = Request {
            id: 3,
            body: RequestBody::Ping,
        }
        .encode();
        let len = bad.len();
        bad[len - 1] ^= 0x01;
        rx.send(bad);
        let report = server.pump_session(sid, &mut plain(&mut db), &mut rx, &mut tx);
        assert_eq!(report.executed, 2);
        assert_eq!(report.dropped_stale, 1);
        assert_eq!(report.nacked, 1);
        recv_resp(&mut tx);
        recv_resp(&mut tx);
        let nack = recv_resp(&mut tx);
        assert_eq!(nack.id, 0);
        assert_eq!(nack.body, ResponseBody::Nack { last_executed: 2 });
    }

    #[test]
    fn shutdown_closes_session() {
        let mut db = tiny_db();
        let mut server = NetServer::new();
        let sid = server.open_session();
        let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
        send_req(&mut rx, 1, RequestBody::Shutdown);
        send_req(&mut rx, 2, RequestBody::Ping);
        server.pump_session(sid, &mut plain(&mut db), &mut rx, &mut tx);
        assert!(!server.session_open(sid));
        assert_eq!(recv_resp(&mut tx).body, ResponseBody::Ok);
        match recv_resp(&mut tx).body {
            ResponseBody::Err(msg) => assert!(msg.contains("closed")),
            other => panic!("expected err, got {other:?}"),
        }
    }

    #[test]
    fn request_errors_keep_session_usable() {
        let mut db = tiny_db();
        let mut server = NetServer::new();
        let sid = server.open_session();
        let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
        send_req(&mut rx, 1, RequestBody::Query("select nonsense".into()));
        send_req(&mut rx, 2, RequestBody::Ping);
        let report = server.pump_session(sid, &mut plain(&mut db), &mut rx, &mut tx);
        assert_eq!(report.executed, 2);
        match recv_resp(&mut tx).body {
            ResponseBody::Err(_) => {}
            other => panic!("expected err, got {other:?}"),
        }
        assert_eq!(recv_resp(&mut tx).body, ResponseBody::Ok);
        assert_eq!(db.tracer().metrics().counter("server.errors"), 1);
    }
}
