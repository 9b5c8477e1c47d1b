//! `serve-query` and `serve-mixed`: a closed loop of one client over one
//! real TCP connection against `TcpServer::serve_until_shutdown` — the
//! loop `\serve` runs, idle sleep included, because that is the server
//! users get — with the database on the server's own thread.
//!
//! The traced run peels the onion: the operations E0 issued are replayed
//! single-threaded at successively deeper public entry points (E1
//! session pump, E2 executor calls, E3 `Database` calls), a layer's self
//! time is the difference of adjacent entries, and every replay must
//! give E0's answers and E0's page counts.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

use asr_core::{Cell, Database};
use asr_costmodel::{Dec, Ext};
use asr_durable::{
    Channel, DurableDatabase, FlushPolicy, FsStorage, LosslessChannel, MemStorage, Storage,
};
use asr_gom::{Oid, Value};
use asr_net::{
    decode_frame, ClientStats, Request, RequestBody, Response, ResponseBody, WireClient,
    WireMessage,
};
use asr_pagesim::IoSnapshot;
use asr_server::{NetServer, PumpReport, ServerDb, TcpServer, TcpTransport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::hist::Hist;
use crate::layers::{self, Counts};
use crate::ledger::Sheet;
use crate::stage::{bw_query, model, stage, Class, Design, Mix, Op, OpStream, Population};
use crate::stage::{BW_SHARE, FW_QUERY, HOT_VAR};
use crate::trace::SpanLog;
use crate::util::{cpus, io_diff, median, peak_rss_mb, ratio, Cfg};
use crate::window::{Summary, Window};

/// The flush policy of the served durable database.  Group commit is not
/// reachable from the serving path today and stays off.
const POLICY: FlushPolicy = FlushPolicy::EveryRecord;
/// Query operations whose parse and plan are timed in isolation.
const OQL_SAMPLE: u64 = 2000;
const E0_SPAN: &str = "E0.tcp";

/// What the server thread reports once `serve_until_shutdown` returns.
struct ServerEnd {
    pump: PumpReport,
    accepts: u64,
    /// The database's `IoStats` delta across the whole serve call.
    io: IoSnapshot,
    wal_flushes: u64,
    wal_records: u64,
}

fn serve_and_report<S: Storage>(tcp: &mut TcpServer, sdb: &mut ServerDb<'_, S>) -> ServerEnd {
    let wal = |db: &Database| {
        let m = db.tracer().metrics();
        (m.counter("wal.flushes"), m.counter("wal.records"))
    };
    let io_before = sdb.db().stats().snapshot();
    let wal_before = wal(sdb.db());
    let pump = tcp.serve_until_shutdown(sdb).expect("server loop runs");
    let db = sdb.db();
    let wal_after = wal(db);
    ServerEnd {
        pump,
        accepts: db.tracer().metrics().counter("server.tcp.accepts"),
        io: io_diff(&db.stats().snapshot(), &io_before),
        wal_flushes: wal_after.0 - wal_before.0,
        wal_records: wal_after.1 - wal_before.1,
    }
}

/// A running front door: the server thread and the connected client.
struct FrontDoor {
    client: WireClient<TcpTransport>,
    server: JoinHandle<ServerEnd>,
    pop: Population,
    /// Σ `Response.io` over every response this client received.
    io: IoSnapshot,
}

impl FrontDoor {
    /// One complete set-up: generate, build the ASR, (durable) create,
    /// bind the port, connect, bind `Hot` over the wire.
    fn open(durable_dir: Option<PathBuf>) -> FrontDoor {
        let (tx, rx) = mpsc::channel::<(SocketAddr, Population)>();
        let server = std::thread::spawn(move || {
            // The database is deliberately not `Send`: it is staged, served
            // and dropped on this thread; only plain data crosses over.
            let (mut db, design) = stage();
            let mut tcp = TcpServer::bind("127.0.0.1:0").expect("binds an ephemeral port");
            let addr = tcp.local_addr().expect("bound address");
            match durable_dir {
                None => {
                    tx.send((addr, design.pop)).expect("client is waiting");
                    serve_and_report(&mut tcp, &mut ServerDb::<FsStorage>::Plain(&mut db))
                }
                Some(dir) => {
                    let storage = FsStorage::new(&dir).expect("storage directory");
                    let mut durable =
                        DurableDatabase::create(storage, db, POLICY).expect("durable create");
                    tx.send((addr, design.pop)).expect("client is waiting");
                    serve_and_report(&mut tcp, &mut ServerDb::Durable(&mut durable))
                }
            }
        });
        let (addr, pop) = rx.recv().expect("server thread reports its address");
        let transport = TcpTransport::connect(&addr).expect("connects");
        let mut door = FrontDoor {
            client: WireClient::new(transport),
            server,
            pop,
            io: IoSnapshot::default(),
        };
        let bound = door.call(bind_hot_request(door.pop.hot));
        assert_eq!(bound.0, Answer::Done, "BindVar Hot");
        door
    }

    /// One request, client-side send → intact response.
    fn call(&mut self, body: RequestBody) -> (Answer, IoSnapshot) {
        match self.client.call(body) {
            Ok(response) => {
                self.io.merge(&response.io);
                (Answer::of(response.body), response.io)
            }
            // `ClientError::Exhausted`: no intact response in 64 attempts.
            Err(e) => (Answer::Failed(e.to_string()), IoSnapshot::default()),
        }
    }

    /// Close the session and collect the server's report.
    fn close(mut self) -> (ServerEnd, ClientStats, IoSnapshot) {
        let bye = self.call(RequestBody::Shutdown);
        assert_eq!(bye.0, Answer::Done, "Shutdown");
        let stats = self.client.stats();
        drop(self.client);
        let end = self.server.join().expect("server thread exits cleanly");
        (end, stats, self.io)
    }
}

fn bind_hot_request(hot: Oid) -> RequestBody {
    RequestBody::BindVar {
        name: HOT_VAR.to_string(),
        value: Value::Ref(hot),
    }
}

/// What an operation answered, in a form every entry depth can produce.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Rows(Vec<Vec<Value>>),
    Flag(bool),
    Done,
    Failed(String),
}

impl Answer {
    fn of(body: ResponseBody) -> Answer {
        match body {
            ResponseBody::Table { rows, .. } => Answer::Rows(rows),
            ResponseBody::Flag(fresh) => Answer::Flag(fresh),
            ResponseBody::Ok => Answer::Done,
            ResponseBody::Err(msg) => Answer::Failed(msg),
            other => Answer::Failed(format!("unexpected {} response", other.label())),
        }
    }

    /// Distinct single-column rows, in the executor's order.
    fn column(values: impl IntoIterator<Item = Value>) -> Answer {
        let rows: BTreeSet<Vec<Value>> = values.into_iter().map(|v| vec![v]).collect();
        Answer::Rows(rows.into_iter().collect())
    }

    fn ok_for(&self, op: &Op) -> bool {
        match (op.class(), self) {
            (Class::Ins, Answer::Flag(fresh)) => *fresh,
            (Class::Bw | Class::Fw, Answer::Rows(_)) => true,
            _ => false,
        }
    }

    fn rows(&self) -> usize {
        match self {
            Answer::Rows(rows) => rows.len(),
            _ => 0,
        }
    }
}

/// One operation as E0 issued it.
struct Issued {
    op: Op,
    answer: Answer,
    io: IoSnapshot,
    ns: u64,
    /// Its E0 span, when the traced half of the window recorded one.
    span: Option<u64>,
}

fn request_for(op: &Op) -> RequestBody {
    match op {
        Op::Bw {
            target: Cell::Value(Value::Integer(tag)),
            ..
        } => RequestBody::Query(bw_query(*tag)),
        Op::FwHot => RequestBody::Query(FW_QUERY.to_string()),
        Op::Ins { owner, elem } => RequestBody::InsertIntoAttrSet {
            owner: *owner,
            attr: "A4".to_string(),
            elem: Value::Ref(*elem),
        },
        other => unreachable!("not a served operation: {other:?}"),
    }
}

/// E0: the prefix the counts are taken over, warm-up, the timed window.
struct E0Run {
    log: Vec<Issued>,
    /// Index of the window's first operation.
    window_first: usize,
    timed: Summary,
}

fn drive_e0(cfg: &Cfg, mix: Mix, door: &mut FrontDoor, spans: &mut SpanLog) -> E0Run {
    let mut stream = OpStream::new(cfg.seed, mix, door.pop.clone());
    let mut log: Vec<Issued> = Vec::new();
    let mut issue = |log: &mut Vec<Issued>, record: Option<&mut SpanLog>| {
        let op = stream.next().expect("endless stream");
        let body = request_for(&op);
        let start = Instant::now();
        let (answer, io) = door.call(body);
        let end = Instant::now();
        let span = record.and_then(|spans| {
            spans.close(
                E0_SPAN,
                op.class().name(),
                log.len() as u64,
                None,
                start,
                end,
            )
        });
        let ns = (end - start).as_nanos() as u64;
        log.push(Issued {
            op,
            answer,
            io,
            ns,
            span,
        });
        end
    };
    let warm = Instant::now();
    while log.len() < cfg.prefix_ops() || warm.elapsed().as_secs_f64() < cfg.warmup_s() {
        issue(&mut log, None);
    }
    let window_first = log.len();
    let mut window = Window::open(cfg.seconds);
    loop {
        let record = window.late(Instant::now()) && cfg.traced;
        let end = issue(&mut log, record.then_some(&mut *spans));
        let issued = log.last().expect("just issued");
        if issued.op.class().is_query() {
            window.query(issued.ns);
        }
        if !window.op_done(end) {
            break;
        }
    }
    E0Run {
        log,
        window_first,
        timed: window.close(),
    }
}

/// The database behind a replay, reached the way that depth reaches it.
enum Backing<S: Storage> {
    Plain(Box<Database>),
    Durable(Box<DurableDatabase<S>>),
}

impl<S: Storage> Backing<S> {
    /// Stage a replay backing the way the served database was staged.
    fn stage(storage: Option<S>) -> (Design, Backing<S>) {
        let (db, design) = stage();
        let backing = match storage {
            None => Backing::Plain(Box::new(db)),
            Some(storage) => Backing::Durable(Box::new(
                DurableDatabase::create(storage, db, POLICY).expect("durable create"),
            )),
        };
        (design, backing)
    }

    fn db(&self) -> &Database {
        match self {
            Backing::Plain(db) => db,
            Backing::Durable(d) => d.database(),
        }
    }

    fn server_db(&mut self) -> ServerDb<'_, S> {
        match self {
            Backing::Plain(db) => ServerDb::Plain(db),
            Backing::Durable(d) => ServerDb::Durable(d),
        }
    }

    fn bind_hot(&mut self, hot: Oid) {
        match self {
            Backing::Plain(db) => db.bind_variable(HOT_VAR, Value::Ref(hot)),
            Backing::Durable(d) => d
                .bind_variable(HOT_VAR, Value::Ref(hot))
                .expect("logged bind"),
        }
    }

    fn insert(&mut self, owner: Oid, elem: Oid) -> Answer {
        let elem = Value::Ref(elem);
        let done = match self {
            Backing::Plain(db) => db
                .insert_into_attr_set(owner, "A4", elem)
                .map_err(|e| e.to_string()),
            Backing::Durable(d) => d
                .insert_into_attr_set(owner, "A4", elem)
                .map_err(|e| e.to_string()),
        };
        done.map_or_else(Answer::Failed, Answer::Flag)
    }

    fn wal_bytes(&self) -> usize {
        match self {
            Backing::Plain(_) => 0,
            Backing::Durable(d) => d.wal_status().durable_bytes,
        }
    }
}

/// An onion-peel entry depth below the TCP front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// `Request::encode` → `NetServer::pump_session` over a
    /// `LosslessChannel` pair → `decode_frame`.
    E1,
    /// `asr_oql::execute` for queries, the database's own
    /// `insert_into_attr_set` (logging when durable) for updates.
    E2,
    /// `Database::backward` / `navigate_forward` / `insert_into_attr_set`.
    E3,
}

impl Depth {
    fn span_name(self) -> &'static str {
        match self {
            Depth::E1 => "E1.session",
            Depth::E2 => "E2.execute",
            Depth::E3 => "E3.database",
        }
    }
}

/// What one replay measured beside its spans.
#[derive(Default)]
struct ReplayOut {
    /// Span id per operation (the next depth's parents).
    ids: Vec<Option<u64>>,
    /// E1: wire codec timed in isolation, and frame sizes.
    codec_ns: u64,
    request_bytes: u64,
    response_bytes: u64,
    pump: PumpReport,
    /// E2: parse and plan timed in isolation over the first query ops.
    parse_ns: u64,
    plan_ns: u64,
    planned: u64,
    indexed: u64,
    /// WAL bytes the prefix's updates appended (durable backings).
    prefix_wal_bytes: u64,
    /// Page writes E0 charged the prefix's updates beyond a plain twin's:
    /// the log's tail pages.
    prefix_wal_pages: u64,
    /// Unindexed-oracle comparisons made, their time and pages.
    oracle_checks: u64,
    naive_ns: u64,
    naive_pages: u64,
}

/// The E1 entry: one request through the session pump and back.
struct Session {
    server: NetServer,
    sid: usize,
    rx: LosslessChannel,
    tx: LosslessChannel,
    next_id: u64,
}

impl Session {
    fn open() -> Session {
        let mut server = NetServer::new();
        let sid = server.open_session();
        Session {
            server,
            sid,
            rx: LosslessChannel::new(),
            tx: LosslessChannel::new(),
            next_id: 1,
        }
    }

    /// Encode, pump, decode.  Returns the decoded pair, so the codec can
    /// be re-timed apart from the pump, and the instant the call ended;
    /// frame sizes and pump counts go to `out`.
    fn call<S: Storage>(
        &mut self,
        backing: &mut Backing<S>,
        body: RequestBody,
        out: &mut ReplayOut,
    ) -> (Request, Response, Instant) {
        let request = Request {
            id: self.next_id,
            body,
        };
        self.next_id += 1;
        let frame = request.encode();
        out.request_bytes += frame.len() as u64;
        self.rx.send(frame);
        let report = self.server.pump_session(
            self.sid,
            &mut backing.server_db(),
            &mut self.rx,
            &mut self.tx,
        );
        let delivery = self.tx.recv().expect("one response per request");
        let decoded = decode_frame(&delivery);
        let end = Instant::now();
        out.pump.executed += report.executed;
        out.pump.replayed += report.replayed;
        out.pump.nacked += report.nacked;
        out.response_bytes += delivery.len() as u64;
        let Some(WireMessage::Response(response)) = decoded else {
            panic!("E1 response to request {} does not decode", request.id);
        };
        (request, response, end)
    }
}

/// Request and response encode + decode, timed apart from the session.
fn codec_ns(request: &Request, response: &Response) -> u64 {
    let t = Instant::now();
    let req_frame = std::hint::black_box(request).encode();
    let req = decode_frame(std::hint::black_box(&req_frame));
    let resp_frame = std::hint::black_box(response).encode();
    let resp = decode_frame(std::hint::black_box(&resp_frame));
    let ns = t.elapsed().as_nanos() as u64;
    assert!(req.is_some() && resp.is_some(), "codec round trip");
    ns
}

/// One operation at E3: the `Database` calls the executor would make.
fn call_database<S: Storage>(
    backing: &mut Backing<S>,
    design: &Design,
    hot: &[Oid],
    op: &Op,
) -> Answer {
    let failed = |e: asr_core::AsrError| Answer::Failed(e.to_string());
    match op {
        Op::Bw { i, j, target } => backing
            .db()
            .backward(design.asr, *i, *j, target)
            .map_or_else(failed, |oids| {
                Answer::column(oids.into_iter().map(Value::Ref))
            }),
        Op::FwHot => {
            let path = &design.fw_path;
            let mut values = Vec::new();
            for &member in hot {
                match backing.db().navigate_forward(path, 0, path.len(), member) {
                    Ok(cells) => values.extend(cells.into_iter().map(|c| match c {
                        Cell::Value(v) => v,
                        Cell::Oid(o) => Value::Ref(o),
                    })),
                    Err(e) => return failed(e),
                }
            }
            Answer::column(values)
        }
        Op::Ins { owner, elem } => backing.insert(*owner, *elem),
        Op::Fw { .. } => unreachable!("not a served operation"),
    }
}

/// Everything a replay needs to know about the E0 run it mirrors.
struct Mirror<'a> {
    log: &'a [Issued],
    prefix: usize,
    seed: u64,
    /// Compare a seeded 1 % of backward answers with the unindexed
    /// evaluation (once per run, at the deepest replay).
    oracle: bool,
}

/// Replay the log at `depth` against `backing`, checking every answer
/// and page count against E0's and recording one span per operation.
fn replay<S: Storage>(
    depth: Depth,
    (design, backing): &mut (Design, Backing<S>),
    mirror: &Mirror<'_>,
    spans: &mut SpanLog,
    parents: &[Option<u64>],
    sheet: &mut Sheet,
) -> ReplayOut {
    let mut out = ReplayOut::default();
    let mut oracle_rng = SmallRng::seed_from_u64(mirror.seed ^ 0x6f72_6163_6c65);
    let mut session = Session::open();
    match depth {
        Depth::E1 => {
            let bound = session.call(backing, bind_hot_request(design.pop.hot), &mut out);
            assert_eq!(Answer::of(bound.1.body), Answer::Done, "E1 BindVar Hot");
            out = ReplayOut::default();
        }
        Depth::E2 | Depth::E3 => backing.bind_hot(design.pop.hot),
    }
    let hot = backing
        .db()
        .base()
        .element_oids(design.pop.hot)
        .expect("Hot set exists");

    for (k, issued) in mirror.log.iter().enumerate() {
        let op = &issued.op;
        let class = op.class();
        let body = request_for(op);
        let query_text = match &body {
            RequestBody::Query(text) => Some(text.clone()),
            _ => None,
        };
        let io_before = backing.db().stats().snapshot();
        let wal_before = backing.wal_bytes();
        let start = Instant::now();
        let (answer, end, wire_io) = match depth {
            Depth::E1 => {
                let (request, response, end) = session.call(backing, body, &mut out);
                out.codec_ns += codec_ns(&request, &response);
                (Answer::of(response.body), end, Some(response.io))
            }
            Depth::E2 => {
                let answer = match (&query_text, op) {
                    (Some(text), _) => asr_oql::execute(backing.db(), text)
                        .map_or_else(|e| Answer::Failed(e.to_string()), |r| Answer::Rows(r.rows)),
                    (None, Op::Ins { owner, elem }) => backing.insert(*owner, *elem),
                    (None, other) => unreachable!("not a served operation: {other:?}"),
                };
                (answer, Instant::now(), None)
            }
            Depth::E3 => {
                let answer = call_database(backing, design, &hot, op);
                (answer, Instant::now(), None)
            }
        };
        let parent = parents.get(k).copied().flatten();
        out.ids.push(spans.close(
            depth.span_name(),
            class.name(),
            k as u64,
            parent,
            start,
            end,
        ));
        let io = wire_io.unwrap_or_else(|| io_diff(&backing.db().stats().snapshot(), &io_before));
        let in_prefix = k < mirror.prefix;
        if in_prefix && class == Class::Ins {
            out.prefix_wal_bytes += (backing.wal_bytes() - wal_before) as u64;
        }

        // Replay equality: same answer, same page counts as E0.
        if answer != issued.answer {
            sheet.wrong(format!(
                "{depth:?} answers op {k} {op:?} with {answer:?}, E0 answered {:?}",
                issued.answer
            ));
        }
        // A plain twin logs nothing, so on updates E0 may exceed it by
        // the log's tail-page writes (one, or two when a page fills).
        let log_pages = match (&*backing, class) {
            (Backing::Plain(_), Class::Ins) => issued.io.writes.saturating_sub(io.writes),
            _ => 0,
        };
        let expected = IoSnapshot {
            writes: io.writes + log_pages,
            ..io
        };
        if expected != issued.io || log_pages > 2 {
            sheet.wrong(format!(
                "{depth:?} charges op {k} {op:?} {io:?}, E0 charged {:?}",
                issued.io
            ));
        }
        if in_prefix {
            out.prefix_wal_pages += log_pages;
        }

        // The paper's no-support evaluation as the oracle.
        let sampled = oracle_rng.gen_range(0..100) == 0;
        if let (true, true, Op::Bw { i, j, target }) = (mirror.oracle, sampled, op) {
            let db = backing.db();
            let before = db.stats().snapshot();
            let t = Instant::now();
            let naive = db.backward_unindexed(&design.path, *i, *j, target);
            out.naive_ns += t.elapsed().as_nanos() as u64;
            out.naive_pages += io_diff(&db.stats().snapshot(), &before).accesses();
            out.oracle_checks += 1;
            let naive = naive.expect("unindexed evaluation");
            if Answer::column(naive.into_iter().map(Value::Ref)) != issued.answer {
                sheet.wrong(format!(
                    "op {k} {op:?}: the ASR answer differs from backward_unindexed"
                ));
            }
        }

        // `oql` in isolation: parse and plan the same text directly.
        if let (Depth::E2, Some(text), true) = (depth, &query_text, out.planned < OQL_SAMPLE) {
            let t = Instant::now();
            let parsed = asr_oql::parse(text);
            out.parse_ns += t.elapsed().as_nanos() as u64;
            let parsed = parsed.expect("issued query parses");
            let t = Instant::now();
            let plan = asr_oql::plan::analyze(backing.db(), &parsed);
            out.plan_ns += t.elapsed().as_nanos() as u64;
            out.planned += 1;
            out.indexed += u64::from(plan.expect("issued query plans").uses_index());
        }
    }
    out
}

/// Per-class median span duration in µs, with the class's span count.
fn class_medians(spans: &SpanLog, name: &str) -> [(f64, u64); 3] {
    Class::ALL.map(|c| spans.median_us(name, c.name()))
}

/// The per-class medians weighted by the classes' operation counts.
fn over_classes(means: &[(f64, u64); 3]) -> f64 {
    ratio(
        means.iter().map(|(us, n)| us * *n as f64).sum(),
        means.iter().map(|(_, n)| *n as f64).sum(),
    )
}

pub fn run(cfg: &Cfg, mixed: bool) -> Sheet {
    let mut sheet = Sheet::default();
    let mix = if mixed {
        Mix::ServeMixed
    } else {
        Mix::ServeQuery
    };
    let dir = |name: &str| mixed.then(|| cfg.scratch(name));

    // Set-up, several times over; the last one is served from.
    let mut setup_s = Vec::new();
    let mut door: Option<FrontDoor> = None;
    let mut e0_dir = None;
    for round in 0..cfg.setups() {
        if let Some(previous) = door.take() {
            previous.close();
        }
        e0_dir = dir(&format!("e0-{round}"));
        let t = Instant::now();
        door = Some(FrontDoor::open(e0_dir.clone()));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut door = door.expect("at least one set-up");

    let mut spans = SpanLog::new();
    let e0 = drive_e0(cfg, mix, &mut door, &mut spans);
    let (end, client, client_io) = door.close();
    let (log, prefix) = (&e0.log, cfg.prefix_ops());
    let window = &log[e0.window_first..];

    // Failed operations, printed with the operation.
    sheet.attempted = log.len() as u64;
    for (k, issued) in log.iter().enumerate() {
        if !issued.answer.ok_for(&issued.op) {
            sheet.op_failed(format!("op {k} {:?} → {:?}", issued.op, issued.answer));
        }
    }
    // The clean-link invariant: every request executed exactly once.
    if end.pump.executed != client.requests || end.pump.replayed + end.pump.nacked != 0 {
        sheet.wrong(format!(
            "server {:?} against {} client requests",
            end.pump, client.requests
        ));
    }
    // Σ Response.io == the server database's IoStats delta: the
    // operator-sum invariant of `oql::analyze`, extended to the wire.
    if client_io != end.io {
        sheet.wrong(format!(
            "Σ Response.io {client_io:?} != server IoStats delta {:?}",
            end.io
        ));
    }

    // End-to-end figures: latency over the window, counts over the prefix.
    let mut e0_hist = [Hist::default(), Hist::default(), Hist::default()];
    for issued in window {
        e0_hist[issued.op.class() as usize].record(issued.ns);
    }
    let mut counts = Counts::default();
    for issued in &log[..prefix] {
        counts.add(issued.op.class(), &issued.io);
    }
    // Weighted by the mix's nominal shares, not by how many of each the
    // prefix happened to draw: a forward query costs four backward ones,
    // and the draw alone would move the figure by 2 % from seed to seed.
    let pages_per_query =
        BW_SHARE * counts.pages_per(Class::Bw) + (1.0 - BW_SHARE) * counts.pages_per(Class::Fw);
    let prefix_updates = counts.ops(Class::Ins);
    sheet.set("setup_s", median(&setup_s));
    sheet.set("ops_per_s", e0.timed.ops_per_s);
    sheet.set("query_p50_us", e0.timed.query_p50_us);
    sheet.set("query_p99_us", e0.timed.query_tail_us);
    sheet.set("pages_per_query", pages_per_query);
    sheet.note(format!(
        "closed loop, 1 client, 1 connection, server on its own thread, cpus {}; {} ops in a {:.2} s window after {} warm-up ops; counts over the first {prefix} ops",
        cpus(),
        window.len(),
        e0.timed.seconds,
        e0.window_first
    ));
    sheet.note(e0.timed.note.clone());
    if mixed {
        let updates = &e0_hist[Class::Ins as usize];
        let (pct, tail) = updates.tail_us();
        sheet.extra("update_p50_us", "us", updates.p50_us());
        sheet.extra("update_p99_us", "us", tail);
        sheet.extra("pages_per_update", "pages", counts.pages_per(Class::Ins));
        sheet.note(format!(
            "update latency over the whole window: {} samples, tail is p{pct:.2}; flush policy {POLICY:?}, group commit off",
            updates.count()
        ));
    }

    let mut mirror = Mirror {
        log,
        prefix,
        seed: cfg.seed,
        oracle: true,
    };
    if !cfg.traced {
        // One verification replay at E2 depth; in-memory storage when
        // durable, so the check pays no second round of fsyncs.
        let mut twin = Backing::stage(mixed.then(MemStorage::new));
        let out = replay(
            Depth::E2,
            &mut twin,
            &mirror,
            &mut SpanLog::new(),
            &[],
            &mut sheet,
        );
        sheet.note(format!(
            "E2 replay of all {} ops compared with E0 (answers and IoSnapshot); {} bw answers compared with backward_unindexed",
            log.len(),
            out.oracle_checks
        ));
        if mixed {
            sheet.extra(
                "wal_bytes_per_update",
                "B",
                ratio(out.prefix_wal_bytes as f64, prefix_updates),
            );
        }
    } else {
        // E1 and E2 on the kind of storage E0 ran on, E3 on a plain twin.
        mirror.oracle = false;
        let e0_ids: Vec<Option<u64>> = log.iter().map(|i| i.span).collect();
        let stage_fs = |name: &str| {
            let storage = dir(name).map(|d| FsStorage::new(d).expect("replay storage"));
            Backing::stage(storage)
        };
        let e1 = replay(
            Depth::E1,
            &mut stage_fs("e1"),
            &mirror,
            &mut spans,
            &e0_ids,
            &mut sheet,
        );
        let e2 = replay(
            Depth::E2,
            &mut stage_fs("e2"),
            &mirror,
            &mut spans,
            &e1.ids,
            &mut sheet,
        );
        mirror.oracle = true;
        let mut twin = Backing::<MemStorage>::stage(None);
        let e3 = replay(
            Depth::E3,
            &mut twin,
            &mirror,
            &mut spans,
            &e2.ids,
            &mut sheet,
        );
        if e1.pump.executed != log.len() as u64 || e1.pump.replayed + e1.pump.nacked != 0 {
            sheet.wrong(format!("E1 pump {:?} over {} ops", e1.pump, log.len()));
        }

        // Per class: the median at E0 and at each deeper entry; a layer's
        // self time is the difference of adjacent entries, so the parts
        // sum to E0's p50 by construction — and are set against E0's
        // *mean* below, which they only match if nothing is skewed.
        let ops = log.len() as f64;
        let share = |c: Class| log.iter().filter(|i| i.op.class() == c).count() as f64 / ops;
        let m1 = class_medians(&spans, Depth::E1.span_name());
        let m2 = class_medians(&spans, Depth::E2.span_name());
        let m3 = class_medians(&spans, Depth::E3.span_name());
        let codec_us = e1.codec_ns as f64 / 1e3 / ops;
        let (mut tcp, mut session, mut below_session, mut e0_p50, mut e0_mean) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        for c in Class::ALL {
            let (w, i) = (share(c), c as usize);
            if w > 0.0 {
                tcp += w * (e0_hist[i].p50_us() - m1[i].0);
                session += w * (m1[i].0 - m2[i].0 - codec_us);
                below_session += w * m2[i].0;
                e0_p50 += w * e0_hist[i].p50_us();
                e0_mean += w * e0_hist[i].mean_us();
            }
        }
        let (bw, fw, ins) = (Class::Bw as usize, Class::Fw as usize, Class::Ins as usize);
        let query_share = share(Class::Bw) + share(Class::Fw);
        sheet.set("server.tcp_self_us", tcp);
        sheet.set("server.session_self_us", session);
        sheet.set("server.executed", end.pump.executed as f64);
        sheet.set("server.replayed", end.pump.replayed as f64);
        sheet.set("server.nacked", end.pump.nacked as f64);
        sheet.set("server.tcp_accepts", end.accepts as f64);
        sheet.set("net.codec_us_per_op", codec_us);
        sheet.set("net.request_bytes_per_op", e1.request_bytes as f64 / ops);
        sheet.set("net.response_bytes_per_op", e1.response_bytes as f64 / ops);
        sheet.set("net.retries", client.retries as f64);
        sheet.set("net.damaged_responses", client.damaged_responses as f64);
        sheet.set(
            "oql.parse_us",
            ratio(e2.parse_ns as f64 / 1e3, e2.planned as f64),
        );
        sheet.set(
            "oql.plan_us",
            ratio(e2.plan_ns as f64 / 1e3, e2.planned as f64),
        );
        sheet.set(
            "oql.self_us",
            ratio(
                share(Class::Bw) * (m2[bw].0 - m3[bw].0) + share(Class::Fw) * (m2[fw].0 - m3[fw].0),
                query_share,
            ),
        );
        sheet.set(
            "oql.indexed_share",
            ratio(e2.indexed as f64, e2.planned as f64),
        );
        let query_rows: usize = log.iter().map(|i| i.answer.rows()).sum();
        sheet.set(
            "oql.rows_per_query",
            ratio(query_rows as f64, query_share * ops),
        );
        sheet.set("asr.bw_us", m3[bw].0);
        sheet.set("asr.fw_us", m3[fw].0);
        sheet.set("asr.pages_per_bw", counts.pages_per(Class::Bw));
        sheet.set("asr.pages_per_fw", counts.pages_per(Class::Fw));
        layers::naive(
            e3.oracle_checks,
            e3.naive_ns,
            e3.naive_pages,
            &counts,
            &mut sheet,
        );
        let (cost, dec) = (model(), Dec::binary(5));
        sheet.set(
            "costmodel.bw_page_residual",
            counts.pages_per(Class::Bw) - cost.qsup_bw(Ext::Full, 0, 5, &dec),
        );
        // `Hot` is navigated without support (T1.….Tag has no ASR of its
        // own): fan_0 members, each an unsupported forward query.
        sheet.set(
            "costmodel.fw_page_residual",
            counts.pages_per(Class::Fw) - cost.fan(0) * cost.qnas_fw(1, 5),
        );
        if mixed {
            let wal_pages = ratio(e3.prefix_wal_pages as f64, prefix_updates);
            let asr_pages = counts.pages_per(Class::Ins) - wal_pages;
            sheet.set("asr.maintain_us", m3[ins].0);
            sheet.set("asr.pages_per_ins", asr_pages);
            sheet.set("durable.append_us", m2[ins].0 - m3[ins].0);
            sheet.set("durable.wal_pages_per_update", wal_pages);
            sheet.set(
                "durable.fsyncs_per_update",
                ratio(end.wal_flushes as f64, end.wal_records as f64),
            );
            sheet.set(
                "durable.wal_bytes_per_update",
                ratio(e2.prefix_wal_bytes as f64, prefix_updates),
            );
            sheet.set(
                "costmodel.ins_page_residual",
                asr_pages - cost.update_cost(Ext::Full, 3, &dec),
            );
        }
        layers::structure(twin.1.db(), twin.0.asr, &mut sheet);
        let query_us = ratio(
            share(Class::Bw) * m3[bw].0 + share(Class::Fw) * m3[fw].0,
            query_share,
        );
        layers::pagesim_report(
            twin.1.db(),
            twin.0.asr,
            &end.io,
            &counts,
            query_us,
            &mut sheet,
        );
        sheet.set("ledger.e0_p50_us", e0_p50);
        sheet.set("ledger.e0_mean_us", e0_mean);
        sheet.set("ledger.e1_us", over_classes(&m1));
        sheet.set("ledger.e2_us", over_classes(&m2));
        sheet.set("ledger.e3_us", over_classes(&m3));
        sheet.set(
            "ledger.parts_over_whole",
            ratio(tcp + session + codec_us + below_session, e0_mean),
        );
        layers::finish_trace(
            cfg,
            &spans,
            e0.timed.second_half_slowdown,
            log.len() as u64,
            &mut sheet,
        );
        sheet.note(format!(
            "E1, E2 and E3 replays of all {} ops compared with E0 (answers and IoSnapshot); {} bw answers compared with backward_unindexed",
            log.len(),
            e3.oracle_checks
        ));
    }

    // serve-mixed ends with a restart: every acknowledged insert must be
    // there after reopening from storage alone.
    if let Some(e0_dir) = &e0_dir {
        let acked: Vec<(Oid, Oid)> = log
            .iter()
            .filter(|i| i.answer == Answer::Flag(true))
            .filter_map(|i| match i.op {
                Op::Ins { owner, elem } => Some((owner, elem)),
                _ => None,
            })
            .collect();
        let restart_ms = reopen_and_check(e0_dir, &acked, end.wal_records, &mut sheet);
        sheet.extra("restart_ms", "ms", restart_ms);
        sheet.extra(
            "fsyncs_per_update",
            "count",
            ratio(end.wal_flushes as f64, end.wal_records as f64),
        );
        sheet.note(format!(
            "reopened from storage after the run: {} acknowledged inserts looked up",
            acked.len()
        ));
    }
    sheet.set("peak_rss_mb", peak_rss_mb());
    sheet
}

/// Drop-and-reopen: returns the reopen's wall time in ms.
fn reopen_and_check(dir: &Path, acked: &[(Oid, Oid)], logged: u64, sheet: &mut Sheet) -> f64 {
    let storage = FsStorage::new(dir).expect("served storage directory");
    let t = Instant::now();
    let reopened = DurableDatabase::open(storage).expect("served database reopens");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let replayed = reopened.recovery_report().records_replayed;
    if replayed != logged {
        sheet.wrong(format!(
            "recovery replayed {replayed} of {logged} logged records"
        ));
    }
    let base = reopened.database().base();
    for (owner, elem) in acked {
        let present = base
            .get_attribute(*owner, "A4")
            .ok()
            .and_then(|v| v.as_ref_oid())
            .and_then(|set| base.element_oids(set).ok())
            .is_some_and(|members| members.contains(elem));
        if !present {
            sheet.wrong(format!(
                "acknowledged insert of {elem} into {owner}.A4 is missing after restart"
            ));
        }
    }
    ms
}
