//! MVCC serving: snapshot-isolated reads in the session multiplexer.
//! Partition reads answered from a pinned [`asr_core::Snapshot`] must be
//! bit-identical to live execution, the
//! parallel multi-session pump must be indistinguishable from the serial
//! one, and exactly-once semantics must survive duplicated and deferred
//! frames.

mod common;

use std::collections::BTreeSet;

use asr_core::{AsrConfig, Cell, Database, Decomposition, Extension};
use asr_durable::{Channel, DurableDatabase, FlushPolicy, LosslessChannel, MemStorage, Storage};
use asr_gom::Value;
use asr_net::{decode_frame, Request, RequestBody, Response, ResponseBody, WireMessage};
use asr_server::{NetServer, ServerDb};
use common::*;

fn send(ch: &mut LosslessChannel, id: u64, body: RequestBody) {
    ch.send(Request { id, body }.encode());
}

fn drain(ch: &mut LosslessChannel) -> Vec<Response> {
    let mut out = Vec::new();
    while let Some(frame) = ch.recv() {
        match decode_frame(&frame) {
            Some(WireMessage::Response(resp)) => out.push(resp),
            other => panic!("expected response, got {other:?}"),
        }
    }
    out
}

/// `(id, body)` pairs — the client-visible outcome, ignoring the I/O
/// envelope (snapshot reads meter pages differently by design).
fn outcomes(resps: &[Response]) -> Vec<(u64, &ResponseBody)> {
    resps.iter().map(|r| (r.id, &r.body)).collect()
}

/// A plain serving database over the company example with one full ASR,
/// plus probe fodder: the ASR id, division key cells and product cells.
fn serving_company() -> (Database, u32, Vec<Cell>, Vec<Cell>) {
    let ex = asr_workload::company_database();
    let mut db = ex.db;
    let m = ex.path.arity(false) - 1;
    let id = db
        .create_asr_on(
            "Division.Manufactures.Composition.Name",
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(m),
                keep_set_oids: false,
            },
        )
        .expect("ASR builds");
    let door = Cell::Value(Value::string("Door"));
    let divisions: Vec<Cell> = db
        .backward(id, 0, 3, &door)
        .expect("backward")
        .into_iter()
        .map(Cell::Oid)
        .collect();
    assert!(!divisions.is_empty(), "a division must use a Door");
    let start = divisions[0].as_oid().expect("division oid");
    let products = db.forward(id, 0, 1, start).expect("forward");
    (db, id as u32, divisions, products)
}

/// Answer `bodies` on one session, live (`pump_session`) or off one
/// pinned snapshot (`pump_sessions_parallel`, whose all-read script rides
/// the pin whole).
fn answer<S: Storage>(
    db: &mut ServerDb<'_, S>,
    bodies: &[RequestBody],
    snapshot: bool,
) -> Vec<ResponseBody> {
    let mut server = NetServer::new();
    let sid = server.open_session();
    let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
    for (i, body) in bodies.iter().enumerate() {
        send(&mut rx, i as u64 + 1, body.clone());
    }
    if snapshot {
        let mut sessions: Vec<(usize, &mut dyn Channel, &mut dyn Channel)> =
            vec![(sid, &mut rx, &mut tx)];
        server.pump_sessions_parallel(db, &mut sessions, 3);
    } else {
        server.pump_session(sid, db, &mut rx, &mut tx);
    }
    drain(&mut tx).into_iter().map(|r| r.body).collect()
}

/// Every partition read the pool serves must equal the live answer,
/// across randomly decomposed chains under every extension: probes from
/// both ends keyed on every stored cell, and scans at every offset.
#[test]
fn pinned_partition_reads_match_live_on_random_chains() {
    for seed in [11u64, 29, 47] {
        let mut staged = stage_chain(seed);
        let asr = staged.asr as u32;
        let mut bodies = Vec::new();
        for (part, stored) in staged
            .durable
            .database()
            .asr(staged.asr)
            .unwrap()
            .partitions()
            .iter()
            .enumerate()
        {
            let (mut firsts, mut lasts, mut cells) =
                (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
            stored.scan(|row| {
                firsts.extend(row.first().clone());
                lasts.extend(row.last().clone());
                cells.extend(row.cells().flatten().cloned());
            });
            let part = part as u32;
            for (forward, keys) in [(true, firsts), (false, lasts)] {
                bodies.push(RequestBody::PartitionProbe {
                    asr,
                    part,
                    forward,
                    keys: keys.into_iter().collect(),
                });
            }
            for offset in 0..stored.arity() as u32 {
                bodies.push(RequestBody::PartitionScan {
                    asr,
                    part,
                    offset,
                    frontier: cells.iter().cloned().collect(),
                });
            }
        }
        let mut db = ServerDb::Durable(&mut staged.durable);
        let live = answer(&mut db, &bodies, false);
        let pooled = answer(&mut db, &bodies, true);
        assert_eq!(live, pooled, "seed {seed}");
        assert!(
            live.iter()
                .any(|b| matches!(b, ResponseBody::Rows(rows) if !rows.is_empty())),
            "seed {seed}: the reads must find rows"
        );
        let metrics = db.db().tracer().metrics();
        assert_eq!(
            metrics.counter("server.snapshot.reads"),
            bodies.len() as u64,
            "seed {seed}: every read must ride the pin"
        );
    }
}

/// Each pool batch pins the epoch current at its start: a read after a
/// committed mutation sees it, on a durable primary as on the live path.
#[test]
fn each_batch_pins_the_current_epoch() {
    let (mut primary, asr) = company_primary();
    let names = primary.database().asr(asr).unwrap().partitions().len() - 1;
    let doors = vec![RequestBody::PartitionProbe {
        asr: asr as u32,
        part: names as u32,
        forward: false,
        keys: vec![Cell::Value(Value::string("Door"))],
    }];
    let rows = |resp: &[ResponseBody]| match &resp[0] {
        ResponseBody::Rows(rows) => rows.len(),
        other => panic!("expected rows, got {other:?}"),
    };
    let before = rows(&answer(&mut ServerDb::Durable(&mut primary), &doors, true));
    let part = primary.instantiate("BasePart").unwrap();
    primary
        .set_attribute(part, "Name", Value::string("Door"))
        .unwrap();
    let mut db = ServerDb::Durable(&mut primary);
    let pooled = answer(&mut db, &doors, true);
    assert_eq!(rows(&pooled), before + 1, "the new part must show up");
    assert_eq!(pooled, answer(&mut db, &doors, false));
}

/// The parallel pump must be client-indistinguishable from pumping the
/// same sessions serially: identical `(id, body)` streams per session,
/// identical execute/replay accounting — while the read prefixes
/// actually ran concurrently off one pinned snapshot.
#[test]
fn parallel_pump_matches_serial_execution() {
    let (mut serial_db, asr, divisions, products) = serving_company();
    let (mut parallel_db, asr2, _, _) = serving_company();
    assert_eq!(asr, asr2, "the two builds are deterministic twins");
    let door = Cell::Value(Value::string("Door"));

    let scripts: Vec<Vec<RequestBody>> = vec![
        vec![
            RequestBody::PartitionProbe {
                asr,
                part: 0,
                forward: true,
                keys: divisions.clone(),
            },
            RequestBody::PartitionScan {
                asr,
                part: 1,
                offset: 0,
                frontier: products.clone(),
            },
            RequestBody::BindVar {
                name: "w0".to_string(),
                value: Value::string("x"),
            },
            RequestBody::Ping,
        ],
        vec![
            RequestBody::Ping,
            RequestBody::BindVar {
                name: "w1".to_string(),
                value: Value::string("y"),
            },
        ],
        vec![
            RequestBody::PartitionProbe {
                asr,
                part: 2,
                forward: false,
                keys: vec![door.clone()],
            },
            RequestBody::Ping,
        ],
    ];

    // Serial baseline: one session at a time, live execution only.
    let mut serial_server = NetServer::new();
    let mut serial_out: Vec<Vec<Response>> = Vec::new();
    let mut serial_executed = 0u64;
    for script in &scripts {
        let sid = serial_server.open_session();
        let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
        for (i, body) in script.iter().enumerate() {
            send(&mut rx, i as u64 + 1, body.clone());
        }
        // Duplicate the last frame of session 1: the replay path.
        if script.len() == 2 {
            send(&mut rx, script.len() as u64, script.last().unwrap().clone());
        }
        let report = serial_server.pump_session(
            sid,
            &mut ServerDb::<MemStorage>::Plain(&mut serial_db),
            &mut rx,
            &mut tx,
        );
        serial_executed += report.executed;
        serial_out.push(drain(&mut tx));
    }

    // Parallel run: same scripts, one pass, four workers.
    let mut parallel_server = NetServer::new();
    let mut channels: Vec<(usize, LosslessChannel, LosslessChannel)> = scripts
        .iter()
        .map(|script| {
            let sid = parallel_server.open_session();
            let mut rx = LosslessChannel::new();
            for (i, body) in script.iter().enumerate() {
                send(&mut rx, i as u64 + 1, body.clone());
            }
            if script.len() == 2 {
                send(&mut rx, script.len() as u64, script.last().unwrap().clone());
            }
            (sid, rx, LosslessChannel::new())
        })
        .collect();
    let mut sessions: Vec<(usize, &mut dyn Channel, &mut dyn Channel)> = channels
        .iter_mut()
        .map(|(sid, rx, tx)| (*sid, rx as &mut dyn Channel, tx as &mut dyn Channel))
        .collect();
    let report = parallel_server.pump_sessions_parallel(
        &mut ServerDb::<MemStorage>::Plain(&mut parallel_db),
        &mut sessions,
        4,
    );

    assert_eq!(report.executed, serial_executed);
    assert_eq!(parallel_server.requests_executed(), serial_executed);
    for (slot, (_, _, tx)) in channels.iter_mut().enumerate() {
        let got = drain(tx);
        assert_eq!(
            outcomes(&got),
            outcomes(&serial_out[slot]),
            "session {slot} diverged from serial execution"
        );
    }
    // S0's probe+scan, S1's leading ping, S2's probe+ping rode the pin.
    let metrics = parallel_db.tracer().metrics();
    assert_eq!(metrics.counter("server.snapshot.reads"), 5);
    assert_eq!(metrics.counter("server.snapshot.batches"), 1);
}

/// A `Shutdown` deferred to the serial tail still closes the session
/// before any request queued behind it.
#[test]
fn shutdown_in_the_tail_closes_before_later_requests() {
    let (mut db, _, _, _) = serving_company();
    let mut server = NetServer::new();
    let sid = server.open_session();
    let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
    send(&mut rx, 1, RequestBody::Ping);
    send(&mut rx, 2, RequestBody::Shutdown);
    send(&mut rx, 3, RequestBody::Ping);
    let mut sessions: Vec<(usize, &mut dyn Channel, &mut dyn Channel)> =
        vec![(sid, &mut rx, &mut tx)];
    let report = server.pump_sessions_parallel(
        &mut ServerDb::<MemStorage>::Plain(&mut db),
        &mut sessions,
        2,
    );
    assert_eq!(report.executed, 2, "the post-shutdown ping must not run");
    assert!(!server.session_open(sid));
    let resps = drain(&mut tx);
    assert_eq!(resps.len(), 3);
    assert_eq!((resps[0].id, &resps[0].body), (1, &ResponseBody::Ok));
    assert_eq!((resps[1].id, &resps[1].body), (2, &ResponseBody::Ok));
    match &resps[2].body {
        ResponseBody::Err(msg) => assert!(msg.contains("closed")),
        other => panic!("expected err, got {other:?}"),
    }
}

/// A read frame duplicated within one drain executes once: the copy is
/// deferred past the concurrent phase and settles as a replay.
#[test]
fn duplicated_read_frame_never_double_executes() {
    let (mut db, asr, divisions, _) = serving_company();
    let mut server = NetServer::new();
    let sid = server.open_session();
    let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
    let probe = RequestBody::PartitionProbe {
        asr,
        part: 0,
        forward: true,
        keys: divisions,
    };
    send(&mut rx, 1, probe.clone());
    send(&mut rx, 1, probe);
    let mut sessions: Vec<(usize, &mut dyn Channel, &mut dyn Channel)> =
        vec![(sid, &mut rx, &mut tx)];
    let report = server.pump_sessions_parallel(
        &mut ServerDb::<MemStorage>::Plain(&mut db),
        &mut sessions,
        2,
    );
    assert_eq!(report.executed, 1);
    assert_eq!(report.replayed, 1);
    assert_eq!(server.requests_executed(), 1);
    let resps = drain(&mut tx);
    assert_eq!(resps.len(), 2);
    assert_eq!(resps[0], resps[1], "the replay is byte-identical");
}

/// The tentpole wiring end to end on a durable primary: the read prefix
/// rides a snapshot while tail mutations flow through the WAL — and
/// survive recovery.
#[test]
fn durable_parallel_pump_logs_tail_writes() {
    let (db, asr, divisions, _) = serving_company();
    let disk = MemStorage::new();
    let mut primary =
        DurableDatabase::create(disk.clone(), db, FlushPolicy::EveryRecord).expect("creates");
    let objects_before = primary.database().base().object_count();

    let mut server = NetServer::new();
    let reader_sid = server.open_session();
    let writer_sid = server.open_session();
    let (mut read_rx, mut read_tx) = (LosslessChannel::new(), LosslessChannel::new());
    let (mut write_rx, mut write_tx) = (LosslessChannel::new(), LosslessChannel::new());
    send(
        &mut read_rx,
        1,
        RequestBody::PartitionProbe {
            asr,
            part: 0,
            forward: true,
            keys: divisions,
        },
    );
    for id in 1..=2u64 {
        send(
            &mut write_rx,
            id,
            RequestBody::Instantiate {
                type_name: "BasePart".to_string(),
            },
        );
    }
    let mut sessions: Vec<(usize, &mut dyn Channel, &mut dyn Channel)> = vec![
        (reader_sid, &mut read_rx, &mut read_tx),
        (writer_sid, &mut write_rx, &mut write_tx),
    ];
    let report =
        server.pump_sessions_parallel(&mut ServerDb::Durable(&mut primary), &mut sessions, 2);
    assert_eq!(report.executed, 3);
    match &drain(&mut read_tx)[0].body {
        ResponseBody::Rows(rows) => assert!(!rows.is_empty(), "the probe must see rows"),
        other => panic!("expected rows, got {other:?}"),
    }
    assert_eq!(drain(&mut write_tx).len(), 2);

    drop(primary);
    let recovered = DurableDatabase::open(disk).expect("recovers");
    assert_eq!(
        recovered.database().base().object_count(),
        objects_before + 2,
        "tail writes must be WAL-logged and replayed"
    );
}
