//! Hostile partition reads.  A `PartitionProbe` shares one B+-tree
//! descent across its keys, which is only sound for strictly ascending
//! keys: descending keys used to trip the batch's order assertion (debug)
//! or silently miss rows on deep trees (release).  Both the live and the
//! snapshot path refuse them with an error response, and ascending keys
//! still answer exactly the per-key lookups.  Out-of-range ASR,
//! partition and offset numbers get the same refusal on both paths.

use std::collections::BTreeSet;

use asr_core::{AsrConfig, Cell, Database, Decomposition, Extension, Row};
use asr_durable::{Channel, LosslessChannel, MemStorage};
use asr_net::{decode_frame, Request, RequestBody, ResponseBody, WireMessage};
use asr_server::{NetServer, ServerDb};

/// The company example with one full binary ASR, plus every first-column
/// cell of its partition 0, ascending.
fn company() -> (Database, u32, Vec<Cell>) {
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
    let mut firsts = BTreeSet::new();
    db.asr(id).unwrap().partitions()[0].scan(|row| {
        firsts.extend(row.first().clone());
    });
    assert!(firsts.len() >= 2, "need two distinct probe keys");
    (db, id as u32, firsts.into_iter().collect())
}

fn probe(asr: u32, keys: Vec<Cell>) -> RequestBody {
    RequestBody::PartitionProbe {
        asr,
        part: 0,
        forward: true,
        keys,
    }
}

/// Answer `bodies` on one session, live (`pump_session`) or off a pinned
/// snapshot (`pump_sessions_parallel`, whose read prefix rides the pin).
fn answer(db: &mut Database, bodies: &[RequestBody], snapshot: bool) -> Vec<ResponseBody> {
    let mut server = NetServer::new();
    let sid = server.open_session();
    let (mut rx, mut tx) = (LosslessChannel::new(), LosslessChannel::new());
    for (i, body) in bodies.iter().enumerate() {
        rx.send(
            Request {
                id: i as u64 + 1,
                body: body.clone(),
            }
            .encode(),
        );
    }
    let mut serving = ServerDb::<MemStorage>::Plain(db);
    if snapshot {
        let mut sessions: Vec<(usize, &mut dyn Channel, &mut dyn Channel)> =
            vec![(sid, &mut rx, &mut tx)];
        server.pump_sessions_parallel(&mut serving, &mut sessions, 2);
    } else {
        server.pump_session(sid, &mut serving, &mut rx, &mut tx);
    }
    let mut out = Vec::new();
    while let Some(frame) = tx.recv() {
        match decode_frame(&frame) {
            Some(WireMessage::Response(resp)) => out.push(resp.body),
            other => panic!("expected a response, got {other:?}"),
        }
    }
    out
}

#[test]
fn out_of_order_probe_keys_are_refused_on_both_paths() {
    let (mut db, asr, keys) = company();
    let per_key: Vec<Row> = {
        let part = &db.asr(asr as usize).unwrap().partitions()[0];
        keys.iter().flat_map(|k| part.lookup_first(k)).collect()
    };
    let descending: Vec<Cell> = keys.iter().rev().cloned().collect();
    let duplicated = vec![keys[0].clone(), keys[0].clone()];
    let bodies = [
        probe(asr, keys.clone()),
        probe(asr, descending),
        probe(asr, duplicated),
    ];
    for snapshot in [false, true] {
        let got = answer(&mut db, &bodies, snapshot);
        assert_eq!(got.len(), 3, "snapshot={snapshot}: one answer per request");
        assert_eq!(
            got[0],
            ResponseBody::Rows(per_key.clone()),
            "snapshot={snapshot}: ascending keys answer the per-key lookups"
        );
        for refused in &got[1..] {
            match refused {
                ResponseBody::Err(msg) => {
                    assert!(msg.contains("strictly ascending"), "{msg}")
                }
                other => panic!("snapshot={snapshot}: expected a refusal, got {other:?}"),
            }
        }
    }
    assert!(
        db.tracer().metrics().counter("server.snapshot.reads") >= 3,
        "the second pass must have answered off the snapshot"
    );
}

/// The live arm and the snapshot arm share one implementation, so a bad
/// `asr`, `part` or `offset` is refused with the same text on both.
#[test]
fn bad_partition_reads_answer_alike_on_both_paths() {
    let (mut db, asr, keys) = company();
    let parts = db.asr(asr as usize).unwrap().partitions().len() as u32;
    let scan = |asr, part, offset| RequestBody::PartitionScan {
        asr,
        part,
        offset,
        frontier: keys.clone(),
    };
    let bodies = [
        RequestBody::PartitionProbe {
            asr,
            part: 99,
            forward: true,
            keys: keys.clone(),
        },
        probe(asr + 7, keys.clone()),
        scan(asr, 99, 0),
        scan(asr, 0, 99),
        scan(asr + 7, 0, 0),
        scan(asr, parts - 1, 0),
    ];
    let live = answer(&mut db, &bodies, false);
    let pooled = answer(&mut db, &bodies, true);
    assert_eq!(live, pooled);
    let errors: Vec<&str> = live[..5]
        .iter()
        .map(|body| match body {
            ResponseBody::Err(msg) => msg.as_str(),
            other => panic!("expected a refusal, got {other:?}"),
        })
        .collect();
    assert_eq!(errors[0], "no partition 99");
    assert_eq!(errors[2], "no partition 99");
    assert_eq!(errors[3], "offset 99 outside partition");
    assert!(errors[1].contains("no ASR with id"), "{}", errors[1]);
    assert_eq!(errors[1], errors[4]);
    assert!(matches!(live[5], ResponseBody::Rows(_)));
}
