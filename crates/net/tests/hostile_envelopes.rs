//! Hostile bytes on every `[len][crc32][payload]` envelope: each producer
//! (WAL record, ship message, wire request, wire response) is truncated
//! at every length and has every single bit flipped.  Every case must end
//! in a typed outcome — a torn-tail class, or a rejected delivery — and
//! the class is the one the envelope's rules predict, never a panic and
//! never a damaged frame taken for an intact one.

use asr_durable::ship::ShipMessage;
use asr_durable::{frame, scan_wal, LogOp, Record, TornReason};
use asr_gom::{Oid, Value};
use asr_net::{decode_frame, Request, RequestBody, Response, ResponseBody};
use asr_pagesim::IoSnapshot;

/// Every truncation and every single-bit flip of `bytes`.
fn damaged(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let cuts = (0..bytes.len()).map(|k| (format!("cut at {k}"), bytes[..k].to_vec()));
    let flips = (0..bytes.len() * 8).map(|i| {
        let mut bad = bytes.to_vec();
        bad[i / 8] ^= 1 << (i % 8);
        (format!("flip at byte {} bit {}", i / 8, i % 8), bad)
    });
    cuts.chain(flips)
}

/// The WAL scanner keeps every frame before the first damaged one and
/// tears there, by the rule of the damaged frame's header: a cut header
/// is a partial header, a length word past the bytes at hand is a length
/// beyond EOF, anything else fails the CRC.
#[test]
fn wal_records_tear_by_the_envelope_rule() {
    let payloads: Vec<String> = [
        LogOp::Set {
            owner: Oid::from_raw(7),
            attr: "Name".into(),
            value: Value::string("a b%c"),
        },
        LogOp::Set {
            owner: Oid::from_raw(8),
            attr: "Name".into(),
            value: Value::Integer(-3),
        },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, op)| {
        Record {
            lsn: i as u64 + 1,
            op,
        }
        .to_payload()
    })
    .collect();
    let frames: Vec<Vec<u8>> = payloads.iter().map(|p| frame(p.as_bytes())).collect();
    let clean = frames.concat();
    let starts = [0, frames[0].len(), clean.len()];

    let scan = scan_wal(&clean).unwrap();
    assert_eq!((scan.records.len(), scan.torn_reason), (2, None));

    let mut cases = 0;
    for (ctx, bad) in damaged(&clean) {
        let scan = scan_wal(&bad).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let want = if bad.len() < clean.len() {
            let k = bad.len();
            let whole = starts.iter().rposition(|&s| s <= k).unwrap();
            let left = k - starts[whole];
            let reason = match left {
                0 => None,
                1..=7 => Some(TornReason::PartialHeader),
                _ => Some(TornReason::LengthBeyondEof),
            };
            (whole, reason)
        } else {
            let byte = (0..bad.len()).find(|&i| bad[i] != clean[i]).unwrap();
            let at = starts.iter().rposition(|&s| s <= byte).unwrap();
            let off = byte - starts[at];
            let reason = if off < 4 {
                let word = u32::from_le_bytes(bad[starts[at]..starts[at] + 4].try_into().unwrap());
                if word as usize > bad.len() - starts[at] - 8 {
                    TornReason::LengthBeyondEof
                } else {
                    TornReason::CrcMismatch
                }
            } else {
                TornReason::CrcMismatch
            };
            (at, Some(reason))
        };
        assert_eq!((scan.records.len(), scan.torn_reason), want, "{ctx}");
        assert_eq!(scan.valid_bytes + scan.torn_bytes, bad.len(), "{ctx}");
        cases += 1;
    }
    assert_eq!(cases, clean.len() * 9);
}

/// Deliveries are all-or-nothing: any damage to a ship message or a wire
/// frame is a rejected delivery (`None`), which the receiver NACKs.
#[test]
fn deliveries_reject_every_truncation_and_bit_flip() {
    let ship = [
        ShipMessage::Frames(b"\x01\x02frames".to_vec()),
        ShipMessage::Segment {
            seqno: 2,
            first_lsn: 4,
            last_lsn: 9,
            frames: vec![1, 2, 3, 4],
        },
    ];
    for msg in &ship {
        let clean = msg.encode();
        assert_eq!(ShipMessage::decode(&clean).as_ref(), Some(msg));
        for (ctx, bad) in damaged(&clean) {
            assert_eq!(ShipMessage::decode(&bad), None, "ship {msg:?}: {ctx}");
        }
    }

    let request = Request {
        id: 7,
        body: RequestBody::Query("select d.Name from d in Division".into()),
    };
    let response = Response {
        id: 7,
        body: ResponseBody::Table {
            columns: vec!["d.Name".into()],
            rows: vec![vec![Value::string("Auto")], vec![Value::Null]],
        },
        io: IoSnapshot {
            reads: 3,
            ..IoSnapshot::default()
        },
    };
    for (what, clean) in [
        ("request", request.encode()),
        ("response", response.encode()),
    ] {
        assert!(decode_frame(&clean).is_some(), "{what} round-trips");
        for (ctx, bad) in damaged(&clean) {
            assert!(decode_frame(&bad).is_none(), "{what}: {ctx}");
        }
    }
}
