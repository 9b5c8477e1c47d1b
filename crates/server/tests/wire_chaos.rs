//! Wire-protocol chaos fuzz (the end-to-end integrity contract): a
//! client driving a full request script over damaged channels must see
//! every request executed **exactly once** — damaged frames are
//! CRC-detected and NACKed, duplicates replay the cached response,
//! drops are resent after backoff — and the served database must end
//! bit-identical to an oracle that executed the same script directly.
//!
//! Single-fault legs pin the accounting *exactly* to [`ChannelStats`]:
//! with only bit-flips armed on the request channel, every flipped
//! frame is delivered, fails the CRC, and NACKs — so
//! `server.nacks == flipped`, no slack.

mod common;

use asr_core::{AsrConfig, Cell, Database, Decomposition, Extension};
use asr_durable::{Channel, ChaosProfile, FaultyChannel, MemStorage};
use asr_gom::Value;
use asr_net::{RequestBody, ResponseBody, WireClient};
use asr_server::{NetServer, ServerDb};

/// An in-process served database behind a chaotic request/response
/// channel pair.
struct ChaosServer {
    db: Database,
    server: NetServer,
    sid: usize,
    inbox: FaultyChannel,
    outbox: FaultyChannel,
}

impl ChaosServer {
    fn new(db: Database, rx_profile: ChaosProfile, tx_profile: ChaosProfile, seed: u64) -> Self {
        let mut server = NetServer::new();
        let sid = server.open_session();
        ChaosServer {
            db,
            server,
            sid,
            inbox: FaultyChannel::new(rx_profile, seed),
            outbox: FaultyChannel::new(tx_profile, seed.wrapping_add(1)),
        }
    }
}

impl Channel for ChaosServer {
    fn send(&mut self, frame: Vec<u8>) {
        self.inbox.send(frame);
    }

    fn recv(&mut self) -> Option<Vec<u8>> {
        let mut view = ServerDb::<MemStorage>::Plain(&mut self.db);
        self.server
            .pump_session(self.sid, &mut view, &mut self.inbox, &mut self.outbox);
        self.outbox.recv()
    }
}

/// The request script: every request kind that mutates or observes
/// state, ending in a shutdown.  Returns the bodies plus the oracle
/// database after executing the same operations directly.
fn script_and_oracle() -> (Vec<RequestBody>, Database) {
    let ex = asr_workload::company_database();
    let mut oracle = ex.db;
    let asr_path =
        asr_gom::PathExpression::parse(oracle.base().schema(), "Division.Manufactures.Composition")
            .expect("path parses");
    let m = asr_path.arity(false) - 1;

    // The oracle executes the same logical operations the wire script
    // will request, in the same order.
    let new_part = oracle.instantiate("BasePart").expect("instantiate");
    oracle
        .set_attribute(new_part, "Name", Value::string("Widget"))
        .expect("set");
    let product = oracle
        .base()
        .find_by_attribute("Name", &Value::string("560 SEC"))
        .expect("560 SEC product exists");
    oracle
        .insert_into_attr_set(product, "Composition", Value::Ref(new_part))
        .expect("insert");
    oracle
        .create_asr_on(
            "Division.Manufactures.Composition",
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(m),
                keep_set_oids: false,
            },
        )
        .expect("ASR builds");
    oracle.bind_variable("threshold", Value::decimal(1, 0));

    let query =
        r#"select d.Name from d in Division where d.Manufactures.Composition.Name = "Door""#;
    let script = vec![
        RequestBody::Ping,
        RequestBody::Instantiate {
            type_name: "BasePart".to_string(),
        },
        RequestBody::SetAttr {
            owner: new_part,
            attr: "Name".to_string(),
            value: Value::string("Widget"),
        },
        RequestBody::InsertIntoAttrSet {
            owner: product,
            attr: "Composition".to_string(),
            elem: Value::Ref(new_part),
        },
        RequestBody::CreateAsr {
            dotted: "Division.Manufactures.Composition".to_string(),
            extension: "full".to_string(),
            cuts: Vec::new(),
        },
        RequestBody::BindVar {
            name: "threshold".to_string(),
            value: Value::decimal(1, 0),
        },
        RequestBody::Query(query.to_string()),
        RequestBody::Analyze(query.to_string()),
        RequestBody::ListAsrs,
        RequestBody::Stats,
        // A request-level error (WAL off on a plain database): the
        // session must survive and stay exactly-once.
        RequestBody::Checkpoint,
        RequestBody::PartitionScan {
            asr: 0,
            part: 1,
            offset: 1,
            frontier: vec![Cell::Oid(new_part)],
        },
        RequestBody::Shutdown,
    ];
    (script, oracle)
}

/// Drive the script through a chaotic server; panic on any exhausted
/// link.  Returns the response bodies.
fn drive(client: &mut WireClient<ChaosServer>, script: &[RequestBody]) -> Vec<ResponseBody> {
    script
        .iter()
        .map(|body| {
            client
                .call(body.clone())
                .expect("retry budget survives the profile")
                .body
        })
        .collect()
}

fn assert_outcome_matches_oracle(responses: &[ResponseBody], oracle: &Database) {
    // Spot-check semantic responses.
    assert_eq!(responses[0], ResponseBody::Ok, "ping");
    assert!(
        matches!(responses[1], ResponseBody::Id(_)),
        "instantiate returns the oid"
    );
    match &responses[6] {
        ResponseBody::Table { rows, .. } => {
            let want = asr_oql::execute(oracle,
                r#"select d.Name from d in Division where d.Manufactures.Composition.Name = "Door""#)
                .expect("oracle query");
            assert_eq!(rows, &want.rows, "query rows match the oracle");
        }
        other => panic!("expected table, got {other:?}"),
    }
    assert!(
        matches!(&responses[10], ResponseBody::Err(msg) if msg.contains("WAL is off")),
        "checkpoint on a plain database is a request error"
    );
    // The scan finds the one (product, part) row the insert added.
    match &responses[11] {
        ResponseBody::Rows(rows) => assert_eq!(rows.len(), 1, "{rows:?}"),
        other => panic!("expected rows, got {other:?}"),
    }
}

/// Flip-only on the request channel: every flipped frame is delivered,
/// CRC-caught and NACKed — the counters must match exactly.
#[test]
fn flip_only_request_damage_is_all_nacked() {
    let (script, oracle) = script_and_oracle();
    let rx_profile = ChaosProfile {
        flip_pct: 40,
        ..ChaosProfile::default()
    };
    let server = ChaosServer::new(
        asr_workload::company_database().db,
        rx_profile,
        ChaosProfile::default(),
        0xF11E,
    );
    let mut client = WireClient::new(server);
    let responses = drive(&mut client, &script);
    assert_outcome_matches_oracle(&responses, &oracle);

    let node = client.transport();
    let flipped = node.inbox.stats().flipped;
    let nacks = node.db.tracer().metrics().counter("server.nacks");
    assert!(flipped > 0, "the profile must actually flip something");
    assert_eq!(
        nacks, flipped,
        "every flipped request frame must be CRC-detected and NACKed"
    );
    // The response channel is lossless, so the client saw every NACK.
    assert_eq!(client.stats().nacks, nacks);
    assert_eq!(
        node.server.requests_executed(),
        script.len() as u64,
        "exactly-once execution"
    );
    assert_eq!(node.db.save_to_string(), oracle.save_to_string());
}

/// Truncate-only on the request channel: same exact accounting.
#[test]
fn truncate_only_request_damage_is_all_nacked() {
    let (script, oracle) = script_and_oracle();
    let rx_profile = ChaosProfile {
        truncate_pct: 35,
        ..ChaosProfile::default()
    };
    let server = ChaosServer::new(
        asr_workload::company_database().db,
        rx_profile,
        ChaosProfile::default(),
        0x7121C,
    );
    let mut client = WireClient::new(server);
    let responses = drive(&mut client, &script);
    assert_outcome_matches_oracle(&responses, &oracle);
    let node = client.transport();
    let truncated = node.inbox.stats().truncated;
    assert!(truncated > 0);
    assert_eq!(
        node.db.tracer().metrics().counter("server.nacks"),
        truncated
    );
    assert_eq!(node.server.requests_executed(), script.len() as u64);
    assert_eq!(node.db.save_to_string(), oracle.save_to_string());
}

/// Flip-only on the *response* channel: every flipped response frame is
/// delivered and counted damaged by the client, which resends; the
/// server replays from cache — never re-executes.
#[test]
fn flip_only_response_damage_is_all_detected_by_the_client() {
    let (script, oracle) = script_and_oracle();
    let tx_profile = ChaosProfile {
        flip_pct: 40,
        ..ChaosProfile::default()
    };
    let server = ChaosServer::new(
        asr_workload::company_database().db,
        ChaosProfile::default(),
        tx_profile,
        0xBEEF,
    );
    let mut client = WireClient::new(server);
    let responses = drive(&mut client, &script);
    assert_outcome_matches_oracle(&responses, &oracle);
    let node = client.transport();
    let flipped = node.outbox.stats().flipped;
    assert!(flipped > 0);
    assert_eq!(
        client.stats().damaged_responses,
        flipped,
        "every flipped response frame must fail the client-side CRC"
    );
    assert_eq!(node.server.requests_executed(), script.len() as u64);
    assert_eq!(node.db.save_to_string(), oracle.save_to_string());
}

/// The full seeded sweep: every fault class armed on both channels at
/// once.  Whatever the damage, the script executes exactly once and the
/// final state is bit-identical to the oracle's.  `ASR_FUZZ_SEED`
/// (decimal u64) shifts the twelve seeds, so CI can rotate them; unset,
/// the sweep runs seeds `0..12`.
#[test]
fn full_chaos_sweep_never_misexecutes() {
    let base: u64 = std::env::var("ASR_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut injected_total = [0u64; 5];
    for seed in (0..12u64).map(|k| base.wrapping_add(k)) {
        let (script, oracle) = script_and_oracle();
        let profile = ChaosProfile::from_seed(seed);
        let server = ChaosServer::new(asr_workload::company_database().db, profile, profile, seed);
        let mut client = WireClient::new(server);
        let responses = drive(&mut client, &script);
        assert_outcome_matches_oracle(&responses, &oracle);

        let node = client.transport();
        assert_eq!(
            node.server.requests_executed(),
            script.len() as u64,
            "seed {seed}: exactly-once"
        );
        assert_eq!(
            node.db.save_to_string(),
            oracle.save_to_string(),
            "seed {seed}: served state diverged from the oracle"
        );
        // Channel conservation: every offered frame was dropped,
        // delivered, or is still queued; duplication adds copies.
        for ch in [&node.inbox, &node.outbox] {
            let s = ch.stats();
            assert_eq!(
                s.sent - s.dropped + s.duplicated,
                s.delivered + ch.undelivered() as u64,
                "seed {seed}: channel accounting must balance"
            );
        }
        let (rx, tx) = (node.inbox.stats(), node.outbox.stats());
        for (i, v) in [
            rx.dropped + tx.dropped,
            rx.duplicated + tx.duplicated,
            rx.reordered + tx.reordered,
            rx.truncated + tx.truncated,
            rx.flipped + tx.flipped,
        ]
        .into_iter()
        .enumerate()
        {
            injected_total[i] += v;
        }
    }
    // Across the sweep, every fault class must have fired at least once
    // — otherwise the fuzz is weaker than it claims.
    let names = ["drop", "dup", "reorder", "truncate", "flip"];
    for (name, &count) in names.iter().zip(&injected_total) {
        assert!(count > 0, "fault class {name} never fired across the sweep");
    }
}
