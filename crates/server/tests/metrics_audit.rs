//! Metric-coverage audit for the serving subsystem, mirroring the
//! durable layer's: every `server.*` metric emitted anywhere
//! in `crates/server`'s sources must be declared in the registry below,
//! and every registered metric must actually show up in the rendered
//! `\stats` table and the Prometheus exposition after a serving
//! workload.  (The per-request-kind counters `server.requests.<label>`
//! are emitted through a computed name and are deliberately outside the
//! literal-scan registry.)

use asr_core::{AsrConfig, Decomposition, Extension};
use asr_durable::MemStorage;
use asr_net::{Request, RequestBody};
use asr_server::{NetServer, ServerDb};

const SERVER_COUNTERS: &[&str] = &[
    "server.requests",
    "server.replays",
    "server.nacks",
    "server.stale_dropped",
    "server.errors",
    "server.tcp.accepts",
    "server.snapshot.reads",
    "server.snapshot.batches",
];
const SERVER_GAUGES: &[&str] = &["server.snapshot.epoch"];
const HISTOGRAMS: &[&str] = &["server.request.pages", "server.snapshot.batch_pages"];

/// Extract the first string literal argument of every `method(` call in
/// `source` (computed names are skipped by construction).
fn emitted_names(source: &str, method: &str) -> Vec<String> {
    let needle = format!("{method}(");
    let mut out = Vec::new();
    let mut rest = source;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let trimmed = rest.trim_start();
        if let Some(lit) = trimmed.strip_prefix('"') {
            if let Some(end) = lit.find('"') {
                out.push(lit[..end].to_string());
            }
        }
    }
    out
}

#[test]
fn registry_matches_every_emit_site_in_the_sources() {
    let sources = concat!(
        include_str!("../src/exec.rs"),
        include_str!("../src/session.rs"),
        include_str!("../src/tcp.rs"),
    );
    let check = |method: &str, expected: Vec<&str>| {
        let mut emitted = emitted_names(sources, method);
        emitted.sort_unstable();
        emitted.dedup();
        let mut expected: Vec<String> = expected.iter().map(|s| s.to_string()).collect();
        expected.sort_unstable();
        assert_eq!(
            emitted, expected,
            "`{method}` emit sites diverged from the registry"
        );
    };
    check("inc_counter", SERVER_COUNTERS.to_vec());
    check("set_gauge", SERVER_GAUGES.to_vec());
    check("observe", HISTOGRAMS.to_vec());
}

fn assert_all_present(names: &[&str], table: &str, prometheus: &str, ctx: &str) {
    for name in names {
        assert!(
            table.contains(name),
            "{ctx}: `{name}` missing from \\stats table"
        );
        assert!(
            prometheus.contains(&name.replace('.', "_")),
            "{ctx}: `{name}` missing from Prometheus exposition"
        );
    }
}

/// Drive a session through every accounting path (execute, replay,
/// NACK, stale drop, error) plus partition reads on the snapshot pool;
/// every registered metric must then be visible on the served database.
#[test]
fn every_registered_metric_is_exposed_after_a_serving_workload() {
    let mut db = asr_workload::company_database().db;
    let asr = db
        .create_asr_on(
            "Division.Manufactures.Composition.Name",
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(3),
                keep_set_oids: false,
            },
        )
        .expect("ASR builds") as u32;
    let mut server = NetServer::new();
    let sid = server.open_session();
    let (mut rx, mut tx) = (
        asr_durable::LosslessChannel::new(),
        asr_durable::LosslessChannel::new(),
    );
    use asr_durable::Channel;
    let fresh = Request {
        id: 1,
        body: RequestBody::Ping,
    }
    .encode();
    rx.send(fresh.clone());
    rx.send(fresh.clone()); // duplicate -> replay
    let mut damaged = fresh.clone();
    let len = damaged.len();
    damaged[len - 1] ^= 1;
    rx.send(damaged); // -> NACK
    rx.send(
        Request {
            id: 2,
            body: RequestBody::Query("select nonsense".to_string()),
        }
        .encode(),
    ); // -> error
    rx.send(fresh); // id 1 again, now stale -> drop
    server.pump_session(
        sid,
        &mut ServerDb::<MemStorage>::Plain(&mut db),
        &mut rx,
        &mut tx,
    );
    // server.snapshot.*: a parallel pump whose two sessions' partition
    // reads ride one pinned snapshot on the worker pool.
    let sid2 = server.open_session();
    let (mut rx2, mut tx2) = (
        asr_durable::LosslessChannel::new(),
        asr_durable::LosslessChannel::new(),
    );
    rx.send(
        Request {
            id: 3,
            body: RequestBody::PartitionProbe {
                asr,
                part: 0,
                forward: true,
                keys: Vec::new(),
            },
        }
        .encode(),
    );
    rx2.send(
        Request {
            id: 1,
            body: RequestBody::PartitionScan {
                asr,
                part: 1,
                offset: 0,
                frontier: Vec::new(),
            },
        }
        .encode(),
    );
    let mut sessions: Vec<(usize, &mut dyn Channel, &mut dyn Channel)> =
        vec![(sid, &mut rx, &mut tx), (sid2, &mut rx2, &mut tx2)];
    server.pump_sessions_parallel(
        &mut ServerDb::<MemStorage>::Plain(&mut db),
        &mut sessions,
        2,
    );

    // server.tcp.accepts: a real loopback accept on the same tracer.
    let mut tcp = asr_server::TcpServer::bind("127.0.0.1:0").expect("binds");
    let _conn = std::net::TcpStream::connect(tcp.local_addr().expect("addr")).expect("connects");
    for _ in 0..50 {
        tcp.poll(&mut ServerDb::<MemStorage>::Plain(&mut db))
            .expect("polls");
        if db.tracer().metrics().counter("server.tcp.accepts") > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let metrics = db.tracer().metrics();
    assert_all_present(
        SERVER_COUNTERS,
        &metrics.render_table(),
        &metrics.to_prometheus(),
        "served database",
    );
    assert_all_present(
        SERVER_GAUGES,
        &metrics.render_table(),
        &metrics.to_prometheus(),
        "served database",
    );
    assert_all_present(
        HISTOGRAMS,
        &metrics.render_table(),
        &metrics.to_prometheus(),
        "served database",
    );
    for label in ["partition_probe", "partition_scan"] {
        assert_eq!(
            metrics.counter(&format!("server.requests.{label}")),
            1,
            "{label}"
        );
    }
}
