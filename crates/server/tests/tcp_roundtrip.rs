//! The TCP front door: the same frames over real sockets.  One test
//! drives the nonblocking server single-threaded (loopback connect
//! completes without an accept); another runs the server in a thread
//! and a full exactly-once [`WireClient`] on this side; the third parks
//! a peer that never reads beside a client that must still be served.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use asr_durable::{Channel, MemStorage};
use asr_net::{decode_frame, Request, RequestBody, ResponseBody, WireClient, WireMessage};
use asr_server::{ServerDb, TcpServer, TcpTransport};

#[test]
fn single_threaded_poll_serves_a_connection() {
    let mut db = asr_workload::company_database().db;
    let mut server = TcpServer::bind("127.0.0.1:0").expect("binds");
    let addr = server.local_addr().expect("addr");

    // Loopback connect completes against the listener backlog — no
    // accept needed yet.
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("timeout");
    stream
        .write_all(
            &Request {
                id: 1,
                body: RequestBody::Ping,
            }
            .encode(),
        )
        .expect("writes");

    // Give the kernel a beat to move the bytes, then poll.
    let mut report = Default::default();
    for _ in 0..50 {
        report = server
            .poll(&mut ServerDb::<MemStorage>::Plain(&mut db))
            .expect("polls");
        if report.executed > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(report.executed, 1, "the ping must execute");
    assert_eq!(server.connection_count(), 1);

    let mut transport = TcpTransport::connect(&addr).expect("second connection");
    transport.send(
        Request {
            id: 1,
            body: RequestBody::ListAsrs,
        }
        .encode(),
    );
    let mut frame = None;
    for _ in 0..50 {
        server
            .poll(&mut ServerDb::<MemStorage>::Plain(&mut db))
            .expect("polls");
        if let Some(f) = transport.recv() {
            frame = Some(f);
            break;
        }
    }
    let frame = frame.expect("a response arrives");
    match decode_frame(&frame) {
        Some(WireMessage::Response(resp)) => {
            assert_eq!(resp.id, 1);
            assert!(matches!(resp.body, ResponseBody::Text(_)));
        }
        other => panic!("expected response, got {other:?}"),
    }
    assert_eq!(
        server.server().session_count(),
        2,
        "one session per connection"
    );
}

#[test]
fn threaded_client_round_trips_exactly_once() {
    let (addr_tx, addr_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        // The database lives entirely inside the serving thread (it is
        // deliberately not Send); only the bound address crosses over.
        let mut db = asr_workload::company_database().db;
        let mut server = TcpServer::bind("127.0.0.1:0").expect("binds");
        addr_tx
            .send(server.local_addr().expect("addr"))
            .expect("sends");
        let report = server
            .serve_until_shutdown(&mut ServerDb::<MemStorage>::Plain(&mut db))
            .expect("serves");
        (report, db.tracer().metrics().counter("server.tcp.accepts"))
    });

    let addr = addr_rx.recv().expect("server thread reports its address");
    let transport = TcpTransport::connect(&addr).expect("connects");
    let mut client = WireClient::new(transport);

    assert_eq!(
        client.call(RequestBody::Ping).expect("ping").body,
        ResponseBody::Ok
    );
    let resp = client
        .call(RequestBody::Query(
            "select d.Name from d in Division".to_string(),
        ))
        .expect("query");
    match resp.body {
        ResponseBody::Table { columns, rows } => {
            assert_eq!(columns, vec!["d.Name".to_string()]);
            assert_eq!(rows.len(), 3, "three divisions");
        }
        other => panic!("expected table, got {other:?}"),
    }
    assert_eq!(
        client.call(RequestBody::Shutdown).expect("shutdown").body,
        ResponseBody::Ok
    );

    let (report, accepts) = handle.join().expect("server thread exits cleanly");
    assert_eq!(report.executed, 3, "three requests, each exactly once");
    assert_eq!(accepts, 1, "one TCP accept");
}

/// A peer that pipelines requests and never reads its answers fills its
/// kernel buffers; the server must park that connection's unsent tail
/// and keep serving everyone else.
#[test]
fn a_client_that_stops_reading_does_not_wedge_other_sessions() {
    let (addr_tx, addr_rx) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_serving = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut db = asr_workload::company_database().db;
        let mut server = TcpServer::bind("127.0.0.1:0").expect("binds");
        addr_tx
            .send(server.local_addr().expect("addr"))
            .expect("sends");
        while !stop_serving.load(Ordering::SeqCst) {
            server
                .poll(&mut ServerDb::<MemStorage>::Plain(&mut db))
                .expect("polls");
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let addr = addr_rx.recv().expect("server thread reports its address");
    let mut client = WireClient::new(TcpTransport::connect(&addr).expect("connects"));
    // A 3^7-row cross product: well over 100 KiB per answer.
    let vars: Vec<String> = (0..7).map(|k| format!("d{k}")).collect();
    let wide = RequestBody::Query(format!(
        "select {} from {}",
        vars.iter()
            .map(|v| format!("{v}.Name"))
            .collect::<Vec<_>>()
            .join(", "),
        vars.iter()
            .map(|v| format!("{v} in Division"))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    let answer_len = client
        .call(wide.clone())
        .expect("wide query")
        .encode()
        .len();

    // Far more answer bytes than the kernel buffers between the two
    // sockets can hold (Linux caps them at a few MiB each).
    let pipelined = ((8 << 20) / answer_len + 1) as u64;
    let mut stuck = TcpStream::connect(addr).expect("connects");
    let requests: Vec<u8> = (1..=pipelined)
        .flat_map(|id| {
            Request {
                id,
                body: wide.clone(),
            }
            .encode()
        })
        .collect();
    stuck.write_all(&requests).expect("writes");

    for round in 0..20 {
        let resp = client
            .call(RequestBody::Query(
                "select d.Name from d in Division".to_string(),
            ))
            .unwrap_or_else(|e| panic!("round {round}: {e:?}"));
        assert!(matches!(resp.body, ResponseBody::Table { .. }));
    }

    stop.store(true, Ordering::SeqCst);
    handle.join().expect("server thread exits cleanly");
    drop(stuck);
}
