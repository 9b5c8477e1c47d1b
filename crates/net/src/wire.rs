//! Request/response messages and their frame envelope.
//!
//! A message on the wire is `frame(payload)` where the payload is:
//!
//! ```text
//! [dir: u8 'Q'|'R'] [id: u64 LE] [tag: u8] [body…]
//! ```
//!
//! `id` is the client-assigned, per-session monotonic request id; a
//! response echoes the id of the request it answers (`0` for a NACK to a
//! frame whose id was unreadable).  Decoding mirrors
//! [`asr_durable::ShipMessage`]: *any* damage — short frame, bad CRC,
//! unknown tag, trailing bytes — yields `None`, and the receiver NACKs
//! rather than guessing.  Combined with exactly-once execution on the
//! server (duplicate ids replay the cached response), this is what makes
//! the chaos profile safe: a damaged or replayed frame can delay a
//! request but never mis-execute it.

use asr_core::{Cell, Row};
use asr_gom::{Oid, Value};
use asr_pagesim::IoSnapshot;

use crate::codec::{CodecError, Reader, Writer};

const DIR_REQUEST: u8 = b'Q';
const DIR_RESPONSE: u8 = b'R';

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Per-session monotonic id, assigned by the client.
    pub id: u64,
    /// What to execute.
    pub body: RequestBody,
}

/// The request taxonomy — the shell grammar plus the shard-internal ops.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness / round-trip check.
    Ping,
    /// Execute an OQL query, returning a result table.
    Query(String),
    /// Execute an OQL query with the per-operator profile (`\analyze`).
    Analyze(String),
    /// Instantiate an object of the named type (`\new`-style mutation).
    Instantiate { type_name: String },
    /// Set `owner.attr = value`.
    SetAttr {
        owner: Oid,
        attr: String,
        value: Value,
    },
    /// Insert `elem` into the set attribute `owner.attr`.
    InsertIntoAttrSet {
        owner: Oid,
        attr: String,
        elem: Value,
    },
    /// Bind a shell variable on the server session.
    BindVar { name: String, value: Value },
    /// Materialize an ASR over `dotted` (extension by name; empty `cuts`
    /// means binary decomposition).
    CreateAsr {
        dotted: String,
        extension: String,
        cuts: Vec<u32>,
    },
    /// Drop an ASR by id.
    DropAsr { asr: u32 },
    /// List live ASRs (rendered text).
    ListAsrs,
    /// Render the server's metrics table (`\stats`).
    Stats,
    /// Durable checkpoint (`delta` = `\checkpoint delta`).
    Checkpoint { delta: bool },
    /// Batched clustered probe against one stored partition of one ASR
    /// (`StoredPartition::probe`; first-column tree when `forward`).
    /// `keys` must be strictly ascending — anything else is refused with
    /// an error response.  Scatter-gather broadcasts this to every shard
    /// and unions the rows.
    ShardProbe {
        asr: u32,
        part: u32,
        forward: bool,
        keys: Vec<Cell>,
    },
    /// Exhaustive scan of one stored partition, keeping rows whose cell
    /// at `offset` is in `frontier` (the interior-entry case of the span
    /// walk).  Broadcast like [`RequestBody::ShardProbe`].
    ShardScan {
        asr: u32,
        part: u32,
        offset: u32,
        frontier: Vec<Cell>,
    },
    /// Shard liveness + placement accounting.
    ShardStatus,
    /// Close the session.
    Shutdown,
}

impl RequestBody {
    /// Short label for spans/metrics.
    pub fn label(&self) -> &'static str {
        match self {
            RequestBody::Ping => "ping",
            RequestBody::Query(_) => "query",
            RequestBody::Analyze(_) => "analyze",
            RequestBody::Instantiate { .. } => "instantiate",
            RequestBody::SetAttr { .. } => "set_attr",
            RequestBody::InsertIntoAttrSet { .. } => "insert_attr_set",
            RequestBody::BindVar { .. } => "bind_var",
            RequestBody::CreateAsr { .. } => "create_asr",
            RequestBody::DropAsr { .. } => "drop_asr",
            RequestBody::ListAsrs => "list_asrs",
            RequestBody::Stats => "stats",
            RequestBody::Checkpoint { .. } => "checkpoint",
            RequestBody::ShardProbe { .. } => "shard_probe",
            RequestBody::ShardScan { .. } => "shard_scan",
            RequestBody::ShardStatus => "shard_status",
            RequestBody::Shutdown => "shutdown",
        }
    }

    /// Does this request mutate server state?  (Mutations are the ops the
    /// exactly-once guard exists for.)
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            RequestBody::Instantiate { .. }
                | RequestBody::SetAttr { .. }
                | RequestBody::InsertIntoAttrSet { .. }
                | RequestBody::BindVar { .. }
                | RequestBody::CreateAsr { .. }
                | RequestBody::DropAsr { .. }
                | RequestBody::Checkpoint { .. }
        )
    }
}

/// Per-shard placement/health figures carried by
/// [`ResponseBody::ShardStatusReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardHealth {
    /// Stored-partition rows placed on this shard across all ASRs.
    pub placed_rows: u64,
    /// Modeled pages across the shard's partition trees.
    pub pages: u64,
    /// Replication LSN the shard's applier has reached.
    pub applied_lsn: u64,
    /// Requests the shard node has executed.
    pub requests: u64,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id (0 when the damaged request's id was
    /// unreadable).
    pub id: u64,
    /// The outcome.
    pub body: ResponseBody,
    /// Page I/O charged on the server while executing this request —
    /// merged shard-side costs via [`IoSnapshot::merge`].
    pub io: IoSnapshot,
    /// Shard indices whose contribution is *missing* from this answer.
    /// Empty means the answer is complete; non-empty marks a degraded
    /// scatter-gather result that only covers the surviving shards — the
    /// coordinator flags partiality explicitly rather than returning a
    /// silently wrong union.
    pub partial: Vec<u32>,
}

impl Response {
    /// A complete (non-degraded) response.
    pub fn complete(id: u64, body: ResponseBody, io: IoSnapshot) -> Self {
        Response {
            id,
            body,
            io,
            partial: Vec::new(),
        }
    }
}

/// The response taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Success with nothing to return.
    Ok,
    /// The request failed (message text); the session stays usable.
    Err(String),
    /// The frame was damaged in transit (CRC/decode failure).  Carries the
    /// highest request id executed so far so the client knows where to
    /// resume; the client re-sends everything after it.
    Nack { last_executed: u64 },
    /// An OQL result table.
    Table {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
    },
    /// Rendered text (analyze profile, stats table, ASR listing).
    Text(String),
    /// A fresh OID (instantiate) or an ASR id in the low bits (create).
    Id(u64),
    /// Set-insert result (`true` when the element was new).
    Flag(bool),
    /// Stored-partition rows (shard probe/scan).
    Rows(Vec<Row>),
    /// Shard health (shard-status).
    ShardStatusReply(ShardHealth),
}

impl ResponseBody {
    /// Short label for spans/metrics.
    pub fn label(&self) -> &'static str {
        match self {
            ResponseBody::Ok => "ok",
            ResponseBody::Err(_) => "err",
            ResponseBody::Nack { .. } => "nack",
            ResponseBody::Table { .. } => "table",
            ResponseBody::Text(_) => "text",
            ResponseBody::Id(_) => "id",
            ResponseBody::Flag(_) => "flag",
            ResponseBody::Rows(_) => "rows",
            ResponseBody::ShardStatusReply(_) => "shard_status",
        }
    }
}

/// Either direction, as decoded off a channel.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    Request(Request),
    Response(Response),
}

impl Request {
    /// Frame this request for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(DIR_REQUEST);
        w.u64(self.id);
        match &self.body {
            RequestBody::Ping => w.u8(0),
            RequestBody::Query(text) => {
                w.u8(1);
                w.str(text);
            }
            RequestBody::Analyze(text) => {
                w.u8(2);
                w.str(text);
            }
            RequestBody::Instantiate { type_name } => {
                w.u8(3);
                w.str(type_name);
            }
            RequestBody::SetAttr { owner, attr, value } => {
                w.u8(4);
                w.oid(*owner);
                w.str(attr);
                w.value(value);
            }
            RequestBody::InsertIntoAttrSet { owner, attr, elem } => {
                w.u8(5);
                w.oid(*owner);
                w.str(attr);
                w.value(elem);
            }
            RequestBody::BindVar { name, value } => {
                w.u8(6);
                w.str(name);
                w.value(value);
            }
            RequestBody::CreateAsr {
                dotted,
                extension,
                cuts,
            } => {
                w.u8(7);
                w.str(dotted);
                w.str(extension);
                w.u32(cuts.len() as u32);
                for c in cuts {
                    w.u32(*c);
                }
            }
            RequestBody::DropAsr { asr } => {
                w.u8(8);
                w.u32(*asr);
            }
            RequestBody::ListAsrs => w.u8(9),
            RequestBody::Stats => w.u8(10),
            RequestBody::Checkpoint { delta } => {
                w.u8(11);
                w.bool(*delta);
            }
            RequestBody::ShardProbe {
                asr,
                part,
                forward,
                keys,
            } => {
                w.u8(12);
                w.u32(*asr);
                w.u32(*part);
                w.bool(*forward);
                w.cells(keys);
            }
            RequestBody::ShardScan {
                asr,
                part,
                offset,
                frontier,
            } => {
                w.u8(13);
                w.u32(*asr);
                w.u32(*part);
                w.u32(*offset);
                w.cells(frontier);
            }
            RequestBody::ShardStatus => w.u8(14),
            RequestBody::Shutdown => w.u8(15),
        }
        asr_durable::frame(&w.into_bytes())
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<RequestBody, CodecError> {
        Ok(match r.u8()? {
            0 => RequestBody::Ping,
            1 => RequestBody::Query(r.str()?),
            2 => RequestBody::Analyze(r.str()?),
            3 => RequestBody::Instantiate {
                type_name: r.str()?,
            },
            4 => RequestBody::SetAttr {
                owner: r.oid()?,
                attr: r.str()?,
                value: r.value()?,
            },
            5 => RequestBody::InsertIntoAttrSet {
                owner: r.oid()?,
                attr: r.str()?,
                elem: r.value()?,
            },
            6 => RequestBody::BindVar {
                name: r.str()?,
                value: r.value()?,
            },
            7 => {
                let dotted = r.str()?;
                let extension = r.str()?;
                let n = r.u32()? as usize;
                if n > r.remaining() {
                    return Err(CodecError::Short);
                }
                let cuts = (0..n).map(|_| r.u32()).collect::<Result<_, _>>()?;
                RequestBody::CreateAsr {
                    dotted,
                    extension,
                    cuts,
                }
            }
            8 => RequestBody::DropAsr { asr: r.u32()? },
            9 => RequestBody::ListAsrs,
            10 => RequestBody::Stats,
            11 => RequestBody::Checkpoint { delta: r.bool()? },
            12 => RequestBody::ShardProbe {
                asr: r.u32()?,
                part: r.u32()?,
                forward: r.bool()?,
                keys: r.cells()?,
            },
            13 => RequestBody::ShardScan {
                asr: r.u32()?,
                part: r.u32()?,
                offset: r.u32()?,
                frontier: r.cells()?,
            },
            14 => RequestBody::ShardStatus,
            15 => RequestBody::Shutdown,
            t => return Err(CodecError::BadTag(t)),
        })
    }
}

impl Response {
    /// Frame this response for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(DIR_RESPONSE);
        w.u64(self.id);
        match &self.body {
            ResponseBody::Ok => w.u8(0),
            ResponseBody::Err(msg) => {
                w.u8(1);
                w.str(msg);
            }
            ResponseBody::Nack { last_executed } => {
                w.u8(2);
                w.u64(*last_executed);
            }
            ResponseBody::Table { columns, rows } => {
                w.u8(3);
                w.u32(columns.len() as u32);
                for c in columns {
                    w.str(c);
                }
                w.u32(rows.len() as u32);
                for row in rows {
                    w.u32(row.len() as u32);
                    for v in row {
                        w.value(v);
                    }
                }
            }
            ResponseBody::Text(text) => {
                w.u8(4);
                w.str(text);
            }
            ResponseBody::Id(id) => {
                w.u8(5);
                w.u64(*id);
            }
            ResponseBody::Flag(b) => {
                w.u8(6);
                w.bool(*b);
            }
            ResponseBody::Rows(rows) => {
                w.u8(7);
                w.rows(rows);
            }
            ResponseBody::ShardStatusReply(h) => {
                w.u8(8);
                w.u64(h.placed_rows);
                w.u64(h.pages);
                w.u64(h.applied_lsn);
                w.u64(h.requests);
            }
        }
        w.io(&self.io);
        w.u32(self.partial.len() as u32);
        for shard in &self.partial {
            w.u32(*shard);
        }
        asr_durable::frame(&w.into_bytes())
    }

    fn decode_body(r: &mut Reader<'_>) -> Result<ResponseBody, CodecError> {
        Ok(match r.u8()? {
            0 => ResponseBody::Ok,
            1 => ResponseBody::Err(r.str()?),
            2 => ResponseBody::Nack {
                last_executed: r.u64()?,
            },
            3 => {
                let ncols = r.u32()? as usize;
                if ncols > r.remaining() {
                    return Err(CodecError::Short);
                }
                let columns = (0..ncols).map(|_| r.str()).collect::<Result<_, _>>()?;
                let nrows = r.u32()? as usize;
                if nrows > r.remaining() {
                    return Err(CodecError::Short);
                }
                let mut rows = Vec::with_capacity(nrows);
                for _ in 0..nrows {
                    let width = r.u32()? as usize;
                    if width > r.remaining() {
                        return Err(CodecError::Short);
                    }
                    rows.push((0..width).map(|_| r.value()).collect::<Result<_, _>>()?);
                }
                ResponseBody::Table { columns, rows }
            }
            4 => ResponseBody::Text(r.str()?),
            5 => ResponseBody::Id(r.u64()?),
            6 => ResponseBody::Flag(r.bool()?),
            7 => ResponseBody::Rows(r.rows()?),
            8 => ResponseBody::ShardStatusReply(ShardHealth {
                placed_rows: r.u64()?,
                pages: r.u64()?,
                applied_lsn: r.u64()?,
                requests: r.u64()?,
            }),
            t => return Err(CodecError::BadTag(t)),
        })
    }
}

/// Refuse frames whose length word claims more than this payload.  A
/// single corrupt length byte must not balloon downstream allocation or
/// stall a stream waiting for terabytes; TCP reassembly
/// (`asr_server::tcp`) shares this cap.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Decode one delivery: verify the `[len][crc32][payload]` envelope, then
/// the payload grammar.  `None` means the frame is damaged (or not ours) —
/// the receiver NACKs or retries, mirroring
/// [`asr_durable::ship::ShipMessage`]'s contract that damage is detected,
/// never interpreted.
pub fn decode_frame(delivery: &[u8]) -> Option<WireMessage> {
    let Ok((payload, [])) = asr_durable::split_frame(delivery, MAX_FRAME_LEN) else {
        return None;
    };
    let mut r = Reader::new(payload);
    let dir = r.u8().ok()?;
    let id = r.u64().ok()?;
    match dir {
        DIR_REQUEST => {
            let body = Request::decode_body(&mut r).ok()?;
            r.finish().ok()?;
            Some(WireMessage::Request(Request { id, body }))
        }
        DIR_RESPONSE => {
            let body = Response::decode_body(&mut r).ok()?;
            let io = r.io().ok()?;
            let missing = r.u32().ok()? as usize;
            if missing > r.remaining() {
                return None;
            }
            let partial = (0..missing)
                .map(|_| r.u32())
                .collect::<Result<_, _>>()
                .ok()?;
            r.finish().ok()?;
            Some(WireMessage::Response(Response {
                id,
                body,
                io,
                partial,
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        let cells = vec![
            Cell::Oid(Oid::from_raw(4)),
            Cell::Value(Value::string("alloy")),
        ];
        let bodies = vec![
            RequestBody::Ping,
            RequestBody::Query("SELECT e FROM e IN Emp WHERE e.name = \"x\"".into()),
            RequestBody::Analyze("SELECT e FROM e IN Emp".into()),
            RequestBody::Instantiate {
                type_name: "EMP".into(),
            },
            RequestBody::SetAttr {
                owner: Oid::from_raw(9),
                attr: "name".into(),
                value: Value::string("Mick"),
            },
            RequestBody::InsertIntoAttrSet {
                owner: Oid::from_raw(2),
                attr: "divisions".into(),
                elem: Value::Ref(Oid::from_raw(5)),
            },
            RequestBody::BindVar {
                name: "cheap".into(),
                value: Value::decimal(10, 0),
            },
            RequestBody::CreateAsr {
                dotted: "Division.Manufactures.Composition.Name".into(),
                extension: "full".into(),
                cuts: vec![0, 2, 4],
            },
            RequestBody::DropAsr { asr: 3 },
            RequestBody::ListAsrs,
            RequestBody::Stats,
            RequestBody::Checkpoint { delta: true },
            RequestBody::ShardProbe {
                asr: 0,
                part: 1,
                forward: true,
                keys: cells.clone(),
            },
            RequestBody::ShardScan {
                asr: 0,
                part: 2,
                offset: 1,
                frontier: cells,
            },
            RequestBody::ShardStatus,
            RequestBody::Shutdown,
        ];
        bodies
            .into_iter()
            .enumerate()
            .map(|(i, body)| Request {
                id: i as u64 + 1,
                body,
            })
            .collect()
    }

    fn sample_responses() -> Vec<Response> {
        let io = IoSnapshot {
            reads: 10,
            writes: 2,
            buffer_hits: 5,
            batch_probes: 3,
            batch_pages_saved: 7,
        };
        let row = Row::new(vec![Some(Cell::Oid(Oid::from_raw(1))), None]);
        let bodies = vec![
            ResponseBody::Ok,
            ResponseBody::Err("no ASR with id 9".into()),
            ResponseBody::Nack { last_executed: 41 },
            ResponseBody::Table {
                columns: vec!["e.name".into()],
                rows: vec![vec![Value::string("Mick")], vec![Value::Null]],
            },
            ResponseBody::Text("profile…".into()),
            ResponseBody::Id(77),
            ResponseBody::Flag(true),
            ResponseBody::Rows(vec![row]),
            ResponseBody::ShardStatusReply(ShardHealth {
                placed_rows: 100,
                pages: 12,
                applied_lsn: 9,
                requests: 55,
            }),
        ];
        bodies
            .into_iter()
            .enumerate()
            .map(|(i, body)| Response {
                id: i as u64 + 1,
                body,
                io,
                // Exercise both complete and degraded answers.
                partial: if i % 3 == 0 { vec![1, 3] } else { Vec::new() },
            })
            .collect()
    }

    #[test]
    fn every_request_round_trips() {
        for req in sample_requests() {
            let frame = req.encode();
            match decode_frame(&frame) {
                Some(WireMessage::Request(back)) => assert_eq!(back, req),
                other => panic!("bad decode for {:?}: {other:?}", req.body.label()),
            }
        }
    }

    #[test]
    fn every_response_round_trips() {
        for resp in sample_responses() {
            let frame = resp.encode();
            match decode_frame(&frame) {
                Some(WireMessage::Response(back)) => assert_eq!(back, resp),
                other => panic!("bad decode for {:?}: {other:?}", resp.body.label()),
            }
        }
    }

    #[test]
    fn decode_rejects_damage() {
        let frame = Request {
            id: 7,
            body: RequestBody::Query("SELECT e FROM e IN Emp".into()),
        }
        .encode();
        // Truncations at every length.
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_none(), "cut at {cut}");
        }
        // Single-bit flips anywhere in the frame must be caught (header
        // damage breaks the length/CRC checks, payload damage the CRC).
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad).is_none(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn partial_flag_round_trips_and_defaults_empty() {
        let degraded = Response {
            id: 12,
            body: ResponseBody::Rows(vec![Row::new(vec![Some(Cell::Oid(Oid::from_raw(8)))])]),
            io: IoSnapshot::default(),
            partial: vec![0, 2, 5],
        };
        match decode_frame(&degraded.encode()) {
            Some(WireMessage::Response(back)) => {
                assert_eq!(back.partial, vec![0, 2, 5]);
                assert_eq!(back, degraded);
            }
            other => panic!("bad decode: {other:?}"),
        }
        let complete = Response::complete(13, ResponseBody::Ok, IoSnapshot::default());
        match decode_frame(&complete.encode()) {
            Some(WireMessage::Response(back)) => assert!(back.partial.is_empty()),
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_oversize_length_word() {
        // A frame whose length word claims more than MAX_FRAME_LEN must be
        // refused before any allocation, even if the byte count "matches".
        let mut huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 8]);
        assert!(decode_frame(&huge).is_none());
        // u32::MAX is the classic corrupt-length-byte case.
        let mut garbage = u32::MAX.to_le_bytes().to_vec();
        garbage.extend_from_slice(&[0u8; 64]);
        assert!(decode_frame(&garbage).is_none());
        // The cap sits above every legitimate frame: a real one decodes.
        let ok = Request {
            id: 1,
            body: RequestBody::Ping,
        }
        .encode();
        assert!(decode_frame(&ok).is_some());
    }

    #[test]
    fn mutation_classification() {
        assert!(RequestBody::Instantiate {
            type_name: "EMP".into()
        }
        .is_mutation());
        assert!(!RequestBody::Query("q".into()).is_mutation());
        assert!(!RequestBody::ShardProbe {
            asr: 0,
            part: 0,
            forward: true,
            keys: vec![]
        }
        .is_mutation());
    }
}
