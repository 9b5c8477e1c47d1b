//! Request execution against the serving database.
//!
//! [`ServerDb`] abstracts over a plain in-memory [`Database`] (the
//! `serve-query` benchmark, the shell without a WAL, tests) and a
//! [`DurableDatabase`] (the WAL-backed primary behind `\serve`):
//! mutations on the durable flavour flow through its WAL-logging wrappers
//! so served writes are as durable as shell writes.  Execution returns
//! `Err(String)` for *request* failures — the session survives; only
//! frame damage (handled a layer up) NACKs.

use asr_core::query::SpanSource;
use asr_core::{AsrConfig, AsrId, Database, Decomposition, Extension, Frontier, RowRef, Snapshot};
use asr_durable::{DurableDatabase, Storage};
use asr_gom::PathExpression;
use asr_net::{RequestBody, ResponseBody};

/// The serving view of a database: plain or durable.
pub enum ServerDb<'a, S: Storage> {
    /// An in-memory database (`serve-query`, the shell without a WAL,
    /// tests).
    Plain(&'a mut Database),
    /// A WAL-backed database (the served primary).
    Durable(&'a mut DurableDatabase<S>),
}

impl<S: Storage> ServerDb<'_, S> {
    /// Read-only view for queries and stats.
    pub fn db(&self) -> &Database {
        match self {
            ServerDb::Plain(db) => db,
            ServerDb::Durable(db) => db.database(),
        }
    }

    /// Pin a snapshot-isolated read view at the current commit epoch —
    /// the MVCC handle concurrent readers answer from while this view
    /// keeps executing mutations.
    pub fn snapshot(&mut self) -> Snapshot {
        match self {
            ServerDb::Plain(db) => db.snapshot(),
            ServerDb::Durable(db) => db.snapshot(),
        }
    }
}

/// True when [`execute_snapshot`] can answer `body` without the live
/// database: pure partition reads a pinned [`Snapshot`] serves
/// bit-identically, plus `Ping`.
pub(crate) fn is_snapshot_read(body: &RequestBody) -> bool {
    matches!(
        body,
        RequestBody::Ping | RequestBody::PartitionProbe { .. } | RequestBody::PartitionScan { .. }
    )
}

/// Answer a `PartitionProbe`/`PartitionScan` off one ASR's partitions,
/// looked up by `partitions`: the live
/// [`StoredPartition`](asr_core::partition::StoredPartition)s or a
/// snapshot's pinned ones.  The serial pump and the snapshot pool share
/// this one implementation, so they share its bounds checks and error
/// texts.  `None` for any other body.
fn read_partition<'a, P: SpanSource + 'a>(
    body: &RequestBody,
    partitions: impl FnOnce(AsrId) -> asr_core::Result<&'a [P]>,
) -> Option<Result<ResponseBody, String>> {
    let nth = |asr: u32, part: u32| -> Result<&'a P, String> {
        partitions(asr as usize)
            .map_err(|e| e.to_string())?
            .get(part as usize)
            .ok_or_else(|| format!("no partition {part}"))
    };
    let mut rows = Vec::new();
    let mut keep = |row: RowRef<'_>| rows.push(row.to_row());
    let read = match body {
        RequestBody::PartitionProbe {
            asr,
            part,
            forward,
            keys,
        } => {
            // The batched probe shares one descent across its keys, so
            // out-of-order keys would silently miss rows; they are
            // refused instead.
            Frontier::ascending(keys.clone())
                .map_err(|e| e.to_string())
                .and_then(|frontier| {
                    nth(*asr, *part)?.probe(*forward, &frontier, &mut keep);
                    Ok(())
                })
        }
        RequestBody::PartitionScan {
            asr,
            part,
            offset,
            frontier,
        } => nth(*asr, *part).and_then(|part| {
            let offset = *offset as usize;
            if offset >= part.arity() {
                return Err(format!("offset {offset} outside partition"));
            }
            // A membership filter, so any frontier order goes.
            part.scan(offset, &frontier.iter().cloned().collect(), &mut keep);
            Ok(())
        }),
        _ => return None,
    };
    Some(read.map(|()| ResponseBody::Rows(rows)))
}

/// Execute a snapshot-eligible read against a pinned view, charging
/// modeled page I/O to the snapshot's meter.  Returns `None` for bodies
/// that need the live database (mutations, OQL plans, durable control) —
/// the caller must route those through [`execute`].
pub(crate) fn execute_snapshot(
    snap: &Snapshot,
    body: &RequestBody,
) -> Option<Result<ResponseBody, String>> {
    match body {
        RequestBody::Ping => Some(Ok(ResponseBody::Ok)),
        _ => read_partition(body, |asr| snap.partitions(asr)),
    }
}

/// Execute one request body.  `Ok` carries the response; `Err` a
/// request-level failure message.
pub(crate) fn execute<S: Storage>(
    db: &mut ServerDb<'_, S>,
    body: &RequestBody,
) -> Result<ResponseBody, String> {
    match body {
        RequestBody::Ping => Ok(ResponseBody::Ok),
        RequestBody::Query(text) => {
            let result = asr_oql::execute(db.db(), text).map_err(|e| e.to_string())?;
            Ok(ResponseBody::Table {
                columns: result.columns,
                rows: result.rows,
            })
        }
        RequestBody::Analyze(text) => {
            let report = asr_oql::explain_analyze(db.db(), text).map_err(|e| e.to_string())?;
            Ok(ResponseBody::Text(format!(
                "{}{}",
                report.result,
                report.render()
            )))
        }
        RequestBody::Instantiate { type_name } => {
            let oid = match db {
                ServerDb::Plain(d) => d.instantiate(type_name).map_err(|e| e.to_string())?,
                ServerDb::Durable(d) => d.instantiate(type_name).map_err(|e| e.to_string())?,
            };
            Ok(ResponseBody::Id(oid.as_raw()))
        }
        RequestBody::SetAttr { owner, attr, value } => {
            match db {
                ServerDb::Plain(d) => d
                    .set_attribute(*owner, attr, value.clone())
                    .map_err(|e| e.to_string())?,
                ServerDb::Durable(d) => d
                    .set_attribute(*owner, attr, value.clone())
                    .map_err(|e| e.to_string())?,
            }
            Ok(ResponseBody::Ok)
        }
        RequestBody::InsertIntoAttrSet { owner, attr, elem } => {
            let fresh = match db {
                ServerDb::Plain(d) => d
                    .insert_into_attr_set(*owner, attr, elem.clone())
                    .map_err(|e| e.to_string())?,
                ServerDb::Durable(d) => d
                    .insert_into_attr_set(*owner, attr, elem.clone())
                    .map_err(|e| e.to_string())?,
            };
            Ok(ResponseBody::Flag(fresh))
        }
        RequestBody::BindVar { name, value } => {
            match db {
                ServerDb::Plain(d) => d.bind_variable(name, value.clone()),
                ServerDb::Durable(d) => d
                    .bind_variable(name, value.clone())
                    .map_err(|e| e.to_string())?,
            }
            Ok(ResponseBody::Ok)
        }
        RequestBody::CreateAsr {
            dotted,
            extension,
            cuts,
        } => {
            let extension = Extension::from_name(extension).ok_or_else(|| {
                format!("unknown extension {extension:?} (canonical|full|left|right)")
            })?;
            let path = PathExpression::parse(db.db().base().schema(), dotted)
                .map_err(|e| e.to_string())?;
            let decomposition = if cuts.is_empty() {
                Decomposition::binary(path.arity(false) - 1)
            } else {
                Decomposition::new(cuts.iter().map(|&c| c as usize).collect::<Vec<_>>())
                    .map_err(|e| e.to_string())?
            };
            let config = AsrConfig {
                extension,
                decomposition,
                keep_set_oids: false,
            };
            let id = match db {
                ServerDb::Plain(d) => d.create_asr_on(dotted, config).map_err(|e| e.to_string())?,
                ServerDb::Durable(d) => {
                    d.create_asr_on(dotted, config).map_err(|e| e.to_string())?
                }
            };
            Ok(ResponseBody::Id(id as u64))
        }
        RequestBody::DropAsr { asr } => {
            match db {
                ServerDb::Plain(d) => d.drop_asr(*asr as usize).map_err(|e| e.to_string())?,
                ServerDb::Durable(d) => d.drop_asr(*asr as usize).map_err(|e| e.to_string())?,
            }
            Ok(ResponseBody::Ok)
        }
        RequestBody::ListAsrs => {
            let mut out = String::new();
            for (id, asr) in db.db().asrs() {
                out.push_str(&format!(
                    "[{id}] {} ext={} dec={} rows={} pages={}\n",
                    asr.path(),
                    asr.config().extension.name(),
                    asr.config().decomposition,
                    asr.total_rows(),
                    asr.total_pages(),
                ));
            }
            if out.is_empty() {
                out.push_str("no access support relations\n");
            }
            Ok(ResponseBody::Text(out))
        }
        RequestBody::Stats => Ok(ResponseBody::Text(
            db.db().tracer().metrics().render_table(),
        )),
        RequestBody::Checkpoint => match db {
            ServerDb::Plain(_) => Err("WAL is off — serve a durable database".to_string()),
            ServerDb::Durable(d) => {
                d.checkpoint().map_err(|e| e.to_string())?;
                Ok(ResponseBody::Ok)
            }
        },
        RequestBody::PartitionProbe { .. } | RequestBody::PartitionScan { .. } => {
            let live = db.db();
            read_partition(body, |asr| Ok(live.asr(asr)?.partitions())).expect("a partition read")
        }
        RequestBody::Shutdown => Ok(ResponseBody::Ok),
    }
}
