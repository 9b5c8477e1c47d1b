//! Request execution against the serving database.
//!
//! [`ServerDb`] abstracts over a plain in-memory [`Database`] (shard
//! nodes, tests) and a [`DurableDatabase`] (the primary behind `\serve`):
//! mutations on the durable flavour flow through its WAL-logging wrappers
//! so served writes are as durable as shell writes.  Execution returns
//! `Err(String)` for *request* failures — the session survives; only
//! frame damage (handled a layer up) NACKs.

use asr_core::query::SpanSource;
use asr_core::{AsrConfig, Cell, Database, Decomposition, Extension, Frontier, Snapshot};
use asr_durable::{DurableDatabase, Storage};
use asr_gom::PathExpression;
use asr_net::{RequestBody, ResponseBody, ShardHealth};

/// The serving view of a database: plain or durable.
pub enum ServerDb<'a, S: Storage> {
    /// An in-memory database (shard slices, chaos tests).
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
        RequestBody::Ping | RequestBody::ShardProbe { .. } | RequestBody::ShardScan { .. }
    )
}

/// A `ShardProbe`'s wire keys as a [`Frontier`]: strictly ascending, or a
/// typed error.  The batched probe shares one descent across its keys, so
/// out-of-order keys would silently miss rows; they are refused instead.
fn probe_frontier(keys: &[Cell]) -> Result<Frontier, String> {
    Frontier::ascending(keys.to_vec()).map_err(|e| e.to_string())
}

/// A `ShardScan`'s wire frontier: a membership filter, so any order goes.
fn scan_frontier(cells: &[Cell]) -> Frontier {
    cells.iter().cloned().collect()
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
        RequestBody::ShardProbe {
            asr,
            part,
            forward,
            keys,
        } => Some(probe_frontier(keys).and_then(|frontier| {
            snap.probe(*asr as usize, *part as usize, *forward, &frontier)
                .map(ResponseBody::Rows)
                .map_err(|e| e.to_string())
        })),
        RequestBody::ShardScan {
            asr,
            part,
            offset,
            frontier,
        } => Some(
            snap.scan_filter(
                *asr as usize,
                *part as usize,
                *offset as usize,
                &scan_frontier(frontier),
            )
            .map(ResponseBody::Rows)
            .map_err(|e| e.to_string()),
        ),
        _ => None,
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
        RequestBody::Checkpoint { delta } => match db {
            ServerDb::Plain(_) => Err("WAL is off — serve a durable database".to_string()),
            ServerDb::Durable(d) => {
                if *delta {
                    d.checkpoint_delta().map_err(|e| e.to_string())?;
                } else {
                    d.checkpoint().map_err(|e| e.to_string())?;
                }
                Ok(ResponseBody::Ok)
            }
        },
        RequestBody::ShardProbe {
            asr,
            part,
            forward,
            keys,
        } => {
            let frontier = probe_frontier(keys)?;
            let asr = db.db().asr(*asr as usize).map_err(|e| e.to_string())?;
            let part = asr
                .partitions()
                .get(*part as usize)
                .ok_or_else(|| format!("no partition {part}"))?;
            let mut rows = Vec::new();
            part.probe(*forward, &frontier, &mut |row| rows.push(row.clone()));
            Ok(ResponseBody::Rows(rows))
        }
        RequestBody::ShardScan {
            asr,
            part,
            offset,
            frontier,
        } => {
            let asr = db.db().asr(*asr as usize).map_err(|e| e.to_string())?;
            let part = asr
                .partitions()
                .get(*part as usize)
                .ok_or_else(|| format!("no partition {part}"))?;
            let offset = *offset as usize;
            if offset >= part.arity() {
                return Err(format!("offset {offset} outside partition"));
            }
            let mut hits = Vec::new();
            SpanSource::scan(part, offset, &scan_frontier(frontier), &mut |row| {
                hits.push(row.clone())
            });
            Ok(ResponseBody::Rows(hits))
        }
        RequestBody::ShardStatus => {
            let d = db.db();
            let mut health = ShardHealth::default();
            for (_, asr) in d.asrs() {
                health.placed_rows += asr.total_rows() as u64;
                health.pages += asr.total_pages();
            }
            // `applied_lsn` and `requests` are stamped by the session
            // layer, which knows the replication position and counters.
            Ok(ResponseBody::ShardStatusReply(health))
        }
        RequestBody::Shutdown => Ok(ResponseBody::Ok),
    }
}
