//! Logical WAL records: one per schema/object mutation or ASR
//! maintenance operation.
//!
//! Records are *logical* (the operation, not the page images it dirtied):
//! replay pushes each one back through [`asr_core::Database`]'s
//! incremental maintenance engine, so recovery costs are proportional to
//! the delta since the last checkpoint rather than to the database size.
//!
//! Each record's payload is a single line of space-separated tokens in
//! the same percent-escaped encoding as the GOM snapshot format:
//!
//! ```text
//! <lsn> NEW <type> i<oid>
//! <lsn> SET i<owner> <attr> <value>
//! <lsn> INS i<set> <value>
//! <lsn> REM i<set> <value>
//! <lsn> DEL i<oid>
//! <lsn> VAR <name> <value>
//! <lsn> SIZE <type> <bytes>
//! <lsn> MKASR <id> <path> <extension> <cut,cut,…> <0|1>
//! <lsn> RMASR <id>
//! ```
//!
//! `NEW` logs the OID the instantiation *produced*, and `MKASR` the
//! [`AsrId`] the creation produced: replay re-executes the operation with
//! the logged outcome forced (or verified), so recovered state is
//! bit-for-bit the state that was logged even when the OID generator or
//! ASR slot table would naturally have chosen differently.

use std::borrow::Cow;

use asr_core::AsrId;
use asr_gom::snapshot::{decode_value, encode_value, escape, unescape};
use asr_gom::{Oid, Value};

use crate::error::{DurableError, Result};

/// One logical operation against the database, as logged and replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum LogOp {
    /// `instantiate(ty)` produced `oid`.
    New {
        /// Type name instantiated.
        ty: String,
        /// The OID the original execution assigned.
        oid: Oid,
    },
    /// `set_attribute(owner, attr, value)`.
    Set {
        /// Tuple object updated.
        owner: Oid,
        /// Attribute name.
        attr: String,
        /// New value.
        value: Value,
    },
    /// `insert_into_set(set, elem)` (covers attribute-set inserts too —
    /// the wrapper resolves the owning attribute to its set OID first).
    Insert {
        /// Set object.
        set: Oid,
        /// Element inserted.
        elem: Value,
    },
    /// `remove_from_set(set, elem)`.
    Remove {
        /// Set object.
        set: Oid,
        /// Element removed.
        elem: Value,
    },
    /// `delete_object(oid)`.
    Delete {
        /// Object deleted.
        oid: Oid,
    },
    /// `bind_variable(name, value)`.
    Bind {
        /// Variable name.
        name: String,
        /// Bound value.
        value: Value,
    },
    /// `set_type_size(ty, bytes)` — logged by type *name* so it replays
    /// against whatever `TypeId` the recovered schema assigns.
    TypeSize {
        /// Type name.
        ty: String,
        /// Clustered object size in bytes.
        bytes: usize,
    },
    /// `create_asr_on(path, config)` produced `id`.
    CreateAsr {
        /// The ASR id the original execution assigned.
        id: AsrId,
        /// Dotted path expression.
        path: String,
        /// Extension name (`canonical`/`full`/`left`/`right`).
        extension: String,
        /// Decomposition cut points.
        cuts: Vec<usize>,
        /// Whether set-occurrence OIDs are kept.
        keep_set_oids: bool,
    },
    /// `drop_asr(id)`.
    DropAsr {
        /// The dropped ASR's id.
        id: AsrId,
    },
}

/// A [`LogOp`] stamped with its log sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Monotonically increasing log sequence number (1-based).
    pub lsn: u64,
    /// The logged operation.
    pub op: LogOp,
}

fn oid_token(oid: Oid) -> String {
    format!("i{}", oid.as_raw())
}

fn parse_oid(tok: &str) -> Result<Oid> {
    tok.strip_prefix('i')
        .and_then(|r| r.parse::<u64>().ok())
        .map(Oid::from_raw)
        .ok_or_else(|| DurableError::Corrupt(format!("bad oid token `{tok}`")))
}

fn parse_value(tok: &str) -> Result<Value> {
    decode_value(tok).map_err(|e| DurableError::Corrupt(format!("bad value token `{tok}`: {e}")))
}

fn parse_usize(tok: &str, what: &str) -> Result<usize> {
    tok.parse()
        .map_err(|_| DurableError::Corrupt(format!("bad {what} `{tok}`")))
}

impl Record {
    /// Serialize to the space-separated payload line (no trailing newline).
    pub fn to_payload(&self) -> String {
        let lsn = self.lsn;
        match &self.op {
            LogOp::New { ty, oid } => {
                format!("{lsn} NEW {} {}", escape(ty), oid_token(*oid))
            }
            LogOp::Set { owner, attr, value } => format!(
                "{lsn} SET {} {} {}",
                oid_token(*owner),
                escape(attr),
                encode_value(value)
            ),
            LogOp::Insert { set, elem } => {
                format!("{lsn} INS {} {}", oid_token(*set), encode_value(elem))
            }
            LogOp::Remove { set, elem } => {
                format!("{lsn} REM {} {}", oid_token(*set), encode_value(elem))
            }
            LogOp::Delete { oid } => format!("{lsn} DEL {}", oid_token(*oid)),
            LogOp::Bind { name, value } => {
                format!("{lsn} VAR {} {}", escape(name), encode_value(value))
            }
            LogOp::TypeSize { ty, bytes } => {
                format!("{lsn} SIZE {} {bytes}", escape(ty))
            }
            LogOp::CreateAsr {
                id,
                path,
                extension,
                cuts,
                keep_set_oids,
            } => {
                let cuts: Vec<String> = cuts.iter().map(ToString::to_string).collect();
                format!(
                    "{lsn} MKASR {id} {} {} {} {}",
                    escape(path),
                    escape(extension),
                    cuts.join(","),
                    u8::from(*keep_set_oids)
                )
            }
            LogOp::DropAsr { id } => format!("{lsn} RMASR {id}"),
        }
    }

    /// Parse a payload line back into a record.
    ///
    /// Payloads reaching this parser have already passed their CRC, so a
    /// parse failure is a version mismatch or logic bug — a hard
    /// [`DurableError::Corrupt`], not a silently discardable torn tail.
    pub fn from_payload(line: &str) -> Result<Record> {
        let bad = |msg: String| DurableError::Corrupt(msg);
        let toks: Vec<&str> = line.split(' ').collect();
        if toks.len() < 2 {
            return Err(bad(format!("record too short: `{line}`")));
        }
        let lsn: u64 = toks[0]
            .parse()
            .map_err(|_| bad(format!("bad lsn `{}`", toks[0])))?;
        let arity = |n: usize| -> Result<()> {
            if toks.len() == n {
                Ok(())
            } else {
                Err(bad(format!("wrong arity for `{line}`")))
            }
        };
        let un = |tok: &str| -> Result<String> {
            unescape(tok)
                .map(Cow::into_owned)
                .map_err(|e| bad(format!("bad token `{tok}`: {e}")))
        };
        let op = match toks[1] {
            "NEW" => {
                arity(4)?;
                LogOp::New {
                    ty: un(toks[2])?,
                    oid: parse_oid(toks[3])?,
                }
            }
            "SET" => {
                arity(5)?;
                LogOp::Set {
                    owner: parse_oid(toks[2])?,
                    attr: un(toks[3])?,
                    value: parse_value(toks[4])?,
                }
            }
            "INS" => {
                arity(4)?;
                LogOp::Insert {
                    set: parse_oid(toks[2])?,
                    elem: parse_value(toks[3])?,
                }
            }
            "REM" => {
                arity(4)?;
                LogOp::Remove {
                    set: parse_oid(toks[2])?,
                    elem: parse_value(toks[3])?,
                }
            }
            "DEL" => {
                arity(3)?;
                LogOp::Delete {
                    oid: parse_oid(toks[2])?,
                }
            }
            "VAR" => {
                arity(4)?;
                LogOp::Bind {
                    name: un(toks[2])?,
                    value: parse_value(toks[3])?,
                }
            }
            "SIZE" => {
                arity(4)?;
                LogOp::TypeSize {
                    ty: un(toks[2])?,
                    bytes: parse_usize(toks[3], "size")?,
                }
            }
            "MKASR" => {
                arity(7)?;
                let cuts = toks[5]
                    .split(',')
                    .filter(|c| !c.is_empty())
                    .map(|c| parse_usize(c, "cut"))
                    .collect::<Result<Vec<_>>>()?;
                LogOp::CreateAsr {
                    id: parse_usize(toks[2], "asr id")?,
                    path: un(toks[3])?,
                    extension: un(toks[4])?,
                    cuts,
                    keep_set_oids: toks[6] == "1",
                }
            }
            "RMASR" => {
                arity(3)?;
                LogOp::DropAsr {
                    id: parse_usize(toks[2], "asr id")?,
                }
            }
            other => return Err(bad(format!("unknown record tag `{other}`"))),
        };
        Ok(Record { lsn, op })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<LogOp> {
        vec![
            LogOp::New {
                ty: "ROBOT ARM".into(),
                oid: Oid::from_raw(17),
            },
            LogOp::Set {
                owner: Oid::from_raw(3),
                attr: "Name".into(),
                value: Value::string("a b%c=d"),
            },
            LogOp::Insert {
                set: Oid::from_raw(9),
                elem: Value::Ref(Oid::from_raw(2)),
            },
            LogOp::Remove {
                set: Oid::from_raw(9),
                elem: Value::Null,
            },
            LogOp::Delete {
                oid: Oid::from_raw(0),
            },
            LogOp::Bind {
                name: "MyVar".into(),
                value: Value::Integer(-5),
            },
            LogOp::TypeSize {
                ty: "Division".into(),
                bytes: 500,
            },
            LogOp::CreateAsr {
                id: 2,
                path: "ROBOT.Arm.MountedTool".into(),
                extension: "full".into(),
                cuts: vec![0, 2, 3],
                keep_set_oids: true,
            },
            LogOp::DropAsr { id: 2 },
        ]
    }

    #[test]
    fn payload_round_trip() {
        for (i, op) in samples().into_iter().enumerate() {
            let rec = Record {
                lsn: i as u64 + 1,
                op,
            };
            let line = rec.to_payload();
            assert!(!line.contains('\n'), "single line: {line}");
            let back = Record::from_payload(&line).unwrap();
            assert_eq!(back, rec, "{line}");
        }
    }

    /// The payload text and its framed bytes, frozen: records share the
    /// snapshot's value codec, whose writers were rebuilt to push into one
    /// buffer.
    #[test]
    fn encoded_records_are_pinned() {
        let lines: Vec<String> = samples()
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
        assert_eq!(lines, PINNED_PAYLOADS);
        let rec = Record {
            lsn: u64::MAX,
            op: LogOp::Bind {
                name: "a b".into(),
                value: Value::string("c%d=e\nf"),
            },
        };
        assert_eq!(crate::wal::frame(rec.to_payload().as_bytes()), PINNED_FRAME);
    }

    const PINNED_PAYLOADS: [&str; 9] = [
        "1 NEW ROBOT%20ARM i17",
        "2 SET i3 Name S:a%20b%25c%3Dd",
        "3 INS i9 R:i2",
        "4 REM i9 N",
        "5 DEL i0",
        "6 VAR MyVar I:-5",
        "7 SIZE Division 500",
        "8 MKASR 2 ROBOT.Arm.MountedTool full 0,2,3 1",
        "9 RMASR 2",
    ];
    /// `[len 46][crc32][payload]`.
    const PINNED_FRAME: &[u8] =
        b"\x2e\0\0\0\xc4\x77\xc0\x4218446744073709551615 VAR a%20b S:c%25d%3De%0Af";

    #[test]
    fn malformed_payloads_are_corrupt_errors() {
        for bad in [
            "",
            "5",
            "x NEW T i1",
            "5 NEW T",
            "5 NEW T zebra",
            "5 SET i1 Name",
            "5 SET i1 Name Q:7",
            "5 MKASR 0 P full 0,x 1",
            "5 MKASR nine P full 0 1",
            "5 BOGUS i1",
            "5 SIZE T many",
            // Hostile bytes the encoder never writes: a bool that is
            // neither 0 nor 1, an escape outside the five it emits.
            "5 SET i1 Flag B:2",
            "5 SET i1 Flag B:",
            "5 INS i9 S:caf%E9",
            "5 VAR My%41Var N",
            "5 NEW ROBOT%0aARM i17",
        ] {
            let err = Record::from_payload(bad).unwrap_err();
            assert!(matches!(err, DurableError::Corrupt(_)), "`{bad}` → {err:?}");
        }
    }
}
