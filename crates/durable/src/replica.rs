//! The receiving side of log shipping: apply deliveries, detect gaps
//! and corruption, and expose a NACK cursor.
//!
//! A [`ReplicaApplier`] is the warm standby's state machine.  It starts
//! empty, bootstraps from a shipped checkpoint, then applies segment and
//! tail frames strictly in LSN order through the same replay engine
//! crash recovery uses.  Anything else — a damaged envelope, an LSN that
//! skips ahead, a stale duplicate — is *classified*, counted, and
//! reported back as an [`OfferOutcome`] so the shipping pump can NACK
//! and re-ship; the applier's own state only ever advances along valid,
//! contiguous history.  A replay that contradicts logged history (an
//! insert recorded as effective replaying as a no-op) is a typed error,
//! never a silent divergence.
//!
//! The applier retains the checkpoint chain it absorbed: the full
//! checkpoint it bootstrapped from and each delta it applied on top.
//! When the primary has pruned the segments the replica would otherwise
//! replay, the pump renegotiates with [`Need::DeltaBootstrap`] carrying
//! the newest link's LSN, and the shipper sends only the delta
//! checkpoints above it.  Each delta loads with the retained links in one
//! pass, through the same lineage walk and chain load crash recovery
//! uses.  A delivery, full or delta, whose load fails or has to rebuild
//! an ASR is refused as corrupt, leaving the replica as it was; only a
//! full text checkpoint, written before the binary format, rebuilds.

use std::collections::BTreeMap;

use asr_core::{AsrId, AsrLoadMode, Database};

use crate::db::{apply_op, checkpoint_parts, parse_checkpoint_chain, ParsedCheckpoint};
use crate::error::Result;
use crate::ship::{Need, ShipMessage};
use crate::wal::scan_wal;

/// How the applier classified one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferOutcome {
    /// A checkpoint delivery seeded (or re-seeded) the replica at this
    /// LSN.
    Bootstrapped {
        /// The checkpoint's covering LSN.
        lsn: u64,
    },
    /// Frames applied; `records` advanced the replica (0 never occurs —
    /// a delivery whose records are all old classifies as `Duplicate`).
    Applied {
        /// Records newly applied from this delivery.
        records: u64,
    },
    /// Everything in the delivery was already applied (duplicated or
    /// re-shipped history) — ignored.
    Duplicate,
    /// The delivery starts past the replica's frontier (something before
    /// it was lost or reordered) — NACK, nothing applied.
    Gap {
        /// The replica's applied LSN.
        have: u64,
        /// The first LSN the delivery offered.
        got: u64,
    },
    /// The envelope was damaged (truncated or failing its CRC), or
    /// frames inside it were — NACK, nothing applied.
    Corrupt,
}

/// A point-in-time summary of the applier (what `\replica status`
/// prints, lag aside — lag needs the primary's tip).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Whether a checkpoint has seeded the replica yet.
    pub bootstrapped: bool,
    /// Highest contiguously applied LSN.
    pub applied_lsn: u64,
    /// Records applied over the replica's lifetime.
    pub records_applied: u64,
    /// Checkpoint bootstraps (1 normally; more after re-seeds).
    pub bootstraps: u64,
    /// Bootstraps served by delta checkpoints patched onto a retained
    /// base (a subset of `bootstraps`).
    pub delta_bootstraps: u64,
    /// Deliveries ignored as duplicates.
    pub duplicates: u64,
    /// Deliveries NACKed for an LSN gap.
    pub gaps: u64,
    /// Deliveries NACKed as corrupt.
    pub corrupt: u64,
    /// Total delivery bytes offered (including damaged ones).
    pub bytes_received: u64,
}

/// The replica-side state machine (see module docs).
#[derive(Debug, Default)]
pub struct ReplicaApplier {
    db: Option<Database>,
    applied_lsn: u64,
    asr_remap: BTreeMap<AsrId, AsrId>,
    /// The checkpoint chain absorbed, oldest first, each link's LSN and
    /// bytes: the full `Checkpoint` delivery, then every delta applied on
    /// top.  The primary's chain bounds it at `DELTA_CHAIN_LIMIT` + 1
    /// links: a rebased lineage re-seeds in full.
    retained: Vec<(u64, Vec<u8>)>,
    status: ReplicaStatus,
}

impl ReplicaApplier {
    /// An empty, unseeded replica.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a checkpoint has seeded the replica.
    pub fn is_bootstrapped(&self) -> bool {
        self.db.is_some()
    }

    /// Highest contiguously applied LSN (0 before bootstrap).
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn
    }

    /// What the shipper should send next — the NACK/resume cursor.
    pub fn needed(&self) -> Need {
        if self.db.is_some() {
            Need::From(self.applied_lsn + 1)
        } else {
            Need::Checkpoint
        }
    }

    /// What to ask for when [`Self::needed`]'s cursor can no longer be
    /// served (the primary pruned that history): a delta bootstrap on
    /// the retained chain's tip when there is one, a full checkpoint
    /// otherwise.
    pub fn reseed_need(&self) -> Need {
        match self.retained.last() {
            Some(&(tip, _)) => Need::DeltaBootstrap(tip),
            None => Need::Checkpoint,
        }
    }

    /// The replica database, once bootstrapped (read access for queries
    /// and the convergence check).
    pub fn db(&self) -> Option<&Database> {
        self.db.as_ref()
    }

    /// Take the replica database out (e.g. to promote it).
    pub fn into_database(self) -> Option<Database> {
        self.db
    }

    /// The replica's snapshot serialization — the byte-identity oracle
    /// tests compare against the primary's.
    pub fn snapshot(&self) -> Option<Vec<u8>> {
        self.db.as_ref().map(Database::save_to_string)
    }

    /// Current counters.
    pub fn status(&self) -> ReplicaStatus {
        self.status
    }

    /// Classify and (when valid and in order) apply one delivery.
    ///
    /// `Err` is reserved for conditions that must stop replication
    /// loudly: a CRC-valid delivery whose replay contradicts logged
    /// history, or a replay-side database failure.  Everything the
    /// channel can cause — damage, loss-induced gaps, duplication —
    /// comes back as an `Ok` outcome for the pump to retry.
    pub fn offer(&mut self, delivery: &[u8]) -> Result<OfferOutcome> {
        self.status.bytes_received += delivery.len() as u64;
        let Some(msg) = ShipMessage::decode(delivery) else {
            self.status.corrupt += 1;
            return Ok(OfferOutcome::Corrupt);
        };
        let outcome = match msg {
            ShipMessage::Checkpoint(bytes) => {
                // A full checkpoint: no retained link is its base.
                // The envelope CRC passed but the snapshot does not parse,
                // or a binary one had to rebuild an ASR — a mangled
                // delivery that the CRC could not catch is still channel
                // damage from the replica's point of view: NACK and
                // re-ship.  A text checkpoint always rebuilds.
                let loaded = parse_checkpoint_chain(&bytes[..], "shipped checkpoint", |_| Ok(None));
                let parsed = match loaded {
                    Ok(p) if bytes.starts_with(b"CKPT ") || !rebuilds(&p) => p,
                    _ => {
                        self.status.corrupt += 1;
                        return Ok(OfferOutcome::Corrupt);
                    }
                };
                if self.db.is_some() && parsed.lsn <= self.applied_lsn {
                    self.status.duplicates += 1;
                    OfferOutcome::Duplicate
                } else {
                    self.applied_lsn = parsed.lsn;
                    self.asr_remap = parsed.asr_remap;
                    self.db = Some(parsed.db);
                    self.retained = vec![(parsed.lsn, bytes)];
                    self.status.bootstraps += 1;
                    OfferOutcome::Bootstrapped { lsn: parsed.lsn }
                }
            }
            ShipMessage::DeltaCheckpoint(bytes) => self.offer_delta(bytes)?,
            ShipMessage::Segment { frames, .. } | ShipMessage::Frames(frames) => {
                let Some(db) = self.db.as_mut() else {
                    // Frames before any checkpoint: can't apply anything.
                    // (No database yet means no tracer to record the NACK
                    // on — the shipping pump records it on the primary.)
                    self.status.gaps += 1;
                    return Ok(OfferOutcome::Gap { have: 0, got: 0 });
                };
                // The replica records its side of the round on its own
                // tracer; an early NACK return drops the span, which
                // still finalizes with whatever was applied so far.
                let mut span = db.tracer().span("replica.apply");
                let Ok(scan) = scan_wal(&frames) else {
                    self.status.corrupt += 1;
                    db.tracer()
                        .event("replica.nack", &[("kind", "corrupt".to_string())]);
                    return Ok(OfferOutcome::Corrupt);
                };
                if scan.torn_bytes > 0 {
                    // The shipper only ships valid prefixes; torn frames
                    // inside a delivery mean the channel damaged it in a
                    // way the envelope CRC did not cover (it did — but
                    // stay defensive).
                    self.status.corrupt += 1;
                    db.tracer()
                        .event("replica.nack", &[("kind", "corrupt".to_string())]);
                    return Ok(OfferOutcome::Corrupt);
                }
                let mut applied = 0u64;
                for rec in &scan.records {
                    if rec.lsn <= self.applied_lsn {
                        continue; // overlap with already-applied history
                    }
                    if rec.lsn != self.applied_lsn + 1 {
                        self.status.gaps += 1;
                        db.tracer().event(
                            "replica.nack",
                            &[
                                ("kind", "gap".to_string()),
                                ("have", self.applied_lsn.to_string()),
                                ("got", rec.lsn.to_string()),
                            ],
                        );
                        return Ok(OfferOutcome::Gap {
                            have: self.applied_lsn,
                            got: rec.lsn,
                        });
                    }
                    apply_op(db, &rec.op, &mut self.asr_remap)?;
                    self.applied_lsn = rec.lsn;
                    applied += 1;
                }
                self.status.records_applied += applied;
                span.add_attr("applied", applied.to_string());
                span.finish();
                if applied == 0 {
                    self.status.duplicates += 1;
                    OfferOutcome::Duplicate
                } else {
                    OfferOutcome::Applied { records: applied }
                }
            }
        };
        self.status.bootstrapped = self.db.is_some();
        self.status.applied_lsn = self.applied_lsn;
        if let Some(db) = &self.db {
            let metrics = db.tracer().metrics();
            metrics.set_gauge("replica.applied_lsn", self.applied_lsn as f64);
            metrics.set_gauge("replica.gaps", self.status.gaps as f64);
            metrics.set_gauge("replica.corrupt", self.status.corrupt as f64);
        }
        Ok(outcome)
    }

    /// Classify and apply a delta checkpoint delivery over the retained
    /// chain.  Lineage decides: a delta whose embedded base is the
    /// chain's tip applies even when its LSN trails `applied_lsn` (the
    /// replica may have replayed frames past the tip); a delta on some
    /// *other* base is stale history (duplicate) or a lost link in the
    /// chain (gap).
    fn offer_delta(&mut self, bytes: Vec<u8>) -> Result<OfferOutcome> {
        let corrupt = |status: &mut ReplicaStatus| {
            status.corrupt += 1;
            Ok(OfferOutcome::Corrupt)
        };
        let Ok((header, _)) = checkpoint_parts(&bytes, "shipped delta checkpoint") else {
            return corrupt(&mut self.status);
        };
        let Some(base_id) = header.base else {
            return corrupt(&mut self.status);
        };
        if header.lsn <= base_id {
            // A delta claiming to cover no more history than its own
            // base is self-referential damage, not valid lineage.
            return corrupt(&mut self.status);
        }
        let Some(&(tip, _)) = self.retained.last() else {
            self.status.gaps += 1;
            return Ok(OfferOutcome::Gap {
                have: 0,
                got: header.lsn,
            });
        };
        if tip != base_id {
            return Ok(if header.lsn <= self.applied_lsn {
                self.status.duplicates += 1;
                OfferOutcome::Duplicate
            } else {
                self.status.gaps += 1;
                OfferOutcome::Gap {
                    have: tip,
                    got: header.lsn,
                }
            });
        }
        // One chain load over the retained links and the delta.  A load
        // that fails, or that had to rebuild an ASR the delta's pages
        // could not restore, is channel damage from the replica's point
        // of view: NACK, and keep the state as it was.
        let retained = &self.retained;
        let loaded = parse_checkpoint_chain(&bytes[..], "shipped delta checkpoint", |lsn| {
            Ok(retained
                .iter()
                .find(|(link, _)| *link == lsn)
                .map(|(_, link)| &link[..]))
        });
        let parsed = match loaded {
            Ok(p) if !rebuilds(&p) => p,
            _ => return corrupt(&mut self.status),
        };
        self.applied_lsn = parsed.lsn;
        self.asr_remap = parsed.asr_remap;
        self.db = Some(parsed.db);
        self.retained.push((header.lsn, bytes));
        self.status.bootstraps += 1;
        self.status.delta_bootstraps += 1;
        Ok(OfferOutcome::Bootstrapped { lsn: header.lsn })
    }
}

/// Did the load fall back to rebuilding an ASR?  The primary restores
/// every ASR of a binary checkpoint from its pages, so a replica reads a
/// rebuild as damage.
fn rebuilds(parsed: &ParsedCheckpoint) -> bool {
    let rebuilt = |(_, mode): &(AsrId, AsrLoadMode)| matches!(mode, AsrLoadMode::Rebuilt(_));
    parsed.asr_load_modes.iter().any(rebuilt)
}
