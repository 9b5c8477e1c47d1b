//! MVCC snapshots: immutable, `Send` read-only views of a [`Database`]
//! pinned to a commit epoch.
//!
//! The paper prices ASRs as *shared* access paths; this module supplies
//! the sharing.  [`Database::snapshot`] publishes every stored partition
//! as an immutable version — the frozen pages of its two clustering B+
//! trees, shared copy-on-write with the live
//! partition, so a publish copies page pointers and never a row (clean
//! partitions keep handing out the same version) — and hands back a
//! [`Snapshot`] that answers span queries, border probes, and partition
//! scans with results bit-identical to the live database, while the
//! single writer keeps mutating its private working set.  The writer
//! copies a page the first time it writes one a pinned version still
//! holds.
//!
//! Lifecycle: **publish** (a snapshot pins the current commit epoch),
//! **pin** (clones share the pin; the epoch stays registered while any
//! reader holds it), **reclaim** (the last reader's drop retires the
//! epoch in the [`EpochRegistry`], visible as `txn.epochs_reclaimed`).
//!
//! Page accounting: a pinned read runs the live partition's read code —
//! the same batched descent and full scan
//! ([`asr_pagesim::PageSlab::scan_ranges_sorted`] / `scan_all`) over the
//! same pages — and so charges exactly the pages a live read of the same
//! state charges.  Only the meter differs: the live database charges its
//! shared [`asr_pagesim::IoStats`] (an `Rc`, and optionally buffered),
//! while a snapshot, which must be `Send`, charges every page to its own
//! atomic counter, [`Snapshot::pages_read`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use asr_gom::{ObjectBase, Oid, PathExpression};

use crate::cell::Cell;
use crate::database::{AsrId, Database};
use crate::error::{AsrError, Result};
use crate::manager::AsrConfig;
use crate::naive::check_span;
use crate::partition::{cell_ranges, PartitionVersion, StoredPartition};
use crate::query::{self, Frontier, SpanSource};
use crate::row::RowRef;

// ---------------------------------------------------------------------
// Epoch registry: pin / reclaim
// ---------------------------------------------------------------------

/// Tracks which commit epochs still have live readers.  Shared between
/// the owning [`Database`] and every [`Snapshot`] it publishes; epochs
/// are reclaimed (retired from the pin table) when their last reader
/// drops.
#[derive(Debug, Default)]
pub struct EpochRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// epoch → live reader count.
    pins: BTreeMap<u64, usize>,
    /// Epochs fully released so far.
    reclaimed: u64,
}

impl EpochRegistry {
    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        // A reader thread that panics mid-drop must not cascade: recover
        // the guard rather than poisoning every later `\txn status`.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn pin(self: &Arc<Self>, epoch: u64) -> EpochPin {
        *self.lock().pins.entry(epoch).or_insert(0) += 1;
        EpochPin {
            epoch,
            registry: Arc::clone(self),
        }
    }

    /// Live snapshot handles across all pinned epochs.
    pub fn active(&self) -> usize {
        self.lock().pins.values().sum()
    }

    /// The oldest epoch still pinned by a reader.
    pub fn oldest(&self) -> Option<u64> {
        self.lock().pins.keys().next().copied()
    }

    /// Epochs whose last reader has dropped.
    pub fn reclaimed(&self) -> u64 {
        self.lock().reclaimed
    }
}

/// One epoch reference held by a snapshot; dropping the last clone of a
/// snapshot drops the pin and may reclaim the epoch.
#[derive(Debug)]
struct EpochPin {
    epoch: u64,
    registry: Arc<EpochRegistry>,
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        let mut inner = self.registry.lock();
        if let Some(count) = inner.pins.get_mut(&self.epoch) {
            *count -= 1;
            if *count == 0 {
                inner.pins.remove(&self.epoch);
                inner.reclaimed += 1;
            }
        }
    }
}

/// One stored partition as a [`Snapshot`] pins it: the immutable
/// published version plus the meter its probes and scans charge page
/// reads to.  The MVCC [`SpanSource`]: a snapshot walks a slice of these
/// exactly as the live ASR walks its [`StoredPartition`]s, with the same
/// read code over the same pages.
#[derive(Debug, Clone)]
pub struct PinnedPartition {
    version: Arc<PartitionVersion>,
    reads: Arc<AtomicU64>,
}

impl PinnedPartition {
    /// Pin `part`'s current version (publishing a fresh one only if the
    /// partition changed since its last publish) on a meter of its own.
    pub fn pin(part: &mut StoredPartition) -> Self {
        PinnedPartition {
            version: part.publish_version().0,
            reads: Arc::default(),
        }
    }

    /// Pages charged to this pin's meter so far.
    pub fn pages_read(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// How a read of the pinned pages is charged: one page on the meter.
    fn charge(&self) -> impl Fn(usize) + '_ {
        |_| {
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl SpanSource for PinnedPartition {
    fn arity(&self) -> usize {
        self.version.arity()
    }

    fn probe(&self, forward: bool, frontier: &Frontier, visit: &mut dyn FnMut(RowRef<'_>)) {
        let ranges = cell_ranges(frontier);
        if forward {
            (self.version.fwd)
                .scan_ranges_sorted(ranges, self.charge(), |_, cells| visit(RowRef::new(cells)));
        } else {
            (self.version.bwd).scan_ranges_sorted(ranges, self.charge(), |_, cells| {
                visit(RowRef::rotated(cells))
            });
        }
    }

    fn scan(&self, offset: usize, frontier: &Frontier, visit: &mut dyn FnMut(RowRef<'_>)) {
        self.version.fwd.scan_all(self.charge(), |cells| {
            if frontier.contains(&cells[offset]) {
                visit(RowRef::new(cells));
            }
        });
    }
}

// ---------------------------------------------------------------------
// The snapshot
// ---------------------------------------------------------------------

/// One ASR as published into a snapshot: design (path + config) plus the
/// pinned partition versions, all metered on the snapshot's counter.
#[derive(Debug)]
struct SnapAsr {
    path: PathExpression,
    config: AsrConfig,
    versions: Vec<PinnedPartition>,
}

impl SnapAsr {
    fn supports(&self, i: usize, j: usize) -> bool {
        i < j && j <= self.path.len() && self.config.extension.supports(i, j, self.path.len())
    }

    fn column_of(&self, pos: usize) -> usize {
        self.path.column_of(pos, self.config.keep_set_oids)
    }
}

/// A read-only view of a [`Database`] pinned to a commit epoch.
///
/// Cheap to clone (clones share the pin) and `Send`: readers on other
/// threads answer supported span queries, batched border probes, and
/// partition scans against the pinned state while the writer continues.
/// There is no object store and no naive traversal here — unsupported
/// spans return [`AsrError::Unsupported`] exactly where the live ASR
/// would, and the caller decides whether to fall back on the primary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    base: Arc<ObjectBase>,
    asrs: Vec<Option<Arc<SnapAsr>>>,
    /// Page reads charged by this snapshot's queries.
    reads: Arc<AtomicU64>,
    _pin: Arc<EpochPin>,
}

impl Snapshot {
    /// The commit epoch this snapshot is pinned to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Page reads charged against this snapshot so far — what the same
    /// reads would have charged the live database's unbuffered `IoStats`.
    pub fn pages_read(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// The pinned object base (variables, extents, objects as of the
    /// epoch).
    pub fn base(&self) -> &ObjectBase {
        &self.base
    }

    /// Living objects as of the epoch.
    pub fn object_count(&self) -> usize {
        self.base.object_count()
    }

    /// IDs of the ASRs registered as of the epoch.
    pub fn asr_ids(&self) -> Vec<AsrId> {
        self.asrs
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.as_ref().map(|_| id))
            .collect()
    }

    fn snap_asr(&self, id: AsrId) -> Result<&SnapAsr> {
        self.asrs
            .get(id)
            .and_then(Option::as_ref)
            .map(Arc::as_ref)
            .ok_or_else(|| AsrError::InvalidDecomposition(format!("no ASR with id {id}")))
    }

    /// The path of ASR `id` as of the epoch.
    pub fn asr_path(&self, id: AsrId) -> Result<&PathExpression> {
        Ok(&self.snap_asr(id)?.path)
    }

    /// The pinned partitions of ASR `id`, in decomposition order.
    pub fn partitions(&self, id: AsrId) -> Result<&[PinnedPartition]> {
        Ok(&self.snap_asr(id)?.versions)
    }

    /// Forward span query `Q_{i,j}(fw)` against the pinned versions —
    /// result bit-identical to the live ASR's supported evaluation.
    pub fn forward(&self, id: AsrId, i: usize, j: usize, start: Oid) -> Result<Vec<Cell>> {
        let asr = self.snap_asr(id)?;
        check_span(&asr.path, i, j)?;
        if !asr.supports(i, j) {
            return Err(AsrError::Unsupported {
                extension: asr.config.extension.name(),
                i,
                j,
                n: asr.path.len(),
            });
        }
        Ok(query::forward_supported(
            &asr.versions,
            &asr.config.decomposition,
            asr.column_of(i),
            asr.column_of(j),
            &Cell::Oid(start),
        ))
    }

    /// Backward span query `Q_{i,j}(bw)` against the pinned versions.
    pub fn backward(&self, id: AsrId, i: usize, j: usize, target: &Cell) -> Result<Vec<Oid>> {
        let asr = self.snap_asr(id)?;
        check_span(&asr.path, i, j)?;
        if !asr.supports(i, j) {
            return Err(AsrError::Unsupported {
                extension: asr.config.extension.name(),
                i,
                j,
                n: asr.path.len(),
            });
        }
        let cells = query::backward_supported(
            &asr.versions,
            &asr.config.decomposition,
            asr.column_of(i),
            asr.column_of(j),
            target,
        );
        Ok(cells.into_iter().filter_map(|c| c.as_oid()).collect())
    }

    /// Total distinct rows across all partitions of ASR `id`.
    pub fn total_rows(&self, id: AsrId) -> Result<usize> {
        Ok(self
            .snap_asr(id)?
            .versions
            .iter()
            .map(|v| v.version.len())
            .sum())
    }

    /// The pinned partition versions of every present ASR, in `A`-line
    /// ordinal order — what checkpoint serialization renders instead of
    /// the live trees.
    pub(crate) fn asr_versions(
        &self,
    ) -> impl Iterator<Item = impl Iterator<Item = &PartitionVersion>> {
        self.asrs
            .iter()
            .flatten()
            .map(|asr| asr.versions.iter().map(|v| &*v.version))
    }
}

// Snapshots must be shareable across reader threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>();
    assert_send_sync::<EpochRegistry>();
};

/// Point-in-time MVCC bookkeeping for `\txn status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnStatus {
    /// Current commit epoch (bumps when a snapshot is taken after
    /// mutations).
    pub commit_epoch: u64,
    /// Live snapshot handles.
    pub active_snapshots: usize,
    /// Oldest epoch still pinned by a reader.
    pub oldest_pinned: Option<u64>,
    /// Epochs whose last reader has dropped.
    pub epochs_reclaimed: u64,
}

impl Database {
    /// Publish the current state as an immutable [`Snapshot`] pinned to
    /// the current commit epoch.
    ///
    /// Copy-on-write: only partitions mutated since their last publish get
    /// a fresh version, and a fresh version shares the live partition's
    /// pages; repeated snapshots of an unchanged database
    /// share every version (and the epoch).  The object base travels as
    /// an `Arc` — the writer's next base mutation clones it lazily
    /// (`Arc::make_mut`), never the readers.
    pub fn snapshot(&mut self) -> Snapshot {
        if self.snap_stale {
            self.commit_epoch += 1;
            self.snap_stale = false;
        }
        let mut published = 0u64;
        let reads: Arc<AtomicU64> = Arc::default();
        let mut asrs: Vec<Option<Arc<SnapAsr>>> = Vec::with_capacity(self.asrs.len());
        for slot in self.asrs.iter_mut() {
            match slot {
                Some(asr) => {
                    let path = asr.path().clone();
                    let config = asr.config().clone();
                    let versions = asr
                        .partitions_mut()
                        .iter_mut()
                        .map(|p| {
                            let (version, fresh) = p.publish_version();
                            published += u64::from(fresh);
                            PinnedPartition {
                                version,
                                reads: Arc::clone(&reads),
                            }
                        })
                        .collect();
                    asrs.push(Some(Arc::new(SnapAsr {
                        path,
                        config,
                        versions,
                    })));
                }
                None => asrs.push(None),
            }
        }
        let pin = self.epochs.pin(self.commit_epoch);
        let newly_reclaimed = self.epochs.reclaimed() - self.reclaimed_seen;
        self.reclaimed_seen += newly_reclaimed;
        let metrics = self.tracer().metrics();
        metrics.inc_counter("txn.snapshots", 1);
        metrics.inc_counter("txn.partitions_published", published);
        metrics.inc_counter("txn.epochs_reclaimed", newly_reclaimed);
        metrics.set_gauge("txn.commit_epoch", self.commit_epoch as f64);
        metrics.set_gauge("txn.active_snapshots", self.epochs.active() as f64);
        metrics.set_gauge(
            "txn.oldest_pinned_epoch",
            self.epochs.oldest().unwrap_or(self.commit_epoch) as f64,
        );
        Snapshot {
            epoch: self.commit_epoch,
            base: Arc::clone(&self.base),
            asrs,
            reads,
            _pin: Arc::new(pin),
        }
    }

    /// MVCC bookkeeping: epoch, live readers, oldest pin, reclamations.
    pub fn txn_status(&self) -> TxnStatus {
        TxnStatus {
            commit_epoch: self.commit_epoch,
            active_snapshots: self.epochs.active(),
            oldest_pinned: self.epochs.oldest(),
            epochs_reclaimed: self.epochs.reclaimed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::Decomposition;
    use crate::extension::Extension;
    use crate::row::Row;
    use asr_gom::{Schema, Value};
    use std::collections::BTreeSet;

    fn company_db() -> Database {
        let mut s = Schema::new();
        s.define_set("Company", "Division").unwrap();
        s.define_tuple(
            "Division",
            [("Name", "STRING"), ("Manufactures", "ProdSET")],
        )
        .unwrap();
        s.define_set("ProdSET", "Product").unwrap();
        s.define_tuple(
            "Product",
            [("Name", "STRING"), ("Composition", "BasePartSET")],
        )
        .unwrap();
        s.define_set("BasePartSET", "BasePart").unwrap();
        s.define_tuple("BasePart", [("Name", "STRING"), ("Price", "DECIMAL")])
            .unwrap();
        s.validate().unwrap();
        Database::new(s)
    }

    /// A small instance with one division → product → part chain.
    fn populated() -> (Database, AsrId, Oid, Oid) {
        let mut db = company_db();
        let division = db.instantiate("Division").unwrap();
        let prodset = db.instantiate("ProdSET").unwrap();
        let product = db.instantiate("Product").unwrap();
        let partset = db.instantiate("BasePartSET").unwrap();
        let part = db.instantiate("BasePart").unwrap();
        db.set_attribute(division, "Manufactures", Value::Ref(prodset))
            .unwrap();
        db.insert_into_set(prodset, Value::Ref(product)).unwrap();
        db.set_attribute(product, "Composition", Value::Ref(partset))
            .unwrap();
        db.insert_into_set(partset, Value::Ref(part)).unwrap();
        db.set_attribute(part, "Name", Value::string("Door"))
            .unwrap();
        let path =
            PathExpression::parse(db.base().schema(), "Division.Manufactures.Composition.Name")
                .unwrap();
        let config = AsrConfig {
            extension: Extension::Full,
            decomposition: Decomposition::binary(path.arity(false) - 1),
            keep_set_oids: false,
        };
        let id = db.create_asr(path, config).unwrap();
        (db, id, division, part)
    }

    #[test]
    fn snapshot_matches_live_queries() {
        let (mut db, id, division, _) = populated();
        let snap = db.snapshot();
        let n = snap.asr_path(id).unwrap().len();
        for i in 0..n {
            for j in (i + 1)..=n {
                let live = db.asr(id).unwrap().forward(i, j, division);
                let snapped = snap.forward(id, i, j, division);
                match (live, snapped) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "forward {i}..{j}"),
                    (Err(AsrError::Unsupported { .. }), Err(AsrError::Unsupported { .. })) => {}
                    (a, b) => panic!("forward {i}..{j} diverged: {a:?} vs {b:?}"),
                }
            }
        }
        let target = Cell::Value(Value::string("Door"));
        assert_eq!(
            db.asr(id).unwrap().backward(0, n, &target).unwrap(),
            snap.backward(id, 0, n, &target).unwrap()
        );
        assert!(snap.pages_read() > 0, "snapshot queries charge modeled I/O");
    }

    #[test]
    fn snapshot_isolation_and_cow_publishing() {
        let (mut db, id, division, _) = populated();
        let before = db.txn_status().commit_epoch;
        let s1 = db.snapshot();
        let s2 = db.snapshot();
        assert_eq!(s1.epoch(), s2.epoch(), "unchanged state shares the epoch");
        assert_eq!(db.txn_status().active_snapshots, 2);
        let n = s1.asr_path(id).unwrap().len();
        let old = s1.forward(id, 0, n, division).unwrap();

        // Writer moves on: a new part appears under the same product.
        let product = s1
            .forward(id, 0, 1, division)
            .unwrap()
            .first()
            .and_then(|c| c.as_oid())
            .unwrap();
        let extra = db.instantiate("BasePart").unwrap();
        db.set_attribute(extra, "Name", Value::string("Window"))
            .unwrap();
        let comp = db
            .base()
            .get_attribute(product, "Composition")
            .unwrap()
            .as_ref_oid()
            .unwrap();
        db.insert_into_set(comp, Value::Ref(extra)).unwrap();

        // Pinned readers still see the old state.
        assert_eq!(s1.forward(id, 0, n, division).unwrap(), old);
        let s3 = db.snapshot();
        assert!(s3.epoch() > before, "mutation bumps the epoch");
        assert!(
            s3.forward(id, 0, n, division).unwrap().len() > old.len(),
            "new snapshot sees the new row"
        );

        // Reclamation: dropping the readers of the old epoch retires it.
        let reclaimed = db.txn_status().epochs_reclaimed;
        drop(s1);
        drop(s2);
        let status = db.txn_status();
        assert_eq!(status.epochs_reclaimed, reclaimed + 1);
        assert_eq!(status.active_snapshots, 1);
        assert_eq!(status.oldest_pinned, Some(s3.epoch()));
    }

    #[test]
    fn probe_and_scan_match_the_live_partition() {
        let (mut db, id, division, _) = populated();
        let snap = db.snapshot();
        let asr = db.asr(id).unwrap();
        let pinned = snap.partitions(id).unwrap();
        assert_eq!(pinned.len(), asr.partitions().len());
        for (pidx, (part, pin)) in asr.partitions().iter().zip(pinned).enumerate() {
            assert_eq!(part.arity(), pin.arity());
            // Probe on every first-column cell that exists.
            let mut firsts: BTreeSet<Cell> = BTreeSet::new();
            part.scan(|row| {
                if let Some(c) = row.first() {
                    firsts.insert(c.clone());
                }
            });
            let keys: Frontier = firsts.into_iter().collect();
            let mut live = Vec::new();
            part.probe(true, &keys, &mut |row| live.push(row.to_row()));
            let mut probed = Vec::new();
            pin.probe(true, &keys, &mut |row| probed.push(row.to_row()));
            assert_eq!(live, probed, "forward probe partition {pidx}");
            // Full scan parity at offset 0 with a frontier of everything.
            let rows_live: Vec<Row> = {
                let mut v = Vec::new();
                part.scan(|r| v.push(r.to_row()));
                v
            };
            let mut scanned = Vec::new();
            pin.scan(0, &keys, &mut |row| scanned.push(row.to_row()));
            let expect: Vec<Row> = rows_live
                .iter()
                .filter(|r| keys.contains(r.cell(0)))
                .cloned()
                .collect();
            assert_eq!(expect, scanned, "scan partition {pidx}");
        }
        let _ = division;
    }

    #[test]
    fn dropped_asr_is_absent_from_later_snapshots() {
        let (mut db, id, _, _) = populated();
        let s1 = db.snapshot();
        db.drop_asr(id).unwrap();
        let s2 = db.snapshot();
        assert!(s1.asr_ids().contains(&id));
        assert!(!s2.asr_ids().contains(&id));
        assert!(s2.forward(id, 0, 1, Oid::from_raw(0)).is_err());
    }
}
