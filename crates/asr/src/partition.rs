//! Stored partitions: the on-"disk" form of access support relations.
//!
//! Following Valduriez' join indices, every partition `E^{i,j}_X` is stored
//! in **two redundant B+ trees** (Section 5.2): one clustered on the first
//! attribute (OIDs of `t_i` objects — fast *forward* lookups) and one on
//! the last attribute (OIDs of `t_j` — fast *backward* lookups).  Tuple and
//! key sizes follow the paper's geometry: a tuple occupies `OIDsize ·
//! (j − i + 1)` bytes (formula 13), keys occupy `OIDsize`.
//!
//! Because partitions are *projections* of the extension, several extension
//! rows may project to the same partition row; the partition therefore
//! reference-counts its rows so that incremental maintenance can remove a
//! projected row only when its last witness disappears.
//!
//! A delta checkpoint of a partition is its dirty rows plus the pages its
//! checkpointed version does not share with the previous checkpoint's.
//! Taking a checkpoint marks both trees' pages
//! (`StoredPartition::mark_clean`); `PartitionVersion::delta` later lists
//! the pages no longer the marked ones.

use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;
use std::rc::Rc;
use std::sync::Arc;

use asr_pagesim::{
    build_bulk, BPlusTree, BulkNodes, IoStats, NodeImage, PageMarks, PageRef, PageSlab,
    StatsHandle, TreeImage, OID_SIZE, PAGE_SIZE,
};

use crate::cell::Cell;
use crate::error::{AsrError, Result};
use crate::query::Frontier;
use crate::relation::Relation;
use crate::row::Row;

/// Tree key: clustering cell (first or last column) plus a row id making
/// the key unique.  `None` (NULL) clusters before all defined cells.
pub type PartitionKey = (Option<Cell>, u64);

/// A partition `[S_from, …, S_to]` stored in two clustered B+ trees.
#[derive(Debug)]
pub struct StoredPartition {
    from: usize,
    to: usize,
    fwd: BPlusTree<PartitionKey, Row>,
    bwd: BPlusTree<PartitionKey, Row>,
    /// Logical multiset bookkeeping: row → (row id, witness count).
    /// This mirror is not charged; the physical operations on the trees
    /// carry the page costs.  Shared copy-on-write with the published
    /// version, like the trees' pages.
    rows: Arc<HashMap<Row, RowMeta>>,
    next_rowid: u64,
    /// What changed since the base checkpoint ([`Self::mark_clean`]).
    changes: PartitionChanges,
    /// The published MVCC version of this partition
    /// ([`Self::publish_version`]) while it is current.  Every mutation
    /// drops it before writing, so the writer copies a page (or the
    /// mirror) only while a snapshot still pins the version.
    version: Option<Arc<PartitionVersion>>,
    stats: StatsHandle,
}

#[derive(Debug, Clone, Copy)]
struct RowMeta {
    rowid: u64,
    count: u64,
}

impl StoredPartition {
    /// Create an empty partition over the inclusive column span
    /// `[from, to]` of the host relation.
    pub fn new(from: usize, to: usize, stats: StatsHandle) -> Self {
        assert!(from < to, "partitions span at least two columns");
        let tuple_size = OID_SIZE * (to - from + 1); // formula (13)
        StoredPartition {
            from,
            to,
            fwd: BPlusTree::new(tuple_size, OID_SIZE, Rc::clone(&stats)),
            bwd: BPlusTree::new(tuple_size, OID_SIZE, Rc::clone(&stats)),
            rows: Arc::default(),
            next_rowid: 0,
            changes: PartitionChanges::default(),
            version: None,
            stats,
        }
    }

    /// The current immutable version of this partition (the
    /// copy-on-write half of [`crate::Database::snapshot`]): the one
    /// already published if nothing changed since, otherwise a fresh
    /// [`Self::freeze`].  Returns the version and whether it is fresh.
    pub(crate) fn publish_version(&mut self) -> (Arc<PartitionVersion>, bool) {
        if let Some(v) = &self.version {
            return (Arc::clone(v), false);
        }
        let v = Arc::new(self.freeze());
        self.version = Some(Arc::clone(&v));
        (v, true)
    }

    /// The partition as it is now, immutable: both trees' pages and the
    /// row mirror, shared copy-on-write — page pointers are copied, rows
    /// are not.  Charges nothing.
    pub(crate) fn freeze(&self) -> PartitionVersion {
        PartitionVersion {
            from: self.from,
            to: self.to,
            next_rowid: self.next_rowid,
            rows: Arc::clone(&self.rows),
            fwd: self.fwd.freeze(),
            bwd: self.bwd.freeze(),
        }
    }

    /// The host-relation column span `(from, to)`.
    pub fn span(&self) -> (usize, usize) {
        (self.from, self.to)
    }

    /// Columns in this partition (`to − from + 1`).
    pub fn arity(&self) -> usize {
        self.to - self.from + 1
    }

    /// Number of distinct rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the partition holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Bytes of tuple data (the paper's `as^{i,j}`, formula 15).
    pub fn data_bytes(&self) -> u64 {
        (self.len() * OID_SIZE * self.arity()) as u64
    }

    /// Total pages of both redundant trees.
    pub fn total_pages(&self) -> u64 {
        self.fwd.pages().page_count() + self.bwd.pages().page_count()
    }

    /// The forward-clustered tree (keyed on the first column).
    pub fn forward_tree(&self) -> &BPlusTree<PartitionKey, Row> {
        &self.fwd
    }

    /// The backward-clustered tree (keyed on the last column).
    pub fn backward_tree(&self) -> &BPlusTree<PartitionKey, Row> {
        &self.bwd
    }

    /// The shared page-access counter.
    pub fn stats(&self) -> &StatsHandle {
        &self.stats
    }

    /// Give both clustered trees an LRU buffer pool of `pages` pages each
    /// (0 restores unbuffered accounting).
    pub fn enable_buffering(&mut self, pages: usize) {
        let pool = |n: usize| {
            if n == 0 {
                asr_pagesim::BufferPool::unbuffered()
            } else {
                asr_pagesim::BufferPool::with_capacity(n)
            }
        };
        self.fwd.set_buffer(pool(pages));
        self.bwd.set_buffer(pool(pages));
    }

    /// Name both clustering trees for per-structure I/O attribution:
    /// `<label>.fwd` and `<label>.bwd`.
    pub fn tag(&mut self, label: &str) {
        self.fwd.tag(format!("{label}.fwd"));
        self.bwd.tag(format!("{label}.bwd"));
    }

    fn check_arity(&self, row: &Row) -> Result<()> {
        if row.arity() != self.arity() {
            return Err(AsrError::ArityMismatch {
                expected: self.arity(),
                actual: row.arity(),
            });
        }
        Ok(())
    }

    /// Insert one witness of `row`.  New rows go into both trees; repeated
    /// witnesses only bump the reference count (charged as a read/write of
    /// the resident tuple in each tree).
    ///
    /// All-NULL rows are ignored (partitions never store them).
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.check_arity(&row)?;
        if row.is_all_null() {
            return Ok(());
        }
        self.version = None;
        match Arc::make_mut(&mut self.rows).get_mut(&row) {
            Some(meta) => {
                meta.count += 1;
                self.changes.dirty_rows.insert(meta.rowid);
                // Touch the stored tuples to persist the new count.
                let fkey = (row.first().clone(), meta.rowid);
                let bkey = (row.last().clone(), meta.rowid);
                let _ = self.fwd.get(&fkey);
                self.charge_tree_write();
                let _ = self.bwd.get(&bkey);
                self.charge_tree_write();
            }
            None => {
                let rowid = self.next_rowid;
                self.next_rowid += 1;
                self.changes.dirty_rows.insert(rowid);
                self.fwd.insert((row.first().clone(), rowid), row.clone())?;
                self.bwd.insert((row.last().clone(), rowid), row.clone())?;
                Arc::make_mut(&mut self.rows).insert(row, RowMeta { rowid, count: 1 });
            }
        }
        Ok(())
    }

    fn charge_tree_write(&self) {
        // One leaf write-back; the descent reads were just charged by get().
        self.stats.count_write();
    }

    /// Remove one witness of `row`; physically deletes it when the last
    /// witness disappears.  Removing an unknown row is a no-op (returns
    /// `false`) — incremental maintenance relies on this.
    pub fn remove(&mut self, row: &Row) -> Result<bool> {
        self.check_arity(row)?;
        // Look before `make_mut`: a no-op removal must not copy a mirror
        // that a pinned version shares.
        if !self.rows.contains_key(row) {
            return Ok(false);
        }
        self.version = None;
        let rows = Arc::make_mut(&mut self.rows);
        let meta = rows.get_mut(row).expect("checked above");
        if meta.count > 1 {
            meta.count -= 1;
            self.changes.dirty_rows.insert(meta.rowid);
            let fkey = (row.first().clone(), meta.rowid);
            let bkey = (row.last().clone(), meta.rowid);
            let _ = self.fwd.get(&fkey);
            self.charge_tree_write();
            let _ = self.bwd.get(&bkey);
            self.charge_tree_write();
        } else {
            let rowid = meta.rowid;
            rows.remove(row);
            self.changes.dirty_rows.remove(&rowid);
            self.changes.dead_rows.insert(rowid);
            self.fwd.remove(&(row.first().clone(), rowid));
            self.bwd.remove(&(row.last().clone(), rowid));
        }
        Ok(true)
    }

    /// All rows whose *first* column equals `cell` — a forward cluster
    /// lookup (`ht + nlp` page accesses in the paper's terms).
    pub fn lookup_first(&self, cell: &Cell) -> Vec<Row> {
        let lo = (Some(cell.clone()), 0u64);
        let hi = (Some(cell.clone()), u64::MAX);
        self.fwd
            .range_collect(&lo, &hi)
            .into_iter()
            .map(|(_, row)| row)
            .collect()
    }

    /// All rows whose *last* column equals `cell` — a backward cluster
    /// lookup on the second tree.
    pub fn lookup_last(&self, cell: &Cell) -> Vec<Row> {
        let lo = (Some(cell.clone()), 0u64);
        let hi = (Some(cell.clone()), u64::MAX);
        self.bwd
            .range_collect(&lo, &hi)
            .into_iter()
            .map(|(_, row)| row)
            .collect()
    }

    /// The partition's one batched probe: visit, by reference, the rows
    /// whose first (`forward`) or last column is in `frontier` — grouped
    /// per cell in frontier order, the concatenation of the per-cell
    /// [`Self::lookup_first`] / [`Self::lookup_last`] answers — through one
    /// shared descent of that clustering tree, each page charged at most
    /// once for the whole batch.
    pub fn probe(&self, forward: bool, frontier: &Frontier, visit: &mut dyn FnMut(&Row)) {
        let tree = if forward { &self.fwd } else { &self.bwd };
        tree.scan_ranges_sorted(cell_ranges(frontier), |_, _, row| visit(row));
    }

    /// Exhaustively scan all rows (used when a query enters a partition in
    /// the middle — the paper's `ap^{i,j}` full-scan term in formula 33).
    pub fn scan(&self, mut visit: impl FnMut(&Row)) {
        self.fwd.scan_all(|_, row| visit(row));
    }

    /// Rebuild the partition's logical content as an in-memory relation
    /// (charges a full scan).
    pub fn to_relation(&self) -> Result<Relation> {
        let mut rel = Relation::new(self.arity());
        let mut rows = Vec::new();
        self.scan(|row| rows.push(row.clone()));
        for row in rows {
            rel.insert(row)?;
        }
        Ok(rel)
    }

    /// Bulk-load the partition from an in-memory relation, counting each
    /// row once.  (Multiplicity loading happens through [`Self::insert`].)
    pub fn load(&mut self, relation: &Relation) -> Result<()> {
        for row in relation.iter() {
            self.insert(row.clone())?;
        }
        Ok(())
    }

    /// Bulk-load distinct rows with explicit witness counts, building both
    /// clustered B+ trees bottom-up (one page write per created node —
    /// the fast path of [`crate::AccessSupportRelation::rebuild`]).
    ///
    /// The partition must be empty; all-NULL rows are skipped.
    pub fn bulk_load(&mut self, rows: impl IntoIterator<Item = (Row, u64)>) -> Result<()> {
        assert!(self.is_empty(), "bulk_load requires an empty partition");
        self.version = None;
        let mut fwd_entries: Vec<(PartitionKey, Row)> = Vec::new();
        let mut bwd_entries: Vec<(PartitionKey, Row)> = Vec::new();
        for (row, count) in rows {
            self.check_arity(&row)?;
            if row.is_all_null() || count == 0 {
                continue;
            }
            let rowid = self.next_rowid;
            self.next_rowid += 1;
            self.changes.dirty_rows.insert(rowid);
            fwd_entries.push(((row.first().clone(), rowid), row.clone()));
            bwd_entries.push(((row.last().clone(), rowid), row.clone()));
            Arc::make_mut(&mut self.rows).insert(row, RowMeta { rowid, count });
        }
        // The two redundant clustering trees are independent: sort and
        // build both node slabs (a pure, stats-free computation) on two
        // threads when the partition is large, then adopt them here on
        // the owning thread — page-write accounting stays identical to a
        // sequential fill because `adopt_bulk` charges one write per node
        // in creation order.
        let (lc, ic) = (
            self.fwd.pages().leaf_capacity(),
            self.fwd.pages().inner_capacity(),
        );
        let (fwd_built, bwd_built) = if fwd_entries.len() >= PARALLEL_BUILD_THRESHOLD {
            std::thread::scope(|s| {
                let bwd_handle = s.spawn(move || sort_and_build(bwd_entries, lc, ic));
                let fwd_built = sort_and_build(fwd_entries, lc, ic);
                let bwd_built = bwd_handle.join().expect("bulk-build thread panicked");
                (fwd_built, bwd_built)
            })
        } else {
            (
                sort_and_build(fwd_entries, lc, ic),
                sort_and_build(bwd_entries, lc, ic),
            )
        };
        self.fwd.adopt_bulk(fwd_built?)?;
        self.bwd.adopt_bulk(bwd_built?)?;
        Ok(())
    }

    /// The partition's physical image owning its rows — what outlives
    /// the partition (a base image to patch).  Charges nothing.
    pub(crate) fn dump(&self) -> PartitionImage {
        let version = self.freeze();
        let view = version.view();
        PartitionImage {
            rows: view
                .rows
                .into_iter()
                .map(|(row, rowid, count)| (row.clone(), rowid, count))
                .collect(),
            from: view.from,
            to: view.to,
            next_rowid: view.next_rowid,
            fwd: view.fwd,
            bwd: view.bwd,
            fwd_bytes: view.fwd_bytes,
            bwd_bytes: view.bwd_bytes,
        }
    }

    /// Make the partition as it is now the base of the next delta
    /// checkpoint: mark both trees' pages and start new row sets.  Returns
    /// the changes since the previous base.  Invoked when a checkpoint
    /// (full or delta) of this partition is taken or loaded.
    pub(crate) fn mark_clean(&mut self) -> PartitionChanges {
        let base = PartitionChanges {
            fwd: self.fwd.pages().marks(),
            bwd: self.bwd.pages().marks(),
            ..PartitionChanges::default()
        };
        std::mem::replace(&mut self.changes, base)
    }

    /// How many distinct rows changed (dirty + dead) since the base —
    /// the shell's "pages saved" summary uses this.
    pub(crate) fn changed_rows(&self) -> usize {
        self.changes.rows()
    }

    /// Physically re-attach a partition from its snapshot image: register
    /// both trees under `label` (so restore reads attribute to the same
    /// `(kind, label)` structure ids as before the save), then adopt the
    /// page images — each tree charged one read per page of its share of
    /// the serialized physical section, no extension join, no bulk build.
    ///
    /// Leaf keys are not stored in the image; they are re-derived from the
    /// row mirror as `(row.first|last, rowid)` — an invariant of both
    /// [`Self::insert`] and [`Self::bulk_load`].  Any inconsistency
    /// (unknown row ids, cardinality mismatches, corrupt page layouts)
    /// yields a descriptive error and never panics.
    pub(crate) fn restore(img: PartitionImage, stats: StatsHandle, label: &str) -> Result<Self> {
        let corrupt = |msg: String| AsrError::Snapshot(format!("partition image: {msg}"));
        if img.from >= img.to {
            return Err(corrupt(format!("bad span ({}, {})", img.from, img.to)));
        }
        let mut p = StoredPartition::new(img.from, img.to, stats);
        p.tag(label);
        let arity = p.arity();
        let mut by_rowid: HashMap<u64, &Row> = HashMap::with_capacity(img.rows.len());
        for (row, rowid, count) in &img.rows {
            if row.arity() != arity {
                return Err(corrupt(format!("row {row} has arity {}", row.arity())));
            }
            if *count == 0 {
                return Err(corrupt(format!("row {row} has witness count 0")));
            }
            if *rowid >= img.next_rowid {
                return Err(corrupt(format!("row id {rowid} >= next_rowid")));
            }
            if by_rowid.insert(*rowid, row).is_some() {
                return Err(corrupt(format!("row id {rowid} appears twice")));
            }
        }
        let fwd = img.fwd.materialize(&by_rowid, Row::first)?;
        let bwd = img.bwd.materialize(&by_rowid, Row::last)?;
        p.fwd.adopt_image(fwd)?;
        p.bwd.adopt_image(bwd)?;
        if p.fwd.pages().len() != img.rows.len() || p.bwd.pages().len() != img.rows.len() {
            return Err(corrupt(format!(
                "tree/mirror cardinality mismatch: fwd={} bwd={} mirror={}",
                p.fwd.pages().len(),
                p.bwd.pages().len(),
                img.rows.len()
            )));
        }
        let listed = img.rows.len();
        p.rows = Arc::new(
            img.rows
                .into_iter()
                .map(|(row, rowid, count)| (row, RowMeta { rowid, count }))
                .collect(),
        );
        if p.rows.len() != listed {
            return Err(corrupt(format!(
                "{} rows listed twice under different row ids",
                listed - p.rows.len()
            )));
        }
        p.next_rowid = img.next_rowid;
        // A freshly restored partition is fully dirty relative to the
        // empty default marks; the loader calls `mark_clean` once the whole
        // database is attached, making the snapshot itself the base.
        p.changes.dirty_rows = p.rows.values().map(|m| m.rowid).collect();
        // Price the restore: pulling each tree's serialized pages in from
        // the snapshot, attributed per tree (at least one page each).
        p.fwd.charge_restore_reads(restore_pages(img.fwd_bytes));
        p.bwd.charge_restore_reads(restore_pages(img.bwd_bytes));
        Ok(p)
    }

    /// The partition's logical content read off the uncharged row mirror,
    /// in no particular order — the restore path's counterpart of
    /// [`Self::to_relation`], which scans the tree and charges pages.
    pub(crate) fn mirror_rows(&self) -> impl Iterator<Item = &Row> {
        self.rows.keys()
    }

    /// Witness count of a row (0 when absent) — for tests.
    pub fn witness_count(&self, row: &Row) -> u64 {
        self.rows.get(row).map(|m| m.count).unwrap_or(0)
    }

    /// Verify the two trees and the mirror agree; used by tests.
    pub fn check_consistency(&self) -> Result<()> {
        self.fwd.check_invariants()?;
        self.bwd.check_invariants()?;
        if self.fwd.pages().len() != self.rows.len() || self.bwd.pages().len() != self.rows.len() {
            return Err(AsrError::PageSim(
                asr_pagesim::PageSimError::CorruptStructure(format!(
                    "tree/mirror cardinality mismatch: fwd={} bwd={} mirror={}",
                    self.fwd.pages().len(),
                    self.bwd.pages().len(),
                    self.rows.len()
                )),
            ));
        }
        let mut fwd_rows: Vec<Row> = Vec::new();
        self.fwd.scan_all(|_, r| fwd_rows.push(r.clone()));
        for row in &fwd_rows {
            if !self.rows.contains_key(row) {
                return Err(AsrError::PageSim(
                    asr_pagesim::PageSimError::CorruptStructure(format!(
                        "row {row} in fwd tree but not in mirror"
                    )),
                ));
            }
        }
        Ok(())
    }
}

/// The batched probe's key ranges: for each frontier cell, the keys
/// `(cell, 0) ..< (cell, u64::MAX)` of the rows clustered under it.  A
/// live partition and a pinned version probe with the same ranges.
pub(crate) fn cell_ranges(
    frontier: &Frontier,
) -> impl Iterator<Item = (Bound<PartitionKey>, Bound<PartitionKey>)> + '_ {
    frontier.cells().iter().map(|c| {
        let key = Some(c.clone());
        (
            Bound::Included((key.clone(), 0u64)),
            Bound::Excluded((key, u64::MAX)),
        )
    })
}

/// An immutable version of one [`StoredPartition`]
/// ([`StoredPartition::freeze`]): the frozen pages of both clustering
/// trees plus the row mirror, each shared copy-on-write with the live
/// partition.  A pinned reader walks `fwd` / `bwd` with the live
/// partition's read code; every `ASRDB 2` image is rendered from one
/// ([`Self::view`]).
#[derive(Debug)]
pub(crate) struct PartitionVersion {
    from: usize,
    to: usize,
    next_rowid: u64,
    rows: Arc<HashMap<Row, RowMeta>>,
    /// The forward-clustered tree's pages (keyed on the first column).
    pub fwd: PageSlab<PartitionKey, Row>,
    /// The backward-clustered tree's pages (keyed on the last column).
    pub bwd: PageSlab<PartitionKey, Row>,
}

impl PartitionVersion {
    /// Columns spanned (`to − from + 1`).
    pub fn arity(&self) -> usize {
        self.to - self.from + 1
    }

    /// Distinct stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The version's complete physical state with the rows borrowed from
    /// the mirror: the row mirror (sorted by row id) plus page-faithful
    /// images of both clustering trees — everything the snapshot writer
    /// needs, and nothing cloned but row ids and inner keys.  Charges
    /// nothing — the writer prices the bytes it emits.
    pub fn view(&self) -> PartitionImage<&Row> {
        let mut rows: Vec<(&Row, u64, u64)> = self
            .rows
            .iter()
            .map(|(row, meta)| (row, meta.rowid, meta.count))
            .collect();
        rows.sort_unstable_by_key(|&(_, rowid, _)| rowid);
        PartitionImage {
            from: self.from,
            to: self.to,
            next_rowid: self.next_rowid,
            rows,
            fwd: RawTreeImage::from_pages(&self.fwd),
            bwd: RawTreeImage::from_pages(&self.bwd),
            fwd_bytes: 0,
            bwd_bytes: 0,
        }
    }

    /// What this version changed since the base `changes` was marked at:
    /// the dirty rows read off the mirror (borrowed, sorted by row id),
    /// the dead row ids, and each tree's pages not shared with the base.
    /// Charges nothing — the delta writer prices the bytes it emits.
    pub fn delta<'a>(&'a self, changes: &PartitionChanges) -> PartitionDelta<&'a Row> {
        let mut upserts: Vec<(&Row, u64, u64)> = self
            .rows
            .iter()
            .filter(|(_, meta)| changes.dirty_rows.contains(&meta.rowid))
            .map(|(row, meta)| (row, meta.rowid, meta.count))
            .collect();
        upserts.sort_unstable_by_key(|&(_, rowid, _)| rowid);
        PartitionDelta {
            from: self.from,
            to: self.to,
            next_rowid: self.next_rowid,
            nrows: self.rows.len(),
            upserts,
            deletes: changes.dead_rows.iter().copied().collect(),
            fwd: RawTreeDelta::changed(&self.fwd, &changes.fwd),
            bwd: RawTreeDelta::changed(&self.bwd, &changes.bwd),
            fwd_bytes: 0,
            bwd_bytes: 0,
        }
    }
}

/// What a partition changed since its base checkpoint: the base's page
/// marks for each clustering tree, and the rows written or removed since.
/// [`StoredPartition::mark_clean`] hands it over and
/// [`PartitionVersion::delta`] reads a delta off a version with it.  The
/// default (empty marks) counts every page as changed.
#[derive(Debug, Default)]
pub(crate) struct PartitionChanges {
    fwd: PageMarks<PartitionKey, Row>,
    bwd: PageMarks<PartitionKey, Row>,
    /// Row ids whose mirror entry changed (inserted, or witness count
    /// bumped) — the row half of a delta checkpoint.
    dirty_rows: BTreeSet<u64>,
    /// Row ids physically removed.
    dead_rows: BTreeSet<u64>,
}

impl PartitionChanges {
    /// Distinct rows changed (dirty + dead).
    pub fn rows(&self) -> usize {
        self.dirty_rows.len() + self.dead_rows.len()
    }
}

/// The serializable physical state of one [`StoredPartition`]: the row
/// mirror with row ids and witness counts, plus raw page images of both
/// clustering trees.  Produced by `PartitionVersion::view` and
/// `StoredPartition::dump`, consumed by `StoredPartition::restore` and
/// the `ASRDB 2` snapshot writer/reader.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PartitionImage<R = Row> {
    /// First spanned column of the host relation.
    pub from: usize,
    /// Last spanned column (inclusive).
    pub to: usize,
    /// Row-id allocator position (preserves future id assignment).
    pub next_rowid: u64,
    /// `(row, rowid, witness count)`, sorted by row id; `R` is `Row`, or
    /// `&Row` in a [`PartitionVersion::view`].
    pub rows: Vec<(R, u64, u64)>,
    /// Page image of the forward-clustered tree.
    pub fwd: RawTreeImage,
    /// Page image of the backward-clustered tree.
    pub bwd: RawTreeImage,
    /// Serialized snapshot bytes backing the forward tree (its `T`/`N`
    /// lines plus half the shared row payload) — what its restore read
    /// charge is based on.  Zero on the write path ([`StoredPartition::dump`]).
    pub fwd_bytes: usize,
    /// Serialized snapshot bytes backing the backward tree.
    pub bwd_bytes: usize,
}

/// Pages a restored tree is charged for `bytes` of serialized image
/// (never free: at least one page read).
fn restore_pages(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(PAGE_SIZE as u64).max(1)
}

/// The incremental counterpart of [`PartitionImage`]: only the rows and
/// tree pages that changed since the partition's base checkpoint, plus
/// enough geometry (root, height, free list, slab size) to patch a base
/// image into the current state.  Produced by [`PartitionVersion::delta`]
/// (rows borrowed) and the `ASRDB 3` reader, consumed by the `ASRDB 3`
/// writer and `PartitionImage::apply_delta`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PartitionDelta<R = Row> {
    pub from: usize,
    pub to: usize,
    pub next_rowid: u64,
    /// Expected distinct-row count *after* applying this delta (integrity
    /// check on the patched mirror).
    pub nrows: usize,
    /// `(row, rowid, witness count)` for rows inserted or re-counted since
    /// the base, sorted by row id.
    pub upserts: Vec<(R, u64, u64)>,
    /// Row ids physically removed since the base (ascending).
    pub deletes: Vec<u64>,
    /// Changed pages of the forward-clustered tree.
    pub fwd: RawTreeDelta,
    /// Changed pages of the backward-clustered tree.
    pub bwd: RawTreeDelta,
    /// Serialized delta bytes attributed to each tree (set by the parser;
    /// zero on the write path) — the patched image's restore-read charge.
    pub fwd_bytes: usize,
    pub bwd_bytes: usize,
}

/// Changed pages of one clustering tree since the base, with the full
/// post-change geometry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RawTreeDelta {
    pub root: usize,
    pub height: usize,
    pub len: usize,
    pub free: Vec<usize>,
    /// Slab size after the change — a patched base image grows (never
    /// shrinks) to this many pages.
    pub total_nodes: usize,
    /// `(page id, new content)` for every page not shared with the base,
    /// including pages that became `Free`.
    pub pages: Vec<(usize, RawNode)>,
}

impl RawTreeDelta {
    /// The pages of `pages` not shared with `base`, with the geometry.
    fn changed(pages: &PageSlab<PartitionKey, Row>, base: &PageMarks<PartitionKey, Row>) -> Self {
        RawTreeDelta {
            root: pages.root_slot(),
            height: pages.height(),
            len: pages.len(),
            free: pages.free_slots().to_vec(),
            total_nodes: pages.slot_count(),
            pages: pages
                .changed_since(base)
                .map(|slot| (slot, RawNode::from_page(pages.page(slot))))
                .collect(),
        }
    }
}

impl PartitionImage {
    /// Patch this (base-checkpoint) image with a delta, yielding the image
    /// the primary would have dumped when it took the delta.  Rows are merged
    /// by row id; tree slabs grow to the delta's size and changed pages are
    /// overwritten.  Fails with a descriptive error on any inconsistency —
    /// the caller falls back to a rebuild or NACKs the delivery.
    pub(crate) fn apply_delta<R: Borrow<Row>>(
        self,
        d: &PartitionDelta<R>,
    ) -> Result<PartitionImage> {
        let corrupt = |msg: String| AsrError::Snapshot(format!("partition delta: {msg}"));
        if (self.from, self.to) != (d.from, d.to) {
            return Err(corrupt(format!(
                "span mismatch: base ({}, {}), delta ({}, {})",
                self.from, self.to, d.from, d.to
            )));
        }
        if d.next_rowid < self.next_rowid {
            return Err(corrupt(format!(
                "next_rowid went backwards ({} -> {})",
                self.next_rowid, d.next_rowid
            )));
        }
        let mut by_rowid: std::collections::BTreeMap<u64, (Row, u64)> = self
            .rows
            .into_iter()
            .map(|(row, rowid, count)| (rowid, (row, count)))
            .collect();
        // Deleted rows may predate the base (never shipped): tolerate.
        for rowid in &d.deletes {
            by_rowid.remove(rowid);
        }
        for (row, rowid, count) in &d.upserts {
            by_rowid.insert(*rowid, (row.borrow().clone(), *count));
        }
        if by_rowid.len() != d.nrows {
            return Err(corrupt(format!(
                "patched mirror has {} rows, delta expects {}",
                by_rowid.len(),
                d.nrows
            )));
        }
        Ok(PartitionImage {
            from: d.from,
            to: d.to,
            next_rowid: d.next_rowid,
            rows: by_rowid
                .into_iter()
                .map(|(rowid, (row, count))| (row, rowid, count))
                .collect(),
            fwd: self.fwd.apply_delta(&d.fwd)?,
            bwd: self.bwd.apply_delta(&d.bwd)?,
            fwd_bytes: d.fwd_bytes,
            bwd_bytes: d.bwd_bytes,
        })
    }
}

/// A [`TreeImage`] with rows referenced by id instead of stored inline:
/// leaf entries carry only row ids (keys are re-derived on restore), while
/// inner separator keys — which may outlive the leaf keys they were copied
/// from — are kept verbatim.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RawTreeImage {
    pub root: usize,
    pub height: usize,
    pub len: usize,
    pub free: Vec<usize>,
    pub nodes: Vec<RawNode>,
}

/// One page of a [`RawTreeImage`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RawNode {
    Inner {
        keys: Vec<PartitionKey>,
        children: Vec<usize>,
    },
    Leaf {
        rowids: Vec<u64>,
        next: Option<usize>,
    },
    Free,
}

impl RawNode {
    /// One live page in its raw, id-referencing form: a leaf keeps only
    /// its entries' row ids, read off the page in place.
    fn from_page(page: PageRef<'_, PartitionKey, Row>) -> Self {
        match page {
            PageRef::Inner { keys, children } => RawNode::Inner {
                keys: keys.to_vec(),
                children: children.to_vec(),
            },
            PageRef::Leaf { entries, next } => RawNode::Leaf {
                rowids: entries.iter().map(|((_, rowid), _)| *rowid).collect(),
                next,
            },
            PageRef::Free => RawNode::Free,
        }
    }
}

impl RawTreeImage {
    /// A tree's pages — live or frozen — in their raw, id-referencing
    /// form.
    fn from_pages(pages: &PageSlab<PartitionKey, Row>) -> Self {
        RawTreeImage {
            root: pages.root_slot(),
            height: pages.height(),
            len: pages.len(),
            free: pages.free_slots().to_vec(),
            nodes: (0..pages.slot_count())
                .map(|slot| RawNode::from_page(pages.page(slot)))
                .collect(),
        }
    }

    /// Overlay a delta's changed pages onto this base image and adopt its
    /// geometry.  The slab only ever grows; changed-page ids must fall
    /// inside the delta's declared slab size.
    fn apply_delta(mut self, d: &RawTreeDelta) -> Result<RawTreeImage> {
        let corrupt = |msg: String| AsrError::Snapshot(format!("tree delta: {msg}"));
        if d.total_nodes < self.nodes.len() {
            return Err(corrupt(format!(
                "slab shrank ({} -> {} pages)",
                self.nodes.len(),
                d.total_nodes
            )));
        }
        self.nodes.resize(d.total_nodes, RawNode::Free);
        for (id, node) in &d.pages {
            let slot = self
                .nodes
                .get_mut(*id)
                .ok_or_else(|| corrupt(format!("page {id} outside slab of {}", d.total_nodes)))?;
            *slot = node.clone();
        }
        self.root = d.root;
        self.height = d.height;
        self.len = d.len;
        self.free = d.free.clone();
        Ok(self)
    }

    /// Rehydrate into a full [`TreeImage`], deriving each leaf entry's key
    /// from the referenced row via `key_cell` (`Row::first` for the
    /// forward tree, `Row::last` for the backward one).
    fn materialize(
        &self,
        by_rowid: &HashMap<u64, &Row>,
        key_cell: impl Fn(&Row) -> &Option<Cell>,
    ) -> Result<TreeImage<PartitionKey, Row>> {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for raw in &self.nodes {
            nodes.push(match raw {
                RawNode::Inner { keys, children } => NodeImage::Inner {
                    keys: keys.clone(),
                    children: children.clone(),
                },
                RawNode::Leaf { rowids, next } => {
                    let mut entries = Vec::with_capacity(rowids.len());
                    for &rowid in rowids {
                        let Some(&row) = by_rowid.get(&rowid) else {
                            return Err(AsrError::Snapshot(format!(
                                "partition image: leaf references unknown row id {rowid}"
                            )));
                        };
                        entries.push(((key_cell(row).clone(), rowid), row.clone()));
                    }
                    NodeImage::Leaf {
                        entries,
                        next: *next,
                    }
                }
                RawNode::Free => NodeImage::Free,
            });
        }
        Ok(TreeImage {
            root: self.root,
            height: self.height,
            len: self.len,
            free: self.free.clone(),
            nodes,
        })
    }
}

/// Partitions at or above this many rows bulk-load their two clustering
/// trees on concurrent threads.
const PARALLEL_BUILD_THRESHOLD: usize = 4096;

/// Sort entries by key and build a stats-free node slab — the per-tree
/// half of a (possibly parallel) dual-tree bulk load.
fn sort_and_build(
    mut entries: Vec<(PartitionKey, Row)>,
    leaf_capacity: usize,
    inner_capacity: usize,
) -> asr_pagesim::Result<BulkNodes<PartitionKey, Row>> {
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    build_bulk(entries, leaf_capacity, inner_capacity)
}

/// Convenience: a fresh stats handle.
pub fn fresh_stats() -> StatsHandle {
    IoStats::new_handle()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::row::oid_cell as c;

    fn part() -> StoredPartition {
        StoredPartition::new(0, 2, fresh_stats())
    }

    #[test]
    fn insert_and_lookup_both_directions() {
        let mut p = part();
        p.insert(row![c(0), c(1), c(2)]).unwrap();
        p.insert(row![c(0), c(5), c(6)]).unwrap();
        p.insert(row![c(9), c(5), c(2)]).unwrap();
        assert_eq!(p.len(), 3);
        let fwd = p.lookup_first(&Cell::Oid(asr_gom::Oid::from_raw(0)));
        assert_eq!(fwd.len(), 2);
        let bwd = p.lookup_last(&Cell::Oid(asr_gom::Oid::from_raw(2)));
        assert_eq!(bwd.len(), 2);
        assert!(bwd.contains(&row![c(0), c(1), c(2)]));
        assert!(bwd.contains(&row![c(9), c(5), c(2)]));
        p.check_consistency().unwrap();
    }

    #[test]
    fn reference_counting_delays_physical_removal() {
        let mut p = part();
        let r = row![c(0), c(1), c(2)];
        p.insert(r.clone()).unwrap();
        p.insert(r.clone()).unwrap();
        assert_eq!(p.witness_count(&r), 2);
        assert_eq!(p.len(), 1, "physically stored once");
        assert!(p.remove(&r).unwrap());
        assert_eq!(p.witness_count(&r), 1);
        assert_eq!(
            p.lookup_first(&Cell::Oid(asr_gom::Oid::from_raw(0))).len(),
            1
        );
        assert!(p.remove(&r).unwrap());
        assert_eq!(p.witness_count(&r), 0);
        assert!(p.is_empty());
        assert!(!p.remove(&r).unwrap(), "removing an absent row is a no-op");
        p.check_consistency().unwrap();
    }

    #[test]
    fn null_boundaries_cluster_and_lookup_misses_them() {
        let mut p = part();
        p.insert(row![None, c(1), c(2)]).unwrap();
        p.insert(row![c(0), c(1), None]).unwrap();
        assert_eq!(p.len(), 2);
        // NULL-first rows are not returned by any forward cell lookup.
        assert!(p
            .lookup_first(&Cell::Oid(asr_gom::Oid::from_raw(1)))
            .is_empty());
        // But scans see everything.
        let mut n = 0;
        p.scan(|_| n += 1);
        assert_eq!(n, 2);
    }

    #[test]
    fn all_null_rows_ignored() {
        let mut p = part();
        p.insert(Row::nulls(3)).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn arity_checked() {
        let mut p = part();
        assert!(matches!(
            p.insert(row![c(0), c(1)]),
            Err(AsrError::ArityMismatch { .. })
        ));
        assert!(matches!(
            p.remove(&row![c(0)]),
            Err(AsrError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn geometry_matches_formulas() {
        // Partition of 3 columns: tuple = 24 bytes, atpp = 4056/24 = 169.
        let p = part();
        assert_eq!(p.forward_tree().pages().leaf_capacity(), 169);
        assert_eq!(p.forward_tree().pages().inner_capacity(), 338);
    }

    #[test]
    fn load_and_to_relation_round_trip() {
        let rel = Relation::from_rows(
            3,
            vec![
                row![c(0), c(1), c(2)],
                row![c(3), None, c(4)],
                row![None, c(5), c(6)],
            ],
        )
        .unwrap();
        let mut p = part();
        p.load(&rel).unwrap();
        assert_eq!(p.to_relation().unwrap(), rel);
    }

    #[test]
    fn delta_patches_base_image_to_current_state() {
        let mut p = part();
        for k in 0..3000u64 {
            p.insert(row![c(k), c(k + 10000), c(k % 7)]).unwrap();
        }
        let base = p.dump();
        p.mark_clean();
        for k in 3000..3010u64 {
            p.insert(row![c(k), c(k + 10000), c(k % 7)]).unwrap();
        }
        p.insert(row![c(5), c(10005), c(5)]).unwrap(); // witness bump
        for k in 0..4u64 {
            p.remove(&row![c(k), c(k + 10000), c(k % 7)]).unwrap();
        }
        let version = p.freeze();
        let delta = version.delta(&p.mark_clean());
        assert!(
            delta.fwd.pages.len() < delta.fwd.total_nodes,
            "delta ships a strict subset of pages ({} of {})",
            delta.fwd.pages.len(),
            delta.fwd.total_nodes
        );
        let patched = base.apply_delta(&delta).unwrap();
        assert_eq!(patched, p.dump(), "patched base == freshly dumped state");
        let restored = StoredPartition::restore(patched, fresh_stats(), "t").unwrap();
        restored.check_consistency().unwrap();
        assert_eq!(restored.len(), p.len());
        assert_eq!(restored.witness_count(&row![c(5), c(10005), c(5)]), 2);
    }

    #[test]
    fn clean_partition_produces_empty_delta() {
        let mut p = part();
        for k in 0..50u64 {
            p.insert(row![c(k), c(k + 100), c(k % 3)]).unwrap();
        }
        p.mark_clean();
        let version = p.freeze();
        let delta = version.delta(&p.mark_clean());
        assert!(delta.upserts.is_empty());
        assert!(delta.deletes.is_empty());
        assert!(delta.fwd.pages.is_empty());
        assert!(delta.bwd.pages.is_empty());
        let patched = p.dump().apply_delta(&delta).unwrap();
        assert_eq!(patched, p.dump(), "empty delta is the identity patch");
    }

    #[test]
    fn delta_rejects_inconsistent_geometry() {
        let mut p = part();
        for k in 0..50u64 {
            p.insert(row![c(k), c(k + 100), c(k % 3)]).unwrap();
        }
        let base = p.dump();
        p.mark_clean();
        p.insert(row![c(99), c(199), c(1)]).unwrap();
        let version = p.freeze();
        let delta = version.delta(&p.mark_clean());
        let mut wrong = delta.clone();
        wrong.nrows += 1; // claim a row that never arrives
        assert!(base.clone().apply_delta(&wrong).is_err());
        let mut delta = delta;
        delta.fwd.total_nodes = 0; // slab cannot shrink
        assert!(base.apply_delta(&delta).is_err());
    }

    #[test]
    fn page_accounting_flows_to_stats() {
        let stats = fresh_stats();
        let mut p = StoredPartition::new(0, 2, Rc::clone(&stats));
        for k in 0..200u64 {
            p.insert(row![c(k), c(k + 1000), c(k % 7)]).unwrap();
        }
        stats.reset();
        p.lookup_first(&Cell::Oid(asr_gom::Oid::from_raw(5)));
        assert!(stats.reads() >= 1, "lookups cost page reads");
        assert_eq!(stats.writes(), 0);
        assert!(p.data_bytes() > 0);
        assert!(p.total_pages() >= 2);
    }
}
