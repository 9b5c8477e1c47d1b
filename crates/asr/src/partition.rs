//! Stored partitions: the on-"disk" form of access support relations.
//!
//! Following Valduriez' join indices, every partition `E^{i,j}_X` is stored
//! in **two redundant B+ trees** (Section 5.2): one clustered on the first
//! attribute (OIDs of `t_i` objects — fast *forward* lookups) and one on
//! the last attribute (OIDs of `t_j` — fast *backward* lookups).  Tuple and
//! key sizes follow the paper's geometry: a tuple occupies `OIDsize ·
//! (j − i + 1)` bytes (formula 13), keys occupy `OIDsize`.
//!
//! A row lives only in its two clustering trees: each holds it once,
//! under `(first|last cell, row id)`, and both hold the same allocation.
//! Finding a row's id is an uncharged search of one tree's cluster.
//!
//! A partition is a *set*: the distinct projections of the extension
//! rows onto its span (Definition 3.8).  Several extension rows may
//! project to the same partition row, but the partition keeps no count of
//! them: incremental maintenance decides each partition's own delta by
//! probing (see `maintenance`), so inserting a stored row or removing an
//! absent one is a no-op.
//!
//! A delta checkpoint of a partition is its dirty rows plus the pages its
//! checkpointed version does not share with the previous checkpoint's.
//! Taking a checkpoint marks both trees' pages
//! (`StoredPartition::mark_clean`); `PartitionVersion::delta` later lists
//! the pages no longer the marked ones.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Bound, Range};
use std::rc::Rc;
use std::sync::Arc;

use asr_pagesim::{
    BPlusTree, IoStats, NodeImage, PageMarks, PageRef, PageSlab, StatsHandle, TreeImage, OID_SIZE,
    PAGE_SIZE,
};

use crate::cell::Cell;
use crate::error::{AsrError, Result};
use crate::query::Frontier;
use crate::row::Row;

/// Tree key: clustering cell (first or last column) plus a row id making
/// the key unique.  `None` (NULL) clusters before all defined cells.
pub type PartitionKey = (Option<Cell>, u64);

const _: () = assert!(std::mem::size_of::<Option<Cell>>() == 16);
const _: () = assert!(std::mem::size_of::<PartitionKey>() == 24);

/// A partition `[S_from, …, S_to]` stored in two clustered B+ trees.
#[derive(Debug)]
pub struct StoredPartition {
    from: usize,
    to: usize,
    fwd: BPlusTree<PartitionKey, Row>,
    bwd: BPlusTree<PartitionKey, Row>,
    next_rowid: u64,
    /// What changed since the base checkpoint ([`Self::mark_clean`]).
    changes: PartitionChanges,
    /// The published MVCC version of this partition
    /// ([`Self::publish_version`]) while it is current.  Every mutation
    /// drops it before writing, so the writer copies a page only while a
    /// snapshot still pins the version.
    version: Option<Arc<PartitionVersion>>,
    stats: StatsHandle,
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

    /// The partition as it is now, immutable: both trees' pages, shared
    /// copy-on-write — page pointers are copied, rows are not.  Charges
    /// nothing.
    pub(crate) fn freeze(&self) -> PartitionVersion {
        PartitionVersion {
            from: self.from,
            to: self.to,
            next_rowid: self.next_rowid,
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
        self.fwd.pages().len()
    }

    /// `true` when the partition holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// The id `row` is stored under, if it is stored: an uncharged search
    /// of the forward tree's cluster of its first cell, or, when that is
    /// NULL, of the backward tree's cluster of its last cell.  A row NULL
    /// at both ends is searched for in the forward tree's NULL cluster.
    /// Reads the pages directly: no page is charged, and no buffer-pool or
    /// batch state changes.
    fn rowid_of(&self, row: &Row) -> Option<u64> {
        let (tree, cell) = match (row.first(), row.last()) {
            (None, Some(_)) => (&self.bwd, row.last()),
            _ => (&self.fwd, row.first()),
        };
        let lo = (cell.clone(), 0);
        let hi = (cell.clone(), u64::MAX);
        let mut found = None;
        tree.pages().scan_range(
            Bound::Included(&lo),
            Bound::Excluded(&hi),
            &|_| {},
            |&(_, rowid), stored| {
                if found.is_none() && stored == row {
                    found = Some(rowid);
                }
            },
        );
        found
    }

    /// Store `row` in both trees unless it is stored already.  Returns
    /// whether it was new; a stored row is left as it is and charges
    /// nothing.  All-NULL rows are ignored (partitions never store them).
    pub fn insert(&mut self, row: Row) -> Result<bool> {
        self.check_arity(&row)?;
        if row.is_all_null() || self.rowid_of(&row).is_some() {
            return Ok(false);
        }
        self.version = None;
        let rowid = self.next_rowid;
        self.next_rowid += 1;
        self.changes.dirty_rows.insert(rowid);
        self.fwd.insert((row.first().clone(), rowid), row.clone())?;
        self.bwd.insert((row.last().clone(), rowid), row)?;
        Ok(true)
    }

    /// Delete `row` from both trees.  Removing an absent row is a no-op
    /// (returns `false`) that charges nothing.
    pub fn remove(&mut self, row: &Row) -> Result<bool> {
        self.check_arity(row)?;
        let Some(rowid) = self.rowid_of(row) else {
            return Ok(false);
        };
        self.version = None;
        if !self.changes.bulk_rows.contains(&rowid) {
            self.changes.dirty_rows.remove(&rowid);
        }
        self.changes.dead_rows.insert(rowid);
        self.fwd.remove(&(row.first().clone(), rowid));
        self.bwd.remove(&(row.last().clone(), rowid));
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

    /// Bulk-load distinct rows, building both clustered B+ trees
    /// bottom-up (one page write per created node — the fast path of
    /// [`crate::AccessSupportRelation::rebuild`]).  Row ids are issued in
    /// the order the rows come, so rows in ascending order fill the
    /// forward tree already in key order; the backward tree's entries are
    /// sorted by last cell.  The forward tree is built before the
    /// backward one, on the calling thread, and the partition counts as
    /// wholly dirty until its next checkpoint.
    ///
    /// The partition must be empty and the rows distinct; all-NULL rows
    /// are skipped.
    pub fn bulk_load(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        assert!(self.is_empty(), "bulk_load requires an empty partition");
        let mut rows: Vec<Row> = rows.into_iter().collect();
        if let Some(row) = rows.iter().find(|row| row.arity() != self.arity()) {
            return self.check_arity(row);
        }
        rows.retain(|row| !row.is_all_null());
        self.version = None;
        let first = self.next_rowid;
        self.next_rowid += rows.len() as u64;
        self.changes.bulk_rows = first..self.next_rowid;
        let mut fwd: Vec<(PartitionKey, Row)> = (first..)
            .zip(&rows)
            .map(|(rowid, row)| ((row.first().clone(), rowid), row.clone()))
            .collect();
        fwd.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        self.fwd.fill(fwd)?;
        let mut bwd: Vec<(PartitionKey, Row)> = (first..)
            .zip(rows)
            .map(|(rowid, row)| ((row.last().clone(), rowid), row))
            .collect();
        bwd.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        self.bwd.fill(bwd)?;
        Ok(())
    }

    /// The partition's physical image owning its rows — what outlives
    /// the partition (a base image to patch).  Charges nothing.
    pub(crate) fn dump(&self) -> PartitionImage {
        let everything = PartitionChanges::everything();
        self.freeze().delta(&everything).owned().into_image()
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
    /// Each row is allocated once, its cells moved out of the image, in
    /// backward clustering order (the order of the backward tree's leaf
    /// chain): the image lists rows by row id, so they were parsed in
    /// forward order, and the backward span walks that follow a restart
    /// (three quarters of the query mixes) then visit rows in the order
    /// they sit in memory.  Leaf keys are not stored in the image; they
    /// are re-derived from the rows as `(row.first|last, rowid)` — an
    /// invariant of both [`Self::insert`] and [`Self::bulk_load`] — and
    /// each leaf's row ids resolve through the rows in ascending row-id
    /// order.  Any inconsistency (unknown row ids, a row listed twice,
    /// cardinality mismatches, corrupt page layouts) yields a descriptive
    /// error and never panics.
    pub(crate) fn restore(
        mut img: PartitionImage,
        stats: StatsHandle,
        label: &str,
    ) -> Result<Self> {
        let corrupt = |msg: String| AsrError::Snapshot(format!("partition image: {msg}"));
        if img.from >= img.to {
            return Err(corrupt(format!("bad span ({}, {})", img.from, img.to)));
        }
        let mut p = StoredPartition::new(img.from, img.to, stats);
        p.tag(label);
        let rows = &mut img.rows;
        if rows.arity != p.arity() || rows.cells.len() != rows.ids.len() * rows.arity {
            return Err(corrupt(format!("rows have arity {}", rows.arity)));
        }
        for &rowid in &rows.ids {
            if rowid >= img.next_rowid {
                return Err(corrupt(format!("row id {rowid} >= next_rowid")));
            }
        }
        let by_rowid = RowIds::new(&rows.ids).map_err(corrupt)?;
        // Allocate in the backward tree's key order: along its leaves, then
        // (in a damaged image only) whatever rows they do not name.  `at[k]`
        // is where the row listed `k`th lands in `made`.
        let mut at = vec![usize::MAX; rows.len()];
        let mut made = Vec::with_capacity(rows.len());
        let chain = img.bwd.leaf_chain();
        let named = chain
            .iter()
            .flat_map(|leaf| leaf.iter())
            .filter_map(|&id| by_rowid.get(id));
        for k in named.chain(0..rows.len()) {
            if at[k] == usize::MAX {
                at[k] = made.len();
                made.push(Row::take(rows.row_mut(k)));
            }
        }
        let row_of = |rowid| by_rowid.get(rowid).map(|k| &made[at[k]]);
        let fwd = img.fwd.materialize(row_of, Row::first)?;
        let bwd = img.bwd.materialize(row_of, Row::last)?;
        p.fwd.adopt_image(fwd)?;
        p.bwd.adopt_image(bwd)?;
        let n = made.len();
        drop(made);
        if p.fwd.pages().len() != n || p.bwd.pages().len() != n {
            return Err(corrupt(format!(
                "tree cardinality mismatch: fwd={} bwd={} rows={n}",
                p.fwd.pages().len(),
                p.bwd.pages().len(),
            )));
        }
        // Each tree now names every listed row id once, so the rows are
        // the trees' rows; a row must still not be listed twice.
        let twice = duplicate_rows(&p.fwd);
        if twice > 0 {
            return Err(corrupt(format!(
                "{twice} rows listed twice under different row ids"
            )));
        }
        p.next_rowid = img.next_rowid;
        // Price the restore: pulling each tree's serialized pages in from
        // the snapshot, attributed per tree (at least one page each).
        p.fwd.charge_restore_reads(restore_pages(img.fwd_bytes));
        p.bwd.charge_restore_reads(restore_pages(img.bwd_bytes));
        Ok(p)
    }

    /// The partition's rows in clustering order, read off the pages of
    /// the backward tree (by last cell) or the forward tree (by first
    /// cell).  Charges nothing: the inspection-only reassembly of
    /// [`crate::AccessSupportRelation::full_rows`] reads it.
    pub(crate) fn clustered_rows(&self, backward: bool) -> Vec<&Row> {
        let tree = if backward { &self.bwd } else { &self.fwd };
        let mut rows = Vec::with_capacity(tree.pages().len());
        tree.pages().scan_all(|_| {}, |_, row| rows.push(row));
        rows
    }

    /// Verify the partition's invariants; used by tests.  Both trees are
    /// well-formed B+ trees holding the same rows under the same row ids,
    /// each keyed by its clustering cell; and no row is stored twice.
    pub fn check_consistency(&self) -> Result<()> {
        let corrupt = |msg: String| {
            Err(AsrError::PageSim(
                asr_pagesim::PageSimError::CorruptStructure(msg),
            ))
        };
        self.fwd.check_invariants()?;
        self.bwd.check_invariants()?;
        /// A tree's `(rowid, row)` entries sorted by row id, and whether
        /// every key is its row's clustering cell.
        fn by_rowid(
            tree: &BPlusTree<PartitionKey, Row>,
            key_cell: fn(&Row) -> &Option<Cell>,
        ) -> (Vec<(u64, &Row)>, bool) {
            let mut entries = Vec::with_capacity(tree.pages().len());
            let mut keyed = true;
            tree.pages().scan_all(
                |_| {},
                |(cell, rowid), row| {
                    keyed &= cell == key_cell(row);
                    entries.push((*rowid, row));
                },
            );
            entries.sort_unstable_by_key(|&(rowid, _)| rowid);
            (entries, keyed)
        }
        let (fwd, fwd_keyed) = by_rowid(&self.fwd, Row::first);
        let (bwd, bwd_keyed) = by_rowid(&self.bwd, Row::last);
        if !fwd_keyed || !bwd_keyed {
            return corrupt("a tree key is not its row's clustering cell".into());
        }
        if fwd != bwd {
            return corrupt(format!(
                "the trees hold different rows: fwd={} bwd={}",
                fwd.len(),
                bwd.len()
            ));
        }
        if fwd.windows(2).any(|w| w[0].0 == w[1].0) {
            return corrupt("a row id is stored twice".into());
        }
        let twice = duplicate_rows(&self.fwd);
        if twice > 0 {
            return corrupt(format!("{twice} rows stored twice"));
        }
        Ok(())
    }
}

/// How many of `tree`'s rows equal an earlier one.  Equal rows share
/// their clustering cell, so each cluster is checked on its own.
/// Charges nothing.
fn duplicate_rows(tree: &BPlusTree<PartitionKey, Row>) -> usize {
    let mut rows = Vec::with_capacity(tree.pages().len());
    tree.pages().scan_all(|_| {}, |_, row| rows.push(row));
    rows.chunk_by_mut(|a, b| a.first() == b.first())
        .map(|cluster| {
            cluster.sort_unstable();
            cluster.windows(2).filter(|w| w[0] == w[1]).count()
        })
        .sum()
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
/// trees, shared copy-on-write with the live partition.  A pinned reader
/// walks `fwd` / `bwd` with the live partition's read code; every
/// checkpoint renders a partition from one ([`Self::delta`]).
#[derive(Debug)]
pub(crate) struct PartitionVersion {
    from: usize,
    to: usize,
    next_rowid: u64,
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
        self.fwd.len()
    }

    /// The rows whose id `keep` accepts, read off the forward tree's
    /// leaves: `(row, rowid)`, sorted by row id.
    fn rows_by_id(&self, keep: impl Fn(u64) -> bool) -> RowRefs<'_> {
        let mut rows = Vec::new();
        self.fwd.scan_all(
            |_| {},
            |&(_, rowid), row| {
                if keep(rowid) {
                    rows.push((row, rowid));
                }
            },
        );
        rows.sort_unstable_by_key(|&(_, rowid)| rowid);
        rows
    }

    /// What this version changed since the base `changes` was marked at:
    /// the dirty rows read off the forward tree (borrowed, sorted by row
    /// id), the dead row ids, and each tree's pages not shared with the
    /// base.  Charges nothing — the delta writer prices the bytes it
    /// emits.
    pub fn delta<'a>(&'a self, changes: &PartitionChanges) -> PartitionDelta<RowRefs<'a>> {
        PartitionDelta {
            from: self.from,
            to: self.to,
            next_rowid: self.next_rowid,
            nrows: self.len(),
            upserts: self.rows_by_id(|rowid| changes.is_dirty(rowid)),
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
    /// The row ids a bulk load issued since the base: every one of them
    /// is dirty until it is removed, without a set entry each.
    bulk_rows: Range<u64>,
    /// Row ids otherwise stored since the base — with `bulk_rows`, the
    /// row half of a delta checkpoint.
    dirty_rows: BTreeSet<u64>,
    /// Row ids physically removed.
    dead_rows: BTreeSet<u64>,
}

impl PartitionChanges {
    /// Changes that count every row and every page as written: read off a
    /// version, they make its delta over an empty partition — its image.
    pub(crate) fn everything() -> Self {
        PartitionChanges {
            bulk_rows: 0..u64::MAX,
            ..PartitionChanges::default()
        }
    }

    /// Was the partition made since the base (created or rebuilt), so
    /// that these changes are not measured from the base's partition?
    pub(crate) fn is_fresh(&self) -> bool {
        self.fwd.is_empty()
    }

    /// Was the live row `rowid` stored since the base?
    fn is_dirty(&self, rowid: u64) -> bool {
        self.bulk_rows.contains(&rowid) || self.dirty_rows.contains(&rowid)
    }

    /// Distinct rows changed (dirty + dead).
    pub fn rows(&self) -> usize {
        let bulk_dead = self.dead_rows.range(self.bulk_rows.clone()).count();
        let bulk_live = self.bulk_rows.end - self.bulk_rows.start - bulk_dead as u64;
        bulk_live as usize + self.dirty_rows.len() + self.dead_rows.len()
    }
}

/// The serializable physical state of one [`StoredPartition`]: its rows
/// with their row ids, plus raw page images of both clustering trees.
/// Produced by `StoredPartition::dump` and the checkpoint readers,
/// consumed by `StoredPartition::restore`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PartitionImage {
    /// First spanned column of the host relation.
    pub from: usize,
    /// Last spanned column (inclusive).
    pub to: usize,
    /// Row-id allocator position (preserves future id assignment).
    pub next_rowid: u64,
    /// The rows with their row ids.
    pub rows: RowTable,
    /// Page image of the forward-clustered tree.
    pub fwd: RawTreeImage,
    /// Page image of the backward-clustered tree.
    pub bwd: RawTreeImage,
    /// Checkpoint bytes backing the forward tree (its tree section plus
    /// half the partition's row section) — what its restore read charge
    /// is based on.  Zero for a [`StoredPartition::dump`].
    pub fwd_bytes: usize,
    /// Serialized snapshot bytes backing the backward tree.
    pub bwd_bytes: usize,
}

/// A version's rows borrowed from its forward tree: `(row, rowid)`,
/// sorted by row id.
pub(crate) type RowRefs<'a> = Vec<(&'a Row, u64)>;

/// Rows that are not allocated yet: each row's id in listing order, and
/// the cells of all of them in one buffer, `arity` per row.  What the
/// checkpoint readers decode rows into, so that
/// [`StoredPartition::restore`] allocates every row exactly once.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowTable {
    /// Cells per row.
    pub arity: usize,
    /// The row id of each row.
    pub ids: Vec<u64>,
    /// Every row's cells, row after row.
    pub cells: Vec<Option<Cell>>,
}

impl RowTable {
    /// No rows of `arity` cells yet.
    pub fn new(arity: usize) -> Self {
        RowTable::with_capacity(arity, 0)
    }

    /// No rows of `arity` cells yet, with room for `rows` of them.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        RowTable {
            arity,
            ids: Vec::with_capacity(rows),
            cells: Vec::with_capacity(rows * arity),
        }
    }

    /// Rows listed.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Copies of borrowed rows of `arity` cells.
    pub fn copied(arity: usize, rows: &RowRefs<'_>) -> Self {
        let mut table = RowTable::new(arity);
        for &(row, rowid) in rows {
            table.push(rowid, row.cells().iter().cloned());
        }
        table
    }

    /// List one row; `cells` must yield `arity` cells.
    pub fn push(&mut self, rowid: u64, cells: impl IntoIterator<Item = Option<Cell>>) {
        self.ids.push(rowid);
        self.cells.extend(cells);
    }

    /// The cells of the row listed `k`th.
    pub fn row(&self, k: usize) -> &[Option<Cell>] {
        &self.cells[k * self.arity..(k + 1) * self.arity]
    }

    fn row_mut(&mut self, k: usize) -> &mut [Option<Cell>] {
        &mut self.cells[k * self.arity..(k + 1) * self.arity]
    }
}

/// Row ids in ascending order, each with the listing position of its
/// row — how a leaf's row ids find their rows.
struct RowIds(Vec<(u64, usize)>);

impl RowIds {
    /// Index `ids` (listing order); a row id listed twice is an error.
    fn new(ids: &[u64]) -> std::result::Result<Self, String> {
        let mut by_rowid: Vec<(u64, usize)> = ids
            .iter()
            .enumerate()
            .map(|(k, &rowid)| (rowid, k))
            .collect();
        by_rowid.sort_unstable();
        if let Some(twice) = by_rowid.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!("row id {} appears twice", twice[0].0));
        }
        Ok(RowIds(by_rowid))
    }

    /// The listing position of the row with id `rowid`.  Row ids are
    /// issued densely, so a row id's offset from the first one is nearly
    /// always its position; a binary search finds the others.
    fn get(&self, rowid: u64) -> Option<usize> {
        let first = self.0.first()?.0;
        let guess = usize::try_from(rowid.wrapping_sub(first)).ok();
        match guess.and_then(|at| self.0.get(at)) {
            Some(&(id, k)) if id == rowid => Some(k),
            _ => {
                let at = self.0.binary_search_by_key(&rowid, |&(id, _)| id).ok()?;
                Some(self.0[at].1)
            }
        }
    }
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
/// (rows borrowed) for the checkpoint writer and by the checkpoint
/// reader, consumed by `PartitionImage::apply_delta` — or, over an empty
/// partition, by [`PartitionDelta::into_image`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PartitionDelta<Rows = RowTable> {
    pub from: usize,
    pub to: usize,
    pub next_rowid: u64,
    /// Expected distinct-row count *after* applying this delta (integrity
    /// check on the patched rows).
    pub nrows: usize,
    /// `(row, rowid)` for rows inserted since the base, listed by row id.
    pub upserts: Rows,
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
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// The image these pages make over an empty tree.
    fn into_image(self) -> RawTreeImage {
        let mut nodes = vec![RawNode::Free; self.total_nodes];
        for (slot, node) in self.pages {
            nodes[slot] = node;
        }
        RawTreeImage {
            root: self.root,
            height: self.height,
            len: self.len,
            free: self.free,
            nodes,
        }
    }

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

impl PartitionDelta<RowRefs<'_>> {
    /// The delta with its borrowed rows copied out.
    pub(crate) fn owned(self) -> PartitionDelta {
        PartitionDelta {
            upserts: RowTable::copied(self.to - self.from + 1, &self.upserts),
            from: self.from,
            to: self.to,
            next_rowid: self.next_rowid,
            nrows: self.nrows,
            deletes: self.deletes,
            fwd: self.fwd,
            bwd: self.bwd,
            fwd_bytes: self.fwd_bytes,
            bwd_bytes: self.bwd_bytes,
        }
    }
}

impl PartitionDelta {
    /// The image this delta makes over an empty partition: its rows, and
    /// its pages in slabs that are otherwise free.
    pub(crate) fn into_image(self) -> PartitionImage {
        PartitionImage {
            from: self.from,
            to: self.to,
            next_rowid: self.next_rowid,
            rows: self.upserts,
            fwd: self.fwd.into_image(),
            bwd: self.bwd.into_image(),
            fwd_bytes: self.fwd_bytes,
            bwd_bytes: self.bwd_bytes,
        }
    }
}

impl PartitionImage {
    /// Patch this (base-checkpoint) image with a delta, yielding the image
    /// the primary would have dumped when it took the delta.  Rows are merged
    /// by row id; tree slabs grow to the delta's size and changed pages are
    /// overwritten.  Fails with a descriptive error on any inconsistency —
    /// the caller falls back to a rebuild or NACKs the delivery.
    pub(crate) fn apply_delta(mut self, d: &PartitionDelta) -> Result<PartitionImage> {
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
        // Row id → where its row comes from: the base's rows less the
        // deleted ones (which may predate the base, never shipped:
        // tolerated), then the upserts, a later listing winning.
        let mut merged: BTreeMap<u64, (bool, usize)> = (self.rows.ids.iter().enumerate())
            .map(|(k, &rowid)| (rowid, (false, k)))
            .collect();
        for rowid in &d.deletes {
            merged.remove(rowid);
        }
        for (k, &rowid) in d.upserts.ids.iter().enumerate() {
            merged.insert(rowid, (true, k));
        }
        let mut rows = RowTable::new(self.rows.arity);
        for (rowid, (upsert, k)) in merged {
            if upsert {
                rows.push(rowid, d.upserts.row(k).iter().cloned());
            } else {
                rows.push(rowid, self.rows.row_mut(k).iter_mut().map(Option::take));
            }
        }
        if rows.len() != d.nrows {
            return Err(corrupt(format!(
                "patched image has {} rows, delta expects {}",
                rows.len(),
                d.nrows
            )));
        }
        Ok(PartitionImage {
            from: d.from,
            to: d.to,
            next_rowid: d.next_rowid,
            rows,
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
        // Every slot past the base's slab is new, so the delta lists it.
        if d.total_nodes > self.nodes.len() + d.pages.len() {
            return Err(corrupt(format!(
                "slab grew by {} pages, the delta lists {}",
                d.total_nodes - self.nodes.len(),
                d.pages.len()
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

    /// The row ids of the leaves along the leftmost leaf's sibling chain
    /// — every entry in key order.  Stops where the image does not hold
    /// one well-formed chain (the adopting tree reports what is wrong).
    fn leaf_chain(&self) -> Vec<&[u64]> {
        let mut node = self.root;
        for _ in 0..self.height.min(self.nodes.len()) {
            match self.nodes.get(node) {
                Some(RawNode::Inner { children, .. }) if !children.is_empty() => {
                    node = children[0];
                }
                _ => break,
            }
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut leaves = Vec::new();
        while let Some(RawNode::Leaf { rowids, next }) = self.nodes.get(node) {
            if std::mem::replace(&mut seen[node], true) {
                break;
            }
            leaves.push(rowids.as_slice());
            match next {
                Some(next) => node = *next,
                None => break,
            }
        }
        leaves
    }

    /// Rehydrate into a full [`TreeImage`], each leaf entry's row found
    /// by `row_of(rowid)` and its key derived from the row via `key_cell`
    /// (`Row::first` for the forward tree, `Row::last` for the backward
    /// one).
    fn materialize<'r>(
        &self,
        row_of: impl Fn(u64) -> Option<&'r Row>,
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
                        let Some(row) = row_of(rowid) else {
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
    fn a_partition_is_a_set() {
        let stats = fresh_stats();
        let mut p = StoredPartition::new(0, 2, Rc::clone(&stats));
        let r = row![c(0), c(1), c(2)];
        assert!(p.insert(r.clone()).unwrap());
        stats.reset();
        assert!(
            !p.insert(r.clone()).unwrap(),
            "a stored row is not stored twice"
        );
        assert_eq!(stats.accesses(), 0, "re-inserting charges nothing");
        assert_eq!(p.len(), 1);
        assert_eq!(
            p.lookup_first(&Cell::Oid(asr_gom::Oid::from_raw(0))),
            vec![r.clone()]
        );
        assert!(p.remove(&r).unwrap());
        assert!(p.is_empty());

        stats.reset();
        assert!(!p.remove(&r).unwrap(), "removing an absent row is a no-op");
        assert_eq!(stats.accesses(), 0, "and charges nothing");
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
        p.insert(row![c(5), c(10005), c(5)]).unwrap(); // already stored
        for k in 0..4u64 {
            p.remove(&row![c(k), c(k + 10000), c(k % 7)]).unwrap();
        }
        let version = p.freeze();
        let delta = version.delta(&p.mark_clean()).owned();
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
        let five = Cell::Oid(asr_gom::Oid::from_raw(5));
        assert_eq!(restored.lookup_first(&five), p.lookup_first(&five));
    }

    #[test]
    fn a_bulk_loaded_partition_is_wholly_dirty_until_marked_clean() {
        let mut p = part();
        p.bulk_load((0..100u64).map(|k| row![c(k), c(k + 1000), c(k % 7)]))
            .unwrap();
        for k in 0..3u64 {
            assert!(p.remove(&row![c(k), c(k + 1000), c(k % 7)]).unwrap());
        }
        for k in 100..102u64 {
            assert!(p.insert(row![c(k), c(k + 1000), c(k % 7)]).unwrap());
        }
        assert_eq!(
            p.changed_rows(),
            99 + 3,
            "live rows dirty, removed ones dead"
        );
        let version = p.freeze();
        let changes = p.mark_clean();
        let delta = version.delta(&changes);
        let upserts: Vec<u64> = delta.upserts.iter().map(|&(_, rowid)| rowid).collect();
        assert_eq!(upserts, (3..102).collect::<Vec<_>>());
        assert_eq!(delta.deletes, vec![0, 1, 2]);
        assert_eq!(p.changed_rows(), 0, "clean after the checkpoint");
    }

    #[test]
    fn clean_partition_produces_empty_delta() {
        let mut p = part();
        for k in 0..50u64 {
            p.insert(row![c(k), c(k + 100), c(k % 3)]).unwrap();
        }
        p.mark_clean();
        let version = p.freeze();
        let delta = version.delta(&p.mark_clean()).owned();
        assert_eq!(delta.upserts.len(), 0);
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
        let delta = version.delta(&p.mark_clean()).owned();
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
