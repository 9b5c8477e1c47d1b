//! Stored partitions: the on-"disk" form of access support relations.
//!
//! Following Valduriez' join indices, every partition `E^{i,j}_X` is stored
//! in **two redundant B+ trees** (Section 5.2): one clustered on the first
//! attribute (OIDs of `t_i` objects — fast *forward* lookups) and one on
//! the last attribute (OIDs of `t_j` — fast *backward* lookups).  Tuple and
//! key sizes follow the paper's geometry: a tuple occupies `OIDsize ·
//! (j − i + 1)` bytes (formula 13), keys occupy `OIDsize`.
//!
//! A row is its own key, stored inline in both trees: the forward tree's
//! leaves hold its cells in column order, the backward tree's the same
//! cells rotated last column first.  Neither tree holds a value or a row
//! id, and no row is an allocation of its own.  A cluster — the rows with
//! one first (or last) cell — is a prefix range of one tree.
//!
//! A partition is a *set*: the distinct projections of the extension
//! rows onto its span (Definition 3.8).  Several extension rows may
//! project to the same partition row, but the partition keeps no count of
//! them: incremental maintenance decides each partition's own delta by
//! probing (see `maintenance`), so inserting a stored row or removing an
//! absent one is a no-op.
//!
//! A delta checkpoint of a partition is the pages its checkpointed
//! version does not share with the previous checkpoint's, and those pages
//! carry their rows.  Taking a checkpoint marks both trees' pages
//! (`StoredPartition::mark_clean`); `PartitionVersion::delta` later lists
//! the pages no longer the marked ones.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use asr_pagesim::{
    IoStats, NodeImage, PageMarks, PageSlab, Prefix, RowTree, Rows, StatsHandle, TreeImage,
    WordBuildHasher, OID_SIZE, PAGE_SIZE,
};

use crate::cell::Cell;
use crate::error::{AsrError, Result};
use crate::query::Frontier;
use crate::row::{Row, RowRef};

/// The layout of a clustering tree: rows of cells, each its own key.
pub type Cells = Rows<Option<Cell>>;

/// One of a partition's two clustering trees.
pub type ClusterTree = RowTree<Option<Cell>>;

const _: () = assert!(std::mem::size_of::<Option<Cell>>() == 16);

/// A row's cells rotated last column first: its backward-tree key.
fn rotated(cells: &[Option<Cell>]) -> Vec<Option<Cell>> {
    let (last, rest) = cells.split_last().expect("rows are never 0-ary");
    std::iter::once(last).chain(rest).cloned().collect()
}

/// A partition `[S_from, …, S_to]` stored in two clustered B+ trees.
#[derive(Debug)]
pub struct StoredPartition {
    from: usize,
    to: usize,
    /// Rows in column order, clustered on the first column.
    fwd: ClusterTree,
    /// Rows rotated last column first, clustered on the last column.
    bwd: ClusterTree,
    /// Both trees' pages as of the base checkpoint ([`Self::mark_clean`]).
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
        let arity = to - from + 1;
        let tuple_size = OID_SIZE * arity; // formula (13)
        StoredPartition {
            from,
            to,
            fwd: RowTree::new(arity, tuple_size, OID_SIZE, Rc::clone(&stats)),
            bwd: RowTree::new(arity, tuple_size, OID_SIZE, Rc::clone(&stats)),
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

    /// The forward-clustered tree (rows in column order).
    pub fn forward_tree(&self) -> &ClusterTree {
        &self.fwd
    }

    /// The backward-clustered tree (rows rotated last column first).
    pub fn backward_tree(&self) -> &ClusterTree {
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

    /// Is `row` stored?  An uncharged point lookup in the forward tree:
    /// no page is charged, and no buffer-pool or batch state changes.
    fn contains(&self, row: &Row) -> bool {
        self.fwd.pages().get_entry(row.cells(), &|_| {}).is_some()
    }

    /// Store `row` in both trees unless it is stored already.  Returns
    /// whether it was new; a stored row is left as it is and charges
    /// nothing.  All-NULL rows are ignored (partitions never store them).
    pub fn insert(&mut self, row: Row) -> Result<bool> {
        self.check_arity(&row)?;
        if row.is_all_null() || self.contains(&row) {
            return Ok(false);
        }
        self.version = None;
        self.fwd.insert(row.cells())?;
        self.bwd.insert(&rotated(row.cells()))?;
        Ok(true)
    }

    /// Delete `row` from both trees.  Removing an absent row is a no-op
    /// (returns `false`) that charges nothing.
    pub fn remove(&mut self, row: &Row) -> Result<bool> {
        self.check_arity(row)?;
        if !self.contains(row) {
            return Ok(false);
        }
        self.version = None;
        self.fwd.remove(row.cells());
        self.bwd.remove(&rotated(row.cells()));
        Ok(true)
    }

    /// All rows whose *first* column equals `cell` — a forward cluster
    /// lookup (`ht + nlp` page accesses in the paper's terms).
    pub fn lookup_first(&self, cell: &Cell) -> Vec<Row> {
        let mut rows = Vec::new();
        (self.fwd).scan_entries(&Prefix(Some(cell.clone())), |cells| {
            rows.push(RowRef::new(cells).to_row())
        });
        rows
    }

    /// All rows whose *last* column equals `cell` — a backward cluster
    /// lookup on the second tree.
    pub fn lookup_last(&self, cell: &Cell) -> Vec<Row> {
        let mut rows = Vec::new();
        (self.bwd).scan_entries(&Prefix(Some(cell.clone())), |cells| {
            rows.push(RowRef::rotated(cells).to_row())
        });
        rows
    }

    /// The partition's one batched probe: visit, by reference, the rows
    /// whose first (`forward`) or last column is in `frontier` — grouped
    /// per cell in frontier order, the concatenation of the per-cell
    /// [`Self::lookup_first`] / [`Self::lookup_last`] answers — through one
    /// shared descent of that clustering tree, each page charged at most
    /// once for the whole batch.
    pub fn probe(&self, forward: bool, frontier: &Frontier, visit: &mut dyn FnMut(RowRef<'_>)) {
        if forward {
            (self.fwd).probe_sorted(cell_ranges(frontier), |_, cells| visit(RowRef::new(cells)));
        } else {
            (self.bwd).probe_sorted(cell_ranges(frontier), |_, cells| {
                visit(RowRef::rotated(cells))
            });
        }
    }

    /// Exhaustively scan all rows (used when a query enters a partition in
    /// the middle — the paper's `ap^{i,j}` full-scan term in formula 33).
    pub fn scan(&self, mut visit: impl FnMut(RowRef<'_>)) {
        self.fwd.visit_all(|cells| visit(RowRef::new(cells)));
    }

    /// Bulk-load distinct rows, building both clustered B+ trees
    /// bottom-up (one page write per created node — the fast path of
    /// [`crate::AccessSupportRelation::rebuild`]).  The partition must be
    /// empty and the rows distinct; all-NULL rows are skipped.
    pub fn bulk_load(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        let mut rows: Vec<Row> = rows.into_iter().collect();
        if let Some(row) = rows.iter().find(|row| row.arity() != self.arity()) {
            return self.check_arity(row);
        }
        rows.retain(|row| !row.is_all_null());
        rows.sort_unstable();
        let cells = rows.iter().flat_map(Row::cells).cloned().collect();
        self.bulk_load_sorted(cells)
    }

    /// [`Self::bulk_load`] of the cells of strictly ascending rows, none
    /// all-NULL, row after row.  The forward tree's leaves are cut out of
    /// `cells` as they are; the backward tree's are the rows rotated and
    /// ordered by last cell, rows with the same last cell in forward
    /// order — exactly the rotated rows' order.  The forward tree is built
    /// first, on the calling thread.
    pub(crate) fn bulk_load_sorted(&mut self, cells: Vec<Option<Cell>>) -> Result<()> {
        assert!(self.is_empty(), "bulk_load requires an empty partition");
        let w = self.arity();
        let row = |k: usize| &cells[k * w..(k + 1) * w];
        let mut order: Vec<usize> = (0..cells.len() / w).collect();
        order.sort_by(|&a, &b| row(a)[w - 1].cmp(&row(b)[w - 1]));
        let mut bwd = Vec::with_capacity(cells.len());
        for k in order {
            let (last, rest) = row(k).split_last().expect("rows are never 0-ary");
            bwd.push(last.clone());
            bwd.extend_from_slice(rest);
        }
        self.version = None;
        self.fwd.fill_entries(cells)?;
        self.bwd.fill_entries(bwd)?;
        Ok(())
    }

    /// The partition's physical image — what outlives the partition (a
    /// base image to patch).  Charges nothing.
    pub(crate) fn dump(&self) -> PartitionImage {
        let fwd = self.fwd.dump_image();
        let bwd = self.bwd.dump_image();
        PartitionImage {
            from: self.from,
            to: self.to,
            fwd_lens: vec![0; fwd.nodes.len()],
            bwd_lens: vec![0; bwd.nodes.len()],
            fwd,
            bwd,
            fwd_bytes: 0,
            bwd_bytes: 0,
        }
    }

    /// Make the partition as it is now the base of the next delta
    /// checkpoint: mark both trees' pages.  Returns the marks of the
    /// previous base.  Invoked when a checkpoint (full or delta) of this
    /// partition is taken or loaded.
    pub(crate) fn mark_clean(&mut self) -> PartitionChanges {
        let base = PartitionChanges {
            fwd: self.fwd.pages().marks(),
            bwd: self.bwd.pages().marks(),
        };
        std::mem::replace(&mut self.changes, base)
    }

    /// How many pages of both trees changed since the base — the shell's
    /// checkpoint-lineage summary uses this.
    pub(crate) fn changed_pages(&self) -> usize {
        self.fwd.pages().changed_since(&self.changes.fwd).count()
            + self.bwd.pages().changed_since(&self.changes.bwd).count()
    }

    /// Physically re-attach a partition from its snapshot image: register
    /// both trees under `label` (so restore reads attribute to the same
    /// `(kind, label)` structure ids as before the save), then adopt the
    /// page images — each tree charged one read per page of its share of
    /// the serialized physical section, no extension join, no bulk build.
    /// Each page remembers the encoded length the image recorded for it,
    /// which prices the next checkpoint's choice between a delta and
    /// images.
    ///
    /// [`asr_pagesim::BTree::adopt_image`] validates each tree (page
    /// layout, rows of the partition's width, keys strictly ascending);
    /// then both trees must hold the same rows.  Any inconsistency yields
    /// a descriptive error and never panics.
    pub(crate) fn restore(img: PartitionImage, stats: StatsHandle, label: &str) -> Result<Self> {
        let corrupt = |msg: String| AsrError::Snapshot(format!("partition image: {msg}"));
        if img.from >= img.to {
            return Err(corrupt(format!("bad span ({}, {})", img.from, img.to)));
        }
        let mut p = StoredPartition::new(img.from, img.to, stats);
        p.tag(label);
        p.fwd.adopt_image(img.fwd)?;
        p.bwd.adopt_image(img.bwd)?;
        for (tree, lens) in [(&p.fwd, &img.fwd_lens), (&p.bwd, &img.bwd_lens)] {
            let pages = tree.pages();
            for (slot, &len) in lens.iter().enumerate().take(pages.slot_count()) {
                pages.remember_encoded_len(slot, len as usize);
            }
        }
        if !same_rows(p.fwd.pages(), p.bwd.pages()) {
            return Err(corrupt(format!(
                "the trees hold different rows: fwd={} bwd={}",
                p.fwd.pages().len(),
                p.bwd.pages().len()
            )));
        }
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
    pub(crate) fn clustered_rows(&self, backward: bool) -> Vec<Row> {
        let tree = if backward { &self.bwd } else { &self.fwd };
        let mut rows = Vec::with_capacity(tree.pages().len());
        tree.pages().scan_all(
            |_| {},
            |cells| {
                let row = if backward {
                    RowRef::rotated(cells)
                } else {
                    RowRef::new(cells)
                };
                rows.push(row.to_row());
            },
        );
        rows
    }

    /// Verify the partition's invariants; used by tests.  Both trees are
    /// well-formed B+ trees of rows of the partition's width, keyed
    /// strictly ascending (so no row is stored twice), holding the same
    /// rows.
    pub fn check_consistency(&self) -> Result<()> {
        self.fwd.check_invariants()?;
        self.bwd.check_invariants()?;
        if !same_rows(self.fwd.pages(), self.bwd.pages()) {
            return Err(AsrError::PageSim(
                asr_pagesim::PageSimError::CorruptStructure(format!(
                    "the trees hold different rows: fwd={} bwd={}",
                    self.fwd.pages().len(),
                    self.bwd.pages().len()
                )),
            ));
        }
        Ok(())
    }
}

/// Do the forward tree's rows and the backward tree's rotated rows form
/// the same set?  Each tree's keys ascend strictly, so each holds
/// distinct rows, and equal counts plus a one-to-one match settle it.
/// The backward tree lists the rows ending in a cell `z` as one cluster,
/// in forward order; so, walking the forward rows in order, a row ending
/// in `z` must be the next unmatched row of cluster `z`.  Charges
/// nothing.  The cluster map hashes with [`asr_pagesim::WordHasher`], as
/// the clustered files' OID index rebuilt from the same document does:
/// cells a writer chose to collide could make it slow, never wrong, and
/// SipHash took 3–4× as long (≈4 ms against ≈1.3 ms for one partition of
/// 29 000 rows).
fn same_rows(fwd: &PageSlab<Cells>, bwd: &PageSlab<Cells>) -> bool {
    if fwd.len() != bwd.len() || fwd.stride() != bwd.stride() {
        return false;
    }
    let mut rotated: Vec<&[Option<Cell>]> = Vec::with_capacity(bwd.len());
    bwd.scan_all(|_| {}, |cells| rotated.push(cells));
    let clusters = 1 + rotated.windows(2).filter(|w| w[0][0] != w[1][0]).count();
    let mut next: HashMap<&Option<Cell>, usize, WordBuildHasher> =
        HashMap::with_capacity_and_hasher(clusters, WordBuildHasher::default());
    for (at, cells) in rotated.iter().enumerate() {
        next.entry(&cells[0]).or_insert(at);
    }
    let mut same = true;
    fwd.scan_all(
        |_| {},
        |cells| {
            let (last, rest) = cells.split_last().expect("rows are never 0-ary");
            match next.get_mut(last) {
                Some(at)
                    if rotated
                        .get(*at)
                        .is_some_and(|r| r[0] == *last && r[1..] == *rest) =>
                {
                    *at += 1
                }
                _ => same = false,
            }
        },
    );
    same
}

/// The batched probe's key ranges: for each frontier cell, the cluster of
/// rows keyed under it.  A live partition and a pinned version probe with
/// the same ranges.
pub(crate) fn cell_ranges(frontier: &Frontier) -> impl Iterator<Item = Prefix<Option<Cell>>> + '_ {
    frontier.cells().iter().map(|c| Prefix(Some(c.clone())))
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
    /// The forward-clustered tree's pages (rows in column order).
    pub fwd: PageSlab<Cells>,
    /// The backward-clustered tree's pages (rows rotated).
    pub bwd: PageSlab<Cells>,
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

    /// What this version changed since the base `changes` was marked at:
    /// each tree's pages not shared with the base, borrowed.  Charges
    /// nothing — the delta writer prices the bytes it emits.
    pub fn delta<'a>(&'a self, changes: &PartitionChanges) -> VersionDelta<'a> {
        VersionDelta {
            from: self.from,
            to: self.to,
            fwd: ChangedPages::of(&self.fwd, &changes.fwd),
            bwd: ChangedPages::of(&self.bwd, &changes.bwd),
        }
    }
}

/// Both clustering trees' pages as of a base checkpoint.
/// [`StoredPartition::mark_clean`] hands it over and
/// [`PartitionVersion::delta`] reads a delta off a version with it.  The
/// default (empty marks) counts every page as changed: read off a
/// version, it makes its delta over an empty partition — its image.
#[derive(Debug, Default)]
pub(crate) struct PartitionChanges {
    fwd: PageMarks<Cells>,
    bwd: PageMarks<Cells>,
}

impl PartitionChanges {
    /// Was the partition made since the base (created or rebuilt), so
    /// that these changes are not measured from the base's partition?
    pub(crate) fn is_fresh(&self) -> bool {
        self.fwd.is_empty()
    }
}

/// What a [`PartitionVersion`] changed since a base: the pages of each
/// tree the base does not share, read in place by the checkpoint writer.
#[derive(Debug)]
pub(crate) struct VersionDelta<'a> {
    pub from: usize,
    pub to: usize,
    pub fwd: ChangedPages<'a>,
    pub bwd: ChangedPages<'a>,
}

impl VersionDelta<'_> {
    /// Did anything change?
    pub(crate) fn is_empty(&self) -> bool {
        self.fwd.slots.is_empty() && self.bwd.slots.is_empty()
    }
}

/// One tree's slab and the slots, ascending, that changed since a base.
#[derive(Debug)]
pub(crate) struct ChangedPages<'a> {
    pub pages: &'a PageSlab<Cells>,
    pub slots: Vec<usize>,
}

impl<'a> ChangedPages<'a> {
    fn of(pages: &'a PageSlab<Cells>, base: &PageMarks<Cells>) -> Self {
        ChangedPages {
            pages,
            slots: pages.changed_since(base).collect(),
        }
    }
}

/// The serializable physical state of one [`StoredPartition`]: the page
/// images of both clustering trees, whose leaves carry the rows.
/// Produced by `StoredPartition::dump` and the checkpoint readers,
/// consumed by `StoredPartition::restore`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PartitionImage {
    /// First spanned column of the host relation.
    pub from: usize,
    /// Last spanned column (inclusive).
    pub to: usize,
    /// Page image of the forward-clustered tree.
    pub fwd: TreeImage<Cells>,
    /// Page image of the backward-clustered tree.
    pub bwd: TreeImage<Cells>,
    /// The encoded length of each forward-tree page as read, by slot (0
    /// where it is not known).
    pub fwd_lens: Vec<u32>,
    /// The same for the backward tree.
    pub bwd_lens: Vec<u32>,
    /// Checkpoint bytes backing the forward tree — what its restore read
    /// charge is based on.  Zero for a [`StoredPartition::dump`].
    pub fwd_bytes: usize,
    /// Serialized snapshot bytes backing the backward tree.
    pub bwd_bytes: usize,
}

/// Pages a restored tree is charged for `bytes` of serialized image
/// (never free: at least one page read).
fn restore_pages(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(PAGE_SIZE as u64).max(1)
}

/// A partition's delta as the checkpoint reader decodes it: each tree's
/// changed pages and post-change geometry.  Patches a base image
/// ([`PartitionImage::apply_delta`]) or, over an empty partition, is one
/// ([`PartitionDelta::into_image`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PartitionDelta {
    pub from: usize,
    pub to: usize,
    /// Changed pages of the forward-clustered tree.
    pub fwd: TreeDelta,
    /// Changed pages of the backward-clustered tree.
    pub bwd: TreeDelta,
    /// Serialized delta bytes attributed to each tree — the patched
    /// image's restore-read charge.
    pub fwd_bytes: usize,
    pub bwd_bytes: usize,
}

/// Changed pages of one clustering tree since the base, with the full
/// post-change geometry.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TreeDelta {
    pub root: usize,
    pub height: usize,
    pub len: usize,
    pub free: Vec<usize>,
    /// Slab size after the change — a patched base image grows (never
    /// shrinks) to this many pages.
    pub total_nodes: usize,
    /// `(page id, new content, its encoded length)` for every page not
    /// shared with the base, including pages that became `Free`.
    pub pages: Vec<(usize, NodeImage<Cells>, u32)>,
}

impl TreeDelta {
    /// The image these pages make over an empty tree, and their lengths.
    fn into_image(self) -> (TreeImage<Cells>, Vec<u32>) {
        let mut nodes = vec![NodeImage::Free; self.total_nodes];
        let mut lens = vec![0; self.total_nodes];
        for (slot, node, len) in self.pages {
            nodes[slot] = node;
            lens[slot] = len;
        }
        let image = TreeImage {
            root: self.root,
            height: self.height,
            len: self.len,
            free: self.free,
            nodes,
        };
        (image, lens)
    }

    /// Overlay these changed pages onto the `base` image (whose pages
    /// encode to `lens`) and adopt their geometry.  The slab only ever
    /// grows; every slot past the base's slab is new, so the delta lists
    /// it.
    fn patch(
        self,
        mut base: TreeImage<Cells>,
        mut lens: Vec<u32>,
    ) -> Result<(TreeImage<Cells>, Vec<u32>)> {
        let corrupt = |msg: String| AsrError::Snapshot(format!("tree delta: {msg}"));
        if self.total_nodes < base.nodes.len() {
            return Err(corrupt(format!(
                "slab shrank ({} -> {} pages)",
                base.nodes.len(),
                self.total_nodes
            )));
        }
        if self.total_nodes > base.nodes.len() + self.pages.len() {
            return Err(corrupt(format!(
                "slab grew by {} pages, the delta lists {}",
                self.total_nodes - base.nodes.len(),
                self.pages.len()
            )));
        }
        base.nodes.resize(self.total_nodes, NodeImage::Free);
        lens.resize(self.total_nodes, 0);
        for (id, node, len) in self.pages {
            let total = self.total_nodes;
            let slot = (base.nodes.get_mut(id))
                .ok_or_else(|| corrupt(format!("page {id} outside slab of {total}")))?;
            *slot = node;
            lens[id] = len;
        }
        let image = TreeImage {
            root: self.root,
            height: self.height,
            len: self.len,
            free: self.free,
            nodes: base.nodes,
        };
        Ok((image, lens))
    }
}

impl PartitionDelta {
    /// The image this delta makes over an empty partition: its pages in
    /// slabs that are otherwise free.
    pub(crate) fn into_image(self) -> PartitionImage {
        let (fwd, fwd_lens) = self.fwd.into_image();
        let (bwd, bwd_lens) = self.bwd.into_image();
        PartitionImage {
            from: self.from,
            to: self.to,
            fwd,
            bwd,
            fwd_lens,
            bwd_lens,
            fwd_bytes: self.fwd_bytes,
            bwd_bytes: self.bwd_bytes,
        }
    }
}

impl PartitionImage {
    /// Patch this (base-checkpoint) image with a delta, yielding the image
    /// the primary would have dumped when it took the delta: tree slabs
    /// grow to the delta's size and changed pages are overwritten.  Fails
    /// with a descriptive error on any inconsistency — the caller falls
    /// back to a rebuild or NACKs the delivery; restoring the patched
    /// image checks its trees.
    pub(crate) fn apply_delta(self, d: PartitionDelta) -> Result<PartitionImage> {
        if (self.from, self.to) != (d.from, d.to) {
            return Err(AsrError::Snapshot(format!(
                "partition delta: span mismatch: base ({}, {}), delta ({}, {})",
                self.from, self.to, d.from, d.to
            )));
        }
        let (fwd, fwd_lens) = d.fwd.patch(self.fwd, self.fwd_lens)?;
        let (bwd, bwd_lens) = d.bwd.patch(self.bwd, self.bwd_lens)?;
        Ok(PartitionImage {
            from: d.from,
            to: d.to,
            fwd,
            bwd,
            fwd_lens,
            bwd_lens,
            fwd_bytes: d.fwd_bytes,
            bwd_bytes: d.bwd_bytes,
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

    /// A version's delta with its pages copied out, as the reader
    /// decodes it.
    fn owned(d: VersionDelta<'_>) -> PartitionDelta {
        let tree = |c: ChangedPages<'_>| TreeDelta {
            root: c.pages.root_slot(),
            height: c.pages.height(),
            len: c.pages.len(),
            free: c.pages.free_slots().to_vec(),
            total_nodes: c.pages.slot_count(),
            pages: (c.slots.iter())
                .map(|&slot| (slot, c.pages.page(slot).to_image(), 0))
                .collect(),
        };
        PartitionDelta {
            from: d.from,
            to: d.to,
            fwd: tree(d.fwd),
            bwd: tree(d.bwd),
            fwd_bytes: 0,
            bwd_bytes: 0,
        }
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
        assert_eq!(bwd, vec![row![c(0), c(1), c(2)], row![c(9), c(5), c(2)]]);
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
    fn bulk_load_builds_the_trees_inserts_would_hold() {
        let rows = (0..500u64).map(|k| row![c(k % 37), c(k), c(k % 11)]);
        let mut bulk = part();
        bulk.bulk_load(rows.clone().rev()).unwrap();
        bulk.check_consistency().unwrap();
        let mut one_by_one = part();
        for r in rows {
            one_by_one.insert(r).unwrap();
        }
        assert_eq!(bulk.clustered_rows(false), one_by_one.clustered_rows(false));
        assert_eq!(bulk.clustered_rows(true), one_by_one.clustered_rows(true));
        let eleven = Cell::Oid(asr_gom::Oid::from_raw(10));
        assert_eq!(bulk.lookup_last(&eleven), one_by_one.lookup_last(&eleven));
        let mut dup = part();
        let twice = [row![c(1), c(2), c(3)], row![c(1), c(2), c(3)]];
        assert!(dup.bulk_load(twice).is_err(), "rows must be distinct");
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
        let delta = owned(version.delta(&p.mark_clean()));
        assert!(
            delta.fwd.pages.len() < delta.fwd.total_nodes,
            "delta ships a strict subset of pages ({} of {})",
            delta.fwd.pages.len(),
            delta.fwd.total_nodes
        );
        let patched = base.apply_delta(delta).unwrap();
        assert_eq!(patched, p.dump(), "patched base == freshly dumped state");
        let restored = StoredPartition::restore(patched, fresh_stats(), "t").unwrap();
        restored.check_consistency().unwrap();
        assert_eq!(restored.len(), p.len());
        let five = Cell::Oid(asr_gom::Oid::from_raw(5));
        assert_eq!(restored.lookup_first(&five), p.lookup_first(&five));
    }

    #[test]
    fn changed_pages_count_since_the_mark() {
        let mut p = part();
        p.bulk_load((0..100u64).map(|k| row![c(k), c(k + 1000), c(k % 7)]))
            .unwrap();
        assert_eq!(p.changed_pages() as u64, p.total_pages(), "all new");
        p.mark_clean();
        assert_eq!(p.changed_pages(), 0, "clean after the checkpoint");
        assert!(p.remove(&row![c(0), c(1000), c(0)]).unwrap());
        assert_eq!(p.changed_pages(), 2, "one leaf of each tree");
    }

    #[test]
    fn clean_partition_produces_empty_delta() {
        let mut p = part();
        for k in 0..50u64 {
            p.insert(row![c(k), c(k + 100), c(k % 3)]).unwrap();
        }
        p.mark_clean();
        let version = p.freeze();
        let changes = p.mark_clean();
        assert!(version.delta(&changes).is_empty());
        let delta = owned(version.delta(&changes));
        let patched = p.dump().apply_delta(delta).unwrap();
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
        let delta = owned(version.delta(&p.mark_clean()));
        let mut wrong = delta.clone();
        wrong.fwd.len += 1; // claim a row that never arrives
        let patched = base.clone().apply_delta(wrong).unwrap();
        assert!(StoredPartition::restore(patched, fresh_stats(), "t").is_err());
        let mut delta = delta;
        delta.fwd.total_nodes = 0; // slab cannot shrink
        assert!(base.apply_delta(delta).is_err());
    }

    #[test]
    fn trees_that_disagree_are_refused() {
        let mut p = part();
        for k in 0..400u64 {
            p.insert(row![c(k % 50), c(k), c(k % 13)]).unwrap();
        }
        let good = p.dump();
        // One cell of one backward row changed: both trees stay valid B+
        // trees, but no longer hold the same rows.
        let mut img = good.clone();
        let leaf = (img.bwd.nodes.iter_mut())
            .find_map(|n| match n {
                NodeImage::Leaf { entries, .. } if entries.len() > 3 => Some(entries),
                _ => None,
            })
            .unwrap();
        leaf[2] = c(999_999);
        let err = StoredPartition::restore(img, fresh_stats(), "t").unwrap_err();
        assert!(err.to_string().contains("different rows"), "{err}");
        StoredPartition::restore(good, fresh_stats(), "t").unwrap();
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
