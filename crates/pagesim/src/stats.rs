//! Page-access accounting.
//!
//! Every simulated structure charges its page reads and writes to an
//! [`IoStats`] instance, shared through the cheaply clonable
//! [`StatsHandle`].  Experiments reset the counter, run an operation and
//! read off the access count — exactly the quantity the paper's analytical
//! model predicts.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// Shared, cheaply clonable handle to an [`IoStats`] counter.
pub type StatsHandle = Rc<IoStats>;

/// Identifies one registered storage structure (a clustered file or a B+
/// tree) for per-structure I/O attribution.
///
/// The default value, [`StructureId::UNTRACKED`], charges only the global
/// counters — structures opt in by registering a label via
/// [`IoStats::register_structure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StructureId(u32);

impl StructureId {
    /// The "no attribution" id every structure starts with.
    pub const UNTRACKED: StructureId = StructureId(0);

    /// Whether charges through this id reach a per-structure counter.
    pub fn is_tracked(self) -> bool {
        self.0 != 0
    }

    fn index(self) -> Option<usize> {
        (self.0 as usize).checked_sub(1)
    }
}

impl fmt::Display for StructureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_tracked() {
            write!(f, "s{}", self.0)
        } else {
            write!(f, "untracked")
        }
    }
}

/// The kind of storage structure behind a [`StructureId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureKind {
    /// A type-clustered object file (`opp_i` objects per page).
    ClusteredFile,
    /// A page-granular B+ tree (ASR partitions, directions).
    BTree,
    /// A sequential durability structure: the write-ahead log or a
    /// checkpoint snapshot file (`asr-durable`).
    Wal,
    /// Anything else that charges page traffic.
    Other,
}

impl StructureKind {
    /// Short lower-case name for tables and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            StructureKind::ClusteredFile => "clustered_file",
            StructureKind::BTree => "btree",
            StructureKind::Wal => "wal",
            StructureKind::Other => "other",
        }
    }
}

#[derive(Debug)]
struct StructureEntry {
    kind: StructureKind,
    label: String,
    reads: Cell<u64>,
    writes: Cell<u64>,
    buffer_hits: Cell<u64>,
}

/// A point-in-time copy of one structure's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureIo {
    /// The id charges were tagged with.
    pub id: StructureId,
    /// What kind of structure registered it.
    pub kind: StructureKind,
    /// Human-readable label chosen at registration.
    pub label: String,
    /// Page reads attributed to this structure.
    pub reads: u64,
    /// Page writes attributed to this structure.
    pub writes: u64,
    /// Buffer hits attributed to this structure.
    pub buffer_hits: u64,
}

impl StructureIo {
    /// Total attributed page accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Counts page reads and writes.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: Cell<u64>,
    writes: Cell<u64>,
    /// Reads satisfied by a buffer pool (not charged as disk reads).
    buffer_hits: Cell<u64>,
    /// Probes answered through a batched sorted descent
    /// ([`BPlusTree::scan_ranges_sorted`](crate::BPlusTree::scan_ranges_sorted)).
    batch_probes: Cell<u64>,
    /// Page reads a per-probe evaluation would have charged on top of what
    /// the batched descents actually read.
    batch_pages_saved: Cell<u64>,
    /// Per-structure attribution, indexed by `StructureId - 1`.
    structures: RefCell<Vec<StructureEntry>>,
}

impl IoStats {
    /// A fresh counter behind a shared handle.
    pub fn new_handle() -> StatsHandle {
        Rc::new(IoStats::default())
    }

    /// Charge one page read.
    pub fn count_read(&self) {
        self.reads.set(self.reads.get() + 1);
    }

    /// Charge one page write.
    pub fn count_write(&self) {
        self.writes.set(self.writes.get() + 1);
    }

    /// Record a buffer-pool hit (a logical read that cost no disk access).
    pub fn count_buffer_hit(&self) {
        self.buffer_hits.set(self.buffer_hits.get() + 1);
    }

    /// Record the outcome of one batched probe run: `probes` keys/ranges
    /// answered, saving `pages_saved` page reads over per-probe descents.
    pub fn count_batch(&self, probes: u64, pages_saved: u64) {
        self.batch_probes.set(self.batch_probes.get() + probes);
        self.batch_pages_saved
            .set(self.batch_pages_saved.get() + pages_saved);
    }

    /// Register a structure for I/O attribution; charges tagged with the
    /// returned id are counted both globally and per structure.
    pub fn register_structure(&self, kind: StructureKind, label: impl Into<String>) -> StructureId {
        let label = label.into();
        let mut structures = self.structures.borrow_mut();
        // Re-registering the same (kind, label) — e.g. after an ASR rebuild
        // recreates its partition trees — reuses the entry so the counters
        // accumulate across the structure's lifetimes.
        if let Some(idx) = structures
            .iter()
            .position(|e| e.kind == kind && e.label == label)
        {
            return StructureId(idx as u32 + 1);
        }
        structures.push(StructureEntry {
            kind,
            label,
            reads: Cell::new(0),
            writes: Cell::new(0),
            buffer_hits: Cell::new(0),
        });
        StructureId(structures.len() as u32)
    }

    fn with_entry(&self, id: StructureId, f: impl FnOnce(&StructureEntry)) {
        if let Some(idx) = id.index() {
            if let Some(entry) = self.structures.borrow().get(idx) {
                f(entry);
            }
        }
    }

    /// Charge one page read, attributed to `id`.
    pub fn count_read_for(&self, id: StructureId) {
        self.count_read();
        self.with_entry(id, |e| e.reads.set(e.reads.get() + 1));
    }

    /// Charge one page write, attributed to `id`.
    pub fn count_write_for(&self, id: StructureId) {
        self.count_write();
        self.with_entry(id, |e| e.writes.set(e.writes.get() + 1));
    }

    /// Record a buffer hit, attributed to `id`.
    pub fn count_buffer_hit_for(&self, id: StructureId) {
        self.count_buffer_hit();
        self.with_entry(id, |e| e.buffer_hits.set(e.buffer_hits.get() + 1));
    }

    /// Point-in-time counters for every registered structure, in
    /// registration order.
    pub fn structures(&self) -> Vec<StructureIo> {
        self.structures
            .borrow()
            .iter()
            .enumerate()
            .map(|(idx, e)| StructureIo {
                id: StructureId(idx as u32 + 1),
                kind: e.kind,
                label: e.label.clone(),
                reads: e.reads.get(),
                writes: e.writes.get(),
                buffer_hits: e.buffer_hits.get(),
            })
            .collect()
    }

    /// Point-in-time counters for one structure, if registered.
    pub fn structure(&self, id: StructureId) -> Option<StructureIo> {
        let idx = id.index()?;
        let structures = self.structures.borrow();
        let e = structures.get(idx)?;
        Some(StructureIo {
            id,
            kind: e.kind,
            label: e.label.clone(),
            reads: e.reads.get(),
            writes: e.writes.get(),
            buffer_hits: e.buffer_hits.get(),
        })
    }

    /// Pages read from disk so far.
    pub fn reads(&self) -> u64 {
        self.reads.get()
    }

    /// Pages written to disk so far.
    pub fn writes(&self) -> u64 {
        self.writes.get()
    }

    /// Buffer hits so far.
    pub fn buffer_hits(&self) -> u64 {
        self.buffer_hits.get()
    }

    /// Probes answered through batched sorted descents so far.
    pub fn batch_probes(&self) -> u64 {
        self.batch_probes.get()
    }

    /// Page reads avoided by batching so far (vs. per-probe descents).
    pub fn batch_pages_saved(&self) -> u64 {
        self.batch_pages_saved.get()
    }

    /// Total page accesses — the paper's cost metric (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads.get() + self.writes.get()
    }

    /// Reset all counters to zero. Structure registrations survive; only
    /// their counters are cleared.
    pub fn reset(&self) {
        self.reads.set(0);
        self.writes.set(0);
        self.buffer_hits.set(0);
        self.batch_probes.set(0);
        self.batch_pages_saved.set(0);
        for entry in self.structures.borrow().iter() {
            entry.reads.set(0);
            entry.writes.set(0);
            entry.buffer_hits.set(0);
        }
    }

    /// An immutable snapshot (for computing deltas across an operation).
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.get(),
            writes: self.writes.get(),
            buffer_hits: self.buffer_hits.get(),
            batch_probes: self.batch_probes.get(),
            batch_pages_saved: self.batch_pages_saved.get(),
        }
    }

    /// Accesses since `before` was taken.
    pub fn accesses_since(&self, before: &IoSnapshot) -> u64 {
        self.accesses() - (before.reads + before.writes)
    }

    /// Add a snapshot's totals into this counter's global tallies.
    ///
    /// This is the cheap half of the sharding contract (see
    /// [`absorb`](IoStats::absorb)): worker threads count into private
    /// handles and ship plain [`IoSnapshot`] values (which are `Send`) back
    /// to the coordinator, which folds them in here when the scope joins.
    pub fn absorb_snapshot(&self, shard: &IoSnapshot) {
        self.reads.set(self.reads.get() + shard.reads);
        self.writes.set(self.writes.get() + shard.writes);
        self.buffer_hits
            .set(self.buffer_hits.get() + shard.buffer_hits);
        self.batch_probes
            .set(self.batch_probes.get() + shard.batch_probes);
        self.batch_pages_saved
            .set(self.batch_pages_saved.get() + shard.batch_pages_saved);
    }

    /// Merge another counter — globals, batch tallies *and* per-structure
    /// attribution — into this one.
    ///
    /// `IoStats` is deliberately `Cell`-based and single-threaded: a
    /// parallel harness gives each worker thread its own *shard* (a
    /// private handle that never crosses threads, so the hot counting
    /// path stays free of atomics), then merges the shards into one
    /// aggregate when the scope joins.  Structures are matched by
    /// `(kind, label)` — the same identity
    /// [`register_structure`](IoStats::register_structure) dedups on — and
    /// registered here on first sight, so shard-local [`StructureId`]s
    /// never leak across counters.
    pub fn absorb(&self, shard: &IoStats) {
        self.absorb_snapshot(&shard.snapshot());
        for io in shard.structures() {
            let id = self.register_structure(io.kind, io.label);
            self.with_entry(id, |e| {
                e.reads.set(e.reads.get() + io.reads);
                e.writes.set(e.writes.get() + io.writes);
                e.buffer_hits.set(e.buffer_hits.get() + io.buffer_hits);
            });
        }
    }
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Page reads at snapshot time.
    pub reads: u64,
    /// Page writes at snapshot time.
    pub writes: u64,
    /// Buffer hits at snapshot time.
    pub buffer_hits: u64,
    /// Batched probes at snapshot time.
    pub batch_probes: u64,
    /// Pages saved by batching at snapshot time.
    pub batch_pages_saved: u64,
}

impl IoSnapshot {
    /// Total accesses in the snapshot.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fold another snapshot's tallies into this one (shard merging).
    pub fn merge(&mut self, other: &IoSnapshot) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.buffer_hits += other.buffer_hits;
        self.batch_probes += other.batch_probes;
        self.batch_pages_saved += other.batch_pages_saved;
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reads, {} writes ({} buffer hits)",
            self.reads.get(),
            self.writes.get(),
            self.buffer_hits.get()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_reset() {
        let stats = IoStats::new_handle();
        stats.count_read();
        stats.count_read();
        stats.count_write();
        stats.count_buffer_hit();
        assert_eq!(stats.reads(), 2);
        assert_eq!(stats.writes(), 1);
        assert_eq!(stats.buffer_hits(), 1);
        assert_eq!(stats.accesses(), 3);
        stats.reset();
        assert_eq!(stats.accesses(), 0);
    }

    #[test]
    fn snapshot_deltas() {
        let stats = IoStats::new_handle();
        stats.count_read();
        let before = stats.snapshot();
        stats.count_read();
        stats.count_write();
        assert_eq!(stats.accesses_since(&before), 2);
        assert_eq!(before.accesses(), 1);
    }

    #[test]
    fn structure_attribution_splits_the_totals() {
        let stats = IoStats::new_handle();
        let file = stats.register_structure(StructureKind::ClusteredFile, "EMP file");
        let tree = stats.register_structure(StructureKind::BTree, "asr fwd");
        assert!(file.is_tracked());
        assert_ne!(file, tree);

        stats.count_read_for(file);
        stats.count_read_for(file);
        stats.count_write_for(tree);
        stats.count_buffer_hit_for(tree);
        stats.count_read_for(StructureId::UNTRACKED);

        assert_eq!(stats.reads(), 3, "global totals include untracked charges");
        assert_eq!(stats.writes(), 1);
        assert_eq!(stats.buffer_hits(), 1);

        let per = stats.structures();
        assert_eq!(per.len(), 2);
        assert_eq!((per[0].reads, per[0].writes), (2, 0));
        assert_eq!(per[0].label, "EMP file");
        assert_eq!((per[1].reads, per[1].writes, per[1].buffer_hits), (0, 1, 1));
        assert_eq!(per[1].kind, StructureKind::BTree);

        let attributed: u64 = per.iter().map(|s| s.accesses()).sum();
        assert_eq!(attributed, 3, "one read was untracked");

        stats.reset();
        assert_eq!(stats.structure(tree).unwrap().accesses(), 0);
        assert_eq!(stats.structures().len(), 2, "registrations survive reset");
    }

    #[test]
    fn snapshot_merge_adds_fieldwise() {
        let a = IoStats::new_handle();
        a.count_read();
        a.count_batch(3, 5);
        let b = IoStats::new_handle();
        b.count_write();
        b.count_buffer_hit();
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!((total.reads, total.writes, total.buffer_hits), (1, 1, 1));
        assert_eq!((total.batch_probes, total.batch_pages_saved), (3, 5));
    }

    #[test]
    fn absorb_merges_shards_including_structures() {
        // Two worker shards charging the same logical structure plus one
        // shard-private structure each.
        let shard_a = IoStats::new_handle();
        let wal_a = shard_a.register_structure(StructureKind::Wal, "wal.log");
        let file_a = shard_a.register_structure(StructureKind::ClusteredFile, "EMP");
        shard_a.count_read_for(wal_a);
        shard_a.count_write_for(file_a);

        let shard_b = IoStats::new_handle();
        // Opposite registration order: ids differ per shard, identity is
        // (kind, label).
        let tree_b = shard_b.register_structure(StructureKind::BTree, "asr fwd");
        let wal_b = shard_b.register_structure(StructureKind::Wal, "wal.log");
        shard_b.count_write_for(wal_b);
        shard_b.count_write_for(wal_b);
        shard_b.count_buffer_hit_for(tree_b);

        let total = IoStats::new_handle();
        total.absorb(&shard_a);
        total.absorb(&shard_b);

        assert_eq!(total.reads(), 1);
        assert_eq!(total.writes(), 3);
        assert_eq!(total.buffer_hits(), 1);
        let per = total.structures();
        assert_eq!(per.len(), 3, "wal.log deduped across shards");
        let wal = per
            .iter()
            .find(|s| s.kind == StructureKind::Wal && s.label == "wal.log")
            .unwrap();
        assert_eq!((wal.reads, wal.writes), (1, 2));
    }

    #[test]
    fn absorb_snapshot_hits_only_globals() {
        let total = IoStats::new_handle();
        total.register_structure(StructureKind::Other, "x");
        let shard = IoStats::new_handle();
        shard.count_read();
        shard.count_write();
        total.absorb_snapshot(&shard.snapshot());
        assert_eq!(total.accesses(), 2);
        assert_eq!(total.structures()[0].accesses(), 0);
    }

    #[test]
    fn handles_share_the_counter() {
        let a = IoStats::new_handle();
        let b = Rc::clone(&a);
        a.count_read();
        b.count_write();
        assert_eq!(a.accesses(), 2);
        assert_eq!(b.accesses(), 2);
    }
}
