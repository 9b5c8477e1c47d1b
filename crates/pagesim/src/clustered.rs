//! Type-clustered object files.
//!
//! The paper assumes objects are clustered by type: all `c_i` objects of
//! type `t_i`, each of `size_i` bytes, are packed `opp_i = ⌊PageSize /
//! size_i⌋` to a page, occupying `op_i = ⌈c_i / opp_i⌉` pages (formulas
//! 17–18).  Retrieving an object costs one page access; an exhaustive scan
//! costs `op_i` accesses — which is precisely what backward navigation
//! without access support degenerates to.
//!
//! The file is generic over a payload `T` so callers can co-locate whatever
//! bookkeeping they like with the accounting; the object *content* itself
//! lives in the `asr-gom` object base, the file contributes the page math.

use std::cell::RefCell;
use std::rc::Rc;

use crate::buffer::BufferPool;
use crate::constants::PAGE_SIZE;
use crate::error::{PageSimError, Result};
use crate::hash::WordBuildHasher;
use crate::stats::{IoStats, StatsHandle};

/// A clustered file of fixed-size objects keyed by `u64` (OID raw values).
#[derive(Debug)]
pub struct ClusteredFile<T> {
    object_size: usize,
    opp: usize,
    /// slot -> (key, payload); `None` marks a deleted slot (tombstone).
    slots: Vec<Option<(u64, T)>>,
    /// key -> slot
    index: std::collections::HashMap<u64, usize, WordBuildHasher>,
    stats: StatsHandle,
    buffer: RefCell<BufferPool>,
}

impl<T> ClusteredFile<T> {
    /// Create a file for objects of `object_size` bytes, charging accesses
    /// to `stats`.
    ///
    /// Objects larger than a page occupy `⌈size / PAGE_SIZE⌉` pages each
    /// (`opp` is then treated as a fraction: one object per that many
    /// pages), mirroring how the analytical model floors `opp_i` at 1.
    pub fn new(object_size: usize, stats: StatsHandle) -> Result<Self> {
        if object_size == 0 {
            return Err(PageSimError::EntryTooLarge {
                entry: 0,
                capacity: PAGE_SIZE,
            });
        }
        let opp = (PAGE_SIZE / object_size).max(1);
        Ok(ClusteredFile {
            object_size,
            opp,
            slots: Vec::new(),
            index: std::collections::HashMap::default(),
            stats,
            buffer: RefCell::new(BufferPool::unbuffered()),
        })
    }

    /// Replace the (default pass-through) buffer pool. The file's
    /// structure tag (if any) carries over to the new pool.
    pub fn set_buffer(&mut self, mut pool: BufferPool) {
        pool.set_structure(self.buffer.borrow().structure());
        self.buffer = RefCell::new(pool);
    }

    /// Register this file under `label` in the stats registry so its page
    /// traffic is attributable (see [`IoStats::register_structure`]).
    pub fn tag(&mut self, label: impl Into<String>) -> crate::stats::StructureId {
        let sid = self
            .stats
            .register_structure(crate::stats::StructureKind::ClusteredFile, label);
        self.buffer.borrow_mut().set_structure(sid);
        sid
    }

    /// The structure id this file's charges are attributed to.
    pub fn structure_id(&self) -> crate::stats::StructureId {
        self.buffer.borrow().structure()
    }

    /// The configured per-object size in bytes (`size_i`).
    pub fn object_size(&self) -> usize {
        self.object_size
    }

    /// Objects per page (`opp_i`, at least 1).
    pub fn objects_per_page(&self) -> usize {
        self.opp
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no live objects exist.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of pages the file occupies (`op_i`), including pages that
    /// only hold tombstones.
    pub fn page_count(&self) -> u64 {
        if self.slots.is_empty() {
            0
        } else {
            self.page_of_slot(self.slots.len() - 1) + 1
        }
    }

    /// Pages an object larger than a page spills over.
    fn pages_per_object(&self) -> u64 {
        self.object_size.div_ceil(PAGE_SIZE).max(1) as u64
    }

    /// The page number holding `slot`.
    fn page_of_slot(&self, slot: usize) -> u64 {
        if self.object_size > PAGE_SIZE {
            slot as u64 * self.pages_per_object()
        } else {
            (slot / self.opp) as u64
        }
    }

    /// Make room for `additional` more objects.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
        self.index.reserve(additional);
    }

    /// Append an object.  Returns its slot.
    pub fn insert(&mut self, key: u64, payload: T) -> Result<usize> {
        let slot = self.slots.len();
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => {
                Err(PageSimError::DuplicateKey(format!("object {key}")))
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(slot);
                self.slots.push(Some((key, payload)));
                Ok(slot)
            }
        }
    }

    /// Fetch an object, charging one page access per page it spans.
    pub fn get(&self, key: u64) -> Result<&T> {
        let &slot = self
            .index
            .get(&key)
            .ok_or_else(|| PageSimError::NotFound(format!("object {key}")))?;
        self.charge_object_read(slot);
        Ok(self.slots[slot]
            .as_ref()
            .map(|(_, t)| t)
            .expect("indexed slot is live"))
    }

    /// Like [`ClusteredFile::get`] but also charging the write-back access
    /// (an in-place object update costs read + write — the paper's "one
    /// page access to retrieve ... and one page access to write back").
    pub fn get_for_update(&mut self, key: u64) -> Result<&mut T> {
        let &slot = self
            .index
            .get(&key)
            .ok_or_else(|| PageSimError::NotFound(format!("object {key}")))?;
        self.charge_object_read(slot);
        let page = self.page_of_slot(slot);
        for p in 0..self.pages_per_object() {
            self.buffer.borrow_mut().write(page + p, &self.stats);
        }
        Ok(self.slots[slot]
            .as_mut()
            .map(|(_, t)| t)
            .expect("indexed slot is live"))
    }

    fn charge_object_read(&self, slot: usize) {
        let page = self.page_of_slot(slot);
        for p in 0..self.pages_per_object() {
            self.buffer.borrow_mut().read(page + p, &self.stats);
        }
    }

    /// Remove an object, leaving a tombstone (clustering is physical; the
    /// model never compacts).  Charges the read + write of its page.
    pub fn remove(&mut self, key: u64) -> Result<T> {
        let slot = self
            .index
            .remove(&key)
            .ok_or_else(|| PageSimError::NotFound(format!("object {key}")))?;
        self.charge_object_read(slot);
        let page = self.page_of_slot(slot);
        self.buffer.borrow_mut().write(page, &self.stats);
        Ok(self.slots[slot]
            .take()
            .map(|(_, t)| t)
            .expect("indexed slot was live"))
    }

    /// Exhaustively scan the file, charging every page once, and visit each
    /// live object.  This is the access pattern of an unsupported backward
    /// query (Section 5.6.2: `op_i` page accesses for the anchor extent).
    pub fn scan(&self, mut visit: impl FnMut(u64, &T)) {
        let pages = self.page_count();
        for page in 0..pages {
            self.buffer.borrow_mut().read(page, &self.stats);
        }
        for entry in self.slots.iter().flatten() {
            visit(entry.0, &entry.1);
        }
    }

    /// Does the file contain `key`?
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// The shared statistics handle.
    pub fn stats(&self) -> &StatsHandle {
        &self.stats
    }
}

/// Convenience constructor for files that only do accounting (`T = ()`).
impl ClusteredFile<()> {
    /// Build an accounting-only file pre-populated with `count` objects
    /// keyed `0..count`.
    pub fn accounting(object_size: usize, count: u64, stats: StatsHandle) -> Result<Self> {
        let mut file = ClusteredFile::new(object_size, stats)?;
        for key in 0..count {
            file.insert(key, ())?;
        }
        Ok(file)
    }
}

impl<T> ClusteredFile<T> {
    /// Snapshot-free helper: run `f` and return the page accesses it cost.
    pub fn metered<R>(&self, f: impl FnOnce(&Self) -> R) -> (R, u64) {
        let before = self.stats.snapshot();
        let r = f(self);
        (r, self.stats.accesses_since(&before))
    }
}

/// Build a fresh stats handle (re-exported convenience).
pub fn fresh_stats() -> StatsHandle {
    Rc::new(IoStats::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_matches_formulas_17_18() {
        // size_i = 500 -> opp = 8, c_i = 100 -> op = ceil(100/8) = 13.
        let stats = IoStats::new_handle();
        let file = ClusteredFile::accounting(500, 100, stats).unwrap();
        assert_eq!(file.objects_per_page(), 8);
        assert_eq!(file.page_count(), 13);
    }

    #[test]
    fn get_costs_one_page_access() {
        let stats = IoStats::new_handle();
        let file = ClusteredFile::accounting(500, 100, Rc::clone(&stats)).unwrap();
        file.get(0).unwrap();
        assert_eq!(stats.accesses(), 1);
        file.get(7).unwrap(); // same page — but unbuffered, charged again
        assert_eq!(stats.accesses(), 2);
    }

    #[test]
    fn scan_costs_op_pages() {
        let stats = IoStats::new_handle();
        let file = ClusteredFile::accounting(500, 100, Rc::clone(&stats)).unwrap();
        let mut seen = 0;
        file.scan(|_, _| seen += 1);
        assert_eq!(seen, 100);
        assert_eq!(stats.accesses(), 13);
    }

    #[test]
    fn update_costs_read_plus_write() {
        let stats = IoStats::new_handle();
        let mut file = ClusteredFile::new(500, Rc::clone(&stats)).unwrap();
        file.insert(1, 10u32).unwrap();
        *file.get_for_update(1).unwrap() = 20;
        assert_eq!((stats.reads(), stats.writes()), (1, 1));
        assert_eq!(*file.get(1).unwrap(), 20);
    }

    #[test]
    fn oversized_objects_span_pages() {
        let stats = IoStats::new_handle();
        let file = ClusteredFile::accounting(PAGE_SIZE * 2, 3, Rc::clone(&stats)).unwrap();
        assert_eq!(file.objects_per_page(), 1);
        assert_eq!(file.page_count(), 5); // slots at pages 0,2,4
        file.get(1).unwrap();
        assert_eq!(stats.accesses(), 2, "two pages per object");
    }

    #[test]
    fn remove_leaves_tombstone() {
        let stats = IoStats::new_handle();
        let mut file = ClusteredFile::new(500, Rc::clone(&stats)).unwrap();
        for k in 0..10 {
            file.insert(k, k).unwrap();
        }
        assert_eq!(file.remove(3).unwrap(), 3);
        assert!(!file.contains(3));
        assert!(file.get(3).is_err());
        assert_eq!(file.len(), 9);
        assert_eq!(file.page_count(), 2, "pages not compacted");
        let mut seen = Vec::new();
        file.scan(|k, _| seen.push(k));
        assert_eq!(seen.len(), 9);
    }

    #[test]
    fn duplicate_keys_rejected() {
        let stats = IoStats::new_handle();
        let mut file = ClusteredFile::new(100, stats).unwrap();
        file.insert(1, ()).unwrap();
        assert!(matches!(
            file.insert(1, ()),
            Err(PageSimError::DuplicateKey(_))
        ));
    }

    #[test]
    fn buffered_scan_is_cheaper_second_time() {
        let stats = IoStats::new_handle();
        let mut file = ClusteredFile::accounting(500, 100, Rc::clone(&stats)).unwrap();
        file.set_buffer(BufferPool::with_capacity(64));
        file.scan(|_, _| {});
        let cold = stats.accesses();
        file.scan(|_, _| {});
        assert_eq!(stats.accesses(), cold, "warm scan fully buffered");
        assert!(stats.buffer_hits() > 0);
    }

    #[test]
    fn metered_reports_deltas() {
        let stats = IoStats::new_handle();
        let file = ClusteredFile::accounting(500, 100, stats).unwrap();
        let (_, cost) = file.metered(|f| *f.get(0).unwrap());
        assert_eq!(cost, 1);
    }

    #[test]
    fn zero_size_rejected() {
        let stats = IoStats::new_handle();
        assert!(ClusteredFile::<()>::new(0, stats).is_err());
    }
}
