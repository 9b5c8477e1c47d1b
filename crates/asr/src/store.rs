//! The object store: type-clustered files for the object representation.
//!
//! The paper assumes objects are clustered by type (Section 5.5), with a
//! configurable per-type object size `size_i`.  [`ObjectStore`] provides
//! the page accounting for navigating the object representation — the
//! *unsupported* side of every comparison the paper draws.
//!
//! Set instances are assumed to be stored inline with their owning object
//! (the dominant physical design for the paper's era and the reason its
//! cost formulas never charge separate accesses for set objects); reading
//! a set-valued attribute therefore costs only the owner's page access.

use std::borrow::Cow;
use std::collections::HashMap;
use std::rc::Rc;

use asr_gom::{ObjectBase, Oid, TypeId};
use asr_pagesim::{ClusteredFile, StatsHandle};

use crate::error::Result;

/// Default `size_i` when no per-type size is configured.
pub const DEFAULT_OBJECT_SIZE: usize = 128;

/// Type-clustered, page-accounted object files.
#[derive(Debug)]
pub struct ObjectStore {
    files: HashMap<TypeId, ClusteredFile<()>>,
    sizes: HashMap<TypeId, usize>,
    labels: HashMap<TypeId, String>,
    default_size: usize,
    buffer_pages: usize,
    stats: StatsHandle,
}

impl ObjectStore {
    /// An empty store charging to `stats`.
    pub fn new(stats: StatsHandle) -> Self {
        ObjectStore {
            files: HashMap::new(),
            sizes: HashMap::new(),
            labels: HashMap::new(),
            default_size: DEFAULT_OBJECT_SIZE,
            buffer_pages: 0,
            stats,
        }
    }

    /// Give every clustered file an LRU buffer pool of `pages` pages
    /// (0 restores the paper's unbuffered accounting).  Applies to
    /// existing and future files; resident pages are invalidated.
    pub fn enable_buffering(&mut self, pages: usize) {
        self.buffer_pages = pages;
        for file in self.files.values_mut() {
            file.set_buffer(Self::make_pool(pages));
        }
    }

    fn make_pool(pages: usize) -> asr_pagesim::BufferPool {
        if pages == 0 {
            asr_pagesim::BufferPool::unbuffered()
        } else {
            asr_pagesim::BufferPool::with_capacity(pages)
        }
    }

    /// Configure the clustered object size `size_i` for a type.  Takes
    /// effect for files created afterwards (call before
    /// [`ObjectStore::sync_with_base`]).
    pub fn set_type_size(&mut self, ty: TypeId, size: usize) {
        self.sizes.insert(ty, size.max(1));
    }

    /// Configure the fallback object size.
    pub fn set_default_size(&mut self, size: usize) {
        self.default_size = size.max(1);
    }

    /// Name a type's clustered file for per-structure I/O attribution
    /// (shown in `\stats`).  Retags an already created file; otherwise the
    /// label is applied when the file is first created.
    pub fn set_type_label(&mut self, ty: TypeId, label: impl Into<String>) {
        let label = label.into();
        if let Some(file) = self.files.get_mut(&ty) {
            file.tag(label.clone());
        }
        self.labels.insert(ty, label);
    }

    /// Label every type's clustered file after the schema's type names.
    pub fn label_from_schema(&mut self, schema: &asr_gom::Schema) {
        let labels: Vec<(TypeId, String)> = schema
            .types()
            .map(|(ty, _)| (ty, format!("objects.{}", schema.name(ty))))
            .collect();
        for (ty, label) in labels {
            self.set_type_label(ty, label);
        }
    }

    /// The configured size for a type.
    pub fn type_size(&self, ty: TypeId) -> usize {
        self.sizes.get(&ty).copied().unwrap_or(self.default_size)
    }

    /// Iterate over the explicitly configured per-type sizes (persistence).
    pub fn configured_sizes(&self) -> impl Iterator<Item = (TypeId, usize)> + '_ {
        self.sizes.iter().map(|(&ty, &size)| (ty, size))
    }

    /// Register every object of `base` that the store does not know yet.
    /// Call after bulk loading; [`ObjectStore::register_object`] keeps the
    /// store current for single creations.
    ///
    /// Each type's file is filled from the type's extent in OID order,
    /// and files are created in the order of their lowest OID — the slots
    /// and structure ids a pass over all objects in OID order assigns.
    pub fn sync_with_base(&mut self, base: &ObjectBase) -> Result<()> {
        let mut extents: Vec<(TypeId, Cow<'_, [Oid]>)> = base
            .schema()
            .types()
            .filter(|&(ty, _)| !base.extent(ty).is_empty())
            .map(|(ty, _)| {
                let mut oids = Cow::Borrowed(base.extent(ty));
                if !oids.is_sorted() {
                    oids.to_mut().sort_unstable();
                }
                (ty, oids)
            })
            .collect();
        extents.sort_unstable_by_key(|(_, oids)| oids[0]);
        for (ty, oids) in extents {
            let file = self.file(ty)?;
            let fresh = file.is_empty();
            file.reserve(oids.len());
            for oid in oids.iter() {
                if fresh || !file.contains(oid.as_raw()) {
                    file.insert(oid.as_raw(), ())?;
                }
            }
        }
        Ok(())
    }

    /// Register one freshly created object.
    pub fn register_object(&mut self, ty: TypeId, oid: Oid) -> Result<()> {
        let file = self.file(ty)?;
        if !file.contains(oid.as_raw()) {
            file.insert(oid.as_raw(), ())?;
        }
        Ok(())
    }

    /// The type's clustered file, created (sized, buffered and labelled)
    /// on first use.
    fn file(&mut self, ty: TypeId) -> Result<&mut ClusteredFile<()>> {
        let size = self.type_size(ty);
        Ok(match self.files.entry(ty) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let mut file = ClusteredFile::new(size, Rc::clone(&self.stats))?;
                if self.buffer_pages > 0 {
                    file.set_buffer(Self::make_pool(self.buffer_pages));
                }
                let label = self
                    .labels
                    .get(&ty)
                    .cloned()
                    .unwrap_or_else(|| format!("objects.{ty}"));
                file.tag(label);
                e.insert(file)
            }
        })
    }

    /// Charge the page access(es) for reading object `oid` of type `ty`.
    /// Unknown objects charge nothing (they occupy no page).
    pub fn charge_read(&self, ty: TypeId, oid: Oid) {
        if let Some(file) = self.files.get(&ty) {
            let _ = file.get(oid.as_raw());
        }
    }

    /// Charge read + write-back for an in-place object update — the
    /// paper's "one page access to retrieve ... one page access to write
    /// back" (Section 6).
    pub fn charge_update(&mut self, ty: TypeId, oid: Oid) {
        if let Some(file) = self.files.get_mut(&ty) {
            let _ = file.get_for_update(oid.as_raw());
        }
    }

    /// Charge an exhaustive scan of the type's extent (`op_i` page reads —
    /// the backward query's entry cost, formula 32).
    pub fn charge_scan(&self, ty: TypeId) {
        if let Some(file) = self.files.get(&ty) {
            file.scan(|_, _| {});
        }
    }

    /// Pages occupied by the type's file (the paper's `op_i`).
    pub fn page_count(&self, ty: TypeId) -> u64 {
        self.files.get(&ty).map(|f| f.page_count()).unwrap_or(0)
    }

    /// Number of registered objects of the type.
    pub fn object_count(&self, ty: TypeId) -> usize {
        self.files.get(&ty).map(|f| f.len()).unwrap_or(0)
    }

    /// The shared page-access counter.
    pub fn stats(&self) -> &StatsHandle {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_gom::Schema;
    use asr_pagesim::IoStats;

    fn base_with_robots(n: usize) -> (ObjectBase, TypeId) {
        let mut s = Schema::new();
        s.define_tuple("ROBOT", [("Name", "STRING")]).unwrap();
        let ty = s.resolve("ROBOT").unwrap();
        let mut base = ObjectBase::new(s);
        for _ in 0..n {
            base.instantiate("ROBOT").unwrap();
        }
        (base, ty)
    }

    #[test]
    fn sync_and_page_math() {
        let (base, ty) = base_with_robots(100);
        let stats = IoStats::new_handle();
        let mut store = ObjectStore::new(Rc::clone(&stats));
        store.set_type_size(ty, 500); // opp = 8 -> op = 13
        store.sync_with_base(&base).unwrap();
        assert_eq!(store.object_count(ty), 100);
        assert_eq!(store.page_count(ty), 13);
        stats.reset();
        store.charge_scan(ty);
        assert_eq!(stats.accesses(), 13);
    }

    #[test]
    fn read_and_update_charges() {
        let (base, ty) = base_with_robots(10);
        let stats = IoStats::new_handle();
        let mut store = ObjectStore::new(Rc::clone(&stats));
        store.sync_with_base(&base).unwrap();
        let oid = base.extent(ty)[0];
        stats.reset();
        store.charge_read(ty, oid);
        assert_eq!(stats.accesses(), 1);
        store.charge_update(ty, oid);
        assert_eq!(stats.accesses(), 3, "update = read + write");
    }

    #[test]
    fn sync_is_idempotent_and_incremental() {
        let (mut base, ty) = base_with_robots(5);
        let stats = IoStats::new_handle();
        let mut store = ObjectStore::new(stats);
        store.sync_with_base(&base).unwrap();
        store.sync_with_base(&base).unwrap();
        assert_eq!(store.object_count(ty), 5);
        let new = base.instantiate("ROBOT").unwrap();
        store.register_object(ty, new).unwrap();
        assert_eq!(store.object_count(ty), 6);
    }

    #[test]
    fn unknown_type_charges_nothing() {
        let stats = IoStats::new_handle();
        let store = ObjectStore::new(Rc::clone(&stats));
        store.charge_scan(TypeId::from_index(42));
        store.charge_read(TypeId::from_index(42), Oid::from_raw(1));
        assert_eq!(stats.accesses(), 0);
        assert_eq!(store.page_count(TypeId::from_index(42)), 0);
    }

    #[test]
    fn default_size_applies() {
        let (base, ty) = base_with_robots(10);
        let stats = IoStats::new_handle();
        let mut store = ObjectStore::new(stats);
        store.set_default_size(4056);
        store.sync_with_base(&base).unwrap();
        assert_eq!(store.page_count(ty), 10, "one object per page");
        assert_eq!(store.type_size(ty), 4056);
    }
}
