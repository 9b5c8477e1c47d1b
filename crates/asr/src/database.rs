//! The database facade: one object base, its page-accounted object store,
//! and any number of maintained access support relations.
//!
//! All structural updates go through [`Database`] so that every registered
//! ASR is kept consistent incrementally (Section 6) and every page access —
//! object representation and access relations alike — lands in one shared
//! [`asr_pagesim::IoStats`] counter.

use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use asr_gom::{ObjectBase, Oid, PathExpression, Schema, TypeId, Value};
use asr_obs::{Attrs, Tracer};
use asr_pagesim::{IoStats, StatsHandle};

use crate::cell::Cell;
use crate::error::{AsrError, Result};
use crate::maintenance::{maintain_edge, EdgeEvent};
use crate::manager::{AccessSupportRelation, AsrConfig};
use crate::naive;
use crate::partition::PartitionChanges;
use crate::row::Row;
use crate::snapshot::EpochRegistry;
use crate::store::ObjectStore;

/// Identifier of a registered access support relation.
pub type AsrId = usize;

/// The set occurrences of one registered path that a set instance sits
/// at: per matching step, the owners holding the set there.
struct SetSites {
    slot: AsrId,
    steps: Vec<(usize, Vec<Oid>)>,
}

/// The `span` attribute of a query span, `i..j`: formatted only when the
/// span's record is built.
struct SpanLabel(usize, usize);

impl fmt::Display for SpanLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.0, self.1)
    }
}

/// Everything a database changed since its base checkpoint — what
/// [`Database::mark_clean`] forgets, and what a delta checkpoint carries.
#[derive(Debug)]
pub(crate) struct Changes {
    /// Did the physical design change?
    pub design: bool,
    pub dirty_oids: BTreeSet<Oid>,
    pub dead_oids: BTreeSet<Oid>,
    pub dirty_vars: BTreeSet<String>,
    /// Per present ASR, in `A`-line order, each partition's changes.
    pub partitions: Vec<Vec<PartitionChanges>>,
}

/// An object base with maintained access support relations.
#[derive(Debug)]
pub struct Database {
    /// The object base, shared with pinned MVCC snapshots.  The writer
    /// mutates through [`Database::base_mut`], which copies lazily
    /// (`Arc::make_mut`) when readers still hold the published state.
    pub(crate) base: Arc<ObjectBase>,
    store: ObjectStore,
    pub(crate) asrs: Vec<Option<AccessSupportRelation>>,
    stats: StatsHandle,
    tracer: Tracer,
    /// OIDs whose object state changed since the base checkpoint
    /// ([`Database::mark_clean`]) — the object half of a delta checkpoint.
    dirty_oids: BTreeSet<Oid>,
    /// OIDs deleted since the base.
    dead_oids: BTreeSet<Oid>,
    /// Variables rebound since the base.
    dirty_vars: BTreeSet<String>,
    /// Did the physical design (registered ASRs, type sizes, schema) change
    /// since the base?  Delta checkpoints never span design changes.
    design_dirty: bool,
    /// MVCC commit epoch: bumped lazily by [`Database::snapshot`] when
    /// anything visible changed since the last publish.
    pub(crate) commit_epoch: u64,
    /// Did visible state change since the last published epoch?
    pub(crate) snap_stale: bool,
    /// Epoch pin table shared with every published snapshot.
    pub(crate) epochs: Arc<EpochRegistry>,
    /// Reclamation counter already reported to the metrics registry.
    pub(crate) reclaimed_seen: u64,
}

impl Database {
    /// An empty database over `schema`.
    pub fn new(schema: Schema) -> Self {
        Self::from_base(ObjectBase::new(schema))
    }

    /// Wrap an existing object base (its objects are registered with the
    /// store using default sizes; configure sizes first via
    /// [`Database::set_type_size`] when they matter).
    pub fn from_base(base: ObjectBase) -> Self {
        let stats = IoStats::new_handle();
        let mut store = ObjectStore::new(Rc::clone(&stats));
        store.label_from_schema(base.schema());
        store
            .sync_with_base(&base)
            .expect("fresh store sync cannot fail");
        let tracer = Tracer::with_stats(Rc::clone(&stats));
        Database {
            base: Arc::new(base),
            store,
            asrs: Vec::new(),
            stats,
            tracer,
            dirty_oids: BTreeSet::new(),
            dead_oids: BTreeSet::new(),
            dirty_vars: BTreeSet::new(),
            design_dirty: true,
            commit_epoch: 0,
            snap_stale: true,
            epochs: Arc::new(EpochRegistry::default()),
            reclaimed_seen: 0,
        }
    }

    /// Assemble a database from a pre-built base and an already configured
    /// (and synced) object store sharing `stats`.  Used by workload
    /// generators that size the clustered files per type before syncing.
    pub fn from_parts(base: ObjectBase, mut store: ObjectStore, stats: StatsHandle) -> Self {
        store.label_from_schema(base.schema());
        let tracer = Tracer::with_stats(Rc::clone(&stats));
        Database {
            base: Arc::new(base),
            store,
            asrs: Vec::new(),
            stats,
            tracer,
            dirty_oids: BTreeSet::new(),
            dead_oids: BTreeSet::new(),
            dirty_vars: BTreeSet::new(),
            design_dirty: true,
            commit_epoch: 0,
            snap_stale: true,
            epochs: Arc::new(EpochRegistry::default()),
            reclaimed_seen: 0,
        }
    }

    /// The underlying object base (read-only; use the update methods).
    pub fn base(&self) -> &ObjectBase {
        &self.base
    }

    /// Mutable access to the object base.  Marks the published MVCC state
    /// stale and copies the base lazily when live snapshots still pin it
    /// (copy-on-write: readers keep the old `Arc`, the writer gets a
    /// private clone).
    fn base_mut(&mut self) -> &mut ObjectBase {
        self.snap_stale = true;
        Arc::make_mut(&mut self.base)
    }

    /// The page-accounted object store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// The shared page-access counter (object store and all ASRs).
    pub fn stats(&self) -> &StatsHandle {
        &self.stats
    }

    /// The tracing/metrics context.  Spans opened here capture I/O deltas
    /// from [`Database::stats`]; its [`asr_obs::MetricsRegistry`] carries
    /// query and maintenance counters (e.g. `asr.rebuild_fallback`).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Replace this database's tracer with `tracer`, re-binding span I/O
    /// capture to this database's own stats handle.  Coordinators that
    /// rebuild their catalog from a fresh snapshot use this to carry
    /// accumulated metrics and attached sinks across the rebuild.
    pub fn adopt_tracer(&mut self, tracer: Tracer) {
        tracer.attach_stats(Rc::clone(&self.stats));
        self.tracer = tracer;
    }

    /// Configure the clustered size `size_i` for a type's objects.
    /// Only affects objects registered afterwards.
    pub fn set_type_size(&mut self, ty: TypeId, size: usize) {
        self.design_dirty = true;
        self.store.set_type_size(ty, size);
    }

    /// Enable LRU buffering: `object_pages` per clustered object file and
    /// `asr_pages` per access-relation B+ tree (0 = unbuffered, the
    /// paper's cost-model assumption).  Used by the buffering ablation.
    pub fn enable_buffering(&mut self, object_pages: usize, asr_pages: usize) {
        self.store.enable_buffering(object_pages);
        for asr in self.asrs.iter_mut().flatten() {
            asr.enable_buffering(asr_pages);
        }
    }

    // ------------------------------------------------------------------
    // ASR management
    // ------------------------------------------------------------------

    /// Build and register an access support relation.
    pub fn create_asr(&mut self, path: PathExpression, config: AsrConfig) -> Result<AsrId> {
        let asr = AccessSupportRelation::build(&self.base, path, config, Rc::clone(&self.stats))?;
        self.design_dirty = true;
        self.snap_stale = true;
        self.asrs.push(Some(asr));
        Ok(self.asrs.len() - 1)
    }

    /// Register an already-assembled ASR (the physical restore path of
    /// `ASRDB 2` snapshots — no build runs).
    pub(crate) fn attach_asr(&mut self, asr: AccessSupportRelation) -> AsrId {
        self.snap_stale = true;
        self.asrs.push(Some(asr));
        self.asrs.len() - 1
    }

    /// Parse a dotted path and register an ASR over it.
    pub fn create_asr_on(&mut self, dotted: &str, config: AsrConfig) -> Result<AsrId> {
        let path = PathExpression::parse(self.base.schema(), dotted)?;
        self.create_asr(path, config)
    }

    /// Drop an ASR.
    pub fn drop_asr(&mut self, id: AsrId) -> Result<()> {
        match self.asrs.get_mut(id) {
            Some(slot @ Some(_)) => {
                *slot = None;
                self.design_dirty = true;
                self.snap_stale = true;
                Ok(())
            }
            _ => Err(AsrError::InvalidDecomposition(format!(
                "no ASR with id {id}"
            ))),
        }
    }

    /// Restrict one ASR's stored partitions to the rows `keep` accepts —
    /// shard placement (see
    /// [`AccessSupportRelation::retain_partition_rows`]).  Returns the
    /// number of stored rows placed here.
    pub fn retain_asr_rows(
        &mut self,
        id: AsrId,
        keep: impl FnMut(usize, &Row) -> bool,
    ) -> Result<u64> {
        let attrs: Attrs = &[("asr", &id)];
        let mut span = self.tracer.span_with("shard.place", attrs);
        let asr = match self.asrs.get_mut(id) {
            Some(Some(asr)) => asr,
            _ => {
                return Err(AsrError::InvalidDecomposition(format!(
                    "no ASR with id {id}"
                )))
            }
        };
        let placed = asr.retain_partition_rows(keep)?;
        self.snap_stale = true;
        span.set_rows(placed);
        Ok(placed)
    }

    /// Access a registered ASR.
    pub fn asr(&self, id: AsrId) -> Result<&AccessSupportRelation> {
        self.asrs
            .get(id)
            .and_then(Option::as_ref)
            .ok_or_else(|| AsrError::InvalidDecomposition(format!("no ASR with id {id}")))
    }

    /// Iterate over the live ASRs.
    pub fn asrs(&self) -> impl Iterator<Item = (AsrId, &AccessSupportRelation)> {
        self.asrs
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.as_ref().map(|a| (i, a)))
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Forward span query through an ASR, falling back to naive object
    /// traversal when formula (35) rules the extension out.
    pub fn forward(&self, id: AsrId, i: usize, j: usize, start: Oid) -> Result<Vec<Cell>> {
        let cols = SpanLabel(i, j);
        let attrs: Attrs = &[("asr", &id), ("span", &cols)];
        let mut span = self.tracer.span_with("query.forward", attrs);
        self.tracer.metrics().inc_counter("query.forward", 1);
        let asr = self.asr(id)?;
        let before = self.stats.snapshot();
        let result = match asr.forward(i, j, start) {
            Err(AsrError::Unsupported { .. }) => {
                span.add_attr("fallback", "naive");
                self.tracer.metrics().inc_counter("query.naive_fallback", 1);
                naive::forward_naive(&self.base, &self.store, asr.path(), i, j, start)
            }
            other => other,
        };
        self.note_batch_io(&before);
        if let Ok(cells) = &result {
            span.set_rows(cells.len() as u64);
        }
        result
    }

    /// Record batched B+-tree probe activity since `before` in the metrics
    /// registry, so `EXPLAIN ANALYZE` and `\stats` can attribute savings.
    fn note_batch_io(&self, before: &asr_pagesim::IoSnapshot) {
        let after = self.stats.snapshot();
        let probes = after.batch_probes - before.batch_probes;
        if probes > 0 {
            let metrics = self.tracer.metrics();
            metrics.inc_counter("btree.batch.probes", probes);
            metrics.inc_counter(
                "btree.batch.pages_saved",
                after.batch_pages_saved - before.batch_pages_saved,
            );
        }
    }

    /// Backward span query through an ASR, with naive fallback.
    pub fn backward(&self, id: AsrId, i: usize, j: usize, target: &Cell) -> Result<Vec<Oid>> {
        let cols = SpanLabel(i, j);
        let attrs: Attrs = &[("asr", &id), ("span", &cols)];
        let mut span = self.tracer.span_with("query.backward", attrs);
        self.tracer.metrics().inc_counter("query.backward", 1);
        let asr = self.asr(id)?;
        let before = self.stats.snapshot();
        let result = match asr.backward(i, j, target) {
            Err(AsrError::Unsupported { .. }) => {
                span.add_attr("fallback", "naive");
                self.tracer.metrics().inc_counter("query.naive_fallback", 1);
                naive::backward_naive(&self.base, &self.store, asr.path(), i, j, target)
            }
            other => other,
        };
        self.note_batch_io(&before);
        if let Ok(oids) = &result {
            span.set_rows(oids.len() as u64);
        }
        result
    }

    /// Find a registered ASR over exactly this path whose extension
    /// supports the span `Q_{i,j}` (formula 35).  Prefers the ASR with the
    /// fewest stored rows when several qualify.
    pub fn find_supporting_asr(&self, path: &PathExpression, i: usize, j: usize) -> Option<AsrId> {
        self.asrs()
            .filter(|(_, asr)| asr.path() == path && asr.supports(i, j))
            .min_by_key(|(_, asr)| asr.total_rows())
            .map(|(id, _)| id)
    }

    /// Forward span navigation that automatically routes through the best
    /// supporting ASR, or falls back to naive object traversal.
    pub fn navigate_forward(
        &self,
        path: &PathExpression,
        i: usize,
        j: usize,
        start: Oid,
    ) -> Result<Vec<Cell>> {
        match self.find_supporting_asr(path, i, j) {
            Some(id) => self.forward(id, i, j, start),
            None => {
                let cols = SpanLabel(i, j);
                let attrs: Attrs = &[("span", &cols), ("fallback", &"unindexed")];
                let mut span = self.tracer.span_with("query.forward", attrs);
                self.tracer.metrics().inc_counter("query.unindexed", 1);
                let result = naive::forward_naive(&self.base, &self.store, path, i, j, start);
                if let Ok(cells) = &result {
                    span.set_rows(cells.len() as u64);
                }
                result
            }
        }
    }

    /// Backward span navigation with automatic ASR routing.
    pub fn navigate_backward(
        &self,
        path: &PathExpression,
        i: usize,
        j: usize,
        target: &Cell,
    ) -> Result<Vec<Oid>> {
        match self.find_supporting_asr(path, i, j) {
            Some(id) => self.backward(id, i, j, target),
            None => {
                let cols = SpanLabel(i, j);
                let attrs: Attrs = &[("span", &cols), ("fallback", &"unindexed")];
                let mut span = self.tracer.span_with("query.backward", attrs);
                self.tracer.metrics().inc_counter("query.unindexed", 1);
                let result = naive::backward_naive(&self.base, &self.store, path, i, j, target);
                if let Ok(oids) = &result {
                    span.set_rows(oids.len() as u64);
                }
                result
            }
        }
    }

    /// Naive forward query over an arbitrary (unindexed) path.
    pub fn forward_unindexed(
        &self,
        path: &PathExpression,
        i: usize,
        j: usize,
        start: Oid,
    ) -> Result<Vec<Cell>> {
        naive::forward_naive(&self.base, &self.store, path, i, j, start)
    }

    /// Naive backward query over an arbitrary (unindexed) path.
    pub fn backward_unindexed(
        &self,
        path: &PathExpression,
        i: usize,
        j: usize,
        target: &Cell,
    ) -> Result<Vec<Oid>> {
        naive::backward_naive(&self.base, &self.store, path, i, j, target)
    }

    // ------------------------------------------------------------------
    // Updates (charged + ASR-maintained)
    // ------------------------------------------------------------------

    /// Instantiate a type (fresh objects participate in no path yet, so no
    /// ASR maintenance is required).
    pub fn instantiate(&mut self, type_name: &str) -> Result<Oid> {
        let oid = self.base_mut().instantiate(type_name)?;
        let ty = self.base.type_of(oid)?;
        self.store.register_object(ty, oid)?;
        self.dirty_oids.insert(oid);
        self.dead_oids.remove(&oid);
        Ok(oid)
    }

    /// Instantiate a type under a **known** OID — write-ahead-log replay
    /// and snapshot restoration, where object identity must survive the
    /// round trip even when the original generator had advanced past the
    /// snapshot's maximum (e.g. the newest object was deleted before the
    /// checkpoint).  Fails if the OID is already live.
    pub fn instantiate_with_oid(&mut self, type_name: &str, oid: Oid) -> Result<()> {
        self.base_mut().restore_object(oid, type_name)?;
        let ty = self.base.type_of(oid)?;
        self.store.register_object(ty, oid)?;
        self.dirty_oids.insert(oid);
        self.dead_oids.remove(&oid);
        Ok(())
    }

    /// Count one multi-position rebuild fallback (recursive-schema updates
    /// that incremental maintenance cannot handle position-by-position).
    fn note_rebuild_fallback(&self, slot: AsrId, cause: &str) {
        self.tracer.metrics().inc_counter("asr.rebuild_fallback", 1);
        self.tracer.event(
            "maintenance.rebuild_fallback",
            &[("asr", slot.to_string()), ("cause", cause.to_string())],
        );
    }

    /// Assign an attribute, maintaining every registered ASR.
    pub fn set_attribute(&mut self, owner: Oid, attr: &str, value: Value) -> Result<()> {
        let old = self.base.get_attribute(owner, attr)?;
        if old == value {
            return Ok(());
        }
        let attrs: Attrs = &[("attr", &attr)];
        let _span = self.tracer.span_with("maintain.set_attribute", attrs);
        self.base_mut().set_attribute(owner, attr, value.clone())?;
        self.dirty_oids.insert(owner);
        let owner_ty = self.base.type_of(owner)?;
        self.store.charge_update(owner_ty, owner);

        for slot in 0..self.asrs.len() {
            let Some(asr) = self.asrs[slot].as_ref() else {
                continue;
            };
            let path = asr.path().clone();
            let positions: Vec<usize> = (1..=path.len())
                .filter(|&p| {
                    let step = &path.steps()[p - 1];
                    step.attr == attr && self.base.schema().is_subtype(owner_ty, step.domain)
                })
                .collect();
            if positions.len() > 1 {
                // The update affects several positions of this path (a
                // recursive schema) — the situation the paper's Section 6
                // explicitly assumes away.  A single physical edge then
                // backs row segments at multiple columns and per-position
                // deltas are unsound; rebuild instead (page writes are
                // charged through the bulk load).
                self.note_rebuild_fallback(slot, "set_attribute");
                self.asrs[slot]
                    .as_mut()
                    .expect("slot checked above")
                    .rebuild(&self.base)?;
                continue;
            }
            for p in positions {
                let events = self.attr_events(&path, p, owner, &old, &value)?;
                let asr = self.asrs[slot].as_mut().expect("slot checked above");
                for (event, added, bare_before, bare_after) in events {
                    maintain_edge(
                        asr,
                        &self.base,
                        &self.store,
                        &event,
                        added,
                        bare_before,
                        bare_after,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Expand an attribute assignment at step `p` into edge events:
    /// `(event, added, owner_bare_before, owner_bare_after)`.
    #[allow(clippy::type_complexity)]
    fn attr_events(
        &self,
        path: &PathExpression,
        p: usize,
        owner: Oid,
        old: &Value,
        new: &Value,
    ) -> Result<Vec<(EdgeEvent, bool, bool, bool)>> {
        let step = &path.steps()[p - 1];
        let mut events = Vec::new();
        // Additions run *before* removals: the maintenance algorithm
        // collects the owner's prefixes from the access relation itself
        // (for full/left extensions), and those prefixes are only stored
        // as long as some row through the owner survives.
        if step.is_set_occurrence() {
            let new_parts = self.set_edges(p, owner, new)?;
            for (k, ev) in new_parts.into_iter().enumerate() {
                let bare_before = old.is_null() && k == 0;
                events.push((ev, true, bare_before, false));
            }
            let old_parts = self.set_edges(p, owner, old)?;
            let last = old_parts.len().saturating_sub(1);
            for (k, ev) in old_parts.into_iter().enumerate() {
                let bare_after = new.is_null() && k == last;
                events.push((ev, false, false, bare_after));
            }
        } else {
            if let Some(cell) = Cell::from_gom(new) {
                let ev = EdgeEvent {
                    step: p,
                    owner,
                    set: None,
                    target: Some(cell),
                };
                events.push((ev, true, old.is_null(), false));
            }
            if let Some(cell) = Cell::from_gom(old) {
                let ev = EdgeEvent {
                    step: p,
                    owner,
                    set: None,
                    target: Some(cell),
                };
                events.push((ev, false, false, new.is_null()));
            }
        }
        Ok(events)
    }

    /// The edge events represented by attaching `value` (a set reference or
    /// NULL) at a set occurrence: one event per member, or a marker event
    /// for an empty set, or nothing for NULL.
    fn set_edges(&self, p: usize, owner: Oid, value: &Value) -> Result<Vec<EdgeEvent>> {
        let Value::Ref(set) = value else {
            return Ok(Vec::new());
        };
        if !self.base.contains(*set) {
            return Ok(Vec::new());
        }
        let members: Vec<Cell> = self
            .base
            .object(*set)?
            .elements()
            .filter_map(Cell::from_gom)
            .filter(|c| match c {
                Cell::Oid(o) => self.base.contains(*o),
                Cell::Value(_) => true,
            })
            .collect();
        if members.is_empty() {
            return Ok(vec![EdgeEvent {
                step: p,
                owner,
                set: Some(*set),
                target: None,
            }]);
        }
        Ok(members
            .into_iter()
            .map(|cell| EdgeEvent {
                step: p,
                owner,
                set: Some(*set),
                target: Some(cell),
            })
            .collect())
    }

    /// The paper's characteristic update `ins_i`: insert `elem` into the
    /// set instance `set`.  All owners referencing the set (set sharing
    /// included) have their paths maintained.  Returns `false` when the
    /// element was already a member.
    pub fn insert_into_set(&mut self, set: Oid, elem: Value) -> Result<bool> {
        if !self.base_mut().insert_into_set(set, elem.clone())? {
            return Ok(false);
        }
        self.dirty_oids.insert(set);
        let _span = self.tracer.span("maintain.insert_into_set");
        let was_empty = self.base.object(set)?.body.len() == 1;
        let sites = self.set_sites(set)?;
        self.charge_set_update(set, &sites)?;
        let elem_cell = Cell::from_gom(&elem);
        self.maintain_set_change(set, sites, elem_cell, true, was_empty)?;
        Ok(true)
    }

    /// Remove `elem` from the set instance `set`, maintaining all ASRs.
    pub fn remove_from_set(&mut self, set: Oid, elem: &Value) -> Result<bool> {
        if !self.base_mut().remove_from_set(set, elem)? {
            return Ok(false);
        }
        self.dirty_oids.insert(set);
        let _span = self.tracer.span("maintain.remove_from_set");
        let now_empty = self.base.object(set)?.body.is_empty();
        let sites = self.set_sites(set)?;
        self.charge_set_update(set, &sites)?;
        let elem_cell = Cell::from_gom(elem);
        self.maintain_set_change(set, sites, elem_cell, false, now_empty)?;
        Ok(true)
    }

    /// Convenience matching the paper's phrasing
    /// `insert o into o_i.A_i`: resolve the owner's set attribute first.
    pub fn insert_into_attr_set(&mut self, owner: Oid, attr: &str, elem: Value) -> Result<bool> {
        let set = self
            .base
            .get_attribute(owner, attr)?
            .as_ref_oid()
            .ok_or_else(|| AsrError::BadUpdatePosition(format!("{owner}.{attr} is NULL")))?;
        self.insert_into_set(set, elem)
    }

    /// Where the set instance `set` sits on the registered paths, resolved
    /// once per update from the base's referrer index.  Bookkeeping only,
    /// uncharged — a real system receives the owner with the update
    /// statement.  Slots, steps and owners each ascend, the order the page
    /// charges and edge events below are issued in.
    fn set_sites(&self, set: Oid) -> Result<Vec<SetSites>> {
        let set_ty = self.base.type_of(set)?;
        let schema = self.base.schema();
        let referrers: Vec<(Oid, TypeId, &str)> = self
            .base
            .referrers(set)
            .map(|(owner, attr)| Ok((owner, self.base.type_of(owner)?, attr)))
            .collect::<Result<_>>()?;
        let mut sites = Vec::new();
        for (slot, asr) in self.asrs() {
            let steps: Vec<(usize, Vec<Oid>)> = asr
                .path()
                .steps()
                .iter()
                .enumerate()
                .filter(|(_, step)| step.set_type == Some(set_ty))
                .map(|(k, step)| {
                    let owners = referrers
                        .iter()
                        .filter(|(_, ty, attr)| {
                            *attr == step.attr && schema.is_subtype(*ty, step.domain)
                        })
                        .map(|&(owner, _, _)| owner)
                        .collect();
                    (k + 1, owners)
                })
                .collect();
            if !steps.is_empty() {
                sites.push(SetSites { slot, steps });
            }
        }
        Ok(sites)
    }

    /// Charge the in-place update of the set (inlined with its owners; the
    /// standalone set object is charged when nothing references it).
    fn charge_set_update(&mut self, set: Oid, sites: &[SetSites]) -> Result<()> {
        // Charge each distinct owner once (the set is inlined there).
        let mut seen = BTreeSet::new();
        for &owner in sites
            .iter()
            .flat_map(|s| &s.steps)
            .flat_map(|(_, owners)| owners)
        {
            if seen.insert(owner) {
                self.store.charge_update(self.base.type_of(owner)?, owner);
            }
        }
        if seen.is_empty() {
            let ty = self.base.type_of(set)?;
            self.store.charge_update(ty, set);
        }
        Ok(())
    }

    fn maintain_set_change(
        &mut self,
        set: Oid,
        sites: Vec<SetSites>,
        elem: Option<Cell>,
        added: bool,
        boundary_empty: bool,
    ) -> Result<()> {
        for SetSites { slot, steps } in sites {
            if steps.len() > 1 {
                // Recursive path: one set insertion affects several
                // positions — rebuild (see `set_attribute`).
                self.note_rebuild_fallback(slot, "set_change");
                self.asrs[slot]
                    .as_mut()
                    .expect("sites name live slots")
                    .rebuild(&self.base)?;
                continue;
            }
            for (p, owners) in steps {
                for owner in owners {
                    let asr = self.asrs[slot].as_mut().expect("sites name live slots");
                    let ev = EdgeEvent {
                        step: p,
                        owner,
                        set: Some(set),
                        target: elem.clone(),
                    };
                    let marker = EdgeEvent {
                        step: p,
                        owner,
                        set: Some(set),
                        target: None,
                    };
                    // Additions before removals (see `attr_events`): the
                    // maintenance prefixes live in the rows about to be
                    // retracted.
                    if added {
                        maintain_edge(asr, &self.base, &self.store, &ev, true, false, false)?;
                        if boundary_empty {
                            // The set was empty: retract the marker rows.
                            maintain_edge(
                                asr,
                                &self.base,
                                &self.store,
                                &marker,
                                false,
                                false,
                                false,
                            )?;
                        }
                    } else {
                        if boundary_empty {
                            // The set becomes empty: marker rows appear.
                            maintain_edge(
                                asr,
                                &self.base,
                                &self.store,
                                &marker,
                                true,
                                false,
                                false,
                            )?;
                        }
                        maintain_edge(asr, &self.base, &self.store, &ev, false, false, false)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Delete an object.  Deletion is maintained **non-incrementally**:
    /// the paper analyzes `ins_i` only, and a deleted object may be
    /// referenced from arbitrarily many places, so every registered ASR is
    /// rebuilt (documented trade-off; see DESIGN.md).
    pub fn delete_object(&mut self, oid: Oid) -> Result<()> {
        self.base_mut().delete(oid)?;
        self.dirty_oids.remove(&oid);
        self.dead_oids.insert(oid);
        for slot in self.asrs.iter_mut().flatten() {
            slot.rebuild(&self.base)?;
        }
        Ok(())
    }

    /// Bind a database variable (root).
    pub fn bind_variable(&mut self, name: &str, value: Value) {
        self.dirty_vars.insert(name.to_string());
        self.base_mut().bind_variable(name, value);
    }

    // ------------------------------------------------------------------
    // Delta-checkpoint change tracking
    // ------------------------------------------------------------------

    /// Forget all change tracking and mark every partition's pages: the
    /// state as of *now* becomes the base the next delta checkpoint is
    /// measured against.  Called after a checkpoint is written (full or
    /// delta) and after a snapshot/delta chain is loaded.
    pub fn mark_clean(&mut self) {
        self.take_changes();
    }

    /// [`Database::mark_clean`], handing over what changed since the
    /// previous base — what a delta checkpoint carries.
    pub(crate) fn take_changes(&mut self) -> Changes {
        Changes {
            design: std::mem::take(&mut self.design_dirty),
            dirty_oids: std::mem::take(&mut self.dirty_oids),
            dead_oids: std::mem::take(&mut self.dead_oids),
            dirty_vars: std::mem::take(&mut self.dirty_vars),
            partitions: self
                .asrs
                .iter_mut()
                .flatten()
                .map(AccessSupportRelation::mark_clean)
                .collect(),
        }
    }

    /// Did the physical design (registered ASRs, type sizes) change since
    /// the last [`Database::mark_clean`]?  Delta checkpoints refuse to
    /// span design changes — callers fall back to a full checkpoint.
    pub fn is_design_dirty(&self) -> bool {
        self.design_dirty
    }

    /// Change-tracking summary since the base: `(dirty objects, deleted
    /// objects, rebound variables, changed partition rows)` — powers the
    /// shell's checkpoint-lineage display.
    pub fn dirty_summary(&self) -> (usize, usize, usize, usize) {
        let rows = self
            .asrs()
            .map(|(_, asr)| asr.changed_rows())
            .sum::<usize>();
        (
            self.dirty_oids.len(),
            self.dead_oids.len(),
            self.dirty_vars.len(),
            rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::Decomposition;
    use crate::extension::Extension;

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

    /// Check all registered ASRs of `db` against freshly rebuilt copies.
    fn assert_all_consistent(db: &Database) {
        for (_, asr) in db.asrs() {
            asr.check_consistency().unwrap();
            let reference = AccessSupportRelation::build(
                db.base(),
                asr.path().clone(),
                asr.config().clone(),
                IoStats::new_handle(),
            )
            .unwrap();
            assert_eq!(
                asr.full_rows().cloned().collect::<Vec<_>>(),
                reference.full_rows().cloned().collect::<Vec<_>>(),
                "{} under {}",
                asr.config().extension,
                asr.config().decomposition
            );
        }
    }

    #[test]
    fn end_to_end_build_update_query() {
        let mut db = company_db();
        // Create ASRs for every extension up front, on an empty base.
        let path = "Division.Manufactures.Composition.Name";
        let mut ids = Vec::new();
        for ext in Extension::ALL {
            let p = PathExpression::parse(db.base().schema(), path).unwrap();
            let cfg = AsrConfig {
                extension: ext,
                decomposition: Decomposition::binary(3),
                keep_set_oids: false,
            };
            ids.push(db.create_asr(p, cfg).unwrap());
        }

        // Grow the database through maintained updates only.
        let d = db.instantiate("Division").unwrap();
        db.set_attribute(d, "Name", Value::string("Auto")).unwrap();
        let ps = db.instantiate("ProdSET").unwrap();
        db.set_attribute(d, "Manufactures", Value::Ref(ps)).unwrap();
        let prod = db.instantiate("Product").unwrap();
        db.set_attribute(prod, "Name", Value::string("560 SEC"))
            .unwrap();
        db.insert_into_set(ps, Value::Ref(prod)).unwrap();
        let bs = db.instantiate("BasePartSET").unwrap();
        db.set_attribute(prod, "Composition", Value::Ref(bs))
            .unwrap();
        let part = db.instantiate("BasePart").unwrap();
        db.set_attribute(part, "Name", Value::string("Door"))
            .unwrap();
        db.insert_into_set(bs, Value::Ref(part)).unwrap();
        assert_all_consistent(&db);

        // Full-span backward query works on every extension.
        for &id in &ids {
            let hits = db
                .backward(id, 0, 3, &Cell::Value(Value::string("Door")))
                .unwrap();
            assert_eq!(hits, vec![d], "ASR {id}");
        }
        // Partial span: supported by full, naive fallback elsewhere —
        // results agree either way.
        for &id in &ids {
            let parts = db.forward(id, 1, 2, prod).unwrap();
            assert_eq!(parts, vec![Cell::Oid(part)], "ASR {id}");
        }
    }

    #[test]
    fn updates_through_every_mutation_kind() {
        let mut db = company_db();
        for ext in Extension::ALL {
            let p =
                PathExpression::parse(db.base().schema(), "Division.Manufactures.Composition.Name")
                    .unwrap();
            db.create_asr(
                p,
                AsrConfig {
                    extension: ext,
                    decomposition: Decomposition::new(vec![0, 2, 3]).unwrap(),
                    keep_set_oids: false,
                },
            )
            .unwrap();
        }
        let d = db.instantiate("Division").unwrap();
        let ps = db.instantiate("ProdSET").unwrap();
        let prod = db.instantiate("Product").unwrap();
        let bs = db.instantiate("BasePartSET").unwrap();
        let part = db.instantiate("BasePart").unwrap();

        db.set_attribute(d, "Manufactures", Value::Ref(ps)).unwrap();
        assert_all_consistent(&db); // empty-set marker
        db.insert_into_set(ps, Value::Ref(prod)).unwrap();
        assert_all_consistent(&db); // marker -> edge
        db.set_attribute(prod, "Composition", Value::Ref(bs))
            .unwrap();
        assert_all_consistent(&db);
        db.insert_into_set(bs, Value::Ref(part)).unwrap();
        assert_all_consistent(&db);
        db.set_attribute(part, "Name", Value::string("Door"))
            .unwrap();
        assert_all_consistent(&db); // terminal value edge
        db.set_attribute(part, "Name", Value::string("Hatch"))
            .unwrap();
        assert_all_consistent(&db); // value overwrite
        db.remove_from_set(bs, &Value::Ref(part)).unwrap();
        assert_all_consistent(&db); // edge -> marker
        db.set_attribute(prod, "Composition", Value::Null).unwrap();
        assert_all_consistent(&db); // marker -> bare
        db.set_attribute(d, "Manufactures", Value::Null).unwrap();
        assert_all_consistent(&db);
    }

    #[test]
    fn shared_sets_maintain_all_owners() {
        let mut db = company_db();
        let p = PathExpression::parse(db.base().schema(), "Division.Manufactures.Composition.Name")
            .unwrap();
        db.create_asr(
            p,
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(3),
                keep_set_oids: false,
            },
        )
        .unwrap();
        let d1 = db.instantiate("Division").unwrap();
        let d2 = db.instantiate("Division").unwrap();
        let shared = db.instantiate("ProdSET").unwrap();
        db.set_attribute(d1, "Manufactures", Value::Ref(shared))
            .unwrap();
        db.set_attribute(d2, "Manufactures", Value::Ref(shared))
            .unwrap();
        let prod = db.instantiate("Product").unwrap();
        db.insert_into_set(shared, Value::Ref(prod)).unwrap();
        assert_all_consistent(&db);
        db.remove_from_set(shared, &Value::Ref(prod)).unwrap();
        assert_all_consistent(&db);
    }

    #[test]
    fn delete_rebuilds() {
        let mut db = company_db();
        let p = PathExpression::parse(db.base().schema(), "Division.Manufactures.Composition.Name")
            .unwrap();
        db.create_asr(
            p,
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::none(3),
                keep_set_oids: false,
            },
        )
        .unwrap();
        let d = db.instantiate("Division").unwrap();
        let ps = db.instantiate("ProdSET").unwrap();
        db.set_attribute(d, "Manufactures", Value::Ref(ps)).unwrap();
        db.delete_object(ps).unwrap();
        assert_all_consistent(&db);
    }

    #[test]
    fn drop_asr_frees_slot() {
        let mut db = company_db();
        let p = PathExpression::parse(db.base().schema(), "Division.Manufactures.Composition.Name")
            .unwrap();
        let id = db
            .create_asr(
                p,
                AsrConfig {
                    extension: Extension::Full,
                    decomposition: Decomposition::none(3),
                    keep_set_oids: false,
                },
            )
            .unwrap();
        assert!(db.asr(id).is_ok());
        db.drop_asr(id).unwrap();
        assert!(db.asr(id).is_err());
        assert!(db.drop_asr(id).is_err());
        assert_eq!(db.asrs().count(), 0);
    }

    #[test]
    fn navigation_routes_through_the_cheapest_supporting_asr() {
        let mut db = company_db();
        let d = db.instantiate("Division").unwrap();
        let ps = db.instantiate("ProdSET").unwrap();
        db.set_attribute(d, "Manufactures", Value::Ref(ps)).unwrap();
        let prod = db.instantiate("Product").unwrap();
        db.insert_into_set(ps, Value::Ref(prod)).unwrap();
        let p = PathExpression::parse(db.base().schema(), "Division.Manufactures.Composition.Name")
            .unwrap();
        // No ASR yet: find nothing, navigation still answers naively.
        assert!(db.find_supporting_asr(&p, 0, 3).is_none());
        let r = db.navigate_forward(&p, 0, 1, d).unwrap();
        assert_eq!(r, vec![Cell::Oid(prod)]);

        // Register canonical (whole chain only, smaller) and full.
        let can = db
            .create_asr(p.clone(), AsrConfig::binary(Extension::Canonical, &p))
            .unwrap();
        let full = db
            .create_asr(p.clone(), AsrConfig::binary(Extension::Full, &p))
            .unwrap();
        // Whole chain: both support; the smaller (canonical) is preferred.
        assert_eq!(db.find_supporting_asr(&p, 0, 3), Some(can));
        // Interior span: only full qualifies.
        assert_eq!(db.find_supporting_asr(&p, 1, 2), Some(full));
        // A different path matches nothing.
        let other =
            PathExpression::parse(db.base().schema(), "Division.Manufactures.Name").unwrap();
        assert!(db.find_supporting_asr(&other, 0, 2).is_none());
        // Auto-routed navigation agrees with the explicit calls.
        let via_auto = db.navigate_backward(&p, 0, 2, &Cell::Oid(prod)).unwrap();
        let via_naive = db.backward_unindexed(&p, 0, 2, &Cell::Oid(prod)).unwrap();
        assert_eq!(via_auto, via_naive);
    }

    #[test]
    fn idempotent_updates_charge_nothing_extra() {
        let mut db = company_db();
        let d = db.instantiate("Division").unwrap();
        db.set_attribute(d, "Name", Value::string("Auto")).unwrap();
        let before = db.stats().accesses();
        db.set_attribute(d, "Name", Value::string("Auto")).unwrap();
        assert_eq!(db.stats().accesses(), before, "no-op assignment");
    }
}
