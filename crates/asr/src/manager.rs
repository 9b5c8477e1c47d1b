//! The access support relation itself: path + extension + decomposition +
//! stored partitions.

use std::rc::Rc;

use asr_gom::{ObjectBase, Oid, PathExpression};
use asr_pagesim::StatsHandle;

use crate::auxrel::build_auxiliary_relations;
use crate::cell::Cell;
use crate::decomposition::Decomposition;
use crate::error::{AsrError, Result};
use crate::extension::Extension;
use crate::naive::check_span;
use crate::partition::{PartitionChanges, StoredPartition};
use crate::query;
use crate::relation::Relation;

/// The physical-design choices for one access support relation — exactly
/// the two dimensions the paper gives the database designer (Section 7):
/// extension and decomposition, plus the set-OID simplification toggle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsrConfig {
    /// Which tuples to materialize (Definitions 3.4–3.7).
    pub extension: Extension,
    /// How to partition the relation (Definition 3.8).  The cut points
    /// live in *column* space: `m = n + k` when `keep_set_oids`, else
    /// `m = n`.
    pub decomposition: Decomposition,
    /// Keep the set-object OID columns (the general Definition 3.2 form)
    /// or drop them under the paper's no-set-sharing simplification.
    pub keep_set_oids: bool,
}

impl AsrConfig {
    /// The common default used throughout the paper's experiments:
    /// the given extension, binary decomposition, set OIDs dropped.
    pub fn binary(extension: Extension, path: &PathExpression) -> Self {
        AsrConfig {
            extension,
            decomposition: Decomposition::binary(path.arity(false) - 1),
            keep_set_oids: false,
        }
    }

    /// Non-decomposed configuration.
    pub fn non_decomposed(extension: Extension, path: &PathExpression) -> Self {
        AsrConfig {
            extension,
            decomposition: Decomposition::none(path.arity(false) - 1),
            keep_set_oids: false,
        }
    }
}

/// A materialized access support relation over one path expression.
#[derive(Debug)]
pub struct AccessSupportRelation {
    path: PathExpression,
    config: AsrConfig,
    partitions: Vec<StoredPartition>,
    /// Logical mirror of the (undecomposed) extension rows.  Uncharged
    /// bookkeeping: it makes incremental maintenance exactly idempotent
    /// (removal of a row that is not in the extension is a no-op, and
    /// partition witness counts stay consistent with the number of
    /// extension rows projecting onto each partition row).
    ///
    /// Lazily populated: queries run entirely off the partitions' B+
    /// trees, so a physically restored ASR defers the reassembly join
    /// (Theorem 3.9) until the first operation that actually needs the
    /// mirror — an update, a consistency check, or an inspection.
    rows: std::cell::OnceCell<std::collections::BTreeSet<crate::row::Row>>,
    stats: StatsHandle,
}

impl AccessSupportRelation {
    /// Build the ASR from the current state of `base`, charging the page
    /// writes of the initial load to `stats`.
    pub fn build(
        base: &ObjectBase,
        path: PathExpression,
        config: AsrConfig,
        stats: StatsHandle,
    ) -> Result<Self> {
        let m = path.arity(config.keep_set_oids) - 1;
        if config.decomposition.m() != m {
            return Err(AsrError::InvalidDecomposition(format!(
                "decomposition {} does not span the relation width m = {m}",
                config.decomposition
            )));
        }
        let mut asr = AccessSupportRelation {
            path,
            config,
            partitions: Vec::new(),
            rows: std::cell::OnceCell::new(),
            stats,
        };
        asr.rebuild(base)?;
        Ok(asr)
    }

    /// Assemble an ASR from physically restored partitions — the `ASRDB 2`
    /// load path.  No extension join runs at load time: queries serve
    /// straight off the adopted trees, and the logical extension mirror is
    /// re-derived from the partitions' (uncharged) row mirrors via
    /// Theorem 3.9's lossless reassembly the first time maintenance or a
    /// consistency check needs it — so incremental maintenance composes
    /// exactly as it would on the originally built ASR.
    pub(crate) fn from_restored(
        path: PathExpression,
        config: AsrConfig,
        partitions: Vec<StoredPartition>,
        stats: StatsHandle,
    ) -> Result<Self> {
        let m = path.arity(config.keep_set_oids) - 1;
        if config.decomposition.m() != m {
            return Err(AsrError::InvalidDecomposition(format!(
                "decomposition {} does not span the relation width m = {m}",
                config.decomposition
            )));
        }
        let spans: Vec<(usize, usize)> = config.decomposition.partitions().collect();
        let got: Vec<(usize, usize)> = partitions.iter().map(StoredPartition::span).collect();
        if spans != got {
            return Err(AsrError::Snapshot(format!(
                "restored partitions span {got:?}, decomposition expects {spans:?}"
            )));
        }
        Ok(AccessSupportRelation {
            path,
            config,
            partitions,
            rows: std::cell::OnceCell::new(),
            stats,
        })
    }

    /// Reassemble the logical extension from the partition mirrors
    /// (Theorem 3.9) — the deferred half of [`Self::from_restored`].
    fn derive_rows(&self) -> Result<std::collections::BTreeSet<crate::row::Row>> {
        let parts: Vec<Vec<&crate::row::Row>> = self
            .partitions
            .iter()
            .map(|p| p.mirror_rows().collect())
            .collect();
        self.config
            .decomposition
            .reassemble_rows(&parts, self.config.extension)
    }

    /// The logical extension mirror, deriving it on first use.
    fn extension_mirror(&self) -> Result<&std::collections::BTreeSet<crate::row::Row>> {
        if let Some(rows) = self.rows.get() {
            return Ok(rows);
        }
        let derived = self.derive_rows()?;
        Ok(self.rows.get_or_init(|| derived))
    }

    /// Recompute the whole ASR from scratch (used after bulk loads; unit of
    /// comparison for incremental maintenance tests).
    ///
    /// Partitions are bulk-loaded bottom-up: each distinct projected row is
    /// written once with a witness count equal to the number of extension
    /// rows projecting onto it, so subsequent incremental maintenance
    /// composes exactly.
    pub fn rebuild(&mut self, base: &ObjectBase) -> Result<()> {
        let aux = build_auxiliary_relations(base, &self.path, self.config.keep_set_oids)?;
        let extension = self.config.extension.compute(&aux)?;
        self.partitions = self
            .config
            .decomposition
            .partitions()
            .map(|(a, b)| {
                let mut counts: std::collections::BTreeMap<crate::row::Row, u64> =
                    std::collections::BTreeMap::new();
                for row in extension.iter() {
                    let proj = row.project(a, b);
                    if !proj.is_all_null() {
                        *counts.entry(proj).or_default() += 1;
                    }
                }
                let mut sp = StoredPartition::new(a, b, Rc::clone(&self.stats));
                sp.tag(&format!("asr[{}].{a}-{b}", self.path));
                sp.bulk_load(counts)?;
                Ok(sp)
            })
            .collect::<Result<_>>()?;
        let mirror = std::cell::OnceCell::new();
        let _ = mirror.set(extension.iter().cloned().collect());
        self.rows = mirror;
        Ok(())
    }

    /// Restrict every stored partition to the rows `keep` accepts — the
    /// shard-placement primitive.  `keep` sees the partition index and the
    /// stored (projected) row; surviving rows keep their witness counts.
    ///
    /// The result is a *placement slice*, not a smaller extension: span
    /// queries against a slice return exactly the slice's fragments, and a
    /// scatter-gather coordinator that broadcasts each partition probe to
    /// every slice and unions the fragments reconstructs the unrestricted
    /// answer (placement partitions each partition's row set, so the union
    /// over slices is the original partition content).  Incremental
    /// maintenance is **not** supported on a slice — the extension mirror
    /// is dropped so nothing silently reassembles cross-slice rows;
    /// mutations flow through the primary and re-seed placements via the
    /// replication substrate.
    ///
    /// Returns the number of stored rows retained across all partitions.
    pub fn retain_partition_rows(
        &mut self,
        mut keep: impl FnMut(usize, &crate::row::Row) -> bool,
    ) -> Result<u64> {
        let spans: Vec<(usize, usize)> = self.config.decomposition.partitions().collect();
        let mut placed = 0u64;
        for (idx, &(a, b)) in spans.iter().enumerate() {
            let mut kept: Vec<(crate::row::Row, u64)> = Vec::new();
            {
                let old = &self.partitions[idx];
                old.scan(|row| {
                    if keep(idx, row) {
                        kept.push((row.clone(), old.witness_count(row)));
                    }
                });
            }
            placed += kept.len() as u64;
            let mut sp = StoredPartition::new(a, b, Rc::clone(&self.stats));
            sp.tag(&format!("asr[{}].{a}-{b}", self.path));
            sp.bulk_load(kept)?;
            self.partitions[idx] = sp;
        }
        self.rows = std::cell::OnceCell::new();
        Ok(placed)
    }

    /// Insert one extension row, projecting it onto every partition
    /// (each projection gains one witness).  Inserting a row already in the
    /// extension is a no-op.
    pub(crate) fn insert_full_row(&mut self, row: crate::row::Row) -> Result<bool> {
        if row.is_all_null() || self.extension_mirror()?.contains(&row) {
            return Ok(false);
        }
        for part in &mut self.partitions {
            let (a, b) = part.span();
            part.insert(row.project(a, b))?;
        }
        self.rows
            .get_mut()
            .expect("mirror just derived")
            .insert(row);
        Ok(true)
    }

    /// Remove one extension row (each partition projection loses one
    /// witness).  Removing a row not in the extension is a no-op.
    pub(crate) fn remove_full_row(&mut self, row: &crate::row::Row) -> Result<bool> {
        if !self.extension_mirror()?.contains(row) {
            return Ok(false);
        }
        self.rows
            .get_mut()
            .expect("mirror just derived")
            .remove(row);
        for part in &mut self.partitions {
            let (a, b) = part.span();
            part.remove(&row.project(a, b))?;
        }
        Ok(true)
    }

    /// Is this exact row in the (logical) extension?  Derives the
    /// extension mirror on first use; an ASR whose partitions cannot be
    /// reassembled reports `false`.
    pub fn contains_full_row(&self, row: &crate::row::Row) -> bool {
        self.extension_mirror().is_ok_and(|rows| rows.contains(row))
    }

    /// Iterate the logical extension rows (uncharged; for tests and
    /// inspection).  Derives the extension mirror on first use.
    ///
    /// # Panics
    ///
    /// If the stored partitions cannot be reassembled — impossible for
    /// any ASR that passed restore validation or was built here.
    pub fn full_rows(&self) -> impl Iterator<Item = &crate::row::Row> {
        self.extension_mirror()
            .expect("stored partitions reassemble losslessly (Theorem 3.9)")
            .iter()
    }

    /// The indexed path expression.
    pub fn path(&self) -> &PathExpression {
        &self.path
    }

    /// The physical-design configuration.
    pub fn config(&self) -> &AsrConfig {
        &self.config
    }

    /// The stored partitions, in left-to-right span order.
    pub fn partitions(&self) -> &[StoredPartition] {
        &self.partitions
    }

    /// Mutable partition access for MVCC version publishing
    /// ([`crate::Database::snapshot`]).
    pub(crate) fn partitions_mut(&mut self) -> &mut [StoredPartition] {
        &mut self.partitions
    }

    /// Make every partition's current state the base of the next delta,
    /// handing over each one's changes since the previous base (see
    /// [`StoredPartition::mark_clean`]).
    pub(crate) fn mark_clean(&mut self) -> Vec<PartitionChanges> {
        self.partitions
            .iter_mut()
            .map(StoredPartition::mark_clean)
            .collect()
    }

    /// Distinct rows changed across all partitions since the base.
    pub(crate) fn changed_rows(&self) -> usize {
        self.partitions
            .iter()
            .map(StoredPartition::changed_rows)
            .sum()
    }

    /// The shared page-access counter.
    pub fn stats(&self) -> &StatsHandle {
        &self.stats
    }

    /// Give every partition's trees LRU buffer pools of `pages` pages
    /// (0 restores the paper's unbuffered accounting).
    pub fn enable_buffering(&mut self, pages: usize) {
        for p in &mut self.partitions {
            p.enable_buffering(pages);
        }
    }

    /// Can this ASR evaluate `Q_{i,j}` (formula 35)?
    pub fn supports(&self, i: usize, j: usize) -> bool {
        i < j && j <= self.path.len() && self.config.extension.supports(i, j, self.path.len())
    }

    /// Total distinct rows across partitions.
    pub fn total_rows(&self) -> usize {
        self.partitions.iter().map(StoredPartition::len).sum()
    }

    /// Total tuple bytes across partitions (the paper's storage-cost
    /// measure, Section 4.3, for the non-redundant representation).
    pub fn data_bytes(&self) -> u64 {
        self.partitions
            .iter()
            .map(StoredPartition::data_bytes)
            .sum()
    }

    /// Total pages across both redundant B+ trees of every partition.
    pub fn total_pages(&self) -> u64 {
        self.partitions
            .iter()
            .map(StoredPartition::total_pages)
            .sum()
    }

    /// Map a path position to its relation column.
    pub fn column_of(&self, pos: usize) -> usize {
        self.path.column_of(pos, self.config.keep_set_oids)
    }

    /// Forward span query `Q_{i,j}(fw)` from a `t_i` object (supported
    /// evaluation; errors with [`AsrError::Unsupported`] when formula 35
    /// rules this extension out — callers fall back to naive evaluation).
    pub fn forward(&self, i: usize, j: usize, start: Oid) -> Result<Vec<Cell>> {
        check_span(&self.path, i, j)?;
        if !self.supports(i, j) {
            return Err(AsrError::Unsupported {
                extension: self.config.extension.name(),
                i,
                j,
                n: self.path.len(),
            });
        }
        Ok(query::forward_supported(
            &self.partitions,
            &self.config.decomposition,
            self.column_of(i),
            self.column_of(j),
            &Cell::Oid(start),
        ))
    }

    /// Backward span query `Q_{i,j}(bw)`: the `t_i` objects whose path
    /// reaches `target` (a `t_j` OID, or an attribute value when the path
    /// ends in one and `j = n`).
    pub fn backward(&self, i: usize, j: usize, target: &Cell) -> Result<Vec<Oid>> {
        check_span(&self.path, i, j)?;
        if !self.supports(i, j) {
            return Err(AsrError::Unsupported {
                extension: self.config.extension.name(),
                i,
                j,
                n: self.path.len(),
            });
        }
        let cells = query::backward_supported(
            &self.partitions,
            &self.config.decomposition,
            self.column_of(i),
            self.column_of(j),
            target,
        );
        Ok(cells.into_iter().filter_map(|c| c.as_oid()).collect())
    }

    /// Reassemble the full logical relation from the stored partitions
    /// (Theorem 3.9) — primarily for tests and inspection.
    pub fn to_relation(&self) -> Result<Relation> {
        let parts: Vec<Relation> = self
            .partitions
            .iter()
            .map(StoredPartition::to_relation)
            .collect::<Result<_>>()?;
        self.config
            .decomposition
            .reassemble(&parts, self.config.extension)
    }

    /// Verify partition invariants and that every partition's witness
    /// counts agree with the logical extension mirror (tests).
    pub fn check_consistency(&self) -> Result<()> {
        let rows = self.extension_mirror()?;
        for p in &self.partitions {
            p.check_consistency()?;
            let (a, b) = p.span();
            let mut counts: std::collections::HashMap<crate::row::Row, u64> =
                std::collections::HashMap::new();
            for row in rows {
                let proj = row.project(a, b);
                if !proj.is_all_null() {
                    *counts.entry(proj).or_default() += 1;
                }
            }
            if counts.len() != p.len() {
                return Err(AsrError::PageSim(
                    asr_pagesim::PageSimError::CorruptStructure(format!(
                        "partition [{a},{b}]: {} stored rows but {} distinct projections",
                        p.len(),
                        counts.len()
                    )),
                ));
            }
            for (row, want) in counts {
                let got = p.witness_count(&row);
                if got != want {
                    return Err(AsrError::PageSim(
                        asr_pagesim::PageSimError::CorruptStructure(format!(
                            "partition [{a},{b}]: row {row} has {got} witnesses, expected {want}"
                        )),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_gom::Value;
    use asr_pagesim::IoStats;

    fn oid_of(base: &ObjectBase, name: &str) -> Oid {
        base.objects()
            .find(|o| o.attribute("Name") == &Value::string(name))
            .map(|o| o.oid)
            .unwrap()
    }

    fn build(ext: Extension, dec: Decomposition) -> (ObjectBase, AccessSupportRelation) {
        let (base, path) = crate::testutil::figure2_base();
        let config = AsrConfig {
            extension: ext,
            decomposition: dec,
            keep_set_oids: false,
        };
        let asr = AccessSupportRelation::build(&base, path, config, IoStats::new_handle()).unwrap();
        (base, asr)
    }

    #[test]
    fn canonical_full_span_queries() {
        let (base, asr) = build(Extension::Canonical, Decomposition::binary(3));
        asr.check_consistency().unwrap();
        // Query 2: which Division uses a BasePart named "Door"?
        let hits = asr
            .backward(0, 3, &Cell::Value(Value::string("Door")))
            .unwrap();
        assert_eq!(hits.len(), 2);
        // Query 3 direction: names reachable from Auto.
        let auto = oid_of(&base, "Auto");
        let names = asr.forward(0, 3, auto).unwrap();
        assert_eq!(names, vec![Cell::Value(Value::string("Door"))]);
        // Partial spans unsupported on canonical.
        assert!(matches!(
            asr.forward(0, 2, auto),
            Err(AsrError::Unsupported {
                extension: "canonical",
                ..
            })
        ));
        assert!(asr
            .backward(1, 3, &Cell::Value(Value::string("Door")))
            .is_err());
    }

    #[test]
    fn full_extension_supports_every_span() {
        let (base, asr) = build(Extension::Full, Decomposition::none(3));
        let sec = oid_of(&base, "560 SEC");
        let parts = asr.forward(1, 2, sec).unwrap();
        assert_eq!(parts, vec![Cell::Oid(oid_of(&base, "Door"))]);
        let sausage = oid_of(&base, "Sausage");
        let names = asr.forward(1, 3, sausage).unwrap();
        assert_eq!(names, vec![Cell::Value(Value::string("Pepper"))]);
        let holders = asr
            .backward(1, 2, &Cell::Oid(oid_of(&base, "Pepper")))
            .unwrap();
        assert_eq!(holders, vec![oid_of(&base, "Sausage")]);
    }

    #[test]
    fn left_complete_supports_anchored_spans_only() {
        let (base, asr) = build(Extension::LeftComplete, Decomposition::binary(3));
        let truck = oid_of(&base, "Truck");
        let products = asr.forward(0, 1, truck).unwrap();
        assert_eq!(products.len(), 2);
        assert!(asr.forward(1, 2, oid_of(&base, "560 SEC")).is_err());
        let hits = asr
            .backward(0, 2, &Cell::Oid(oid_of(&base, "Door")))
            .unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn right_complete_supports_terminal_spans_only() {
        let (base, asr) = build(Extension::RightComplete, Decomposition::binary(3));
        let hits = asr
            .backward(1, 3, &Cell::Value(Value::string("Pepper")))
            .unwrap();
        assert_eq!(hits, vec![oid_of(&base, "Sausage")]);
        assert!(asr
            .backward(0, 2, &Cell::Oid(oid_of(&base, "Door")))
            .is_err());
        // Forward to the terminal from an interior anchor.
        let names = asr.forward(1, 3, oid_of(&base, "Sausage")).unwrap();
        assert_eq!(names, vec![Cell::Value(Value::string("Pepper"))]);
    }

    #[test]
    fn reassembled_relation_matches_direct_computation() {
        let (base, path) = crate::testutil::figure2_base();
        for ext in Extension::ALL {
            for dec in Decomposition::enumerate_all(3) {
                let config = AsrConfig {
                    extension: ext,
                    decomposition: dec,
                    keep_set_oids: false,
                };
                let asr = AccessSupportRelation::build(
                    &base,
                    path.clone(),
                    config,
                    IoStats::new_handle(),
                )
                .unwrap();
                let aux = build_auxiliary_relations(&base, &path, false).unwrap();
                let direct = ext.compute(&aux).unwrap();
                assert_eq!(asr.to_relation().unwrap(), direct, "{ext}");
            }
        }
    }

    #[test]
    fn decomposition_width_validated() {
        let (base, path) = crate::testutil::figure2_base();
        let config = AsrConfig {
            extension: Extension::Full,
            decomposition: Decomposition::binary(7),
            keep_set_oids: false,
        };
        assert!(matches!(
            AccessSupportRelation::build(&base, path, config, IoStats::new_handle()),
            Err(AsrError::InvalidDecomposition(_))
        ));
    }

    #[test]
    fn set_oid_form_queries_work() {
        let (base, path) = crate::testutil::figure2_base();
        let config = AsrConfig {
            extension: Extension::Full,
            decomposition: Decomposition::binary(path.arity(true) - 1),
            keep_set_oids: true,
        };
        let asr = AccessSupportRelation::build(&base, path, config, IoStats::new_handle()).unwrap();
        let auto = oid_of(&base, "Auto");
        let names = asr.forward(0, 3, auto).unwrap();
        assert_eq!(names, vec![Cell::Value(Value::string("Door"))]);
        let hits = asr
            .backward(0, 3, &Cell::Value(Value::string("Door")))
            .unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn storage_metrics_nonzero() {
        let (_, asr) = build(Extension::Full, Decomposition::binary(3));
        assert!(asr.total_rows() > 0);
        assert!(asr.data_bytes() > 0);
        assert!(asr.total_pages() >= 6, "two trees per partition");
    }
}
