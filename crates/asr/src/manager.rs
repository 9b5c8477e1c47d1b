//! The access support relation itself: path + extension + decomposition +
//! stored partitions, and nothing else.

use std::collections::BTreeSet;
use std::rc::Rc;

use asr_gom::{ObjectBase, Oid, PathExpression};
use asr_pagesim::StatsHandle;

use crate::auxrel::auxiliary_runs;
use crate::cell::Cell;
use crate::decomposition::{CellRows, Decomposition};
use crate::error::{AsrError, Result};
use crate::extension::Extension;
use crate::naive::check_span;
use crate::partition::{PartitionChanges, StoredPartition};
use crate::query;
use crate::row::Row;

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
///
/// The stored partitions are the whole state: each is the set of distinct
/// projections of the extension onto its span, and incremental
/// maintenance (`maintenance`) writes each partition's own delta.  The
/// undecomposed extension is never kept; [`Self::full_rows`] reassembles
/// it on demand (Theorem 3.9) for tests and inspection.
#[derive(Debug)]
pub struct AccessSupportRelation {
    path: PathExpression,
    config: AsrConfig,
    partitions: Vec<StoredPartition>,
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
        check_width(&path, &config)?;
        let mut asr = AccessSupportRelation {
            path,
            config,
            partitions: Vec::new(),
            stats,
        };
        asr.rebuild(base)?;
        Ok(asr)
    }

    /// Assemble an ASR from physically restored partitions — the
    /// checkpoint load path.  No extension join runs: queries and maintenance work
    /// straight off the adopted trees.
    pub(crate) fn from_restored(
        path: PathExpression,
        config: AsrConfig,
        partitions: Vec<StoredPartition>,
        stats: StatsHandle,
    ) -> Result<Self> {
        check_width(&path, &config)?;
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
            stats,
        })
    }

    /// Recompute the whole ASR from scratch (used after bulk loads, for
    /// updates maintenance does not handle step by step, and as the unit
    /// of comparison for incremental maintenance tests).
    ///
    /// Everything runs on sorted runs, on the calling thread: the
    /// auxiliary relations are sorted, deduplicated vectors; the
    /// reassembly walk frees each one as it takes it in and writes the
    /// extension into blocks of cells; partition by partition, the
    /// extension drops the columns before the partition's span (no later
    /// partition reads them) and the distinct projections are found by
    /// sorting borrowed column slices and copied once, into one buffer
    /// of cells per partition; the extension is dropped; then each
    /// partition is bulk-loaded bottom-up, its forward tree's leaves cut
    /// out of that buffer.
    pub fn rebuild(&mut self, base: &ObjectBase) -> Result<()> {
        let aux = auxiliary_runs(base, &self.path, self.config.keep_set_oids)?;
        let arities: Vec<usize> = aux.iter().map(|run| run.arity).collect();
        let runs = aux.into_iter().map(|run| run.rows);
        let mut extension = self.config.extension.walk(&arities, runs)?;
        let spans: Vec<(usize, usize)> = self.config.decomposition.partitions().collect();
        let mut projections: Vec<Vec<Option<Cell>>> = Vec::with_capacity(spans.len());
        let mut dropped = 0;
        for &(a, b) in &spans {
            extension.drop_leading(a - dropped);
            dropped = a;
            projections.push(distinct_projections(&extension, b - a + 1));
        }
        drop(extension);
        self.partitions = spans
            .into_iter()
            .zip(projections)
            .map(|((a, b), cells)| self.loaded(a, b, cells))
            .collect::<Result<_>>()?;
        Ok(())
    }

    /// A partition over columns `a ..= b`, tagged for I/O attribution and
    /// bulk-loaded with the cells of distinct ascending rows.
    fn loaded(&self, a: usize, b: usize, cells: Vec<Option<Cell>>) -> Result<StoredPartition> {
        let mut sp = StoredPartition::new(a, b, Rc::clone(&self.stats));
        sp.tag(&format!("asr[{}].{a}-{b}", self.path));
        sp.bulk_load_sorted(cells)?;
        Ok(sp)
    }

    /// Reassemble the logical extension from the partitions (Theorem
    /// 3.9), uncached.  Each stage of the walk is read, uncharged, off the
    /// partition's tree clustered on the cell the walk enters it through:
    /// the forward tree for a left-to-right walk, the backward tree for
    /// the right-complete extension's right-to-left one.
    fn reassemble(&self) -> Result<Vec<Row>> {
        let backward = self.config.extension == Extension::RightComplete;
        let parts = (self.partitions.iter()).map(|p| p.clustered_rows(backward));
        let mut rows = (self.config.decomposition)
            .reassemble_cells::<_, Row>(parts, self.config.extension)?
            .into_rows();
        rows.sort_unstable();
        Ok(rows)
    }

    /// The logical extension rows in ascending order, reassembled from
    /// the partitions on every call (uncharged; for tests and
    /// inspection).
    ///
    /// # Panics
    ///
    /// If the stored partitions cannot be reassembled — impossible for
    /// any ASR that passed restore validation or was built here.
    pub fn full_rows(&self) -> impl Iterator<Item = Row> {
        self.reassemble()
            .expect("stored partitions reassemble losslessly (Theorem 3.9)")
            .into_iter()
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

    /// Pages changed across all partitions since the base.
    pub(crate) fn changed_pages(&self) -> usize {
        self.partitions
            .iter()
            .map(StoredPartition::changed_pages)
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

    /// Verify that each partition's two trees agree and that each
    /// partition holds exactly its projection of the reassembled
    /// extension (tests).
    pub fn check_consistency(&self) -> Result<()> {
        let rows = self.reassemble()?;
        for p in &self.partitions {
            p.check_consistency()?;
            let (a, b) = p.span();
            let want: BTreeSet<Row> = rows
                .iter()
                .map(|row| row.project(a, b))
                .filter(|row| !row.is_all_null())
                .collect();
            let stored: BTreeSet<Row> = p.clustered_rows(false).into_iter().collect();
            if stored != want {
                return Err(AsrError::PageSim(
                    asr_pagesim::PageSimError::CorruptStructure(format!(
                        "partition [{a},{b}]: {} stored rows, {} distinct projections, {} stray",
                        stored.len(),
                        want.len(),
                        stored.difference(&want).count()
                    )),
                ));
            }
        }
        Ok(())
    }
}

/// The distinct projections of the extension's rows onto their first
/// `w` columns, in ascending order, all-NULL ones dropped (Definition
/// 3.8), as one buffer of cells: the column slices are sorted and
/// deduplicated in place, and only the survivors are copied.
fn distinct_projections(extension: &CellRows, w: usize) -> Vec<Option<Cell>> {
    let mut slices: Vec<&[Option<Cell>]> = extension
        .iter()
        .map(|row| &row[..w])
        .filter(|cells| cells.iter().any(Option::is_some))
        .collect();
    slices.sort_unstable();
    slices.dedup();
    let mut cells = Vec::with_capacity(slices.len() * w);
    for slice in slices {
        cells.extend_from_slice(slice);
    }
    cells
}

/// Does the decomposition span the relation width `m`?
fn check_width(path: &PathExpression, config: &AsrConfig) -> Result<()> {
    let m = path.arity(config.keep_set_oids) - 1;
    if config.decomposition.m() != m {
        return Err(AsrError::InvalidDecomposition(format!(
            "decomposition {} does not span the relation width m = {m}",
            config.decomposition
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auxrel::build_auxiliary_relations;
    use asr_gom::Value;
    use asr_pagesim::IoStats;

    fn oid_of(base: &ObjectBase, name: &str) -> Oid {
        base.find_by_attribute("Name", &Value::string(name))
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
                let direct = ext.fold(&aux).unwrap();
                let want: BTreeSet<Row> = direct.iter().cloned().collect();
                assert_eq!(asr.full_rows().collect::<BTreeSet<_>>(), want, "{ext}");
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
