//! Decompositions of access support relations (Definition 3.8) and their
//! lossless reassembly (Theorem 3.9).
//!
//! A decomposition of an `(m+1)`-ary relation is a sequence of cut points
//! `(0, i_1, …, i_k, m)`; each adjacent pair `(i_ν, i_{ν+1})` names a
//! partition `[S_{i_ν}, …, S_{i_{ν+1}}]` materialized by projection.
//! Adjacent partitions overlap in their boundary column, which is what
//! makes every decomposition lossless: re-joining the partitions with the
//! same join flavour that defined the extension recovers the original
//! relation exactly.

use std::borrow::Borrow;
use std::fmt;
use std::iter::repeat_n;
use std::ops::Range;

use crate::cell::Cell;
use crate::error::{AsrError, Result};
use crate::extension::Extension;
use crate::relation::Relation;
use crate::row::Row;

/// A decomposition `(0, i_1, …, i_k, m)` of an `(m+1)`-column relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Decomposition {
    cuts: Vec<usize>,
}

impl Decomposition {
    /// The trivial decomposition `(0, m)` — no decomposition at all.
    pub fn none(m: usize) -> Self {
        assert!(m >= 1, "relations have at least two columns");
        Decomposition { cuts: vec![0, m] }
    }

    /// The binary decomposition `(0, 1, 2, …, m)`: every partition is a
    /// binary relation.
    pub fn binary(m: usize) -> Self {
        assert!(m >= 1);
        Decomposition {
            cuts: (0..=m).collect(),
        }
    }

    /// A custom decomposition from its cut points, validated to start at 0,
    /// end at `m` and be strictly increasing.
    pub fn new(cuts: impl Into<Vec<usize>>) -> Result<Self> {
        let cuts = cuts.into();
        if cuts.len() < 2 {
            return Err(AsrError::InvalidDecomposition(
                "need at least the two outer cut points".into(),
            ));
        }
        if cuts[0] != 0 {
            return Err(AsrError::InvalidDecomposition(
                "first cut point must be 0".into(),
            ));
        }
        if !cuts.windows(2).all(|w| w[0] < w[1]) {
            return Err(AsrError::InvalidDecomposition(
                "cut points must be strictly increasing".into(),
            ));
        }
        Ok(Decomposition { cuts })
    }

    /// The relation width this decomposition applies to (`m`; arity − 1).
    pub fn m(&self) -> usize {
        *self.cuts.last().expect("cuts are non-empty")
    }

    /// The cut points `(0, i_1, …, m)`.
    pub fn cuts(&self) -> &[usize] {
        &self.cuts
    }

    /// The partitions as inclusive column spans `(i_ν, i_{ν+1})`.
    pub fn partitions(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.cuts.windows(2).map(|w| (w[0], w[1]))
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.cuts.len() - 1
    }

    /// Is this the binary decomposition?
    pub fn is_binary(&self) -> bool {
        self.cuts.len() == self.m() + 1
    }

    /// Is this the trivial (0, m) decomposition?
    pub fn is_none(&self) -> bool {
        self.cuts.len() == 2
    }

    /// Is `col` one of the cut points?
    pub fn has_cut(&self, col: usize) -> bool {
        self.cuts.binary_search(&col).is_ok()
    }

    /// Index of the partition whose span contains column `col`
    /// (columns at interior cut points belong to the partition that
    /// *starts* there, except `m`, which belongs to the last).
    pub fn partition_containing(&self, col: usize) -> usize {
        assert!(col <= self.m(), "column out of range");
        match self.cuts.binary_search(&col) {
            Ok(idx) => idx.min(self.partition_count() - 1),
            Err(idx) => idx - 1,
        }
    }

    /// The inclusive span of partition `idx`.
    pub fn span(&self, idx: usize) -> (usize, usize) {
        (self.cuts[idx], self.cuts[idx + 1])
    }

    /// Enumerate **all** decompositions of an `(m+1)`-ary relation —
    /// the `2^{m-1}` subsets of interior cut points.  Used by the
    /// physical-design optimizer.
    pub fn enumerate_all(m: usize) -> Vec<Decomposition> {
        assert!(m >= 1);
        let interior = m - 1;
        let mut out = Vec::with_capacity(1 << interior);
        for mask in 0u64..(1u64 << interior) {
            let mut cuts = vec![0];
            for bit in 0..interior {
                if mask & (1 << bit) != 0 {
                    cuts.push(bit + 1);
                }
            }
            cuts.push(m);
            out.push(Decomposition { cuts });
        }
        out
    }

    /// Materialize the partitions of `relation` by projection
    /// (Definition 3.8).
    pub fn decompose(&self, relation: &Relation) -> Result<Vec<Relation>> {
        if relation.arity() != self.m() + 1 {
            return Err(AsrError::ArityMismatch {
                expected: self.m() + 1,
                actual: relation.arity(),
            });
        }
        self.partitions()
            .map(|(a, b)| relation.project(a, b))
            .collect()
    }

    /// Reassemble decomposed partitions with the join flavour of the given
    /// extension.  By Theorem 3.9 this recovers the original extension
    /// exactly (property-tested in `tests/properties.rs` against
    /// [`Extension::fold`], the [`chain_join`](crate::join::chain_join)
    /// folds of Definitions 3.4–3.7).
    pub fn reassemble(&self, parts: &[Relation], extension: Extension) -> Result<Relation> {
        let rows: Vec<Vec<&Row>> = parts.iter().map(|p| p.iter().collect()).collect();
        let rows = self.reassemble_rows(&rows, extension)?;
        Ok(Relation::from_set(self.m() + 1, rows.into_iter().collect()))
    }

    /// [`Decomposition::reassemble`] over borrowed rows, one slice per
    /// partition — what a stored ASR's clustering trees hand over without
    /// being copied into [`Relation`]s first.  Each partition's rows
    /// should come in the order of the cell a path enters them through:
    /// first cell (the forward tree's clustering), or last cell for the
    /// right-complete extension (the backward tree's); rows in any other
    /// order are sorted first.
    ///
    /// One walk instead of a fold of joins.  The fold joins the
    /// partitions in order (right to left for the right-complete
    /// extension), and what one accumulated row becomes in the next join
    /// depends on that row alone: it continues through every row of the
    /// next partition whose first cell equals its last (`NULL` matches
    /// nothing), or, finding none, is padded with `NULL`s when the join
    /// keeps its accumulated side — for good, since a `NULL` border
    /// never matches again — and dropped otherwise.  So each start row is
    /// extended depth-first to full width and emitted once, and no
    /// intermediate relation is built.  Start rows are the first
    /// partition's; where the join also keeps its incoming side (the full
    /// extension), a row of partition `k` that no path from an earlier
    /// start reached is the join's unmatched incoming row and starts a
    /// path itself, `NULL`s before it.  Partitions are taken in order, so
    /// by the time partition `k` supplies starts every path that could
    /// reach it has been walked.
    ///
    /// The rows come back in walk order, not sorted.  Over partitions
    /// that are sets they are distinct: a path's row projects back onto
    /// each partition it went through.
    pub fn reassemble_rows(&self, parts: &[Vec<&Row>], extension: Extension) -> Result<Vec<Row>> {
        Ok(self.reassemble_cells(parts, extension)?.into_rows())
    }

    /// [`Self::reassemble_rows`] as blocks of cells, without a row
    /// allocation each.  Each partition's rows (owned or borrowed) are
    /// copied into the walk's stage, in order, and then dropped, so a
    /// caller that hands its rows over frees each partition before the
    /// walk starts; the walk frees each stage once every path that starts
    /// in it has been walked.
    pub(crate) fn reassemble_cells<P, R>(
        &self,
        parts: impl IntoIterator<Item = P>,
        extension: Extension,
    ) -> Result<CellRows>
    where
        P: AsRef<[R]>,
        R: Borrow<Row>,
    {
        let kind = extension.join_kind();
        let backward = extension == Extension::RightComplete;
        // The accumulated side is the join's left operand in a left fold
        // and its right operand in a right fold.
        let (pad, new_starts) = if backward {
            (kind.keeps_right(), kind.keeps_left())
        } else {
            (kind.keeps_left(), kind.keeps_right())
        };
        let walk = Walk {
            backward,
            pad,
            width: self.m() + 1,
        };
        let mut spans: Vec<(usize, usize)> = self.partitions().collect();
        let mut parts = parts.into_iter();
        let mut stages: Vec<Stage> = Vec::with_capacity(spans.len());
        for &(from, to) in &spans {
            let Some(rows) = parts.next() else { break };
            let rows = rows.as_ref();
            if let Some(row) = rows
                .iter()
                .map(R::borrow)
                .find(|r| r.arity() != to - from + 1)
            {
                return Err(AsrError::ArityMismatch {
                    expected: to - from + 1,
                    actual: row.arity(),
                });
            }
            stages.push(walk.stage(rows, to - from + 1));
        }
        let got = stages.len() + parts.count();
        if got != spans.len() {
            return Err(AsrError::InvalidDecomposition(format!(
                "expected {} partitions, got {got}",
                spans.len()
            )));
        }
        // Partitions in the fold's order.
        if backward {
            stages.reverse();
            spans.reverse();
        }

        let mut out = CellRows::new(walk.width);
        let mut prefix: Vec<Option<Cell>> = Vec::with_capacity(walk.width);
        let mut lead = 0;
        let starting = if new_starts { stages.len() } else { 1 };
        for k in 0..starting {
            let (walked, ahead) = stages.split_at_mut(k + 1);
            let stage = &walked[k];
            for at in 0..stage.len() {
                if k > 0 && stage.reached[at] {
                    continue;
                }
                prefix.clear();
                prefix.resize(lead, None);
                prefix.extend_from_slice(stage.row(at));
                walk.extend(&mut prefix, ahead, &mut out);
            }
            lead += spans[k].1 - spans[k].0;
            // No later path starts in or passes through this stage.
            walked[k].cells = Vec::new();
            walked[k].reached = Vec::new();
        }
        Ok(out)
    }
}

/// Cells per block of a [`CellRows`]: 64 KiB, below glibc's initial
/// 128 KiB mmap threshold.
const BLOCK_CELLS: usize = 4096;

/// Rows of `width` cells, written into blocks of about [`BLOCK_CELLS`]
/// cells, each holding whole rows: no allocation per row, and none that
/// grows with the relation.  A single buffer the size of an extension
/// would, once freed, raise glibc's dynamic mmap threshold to its size;
/// the buffers the process grows after it then come off the heap and
/// leave holes there.  On the `serve-query` ledger one buffer measured
/// 27.7 MB of peak RSS, blocks 25.4 MB, and one buffer with the threshold
/// pinned (`MALLOC_MMAP_THRESHOLD_`) 25.7 MB.
pub(crate) struct CellRows {
    width: usize,
    blocks: Vec<Vec<Option<Cell>>>,
}

impl CellRows {
    fn new(width: usize) -> Self {
        CellRows {
            width,
            blocks: Vec::new(),
        }
    }

    /// Append one row; `cells` yields exactly `width` cells.
    fn push(&mut self, cells: impl IntoIterator<Item = Option<Cell>>) {
        let block_len = (BLOCK_CELLS / self.width).max(1) * self.width;
        if self.blocks.last().is_none_or(|b| b.len() == block_len) {
            self.blocks.push(Vec::with_capacity(block_len));
        }
        let block = self.blocks.last_mut().expect("a block with room");
        block.extend(cells);
    }

    /// The rows, in the order they were written.
    pub fn iter(&self) -> impl Iterator<Item = &[Option<Cell>]> {
        self.blocks
            .iter()
            .flat_map(|block| block.chunks_exact(self.width))
    }

    /// Drop each row's first `columns` cells, in place, block by block,
    /// each block shrunk to the cells it keeps.
    pub fn drop_leading(&mut self, columns: usize) {
        if columns == 0 {
            return;
        }
        assert!(columns < self.width, "a row keeps at least one cell");
        let width = self.width;
        for block in &mut self.blocks {
            let mut at = 0;
            block.retain(|_| {
                at += 1;
                (at - 1) % width >= columns
            });
            block.shrink_to_fit();
        }
        self.width -= columns;
    }

    /// Each row moved into an allocation of its own.
    pub fn into_rows(mut self) -> Vec<Row> {
        let width = self.width;
        self.blocks
            .iter_mut()
            .flat_map(|block| block.chunks_exact_mut(width))
            .map(Row::take)
            .collect()
    }
}

/// One partition as the walk sees it: its rows in entry-cell order, each
/// turned to walk order (entry cell first), their cells copied into one
/// buffer so the walk never chases a row pointer; the rows a path enters
/// through one cell are one run, found by binary search.  `reached`
/// records which rows a path has reached.
struct Stage {
    /// Cells per row.
    arity: usize,
    cells: Vec<Option<Cell>>,
    reached: Vec<bool>,
}

impl Stage {
    fn len(&self) -> usize {
        self.reached.len()
    }

    /// Row `at`'s cells in walk order.
    fn row(&self, at: usize) -> &[Option<Cell>] {
        &self.cells[at * self.arity..(at + 1) * self.arity]
    }

    fn entry(&self, at: usize) -> Option<&Cell> {
        self.cells[at * self.arity].as_ref()
    }

    /// The rows entered through `cell`.
    fn run(&self, cell: &Cell) -> Range<usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.entry(mid) < Some(cell) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let end = (lo..self.len())
            .find(|&at| self.entry(at) != Some(cell))
            .unwrap_or(self.len());
        lo..end
    }
}

/// The shape of one reassembly walk (see
/// [`Decomposition::reassemble_rows`]).  Rows are built in walk order —
/// reversed for the right-to-left fold — and turned around on emission.
struct Walk {
    /// Right-to-left: a row is entered at its last cell, left at its first.
    backward: bool,
    /// Keep an accumulated row no incoming row continues, `NULL`-padded.
    pad: bool,
    /// Columns of the reassembled relation.
    width: usize,
}

impl Walk {
    /// One partition of `arity` columns as a stage.  All-NULL rows carry
    /// nothing (a [`Relation`] never holds one); a `NULL` entry sorts
    /// first and matches nothing.
    fn stage<R: Borrow<Row>>(&self, rows: &[R], arity: usize) -> Stage {
        let mut rows: Vec<&Row> = rows
            .iter()
            .map(R::borrow)
            .filter(|r| !r.is_all_null())
            .collect();
        if !rows.is_sorted_by(|a, b| self.entry(a) <= self.entry(b)) {
            rows.sort_by(|a, b| self.entry(a).cmp(self.entry(b)));
        }
        let mut cells = Vec::with_capacity(rows.len() * arity);
        for row in &rows {
            if self.backward {
                cells.extend(row.cells().iter().rev().cloned());
            } else {
                cells.extend_from_slice(row.cells());
            }
        }
        Stage {
            arity,
            cells,
            reached: vec![false; rows.len()],
        }
    }

    /// The cell a path enters `row` through.
    fn entry<'a>(&self, row: &'a Row) -> &'a Option<Cell> {
        if self.backward {
            row.last()
        } else {
            row.first()
        }
    }

    /// Extend `prefix` through the partitions still `ahead` and emit
    /// the cells of every full-width row it grows into.
    fn extend(&self, prefix: &mut Vec<Option<Cell>>, ahead: &mut [Stage], out: &mut CellRows) {
        let done = ahead.is_empty();
        let continued = ahead.split_first_mut().and_then(|(stage, rest)| {
            let run = stage.run(prefix.last()?.as_ref()?);
            (!run.is_empty()).then_some((run, stage, rest))
        });
        match continued {
            Some((run, stage, rest)) => {
                let len = prefix.len();
                for at in run {
                    stage.reached[at] = true;
                    prefix.extend_from_slice(&stage.row(at)[1..]);
                    self.extend(prefix, rest, out);
                    prefix.truncate(len);
                }
            }
            None if done || self.pad => {
                let pad = repeat_n(None, self.width - prefix.len());
                if self.backward {
                    out.push(pad.chain(prefix.iter().rev().cloned()));
                } else {
                    out.push(prefix.iter().cloned().chain(pad));
                }
            }
            None => {}
        }
    }
}

impl fmt::Display for Decomposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.cuts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auxrel::build_auxiliary_relations;

    #[test]
    fn constructors_and_accessors() {
        let d = Decomposition::none(5);
        assert_eq!(d.to_string(), "(0,5)");
        assert!(d.is_none() && !d.is_binary());
        assert_eq!(d.partition_count(), 1);

        let b = Decomposition::binary(5);
        assert_eq!(b.to_string(), "(0,1,2,3,4,5)");
        assert!(b.is_binary() && !b.is_none());
        assert_eq!(b.partition_count(), 5);

        let c = Decomposition::new(vec![0, 3, 4]).unwrap();
        assert_eq!(c.to_string(), "(0,3,4)");
        assert_eq!(c.partitions().collect::<Vec<_>>(), vec![(0, 3), (3, 4)]);
    }

    #[test]
    fn invalid_cut_sequences_rejected() {
        assert!(Decomposition::new(vec![0]).is_err());
        assert!(Decomposition::new(vec![1, 4]).is_err());
        assert!(Decomposition::new(vec![0, 3, 3, 5]).is_err());
        assert!(Decomposition::new(vec![0, 4, 2]).is_err());
    }

    #[test]
    fn partition_containing_respects_borders() {
        let d = Decomposition::new(vec![0, 3, 5]).unwrap();
        assert_eq!(d.partition_containing(0), 0);
        assert_eq!(d.partition_containing(2), 0);
        assert_eq!(
            d.partition_containing(3),
            1,
            "interior cut starts the next partition"
        );
        assert_eq!(d.partition_containing(5), 1);
        assert_eq!(d.span(0), (0, 3));
        assert_eq!(d.span(1), (3, 5));
        assert!(d.has_cut(3));
        assert!(!d.has_cut(2));
    }

    #[test]
    fn enumerate_all_is_exhaustive() {
        let all = Decomposition::enumerate_all(4);
        assert_eq!(all.len(), 8, "2^{{m-1}} decompositions");
        assert!(all.iter().any(|d| d.is_none()));
        assert!(all.iter().any(|d| d.is_binary()));
        // All distinct.
        let set: std::collections::HashSet<_> = all.iter().map(|d| d.cuts().to_vec()).collect();
        assert_eq!(set.len(), 8);
        assert_eq!(Decomposition::enumerate_all(1).len(), 1);
    }

    #[test]
    fn binary_decomposition_of_canonical_matches_paper_example() {
        // Section 3's closing example: five binary partitions of E_can for
        // the Division.Manufactures.Composition.Name path with set OIDs.
        let (base, path) = crate::testutil::figure2_base();
        let aux = build_auxiliary_relations(&base, &path, true).unwrap();
        let can = Extension::Canonical.fold(&aux).unwrap();
        let dec = Decomposition::binary(can.arity() - 1);
        let parts = dec.decompose(&can).unwrap();
        assert_eq!(parts.len(), 5);
        assert!(parts.iter().all(|p| p.arity() == 2));
        // Losslessness on the example.
        let back = dec.reassemble(&parts, Extension::Canonical).unwrap();
        assert_eq!(back, can);
    }

    #[test]
    fn every_decomposition_lossless_on_figure2() {
        let (base, path) = crate::testutil::figure2_base();
        for keep in [false, true] {
            let aux = build_auxiliary_relations(&base, &path, keep).unwrap();
            for ext in Extension::ALL {
                let rel = ext.fold(&aux).unwrap();
                for dec in Decomposition::enumerate_all(rel.arity() - 1) {
                    let parts = dec.decompose(&rel).unwrap();
                    let back = dec.reassemble(&parts, ext).unwrap();
                    assert_eq!(back, rel, "{ext} under {dec} (keep_set_oids={keep})");
                }
            }
        }
    }

    #[test]
    fn cell_rows_keep_order_across_blocks() {
        let rows: Vec<Row> = (0..2000u64)
            .map(|k| (0..5).map(|c| crate::row::oid_cell(k * 5 + c)).collect())
            .collect();
        let mut cells = CellRows::new(5);
        for row in &rows {
            cells.push(row.cells().iter().cloned());
        }
        assert!(cells.blocks.len() > 2, "{} blocks", cells.blocks.len());
        assert!(cells.blocks.iter().all(|b| b.len() % 5 == 0));
        assert!(cells.iter().eq(rows.iter().map(Row::cells)));
        assert_eq!(cells.into_rows(), rows);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let d = Decomposition::none(3);
        let r = Relation::new(2);
        assert!(matches!(
            d.decompose(&r),
            Err(AsrError::ArityMismatch { .. })
        ));
        assert!(d.reassemble(&[], Extension::Full).is_err());
    }
}
