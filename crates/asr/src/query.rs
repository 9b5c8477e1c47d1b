//! Supported query evaluation over decomposed, stored partitions
//! (Section 5.7 of the paper).
//!
//! A span query `Q_{i,j}` walks the partitions that overlap the column
//! range `[c_i, c_j]`:
//!
//! * a partition whose span *starts* at the query's entry column is probed
//!   through its clustered B+ tree (the `ht + nlp` term of formula 33);
//! * a partition that contains the entry column strictly inside must be
//!   scanned exhaustively (the `ap` term — the reason non-decomposed
//!   relations evaluate interior spans so poorly, Figure 8);
//! * subsequent partitions are probed per frontier value (the Yao terms).
//!
//! The walk is a chain of accesses whose inputs are bound by earlier
//! outputs: between two partitions only one cell of each row matters, so
//! it carries a [`Frontier`] of cells, never rows.
//!
//! # The `SpanSource` contract
//!
//! A [`SpanSource`] is one partition as the walk sees it: a live
//! [`StoredPartition`] or a pinned MVCC version behind
//! [`crate::Snapshot`].  Both accesses take a [`Frontier`] — ascending and
//! duplicate-free by construction, which is what lets a batched probe
//! share one descent and charge each tree page at most once — and hand
//! every matching stored row to a visitor **by reference**: nothing is
//! cloned on the way, and the visitor copies out only the cell it needs.
//! Rows arrive in clustering order, grouped per frontier cell for a probe.
//!
//! The same partition-walking machinery collects complete **prefixes** and
//! **suffixes** of stored rows, which is how incremental maintenance
//! retrieves the paper's `I_l` / `I_r` relations from the access relation
//! itself when the extension contains them (Section 6.1).

use std::collections::{BTreeMap, BTreeSet};

use crate::cell::Cell;
use crate::decomposition::Decomposition;
use crate::error::{AsrError, Result};
use crate::partition::StoredPartition;
use crate::row::{Row, RowRef};

/// The bound input of one access: an ascending, duplicate-free list of
/// cells.  The type is the invariant — every constructor either checks it
/// ([`Frontier::ascending`]) or establishes it (sorting and deduplicating
/// via [`FromIterator`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frontier(Vec<Cell>);

impl Frontier {
    /// Adopt `cells` if they are strictly ascending; otherwise a
    /// [`AsrError::FrontierOrder`] naming the first cell out of order.
    /// This is the gate for probe keys that arrive from outside (the
    /// wire's `PartitionProbe`).
    pub fn ascending(cells: Vec<Cell>) -> Result<Self> {
        match cells.windows(2).position(|w| w[0] >= w[1]) {
            Some(at) => Err(AsrError::FrontierOrder { index: at + 1 }),
            None => Ok(Frontier(cells)),
        }
    }

    /// The cells, ascending.
    pub fn cells(&self) -> &[Cell] {
        &self.0
    }

    /// `true` when there is nothing to probe.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Is `cell` in the frontier?  (NULL never is.)  Binary search.
    pub fn contains(&self, cell: &Option<Cell>) -> bool {
        cell.as_ref()
            .is_some_and(|c| self.0.binary_search(c).is_ok())
    }

    /// Unwrap the cells, ascending.
    pub fn into_cells(self) -> Vec<Cell> {
        self.0
    }

    /// Refill in place, keeping the buffer: `fill` pushes cells in any
    /// order, then they are sorted and deduplicated.
    fn refill(&mut self, fill: impl FnOnce(&mut Vec<Cell>)) {
        self.0.clear();
        fill(&mut self.0);
        self.0.sort_unstable();
        self.0.dedup();
    }
}

impl From<Cell> for Frontier {
    fn from(cell: Cell) -> Self {
        Frontier(vec![cell])
    }
}

impl FromIterator<Cell> for Frontier {
    fn from_iter<I: IntoIterator<Item = Cell>>(cells: I) -> Self {
        let mut frontier = Frontier::default();
        frontier.refill(|buf| buf.extend(cells));
        frontier
    }
}

/// One partition as the span-query walk sees it (see the module doc for
/// the contract).  Implemented by live [`StoredPartition`]s (page costs
/// land on the shared stats handle) and by the immutable MVCC partition
/// versions behind [`crate::Snapshot`] (the same page costs land on the
/// snapshot's own counter), so both evaluate `Q_{i,j}` through the same
/// machinery.
pub trait SpanSource {
    /// Columns per stored row.
    fn arity(&self) -> usize;

    /// Batched clustered probe: `forward` probes the first-column
    /// clustering, otherwise the last-column one.  Visits the rows whose
    /// clustering cell is in `frontier`, grouped per cell in frontier
    /// order, each tree page charged at most once for the whole batch.
    fn probe(&self, forward: bool, frontier: &Frontier, visit: &mut dyn FnMut(RowRef<'_>));

    /// Exhaustive scan visiting the rows whose column `offset` is in
    /// `frontier`, in first-column clustering order.
    fn scan(&self, offset: usize, frontier: &Frontier, visit: &mut dyn FnMut(RowRef<'_>));
}

impl SpanSource for StoredPartition {
    fn arity(&self) -> usize {
        StoredPartition::arity(self)
    }

    fn probe(&self, forward: bool, frontier: &Frontier, visit: &mut dyn FnMut(RowRef<'_>)) {
        StoredPartition::probe(self, forward, frontier, visit);
    }

    fn scan(&self, offset: usize, frontier: &Frontier, visit: &mut dyn FnMut(RowRef<'_>)) {
        StoredPartition::scan(self, |row| {
            if frontier.contains(row.cell(offset)) {
                visit(row);
            }
        });
    }
}

/// One access of a span walk.
struct Step {
    part: usize,
    /// `Some(offset)`: scan, matching the frontier at `offset`; `None`:
    /// border probe.
    scan_at: Option<usize>,
    /// Column (partition-relative) whose cells the step hands on.
    out: usize,
    /// Does this step produce the answer?
    last: bool,
}

/// Walk `steps` in order from `entry`, handing each step's `out` cells on
/// as the next frontier; the cells of the `last` step are the answer,
/// ascending.  Two frontier buffers alternate for the whole walk.
fn walk<P: SpanSource>(
    partitions: &[P],
    steps: impl Iterator<Item = Step>,
    forward: bool,
    entry: &Cell,
) -> Vec<Cell> {
    let mut frontier = Frontier::from(entry.clone());
    let mut next = Frontier::default();
    for step in steps {
        let part = &partitions[step.part];
        next.refill(|out| {
            let mut keep = |row: RowRef<'_>| {
                if let Some(cell) = row.cell(step.out) {
                    out.push(cell.clone());
                }
            };
            match step.scan_at {
                // The walk enters the partition at an interior column:
                // exhaustive scan.
                Some(offset) => part.scan(offset, &frontier, &mut keep),
                // It enters at the border: one batched clustered probe over
                // the whole frontier — each tree page is read at most once
                // however many frontier cells share it.
                None => part.probe(forward, &frontier, &mut keep),
            }
        });
        if step.last {
            return next.into_cells();
        }
        if next.is_empty() {
            break;
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    Vec::new()
}

/// Evaluate a forward span query: all cells at column `cj` reachable from
/// `start` at column `ci` through the stored rows.
pub fn forward_supported<P: SpanSource>(
    partitions: &[P],
    dec: &Decomposition,
    ci: usize,
    cj: usize,
    start: &Cell,
) -> Vec<Cell> {
    debug_assert!(ci < cj && cj <= dec.m());
    let steps = dec
        .partitions()
        .enumerate()
        .filter(|&(_, (a, b))| b > ci && a < cj)
        .map(|(part, (a, b))| Step {
            part,
            scan_at: (a < ci).then(|| ci - a),
            out: cj.min(b) - a,
            last: cj <= b,
        });
    walk(partitions, steps, true, start)
}

/// Evaluate a backward span query: all cells at column `ci` from which the
/// stored rows reach `target` at column `cj`.
pub fn backward_supported<P: SpanSource>(
    partitions: &[P],
    dec: &Decomposition,
    ci: usize,
    cj: usize,
    target: &Cell,
) -> Vec<Cell> {
    debug_assert!(ci < cj && cj <= dec.m());
    let steps = (0..dec.partition_count())
        .rev()
        .map(|part| (part, dec.span(part)))
        .filter(|&(_, (a, b))| a < cj && b > ci)
        .map(|(part, (a, b))| Step {
            part,
            scan_at: (b > cj).then(|| cj - a),
            out: ci.max(a) - a,
            last: ci >= a,
        });
    walk(partitions, steps, false, target)
}

/// The partition index whose span *ends* at column `col` (preferred for
/// leftward walks), falling back to the partition containing `col`.
fn partition_ending_at(dec: &Decomposition, col: usize) -> usize {
    if col == 0 {
        return 0;
    }
    for (idx, (_, b)) in dec.partitions().enumerate() {
        if b == col {
            return idx;
        }
        if b > col {
            return idx;
        }
    }
    dec.partition_count() - 1
}

/// Collect all stored **prefix rows** over columns `0 ..= col` whose column
/// `col` equals `cell` — the projections onto `[S_0, …, S_col]` of every
/// stored extension row passing through `cell` there.
pub fn collect_prefixes(
    partitions: &[StoredPartition],
    dec: &Decomposition,
    col: usize,
    cell: &Cell,
) -> Vec<Row> {
    if col == 0 {
        return vec![Row::new(vec![Some(cell.clone())])];
    }
    let pidx = partition_ending_at(dec, col);
    let (a, b) = dec.span(pidx);
    // Seed fragments spanning columns a ..= col.
    let mut fragments: BTreeSet<Row> = BTreeSet::new();
    if b == col {
        for row in partitions[pidx].lookup_last(cell) {
            fragments.insert(row);
        }
    } else {
        let offset = col - a;
        partitions[pidx].scan(|row| {
            if row.cell(offset).as_ref() == Some(cell) {
                fragments.insert(row.project(0, offset));
            }
        });
    }
    // Extend leftward partition by partition, probing each partition's
    // backward tree once for all distinct fragment boundaries.
    for q in (0..pidx).rev() {
        let (qa, qb) = dec.span(q);
        let by_boundary = grouped_lookup(&partitions[q], &fragments, |f| f.first(), false);
        let mut extended: BTreeSet<Row> = BTreeSet::new();
        for frag in &fragments {
            match frag.first() {
                Some(boundary) => {
                    if let Some(lefts) = by_boundary.get(boundary) {
                        for left in lefts {
                            extended.insert(left.join_concat(frag));
                        }
                    }
                }
                None => {
                    extended.insert(Row::nulls(qb - qa + 1).join_concat(frag));
                }
            }
        }
        fragments = extended;
    }
    fragments.into_iter().collect()
}

/// Probe `part` once for all distinct fragment boundaries (the cell
/// `boundary_of` selects from each fragment), returning rows grouped by
/// boundary.  `forward` picks the clustering tree: `true` probes the
/// forward tree, `false` the backward tree — either way a row's own
/// clustering cell is the boundary it was found under.
fn grouped_lookup(
    part: &StoredPartition,
    fragments: &BTreeSet<Row>,
    boundary_of: impl Fn(&Row) -> &Option<Cell>,
    forward: bool,
) -> BTreeMap<Cell, Vec<Row>> {
    let boundaries: Frontier = fragments
        .iter()
        .filter_map(|f| boundary_of(f).clone())
        .collect();
    let mut grouped: BTreeMap<Cell, Vec<Row>> = BTreeMap::new();
    part.probe(forward, &boundaries, &mut |row| {
        let key = if forward { row.first() } else { row.last() };
        if let Some(key) = key {
            grouped.entry(key.clone()).or_default().push(row.to_row());
        }
    });
    grouped
}

/// Collect all stored **suffix rows** over columns `col ..= m` whose column
/// `col` equals `cell`.
pub fn collect_suffixes(
    partitions: &[StoredPartition],
    dec: &Decomposition,
    col: usize,
    cell: &Cell,
) -> Vec<Row> {
    let m = dec.m();
    if col == m {
        return vec![Row::new(vec![Some(cell.clone())])];
    }
    // Preferred: the partition *starting* at col.
    let pidx = dec.partition_containing(col);
    let (a, b) = dec.span(pidx);
    let mut fragments: BTreeSet<Row> = BTreeSet::new();
    if a == col {
        for row in partitions[pidx].lookup_first(cell) {
            fragments.insert(row);
        }
    } else {
        let offset = col - a;
        partitions[pidx].scan(|row| {
            if row.cell(offset).as_ref() == Some(cell) {
                fragments.insert(row.project(offset, b - a));
            }
        });
    }
    #[allow(clippy::needless_range_loop)] // q indexes dec spans and partitions in lockstep
    for q in pidx + 1..dec.partition_count() {
        let (qa, qb) = dec.span(q);
        let by_boundary = grouped_lookup(&partitions[q], &fragments, |f| f.last(), true);
        let mut extended: BTreeSet<Row> = BTreeSet::new();
        for frag in &fragments {
            match frag.last() {
                Some(boundary) => {
                    if let Some(rights) = by_boundary.get(boundary) {
                        for right in rights {
                            extended.insert(frag.join_concat(right));
                        }
                    }
                }
                None => {
                    extended.insert(frag.join_concat(&Row::nulls(qb - qa + 1)));
                }
            }
        }
        fragments = extended;
    }
    fragments.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::fresh_stats;
    use crate::relation::Relation;
    use crate::row;
    use crate::row::oid_cell as c;
    use asr_gom::Oid;
    use std::rc::Rc;

    fn cell(raw: u64) -> Cell {
        Cell::Oid(Oid::from_raw(raw))
    }

    /// A hand-built 5-column relation (m = 4) with the structure of a real
    /// full extension: each column value's continuation depends only on
    /// the value (fan-in at 20, fan-out 20 → {30, 31}, a dead end after
    /// column 1, and a left-dangling chain).
    fn sample() -> Relation {
        Relation::from_rows(
            5,
            vec![
                row![c(0), c(10), c(20), c(30), c(40)],
                row![c(0), c(10), c(20), c(31), c(41)],
                row![c(1), c(11), c(20), c(30), c(40)],
                row![c(1), c(11), c(20), c(31), c(41)],
                row![c(2), c(12), None, None, None],
                row![None, None, c(22), c(32), c(42)],
                row![c(3), c(13), c(23), c(33), c(43)],
            ],
        )
        .unwrap()
    }

    fn load(dec: &Decomposition) -> Vec<StoredPartition> {
        let rel = sample();
        let stats = fresh_stats();
        dec.decompose(&rel)
            .unwrap()
            .into_iter()
            .zip(dec.partitions())
            .map(|(p, (a, b))| {
                let mut sp = StoredPartition::new(a, b, Rc::clone(&stats));
                for row in p.iter() {
                    sp.insert(row.clone()).unwrap();
                }
                sp
            })
            .collect()
    }

    #[test]
    fn forward_across_all_decompositions() {
        for dec in Decomposition::enumerate_all(4) {
            let parts = load(&dec);
            let r = forward_supported(&parts, &dec, 0, 4, &cell(0));
            assert_eq!(r, vec![cell(40), cell(41)], "{dec}");
            let r = forward_supported(&parts, &dec, 0, 2, &cell(1));
            assert_eq!(r, vec![cell(20)], "{dec}");
            // Fan-out at column 2: both 30 and 31 reachable from 10.
            let r = forward_supported(&parts, &dec, 1, 3, &cell(10));
            assert_eq!(r, vec![cell(30), cell(31)], "{dec}");
            let r = forward_supported(&parts, &dec, 0, 4, &cell(3));
            assert_eq!(r, vec![cell(43)], "{dec}");
            // Dead end: row 2 stops after column 1.
            let r = forward_supported(&parts, &dec, 0, 4, &cell(2));
            assert!(r.is_empty(), "{dec}");
            // Interior start on the left-dangling row.
            let r = forward_supported(&parts, &dec, 2, 4, &cell(22));
            assert_eq!(r, vec![cell(42)], "{dec}");
        }
    }

    #[test]
    fn backward_across_all_decompositions() {
        for dec in Decomposition::enumerate_all(4) {
            let parts = load(&dec);
            let r = backward_supported(&parts, &dec, 0, 4, &cell(40));
            assert_eq!(r, vec![cell(0), cell(1)], "{dec}");
            let r = backward_supported(&parts, &dec, 0, 2, &cell(20));
            assert_eq!(r, vec![cell(0), cell(1)], "{dec}");
            let r = backward_supported(&parts, &dec, 1, 4, &cell(41));
            assert_eq!(r, vec![cell(10), cell(11)], "{dec}");
            let r = backward_supported(&parts, &dec, 0, 4, &cell(42));
            assert!(
                r.is_empty(),
                "left-dangling row has no column-0 source ({dec})"
            );
            let r = backward_supported(&parts, &dec, 2, 4, &cell(42));
            assert_eq!(r, vec![cell(22)], "{dec}");
        }
    }

    #[test]
    fn prefixes_and_suffixes_match_projections() {
        let rel = sample();
        for dec in Decomposition::enumerate_all(4) {
            let parts = load(&dec);
            for col in 0..=4usize {
                // Collect the expected projections from the flat relation.
                let mut cells: BTreeSet<Cell> = BTreeSet::new();
                for row in rel.iter() {
                    if let Some(c) = row.cell(col) {
                        cells.insert(c.clone());
                    }
                }
                for cellv in cells {
                    let want_prefix: BTreeSet<Row> = rel
                        .iter()
                        .filter(|r| r.cell(col).as_ref() == Some(&cellv))
                        .map(|r| r.project(0, col))
                        .collect();
                    let got: BTreeSet<Row> = collect_prefixes(&parts, &dec, col, &cellv)
                        .into_iter()
                        .collect();
                    assert_eq!(got, want_prefix, "prefixes col={col} cell={cellv} {dec}");

                    let want_suffix: BTreeSet<Row> = rel
                        .iter()
                        .filter(|r| r.cell(col).as_ref() == Some(&cellv))
                        .map(|r| r.project(col, 4))
                        .collect();
                    let got: BTreeSet<Row> = collect_suffixes(&parts, &dec, col, &cellv)
                        .into_iter()
                        .collect();
                    assert_eq!(got, want_suffix, "suffixes col={col} cell={cellv} {dec}");
                }
            }
        }
    }

    #[test]
    fn lookups_charge_fewer_pages_than_scans() {
        // Binary decomposition: border lookups only.
        let bin = Decomposition::binary(4);
        let parts_bin = load(&bin);
        let stats_bin = Rc::clone(parts_bin[0].stats());
        stats_bin.reset();
        forward_supported(&parts_bin, &bin, 0, 4, &cell(0));
        let bin_cost = stats_bin.accesses();

        // No decomposition, interior start: full scan.
        let none = Decomposition::none(4);
        let parts_none = load(&none);
        let stats_none = Rc::clone(parts_none[0].stats());
        stats_none.reset();
        forward_supported(&parts_none, &none, 1, 3, &cell(10));
        let scan_cost = stats_none.accesses();
        assert!(bin_cost > 0 && scan_cost > 0);
    }
}
