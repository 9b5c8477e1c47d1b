//! Rows (tuples) of access support relations.

use std::fmt;
use std::sync::Arc;

use crate::cell::Cell;

/// A relation tuple: a fixed-arity sequence of optional cells, where `None`
/// is the paper's `NULL`.  The cells are one immutable shared allocation,
/// so a clone is a reference-count bump: both clustering trees of a
/// stored partition hold the same row.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Row(Arc<[Option<Cell>]>);

impl Row {
    /// Construct a row from its cells.
    pub fn new(cells: Vec<Option<Cell>>) -> Self {
        Row(cells.into())
    }

    /// A row of `cells`, moved into one fresh allocation (the cells are
    /// left `NULL`).
    pub(crate) fn take(cells: &mut [Option<Cell>]) -> Self {
        Row(cells.iter_mut().map(Option::take).collect())
    }

    /// A row of `arity` NULLs.
    pub fn nulls(arity: usize) -> Self {
        Row::new(vec![None; arity])
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The cell at `idx` (panics when out of range, like slice indexing).
    pub fn cell(&self, idx: usize) -> &Option<Cell> {
        &self.0[idx]
    }

    /// All cells.
    pub fn cells(&self) -> &[Option<Cell>] {
        &self.0
    }

    /// First column (`S_0`-side clustering key).
    pub fn first(&self) -> &Option<Cell> {
        self.0.first().expect("rows are never 0-ary")
    }

    /// Last column (`S_m`-side clustering key).
    pub fn last(&self) -> &Option<Cell> {
        self.0.last().expect("rows are never 0-ary")
    }

    /// `true` when every column is NULL (such rows are never stored).
    pub fn is_all_null(&self) -> bool {
        self.0.iter().all(Option::is_none)
    }

    /// Project onto the inclusive column range `[from, to]` — the paper's
    /// partition `[S_from, …, S_to]`.
    pub fn project(&self, from: usize, to: usize) -> Row {
        Row::from(&self.0[from..=to])
    }

    /// Concatenate with another row, fusing the shared boundary column
    /// (this row's last column equals `other`'s first): the result is
    /// `self ++ other[1..]`.
    pub fn join_concat(&self, other: &Row) -> Row {
        Row(self.0.iter().chain(&other.0[1..]).cloned().collect())
    }

    /// Number of leading NULL columns.
    pub fn leading_nulls(&self) -> usize {
        self.0.iter().take_while(|c| c.is_none()).count()
    }

    /// Number of trailing NULL columns.
    pub fn trailing_nulls(&self) -> usize {
        self.0.iter().rev().take_while(|c| c.is_none()).count()
    }

    /// Column index of the first non-NULL cell, if any.
    pub fn first_defined(&self) -> Option<usize> {
        self.0.iter().position(Option::is_some)
    }

    /// Column index of the last non-NULL cell, if any.
    pub fn last_defined(&self) -> Option<usize> {
        self.0.iter().rposition(Option::is_some)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match c {
                Some(cell) => write!(f, "{cell}")?,
                None => write!(f, "NULL")?,
            }
        }
        write!(f, ")")
    }
}

impl FromIterator<Option<Cell>> for Row {
    /// One allocation when the iterator knows its exact length.
    fn from_iter<I: IntoIterator<Item = Option<Cell>>>(cells: I) -> Self {
        Row(cells.into_iter().collect())
    }
}

impl From<Vec<Option<Cell>>> for Row {
    fn from(cells: Vec<Option<Cell>>) -> Self {
        Row::new(cells)
    }
}

impl From<&[Option<Cell>]> for Row {
    /// A copy of `cells` in a fresh allocation.
    fn from(cells: &[Option<Cell>]) -> Self {
        Row(cells.into())
    }
}

/// A stored row, borrowed from a clustering tree's leaf: its cells as
/// the tree holds them — in column order in the forward tree, rotated
/// last column first in the backward tree — read in column order.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    cells: &'a [Option<Cell>],
    /// Held last column first.
    rotated: bool,
}

impl<'a> RowRef<'a> {
    /// A row held in column order.
    pub fn new(cells: &'a [Option<Cell>]) -> Self {
        RowRef {
            cells,
            rotated: false,
        }
    }

    /// A row held last column first.
    pub fn rotated(cells: &'a [Option<Cell>]) -> Self {
        RowRef {
            cells,
            rotated: true,
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cells.len()
    }

    /// The cell at column `idx` (panics when out of range).
    pub fn cell(&self, idx: usize) -> &'a Option<Cell> {
        if !self.rotated {
            &self.cells[idx]
        } else if idx + 1 == self.cells.len() {
            &self.cells[0]
        } else {
            &self.cells[idx + 1]
        }
    }

    /// First column.
    pub fn first(&self) -> &'a Option<Cell> {
        self.cell(0)
    }

    /// Last column.
    pub fn last(&self) -> &'a Option<Cell> {
        self.cell(self.arity() - 1)
    }

    /// The cells in column order.
    pub fn cells(&self) -> impl Iterator<Item = &'a Option<Cell>> + '_ {
        (0..self.arity()).map(|idx| self.cell(idx))
    }

    /// A copy of the row.
    pub fn to_row(&self) -> Row {
        self.cells().cloned().collect()
    }

    /// A copy of the inclusive column range `[from, to]`.
    pub fn project(&self, from: usize, to: usize) -> Row {
        (from..=to).map(|idx| self.cell(idx).clone()).collect()
    }
}

impl PartialEq<Row> for RowRef<'_> {
    fn eq(&self, row: &Row) -> bool {
        self.arity() == row.arity() && self.cells().eq(row.cells())
    }
}

/// Shorthand to build rows in tests and examples: OIDs from raw numbers,
/// `None` for NULL.
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        $crate::Row::new(vec![$($cell),*])
    };
}

/// Build `Some(Cell::Oid(..))` from a raw OID number (test/example helper).
pub fn oid_cell(raw: u64) -> Option<Cell> {
    Some(Cell::Oid(asr_gom::Oid::from_raw(raw)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_gom::Value;

    fn c(raw: u64) -> Option<Cell> {
        oid_cell(raw)
    }

    #[test]
    fn projection_is_inclusive() {
        let r = row![c(0), c(1), c(2), c(3), c(4)];
        assert_eq!(r.project(1, 3), row![c(1), c(2), c(3)]);
        assert_eq!(r.project(0, 4), r);
        assert_eq!(r.project(2, 2).arity(), 1);
    }

    #[test]
    fn join_concat_fuses_boundary() {
        let a = row![c(0), c(1)];
        let b = row![c(1), c(2), c(3)];
        assert_eq!(a.join_concat(&b), row![c(0), c(1), c(2), c(3)]);
    }

    #[test]
    fn null_bookkeeping() {
        let r = row![None, None, c(2), None];
        assert_eq!(r.leading_nulls(), 2);
        assert_eq!(r.trailing_nulls(), 1);
        assert_eq!(r.first_defined(), Some(2));
        assert_eq!(r.last_defined(), Some(2));
        assert!(!r.is_all_null());
        assert!(Row::nulls(3).is_all_null());
        assert_eq!(Row::nulls(3).first_defined(), None);
    }

    #[test]
    fn display_matches_paper_style() {
        let r = row![c(1), None, Some(Cell::Value(Value::string("Door")))];
        assert_eq!(r.to_string(), "(i1, NULL, \"Door\")");
    }

    #[test]
    #[allow(clippy::useless_vec)] // sort() needs a mutable collection
    fn rows_order_deterministically() {
        let mut rows = vec![row![c(2), c(0)], row![c(1), c(9)], row![None, c(5)]];
        rows.sort();
        assert_eq!(rows[0], row![None, c(5)], "NULL sorts first");
        assert_eq!(rows[1], row![c(1), c(9)]);
    }
}
