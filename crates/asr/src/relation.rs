//! In-memory relations (sets of rows) used while *building* access support
//! relations.  The stored, page-accounted form lives in
//! [`crate::partition`].

use std::collections::BTreeSet;
use std::fmt;

use crate::error::{AsrError, Result};
use crate::row::Row;

/// A relation: a set of equal-arity rows with deterministic iteration
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    arity: usize,
    rows: BTreeSet<Row>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0, "relations are at least unary");
        Relation {
            arity,
            rows: BTreeSet::new(),
        }
    }

    /// Build from an iterator of rows (validating arities).
    pub fn from_rows(arity: usize, rows: impl IntoIterator<Item = Row>) -> Result<Self> {
        let mut rel = Relation::new(arity);
        for row in rows {
            rel.insert(row)?;
        }
        Ok(rel)
    }

    /// Wrap an already-built row set (rows of `arity` columns, none of
    /// them all-NULL).
    pub(crate) fn from_set(arity: usize, rows: BTreeSet<Row>) -> Self {
        debug_assert!(rows.iter().all(|r| r.arity() == arity && !r.is_all_null()));
        Relation { arity, rows }
    }

    /// Column count.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) rows — the paper's `#E`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a row; all-NULL rows are silently dropped (they carry no
    /// information and the paper's extensions never contain them).
    /// Returns `true` when the row was new.
    pub fn insert(&mut self, row: Row) -> Result<bool> {
        if row.arity() != self.arity {
            return Err(AsrError::ArityMismatch {
                expected: self.arity,
                actual: row.arity(),
            });
        }
        if row.is_all_null() {
            return Ok(false);
        }
        Ok(self.rows.insert(row))
    }

    /// Remove a row; returns whether it was present.
    pub fn remove(&mut self, row: &Row) -> bool {
        self.rows.remove(row)
    }

    /// Membership test.
    pub fn contains(&self, row: &Row) -> bool {
        self.rows.contains(row)
    }

    /// Iterate rows in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// Project onto the inclusive column range `[from, to]`, deduplicating
    /// and dropping all-NULL projections — exactly how Definition 3.8
    /// materializes a partition `R^{from,to}` of a decomposition.
    pub fn project(&self, from: usize, to: usize) -> Result<Relation> {
        if from >= self.arity || to >= self.arity || from > to {
            return Err(AsrError::InvalidDecomposition(format!(
                "projection [{from},{to}] out of range for arity {}",
                self.arity
            )));
        }
        let mut out = Relation::new(to - from + 1);
        for row in &self.rows {
            out.insert(row.project(from, to))?;
        }
        Ok(out)
    }

    /// Retain only rows satisfying the predicate.
    pub fn filter(&self, pred: impl Fn(&Row) -> bool) -> Relation {
        Relation {
            arity: self.arity,
            rows: self.rows.iter().filter(|r| pred(r)).cloned().collect(),
        }
    }

    /// Set union with another relation of equal arity.
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        if other.arity != self.arity {
            return Err(AsrError::ArityMismatch {
                expected: self.arity,
                actual: other.arity,
            });
        }
        let mut rows = self.rows.clone();
        rows.extend(other.rows.iter().cloned());
        Ok(Relation {
            arity: self.arity,
            rows,
        })
    }

    /// Is `self` a subset of `other` (same arity assumed)?
    pub fn is_subset_of(&self, other: &Relation) -> bool {
        self.arity == other.arity && self.rows.is_subset(&other.rows)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "relation/{} ({} rows):", self.arity, self.rows.len())?;
        for row in &self.rows {
            writeln!(f, "  {row}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::row::oid_cell as c;

    #[test]
    fn set_semantics() {
        let mut r = Relation::new(2);
        assert!(r.insert(row![c(0), c(1)]).unwrap());
        assert!(!r.insert(row![c(0), c(1)]).unwrap(), "duplicates collapse");
        assert_eq!(r.len(), 1);
        assert!(r.contains(&row![c(0), c(1)]));
        assert!(r.remove(&row![c(0), c(1)]));
        assert!(r.is_empty());
    }

    #[test]
    fn all_null_rows_dropped() {
        let mut r = Relation::new(3);
        assert!(!r.insert(Row::nulls(3)).unwrap());
        assert!(r.is_empty());
    }

    #[test]
    fn arity_checked() {
        let mut r = Relation::new(2);
        assert!(matches!(
            r.insert(row![c(0)]),
            Err(AsrError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn projection_dedups_and_drops_null() {
        let r = Relation::from_rows(
            3,
            vec![
                row![c(0), c(1), c(2)],
                row![c(9), c(1), c(2)],
                row![c(5), None, None],
            ],
        )
        .unwrap();
        // Projecting away the differing first column collapses two rows and
        // drops the now-all-NULL third.
        let p = r.project(1, 2).unwrap();
        assert_eq!(p.len(), 1);
        assert!(p.contains(&row![c(1), c(2)]));
        assert!(r.project(1, 3).is_err());
        assert!(r.project(2, 1).is_err());
    }

    #[test]
    fn union_and_subset() {
        let a = Relation::from_rows(2, vec![row![c(0), c(1)]]).unwrap();
        let b = Relation::from_rows(2, vec![row![c(2), c(3)]]).unwrap();
        let u = a.union(&b).unwrap();
        assert_eq!(u.len(), 2);
        assert!(a.is_subset_of(&u));
        assert!(!u.is_subset_of(&a));
    }

    #[test]
    fn filter_keeps_arity() {
        let r = Relation::from_rows(2, vec![row![c(0), c(1)], row![None, c(2)]]).unwrap();
        let f = r.filter(|row| row.first().is_some());
        assert_eq!(f.len(), 1);
        assert_eq!(f.arity(), 2);
    }
}
