//! Cells: the entries of access-support-relation columns.
//!
//! Most columns of an ASR hold OIDs; the final column of a path ending in
//! an atomic attribute holds the attribute *value* instead (footnote 3 of
//! the paper: "if `t_j` is an atomic type then `id(o_j)` corresponds to the
//! value `o_{j-1}.A_j`").

use std::fmt;

use asr_gom::{Oid, Value};

/// A non-NULL relation entry: an object identifier or an atomic value.
///
/// NULL entries are represented as `Option::<Cell>::None` in [`crate::Row`],
/// keeping "no entry" distinct from any storable content.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cell {
    /// An object identifier.
    Oid(Oid),
    /// An atomic attribute value (terminal column only).
    Value(Value),
}

impl Cell {
    /// The OID, if this cell holds one.
    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            Cell::Oid(oid) => Some(*oid),
            Cell::Value(_) => None,
        }
    }

    /// The value, if this cell holds one.
    pub fn as_value(&self) -> Option<&Value> {
        match self {
            Cell::Value(v) => Some(v),
            Cell::Oid(_) => None,
        }
    }

    /// Convert a GOM [`Value`] to an optional cell: references become
    /// [`Cell::Oid`], `NULL` becomes `None`, everything else a
    /// [`Cell::Value`].
    pub fn from_gom(value: &Value) -> Option<Cell> {
        Cell::from_gom_owned(value.clone())
    }

    /// [`Cell::from_gom`] taking the value: an atomic value moves into
    /// the cell instead of being cloned.
    pub fn from_gom_owned(value: Value) -> Option<Cell> {
        match value {
            Value::Null => None,
            Value::Ref(oid) => Some(Cell::Oid(oid)),
            other => Some(Cell::Value(other)),
        }
    }

    /// Stored size in bytes.  OIDs take `OIDsize = 8`; the analytical model
    /// prices every column at `OIDsize`, so values are priced identically
    /// (strings in a real system would be hashed or offloaded — noted in
    /// DESIGN.md).
    pub const fn stored_size() -> usize {
        asr_pagesim::OID_SIZE
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Oid(oid) => write!(f, "{oid}"),
            Cell::Value(v) => write!(f, "{v}"),
        }
    }
}

impl From<Oid> for Cell {
    fn from(oid: Oid) -> Self {
        Cell::Oid(oid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_gom_maps_null_to_none() {
        assert_eq!(Cell::from_gom(&Value::Null), None);
        assert_eq!(
            Cell::from_gom(&Value::Ref(Oid::from_raw(3))),
            Some(Cell::Oid(Oid::from_raw(3)))
        );
        assert_eq!(
            Cell::from_gom(&Value::string("Door")),
            Some(Cell::Value(Value::string("Door")))
        );
    }

    #[test]
    fn ordering_separates_kinds() {
        // Oid < Value by enum declaration order: all OIDs sort before all values.
        let a = Cell::Oid(Oid::from_raw(999));
        let b = Cell::Value(Value::Integer(-5));
        assert!(a < b);
        let c = Cell::Oid(Oid::from_raw(1));
        assert!(c < a);
    }

    #[test]
    fn accessors() {
        let c = Cell::Oid(Oid::from_raw(7));
        assert_eq!(c.as_oid(), Some(Oid::from_raw(7)));
        assert_eq!(c.as_value(), None);
        let v = Cell::Value(Value::Integer(1));
        assert_eq!(v.as_oid(), None);
        assert_eq!(v.as_value(), Some(&Value::Integer(1)));
    }
}
