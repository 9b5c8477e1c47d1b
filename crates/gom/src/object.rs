//! Object instances.
//!
//! An object instance is a triple `(i, v, t)` where `i` is the object
//! identifier, `v` the object value and `t` the type of the object
//! (Section 2.2 of the paper).

use std::collections::BTreeSet;

use crate::oid::Oid;
use crate::types::TypeId;
use crate::value::Value;

/// The value part `v` of an object instance — structured according to the
/// outermost type constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectBody {
    /// Tuple object: one value per slot of its type's layout
    /// ([`crate::Schema::layout`]), `NULL` included.
    Tuple(Box<[Value]>),
    /// Set object: an unordered, duplicate-free collection.
    Set(BTreeSet<Value>),
    /// List object: an ordered collection (duplicates allowed).
    List(Vec<Value>),
}

impl ObjectBody {
    /// Structure name for diagnostics ("tuple" / "set" / "list").
    pub fn structure(&self) -> &'static str {
        match self {
            ObjectBody::Tuple(_) => "tuple",
            ObjectBody::Set(_) => "set",
            ObjectBody::List(_) => "list",
        }
    }

    /// Number of elements (set/list) or non-NULL attributes (tuple).
    pub fn len(&self) -> usize {
        match self {
            ObjectBody::Tuple(slots) => slots.iter().filter(|v| !v.is_null()).count(),
            ObjectBody::Set(s) => s.len(),
            ObjectBody::List(l) => l.len(),
        }
    }

    /// `true` when [`ObjectBody::len`] is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An object instance `(i, v, t)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Object {
    /// Invariant identity.
    pub oid: Oid,
    /// The type the object was instantiated from.
    pub ty: TypeId,
    /// The (mutable) value.
    pub body: ObjectBody,
}

impl Object {
    /// A fresh tuple object with all `slots` attributes `NULL`.
    pub fn new_tuple(oid: Oid, ty: TypeId, slots: usize) -> Self {
        Object {
            oid,
            ty,
            body: ObjectBody::Tuple(vec![Value::Null; slots].into()),
        }
    }

    /// A fresh, empty set object.
    pub fn new_set(oid: Oid, ty: TypeId) -> Self {
        Object {
            oid,
            ty,
            body: ObjectBody::Set(BTreeSet::new()),
        }
    }

    /// A fresh, empty list object.
    pub fn new_list(oid: Oid, ty: TypeId) -> Self {
        Object {
            oid,
            ty,
            body: ObjectBody::List(Vec::new()),
        }
    }

    /// The attribute slots of a tuple object (empty for sets and lists).
    pub fn slots(&self) -> &[Value] {
        match &self.body {
            ObjectBody::Tuple(slots) => slots,
            _ => &[],
        }
    }

    /// Iterate over the elements of a set or list object.
    pub fn elements(&self) -> Box<dyn Iterator<Item = &Value> + '_> {
        match &self.body {
            ObjectBody::Set(s) => Box::new(s.iter()),
            ObjectBody::List(l) => Box::new(l.iter()),
            ObjectBody::Tuple(_) => Box::new(std::iter::empty()),
        }
    }

    /// All OIDs this object references directly (attribute values and
    /// set/list elements that are references).
    pub fn referenced_oids(&self) -> Vec<Oid> {
        match &self.body {
            ObjectBody::Tuple(slots) => slots.iter().filter_map(Value::as_ref_oid).collect(),
            ObjectBody::Set(s) => s.iter().filter_map(Value::as_ref_oid).collect(),
            ObjectBody::List(l) => l.iter().filter_map(Value::as_ref_oid).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(n: u64) -> Oid {
        Oid::from_raw(n)
    }

    #[test]
    fn fresh_tuple_attributes_are_null() {
        let o = Object::new_tuple(oid(1), TypeId::from_index(0), 3);
        assert_eq!(o.slots(), &[Value::Null, Value::Null, Value::Null]);
        assert_eq!(o.body.len(), 0);
        assert!(o.body.is_empty());
    }

    #[test]
    fn elements_of_tuple_is_empty() {
        let o = Object::new_tuple(oid(1), TypeId::from_index(0), 2);
        assert_eq!(o.elements().count(), 0);
    }

    #[test]
    fn referenced_oids_finds_refs_everywhere() {
        let mut o = Object::new_tuple(oid(1), TypeId::from_index(0), 2);
        if let ObjectBody::Tuple(slots) = &mut o.body {
            slots[0] = Value::Ref(oid(7));
            slots[1] = Value::Integer(3);
        }
        assert_eq!(o.referenced_oids(), vec![oid(7)]);

        let mut s = Object::new_set(oid(2), TypeId::from_index(1));
        if let ObjectBody::Set(set) = &mut s.body {
            set.insert(Value::Ref(oid(8)));
            set.insert(Value::Ref(oid(9)));
        }
        assert_eq!(s.referenced_oids(), vec![oid(8), oid(9)]);
    }

    #[test]
    fn structure_names() {
        assert_eq!(
            Object::new_tuple(oid(1), TypeId::from_index(0), 0)
                .body
                .structure(),
            "tuple"
        );
        assert_eq!(
            Object::new_set(oid(1), TypeId::from_index(0))
                .body
                .structure(),
            "set"
        );
        assert_eq!(
            Object::new_list(oid(1), TypeId::from_index(0))
                .body
                .structure(),
            "list"
        );
    }
}
