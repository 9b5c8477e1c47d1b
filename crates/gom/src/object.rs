//! Object instances.
//!
//! An object instance is a triple `(i, v, t)` where `i` is the object
//! identifier, `v` the object value and `t` the type of the object
//! (Section 2.2 of the paper).  The object base keeps every instance in
//! one OID-ordered table ([`crate::ObjectBase`]); an [`Object`] is a
//! borrowed view of one of its entries.

use crate::oid::Oid;
use crate::types::TypeId;
use crate::value::Value;

/// The value part `v` of an object instance — structured according to the
/// outermost type constructor, borrowed from the object base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectBody<'a> {
    /// Tuple object: one value per slot of its type's layout
    /// ([`crate::Schema::layout`]), `NULL` included.
    Tuple(&'a [Value]),
    /// Set object: its members, ascending and duplicate-free.
    Set(&'a [Value]),
    /// List object: an ordered collection (duplicates allowed).
    List(&'a [Value]),
}

impl ObjectBody<'_> {
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
            ObjectBody::Set(elems) | ObjectBody::List(elems) => elems.len(),
        }
    }

    /// `true` when [`ObjectBody::len`] is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An object instance `(i, v, t)`, as the object base holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Object<'a> {
    /// Invariant identity.
    pub oid: Oid,
    /// The type the object was instantiated from.
    pub ty: TypeId,
    /// The value.
    pub body: ObjectBody<'a>,
}

impl<'a> Object<'a> {
    /// The attribute slots of a tuple object (empty for sets and lists).
    pub fn slots(&self) -> &'a [Value] {
        match self.body {
            ObjectBody::Tuple(slots) => slots,
            _ => &[],
        }
    }

    /// The elements of a set (ascending) or list (in order) object; empty
    /// for a tuple.
    pub fn elements(&self) -> &'a [Value] {
        match self.body {
            ObjectBody::Set(elems) | ObjectBody::List(elems) => elems,
            ObjectBody::Tuple(_) => &[],
        }
    }

    /// All OIDs this object references directly (attribute values and
    /// set/list elements that are references).
    pub fn referenced_oids(&self) -> Vec<Oid> {
        let (ObjectBody::Tuple(values) | ObjectBody::Set(values) | ObjectBody::List(values)) =
            self.body;
        values.iter().filter_map(Value::as_ref_oid).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object(body: ObjectBody<'_>) -> Object<'_> {
        Object {
            oid: Oid::from_raw(1),
            ty: TypeId::from_index(0),
            body,
        }
    }

    #[test]
    fn a_null_slot_is_no_attribute() {
        let slots = [Value::Null, Value::Integer(3), Value::Null];
        let o = object(ObjectBody::Tuple(&slots));
        assert_eq!(o.slots(), &slots);
        assert_eq!(o.body.len(), 1);
        assert!(object(ObjectBody::Tuple(&[Value::Null])).body.is_empty());
    }

    #[test]
    fn elements_of_tuple_is_empty() {
        let o = object(ObjectBody::Tuple(&[Value::Integer(3)]));
        assert!(o.elements().is_empty());
        let s = object(ObjectBody::Set(&[Value::Integer(3)]));
        assert!(s.slots().is_empty());
        assert_eq!(s.elements(), &[Value::Integer(3)]);
    }

    #[test]
    fn referenced_oids_finds_refs_everywhere() {
        let oid = Oid::from_raw;
        let slots = [Value::Ref(oid(7)), Value::Integer(3)];
        assert_eq!(
            object(ObjectBody::Tuple(&slots)).referenced_oids(),
            vec![oid(7)]
        );
        let members = [Value::Ref(oid(8)), Value::Ref(oid(9))];
        assert_eq!(
            object(ObjectBody::Set(&members)).referenced_oids(),
            vec![oid(8), oid(9)]
        );
    }

    #[test]
    fn structure_names() {
        assert_eq!(ObjectBody::Tuple(&[]).structure(), "tuple");
        assert_eq!(ObjectBody::Set(&[]).structure(), "set");
        assert_eq!(ObjectBody::List(&[]).structure(), "list");
    }
}
