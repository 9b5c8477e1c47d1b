//! The object base: the live extension of a schema.
//!
//! An [`ObjectBase`] owns all object instances, maintains per-type extents,
//! binds named database variables (such as `OurRobots` or `Mercedes` in the
//! paper's examples) and enforces strong typing on every update.
//!
//! References are **uni-directional** (Section 2.2): no query may follow
//! one backwards, which is exactly why backward navigation without an
//! access support relation degenerates to exhaustive search.  The base
//! does keep a *referrer index* — who holds a reference to an object in a
//! tuple attribute — but only as update bookkeeping: the paper's statement
//! `insert o into o_i.A_i` names the owner, the set-level API here does
//! not, and [`ObjectBase::referrers`] recovers it without a scan.

use std::collections::{BTreeSet, HashMap};

use crate::error::{GomError, Result};
use crate::object::{Object, ObjectBody};
use crate::oid::{Oid, OidGenerator};
use crate::schema::Schema;
use crate::table::{BodyMut, ObjectTable};
use crate::types::{TypeId, TypeRef};
use crate::value::Value;

mod builder;

pub use builder::BaseBuilder;

/// The extension of a schema: all living objects plus bookkeeping.
#[derive(Debug, Clone)]
pub struct ObjectBase {
    schema: Schema,
    /// Every object, in one OID-ordered table.
    table: ObjectTable,
    /// Each type's direct extent, by type index, in creation order.
    extents: Vec<Vec<Oid>>,
    variables: HashMap<String, Value>,
    oidgen: OidGenerator,
    /// `(target, owner)` for every tuple object `owner` with at least one
    /// attribute currently holding `Value::Ref(target)`, dangling
    /// references included; which attributes is read off the owner.
    /// Written only by [`ObjectBase::set_attribute`] and
    /// [`ObjectBase::delete`], the two mutators that can change a tuple
    /// attribute, so loads, replays and clones carry it without an
    /// invalidation protocol.
    referrers: BTreeSet<(Oid, Oid)>,
}

impl ObjectBase {
    /// Create an empty object base over `schema`.
    pub fn new(schema: Schema) -> Self {
        BaseBuilder::new(schema, 0)
            .finish(HashMap::new())
            .expect("an empty base is well-typed")
    }

    /// The schema this base instantiates.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of living objects.
    pub fn object_count(&self) -> usize {
        self.table.len()
    }

    // ------------------------------------------------------------------
    // Instantiation
    // ------------------------------------------------------------------

    /// Instantiate the named type, yielding a fresh object.
    ///
    /// Tuple attributes start `NULL`; sets and lists start empty
    /// (Section 2, *instantiation*).
    pub fn instantiate(&mut self, type_name: &str) -> Result<Oid> {
        let ty = self.schema.require(type_name)?;
        self.schema.def(ty)?; // an undefined type takes no OID
        let oid = self.oidgen.fresh();
        self.insert_fresh(oid, ty)?;
        Ok(oid)
    }

    /// File a fresh instance of `ty` under `oid`.
    fn insert_fresh(&mut self, oid: Oid, ty: TypeId) -> Result<()> {
        self.schema.def(ty)?;
        self.table.insert(oid, ty)?;
        self.extents[ty.index()].push(oid);
        Ok(())
    }

    /// Re-create an object with a **specific** OID — snapshot restoration
    /// only.  Fails when the OID is already live; advances the generator
    /// past the restored OID so future instantiations cannot collide.
    ///
    /// An OID issued before may still be referenced, dangling, by tuple
    /// slots, sets and lists.  Its restore is refused with
    /// [`GomError::ReferencedObject`] while any of them holds it: the
    /// restored object would revive those references behind the back of
    /// everything that maintains paths over them.
    pub fn restore_object(&mut self, oid: Oid, type_name: &str) -> Result<()> {
        if self.contains(oid) {
            return Err(GomError::DuplicateObject(oid));
        }
        let ty = self.schema.require(type_name)?;
        if oid.as_raw() < self.oidgen.issued() && self.is_referenced(oid) {
            return Err(GomError::ReferencedObject(oid));
        }
        self.insert_fresh(oid, ty)?;
        if self.oidgen.issued() <= oid.as_raw() {
            self.oidgen = OidGenerator::starting_at(oid.as_raw() + 1);
        }
        Ok(())
    }

    /// Does a tuple slot, set or list reference `oid`?  Tuple slots come
    /// off the referrer index; set and list membership is not indexed, so
    /// the collections are scanned — only a restore of an OID issued
    /// before asks.
    fn is_referenced(&self, oid: Oid) -> bool {
        let value = Value::Ref(oid);
        let owners = (oid, Oid::from_raw(0))..=(oid, Oid::from_raw(u64::MAX));
        self.referrers.range(owners).next().is_some()
            || self.table.iter().any(|obj| match obj.body {
                ObjectBody::Set(members) | ObjectBody::List(members) => members.contains(&value),
                ObjectBody::Tuple(_) => false,
            })
    }

    /// Delete an object.  References to it elsewhere become dangling (the
    /// model maintains uni-directional references only); navigation treats
    /// dangling references as `NULL`.
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        let obj = self.table.get(oid).ok_or(GomError::UnknownObject(oid))?;
        for target in obj.slots().iter().filter_map(Value::as_ref_oid) {
            self.referrers.remove(&(target, oid));
        }
        let ty = self.table.remove(oid).ok_or(GomError::UnknownObject(oid))?;
        self.extents[ty.index()].retain(|&o| o != oid);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Look up an object.
    pub fn object(&self, oid: Oid) -> Result<Object<'_>> {
        self.table.get(oid).ok_or(GomError::UnknownObject(oid))
    }

    /// Does the object exist?
    pub fn contains(&self, oid: Oid) -> bool {
        self.table.type_of(oid).is_some()
    }

    /// The type of an object.
    pub fn type_of(&self, oid: Oid) -> Result<TypeId> {
        self.table.type_of(oid).ok_or(GomError::UnknownObject(oid))
    }

    /// Attribute value of a tuple object (inherited attributes included).
    /// Returns `NULL` for never-assigned attributes.
    pub fn get_attribute(&self, oid: Oid, attr: &str) -> Result<Value> {
        let obj = self.object(oid)?;
        let (slot, _) = self.schema.slot(obj.ty, attr)?;
        Ok(obj.slots()[slot].clone())
    }

    /// The first object, in OID order, whose tuple attribute `attr`
    /// holds `value`.
    pub fn find_by_attribute(&self, attr: &str, value: &Value) -> Option<Oid> {
        self.objects()
            .find(|o| {
                // Sets and lists have no layout: skip them before `slot`
                // works out the error it would report.
                self.schema.layout(o.ty).is_some()
                    && self
                        .schema
                        .slot(o.ty, attr)
                        .is_ok_and(|(slot, _)| o.slots()[slot] == *value)
            })
            .map(|o| o.oid)
    }

    /// Iterate over all objects (ascending OID order — deterministic).
    pub fn objects(&self) -> impl Iterator<Item = Object<'_>> + Clone {
        self.table.iter()
    }

    /// The `(owner, attribute)` pairs whose tuple attribute currently holds
    /// a reference to `target`, in ascending owner-OID order.  Set and list
    /// membership is not indexed; references left dangling by
    /// [`ObjectBase::delete`] of `target` are.
    pub fn referrers(&self, target: Oid) -> impl Iterator<Item = (Oid, &str)> {
        self.referrers
            .range((target, Oid::from_raw(0))..=(target, Oid::from_raw(u64::MAX)))
            .filter_map(|&(_, owner)| self.table.get(owner))
            .flat_map(move |obj| {
                let layout = self.schema.layout(obj.ty).unwrap_or_default();
                layout
                    .iter()
                    .zip(obj.slots())
                    .filter(move |(_, value)| **value == Value::Ref(target))
                    .map(move |(attr, _)| (obj.oid, attr.name.as_str()))
            })
    }

    /// The *direct* extent of a type: objects instantiated exactly from it.
    pub fn extent(&self, ty: TypeId) -> &[Oid] {
        self.extents.get(ty.index()).map_or(&[], Vec::as_slice)
    }

    /// The *deep* extent: instances of the type or any of its subtypes.
    pub fn extent_closure(&self, ty: TypeId) -> Vec<Oid> {
        let mut out = Vec::new();
        for sub in self.schema.subtype_closure(ty) {
            out.extend_from_slice(self.extent(sub));
        }
        out.sort_unstable();
        out
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Assign `value` to attribute `attr` of tuple object `oid`.
    ///
    /// Enforces strong typing: the value's type must conform to the
    /// attribute's declared upper bound.  Assigning `NULL` always succeeds.
    pub fn set_attribute(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
        let ty = self.type_of(oid)?;
        let (slot, declared) = self.schema.slot(ty, attr)?;
        self.check_conformance(&value, declared.ty)?;
        match self.table.body_mut(oid) {
            Some((_, BodyMut::Tuple(slots))) => {
                let new_ref = value.as_ref_oid();
                let old_ref = std::mem::replace(&mut slots[slot], value).as_ref_oid();
                if old_ref != new_ref {
                    if let Some(target) = old_ref {
                        let still_held = slots.iter().any(|v| v.as_ref_oid() == Some(target));
                        if !still_held {
                            self.referrers.remove(&(target, oid));
                        }
                    }
                    if let Some(target) = new_ref {
                        self.referrers.insert((target, oid));
                    }
                }
                Ok(())
            }
            _ => Err(GomError::WrongStructure {
                oid,
                expected: "tuple",
            }),
        }
    }

    /// Insert `value` into set object `set_oid`.  Mirrors the paper's
    /// characteristic update `ins_i := insert o into o_i.A_i` (Section 6).
    /// The members stay one sorted vector: the insert binary-searches
    /// and shifts, linear in the set's size.
    ///
    /// Returns `true` when the element was newly inserted, `false` when it
    /// was already a member.
    pub fn insert_into_set(&mut self, set_oid: Oid, value: Value) -> Result<bool> {
        let element = self.element_type(set_oid, "set")?;
        self.check_conformance(&value, element)?;
        match self.table.body_mut(set_oid) {
            Some((_, BodyMut::Set(members))) => match members.binary_search(&value) {
                Ok(_) => Ok(false),
                Err(at) => {
                    members.insert(at, value);
                    Ok(true)
                }
            },
            _ => Err(GomError::WrongStructure {
                oid: set_oid,
                expected: "set",
            }),
        }
    }

    /// Remove `value` from set object `set_oid`; returns whether it was
    /// present.
    pub fn remove_from_set(&mut self, set_oid: Oid, value: &Value) -> Result<bool> {
        match self.table.body_mut(set_oid) {
            Some((_, BodyMut::Set(members))) => match members.binary_search(value) {
                Ok(at) => {
                    members.remove(at);
                    Ok(true)
                }
                Err(_) => Ok(false),
            },
            Some(_) => Err(GomError::WrongStructure {
                oid: set_oid,
                expected: "set",
            }),
            None => Err(GomError::UnknownObject(set_oid)),
        }
    }

    /// Append `value` to list object `list_oid`.
    pub fn push_to_list(&mut self, list_oid: Oid, value: Value) -> Result<()> {
        let element = self.element_type(list_oid, "list")?;
        self.check_conformance(&value, element)?;
        match self.table.body_mut(list_oid) {
            Some((_, BodyMut::List(list))) => {
                list.push(value);
                Ok(())
            }
            _ => Err(GomError::WrongStructure {
                oid: list_oid,
                expected: "list",
            }),
        }
    }

    /// The declared element type of collection `oid`; a tuple is not the
    /// `expected` structure.
    fn element_type(&self, oid: Oid, expected: &'static str) -> Result<TypeRef> {
        let ty = self.type_of(oid)?;
        (self.schema.def(ty)?.kind.element()).ok_or(GomError::WrongStructure { oid, expected })
    }

    fn check_conformance(&self, value: &Value, declared: TypeRef) -> Result<()> {
        let target = match value {
            Value::Ref(oid) => Some(self.type_of(*oid)?),
            _ => None,
        };
        check_conformance(&self.schema, value, target, declared)
    }

    // ------------------------------------------------------------------
    // Database variables ("roots")
    // ------------------------------------------------------------------

    /// Bind a named database variable, e.g. `var OurRobots: ROBOT_SET`.
    pub fn bind_variable(&mut self, name: &str, value: Value) {
        self.variables.insert(name.to_string(), value);
    }

    /// Look up a database variable.
    pub fn variable(&self, name: &str) -> Result<&Value> {
        self.variables
            .get(name)
            .ok_or_else(|| GomError::UnknownVariable(name.to_string()))
    }

    /// Iterate over all bound database variables in name order.
    pub fn variables(&self) -> impl Iterator<Item = (&str, &Value)> {
        let mut items: Vec<(&str, &Value)> = self
            .variables
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .collect();
        items.sort_by_key(|(k, _)| *k);
        items.into_iter()
    }

    // ------------------------------------------------------------------
    // Navigation
    // ------------------------------------------------------------------

    /// Dereference attribute `attr` of `oid` as an object reference.
    /// `None` when the attribute is `NULL` or dangling.
    pub fn deref_attribute(&self, oid: Oid, attr: &str) -> Result<Option<Oid>> {
        let v = self.get_attribute(oid, attr)?;
        Ok(v.as_ref_oid().filter(|o| self.contains(*o)))
    }

    /// The member OIDs of a set/list object (non-reference members and
    /// dangling references skipped).
    pub fn element_oids(&self, collection: Oid) -> Result<Vec<Oid>> {
        let obj = self.object(collection)?;
        Ok(obj
            .elements()
            .iter()
            .filter_map(Value::as_ref_oid)
            .filter(|o| self.contains(*o))
            .collect())
    }
}

/// Strong typing: does `value` conform to the declared upper bound
/// `declared`?  `target` is the type of the object a reference names;
/// `None` for a reference means the target does not exist (a dangling
/// reference, which reads as `NULL` and so conforms).  `NULL` always
/// conforms.
pub(crate) fn check_conformance(
    schema: &Schema,
    value: &Value,
    target: Option<TypeId>,
    declared: TypeRef,
) -> Result<()> {
    let actual = match value {
        Value::Null => return Ok(()),
        Value::Ref(_) => match target {
            Some(ty) => TypeRef::Named(ty),
            None => return Ok(()),
        },
        atomic => match atomic.atomic_type() {
            Some(a) => TypeRef::Atomic(a),
            None => unreachable!("non-atomic, non-ref, non-null value"),
        },
    };
    if schema.conforms(actual, declared) {
        Ok(())
    } else {
        Err(GomError::TypeViolation {
            expected: schema.ref_name(declared),
            actual: schema.ref_name(actual),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectBody;

    fn company_base() -> ObjectBase {
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
        ObjectBase::new(s)
    }

    #[test]
    fn instantiate_and_extents() {
        let mut base = company_base();
        let d1 = base.instantiate("Division").unwrap();
        let d2 = base.instantiate("Division").unwrap();
        let div_ty = base.schema().resolve("Division").unwrap();
        assert_eq!(base.extent(div_ty), &[d1, d2]);
        assert_eq!(base.object_count(), 2);
        assert!(base.get_attribute(d1, "Name").unwrap().is_null());
    }

    #[test]
    fn strong_typing_enforced_on_attributes() {
        let mut base = company_base();
        let d = base.instantiate("Division").unwrap();
        let p = base.instantiate("Product").unwrap();
        // Name must be a STRING.
        assert!(matches!(
            base.set_attribute(d, "Name", Value::Integer(3)),
            Err(GomError::TypeViolation { .. })
        ));
        // Manufactures must be a ProdSET, not a Product.
        assert!(matches!(
            base.set_attribute(d, "Manufactures", Value::Ref(p)),
            Err(GomError::TypeViolation { .. })
        ));
        let ps = base.instantiate("ProdSET").unwrap();
        base.set_attribute(d, "Manufactures", Value::Ref(ps))
            .unwrap();
        assert_eq!(
            base.get_attribute(d, "Manufactures").unwrap(),
            Value::Ref(ps)
        );
    }

    #[test]
    fn null_assignment_clears() {
        let mut base = company_base();
        let d = base.instantiate("Division").unwrap();
        base.set_attribute(d, "Name", Value::string("Auto"))
            .unwrap();
        base.set_attribute(d, "Name", Value::Null).unwrap();
        assert!(base.get_attribute(d, "Name").unwrap().is_null());
    }

    #[test]
    fn unknown_attribute_rejected() {
        let mut base = company_base();
        let d = base.instantiate("Division").unwrap();
        assert!(matches!(
            base.set_attribute(d, "Boss", Value::string("x")),
            Err(GomError::UnknownAttribute { .. })
        ));
        assert!(base.get_attribute(d, "Boss").is_err());
    }

    #[test]
    fn set_membership_and_typing() {
        let mut base = company_base();
        let ps = base.instantiate("ProdSET").unwrap();
        let p = base.instantiate("Product").unwrap();
        let d = base.instantiate("Division").unwrap();
        assert!(base.insert_into_set(ps, Value::Ref(p)).unwrap());
        assert!(
            !base.insert_into_set(ps, Value::Ref(p)).unwrap(),
            "duplicate insert"
        );
        // Division is not a Product.
        assert!(matches!(
            base.insert_into_set(ps, Value::Ref(d)),
            Err(GomError::TypeViolation { .. })
        ));
        assert_eq!(base.element_oids(ps).unwrap(), vec![p]);
        assert!(base.remove_from_set(ps, &Value::Ref(p)).unwrap());
        assert!(!base.remove_from_set(ps, &Value::Ref(p)).unwrap());
    }

    #[test]
    fn set_operations_on_tuple_rejected() {
        let mut base = company_base();
        let d = base.instantiate("Division").unwrap();
        assert!(matches!(
            base.insert_into_set(d, Value::Integer(1)),
            Err(GomError::WrongStructure { .. })
        ));
    }

    #[test]
    fn delete_and_dangling_references() {
        let mut base = company_base();
        let d = base.instantiate("Division").unwrap();
        let ps = base.instantiate("ProdSET").unwrap();
        base.set_attribute(d, "Manufactures", Value::Ref(ps))
            .unwrap();
        base.delete(ps).unwrap();
        // The attribute still holds the raw reference...
        assert_eq!(
            base.get_attribute(d, "Manufactures").unwrap(),
            Value::Ref(ps)
        );
        // ...but navigation treats it as NULL.
        assert_eq!(base.deref_attribute(d, "Manufactures").unwrap(), None);
        let set_ty = base.schema().resolve("ProdSET").unwrap();
        assert!(base.extent(set_ty).is_empty());
        assert!(matches!(base.delete(ps), Err(GomError::UnknownObject(_))));
    }

    #[test]
    fn variables() {
        let mut base = company_base();
        let c = base.instantiate("Company").unwrap();
        base.bind_variable("Mercedes", Value::Ref(c));
        assert_eq!(base.variable("Mercedes").unwrap(), &Value::Ref(c));
        assert!(matches!(
            base.variable("BMW"),
            Err(GomError::UnknownVariable(_))
        ));
    }

    #[test]
    fn subtype_instances_conform_and_appear_in_deep_extent() {
        let mut s = Schema::new();
        s.define_tuple("TOOL", [("Function", "STRING")]).unwrap();
        s.define_tuple_sub("POWERTOOL", ["TOOL"], [("Watts", "INTEGER")])
            .unwrap();
        s.define_tuple("ARM", [("MountedTool", "TOOL")]).unwrap();
        s.validate().unwrap();
        let mut base = ObjectBase::new(s);
        let pt = base.instantiate("POWERTOOL").unwrap();
        let arm = base.instantiate("ARM").unwrap();
        // A POWERTOOL instance may stand in for a TOOL attribute.
        base.set_attribute(arm, "MountedTool", Value::Ref(pt))
            .unwrap();
        // Inherited attribute is assignable on the subtype instance.
        base.set_attribute(pt, "Function", Value::string("drilling"))
            .unwrap();
        let tool_ty = base.schema().resolve("TOOL").unwrap();
        assert!(
            base.extent(tool_ty).is_empty(),
            "direct extent excludes subtypes"
        );
        assert_eq!(base.extent_closure(tool_ty), vec![pt]);
    }

    #[test]
    fn lists_preserve_order_and_duplicates() {
        let mut s = Schema::new();
        s.define_list("NUMS", "INTEGER").unwrap();
        s.validate().unwrap();
        let mut base = ObjectBase::new(s);
        let l = base.instantiate("NUMS").unwrap();
        base.push_to_list(l, Value::Integer(2)).unwrap();
        base.push_to_list(l, Value::Integer(1)).unwrap();
        base.push_to_list(l, Value::Integer(2)).unwrap();
        let obj = base.object(l).unwrap();
        assert_eq!(
            obj.elements(),
            [Value::Integer(2), Value::Integer(1), Value::Integer(2)]
        );
        assert!(matches!(
            base.push_to_list(l, Value::string("x")),
            Err(GomError::TypeViolation { .. })
        ));
    }

    #[test]
    fn the_builder_checks_what_the_mutation_api_checks() {
        let mut base = company_base();
        let d = base.instantiate("Division").unwrap();
        let prods = base.instantiate("ProdSET").unwrap();
        let p = base.instantiate("Product").unwrap();
        base.set_attribute(d, "Name", Value::string("Cars"))
            .unwrap();
        base.set_attribute(d, "Manufactures", Value::Ref(prods))
            .unwrap();
        base.insert_into_set(prods, Value::Ref(p)).unwrap();
        let objects: Vec<Object<'_>> = base.objects().collect();
        let rebuild = |objects: &[Object<'_>]| {
            let mut builder = BaseBuilder::new(base.schema().clone(), objects.len());
            for obj in objects {
                match obj.body {
                    ObjectBody::Tuple(values) => builder.tuple(obj.oid, obj.ty, |slots| {
                        slots.clone_from_slice(values);
                        Ok::<_, GomError>(())
                    })?,
                    ObjectBody::Set(values) | ObjectBody::List(values) => {
                        builder.collection(obj.oid, obj.ty, values.to_vec())?
                    }
                }
            }
            builder.finish(HashMap::new())
        };
        let same = rebuild(&objects).unwrap();
        assert!(same.objects().eq(base.objects()));
        assert_eq!(
            same.referrers(prods).collect::<Vec<_>>(),
            [(d, "Manufactures")]
        );
        // A reference to an object that is not listed stays dangling.
        assert!(rebuild(&objects[..2]).is_ok());

        let with = |k: usize, body: ObjectBody<'_>| {
            let mut objects = objects.clone();
            objects[k].body = body;
            rebuild(&objects).unwrap_err()
        };
        // Division's layout is sorted by name: Manufactures, Name.
        assert!(matches!(
            with(0, ObjectBody::Tuple(&[Value::Null, Value::Integer(3)])),
            GomError::TypeViolation { .. }
        ));
        assert!(matches!(
            with(1, ObjectBody::Set(&[Value::Ref(d)])),
            GomError::TypeViolation { .. }
        ));
        assert!(matches!(
            with(0, ObjectBody::Set(&[])),
            GomError::WrongStructure { .. }
        ));
        assert!(matches!(
            with(1, ObjectBody::Tuple(&[])),
            GomError::WrongStructure { .. }
        ));
        // A set's members ascend strictly.
        for members in [[Value::Ref(p), Value::Ref(p)], [Value::Ref(p), Value::Null]] {
            assert!(matches!(
                with(1, ObjectBody::Set(&members)),
                GomError::InvalidPath(_)
            ));
        }
        let twice = [objects[0], objects[0]];
        assert_eq!(rebuild(&twice).unwrap_err(), GomError::DuplicateObject(d));
        let swapped = [objects[1], objects[0]];
        assert!(rebuild(&swapped).is_err());
    }

    #[test]
    fn an_oid_still_referenced_is_not_restored() {
        let mut base = company_base();
        let product = base.instantiate("Product").unwrap();
        let parts = base.instantiate("BasePartSET").unwrap();
        let part = base.instantiate("BasePart").unwrap();
        base.set_attribute(product, "Composition", Value::Ref(parts))
            .unwrap();
        base.insert_into_set(parts, Value::Ref(part)).unwrap();
        for oid in [parts, part] {
            base.delete(oid).unwrap();
        }
        // The set is held by the product's slot; the part only by the
        // deleted set, whose members no longer count.
        let refused = |base: &mut ObjectBase, oid, ty| base.restore_object(oid, ty).unwrap_err();
        assert_eq!(
            refused(&mut base, parts, "BasePartSET"),
            GomError::ReferencedObject(parts)
        );
        base.set_attribute(product, "Composition", Value::Null)
            .unwrap();
        base.restore_object(parts, "BasePartSET").unwrap();
        base.restore_object(part, "BasePart").unwrap();
        base.insert_into_set(parts, Value::Ref(part)).unwrap();
        base.delete(part).unwrap();
        assert_eq!(
            refused(&mut base, part, "BasePart"),
            GomError::ReferencedObject(part)
        );
    }

    #[test]
    fn lookups_survive_deletes_restores_and_compaction() {
        let mut base = company_base();
        let oids: Vec<Oid> = (0..200)
            .map(|_| base.instantiate("BasePart").unwrap())
            .collect();
        // Two thirds deleted: tombstones first, then a compaction.
        for (k, &oid) in oids.iter().enumerate() {
            if k % 3 != 1 {
                base.delete(oid).unwrap();
            }
        }
        // Restored below the highest OID, where compaction dropped the
        // tombstone and where it did not.
        for k in [0, 2, 197] {
            base.restore_object(oids[k], "BasePartSET").unwrap();
        }
        let live = |k: usize| k % 3 == 1 || [0, 2, 197].contains(&k);
        for (k, &oid) in oids.iter().enumerate() {
            assert_eq!(base.contains(oid), live(k), "{oid}");
        }
        base.insert_into_set(oids[2], Value::Ref(oids[1])).unwrap();
        assert_eq!(base.element_oids(oids[2]).unwrap(), [oids[1]]);
        assert_eq!(base.object_count(), 70);
        let want = (0..200).filter(|&k| live(k)).map(|k| oids[k]);
        assert!(base.objects().map(|o| o.oid).eq(want));
        let fresh = base.instantiate("BasePart").unwrap();
        assert!(fresh > oids[199]);
    }
}
