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

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::error::{GomError, Result};
use crate::object::{Object, ObjectBody};
use crate::oid::{Oid, OidGenerator};
use crate::schema::Schema;
use crate::types::{TypeId, TypeKind, TypeRef};
use crate::value::Value;

/// The extension of a schema: all living objects plus bookkeeping.
#[derive(Debug, Clone)]
pub struct ObjectBase {
    schema: Schema,
    objects: BTreeMap<Oid, Object>,
    extents: HashMap<TypeId, Vec<Oid>>,
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
        ObjectBase {
            schema,
            objects: BTreeMap::new(),
            extents: HashMap::new(),
            variables: HashMap::new(),
            oidgen: OidGenerator::new(),
            referrers: BTreeSet::new(),
        }
    }

    /// The schema this base instantiates.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of living objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
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
        let object = match &self.schema.def(ty)?.kind {
            TypeKind::Tuple { .. } => {
                let slots = self.schema.layout(ty).map_or(0, <[_]>::len);
                Object::new_tuple(oid, ty, slots)
            }
            TypeKind::Set { .. } => Object::new_set(oid, ty),
            TypeKind::List { .. } => Object::new_list(oid, ty),
        };
        self.objects.insert(oid, object);
        self.extents.entry(ty).or_default().push(oid);
        Ok(())
    }

    /// A base from decoded objects that nothing has checked yet (a binary
    /// checkpoint's reader): what `ObjectBase::from_snapshot` takes on
    /// trust is checked first.  OIDs must ascend strictly, each body must
    /// be the structure its type declares (a tuple with one slot per
    /// attribute of [`Schema::layout`]), and every value must conform to
    /// its declared type — a reference whose target is not listed is kept
    /// dangling, as the live base keeps it.  The errors are the ones the
    /// object-at-a-time API gives the same object.
    pub fn from_objects(
        schema: Schema,
        objects: Vec<Object>,
        variables: HashMap<String, Value>,
    ) -> Result<Self> {
        if let Some(pair) = objects.windows(2).find(|w| w[0].oid >= w[1].oid) {
            return Err(match pair[1].oid {
                twice if twice == pair[0].oid => GomError::DuplicateObject(twice),
                oid => GomError::InvalidPath(format!(
                    "snapshot: object {oid} listed after {}",
                    pair[0].oid
                )),
            });
        }
        // OIDs are issued densely, so an OID's offset from the first one
        // is nearly always its position; a binary search finds the others.
        let first = objects.first().map_or(0, |o| o.oid.as_raw());
        let target = |oid: Oid| {
            let guess = usize::try_from(oid.as_raw().wrapping_sub(first)).ok();
            match guess.and_then(|at| objects.get(at)) {
                Some(o) if o.oid == oid => Some(o.ty),
                _ => (objects.binary_search_by_key(&oid, |o| o.oid).ok()).map(|at| objects[at].ty),
            }
        };
        let check = |value: &Value, declared: TypeRef| {
            check_conformance(
                &schema,
                value,
                value.as_ref_oid().and_then(target),
                declared,
            )
        };
        for obj in &objects {
            if obj.ty.index() >= schema.len() {
                return Err(GomError::UnknownType(format!("#{}", obj.ty.index())));
            }
            let oid = obj.oid;
            match (&schema.def(obj.ty)?.kind, &obj.body) {
                (TypeKind::Tuple { .. }, ObjectBody::Tuple(slots)) => {
                    let layout = schema.layout(obj.ty).unwrap_or(&[]);
                    if layout.len() != slots.len() {
                        return Err(GomError::WrongStructure {
                            oid,
                            expected: "tuple",
                        });
                    }
                    for (attr, value) in layout.iter().zip(slots.iter()) {
                        check(value, attr.ty)?;
                    }
                }
                (TypeKind::Set { element }, ObjectBody::Set(_))
                | (TypeKind::List { element }, ObjectBody::List(_)) => {
                    for value in obj.elements() {
                        check(value, *element)?;
                    }
                }
                (kind, _) => {
                    let expected = match kind {
                        TypeKind::Tuple { .. } => "tuple",
                        TypeKind::Set { .. } => "set",
                        TypeKind::List { .. } => "list",
                    };
                    return Err(GomError::WrongStructure { oid, expected });
                }
            }
        }
        Ok(ObjectBase::from_snapshot(schema, objects, variables))
    }

    /// Assemble a base from a snapshot's objects, in the order the
    /// snapshot lists them (OIDs distinct, every body built and
    /// type-checked by the reader): the object map, the extents (each in
    /// listing order) and the referrer index are each built once from
    /// sorted input.  The OID generator resumes past every OID the
    /// snapshot names, dangling reference targets included, so a later
    /// instantiation cannot revive a dangling reference.
    pub(crate) fn from_snapshot(
        schema: Schema,
        objects: Vec<Object>,
        variables: HashMap<String, Value>,
    ) -> Self {
        let mut extents: Vec<Vec<Oid>> = vec![Vec::new(); schema.len()];
        let mut referrers = Vec::new();
        let mut next = 0;
        for obj in &objects {
            extents[obj.ty.index()].push(obj.oid);
            next = next.max(obj.oid.as_raw().saturating_add(1));
            for target in obj.slots().iter().filter_map(Value::as_ref_oid) {
                referrers.push((target, obj.oid));
            }
            for target in obj.elements().filter_map(Value::as_ref_oid) {
                next = next.max(target.as_raw().saturating_add(1));
            }
        }
        for &(target, _) in &referrers {
            next = next.max(target.as_raw().saturating_add(1));
        }
        referrers.sort_unstable();
        let extents = extents
            .into_iter()
            .enumerate()
            .filter(|(_, oids)| !oids.is_empty())
            .map(|(ty, oids)| (TypeId::from_index(ty), oids))
            .collect();
        ObjectBase {
            schema,
            objects: objects.into_iter().map(|o| (o.oid, o)).collect(),
            extents,
            variables,
            oidgen: OidGenerator::starting_at(next),
            referrers: referrers.into_iter().collect(),
        }
    }

    /// Re-create an object with a **specific** OID — snapshot restoration
    /// only.  Fails when the OID is already live; advances the generator
    /// past the restored OID so future instantiations cannot collide.
    pub fn restore_object(&mut self, oid: Oid, type_name: &str) -> Result<()> {
        if self.contains(oid) {
            return Err(GomError::DuplicateObject(oid));
        }
        self.insert_fresh(oid, self.schema.require(type_name)?)?;
        if self.oidgen.issued() <= oid.as_raw() {
            self.oidgen = OidGenerator::starting_at(oid.as_raw() + 1);
        }
        Ok(())
    }

    /// Delete an object.  References to it elsewhere become dangling (the
    /// model maintains uni-directional references only); navigation treats
    /// dangling references as `NULL`.
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        let obj = self
            .objects
            .remove(&oid)
            .ok_or(GomError::UnknownObject(oid))?;
        if let Some(extent) = self.extents.get_mut(&obj.ty) {
            extent.retain(|&o| o != oid);
        }
        for target in obj.slots().iter().filter_map(Value::as_ref_oid) {
            self.referrers.remove(&(target, oid));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Look up an object.
    pub fn object(&self, oid: Oid) -> Result<&Object> {
        self.objects.get(&oid).ok_or(GomError::UnknownObject(oid))
    }

    /// Does the object exist?
    pub fn contains(&self, oid: Oid) -> bool {
        self.objects.contains_key(&oid)
    }

    /// The type of an object.
    pub fn type_of(&self, oid: Oid) -> Result<TypeId> {
        Ok(self.object(oid)?.ty)
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
    pub fn objects(&self) -> impl Iterator<Item = &Object> {
        self.objects.values()
    }

    /// The `(owner, attribute)` pairs whose tuple attribute currently holds
    /// a reference to `target`, in ascending owner-OID order.  Set and list
    /// membership is not indexed; references left dangling by
    /// [`ObjectBase::delete`] of `target` are.
    pub fn referrers(&self, target: Oid) -> impl Iterator<Item = (Oid, &str)> {
        self.referrers
            .range((target, Oid::from_raw(0))..=(target, Oid::from_raw(u64::MAX)))
            .filter_map(|(_, owner)| self.objects.get(owner))
            .flat_map(move |obj| {
                let layout = self.schema.layout(obj.ty).unwrap_or_default();
                layout
                    .iter()
                    .zip(obj.slots())
                    .filter(move |(_, value)| **value == Value::Ref(target))
                    .map(|(attr, _)| (obj.oid, attr.name.as_str()))
            })
    }

    /// The *direct* extent of a type: objects instantiated exactly from it.
    pub fn extent(&self, ty: TypeId) -> &[Oid] {
        self.extents.get(&ty).map(Vec::as_slice).unwrap_or(&[])
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
        let obj = self
            .objects
            .get_mut(&oid)
            .ok_or(GomError::UnknownObject(oid))?;
        match &mut obj.body {
            ObjectBody::Tuple(slots) => {
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
    ///
    /// Returns `true` when the element was newly inserted, `false` when it
    /// was already a member.
    pub fn insert_into_set(&mut self, set_oid: Oid, value: Value) -> Result<bool> {
        let ty = self.type_of(set_oid)?;
        let element = self
            .schema
            .def(ty)?
            .kind
            .element()
            .ok_or(GomError::WrongStructure {
                oid: set_oid,
                expected: "set",
            })?;
        self.check_conformance(&value, element)?;
        let obj = self
            .objects
            .get_mut(&set_oid)
            .ok_or(GomError::UnknownObject(set_oid))?;
        match &mut obj.body {
            ObjectBody::Set(set) => Ok(set.insert(value)),
            _ => Err(GomError::WrongStructure {
                oid: set_oid,
                expected: "set",
            }),
        }
    }

    /// Remove `value` from set object `set_oid`; returns whether it was
    /// present.
    pub fn remove_from_set(&mut self, set_oid: Oid, value: &Value) -> Result<bool> {
        let obj = self
            .objects
            .get_mut(&set_oid)
            .ok_or(GomError::UnknownObject(set_oid))?;
        match &mut obj.body {
            ObjectBody::Set(set) => Ok(set.remove(value)),
            _ => Err(GomError::WrongStructure {
                oid: set_oid,
                expected: "set",
            }),
        }
    }

    /// Append `value` to list object `list_oid`.
    pub fn push_to_list(&mut self, list_oid: Oid, value: Value) -> Result<()> {
        let ty = self.type_of(list_oid)?;
        let element = self
            .schema
            .def(ty)?
            .kind
            .element()
            .ok_or(GomError::WrongStructure {
                oid: list_oid,
                expected: "list",
            })?;
        self.check_conformance(&value, element)?;
        let obj = self
            .objects
            .get_mut(&list_oid)
            .ok_or(GomError::UnknownObject(list_oid))?;
        match &mut obj.body {
            ObjectBody::List(list) => {
                list.push(value);
                Ok(())
            }
            _ => Err(GomError::WrongStructure {
                oid: list_oid,
                expected: "list",
            }),
        }
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
        let elems: Vec<_> = obj.elements().cloned().collect();
        assert_eq!(
            elems,
            vec![Value::Integer(2), Value::Integer(1), Value::Integer(2)]
        );
        assert!(matches!(
            base.push_to_list(l, Value::string("x")),
            Err(GomError::TypeViolation { .. })
        ));
    }

    #[test]
    fn from_objects_checks_what_from_snapshot_trusts() {
        let mut base = company_base();
        let d = base.instantiate("Division").unwrap();
        let prods = base.instantiate("ProdSET").unwrap();
        let p = base.instantiate("Product").unwrap();
        base.set_attribute(d, "Name", Value::string("Cars"))
            .unwrap();
        base.set_attribute(d, "Manufactures", Value::Ref(prods))
            .unwrap();
        base.insert_into_set(prods, Value::Ref(p)).unwrap();
        let objects: Vec<Object> = base.objects().cloned().collect();
        let rebuild = |objects: Vec<Object>| {
            ObjectBase::from_objects(base.schema().clone(), objects, HashMap::new())
        };
        let same = rebuild(objects.clone()).unwrap();
        assert!(same.objects().eq(base.objects()));
        // A reference to an object that is not listed stays dangling.
        assert!(rebuild(objects[..2].to_vec()).is_ok());

        let with = |k: usize, body: ObjectBody| {
            let mut objects = objects.clone();
            objects[k].body = body;
            rebuild(objects).unwrap_err()
        };
        let named = |name: Value| ObjectBody::Tuple(vec![Value::Null, name].into());
        assert!(matches!(
            with(0, named(Value::Integer(3))),
            GomError::TypeViolation { .. }
        ));
        assert!(matches!(
            with(1, ObjectBody::Set([Value::Ref(d)].into())),
            GomError::TypeViolation { .. }
        ));
        assert!(matches!(
            with(0, ObjectBody::Tuple(vec![Value::Null].into())),
            GomError::WrongStructure { .. }
        ));
        assert!(matches!(
            with(1, ObjectBody::List(Vec::new())),
            GomError::WrongStructure { .. }
        ));
        let twice = vec![objects[0].clone(), objects[0].clone()];
        assert_eq!(rebuild(twice).unwrap_err(), GomError::DuplicateObject(d));
        let swapped = vec![objects[1].clone(), objects[0].clone()];
        assert!(rebuild(swapped).is_err());
    }
}
