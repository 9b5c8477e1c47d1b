//! Bulk construction of an object base in one pass.

use std::collections::HashMap;

use super::{check_conformance, ObjectBase};
use crate::error::{GomError, Result};
use crate::object::{Object, ObjectBody};
use crate::oid::{Oid, OidGenerator};
use crate::schema::Schema;
use crate::table::{BodyMut, ObjectTable};
use crate::types::{TypeId, TypeKind};
use crate::value::Value;

/// Builds an [`ObjectBase`] from objects that nothing has checked yet — a
/// checkpoint's objects frame, a text snapshot's object lines, a delta
/// merged over its base — in one pass, without the mutation API.
///
/// Objects come in strictly ascending OID order and each is filed
/// straight into the object table and its type's extent.  Its body must
/// be the structure its type declares: a tuple has one slot per
/// attribute of [`Schema::layout`], a set's members ascend strictly.
/// [`BaseBuilder::finish`] then checks that every value conforms to its
/// declared type — a reference whose target is not listed is kept
/// dangling, as the live base keeps it — and builds the referrer index
/// and the OID generator's bound.  The errors are the ones the
/// object-at-a-time API gives the same object.
#[derive(Debug)]
pub struct BaseBuilder {
    schema: Schema,
    table: ObjectTable,
    extents: Vec<Vec<Oid>>,
}

impl BaseBuilder {
    /// An empty base over `schema`, with room for `objects` objects.
    pub fn new(schema: Schema, objects: usize) -> Self {
        let table = ObjectTable::with_capacity(&schema, objects);
        let extents = vec![Vec::new(); schema.len()];
        BaseBuilder {
            schema,
            table,
            extents,
        }
    }

    /// The schema the base instantiates.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Objects filed so far.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` before the first object is filed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// File object `oid` of type `ty`, its body fresh, after checking its
    /// place in OID order and its type.
    fn open(&mut self, oid: Oid, ty: TypeId) -> Result<BodyMut<'_>> {
        self.structure(ty)?;
        if let Some(last) = self.table.last_oid().filter(|&last| last >= oid) {
            return Err(match last == oid {
                true => GomError::DuplicateObject(oid),
                false => {
                    GomError::InvalidPath(format!("snapshot: object {oid} listed after {last}"))
                }
            });
        }
        self.extents[ty.index()].push(oid);
        Ok(self.table.append(oid, ty))
    }

    /// The structure instances of `ty` have: "tuple", "set" or "list".
    fn structure(&self, ty: TypeId) -> Result<&'static str> {
        if ty.index() >= self.schema.len() {
            return Err(GomError::UnknownType(format!("#{}", ty.index())));
        }
        Ok(match self.schema.def(ty)?.kind {
            TypeKind::Tuple { .. } => "tuple",
            TypeKind::Set { .. } => "set",
            TypeKind::List { .. } => "list",
        })
    }

    /// File tuple object `oid` of type `ty`: `fill` writes its slots,
    /// which start `NULL`, one per attribute of the type's layout.
    pub fn tuple<E: From<GomError>>(
        &mut self,
        oid: Oid,
        ty: TypeId,
        fill: impl FnOnce(&mut [Value]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        match self.open(oid, ty)? {
            BodyMut::Tuple(slots) => fill(slots),
            BodyMut::Set(_) => Err(wrong(oid, "set").into()),
            BodyMut::List(_) => Err(wrong(oid, "list").into()),
        }
    }

    /// File set or list object `oid` of type `ty` with `elements`, which
    /// for a set must ascend strictly.
    pub fn collection(&mut self, oid: Oid, ty: TypeId, elements: Vec<Value>) -> Result<()> {
        match self.open(oid, ty)? {
            BodyMut::Set(members) => {
                if let Some(pair) = elements.windows(2).find(|w| w[0] >= w[1]) {
                    return Err(GomError::InvalidPath(format!(
                        "snapshot: set {oid} lists {} after {}",
                        pair[1], pair[0]
                    )));
                }
                *members = elements;
            }
            BodyMut::List(list) => *list = elements,
            BodyMut::Tuple(_) => return Err(wrong(oid, "tuple")),
        }
        Ok(())
    }

    /// File a copy of `obj`, an object of a base over the same schema.
    pub fn copy(&mut self, obj: Object<'_>) -> Result<()> {
        let declared = self.structure(obj.ty)?;
        if obj.body.structure() != declared {
            return Err(wrong(obj.oid, declared));
        }
        match obj.body {
            ObjectBody::Tuple(values) => self.tuple(obj.oid, obj.ty, |slots: &mut [Value]| {
                if slots.len() != values.len() {
                    return Err(wrong(obj.oid, "tuple"));
                }
                slots.clone_from_slice(values);
                Ok(())
            }),
            ObjectBody::Set(values) | ObjectBody::List(values) => {
                self.collection(obj.oid, obj.ty, values.to_vec())
            }
        }
    }

    /// The base, with `variables` bound, once every value is checked
    /// against its declared type.  The OID generator resumes past every
    /// OID the objects name, dangling reference targets included, so a
    /// later instantiation cannot revive a dangling reference.
    pub fn finish(self, variables: HashMap<String, Value>) -> Result<ObjectBase> {
        let BaseBuilder {
            schema,
            mut table,
            mut extents,
        } = self;
        let mut referrers = Vec::new();
        let mut next = table
            .last_oid()
            .map_or(0, |oid| oid.as_raw().saturating_add(1));
        let mut check = |value: &Value, declared| {
            let target = value.as_ref_oid();
            if let Some(target) = target {
                next = next.max(target.as_raw().saturating_add(1));
            }
            check_conformance(
                &schema,
                value,
                target.and_then(|oid| table.type_of(oid)),
                declared,
            )
        };
        for obj in table.iter() {
            match obj.body {
                ObjectBody::Tuple(slots) => {
                    let layout = schema.layout(obj.ty).unwrap_or_default();
                    for (attr, value) in layout.iter().zip(slots) {
                        check(value, attr.ty)?;
                        if let Value::Ref(target) = value {
                            referrers.push((*target, obj.oid));
                        }
                    }
                }
                ObjectBody::Set(elements) | ObjectBody::List(elements) => {
                    let def = schema.def(obj.ty)?;
                    let element = def
                        .kind
                        .element()
                        .expect("a collection has an element type");
                    for value in elements {
                        check(value, element)?;
                    }
                }
            }
        }
        referrers.sort_unstable();
        table.shrink_to_fit();
        extents.iter_mut().for_each(Vec::shrink_to_fit);
        Ok(ObjectBase {
            schema,
            table,
            extents,
            variables,
            oidgen: OidGenerator::starting_at(next),
            referrers: referrers.into_iter().collect(),
        })
    }
}

fn wrong(oid: Oid, expected: &'static str) -> GomError {
    GomError::WrongStructure { oid, expected }
}
