//! Schema: the registry of named type definitions.
//!
//! A [`Schema`] owns all named types of a database, resolves attribute
//! lookups through the inheritance hierarchy and answers subtype questions.
//! Forward references are supported so that mutually recursive type
//! definitions (common in engineering schemas) can be entered in any order;
//! [`Schema::validate`] checks that every forward-declared type was
//! eventually defined and that the inheritance graph is acyclic.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::atomic::AtomicType;
use crate::error::{GomError, Result};
use crate::types::{AttrDef, TypeDef, TypeId, TypeKind, TypeRef};

/// The registry of named types.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    /// `None` entries are forward declarations that have not been defined.
    defs: Vec<Option<TypeDef>>,
    names: Vec<String>,
    by_name: HashMap<String, TypeId>,
    /// [`Schema::layout`] of every type, indexed by type id and rebuilt
    /// by every definition.
    layouts: Vec<Option<Vec<AttrDef>>>,
}

impl Schema {
    /// An empty schema (only the built-in atomic types are nameable).
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Definition
    // ------------------------------------------------------------------

    /// Reserve a [`TypeId`] for `name` without defining its structure yet.
    ///
    /// Returns the existing id if the name is already known.  Atomic type
    /// names cannot be declared.
    pub fn declare(&mut self, name: &str) -> Result<TypeId> {
        if AtomicType::by_name(name).is_some() {
            return Err(GomError::DuplicateType(name.to_string()));
        }
        match self.by_name.entry(name.to_string()) {
            Entry::Occupied(e) => Ok(*e.get()),
            Entry::Vacant(e) => {
                let id = TypeId::from_index(self.defs.len());
                self.defs.push(None);
                self.names.push(name.to_string());
                e.insert(id);
                Ok(id)
            }
        }
    }

    /// Define a tuple type without supertypes:
    /// `type name is [a1: t1, …, an: tn]`.
    pub fn define_tuple<'a>(
        &mut self,
        name: &str,
        attrs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<TypeId> {
        self.define_tuple_sub(name, [], attrs)
    }

    /// Define a tuple type with supertypes:
    /// `type name is supertypes (s1,…,sm) [a1: t1, …, an: tn]`.
    ///
    /// Supertype names must already be declared or defined (they are
    /// auto-declared otherwise, to permit forward references); attribute
    /// type names may reference atomic types, existing types, or
    /// not-yet-defined types (auto-declared).
    pub fn define_tuple_sub<'a, 'b>(
        &mut self,
        name: &str,
        supertypes: impl IntoIterator<Item = &'b str>,
        attrs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<TypeId> {
        let supertypes: Vec<TypeId> = supertypes
            .into_iter()
            .map(|s| {
                if AtomicType::by_name(s).is_some() {
                    Err(GomError::InvalidSupertype {
                        ty: name.to_string(),
                        supertype: s.to_string(),
                    })
                } else {
                    self.declare(s)
                }
            })
            .collect::<Result<_>>()?;
        let mut attributes = Vec::new();
        for (attr, ty_name) in attrs {
            let ty = self.type_ref(ty_name)?;
            attributes.push(AttrDef {
                name: attr.to_string(),
                ty,
            });
        }
        self.install(
            name,
            TypeKind::Tuple {
                supertypes,
                attributes,
            },
        )
    }

    /// Define a set type: `type name is {element}`.
    pub fn define_set(&mut self, name: &str, element: &str) -> Result<TypeId> {
        let element = self.type_ref(element)?;
        self.install(name, TypeKind::Set { element })
    }

    /// Define a list type: `type name is <element>`.
    pub fn define_list(&mut self, name: &str, element: &str) -> Result<TypeId> {
        let element = self.type_ref(element)?;
        self.install(name, TypeKind::List { element })
    }

    fn install(&mut self, name: &str, kind: TypeKind) -> Result<TypeId> {
        let id = self.declare(name)?;
        let slot = &mut self.defs[id.index()];
        if slot.is_some() {
            return Err(GomError::DuplicateType(name.to_string()));
        }
        // Check directly-declared attribute names are pairwise distinct.
        if let TypeKind::Tuple { attributes, .. } = &kind {
            for (i, a) in attributes.iter().enumerate() {
                if attributes[..i].iter().any(|b| b.name == a.name) {
                    return Err(GomError::DuplicateAttribute {
                        ty: name.to_string(),
                        attr: a.name.clone(),
                    });
                }
            }
        }
        *slot = Some(TypeDef {
            name: name.to_string(),
            kind,
        });
        // A definition can give types defined before it inherited
        // attributes (or resolve their forward-declared supertypes).
        self.layouts = (0..self.defs.len())
            .map(|i| {
                let tuple = self.defs[i].as_ref().is_some_and(|d| d.kind.is_tuple());
                let mut attrs = tuple
                    .then(|| self.all_attributes(TypeId::from_index(i)).ok())
                    .flatten()?;
                attrs.sort_by(|a, b| a.name.cmp(&b.name));
                Some(attrs)
            })
            .collect();
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Lookup
    // ------------------------------------------------------------------

    /// Resolve a type *name* to a [`TypeRef`] — atomic built-ins are
    /// recognized by name, anything else is (auto-declared and) named.
    pub fn type_ref(&mut self, name: &str) -> Result<TypeRef> {
        if let Some(atomic) = AtomicType::by_name(name) {
            return Ok(TypeRef::Atomic(atomic));
        }
        Ok(TypeRef::Named(self.declare(name)?))
    }

    /// Resolve a known type name to its id (no auto-declaration).
    pub fn resolve(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(name).copied()
    }

    /// Resolve a known type name, erroring when absent.
    pub fn require(&self, name: &str) -> Result<TypeId> {
        self.resolve(name)
            .ok_or_else(|| GomError::UnknownType(name.to_string()))
    }

    /// The name of a type id.
    pub fn name(&self, id: TypeId) -> &str {
        &self.names[id.index()]
    }

    /// Human-readable name of a [`TypeRef`].
    pub fn ref_name(&self, r: TypeRef) -> String {
        match r {
            TypeRef::Atomic(a) => a.name().to_string(),
            TypeRef::Named(id) => self.name(id).to_string(),
        }
    }

    /// The definition of a type; errors when only forward-declared.
    pub fn def(&self, id: TypeId) -> Result<&TypeDef> {
        self.defs
            .get(id.index())
            .and_then(|d| d.as_ref())
            .ok_or_else(|| GomError::UnknownType(self.names[id.index()].clone()))
    }

    /// Number of declared types.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// `true` when no types are declared.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Iterate over all *defined* types, in definition order.
    pub fn types(&self) -> impl Iterator<Item = (TypeId, &TypeDef)> {
        self.defs
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.as_ref().map(|d| (TypeId::from_index(i), d)))
    }

    // ------------------------------------------------------------------
    // Inheritance
    // ------------------------------------------------------------------

    /// The flattened attribute list of a tuple type: inherited attributes
    /// (supertypes first, in declaration order, depth-first) followed by the
    /// type's own attributes.  Detects name clashes arising from multiple
    /// inheritance.
    pub fn all_attributes(&self, id: TypeId) -> Result<Vec<AttrDef>> {
        let mut out = Vec::new();
        let mut visited = vec![false; self.defs.len()];
        self.collect_attributes(id, &mut out, &mut visited, &mut Vec::new())?;
        Ok(out.into_iter().cloned().collect())
    }

    /// The slot layout of tuple type `id`: its flattened attributes
    /// sorted by name (the order the snapshot writer emits), the one in
    /// slot `k` of every instance at index `k`.  `None` for set and list
    /// types and for tuple types whose attributes do not resolve.
    pub fn layout(&self, id: TypeId) -> Option<&[AttrDef]> {
        self.layouts.get(id.index())?.as_deref()
    }

    /// The slot of attribute `attr` (inherited ones included) in
    /// instances of tuple type `id`, with its definition (whose `ty` is
    /// the attribute's declared domain).
    pub fn slot(&self, id: TypeId, attr: &str) -> Result<(usize, &AttrDef)> {
        let found = match self.layout(id) {
            Some(layout) => layout
                .binary_search_by(|a| a.name.as_str().cmp(attr))
                .ok()
                .map(|slot| (slot, &layout[slot])),
            // No layout: report what keeps the type from having one.
            None => self.all_attributes(id).map(|_| None)?,
        };
        found.ok_or_else(|| GomError::UnknownAttribute {
            ty: self.name(id).to_string(),
            attr: attr.to_string(),
        })
    }

    fn collect_attributes<'a>(
        &'a self,
        id: TypeId,
        out: &mut Vec<&'a AttrDef>,
        visited: &mut [bool],
        stack: &mut Vec<TypeId>,
    ) -> Result<()> {
        if stack.contains(&id) {
            return Err(GomError::InheritanceCycle(self.name(id).to_string()));
        }
        if visited[id.index()] {
            // Diamond inheritance: the shared supertype contributes once.
            return Ok(());
        }
        visited[id.index()] = true;
        stack.push(id);
        let def = self.def(id)?;
        for &sup in def.supertypes() {
            let sup_def = self.def(sup)?;
            if !sup_def.kind.is_tuple() {
                return Err(GomError::InvalidSupertype {
                    ty: self.name(id).to_string(),
                    supertype: self.name(sup).to_string(),
                });
            }
            self.collect_attributes(sup, out, visited, stack)?;
        }
        for attr in def.own_attributes() {
            if out.iter().any(|a| a.name == attr.name) {
                return Err(GomError::DuplicateAttribute {
                    ty: self.name(id).to_string(),
                    attr: attr.name.clone(),
                });
            }
            out.push(attr);
        }
        stack.pop();
        Ok(())
    }

    /// Reflexive-transitive subtype test: is `sub` a subtype of `sup`?
    pub fn is_subtype(&self, sub: TypeId, sup: TypeId) -> bool {
        if sub == sup {
            return true;
        }
        let Ok(def) = self.def(sub) else { return false };
        def.supertypes().iter().any(|&s| self.is_subtype(s, sup))
    }

    /// Does a value of type `actual` conform to declared upper bound
    /// `declared` under strong typing?
    pub fn conforms(&self, actual: TypeRef, declared: TypeRef) -> bool {
        match (actual, declared) {
            (TypeRef::Atomic(a), TypeRef::Atomic(b)) => a == b,
            (TypeRef::Named(a), TypeRef::Named(b)) => self.is_subtype(a, b),
            _ => false,
        }
    }

    /// All *direct and transitive* subtypes of `id`, including `id` itself.
    /// Used to enumerate the extension of a type (instances of subtypes are
    /// members of the supertype's extension).
    pub fn subtype_closure(&self, id: TypeId) -> Vec<TypeId> {
        self.types()
            .map(|(tid, _)| tid)
            .filter(|&tid| self.is_subtype(tid, id))
            .collect()
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Check the whole schema: every declared type is defined, supertypes
    /// are tuple types, the inheritance graph is acyclic, and flattened
    /// attribute lists are clash-free.
    pub fn validate(&self) -> Result<()> {
        for (i, def) in self.defs.iter().enumerate() {
            if def.is_none() {
                return Err(GomError::UnknownType(self.names[i].clone()));
            }
        }
        for (id, def) in self.types() {
            if def.kind.is_tuple() {
                self.all_attributes(id)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn robot_schema() -> Schema {
        let mut s = Schema::new();
        s.define_tuple("MANUFACTURER", [("Name", "STRING"), ("Location", "STRING")])
            .unwrap();
        s.define_tuple(
            "TOOL",
            [("Function", "STRING"), ("ManufacturedBy", "MANUFACTURER")],
        )
        .unwrap();
        s.define_tuple("ARM", [("MountedTool", "TOOL")]).unwrap();
        s.define_tuple("ROBOT", [("Name", "STRING"), ("Arm", "ARM")])
            .unwrap();
        s.define_set("ROBOT_SET", "ROBOT").unwrap();
        s
    }

    #[test]
    fn robot_schema_validates() {
        let s = robot_schema();
        s.validate().unwrap();
        assert_eq!(s.types().count(), 5);
    }

    #[test]
    fn attribute_lookup() {
        let s = robot_schema();
        let robot = s.resolve("ROBOT").unwrap();
        let arm_ty = s.slot(robot, "Arm").unwrap().1.ty;
        assert_eq!(s.ref_name(arm_ty), "ARM");
        assert!(matches!(
            s.slot(robot, "Wheels"),
            Err(GomError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn forward_references_resolve() {
        let mut s = Schema::new();
        // PRODUCT references BASEPART_SET before it is defined.
        s.define_tuple(
            "PRODUCT",
            [("Name", "STRING"), ("Composition", "BASEPART_SET")],
        )
        .unwrap();
        assert!(s.validate().is_err(), "BASEPART_SET still undefined");
        s.define_set("BASEPART_SET", "BASEPART").unwrap();
        s.define_tuple("BASEPART", [("Name", "STRING"), ("Price", "DECIMAL")])
            .unwrap();
        s.validate().unwrap();
    }

    #[test]
    fn duplicate_definition_rejected() {
        let mut s = Schema::new();
        s.define_tuple("A", [("x", "INTEGER")]).unwrap();
        assert!(matches!(
            s.define_tuple("A", []),
            Err(GomError::DuplicateType(_))
        ));
        assert!(matches!(
            s.declare("STRING"),
            Err(GomError::DuplicateType(_))
        ));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut s = Schema::new();
        let err = s
            .define_tuple("A", [("x", "INTEGER"), ("x", "STRING")])
            .unwrap_err();
        assert!(matches!(err, GomError::DuplicateAttribute { .. }));
    }

    #[test]
    fn single_inheritance_flattens() {
        let mut s = Schema::new();
        s.define_tuple("VEHICLE", [("Speed", "INTEGER")]).unwrap();
        s.define_tuple_sub("CAR", ["VEHICLE"], [("Doors", "INTEGER")])
            .unwrap();
        let car = s.resolve("CAR").unwrap();
        let attrs = s.all_attributes(car).unwrap();
        assert_eq!(
            attrs.iter().map(|a| a.name.as_str()).collect::<Vec<_>>(),
            vec!["Speed", "Doors"]
        );
        // Inherited attribute resolves through the subtype.
        assert!(s.slot(car, "Speed").is_ok());
    }

    #[test]
    fn multiple_inheritance_and_diamond() {
        let mut s = Schema::new();
        s.define_tuple("NAMED", [("Name", "STRING")]).unwrap();
        s.define_tuple_sub("PRICED", ["NAMED"], [("Price", "DECIMAL")])
            .unwrap();
        s.define_tuple_sub("TRACKED", ["NAMED"], [("Serial", "INTEGER")])
            .unwrap();
        // Diamond: NAMED is reachable twice but contributes `Name` once.
        s.define_tuple_sub("PART", ["PRICED", "TRACKED"], [("Weight", "FLOAT")])
            .unwrap();
        let part = s.resolve("PART").unwrap();
        let attrs = s.all_attributes(part).unwrap();
        assert_eq!(
            attrs.iter().map(|a| a.name.as_str()).collect::<Vec<_>>(),
            vec!["Name", "Price", "Serial", "Weight"]
        );
    }

    #[test]
    fn layouts_flatten_inheritance_into_name_ordered_slots() {
        let mut s = Schema::new();
        // CAR is defined before its supertype: its layout appears once
        // VEHICLE is defined.
        s.define_tuple_sub("CAR", ["VEHICLE"], [("Doors", "INTEGER")])
            .unwrap();
        let car = s.resolve("CAR").unwrap();
        assert!(s.layout(car).is_none());
        s.define_tuple("VEHICLE", [("Speed", "INTEGER"), ("Brand", "STRING")])
            .unwrap();
        let names: Vec<&str> = s
            .layout(car)
            .unwrap()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, ["Brand", "Doors", "Speed"]);
        assert_eq!(s.slot(car, "Speed").unwrap().0, 2);
        assert!(matches!(
            s.slot(car, "Wheels"),
            Err(GomError::UnknownAttribute { .. })
        ));
        s.define_set("CARS", "CAR").unwrap();
        assert!(s.layout(s.resolve("CARS").unwrap()).is_none());
    }

    #[test]
    fn conflicting_multiple_inheritance_rejected() {
        let mut s = Schema::new();
        s.define_tuple("A", [("x", "INTEGER")]).unwrap();
        s.define_tuple("B", [("x", "STRING")]).unwrap();
        s.define_tuple_sub("C", ["A", "B"], []).unwrap();
        let c = s.resolve("C").unwrap();
        assert!(matches!(
            s.all_attributes(c),
            Err(GomError::DuplicateAttribute { .. })
        ));
    }

    #[test]
    fn inheritance_cycle_detected() {
        let mut s = Schema::new();
        s.define_tuple_sub("A", ["B"], []).unwrap();
        s.define_tuple_sub("B", ["A"], []).unwrap();
        let a = s.resolve("A").unwrap();
        assert!(matches!(
            s.all_attributes(a),
            Err(GomError::InheritanceCycle(_))
        ));
        assert!(s.validate().is_err());
    }

    #[test]
    fn subtype_relation() {
        let mut s = Schema::new();
        s.define_tuple("A", []).unwrap();
        s.define_tuple_sub("B", ["A"], []).unwrap();
        s.define_tuple_sub("C", ["B"], []).unwrap();
        let (a, b, c) = (
            s.resolve("A").unwrap(),
            s.resolve("B").unwrap(),
            s.resolve("C").unwrap(),
        );
        assert!(s.is_subtype(c, a));
        assert!(s.is_subtype(b, b));
        assert!(!s.is_subtype(a, c));
        assert_eq!(s.subtype_closure(a).len(), 3);
        assert_eq!(s.subtype_closure(c), vec![c]);
    }

    #[test]
    fn atomic_supertype_rejected() {
        let mut s = Schema::new();
        assert!(matches!(
            s.define_tuple_sub("A", ["STRING"], []),
            Err(GomError::InvalidSupertype { .. })
        ));
    }

    #[test]
    fn set_of_atomic_elements() {
        let mut s = Schema::new();
        s.define_set("INTS", "INTEGER").unwrap();
        let id = s.resolve("INTS").unwrap();
        assert_eq!(
            s.def(id).unwrap().kind.element(),
            Some(TypeRef::Atomic(AtomicType::Integer))
        );
        s.validate().unwrap();
    }

    #[test]
    fn list_types() {
        let mut s = Schema::new();
        s.define_tuple("POINT", [("x", "FLOAT"), ("y", "FLOAT")])
            .unwrap();
        s.define_list("POLYGON", "POINT").unwrap();
        let id = s.resolve("POLYGON").unwrap();
        assert!(s.def(id).unwrap().kind.is_list());
        s.validate().unwrap();
    }
}
