//! The object table: every object of a base in one vector, in OID order.
//!
//! The paper clusters each type's objects in their own file and reaches
//! an object by its OID with one page access (Section 5.5).  The base
//! keeps them in memory the same way: one vector of 16-byte entries in
//! ascending OID order.  A lookup guesses the position `oid − first`,
//! which is exact while OIDs are issued densely, and otherwise binary
//! searches the entries below the guess (an entry's OID is never below
//! `first` plus its position).  A tuple's slots sit together in one slot
//! arena shared by the whole table, so a tuple is no allocation of its
//! own whatever its slot count; a set or list is one vector of its
//! elements, a set's ascending and duplicate-free.  A deletion leaves a
//! tombstone, so the positions after it keep their guess; once
//! tombstones outnumber the live entries the table is compacted, as
//! every load compacts it.

use crate::error::{GomError, Result};
use crate::object::{Object, ObjectBody};
use crate::oid::Oid;
use crate::schema::Schema;
use crate::types::{TypeId, TypeKind};
use crate::value::Value;

/// What an instance of a type is in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// A tuple with this many slots.
    Tuple(usize),
    /// A set: one ascending, duplicate-free vector.
    Set,
    /// A list: one vector in insertion order.
    List,
}

/// One object, or the tombstone of a deleted one.
#[derive(Debug, Clone, Copy)]
struct Entry {
    oid: Oid,
    /// The object's type; [`DEAD`] for a tombstone.
    ty: TypeId,
    /// A tuple's first slot in the arena, or a collection's index.
    at: u32,
}

/// The type of a tombstone: no schema has `u32::MAX` types.
const DEAD: TypeId = TypeId(u32::MAX);

/// Tombstones are compacted away once they outnumber the live entries
/// of a table at least this long.
const COMPACT_MIN: usize = 64;

/// A mutable view of one object's body.
pub(crate) enum BodyMut<'a> {
    Tuple(&'a mut [Value]),
    Set(&'a mut Vec<Value>),
    List(&'a mut Vec<Value>),
}

/// The OID-ordered object table of one base.
#[derive(Debug, Clone)]
pub(crate) struct ObjectTable {
    /// [`Shape`] of each type of the schema, by type index.
    shapes: Vec<Shape>,
    /// Live objects and tombstones, OIDs strictly ascending.
    entries: Vec<Entry>,
    /// Every tuple's slots, each tuple's contiguous from its `at`.
    slots: Vec<Value>,
    /// Every set's and list's elements.
    collections: Vec<Vec<Value>>,
    /// Entries that are not tombstones.
    live: usize,
}

/// `n` as an entry's body index.  The arena would hold 64 GiB of slots
/// (or the collections 96 GiB of vectors) before this could fail.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("an object table indexes under 2^32 bodies")
}

impl ObjectTable {
    /// An empty table for `schema`'s types, with room for `objects`
    /// entries.
    pub(crate) fn with_capacity(schema: &Schema, objects: usize) -> Self {
        let shapes = (0..schema.len())
            .map(|k| {
                let ty = TypeId::from_index(k);
                match schema.def(ty).map(|def| &def.kind) {
                    Ok(TypeKind::Tuple { .. }) => {
                        Shape::Tuple(schema.layout(ty).map_or(0, <[_]>::len))
                    }
                    Ok(TypeKind::Set { .. }) => Shape::Set,
                    Ok(TypeKind::List { .. }) => Shape::List,
                    // Declared but never defined: no instances.
                    Err(_) => Shape::Tuple(0),
                }
            })
            .collect();
        ObjectTable {
            shapes,
            entries: Vec::with_capacity(objects),
            slots: Vec::new(),
            collections: Vec::new(),
            live: 0,
        }
    }

    /// What instances of `ty` are.
    fn shape(&self, ty: TypeId) -> Shape {
        self.shapes
            .get(ty.index())
            .copied()
            .unwrap_or(Shape::Tuple(0))
    }

    /// Live objects.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// The highest OID the table has an entry for, tombstones included.
    pub(crate) fn last_oid(&self) -> Option<Oid> {
        self.entries.last().map(|e| e.oid)
    }

    /// The position of `oid`'s entry, tombstone or not.
    fn position(&self, oid: Oid) -> Option<usize> {
        let first = self.entries.first()?.oid.as_raw();
        let guess = usize::try_from(oid.as_raw().checked_sub(first)?).unwrap_or(usize::MAX);
        match self.entries.get(guess) {
            Some(e) if e.oid == oid => Some(guess),
            // OIDs ascend strictly, so the entry at position `p` holds an
            // OID of at least `first + p`: `oid` sits at or below `guess`.
            _ => {
                let below = &self.entries[..guess.min(self.entries.len())];
                below.binary_search_by_key(&oid, |e| e.oid).ok()
            }
        }
    }

    /// The position of `oid`'s entry if the object is live.
    fn live_position(&self, oid: Oid) -> Option<usize> {
        self.position(oid).filter(|&at| self.entries[at].ty != DEAD)
    }

    fn view(&self, e: &Entry) -> Object<'_> {
        let at = e.at as usize;
        let body = match self.shape(e.ty) {
            Shape::Tuple(n) => ObjectBody::Tuple(&self.slots[at..at + n]),
            Shape::Set => ObjectBody::Set(&self.collections[at]),
            Shape::List => ObjectBody::List(&self.collections[at]),
        };
        Object {
            oid: e.oid,
            ty: e.ty,
            body,
        }
    }

    /// The live object `oid`.
    pub(crate) fn get(&self, oid: Oid) -> Option<Object<'_>> {
        self.live_position(oid)
            .map(|at| self.view(&self.entries[at]))
    }

    /// The type of the live object `oid`.
    pub(crate) fn type_of(&self, oid: Oid) -> Option<TypeId> {
        self.live_position(oid).map(|at| self.entries[at].ty)
    }

    /// Every live object, ascending OID.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Object<'_>> + Clone {
        (self.entries.iter())
            .filter(|e| e.ty != DEAD)
            .map(|e| self.view(e))
    }

    /// The body of the live object `oid`, with its type, for update.
    pub(crate) fn body_mut(&mut self, oid: Oid) -> Option<(TypeId, BodyMut<'_>)> {
        let e = self.entries[self.live_position(oid)?];
        Some((e.ty, self.body_at(e)))
    }

    fn body_at(&mut self, e: Entry) -> BodyMut<'_> {
        let at = e.at as usize;
        match self.shape(e.ty) {
            Shape::Tuple(n) => BodyMut::Tuple(&mut self.slots[at..at + n]),
            Shape::Set => BodyMut::Set(&mut self.collections[at]),
            Shape::List => BodyMut::List(&mut self.collections[at]),
        }
    }

    /// A fresh body for an instance of `ty`: `NULL` slots or an empty
    /// collection.
    fn fresh_entry(&mut self, oid: Oid, ty: TypeId) -> Entry {
        let at = match self.shape(ty) {
            Shape::Tuple(n) => {
                let at = self.slots.len();
                self.slots.resize(at + n, Value::Null);
                at
            }
            Shape::Set | Shape::List => {
                self.collections.push(Vec::new());
                self.collections.len() - 1
            }
        };
        Entry {
            oid,
            ty,
            at: index(at),
        }
    }

    /// File a fresh instance of `ty` under `oid`, which must exceed every
    /// OID of the table, and hand out its body to fill.
    pub(crate) fn append(&mut self, oid: Oid, ty: TypeId) -> BodyMut<'_> {
        debug_assert!(self.last_oid().is_none_or(|last| last < oid));
        let e = self.fresh_entry(oid, ty);
        self.entries.push(e);
        self.live += 1;
        self.body_at(e)
    }

    /// File a fresh instance of `ty` under `oid`, anywhere in OID order:
    /// past the end, over its own tombstone, or shifted in between.
    pub(crate) fn insert(&mut self, oid: Oid, ty: TypeId) -> Result<()> {
        if self.last_oid().is_none_or(|last| last < oid) {
            self.append(oid, ty);
            return Ok(());
        }
        let found = self.entries.binary_search_by_key(&oid, |e| e.oid);
        if matches!(found, Ok(at) if self.entries[at].ty != DEAD) {
            return Err(GomError::DuplicateObject(oid));
        }
        let e = self.fresh_entry(oid, ty);
        match found {
            Ok(at) => self.entries[at] = e,
            Err(at) => self.entries.insert(at, e),
        }
        self.live += 1;
        Ok(())
    }

    /// Delete the live object `oid`, leaving a tombstone, and return its
    /// type.  Its slots are reset (their strings freed) and its
    /// collection released.
    pub(crate) fn remove(&mut self, oid: Oid) -> Option<TypeId> {
        let at = self.live_position(oid)?;
        let e = self.entries[at];
        match self.body_at(e) {
            BodyMut::Tuple(slots) => slots.fill(Value::Null),
            BodyMut::Set(elems) | BodyMut::List(elems) => *elems = Vec::new(),
        }
        self.entries[at].ty = DEAD;
        self.live -= 1;
        if self.entries.len() >= COMPACT_MIN && self.live * 2 < self.entries.len() {
            self.compact();
        }
        Some(e.ty)
    }

    /// Release the spare capacity a build left.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
        self.slots.shrink_to_fit();
        self.collections.shrink_to_fit();
    }

    /// Drop every tombstone and the bodies no live entry uses.
    fn compact(&mut self) {
        let mut slots = Vec::new();
        let mut collections = Vec::new();
        self.entries.retain(|e| e.ty != DEAD);
        for e in &mut self.entries {
            let at = e.at as usize;
            e.at = match self.shapes.get(e.ty.index()).copied() {
                Some(Shape::Tuple(n)) => {
                    let moved = slots.len();
                    let live = self.slots[at..at + n].iter_mut();
                    slots.extend(live.map(|v| std::mem::replace(v, Value::Null)));
                    index(moved)
                }
                _ => {
                    collections.push(std::mem::take(&mut self.collections[at]));
                    index(collections.len() - 1)
                }
            };
        }
        self.slots = slots;
        self.collections = collections;
    }
}
