//! The OID-ordered object table of [`ObjectBase`] against a plain
//! `BTreeMap<Oid, _>` reference model.  Random histories of
//! instantiations, attribute assignments, set inserts and removals, list
//! appends, deletions (one at a time, and half of the base at once, which
//! leaves tombstones and then compacts them) and restorations (below the
//! highest OID, over a tombstone or into a compacted gap, and above it,
//! leaving a gap), with text snapshot round trips and clones between.
//! After every step the base must agree with the model on `objects()`,
//! `object(oid)`, `extent`, `referrers`, the next OID it issues and the
//! text snapshot.

use std::collections::{BTreeMap, BTreeSet};

use asr_gom::snapshot::{encode_value, escape, write_base, write_schema};
use asr_gom::{snapshot, Object, ObjectBase, ObjectBody, Oid, Schema, TypeId, TypeRef, Value};
use proptest::prelude::*;

const TYPES: [&str; 5] = ["Owner", "SubOwner", "PartSET", "Part", "TagLIST"];

fn schema() -> Schema {
    let mut s = Schema::new();
    s.define_tuple(
        "Owner",
        [
            ("Parts", "PartSET"),
            ("Boss", "Owner"),
            ("Name", "STRING"),
            ("Rank", "INTEGER"),
        ],
    )
    .unwrap();
    s.define_tuple_sub("SubOwner", ["Owner"], [("Tags", "TagLIST")])
        .unwrap();
    s.define_set("PartSET", "Part").unwrap();
    s.define_tuple("Part", [("Name", "STRING")]).unwrap();
    s.define_list("TagLIST", "STRING").unwrap();
    s.validate().unwrap();
    s
}

#[derive(Debug, Clone, PartialEq)]
enum Body {
    Tuple(Vec<Value>),
    Set(BTreeSet<Value>),
    List(Vec<Value>),
}

impl Body {
    fn of(obj: &Object<'_>) -> Body {
        match obj.body {
            ObjectBody::Tuple(slots) => Body::Tuple(slots.to_vec()),
            ObjectBody::Set(members) => Body::Set(members.iter().cloned().collect()),
            ObjectBody::List(elems) => Body::List(elems.to_vec()),
        }
    }

    fn values(&self) -> Vec<&Value> {
        match self {
            Body::Tuple(values) | Body::List(values) => values.iter().collect(),
            Body::Set(members) => members.iter().collect(),
        }
    }
}

/// The object base as a map from OID to type and body.
#[derive(Debug, Clone)]
struct Model {
    schema: Schema,
    objects: BTreeMap<Oid, (TypeId, Body)>,
    /// Each type's objects, in creation order.
    extents: BTreeMap<TypeId, Vec<Oid>>,
    /// The OID the next instantiation gets.
    next: u64,
}

impl Model {
    fn new(schema: Schema) -> Self {
        Model {
            schema,
            objects: BTreeMap::new(),
            extents: BTreeMap::new(),
            next: 0,
        }
    }

    fn create(&mut self, oid: Oid, ty: TypeId) {
        let def = self.schema.def(ty).unwrap();
        let body = if def.kind.is_tuple() {
            Body::Tuple(vec![Value::Null; self.schema.layout(ty).unwrap().len()])
        } else if def.kind.is_set() {
            Body::Set(BTreeSet::new())
        } else {
            Body::List(Vec::new())
        };
        self.objects.insert(oid, (ty, body));
        self.extents.entry(ty).or_default().push(oid);
        self.next = self.next.max(oid.as_raw() + 1);
    }

    fn delete(&mut self, oid: Oid) {
        let (ty, _) = self.objects.remove(&oid).unwrap();
        self.extents.get_mut(&ty).unwrap().retain(|&o| o != oid);
    }

    fn body(&mut self, oid: Oid) -> &mut Body {
        &mut self.objects.get_mut(&oid).unwrap().1
    }

    /// A reload lists each extent in OID order and resumes the generator
    /// past every OID named, dangling references included.
    fn reloaded(&mut self) {
        for oids in self.extents.values_mut() {
            oids.sort_unstable();
        }
        let named = (self.objects.iter()).flat_map(|(oid, (_, body))| {
            let targets = body.values().into_iter().filter_map(Value::as_ref_oid);
            std::iter::once(*oid).chain(targets.collect::<Vec<_>>())
        });
        self.next = named.map(|oid| oid.as_raw() + 1).max().unwrap_or(0);
    }

    /// The live objects of a type conforming to `ty`.
    fn live(&self, ty: TypeId) -> Vec<Oid> {
        (self.objects.iter())
            .filter(|(_, (t, _))| self.schema.is_subtype(*t, ty))
            .map(|(oid, _)| *oid)
            .collect()
    }

    fn referrers(&self, target: Oid) -> Vec<(Oid, String)> {
        let mut out = Vec::new();
        for (&owner, (ty, body)) in &self.objects {
            if let Body::Tuple(slots) = body {
                let layout = self.schema.layout(*ty).unwrap();
                for (attr, value) in layout.iter().zip(slots) {
                    if *value == Value::Ref(target) {
                        out.push((owner, attr.name.clone()));
                    }
                }
            }
        }
        out
    }

    /// The gom text snapshot of the model, written the long way.
    fn text(&self) -> String {
        let mut out = format!("GOMSNAP 1\n{}", write_schema(&self.schema));
        for (oid, (ty, body)) in &self.objects {
            out += &format!("O {oid} {}", escape(self.schema.name(*ty)));
            match body {
                Body::Tuple(slots) => {
                    out += " TUPLE";
                    let layout = self.schema.layout(*ty).unwrap();
                    for (attr, value) in layout.iter().zip(slots) {
                        if !value.is_null() {
                            out += &format!(" {}={}", escape(&attr.name), encode_value(value));
                        }
                    }
                }
                Body::Set(_) | Body::List(_) => {
                    out += if matches!(body, Body::Set(_)) {
                        " SET"
                    } else {
                        " LIST"
                    };
                    for value in body.values() {
                        out += &format!(" {}", encode_value(value));
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

fn pick<T: Clone>(pool: &[T], i: u8) -> Option<T> {
    (!pool.is_empty()).then(|| pool[i as usize % pool.len()].clone())
}

fn check(base: &ObjectBase, model: &Model, ever: &[Oid]) {
    let listed: Vec<(Oid, TypeId, Body)> = (base.objects())
        .map(|o| (o.oid, o.ty, Body::of(&o)))
        .collect();
    let want: Vec<(Oid, TypeId, Body)> = (model.objects.iter())
        .map(|(oid, (ty, body))| (*oid, *ty, body.clone()))
        .collect();
    prop_assert_eq!(listed, want, "objects()");
    prop_assert_eq!(base.object_count(), model.objects.len());
    let never = [Oid::from_raw(model.next), Oid::from_raw(model.next + 7)];
    for &oid in ever.iter().chain(&never) {
        let got = base.object(oid).ok().map(|o| (o.ty, Body::of(&o)));
        prop_assert_eq!(got, model.objects.get(&oid).cloned(), "object({})", oid);
        let referrers: Vec<(Oid, String)> = (base.referrers(oid))
            .map(|(owner, attr)| (owner, attr.to_string()))
            .collect();
        prop_assert_eq!(referrers, model.referrers(oid), "referrers({})", oid);
    }
    for (ty, _) in model.schema.types() {
        let want = model.extents.get(&ty).map_or(&[][..], Vec::as_slice);
        prop_assert_eq!(base.extent(ty), want, "extent({})", model.schema.name(ty));
    }
    prop_assert_eq!(write_base(base), model.text());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_table_matches_a_btreemap_model(
        ops in proptest::collection::vec((0u8..11, any::<u8>(), any::<u8>()), 1..120),
    ) {
        let mut base = ObjectBase::new(schema());
        let mut model = Model::new(schema());
        let types = schema();
        let ty = |name: &str| types.require(name).unwrap();
        let (owner, set, part, list) = (ty("Owner"), ty("PartSET"), ty("Part"), ty("TagLIST"));
        // Every OID ever issued or restored, deleted ones included, with
        // its type.
        let mut ever: Vec<(Oid, &str)> = Vec::new();
        for (kind, a, b) in ops {
            match kind {
                // A batch of instantiations.
                0 | 1 => {
                    for k in 0..=b % 24 {
                        let name = TYPES[(a as usize + k as usize) % TYPES.len()];
                        let oid = base.instantiate(name).unwrap();
                        prop_assert_eq!(oid.as_raw(), model.next, "instantiate");
                        model.create(oid, ty(name));
                        ever.push((oid, name));
                    }
                }
                2 => {
                    let tuples: Vec<Oid> = [owner, part].iter().flat_map(|&t| model.live(t)).collect();
                    if let Some(o) = pick(&tuples, a) {
                        let t = model.objects[&o].0;
                        let layout = model.schema.layout(t).unwrap();
                        let slot = b as usize % layout.len();
                        let value = match layout[slot].ty {
                            TypeRef::Named(target) => match pick(&model.live(target), b / 2) {
                                Some(target) if b % 3 != 0 => Value::Ref(target),
                                _ => Value::Null,
                            },
                            TypeRef::Atomic(asr_gom::AtomicType::Integer) => Value::Integer(b.into()),
                            TypeRef::Atomic(_) => Value::string(format!("v {b}")),
                        };
                        base.set_attribute(o, &layout[slot].name.clone(), value.clone()).unwrap();
                        let Body::Tuple(slots) = model.body(o) else { unreachable!() };
                        slots[slot] = value;
                    }
                }
                3 => {
                    if let (Some(s), Some(p)) = (pick(&model.live(set), a), pick(&model.live(part), b)) {
                        let fresh = base.insert_into_set(s, Value::Ref(p)).unwrap();
                        let Body::Set(members) = model.body(s) else { unreachable!() };
                        prop_assert_eq!(fresh, members.insert(Value::Ref(p)), "insert");
                    }
                }
                4 => {
                    if let Some(s) = pick(&model.live(set), a) {
                        let Body::Set(members) = model.body(s) else { unreachable!() };
                        let members: Vec<Value> = members.iter().cloned().collect();
                        let value = match pick(&members, b) {
                            Some(member) if b % 4 != 0 => member,
                            _ => pick(&ever, b).map_or(Value::Null, |(oid, _)| Value::Ref(oid)),
                        };
                        let gone = base.remove_from_set(s, &value).unwrap();
                        let Body::Set(members) = model.body(s) else { unreachable!() };
                        prop_assert_eq!(gone, members.remove(&value), "remove");
                    }
                }
                5 => {
                    if let Some(l) = pick(&model.live(list), a) {
                        let value = Value::string(format!("t{b}"));
                        base.push_to_list(l, value.clone()).unwrap();
                        let Body::List(elems) = model.body(l) else { unreachable!() };
                        elems.push(value);
                    }
                }
                6 => {
                    let all: Vec<Oid> = model.objects.keys().copied().collect();
                    if let Some(victim) = pick(&all, a) {
                        base.delete(victim).unwrap();
                        model.delete(victim);
                    }
                }
                // Every other live object at once: tombstones, then a
                // compaction once they outnumber the live entries.
                7 => {
                    let all: Vec<Oid> = model.objects.keys().copied().collect();
                    for &victim in all.iter().skip(a as usize % 2).step_by(2) {
                        base.delete(victim).unwrap();
                        model.delete(victim);
                    }
                }
                // A deleted object restored under its OID and type, below
                // the highest OID, or a fresh OID restored past a gap.
                8 => {
                    let dead: Vec<(Oid, &str)> = (ever.iter())
                        .filter(|(o, _)| !model.objects.contains_key(o))
                        .copied()
                        .collect();
                    let (oid, name) = match pick(&dead, a) {
                        Some(dead) if b % 4 != 0 => dead,
                        _ => {
                            let name = TYPES[b as usize % TYPES.len()];
                            ever.push((Oid::from_raw(model.next + u64::from(b % 3)), name));
                            ever[ever.len() - 1]
                        }
                    };
                    base.restore_object(oid, name).unwrap();
                    prop_assert!(base.restore_object(oid, name).is_err(), "restored {} twice", oid);
                    model.create(oid, ty(name));
                }
                9 => {
                    base = snapshot::read_base(&write_base(&base)).unwrap();
                    model.reloaded();
                }
                _ => base = base.clone(),
            }
            let oids: Vec<Oid> = ever.iter().map(|&(oid, _)| oid).collect();
            check(&base, &model, &oids);
        }
        let oid = base.instantiate("Part").unwrap();
        prop_assert_eq!(oid.as_raw(), model.next, "the generator resumes past every OID");
    }
}
