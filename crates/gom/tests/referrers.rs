//! The referrer index of [`ObjectBase`] against a brute-force scan: after
//! any sequence of mutations, snapshot round trips and clones,
//! `referrers(x)` lists exactly the tuple attributes holding `Ref(x)`.

use asr_gom::{snapshot, ObjectBase, Oid, Schema, Value};
use proptest::prelude::*;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.define_tuple(
        "Owner",
        [
            ("Parts", "PartSET"),
            ("Spare", "PartSET"),
            ("Boss", "Owner"),
        ],
    )
    .unwrap();
    s.define_tuple_sub("SubOwner", ["Owner"], [("Name", "STRING")])
        .unwrap();
    s.define_set("PartSET", "Part").unwrap();
    s.define_tuple("Part", [("Name", "STRING")]).unwrap();
    s.validate().unwrap();
    s
}

/// Every `(owner, attribute)` holding `Ref(target)`, found the slow way.
fn scan(base: &ObjectBase, target: Oid) -> Vec<(Oid, String)> {
    let mut out = Vec::new();
    for obj in base.objects() {
        let layout = base.schema().layout(obj.ty).unwrap_or_default();
        for (attr, value) in layout.iter().zip(obj.slots()) {
            if *value == Value::Ref(target) {
                out.push((obj.oid, attr.name.clone()));
            }
        }
    }
    out
}

fn pick(pool: &[Oid], i: u8) -> Option<Oid> {
    (!pool.is_empty()).then(|| pool[i as usize % pool.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn referrers_equal_a_brute_force_scan(
        ops in proptest::collection::vec((0u8..9, any::<u8>(), any::<u8>()), 1..60),
    ) {
        let mut base = ObjectBase::new(schema());
        // Every OID ever issued, deleted ones included: the index must
        // agree with the scan on dangling targets too.
        let mut ever: Vec<Oid> = Vec::new();
        for (kind, a, b) in ops {
            let live = |ty: &str| -> Vec<Oid> {
                let ty = base.schema().require(ty).unwrap();
                base.extent_closure(ty)
            };
            let (owners, sets) = (live("Owner"), live("PartSET"));
            let set_attr = if a & 0x80 == 0 { "Parts" } else { "Spare" };
            match kind {
                0 | 1 => {
                    let ty = ["Owner", "SubOwner", "PartSET", "Part"][b as usize % 4];
                    ever.push(base.instantiate(ty).unwrap());
                }
                // Attach a set: two owners may share one, one owner may
                // hold one set under both attributes, re-pointing replaces.
                2 | 3 => {
                    if let (Some(o), Some(s)) = (pick(&owners, a), pick(&sets, b)) {
                        base.set_attribute(o, set_attr, Value::Ref(s)).unwrap();
                    }
                }
                4 => {
                    if let Some(o) = pick(&owners, a) {
                        base.set_attribute(o, set_attr, Value::Null).unwrap();
                    }
                }
                5 => {
                    if let (Some(o), Some(boss)) = (pick(&owners, a), pick(&owners, b)) {
                        base.set_attribute(o, "Boss", Value::Ref(boss)).unwrap();
                    }
                }
                6 => {
                    let all: Vec<Oid> = base.objects().map(|o| o.oid).collect();
                    if let Some(victim) = pick(&all, a) {
                        base.delete(victim).unwrap();
                    }
                }
                // Dangling references round-trip as the live base holds
                // them, indexed.
                7 => base = snapshot::read_base(&snapshot::write_base(&base)).unwrap(),
                _ => base = base.clone(),
            }
            for &x in &ever {
                let indexed: Vec<(Oid, String)> = base
                    .referrers(x)
                    .map(|(owner, attr)| (owner, attr.to_string()))
                    .collect();
                prop_assert_eq!(indexed, scan(&base, x), "referrers of {}", x);
            }
        }
    }
}
