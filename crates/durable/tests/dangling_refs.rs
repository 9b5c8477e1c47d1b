//! A database whose objects still reference a deleted object reopens
//! after a checkpoint.  References are uni-directional (Section 2.2), so
//! deleting a referenced object leaves its referrers dangling; recovery
//! must restore the base as the live one held it: the reference kept,
//! indexed as a referrer, read as `NULL` by navigation, and never handed
//! to a later instantiation.

use asr_core::{AsrConfig, Cell, Database, Decomposition, Extension};
use asr_durable::{DurableDatabase, FlushPolicy, MemStorage};
use asr_gom::{ObjectBase, Oid, Schema, Value};

const PATH: &str = "Division.Manufactures.Composition.Name";

fn company() -> Database {
    let mut s = Schema::new();
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
    s.define_tuple("BasePart", [("Name", "STRING")]).unwrap();
    s.validate().unwrap();
    Database::from_base(ObjectBase::new(s))
}

/// A durable company database with a Full/binary ASR on [`PATH`]: one
/// division manufacturing one product made of one part.  Returns the
/// database and the OIDs of the division, its product set and the
/// product.
fn staged(disk: &MemStorage) -> (DurableDatabase<MemStorage>, Oid, Oid, Oid) {
    let mut db =
        DurableDatabase::create(disk.clone(), company(), FlushPolicy::EveryRecord).unwrap();
    let d = db.instantiate("Division").unwrap();
    db.set_attribute(d, "Name", Value::string("Auto")).unwrap();
    let ps = db.instantiate("ProdSET").unwrap();
    db.set_attribute(d, "Manufactures", Value::Ref(ps)).unwrap();
    let prod = db.instantiate("Product").unwrap();
    db.set_attribute(prod, "Name", Value::string("560 SEC"))
        .unwrap();
    db.insert_into_set(ps, Value::Ref(prod)).unwrap();
    let bs = db.instantiate("BasePartSET").unwrap();
    db.set_attribute(prod, "Composition", Value::Ref(bs))
        .unwrap();
    let part = db.instantiate("BasePart").unwrap();
    db.set_attribute(part, "Name", Value::string("Door"))
        .unwrap();
    db.insert_into_set(bs, Value::Ref(part)).unwrap();
    db.create_asr_on(
        PATH,
        AsrConfig {
            extension: Extension::Full,
            decomposition: Decomposition::binary(3),
            keep_set_oids: false,
        },
    )
    .unwrap();
    (db, d, ps, prod)
}

/// Who answers `Name = "Door"` backwards along the whole path.
fn door_divisions(db: &Database) -> Vec<Oid> {
    let (id, _) = db.asrs().next().unwrap();
    let mut hits = db
        .backward(id, 0, 3, &Cell::Value(Value::string("Door")))
        .unwrap();
    hits.sort();
    hits
}

/// Checkpoint `live`, reopen the storage, and check the recovered
/// database is the live one: the same text, the same answers, and a
/// fresh OID past `dangling`.
fn reopens_as_it_was(mut live: DurableDatabase<MemStorage>, disk: &MemStorage, dangling: Oid) {
    live.checkpoint().unwrap();
    let text = live.database().save_to_string();
    let answers = door_divisions(live.database());
    drop(live);
    let mut reopened = DurableDatabase::open(disk.clone()).unwrap();
    assert_eq!(reopened.database().save_to_string(), text);
    assert_eq!(door_divisions(reopened.database()), answers);
    for (_, asr) in reopened.database().asrs() {
        asr.check_consistency().unwrap();
    }
    let fresh = reopened.instantiate("Product").unwrap();
    assert!(
        fresh > dangling,
        "{fresh} would revive the dangling reference to {dangling}"
    );
}

#[test]
fn a_dangling_attribute_reference_survives_a_checkpoint() {
    let disk = MemStorage::new();
    let (mut db, d, ps, _) = staged(&disk);
    db.delete_object(ps).unwrap();
    assert_eq!(door_divisions(db.database()), Vec::<Oid>::new());
    reopens_as_it_was(db, &disk, ps);

    let db = DurableDatabase::open(disk).unwrap();
    let base = db.database().base();
    assert_eq!(
        base.get_attribute(d, "Manufactures").unwrap(),
        Value::Ref(ps)
    );
    assert_eq!(base.deref_attribute(d, "Manufactures").unwrap(), None);
    let referrers: Vec<_> = base.referrers(ps).collect();
    assert_eq!(referrers, vec![(d, "Manufactures")]);
}

#[test]
fn a_dangling_set_element_survives_a_checkpoint() {
    let disk = MemStorage::new();
    let (mut db, d, ps, prod) = staged(&disk);
    assert_eq!(door_divisions(db.database()), vec![d]);
    db.delete_object(prod).unwrap();
    reopens_as_it_was(db, &disk, prod);

    let db = DurableDatabase::open(disk).unwrap();
    let base = db.database().base();
    let set = base.object(ps).unwrap();
    assert_eq!(set.elements(), [Value::Ref(prod)]);
    assert_eq!(base.element_oids(ps).unwrap(), Vec::<Oid>::new());
}
