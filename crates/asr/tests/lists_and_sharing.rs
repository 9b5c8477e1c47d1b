//! End-to-end coverage for two paper footnotes:
//!
//! * **lists** — "the access support on ordered collection, i.e., lists,
//!   is analogous to sets" (Section 2.1): paths through list-valued
//!   attributes must build, query and maintain identically;
//! * **sharing** (Section 5.4): two full-extension ASRs whose paths share
//!   a middle segment, decomposed at the dictated cut points, store the
//!   shared partition with identical content — the precondition for
//!   physical sharing.

use asr_core::partition::StoredPartition;
use asr_core::sharing::{shared_partition_savings, shared_segments};
use asr_core::{AccessSupportRelation, AsrConfig, Cell, Database, Decomposition, Extension, Row};
use asr_gom::{PathExpression, Schema, Value};
use asr_pagesim::{IoSnapshot, IoStats};

// ----------------------------------------------------------------------
// Lists
// ----------------------------------------------------------------------

fn playlist_db() -> (Database, PathExpression) {
    let mut s = Schema::new();
    s.define_tuple("USER", [("Name", "STRING"), ("Playlist", "TRACKLIST")])
        .unwrap();
    s.define_list("TRACKLIST", "TRACK").unwrap();
    s.define_tuple("TRACK", [("Title", "STRING")]).unwrap();
    s.validate().unwrap();
    let path = PathExpression::parse(&s, "USER.Playlist.Title").unwrap();
    (Database::new(s), path)
}

#[test]
fn list_valued_paths_are_set_occurrences() {
    let (_, path) = playlist_db();
    assert_eq!(path.set_occurrences(), 1, "lists count as set occurrences");
    assert_eq!(path.len(), 2);
}

#[test]
fn asr_over_a_list_path_builds_and_queries() {
    // Populate through the raw object base (list pushes are a base-level
    // operation; the paper's maintained update `ins_i` is set-specific).
    let (db0, path) = playlist_db();
    let mut base = db0.base().clone();
    let alice = base.instantiate("USER").unwrap();
    base.set_attribute(alice, "Name", Value::string("Alice"))
        .unwrap();
    let list = base.instantiate("TRACKLIST").unwrap();
    base.set_attribute(alice, "Playlist", Value::Ref(list))
        .unwrap();
    let t1 = base.instantiate("TRACK").unwrap();
    base.set_attribute(t1, "Title", Value::string("Blue Train"))
        .unwrap();
    let t2 = base.instantiate("TRACK").unwrap();
    base.set_attribute(t2, "Title", Value::string("So What"))
        .unwrap();
    base.push_to_list(list, Value::Ref(t1)).unwrap();
    base.push_to_list(list, Value::Ref(t2)).unwrap();
    base.push_to_list(list, Value::Ref(t1)).unwrap(); // lists allow duplicates

    for ext in Extension::ALL {
        let asr = AccessSupportRelation::build(
            &base,
            path.clone(),
            AsrConfig::binary(ext, &path),
            IoStats::new_handle(),
        )
        .unwrap();
        asr.check_consistency().unwrap();
        if ext.supports(0, 2, 2) {
            let hits = asr
                .backward(0, 2, &Cell::Value(Value::string("Blue Train")))
                .unwrap();
            assert_eq!(hits, vec![alice], "{ext}");
        }
        // Duplicate list entries collapse under relation set semantics.
        assert_eq!(asr.full_rows().count(), 2, "{ext}");
    }
}

#[test]
fn list_reattachment_is_maintained_incrementally() {
    let (db0, path) = playlist_db();
    let mut base = db0.base().clone();
    let alice = base.instantiate("USER").unwrap();
    let list = base.instantiate("TRACKLIST").unwrap();
    let t1 = base.instantiate("TRACK").unwrap();
    base.set_attribute(t1, "Title", Value::string("Blue Train"))
        .unwrap();
    base.push_to_list(list, Value::Ref(t1)).unwrap();

    let mut db = Database::from_base(base);
    let id = db
        .create_asr(path.clone(), AsrConfig::binary(Extension::Full, &path))
        .unwrap();
    assert!(db
        .backward(id, 0, 2, &Cell::Value(Value::string("Blue Train")))
        .unwrap()
        .is_empty());

    // Attaching a (pre-populated) list is an ordinary attribute
    // assignment — fully maintained.
    db.set_attribute(alice, "Playlist", Value::Ref(list))
        .unwrap();
    let reference = AccessSupportRelation::build(
        db.base(),
        path.clone(),
        AsrConfig::binary(Extension::Full, &path),
        IoStats::new_handle(),
    )
    .unwrap();
    assert!(db.asr(id).unwrap().full_rows().eq(reference.full_rows()));
    assert_eq!(
        db.backward(id, 0, 2, &Cell::Value(Value::string("Blue Train")))
            .unwrap(),
        vec![alice]
    );
}

// ----------------------------------------------------------------------
// Sharing
// ----------------------------------------------------------------------

/// A stored partition's rows, sorted (charges a full scan).
fn rows(part: &StoredPartition) -> Vec<Row> {
    let mut rows = Vec::new();
    part.scan(|row| rows.push(row.to_row()));
    rows.sort();
    rows
}

fn two_path_db() -> (Database, PathExpression, PathExpression) {
    let mut s = Schema::new();
    s.define_tuple(
        "Division",
        [("Name", "STRING"), ("Manufactures", "ProdSET")],
    )
    .unwrap();
    s.define_tuple("Supplier", [("Name", "STRING"), ("Delivers", "ProdSET")])
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
    let p1 = PathExpression::parse(&s, "Division.Manufactures.Composition.Name").unwrap();
    let p2 = PathExpression::parse(&s, "Supplier.Delivers.Composition.Name").unwrap();
    let mut db = Database::new(s);

    // One division and one supplier feeding the same product.
    let d = db.instantiate("Division").unwrap();
    db.set_attribute(d, "Name", Value::string("Auto")).unwrap();
    let sup = db.instantiate("Supplier").unwrap();
    db.set_attribute(sup, "Name", Value::string("PartsRUs"))
        .unwrap();
    let ps1 = db.instantiate("ProdSET").unwrap();
    let ps2 = db.instantiate("ProdSET").unwrap();
    db.set_attribute(d, "Manufactures", Value::Ref(ps1))
        .unwrap();
    db.set_attribute(sup, "Delivers", Value::Ref(ps2)).unwrap();
    let prod = db.instantiate("Product").unwrap();
    db.set_attribute(prod, "Name", Value::string("560 SEC"))
        .unwrap();
    db.insert_into_set(ps1, Value::Ref(prod)).unwrap();
    db.insert_into_set(ps2, Value::Ref(prod)).unwrap();
    let parts = db.instantiate("BasePartSET").unwrap();
    db.set_attribute(prod, "Composition", Value::Ref(parts))
        .unwrap();
    let door = db.instantiate("BasePart").unwrap();
    db.set_attribute(door, "Name", Value::string("Door"))
        .unwrap();
    db.insert_into_set(parts, Value::Ref(door)).unwrap();

    (db, p1, p2)
}

#[test]
fn shared_segment_partitions_have_identical_content() {
    let (mut db, p1, p2) = two_path_db();
    let segs = shared_segments(db.base().schema(), &p1, &p2);
    let seg = segs
        .iter()
        .max_by_key(|s| s.len)
        .expect("paths share the tail");
    assert_eq!(seg.len, 2, "Product.Composition.Name is shared");
    assert!(seg.shareable_under(Extension::Full, Extension::Full, &p1, &p2));

    // Decompose both at the dictated cuts so the shared segment is a
    // stand-alone partition.
    let cuts1 = seg.required_cuts1(&p1);
    let cuts2 = seg.required_cuts2(&p2);
    let a = db
        .create_asr(
            p1,
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::new(cuts1.clone()).unwrap(),
                keep_set_oids: false,
            },
        )
        .unwrap();
    let b = db
        .create_asr(
            p2,
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::new(cuts2.clone()).unwrap(),
                keep_set_oids: false,
            },
        )
        .unwrap();

    // The partitions covering the shared segment must match row for row.
    let idx1 = cuts1.iter().position(|&c| c == seg.start1).unwrap();
    let idx2 = cuts2.iter().position(|&c| c == seg.start2).unwrap();
    let asr_a = db.asr(a).unwrap();
    let asr_b = db.asr(b).unwrap();
    let part_a = &asr_a.partitions()[idx1];
    let part_b = &asr_b.partitions()[idx2];
    let rel_a = rows(part_a);
    let rel_b = rows(part_b);
    assert_eq!(
        rel_a, rel_b,
        "shared partition content identical — physically sharable"
    );
    assert!(!rel_a.is_empty());
    assert!(shared_partition_savings(rel_a.len(), seg.len) > 0);
}

#[test]
fn shared_content_stays_identical_under_updates() {
    let (mut db, p1, p2) = two_path_db();
    let seg = {
        let segs = shared_segments(db.base().schema(), &p1, &p2);
        *segs.iter().max_by_key(|s| s.len).unwrap()
    };
    let a = db
        .create_asr(
            p1.clone(),
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::new(seg.required_cuts1(&p1)).unwrap(),
                keep_set_oids: false,
            },
        )
        .unwrap();
    let b = db
        .create_asr(
            p2.clone(),
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::new(seg.required_cuts2(&p2)).unwrap(),
                keep_set_oids: false,
            },
        )
        .unwrap();

    // Update inside the shared segment: add a part to the product.
    let sec = db
        .base()
        .find_by_attribute("Name", &Value::string("560 SEC"))
        .unwrap();
    let parts_set = db
        .base()
        .deref_attribute(sec, "Composition")
        .unwrap()
        .unwrap();
    let hinge = db.instantiate("BasePart").unwrap();
    db.set_attribute(hinge, "Name", Value::string("Hinge"))
        .unwrap();
    db.insert_into_set(parts_set, Value::Ref(hinge)).unwrap();

    let shared_a = rows(&db.asr(a).unwrap().partitions()[1]);
    let shared_b = rows(&db.asr(b).unwrap().partitions()[1]);
    assert_eq!(
        shared_a, shared_b,
        "incremental maintenance keeps shared content in sync"
    );
    // And both now see the new part.
    let hits_a = db
        .backward(a, 0, 3, &Cell::Value(Value::string("Hinge")))
        .unwrap();
    let hits_b = db
        .backward(b, 0, 3, &Cell::Value(Value::string("Hinge")))
        .unwrap();
    assert_eq!(hits_a.len(), 1);
    assert_eq!(hits_b.len(), 1);
}

// ----------------------------------------------------------------------
// Set sharing: several owners of one set instance
// ----------------------------------------------------------------------

/// Every registered ASR equals a from-scratch build over the same base.
fn assert_equals_rebuild(db: &Database, what: &str) {
    for (id, asr) in db.asrs() {
        asr.check_consistency().unwrap();
        let reference = AccessSupportRelation::build(
            db.base(),
            asr.path().clone(),
            asr.config().clone(),
            IoStats::new_handle(),
        )
        .unwrap();
        assert!(
            asr.full_rows().eq(reference.full_rows()),
            "ASR {id} ({} under {}) after {what}",
            asr.config().extension,
            asr.config().decomposition
        );
    }
}

/// One `ProdSET` instance held by two divisions (`Manufactures`) and a
/// supplier (`Delivers`): a set update must maintain exactly the owners
/// whose type and attribute match each path's set occurrence, and charge
/// exactly the pages the extent-scanning implementation charged (the
/// literals below were taken from it).
#[test]
fn set_updates_maintain_every_owner_of_a_shared_set() {
    let (mut db, p1, p2) = two_path_db();
    for ext in Extension::ALL {
        for decomposition in [Decomposition::binary(3), Decomposition::none(3)] {
            let config = AsrConfig {
                extension: ext,
                decomposition,
                keep_set_oids: false,
            };
            db.create_asr(p1.clone(), config).unwrap();
        }
    }
    let by_supplier = db
        .create_asr(p2.clone(), AsrConfig::binary(Extension::Full, &p2))
        .unwrap();

    let d1 = db.instantiate("Division").unwrap();
    let d2 = db.instantiate("Division").unwrap();
    let sup = db.instantiate("Supplier").unwrap();
    let shared = db.instantiate("ProdSET").unwrap();
    db.set_attribute(d1, "Manufactures", Value::Ref(shared))
        .unwrap();
    db.set_attribute(d2, "Manufactures", Value::Ref(shared))
        .unwrap();
    db.set_attribute(sup, "Delivers", Value::Ref(shared))
        .unwrap();
    let mut products = Vec::new();
    for part_name in ["Hinge", "Latch"] {
        let prod = db.instantiate("Product").unwrap();
        let parts = db.instantiate("BasePartSET").unwrap();
        db.set_attribute(prod, "Composition", Value::Ref(parts))
            .unwrap();
        let part = db.instantiate("BasePart").unwrap();
        db.set_attribute(part, "Name", Value::string(part_name))
            .unwrap();
        db.insert_into_set(parts, Value::Ref(part)).unwrap();
        products.push(Value::Ref(prod));
    }
    assert_equals_rebuild(&db, "set-up");

    let io = |reads, writes| IoSnapshot {
        reads,
        writes,
        batch_probes: 2,
        ..IoSnapshot::default()
    };
    // (what, insert?, element, pages charged)
    let updates = [
        ("insert into the empty set", true, &products[0], io(104, 73)),
        ("insert a second member", true, &products[1], io(86, 55)),
        ("remove the first member", false, &products[0], io(104, 55)),
        ("remove the last member", false, &products[1], io(122, 73)),
    ];
    for (what, insert, elem, charged) in updates {
        db.stats().reset();
        let changed = if insert {
            db.insert_into_set(shared, elem.clone()).unwrap()
        } else {
            db.remove_from_set(shared, elem).unwrap()
        };
        assert!(changed, "{what}");
        assert_eq!(db.stats().snapshot(), charged, "{what}");
        assert_equals_rebuild(&db, what);
    }

    // The supplier's path saw the shared set through `Delivers` only.
    db.insert_into_set(shared, products[0].clone()).unwrap();
    let hinge = Cell::Value(Value::string("Hinge"));
    assert_eq!(db.backward(by_supplier, 0, 3, &hinge).unwrap(), vec![sup]);
    assert_eq!(db.backward(0, 0, 3, &hinge).unwrap(), vec![d1, d2]);
}

/// Shared set instances with set OIDs kept, under every decomposition —
/// including those that cut at a set column, where one edge's rows meet
/// across two partitions: every partition holds exactly a rebuild's rows
/// after each update.
#[test]
fn shared_sets_with_set_oids_kept_match_a_rebuild_in_every_partition() {
    let (mut db, p1, _) = two_path_db();
    let m = p1.arity(true) - 1;
    for ext in Extension::ALL {
        for decomposition in Decomposition::enumerate_all(m) {
            let config = AsrConfig {
                extension: ext,
                decomposition,
                keep_set_oids: true,
            };
            db.create_asr(p1.clone(), config).unwrap();
        }
    }
    let check = |db: &Database, what: &str| {
        for (id, asr) in db.asrs() {
            let reference = AccessSupportRelation::build(
                db.base(),
                asr.path().clone(),
                asr.config().clone(),
                IoStats::new_handle(),
            )
            .unwrap();
            for (k, (got, want)) in asr
                .partitions()
                .iter()
                .zip(reference.partitions())
                .enumerate()
            {
                assert_eq!(
                    rows(got),
                    rows(want),
                    "ASR {id} ({} under {}) partition {k} after {what}",
                    asr.config().extension,
                    asr.config().decomposition
                );
            }
        }
    };
    let named = |db: &mut Database, ty: &str, name: &str| {
        let o = db.instantiate(ty).unwrap();
        db.set_attribute(o, "Name", Value::string(name)).unwrap();
        o
    };
    let d1 = named(&mut db, "Division", "D1");
    let d2 = named(&mut db, "Division", "D2");
    let shared = db.instantiate("ProdSET").unwrap();
    db.set_attribute(d1, "Manufactures", Value::Ref(shared))
        .unwrap();
    check(&db, "attach an empty shared set");
    db.set_attribute(d2, "Manufactures", Value::Ref(shared))
        .unwrap();
    check(&db, "share it");
    let hinge = named(&mut db, "Product", "Hinge");
    let latch = named(&mut db, "Product", "Latch");
    db.insert_into_set(shared, Value::Ref(hinge)).unwrap();
    check(&db, "first member");
    db.insert_into_set(shared, Value::Ref(latch)).unwrap();
    check(&db, "second member");
    let bolts = db.instantiate("BasePartSET").unwrap();
    db.set_attribute(hinge, "Composition", Value::Ref(bolts))
        .unwrap();
    db.set_attribute(latch, "Composition", Value::Ref(bolts))
        .unwrap();
    check(&db, "a shared composition");
    let bolt = named(&mut db, "BasePart", "Bolt");
    db.insert_into_set(bolts, Value::Ref(bolt)).unwrap();
    check(&db, "a part in the shared composition");
    db.remove_from_set(shared, &Value::Ref(hinge)).unwrap();
    check(&db, "remove a member");
    db.set_attribute(d1, "Manufactures", Value::Null).unwrap();
    check(&db, "one owner lets go");
    let other = db.instantiate("ProdSET").unwrap();
    db.insert_into_set(other, Value::Ref(hinge)).unwrap();
    db.set_attribute(d2, "Manufactures", Value::Ref(other))
        .unwrap();
    check(&db, "the last owner moves to another set");
    db.remove_from_set(bolts, &Value::Ref(bolt)).unwrap();
    check(&db, "the shared composition empties");
    db.set_attribute(hinge, "Composition", Value::Null).unwrap();
    check(&db, "detach a composition");
}
