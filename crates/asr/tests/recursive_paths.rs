//! Paths over recursive schemas: the same attribute occurs at *several*
//! positions of the path expression (`EMP.Boss.Boss.Name`).
//!
//! The paper sidesteps this with a simplifying assumption ("an object
//! insertion [does not] affect different positions in a single path
//! expression", Section 6) — for good reason: one physical edge then
//! backs row segments at several columns, and per-position deltas are
//! unsound (a removed self-referential edge must disappear from *both*
//! columns at once).  `Database` therefore detects multi-position updates
//! and falls back to a (bulk-loaded, page-charged) rebuild; these tests
//! pin the result to a from-scratch reference either way.

use asr_core::{AccessSupportRelation, AsrConfig, Cell, Database, Decomposition, Extension};
use asr_gom::{Oid, PathExpression, Schema, Value};
use asr_pagesim::IoStats;

fn emp_db() -> (Database, PathExpression) {
    let mut s = Schema::new();
    s.define_tuple("EMP", [("Name", "STRING"), ("Boss", "EMP")])
        .unwrap();
    s.validate().unwrap();
    let path = PathExpression::parse(&s, "EMP.Boss.Boss.Name").unwrap();
    (Database::new(s), path)
}

fn check_all(db: &Database) {
    for (_, asr) in db.asrs() {
        asr.check_consistency().unwrap();
        let reference = AccessSupportRelation::build(
            db.base(),
            asr.path().clone(),
            asr.config().clone(),
            IoStats::new_handle(),
        )
        .unwrap();
        let got: Vec<_> = asr.full_rows().collect();
        let want: Vec<_> = reference.full_rows().collect();
        assert_eq!(
            got,
            want,
            "{} under {} diverged from rebuild",
            asr.config().extension,
            asr.config().decomposition
        );
    }
}

#[test]
fn recursive_path_maintenance_equals_rebuild() {
    let (mut db, path) = emp_db();
    for ext in Extension::ALL {
        db.create_asr(
            path.clone(),
            AsrConfig {
                extension: ext,
                decomposition: Decomposition::binary(3),
                keep_set_oids: false,
            },
        )
        .unwrap();
    }

    // A four-level chain: worker -> lead -> manager -> director.
    let worker = db.instantiate("EMP").unwrap();
    let lead = db.instantiate("EMP").unwrap();
    let manager = db.instantiate("EMP").unwrap();
    let director = db.instantiate("EMP").unwrap();
    for (o, n) in [
        (worker, "worker"),
        (lead, "lead"),
        (manager, "manager"),
        (director, "director"),
    ] {
        db.set_attribute(o, "Name", Value::string(n)).unwrap();
        check_all(&db);
    }
    db.set_attribute(worker, "Boss", Value::Ref(lead)).unwrap();
    check_all(&db);
    db.set_attribute(lead, "Boss", Value::Ref(manager)).unwrap();
    check_all(&db);
    // This edge sits at positions 1 AND 2 of different chains.
    db.set_attribute(manager, "Boss", Value::Ref(director))
        .unwrap();
    check_all(&db);

    // Reorganization: the lead now reports to the director directly.
    db.set_attribute(lead, "Boss", Value::Ref(director))
        .unwrap();
    check_all(&db);
    // And the worker loses their boss entirely.
    db.set_attribute(worker, "Boss", Value::Null).unwrap();
    check_all(&db);
}

#[test]
fn self_loop_is_maintained() {
    let (mut db, path) = emp_db();
    let id = db
        .create_asr(
            path.clone(),
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::none(3),
                keep_set_oids: false,
            },
        )
        .unwrap();
    // The CEO is their own boss — a genuine cycle.
    let ceo = db.instantiate("EMP").unwrap();
    db.set_attribute(ceo, "Name", Value::string("ceo")).unwrap();
    db.set_attribute(ceo, "Boss", Value::Ref(ceo)).unwrap();
    check_all(&db);
    // The chain query resolves through the loop.
    let names = db.forward(id, 0, 3, ceo).unwrap();
    assert_eq!(names, vec![Cell::Value(Value::string("ceo"))]);
    let bosses = db.backward(id, 0, 2, &Cell::Oid(ceo)).unwrap();
    assert_eq!(bosses, vec![ceo]);
    // Breaking the loop is maintained too.
    db.set_attribute(ceo, "Boss", Value::Null).unwrap();
    check_all(&db);
}

#[test]
fn rebuild_fallback_counter_fires_exactly_once_on_self_loop() {
    let (mut db, path) = emp_db();
    db.create_asr(
        path,
        AsrConfig {
            extension: Extension::Full,
            decomposition: Decomposition::none(3),
            keep_set_oids: false,
        },
    )
    .unwrap();
    let metrics = db.tracer().metrics().clone();
    let ceo = db.instantiate("EMP").unwrap();
    db.set_attribute(ceo, "Name", Value::string("ceo")).unwrap();
    assert_eq!(
        metrics.counter("asr.rebuild_fallback"),
        0,
        "a single-position update is maintained incrementally"
    );
    // The self-loop edge sits at positions 1 AND 2 of the path: per-position
    // maintenance is unsound, so the one registered ASR rebuilds — once.
    db.set_attribute(ceo, "Boss", Value::Ref(ceo)).unwrap();
    assert_eq!(metrics.counter("asr.rebuild_fallback"), 1);
    check_all(&db);
}

#[test]
fn recursive_queries_match_naive() {
    let (mut db, path) = emp_db();
    let id = db
        .create_asr(
            path.clone(),
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(3),
                keep_set_oids: false,
            },
        )
        .unwrap();
    // A small org chart with shared bosses.
    let people: Vec<Oid> = (0..8).map(|_| db.instantiate("EMP").unwrap()).collect();
    for (i, &p) in people.iter().enumerate() {
        db.set_attribute(p, "Name", Value::string(format!("e{i}")))
            .unwrap();
    }
    for (sub, boss) in [
        (0usize, 4usize),
        (1, 4),
        (2, 5),
        (3, 5),
        (4, 6),
        (5, 6),
        (6, 7),
    ] {
        db.set_attribute(people[sub], "Boss", Value::Ref(people[boss]))
            .unwrap();
    }
    check_all(&db);
    for i in 0..3usize {
        for j in (i + 1)..=3 {
            for &p in &people {
                let sup = db.forward(id, i, j, p).unwrap();
                let naive = db.forward_unindexed(&path, i, j, p).unwrap();
                assert_eq!(sup, naive, "fw Q_{{{i},{j}}} from e?");
            }
        }
    }
    let target = Cell::Value(Value::string("e6"));
    let sup = db.backward(id, 0, 3, &target).unwrap();
    let naive = db.backward_unindexed(&path, 0, 3, &target).unwrap();
    assert_eq!(sup, naive);
    assert_eq!(sup.len(), 4, "e0..e3 all have e6 as boss's boss");
}

#[test]
fn recursive_set_path_maintenance_equals_rebuild() {
    // Bill-of-materials style recursion through *set* occurrences:
    // PART.Subs.Subs — an insertion can affect both positions at once.
    let mut s = Schema::new();
    s.define_tuple("PART", [("Name", "STRING"), ("Subs", "PARTSET")])
        .unwrap();
    s.define_set("PARTSET", "PART").unwrap();
    s.validate().unwrap();
    let path = PathExpression::parse(&s, "PART.Subs.Subs").unwrap();
    let mut db = Database::new(s);
    for ext in Extension::ALL {
        db.create_asr(
            path.clone(),
            AsrConfig {
                extension: ext,
                decomposition: Decomposition::binary(2),
                keep_set_oids: false,
            },
        )
        .unwrap();
    }

    let assembly = db.instantiate("PART").unwrap();
    let frame = db.instantiate("PART").unwrap();
    let bolt = db.instantiate("PART").unwrap();
    let s_top = db.instantiate("PARTSET").unwrap();
    let s_frame = db.instantiate("PARTSET").unwrap();
    db.set_attribute(assembly, "Subs", Value::Ref(s_top))
        .unwrap();
    check_all(&db);
    db.set_attribute(frame, "Subs", Value::Ref(s_frame))
        .unwrap();
    check_all(&db);
    db.insert_into_set(s_top, Value::Ref(frame)).unwrap();
    check_all(&db);
    db.insert_into_set(s_frame, Value::Ref(bolt)).unwrap();
    check_all(&db);
    // A part that contains itself as a sub-part (degenerate but legal in
    // the model): the edge affects positions 1 and 2 simultaneously.
    db.insert_into_set(s_top, Value::Ref(assembly)).unwrap();
    check_all(&db);
    db.remove_from_set(s_top, &Value::Ref(assembly)).unwrap();
    check_all(&db);
    db.remove_from_set(s_frame, &Value::Ref(bolt)).unwrap();
    check_all(&db);
}

/// FNV-1a over a document's bytes: pins a checkpoint without a literal
/// the size of the checkpoint.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The rebuild fallback bulk-loads every partition afresh, so each one is
/// wholly dirty until the next checkpoint, and a rename after it removes
/// bulk-loaded rows and stores new ones.  The delta checkpoint that
/// follows must apply onto the previous checkpoint to reproduce the
/// primary byte for byte.  A rebuilt partition has no base partition to
/// patch, so its ASR ships as images, and the document's bytes are
/// pinned.
#[test]
fn delta_checkpoint_after_the_rebuild_fallback_reproduces_the_primary() {
    let (mut db, path) = emp_db();
    db.create_asr(path.clone(), AsrConfig::binary(Extension::Full, &path))
        .unwrap();
    let emps: Vec<Oid> = (0..12).map(|_| db.instantiate("EMP").unwrap()).collect();
    for (k, &e) in emps.iter().enumerate() {
        db.set_attribute(e, "Name", Value::string(format!("emp{k}")))
            .unwrap();
    }
    for pair in emps.windows(2) {
        db.set_attribute(pair[0], "Boss", Value::Ref(pair[1]))
            .unwrap();
    }
    let base = db.begin_checkpoint().save_full(0);

    db.set_attribute(emps[11], "Boss", Value::Ref(emps[11]))
        .unwrap();
    assert!(db.tracer().metrics().counter("asr.rebuild_fallback") > 0);
    db.set_attribute(emps[10], "Name", Value::string("renamed"))
        .unwrap();
    let delta = db.begin_checkpoint().save_delta(1, 0).unwrap();
    let (applied, report) = Database::load_from_string(&base)
        .unwrap()
        .apply_delta_report(&delta, true)
        .unwrap();
    assert!(
        report.asrs.iter().all(|(_, mode)| mode.is_physical()),
        "every changed section ships in full: {report:?}"
    );
    assert_eq!(applied.save_to_string(), db.save_to_string());
    assert_eq!((delta.len(), fnv1a(&delta)), (753, 0x988e_d50a_ca72_2edb));
}
