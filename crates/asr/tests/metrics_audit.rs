//! Metric-coverage audit for the core engine, mirroring the durable and
//! server layers': every metric and span emitted anywhere in
//! `crates/asr`'s sources must be declared in the registry below, every
//! registered metric must actually show up in the rendered `\stats` table
//! and the Prometheus exposition after a workload that walks the query,
//! maintenance, and MVCC paths, and every ASR build must leave one
//! `asr.build` span and one `asr.build_us` sample.

use std::cell::RefCell;
use std::rc::Rc;

use asr_core::{AsrConfig, Cell, Database, Decomposition, Extension};
use asr_gom::{PathExpression, Schema, Value};
use asr_obs::{FnSink, SpanRecord};

const COUNTERS: &[&str] = &[
    "query.forward",
    "query.backward",
    "query.naive_fallback",
    "query.unindexed",
    "btree.batch.probes",
    "btree.batch.pages_saved",
    "asr.rebuild_fallback",
    "txn.snapshots",
    "txn.partitions_published",
    "txn.epochs_reclaimed",
];
const GAUGES: &[&str] = &[
    "txn.commit_epoch",
    "txn.active_snapshots",
    "txn.oldest_pinned_epoch",
];
const HISTOGRAMS: &[&str] = &["asr.build_us"];
const SPANS: &[&str] = &[
    "query.forward",
    "query.backward",
    "maintain.set_attribute",
    "maintain.insert_into_set",
    "maintain.remove_from_set",
    "asr.build",
];

/// Extract the first string literal argument of every `method(` call in
/// `source` (computed names are skipped by construction).
fn emitted_names(source: &str, method: &str) -> Vec<String> {
    let needle = format!("{method}(");
    let mut out = Vec::new();
    let mut rest = source;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let trimmed = rest.trim_start();
        if let Some(lit) = trimmed.strip_prefix('"') {
            if let Some(end) = lit.find('"') {
                out.push(lit[..end].to_string());
            }
        }
    }
    out
}

#[test]
fn registry_matches_every_emit_site_in_the_sources() {
    let sources = concat!(
        include_str!("../src/auxrel.rs"),
        include_str!("../src/cell.rs"),
        include_str!("../src/database.rs"),
        include_str!("../src/decomposition.rs"),
        include_str!("../src/error.rs"),
        include_str!("../src/extension.rs"),
        include_str!("../src/join.rs"),
        include_str!("../src/lib.rs"),
        include_str!("../src/maintenance.rs"),
        include_str!("../src/manager.rs"),
        include_str!("../src/naive.rs"),
        include_str!("../src/partition.rs"),
        include_str!("../src/persist.rs"),
        include_str!("../src/query.rs"),
        include_str!("../src/relation.rs"),
        include_str!("../src/row.rs"),
        include_str!("../src/sharing.rs"),
        include_str!("../src/snapshot.rs"),
        include_str!("../src/store.rs"),
        include_str!("../src/testutil.rs"),
    );
    let check = |methods: &[&str], expected: &[&str]| {
        let method = methods.join("`/`");
        let mut emitted: Vec<String> = methods
            .iter()
            .flat_map(|m| emitted_names(sources, m))
            .collect();
        emitted.sort_unstable();
        emitted.dedup();
        let mut expected: Vec<String> = expected.iter().map(|s| s.to_string()).collect();
        expected.sort_unstable();
        assert_eq!(
            emitted, expected,
            "`{method}` emit sites diverged from the registry"
        );
    };
    check(&["inc_counter"], COUNTERS);
    check(&["set_gauge"], GAUGES);
    check(&["observe"], HISTOGRAMS);
    check(&["span", "span_with"], SPANS);
}

/// The recursive boss chain: one Full ASR answers any span, one
/// Canonical ASR only answers `(0, n)` — so an interior-span query on
/// it exercises the supported-check fallback — and the short path
/// `EMP.Boss.Name` has no ASR at all.
fn emp_db() -> (Database, PathExpression, PathExpression) {
    let mut s = Schema::new();
    s.define_tuple("EMP", [("Name", "STRING"), ("Boss", "EMP")])
        .unwrap();
    s.validate().unwrap();
    let indexed = PathExpression::parse(&s, "EMP.Boss.Boss.Name").unwrap();
    let unindexed = PathExpression::parse(&s, "EMP.Boss.Name").unwrap();
    (Database::new(s), indexed, unindexed)
}

/// Drive every registered metric at least once — spans over both ASRs,
/// the naive and unindexed fallbacks, a rebuild-triggering recursive
/// update, and a snapshot pin/drop/reclaim cycle — then check each name
/// is visible in both renderings.
#[test]
fn every_registered_metric_is_exposed_after_a_workload() {
    let (mut db, indexed, unindexed) = emp_db();
    let full = db
        .create_asr(
            indexed.clone(),
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(3),
                keep_set_oids: false,
            },
        )
        .unwrap();
    let canon = db
        .create_asr(
            indexed,
            AsrConfig {
                extension: Extension::Canonical,
                decomposition: Decomposition::binary(3),
                keep_set_oids: false,
            },
        )
        .unwrap();

    // A chain of bosses plus a self-loop at the top; closing the loop
    // hits a multi-position recursive update -> asr.rebuild_fallback.
    let emps: Vec<_> = (0..4).map(|_| db.instantiate("EMP").unwrap()).collect();
    for (k, &e) in emps.iter().enumerate() {
        db.set_attribute(e, "Name", Value::string(format!("emp{k}")))
            .unwrap();
    }
    for pair in emps.windows(2) {
        db.set_attribute(pair[0], "Boss", Value::Ref(pair[1]))
            .unwrap();
    }
    let ceo = emps[3];
    db.set_attribute(ceo, "Boss", Value::Ref(ceo)).unwrap();

    // txn.*: pin a view, mutate past it, drop it, pin again so the
    // freed epoch is actually reclaimed while counters are emitted.
    let pinned = db.snapshot();
    db.set_attribute(emps[0], "Name", Value::string("renamed"))
        .unwrap();
    drop(pinned);
    let _view = db.snapshot();

    // query.forward + btree.batch.* (the frontier walk batches its
    // partition probes), then query.backward.
    let names = db.forward(full, 0, 3, emps[0]).unwrap();
    assert!(!names.is_empty());
    let sources = db
        .backward(full, 0, 3, &Cell::Value(Value::string("emp3")))
        .unwrap();
    assert!(!sources.is_empty());
    // Canonical only materializes the (0, n) span: the interior span is
    // Unsupported -> query.naive_fallback.
    db.forward(canon, 1, 3, emps[1]).unwrap();
    // No ASR covers EMP.Boss.Name -> query.unindexed.
    db.navigate_forward(&unindexed, 0, 2, emps[0]).unwrap();

    let metrics = db.tracer().metrics();
    let table = metrics.render_table();
    let prometheus = metrics.to_prometheus();
    for name in COUNTERS.iter().chain(GAUGES).chain(HISTOGRAMS) {
        assert!(
            table.contains(name),
            "`{name}` missing from \\stats table:\n{table}"
        );
        assert!(
            prometheus.contains(&name.replace('.', "_")),
            "`{name}` missing from Prometheus exposition"
        );
    }
    // The reclaim cycle really happened (not just a zero-increment).
    assert!(metrics.counter("txn.epochs_reclaimed") > 0);
    assert!(metrics.counter("asr.rebuild_fallback") > 0);
    assert!(metrics.counter("btree.batch.probes") > 0);
}

/// `create_asr`, the rebuild fallback of a recursive update and an object
/// deletion each build an ASR from the base: each records one `asr.build`
/// span, naming the rows and partitions it stored, and one `asr.build_us`
/// sample.
#[test]
fn every_build_records_one_span_and_one_sample() {
    let (mut db, indexed, _) = emp_db();
    let builds: Rc<RefCell<Vec<SpanRecord>>> = Rc::default();
    let seen = Rc::clone(&builds);
    db.tracer()
        .add_sink(Rc::new(FnSink::new(move |r: &SpanRecord| {
            if r.name == "asr.build" {
                seen.borrow_mut().push(r.clone());
            }
        })));
    let samples = |db: &Database| {
        db.tracer()
            .metrics()
            .histogram("asr.build_us")
            .map_or(0, |h| h.total)
    };
    let emps: Vec<_> = (0..3).map(|_| db.instantiate("EMP").unwrap()).collect();
    for pair in emps.windows(2) {
        db.set_attribute(pair[0], "Boss", Value::Ref(pair[1]))
            .unwrap();
    }
    let config = AsrConfig::binary(Extension::Full, &indexed);
    let id = db.create_asr(indexed, config).unwrap();
    assert_eq!((builds.borrow().len(), samples(&db)), (1, 1), "create_asr");

    // Closing the loop is a multi-position update: the rebuild fallback.
    db.set_attribute(emps[2], "Boss", Value::Ref(emps[0]))
        .unwrap();
    assert_eq!(db.tracer().metrics().counter("asr.rebuild_fallback"), 1);
    assert_eq!((builds.borrow().len(), samples(&db)), (2, 2), "fallback");

    db.delete_object(emps[1]).unwrap();
    assert_eq!((builds.borrow().len(), samples(&db)), (3, 3), "delete");

    let asr = db.asr(id).unwrap();
    let last = builds.borrow().last().cloned().unwrap();
    assert_eq!(
        last.attr("rows"),
        Some(asr.total_rows().to_string().as_str())
    );
    assert_eq!(
        last.attr("partitions"),
        Some(asr.partitions().len().to_string().as_str())
    );
    assert!(
        last.writes > 0,
        "the bulk loads' page writes land in the span"
    );
}
