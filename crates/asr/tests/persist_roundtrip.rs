//! Property test: whole-database persistence is lossless for queries.
//!
//! Random databases carrying one ASR per extension (each with a random
//! decomposition) are cycled through `save_to_string`/`load_from_string`.
//! The round-trip must be a textual fixed point, and every admissible
//! span query — forward from every anchor-side object, backward towards
//! every range-side cell — must return exactly the same answer through
//! the reloaded (rebuilt) relations as through the originals.

use asr_core::{AsrConfig, Cell, CheckpointHeader, Database, Decomposition, Extension};
use asr_gom::{Oid, PathExpression, Schema, TypeRef, Value};
use proptest::prelude::*;

/// The mixed chain `T0.A1(S1 set).A2(T2).A3(S3 set).Name(STRING)`.
fn chain_schema() -> Schema {
    let mut s = Schema::new();
    s.define_tuple("T0", [("A1", "S1")]).unwrap();
    s.define_set("S1", "T1").unwrap();
    s.define_tuple("T1", [("A2", "T2")]).unwrap();
    s.define_tuple("T2", [("A3", "S3")]).unwrap();
    s.define_set("S3", "T3").unwrap();
    s.define_tuple("T3", [("Name", "STRING")]).unwrap();
    s.validate().unwrap();
    s
}

const PATH: &str = "T0.A1.A2.A3.Name";

#[derive(Debug, Clone)]
struct RandomDb {
    counts: [u8; 4],
    edges: Vec<(u8, u8, u8)>,
    names: Vec<u8>,
    attach: Vec<(u8, u8)>,
}

fn random_db_strategy() -> impl Strategy<Value = RandomDb> {
    (
        proptest::array::uniform4(1u8..5),
        proptest::collection::vec((0u8..3, 0u8..5, 0u8..5), 0..24),
        proptest::collection::vec(0u8..5, 0..5),
        proptest::collection::vec((0u8..2, 0u8..5), 0..6),
    )
        .prop_map(|(counts, edges, names, attach)| RandomDb {
            counts,
            edges,
            names,
            attach,
        })
}

/// Materialize the description through the `Database` mutation API (so a
/// later ASR creation sees a fully populated, store-synced base).
fn build_db(desc: &RandomDb) -> Database {
    let mut db = Database::new(chain_schema());
    let mut levels: Vec<Vec<Oid>> = Vec::new();
    for (l, &count) in desc.counts.iter().enumerate() {
        let mut objs = Vec::new();
        for _ in 0..count {
            objs.push(db.instantiate(&format!("T{l}")).unwrap());
        }
        levels.push(objs);
    }
    for &(kind, fi) in &desc.attach {
        let (level, attr, set_ty) = if kind == 0 {
            (0, "A1", "S1")
        } else {
            (2, "A3", "S3")
        };
        let owner = levels[level][fi as usize % levels[level].len()];
        if db.base().get_attribute(owner, attr).unwrap().is_null() {
            let set = db.instantiate(set_ty).unwrap();
            db.set_attribute(owner, attr, Value::Ref(set)).unwrap();
        }
    }
    for &(l, fi, ti) in &desc.edges {
        let owner = levels[l as usize][fi as usize % levels[l as usize].len()];
        let target = levels[l as usize + 1][ti as usize % levels[l as usize + 1].len()];
        match l {
            0 | 2 => {
                let (attr, set_ty) = if l == 0 { ("A1", "S1") } else { ("A3", "S3") };
                let set = match db.base().get_attribute(owner, attr).unwrap() {
                    Value::Ref(s) => s,
                    _ => {
                        let s = db.instantiate(set_ty).unwrap();
                        db.set_attribute(owner, attr, Value::Ref(s)).unwrap();
                        s
                    }
                };
                db.insert_into_set(set, Value::Ref(target)).unwrap();
            }
            1 => db.set_attribute(owner, "A2", Value::Ref(target)).unwrap(),
            _ => unreachable!(),
        }
    }
    for &ni in &desc.names {
        let obj = levels[3][ni as usize % levels[3].len()];
        db.set_attribute(obj, "Name", Value::string(format!("N{}", ni % 3)))
            .unwrap();
    }
    db
}

/// One random post-checkpoint mutation.  `(kind, a, b)` selects operands
/// modulo the relevant extents, so any triple is admissible on any
/// database (inapplicable ops are skipped).
fn apply_op(db: &mut Database, op: (u8, u8, u8)) {
    let resolve = |db: &Database, ty: &str| db.base().schema().resolve(ty).unwrap();
    let extent = |db: &Database, ty: &str| -> Vec<Oid> {
        db.base()
            .extent_closure(resolve(db, ty))
            .into_iter()
            .collect()
    };
    let pick = |v: &[Oid], i: u8| -> Option<Oid> {
        if v.is_empty() {
            None
        } else {
            Some(v[i as usize % v.len()])
        }
    };
    let (kind, a, b) = op;
    match kind {
        // ins_3: a fresh named T3 joins a random S3 set.
        0 => {
            if let Some(set) = pick(&extent(db, "S3"), a) {
                let t3 = db.instantiate("T3").unwrap();
                db.set_attribute(t3, "Name", Value::string(format!("D{}", b % 5)))
                    .unwrap();
                db.insert_into_set(set, Value::Ref(t3)).unwrap();
            }
        }
        // Rename an existing T3.
        1 => {
            if let Some(t3) = pick(&extent(db, "T3"), a) {
                db.set_attribute(t3, "Name", Value::string(format!("R{}", b % 5)))
                    .unwrap();
            }
        }
        // Rebind a T1's A2 reference.
        2 => {
            if let (Some(t1), Some(t2)) = (pick(&extent(db, "T1"), a), pick(&extent(db, "T2"), b)) {
                db.set_attribute(t1, "A2", Value::Ref(t2)).unwrap();
            }
        }
        // Remove a T3 from an S3 set (no-op when not a member).
        3 => {
            if let (Some(set), Some(t3)) = (pick(&extent(db, "S3"), a), pick(&extent(db, "T3"), b))
            {
                db.remove_from_set(set, &Value::Ref(t3)).unwrap();
            }
        }
        // Rebind a variable.
        _ => db.bind_variable(&format!("v{}", a % 3), Value::string(format!("x{b}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn save_load_preserves_every_query(
        desc in random_db_strategy(),
        dec_seed in any::<u8>(),
    ) {
        let mut db = build_db(&desc);
        let path = PathExpression::parse(db.base().schema(), PATH).unwrap();
        let n = path.len();
        let all_decs = Decomposition::enumerate_all(n);
        for (e, ext) in Extension::ALL.into_iter().enumerate() {
            let dec = all_decs[(dec_seed as usize + e) % all_decs.len()].clone();
            db.create_asr(path.clone(), AsrConfig {
                extension: ext,
                decomposition: dec,
                keep_set_oids: false,
            }).unwrap();
        }

        let text = db.save_to_string();
        let (mut reloaded, report) = Database::load_from_string_report(&text).unwrap();
        // A checkpoint of a healthy database restores every ASR from its
        // page images — nothing silently falls back to rebuilding.
        prop_assert_eq!(report.version, asr_core::persist::FORMAT_VERSION);
        prop_assert!(report.physical_bytes > 0);
        for (id, mode) in &report.asrs {
            prop_assert!(mode.is_physical(), "asr {} rebuilt: {:?}", id, mode);
        }
        // The round-trip is a fixed point of the snapshot format.
        prop_assert_eq!(reloaded.save_to_string(), text.clone());

        // Every admissible span query answers identically through the
        // rebuilt relations.
        for ((id, before), (rid, after)) in db.asrs().zip(reloaded.asrs()) {
            prop_assert_eq!(id, rid);
            let ext = before.config().extension;
            prop_assert_eq!(after.config().extension, ext);
            prop_assert_eq!(
                after.config().decomposition.to_string(),
                before.config().decomposition.to_string()
            );
            after.check_consistency().unwrap();
            for i in 0..n {
                for j in i + 1..=n {
                    if !ext.supports(i, j, n) {
                        continue;
                    }
                    let TypeRef::Named(ti) = path.type_at(i) else { unreachable!() };
                    for start in db.base().extent_closure(ti) {
                        prop_assert_eq!(
                            after.forward(i, j, start).unwrap(),
                            before.forward(i, j, start).unwrap(),
                            "{} fw Q_{{{},{}}} from {}", ext, i, j, start
                        );
                    }
                    let targets: Vec<Cell> = if j == n {
                        db.base()
                            .objects()
                            .filter_map(|o| db.base().get_attribute(o.oid, "Name").ok())
                            .filter_map(Cell::from_gom_owned)
                            .collect()
                    } else {
                        let TypeRef::Named(tj) = path.type_at(j) else { unreachable!() };
                        db.base().extent_closure(tj).into_iter().map(Cell::Oid).collect()
                    };
                    for target in targets {
                        prop_assert_eq!(
                            after.backward(i, j, &target).unwrap(),
                            before.backward(i, j, &target).unwrap(),
                            "{} bw Q_{{{},{}}} to {}", ext, i, j, target
                        );
                    }
                }
            }
        }

        // Maintenance composes with physical restore: identical updates
        // applied to the original and the restored database leave them in
        // identical states (rows, row ids and page images included),
        // because restored trees are bit-for-bit the originals.
        let resolve = |ty: &str| db.base().schema().resolve(ty).unwrap();
        let t1s: Vec<Oid> = db.base().extent_closure(resolve("T1")).into_iter().collect();
        let t2s: Vec<Oid> = db.base().extent_closure(resolve("T2")).into_iter().collect();
        let t3s: Vec<Oid> = db.base().extent_closure(resolve("T3")).into_iter().collect();
        let s3s: Vec<Oid> = db.base().extent_closure(resolve("S3")).into_iter().collect();
        if let Some(&o) = t3s.first() {
            db.set_attribute(o, "Name", Value::string("Renamed")).unwrap();
            reloaded.set_attribute(o, "Name", Value::string("Renamed")).unwrap();
        }
        if let (Some(&o), Some(&t)) = (t1s.first(), t2s.last()) {
            db.set_attribute(o, "A2", Value::Ref(t)).unwrap();
            reloaded.set_attribute(o, "A2", Value::Ref(t)).unwrap();
        }
        if let (Some(&s), Some(&m)) = (s3s.first(), t3s.last()) {
            let e1 = db.insert_into_set(s, Value::Ref(m)).unwrap();
            let e2 = reloaded.insert_into_set(s, Value::Ref(m)).unwrap();
            prop_assert_eq!(e1, e2, "insert effectiveness diverged");
            let r1 = db.remove_from_set(s, &Value::Ref(m)).unwrap();
            let r2 = reloaded.remove_from_set(s, &Value::Ref(m)).unwrap();
            prop_assert_eq!(r1, r2, "remove effectiveness diverged");
        }
        for (_, asr) in reloaded.asrs() {
            asr.check_consistency().unwrap();
        }
        prop_assert_eq!(reloaded.save_to_string(), db.save_to_string());
    }

    /// A full checkpoint plus a chain of deltas loads to a
    /// database *byte-identical* to the primary's own full snapshot —
    /// for random databases, random decompositions, and random mutation
    /// batches between checkpoints.
    #[test]
    fn delta_chain_matches_full_snapshot(
        desc in random_db_strategy(),
        dec_seed in any::<u8>(),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..5, any::<u8>(), any::<u8>()), 0..16),
            1..4,
        ),
    ) {
        let mut db = build_db(&desc);
        let path = PathExpression::parse(db.base().schema(), PATH).unwrap();
        let all_decs = Decomposition::enumerate_all(path.len());
        for (e, ext) in Extension::ALL.into_iter().enumerate() {
            let dec = all_decs[(dec_seed as usize + e) % all_decs.len()].clone();
            db.create_asr(path.clone(), AsrConfig {
                extension: ext,
                decomposition: dec,
                keep_set_oids: false,
            }).unwrap();
        }

        // Settle to the snapshot fixed point; this is the base checkpoint.
        let db = Database::load_from_string(&db.save_to_string()).unwrap();
        let base_text = db.save_to_string();
        let mut primary = Database::load_from_string(&base_text).unwrap();

        let mut deltas: Vec<Vec<u8>> = Vec::new();
        for batch in &batches {
            for &op in batch {
                apply_op(&mut primary, op);
            }
            let base = deltas.len() as u64;
            let delta = primary.begin_checkpoint().save_delta(base + 1, base).unwrap();
            prop_assert_eq!(CheckpointHeader::read(&delta).unwrap().base, Some(base));
            deltas.push(delta);
        }

        let refs: Vec<&[u8]> = deltas.iter().map(Vec::as_slice).collect();
        let (chained, report) = Database::load_from_chain_report(&base_text, &refs).unwrap();
        prop_assert_eq!(report.delta_chain, refs.len());
        // No link of a healthy chain may degrade to a rebuild.
        for (id, mode) in &report.asrs {
            prop_assert!(
                !matches!(mode, asr_core::AsrLoadMode::Rebuilt(_)),
                "asr {} rebuilt: {:?}", id, mode
            );
        }
        for (_, asr) in chained.asrs() {
            asr.check_consistency().unwrap();
        }
        prop_assert_eq!(chained.save_to_string(), primary.save_to_string());
    }
}
