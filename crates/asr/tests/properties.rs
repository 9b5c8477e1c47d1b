//! Cross-cutting property tests for access support relations:
//!
//! * **Theorem 3.9** — every decomposition of every extension is lossless
//!   on randomly generated object bases, and the one-walk reassembly
//!   equals the fold of `chain_join`s (Definitions 3.4–3.7) on arbitrary
//!   partitions too;
//! * **build ≡ fold** — every partition of a built ASR holds, in row-id
//!   order, exactly the definitional decomposition of the folded
//!   extension in row order (the numbering checkpoints are written in);
//! * **extension containment** — canonical ⊆ left, right ⊆ full;
//! * **query equivalence** — supported evaluation through any extension /
//!   decomposition that formula (35) admits returns exactly what naive
//!   object traversal returns;
//! * **maintenance equivalence** — applying random update sequences
//!   through [`asr_core::Database`] leaves every partition of every ASR
//!   holding exactly the rows of a from-scratch rebuild, in both of its
//!   trees, and a database saved and physically reloaded half way keeps
//!   up with a twin that never was;
//! * **a full checkpoint is the delta over the empty base** — after random
//!   mutation histories on all four extensions under every decomposition,
//!   the checkpoint of the empty database loaded with the delta over it
//!   re-saves to the full document's bytes, and the full document plus
//!   the chain of deltas after it re-saves to the primary's bytes;
//! * **restores revive nothing** — restoring a deleted OID that a tuple
//!   slot, set or list still references is refused, and every state a
//!   history of restores reaches matches a rebuild.

use asr_core::{
    AccessSupportRelation, AsrConfig, Cell, Database, Decomposition, Extension, Relation, Row,
    RowRef,
};
use asr_gom::{ObjectBase, Oid, PathExpression, Schema, TypeRef, Value};
use asr_pagesim::IoStats;
use proptest::prelude::*;

/// A random 4-step chain schema
/// `T0.A1(T1 set).A2(T2).A3(T3 set).Name(STRING)` mixing set occurrences
/// and single-valued steps, with a random sparse extension.
#[derive(Debug, Clone)]
struct RandomBase {
    /// Per-level object counts.
    counts: [u8; 4],
    /// Edge seeds: (level, from index, to index) candidates.
    edges: Vec<(u8, u8, u8)>,
    /// Which objects get a Name.
    names: Vec<u8>,
    /// Which set attributes get attached but remain possibly empty.
    attach: Vec<(u8, u8)>,
}

fn random_base_strategy() -> impl Strategy<Value = RandomBase> {
    (
        proptest::array::uniform4(1u8..5),
        proptest::collection::vec((0u8..3, 0u8..5, 0u8..5), 0..24),
        proptest::collection::vec(0u8..5, 0..5),
        proptest::collection::vec((0u8..2, 0u8..5), 0..6),
    )
        .prop_map(|(counts, edges, names, attach)| RandomBase {
            counts,
            edges,
            names,
            attach,
        })
}

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

/// Materialize the random description into an object base (via plain
/// ObjectBase mutation, no ASR involved).
fn materialize(desc: &RandomBase) -> (ObjectBase, PathExpression) {
    let schema = chain_schema();
    let path = PathExpression::parse(&schema, PATH).unwrap();
    let mut base = ObjectBase::new(schema);
    let mut levels: Vec<Vec<Oid>> = Vec::new();
    for (l, &count) in desc.counts.iter().enumerate() {
        let mut objs = Vec::new();
        for _ in 0..count {
            objs.push(base.instantiate(&format!("T{l}")).unwrap());
        }
        levels.push(objs);
    }
    // Attach (possibly empty) sets first.
    for &(kind, fi) in &desc.attach {
        let (level, attr, set_ty) = if kind == 0 {
            (0, "A1", "S1")
        } else {
            (2, "A3", "S3")
        };
        let from = &levels[level];
        if from.is_empty() {
            continue;
        }
        let owner = from[fi as usize % from.len()];
        if base.get_attribute(owner, attr).unwrap().is_null() {
            let set = base.instantiate(set_ty).unwrap();
            base.set_attribute(owner, attr, Value::Ref(set)).unwrap();
        }
    }
    for &(l, fi, ti) in &desc.edges {
        let (from, to) = (&levels[l as usize], &levels[l as usize + 1]);
        if from.is_empty() || to.is_empty() {
            continue;
        }
        let owner = from[fi as usize % from.len()];
        let target = to[ti as usize % to.len()];
        match l {
            0 | 2 => {
                let (attr, set_ty) = if l == 0 { ("A1", "S1") } else { ("A3", "S3") };
                let set = match base.get_attribute(owner, attr).unwrap() {
                    Value::Ref(s) => s,
                    _ => {
                        let s = base.instantiate(set_ty).unwrap();
                        base.set_attribute(owner, attr, Value::Ref(s)).unwrap();
                        s
                    }
                };
                base.insert_into_set(set, Value::Ref(target)).unwrap();
            }
            1 => base.set_attribute(owner, "A2", Value::Ref(target)).unwrap(),
            _ => unreachable!(),
        }
    }
    for &ni in &desc.names {
        let t3 = &levels[3];
        if t3.is_empty() {
            continue;
        }
        let obj = t3[ni as usize % t3.len()];
        base.set_attribute(obj, "Name", Value::string(format!("N{}", ni % 3)))
            .unwrap();
    }
    (base, path)
}

/// Definitions 3.4–3.7 read as a reassembly: the fold of `chain_join`s
/// in the extension's association order.
fn join_fold(parts: &[Relation], ext: Extension) -> Relation {
    ext.fold(parts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorem 3.9 on random bases, all extensions × decompositions ×
    /// set-OID handling.
    #[test]
    fn theorem_3_9_losslessness(desc in random_base_strategy()) {
        let (base, path) = materialize(&desc);
        for keep in [false, true] {
            let aux = asr_core::build_auxiliary_relations(&base, &path, keep).unwrap();
            for ext in Extension::ALL {
                let rel = join_fold(&aux, ext);
                prop_assert_eq!(&ext.compute(&aux).unwrap(), &rel, "{} keep={}", ext, keep);
                let m = rel.arity() - 1;
                for dec in Decomposition::enumerate_all(m) {
                    let parts = dec.decompose(&rel).unwrap();
                    let back = dec.reassemble(&parts, ext).unwrap();
                    // `rel` is the fold of `chain_join`s over the
                    // auxiliary relations: the oracle the walk answers to.
                    prop_assert_eq!(&back, &rel, "{} under {} keep={}", ext, dec, keep);
                    prop_assert_eq!(&back, &join_fold(&parts, ext));
                    // The walk emits each row once.
                    let borrowed: Vec<Vec<&Row>> = parts.iter().map(|p| p.iter().collect()).collect();
                    prop_assert_eq!(dec.reassemble_rows(&borrowed, ext).unwrap().len(), rel.len());
                }
            }
        }
    }

    /// The product build against Definitions 3.4–3.8 as written: each
    /// partition of a built ASR holds, in its forward tree's order,
    /// `dec.decompose(&ext.fold(&aux))` in row order, and its backward
    /// tree the same rows.
    #[test]
    fn build_equals_the_definitional_oracle(desc in random_base_strategy()) {
        let (base, path) = materialize(&desc);
        for keep in [false, true] {
            let aux = asr_core::build_auxiliary_relations(&base, &path, keep).unwrap();
            for ext in Extension::ALL {
                let rel = ext.fold(&aux).unwrap();
                for dec in Decomposition::enumerate_all(rel.arity() - 1) {
                    let want = dec.decompose(&rel).unwrap();
                    let config = AsrConfig {
                        extension: ext,
                        decomposition: dec.clone(),
                        keep_set_oids: keep,
                    };
                    let asr = AccessSupportRelation::build(
                        &base, path.clone(), config, IoStats::new_handle(),
                    ).unwrap();
                    prop_assert_eq!(asr.partitions().len(), want.len());
                    for (p, want) in asr.partitions().iter().zip(&want) {
                        let mut got: Vec<Row> = Vec::new();
                        p.scan(|row| got.push(row.to_row()));
                        let want: Vec<Row> = want.iter().cloned().collect();
                        prop_assert_eq!(got, want, "{} under {} keep={}", ext, dec, keep);
                        p.check_consistency().unwrap();
                    }
                }
            }
        }
    }

    /// The reassembly walk against the join fold on partitions that are
    /// *not* projections of one relation: dangling borders, NULL borders
    /// on either side, rows no neighbour continues.
    #[test]
    fn reassembly_walk_equals_the_join_fold(
        dec_seed in any::<u8>(),
        rows in proptest::collection::vec(
            (0u8..4, proptest::collection::vec(0u8..4, 5..6)), 0..24),
    ) {
        let all_decs = Decomposition::enumerate_all(4);
        let dec = &all_decs[dec_seed as usize % all_decs.len()];
        let spans: Vec<(usize, usize)> = dec.partitions().collect();
        let mut parts: Vec<Relation> =
            spans.iter().map(|(a, b)| Relation::new(b - a + 1)).collect();
        for (at, cells) in &rows {
            let k = *at as usize % parts.len();
            // 0 is NULL; three OIDs keep borders colliding.
            let row = Row::new(cells.iter().take(parts[k].arity())
                .map(|&c| (c > 0).then(|| Cell::Oid(Oid::from_raw(c as u64))))
                .collect());
            parts[k].insert(row).unwrap();
        }
        for ext in Extension::ALL {
            let walked = dec.reassemble(&parts, ext).unwrap();
            prop_assert_eq!(&walked, &join_fold(&parts, ext), "{} under {}", ext, dec);
        }
    }

    /// Canonical ⊆ left ∩ right; left ∪ right ⊆ full.
    #[test]
    fn extension_containment(desc in random_base_strategy()) {
        let (base, path) = materialize(&desc);
        let aux = asr_core::build_auxiliary_relations(&base, &path, false).unwrap();
        let can = Extension::Canonical.compute(&aux).unwrap();
        let full = Extension::Full.compute(&aux).unwrap();
        let left = Extension::LeftComplete.compute(&aux).unwrap();
        let right = Extension::RightComplete.compute(&aux).unwrap();
        prop_assert!(can.is_subset_of(&left));
        prop_assert!(can.is_subset_of(&right));
        prop_assert!(left.is_subset_of(&full));
        prop_assert!(right.is_subset_of(&full));
        // Structural invariants of each extension.
        prop_assert!(can.iter().all(|r| r.first().is_some() && r.last().is_some()));
        prop_assert!(left.iter().all(|r| r.first().is_some()));
        prop_assert!(right.iter().all(|r| r.last().is_some()));
    }

    /// Supported evaluation ≡ naive evaluation for every admissible span.
    #[test]
    fn supported_queries_match_naive(desc in random_base_strategy(), cuts_seed in any::<u8>()) {
        let (base, path) = materialize(&desc);
        let stats = IoStats::new_handle();
        let mut store = asr_core::ObjectStore::new(std::rc::Rc::clone(&stats));
        store.sync_with_base(&base).unwrap();
        let n = path.len();
        let all_decs = Decomposition::enumerate_all(n);
        let dec = all_decs[cuts_seed as usize % all_decs.len()].clone();
        for ext in Extension::ALL {
            let config = AsrConfig {
                extension: ext,
                decomposition: dec.clone(),
                keep_set_oids: false,
            };
            let asr = AccessSupportRelation::build(
                &base, path.clone(), config, IoStats::new_handle(),
            ).unwrap();
            for i in 0..n {
                for j in i + 1..=n {
                    if !ext.supports(i, j, n) {
                        continue;
                    }
                    // Forward from every t_i object.
                    let TypeRef::Named(ti) = path.type_at(i) else { unreachable!() };
                    for start in base.extent_closure(ti) {
                        let sup = asr.forward(i, j, start).unwrap();
                        let naive = asr_core::naive::forward_naive(
                            &base, &store, &path, i, j, start,
                        ).unwrap();
                        prop_assert_eq!(sup, naive, "{} fw Q_{{{},{}}} from {}", ext, i, j, start);
                    }
                    // Backward towards every t_j cell present in the base.
                    let targets: Vec<Cell> = if j == n {
                        base.extent_closure(path.anchor()) // anchors irrelevant; gather names below
                            .into_iter()
                            .flat_map(|_| Vec::new())
                            .chain(
                                base.objects()
                                    .filter_map(|o| base.get_attribute(o.oid, "Name").ok())
                                    .filter_map(Cell::from_gom_owned),
                            )
                            .collect()
                    } else {
                        let TypeRef::Named(tj) = path.type_at(j) else { unreachable!() };
                        base.extent_closure(tj).into_iter().map(Cell::Oid).collect()
                    };
                    for target in targets {
                        let sup = asr.backward(i, j, &target).unwrap();
                        let naive = asr_core::naive::backward_naive(
                            &base, &store, &path, i, j, &target,
                        ).unwrap();
                        prop_assert_eq!(sup, naive, "{} bw Q_{{{},{}}} to {}", ext, i, j, target);
                    }
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Maintenance: incremental ≡ rebuild under random update sequences.
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Update {
    SetInsert { level: u8, fi: u8, ti: u8 },
    SetRemove { level: u8, fi: u8, ti: u8 },
    Assign { fi: u8, ti: u8 },
    ClearAssign { fi: u8 },
    AttachSet { level: u8, fi: u8 },
    DetachSet { level: u8, fi: u8 },
    Name { ni: u8 },
    ClearName { ni: u8 },
}

fn update_strategy() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0u8..2, any::<u8>(), any::<u8>()).prop_map(|(l, f, t)| Update::SetInsert {
            level: l,
            fi: f,
            ti: t
        }),
        (0u8..2, any::<u8>(), any::<u8>()).prop_map(|(l, f, t)| Update::SetRemove {
            level: l,
            fi: f,
            ti: t
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(f, t)| Update::Assign { fi: f, ti: t }),
        any::<u8>().prop_map(|f| Update::ClearAssign { fi: f }),
        (0u8..2, any::<u8>()).prop_map(|(l, f)| Update::AttachSet { level: l, fi: f }),
        (0u8..2, any::<u8>()).prop_map(|(l, f)| Update::DetachSet { level: l, fi: f }),
        any::<u8>().prop_map(|n| Update::Name { ni: n }),
        any::<u8>().prop_map(|n| Update::ClearName { ni: n }),
    ]
}

fn apply_update(db: &mut Database, levels: &[Vec<Oid>], u: &Update) {
    let set_info = |l: u8| {
        if l == 0 {
            (0usize, "A1", "S1")
        } else {
            (2usize, "A3", "S3")
        }
    };
    match u {
        Update::SetInsert { level, fi, ti } | Update::SetRemove { level, fi, ti } => {
            let (lvl, attr, _) = set_info(*level);
            let from = &levels[lvl];
            let to = &levels[lvl + 1];
            if from.is_empty() || to.is_empty() {
                return;
            }
            let owner = from[*fi as usize % from.len()];
            let target = to[*ti as usize % to.len()];
            let Some(set) = db.base().get_attribute(owner, attr).unwrap().as_ref_oid() else {
                return;
            };
            match u {
                Update::SetInsert { .. } => {
                    db.insert_into_set(set, Value::Ref(target)).unwrap();
                }
                _ => {
                    db.remove_from_set(set, &Value::Ref(target)).unwrap();
                }
            }
        }
        Update::Assign { fi, ti } => {
            let (from, to) = (&levels[1], &levels[2]);
            if from.is_empty() || to.is_empty() {
                return;
            }
            let owner = from[*fi as usize % from.len()];
            let target = to[*ti as usize % to.len()];
            db.set_attribute(owner, "A2", Value::Ref(target)).unwrap();
        }
        Update::ClearAssign { fi } => {
            let from = &levels[1];
            if from.is_empty() {
                return;
            }
            let owner = from[*fi as usize % from.len()];
            db.set_attribute(owner, "A2", Value::Null).unwrap();
        }
        Update::AttachSet { level, fi } => {
            let (lvl, attr, set_ty) = set_info(*level);
            let from = &levels[lvl];
            if from.is_empty() {
                return;
            }
            let owner = from[*fi as usize % from.len()];
            if db.base().get_attribute(owner, attr).unwrap().is_null() {
                let set = db.instantiate(set_ty).unwrap();
                db.set_attribute(owner, attr, Value::Ref(set)).unwrap();
            }
        }
        Update::DetachSet { level, fi } => {
            let (lvl, attr, _) = set_info(*level);
            let from = &levels[lvl];
            if from.is_empty() {
                return;
            }
            let owner = from[*fi as usize % from.len()];
            db.set_attribute(owner, attr, Value::Null).unwrap();
        }
        Update::Name { ni } => {
            let t3 = &levels[3];
            if t3.is_empty() {
                return;
            }
            let obj = t3[*ni as usize % t3.len()];
            db.set_attribute(obj, "Name", Value::string(format!("N{}", ni % 3)))
                .unwrap();
        }
        Update::ClearName { ni } => {
            let t3 = &levels[3];
            if t3.is_empty() {
                return;
            }
            let obj = t3[*ni as usize % t3.len()];
            db.set_attribute(obj, "Name", Value::Null).unwrap();
        }
    }
}

/// `counts[l]` objects per level and one ASR per extension, each under a
/// decomposition drawn from `dec_seed`.
fn chain_db(counts: [u8; 4], dec_seed: u8, keep: bool) -> (Database, Vec<Vec<Oid>>) {
    let schema = chain_schema();
    let path = PathExpression::parse(&schema, PATH).unwrap();
    let mut db = Database::new(schema);
    let mut levels: Vec<Vec<Oid>> = Vec::new();
    for (l, &count) in counts.iter().enumerate() {
        let mut objs = Vec::new();
        for _ in 0..count {
            objs.push(db.instantiate(&format!("T{l}")).unwrap());
        }
        levels.push(objs);
    }
    let m = path.arity(keep) - 1;
    let all_decs = Decomposition::enumerate_all(m);
    for (e, ext) in Extension::ALL.into_iter().enumerate() {
        let dec = all_decs[(dec_seed as usize + e) % all_decs.len()].clone();
        db.create_asr(
            path.clone(),
            AsrConfig {
                extension: ext,
                decomposition: dec,
                keep_set_oids: keep,
            },
        )
        .unwrap();
    }
    (db, levels)
}

/// Each partition's stored rows, read off the pages (uncharged), after
/// asserting that its forward tree and its backward tree hold the same
/// ones.  A stray row that no reassembled extension row reaches still
/// shows here.
fn partition_rows(asr: &AccessSupportRelation) -> Vec<Vec<Row>> {
    let sorted = |tree: &asr_core::partition::ClusterTree, rotated: bool| {
        let mut rows = Vec::new();
        tree.pages().scan_all(
            |_| {},
            |cells| {
                let row = if rotated {
                    RowRef::rotated(cells)
                } else {
                    RowRef::new(cells)
                };
                rows.push(row.to_row());
            },
        );
        rows.sort();
        rows
    };
    let mut out = Vec::new();
    for p in asr.partitions() {
        let fwd = sorted(p.forward_tree(), false);
        assert_eq!(
            fwd,
            sorted(p.backward_tree(), true),
            "both trees hold the same rows"
        );
        out.push(fwd);
    }
    out
}

/// Every span answer of every ASR, supported or not: forward from each
/// object of each level, backward to each object and each name.
fn span_answers(db: &Database, levels: &[Vec<Oid>]) -> Vec<String> {
    let mut out = Vec::new();
    let names = (0..3).map(|n| Cell::Value(Value::string(format!("N{n}"))));
    let ids: Vec<_> = db.asrs().map(|(id, _)| id).collect();
    for id in ids {
        for i in 0..4 {
            for j in i + 1..=4 {
                for &start in &levels[i] {
                    let mut cells = db.forward(id, i, j, start).unwrap();
                    cells.sort();
                    out.push(format!("{id} fw {i}..{j} {start} {cells:?}"));
                }
                let targets: Vec<Cell> = match levels.get(j) {
                    Some(objs) => objs.iter().map(|&o| Cell::Oid(o)).collect(),
                    None => names.clone().collect(),
                };
                for target in targets {
                    let mut oids = db.backward(id, i, j, &target).unwrap();
                    oids.sort();
                    out.push(format!("{id} bw {i}..{j} {target} {oids:?}"));
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A database saved, physically reloaded and updated further stays
    /// indistinguishable from a twin that was never reloaded: maintenance
    /// on the restored partitions writes exactly the rows it writes on the
    /// twin's.
    #[test]
    fn reloaded_database_tracks_its_never_reloaded_twin(
        counts in proptest::array::uniform4(1u8..4),
        before in proptest::collection::vec(update_strategy(), 1..24),
        after in proptest::collection::vec(update_strategy(), 1..12),
        dec_seed in any::<u8>(),
        keep in any::<bool>(),
    ) {
        let (mut twin, levels) = chain_db(counts, dec_seed, keep);
        for u in &before {
            apply_update(&mut twin, &levels, u);
        }
        let (mut reloaded, report) =
            Database::load_from_string_report(&twin.save_to_string()).unwrap();
        prop_assert!(report.asrs.iter().all(|(_, mode)| mode.is_physical()), "{:?}", report);
        for u in &after {
            apply_update(&mut twin, &levels, u);
            apply_update(&mut reloaded, &levels, u);
        }
        for ((_, got), (_, want)) in reloaded.asrs().zip(twin.asrs()) {
            got.check_consistency().unwrap();
            prop_assert_eq!(partition_rows(got), partition_rows(want), "{} under {} keep={}",
                got.config().extension, got.config().decomposition, keep);
        }
        prop_assert_eq!(span_answers(&reloaded, &levels), span_answers(&twin, &levels));
        prop_assert_eq!(reloaded.save_to_string(), twin.save_to_string());
    }

    #[test]
    fn incremental_maintenance_equals_rebuild(
        counts in proptest::array::uniform4(1u8..4),
        updates in proptest::collection::vec(update_strategy(), 1..30),
        dec_seed in any::<u8>(),
        keep in any::<bool>(),
    ) {
        let (mut db, levels) = chain_db(counts, dec_seed, keep);
        for u in &updates {
            apply_update(&mut db, &levels, u);
        }
        assert_matches_rebuild(&db, &format!("keep={keep} after {updates:?}"));
    }
}

/// `t0.A1 = {t1}`, `t1.A2 = t2`, `t2.A3 = {t3}`, `t2b.A3 = {t3}`,
/// `t3.Name = "N0"`, with one ASR per extension over the binary
/// decomposition and over the mid cut `(0, 2, 4)`; returns the database
/// and `[t0, t1, t2, t2b, t3]`.
fn dangling_db() -> (Database, [Oid; 5]) {
    let schema = chain_schema();
    let path = PathExpression::parse(&schema, PATH).unwrap();
    let mut db = Database::new(schema);
    let [t0, t1, t2, t2b, t3] =
        ["T0", "T1", "T2", "T2", "T3"].map(|ty| db.instantiate(ty).unwrap());
    let s1 = db.instantiate("S1").unwrap();
    db.set_attribute(t0, "A1", Value::Ref(s1)).unwrap();
    db.insert_into_set(s1, Value::Ref(t1)).unwrap();
    db.set_attribute(t1, "A2", Value::Ref(t2)).unwrap();
    for owner in [t2, t2b] {
        let s3 = db.instantiate("S3").unwrap();
        db.set_attribute(owner, "A3", Value::Ref(s3)).unwrap();
        db.insert_into_set(s3, Value::Ref(t3)).unwrap();
    }
    db.set_attribute(t3, "Name", Value::string("N0")).unwrap();
    let m = path.arity(false) - 1;
    for ext in Extension::ALL {
        for dec in [
            Decomposition::binary(m),
            Decomposition::new([0, 2, m]).unwrap(),
        ] {
            let config = AsrConfig {
                extension: ext,
                decomposition: dec,
                keep_set_oids: false,
            };
            db.create_asr(path.clone(), config).unwrap();
        }
    }
    (db, [t0, t1, t2, t2b, t3])
}

/// Every ASR of `db` is consistent and holds the rows of a rebuild.
fn assert_matches_rebuild(db: &Database, what: &str) {
    for (_, asr) in db.asrs() {
        asr.check_consistency().unwrap();
        let reference = AccessSupportRelation::build(
            db.base(),
            asr.path().clone(),
            asr.config().clone(),
            IoStats::new_handle(),
        )
        .unwrap();
        assert_eq!(
            partition_rows(asr),
            partition_rows(&reference),
            "{what}: {} under {}",
            asr.config().extension,
            asr.config().decomposition
        );
    }
}

/// Overwriting a reference to a deleted object treats the old value as
/// NULL: the update succeeds and every extension keeps up with a rebuild.
#[test]
fn overwriting_a_dangling_reference_maintains_every_extension() {
    for new in ["t2b", "NULL"] {
        let (mut db, [_, t1, t2, t2b, _]) = dangling_db();
        db.delete_object(t2).unwrap();
        let value = if new == "NULL" {
            Value::Null
        } else {
            Value::Ref(t2b)
        };
        db.set_attribute(t1, "A2", value).unwrap();
        assert_matches_rebuild(&db, &format!("t1.A2 = {new} over a deleted t2"));
    }
}

/// A deleted set member is no member: removing it changes no row, and a
/// set left holding only deleted members is empty (its marker rows), on
/// removal and on insertion alike.
#[test]
fn dangling_set_members_are_no_members() {
    let (mut db, [t0, t1, ..]) = dangling_db();
    let s1 = db
        .base()
        .get_attribute(t0, "A1")
        .unwrap()
        .as_ref_oid()
        .unwrap();
    let t1b = db.instantiate("T1").unwrap();
    db.insert_into_set(s1, Value::Ref(t1b)).unwrap();
    db.delete_object(t1b).unwrap();
    db.remove_from_set(s1, &Value::Ref(t1)).unwrap();
    assert_matches_rebuild(&db, "remove t1 from {t1, deleted t1b}");
    db.insert_into_set(s1, Value::Ref(t1)).unwrap();
    assert_matches_rebuild(&db, "insert t1 into {deleted t1b}");
    assert!(db.remove_from_set(s1, &Value::Ref(t1b)).unwrap());
    assert_matches_rebuild(&db, "remove the deleted t1b from {t1, t1b}");
    db.delete_object(t1).unwrap();
    assert!(db.remove_from_set(s1, &Value::Ref(t1)).unwrap());
    assert_matches_rebuild(&db, "remove the deleted t1 from {t1}");
}

/// Reassigning a set attribute to another set keeps the rows of every
/// edge both sets hold — the marker of two empty sets, a shared member:
/// without set OIDs they are the same rows before and after.
#[test]
fn reassigning_a_set_keeps_the_edges_both_sets_hold() {
    let (mut db, [t0, t1, t2, ..]) = dangling_db();
    let empty = db.instantiate("S3").unwrap();
    db.set_attribute(t2, "A3", Value::Ref(empty)).unwrap();
    assert_matches_rebuild(&db, "t2.A3 := an empty set");
    let other_empty = db.instantiate("S3").unwrap();
    db.set_attribute(t2, "A3", Value::Ref(other_empty)).unwrap();
    assert_matches_rebuild(&db, "t2.A3 := another empty set");
    let shared = db.instantiate("S1").unwrap();
    let t1b = db.instantiate("T1").unwrap();
    for member in [t1, t1b] {
        db.insert_into_set(shared, Value::Ref(member)).unwrap();
    }
    db.set_attribute(t0, "A1", Value::Ref(shared)).unwrap();
    assert_matches_rebuild(&db, "t0.A1 := {t1, t1b} after {t1}");
}

// ----------------------------------------------------------------------
// Checkpoints: a full checkpoint is the delta over the empty base.
// ----------------------------------------------------------------------

/// One step of a mutation history: a maintained update, an object
/// deletion, a variable binding, or the restore of one of the levels'
/// OIDs under any of the schema's types.
#[derive(Debug, Clone)]
enum Step {
    Update(Update),
    Delete { level: u8, i: u8 },
    Bind { var: u8, level: u8, i: u8 },
    Restore { level: u8, i: u8, ty: u8 },
}

/// Every type of [`chain_schema`].
const TYPES: [&str; 6] = ["T0", "S1", "T1", "T2", "S3", "T3"];

fn step_strategy() -> impl Strategy<Value = Step> {
    // Updates four times as often as deletions, bindings and restores
    // each.
    prop_oneof![
        update_strategy().prop_map(Step::Update),
        update_strategy().prop_map(Step::Update),
        update_strategy().prop_map(Step::Update),
        update_strategy().prop_map(Step::Update),
        (0u8..4, any::<u8>()).prop_map(|(level, i)| Step::Delete { level, i }),
        (0u8..3, 0u8..5, any::<u8>()).prop_map(|(var, level, i)| Step::Bind { var, level, i }),
        (0u8..4, any::<u8>(), any::<u8>()).prop_map(|(level, i, ty)| Step::Restore {
            level,
            i,
            ty
        }),
    ]
}

/// The objects of each level still alive under the level's type (a
/// deleted one may have been restored under another).
fn alive(db: &Database, levels: &[Vec<Oid>]) -> Vec<Vec<Oid>> {
    let schema = db.base().schema();
    (levels.iter().enumerate())
        .map(|(l, objs)| {
            let ty = schema.resolve(&format!("T{l}"));
            let live = objs.iter().copied();
            live.filter(|&o| db.base().type_of(o).ok() == ty).collect()
        })
        .collect()
}

/// Apply `step` to the objects of `levels` still alive.  Binding level 4
/// binds `NULL`.  `true` when the step restored an OID.
fn apply_step(db: &mut Database, levels: &[Vec<Oid>], step: &Step) -> bool {
    let alive = alive(db, levels);
    let pick = |level: u8, i: u8| {
        let objs = alive.get(level as usize)?;
        (!objs.is_empty()).then(|| objs[i as usize % objs.len()])
    };
    match step {
        Step::Update(u) => apply_update(db, &alive, u),
        Step::Delete { level, i } => {
            if let Some(oid) = pick(*level, *i) {
                db.delete_object(oid).unwrap();
            }
        }
        Step::Bind { var, level, i } => {
            let value = pick(*level, *i).map_or(Value::Null, Value::Ref);
            db.bind_variable(&format!("v{var}"), value);
        }
        Step::Restore { level, i, ty } => {
            // Any OID of the level, live or deleted, under its level's
            // type half of the time and any type otherwise: a live one is
            // refused, and so is one a tuple slot, set or list still
            // references.
            let objs = &levels[*level as usize];
            let oid = objs[*i as usize % objs.len()];
            let own = format!("T{level}");
            let ty = match ty % 2 {
                0 => own.as_str(),
                _ => TYPES[*ty as usize / 2 % TYPES.len()],
            };
            return db.instantiate_with_oid(ty, oid).is_ok();
        }
    }
    false
}

/// `db`'s full checkpoint loads, to the same object base, and re-saves
/// to its own bytes.
fn assert_reloads(db: &Database, what: &str) {
    let doc = db.save_to_string();
    let loaded = Database::load_from_string(&doc)
        .unwrap_or_else(|e| panic!("{what}: the state does not reload from its checkpoint: {e}"));
    assert_eq!(
        asr_gom::snapshot::write_base(loaded.base()),
        asr_gom::snapshot::write_base(db.base()),
        "{what}: the reloaded base differs"
    );
    assert!(
        loaded.save_to_string() == doc,
        "{what}: the reload re-saves other bytes"
    );
}

/// The answers of [`span_answers`] and the pages they charge.
fn charged_answers(db: &Database, levels: &[Vec<Oid>]) -> (Vec<String>, u64) {
    let alive = alive(db, levels);
    db.stats().reset();
    let answers = span_answers(db, &alive);
    (answers, db.stats().accesses())
}

/// The longest chain a durable database keeps: `asr_durable::DELTA_CHAIN_LIMIT`.
const CHAIN_LIMIT: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_full_checkpoint_is_the_delta_over_the_empty_base(
        counts in proptest::array::uniform4(1u8..4),
        history in proptest::collection::vec(step_strategy(), 0..30),
        first in 0usize..12,
        every in 1usize..6,
    ) {
        // The empty base: the schema and every ASR over no objects.
        let schema = chain_schema();
        let path = PathExpression::parse(&schema, PATH).unwrap();
        let mut primary = Database::new(schema);
        for ext in Extension::ALL {
            for dec in Decomposition::enumerate_all(path.arity(false) - 1) {
                let config = AsrConfig { extension: ext, decomposition: dec, keep_set_oids: false };
                primary.create_asr(path.clone(), config).unwrap();
            }
        }
        let empty = primary.begin_checkpoint().save_full(0);
        let mut levels: Vec<Vec<Oid>> = Vec::new();
        for (l, &count) in counts.iter().enumerate() {
            let level = (0..count).map(|_| primary.instantiate(&format!("T{l}")).unwrap());
            levels.push(level.collect());
        }
        let first = first.min(history.len());
        for step in &history[..first] {
            apply_step(&mut primary, &levels, step);
        }
        let source = primary.begin_checkpoint();
        let full = source.save_full(1);
        let over_empty = source.save_delta(1, 0).unwrap();
        drop(source);
        let loaded = Database::load_from_string(&full).unwrap();
        let (patched, _) = Database::load_from_chain_report(&empty, &[&over_empty]).unwrap();
        prop_assert!(patched.save_to_string() == loaded.save_to_string(),
            "the full checkpoint differs from the delta over the empty base");

        let mut deltas = Vec::new();
        for (k, chunk) in history[first..].chunks(every).enumerate() {
            for step in chunk {
                apply_step(&mut primary, &levels, step);
            }
            let source = primary.begin_checkpoint();
            deltas.push(source.save_delta(k as u64 + 2, k as u64 + 1).unwrap());
        }
        let mut replica = loaded;
        for delta in &deltas {
            replica = Database::load_from_chain_report(&replica.save_to_string(), &[delta]).unwrap().0;
        }
        prop_assert!(replica.save_to_string() == primary.save_to_string(),
            "the replayed chain differs from the primary");
        for (_, asr) in replica.asrs() {
            asr.check_consistency().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every state a random history reaches — restores of deleted OIDs
    /// under arbitrary types included — matches a rebuild and reloads
    /// from its own checkpoint.  A restore of an OID that a tuple slot,
    /// set or list still references is refused: the object would revive
    /// the reference, which no ASR saw.
    #[test]
    fn every_reached_state_matches_a_rebuild_and_reloads_from_its_own_checkpoint(
        counts in proptest::array::uniform4(1u8..4),
        history in proptest::collection::vec(step_strategy(), 1..40),
        dec_seed in any::<u8>(),
    ) {
        let (mut db, levels) = chain_db(counts, dec_seed, false);
        for (k, step) in history.iter().enumerate() {
            apply_step(&mut db, &levels, step);
            let what = format!("after step {k} of {history:?}");
            assert_matches_rebuild(&db, &what);
            assert_reloads(&db, &what);
        }
    }
}

/// Restores that the random histories draw, written out: a deleted `T0`
/// (nothing references one) comes back under its own type and under
/// another, a deleted `T1` that a set still holds is refused, and a delta
/// that lists a restored OID as deleted and made anew loads, through the
/// chain loader, to the primary's bytes.
#[test]
fn unreferenced_oids_come_back_and_ship_as_deleted_and_made_anew() {
    let (mut db, levels) = chain_db([3, 2, 2, 2], 7, false);
    for step in [
        Update::AttachSet { level: 0, fi: 0 },
        Update::SetInsert {
            level: 0,
            fi: 0,
            ti: 1,
        },
        Update::AttachSet { level: 0, fi: 2 },
        Update::SetInsert {
            level: 0,
            fi: 2,
            ti: 0,
        },
        Update::Assign { fi: 0, ti: 0 },
    ] {
        apply_update(&mut db, &levels, &step);
    }
    let full = db.begin_checkpoint().save_full(1);
    let [t0a, t0b] = [levels[0][0], levels[0][1]];
    let t1 = levels[1][0];
    for oid in [t0a, t0b, t1] {
        db.delete_object(oid).unwrap();
    }
    let mut restored = 0;
    for (oid, ty) in [(t0a, "T0"), (t0b, "T3"), (t1, "T1")] {
        restored += usize::from(db.instantiate_with_oid(ty, oid).is_ok());
        assert_matches_rebuild(&db, &format!("after restoring {oid} as {ty}"));
        assert_reloads(&db, &format!("after restoring {oid} as {ty}"));
    }
    assert_eq!(restored, 2, "only the unreferenced OIDs come back");
    assert!(db.instantiate_with_oid("T1", t1).is_err());
    let delta = db.begin_checkpoint().save_delta(2, 1).unwrap();
    let (loaded, _) = Database::load_from_chain_report(&full, &[&delta]).unwrap();
    assert!(loaded.save_to_string() == db.save_to_string());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A full checkpoint and a chain of up to [`CHAIN_LIMIT`] deltas after
    /// it, loaded in one pass, equal the same chain loaded one delta at a
    /// time over the state saved before it, and the live database: the same bytes and the same span answers,
    /// which charge the same pages as they do on the live state's own full
    /// checkpoint, loaded (the live clustered files hold objects in
    /// creation order, a loaded one in OID order).  The histories remove set members,
    /// reassign sets, delete objects (each ASR then ships images inside
    /// the delta) and restore them under arbitrary types.
    #[test]
    fn a_chain_loads_in_one_pass_to_the_state_applied_delta_by_delta(
        counts in proptest::array::uniform4(1u8..4),
        history in proptest::collection::vec(step_strategy(), 1..48),
        links in 1usize..CHAIN_LIMIT + 1,
        dec_seed in any::<u8>(),
        keep in any::<bool>(),
    ) {
        let (mut primary, levels) = chain_db(counts, dec_seed, keep);
        let chunk = history.len().div_ceil(links + 1);
        let mut chunks = history.chunks(chunk);
        for step in chunks.next().unwrap_or_default() {
            apply_step(&mut primary, &levels, step);
        }
        let full = primary.begin_checkpoint().save_full(1);
        let mut deltas = Vec::new();
        for (k, steps) in chunks.enumerate() {
            for step in steps {
                apply_step(&mut primary, &levels, step);
            }
            let lsn = k as u64 + 2;
            deltas.push(primary.begin_checkpoint().save_delta(lsn, lsn - 1).unwrap());
        }
        let refs: Vec<&[u8]> = deltas.iter().map(Vec::as_slice).collect();
        let (one_pass, report) = Database::load_from_chain_report(&full, &refs).unwrap();
        prop_assert_eq!(report.delta_chain, deltas.len());
        prop_assert!(report.asrs.iter().all(|(_, m)| m.is_physical() || m.is_delta()), "{:?}", report);
        let mut stepwise = Database::load_from_string(&full).unwrap();
        for delta in &deltas {
            stepwise = Database::load_from_chain_report(&stepwise.save_to_string(), &[delta]).unwrap().0;
        }
        let want = primary.save_to_string();
        prop_assert!(one_pass.save_to_string() == want, "the one-pass chain differs from the primary");
        prop_assert!(stepwise.save_to_string() == want, "the stepwise chain differs from the primary");
        for (_, asr) in one_pass.asrs() {
            asr.check_consistency().unwrap();
        }
        let (answers, _) = charged_answers(&primary, &levels);
        let reloaded = charged_answers(&Database::load_from_string(&want).unwrap(), &levels);
        prop_assert_eq!(&reloaded.0, &answers);
        prop_assert_eq!(&charged_answers(&one_pass, &levels), &reloaded);
        prop_assert_eq!(&charged_answers(&stepwise, &levels), &reloaded);
    }
}
