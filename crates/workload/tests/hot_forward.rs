//! What the serving mix's forward query, `select r.A2.A3.A4.Tag from r in
//! Hot`, costs by each evaluation strategy on the benchmark population
//! (Figure 6 at 1/1, generator seed 7, `Hot` the first defined `S1` set,
//! a Full/binary ASR on `T0.A1.A2.A3.A4.Tag`).  Navigation is not beaten
//! by the ASR here: answering `Q_{1,5}(fw)` per member costs more pages
//! than navigating, and one batched frontier over all members merely
//! ties it.  A cost-based planner must therefore keep navigating this
//! query.

use asr_core::{AsrConfig, AsrId, Cell, Database, Decomposition, Extension, Frontier};
use asr_costmodel::profiles;
use asr_gom::{Oid, PathExpression};
use asr_workload::{generate, GeneratorSpec};

const ASR_PATH: &str = "T0.A1.A2.A3.A4.Tag";

/// Pages read and written by `run`.
fn pages(db: &Database, run: impl FnOnce()) -> u64 {
    let before = db.stats().snapshot();
    run();
    let after = db.stats().snapshot();
    (after.reads - before.reads) + (after.writes - before.writes)
}

/// Pages of the three strategies for the members of one `S1` set:
/// navigation per member, `Q_{1,5}(fw)` per member, and one batched
/// frontier of all members walked through partitions 1–4.
fn costs(db: &Database, asr: AsrId, fw_path: &PathExpression, set: Oid) -> [u64; 3] {
    let members = db.base().element_oids(set).unwrap();
    let navigate = pages(db, || {
        for &m in &members {
            db.forward_unindexed(fw_path, 0, fw_path.len(), m).unwrap();
        }
    });
    let per_member = pages(db, || {
        for &m in &members {
            db.forward(asr, 1, 5, m).unwrap();
        }
    });
    let batched = pages(db, || {
        let cells = members.iter().copied().map(Cell::Oid).collect();
        let mut frontier = Frontier::ascending(cells).unwrap();
        for part in &db.asr(asr).unwrap().partitions()[1..] {
            let mut next = Vec::new();
            part.probe(true, &frontier, &mut |row| next.extend(row.last().clone()));
            next.sort_unstable();
            next.dedup();
            frontier = Frontier::ascending(next).unwrap();
        }
    });
    [navigate, per_member, batched]
}

#[test]
fn the_asr_does_not_beat_navigation_for_the_hot_forward_query() {
    let spec = GeneratorSpec::from_profile(&profiles::fig6_profile().profile, 1.0);
    let g = generate(&spec, 7);
    let mut db = g.db;
    let config = AsrConfig {
        extension: Extension::Full,
        decomposition: Decomposition::binary(5),
        keep_set_oids: false,
    };
    let asr = db.create_asr_on(ASR_PATH, config).unwrap();
    let fw_path = PathExpression::parse(db.base().schema(), "T1.A2.A3.A4.Tag").unwrap();
    let s1_sets: Vec<Oid> = g.sets[0].iter().flatten().copied().take(90).collect();

    let hot = s1_sets[0];
    assert_eq!(db.base().element_oids(hot).unwrap().len(), 2);
    assert_eq!(costs(&db, asr, &fw_path, hot), [23, 29, 23]);

    // Over the first 90 sets: navigation 27.2, per member 32.5, batched
    // 27.8 pages on average.
    let mut totals = [0u64; 3];
    for &set in &s1_sets {
        let c = costs(&db, asr, &fw_path, set);
        for (total, pages) in totals.iter_mut().zip(c) {
            *total += pages;
        }
    }
    assert_eq!(s1_sets.len(), 90);
    let tenths = totals.map(|t| (t * 10 + 45) / 90);
    assert_eq!(
        tenths,
        [272, 325, 278],
        "mean pages ×10: {totals:?} over 90"
    );
}
