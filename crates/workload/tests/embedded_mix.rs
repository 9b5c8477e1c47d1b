//! The paper's §6.4.2 query mix on the fig6 population, pinned: the
//! benchmark ledger's `embedded-query` design (fig6 at scale 1/1, one
//! Full/binary ASR on `T0.A1.A2.A3.A4.Tag`) answering the first 2 000
//! operations of a seeded mix must charge exactly the pages, batched
//! probes and batch savings — and give exactly the answers — that it did
//! before the span walk stopped copying rows.  A pinned MVCC snapshot
//! must answer the same operations identically and charge the same pages:
//! it walks the same B+ tree pages with the same read code.

use asr_core::{AsrConfig, AsrId, Cell, Database, Decomposition, Extension, Snapshot};
use asr_costmodel::profiles;
use asr_gom::Oid;
use asr_pagesim::IoSnapshot;
use asr_workload::{generate, GeneratorSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const OPS: usize = 2_000;

/// `Q_{i,j}(bw)` towards `Cell::Oid(target)`, or `Q_{i,j}(fw)` from `start`.
enum Op {
    Bw { i: usize, j: usize, target: Oid },
    Fw { i: usize, j: usize, start: Oid },
}

/// ½ `Q_{0,4}(bw)`, ¼ `Q_{0,3}(bw)`, ¼ `Q_{1,2}(fw)` over random objects
/// of the level each query enters at.
fn mix(levels: &[Vec<Oid>], seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pick = |rng: &mut SmallRng, level: usize| {
        let objs = &levels[level];
        objs[rng.gen_range(0..objs.len())]
    };
    (0..OPS)
        .map(|_| match rng.gen_range(0..4) {
            0 | 1 => Op::Bw {
                i: 0,
                j: 4,
                target: pick(&mut rng, 4),
            },
            2 => Op::Bw {
                i: 0,
                j: 3,
                target: pick(&mut rng, 3),
            },
            _ => Op::Fw {
                i: 1,
                j: 2,
                start: pick(&mut rng, 1),
            },
        })
        .collect()
}

/// Every answer as raw OIDs (both query classes here end on OID columns).
fn oids(cells: Vec<Cell>) -> Vec<Oid> {
    cells
        .into_iter()
        .map(|c| c.as_oid().expect("an OID column"))
        .collect()
}

fn live(db: &Database, asr: AsrId, op: &Op) -> Vec<Oid> {
    match *op {
        Op::Bw { i, j, target } => db.backward(asr, i, j, &Cell::Oid(target)).unwrap(),
        Op::Fw { i, j, start } => oids(db.forward(asr, i, j, start).unwrap()),
    }
}

fn pinned(snap: &Snapshot, asr: AsrId, op: &Op) -> Vec<Oid> {
    match *op {
        Op::Bw { i, j, target } => snap.backward(asr, i, j, &Cell::Oid(target)).unwrap(),
        Op::Fw { i, j, start } => oids(snap.forward(asr, i, j, start).unwrap()),
    }
}

/// FNV-1a over every answer's length and raw OIDs, in operation order.
fn digest(answers: &[Vec<Oid>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = answers
        .iter()
        .flat_map(|a| std::iter::once(a.len() as u64).chain(a.iter().map(|o| o.as_raw())));
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn fig6_query_mix_pages_and_answers_are_pinned() {
    let spec = GeneratorSpec::from_profile(&profiles::fig6_profile().profile, 1.0);
    let g = generate(&spec, 7);
    let mut db = g.db;
    let asr = db
        .create_asr_on(
            "T0.A1.A2.A3.A4.Tag",
            AsrConfig {
                extension: Extension::Full,
                // Six columns: T0 … T4 and the Tag value.
                decomposition: Decomposition::binary(5),
                keep_set_oids: false,
            },
        )
        .unwrap();
    let ops = mix(&g.levels, 1990);

    let before = db.stats().snapshot();
    let answers: Vec<Vec<Oid>> = ops.iter().map(|op| live(&db, asr, op)).collect();
    let after = db.stats().snapshot();
    let io = IoSnapshot {
        reads: after.reads - before.reads,
        writes: after.writes - before.writes,
        buffer_hits: after.buffer_hits - before.buffer_hits,
        batch_probes: after.batch_probes - before.batch_probes,
        batch_pages_saved: after.batch_pages_saved - before.batch_pages_saved,
    };
    // Literals taken from the parent of the by-reference span walk.
    assert_eq!(
        io,
        IoSnapshot {
            reads: 7162,
            writes: 0,
            buffer_hits: 0,
            batch_probes: 4004,
            batch_pages_saved: 894,
        }
    );
    assert_eq!(digest(&answers), 4_749_334_576_215_802_165);

    let snap = db.snapshot();
    for (n, (op, answer)) in ops.iter().zip(&answers).enumerate() {
        assert_eq!(&pinned(&snap, asr, op), answer, "op {n}");
    }
    assert_eq!(
        snap.pages_read(),
        io.reads,
        "pinned and live reads charge alike"
    );
    assert_eq!(snap.pages_read(), 7162);
}

/// The reassembly walk that builds the fig6 population's Full extension
/// computes the fold of `chain_join`s that Definitions 3.4–3.7 write down.
#[test]
fn fig6_full_extension_is_the_join_fold() {
    let spec = GeneratorSpec::from_profile(&profiles::fig6_profile().profile, 1.0);
    let g = generate(&spec, 7);
    let aux = asr_core::build_auxiliary_relations(g.db.base(), &g.path, false).unwrap();
    let walked = Extension::Full.compute(&aux).unwrap();
    assert!(walked.iter().any(|row| row.first().is_none()));
    assert!(walked.iter().any(|row| row.last().is_none()));
    assert_eq!(walked, Extension::Full.fold(&aux).unwrap());
}
