//! The checkpoint round trip of the benchmark ledger's database — the
//! fig6 population at 1/1 scale (generator seed 7) with one Full/binary
//! ASR on `T0.A1.A2.A3.A4.Tag` — timed: the best of 15 saves, of 15
//! loads and of dropping the 15 loaded databases, each split into the
//! object base (the same database with its ASR dropped) and the ASR
//! frames (the difference).  A load is timed up to the loaded database,
//! without freeing it.  Then the checkpoints the `restart` workload
//! takes: the delta after 16 logged `ins_3` (its bytes and the best of 15
//! renders), and the load of a chain of such deltas over the full
//! document at depths 0, 1, 2, 4 and 8 (best of 15 each).  Timing only
//! means something in release mode:
//!
//! ```sh
//! cargo test --release -p asr-workload --test checkpoint_round_trip -- --ignored --nocapture
//! ```

use std::time::{Duration, Instant};

use asr_core::{AsrConfig, Database, Decomposition, Extension};
use asr_costmodel::{profiles, Mix, Op};
use asr_gom::Value;
use asr_workload::{generate, generate_trace, GeneratedBase, GeneratorSpec, TraceOp};

const PATH: &str = "T0.A1.A2.A3.A4.Tag";

/// The shortest of `n` runs of `f`, and the shortest time taken to drop
/// what a run made.
fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (Duration, Duration) {
    let mut best = (Duration::MAX, Duration::MAX);
    for _ in 0..n {
        let t = Instant::now();
        let made = std::hint::black_box(f());
        let run = t.elapsed();
        let t = Instant::now();
        drop(made);
        best = (best.0.min(run), best.1.min(t.elapsed()));
    }
    best
}

/// Best-of-15 save, load and drop times of `db`'s full checkpoint, and
/// its size.
fn round_trip(db: &Database) -> ([Duration; 3], usize) {
    let doc = db.save_to_string();
    let (save, _) = best_of(15, || db.save_to_string());
    let (load, drop) = best_of(15, || Database::load_from_string(&doc).expect("loads"));
    ([save, load, drop], doc.len())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The ledger's population, its trace generator, and the database with
/// its ASR.
fn ledger() -> (GeneratedBase, Database) {
    let spec = GeneratorSpec::from_profile(&profiles::fig6_profile().profile, 1.0);
    let generated = generate(&spec, 7);
    let mut db = generate(&spec, 7).db;
    let path = asr_gom::PathExpression::parse(db.base().schema(), PATH).unwrap();
    let config = AsrConfig {
        extension: Extension::Full,
        decomposition: Decomposition::binary(path.arity(false) - 1),
        keep_set_oids: false,
    };
    db.create_asr_on(PATH, config).expect("ASR builds");
    (generated, db)
}

/// Apply the trace's effective `ins_i` inserts to `db`.
fn insert(db: &mut Database, trace: &[TraceOp]) {
    for op in trace {
        let TraceOp::Insert { i, owner, elem } = op else {
            continue;
        };
        let set = db.base().get_attribute(*owner, &format!("A{}", i + 1));
        if let Some(set) = set.ok().and_then(|v| v.as_ref_oid()) {
            db.insert_into_set(set, Value::Ref(*elem)).expect("inserts");
        }
    }
}

/// The delta checkpoint a `restart` cycle writes — 16 `ins_3` over the
/// loaded full document — and loads of delta chains of growing depth.
#[test]
#[ignore = "timing; run in release mode"]
fn ledger_delta_checkpoint_and_chain_open() {
    let (generated, db) = ledger();
    let full = db.save_to_string();
    let mix = Mix::new(vec![], vec![(1.0, Op::ins(3))], 1.0);
    let trace = generate_trace(&generated, &mix, 16 * 8, 11);
    let batches: Vec<&[TraceOp]> = trace.chunks(16).collect();

    let mut render = Duration::MAX;
    let mut bytes = 0;
    for _ in 0..15 {
        let mut db = Database::load_from_string(&full).expect("loads");
        insert(&mut db, batches[0]);
        let t = Instant::now();
        let delta = db.begin_checkpoint().save_delta(16, 0).expect("a delta");
        render = render.min(t.elapsed());
        bytes = delta.len();
    }
    println!(
        "restart delta checkpoint (16 ins_3): {bytes} B of a {} B full document, rendered in {:.3} ms",
        full.len(),
        ms(render)
    );

    let mut db = Database::load_from_string(&full).expect("loads");
    let mut deltas = Vec::new();
    for (k, batch) in batches.iter().enumerate() {
        insert(&mut db, batch);
        let lsn = 16 * (k as u64 + 1);
        deltas.push(
            db.begin_checkpoint()
                .save_delta(lsn, lsn - 16)
                .expect("a delta"),
        );
    }
    let want = db.save_to_string();
    let mut line = String::from("open at chain depth");
    for depth in [0, 1, 2, 4, 8] {
        let links: Vec<&[u8]> = deltas[..depth].iter().map(Vec::as_slice).collect();
        let (open, _) = best_of(15, || {
            Database::load_from_chain_report(&full, &links).expect("the chain loads")
        });
        line.push_str(&format!(" {depth}: {:.2} ms,", ms(open)));
    }
    println!("{}", line.trim_end_matches(','));
    let links: Vec<&[u8]> = deltas.iter().map(Vec::as_slice).collect();
    let (chained, _) = Database::load_from_chain_report(&full, &links).unwrap();
    assert!(
        chained.save_to_string() == want,
        "the chain loads the state"
    );
}

#[test]
#[ignore = "timing; run in release mode"]
fn ledger_checkpoint_save_and_load() {
    let (_, mut db) = ledger();
    let id = db.asrs().next().expect("the ASR").0;
    let doc = db.save_to_string();
    let reloaded = Database::load_from_string(&doc).expect("loads");
    assert!(
        reloaded.save_to_string() == doc,
        "a load re-saves its bytes"
    );
    let rows = db.asr(id).unwrap().total_rows();

    let (all, bytes) = round_trip(&db);
    db.drop_asr(id).unwrap();
    let (objects, object_bytes) = round_trip(&db);
    println!(
        "ledger checkpoint, {bytes} B ({} B of ASR frames for {rows} rows), best of 15:",
        bytes - object_bytes
    );
    for ((what, all), objects) in ["save", "load", "drop"].iter().zip(all).zip(objects) {
        println!(
            "{what} {:.2} ms = objects {:.2} + ASR frames {:.2}",
            ms(all),
            ms(objects),
            ms(all.saturating_sub(objects))
        );
    }
}
