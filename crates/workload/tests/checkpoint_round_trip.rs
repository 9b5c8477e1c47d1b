//! The checkpoint round trip of the benchmark ledger's database — the
//! fig6 population at 1/1 scale (generator seed 7) with one Full/binary
//! ASR on `T0.A1.A2.A3.A4.Tag` — timed: the best of 15 saves, of 15
//! loads and of dropping the 15 loaded databases, each split into the
//! object base (the same database with its ASR dropped) and the ASR
//! frames (the difference).  A load is timed up to the loaded database,
//! without freeing it.  Timing only means something in release mode:
//!
//! ```sh
//! cargo test --release -p asr-workload --test checkpoint_round_trip -- --ignored --nocapture
//! ```

use std::time::{Duration, Instant};

use asr_core::{AsrConfig, Database, Decomposition, Extension};
use asr_costmodel::profiles;
use asr_workload::{generate, GeneratorSpec};

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

#[test]
#[ignore = "timing; run in release mode"]
fn ledger_checkpoint_save_and_load() {
    let spec = GeneratorSpec::from_profile(&profiles::fig6_profile().profile, 1.0);
    let mut db = generate(&spec, 7).db;
    let path = asr_gom::PathExpression::parse(db.base().schema(), PATH).unwrap();
    let config = AsrConfig {
        extension: Extension::Full,
        decomposition: Decomposition::binary(path.arity(false) - 1),
        keep_set_oids: false,
    };
    let id = db.create_asr_on(PATH, config).expect("ASR builds");
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
