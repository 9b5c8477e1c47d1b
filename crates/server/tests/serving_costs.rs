//! What scatter-gather serving costs in modeled pages, and what a shard
//! outage costs to ride out and heal, pinned.
//!
//! The primary is a generated 48/96/192/384 chain (seed `0xA55E`) with
//! one Full/binary ASR, made durable; the fleet is seeded through the
//! replication substrate.  The script answers every full-path forward
//! query from 24 starts and every full-path backward query towards 24
//! targets.  Links are lossless and the page simulation is exact, so
//! every figure is a literal.

use std::rc::Rc;

use asr_core::{AsrConfig, AsrId, Cell, Decomposition, Extension};
use asr_durable::{DurableDatabase, FlushPolicy, MemStorage};
use asr_gom::Oid;
use asr_obs::{FlightEvent, FlightRecorder};
use asr_pagesim::PAGE_SIZE;
use asr_server::{ShardFaultPlan, ShardedDatabase};
use asr_workload::{generate, GeneratorSpec};

struct Staged {
    primary: DurableDatabase<MemStorage>,
    asr: AsrId,
    n: usize,
    starts: Vec<Oid>,
    targets: Vec<Oid>,
}

fn stage() -> Staged {
    let spec = GeneratorSpec {
        counts: vec![48, 96, 192, 384],
        defined: vec![48, 96, 192],
        fan: vec![2, 2, 2],
        sizes: vec![128, 128, 128, 128],
    };
    let g = generate(&spec, 0xA55E);
    let n = g.path.arity(false) - 1;
    let mut db = g.db;
    let asr = db
        .create_asr_on(
            &g.path.to_string(),
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(n),
                keep_set_oids: false,
            },
        )
        .expect("ASR builds");
    let primary =
        DurableDatabase::create(MemStorage::new(), db, FlushPolicy::EveryRecord).expect("creates");
    Staged {
        primary,
        asr,
        n,
        starts: g.levels[0].iter().copied().take(24).collect(),
        targets: g.levels[n].iter().copied().take(24).collect(),
    }
}

/// Run the span script: `(queries, rows, queries answered degraded)`.
fn drive(sharded: &mut ShardedDatabase, staged: &Staged) -> (u64, u64, u64) {
    let (mut queries, mut rows, mut degraded) = (0, 0, 0);
    sharded.take_degraded();
    for &start in &staged.starts {
        rows += sharded
            .forward(staged.asr, 0, staged.n, start)
            .expect("forward span")
            .len() as u64;
        queries += 1;
        degraded += u64::from(!sharded.take_degraded().is_empty());
    }
    for &target in &staged.targets {
        rows += sharded
            .backward(staged.asr, 0, staged.n, &Cell::Oid(target))
            .expect("backward span")
            .len() as u64;
        queries += 1;
        degraded += u64::from(!sharded.take_degraded().is_empty());
    }
    (queries, rows, degraded)
}

/// Every shard count gathers the same 233 rows.  Hash sharding halves
/// the hottest shard's pages, but at four shards every probe is
/// scattered to shards that hold nothing for it, doubling the merged
/// bill: the span walk is not pushed down to the shards.
#[test]
fn scatter_gather_pages_are_pinned_at_1_2_4_shards() {
    let staged = stage();
    let points: Vec<(usize, u64, u64, u64, u64)> = [1, 2, 4]
        .into_iter()
        .map(|shards| {
            let mut sharded =
                ShardedDatabase::from_primary(&staged.primary, shards, None).expect("fleet seeds");
            sharded.fleet_mut().take_io(); // discard seeding-era I/O
            let (queries, rows, degraded) = drive(&mut sharded, &staged);
            assert_eq!(degraded, 0, "a healthy fleet answers in full");
            let (merged, hot) = sharded.fleet_mut().take_io();
            (shards, queries, rows, merged.accesses(), hot)
        })
        .collect();
    assert_eq!(
        points,
        [
            (1, 48, 233, 262, 262),
            (2, 48, 233, 262, 131),
            (4, 48, 233, 524, 131),
        ]
    );
}

/// `(deliveries, bytes, pages, ticks to recover)` of one heal.
type Reseed = (u64, u64, u64, u64);

/// Crash shard 0 of a 2-shard fleet on its first operation (losing its
/// replica base too if `lose_applier`), run the script degraded, let the
/// primary commit 12 leaf objects, then tick until the fleet heals.
/// Returns the script's `(queries, rows, degraded)` and the reseed bill
/// read off the `shard.reseed.end` flight event.
fn outage(staged: &mut Staged, lose_applier: bool) -> ((u64, u64, u64), Reseed) {
    let mut sharded = ShardedDatabase::from_primary(&staged.primary, 2, None).expect("fleet seeds");
    let recorder = Rc::new(FlightRecorder::new(1 << 14));
    sharded.catalog().tracer().add_sink(recorder.clone());
    sharded.set_fault_plan(
        0,
        ShardFaultPlan {
            crash_at_op: Some(1),
            lose_applier,
            ..ShardFaultPlan::default()
        },
    );
    let script = drive(&mut sharded, staged);
    let leaf = format!("T{}", staged.n);
    for _ in 0..12 {
        staged.primary.instantiate(&leaf).expect("outage delta op");
    }
    let mut ticks = 0;
    while !sharded.all_up() {
        assert!(ticks < 64, "tick loop failed to heal the fleet");
        sharded.tick(&staged.primary);
        ticks += 1;
    }

    let attr = |ev: &FlightEvent, key: &str| {
        ev.record
            .attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    let end = recorder
        .tail(recorder.len())
        .into_iter()
        .find(|e| {
            e.record.name == "shard.reseed.end" && attr(e, "outcome").as_deref() == Some("ok")
        })
        .expect("the healed fleet recorded a successful reseed");
    let want_mode = if lose_applier { "full" } else { "delta" };
    assert_eq!(attr(&end, "mode").as_deref(), Some(want_mode));
    let num = |key: &str| -> u64 {
        attr(&end, key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("reseed.end lacks numeric `{key}`"))
    };
    let bytes = num("bytes");
    let reseed = (
        num("deliveries"),
        bytes,
        bytes.div_ceil(PAGE_SIZE as u64),
        num("ticks_down"),
    );
    (script, reseed)
}

/// While a shard is out every query is answered, flagged partial, from
/// the survivor's 33 of the 233 rows.  A shard that kept its replica
/// base heals by a delta reseed of one page; one that lost it re-ships
/// the checkpoint (13 pages).  Both heal in one tick.
#[test]
fn shard_outage_degrades_then_reseeds_at_pinned_cost() {
    let mut staged = stage();
    let (script, delta) = outage(&mut staged, false);
    assert_eq!(script, (48, 33, 48));
    assert_eq!(delta, (1, 276, 1, 1));
    let (_, full) = outage(&mut staged, true);
    assert_eq!(full, (2, 50_744, 13, 1));
    assert_eq!(format!("{:.4}", delta.2 as f64 / full.2 as f64), "0.0769");
}
