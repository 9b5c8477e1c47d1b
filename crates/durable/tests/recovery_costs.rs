//! What recovery, replication, delta checkpoints and point-in-time
//! recovery cost in modeled pages and shipped bytes, pinned.
//!
//! Every test stages the same primary: the fig6 population at full
//! scale (generator seed 7), one Full/binary ASR over its chain covered
//! by the create-time checkpoint, then `ins_3` inserts drawn with trace
//! seed 11 and logged one record each.  The page simulation is exact and
//! the channels are lossless, so every figure is a literal; a change
//! that moves one moved the cost of the mechanism it prices.

use asr_core::{AsrConfig, Database, Decomposition, Extension};
use asr_costmodel::{profiles, Mix, Op};
use asr_durable::{
    recover_to_lsn, replicate, DurableDatabase, FlushPolicy, LogShipper, LosslessChannel,
    MemStorage, Need, ReplicaApplier, ReplicateOptions, Storage, CHECKPOINT_FILE,
};
use asr_gom::{PathExpression, TypeRef, Value};
use asr_pagesim::PAGE_SIZE;
use asr_workload::{generate, generate_trace, GeneratorSpec, TraceOp};

fn config(m: usize) -> AsrConfig {
    AsrConfig {
        extension: Extension::Full,
        decomposition: Decomposition::binary(m),
        keep_set_oids: false,
    }
}

/// The durable primary right after its create-time checkpoint, the
/// `delta_ops`-long `ins_3` trace still to apply, and the ASR's path.
fn stage(delta_ops: usize) -> (DurableDatabase<MemStorage>, Vec<TraceOp>, String) {
    let spec = GeneratorSpec::from_profile(&profiles::fig6_profile().profile, 1.0);
    let g = generate(&spec, 7);
    let m = g.path.arity(false) - 1;
    let mix = Mix::new(vec![], vec![(1.0, Op::ins(3))], 1.0);
    let trace = generate_trace(&g, &mix, delta_ops, 11);
    let dotted = g.path.to_string();
    let mut db = g.db;
    db.create_asr_on(&dotted, config(m)).expect("ASR builds");
    let durable =
        DurableDatabase::create(MemStorage::new(), db, FlushPolicy::EveryRecord).expect("creates");
    (durable, trace, dotted)
}

/// Apply the trace, returning how many inserts were effective (= logged).
fn apply(durable: &mut DurableDatabase<MemStorage>, trace: &[TraceOp]) -> u64 {
    let mut applied = 0;
    for op in trace {
        let TraceOp::Insert { i, owner, elem } = op else {
            continue;
        };
        let Ok(value) = durable.base().get_attribute(*owner, &format!("A{}", i + 1)) else {
            continue;
        };
        let Some(set) = value.as_ref_oid() else {
            continue;
        };
        if durable
            .insert_into_set(set, Value::Ref(*elem))
            .expect("logged insert")
        {
            applied += 1;
        }
    }
    applied
}

fn pages(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE as u64)
}

/// A page ratio, to four decimals.
fn ratio(part: u64, whole: u64) -> String {
    format!("{:.4}", part as f64 / whole as f64)
}

/// `(reads, writes)` one recovery phase charged.
type Phase = (u64, u64);

fn total((reads, writes): Phase) -> u64 {
    reads + writes
}

struct Recovery {
    applied: u64,
    records_replayed: u64,
    /// Loading the checkpoint: ASRs restored from their page images.
    checkpoint_load: Phase,
    /// Loading the same state without its ASR section, rebuilding the
    /// ASR from the base instead.
    rebuild_load: Phase,
    /// Replaying the log tail through incremental maintenance.
    wal_replay: Phase,
    /// The naive alternative to replay: rescan the path's extents and
    /// rebuild the ASR over the recovered base.
    full_rebuild: Phase,
}

/// Crash after `delta_ops` logged inserts and price each way back.
fn measure_recovery(delta_ops: usize) -> Recovery {
    let (mut durable, trace, dotted) = stage(delta_ops);
    let applied = apply(&mut durable, &trace);
    let mem = durable.storage().clone();
    drop(durable); // crash: only the checkpoint and the log survive

    let recovered = DurableDatabase::open(mem.clone()).expect("recovers");
    let report = recovered.recovery_report().clone();
    let recovered_io = recovered.stats().snapshot();

    // The checkpoint file on its own: what restoring its ASR physically
    // charges.
    let file = mem
        .read(CHECKPOINT_FILE)
        .expect("storage readable")
        .expect("checkpoint exists");
    let loaded = Database::load_from_string(&file).expect("checkpoint loads");
    let load_io = loaded.stats().snapshot();

    // An in-memory build walks the base for free; a cold rebuild must
    // read every extent along the path, so those scans are charged.
    let mut db = recovered.into_database();
    let path = PathExpression::parse(db.base().schema(), &dotted).expect("path parses");
    let before = db.stats().snapshot();
    for i in 0..=path.len() {
        if let TypeRef::Named(ty) = path.type_at(i) {
            db.store().charge_scan(ty);
        }
    }
    db.drop_asr(0).expect("ASR #0 exists");
    db.create_asr_on(&dotted, config(path.arity(false) - 1))
        .expect("rebuilds");
    let after = db.stats().snapshot();

    Recovery {
        applied,
        records_replayed: report.records_replayed,
        checkpoint_load: (load_io.reads + report.checkpoint_pages_read, load_io.writes),
        // Reading the file less its ASR section, then rebuilding.
        rebuild_load: (
            report.checkpoint_pages_read + after.reads - before.reads,
            after.writes - before.writes,
        ),
        wal_replay: (
            recovered_io.reads - load_io.reads - report.checkpoint_pages_read,
            recovered_io.writes - load_io.writes,
        ),
        full_rebuild: (after.reads - before.reads, after.writes - before.writes),
    }
}

/// Replaying 16 records costs about a seventh of a rebuild (129 vs 915
/// pages: each `ins_3` writes only the partition holding its step),
/// and restoring the checkpoint physically about an eighth of rebuilding
/// on load (123 vs 994).
#[test]
fn recovery_phases_charge_pinned_pages() {
    let r = measure_recovery(16);
    assert_eq!((r.applied, r.records_replayed), (16, 16));
    assert_eq!(r.checkpoint_load, (123, 0));
    assert_eq!(r.rebuild_load, (854, 140));
    assert_eq!(r.wal_replay, (81, 48));
    assert_eq!(r.full_rebuild, (775, 140));
    assert_eq!(ratio(total(r.wal_replay), total(r.full_rebuild)), "0.1410");
    assert_eq!(
        ratio(total(r.checkpoint_load), total(r.rebuild_load)),
        "0.1237"
    );
}

#[test]
fn replay_cost_scales_with_delta_not_database() {
    // Triple the delta: replay cost grows, while a rebuild rescans the
    // whole database either way.
    let small = measure_recovery(8);
    let large = measure_recovery(24);
    assert!(large.applied > small.applied);
    assert!(
        total(large.wal_replay) >= total(small.wal_replay),
        "replay should track the delta: {:?} vs {:?}",
        small.wal_replay,
        large.wal_replay
    );
    assert!(
        total(large.wal_replay) < total(large.full_rebuild),
        "even the larger delta replays cheaper than a rebuild"
    );
}

/// Pump `replica` to the primary's tip: `(bytes, pages, deliveries,
/// records applied)` this pump shipped.
fn shipped(
    primary: &DurableDatabase<MemStorage>,
    replica: &mut ReplicaApplier,
) -> (u64, u64, u64, u64) {
    let seeded_bytes = replica.status().bytes_received;
    let report = replicate(
        primary,
        replica,
        &mut LosslessChannel::new(),
        &ReplicateOptions::default(),
    )
    .expect("lossless replication converges");
    let bytes = replica.status().bytes_received - seeded_bytes;
    (
        bytes,
        pages(bytes),
        report.deliveries_sent,
        report.records_applied,
    )
}

/// A replica seeded before the delta ships only the delta's frames; a
/// fresh one ships the checkpoint too.
#[test]
fn replica_catch_up_and_bootstrap_ship_pinned_bytes() {
    let (mut primary, trace, _) = stage(16);
    assert_eq!(apply(&mut primary, &trace), 16);

    let mut cold = ReplicaApplier::new();
    let bootstrap = shipped(&primary, &mut cold);

    // Seed with the create-time checkpoint alone: the log still holds
    // the delta, so the shipper serves it without the checkpoint.
    let mut warm = ReplicaApplier::new();
    let seed = LogShipper::new(primary.storage())
        .deliveries_for(Need::Checkpoint)
        .expect("shippable state");
    warm.offer(&seed[0]).expect("checkpoint seeds the replica");
    let catch_up = shipped(&primary, &mut warm);

    assert_eq!(catch_up, (476, 1, 1, 16));
    assert_eq!(bootstrap, (482_640, 119, 2, 16));
    assert_eq!(ratio(catch_up.1, bootstrap.1), "0.0084");
}

/// A delta checkpoint writes the pages the delta dirtied, not the
/// database.  After it the primary prunes its segments; the replica
/// that already holds the base still catches up from the log in one
/// delivery (no delta re-bootstrap is needed), while a fresh replica
/// ships the whole chain.
#[test]
fn delta_checkpoint_and_reseed_ship_pinned_pages() {
    let (mut primary, trace, _) = stage(16);
    let mut warm = ReplicaApplier::new();
    shipped(&primary, &mut warm);

    assert_eq!(apply(&mut primary, &trace), 16);
    let report = primary.checkpoint().expect("delta checkpoint");
    assert!(report.is_delta(), "an ins_3 delta takes the delta path");
    assert_eq!(report.chain_depth, 1);
    let pages_full = primary.full_checkpoint_pages();
    assert_eq!((report.pages_written, pages_full), (20, 238));
    assert_eq!(report.snapshot_bytes, 39_778);
    assert_eq!(ratio(report.pages_written, pages_full), "0.0840");
    primary.prune_segments().expect("prunes");

    let delta = shipped(&primary, &mut warm);
    let mut cold = ReplicaApplier::new();
    let full = shipped(&primary, &mut cold);
    assert_eq!(warm.snapshot(), cold.snapshot(), "both replicas converge");

    assert_eq!(delta, (476, 1, 1, 16));
    assert_eq!(warm.status().delta_bootstraps, 0);
    assert_eq!(full, (521_951, 129, 2, 0));
    assert_eq!(ratio(delta.1, full.1), "0.0078");
}

/// After a delta checkpoint, a full checkpoint priced on demand costs
/// the page size of the full checkpoint of the same state
/// (checkpoint.snap plus its archived copy).  The full one is taken by a
/// twin with the same history whose pending checkpoint was abandoned, so
/// that its next checkpoint is a full one at the same LSN.
#[test]
fn pages_full_prices_the_full_checkpoint_of_the_same_state() {
    let (mut primary, trace, _) = stage(16);
    apply(&mut primary, &trace);
    let delta = primary.checkpoint().expect("delta checkpoint");
    assert!(delta.is_delta());
    let pages_full = primary.full_checkpoint_pages();

    let (mut twin, trace, _) = stage(16);
    apply(&mut twin, &trace);
    drop(twin.begin_checkpoint().expect("begins"));
    let report = twin
        .checkpoint()
        .expect("full checkpoint of the same state");
    assert!(!report.is_delta());
    assert_eq!(report.lsn, delta.lsn);
    let full = twin.storage().read(CHECKPOINT_FILE).unwrap().unwrap();
    assert!(!asr_core::CheckpointHeader::read(&full).unwrap().is_delta());
    assert_eq!(pages_full, pages(2 * full.len() as u64));
    assert_eq!(twin.wal_status().last_checkpoint_pages, pages_full);
}

/// Point-in-time recovery over 64 logged inserts spread across
/// 192-byte segments: the further a bound lies from the create-time
/// checkpoint, the more segments and records it replays.
#[test]
fn pitr_cost_grows_with_bound_distance() {
    let (mut primary, trace, _) = stage(64);
    primary.set_segment_threshold(192);
    assert_eq!(apply(&mut primary, &trace), 64);
    let storage = primary.storage().clone();
    drop(primary);

    let curve: Vec<(u64, u64, u64, u64)> = [0, 16, 32, 48, 64]
        .into_iter()
        .map(|bound| {
            let (_, r) = recover_to_lsn(&storage, bound).expect("bound is retained");
            (bound, r.pages_read, r.records_replayed, r.segments_read)
        })
        .collect();
    assert_eq!(
        curve,
        [
            (0, 119, 0, 0),
            (16, 122, 16, 3),
            (32, 124, 32, 5),
            (48, 126, 48, 7),
            (64, 129, 64, 9),
        ]
    );
}
