//! Metric-coverage audit: every counter, gauge, and histogram the
//! durable layer emits anywhere in its sources must (a) be declared in
//! the registry below — so adding an emit site without updating the
//! registry fails loudly — and (b) actually show up in the rendered
//! `\stats` table and the Prometheus exposition after a workload that
//! exercises the subsystem.  No invisible metrics, no stale registry.

mod common;

use asr_core::Database;
use asr_durable::{
    replicate, ChaosProfile, DurableDatabase, DurableError, FaultyChannel, FlushPolicy,
    LosslessChannel, MemStorage, ReplicaApplier, ReplicateOptions,
};
use common::*;

/// Every metric `crates/durable` emits, by name.  The source audit below
/// keeps this list honest in both directions.
const WAL_COUNTERS: &[&str] = &[
    "wal.records",
    "wal.flushes",
    "wal.bytes",
    "wal.checkpoints",
    "wal.checkpoints.delta",
    "wal.segments.sealed",
    "wal.segments.pruned",
    "wal.recovery.records_replayed",
    "wal.recovery.records_skipped",
    "wal.recovery.torn_bytes",
    "wal.group.commits",
    "wal.group.records",
    "wal.group.fsyncs",
    "wal.group.deadline_flushes",
    "wal.ship.rounds",
    "wal.ship.deliveries",
    "wal.ship.records",
    "wal.ship.nacks",
    "wal.ship.backoff_ticks",
];
const WAL_GAUGES: &[&str] = &[
    "wal.checkpoint_lsn",
    "wal.checkpoint.chain_depth",
    "wal.segments.count",
    "wal.segments.bytes",
    "wal.ship.replica_lsn",
    "wal.group.pending_sessions",
];
const WAL_HISTOGRAMS: &[&str] = &[
    "wal.ship.bytes_per_delivery",
    "wal.ship.frames_per_round",
    "wal.ship.backoff_delay",
    "wal.group.batch_sessions",
    "wal.group.batch_records",
    "wal.group.commit_ms",
];
const REPLICA_GAUGES: &[&str] = &["replica.applied_lsn", "replica.gaps", "replica.corrupt"];

/// Extract the first string literal argument of every `method(` call in
/// `source`, tolerating line breaks between the paren and the literal.
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

/// The registry above and the emit sites in the sources must agree
/// exactly — both directions.
#[test]
fn registry_matches_every_emit_site_in_the_sources() {
    let sources = concat!(
        include_str!("../src/db.rs"),
        include_str!("../src/ship.rs"),
        include_str!("../src/replica.rs"),
        include_str!("../src/wal.rs"),
        include_str!("../src/segment.rs"),
        include_str!("../src/fault.rs"),
    );

    let check = |method: &str, expected: Vec<&str>| {
        let mut emitted = emitted_names(sources, method);
        emitted.sort_unstable();
        emitted.dedup();
        let mut expected: Vec<String> = expected.iter().map(|s| s.to_string()).collect();
        expected.sort_unstable();
        assert_eq!(
            emitted, expected,
            "`{method}` emit sites diverged from the registry"
        );
    };
    check("inc_counter", WAL_COUNTERS.to_vec());
    check(
        "set_gauge",
        WAL_GAUGES.iter().chain(REPLICA_GAUGES).copied().collect(),
    );
    check("observe", WAL_HISTOGRAMS.to_vec());
}

fn assert_all_present(names: &[&str], table: &str, prometheus: &str, ctx: &str) {
    for name in names {
        assert!(
            table.contains(name),
            "{ctx}: `{name}` missing from \\stats table"
        );
        assert!(
            prometheus.contains(&name.replace('.', "_")),
            "{ctx}: `{name}` missing from Prometheus exposition"
        );
    }
}

/// Drive checkpointing, rotation, pruning, replication (converging and
/// stalling), and crash-free recovery; every registered metric must then
/// be visible in both output formats on the tracer that owns it.
#[test]
fn every_registered_metric_is_exposed_after_a_full_workload() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xAD17);
    let disk = MemStorage::new();
    let seed_db = Database::load_from_string(&s0).unwrap();
    let mut primary =
        DurableDatabase::create(disk.clone(), seed_db, FlushPolicy::EveryRecord).unwrap();
    primary.set_segment_threshold(192); // force rotations
    let half = SCRIPT_LEN / 2;
    for op in script.iter().take(half) {
        apply_durable(&mut primary, op).unwrap();
    }
    // The group-commit pipeline: two submitted commits share one fsync,
    // populating the wal.group.* counters, gauge, and histograms.
    primary.enable_group_commit(2);
    primary.instantiate("BasePart").unwrap();
    assert!(!primary.submit_commit().unwrap());
    primary.instantiate("BasePart").unwrap();
    assert!(primary.submit_commit().unwrap());
    // A deadline of one op flushes a partial group on its own,
    // populating the deadline-flush counter.
    primary.set_group_commit_deadline(Some(1));
    primary.instantiate("BasePart").unwrap();
    assert!(primary.submit_commit().unwrap());
    primary.disable_group_commit().unwrap();
    primary.checkpoint().unwrap();
    for op in script.iter().skip(half) {
        apply_durable(&mut primary, op).unwrap();
    }
    // A delta checkpoint populates the delta counter and chain-depth
    // gauge (and recovery below walks the chain).  The script may have
    // dirtied the ASR design (which makes the checkpoint a full one), so
    // follow with a plain object op and a second checkpoint — that one
    // is guaranteed to be a delta.
    primary.checkpoint().unwrap();
    primary.instantiate("BasePart").unwrap();
    assert!(primary.checkpoint().unwrap().is_delta());
    primary.prune_segments().unwrap();

    // A converging replication populates the shipping counters and the
    // replica gauges ...
    let mut applier = ReplicaApplier::new();
    let mut channel = LosslessChannel::new();
    replicate(
        &primary,
        &mut applier,
        &mut channel,
        &ReplicateOptions::default(),
    )
    .unwrap();
    // ... and a blackout stall populates the backoff histogram.
    let mut blackhole = ReplicaApplier::new();
    let mut blackout = FaultyChannel::new(ChaosProfile::blackout(), 7);
    let err = replicate(
        &primary,
        &mut blackhole,
        &mut blackout,
        &ReplicateOptions {
            max_rounds: 4,
            ..ReplicateOptions::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, DurableError::ReplicationStalled(_)));

    let metrics = primary.database().tracer().metrics();
    let table = metrics.render_table();
    let prometheus = metrics.to_prometheus();
    let primary_side: Vec<&str> = WAL_COUNTERS
        .iter()
        .chain(WAL_GAUGES)
        .chain(WAL_HISTOGRAMS)
        .copied()
        .filter(|n| !n.starts_with("wal.recovery."))
        .collect();
    assert_all_present(&primary_side, &table, &prometheus, "primary");

    let replica_db = applier.db().expect("bootstrapped");
    let rmetrics = replica_db.tracer().metrics();
    assert_all_present(
        REPLICA_GAUGES,
        &rmetrics.render_table(),
        &rmetrics.to_prometheus(),
        "replica",
    );

    // Recovery counters live on the rebooted database's tracer.
    drop(primary);
    let recovered = DurableDatabase::open(disk).unwrap();
    let rec_metrics = recovered.database().tracer().metrics();
    let recovery_side: Vec<&str> = WAL_COUNTERS
        .iter()
        .copied()
        .filter(|n| n.starts_with("wal.recovery."))
        .collect();
    assert_all_present(
        &recovery_side,
        &rec_metrics.render_table(),
        &rec_metrics.to_prometheus(),
        "recovered",
    );
}
