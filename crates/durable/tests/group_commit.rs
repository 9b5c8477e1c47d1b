//! The cross-session commit pipeline and fuzzy checkpoints: group
//! commit batches many sessions' commits into one modeled fsync, clean
//! teardown never loses a parked commit, and `begin_checkpoint` /
//! `complete_checkpoint` publish a consistent image while readers and
//! the writer keep going.

mod common;

use asr_core::Database;
use asr_durable::{DurableDatabase, FlushPolicy, MemStorage};
use common::*;

/// Commits submitted under group commit seal exactly at the target, and
/// the whole batch rides one fsync: over 64 commits, targets 1/2/4/8
/// take exactly 64/32/16/8 fsyncs.
#[test]
fn group_commit_batches_sessions_into_one_fsync() {
    const COMMITS: usize = 64;
    let s0 = seed_snapshot();
    let mut generator = Generator::new(&s0, fuzz_seed() ^ 0x96C0);
    let script: Vec<Op> = (0..COMMITS).map(|_| generator.next_op()).collect();
    for (target, fsyncs, per_commit) in [
        (1, 64, "1.0000"),
        (2, 32, "0.5000"),
        (4, 16, "0.2500"),
        (8, 8, "0.1250"),
    ] {
        let disk = MemStorage::new();
        let seed_db = Database::load_from_string(&s0).unwrap();
        let mut dd =
            DurableDatabase::create(disk.clone(), seed_db, FlushPolicy::EveryRecord).unwrap();
        dd.enable_group_commit(target);
        for (i, op) in script.iter().enumerate() {
            apply_durable(&mut dd, op).unwrap();
            let sealed = dd.submit_commit().unwrap();
            assert_eq!(
                sealed,
                (i + 1) % target == 0,
                "group must seal exactly when the {target}th commit arrives (commit {i})"
            );
        }
        let status = dd.group_commit_status().unwrap();
        assert_eq!(status.commits, COMMITS as u64);
        assert_eq!(status.records, COMMITS as u64, "one record per commit");
        assert_eq!(status.fsyncs, fsyncs, "target {target}");
        assert_eq!(status.groups, status.fsyncs);
        assert_eq!(status.pending_sessions, 0);
        assert_eq!(format!("{:.4}", status.fsyncs_per_commit()), per_commit);
        assert_eq!(dd.wal_status().group, Some(status));
        drop(dd);
        let recovered = DurableDatabase::open(disk).unwrap();
        assert_equivalent(
            &recovered,
            &oracle_at(&s0, &script, COMMITS),
            "group-commit recovery",
        );
    }
}

/// The op-count deadline: a group that never fills still flushes once
/// the op budget elapses, so a commit parks for a bounded number of ops
/// — and the flush is attributed to the deadline, not the group seal.
/// Each session here logs one record and submits one commit, so it
/// spends two ticks of the budget.
#[test]
fn deadline_flushes_a_partial_group_after_the_op_budget() {
    let s0 = seed_snapshot();
    let disk = MemStorage::new();
    let seed_db = Database::load_from_string(&s0).unwrap();
    let mut dd = DurableDatabase::create(disk.clone(), seed_db, FlushPolicy::EveryRecord).unwrap();
    dd.enable_group_commit(8); // far more sessions than will ever arrive
    dd.set_group_commit_deadline(Some(6)); // = three two-tick sessions

    // Two parked commits: four ticks — under the deadline, still open.
    for _ in 0..2 {
        dd.instantiate("BasePart").unwrap();
        assert!(!dd.submit_commit().unwrap(), "group must stay open");
    }
    let status = dd.group_commit_status().unwrap();
    assert_eq!(status.pending_sessions, 2);
    assert_eq!(status.ops_since_open, 4);
    assert_eq!(status.deadline_flushes, 0);

    // The third session's submit is the sixth tick: the partial group
    // flushes even though only 3 of 8 target sessions ever showed up.
    dd.instantiate("BasePart").unwrap();
    assert!(
        dd.submit_commit().unwrap(),
        "the deadline must seal the partial group"
    );
    let status = dd.group_commit_status().unwrap();
    assert_eq!(status.pending_sessions, 0);
    assert_eq!(status.ops_since_open, 0, "ledger resets with the flush");
    assert_eq!(status.deadline_flushes, 1);
    assert_eq!(status.commits, 3);
    assert_eq!(status.fsyncs, 1, "the whole partial group rode one fsync");
    assert_eq!(dd.wal_status().pending_records, 0);
    assert_eq!(
        dd.database()
            .tracer()
            .metrics()
            .counter("wal.group.deadline_flushes"),
        1
    );

    // Everything flushed by the deadline is durable: a crash (drop has
    // nothing buffered left to save) recovers all three commits.
    drop(dd);
    let recovered = DurableDatabase::open(disk).unwrap();
    let mut oracle = Database::load_from_string(&s0).unwrap();
    for _ in 0..3 {
        oracle.instantiate("BasePart").unwrap();
    }
    assert_equivalent(&recovered, &oracle, "deadline-flushed commits");
}

/// Logged records without a single submitted commit also tick the
/// deadline: a quiet mix of plain mutations can't park in the buffer
/// past the op budget, and disarming the deadline restores pure
/// fill-to-target batching.
#[test]
fn deadline_ticks_on_plain_logged_records_and_disarms() {
    let s0 = seed_snapshot();
    let disk = MemStorage::new();
    let seed_db = Database::load_from_string(&s0).unwrap();
    let mut dd = DurableDatabase::create(disk, seed_db, FlushPolicy::EveryRecord).unwrap();
    dd.enable_group_commit(4);
    dd.set_group_commit_deadline(Some(2));

    // No commits submitted at all — two logged records alone trip the
    // deadline and drain the buffer.
    dd.instantiate("BasePart").unwrap();
    assert_eq!(dd.wal_status().pending_records, 1);
    dd.instantiate("BasePart").unwrap();
    assert_eq!(
        dd.wal_status().pending_records,
        0,
        "the second record must trip the op deadline"
    );
    assert_eq!(dd.group_commit_status().unwrap().deadline_flushes, 1);

    // Disarmed, the pipeline is back to waiting for a full group.
    dd.set_group_commit_deadline(None);
    for _ in 0..3 {
        dd.instantiate("BasePart").unwrap();
        assert!(!dd.submit_commit().unwrap(), "no deadline, no early flush");
    }
    assert_eq!(dd.group_commit_status().unwrap().pending_sessions, 3);
    dd.instantiate("BasePart").unwrap();
    assert!(
        dd.submit_commit().unwrap(),
        "the 4th commit seals the group"
    );
    let status = dd.group_commit_status().unwrap();
    assert_eq!(status.deadline_flushes, 1, "only the armed flush counted");
}

/// The drop-flush satellite: a session whose group never reached its
/// target is dropped with every record still in the in-memory buffer —
/// clean teardown flushes the open group, so recovery loses nothing.
#[test]
fn dropped_group_commit_session_loses_nothing() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xD80B);
    let disk = MemStorage::new();
    let seed_db = Database::load_from_string(&s0).unwrap();
    let mut dd = DurableDatabase::create(disk.clone(), seed_db, FlushPolicy::EveryRecord).unwrap();
    dd.enable_group_commit(8);
    let n = 5; // strictly below the target: the group never seals itself
    for op in script.iter().take(n) {
        apply_durable(&mut dd, op).unwrap();
        assert!(!dd.submit_commit().unwrap(), "group must stay open");
    }
    assert_eq!(
        dd.wal_status().pending_records,
        n,
        "the whole suffix is still in memory"
    );
    drop(dd);
    let recovered = DurableDatabase::open(disk).unwrap();
    assert_eq!(recovered.recovery_report().records_replayed, n as u64);
    assert_equivalent(
        &recovered,
        &oracle_at(&s0, &script, n),
        "dropped-but-not-flushed group-commit session",
    );
}

/// `into_database` under group commit flushes the open group before
/// surrendering the in-memory database, same as drop.
#[test]
fn into_database_flushes_the_open_group() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x17D8);
    let disk = MemStorage::new();
    let seed_db = Database::load_from_string(&s0).unwrap();
    let mut dd = DurableDatabase::create(disk.clone(), seed_db, FlushPolicy::EveryRecord).unwrap();
    dd.enable_group_commit(8);
    let n = 3;
    for op in script.iter().take(n) {
        apply_durable(&mut dd, op).unwrap();
        assert!(!dd.submit_commit().unwrap());
    }
    let oracle = oracle_at(&s0, &script, n);
    let db = dd.into_database();
    assert_eq!(
        db.save_to_string(),
        oracle.save_to_string(),
        "into_database must hand back the current state"
    );
    let recovered = DurableDatabase::open(disk).unwrap();
    assert_equivalent(&recovered, &oracle, "into_database teardown");
}

/// The fuzzy-checkpoint acceptance test: a checkpoint no longer blocks
/// concurrent snapshot reads.  The pinned view answers identically
/// while the writer keeps committing and while `complete_checkpoint`
/// publishes; commits that landed after the fence stay in the log and
/// replay over the published image.
#[test]
fn checkpoint_overlaps_snapshot_reads_and_new_commits() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xF022);
    let disk = MemStorage::new();
    let seed_db = Database::load_from_string(&s0).unwrap();
    let mut dd = DurableDatabase::create(disk.clone(), seed_db, FlushPolicy::EveryRecord).unwrap();
    let half = SCRIPT_LEN / 2;
    for op in script.iter().take(half) {
        apply_durable(&mut dd, op).unwrap();
    }

    let pending = dd.begin_checkpoint().unwrap();
    assert_eq!(pending.fence(), half as u64, "one LSN per script op");
    let snap = pending.snapshot().clone();
    let pinned = (snap.object_count(), snap.asr_ids());

    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            (0..200)
                .map(|_| (snap.object_count(), snap.asr_ids()))
                .collect::<Vec<_>>()
        });
        // The writer session keeps committing while the checkpoint is
        // pending — these records carry LSNs above the fence.
        for op in script.iter().skip(half) {
            apply_durable(&mut dd, op).unwrap();
        }
        let report = dd.complete_checkpoint(pending).unwrap();
        assert_eq!(report.lsn, half as u64, "image covers the fence, not HEAD");
        for view in reader.join().unwrap() {
            assert_eq!(view, pinned, "pinned view must never move");
        }
    });

    drop(dd);
    let recovered = DurableDatabase::open(disk).unwrap();
    let report = recovered.recovery_report();
    assert_eq!(report.checkpoint_lsn, half as u64);
    assert_eq!(
        report.records_replayed,
        (SCRIPT_LEN - half) as u64,
        "post-fence commits replay over the published image"
    );
    assert_equivalent(
        &recovered,
        &oracle_at(&s0, &script, SCRIPT_LEN),
        "fuzzy checkpoint with concurrent commits",
    );
}

/// Abandoning a pending checkpoint resets the dirty tracking a delta
/// would need, so the next checkpoint must be a full
/// snapshot — and recovery through it must still match the oracle.
#[test]
fn abandoned_pending_checkpoint_forces_full_fallback() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xABA2);
    let disk = MemStorage::new();
    let seed_db = Database::load_from_string(&s0).unwrap();
    let mut dd = DurableDatabase::create(disk.clone(), seed_db, FlushPolicy::EveryRecord).unwrap();
    let n = 6;
    for op in script.iter().take(n) {
        apply_durable(&mut dd, op).unwrap();
    }
    let pending = dd.begin_checkpoint().unwrap();
    drop(pending); // never completed: its fence is now orphaned
    for op in script.iter().skip(n).take(2) {
        apply_durable(&mut dd, op).unwrap();
    }
    let report = dd.checkpoint().unwrap();
    assert!(
        !report.is_delta(),
        "a delta over the orphaned fence would miss the pre-fence changes"
    );
    assert_eq!(report.lsn, (n + 2) as u64);
    drop(dd);
    let recovered = DurableDatabase::open(disk).unwrap();
    assert_equivalent(
        &recovered,
        &oracle_at(&s0, &script, n + 2),
        "full fallback after an abandoned begin",
    );
}

/// A stale `PendingCheckpoint` — one whose fence is behind a checkpoint
/// published after it was begun — is refused instead of rolling the
/// authoritative LSN backwards.
#[test]
fn stale_pending_checkpoint_is_refused() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x57A1);
    let disk = MemStorage::new();
    let seed_db = Database::load_from_string(&s0).unwrap();
    let mut dd = DurableDatabase::create(disk, seed_db, FlushPolicy::EveryRecord).unwrap();
    for op in script.iter().take(4) {
        apply_durable(&mut dd, op).unwrap();
    }
    let stale = dd.begin_checkpoint().unwrap();
    for op in script.iter().skip(4).take(4) {
        apply_durable(&mut dd, op).unwrap();
    }
    dd.checkpoint().unwrap(); // publishes at LSN 8, past the stale fence
    let err = dd.complete_checkpoint(stale).unwrap_err();
    assert!(
        err.to_string().contains("stale checkpoint"),
        "unexpected error: {err}"
    );
    // The session itself is still healthy — staleness poisons nothing.
    dd.flush().unwrap();
}
