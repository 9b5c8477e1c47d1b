//! Deterministic crash-recovery fuzzing: a scripted random workload runs
//! over fault-injected storage, the machine "crashes" at every scheduled
//! failpoint (clean, torn, bit-flipped, and mid-checkpoint), and the
//! recovered database must be query-equivalent to a never-crashed oracle
//! that applied exactly the durable prefix of the script.
//!
//! The WAL invariant that makes the oracle construction exact: every
//! script operation is *effective* by construction (the generator filters
//! no-ops against a shadow database), so operation `k` logs exactly one
//! record with LSN `k + 1`.  The durable operation count after recovery
//! is therefore `checkpoint_lsn + records_replayed`, and the oracle is a
//! fresh load of the seed snapshot plus that prefix of the script.
//!
//! Seed: `ASR_FUZZ_SEED` (decimal u64) overrides the default, so CI can
//! pin a seed while local runs can explore.

mod common;

use asr_core::Database;
use asr_durable::{
    BitFlip, DurableDatabase, DurableError, FaultPlan, FaultyStorage, FlushPolicy, MemStorage,
    ReadFlip, WAL_FILE,
};
use common::*;

// ----------------------------------------------------------------------
// One fuzz run
// ----------------------------------------------------------------------

struct RunOutcome {
    durable_ops: usize,
    acked_ops: usize,
    attempted_ops: usize,
    crashed: bool,
    torn_reason: Option<&'static str>,
    torn_bytes: u64,
    ckpt_lsn: u64,
    replayed: u64,
    /// Deltas under the checkpoint recovery loaded.
    delta_chain: usize,
}

/// Run the script under `plan`/`policy` (checkpointing after each count
/// of operations in `checkpoints`), crash, reboot, recover, and check
/// the recovered state against the oracle.  Returns what happened for the
/// caller's policy-specific assertions.
fn run_crash_case(
    s0: &[u8],
    script: &[Op],
    plan: FaultPlan,
    policy: FlushPolicy,
    checkpoints: &[usize],
    ctx: &str,
) -> RunOutcome {
    let disk = MemStorage::new();
    let faulty = FaultyStorage::new(disk.clone(), plan);
    let seed_db = Database::load_from_string(s0).unwrap();
    let mut dd = match DurableDatabase::create(faulty, seed_db, policy) {
        Ok(dd) => dd,
        Err(e) => {
            // Create itself crashed: nothing durable may exist.
            assert!(
                matches!(e, DurableError::InjectedCrash | DurableError::Poisoned),
                "unexpected create failure ({ctx}): {e}"
            );
            let err = DurableDatabase::open(disk.clone()).unwrap_err();
            assert!(
                matches!(err, DurableError::NotADatabase(_)),
                "half-created database must not open ({ctx}): {err}"
            );
            return RunOutcome {
                durable_ops: 0,
                acked_ops: 0,
                attempted_ops: 0,
                crashed: true,
                torn_reason: None,
                torn_bytes: 0,
                ckpt_lsn: 0,
                replayed: 0,
                delta_chain: 0,
            };
        }
    };

    let mut acked = 0usize;
    let mut attempted = 0usize;
    let mut crashed = false;
    for (i, op) in script.iter().enumerate() {
        attempted += 1;
        match apply_durable(&mut dd, op) {
            Ok(()) => acked += 1,
            Err(e) => {
                assert!(
                    matches!(e, DurableError::InjectedCrash | DurableError::Poisoned),
                    "unexpected failure ({ctx}) at op {i}: {e}"
                );
                crashed = true;
                break;
            }
        }
        if checkpoints.contains(&(i + 1)) {
            if let Err(e) = dd.checkpoint() {
                assert!(
                    matches!(e, DurableError::InjectedCrash | DurableError::Poisoned),
                    "unexpected checkpoint failure ({ctx}): {e}"
                );
                crashed = true;
                break;
            }
        }
    }
    drop(dd); // the crash: whatever was not flushed is gone

    let recovered = DurableDatabase::open(disk.clone())
        .unwrap_or_else(|e| panic!("recovery failed ({ctx}): {e}"));
    let report = recovered.recovery_report().clone();
    let durable_ops = (report.checkpoint_lsn + report.records_replayed) as usize;
    assert!(
        durable_ops <= attempted,
        "recovered more ops than were attempted ({ctx}): {durable_ops} > {attempted}"
    );

    let oracle = oracle_at(s0, script, durable_ops);
    assert_equivalent(&recovered, &oracle, ctx);

    // Recovery metrics must be observable through the metrics registry.
    let metrics = recovered.tracer().metrics();
    assert_eq!(
        metrics.counter("wal.recovery.records_replayed"),
        report.records_replayed,
        "({ctx})"
    );
    assert_eq!(
        metrics.counter("wal.recovery.torn_bytes"),
        report.torn_bytes,
        "({ctx})"
    );
    // The gauge tracks the *current* checkpoint (recovery checkpoints
    // immediately when it had to translate ASR ids, advancing it past
    // the one that was loaded).
    assert_eq!(
        metrics.gauge("wal.checkpoint_lsn"),
        Some(recovered.wal_status().checkpoint_lsn as f64),
        "({ctx})"
    );

    // A second open (after the truncating recovery) must see a clean log
    // and reach the identical state.
    drop(recovered);
    let again = DurableDatabase::open(disk).unwrap();
    assert_eq!(
        again.recovery_report().torn_bytes,
        0,
        "tail truncated on recovery ({ctx})"
    );
    assert_equivalent(&again, &oracle, &format!("{ctx}, second open"));

    RunOutcome {
        durable_ops,
        acked_ops: acked,
        attempted_ops: attempted,
        crashed,
        torn_reason: report.torn_reason,
        torn_bytes: report.torn_bytes,
        ckpt_lsn: report.checkpoint_lsn,
        replayed: report.records_replayed,
        delta_chain: report.delta_chain,
    }
}

// ----------------------------------------------------------------------
// The fuzz matrix
// ----------------------------------------------------------------------

/// Clean crash after every possible append, flush-every-record: the
/// durable prefix must be exactly the acknowledged prefix.
#[test]
fn crash_at_every_append_every_record_policy() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed());
    for n in 0..=SCRIPT_LEN {
        let ctx = format!("clean crash at append {n}");
        let out = run_crash_case(
            &s0,
            &script,
            FaultPlan::crash_at_append(n),
            FlushPolicy::EveryRecord,
            &[],
            &ctx,
        );
        if n < SCRIPT_LEN {
            assert!(out.crashed, "{ctx}: plan must fire");
            assert_eq!(out.durable_ops, n, "{ctx}: exactly the acked prefix");
            assert_eq!(out.acked_ops, n, "{ctx}");
        } else {
            assert!(!out.crashed, "{ctx}: plan out of range never fires");
            assert_eq!(out.durable_ops, SCRIPT_LEN, "{ctx}");
        }
    }
}

/// Torn writes at every append: keep 1 and 6 bytes (torn header), and 12
/// bytes (header intact, payload cut short).  The torn record was never
/// acknowledged, so recovery discards it and nothing else.
#[test]
fn torn_write_at_every_append() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x7071);
    for n in 0..SCRIPT_LEN {
        for keep in [1usize, 6, 12] {
            let ctx = format!("torn append {n} keeping {keep} bytes");
            let out = run_crash_case(
                &s0,
                &script,
                FaultPlan::torn_append(n, keep),
                FlushPolicy::EveryRecord,
                &[],
                &ctx,
            );
            assert!(out.crashed, "{ctx}");
            assert_eq!(out.durable_ops, n, "{ctx}");
            assert_eq!(out.torn_bytes, keep as u64, "{ctx}");
            assert!(
                out.torn_reason.is_some(),
                "{ctx}: scan must report the tear"
            );
        }
    }
}

/// A bit flip inside the torn tail must not confuse the scanner either.
#[test]
fn torn_write_with_bit_flip() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xF11F);
    for n in (0..SCRIPT_LEN).step_by(3) {
        for (keep, byte) in [(6usize, 2usize), (12, 9)] {
            let plan = FaultPlan {
                crash_after_appends: Some(n),
                torn_keep_bytes: keep,
                flip: Some(BitFlip { byte, bit: 3 }),
                ..FaultPlan::default()
            };
            let ctx = format!("torn+flip append {n} keep {keep} flip@{byte}");
            let out = run_crash_case(&s0, &script, plan, FlushPolicy::EveryRecord, &[], &ctx);
            assert_eq!(out.durable_ops, n, "{ctx}");
        }
    }
}

/// Bit rot at rest: a *complete, acknowledged* record is corrupted after
/// the crash.  The CRC detects it; recovery silently drops that record
/// (it is the unacknowledgeable tail from the log's point of view) and
/// recovers the prefix before it.
#[test]
fn bit_flip_on_complete_record_at_rest() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xB17F);
    for n in 0..SCRIPT_LEN {
        let disk = MemStorage::new();
        let seed_db = Database::load_from_string(&s0).unwrap();
        let mut dd = DurableDatabase::create(
            FaultyStorage::new(disk.clone(), FaultPlan::crash_at_append(n + 1)),
            seed_db,
            FlushPolicy::EveryRecord,
        )
        .unwrap();
        for op in script.iter() {
            if apply_durable(&mut dd, op).is_err() {
                break;
            }
        }
        drop(dd);
        // Records 0..=n are durable; rot the payload tail of record n.
        let len = disk.len(WAL_FILE);
        assert!(len > 0);
        assert!(disk.flip_bit_at_rest(WAL_FILE, len - 1, 5));

        let ctx = format!("bit rot in last record after {n} clean appends");
        let recovered = DurableDatabase::open(disk).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let report = recovered.recovery_report();
        assert_eq!(report.torn_reason, Some("crc mismatch"), "{ctx}");
        let m = (report.checkpoint_lsn + report.records_replayed) as usize;
        assert_eq!(m, n, "{ctx}: rotted record dropped, prefix kept");
        assert_equivalent(&recovered, &oracle_at(&s0, &script, n), &ctx);
    }
}

/// Group commit: crashes land between group flushes, so up to N-1 acked
/// operations may be lost — but the durable prefix is still an exact
/// prefix, never a gap or reorder.
#[test]
fn crash_under_group_commit() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x96C0);
    let group = 3usize;
    for a in 0..=SCRIPT_LEN / group {
        for keep in [0usize, 1, 40] {
            let ctx = format!("group-commit crash at flush {a} keeping {keep}");
            let plan = FaultPlan {
                crash_after_appends: Some(a),
                torn_keep_bytes: keep,
                ..FaultPlan::default()
            };
            let out = run_crash_case(&s0, &script, plan, FlushPolicy::EveryN(group), &[], &ctx);
            if out.crashed {
                // The durable prefix covers every fully flushed group and
                // at most the torn group's surviving records.
                assert!(
                    out.durable_ops >= a * group,
                    "{ctx}: {out:?} lost a flushed group",
                );
                assert!(
                    out.durable_ops <= out.attempted_ops,
                    "{ctx}: durable beyond attempts"
                );
                assert!(
                    out.acked_ops + 1 == out.attempted_ops,
                    "{ctx}: exactly the crashing op unacked"
                );
            } else {
                // Plan never fired; pending tail (script len not divisible
                // by the group) is lost with the process.
                assert_eq!(out.durable_ops, (SCRIPT_LEN / group) * group, "{ctx}");
            }
        }
    }
}

impl std::fmt::Debug for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "durable={} acked={} attempted={} crashed={} torn={:?}/{} ckpt={} replayed={}",
            self.durable_ops,
            self.acked_ops,
            self.attempted_ops,
            self.crashed,
            self.torn_reason,
            self.torn_bytes,
            self.ckpt_lsn,
            self.replayed
        )
    }
}

/// Explicit flush policy: nothing is durable until `flush()` (or a
/// checkpoint); a crash loses exactly the unflushed suffix.
#[test]
fn explicit_policy_loses_unflushed_suffix() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xEE11);
    for flush_at in [0usize, 5, SCRIPT_LEN] {
        let disk = MemStorage::new();
        let seed_db = Database::load_from_string(&s0).unwrap();
        let mut dd = DurableDatabase::create(
            FaultyStorage::new(disk.clone(), FaultPlan::none()),
            seed_db,
            FlushPolicy::Explicit,
        )
        .unwrap();
        for (i, op) in script.iter().enumerate() {
            apply_durable(&mut dd, op).unwrap();
            if i + 1 == flush_at {
                dd.flush().unwrap();
            }
        }
        drop(dd); // crash with the suffix only in memory
        let ctx = format!("explicit policy, flushed after {flush_at}");
        let recovered = DurableDatabase::open(disk).unwrap();
        let report = recovered.recovery_report();
        let m = (report.checkpoint_lsn + report.records_replayed) as usize;
        assert_eq!(m, flush_at, "{ctx}");
        assert_equivalent(&recovered, &oracle_at(&s0, &script, flush_at), &ctx);
    }
}

/// Crashes on *every* atomic write around a mid-script checkpoint.
///
/// The checkpoint sequence publishes, in order: the sealed segment (4),
/// the archived snapshot copy (5), `segments.manifest` (6), the
/// authoritative `checkpoint.snap` (7, the commit point), and `MANIFEST`
/// (8); create consumed atomic writes 0–3 (archive, `segments.manifest`,
/// `checkpoint.snap`, `MANIFEST`).  A crash anywhere *before* the commit
/// point must fall back to the previous checkpoint (here LSN 0) with a
/// longer WAL replay; a crash after it recovers from the new checkpoint
/// with zero replay.  Either way the recovered state equals the oracle
/// at `ckpt_at` — no op is lost or doubled in any window (duplicate
/// records between the fresh segment and the still-present `wal.log`
/// are skipped by LSN).
#[test]
fn crash_around_mid_script_checkpoint() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xC4E7);
    let ckpt_at = SCRIPT_LEN / 2;
    const CREATE_WRITES: usize = 4; // archive, segments.manifest, checkpoint.snap, MANIFEST
    const CKPT_WRITES: usize = 4; // the same four (fuzzy checkpoints never seal the log)
    let commit_point = CREATE_WRITES + CKPT_WRITES - 2; // checkpoint.snap replacement

    let mut fired_through = 0usize;
    for atomic_n in 0..CREATE_WRITES + CKPT_WRITES + 1 {
        let plan = FaultPlan {
            crash_on_atomic_write: Some(atomic_n),
            ..FaultPlan::default()
        };
        let ctx = format!("crash on atomic write {atomic_n} around checkpoint");
        let out = run_crash_case(
            &s0,
            &script,
            plan,
            FlushPolicy::EveryRecord,
            &[ckpt_at],
            &ctx,
        );
        if atomic_n < CREATE_WRITES {
            // Create never finished: nothing durable (run_crash_case
            // already asserted the half-created database refuses to open).
            assert!(out.crashed, "{ctx}");
            assert_eq!(out.durable_ops, 0, "{ctx}");
        } else if atomic_n < CREATE_WRITES + CKPT_WRITES {
            // Mid-checkpoint: every op logged before the checkpoint
            // attempt is durable — no more, no less.
            assert!(out.crashed, "{ctx}: plan must fire");
            assert_eq!(out.durable_ops, ckpt_at, "{ctx}");
            // The fault fires *before* performing the scheduled write, so
            // a crash on the commit point itself also leaves the old
            // checkpoint in place.
            if atomic_n <= commit_point {
                // checkpoint.snap was never replaced: recovery fell back
                // to the create-time checkpoint and replayed the longer
                // WAL tail.
                assert_eq!(out.ckpt_lsn, 0, "{ctx}: previous checkpoint");
                assert_eq!(out.replayed, ckpt_at as u64, "{ctx}: longer replay");
            } else {
                // At or past the commit point: the new checkpoint is
                // authoritative and nothing needs replaying.
                assert_eq!(out.ckpt_lsn, ckpt_at as u64, "{ctx}: new checkpoint");
                assert_eq!(out.replayed, 0, "{ctx}: covered by checkpoint");
            }
            fired_through = atomic_n;
        } else {
            // Past every scheduled write: the plan never fires and the
            // whole script lands.
            assert!(!out.crashed, "{ctx}: plan out of range must not fire");
            assert_eq!(out.durable_ops, SCRIPT_LEN, "{ctx}");
        }
    }
    assert_eq!(
        fired_through,
        CREATE_WRITES + CKPT_WRITES - 1,
        "sweep must cover every checkpoint atomic write"
    );

    // Append crashes across the checkpoint boundary: before it the full
    // log recovers; after it the checkpoint plus the short tail does.
    for n in 0..=SCRIPT_LEN {
        let ctx = format!("checkpoint at {ckpt_at}, clean crash at append {n}");
        let out = run_crash_case(
            &s0,
            &script,
            FaultPlan::crash_at_append(n),
            FlushPolicy::EveryRecord,
            &[ckpt_at],
            &ctx,
        );
        assert_eq!(out.durable_ops, n.min(SCRIPT_LEN), "{ctx}");
    }
}

/// Crashes on every atomic write of a *delta* checkpoint: create (atomic
/// writes 0–3) and a first checkpoint (4–7) come before it; the delta
/// writes its archive (8), `segments.manifest` (9), `checkpoint.snap`
/// (10, the commit point) and `MANIFEST` (11).  Every operation was
/// logged before the delta began, so recovery always reaches the whole
/// script: from the first checkpoint with the longer replay when the
/// crash came at or before the commit point, from the delta (loaded
/// through its chain) with no replay after it.
#[test]
fn crash_at_every_write_of_a_delta_checkpoint() {
    let s0 = seed_snapshot();
    let (script, [first, second]) = delta_checkpoint_script(&s0, fuzz_seed() ^ 0xDE17);
    const WRITES: usize = 4; // archive, segments.manifest, checkpoint.snap, MANIFEST
    let delta_from = 2 * WRITES;
    let commit_point = delta_from + 2;
    for atomic_n in delta_from..=delta_from + WRITES {
        let plan = FaultPlan {
            crash_on_atomic_write: Some(atomic_n),
            ..FaultPlan::default()
        };
        let ctx = format!("crash on atomic write {atomic_n} of a delta checkpoint");
        let out = run_crash_case(
            &s0,
            &script,
            plan,
            FlushPolicy::EveryRecord,
            &[first, second],
            &ctx,
        );
        assert_eq!(out.crashed, atomic_n < delta_from + WRITES, "{ctx}");
        assert_eq!(out.durable_ops, second, "{ctx}");
        if atomic_n <= commit_point {
            assert_eq!(out.ckpt_lsn, first as u64, "{ctx}: the state before");
            assert_eq!(out.replayed, (second - first) as u64, "{ctx}");
        } else {
            assert_eq!(out.ckpt_lsn, second as u64, "{ctx}: the state after");
            assert_eq!(out.replayed, 0, "{ctx}");
            assert!(out.delta_chain >= 1, "{ctx}: the checkpoint is a delta");
        }
    }
}

/// Transient read-path bit flips during recovery: every stabilized read
/// (`MANIFEST`, `checkpoint.snap`, `wal.log`, `segments.manifest`,
/// sealed segments) sees a one-shot flip on its first access, and
/// `read_stable` must heal it — recovery still lands exactly on the
/// oracle.
#[test]
fn transient_read_flip_during_recovery() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x4EAD);
    let ckpt_at = SCRIPT_LEN / 2;

    // Build a database with real shape: a checkpoint mid-script, a sealed
    // segment (forced rotation), and a live tail.
    let disk = MemStorage::new();
    let seed_db = Database::load_from_string(&s0).unwrap();
    let mut dd = DurableDatabase::create(disk.clone(), seed_db, FlushPolicy::EveryRecord).unwrap();
    for (i, op) in script.iter().enumerate() {
        apply_durable(&mut dd, op).unwrap();
        if i + 1 == ckpt_at {
            dd.checkpoint().unwrap();
        }
        if i + 1 == ckpt_at + 4 {
            dd.rotate_segment().unwrap();
        }
    }
    drop(dd);
    let oracle = oracle_at(&s0, &script, SCRIPT_LEN);

    // Flip a bit in the nth read for every n until recovery stops
    // consuming that many reads.  Recovery must heal every one.
    for nth in 0..64usize {
        for byte in [0usize, 7, 200] {
            let plan = FaultPlan {
                flip_read: Some(ReadFlip { nth, byte, bit: 2 }),
                ..FaultPlan::default()
            };
            let faulty = FaultyStorage::new(disk.clone(), plan);
            let ctx = format!("transient flip on read {nth} byte {byte}");
            let recovered = DurableDatabase::open(faulty).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_equivalent(&recovered, &oracle, &ctx);
        }
        // Stop once a probe run shows recovery never reached read n.
        let probe =
            DurableDatabase::open(FaultyStorage::new(disk.clone(), FaultPlan::default())).unwrap();
        if probe.storage().reads_seen() <= nth {
            return;
        }
    }
    panic!("recovery consumed over 64 reads; widen the sweep");
}

/// No crash at all: a checkpointed database reopens with zero replay,
/// and a non-checkpointed one replays its whole log — both equivalent to
/// the full-script oracle.
#[test]
fn clean_shutdown_and_reopen() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xC1EA);
    let oracle = oracle_at(&s0, &script, SCRIPT_LEN);

    for final_checkpoint in [false, true] {
        let disk = MemStorage::new();
        let seed_db = Database::load_from_string(&s0).unwrap();
        let mut dd =
            DurableDatabase::create(disk.clone(), seed_db, FlushPolicy::EveryRecord).unwrap();
        for op in &script {
            apply_durable(&mut dd, op).unwrap();
        }
        if final_checkpoint {
            dd.checkpoint().unwrap();
        }
        // The live session and the oracle agree even before any reboot.
        assert_equivalent(&dd, &oracle, "live session");
        drop(dd);

        let recovered = DurableDatabase::open(disk).unwrap();
        let report = recovered.recovery_report();
        if final_checkpoint {
            assert_eq!(report.records_replayed, 0, "checkpoint covers everything");
            assert_eq!(report.checkpoint_lsn, SCRIPT_LEN as u64);
        } else {
            assert_eq!(
                report.records_replayed, SCRIPT_LEN as u64,
                "whole log replays"
            );
        }
        assert_equivalent(
            &recovered,
            &oracle,
            &format!("clean reopen, checkpoint={final_checkpoint}"),
        );
    }
}
