//! Point-in-time recovery properties: for a random effective script,
//! `recover_to_lsn(bound)` at *every* LSN from zero to the durable tip
//! must produce exactly the oracle that replayed that prefix of the
//! script fresh — across checkpoints, segment rotations, and pruning.
//!
//! The LSN ↔ operation bijection from the crash-recovery harness makes
//! the property crisp: bound `b` must equal the oracle after the first
//! `b` script operations, byte for byte.

mod common;

use asr_core::Database;
use asr_durable::{
    recover_to_lsn, DurableDatabase, DurableError, FaultPlan, FaultyStorage, FlushPolicy,
    MemStorage, SegmentManifest, Storage,
};
use common::*;

/// Build a primary with realistic durable topology: a checkpoint a third
/// of the way in, another at two thirds, and a small rotation threshold
/// so sealed segments appear between them.
fn build_primary(s0: &[u8], script: &[Op], disk: &MemStorage) -> (usize, usize) {
    let ckpt_a = SCRIPT_LEN / 3;
    let ckpt_b = 2 * SCRIPT_LEN / 3;
    let seed_db = Database::load_from_string(s0).unwrap();
    let mut dd = DurableDatabase::create(disk.clone(), seed_db, FlushPolicy::EveryRecord).unwrap();
    dd.set_segment_threshold(192); // rotate every few records
    for (i, op) in script.iter().enumerate() {
        apply_durable(&mut dd, op).unwrap();
        if i + 1 == ckpt_a || i + 1 == ckpt_b {
            dd.checkpoint().unwrap();
        }
    }
    assert!(
        dd.segment_manifest().segments.len() >= 2,
        "threshold must force rotations for the test to mean anything"
    );
    drop(dd);
    (ckpt_a, ckpt_b)
}

/// The core property: every reachable bound reconstructs its exact
/// prefix, and the report's arithmetic is consistent with the LSN ↔ op
/// bijection.
#[test]
fn every_bound_matches_the_oracle_prefix() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x9178);
    let disk = MemStorage::new();
    build_primary(&s0, &script, &disk);

    for bound in 0..=SCRIPT_LEN as u64 {
        let ctx = format!("recover_to_lsn({bound})");
        let (db, report) = recover_to_lsn(&disk, bound).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_equivalent(&db, &oracle_at(&s0, &script, bound as usize), &ctx);
        assert_eq!(report.bound, bound, "{ctx}");
        assert!(
            report.checkpoint_lsn <= bound,
            "{ctx}: checkpoint past bound"
        );
        assert_eq!(
            report.checkpoint_lsn + report.records_replayed,
            bound,
            "{ctx}: replay must land exactly on the bound"
        );
        assert!(report.pages_read > 0, "{ctx}: page accounting missing");
    }
}

/// A crash at every atomic write of a delta checkpoint (its archive,
/// `segments.manifest`, `checkpoint.snap`, `MANIFEST`; create and a first
/// checkpoint made writes 0–7) leaves history from which every bound
/// still reconstructs its exact prefix — from the delta, through its
/// chain, once `segments.manifest` lists it, else from the checkpoint
/// before.
#[test]
fn every_bound_survives_a_crash_inside_a_delta_checkpoint() {
    let s0 = seed_snapshot();
    let (script, checkpoints) = delta_checkpoint_script(&s0, fuzz_seed() ^ 0x917D);
    for atomic_n in 8..=12 {
        let disk = MemStorage::new();
        let plan = FaultPlan {
            crash_on_atomic_write: Some(atomic_n),
            ..FaultPlan::default()
        };
        let faulty = FaultyStorage::new(disk.clone(), plan);
        let seed_db = Database::load_from_string(&s0).unwrap();
        let mut dd = DurableDatabase::create(faulty, seed_db, FlushPolicy::EveryRecord).unwrap();
        let mut delta = None;
        for (i, op) in script.iter().enumerate() {
            apply_durable(&mut dd, op).unwrap();
            if checkpoints.contains(&(i + 1)) {
                match dd.checkpoint() {
                    Ok(report) if i + 1 == checkpoints[1] => delta = Some(report.is_delta()),
                    Ok(_) => {}
                    Err(e) => {
                        assert!(matches!(e, DurableError::InjectedCrash), "{e}");
                        break;
                    }
                }
            }
        }
        drop(dd);
        assert_eq!(delta, (atomic_n == 12).then_some(true), "write {atomic_n}");
        for bound in 0..=script.len() as u64 {
            let ctx = format!("crash on write {atomic_n}, recover_to_lsn({bound})");
            let (db, report) =
                recover_to_lsn(&disk, bound).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_equivalent(&db, &oracle_at(&s0, &script, bound as usize), &ctx);
            assert_eq!(
                report.checkpoint_lsn + report.records_replayed,
                bound,
                "{ctx}"
            );
        }
    }
}

/// PITR must pick the *newest* checkpoint at or below the bound: bounds
/// at or past the second checkpoint replay from it, not from the first.
#[test]
fn replay_starts_at_newest_covered_checkpoint() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x9179);
    let disk = MemStorage::new();
    let (ckpt_a, ckpt_b) = build_primary(&s0, &script, &disk);

    let (_, r) = recover_to_lsn(&disk, ckpt_b as u64 - 1).unwrap();
    assert_eq!(
        r.checkpoint_lsn, ckpt_a as u64,
        "just below the 2nd checkpoint"
    );
    let (_, r) = recover_to_lsn(&disk, ckpt_b as u64).unwrap();
    assert_eq!(
        r.checkpoint_lsn, ckpt_b as u64,
        "exactly at the 2nd checkpoint"
    );
    assert_eq!(r.records_replayed, 0);
    let (_, r) = recover_to_lsn(&disk, SCRIPT_LEN as u64).unwrap();
    assert_eq!(r.checkpoint_lsn, ckpt_b as u64, "tip replays from the 2nd");
    assert_eq!(r.records_replayed, (SCRIPT_LEN - ckpt_b) as u64);
}

/// Bounds past the retained tip are a typed error, not a silent clamp.
#[test]
fn bound_past_tip_is_unavailable() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x917A);
    let disk = MemStorage::new();
    build_primary(&s0, &script, &disk);

    let err = recover_to_lsn(&disk, SCRIPT_LEN as u64 + 5).unwrap_err();
    assert!(matches!(err, DurableError::PitrUnavailable(_)), "got {err}");
}

/// PITR is read-only: a full sweep of recoveries must leave the primary
/// exactly as recoverable as before.
#[test]
fn pitr_does_not_disturb_the_primary() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x917B);
    let disk = MemStorage::new();
    build_primary(&s0, &script, &disk);

    for bound in 0..=SCRIPT_LEN as u64 {
        recover_to_lsn(&disk, bound).unwrap();
    }
    let recovered = DurableDatabase::open(disk).unwrap();
    assert_equivalent(
        &recovered,
        &oracle_at(&s0, &script, SCRIPT_LEN),
        "primary after PITR sweep",
    );
}

/// Pruning trades history for space, loudly: after pruning at the
/// newest checkpoint, bounds below it turn into `PitrUnavailable`, and
/// bounds at or above it still reconstruct exactly.
#[test]
fn pruning_fences_pitr_loudly() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x917C);
    let disk = MemStorage::new();
    let (_, ckpt_b) = build_primary(&s0, &script, &disk);

    let mut dd = DurableDatabase::open(disk.clone()).unwrap();
    let status = dd.wal_status();
    assert_eq!(status.pitr_floor_lsn, Some(0), "full history before prune");
    let report = dd.prune_segments().unwrap();
    assert!(report.segments_removed > 0, "prune must reclaim something");
    assert!(report.checkpoints_removed > 0, "older archives must go");
    // The floor rises to the newest checkpoint.  (Opening may itself
    // re-checkpoint at the tip when ASR ids needed translation, so the
    // newest checkpoint is at least the scripted one.)
    let floor = dd.wal_status().pitr_floor_lsn.unwrap();
    assert!(
        (ckpt_b as u64..=SCRIPT_LEN as u64).contains(&floor),
        "floor {floor} outside [{ckpt_b}, {SCRIPT_LEN}]"
    );
    drop(dd);

    for bound in 0..=SCRIPT_LEN as u64 {
        let res = recover_to_lsn(&disk, bound);
        if bound < floor {
            assert!(
                matches!(res, Err(DurableError::PitrUnavailable(_))),
                "bound {bound} below the floor must be refused, got {res:?}"
            );
        } else {
            let (db, _) = res.unwrap_or_else(|e| panic!("bound {bound}: {e}"));
            assert_equivalent(
                &db,
                &oracle_at(&s0, &script, bound as usize),
                &format!("post-prune bound {bound}"),
            );
        }
    }

    // And the pruned primary still crash-recovers to its tip.
    let recovered = DurableDatabase::open(disk).unwrap();
    assert_equivalent(
        &recovered,
        &oracle_at(&s0, &script, SCRIPT_LEN),
        "primary after prune",
    );
}

/// A manifest whose last segment holds the largest seqno leaves nothing
/// to seal the next segment under: rotation is a typed corruption error,
/// not an overflow.
#[test]
fn rotation_past_the_last_seqno_is_corrupt() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x5E90);
    let disk = MemStorage::new();
    let seed_db = Database::load_from_string(&s0).unwrap();
    let mut dd = DurableDatabase::create(disk.clone(), seed_db, FlushPolicy::EveryRecord).unwrap();
    apply_durable(&mut dd, &script[0]).unwrap();
    dd.rotate_segment().unwrap().expect("one record to seal");
    drop(dd);

    // Renumber the sealed segment, file and manifest line alike.
    let mut store = disk.clone();
    let mut manifest = SegmentManifest::load(&disk).unwrap();
    let seg = manifest.segments.last_mut().unwrap();
    let sealed = store.read(&seg.file_name()).unwrap().unwrap();
    store.remove(&seg.file_name()).unwrap();
    seg.seqno = u64::MAX;
    store.write_atomic(&seg.file_name(), &sealed).unwrap();
    manifest.store(&mut store).unwrap();

    let mut dd = DurableDatabase::open(disk).unwrap();
    apply_durable(&mut dd, &script[1]).unwrap();
    let err = dd.rotate_segment().unwrap_err();
    assert!(matches!(err, DurableError::Corrupt(_)), "{err}");
}
