//! End-to-end log-shipping chaos fuzzing: a primary built from a random
//! effective script ships its history to a [`ReplicaApplier`] over a
//! [`FaultyChannel`] that drops, duplicates, reorders, truncates, and
//! bit-flips deliveries on a seeded schedule.  Every schedule must end
//! in one of exactly two states:
//!
//! * **converged** — the replica's snapshot serialization is *byte
//!   identical* to the primary's, or
//! * **stalled loudly** — [`DurableError::ReplicationStalled`], with the
//!   replica still on a valid prefix of the primary's history.
//!
//! Silent divergence — a replica that claims LSN `l` but differs from
//! the oracle at `l` — fails the run.

mod common;

use std::collections::BTreeMap;
use std::rc::Rc;

use asr_core::Database;
use asr_durable::ship::ShipMessage;
use asr_durable::{
    replicate, ChaosProfile, DurableDatabase, DurableError, FaultyChannel, FlushPolicy, LogShipper,
    LosslessChannel, MemStorage, OfferOutcome, ReplicaApplier, ReplicateOptions, Storage,
    CHECKPOINT_FILE,
};
use asr_obs::FlightRecorder;
use common::*;

/// A primary with checkpoints and sealed segments, plus a live tail.
fn build_primary(
    s0: &[u8],
    script: &[Op],
    upto: usize,
    ckpt_at: Option<usize>,
) -> DurableDatabase<MemStorage> {
    let disk = MemStorage::new();
    let seed_db = Database::load_from_string(s0).unwrap();
    let mut dd = DurableDatabase::create(disk, seed_db, FlushPolicy::EveryRecord).unwrap();
    dd.set_segment_threshold(192);
    for (i, op) in script.iter().enumerate().take(upto) {
        apply_durable(&mut dd, op).unwrap();
        if ckpt_at == Some(i + 1) {
            dd.checkpoint().unwrap();
        }
    }
    dd
}

/// The replica must either match the primary byte for byte (converged)
/// or sit on an exact prefix of its history (stalled) — never elsewhere.
fn assert_replica_on_history(applier: &ReplicaApplier, s0: &[u8], script: &[Op], ctx: &str) {
    if !applier.is_bootstrapped() {
        return; // an empty replica trivially has not diverged
    }
    let lsn = applier.applied_lsn() as usize;
    assert!(lsn <= SCRIPT_LEN, "{ctx}: replica past the script");
    let oracle = oracle_at(s0, script, lsn);
    assert_eq!(
        applier.snapshot().unwrap(),
        oracle.save_to_string(),
        "{ctx}: replica at LSN {lsn} diverged from that prefix"
    );
}

/// A perfect channel converges in one round with zero NACKs, byte
/// identical to the primary.
#[test]
fn lossless_channel_converges_exactly() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x5417);
    let primary = build_primary(&s0, &script, SCRIPT_LEN, Some(SCRIPT_LEN / 2));

    let mut applier = ReplicaApplier::new();
    let mut channel = LosslessChannel::new();
    let report = replicate(
        &primary,
        &mut applier,
        &mut channel,
        &ReplicateOptions::default(),
    )
    .unwrap();

    assert_eq!(report.converged_lsn, SCRIPT_LEN as u64);
    assert_eq!(report.gaps + report.corrupt, 0, "nothing to NACK");
    assert_eq!(report.backoff_ticks, 0, "no fruitless rounds");
    assert_eq!(
        applier.snapshot().unwrap(),
        primary.database().save_to_string(),
        "byte-identical convergence"
    );
    assert_replica_on_history(&applier, &s0, &script, "lossless");

    // The shipper agrees the replica is caught up.
    let shipper = LogShipper::new(primary.storage());
    assert_eq!(shipper.lag_bytes(applier.applied_lsn()).unwrap(), 0);
}

/// The chaos fuzzer proper: many seeded fault schedules, each of which
/// must converge byte-identically or stall with the typed error — and in
/// both cases the replica must be on the primary's history.
#[test]
fn seeded_chaos_schedules_converge_or_fail_loudly() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xC405);
    let primary = build_primary(&s0, &script, SCRIPT_LEN, Some(SCRIPT_LEN / 2));
    let opts = ReplicateOptions::default();

    let mut converged = 0usize;
    let mut stalled = 0usize;
    let mut artifact = String::new();
    for i in 0..32u64 {
        let seed = fuzz_seed() ^ (i.wrapping_mul(0x9E37_79B9));
        let profile = ChaosProfile::from_seed(seed);
        // Every schedule gets its own recorder, sized so nothing can be
        // evicted: each injected fault must appear as a typed event.
        let recorder = Rc::new(FlightRecorder::new(1 << 16));
        let mut channel = FaultyChannel::new(profile, seed).with_recorder(recorder.clone());
        let mut applier = ReplicaApplier::new();
        let ctx = format!("chaos seed {seed:#x} ({profile:?})");
        match replicate(&primary, &mut applier, &mut channel, &opts) {
            Ok(report) => {
                converged += 1;
                assert_eq!(report.converged_lsn, SCRIPT_LEN as u64, "{ctx}");
                assert_eq!(
                    applier.snapshot().unwrap(),
                    primary.database().save_to_string(),
                    "{ctx}: converged but not byte-identical"
                );
                // NACK accounting is consistent: every gap/corrupt NACK
                // the pump counted is visible in the applier's status.
                let status = applier.status();
                assert_eq!(status.gaps, report.gaps, "{ctx}");
                assert_eq!(status.corrupt, report.corrupt, "{ctx}");
            }
            Err(DurableError::ReplicationStalled(msg)) => {
                stalled += 1;
                assert!(msg.contains("rounds"), "{ctx}: uninformative stall: {msg}");
            }
            Err(e) => panic!("{ctx}: unexpected error class: {e}"),
        }
        // Converged or stalled, the replica never leaves the history.
        assert_replica_on_history(&applier, &s0, &script, &ctx);

        // No silent injections: every fault the channel counted must be
        // visible as a typed `chaos.*` flight-recorder event.
        assert_eq!(recorder.dropped(), 0, "{ctx}: recorder sized too small");
        let mut events: BTreeMap<String, u64> = BTreeMap::new();
        for ev in recorder.tail(recorder.len()) {
            *events.entry(ev.record.name.clone()).or_insert(0) += 1;
        }
        let stats = channel.stats();
        for (event, injected) in [
            ("chaos.drop", stats.dropped),
            ("chaos.dup", stats.duplicated),
            ("chaos.reorder", stats.reordered),
            ("chaos.truncate", stats.truncated),
            ("chaos.flip", stats.flipped),
        ] {
            assert_eq!(
                events.get(event).copied().unwrap_or(0),
                injected,
                "{ctx}: `{event}` events must match the channel's count"
            );
        }
        artifact.push_str(&recorder.dump_jsonl());
    }
    // CI uploads the full fault timeline of the pinned-seed run as a
    // build artifact.
    if let Ok(path) = std::env::var("ASR_FLIGHTREC_OUT") {
        std::fs::write(&path, &artifact).expect("write flight-recorder artifact");
    }
    // The profile generator keeps fault rates below the stall-everything
    // regime; most schedules must actually converge for the fuzzer to be
    // exercising the happy recovery paths too.
    assert!(
        converged >= 16,
        "only {converged}/32 schedules converged ({stalled} stalled) — chaos too hostile to test convergence"
    );
}

/// A total blackout cannot converge and must say so with the typed
/// error, after backing off exponentially between fruitless rounds.
#[test]
fn blackout_stalls_with_typed_error() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xB1AC);
    let primary = build_primary(&s0, &script, SCRIPT_LEN, None);

    let mut applier = ReplicaApplier::new();
    let mut channel = FaultyChannel::new(ChaosProfile::blackout(), 1);
    let opts = ReplicateOptions {
        max_rounds: 10,
        ..ReplicateOptions::default()
    };
    let err = replicate(&primary, &mut applier, &mut channel, &opts).unwrap_err();
    assert!(
        matches!(err, DurableError::ReplicationStalled(_)),
        "got {err}"
    );
    assert!(!applier.is_bootstrapped(), "nothing ever arrived");
    assert_eq!(channel.stats().dropped, channel.stats().sent);
}

/// Incremental catch-up: after converging once, new primary writes ship
/// as frames from the replica's cursor — no re-bootstrap, no re-shipped
/// checkpoint.
#[test]
fn incremental_catchup_reuses_the_cursor() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x14C0);
    let half = SCRIPT_LEN / 2;
    let mut primary = build_primary(&s0, &script, half, None);
    let opts = ReplicateOptions::default();

    let mut applier = ReplicaApplier::new();
    let mut channel = LosslessChannel::new();
    replicate(&primary, &mut applier, &mut channel, &opts).unwrap();
    assert_eq!(applier.applied_lsn(), half as u64);
    assert_eq!(applier.status().bootstraps, 1);

    for op in &script[half..] {
        apply_durable(&mut primary, op).unwrap();
    }
    let report = replicate(&primary, &mut applier, &mut channel, &opts).unwrap();
    assert_eq!(report.converged_lsn, SCRIPT_LEN as u64);
    assert_eq!(
        applier.status().bootstraps,
        1,
        "catch-up must not re-seed from a checkpoint"
    );
    assert_eq!(
        applier.snapshot().unwrap(),
        primary.database().save_to_string()
    );
    assert_replica_on_history(&applier, &s0, &script, "incremental catch-up");
}

/// When the history a lagging replica needs has been pruned away, the
/// shipper falls back to re-seeding it from the checkpoint — convergence
/// survives retention.
#[test]
fn pruned_history_forces_a_rebootstrap() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x94E0);
    let half = SCRIPT_LEN / 2;
    let mut primary = build_primary(&s0, &script, half, None);
    let opts = ReplicateOptions::default();

    // Converge a replica on the first half.
    let mut applier = ReplicaApplier::new();
    let mut channel = LosslessChannel::new();
    replicate(&primary, &mut applier, &mut channel, &opts).unwrap();
    let first_lsn = applier.applied_lsn();
    assert_eq!(first_lsn, half as u64);

    // The primary moves on, checkpoints, and prunes its history.
    for op in &script[half..] {
        apply_durable(&mut primary, op).unwrap();
    }
    primary.checkpoint().unwrap();
    primary.prune_segments().unwrap();

    // Catch-up now *must* go through a fresh checkpoint: the segments
    // holding LSNs first_lsn+1.. are gone.
    let report = replicate(&primary, &mut applier, &mut channel, &opts).unwrap();
    assert_eq!(report.converged_lsn, SCRIPT_LEN as u64);
    assert_eq!(
        applier.status().bootstraps,
        2,
        "pruned history must force a re-seed"
    );
    assert_eq!(
        applier.snapshot().unwrap(),
        primary.database().save_to_string()
    );
    assert_replica_on_history(&applier, &s0, &script, "post-prune catch-up");
}

// ----------------------------------------------------------------------
// Delta bootstrap (`Need::DeltaBootstrap`)
// ----------------------------------------------------------------------

/// A primary/replica pair poised for a delta re-seed: the replica is
/// converged and retains the full checkpoint at `base_lsn`; the primary
/// has moved on with plain object ops, taken a *delta* checkpoint, and
/// pruned the segments the replica would otherwise replay — so the next
/// catch-up must renegotiate.  Also returns per-LSN oracle snapshots
/// (index = LSN) so a stalled replica can be placed on the history.
fn stage_delta_reseed(
    s0: &[u8],
    script: &[Op],
    extra_ops: usize,
    tail_ops: usize,
) -> (DurableDatabase<MemStorage>, ReplicaApplier, Vec<Vec<u8>>) {
    let half = SCRIPT_LEN / 2;
    let mut primary = build_primary(s0, script, half, None);
    // A full base at LSN `half`: the abandoned begin makes the next
    // checkpoint a full one even when the script made no design change.
    drop(primary.begin_checkpoint().unwrap());
    primary.checkpoint().unwrap();

    let mut applier = ReplicaApplier::new();
    let mut lossless = LosslessChannel::new();
    replicate(
        &primary,
        &mut applier,
        &mut lossless,
        &ReplicateOptions::default(),
    )
    .unwrap();
    assert_eq!(applier.applied_lsn(), half as u64);

    // Advance with plain object creations (never design ops, so the
    // checkpoint below is guaranteed to take the delta path), then cut
    // the replica's replay history out from under it.  Sealing the active
    // log first is what makes the cut independent of the script: records
    // still in `wal.log` would survive the prune and ship as frames.
    for _ in 0..extra_ops {
        primary.instantiate("BasePart").unwrap();
    }
    primary.rotate_segment().unwrap();
    assert!(
        primary.checkpoint().unwrap().is_delta(),
        "plain object ops must yield a delta checkpoint"
    );
    primary.prune_segments().unwrap();
    // A live WAL tail past the delta checkpoint keeps frames in flight
    // alongside the delta deliveries (reordering fodder for the chaos
    // schedules).
    for _ in 0..tail_ops {
        primary.instantiate("BasePart").unwrap();
    }

    // Oracle snapshots at every LSN of this custom history.
    let mut oracle = Database::load_from_string(s0).unwrap();
    let mut oracles = vec![oracle.save_to_string()];
    for op in &script[..half] {
        apply_plain(&mut oracle, op);
        oracles.push(oracle.save_to_string());
    }
    for _ in 0..extra_ops + tail_ops {
        oracle.instantiate("BasePart").unwrap();
        oracles.push(oracle.save_to_string());
    }
    (primary, applier, oracles)
}

/// Converged or stalled, the replica must sit exactly on one of the
/// oracle snapshots for its claimed LSN.
fn assert_on_oracles(applier: &ReplicaApplier, oracles: &[Vec<u8>], ctx: &str) {
    if !applier.is_bootstrapped() {
        return;
    }
    let lsn = applier.applied_lsn() as usize;
    assert!(lsn < oracles.len(), "{ctx}: replica past the history");
    assert_eq!(
        applier.snapshot().unwrap(),
        oracles[lsn],
        "{ctx}: replica at LSN {lsn} diverged from that prefix"
    );
}

/// When the replica still retains the base checkpoint the primary's
/// delta chain grew from, a post-prune catch-up renegotiates
/// `Need::DeltaBootstrap` and ships only the delta — far fewer bytes
/// than the full snapshot — yet lands byte-identical.
#[test]
fn delta_bootstrap_ships_only_the_deltas() {
    delta_bootstrap_ships_only_the_deltas_under(fuzz_seed());
}

/// CI's pinned seeds, which once staged a prune that left the replica's
/// replay history in the active log (no re-seed owed, "exactly one
/// re-seed" failed) — pinned whatever `ASR_FUZZ_SEED` says.
#[test]
fn delta_bootstrap_ships_only_the_deltas_seed_1337() {
    delta_bootstrap_ships_only_the_deltas_under(1337);
}

#[test]
fn delta_bootstrap_ships_only_the_deltas_seed_2026() {
    delta_bootstrap_ships_only_the_deltas_under(2026);
}

fn delta_bootstrap_ships_only_the_deltas_under(seed: u64) {
    let s0 = seed_snapshot();
    let script = make_script(&s0, seed ^ 0xDE17);
    let (primary, mut applier, oracles) = stage_delta_reseed(&s0, &script, 4, 2);

    let full_len = primary.database().save_to_string().len() as u64;
    let received_before = applier.status().bytes_received;
    let mut channel = LosslessChannel::new();
    let report = replicate(
        &primary,
        &mut applier,
        &mut channel,
        &ReplicateOptions::default(),
    )
    .unwrap();

    assert_eq!(report.converged_lsn as usize, oracles.len() - 1);
    assert_eq!(
        applier.snapshot().unwrap(),
        primary.database().save_to_string(),
        "delta re-seed must converge byte-identically"
    );
    let status = applier.status();
    assert_eq!(status.bootstraps, 2, "exactly one re-seed");
    assert_eq!(
        status.delta_bootstraps, 1,
        "the re-seed must go through the delta path, not a full checkpoint"
    );
    let received = status.bytes_received - received_before;
    assert!(
        received < full_len,
        "delta catch-up shipped {received} bytes, >= the {full_len}-byte full snapshot"
    );
    // The renegotiation is visible on the primary's flight recorder.
    let tail = primary.flight_recorder().tail_summaries(64).join(" | ");
    assert!(
        tail.contains("ship.reseed"),
        "no ship.reseed event in flight tail: {tail}"
    );
    assert_on_oracles(&applier, &oracles, "delta re-seed");
}

/// A replica whose retained chain has left the primary's lineage (the
/// primary re-checkpointed *fully* since) still converges — the shipper
/// detects the divergence and falls back to the full chain.
#[test]
fn stale_base_falls_back_to_full_reseed() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x5A1E);
    let (mut primary, mut applier, _) = stage_delta_reseed(&s0, &script, 4, 0);

    // A *full* checkpoint rebases the lineage away from the replica's
    // retained chain, and pruning unpins that base's archive.  (An
    // abandoned begin makes the next checkpoint a full one.)
    primary.instantiate("BasePart").unwrap();
    drop(primary.begin_checkpoint().unwrap());
    assert!(!primary.checkpoint().unwrap().is_delta());
    primary.prune_segments().unwrap();

    let mut channel = LosslessChannel::new();
    replicate(
        &primary,
        &mut applier,
        &mut channel,
        &ReplicateOptions::default(),
    )
    .unwrap();
    let status = applier.status();
    assert_eq!(
        status.delta_bootstraps, 0,
        "a base outside the lineage must not be patched"
    );
    assert_eq!(status.bootstraps, 2, "full re-seed instead");
    assert_eq!(
        applier.snapshot().unwrap(),
        primary.database().save_to_string()
    );
}

/// `doc` with its first ASR frame's first partition's forward tree
/// promising one row more than it holds, the frame's checksum recomputed:
/// a checkpoint every checksum passes but whose pages cannot be restored.
fn with_one_row_too_many(doc: &[u8]) -> Vec<u8> {
    let frame_len = |at: usize| u32::from_le_bytes(doc[at + 1..at + 5].try_into().unwrap());
    let mut at = 8;
    while doc[at] != b'A' {
        at += 9 + frame_len(at) as usize;
    }
    let end = at + 5 + frame_len(at) as usize;
    let mut frame = doc[at..end].to_vec();
    // After tag and length: the images-or-deltas flag, then the
    // partition count, the span and the forward tree's root, height and
    // row count, all one-byte varints on this small database.
    let rows = 5 + 6;
    assert!(frame[6..=rows].iter().all(|&b| b < 0x7f), "a small tree");
    frame[rows] += 1;
    let crc = asr_durable::crc32(&frame);
    [&doc[..at], &frame, &crc.to_le_bytes(), &doc[end + 4..]].concat()
}

/// A delta that passes every checksum but cannot be restored loads only
/// by rebuilding an ASR: the replica refuses it as corrupt and stays
/// exactly as it was, then takes the honest delta and converges byte for
/// byte.
#[test]
fn delta_bootstrap_refuses_a_resealed_delta_that_cannot_be_restored() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xBAD7);
    let (primary, mut applier, _) = stage_delta_reseed(&s0, &script, 4, 0);
    let delta = primary.storage().read(CHECKPOINT_FILE).unwrap().unwrap();
    let before = (applier.applied_lsn(), applier.status(), applier.snapshot());

    let tampered = ShipMessage::DeltaCheckpoint(with_one_row_too_many(&delta)).encode();
    assert_eq!(applier.offer(&tampered).unwrap(), OfferOutcome::Corrupt);
    let status = applier.status();
    assert_eq!(status.corrupt, before.1.corrupt + 1);
    assert_eq!(
        applier.applied_lsn(),
        before.0,
        "the refused delta moved the replica"
    );
    assert_eq!(status.delta_bootstraps, before.1.delta_bootstraps);
    assert_eq!(
        applier.snapshot(),
        before.2,
        "the refused delta changed the replica"
    );

    let honest = ShipMessage::DeltaCheckpoint(delta).encode();
    assert!(matches!(
        applier.offer(&honest).unwrap(),
        OfferOutcome::Bootstrapped { .. }
    ));
    assert_eq!(applier.status().delta_bootstraps, 1);
    assert_eq!(
        applier.snapshot().unwrap(),
        primary.database().save_to_string(),
        "the honest delta must converge byte-identically"
    );
}

/// The same damage to a full checkpoint: its load would rebuild an ASR,
/// so the replica refuses it as corrupt and stays unseeded, then
/// bootstraps from the honest bytes.
#[test]
fn a_full_checkpoint_that_cannot_be_restored_is_refused() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xBAD8);
    let mut primary = build_primary(&s0, &script, SCRIPT_LEN / 2, None);
    drop(primary.begin_checkpoint().unwrap());
    primary.checkpoint().unwrap();
    let full = primary.storage().read(CHECKPOINT_FILE).unwrap().unwrap();

    let mut applier = ReplicaApplier::new();
    let tampered = ShipMessage::Checkpoint(with_one_row_too_many(&full)).encode();
    assert_eq!(applier.offer(&tampered).unwrap(), OfferOutcome::Corrupt);
    assert!(
        !applier.is_bootstrapped(),
        "the refused checkpoint seeded the replica"
    );
    assert_eq!(applier.status().bootstraps, 0);

    let honest = ShipMessage::Checkpoint(full).encode();
    assert!(matches!(
        applier.offer(&honest).unwrap(),
        OfferOutcome::Bootstrapped { .. }
    ));
    assert_eq!(
        applier.snapshot().unwrap(),
        primary.database().save_to_string(),
        "the honest checkpoint must converge byte-identically"
    );
}

/// The chaos fuzzer over the delta-bootstrap path: 32 seeded schedules
/// drop, duplicate, reorder, truncate, and bit-flip the *delta*
/// deliveries (and the tail frames around them).  Every schedule must
/// converge byte-identically or stall with the typed error; every
/// injected fault must surface as a typed flight-recorder event; and a
/// corrupted delta must be NACKed, never silently applied.
#[test]
fn delta_bootstrap_chaos_converges_or_fails_loudly() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0xDB07);
    let opts = ReplicateOptions::default();

    let mut converged = 0usize;
    let mut stalled = 0usize;
    let mut delta_reseeds = 0u64;
    for i in 0..32u64 {
        let seed = fuzz_seed() ^ 0xDE17A ^ (i.wrapping_mul(0x9E37_79B9));
        let (primary, mut applier, oracles) = stage_delta_reseed(&s0, &script, 4, 2);
        let profile = ChaosProfile::from_seed(seed);
        let recorder = Rc::new(FlightRecorder::new(1 << 16));
        let mut channel = FaultyChannel::new(profile, seed).with_recorder(recorder.clone());
        let ctx = format!("delta chaos seed {seed:#x} ({profile:?})");
        match replicate(&primary, &mut applier, &mut channel, &opts) {
            Ok(report) => {
                converged += 1;
                assert_eq!(report.converged_lsn as usize, oracles.len() - 1, "{ctx}");
                assert_eq!(
                    applier.snapshot().unwrap(),
                    primary.database().save_to_string(),
                    "{ctx}: converged but not byte-identical"
                );
            }
            Err(DurableError::ReplicationStalled(msg)) => {
                stalled += 1;
                assert!(msg.contains("rounds"), "{ctx}: uninformative stall: {msg}");
            }
            Err(e) => panic!("{ctx}: unexpected error class: {e}"),
        }
        // Converged or stalled, never silently diverged.
        assert_on_oracles(&applier, &oracles, &ctx);
        delta_reseeds += applier.status().delta_bootstraps;

        // Every injection must be a typed flight-recorder event.
        assert_eq!(recorder.dropped(), 0, "{ctx}: recorder sized too small");
        let mut events: BTreeMap<String, u64> = BTreeMap::new();
        for ev in recorder.tail(recorder.len()) {
            *events.entry(ev.record.name.clone()).or_insert(0) += 1;
        }
        let stats = channel.stats();
        for (event, injected) in [
            ("chaos.drop", stats.dropped),
            ("chaos.dup", stats.duplicated),
            ("chaos.reorder", stats.reordered),
            ("chaos.truncate", stats.truncated),
            ("chaos.flip", stats.flipped),
        ] {
            assert_eq!(
                events.get(event).copied().unwrap_or(0),
                injected,
                "{ctx}: `{event}` events must match the channel's count"
            );
        }
    }
    assert!(
        converged >= 16,
        "only {converged}/32 delta schedules converged ({stalled} stalled)"
    );
    assert!(
        delta_reseeds >= 16,
        "only {delta_reseeds} delta re-seeds across 32 schedules — \
         the chaos sweep is not actually exercising Need::DeltaBootstrap"
    );
}

/// Chaos against an *advancing* primary: converge, mutate, converge
/// again over the same faulty channel, several times.  Steady-state
/// replication under faults must track the moving tip.
#[test]
fn chaotic_steady_state_tracks_the_primary() {
    let s0 = seed_snapshot();
    let script = make_script(&s0, fuzz_seed() ^ 0x57EA);
    let chunk = SCRIPT_LEN / 4;
    let seed = fuzz_seed() ^ 0xD1CE;
    let mut primary = build_primary(&s0, &script, 0, None);
    // Moderate chaos: hostile enough to force NACK/retry cycles, mild
    // enough that each sync round budget suffices.
    let profile = ChaosProfile {
        drop_pct: 15,
        dup_pct: 15,
        reorder_pct: 15,
        truncate_pct: 10,
        flip_pct: 10,
    };
    let mut channel = FaultyChannel::new(profile, seed);
    let mut applier = ReplicaApplier::new();
    let opts = ReplicateOptions {
        max_rounds: 256,
        ..ReplicateOptions::default()
    };

    let mut applied = 0usize;
    for step in 0..4 {
        for op in &script[applied..applied + chunk] {
            apply_durable(&mut primary, op).unwrap();
        }
        applied += chunk;
        if step == 1 {
            primary.checkpoint().unwrap();
        }
        let ctx = format!("steady-state step {step}");
        match replicate(&primary, &mut applier, &mut channel, &opts) {
            Ok(report) => {
                assert_eq!(report.converged_lsn, applied as u64, "{ctx}");
                assert_eq!(
                    applier.snapshot().unwrap(),
                    primary.database().save_to_string(),
                    "{ctx}"
                );
            }
            Err(DurableError::ReplicationStalled(_)) => {
                // Permitted only as a loud stop; the replica must still be
                // on the history and a lossless retry must finish the job.
                assert_replica_on_history(&applier, &s0, &script, &ctx);
                let mut clean = LosslessChannel::new();
                replicate(&primary, &mut applier, &mut clean, &opts).unwrap();
                assert_eq!(
                    applier.snapshot().unwrap(),
                    primary.database().save_to_string(),
                    "{ctx}: lossless retry"
                );
            }
            Err(e) => panic!("{ctx}: unexpected error class: {e}"),
        }
        assert_replica_on_history(&applier, &s0, &script, &ctx);
    }
    assert_eq!(applier.applied_lsn(), SCRIPT_LEN as u64);
}
