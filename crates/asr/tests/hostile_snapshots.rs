//! Hostile bytes on checkpoint documents.
//!
//! The binary format: a small full checkpoint (`figure2.ckpt`) and a
//! small delta over `bulk.asrdb2` (one insert and one rename, drawn from
//! the seed), the delta applied strictly and leniently, each document
//! with every bit flipped in turn and cut at every byte offset.  Every
//! frame carries a CRC-32, so each case must fail with a typed snapshot
//! error: never a panic, never a load that looks successful.
//!
//! Behind the checksums, the decoder itself: a seeded bit flipped in
//! every fourth byte of `figure2.ckpt` and of `bulk-insert.delta` (over
//! `bulk.ckpt`) with every frame's CRC recomputed must fail with an error
//! or load soundly — page-sound partitions whose two trees hold the same
//! rows, consistent rebuilt ASRs, every object value of its declared
//! type.  And a resealed change to one row of one tree, which leaves both
//! trees valid but no longer holding the same rows, is refused, as are a
//! resealed objects frame listing a set member twice and one listing a
//! tuple's slots out of order: the writer lists both strictly ascending.
//!
//! The retired text format: `bulk.asrdb2` cut after every line, with a
//! seeded bit flipped inside every line, and cut and flipped at a seeded
//! sample of byte offsets.  Never a panic: every outcome is a typed error
//! or a database whose every partition is page-sound, whose rebuilt ASRs
//! answer exactly like the undamaged fixture, and whose physically
//! restored ASRs do too — unless the flip sits inside an `R` row, which a
//! format without checksums cannot see.
//!
//! Seed: `ASR_FUZZ_SEED` (decimal u64), when set, is mixed into each
//! sweep's default seed, so CI can widen coverage with a rotating seed.

use asr_core::codec::Writer;
use asr_core::{crc32, AsrError, AsrLoadMode, Cell, Database, LoadReport};
use asr_gom::{ObjectBody, Oid, TypeKind, TypeRef, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PINNED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/pinned");

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(format!("{PINNED}/{name}")).unwrap()
}

/// Per ASR, whole-path backward answers for a sample of part names the
/// fixtures carry (including the one with every escaped byte).
fn answers(db: &Database) -> Vec<Vec<Vec<Oid>>> {
    let names = [
        "Door",
        "Pepper",
        "Part0",
        "Part299",
        "renamed",
        "a b%c=d\ne",
    ];
    db.asrs()
        .map(|(id, asr)| {
            names
                .iter()
                .map(|name| {
                    let target = Cell::Value(Value::string(*name));
                    let mut hits = db.backward(id, 0, asr.path().len(), &target).unwrap();
                    hits.sort();
                    hits
                })
                .collect()
        })
        .collect()
}

/// The seed of one sweep: `default`, or `default` mixed with
/// `ASR_FUZZ_SEED` when that is set (the two sweeps still differ).
fn fuzz_seed(default: u64) -> u64 {
    std::env::var("ASR_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map_or(default, |seed| seed ^ default)
}

/// One damaged copy of a fixture.
struct Damage {
    ctx: String,
    bytes: Vec<u8>,
    /// The flipped byte lies inside an `R` row line.
    in_row: bool,
}

/// The damaged copies of `text`: cut after every line, one seeded bit
/// flipped inside every line, then a cut and a flip at each of a seeded
/// sample of byte offsets.
fn damaged(text: &str, seed: u64) -> Vec<Damage> {
    let bytes = text.as_bytes();
    let mut rng = SmallRng::seed_from_u64(seed);
    let cut = |at: usize| Damage {
        ctx: format!("cut at byte {at}"),
        bytes: bytes[..at].to_vec(),
        in_row: false,
    };
    let flip = |at: usize, bit: u32| {
        let mut bad = bytes.to_vec();
        bad[at] ^= 1 << bit;
        let line = text[..at].rfind('\n').map_or(0, |nl| nl + 1);
        Damage {
            ctx: format!("flip at byte {at} bit {bit}"),
            bytes: bad,
            in_row: text[line..].starts_with("R "),
        }
    };
    let mut out = Vec::new();
    let mut start = 0;
    for line in text.split_inclusive('\n') {
        let end = start + line.len();
        out.push(cut(end));
        out.push(flip(rng.gen_range(start..end), rng.gen_range(0..8)));
        start = end;
    }
    for _ in 0..64 {
        let at = rng.gen_range(0..bytes.len());
        out.push(cut(at));
        out.push(flip(at, rng.gen_range(0..8)));
    }
    out
}

/// A load that succeeded despite damage: every partition page-sound,
/// every rebuilt ASR consistent with the object base, and every value in
/// the object base of its declared type.
fn assert_loaded_soundly(ctx: &str, db: &Database, report: &LoadReport) {
    for (ordinal, ((_, asr), (_, mode))) in db.asrs().zip(&report.asrs).enumerate() {
        for part in asr.partitions() {
            part.check_consistency()
                .unwrap_or_else(|e| panic!("{ctx}: ASR {ordinal} ({mode:?}): {e}"));
        }
        if matches!(mode, AsrLoadMode::Rebuilt(_)) {
            asr.check_consistency()
                .unwrap_or_else(|e| panic!("{ctx}: rebuilt ASR {ordinal}: {e}"));
        }
    }
    let base = db.base();
    let schema = base.schema();
    for obj in base.objects() {
        let declared: Vec<TypeRef> = match &schema.def(obj.ty).unwrap().kind {
            TypeKind::Tuple { .. } => (schema.layout(obj.ty).unwrap_or(&[]).iter())
                .map(|a| a.ty)
                .collect(),
            kind => vec![kind.element().unwrap(); obj.elements().len()],
        };
        let values: Vec<&Value> = obj.slots().iter().chain(obj.elements()).collect();
        assert_eq!(values.len(), declared.len(), "{ctx}: object {}", obj.oid);
        for (value, declared) in values.into_iter().zip(declared) {
            let actual = match value {
                Value::Ref(target) => base.type_of(*target).ok().map(TypeRef::Named),
                other => other.atomic_type().map(TypeRef::Atomic),
            };
            if let Some(actual) = actual {
                assert!(
                    schema.conforms(actual, declared),
                    "{ctx}: object {} holds {value:?}, declared {}",
                    obj.oid,
                    schema.ref_name(declared)
                );
            }
        }
    }
}

/// [`assert_loaded_soundly`], and the fixture's answers wherever the text
/// format can vouch for them.
fn assert_sound(db: &Database, report: &LoadReport, want: &[Vec<Vec<Oid>>], damage: &Damage) {
    let ctx = &damage.ctx;
    assert_loaded_soundly(ctx, db, report);
    let got = answers(db);
    for (ordinal, (_, mode)) in report.asrs.iter().enumerate() {
        if matches!(mode, AsrLoadMode::Rebuilt(_)) || !damage.in_row {
            assert_eq!(
                got[ordinal], want[ordinal],
                "{ctx}: ASR {ordinal} ({mode:?}) answers differently"
            );
        }
    }
}

fn rebuilt(report: &LoadReport) -> usize {
    report
        .asrs
        .iter()
        .filter(|(_, m)| matches!(m, AsrLoadMode::Rebuilt(_)))
        .count()
}

#[test]
fn damaged_full_snapshot_errors_or_falls_back_soundly() {
    let text = String::from_utf8(fixture("bulk.asrdb2")).unwrap();
    let want = answers(&Database::load_from_string(text.as_bytes()).unwrap());
    let mut fallbacks = 0;
    for damage in damaged(&text, fuzz_seed(0xB0_2026)) {
        if let Ok((db, report)) = Database::load_from_string_report(&damage.bytes) {
            assert_sound(&db, &report, &want, &damage);
            fallbacks += rebuilt(&report);
        }
    }
    assert!(
        fallbacks > 0,
        "no damage reached the per-ASR rebuild fallback"
    );
}

/// Every one-bit flip of `doc` and every proper prefix of it.
fn every_flip_and_cut(doc: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let flips = (0..doc.len() * 8).map(move |bit| {
        let mut bad = doc.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        (format!("flip of bit {bit}"), bad)
    });
    let cuts = (0..doc.len()).map(move |at| (format!("cut at byte {at}"), doc[..at].to_vec()));
    flips.chain(cuts)
}

fn assert_typed<T>(ctx: &str, outcome: asr_core::Result<T>) {
    match outcome {
        Err(AsrError::Snapshot(_)) => {}
        Err(other) => panic!("{ctx}: untyped error {other}"),
        Ok(_) => panic!("{ctx}: damaged document loaded"),
    }
}

#[test]
fn every_flip_and_cut_of_a_full_checkpoint_is_a_typed_error() {
    let doc = fixture("figure2.ckpt");
    Database::load_from_string(&doc).expect("the fixture loads");
    for (ctx, bad) in every_flip_and_cut(&doc) {
        assert_typed(&ctx, Database::load_from_string_report(&bad));
    }
}

#[test]
fn every_flip_and_cut_of_a_delta_is_a_typed_error() {
    let base = Database::load_from_string(&fixture("bulk.asrdb2")).unwrap();
    let mut primary = Database::load_from_string(&fixture("bulk.asrdb2")).unwrap();
    let mut rng = SmallRng::seed_from_u64(fuzz_seed(0xD3_2026));
    let find = |db: &Database, name: &str| {
        db.base()
            .find_by_attribute("Name", &Value::string(name))
            .unwrap()
    };
    let renamed = find(&primary, &format!("Part{}", rng.gen_range(0..300)));
    let fresh = format!("Part{}", rng.gen_range(300..100_000));
    primary
        .set_attribute(renamed, "Name", Value::string(fresh.clone() + "b"))
        .unwrap();
    let part = primary.instantiate("BasePart").unwrap();
    primary
        .set_attribute(part, "Name", Value::string(fresh))
        .unwrap();
    let sec = find(&primary, "560 SEC");
    let set = primary.base().deref_attribute(sec, "Composition").unwrap();
    primary
        .insert_into_set(set.unwrap(), Value::Ref(part))
        .unwrap();
    let doc = primary.begin_checkpoint().save_delta(2, 1).unwrap();
    base.apply_delta(&doc).expect("the undamaged delta applies");
    for (ctx, bad) in every_flip_and_cut(&doc) {
        assert_typed(&ctx, base.apply_delta_report(&bad, true));
        assert_typed(&ctx, base.apply_delta_report(&bad, false));
    }
}

/// Recompute every frame's CRC after the 8-byte magic, as far as the
/// (possibly damaged) length words still frame the document.
fn reseal(doc: &mut [u8]) {
    let mut at = 8;
    while at + 9 <= doc.len() {
        let len = u32::from_le_bytes(doc[at + 1..at + 5].try_into().unwrap()) as usize;
        let Some(end) = (at + 5)
            .checked_add(len)
            .filter(|&end| end + 4 <= doc.len())
        else {
            break;
        };
        let crc = crc32(&doc[at..end]);
        doc[end..end + 4].copy_from_slice(&crc.to_le_bytes());
        at = end + 4;
    }
}

/// Flips behind recomputed checksums reach the decoder and the checks
/// behind it: each load is refused with an error or comes back sound — page-sound partitions, consistent rebuilt ASRs and a
/// well-typed object base.
#[test]
fn resealed_flips_error_or_load_soundly() {
    let full = fixture("figure2.ckpt");
    let base = Database::load_from_string(&fixture("bulk.ckpt")).unwrap();
    let delta = fixture("bulk-insert.delta");
    let mut rng = SmallRng::seed_from_u64(fuzz_seed(0x5E_2026));
    let (mut loaded, mut refused) = (0, 0);
    for (doc, is_delta) in [(&full, false), (&delta, true)] {
        for at in (8..doc.len()).step_by(4) {
            let mut bad = doc.clone();
            bad[at] ^= 1u8 << rng.gen_range(0..8u32);
            reseal(&mut bad);
            let ctx = format!("resealed flip in byte {at}");
            let outcomes = if is_delta {
                vec![
                    base.apply_delta_report(&bad, true),
                    base.apply_delta_report(&bad, false),
                ]
            } else {
                vec![Database::load_from_string_report(&bad)]
            };
            for outcome in outcomes {
                match outcome {
                    Ok((db, report)) => {
                        assert_loaded_soundly(&ctx, &db, &report);
                        loaded += 1;
                    }
                    Err(_) => refused += 1,
                }
            }
        }
    }
    assert!(
        loaded > 0 && refused > 0,
        "{loaded} loaded, {refused} refused"
    );
}

/// The byte range of the first frame of `doc` tagged `tag` (tag, length,
/// payload and checksum).
fn first_frame(doc: &[u8], tag: u8) -> std::ops::Range<usize> {
    let mut at = 8;
    loop {
        let len = u32::from_le_bytes(doc[at + 1..at + 5].try_into().unwrap()) as usize;
        if doc[at] == tag {
            return at..at + 9 + len;
        }
        at += 9 + len;
    }
}

/// One cell of one row changed in one tree, the checksums recomputed:
/// each tree is still a valid B+ tree, but the two no longer hold the
/// same rows.  The restore refuses that partition, and the lenient load
/// rebuilds its ASR from the object base.  Walking back from the end of
/// the first ASR frame (past the last tree's inner pages, into its
/// leaves), the first change whose ASR is refused for that reason is the
/// case.
#[test]
fn resealed_trees_that_disagree_are_refused() {
    let doc = fixture("bulk.ckpt");
    let want = answers(&Database::load_from_string(&doc).unwrap());
    let frame = first_frame(&doc, b'A');
    let refused = frame.rev().find(|&at| {
        if doc[at] >= 0x7f {
            return false;
        }
        let mut bad = doc.clone();
        bad[at] += 1;
        reseal(&mut bad);
        let Ok((db, report)) = Database::load_from_string_report(&bad) else {
            return false;
        };
        let ctx = format!("resealed change in byte {at}");
        assert_loaded_soundly(&ctx, &db, &report);
        let disagree = |m: &AsrLoadMode| {
            matches!(m, AsrLoadMode::Rebuilt(reason) if reason.contains("different rows"))
        };
        if report.asrs.iter().any(|(_, m)| disagree(m)) {
            assert_eq!(answers(&db), want, "{ctx}: the rebuilt ASR answers alike");
            return true;
        }
        false
    });
    assert!(
        refused.is_some(),
        "no resealed change made the trees disagree"
    );
}

/// `doc` with the first occurrence of `from` inside its objects frame
/// replaced by `to` (as long), the checksums recomputed.
fn resealed_objects(doc: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    assert_eq!(from.len(), to.len());
    let frame = first_frame(doc, b'O');
    let at = frame.start
        + doc[frame]
            .windows(from.len())
            .position(|w| w == from)
            .expect("the bytes are in the objects frame");
    let mut bad = doc.to_vec();
    bad[at..at + to.len()].copy_from_slice(to);
    reseal(&mut bad);
    bad
}

/// A set member listed twice and a tuple's slots listed out of order,
/// behind recomputed checksums: the reader takes only the writer's
/// canonical order (members and slots strictly ascending) and refuses
/// the objects frame with a typed error.
#[test]
fn resealed_non_canonical_objects_are_refused() {
    let doc = fixture("figure2.ckpt");
    let db = Database::load_from_string(&doc).unwrap();
    let encode = |parts: &[(Option<usize>, &Value)]| {
        let mut w = Writer::new();
        for (slot, value) in parts {
            if let Some(slot) = slot {
                w.varint(*slot as u64);
            }
            w.value(value);
        }
        w.into_bytes()
    };
    let set = (db.base().objects())
        .find(|o| matches!(o.body, ObjectBody::Set(members) if members.len() >= 2))
        .expect("a set with two members");
    let [a, b, ..] = set.elements() else {
        unreachable!()
    };
    let twice = resealed_objects(
        &doc,
        &encode(&[(None, a), (None, b)]),
        &encode(&[(None, a), (None, a)]),
    );
    let tuple = (db.base().objects())
        .find(|o| o.slots().iter().filter(|v| !v.is_null()).count() >= 2)
        .expect("a tuple with two attributes set");
    let mut set_slots = (tuple.slots().iter().enumerate()).filter(|(_, v)| !v.is_null());
    let (first, second) = (set_slots.next().unwrap(), set_slots.next().unwrap());
    let (first, second) = ((Some(first.0), first.1), (Some(second.0), second.1));
    let swapped = resealed_objects(&doc, &encode(&[first, second]), &encode(&[second, first]));
    for (what, bad) in [("a member twice", twice), ("slots out of order", swapped)] {
        match Database::load_from_string(&bad) {
            Err(AsrError::Snapshot(msg)) => {
                assert!(msg.starts_with("objects frame"), "{what}: {msg}")
            }
            Err(other) => panic!("{what}: {other}"),
            Ok(_) => panic!("{what}: loaded"),
        }
    }
}
