//! Hostile bytes on the pinned snapshot fixtures: `bulk.asrdb2` loaded and
//! `bulk-mixed.asrdb3` applied (strictly and leniently) after being cut
//! after every line, with a seeded bit flipped inside every line, and cut
//! and flipped at a seeded sample of byte offsets.  Never a panic: every
//! outcome is a typed error or a database whose every partition is
//! page-sound, whose rebuilt ASRs answer exactly like the undamaged
//! fixture, and whose physically restored ASRs do too — unless the damage
//! sits inside an `R` row.  A bit flip that keeps a row token well-formed
//! (an OID digit, a string byte, or the retired count field, which is
//! ignored as long as it stays positive) is the one damage the
//! text format cannot see: it carries no checksum (ROADMAP item 5).
//!
//! Seed: `ASR_FUZZ_SEED` (decimal u64), when set, is mixed into each
//! sweep's default seed, so CI can widen coverage with a rotating seed.

use asr_core::{AsrLoadMode, Cell, Database, LoadReport};
use asr_gom::{Oid, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const PINNED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/pinned");

fn fixture(name: &str) -> String {
    std::fs::read_to_string(format!("{PINNED}/{name}")).unwrap()
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

/// A load that succeeded despite `damage`: sound pages everywhere, and
/// the fixture's answers wherever the format can vouch for them.
fn assert_sound(db: &Database, report: &LoadReport, want: &[Vec<Vec<Oid>>], damage: &Damage) {
    let ctx = &damage.ctx;
    let got = answers(db);
    for (ordinal, ((_, asr), (_, mode))) in db.asrs().zip(&report.asrs).enumerate() {
        for part in asr.partitions() {
            part.check_consistency()
                .unwrap_or_else(|e| panic!("{ctx}: ASR {ordinal} ({mode:?}): {e}"));
        }
        let rebuilt = matches!(mode, AsrLoadMode::Rebuilt(_));
        if rebuilt {
            asr.check_consistency()
                .unwrap_or_else(|e| panic!("{ctx}: rebuilt ASR {ordinal}: {e}"));
        }
        if rebuilt || !damage.in_row {
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
    let text = fixture("bulk.asrdb2");
    let want = answers(&Database::load_from_string(&text).unwrap());
    let mut fallbacks = 0;
    for damage in damaged(&text, fuzz_seed(0xB0_2026)) {
        // Bytes that are not UTF-8 stop at the caller's text conversion.
        let Ok(bad) = std::str::from_utf8(&damage.bytes) else {
            continue;
        };
        if let Ok((db, report)) = Database::load_from_string_report(bad) {
            assert_sound(&db, &report, &want, &damage);
            fallbacks += rebuilt(&report);
        }
    }
    assert!(
        fallbacks > 0,
        "no damage reached the per-ASR rebuild fallback"
    );
}

#[test]
fn damaged_delta_errors_or_falls_back_soundly() {
    let base = Database::load_from_string(&fixture("bulk.asrdb2")).unwrap();
    let base = base
        .apply_delta_from_string(&fixture("bulk-insert.asrdb3"))
        .unwrap();
    let text = fixture("bulk-mixed.asrdb3");
    let want = answers(&base.apply_delta_from_string(&text).unwrap());
    let mut fallbacks = 0;
    for damage in damaged(&text, fuzz_seed(0xD3_2026)) {
        let Ok(bad) = std::str::from_utf8(&damage.bytes) else {
            continue;
        };
        // Strict application (replication) rejects what it cannot patch…
        if let Ok((db, report)) = base.apply_delta_from_string_report(bad, true) {
            assert_eq!(rebuilt(&report), 0, "{}: strict never rebuilds", damage.ctx);
            assert_sound(&db, &report, &want, &damage);
        }
        // …and lenient application (recovery) rebuilds it.
        if let Ok((db, report)) = base.apply_delta_from_string_report(bad, false) {
            assert_sound(&db, &report, &want, &damage);
            fallbacks += rebuilt(&report);
        }
    }
    assert!(
        fallbacks > 0,
        "no damage reached the per-ASR rebuild fallback"
    );
}
