//! Checkpoint recovery.
//!
//! * The clean path restores every ASR **physically** (page images, no
//!   re-join) and charges strictly fewer checkpoint pages than the file
//!   occupies, because the ASR sections' bytes are charged to the
//!   restored trees instead.
//! * The binary checkpoint is CRC-framed: a bit flipped anywhere in it
//!   makes recovery fail with a typed error, never open damaged data.
//! * A text checkpoint written before the binary format (`CKPT` and
//!   `ASRIDS` lines over an `ASRDB 2` snapshot) still recovers, and
//!   corruption inside its physical section degrades to a **per-ASR
//!   rebuild** that is query-equivalent.
//! * The frozen **v1 golden fixture** (committed under
//!   `tests/fixtures/v1_golden/`) must keep recovering to its frozen
//!   state on current code, pinning backward compatibility in CI.

use asr_core::{AsrConfig, AsrLoadMode, Cell, Database, Decomposition, Extension};
use asr_durable::{
    DurableDatabase, DurableError, FaultPlan, FaultyStorage, FlushPolicy, MemStorage, ReadFlip,
    Storage, CHECKPOINT_FILE, MANIFEST_FILE, WAL_FILE,
};
use asr_gom::{ObjectBase, Schema, Value};
use asr_pagesim::PAGE_SIZE;

const PATH: &str = "Division.Manufactures.Composition.Name";

fn company_schema() -> Schema {
    let mut s = Schema::new();
    s.define_tuple(
        "Division",
        [("Name", "STRING"), ("Manufactures", "ProdSET")],
    )
    .unwrap();
    s.define_set("ProdSET", "Product").unwrap();
    s.define_tuple(
        "Product",
        [("Name", "STRING"), ("Composition", "BasePartSET")],
    )
    .unwrap();
    s.define_set("BasePartSET", "BasePart").unwrap();
    s.define_tuple("BasePart", [("Name", "STRING")]).unwrap();
    s.validate().unwrap();
    s
}

/// A small populated company database with all four extensions
/// materialized over the full path, serialized through save/load once so
/// every copy loaded from this text behaves identically.
fn seed_snapshot() -> Vec<u8> {
    let mut db = Database::from_base(ObjectBase::new(company_schema()));
    let d = db.instantiate("Division").unwrap();
    db.set_attribute(d, "Name", Value::string("Auto")).unwrap();
    let ps = db.instantiate("ProdSET").unwrap();
    db.set_attribute(d, "Manufactures", Value::Ref(ps)).unwrap();
    let prod = db.instantiate("Product").unwrap();
    db.set_attribute(prod, "Name", Value::string("560 SEC"))
        .unwrap();
    db.insert_into_set(ps, Value::Ref(prod)).unwrap();
    let bs = db.instantiate("BasePartSET").unwrap();
    db.set_attribute(prod, "Composition", Value::Ref(bs))
        .unwrap();
    let part = db.instantiate("BasePart").unwrap();
    db.set_attribute(part, "Name", Value::string("Door"))
        .unwrap();
    db.insert_into_set(bs, Value::Ref(part)).unwrap();
    for ext in Extension::ALL {
        db.create_asr_on(
            PATH,
            AsrConfig {
                extension: ext,
                decomposition: Decomposition::binary(3),
                keep_set_oids: false,
            },
        )
        .unwrap();
    }
    let fixed = Database::load_from_string(&db.save_to_string()).unwrap();
    fixed.save_to_string()
}

/// A larger seed whose checkpoint spans several pages, so the charging
/// split between the physical section and the rest of the file is
/// observable at page granularity.
fn seed_snapshot_scaled() -> Vec<u8> {
    let mut db = Database::from_base(ObjectBase::new(company_schema()));
    let d = db.instantiate("Division").unwrap();
    db.set_attribute(d, "Name", Value::string("Auto")).unwrap();
    let ps = db.instantiate("ProdSET").unwrap();
    db.set_attribute(d, "Manufactures", Value::Ref(ps)).unwrap();
    for p in 0..40 {
        let prod = db.instantiate("Product").unwrap();
        db.set_attribute(prod, "Name", Value::string(format!("Product {p}")))
            .unwrap();
        db.insert_into_set(ps, Value::Ref(prod)).unwrap();
        let bs = db.instantiate("BasePartSET").unwrap();
        db.set_attribute(prod, "Composition", Value::Ref(bs))
            .unwrap();
        for b in 0..3 {
            let part = db.instantiate("BasePart").unwrap();
            db.set_attribute(part, "Name", Value::string(format!("Part {p}.{b}")))
                .unwrap();
            db.insert_into_set(bs, Value::Ref(part)).unwrap();
        }
    }
    for ext in Extension::ALL {
        db.create_asr_on(
            PATH,
            AsrConfig {
                extension: ext,
                decomposition: Decomposition::binary(3),
                keep_set_oids: false,
            },
        )
        .unwrap();
    }
    let fixed = Database::load_from_string(&db.save_to_string()).unwrap();
    fixed.save_to_string()
}

/// Checkpoint the seed into a fresh `MemStorage` and return it.
fn checkpointed_disk(s0: &[u8]) -> MemStorage {
    let disk = MemStorage::new();
    let seed = Database::load_from_string(s0).unwrap();
    let dd = DurableDatabase::create(disk.clone(), seed, FlushPolicy::EveryRecord).unwrap();
    drop(dd);
    disk
}

fn backward_answers(db: &Database, part_name: &str) -> Vec<Vec<asr_gom::Oid>> {
    let target = Cell::Value(Value::string(part_name));
    db.asrs()
        .map(|(id, _)| db.backward(id, 0, 3, &target).unwrap())
        .collect()
}

// ----------------------------------------------------------------------
// Clean path: physical restore
// ----------------------------------------------------------------------

#[test]
fn clean_v2_recovery_restores_asrs_physically() {
    let s0 = seed_snapshot_scaled();
    let disk = checkpointed_disk(&s0);
    let ckpt_bytes = disk.len(CHECKPOINT_FILE);

    let recovered = DurableDatabase::open(disk).unwrap();
    let report = recovered.recovery_report().clone();
    assert_eq!(report.asr_load_modes.len(), 4, "all four ASRs reported");
    for (id, mode) in &report.asr_load_modes {
        assert!(
            mode.is_physical(),
            "asr {id} not physically restored: {mode:?}"
        );
    }

    // The physical section's bytes are charged to the restored trees, so
    // the checkpoint-file charge is strictly below the file's size.
    let full_pages = ckpt_bytes.div_ceil(PAGE_SIZE) as u64;
    assert!(
        report.checkpoint_pages_read < full_pages,
        "physical bytes double-charged: {} >= {full_pages}",
        report.checkpoint_pages_read
    );
    assert!(report.checkpoint_pages_read > 0, "base section still read");

    let oracle = Database::load_from_string(&s0).unwrap();
    assert_eq!(recovered.save_to_string(), oracle.save_to_string());
    assert_eq!(
        backward_answers(&recovered, "Part 0.0"),
        backward_answers(&oracle, "Part 0.0")
    );
    for (_, asr) in recovered.asrs() {
        asr.check_consistency().unwrap();
    }
}

// ----------------------------------------------------------------------
// Corruption inside the physical section: per-ASR fallback
// ----------------------------------------------------------------------

#[test]
fn corrupt_text_checkpoint_falls_back_per_asr() {
    let s0 = golden("expected_state.snap");
    let oracle = Database::load_from_string(&s0).unwrap();
    let text = format!("CKPT 0\nASRIDS 0,1,2,3\n{}", String::from_utf8(s0).unwrap());

    // Each mangler edits the checkpoint *text* (CKPT + ASRIDS + v2
    // snapshot) to corrupt one physical section in a different way.
    #[allow(clippy::type_complexity)]
    let manglers: Vec<(&str, Box<dyn Fn(&str) -> String>)> = vec![
        (
            "node kind X",
            Box::new(|t: &str| t.replacen(" L ", " X ", 1)),
        ),
        (
            "deleted node line",
            Box::new(|t: &str| {
                let mut out = String::new();
                let mut dropped = false;
                for line in t.lines() {
                    if !dropped && line.starts_with("N b ") {
                        dropped = true;
                        continue;
                    }
                    out.push_str(line);
                    out.push('\n');
                }
                assert!(dropped, "fixture must contain a backward node line");
                out
            }),
        ),
        (
            "root out of bounds",
            Box::new(|t: &str| {
                let mut out = String::new();
                let mut hit = false;
                for line in t.lines() {
                    if !hit && line.starts_with("T ") {
                        let mut tok: Vec<&str> = line.split(' ').collect();
                        tok[4] = "999999"; // root slot
                        out.push_str(&tok.join(" "));
                        hit = true;
                    } else {
                        out.push_str(line);
                    }
                    out.push('\n');
                }
                assert!(hit, "fixture must contain a tree header");
                out
            }),
        ),
        (
            "unknown rowid in leaf",
            Box::new(|t: &str| {
                let mut out = String::new();
                let mut hit = false;
                for line in t.lines() {
                    if !hit && line.starts_with("R ") {
                        let mut tok: Vec<&str> = line.split(' ').collect();
                        tok[1] = "999999"; // rowid the trees never reference
                        out.push_str(&tok.join(" "));
                        hit = true;
                    } else {
                        out.push_str(line);
                    }
                    out.push('\n');
                }
                assert!(hit, "fixture must contain a row line");
                out
            }),
        ),
    ];

    for (what, mangle) in manglers {
        let mangled = mangle(&text);
        assert_ne!(text, mangled, "{what}: mangler must change the file");
        let mut disk = MemStorage::new();
        disk.write_atomic(CHECKPOINT_FILE, mangled.as_bytes())
            .unwrap();
        disk.write_atomic(MANIFEST_FILE, &golden("MANIFEST"))
            .unwrap();

        let recovered = DurableDatabase::open(disk)
            .unwrap_or_else(|e| panic!("{what}: recovery must fall back, got {e}"));
        let report = recovered.recovery_report().clone();
        assert_eq!(report.asr_load_modes.len(), 4, "{what}");
        let rebuilt = report
            .asr_load_modes
            .iter()
            .filter(|(_, m)| !m.is_physical())
            .count();
        assert!(rebuilt >= 1, "{what}: corruption must force a rebuild");
        for (id, mode) in &report.asr_load_modes {
            if let AsrLoadMode::Rebuilt(reason) = mode {
                assert!(!reason.is_empty(), "{what}: asr {id} reason empty");
            }
        }

        // Rebuilt or restored, the recovered state is the oracle's state.
        assert_eq!(
            recovered.save_to_string(),
            oracle.save_to_string(),
            "{what}"
        );
        assert_eq!(
            backward_answers(&recovered, "Door"),
            backward_answers(&oracle, "Door"),
            "{what}"
        );
        for (_, asr) in recovered.asrs() {
            asr.check_consistency().unwrap();
        }
    }
}

/// Flip one bit at a time across the whole binary checkpoint (every
/// frame header, the ASR sections, the objects): every flip is caught by
/// a frame checksum, so recovery fails with a typed error — it never
/// panics and never opens damaged data.
#[test]
fn bit_flip_sweep_over_checkpoint_always_errors() {
    let s0 = seed_snapshot();
    let base = checkpointed_disk(&s0);
    let ckpt = base.read(CHECKPOINT_FILE).unwrap().unwrap();
    let manifest = base.read(MANIFEST_FILE).unwrap().unwrap();
    let wal = base.read(WAL_FILE).unwrap().unwrap_or_default();

    for byte in (0..ckpt.len()).step_by(13) {
        let mut flipped = ckpt.clone();
        flipped[byte] ^= 1 << (byte % 8);

        let mut disk = MemStorage::new();
        disk.write_atomic(CHECKPOINT_FILE, &flipped).unwrap();
        disk.write_atomic(MANIFEST_FILE, &manifest).unwrap();
        disk.write_atomic(WAL_FILE, &wal).unwrap();

        match DurableDatabase::open(disk) {
            Ok(_) => panic!("flip@{byte}: damaged checkpoint opened"),
            Err(e) => assert!(
                matches!(e, DurableError::Corrupt(_) | DurableError::Asr(_)),
                "flip@{byte}: {e}"
            ),
        }
    }
}

// ----------------------------------------------------------------------
// Satellite: the frozen v1 golden fixture
// ----------------------------------------------------------------------

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/v1_golden");

fn golden(name: &str) -> Vec<u8> {
    std::fs::read(format!("{GOLDEN_DIR}/{name}"))
        .unwrap_or_else(|e| panic!("missing golden fixture file {name}: {e}"))
}

/// The committed v1 fixture's files in fresh storage.
fn golden_disk() -> MemStorage {
    let mut disk = MemStorage::new();
    disk.write_atomic(CHECKPOINT_FILE, &golden("checkpoint.snap"))
        .unwrap();
    disk.write_atomic(MANIFEST_FILE, &golden("MANIFEST"))
        .unwrap();
    disk.write_atomic(WAL_FILE, &golden("wal.log")).unwrap();
    disk
}

/// A text checkpoint carries no checksum, so a read whose flip leaves it
/// well-formed (a letter of an object's name, a digit of an OID) would
/// load silently wrong: every read of the v1 fixture sees, in turn, a
/// one-shot flip of such a byte, and recovery still lands on the frozen
/// expectation.
#[test]
fn golden_v1_fixture_recovers_through_a_transient_read_flip() {
    let ckpt = String::from_utf8(golden("checkpoint.snap")).unwrap();
    let at = |needle: &str| ckpt.find(needle).unwrap_or_else(|| panic!("{needle}"));
    // `Auto` → `Atto`, `i4` → `i5`, `560` → `561`: each still parses.
    let bytes = [at("S:Auto") + 3, at("R:i4") + 3, at("560") + 2];
    let expected = Database::load_from_string(&golden("expected_state.snap"))
        .unwrap()
        .save_to_string();
    for nth in 0..32usize {
        for byte in bytes {
            let plan = FaultPlan {
                flip_read: Some(ReadFlip { nth, byte, bit: 0 }),
                ..FaultPlan::default()
            };
            let faulty = FaultyStorage::new(golden_disk(), plan);
            let ctx = format!("transient flip on read {nth} byte {byte}");
            let recovered = DurableDatabase::open(faulty).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(recovered.save_to_string(), expected, "{ctx}");
        }
        let probe =
            DurableDatabase::open(FaultyStorage::new(golden_disk(), FaultPlan::default())).unwrap();
        if probe.storage().reads_seen() <= nth {
            return;
        }
    }
    panic!("recovery consumed over 32 reads; widen the sweep");
}

/// Recover the committed v1 fixture (a text `ASRDB 1` checkpoint plus a
/// short WAL tail) on current code: every ASR rebuilds, the replayed tail
/// applies, and the final state is the frozen expectation (an `ASRDB 2`
/// text snapshot), the two compared through the binary writer.
#[test]
fn golden_v1_fixture_recovers_on_current_code() {
    let ckpt = golden("checkpoint.snap");
    let ckpt_text = String::from_utf8(ckpt.clone()).unwrap();
    assert!(
        ckpt_text.lines().nth(2) == Some("ASRDB 1"),
        "fixture checkpoint must be a v1 snapshot"
    );

    let recovered = DurableDatabase::open(golden_disk()).unwrap();
    let report = recovered.recovery_report().clone();
    assert!(report.records_replayed > 0, "fixture WAL tail must replay");
    assert!(!report.asr_load_modes.is_empty());
    for (id, mode) in &report.asr_load_modes {
        match mode {
            AsrLoadMode::Rebuilt(reason) => {
                assert!(
                    reason.contains("v1"),
                    "asr {id}: unexpected reason {reason}"
                )
            }
            AsrLoadMode::Physical | AsrLoadMode::Delta { .. } => {
                panic!("asr {id}: v1 snapshot cannot restore physically")
            }
        }
    }

    let expected = Database::load_from_string(&golden("expected_state.snap")).unwrap();
    assert_eq!(
        recovered.save_to_string(),
        expected.save_to_string(),
        "golden v1 recovery diverged from the frozen expectation"
    );
    for (_, asr) in recovered.asrs() {
        asr.check_consistency().unwrap();
    }
}
