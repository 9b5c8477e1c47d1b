//! Whole-database persistence: one binary, CRC-framed checkpoint document.
//!
//! Every document says one thing: *apply these tree page images (whose
//! leaves carry the partition rows), object records and variable bindings
//! on top of base `b`*.  A full checkpoint is that document over the
//! **empty base**; a delta checkpoint names the checkpoint it patches.  So one writer
//! ([`CheckpointSource`], and [`Database::save_to_string`] over the live
//! state) and one reader serve full, delta and chained checkpoints, crash
//! recovery and point-in-time recovery, replica bootstrap and delta
//! re-seed.  The reader feeds the bulk constructors —
//! [`asr_gom::BaseBuilder`], [`ObjectStore::sync_with_base`] and
//! `StoredPartition::restore` — never the mutation API.
//!
//! ## Layout
//!
//! An eight-byte magic, `\x89ASRDB\x05\n` (format version 5), then frames
//! in a fixed order.  A frame is `[tag u8][len u32][payload][crc u32]`;
//! its CRC-32 ([`crate::crc32`]) covers tag, length and payload, so every
//! flipped bit and every cut is caught before anything is decoded.
//!
//! | tag | frame | payload |
//! |-----|-------|---------|
//! | `H` | header | base (`0` = the empty base, or `1` + the base checkpoint's id), LSN, session id of each ASR |
//! | `D` | design | schema (types in id order), clustered type sizes, each ASR's path and configuration |
//! | `A` | one per ASR | `1` = images over empty partitions, `0` = deltas over the base's; partition count; each partition |
//! | `O` | objects | object count after applying, deleted OIDs, object records, variable bindings |
//!
//! ```text
//! partition := from to  tree(fwd) tree(bwd)
//! tree      := root height len slots  n { free-slot }  n { slot page }
//! page      := 0                                   freed
//!            | 1 n { child } (n-1) { row }         inner: separator rows
//!            | 2 next+1|0 n { row }                leaf: the rows
//! row       := cell^(to-from+1)                    backward tree: rotated
//! cell      := 0 | 1 oid | 2 value                 NULL, OID (varint), value
//! objects   := count  n { oid }  n { oid type# body }  n { name value }
//! body      := n { slot value }                    tuple: non-NULL slots, ascending
//!            | n { value }                         set (ascending) or list
//! ```
//!
//! Counts, ids, page slots and OIDs are unsigned LEB128 varints; values
//! use the codec shared with the wire protocol ([`crate::codec`]).  A row
//! is its own key: the forward tree's pages hold each row's cells in
//! column order, the backward tree's the same cells rotated last column
//! first, and a delta is the pages changed since the base, which carry
//! their rows.  Pages and objects are listed in ascending slot and OID
//! order, a tuple's slots in ascending slot order and a set's members in
//! ascending value order, each at most once; the reader refuses any
//! other order.  Over the empty base a document lists no freed page.  Restoring
//! checks each tree's pages (layout, keys strictly ascending) and that
//! both trees hold the same rows.
//!
//! A delta's design frame must equal the base's byte for byte: deltas
//! never span a design change.  The writer ships an ASR as images instead
//! of deltas when its delta would exceed [`DELTA_FULL_FRACTION`] of them,
//! a choice it prices rather than renders: each tree page remembers its
//! encoded length from the last document that wrote or read it, so a
//! checkpoint renders only the bytes it writes.  A delta never lists a
//! live object under another type (an OID deleted and made anew since
//! its base is listed as deleted too).
//!
//! A chain — a full document and the deltas over it — loads in one pass
//! ([`Database::load_from_chain_report`]): each ASR's images are the full
//! document's with every delta's pages laid over them, the objects the
//! full document's with the chain's latest listing or deletion of each
//! OID in their place, then one restore and one validation, as for a
//! full document.  A replica applies one delta at a time
//! ([`Database::apply_delta`]).  An ASR frame that passes its checksum
//! but cannot be restored rebuilds that ASR from the object base when
//! loading leniently (crash recovery) and fails a strict apply
//! (replication).
//!
//! The retired text grammars `ASRDB 1` and `ASRDB 2` stay readable
//! (`persist::legacy`); nothing writes them.

mod format;
mod legacy;

use std::path::Path;
use std::rc::Rc;

use asr_gom::{ObjectBase, PathExpression, TypeRef};

use crate::codec::Writer;
use crate::database::{AsrId, Changes, Database};
use crate::error::{AsrError, Result};
use crate::manager::{AccessSupportRelation, AsrConfig};
use crate::partition::{PartitionImage, StoredPartition};
use crate::snapshot::Snapshot;
use crate::store::ObjectStore;

use format::Document;

/// The format version of the binary document (1 and 2 were the text
/// grammars, 3 their text delta, 4 the binary document with row ids).
pub const FORMAT_VERSION: u32 = 5;

/// A per-ASR delta section is only worth shipping when it is at most this
/// fraction of the ASR's full images; otherwise the writer ships images.
pub const DELTA_FULL_FRACTION: f64 = 0.5;

/// How one access support relation came back from a snapshot load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsrLoadMode {
    /// Physically restored by adopting its partitions' B+-tree page
    /// images.
    Physical,
    /// Physically restored by patching the base checkpoint's page images
    /// with a delta that shipped `pages` changed pages.
    Delta {
        /// Changed tree pages carried by the delta section.
        pages: usize,
    },
    /// Rebuilt from its configuration via the extension join — an
    /// `ASRDB 1` snapshot, or a per-ASR fallback for the given reason.
    Rebuilt(String),
}

impl AsrLoadMode {
    /// `true` for [`AsrLoadMode::Physical`].
    pub fn is_physical(&self) -> bool {
        matches!(self, AsrLoadMode::Physical)
    }

    /// `true` for [`AsrLoadMode::Delta`].
    pub fn is_delta(&self) -> bool {
        matches!(self, AsrLoadMode::Delta { .. })
    }
}

/// What a snapshot load did — returned by
/// [`Database::load_from_string_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReport {
    /// Document format: [`FORMAT_VERSION`], or 1 and 2 for the legacy
    /// text grammars.
    pub version: u32,
    /// Per-ASR outcome, in registration order.  After a chain load this
    /// reflects the final application.
    pub asrs: Vec<(AsrId, AsrLoadMode)>,
    /// Bytes of the physical sections of physically restored ASRs.  The
    /// durability layer subtracts these from its whole-file read charge:
    /// those bytes are the trees' page images, and their reads are
    /// charged by the restore itself.
    pub physical_bytes: usize,
    /// Number of deltas applied on top of the full document.
    pub delta_chain: usize,
}

/// The header every document opens with: what it applies on top of, the
/// log position it covers, and the session id of each ASR it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// The LSN the document covers (0 outside the durability layer).
    pub lsn: u64,
    /// The checkpoint this document is a delta over; `None` for the empty
    /// base, i.e. a full checkpoint.
    pub base: Option<u64>,
    /// The session id of each ASR, in document order: loading compacts
    /// them to `0..n`, and log replay translates through these.
    pub asr_ids: Vec<AsrId>,
}

impl CheckpointHeader {
    /// Read and verify the header frame of a binary document, decoding
    /// nothing else.
    pub fn read(bytes: &[u8]) -> Result<CheckpointHeader> {
        format::read_header(bytes)
    }

    /// `true` when the document patches a base checkpoint.
    pub fn is_delta(&self) -> bool {
        self.base.is_some()
    }
}

impl Database {
    /// Serialize the database — schema, objects, variables, physical
    /// design and every ASR partition's physical state — as a full
    /// checkpoint document (LSN 0, ASR ids `0..n`).
    pub fn save_to_string(&self) -> Vec<u8> {
        self.render_full(0, (0..self.asrs().count()).collect())
    }

    /// The full checkpoint document of the live state at `lsn`, under the
    /// session's ASR ids: what a full checkpoint taken now would write.
    /// Prices a full checkpoint on demand.
    pub fn save_checkpoint(&self, lsn: u64) -> Vec<u8> {
        self.render_full(lsn, self.asrs().map(|(id, _)| id).collect())
    }

    fn render_full(&self, lsn: u64, asr_ids: Vec<AsrId>) -> Vec<u8> {
        let header = CheckpointHeader {
            lsn,
            base: None,
            asr_ids,
        };
        format::render(
            &header,
            &format::encode_design(self),
            self.asrs()
                .map(|(_, asr)| asr.partitions().iter().map(StoredPartition::freeze)),
            self.base(),
            None,
        )
        .into_bytes()
    }

    /// Restore a database from a full document: objects keep their OIDs,
    /// clustered files are sized as configured, and access support
    /// relations come back physically (or rebuild, for an `ASRDB 1` text
    /// snapshot or a damaged section).
    pub fn load_from_string(bytes: &[u8]) -> Result<Database> {
        Ok(Self::load_from_string_report(bytes)?.0)
    }

    /// [`Database::load_from_string`] plus a [`LoadReport`] describing
    /// the format and how each ASR was restored.
    pub fn load_from_string_report(bytes: &[u8]) -> Result<(Database, LoadReport)> {
        Database::load_from_chain_report(bytes, &[])
    }

    /// Apply a delta document on top of this database's state, which must
    /// hold the delta's base checkpoint (the caller verifies lineage via
    /// [`CheckpointHeader::read`]).  Strict: any inconsistency is an
    /// error — the replication path NACKs instead of silently rebuilding.
    pub fn apply_delta(&self, bytes: &[u8]) -> Result<Database> {
        Ok(self.apply_delta_report(bytes, true)?.0)
    }

    /// [`Database::apply_delta`] with a [`LoadReport`] and a strictness
    /// switch: when `strict` is false, an ASR whose images cannot be
    /// patched falls back to a charged rebuild from the patched base
    /// instead of failing the whole application.
    ///
    /// `self` is never modified — on error the caller still holds the
    /// base state.
    pub fn apply_delta_report(&self, bytes: &[u8], strict: bool) -> Result<(Database, LoadReport)> {
        let doc = Document::read(bytes)?;
        if doc.header.base.is_none() {
            return Err(AsrError::Snapshot(
                "a full checkpoint is not a delta to apply".into(),
            ));
        }
        doc.apply(self, strict)
    }

    /// Load a full document plus a chain of deltas over it, oldest first
    /// (crash recovery: lenient per-ASR fallback), in one pass: every
    /// frame is checksummed and decoded once, each ASR's images are the
    /// full document's with the chain's pages laid over them, and the
    /// objects the full document's with the chain's latest listings and
    /// deletions in their place — then one restore, as for a full
    /// document.  The report describes the chain: `asrs` how its last
    /// document shipped each ASR, `physical_bytes` the ASR frames of
    /// every document.
    pub fn load_from_chain_report(full: &[u8], deltas: &[&[u8]]) -> Result<(Database, LoadReport)> {
        let converted;
        let full = if legacy::is_text(full) {
            let (version, base, parsed) = legacy::read(full)?;
            let loaded = assemble(base, parsed, version, 0, false)?;
            if deltas.is_empty() {
                return Ok(loaded);
            }
            // Deltas over a text checkpoint patch the pages its load
            // built: read them off the loaded state.
            converted = loaded.0.save_to_string();
            &converted[..]
        } else {
            full
        };
        let deltas = (deltas.iter())
            .map(|bytes| Document::read(bytes))
            .collect::<Result<Vec<_>>>()?;
        format::load_chain(Document::read(full)?, &deltas)
    }

    /// Save to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.save_to_string())
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Database> {
        Ok(Database::load_report(path)?.0)
    }

    /// Load from a file, also returning how each ASR was brought back.
    pub fn load_report(path: impl AsRef<Path>) -> Result<(Database, LoadReport)> {
        let bytes = std::fs::read(path)
            .map_err(|e| AsrError::Snapshot(format!("cannot read file: {e}")))?;
        Database::load_from_string_report(&bytes)
    }

    /// Begin a fuzzy checkpoint: pin a [`Snapshot`] (partition images
    /// ride its published versions), encode the design, and take the
    /// changes since the previous checkpoint, making this state the base
    /// of the next one ([`Database::mark_clean`]).  Copies no row and no
    /// page.
    ///
    /// The returned [`CheckpointSource`] renders the full document as
    /// [`Database::save_to_string`] would have at this instant (with the
    /// session's ASR ids), and the delta since the previous checkpoint,
    /// without holding the database: the session keeps mutating (and
    /// serving snapshot readers) while the document is composed and
    /// written out.
    pub fn begin_checkpoint(&mut self) -> CheckpointSource {
        CheckpointSource {
            snapshot: self.snapshot(),
            design: format::encode_design(self),
            changes: self.take_changes(),
        }
    }
}

/// Everything needed to serialize a checkpoint after the session moved
/// on: a pinned [`Snapshot`] (immutable partition versions + object base)
/// and what changed between the previous checkpoint and this one.
///
/// Produced by [`Database::begin_checkpoint`]; consumed by the durability
/// layer, which composes the document and writes it out while the live
/// session keeps executing.  Holding a `CheckpointSource` pins its epoch
/// like any other snapshot reader.
#[derive(Debug)]
pub struct CheckpointSource {
    snapshot: Snapshot,
    /// The design frame's payload.
    design: Vec<u8>,
    /// What changed between the previous checkpoint and this one; its
    /// partitions are in the snapshot's ASR order.
    changes: Changes,
}

impl CheckpointSource {
    /// The pinned snapshot backing this checkpoint — also answers reads
    /// that overlap the checkpoint write.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// `true` when the physical design changed since the previous
    /// checkpoint — a delta over it will be refused and the caller must
    /// take a full checkpoint.
    pub fn is_design_dirty(&self) -> bool {
        self.changes.design
    }

    /// `true` when nothing changed since the previous checkpoint: a delta
    /// rendered from this source would carry no pages, objects or
    /// variables.
    pub fn is_noop_delta(&self) -> bool {
        let c = &self.changes;
        let mut asrs = self.snapshot.asr_versions().zip(&c.partitions);
        !c.design
            && c.dead_oids.is_empty()
            && c.dirty_oids.is_empty()
            && c.dirty_vars.is_empty()
            && asrs.all(|(versions, changes)| {
                versions.zip(changes).all(|(v, ch)| v.delta(ch).is_empty())
            })
    }

    /// The full document of the captured state at `lsn`: the delta over
    /// the empty base, read off the whole state.
    pub fn save_full(&self, lsn: u64) -> Vec<u8> {
        self.render(lsn, None).into_bytes()
    }

    /// The delta document at `lsn` over `base`, the checkpoint the
    /// previous one was published as: what changed since the previous
    /// checkpoint, each partition's pages its pinned version does not
    /// share with the previous checkpoint's.  `None`
    /// when the design changed since the base.
    pub fn save_delta(&self, lsn: u64, base: u64) -> Option<Vec<u8>> {
        (!self.changes.design).then(|| self.render(lsn, Some((base, &self.changes))).into_bytes())
    }

    fn render(&self, lsn: u64, since: Option<(u64, &Changes)>) -> Writer {
        let header = CheckpointHeader {
            lsn,
            base: since.map(|(base, _)| base),
            asr_ids: self.snapshot.asr_ids(),
        };
        format::render(
            &header,
            &self.design,
            self.snapshot.asr_versions(),
            self.snapshot.base(),
            since.map(|(_, changes)| changes),
        )
    }
}

// ----------------------------------------------------------------------
// Assembly: shared with the legacy text reader
// ----------------------------------------------------------------------

/// One ASR's partition images as read, and the changed pages of the
/// delta that patched them last (`None`: they were read as images); or
/// why they cannot be restored.
type AsrImages = std::result::Result<(Vec<PartitionImage>, Option<usize>), String>;

/// What a reader hands [`assemble`]: the clustered sizes, each ASR's
/// configuration, its images and the bytes of its sections.
struct Parsed {
    sizes: Vec<(String, usize)>,
    asrs: Vec<(String, AsrConfig)>,
    images: Vec<AsrImages>,
    bytes: Vec<usize>,
}

/// The load tail every document shares: size the clustered files, attach
/// the object base, restore each ASR (in design order) from its images
/// or rebuild it, and mark the result as the next delta's base.
/// `delta_chain` is how many deltas the images took in; `strict` turns
/// an ASR that cannot be restored into an error instead of a rebuild.
fn assemble(
    base: ObjectBase,
    parsed: Parsed,
    version: u32,
    delta_chain: usize,
    strict: bool,
) -> Result<(Database, LoadReport)> {
    let stats = asr_pagesim::IoStats::new_handle();
    let mut store = ObjectStore::new(Rc::clone(&stats));
    for (name, size) in &parsed.sizes {
        store.set_type_size(base.schema().require(name)?, *size);
    }
    store.sync_with_base(&base)?;
    let mut db = Database::from_parts(base, store, stats);
    let mut report = LoadReport {
        version,
        asrs: Vec::new(),
        physical_bytes: 0,
        delta_chain,
    };
    let sections = parsed.asrs.into_iter().zip(parsed.images);
    for (ordinal, ((dotted, config), images)) in sections.enumerate() {
        let path = PathExpression::parse(db.base().schema(), &dotted)?;
        let outcome = images.and_then(|(images, pages)| {
            let id = restore_asr(&mut db, &path, &config, images).map_err(|e| e.to_string())?;
            let mode = pages.map_or(AsrLoadMode::Physical, |pages| AsrLoadMode::Delta { pages });
            Ok((id, mode))
        });
        match outcome {
            Ok((id, mode)) => {
                report.physical_bytes += parsed.bytes[ordinal];
                report.asrs.push((id, mode));
            }
            Err(reason) if strict => {
                return Err(AsrError::Snapshot(format!(
                    "delta section for ASR {ordinal} ({path}): {reason}"
                )));
            }
            Err(reason) => {
                // A cold rebuild reads every extent along the path to
                // recompute the extension: charge those scans.
                charge_path_scans(&db, &path);
                let id = db.create_asr(path, config)?;
                report.asrs.push((id, AsrLoadMode::Rebuilt(reason)));
            }
        }
    }
    db.mark_clean();
    Ok((db, report))
}

/// Charge a full extent scan for every named type along `path` — the cost
/// a cold recovery pays to recompute the extension before a rebuild.
fn charge_path_scans(db: &Database, path: &PathExpression) {
    for i in 0..=path.len() {
        if let TypeRef::Named(ty) = path.type_at(i) {
            db.store().charge_scan(ty);
        }
    }
}

/// Physically restore one ASR from its partitions' images: tag + adopt
/// both trees of every partition and attach the ASR.  No extension join
/// runs.
fn restore_asr(
    db: &mut Database,
    path: &PathExpression,
    config: &AsrConfig,
    images: Vec<PartitionImage>,
) -> Result<AsrId> {
    let stats = Rc::clone(db.stats());
    let mut parts = Vec::with_capacity(images.len());
    for img in images {
        let label = format!("asr[{path}].{}-{}", img.from, img.to);
        parts.push(StoredPartition::restore(img, Rc::clone(&stats), &label)?);
    }
    let asr = AccessSupportRelation::from_restored(path.clone(), config.clone(), parts, stats)?;
    Ok(db.attach_asr(asr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::codec::{Reader, Writer};
    use crate::decomposition::Decomposition;
    use crate::extension::Extension;
    use asr_gom::{Oid, Value};

    fn sample_db() -> Database {
        let (base, path) = crate::testutil::figure2_base();
        let mut db = Database::from_base(base);
        let div_ty = db.base().schema().resolve("Division").unwrap();
        db.set_type_size(div_ty, 500);
        db.create_asr(path.clone(), AsrConfig::binary(Extension::Full, &path))
            .unwrap();
        db.create_asr(
            path,
            AsrConfig {
                extension: Extension::Canonical,
                decomposition: Decomposition::new(vec![0, 2, 3]).unwrap(),
                keep_set_oids: false,
            },
        )
        .unwrap();
        db
    }

    /// A clean database at its serialization fixed point: `db.save ==
    /// bytes` exactly, and every dirty set is cleared.
    fn settled(db: Database) -> (Database, Vec<u8>) {
        let bytes = Database::load_from_string(&db.save_to_string())
            .unwrap()
            .save_to_string();
        (Database::load_from_string(&bytes).unwrap(), bytes)
    }

    /// The `BasePartSET` behind the 560 SEC product — the deepest set on
    /// the Figure-2 path, so inserts there flow into every ASR.
    fn sec_composition(db: &Database) -> (Oid, Oid) {
        let find = |name: &str| {
            db.base()
                .find_by_attribute("Name", &Value::string(name))
                .unwrap()
        };
        let set = db.base().deref_attribute(find("560 SEC"), "Composition");
        (set.unwrap().unwrap(), find("Pepper"))
    }

    /// Figure 2 grown by `extra` base parts in the 560 SEC composition —
    /// big enough that one more insert touches only a few tree pages.
    fn bulk_db(extra: usize) -> Database {
        let (base, path) = crate::testutil::figure2_base();
        let mut db = Database::from_base(base);
        db.create_asr(path.clone(), AsrConfig::binary(Extension::Full, &path))
            .unwrap();
        let (set, _) = sec_composition(&db);
        for k in 0..extra {
            let p = db.instantiate("BasePart").unwrap();
            db.set_attribute(p, "Name", Value::string(format!("Part{k}")))
                .unwrap();
            db.insert_into_set(set, Value::Ref(p)).unwrap();
        }
        db
    }

    fn door_hits(db: &Database) -> Vec<Vec<Oid>> {
        let door = Cell::Value(Value::string("Door"));
        db.asrs()
            .filter(|(_, asr)| asr.supports(0, 3))
            .map(|(id, _)| db.backward(id, 0, 3, &door).unwrap())
            .collect()
    }

    #[test]
    fn save_load_round_trip() {
        let db = sample_db();
        let bytes = db.save_to_string();
        let (restored, report) = Database::load_from_string_report(&bytes).unwrap();
        assert_eq!(restored.base().object_count(), db.base().object_count());
        assert_eq!(report.version, FORMAT_VERSION);
        assert!(
            report.asrs.iter().all(|(_, m)| m.is_physical()),
            "{report:?}"
        );
        assert!(report.physical_bytes > 0);
        assert_eq!(door_hits(&restored), door_hits(&db));
        assert!(door_hits(&db).iter().all(|hits| hits.len() == 2));
        for (_, asr) in restored.asrs() {
            asr.check_consistency().unwrap();
        }
        // One load reaches the fixed point: the physical section comes
        // back page for page and type ids follow the document.
        assert_eq!(restored.save_to_string(), bytes);
        let header = CheckpointHeader::read(&bytes).unwrap();
        assert_eq!(
            (header.lsn, header.base, header.asr_ids),
            (0, None, vec![0, 1])
        );
    }

    #[test]
    fn physical_restore_charges_reads_to_the_restored_trees() {
        let db = sample_db();
        let restored = Database::load_from_string(&db.save_to_string()).unwrap();
        let by_label = restored.stats().structures();
        let trees: Vec<_> = by_label
            .iter()
            .filter(|s| s.label.ends_with(".fwd") || s.label.ends_with(".bwd"))
            .collect();
        // Full/binary has spans 0-1, 1-2, 2-3 and canonical/{0,2,3} has
        // 0-2, 2-3; the shared 2-3 label dedups to one (kind, label) id.
        assert_eq!(trees.len(), 8);
        for s in trees {
            assert!(s.reads > 0, "restore reads must attribute to {}", s.label);
            assert_eq!(s.writes, 0, "physical restore writes nothing: {}", s.label);
        }
    }

    #[test]
    fn restored_database_keeps_maintaining_and_sizes_survive() {
        let db = sample_db();
        let mut restored = Database::load_from_string(&db.save_to_string()).unwrap();
        let div_ty = restored.base().schema().resolve("Division").unwrap();
        assert_eq!(restored.store().type_size(div_ty), 500);
        let (sec_set, pepper) = sec_composition(&restored);
        restored
            .insert_into_set(sec_set, Value::Ref(pepper))
            .unwrap();
        let pepper = Cell::Value(Value::string("Pepper"));
        for (id, asr) in restored.asrs() {
            asr.check_consistency().unwrap();
            if asr.supports(0, 3) {
                let hits = restored.backward(id, 0, 3, &pepper).unwrap();
                assert_eq!(hits.len(), 2, "Auto and Truck reach Pepper now ({id})");
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("asr_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("db.snap");
        db.save(&file).unwrap();
        let restored = Database::load(&file).unwrap();
        assert_eq!(restored.base().object_count(), db.base().object_count());
        std::fs::remove_file(file).ok();
        let err = Database::load("/nonexistent/dir/db.snap").unwrap_err();
        assert!(err.to_string().contains("cannot read file"), "{err}");
    }

    #[test]
    fn documents_of_the_wrong_kind_are_refused() {
        let (mut db, full) = settled(sample_db());
        let (set, pepper) = sec_composition(&db);
        db.insert_into_set(set, Value::Ref(pepper)).unwrap();
        let delta = db.begin_checkpoint().save_delta(2, 1).unwrap();
        for (got, want) in [
            (Database::load_from_string(b"").unwrap_err(), "magic"),
            (
                Database::load_from_string(b"GOMSNAP 1\n").unwrap_err(),
                "magic",
            ),
            (
                Database::load_from_string(&delta).unwrap_err(),
                "delta over",
            ),
            (db.apply_delta(&full).unwrap_err(), "not a delta"),
        ] {
            assert!(matches!(got, AsrError::Snapshot(_)), "{got}");
            assert!(got.to_string().contains(want), "{got}");
        }
        // A delta over a base with another design does not apply.
        let other = Database::load_from_string(&bulk_db(3).save_to_string()).unwrap();
        let err = other.apply_delta(&delta).unwrap_err();
        assert!(err.to_string().contains("design"), "{err}");
    }

    // ---- the legacy text grammars ------------------------------------

    const PINNED_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/pinned");

    fn pinned(file: &str) -> Vec<u8> {
        std::fs::read(format!("{PINNED_DIR}/{file}")).unwrap()
    }

    fn legacy_figure2() -> String {
        String::from_utf8(pinned("figure2.asrdb2")).unwrap()
    }

    /// The text fixtures, written by the retired text writer, load to
    /// the state the current code builds: page for page where that state
    /// was bulk-loaded (a text partition is bulk-loaded from its rows),
    /// row for row where inserts built it.
    #[test]
    fn legacy_text_fixtures_load_to_the_state_built_today() {
        let (db, report) = Database::load_from_string_report(&pinned("figure2.asrdb2")).unwrap();
        assert_eq!(report.version, 2);
        assert!(report.asrs.iter().all(|(_, m)| m.is_physical()));
        assert_eq!(db.save_to_string(), sample_db().save_to_string());
        let logical = |db: &Database| {
            let rows: Vec<Vec<_>> = db
                .asrs()
                .map(|(_, asr)| asr.full_rows().collect())
                .collect();
            (asr_gom::snapshot::write_base(db.base()), rows)
        };
        let bulk = Database::load_from_string(&pinned("bulk.asrdb2")).unwrap();
        for (_, asr) in bulk.asrs() {
            asr.check_consistency().unwrap();
        }
        assert_eq!(logical(&bulk), logical(&pinned_bulk().0));
    }

    #[test]
    fn legacy_v1_text_loads_by_rebuilding() {
        let text = legacy_figure2().replace("ASRDB 2", "ASRDB 1");
        let (head, base) = text.split_once("--BASE--\n").unwrap();
        let head: String = (head.lines())
            .filter(|l| !["P ", "R ", "T ", "N "].iter().any(|t| l.starts_with(t)))
            .map(|l| format!("{l}\n"))
            .collect();
        let v1 = format!("{head}--BASE--\n{base}");
        let (restored, report) = Database::load_from_string_report(v1.as_bytes()).unwrap();
        assert_eq!((report.version, report.physical_bytes), (1, 0));
        assert!(report
            .asrs
            .iter()
            .all(|(_, mode)| matches!(mode, AsrLoadMode::Rebuilt(r) if r == "v1 snapshot")));
        assert_eq!(door_hits(&restored), door_hits(&sample_db()));
        // The rebuild charges the extents it has to scan.
        assert!(restored.stats().reads() > 0);
    }

    /// Corruption confined to a text snapshot's physical section degrades
    /// per ASR to a rebuild; damage elsewhere is a descriptive error.
    #[test]
    fn corrupt_legacy_text_falls_back_or_errors() {
        let good = legacy_figure2();
        let expect = door_hits(&sample_db());
        let first = |tag: &str| good.lines().find(|l| l.starts_with(tag)).unwrap();
        let (first_n, first_t) = (first("N f"), first("T 0"));
        for mangled in [
            good.replace(first_n, &first_n.replace(" L ", " X ")),
            good.replace(first_t, "T 0 0 f 999999 1 1 1 -"),
            good.replace(first_n, ""),
            good.replacen("R 0 ", "R 999999 ", 1),
            good.replacen("R 0 1 ", "R 0 0 ", 1),
        ] {
            let (loaded, report) = Database::load_from_string_report(mangled.as_bytes())
                .unwrap_or_else(|e| panic!("must fall back, got {e}"));
            assert!(
                report.asrs.iter().any(|(_, m)| !m.is_physical()),
                "{report:?}"
            );
            assert_eq!(door_hits(&loaded), expect);
        }
        // Retired witness counts are read and ignored when positive.
        let counted = good.replace(" 1 R:", " 7 R:").replace(" 1 S:", " 7 S:");
        let (db, report) = Database::load_from_string_report(counted.as_bytes()).unwrap();
        assert!(report.asrs.iter().all(|(_, m)| m.is_physical()));
        assert_eq!(db.save_to_string(), sample_db().save_to_string());
        for mangled in [
            good.replace("--BASE--\n", ""),
            good.replace("ASRDB 2", "ASRDB 999"),
            good.replace(" canonical ", " "),
            good.replace("0,2,3", "0,x,3"),
            good.replace("\nA ", "\nZ "),
            good.replace("S Division 500", "S Division many"),
            good.replace("S Division 500", "S Nothing 500"),
            good.replace("S:Door", "S:%zzDoor"),
        ] {
            let err = Database::load_from_string(mangled.as_bytes()).unwrap_err();
            assert!(!err.to_string().is_empty());
        }
    }

    // ---- the binary documents are frozen -------------------------------

    /// The bulk database (deep enough for inner pages, with a name
    /// carrying every escaped byte) at its fixed point.
    fn pinned_bulk() -> (Database, Vec<u8>) {
        let mut bulk = bulk_db(300);
        let part = bulk.instantiate("BasePart").unwrap();
        bulk.set_attribute(part, "Name", Value::string("a b%c=d\ne"))
            .unwrap();
        bulk.set_attribute(part, "Price", Value::decimal(-3, 7))
            .unwrap();
        let (set, _) = sec_composition(&bulk);
        bulk.insert_into_set(set, Value::Ref(part)).unwrap();
        settled(bulk)
    }

    /// Figure 2 in full; the bulk database in full; then, over it, a
    /// delta carrying one insert as true deltas, and one that ships its
    /// ASR as images and carries a deleted object and two rebound
    /// variables.
    fn pinned_documents() -> [Vec<u8>; 4] {
        let (mut bulk, full) = pinned_bulk();
        let (set, pepper) = sec_composition(&bulk);
        let part = bulk
            .base()
            .find_by_attribute("Name", &Value::string("a b%c=d\ne"))
            .unwrap();
        bulk.insert_into_set(set, Value::Ref(pepper)).unwrap();
        let small = bulk.begin_checkpoint().save_delta(41, 40).unwrap();
        let doomed = bulk.instantiate("BasePart").unwrap();
        bulk.mark_clean();
        bulk.set_attribute(part, "Name", Value::string("renamed"))
            .unwrap();
        bulk.delete_object(doomed).unwrap();
        bulk.bind_variable("epoch two", Value::Integer(-2));
        bulk.bind_variable("Mercedes", Value::Null);
        let mixed = bulk.begin_checkpoint().save_delta(42, 41).unwrap();
        [sample_db().save_to_string(), full, small, mixed]
    }

    const PINNED_FILES: [&str; 4] = [
        "figure2.ckpt",
        "bulk.ckpt",
        "bulk-insert.delta",
        "bulk-mixed.delta",
    ];

    /// The writer's output byte for byte, and the pinned source renders
    /// the same bytes; the insert delta applies to the bulk checkpoint as
    /// a true delta.
    #[test]
    fn documents_are_pinned() {
        let docs = pinned_documents();
        for (doc, file) in docs.iter().zip(PINNED_FILES) {
            assert!(*doc == pinned(file), "{file} drifted");
        }
        assert_eq!(sample_db().begin_checkpoint().save_full(0), docs[0]);
        let bulk = Database::load_from_string(&docs[1]).unwrap();
        let (_, report) = bulk.apply_delta_report(&docs[2], true).unwrap();
        assert!(report.asrs.iter().all(|(_, m)| m.is_delta()), "{report:?}");
    }

    #[test]
    #[ignore = "writes tests/fixtures/pinned; run only to re-freeze the format"]
    fn regenerate_pinned_documents() {
        for (doc, file) in pinned_documents().iter().zip(PINNED_FILES) {
            std::fs::write(format!("{PINNED_DIR}/{file}"), doc).unwrap();
        }
    }

    // ---- deltas ------------------------------------------------------

    #[test]
    fn delta_apply_reproduces_the_primary_byte_for_byte() {
        let (mut primary, base) = settled(sample_db());
        let (set, pepper) = sec_composition(&primary);
        primary.insert_into_set(set, Value::Ref(pepper)).unwrap();
        primary.bind_variable("epoch", Value::string("two"));
        let delta = primary.begin_checkpoint().save_delta(42, 41).unwrap();
        let header = CheckpointHeader::read(&delta).unwrap();
        assert_eq!((header.lsn, header.base), (42, Some(41)));

        let replica = Database::load_from_string(&base).unwrap();
        let (patched, report) = replica.apply_delta_report(&delta, true).unwrap();
        assert_eq!((report.version, report.delta_chain), (FORMAT_VERSION, 1));
        assert!(report.physical_bytes > 0);
        assert_eq!(patched.save_to_string(), primary.save_to_string());
        for (_, asr) in patched.asrs() {
            asr.check_consistency().unwrap();
        }
        // The delta left the patched replica clean.
        assert_eq!(patched.dirty_summary(), (0, 0, 0, 0));
    }

    /// A clean database's delta ships no page.  It is the design and the
    /// headers: under half the full document on 100 parts, and under the
    /// whole of Figure 2's (520 of 999 B).
    #[test]
    fn clean_database_ships_an_empty_delta() {
        for (db, share) in [(sample_db(), 1), (bulk_db(100), 2)] {
            let (mut db, full) = settled(db);
            let delta = db.begin_checkpoint().save_delta(1, 0).unwrap();
            assert!(
                delta.len() * share < full.len(),
                "{} vs {}",
                delta.len(),
                full.len()
            );
            let (patched, report) = db.apply_delta_report(&delta, true).unwrap();
            assert!(
                report
                    .asrs
                    .iter()
                    .all(|(_, m)| matches!(m, AsrLoadMode::Delta { pages: 0 })),
                "{report:?}"
            );
            assert_eq!(patched.save_to_string(), full);
        }
    }

    /// A database of `parts` parts after one inserted part, settled
    /// first: its full document, the delta over the settled base, and
    /// how each ASR loads from that delta (checked to patch the base to
    /// the full document).
    fn one_insert_delta(parts: usize) -> (Vec<u8>, Vec<u8>, Vec<AsrLoadMode>) {
        let (mut primary, base) = settled(bulk_db(parts));
        let (set, _) = sec_composition(&primary);
        let p = primary.instantiate("BasePart").unwrap();
        primary
            .set_attribute(p, "Name", Value::string("Hinge"))
            .unwrap();
        primary.insert_into_set(set, Value::Ref(p)).unwrap();
        let full = primary.save_to_string();
        let delta = primary.begin_checkpoint().save_delta(10, 9).unwrap();
        let replica = Database::load_from_string(&base).unwrap();
        let (patched, report) = replica.apply_delta_report(&delta, true).unwrap();
        assert_eq!(patched.save_to_string(), full, "{parts} parts");
        let modes = report.asrs.into_iter().map(|(_, m)| m).collect();
        (full, delta, modes)
    }

    /// One insert ships the pages it changed, each leaf with all its
    /// rows: under a quarter of the full document on 1 500 parts (22 917
    /// of 104 114 B) and under half on 400 (10 466 of 27 335 B).  On 300
    /// parts those pages exceed [`DELTA_FULL_FRACTION`] of the ASR's
    /// images, and the ASR ships as images.
    #[test]
    fn small_delta_on_large_database_stays_delta_mode() {
        for (parts, share) in [(1500, 4), (400, 2)] {
            let (full, delta, modes) = one_insert_delta(parts);
            assert!(
                delta.len() * share < full.len(),
                "{parts} parts: {} vs {}",
                delta.len(),
                full.len()
            );
            assert!(
                (modes.iter()).all(|m| matches!(m, AsrLoadMode::Delta { pages } if *pages > 0)),
                "{parts} parts: one insert ships changed pages, not images: {modes:?}"
            );
        }
        let (_, _, modes) = one_insert_delta(300);
        assert!(
            (modes.iter()).all(|m| matches!(m, AsrLoadMode::Physical)),
            "300 parts: the delta outweighs the images: {modes:?}"
        );
    }

    #[test]
    fn design_change_forces_a_full_checkpoint() {
        let (mut db, _) = settled(sample_db());
        assert!(db.begin_checkpoint().save_delta(2, 1).is_some());
        let div = db.base().schema().resolve("Division").unwrap();
        db.set_type_size(div, 300);
        let id = db.asrs().next().unwrap().0;
        db.drop_asr(id).unwrap();
        let source = db.begin_checkpoint();
        assert!(source.is_design_dirty());
        assert!(
            source.save_delta(3, 2).is_none(),
            "deltas never span design changes"
        );
        // The full document still renders and loads without the ASR.
        let restored = Database::load_from_string(&source.save_full(3)).unwrap();
        assert_eq!(restored.asrs().count(), db.asrs().count());
    }

    #[test]
    fn delta_chain_replays_object_lifecycle() {
        let (mut primary, base) = settled(sample_db());
        let washer = primary.instantiate("BasePart").unwrap();
        primary
            .set_attribute(washer, "Name", Value::string("Washer"))
            .unwrap();
        let d1 = primary.begin_checkpoint().save_delta(1, 0).unwrap();
        primary.delete_object(washer).unwrap();
        primary.bind_variable("gone", Value::string("yes"));
        let d2 = primary.begin_checkpoint().save_delta(2, 1).unwrap();
        let (chained, report) = Database::load_from_chain_report(&base, &[&d1, &d2]).unwrap();
        assert_eq!(report.delta_chain, 2);
        assert!(!chained.base().contains(washer));
        assert_eq!(chained.save_to_string(), primary.save_to_string());
    }

    /// `doc` with its first ASR frame's first partition's forward tree
    /// promising one row more than it holds, the frame's checksum
    /// recomputed: damage only the restore of the patched image can see.
    fn with_one_row_too_many(doc: &[u8]) -> Vec<u8> {
        let mut at = 8;
        while doc[at] != b'A' {
            at += 9 + u32::from_le_bytes(doc[at + 1..at + 5].try_into().unwrap()) as usize;
        }
        let len = u32::from_le_bytes(doc[at + 1..at + 5].try_into().unwrap()) as usize;
        let mut r = Reader::new(&doc[at + 5..at + 5 + len]);
        let mut w = Writer::new();
        w.u8(b'A');
        w.u32(0);
        w.u8(r.u8().unwrap());
        // Partition count, span, then the forward tree's root, height, len.
        for k in 0..6 {
            let n = r.varint().unwrap();
            w.varint(if k == 5 { n + 1 } else { n });
        }
        w.bytes(r.bytes(r.remaining()).unwrap());
        w.put_u32_at(1, (w.len() - 5) as u32);
        let crc = crate::crc32(w.as_bytes());
        w.u32(crc);
        [&doc[..at], w.as_bytes(), &doc[at + 9 + len..]].concat()
    }

    #[test]
    fn tampered_delta_nacks_strictly_and_rebuilds_leniently() {
        let (mut primary, base) = settled(bulk_db(400));
        let (set, pepper) = sec_composition(&primary);
        primary.insert_into_set(set, Value::Ref(pepper)).unwrap();
        let delta = primary.begin_checkpoint().save_delta(4, 3).unwrap();
        let tampered = with_one_row_too_many(&delta);
        let replica = Database::load_from_string(&base).unwrap();
        let err = replica.apply_delta(&tampered).unwrap_err();
        assert!(err.to_string().contains("delta section"), "{err}");
        // Lenient recovery rebuilds the damaged ASR from the patched base:
        // not byte-identical (bulk-built pages) but query-identical.
        let (patched, report) = replica.apply_delta_report(&tampered, false).unwrap();
        assert!(report
            .asrs
            .iter()
            .any(|(_, m)| !m.is_physical() && !m.is_delta()));
        assert_eq!(door_hits(&patched), door_hits(&primary));
    }

    /// A pinned checkpoint source renders the state as of
    /// `begin_checkpoint` while the writer moves on.  On 300 parts the
    /// next checkpoint's Bolt insert outweighs half the ASR's images and
    /// ships them; on 1 500 it ships its changed pages.
    #[test]
    fn checkpoint_source_matches_live_serialization_byte_for_byte() {
        for (parts, ships_pages) in [(300, false), (1500, true)] {
            let (mut db, base) = settled(bulk_db(parts));
            let (set, pepper) = sec_composition(&db);
            db.insert_into_set(set, Value::Ref(pepper)).unwrap();
            db.bind_variable("epoch", Value::string("two"));

            let want_full = db.save_to_string();
            let source = db.begin_checkpoint();
            assert!(!source.is_noop_delta() && !source.is_design_dirty());
            assert_eq!(source.save_full(0), want_full);
            let want_delta = source.save_delta(7, 6).unwrap();
            let patched = Database::load_from_string(&base)
                .unwrap()
                .apply_delta(&want_delta)
                .unwrap();
            assert_eq!(patched.save_to_string(), want_full);

            // Fuzzy: the writer moves on — a rename, and an insert on the ASR
            // path that writes partition pages — but the pinned source still
            // renders the state as of `begin_checkpoint`.
            db.set_attribute(pepper, "Name", Value::string("Salt"))
                .unwrap();
            let bolt = db.instantiate("BasePart").unwrap();
            db.set_attribute(bolt, "Name", Value::string("Bolt"))
                .unwrap();
            db.insert_into_set(set, Value::Ref(bolt)).unwrap();
            assert_eq!(source.save_full(0), want_full);
            assert_eq!(source.save_delta(7, 6).unwrap(), want_delta);
            assert_ne!(db.save_to_string(), want_full, "the live state moved on");

            // The next checkpoint carries exactly the writes made after this
            // one began, partition pages included.
            let before = db.txn_status().active_snapshots;
            drop(source);
            assert_eq!(db.txn_status().active_snapshots, before - 1);
            let next = db.begin_checkpoint();
            assert!(!next.is_noop_delta(), "the Salt rename is still pending");
            let next_delta = next.save_delta(8, 7).unwrap();
            let (replayed, report) = patched.apply_delta_report(&next_delta, true).unwrap();
            assert!(
                (report.asrs.iter()).all(|(_, m)| match m {
                    AsrLoadMode::Delta { pages } => ships_pages && *pages > 0,
                    AsrLoadMode::Physical => !ships_pages,
                    AsrLoadMode::Rebuilt(_) => false,
                }),
                "{parts} parts: the Bolt insert ships {}: {report:?}",
                if ships_pages {
                    "changed pages"
                } else {
                    "images"
                }
            );
            assert_eq!(replayed.save_to_string(), db.save_to_string());
            assert!(db.begin_checkpoint().is_noop_delta());
        }
    }
}
