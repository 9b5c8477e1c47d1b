//! Whole-database persistence: a layered, versioned snapshot pipeline.
//!
//! The `ASRDB 2` format stacks three sections:
//!
//! 1. **Design** — clustered type sizes (`S`) and access-support-relation
//!    configurations (`A`), unchanged from v1;
//! 2. **Physical** — every stored partition's rows (`P`/`R`) and
//!    page-faithful images of its two clustering B+ trees (`T`/`N`):
//!    node layout, separator keys, row ids, leaf sibling links, free list
//!    and tree geometry;
//! 3. **Base** — the GOM object snapshot after `--BASE--`.
//!
//! ```text
//! ASRDB 2
//! S ROBOT 500
//! A ROBOT.Arm.MountedTool.ManufacturedBy.Location canonical 0,1,2,3,4 0
//! P <asr#> <part#> <from> <to> <next_rowid> <nrows>
//! R <rowid> 1 <cell> <cell> …
//! T <asr#> <part#> f|b <root> <height> <len> <pages> <free-csv|->
//! N f|b <page#> I <children-csv> <cell>=<rowid> …
//! N f|b <page#> L <next|-> <rowid-csv|->
//! --BASE--
//! GOMSNAP 1
//! …
//! ```
//!
//! Loading a v2 snapshot restores each ASR **physically**: both trees are
//! re-registered under their original `(kind, label)` structure ids and
//! re-attached page by page (one charged read per live node) — no
//! extension join runs.  Every structure is built once, from the order
//! the document already has: a partition's `R` rows are parsed into one
//! cell buffer (a `RowTable`, listed by row id), and the restore
//! allocates each row exactly once, in the backward tree's key order.
//! Leaf keys are not stored; they are re-derived from the rows as
//! `(row.first|last, rowid)`, an invariant of the maintenance engine, and
//! each leaf's row ids find their rows through the ascending row-id
//! order.  The object base comes back through `gom::snapshot`'s bulk
//! reader, and the clustered object files are filled from its extents.
//! Nothing is derived from the partitions: maintenance works on them
//! directly.  The `R` line's second field is a retired witness count: the
//! writer puts `1`, and the reader checks that it is a positive number
//! and otherwise ignores it, so documents written with counts load
//! unchanged.  Version negotiation: the
//! loader accepts `ASRDB 1` (ASRs rebuilt from their configuration, as
//! before) and `ASRDB 2`; the writer emits v2.  A corrupt physical
//! section degrades per ASR to the v1 rebuild path with a recorded
//! reason — never a panic.
//!
//! ## `ASRDB 3` — delta snapshots
//!
//! A v3 document is not self-contained: it carries only what changed since
//! a named **base** checkpoint and is applied on top of a database holding
//! that base's state ([`Database::apply_delta_from_string_report`]):
//!
//! ```text
//! ASRDB 3
//! DELTA <base-id>
//! S … / A …                                  (design, must match the base)
//! D <asr#> <part#> <from> <to> <next_rowid> <nrows> <nupserts>
//! R <rowid> 1 <cell> …                     (new rows)
//! X <rowid-csv|->                            (rows physically removed)
//! U <asr#> <part#> f|b <root> <height> <len> <total-pages> <npages> <free-csv|->
//! N f|b <page#> I|L …                        (pages not shared with the base)
//! N f|b <page#> F                            (pages freed since the base)
//! --BASE--
//! GOMDELTA 1 <object-count>
//! X i<oid-csv>|-                             (objects deleted)
//! O …                                        (objects changed, GOMSNAP syntax)
//! V …                                        (variables rebound)
//! --END--
//! ```
//!
//! A per-ASR section degrades to the full v2 grammar (`P`/`R`/`T`/`N`)
//! whenever the delta would exceed [`DELTA_FULL_FRACTION`] of the full
//! section — rebuilt or freshly created ASRs therefore ship full even
//! inside a delta document.  The writer refuses entirely (returns `None`)
//! when the physical design changed since the base.  The changed pages are
//! the pages the checkpoint's partition versions do not share with the
//! previous checkpoint's: each partition marks its pages when a checkpoint
//! is taken (`StoredPartition::mark_clean`), and a page written since
//! is a different allocation.  Applying patches the
//! base's partition page images and text-merges the object section, then
//! reloads through the v2 restore machinery, so every structural invariant
//! is re-validated; the input database is never modified.
//!
//! ## One writer, one reader
//!
//! Each layout is rendered and parsed in exactly one place.
//! `render_full` writes every `ASRDB 2` document from partition versions,
//! whether frozen off the live partitions for the occasion
//! ([`Database::save_to_string`]) or pinned by a checkpoint's snapshot
//! ([`CheckpointSource::save_full`]);
//! [`CheckpointSource::save_delta`] writes every `ASRDB 3` document.  On
//! the way in, `read_header` parses the magic (and `DELTA`) lines, one
//! `Sections` reader parses both partition grammars, and `assemble` is
//! the load tail both documents share.

use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;

use asr_gom::snapshot::{self, push_csv, push_u64};
use asr_gom::{ObjectBase, Oid, PathExpression, TypeRef, Value};

use crate::cell::Cell;
use crate::database::{AsrId, Changes, Database};
use crate::decomposition::Decomposition;
use crate::error::{AsrError, Result};
use crate::extension::Extension;
use crate::manager::{AccessSupportRelation, AsrConfig};
use crate::partition::{
    PartitionDelta, PartitionImage, PartitionVersion, RawNode, RawTreeDelta, RawTreeImage, RowRefs,
    RowTable, StoredPartition,
};
use crate::snapshot::Snapshot;
use crate::store::ObjectStore;

const MAGIC_V1: &str = "ASRDB 1";
const MAGIC_V2: &str = "ASRDB 2";
const MAGIC_V3: &str = "ASRDB 3";
const BASE_MARKER: &str = "--BASE--";
/// Trailer closing an `ASRDB 3` document.  A delta's base section has no
/// inherent length (`O`/`V` upserts are optional), so without an explicit
/// end marker a truncated document could apply "successfully" while
/// silently dropping tail records.
const END_MARKER: &str = "--END--";

/// A per-ASR delta section is only worth shipping when it is at most this
/// fraction of the equivalent full section; otherwise the writer falls
/// back to full physical for that ASR.
pub const DELTA_FULL_FRACTION: f64 = 0.5;

/// How one access support relation came back from a snapshot load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsrLoadMode {
    /// Physically restored by adopting its partitions' B+-tree page
    /// images (`ASRDB 2`).
    Physical,
    /// Physically restored by patching the base checkpoint's page images
    /// with an `ASRDB 3` delta section that shipped `pages` changed pages.
    Delta {
        /// Changed tree pages carried by the delta section.
        pages: usize,
    },
    /// Rebuilt from its configuration via the extension join — a v1
    /// snapshot, or a per-ASR fallback for the given reason.
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
    /// Snapshot format version (1, 2, or 3 for a delta application).
    pub version: u32,
    /// Per-ASR outcome, in registration order.  After a chain load this
    /// reflects the final application.
    pub asrs: Vec<(AsrId, AsrLoadMode)>,
    /// Bytes of physical-section lines (newlines included) belonging to
    /// physically restored ASRs.  The durability layer subtracts these
    /// from its whole-file read charge: those bytes are the trees' page
    /// images, and their reads are charged by the restore itself.
    pub physical_bytes: usize,
    /// Number of `ASRDB 3` deltas applied on top of the base snapshot
    /// (0 for a plain full load).
    pub delta_chain: usize,
}

impl Database {
    /// Serialize the database — schema, objects, variables, physical
    /// design *and* the physical state of every ASR partition — to the
    /// `ASRDB 2` snapshot format.
    pub fn save_to_string(&self) -> String {
        let mut out = String::new();
        render_full(
            &mut out,
            &self.design(),
            self.asrs()
                .map(|(_, asr)| asr.partitions().iter().map(StoredPartition::freeze)),
            self.base(),
        );
        out
    }

    /// Serialize to the legacy `ASRDB 1` format (no physical section;
    /// ASRs rebuild on load).  Kept for format-compat tests and for
    /// benchmarking the physical restore against the rebuild path.
    pub fn save_to_string_v1(&self) -> String {
        let mut out = format!("{MAGIC_V1}\n{}{BASE_MARKER}\n", self.design());
        snapshot::write_base_into(&mut out, self.base());
        out
    }

    /// The base-checkpoint id named by an `ASRDB 3` document's `DELTA`
    /// header — how chain loaders resolve lineage without applying.
    pub fn delta_base_id(text: &str) -> Result<u64> {
        Ok(read_header(text, true)?.1)
    }

    /// `true` when `text` is an `ASRDB 3` delta document.
    pub fn is_delta_snapshot(text: &str) -> bool {
        text.lines().next().map(str::trim) == Some(MAGIC_V3)
    }

    /// Apply an `ASRDB 3` delta on top of this database's state, which
    /// must hold the delta's base checkpoint (the caller verifies lineage
    /// via [`Database::delta_base_id`]).  Strict: any inconsistency is an
    /// error — the replication path NACKs instead of silently rebuilding.
    pub fn apply_delta_from_string(&self, text: &str) -> Result<Database> {
        Ok(self.apply_delta_from_string_report(text, true)?.0)
    }

    /// [`Database::apply_delta_from_string`] with a [`LoadReport`] and a
    /// strictness switch: when `strict` is false (crash recovery), an ASR
    /// whose images cannot be patched falls back to a charged rebuild from
    /// the merged base instead of failing the whole application.
    ///
    /// `self` is never modified — on error the caller still holds the
    /// base state.
    pub fn apply_delta_from_string_report(
        &self,
        text: &str,
        strict: bool,
    ) -> Result<(Database, LoadReport)> {
        let (head, base_text) = split_document(text)?;
        let (version, _, lines) = read_header(head, true)?;
        let (design, sections) = read_head(lines, version, head.len())?;
        if let Some((ordinal, reason)) = sections.poisoned.iter().next() {
            // Unlike the v2 loader there is no per-ASR second chance at
            // parse time: a delta that cannot be parsed in full is rejected
            // outright, and only the *apply* step below may rebuild.
            return Err(AsrError::Snapshot(format!(
                "partition section for ASR {ordinal}: {reason}"
            )));
        }
        if design != self.design() {
            return Err(AsrError::Snapshot(
                "delta design section does not match the base database".into(),
            ));
        }
        let base = merge_base_delta(self.base(), base_text)?;
        assemble(base, &design, sections, version, Some(self), strict)
    }

    /// Load a full snapshot plus a chain of deltas, each applied on top of
    /// the previous state (crash recovery: lenient per-ASR fallback).  The
    /// report aggregates the chain: `asrs` reflects the final application,
    /// `physical_bytes` sums every link.
    pub fn load_from_chain_report(base: &str, deltas: &[&str]) -> Result<(Database, LoadReport)> {
        let (mut db, mut report) = Database::load_from_string_report(base)?;
        for text in deltas {
            let (next, step) = db.apply_delta_from_string_report(text, false)?;
            db = next;
            report.asrs = step.asrs;
            report.physical_bytes += step.physical_bytes;
            report.delta_chain += 1;
        }
        Ok((db, report))
    }

    /// The design section every format version shares: `S` lines
    /// (clustered sizes) and `A` lines (ASR configurations).
    fn design(&self) -> String {
        let mut sizes: Vec<(String, usize)> = self
            .store()
            .configured_sizes()
            .map(|(ty, size)| (self.base().schema().name(ty).to_string(), size))
            .collect();
        sizes.sort();
        let mut out = String::new();
        for (name, size) in sizes {
            let _ = writeln!(out, "S {name} {size}");
        }
        for (_, asr) in self.asrs() {
            let config = asr.config();
            let _ = write!(out, "A {} {} ", asr.path(), config.extension.name());
            push_csv(
                &mut out,
                config.decomposition.cuts().iter().map(|&c| c as u64),
            );
            out.push_str(if config.keep_set_oids { " 1\n" } else { " 0\n" });
        }
        out
    }

    /// Restore a database from snapshot text: objects keep their OIDs,
    /// clustered files are sized as configured, and access support
    /// relations come back physically (v2) or by rebuild (v1/fallback).
    pub fn load_from_string(text: &str) -> Result<Database> {
        Ok(Self::load_from_string_report(text)?.0)
    }

    /// [`Database::load_from_string`] plus a [`LoadReport`] describing
    /// the format version and how each ASR was restored.
    pub fn load_from_string_report(text: &str) -> Result<(Database, LoadReport)> {
        let (head, base_text) = split_document(text)?;
        let (version, _, lines) = read_header(head, false)?;
        let base = snapshot::read_base(base_text)?;
        let (design, sections) = read_head(lines, version, head.len())?;
        assemble(base, &design, sections, version, None, false)
    }

    /// Save to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.save_to_string())
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Database> {
        Ok(Database::load_report(path)?.0)
    }

    /// Load from a file, also returning how each ASR was brought back
    /// (physically from page images, or rebuilt from the base).
    pub fn load_report(path: impl AsRef<Path>) -> Result<(Database, LoadReport)> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| AsrError::Snapshot(format!("cannot read file: {e}")))?;
        Database::load_from_string_report(&text)
    }

    /// Begin a fuzzy checkpoint: pin a [`Snapshot`] (partition images
    /// ride its published versions), render the design section, and take
    /// the changes since the previous checkpoint, making this state the
    /// base of the next one ([`Database::mark_clean`]).  Copies no row and
    /// no page.
    ///
    /// The returned [`CheckpointSource`] renders the `ASRDB 2` document
    /// **byte-identical** to what [`Database::save_to_string`] would have
    /// produced at this instant, and the `ASRDB 3` delta since the previous
    /// checkpoint, but without holding the database: the session keeps
    /// mutating (and serving snapshot readers) while the checkpoint text
    /// is composed and written out.
    pub fn begin_checkpoint(&mut self) -> CheckpointSource {
        CheckpointSource {
            snapshot: self.snapshot(),
            design: self.design(),
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
    /// The design section verbatim (`S`/`A` lines, newline-terminated).
    design: String,
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
    /// checkpoint — [`CheckpointSource::save_delta`] will refuse and the
    /// caller must take a full checkpoint.
    pub fn is_design_dirty(&self) -> bool {
        self.changes.design
    }

    /// `true` when nothing changed since the previous checkpoint: a delta
    /// rendered from this source would carry no rows, pages, objects or
    /// variables.
    pub fn is_noop_delta(&self) -> bool {
        let c = &self.changes;
        !c.design
            && c.dead_oids.is_empty()
            && c.dirty_oids.is_empty()
            && c.dirty_vars.is_empty()
            && c.partitions.iter().flatten().all(|p| p.rows() == 0)
    }

    /// Render the full `ASRDB 2` document from the captured state —
    /// byte-identical to [`Database::save_to_string`] when it began.
    pub fn save_full(&self) -> String {
        let mut out = String::new();
        self.save_full_into(&mut out);
        out
    }

    /// [`CheckpointSource::save_full`], appended to `out` — a caller that
    /// frames the document (the durability layer's `CKPT` header) renders
    /// it in place instead of copying it behind the frame.
    pub fn save_full_into(&self, out: &mut String) {
        render_full(
            out,
            &self.design,
            self.snapshot.asr_versions(),
            self.snapshot.base(),
        );
    }

    /// Render the `ASRDB 3` delta document on top of `base_id`: what
    /// changed between the previous checkpoint and this one — each
    /// partition's dirty rows and the pages its pinned version does not
    /// share with the previous checkpoint's.  `None` when the design
    /// changed since the previous checkpoint.
    ///
    /// Individual ASRs whose delta would exceed [`DELTA_FULL_FRACTION`]
    /// of their full section are embedded in full v2 form; an unchanged
    /// ASR always ships as an (empty) delta — the size fraction only
    /// arbitrates when there is real change to carry.
    pub fn save_delta(&self, base_id: u64) -> Option<String> {
        let c = &self.changes;
        if c.design {
            return None;
        }
        let mut out = format!("{MAGIC_V3}\nDELTA {base_id}\n{}", self.design);
        let versions = self.snapshot.asr_versions();
        for (ordinal, (changes, versions)) in c.partitions.iter().zip(versions).enumerate() {
            let versions: Vec<&PartitionVersion> = versions.collect();
            let mut section = String::new();
            for (pidx, (version, changes)) in versions.iter().zip(changes).enumerate() {
                write_partition_delta(&mut section, ordinal, pidx, &version.delta(changes));
            }
            if changes.iter().any(|p| p.rows() > 0) {
                let mut full = String::new();
                for (pidx, version) in versions.iter().enumerate() {
                    write_partition_image(&mut full, ordinal, pidx, &version.view());
                }
                if (section.len() as f64) > (full.len() as f64) * DELTA_FULL_FRACTION {
                    section = full;
                }
            }
            out.push_str(&section);
        }
        let _ = writeln!(out, "{BASE_MARKER}");
        write_base_delta(
            &mut out,
            self.snapshot.base(),
            &c.dead_oids,
            &c.dirty_oids,
            &c.dirty_vars,
        );
        Some(out)
    }
}

/// The one `ASRDB 2` writer: header, design, every partition's `P`/`R`/
/// `T`/`N` lines, base.  `asrs` yields each ASR's partition versions in
/// `A`-line order — frozen off live partitions or pinned by a snapshot,
/// which therefore render the same bytes.
fn render_full(
    out: &mut String,
    design: &str,
    asrs: impl IntoIterator<Item = impl IntoIterator<Item = impl Borrow<PartitionVersion>>>,
    base: &ObjectBase,
) {
    let _ = writeln!(out, "{MAGIC_V2}");
    out.push_str(design);
    for (ordinal, versions) in asrs.into_iter().enumerate() {
        for (pidx, version) in versions.into_iter().enumerate() {
            write_partition_image(out, ordinal, pidx, &version.borrow().view());
        }
    }
    let _ = writeln!(out, "{BASE_MARKER}");
    snapshot::write_base_into(out, base);
}

/// Append an optional cell as a single space-free token (the GOM value
/// codec escapes spaces and `=`).
fn push_cell(out: &mut String, cell: &Option<Cell>) {
    match cell {
        None => snapshot::encode_value_into(out, &Value::Null),
        Some(Cell::Oid(oid)) => snapshot::encode_value_into(out, &Value::Ref(*oid)),
        Some(Cell::Value(v)) => snapshot::encode_value_into(out, v),
    }
}

/// Decode a [`push_cell`] token back to an optional cell.
fn parse_cell(tok: &str) -> Result<Option<Cell>> {
    Ok(Cell::from_gom_owned(snapshot::decode_value(tok)?))
}

/// Append `a,b,c`, or `-` when empty.
fn push_csv_or_dash(out: &mut String, items: impl IntoIterator<Item = u64>) {
    let start = out.len();
    push_csv(out, items);
    if out.len() == start {
        out.push('-');
    }
}

/// Parse a [`push_csv_or_dash`] token; `what` names an element in errors.
fn parse_csv_or_dash<T: std::str::FromStr>(
    tok: &str,
    what: &str,
) -> std::result::Result<Vec<T>, String> {
    if tok == "-" {
        return Ok(Vec::new());
    }
    tok.split(',')
        .map(|s| s.parse().map_err(|_| format!("bad {what} `{s}`")))
        .collect()
}

/// Append the rows as `R <rowid> 1 <cell> …` lines (the `1` is the
/// retired witness count; see the module doc).
fn write_rows(out: &mut String, rows: &RowRefs<'_>) {
    for (row, rowid) in rows {
        out.push_str("R ");
        push_u64(out, *rowid);
        out.push_str(" 1");
        for cell in row.cells() {
            out.push(' ');
            push_cell(out, cell);
        }
        out.push('\n');
    }
}

/// Emit one tree image as a `T` header plus one `N` line per live page.
fn write_tree(out: &mut String, ordinal: usize, pidx: usize, dir: char, tree: &RawTreeImage) {
    let _ = write!(
        out,
        "T {ordinal} {pidx} {dir} {} {} {} {} ",
        tree.root,
        tree.height,
        tree.len,
        tree.nodes.len()
    );
    push_csv_or_dash(out, tree.free.iter().map(|&f| f as u64));
    out.push('\n');
    for (id, node) in tree.nodes.iter().enumerate() {
        write_node_line(out, dir, id, node, false);
    }
}

/// Emit one page as an `N` line.  Free pages are skipped in full images
/// (restore pre-fills the slab with `Free`) but named explicitly in delta
/// sections when `emit_free` — a patch must overwrite released pages.
fn write_node_line(out: &mut String, dir: char, id: usize, node: &RawNode, emit_free: bool) {
    if matches!(node, RawNode::Free) && !emit_free {
        return;
    }
    out.push_str("N ");
    out.push(dir);
    out.push(' ');
    push_u64(out, id as u64);
    match node {
        RawNode::Free => out.push_str(" F"),
        RawNode::Inner { keys, children } => {
            out.push_str(" I ");
            push_csv(out, children.iter().map(|&c| c as u64));
            for (cell, rowid) in keys {
                out.push(' ');
                push_cell(out, cell);
                out.push('=');
                push_u64(out, *rowid);
            }
        }
        RawNode::Leaf { rowids, next } => {
            out.push_str(" L ");
            match next {
                Some(next) => push_u64(out, *next as u64),
                None => out.push('-'),
            }
            out.push(' ');
            push_csv_or_dash(out, rowids.iter().copied());
        }
    }
    out.push('\n');
}

/// One partition's `P`/`R`/`T`/`N` lines from an image — a live
/// partition's view or a checkpoint's captured version.
fn write_partition_image(
    out: &mut String,
    ordinal: usize,
    pidx: usize,
    img: &PartitionImage<RowRefs<'_>>,
) {
    let _ = writeln!(
        out,
        "P {ordinal} {pidx} {} {} {} {}",
        img.from,
        img.to,
        img.next_rowid,
        img.rows.len()
    );
    write_rows(out, &img.rows);
    write_tree(out, ordinal, pidx, 'f', &img.fwd);
    write_tree(out, ordinal, pidx, 'b', &img.bwd);
}

/// One partition's `D`/`R`/`X`/`U`/`N` lines from a version's delta: rows
/// changed since the base, rows physically removed, and the pages each
/// tree does not share with the base.
fn write_partition_delta(
    out: &mut String,
    ordinal: usize,
    pidx: usize,
    d: &PartitionDelta<RowRefs<'_>>,
) {
    let _ = writeln!(
        out,
        "D {ordinal} {pidx} {} {} {} {} {}",
        d.from,
        d.to,
        d.next_rowid,
        d.nrows,
        d.upserts.len()
    );
    write_rows(out, &d.upserts);
    out.push_str("X ");
    push_csv_or_dash(out, d.deletes.iter().copied());
    out.push('\n');
    write_tree_delta(out, ordinal, pidx, 'f', &d.fwd);
    write_tree_delta(out, ordinal, pidx, 'b', &d.bwd);
}

/// Emit one tree delta as a `U` header plus one `N` line per changed page
/// (freed pages included, as kind `F`).
fn write_tree_delta(out: &mut String, ordinal: usize, pidx: usize, dir: char, d: &RawTreeDelta) {
    let _ = write!(
        out,
        "U {ordinal} {pidx} {dir} {} {} {} {} {} ",
        d.root,
        d.height,
        d.len,
        d.total_nodes,
        d.pages.len()
    );
    push_csv_or_dash(out, d.free.iter().map(|&f| f as u64));
    out.push('\n');
    for (id, node) in &d.pages {
        write_node_line(out, dir, *id, node, true);
    }
}

/// The `GOMDELTA 1` section from captured state: deleted OIDs, then the
/// `GOMSNAP` lines of the changed objects and rebound variables still in
/// `base`, written by the same line writers as a full serialization (so
/// the merge on the other side reproduces the canonical text
/// byte-for-byte).
fn write_base_delta(
    out: &mut String,
    base: &ObjectBase,
    dead_oids: &BTreeSet<Oid>,
    dirty_oids: &BTreeSet<Oid>,
    dirty_vars: &BTreeSet<String>,
) {
    let _ = writeln!(out, "GOMDELTA 1 {}", base.object_count());
    out.push_str("X ");
    if dead_oids.is_empty() {
        out.push('-');
    }
    for (i, oid) in dead_oids.iter().enumerate() {
        out.push_str(if i > 0 { ",i" } else { "i" });
        push_u64(out, oid.as_raw());
    }
    out.push('\n');
    // Ascending OID, then ascending name: the order `write_base` emits.
    for oid in dirty_oids {
        if let Ok(obj) = base.object(*oid) {
            snapshot::write_object_line(out, base.schema(), obj);
        }
    }
    for (name, value) in base.variables() {
        if dirty_vars.contains(name) {
            snapshot::write_variable_line(out, name, value);
        }
    }
    let _ = writeln!(out, "{END_MARKER}");
}

/// Split a document at its `--BASE--` marker into head and base section.
fn split_document(text: &str) -> Result<(&str, &str)> {
    text.split_once(&format!("{BASE_MARKER}\n"))
        .ok_or_else(|| AsrError::Snapshot("missing --BASE-- marker".into()))
}

/// The one header parse: the magic line — `ASRDB 1`/`2` for a full
/// document, or `ASRDB 3` and its `DELTA <base-id>` line when `delta` —
/// returning the version, the base id (0 for a full document) and the
/// head lines after the header.
fn read_header(text: &str, delta: bool) -> Result<(u32, u64, std::str::Lines<'_>)> {
    let bad = |msg: String| AsrError::Snapshot(msg);
    let mut lines = text.lines();
    let first = lines.next().ok_or_else(|| bad("empty snapshot".into()))?;
    let version = match (first.trim(), delta) {
        (MAGIC_V1, false) => 1,
        (MAGIC_V2, false) => 2,
        (MAGIC_V3, true) => 3,
        (_, true) => return Err(bad(format!("bad magic `{first}` (expected `{MAGIC_V3}`)"))),
        (other, false) => return Err(bad(format!("bad magic `{other}`"))),
    };
    if !delta {
        return Ok((version, 0, lines));
    }
    let second = lines
        .next()
        .ok_or_else(|| bad("missing DELTA header".into()))?;
    let base_id = second
        .strip_prefix("DELTA ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| bad(format!("bad DELTA header `{second}`")))?;
    Ok((version, base_id, lines))
}

/// Read a document head of `head_len` bytes after its header: the design
/// lines (`S`/`A`) verbatim, and every partition section through the one
/// [`Sections`] reader — the full grammar from v2 on, the delta grammar
/// in v3.
fn read_head<'a>(
    lines: impl Iterator<Item = &'a str>,
    version: u32,
    head_len: usize,
) -> Result<(String, Sections)> {
    let mut design = String::new();
    let mut sections = Sections {
        head_len,
        ..Sections::default()
    };
    for line in lines {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tag = line.split(' ').next().unwrap_or("");
        match tag {
            "S" | "A" => {
                design.push_str(line);
                design.push('\n');
            }
            "P" | "R" | "T" | "N" if version >= 2 => sections.feed(tag, line)?,
            "D" | "X" | "U" if version == 3 => sections.feed(tag, line)?,
            other => return Err(AsrError::Snapshot(format!("unknown record `{other}`"))),
        }
    }
    sections.finalize_current();
    Ok((design, sections))
}

/// The load tail both documents share: size the clustered files (`S`),
/// attach the object base, restore each ASR (`A`, in order) from its
/// section or rebuild it, and mark the result as the next delta's base.
/// `patched` is the database
/// an `ASRDB 3` delta applies to; `strict` turns an ASR that cannot be
/// restored into an error instead of a rebuild.
fn assemble(
    base: ObjectBase,
    design: &str,
    mut sections: Sections,
    version: u32,
    patched: Option<&Database>,
    strict: bool,
) -> Result<(Database, LoadReport)> {
    let bad = |msg: String| AsrError::Snapshot(msg);
    let stats = asr_pagesim::IoStats::new_handle();
    let mut store = ObjectStore::new(Rc::clone(&stats));
    let mut asr_lines: Vec<&str> = Vec::new();
    for line in design.lines() {
        if !line.starts_with('S') {
            asr_lines.push(line);
            continue;
        }
        let mut parts = line.splitn(3, ' ');
        let _s = parts.next();
        let name = parts.next().ok_or_else(|| bad("S: missing type".into()))?;
        let size: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("S: bad size".into()))?;
        store.set_type_size(base.schema().require(name)?, size);
    }
    if let Some(&k) = sections
        .done
        .keys()
        .chain(sections.poisoned.keys())
        .find(|&&k| k >= asr_lines.len())
    {
        return Err(bad(format!(
            "physical section references ASR {k} but only {} declared",
            asr_lines.len()
        )));
    }
    store.sync_with_base(&base)?;
    let mut db = Database::from_parts(base, store, stats);
    let patched: Vec<&AccessSupportRelation> =
        patched.map_or_else(Vec::new, |p| p.asrs().map(|(_, asr)| asr).collect());

    let mut report = LoadReport {
        version,
        asrs: Vec::new(),
        physical_bytes: 0,
        delta_chain: usize::from(version == 3),
    };
    for (ordinal, line) in asr_lines.into_iter().enumerate() {
        let (path, config) = parse_a_line(&db, line)?;
        let poisoned = sections.poisoned.remove(&ordinal);
        let outcome = match (poisoned, sections.done.remove(&ordinal)) {
            _ if version == 1 => Err("v1 snapshot".to_string()),
            (Some(reason), _) => Err(reason),
            (None, Some(section)) => {
                let base = patched.get(ordinal).copied();
                restore_asr(&mut db, &path, &config, section, base).map_err(|e| e.to_string())
            }
            (None, None) if version == 3 => Err("no delta section for this ASR".into()),
            (None, None) => Err("no physical section for this ASR".into()),
        };
        match outcome {
            Ok((id, mode)) => {
                report.physical_bytes += sections.bytes.get(&ordinal).copied().unwrap_or(0);
                report.asrs.push((id, mode));
            }
            Err(reason) if strict => {
                return Err(bad(format!(
                    "delta section for ASR {ordinal} ({path}): {reason}"
                )));
            }
            Err(reason) => {
                // Rebuild from configuration.  A cold recovery has to
                // read every extent along the path to recompute the
                // extension, so charge those scans explicitly.
                charge_path_scans(&db, &path);
                let id = db.create_asr(path, config)?;
                report.asrs.push((id, AsrLoadMode::Rebuilt(reason)));
            }
        }
    }
    // The loaded snapshot is the base the next delta checkpoint is
    // measured against.
    db.mark_clean();
    Ok((db, report))
}

/// Apply a `GOMDELTA 1` section to `base` by canonical text merge: the
/// base's `GOMSNAP` lines with dead objects dropped and changed objects
/// and variables replaced, re-read as a fresh object base.
fn merge_base_delta(base: &ObjectBase, text: &str) -> Result<ObjectBase> {
    let bad = |msg: String| AsrError::Snapshot(msg);
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| bad("missing GOMDELTA header".into()))?;
    let object_count: usize = header
        .strip_prefix("GOMDELTA 1 ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| bad(format!("bad GOMDELTA header `{header}`")))?;
    let xline = lines
        .next()
        .ok_or_else(|| bad("missing deleted-OID record".into()))?;
    let dead = xline
        .strip_prefix("X ")
        .ok_or_else(|| bad(format!("bad deleted-OID record `{xline}`")))?;

    let full = snapshot::write_base(base);
    let mut schema_lines: Vec<&str> = Vec::new();
    let mut objects: BTreeMap<u64, &str> = BTreeMap::new();
    let mut vars: BTreeMap<String, &str> = BTreeMap::new();
    for line in full.lines().skip(1) {
        if let Some(oid) = parse_o_line_oid(line) {
            objects.insert(oid.as_raw(), line);
        } else if let Some(name) = parse_v_line_name(line) {
            vars.insert(name, line);
        } else {
            schema_lines.push(line);
        }
    }
    if dead != "-" {
        for tok in dead.split(',') {
            let oid: u64 = tok
                .strip_prefix('i')
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad(format!("bad deleted OID `{tok}`")))?;
            // Rows deleted after the base may never have shipped: tolerate.
            objects.remove(&oid);
        }
    }
    let mut ended = false;
    for line in lines {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if ended {
            return Err(bad(format!("record after {END_MARKER}: `{line}`")));
        }
        if line == END_MARKER {
            ended = true;
        } else if let Some(oid) = parse_o_line_oid(line) {
            objects.insert(oid.as_raw(), line);
        } else if let Some(name) = parse_v_line_name(line) {
            vars.insert(name, line);
        } else {
            return Err(bad(format!("unknown base delta record `{line}`")));
        }
    }
    if !ended {
        return Err(bad(format!("truncated delta: missing {END_MARKER}")));
    }
    if objects.len() != object_count {
        return Err(bad(format!(
            "patched base has {} objects, delta expects {object_count}",
            objects.len()
        )));
    }
    let mut merged = String::from("GOMSNAP 1\n");
    for line in schema_lines
        .iter()
        .chain(objects.values())
        .chain(vars.values())
    {
        merged.push_str(line);
        merged.push('\n');
    }
    Ok(snapshot::read_base(&merged)?)
}

/// Parse one `A` line into a path and configuration.
fn parse_a_line(db: &Database, line: &str) -> Result<(PathExpression, AsrConfig)> {
    let bad = |msg: String| AsrError::Snapshot(msg);
    let mut parts = line.split(' ');
    let _a = parts.next();
    let dotted = parts.next().ok_or_else(|| bad("A: missing path".into()))?;
    let ext_name = parts
        .next()
        .ok_or_else(|| bad("A: missing extension".into()))?;
    let cuts_str = parts.next().ok_or_else(|| bad("A: missing cuts".into()))?;
    let keep = parts.next().ok_or_else(|| bad("A: missing flag".into()))? == "1";
    let extension = Extension::from_name(ext_name)
        .ok_or_else(|| bad(format!("unknown extension `{ext_name}`")))?;
    let cuts: Vec<usize> = cuts_str
        .split(',')
        .map(|c| c.parse().map_err(|_| bad(format!("bad cut `{c}`"))))
        .collect::<Result<_>>()?;
    let path = PathExpression::parse(db.base().schema(), dotted)?;
    Ok((
        path,
        AsrConfig {
            extension,
            decomposition: Decomposition::new(cuts)?,
            keep_set_oids: keep,
        },
    ))
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

/// Physically restore one ASR from its section — a full section's images
/// as they are, a delta section's after patching them onto the images of
/// `base` (the ASR at the same ordinal in the database the delta applies
/// to): tag + adopt both trees of every partition and attach the ASR.  No
/// extension join runs — the logical mirror derives lazily, off the
/// clustering trees, on first maintenance use.
fn restore_asr(
    db: &mut Database,
    path: &PathExpression,
    config: &AsrConfig,
    section: AsrSection,
    base: Option<&AccessSupportRelation>,
) -> Result<(AsrId, AsrLoadMode)> {
    let (images, mode) = match section {
        AsrSection::Full(images) => (images, AsrLoadMode::Physical),
        AsrSection::Delta(deltas) => {
            let parts = base.map_or(&[][..], |asr| asr.partitions());
            if deltas.len() != parts.len() {
                return Err(AsrError::Snapshot(format!(
                    "delta has {} partitions, base has {}",
                    deltas.len(),
                    parts.len()
                )));
            }
            let pages = deltas
                .iter()
                .map(|d| d.fwd.pages.len() + d.bwd.pages.len())
                .sum();
            let images = parts
                .iter()
                .zip(&deltas)
                .map(|(part, d)| part.dump().apply_delta(d))
                .collect::<Result<_>>()?;
            (images, AsrLoadMode::Delta { pages })
        }
    };
    let stats = Rc::clone(db.stats());
    let mut parts = Vec::with_capacity(images.len());
    for img in images {
        let label = format!("asr[{path}].{}-{}", img.from, img.to);
        parts.push(StoredPartition::restore(img, Rc::clone(&stats), &label)?);
    }
    let asr = AccessSupportRelation::from_restored(path.clone(), config.clone(), parts, stats)?;
    Ok((db.attach_asr(asr), mode))
}

/// Parse an `R` line into `rows`: its row id and cells.  The retired
/// witness count must be a positive number and is otherwise ignored.  A
/// line that does not parse adds nothing.
fn parse_r_line(line: &str, rows: &mut RowTable) -> std::result::Result<(), String> {
    let mut it = line.split(' ');
    it.next();
    let rowid: u64 = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("R: bad row id")?;
    it.next()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&count| count > 0)
        .ok_or("R: bad witness count")?;
    let start = rows.cells.len();
    let parsed = it
        .try_for_each(|tok| parse_cell(tok).map(|cell| rows.cells.push(cell)))
        .map_err(|e| e.to_string())
        .and_then(|()| match rows.cells.len() - start {
            cells if cells == rows.arity => Ok(()),
            cells => Err(format!("R: {cells} cells for arity {}", rows.arity)),
        });
    match parsed {
        Ok(()) => rows.ids.push(rowid),
        Err(_) => rows.cells.truncate(start),
    }
    parsed
}

/// The leading fields every `N` line shares — `N f|b <page#> <kind>` —
/// and the iterator over what follows them.  `None` when the line has
/// fewer than `min_fields` space-separated fields.
fn split_n_line(
    line: &str,
    min_fields: usize,
) -> Option<(&str, &str, &str, std::str::Split<'_, char>)> {
    let mut t = line.split(' ');
    let (_n, dir, id, kind) = (t.next()?, t.next()?, t.next()?, t.next()?);
    (min_fields <= 4 || t.clone().next().is_some()).then_some((dir, id, kind, t))
}

/// Parse the page payload of an `N` line: its kind (the line's fourth
/// field) and the fields after it.  Kind `F` — an explicitly freed page —
/// only occurs in delta sections.
fn parse_node_body<'a>(
    kind: &str,
    mut rest: impl Iterator<Item = &'a str>,
) -> std::result::Result<RawNode, String> {
    match kind {
        "F" => match rest.count() {
            0 => Ok(RawNode::Free),
            extra => Err(format!("N F record has {} fields, expected 4", 4 + extra)),
        },
        "I" => {
            let kids = rest.next().ok_or("N I record too short")?;
            let children: Vec<usize> = kids
                .split(',')
                .map(|s| s.parse().map_err(|_| format!("bad child `{s}`")))
                .collect::<std::result::Result<_, _>>()?;
            let keys: Vec<(Option<Cell>, u64)> = rest
                .map(|tok| {
                    let (cell, rowid) = tok
                        .rsplit_once('=')
                        .ok_or_else(|| format!("bad key `{tok}`"))?;
                    let rowid: u64 = rowid
                        .parse()
                        .map_err(|_| format!("bad key row id `{rowid}`"))?;
                    let cell = parse_cell(cell).map_err(|e| e.to_string())?;
                    Ok((cell, rowid))
                })
                .collect::<std::result::Result<_, String>>()?;
            Ok(RawNode::Inner { keys, children })
        }
        "L" => {
            let (sibling, ids) = (rest.next(), rest.next());
            let extra = rest.count();
            let (Some(sibling), Some(ids), 0) = (sibling, ids, extra) else {
                let fields =
                    4 + usize::from(sibling.is_some()) + usize::from(ids.is_some()) + extra;
                return Err(format!("N L record has {fields} fields, expected 6"));
            };
            let next = if sibling == "-" {
                None
            } else {
                Some(
                    sibling
                        .parse()
                        .map_err(|_| format!("bad sibling `{sibling}`"))?,
                )
            };
            let rowids = parse_csv_or_dash(ids, "row id")?;
            Ok(RawNode::Leaf { rowids, next })
        }
        other => Err(format!("bad page kind `{other}`")),
    }
}

/// The OID named by a `GOMSNAP` object line (`O i<oid> …`), if `line` is
/// one.
fn parse_o_line_oid(line: &str) -> Option<Oid> {
    let rest = line.strip_prefix("O i")?;
    let (num, _) = rest.split_once(' ')?;
    num.parse::<u64>().ok().map(Oid::from_raw)
}

/// The (unescaped) variable name bound by a `GOMSNAP` variable line
/// (`V <name> <value>`), if `line` is one.
fn parse_v_line_name(line: &str) -> Option<String> {
    let rest = line.strip_prefix("V ")?;
    let (name, _) = rest.split_once(' ')?;
    snapshot::unescape(name).ok().map(Cow::into_owned)
}

/// One ASR's partition sections, all in one grammar.
enum AsrSection {
    /// Full `P`/`R`/`T`/`N` images — every ASR of an `ASRDB 2`, and a
    /// delta document's fallback when the delta was not worth it.
    Full(Vec<PartitionImage>),
    /// `D`/`R`/`X`/`U`/`N` patches, one per partition.
    Delta(Vec<PartitionDelta>),
}

impl AsrSection {
    fn len(&self) -> usize {
        match self {
            AsrSection::Full(images) => images.len(),
            AsrSection::Delta(deltas) => deltas.len(),
        }
    }

    /// Append the next partition(s), which must be in the same grammar.
    fn extend(&mut self, next: AsrSection) -> std::result::Result<(), String> {
        match (self, next) {
            (AsrSection::Full(images), AsrSection::Full(more)) => images.extend(more),
            (AsrSection::Delta(deltas), AsrSection::Delta(more)) => deltas.extend(more),
            _ => return Err("ASR has both a full and a delta section".into()),
        }
        Ok(())
    }
}

/// The one partition-section reader, for both grammars: full
/// `P`/`R`/`T`/`N` images and `D`/`R`/`X`/`U`/`N` deltas.  A malformed
/// line poisons the ASR it belongs to instead of failing at once — the v2
/// loader rebuilds that ASR with the recorded reason, the v3 applier
/// rejects the document — and only lines with no attributable ASR abort.
#[derive(Default)]
struct Sections {
    /// Completed sections per `A`-line ordinal.
    done: BTreeMap<usize, AsrSection>,
    /// Section bytes per ordinal (newlines included).
    bytes: BTreeMap<usize, usize>,
    /// Poison reason per ordinal (first error wins).
    poisoned: BTreeMap<usize, String>,
    /// Partition currently being assembled.
    current: Option<PartBuilder>,
    /// Skip body lines until the next `P`/`D` record (after a poisoning).
    skipping: bool,
    /// Ordinal of the most recent `P`/`D` record.
    last_asr: Option<usize>,
    /// Bytes of `last_asr`'s lines not yet added to `bytes`.
    pending_bytes: usize,
    /// Bytes in the document head, which bound the rows a section lists.
    head_len: usize,
}

impl Sections {
    fn feed(&mut self, tag: &str, line: &str) -> Result<()> {
        if tag == "P" || tag == "D" {
            self.finalize_current();
            match PartBuilder::open(line, tag == "D", &self.done, self.head_len) {
                Ok(pb) => {
                    self.skipping = false;
                    self.last_asr = Some(pb.asr);
                    self.pending_bytes = line.len() + 1;
                    self.current = Some(pb);
                }
                Err(e) => match self.last_asr {
                    Some(asr) => self.poison(asr, e),
                    None => {
                        return Err(AsrError::Snapshot(format!(
                            "first {tag} record unreadable: {e}"
                        )))
                    }
                },
            }
            return Ok(());
        }
        let Some(asr) = self.last_asr else {
            return Err(AsrError::Snapshot(format!(
                "physical record `{tag}` before any P record"
            )));
        };
        self.pending_bytes += line.len() + 1;
        if self.skipping {
            return Ok(());
        }
        let fed = match self.current.as_mut() {
            Some(pb) => pb.body_line(tag, line),
            None => Err(format!("`{tag}` record outside a partition")),
        };
        if let Err(e) = fed {
            self.poison(asr, e);
        }
        Ok(())
    }

    fn poison(&mut self, asr: usize, reason: String) {
        self.poisoned.entry(asr).or_insert(reason);
        self.current = None;
        self.skipping = true;
    }

    /// Close the partition being assembled (at the next header and at the
    /// end of the head).
    fn finalize_current(&mut self) {
        if let Some(asr) = self.last_asr {
            *self.bytes.entry(asr).or_default() += std::mem::take(&mut self.pending_bytes);
        }
        let Some(pb) = self.current.take() else {
            return;
        };
        let asr = pb.asr;
        let merged = pb
            .finish()
            .and_then(|section| match self.done.get_mut(&asr) {
                Some(done) => done.extend(section),
                None => {
                    self.done.insert(asr, section);
                    Ok(())
                }
            });
        if let Err(e) = merged {
            self.poison(asr, e);
        }
    }
}

/// One partition section under construction: a full image (`P`, `R`
/// rows, `T`/`N` trees) or a delta (`D`, `R` upserts, one `X`, `U`/`N`
/// tree patches).
struct PartBuilder {
    asr: usize,
    from: usize,
    to: usize,
    next_rowid: u64,
    /// Rows the partition holds (after patching, for a delta).
    nrows: usize,
    /// `Some` for a delta section: the `R` upserts its header promised.
    upserts: Option<usize>,
    /// A delta section's `X` record (removed row ids), once read.
    deletes: Option<Vec<u64>>,
    rows: RowTable,
    /// Serialized bytes of the shared row payload (header, `R` and `X`
    /// lines) — split between the two trees for restore-read pricing.
    row_bytes: usize,
    fwd: Option<TreeBuilder>,
    bwd: Option<TreeBuilder>,
}

/// A tree image (`T`) or patch (`U`) under construction: its header plus
/// the pages read so far; `assigned` guards duplicate `N` lines
/// (everything else is validated by the adopting tree).
struct TreeBuilder {
    root: usize,
    height: usize,
    len: usize,
    free: Vec<usize>,
    /// Slab size: every page id falls below it.
    total: usize,
    /// Pages a `U` header promised (`None` for a full image).
    promised: Option<usize>,
    pages: Vec<(usize, RawNode)>,
    assigned: Vec<bool>,
    /// Serialized bytes of this tree's header and `N` lines.
    bytes: usize,
}

impl PartBuilder {
    /// Open a section from its `P <asr#> <part#> <from> <to> <next_rowid>
    /// <nrows>` or `D … <nupserts>` header.  Partitions arrive in order:
    /// `done` says which index each ASR expects next.  The rows the header
    /// promises get room up front, as far as a head of `head_len` bytes
    /// can hold them (an `R` line spends at least two bytes a cell), so
    /// the row buffer is not copied as it fills.
    fn open(
        line: &str,
        delta: bool,
        done: &BTreeMap<usize, AsrSection>,
        head_len: usize,
    ) -> std::result::Result<PartBuilder, String> {
        let t: Vec<&str> = line.split(' ').collect();
        let (fields, kind) = if delta {
            (8, "delta partition")
        } else {
            (7, "partition")
        };
        if t.len() != fields {
            return Err(format!(
                "{} record has {} fields, expected {fields}",
                t[0],
                t.len()
            ));
        }
        let num = |s: &str| s.parse::<usize>().map_err(|_| format!("bad number `{s}`"));
        let asr = num(t[1])?;
        let pidx = num(t[2])?;
        let expected = done.get(&asr).map_or(0, AsrSection::len);
        if pidx != expected {
            return Err(format!("{kind} {pidx} out of order (expected {expected})"));
        }
        let (from, to) = (num(t[3])?, num(t[4])?);
        let arity = to
            .checked_sub(from)
            .filter(|&width| width > 0)
            .and_then(|width| width.checked_add(1))
            .ok_or_else(|| format!("bad span ({from}, {to})"))?;
        let nrows = num(t[6])?;
        let upserts = if delta { Some(num(t[7])?) } else { None };
        let listed = upserts
            .unwrap_or(nrows)
            .min(head_len / arity.saturating_mul(2));
        Ok(PartBuilder {
            asr,
            from,
            to,
            next_rowid: t[5].parse().map_err(|_| format!("bad number `{}`", t[5]))?,
            nrows,
            upserts,
            deletes: None,
            rows: RowTable::with_capacity(arity, listed),
            row_bytes: line.len() + 1,
            fwd: None,
            bwd: None,
        })
    }

    /// One body line: `R` in both grammars, `T` in a full section, `X`
    /// and `U` in a delta, and the `N` pages of the last tree header.
    fn body_line(&mut self, tag: &str, line: &str) -> std::result::Result<(), String> {
        let delta = self.upserts.is_some();
        match (tag, delta) {
            ("R", _) => {
                parse_r_line(line, &mut self.rows)?;
                self.row_bytes += line.len() + 1;
            }
            ("X", true) => {
                if self.deletes.is_some() {
                    return Err("duplicate X record".into());
                }
                self.row_bytes += line.len() + 1;
                let ids = line.strip_prefix("X ").ok_or("bad X record")?;
                self.deletes = Some(parse_csv_or_dash(ids, "row id")?);
            }
            ("T", false) | ("U", true) => self.tree_header(line)?,
            ("N", _) => self.page(line)?,
            (other, true) => return Err(format!("unknown delta record `{other}`")),
            (other, false) => return Err(format!("unknown physical record `{other}`")),
        }
        Ok(())
    }

    /// A `T <asr#> <part#> f|b <root> <height> <len> <pages> <free>` image
    /// header, or a `U … <total-pages> <npages> <free>` patch header.
    fn tree_header(&mut self, line: &str) -> std::result::Result<(), String> {
        let delta = self.upserts.is_some();
        let t: Vec<&str> = line.split(' ').collect();
        let fields = if delta { 10 } else { 9 };
        if t.len() != fields {
            return Err(format!(
                "{} record has {} fields, expected {fields}",
                t[0],
                t.len()
            ));
        }
        let num = |s: &str| s.parse::<usize>().map_err(|_| format!("bad number `{s}`"));
        let free: Vec<usize> = parse_csv_or_dash(t[fields - 1], "number")?;
        let (root, height, len, total) = (num(t[4])?, num(t[5])?, num(t[6])?, num(t[7])?);
        // A full image's trees index exactly the rows listed before them,
        // which ties `len` (and through it the slab) to the input's size.
        if !delta && len != self.rows.len() {
            return Err(format!("{len} tree entries for {} rows", self.rows.len()));
        }
        // Bound the slab allocation before trusting the field: a legal
        // tree has at most ~2·len live pages plus its free slots.
        if total > len.saturating_mul(2).saturating_add(free.len() + 8) {
            return Err(format!("implausible page count {total} for {len} entries"));
        }
        let promised = if delta {
            let npages = num(t[8])?;
            if npages > total {
                return Err(format!("delta ships {npages} of {total} pages"));
            }
            Some(npages)
        } else {
            None
        };
        let slot = match t[3] {
            "f" => &mut self.fwd,
            "b" => &mut self.bwd,
            other => return Err(format!("bad tree direction `{other}`")),
        };
        if slot.is_some() {
            let what = if delta { "tree delta" } else { "tree" };
            return Err(format!("duplicate {} {what}", t[3]));
        }
        *slot = Some(TreeBuilder {
            root,
            height,
            len,
            free,
            total,
            promised,
            pages: Vec::new(),
            assigned: vec![false; total],
            bytes: line.len() + 1,
        });
        Ok(())
    }

    /// An `N f|b <page#> I|L|F …` page of the tree whose header preceded
    /// it.  A freed page (`F`, four fields) only ships in a delta.
    fn page(&mut self, line: &str) -> std::result::Result<(), String> {
        let delta = self.upserts.is_some();
        let (dir, id, kind, rest) =
            split_n_line(line, if delta { 4 } else { 5 }).ok_or("N record too short")?;
        let tree = match dir {
            "f" => self.fwd.as_mut(),
            "b" => self.bwd.as_mut(),
            other => return Err(format!("bad tree direction `{other}`")),
        };
        let tree = tree.ok_or(if delta {
            "N record before its U header"
        } else {
            "N record before its T header"
        })?;
        tree.bytes += line.len() + 1;
        let id: usize = id.parse().map_err(|_| format!("bad page id `{id}`"))?;
        if id >= tree.total {
            return Err(format!("page id {id} out of bounds"));
        }
        if tree.assigned[id] {
            return Err(format!("page {id} written twice"));
        }
        tree.assigned[id] = true;
        tree.pages.push((id, parse_node_body(kind, rest)?));
        Ok(())
    }

    /// Close the section: check the counts its headers promised and split
    /// the shared row bytes evenly between the two trees (each tree's
    /// restore read is priced on its share).
    fn finish(self) -> std::result::Result<AsrSection, String> {
        let kind = if self.upserts.is_some() {
            "delta partition"
        } else {
            "partition"
        };
        let want = self.upserts.unwrap_or(self.nrows);
        if self.rows.len() != want {
            return Err(format!(
                "{kind} has {} R rows, expected {want}",
                self.rows.len()
            ));
        }
        if self.upserts.is_some() && self.deletes.is_none() {
            return Err("delta partition is missing its X record".into());
        }
        let (Some(fwd), Some(bwd)) = (self.fwd, self.bwd) else {
            return Err(match self.upserts {
                Some(_) => "delta partition is missing a tree delta".into(),
                None => "partition is missing a tree image".into(),
            });
        };
        let half = self.row_bytes / 2;
        let (fwd_bytes, bwd_bytes) = (fwd.bytes + half, bwd.bytes + (self.row_bytes - half));
        let Some(deletes) = self.deletes else {
            return Ok(AsrSection::Full(vec![PartitionImage {
                from: self.from,
                to: self.to,
                next_rowid: self.next_rowid,
                rows: self.rows,
                fwd: fwd.image(),
                bwd: bwd.image(),
                fwd_bytes,
                bwd_bytes,
            }]));
        };
        if fwd.promised != Some(fwd.pages.len()) || bwd.promised != Some(bwd.pages.len()) {
            return Err("tree delta page count does not match its U header".into());
        }
        Ok(AsrSection::Delta(vec![PartitionDelta {
            from: self.from,
            to: self.to,
            next_rowid: self.next_rowid,
            nrows: self.nrows,
            upserts: self.rows,
            deletes,
            fwd: fwd.delta(),
            bwd: bwd.delta(),
            fwd_bytes,
            bwd_bytes,
        }]))
    }
}

impl TreeBuilder {
    /// The full image: the listed pages in a slab of `total`, every other
    /// slot free (full images do not write free pages).
    fn image(self) -> RawTreeImage {
        let mut nodes = vec![RawNode::Free; self.total];
        for (id, node) in self.pages {
            nodes[id] = node;
        }
        RawTreeImage {
            root: self.root,
            height: self.height,
            len: self.len,
            free: self.free,
            nodes,
        }
    }

    /// The patch: the listed pages over a slab grown to `total`.
    fn delta(self) -> RawTreeDelta {
        RawTreeDelta {
            root: self.root,
            height: self.height,
            len: self.len,
            free: self.free,
            total_nodes: self.total,
            pages: self.pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use asr_gom::Value;

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

    #[test]
    fn save_load_round_trip() {
        let db = sample_db();
        let text = db.save_to_string();
        let (restored, report) = Database::load_from_string_report(&text).unwrap();
        assert_eq!(restored.base().object_count(), db.base().object_count());
        assert_eq!(restored.asrs().count(), 2);
        assert_eq!(report.version, 2);
        assert!(
            report.asrs.iter().all(|(_, mode)| mode.is_physical()),
            "{report:?}"
        );
        assert!(report.physical_bytes > 0);
        // The restored ASRs answer identically.
        for (id, asr) in restored.asrs() {
            if asr.supports(0, 3) {
                let hits = restored
                    .backward(id, 0, 3, &Cell::Value(Value::string("Door")))
                    .unwrap();
                assert_eq!(hits.len(), 2, "{}", asr.config().extension);
            }
            asr.check_consistency().unwrap();
        }
        // Serialization reaches a fixed point after one load (type-id
        // assignment follows file order from then on; the physical
        // section is restored page-for-page).
        let text2 = restored.save_to_string();
        let restored2 = Database::load_from_string(&text2).unwrap();
        assert_eq!(restored2.save_to_string(), text2);
    }

    #[test]
    fn v1_snapshots_still_load_by_rebuilding() {
        let db = sample_db();
        let text = db.save_to_string_v1();
        assert!(text.starts_with("ASRDB 1\n"));
        let (restored, report) = Database::load_from_string_report(&text).unwrap();
        assert_eq!(report.version, 1);
        assert_eq!(report.physical_bytes, 0);
        assert!(report
            .asrs
            .iter()
            .all(|(_, mode)| matches!(mode, AsrLoadMode::Rebuilt(r) if r == "v1 snapshot")));
        for (id, asr) in restored.asrs() {
            asr.check_consistency().unwrap();
            if asr.supports(0, 3) {
                let hits = restored
                    .backward(id, 0, 3, &Cell::Value(Value::string("Door")))
                    .unwrap();
                assert_eq!(hits.len(), 2);
            }
        }
        // The v1 rebuild load charges the extents it has to scan; the v2
        // physical load of the same database does not touch them.
        let loaded = Database::load_from_string(&text).unwrap();
        assert!(loaded.stats().reads() > 0, "rebuild load scans extents");
    }

    #[test]
    fn physical_restore_charges_reads_to_the_restored_trees() {
        let db = sample_db();
        let (restored, report) = Database::load_from_string_report(&db.save_to_string()).unwrap();
        assert!(report.asrs.iter().all(|(_, m)| m.is_physical()));
        let by_label = restored.stats().structures();
        let mut tree_labels: Vec<&str> = by_label
            .iter()
            .filter(|s| s.label.ends_with(".fwd") || s.label.ends_with(".bwd"))
            .map(|s| s.label.as_str())
            .collect();
        tree_labels.sort();
        // Two ASRs over the 4-ary Figure-2 path: full/binary has spans
        // 0-1, 1-2, 2-3 and canonical/{0,2,3} has 0-2, 2-3; the shared
        // 2-3 label dedups to one (kind, label) id — 8 distinct labels.
        assert_eq!(tree_labels.len(), 8, "{tree_labels:?}");
        for s in by_label
            .iter()
            .filter(|s| s.label.ends_with(".fwd") || s.label.ends_with(".bwd"))
        {
            assert!(s.reads > 0, "restore reads must attribute to {}", s.label);
            assert_eq!(s.writes, 0, "physical restore writes nothing: {}", s.label);
        }
    }

    #[test]
    fn restored_database_keeps_maintaining() {
        let db = sample_db();
        let mut restored = Database::load_from_string(&db.save_to_string()).unwrap();
        // Apply a maintained update post-restore.
        let (sec_set, pepper) = sec_composition(&restored);
        restored
            .insert_into_set(sec_set, Value::Ref(pepper))
            .unwrap();
        for (id, asr) in restored.asrs() {
            asr.check_consistency().unwrap();
            if asr.supports(0, 3) {
                let hits = restored
                    .backward(id, 0, 3, &Cell::Value(Value::string("Pepper")))
                    .unwrap();
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
    }

    #[test]
    fn malformed_headers_rejected() {
        assert!(Database::load_from_string("").is_err());
        assert!(Database::load_from_string("ASRDB 2\nno marker").is_err());
        assert!(Database::load_from_string("WRONG\n--BASE--\nGOMSNAP 1\n").is_err());
        let db = sample_db();
        let text = db.save_to_string().replace("A Division", "A Nowhere");
        assert!(Database::load_from_string(&text).is_err());
        let text = db.save_to_string().replace(" full ", " bogus ");
        assert!(Database::load_from_string(&text).is_err());
    }

    /// Every way of mangling a snapshot must yield a descriptive
    /// [`AsrError`] — never a panic.  (The durability layer feeds
    /// recovered checkpoint bytes straight into this parser, so torn or
    /// bit-flipped files are an expected input, not a programming error.)
    #[test]
    fn corrupt_snapshots_error_descriptively() {
        let good = sample_db().save_to_string();

        // Truncation at every line boundary: either a valid (possibly
        // degraded) database or a clean error, never a panic.
        let lines: Vec<&str> = good.lines().collect();
        for k in 0..lines.len() {
            let truncated = lines[..k].join("\n");
            let _ = Database::load_from_string(&truncated);
        }
        // Truncation at every raw byte offset (may split UTF-8-safe
        // ASCII lines mid-token).
        for k in (0..good.len()).step_by(7) {
            let _ = Database::load_from_string(&good[..k]);
        }

        // Missing --BASE-- marker names the marker in the error.
        let no_marker = good.replace("--BASE--\n", "");
        let err = Database::load_from_string(&no_marker).unwrap_err();
        assert!(matches!(err, AsrError::Snapshot(_)), "{err}");
        assert!(err.to_string().contains("--BASE--"), "{err}");

        // Mangled magic header.
        let bad_magic = good.replace("ASRDB 2", "ASRDB 999");
        let err = Database::load_from_string(&bad_magic).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // Bad A-lines: missing fields, unparsable cuts, unknown record tag.
        for mangled in [
            good.replace(" canonical ", " "),
            good.replace("0,2,3", "0,x,3"),
            good.replace("\nA ", "\nZ "),
            good.replace("S Division 500", "S Division many"),
            good.replace("S Division 500", "S Nothing 500"),
        ] {
            let err = Database::load_from_string(&mangled).unwrap_err();
            assert!(!err.to_string().is_empty());
        }

        // Garbled base section (bit-flip style corruption of a value).
        let garbled = good.replace("S:Door", "S:%zzDoor");
        assert!(Database::load_from_string(&garbled).is_err());

        // load() on a missing file reports the path problem.
        let err = Database::load("/nonexistent/dir/db.snap").unwrap_err();
        assert!(matches!(err, AsrError::Snapshot(_)), "{err}");
        assert!(err.to_string().contains("cannot read file"), "{err}");
    }

    /// Corruption confined to the physical section degrades per ASR to a
    /// rebuild — the load still succeeds and answers identically.
    #[test]
    fn corrupt_physical_section_falls_back_to_rebuild() {
        let db = sample_db();
        let good = db.save_to_string();
        let door = Cell::Value(Value::string("Door"));
        let expect: Vec<_> = {
            let (clean, _) = Database::load_from_string_report(&good).unwrap();
            clean.backward(0, 0, 3, &door).unwrap()
        };

        // A bit-flipped page id, a mangled tree header, a truncated R row
        // count, an out-of-range child: each must fall back cleanly.
        let first_n = good
            .lines()
            .find(|l| l.starts_with("N f"))
            .unwrap()
            .to_string();
        let first_t = good
            .lines()
            .find(|l| l.starts_with("T 0"))
            .unwrap()
            .to_string();
        for mangled in [
            good.replace(&first_n, &first_n.replace(" L ", " X ")),
            good.replace(&first_t, "T 0 0 f 999999 1 1 1 -"),
            good.replace(&first_n, ""),
            good.replacen("R 0 ", "R 999999 ", 1),
        ] {
            let (loaded, report) = Database::load_from_string_report(&mangled)
                .unwrap_or_else(|e| panic!("must fall back, got {e}"));
            assert!(
                report
                    .asrs
                    .iter()
                    .any(|(_, m)| matches!(m, AsrLoadMode::Rebuilt(_))),
                "{report:?}"
            );
            assert_eq!(loaded.backward(0, 0, 3, &door).unwrap(), expect);
            for (_, asr) in loaded.asrs() {
                asr.check_consistency().unwrap();
            }
        }

        // Physical section stripped entirely: every ASR rebuilds.  Only
        // head lines are filtered — the GOM base section has its own
        // records that may share these leading letters.
        let (head, base) = good.split_once("--BASE--\n").unwrap();
        let stripped: String = head
            .lines()
            .filter(|l| {
                !(l.starts_with("P ")
                    || l.starts_with("R ")
                    || l.starts_with("T ")
                    || l.starts_with("N "))
            })
            .map(|l| format!("{l}\n"))
            .collect::<String>()
            + "--BASE--\n"
            + base;
        let (loaded, report) = Database::load_from_string_report(&stripped).unwrap();
        assert!(report
            .asrs
            .iter()
            .all(|(_, m)| matches!(m, AsrLoadMode::Rebuilt(r) if r.contains("no physical"))));
        assert_eq!(loaded.backward(0, 0, 3, &door).unwrap(), expect);
    }

    #[test]
    fn type_sizes_survive() {
        let db = sample_db();
        let restored = Database::load_from_string(&db.save_to_string()).unwrap();
        let div_ty = restored.base().schema().resolve("Division").unwrap();
        assert_eq!(restored.store().type_size(div_ty), 500);
    }

    // ---- ASRDB 3 delta snapshots -----------------------------------

    /// A clean database at its serialization fixed point: `db.save ==
    /// text` exactly, and every dirty set is cleared.
    fn settled(db: Database) -> (Database, String) {
        let db = Database::load_from_string(&db.save_to_string()).unwrap();
        let text = db.save_to_string();
        (Database::load_from_string(&text).unwrap(), text)
    }

    /// The `BasePartSET` behind the 560 SEC product — the deepest set on
    /// the Figure-2 path, so inserts there flow into every ASR.
    fn sec_composition(db: &Database) -> (Oid, Oid) {
        let pepper = db
            .base()
            .find_by_attribute("Name", &Value::string("Pepper"))
            .unwrap();
        let sec = db
            .base()
            .find_by_attribute("Name", &Value::string("560 SEC"))
            .unwrap();
        let set = db.base().deref_attribute(sec, "Composition").unwrap();
        (set.unwrap(), pepper)
    }

    /// Figure 2 grown by `extra` additional base parts in the 560 SEC
    /// composition — big enough that one more insert touches only a few
    /// tree pages.
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

    // ---- byte identity: the text formats are frozen ------------------

    const PINNED_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/pinned");

    /// `ASRDB 2` of Figure 2 and of a two-level tree, then two `ASRDB 3`
    /// documents on top of the latter.  The bulk database is deep enough
    /// for inner `N … I` pages and carries a name with every escaped
    /// byte; the first delta ships true `D`/`U` sections for one insert,
    /// the second falls back to full sections and carries a deleted
    /// object and two rebound variables.
    fn pinned_texts() -> [String; 4] {
        let mut bulk = bulk_db(300);
        let part = bulk.instantiate("BasePart").unwrap();
        bulk.set_attribute(part, "Name", Value::string("a b%c=d\ne"))
            .unwrap();
        bulk.set_attribute(part, "Price", Value::decimal(-3, 7))
            .unwrap();
        let (set, pepper) = sec_composition(&bulk);
        bulk.insert_into_set(set, Value::Ref(part)).unwrap();
        let (mut bulk, full) = settled(bulk);
        bulk.insert_into_set(set, Value::Ref(pepper)).unwrap();
        let small = bulk.begin_checkpoint().save_delta(40).unwrap();
        let doomed = bulk.instantiate("BasePart").unwrap();
        bulk.mark_clean();
        bulk.set_attribute(part, "Name", Value::string("renamed"))
            .unwrap();
        bulk.delete_object(doomed).unwrap();
        bulk.bind_variable("epoch two", Value::Integer(-2));
        bulk.bind_variable("Mercedes", Value::Null);
        let mixed = bulk.begin_checkpoint().save_delta(41).unwrap();
        [sample_db().save_to_string(), full, small, mixed]
    }

    const PINNED_FILES: [&str; 4] = [
        "figure2.asrdb2",
        "bulk.asrdb2",
        "bulk-insert.asrdb3",
        "bulk-mixed.asrdb3",
    ];

    /// The writers' output byte for byte as the parent of the
    /// allocation-free codec produced it, and the pinned source renders
    /// the same bytes.
    #[test]
    fn serialized_text_is_pinned() {
        let texts = pinned_texts();
        for (text, file) in texts.iter().zip(PINNED_FILES) {
            let want = std::fs::read_to_string(format!("{PINNED_DIR}/{file}")).unwrap();
            assert!(*text == want, "{file} drifted:\n{text}");
        }
        assert_eq!(sample_db().begin_checkpoint().save_full(), texts[0]);
    }

    /// Rewrite the retired witness-count field of every `R` line.
    fn with_counts(text: &str, count: &str) -> String {
        text.lines()
            .map(|line| match line.strip_prefix("R ") {
                Some(rest) => {
                    let mut fields: Vec<&str> = rest.split(' ').collect();
                    fields[1] = count;
                    format!("R {}\n", fields.join(" "))
                }
                None => format!("{line}\n"),
            })
            .collect()
    }

    #[test]
    fn retired_witness_counts_are_read_and_ignored() {
        let text = sample_db().save_to_string();
        assert!(text.lines().any(|l| l.starts_with("R ")));
        // Documents written while counts were kept load unchanged.
        let (db, report) = Database::load_from_string_report(&with_counts(&text, "7")).unwrap();
        assert!(report.asrs.iter().all(|(_, mode)| mode.is_physical()));
        assert_eq!(db.save_to_string(), text);
        // A zero or malformed count is still damage.
        for bad in ["0", "x", "-1"] {
            let (_, report) = Database::load_from_string_report(&with_counts(&text, bad)).unwrap();
            assert!(
                report.asrs.iter().all(|(_, mode)| !mode.is_physical()),
                "count {bad}: {report:?}"
            );
        }
    }

    #[test]
    #[ignore = "writes tests/fixtures/pinned; run only to re-freeze the text formats"]
    fn regenerate_pinned_text() {
        std::fs::create_dir_all(PINNED_DIR).unwrap();
        for (text, file) in pinned_texts().iter().zip(PINNED_FILES) {
            std::fs::write(format!("{PINNED_DIR}/{file}"), text).unwrap();
        }
    }

    #[test]
    fn delta_apply_reproduces_the_primary_byte_for_byte() {
        let (mut primary, base_text) = settled(sample_db());
        let (set, pepper) = sec_composition(&primary);
        primary.insert_into_set(set, Value::Ref(pepper)).unwrap();
        primary.bind_variable("epoch", Value::string("two"));

        let delta = primary.begin_checkpoint().save_delta(41).unwrap();
        assert!(delta.starts_with("ASRDB 3\nDELTA 41\n"), "{delta}");
        assert_eq!(Database::delta_base_id(&delta).unwrap(), 41);
        assert!(Database::is_delta_snapshot(&delta));
        assert!(!Database::is_delta_snapshot(&base_text));

        let replica = Database::load_from_string(&base_text).unwrap();
        let (patched, report) = replica
            .apply_delta_from_string_report(&delta, true)
            .unwrap();
        assert_eq!(report.version, 3);
        assert_eq!(report.delta_chain, 1);
        assert!(report.physical_bytes > 0);
        assert_eq!(patched.save_to_string(), primary.save_to_string());
        for (_, asr) in patched.asrs() {
            asr.check_consistency().unwrap();
        }
        // The delta left the patched replica clean: an immediate re-delta on
        // the primary side applies cleanly on top of it.
        assert_eq!(patched.dirty_summary(), (0, 0, 0, 0));
    }

    #[test]
    fn clean_database_ships_an_empty_delta() {
        let (mut db, text) = settled(sample_db());
        let delta = db.begin_checkpoint().save_delta(7).unwrap();
        assert!(
            delta.len() * 2 < text.len(),
            "empty delta {} vs full {}",
            delta.len(),
            text.len()
        );
        let (patched, report) = db.apply_delta_from_string_report(&delta, true).unwrap();
        assert!(
            report
                .asrs
                .iter()
                .all(|(_, m)| matches!(m, AsrLoadMode::Delta { pages: 0 })),
            "{report:?}"
        );
        assert_eq!(patched.save_to_string(), text);
    }

    #[test]
    fn small_delta_on_large_database_stays_delta_mode() {
        let (mut primary, base_text) = settled(bulk_db(400));
        let (set, _) = sec_composition(&primary);
        let p = primary.instantiate("BasePart").unwrap();
        primary
            .set_attribute(p, "Name", Value::string("Hinge"))
            .unwrap();
        primary.insert_into_set(set, Value::Ref(p)).unwrap();

        let full = primary.save_to_string();
        let delta = primary.begin_checkpoint().save_delta(9).unwrap();
        assert!(
            delta.len() * 4 < full.len(),
            "delta {} vs full {}",
            delta.len(),
            full.len()
        );

        let replica = Database::load_from_string(&base_text).unwrap();
        let (patched, report) = replica
            .apply_delta_from_string_report(&delta, true)
            .unwrap();
        assert!(
            report.asrs.iter().all(|(_, m)| m.is_delta()),
            "one insert must not degrade to full sections: {report:?}"
        );
        let shipped: usize = report
            .asrs
            .iter()
            .map(|(_, m)| match m {
                AsrLoadMode::Delta { pages } => *pages,
                _ => 0,
            })
            .sum();
        assert!(shipped > 0, "a real change ships at least one page");
        assert_eq!(patched.save_to_string(), full);
        for (_, asr) in patched.asrs() {
            asr.check_consistency().unwrap();
        }
    }

    #[test]
    fn design_change_forces_a_full_checkpoint() {
        let (mut db, _) = settled(sample_db());
        assert!(db.begin_checkpoint().save_delta(1).is_some());
        let div = db.base().schema().resolve("Division").unwrap();
        db.set_type_size(div, 300);
        assert!(
            db.begin_checkpoint().save_delta(1).is_none(),
            "deltas never span design changes"
        );
    }

    #[test]
    fn delta_chain_replays_object_lifecycle() {
        let (mut primary, base_text) = settled(sample_db());
        let washer = primary.instantiate("BasePart").unwrap();
        primary
            .set_attribute(washer, "Name", Value::string("Washer"))
            .unwrap();
        let d1 = primary.begin_checkpoint().save_delta(0).unwrap();

        primary.delete_object(washer).unwrap();
        primary.bind_variable("gone", Value::string("yes"));
        let d2 = primary.begin_checkpoint().save_delta(1).unwrap();
        assert!(
            d2.lines().any(|l| l.starts_with("X i")),
            "the delete must ship as a dead OID: {d2}"
        );

        let (chained, report) = Database::load_from_chain_report(&base_text, &[&d1, &d2]).unwrap();
        assert_eq!(report.delta_chain, 2);
        assert_eq!(chained.save_to_string(), primary.save_to_string());
    }

    #[test]
    fn tampered_delta_nacks_strictly_and_rebuilds_leniently() {
        let (mut primary, base_text) = settled(bulk_db(400));
        let (set, pepper) = sec_composition(&primary);
        primary.insert_into_set(set, Value::Ref(pepper)).unwrap();
        let delta = primary.begin_checkpoint().save_delta(3).unwrap();

        // Bump the expected row count of the first delta partition: the
        // document still parses, but the patched mirror cannot satisfy it.
        let mut tampered = String::new();
        let mut done = false;
        for line in delta.lines() {
            if !done && line.starts_with("D ") {
                let mut t: Vec<String> = line.split(' ').map(str::to_string).collect();
                let n: usize = t[6].parse().unwrap();
                t[6] = (n + 1).to_string();
                tampered.push_str(&t.join(" "));
                done = true;
            } else {
                tampered.push_str(line);
            }
            tampered.push('\n');
        }
        assert!(done, "expected at least one delta partition: {delta}");

        let replica = Database::load_from_string(&base_text).unwrap();
        let err = replica.apply_delta_from_string(&tampered).unwrap_err();
        assert!(err.to_string().contains("delta section"), "{err}");

        // Lenient recovery rebuilds the damaged ASR from the patched base:
        // not byte-identical (fresh row ids) but query-identical.
        let (patched, report) = replica
            .apply_delta_from_string_report(&tampered, false)
            .unwrap();
        assert!(
            report
                .asrs
                .iter()
                .any(|(_, m)| matches!(m, AsrLoadMode::Rebuilt(_))),
            "{report:?}"
        );
        let door = Cell::Value(Value::string("Door"));
        for (id, asr) in patched.asrs() {
            asr.check_consistency().unwrap();
            if asr.supports(0, 3) {
                assert_eq!(
                    patched.backward(id, 0, 3, &door).unwrap(),
                    primary.backward(id, 0, 3, &door).unwrap()
                );
            }
        }
    }

    #[test]
    fn truncated_deltas_error_without_panicking() {
        let (mut primary, base_text) = settled(bulk_db(60));
        let (set, pepper) = sec_composition(&primary);
        primary.insert_into_set(set, Value::Ref(pepper)).unwrap();
        let delta = primary.begin_checkpoint().save_delta(5).unwrap();
        let replica = Database::load_from_string(&base_text).unwrap();
        let full = {
            let (patched, _) = replica
                .apply_delta_from_string_report(&delta, true)
                .unwrap();
            patched.save_to_string()
        };
        // Cut the document after every line: each prefix must either be
        // rejected descriptively or (only if still complete enough to
        // parse) apply to a consistent database — never panic.
        let cuts: Vec<usize> = delta
            .char_indices()
            .filter(|&(_, c)| c == '\n')
            .map(|(i, _)| i + 1)
            .collect();
        for cut in cuts {
            match replica.apply_delta_from_string_report(&delta[..cut], true) {
                Err(e) => assert!(!e.to_string().is_empty()),
                Ok((patched, _)) => {
                    assert_eq!(patched.save_to_string(), full, "cut at {cut}");
                }
            }
        }
    }

    #[test]
    fn checkpoint_source_matches_live_serialization_byte_for_byte() {
        let (mut db, base_text) = settled(bulk_db(300));
        let (set, pepper) = sec_composition(&db);
        db.insert_into_set(set, Value::Ref(pepper)).unwrap();
        db.bind_variable("epoch", Value::string("two"));

        let want_full = db.save_to_string();
        let source = db.begin_checkpoint();
        assert!(!source.is_noop_delta());
        assert!(!source.is_design_dirty());
        assert_eq!(source.save_full(), want_full);
        // The pinned delta carries exactly the live changes: applied to
        // the base it reproduces the live document.
        let want_delta = source.save_delta(7).unwrap();
        let base = Database::load_from_string(&base_text).unwrap();
        let patched = base.apply_delta_from_string(&want_delta).unwrap();
        assert_eq!(patched.save_to_string(), want_full);

        // Fuzzy: the writer moves on — an object rename, and an insert on
        // the ASR path that writes partition pages — but the pinned source
        // still renders the state as of `begin_checkpoint`.
        db.set_attribute(pepper, "Name", Value::string("Salt"))
            .unwrap();
        let bolt = db.instantiate("BasePart").unwrap();
        db.set_attribute(bolt, "Name", Value::string("Bolt"))
            .unwrap();
        db.insert_into_set(set, Value::Ref(bolt)).unwrap();
        assert_eq!(source.save_full(), want_full);
        assert_eq!(source.save_delta(7).unwrap(), want_delta);
        assert_ne!(db.save_to_string(), want_full, "the live state moved on");

        // The rendered document is a real checkpoint: it loads.
        let restored = Database::load_from_string(&source.save_full()).unwrap();
        assert_eq!(
            restored.base().object_count(),
            patched.base().object_count()
        );

        // The next checkpoint carries exactly the writes made after this
        // one began, partition pages included: applied over the patched
        // base it reproduces the live document.
        drop(source);
        let next = db.begin_checkpoint();
        assert!(!next.is_noop_delta(), "the Salt rename is still pending");
        let next_delta = next.save_delta(8).unwrap();
        let (replayed, report) = patched
            .apply_delta_from_string_report(&next_delta, true)
            .unwrap();
        assert!(
            report
                .asrs
                .iter()
                .all(|(_, m)| matches!(m, AsrLoadMode::Delta { pages } if *pages > 0)),
            "the Bolt insert ships changed pages, not full sections: {report:?}"
        );
        assert_eq!(replayed.save_to_string(), db.save_to_string());

        // And a fresh source right after one is a noop.
        let idle2 = db.begin_checkpoint();
        assert!(idle2.is_noop_delta());
    }

    #[test]
    fn checkpoint_source_refuses_delta_after_design_change() {
        let (mut db, _) = settled(sample_db());
        let id = db.asrs().next().unwrap().0;
        db.drop_asr(id).unwrap();
        let source = db.begin_checkpoint();
        assert!(source.is_design_dirty());
        assert!(source.save_delta(1).is_none());
        // The full document still renders and loads without the ASR.
        let restored = Database::load_from_string(&source.save_full()).unwrap();
        assert_eq!(restored.asrs().count(), db.asrs().count());
    }

    #[test]
    fn checkpoint_source_pins_an_epoch_until_dropped() {
        let (mut db, _) = settled(sample_db());
        let before = db.txn_status().active_snapshots;
        let source = db.begin_checkpoint();
        assert_eq!(db.txn_status().active_snapshots, before + 1);
        assert!(source.snapshot().asr_ids().len() == db.asrs().count());
        drop(source);
        assert_eq!(db.txn_status().active_snapshots, before);
    }
}
