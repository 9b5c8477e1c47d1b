//! The bytes of the checkpoint document described in [`super`]: its
//! one writer and its one reader.

use std::borrow::Borrow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use asr_gom::{BaseBuilder, Object, ObjectBase, ObjectBody, Oid, Schema, TypeId, TypeKind, Value};
use asr_pagesim::{NodeImage, PageRef, PageSlab};

use super::{assemble, AsrImages, CheckpointHeader, LoadReport, Parsed};
use super::{DELTA_FULL_FRACTION, FORMAT_VERSION};
use crate::cell::Cell;
use crate::codec::{CodecError, Reader, Writer};
use crate::crc::crc32;
use crate::database::{Changes, Database};
use crate::decomposition::Decomposition;
use crate::error::{AsrError, Result};
use crate::extension::Extension;
use crate::manager::AsrConfig;
use crate::partition::{
    Cells, ChangedPages, PartitionChanges, PartitionDelta, PartitionImage, PartitionVersion,
    TreeDelta, VersionDelta,
};

const MAGIC: &[u8; 8] = b"\x89ASRDB\x05\n";
const TAG_HEADER: u8 = b'H';
const TAG_DESIGN: u8 = b'D';
const TAG_ASR: u8 = b'A';
const TAG_OBJECTS: u8 = b'O';
/// Tag, length and checksum around every frame's payload.
const FRAME_OVERHEAD: usize = 9;

/// The design frame's payload: the schema, the configured clustered
/// sizes (by type name) and each ASR's path and configuration.
pub(super) fn encode_design(db: &Database) -> Vec<u8> {
    let schema = db.base().schema();
    let mut w = Writer::new();
    let types: Vec<_> = schema.types().collect();
    w.varint(types.len() as u64);
    for (_, def) in types {
        w.str(&def.name);
        match &def.kind {
            TypeKind::Tuple {
                supertypes,
                attributes,
            } => {
                w.u8(0);
                w.varint(supertypes.len() as u64);
                for &sup in supertypes {
                    w.str(schema.name(sup));
                }
                w.varint(attributes.len() as u64);
                for a in attributes {
                    w.str(&a.name);
                    w.str(&schema.ref_name(a.ty));
                }
            }
            TypeKind::Set { element } => {
                w.u8(1);
                w.str(&schema.ref_name(*element));
            }
            TypeKind::List { element } => {
                w.u8(2);
                w.str(&schema.ref_name(*element));
            }
        }
    }
    let mut sizes: Vec<(&str, usize)> = (db.store().configured_sizes())
        .map(|(ty, size)| (schema.name(ty), size))
        .collect();
    sizes.sort();
    w.varint(sizes.len() as u64);
    for (name, size) in sizes {
        w.str(name);
        w.varint(size as u64);
    }
    w.varint(db.asrs().count() as u64);
    for (_, asr) in db.asrs() {
        let config = asr.config();
        w.str(&asr.path().to_string());
        w.str(config.extension.name());
        let cuts = config.decomposition.cuts();
        w.varint(cuts.len() as u64);
        for &cut in cuts {
            w.varint(cut as u64);
        }
        w.bool(config.keep_set_oids);
    }
    w.into_bytes()
}

// ----------------------------------------------------------------------
// Writing
// ----------------------------------------------------------------------

/// The one writer: the document at `lsn` for the ASRs `asr_ids`, each
/// yielding its partition versions in design order (frozen off live
/// partitions or pinned by a snapshot, which render the same bytes), and
/// the object base `objects`.  `since` is the base checkpoint and what
/// changed since it; `None` is the empty base, against which everything
/// has changed: every partition ships its images (the delta over an
/// empty partition) and every object and variable is listed.
///
/// Over a base checkpoint an ASR rebuilt since the base, and one whose
/// delta would exceed [`DELTA_FULL_FRACTION`] of its images, ships as
/// images; an unchanged ASR always ships as an (empty) delta — the
/// fraction only arbitrates when there is real change.  The images are
/// priced, not rendered: every page remembers its encoded length from
/// the last document that wrote or read it, and the delta just written
/// records the lengths of the pages it changed.  Only the bytes of the
/// document are rendered.
pub(super) fn render(
    header: &CheckpointHeader,
    design: &[u8],
    asrs: impl IntoIterator<Item = impl IntoIterator<Item = impl Borrow<PartitionVersion>>>,
    objects: &ObjectBase,
    since: Option<&Changes>,
) -> Writer {
    let mut w = Writer::new();
    begin_document(&mut w, header, design);
    let everything = PartitionChanges::default();
    for (k, versions) in asrs.into_iter().enumerate() {
        let versions: Vec<_> = versions.into_iter().collect();
        let n = versions.len();
        let images = || versions.iter().map(|v| v.borrow().delta(&everything));
        // A partition made since the base (its ASR was rebuilt) has no
        // base partition to patch: the ASR ships as images.
        let changes = since
            .map(|c| &c.partitions[k])
            .filter(|changes| !changes.iter().any(PartitionChanges::is_fresh));
        let Some(changes) = changes else {
            write_asr(&mut w, true, n, images());
            continue;
        };
        let deltas: Vec<VersionDelta<'_>> = (versions.iter().zip(changes))
            .map(|(v, ch)| v.borrow().delta(ch))
            .collect();
        let changed = deltas.iter().any(|d| !d.is_empty());
        let start = w.len();
        let as_images = write_asr(&mut w, false, n, deltas.into_iter());
        if changed && ((w.len() - start) as f64) > (as_images as f64) * DELTA_FULL_FRACTION {
            w.truncate(start);
            write_asr(&mut w, true, n, images());
        }
    }
    match since {
        None => write_objects(
            &mut w,
            objects,
            &BTreeSet::new(),
            objects.objects(),
            objects.variables(),
        ),
        Some(c) => write_objects(
            &mut w,
            objects,
            &c.dead_oids,
            c.dirty_oids
                .iter()
                .filter_map(|&oid| objects.object(oid).ok()),
            objects
                .variables()
                .filter(|(name, _)| c.dirty_vars.contains(*name)),
        ),
    }
    w
}

/// Bytes of `v` as an unsigned LEB128 varint.
fn varint_len(v: usize) -> usize {
    (usize::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

/// Append one frame: tag, length, `body`'s payload, then the CRC-32 of
/// all three.
fn frame(w: &mut Writer, tag: u8, body: impl FnOnce(&mut Writer)) {
    let start = w.len();
    w.u8(tag);
    w.u32(0);
    body(w);
    let len = u32::try_from(w.len() - start - 5).expect("a checkpoint frame holds under 4 GiB");
    w.put_u32_at(start + 1, len);
    let crc = crc32(&w.as_bytes()[start..]);
    w.u32(crc);
}

/// The magic, header and design frames every document opens with.
fn begin_document(w: &mut Writer, header: &CheckpointHeader, design: &[u8]) {
    w.bytes(MAGIC);
    frame(w, TAG_HEADER, |w| {
        match header.base {
            None => w.u8(0),
            Some(base) => {
                w.u8(1);
                w.varint(base);
            }
        }
        w.varint(header.lsn);
        w.varint(header.asr_ids.len() as u64);
        for &id in &header.asr_ids {
            w.varint(id as u64);
        }
    });
    frame(w, TAG_DESIGN, |w| w.bytes(design));
}

/// One ASR frame: `over_empty` (images) or not (deltas over the base's
/// partitions), then its `count` partitions.  Returns the bytes the frame
/// takes as images: what it wrote when `over_empty`.
fn write_asr<'a>(
    w: &mut Writer,
    over_empty: bool,
    count: usize,
    parts: impl Iterator<Item = VersionDelta<'a>>,
) -> usize {
    let mut as_images = FRAME_OVERHEAD + 1 + varint_len(count);
    frame(w, TAG_ASR, |w| {
        w.bool(over_empty);
        w.varint(count as u64);
        for d in parts {
            w.varint(d.from as u64);
            w.varint(d.to as u64);
            as_images += varint_len(d.from) + varint_len(d.to);
            as_images += write_tree(w, &d.fwd, over_empty);
            as_images += write_tree(w, &d.bwd, over_empty);
        }
    });
    as_images
}

/// One tree's geometry and listed pages, read off its slab; over an
/// empty tree a freed page is not listed (the slab starts out free).
/// Each listed page remembers its encoded length.  Returns the bytes the
/// tree takes as an image (over an empty tree).
fn write_tree(w: &mut Writer, d: &ChangedPages<'_>, over_empty: bool) -> usize {
    let p = d.pages;
    let start = w.len();
    for n in [
        p.root_slot(),
        p.height(),
        p.len(),
        p.slot_count(),
        p.free_slots().len(),
    ] {
        w.varint(n as u64);
    }
    for &slot in p.free_slots() {
        w.varint(slot as u64);
    }
    let geometry = w.len() - start;
    let listed = |slot: &&usize| !(over_empty && matches!(p.page(**slot), PageRef::Free));
    w.varint(d.slots.iter().filter(listed).count() as u64);
    for &slot in d.slots.iter().filter(listed) {
        w.varint(slot as u64);
        let at = w.len();
        write_page(w, p, slot);
        p.remember_encoded_len(slot, w.len() - at);
    }
    if over_empty {
        w.len() - start
    } else {
        geometry + live_pages_len(p)
    }
}

/// The bytes of `p`'s live pages as an image lists them: their count,
/// then each one's slot and page.  A page's length is the one it
/// remembers; a page that remembers none is encoded to measure it, and
/// remembers it from then on.
fn live_pages_len(p: &PageSlab<Cells>) -> usize {
    let mut scratch = Writer::new();
    let (mut live, mut bytes) = (0, 0);
    for slot in 0..p.slot_count() {
        if matches!(p.page(slot), PageRef::Free) {
            continue;
        }
        let len = p.encoded_len(slot).unwrap_or_else(|| {
            scratch.truncate(0);
            write_page(&mut scratch, p, slot);
            p.remember_encoded_len(slot, scratch.len());
            scratch.len()
        });
        live += 1;
        bytes += varint_len(slot) + len;
    }
    varint_len(live) + bytes
}

/// One page: its kind, then an inner page's children and separator rows,
/// or a leaf's sibling link and rows.
fn write_page(w: &mut Writer, p: &PageSlab<Cells>, slot: usize) {
    match p.page(slot) {
        PageRef::Free => w.u8(0),
        PageRef::Inner { keys, children } => {
            w.u8(1);
            w.varint(children.len() as u64);
            for &child in children {
                w.varint(child as u64);
            }
            for cell in keys.iter().flat_map(|key| key.iter()) {
                w.packed_cell(cell);
            }
        }
        PageRef::Leaf { entries, next } => {
            w.u8(2);
            w.varint(next.map_or(0, |n| n as u64 + 1));
            w.varint((entries.len() / p.stride()) as u64);
            for cell in entries {
                w.packed_cell(cell);
            }
        }
    }
}

/// The objects frame: the object count `base` holds, the deleted OIDs,
/// the listed objects (ascending OID) and variables (by name).
fn write_objects<'a>(
    w: &mut Writer,
    base: &ObjectBase,
    dead: &BTreeSet<Oid>,
    objects: impl Iterator<Item = Object<'a>> + Clone,
    vars: impl Iterator<Item = (&'a str, &'a Value)>,
) {
    let schema = base.schema();
    // Each type's position in the design frame's type list.
    let mut position = vec![0u64; schema.len()];
    for (k, (ty, _)) in schema.types().enumerate() {
        position[ty.index()] = k as u64;
    }
    let vars: Vec<(&str, &Value)> = vars.collect();
    frame(w, TAG_OBJECTS, |w| {
        w.varint(base.object_count() as u64);
        w.varint(dead.len() as u64);
        for oid in dead {
            w.varint(oid.as_raw());
        }
        w.varint(objects.clone().count() as u64);
        for obj in objects {
            w.varint(obj.oid.as_raw());
            w.varint(position[obj.ty.index()]);
            match obj.body {
                ObjectBody::Tuple(slots) => {
                    w.varint(slots.iter().filter(|v| !v.is_null()).count() as u64);
                    for (slot, value) in slots.iter().enumerate().filter(|(_, v)| !v.is_null()) {
                        w.varint(slot as u64);
                        w.value(value);
                    }
                }
                ObjectBody::Set(elems) | ObjectBody::List(elems) => {
                    w.varint(elems.len() as u64);
                    for v in elems {
                        w.value(v);
                    }
                }
            }
        }
        w.varint(vars.len() as u64);
        for (name, value) in vars {
            w.str(name);
            w.value(value);
        }
    });
}

// ----------------------------------------------------------------------
// Reading
// ----------------------------------------------------------------------

/// Why a checksummed payload did not decode.
struct Damage(String);

impl<E: std::fmt::Display> From<E> for Damage {
    fn from(e: E) -> Self {
        Damage(e.to_string())
    }
}

type Decoded<T> = std::result::Result<T, Damage>;

fn snapshot_err<T>(what: &str, r: Decoded<T>) -> Result<T> {
    r.map_err(|Damage(msg)| AsrError::Snapshot(format!("{what} frame: {msg}")))
}

/// A varint that must fit a `usize`.
fn num(r: &mut Reader<'_>) -> Decoded<usize> {
    usize::try_from(r.varint()?).map_err(|_| Damage("number out of range".into()))
}

/// The frame cursor: each frame's checksum is verified before its
/// payload is handed out.
struct Frames<'a> {
    bytes: &'a [u8],
    r: Reader<'a>,
}

impl<'a> Frames<'a> {
    fn open(bytes: &'a [u8]) -> Result<Self> {
        if !bytes.starts_with(MAGIC) {
            return Err(AsrError::Snapshot(
                "bad magic: not a checkpoint document".into(),
            ));
        }
        let mut r = Reader::new(bytes);
        r.bytes(MAGIC.len()).expect("magic checked");
        Ok(Frames { bytes, r })
    }

    /// The next frame's payload, which must carry `tag`.
    fn next(&mut self, tag: u8, what: &str) -> Result<&'a [u8]> {
        let start = self.r.position();
        let short = |_: CodecError| AsrError::Snapshot(format!("truncated in the {what} frame"));
        let found = self.r.u8().map_err(short)?;
        if found != tag {
            return Err(AsrError::Snapshot(format!(
                "expected the {what} frame, found tag {found:#04x}"
            )));
        }
        let len = self.r.u32().map_err(short)? as usize;
        let payload = self.r.bytes(len).map_err(short)?;
        let crc = self.r.u32().map_err(short)?;
        if crc32(&self.bytes[start..start + 5 + len]) != crc {
            return Err(AsrError::Snapshot(format!(
                "{what} frame fails its checksum"
            )));
        }
        Ok(payload)
    }
}

/// The header frame of `bytes`, checked, and nothing else.
pub(super) fn read_header(bytes: &[u8]) -> Result<CheckpointHeader> {
    let mut frames = Frames::open(bytes)?;
    let payload = frames.next(TAG_HEADER, "header")?;
    snapshot_err("header", header_payload(payload))
}

fn header_payload(payload: &[u8]) -> Decoded<CheckpointHeader> {
    let mut r = Reader::new(payload);
    let base = match r.u8()? {
        0 => None,
        1 => Some(r.varint()?),
        t => return Err(Damage(format!("bad base kind {t}"))),
    };
    let lsn = r.varint()?;
    let n = r.count(1)?;
    let asr_ids = (0..n).map(|_| num(&mut r)).collect::<Decoded<_>>()?;
    r.finish()?;
    Ok(CheckpointHeader { lsn, base, asr_ids })
}

/// A document with every frame's checksum verified and nothing decoded
/// but its header.
pub(super) struct Document<'a> {
    header: CheckpointHeader,
    design: &'a [u8],
    /// Each ASR frame's payload and its bytes in the document.
    asrs: Vec<(&'a [u8], usize)>,
    objects: &'a [u8],
}

impl<'a> Document<'a> {
    pub(super) fn read(bytes: &'a [u8]) -> Result<Self> {
        let mut frames = Frames::open(bytes)?;
        let header = snapshot_err("header", header_payload(frames.next(TAG_HEADER, "header")?))?;
        let design = frames.next(TAG_DESIGN, "design")?;
        let asrs = (0..header.asr_ids.len())
            .map(|_| {
                let payload = frames.next(TAG_ASR, "ASR")?;
                Ok((payload, payload.len() + FRAME_OVERHEAD))
            })
            .collect::<Result<_>>()?;
        let objects = frames.next(TAG_OBJECTS, "objects")?;
        if frames.r.remaining() > 0 {
            return Err(AsrError::Snapshot(format!(
                "{} bytes after the objects frame",
                frames.r.remaining()
            )));
        }
        Ok(Document {
            header,
            design,
            asrs,
            objects,
        })
    }

    /// The design declares as many ASRs as the document has frames.
    fn check_design_holds(&self, declared: usize) -> Result<()> {
        if declared != self.asrs.len() {
            return Err(AsrError::Snapshot(format!(
                "design declares {declared} ASRs, the document holds {}",
                self.asrs.len()
            )));
        }
        Ok(())
    }
}

/// Load the full document `full` and the deltas over it, oldest first, in
/// one pass.  Each ASR's partition images are the full document's with
/// every delta's pages laid over them in turn (an ASR a delta ships as
/// images starts over from those); the objects are the full document's
/// with the latest listing or deletion of each OID in the chain put in
/// their place, and the variables the latest binding of each.  Then one
/// [`BaseBuilder::finish`], one restore of each partition and one
/// validation, as for the full document alone.  An ASR that cannot be
/// restored is rebuilt from the loaded objects.
pub(super) fn load_chain(
    full: Document<'_>,
    deltas: &[Document<'_>],
) -> Result<(Database, LoadReport)> {
    if let Some(base) = full.header.base {
        return Err(AsrError::Snapshot(format!(
            "a delta over checkpoint {base} loads only on top of its base"
        )));
    }
    let (schema, sizes, asrs) = snapshot_err("design", read_design(full.design))?;
    full.check_design_holds(asrs.len())?;
    for delta in deltas {
        if delta.header.base.is_none() {
            return Err(AsrError::Snapshot(
                "a full checkpoint is not a delta to apply".into(),
            ));
        }
        if delta.design != full.design {
            return Err(AsrError::Snapshot(
                "delta design section does not match the base database".into(),
            ));
        }
        delta.check_design_holds(asrs.len())?;
    }
    let changes = deltas.iter().map(|d| d.objects);
    let objects = snapshot_err("objects", read_chain_objects(full.objects, changes, schema))?;
    let mut images: Vec<AsrImages> = vec![Ok((Vec::new(), None)); asrs.len()];
    let mut bytes = vec![0; asrs.len()];
    for doc in std::iter::once(&full).chain(deltas) {
        for (k, &(payload, len)) in doc.asrs.iter().enumerate() {
            let before = std::mem::replace(&mut images[k], Ok((Vec::new(), None)));
            images[k] = advance(read_asr(payload), before);
            bytes[k] += len;
        }
    }
    let parsed = Parsed {
        sizes,
        asrs,
        images,
        bytes,
    };
    assemble(objects, parsed, FORMAT_VERSION, deltas.len())
}

/// One ASR frame's partitions as read: images (of a full document, or
/// shipped in place of a delta), or deltas over the base's partitions.
enum AsrSection {
    Full(Vec<PartitionImage>),
    Delta(Vec<PartitionDelta>),
}

/// An ASR's partition images after one more document: the section's
/// images, or the `before` images patched with its deltas.  Damage in the
/// section or in the patch is why the ASR cannot be restored; so is
/// damage earlier in a chain unless this section ships images.
fn advance(section: Decoded<AsrSection>, before: AsrImages) -> AsrImages {
    match section.map_err(|Damage(e)| e)? {
        AsrSection::Full(images) => Ok((images, None)),
        AsrSection::Delta(deltas) => {
            let (parts, _) = before?;
            if deltas.len() != parts.len() {
                return Err(format!(
                    "delta has {} partitions, base has {}",
                    deltas.len(),
                    parts.len()
                ));
            }
            let pages = (deltas.iter())
                .map(|d| d.fwd.pages.len() + d.bwd.pages.len())
                .sum();
            let images = (parts.into_iter().zip(deltas))
                .map(|(part, d)| part.apply_delta(d))
                .collect::<Result<_>>()
                .map_err(|e| e.to_string())?;
            Ok((images, Some(pages)))
        }
    }
}

/// The design frame: schema, sizes and ASR configurations.
type Design = (Schema, Vec<(String, usize)>, Vec<(String, AsrConfig)>);

fn read_design(payload: &[u8]) -> Decoded<Design> {
    let mut r = Reader::new(payload);
    let n = r.count(5)?;
    // Declare every name first so type ids follow the listing order.
    let mut schema = Schema::new();
    let mut defs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        schema.declare(&name)?;
        let kind = r.u8()?;
        let (sups, attrs, element) = match kind {
            0 => {
                let sups = (0..r.count(4)?)
                    .map(|_| r.str())
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                let k = r.count(8)?;
                let attrs = (0..k)
                    .map(|_| Ok((r.str()?, r.str()?)))
                    .collect::<Decoded<Vec<_>>>()?;
                (sups, attrs, String::new())
            }
            1 | 2 => (Vec::new(), Vec::new(), r.str()?),
            t => return Err(Damage(format!("bad type kind {t}"))),
        };
        defs.push((name, kind, sups, attrs, element));
    }
    for (name, kind, sups, attrs, element) in &defs {
        match kind {
            0 => {
                let attrs = attrs.iter().map(|(a, t)| (a.as_str(), t.as_str()));
                schema.define_tuple_sub(name, sups.iter().map(String::as_str), attrs)?
            }
            1 => schema.define_set(name, element)?,
            _ => schema.define_list(name, element)?,
        };
    }
    schema.validate()?;
    let sizes = (0..r.count(5)?)
        .map(|_| Ok((r.str()?, num(&mut r)?)))
        .collect::<Decoded<_>>()?;
    let asrs = (0..r.count(10)?)
        .map(|_| {
            let path = r.str()?;
            let ext = r.str()?;
            let extension = Extension::from_name(&ext)
                .ok_or_else(|| Damage(format!("unknown extension `{ext}`")))?;
            let cuts = (0..r.count(1)?)
                .map(|_| num(&mut r))
                .collect::<Decoded<Vec<_>>>()?;
            let config = AsrConfig {
                extension,
                decomposition: Decomposition::new(cuts)?,
                keep_set_oids: r.bool()?,
            };
            Ok((path, config))
        })
        .collect::<Decoded<_>>()?;
    r.finish()?;
    Ok((schema, sizes, asrs))
}

/// One ASR frame's partitions.
fn read_asr(payload: &[u8]) -> Decoded<AsrSection> {
    let mut r = Reader::new(payload);
    let over_empty = r.bool()?;
    let parts = (0..r.count(1)?)
        .map(|_| read_partition(&mut r))
        .collect::<Decoded<Vec<_>>>()?;
    r.finish()?;
    Ok(if over_empty {
        AsrSection::Full(parts.into_iter().map(PartitionDelta::into_image).collect())
    } else {
        AsrSection::Delta(parts)
    })
}

fn read_partition(r: &mut Reader<'_>) -> Decoded<PartitionDelta> {
    let start = r.position();
    let (from, to) = (num(r)?, num(r)?);
    let arity = to
        .checked_sub(from)
        .filter(|&width| width > 0)
        .and_then(|width| width.checked_add(1))
        .ok_or_else(|| Damage(format!("bad span ({from}, {to})")))?;
    let head = r.position() - start;
    let at = r.position();
    let fwd = read_tree(r, arity)?;
    let fwd_bytes = r.position() - at;
    let at = r.position();
    let bwd = read_tree(r, arity)?;
    let bwd_bytes = r.position() - at;
    if fwd.len != bwd.len {
        return Err(Damage(format!(
            "the forward tree holds {} rows, the backward {}",
            fwd.len, bwd.len
        )));
    }
    Ok(PartitionDelta {
        from,
        to,
        fwd,
        bwd,
        fwd_bytes: fwd_bytes + head / 2,
        bwd_bytes: bwd_bytes + (head - head / 2),
    })
}

/// One row's `arity` cells: an inner page's separator.
fn read_key(r: &mut Reader<'_>, arity: usize) -> Decoded<Box<[Option<Cell>]>> {
    Ok((0..arity)
        .map(|_| r.packed_cell())
        .collect::<std::result::Result<_, _>>()?)
}

/// One tree's geometry and listed pages, in ascending slot order, each
/// leaf's rows decoded straight into its page.
fn read_tree(r: &mut Reader<'_>, arity: usize) -> Decoded<TreeDelta> {
    let (root, height, len, total) = (num(r)?, num(r)?, num(r)?, num(r)?);
    let free = (0..r.count(1)?)
        .map(|_| num(r))
        .collect::<Decoded<Vec<_>>>()?;
    // Bound the slab before trusting it: a legal tree has at most ~2·len
    // live pages plus its free slots.
    if total > len.saturating_mul(2).saturating_add(free.len() + 8) {
        return Err(Damage(format!(
            "implausible page count {total} for {len} entries"
        )));
    }
    let n = r.count(2)?;
    let mut pages = Vec::with_capacity(n);
    for _ in 0..n {
        let slot = num(r)?;
        if slot >= total || pages.last().is_some_and(|&(last, _, _)| slot <= last) {
            return Err(Damage(format!("page {slot} out of order or past {total}")));
        }
        let at = r.position();
        let node = match r.u8()? {
            0 => NodeImage::Free,
            1 => {
                let children: Vec<usize> =
                    (0..r.count(1)?).map(|_| num(r)).collect::<Decoded<_>>()?;
                let keys = (1..children.len())
                    .map(|_| read_key(r, arity))
                    .collect::<Decoded<_>>()?;
                NodeImage::Inner { keys, children }
            }
            2 => {
                let next = r
                    .varint()?
                    .checked_sub(1)
                    .map(usize::try_from)
                    .transpose()?;
                let cells = r.count(arity)? * arity;
                let mut entries = Vec::with_capacity(cells);
                for _ in 0..cells {
                    entries.push(r.packed_cell()?);
                }
                NodeImage::Leaf { entries, next }
            }
            t => return Err(Damage(format!("bad page kind {t}"))),
        };
        let len = u32::try_from(r.position() - at).unwrap_or(0);
        pages.push((slot, node, len));
    }
    Ok(TreeDelta {
        root,
        height,
        len,
        free,
        total_nodes: total,
        pages,
    })
}

/// Each type's id and whether it is a tuple type, by its position in
/// the design frame's type list.
fn type_table(schema: &Schema) -> Vec<(TypeId, bool)> {
    (schema.types())
        .map(|(ty, def)| (ty, def.kind.is_tuple()))
        .collect()
}

/// One object record's OID, type and body; OIDs must ascend past `last`.
fn read_record(
    r: &mut Reader<'_>,
    types: &[(TypeId, bool)],
    last: Option<Oid>,
) -> Decoded<(Oid, TypeId, bool)> {
    let oid = Oid::from_raw(r.varint()?);
    if last.is_some_and(|last| oid <= last) {
        return Err(Damage(format!("object {oid} listed out of order")));
    }
    let (ty, tuple) = *types
        .get(num(r)?)
        .ok_or_else(|| Damage(format!("object {oid} has an unknown type")))?;
    Ok((oid, ty, tuple))
}

/// A listed object's body, decoded ahead of filing it.
enum Body {
    /// A tuple's non-`NULL` slots, ascending.
    Tuple(Vec<(usize, Value)>),
    /// A set's or list's members.
    Collection(Vec<Value>),
}

fn read_body(r: &mut Reader<'_>, oid: Oid, tuple: bool) -> Decoded<Body> {
    let n = r.count(if tuple { 2 } else { 1 })?;
    if !tuple {
        return (0..n)
            .map(|_| Ok(r.value()?))
            .collect::<Decoded<_>>()
            .map(Body::Collection);
    }
    let mut slots: Vec<(usize, Value)> = Vec::with_capacity(n);
    for _ in 0..n {
        let slot = num(r)?;
        if slots.last().is_some_and(|&(last, _)| slot <= last) {
            return Err(Damage(format!("object {oid}: slot {slot} out of order")));
        }
        slots.push((slot, r.value()?));
    }
    Ok(Body::Tuple(slots))
}

/// File object `oid` of type `ty` with its decoded `body`.
fn file(builder: &mut BaseBuilder, oid: Oid, ty: TypeId, body: Body) -> Decoded<()> {
    match body {
        Body::Tuple(values) => builder.tuple(oid, ty, |slots: &mut [Value]| {
            for (slot, value) in values {
                *slots
                    .get_mut(slot)
                    .ok_or_else(|| Damage(format!("object {oid}: no slot {slot}")))? = value;
            }
            Ok(())
        }),
        Body::Collection(elements) => Ok(builder.collection(oid, ty, elements)?),
    }
}

/// What the deltas of a chain leave of one OID, merged oldest first.
struct Fate {
    /// The newest listing's type and body; `None` when the newest mention
    /// deletes the object.
    listed: Option<(TypeId, Body)>,
    /// The type the OID was listed under when the chain first mentioned
    /// it by a listing: were it live in the full document, it must be
    /// under that type.
    over_full: Option<TypeId>,
}

/// A delta's objects frame, merged into `fates` and `vars`: a deleted OID
/// is dead unless a later delta lists it; a listed object replaces the
/// one before it, which, if it is live, must be of the same type.
/// Returns the object count the delta promises.
fn merge_delta_objects(
    payload: &[u8],
    types: &[(TypeId, bool)],
    fates: &mut BTreeMap<Oid, Fate>,
    vars: &mut HashMap<String, Value>,
) -> Decoded<usize> {
    let mut r = Reader::new(payload);
    let total = num(&mut r)?;
    let dead = (0..r.count(1)?)
        .map(|_| Ok(Oid::from_raw(r.varint()?)))
        .collect::<Decoded<Vec<_>>>()?;
    if dead.windows(2).any(|w| w[0] >= w[1]) {
        return Err(Damage("deleted OIDs out of order".into()));
    }
    for oid in dead {
        (fates.entry(oid))
            .and_modify(|fate| fate.listed = None)
            .or_insert(Fate {
                listed: None,
                over_full: None,
            });
    }
    let mut last = None;
    for _ in 0..r.count(3)? {
        let (oid, ty, tuple) = read_record(&mut r, types, last)?;
        last = Some(oid);
        let body = read_body(&mut r, oid, tuple)?;
        match fates.entry(oid) {
            Entry::Vacant(e) => {
                e.insert(Fate {
                    listed: Some((ty, body)),
                    over_full: Some(ty),
                });
            }
            Entry::Occupied(mut e) => {
                if let Some((live, _)) = e.get().listed.as_ref().filter(|(live, _)| *live != ty) {
                    return Err(retyped(oid, *live, ty));
                }
                e.get_mut().listed = Some((ty, body));
            }
        }
    }
    for _ in 0..r.count(5)? {
        vars.insert(r.str()?, r.value()?);
    }
    r.finish()?;
    Ok(total)
}

/// A delta lists live object `oid` of type `live` under type `listed`.
fn retyped(oid: Oid, live: TypeId, listed: TypeId) -> Damage {
    Damage(format!(
        "object {oid} of type #{} is listed as type #{}",
        live.index(),
        listed.index()
    ))
}

/// The objects of a chain: the full document's objects frame `full`,
/// decoded against `schema` (whose defined types are listed in the design
/// frame's order) straight into the object base it describes, with the
/// deltas' frames `deltas` (oldest first) merged over it in the same
/// pass.  OIDs, a tuple's slots and a set's members are listed strictly
/// ascending, and each body is the structure of its type.  A frame's
/// checksum only proves that the bytes are the ones written, so
/// [`BaseBuilder`] type-checks every value as it builds the base.  A
/// deleted OID the chain does not hold was created after its base and
/// never shipped.
fn read_chain_objects<'a>(
    full: &[u8],
    deltas: impl Iterator<Item = &'a [u8]>,
    schema: Schema,
) -> Decoded<ObjectBase> {
    let types = type_table(&schema);
    let mut fates = BTreeMap::new();
    let mut delta_vars = HashMap::new();
    let mut total = None;
    for payload in deltas {
        total = Some(merge_delta_objects(
            payload,
            &types,
            &mut fates,
            &mut delta_vars,
        )?);
    }
    let mut r = Reader::new(full);
    let promised = num(&mut r)?;
    let dead = r.count(1)?;
    let n = r.count(3)?;
    if dead != 0 || n != promised {
        return Err(Damage(format!(
            "{n} objects listed, {promised} promised, {dead} deleted from the empty base",
        )));
    }
    let total = total.unwrap_or(promised);
    let mut builder = BaseBuilder::new(schema, total.min(n + fates.len()));
    let mut fates = fates.into_iter().peekable();
    // File the chain's listings below `oid` (all of them when `None`),
    // then hand over what it did to `oid`.
    let mut listed_below = |builder: &mut BaseBuilder, oid: Option<Oid>| -> Decoded<Option<Fate>> {
        while let Some((at, fate)) = fates.next_if(|(at, _)| oid.is_none_or(|oid| *at < oid)) {
            if let Some((ty, body)) = fate.listed {
                file(builder, at, ty, body)?;
            }
        }
        Ok(oid
            .and_then(|oid| fates.next_if(|(at, _)| *at == oid))
            .map(|(_, fate)| fate))
    };
    let mut last = None;
    for _ in 0..n {
        let (oid, ty, tuple) = read_record(&mut r, &types, last)?;
        last = Some(oid);
        let Some(fate) = listed_below(&mut builder, Some(oid))? else {
            if tuple {
                builder.tuple(oid, ty, |slots| read_slots(&mut r, oid, slots))?;
            } else {
                let n = r.count(1)?;
                let mut elements = Vec::with_capacity(n);
                for _ in 0..n {
                    elements.push(r.value()?);
                }
                builder.collection(oid, ty, elements)?;
            }
            continue;
        };
        // A delta replaced or deleted it: its record here is superseded.
        read_body(&mut r, oid, tuple)?;
        if let Some(listed) = fate.over_full.filter(|&listed| listed != ty) {
            return Err(retyped(oid, ty, listed));
        }
        if let Some((ty, body)) = fate.listed {
            file(&mut builder, oid, ty, body)?;
        }
    }
    listed_below(&mut builder, None)?;
    if builder.len() != total {
        return Err(Damage(format!(
            "patched base has {} objects, delta expects {total}",
            builder.len()
        )));
    }
    let mut vars = HashMap::new();
    for _ in 0..r.count(5)? {
        vars.insert(r.str()?, r.value()?);
    }
    r.finish()?;
    vars.extend(delta_vars);
    Ok(builder.finish(vars)?)
}

/// A tuple's non-`NULL` slots, each index above the one before.
fn read_slots(r: &mut Reader<'_>, oid: Oid, slots: &mut [Value]) -> Decoded<()> {
    let mut next = 0;
    for _ in 0..r.count(2)? {
        let slot = num(r)?;
        if slot >= slots.len() {
            return Err(Damage(format!("object {oid}: no slot {slot}")));
        }
        if slot < next {
            return Err(Damage(format!("object {oid}: slot {slot} out of order")));
        }
        slots[slot] = r.value()?;
        next = slot + 1;
    }
    Ok(())
}
