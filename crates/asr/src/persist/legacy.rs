//! The retired text snapshot grammars, read-only: `ASRDB 1` (design and
//! object base; every ASR rebuilds on load) and `ASRDB 2` (plus each
//! stored partition's rows and page images).  Nothing writes them any
//! more; they stay readable so that documents written before the binary
//! checkpoint format ([`super`]) still load.
//!
//! ```text
//! ASRDB 2
//! S ROBOT 500
//! A ROBOT.Arm.MountedTool.ManufacturedBy.Location canonical 0,1,2,3,4 0
//! P <asr#> <part#> <from> <to> <next_rowid> <nrows>
//! R <rowid> <count> <cell> <cell> …
//! T <asr#> <part#> f|b <root> <height> <len> <pages> <free-csv|->
//! N f|b <page#> I <children-csv> <cell>=<rowid> …
//! N f|b <page#> L <next|-> <rowid-csv|->
//! --BASE--
//! GOMSNAP 1
//! …
//! ```
//!
//! A partition comes back from its `R` rows, bulk-loaded as one is built
//! today; its `T`/`N` pages are read for the row ids their leaves list,
//! which must be exactly the rows', once each per tree.  The `R` line's
//! second field is a retired witness count: it must be a positive number
//! and is otherwise ignored.  A malformed physical line poisons only the
//! ASR it belongs to, which then rebuilds from the object base with the
//! reason recorded — never a panic.

use std::collections::BTreeMap;

use asr_gom::snapshot;

use super::Parsed;
use crate::cell::Cell;
use crate::decomposition::Decomposition;
use crate::error::{AsrError, Result};
use crate::extension::Extension;
use crate::manager::AsrConfig;
use crate::partition::{fresh_stats, PartitionImage, StoredPartition};
use crate::row::Row;

const MAGIC_V1: &str = "ASRDB 1";
const MAGIC_V2: &str = "ASRDB 2";
const BASE_MARKER: &str = "--BASE--\n";

/// Does `bytes` open with a text snapshot's magic line?
pub(crate) fn is_text(bytes: &[u8]) -> bool {
    bytes.starts_with(b"ASRDB ")
}

/// Read an `ASRDB 1`/`ASRDB 2` document: its version, object base and
/// the parts [`super::assemble`] assembles a database from.
pub(crate) fn read(bytes: &[u8]) -> Result<(u32, asr_gom::ObjectBase, Parsed)> {
    let bad = |msg: String| AsrError::Snapshot(msg);
    let text = std::str::from_utf8(bytes).map_err(|_| bad("text snapshot is not UTF-8".into()))?;
    let (head, base_text) = text
        .split_once(BASE_MARKER)
        .ok_or_else(|| bad("missing --BASE-- marker".into()))?;
    let mut lines = head.lines();
    let first = lines.next().ok_or_else(|| bad("empty snapshot".into()))?;
    let version = match first.trim() {
        MAGIC_V1 => 1,
        MAGIC_V2 => 2,
        other => return Err(bad(format!("bad magic `{other}`"))),
    };
    let base = snapshot::read_base(base_text)?;
    let mut sizes = Vec::new();
    let mut asrs = Vec::new();
    let mut sections = Sections {
        head_len: head.len(),
        ..Sections::default()
    };
    for line in lines {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tag = line.split(' ').next().unwrap_or("");
        match tag {
            "S" => sizes.push(parse_s_line(line)?),
            "A" => asrs.push(parse_a_line(line)?),
            "P" | "R" | "T" | "N" if version == 2 => sections.feed(tag, line)?,
            other => return Err(bad(format!("unknown record `{other}`"))),
        }
    }
    sections.finalize_current();
    if let Some(&k) = (sections.done.keys())
        .chain(sections.poisoned.keys())
        .find(|&&k| k >= asrs.len())
    {
        return Err(bad(format!(
            "physical section references ASR {k} but only {} declared",
            asrs.len()
        )));
    }
    let bytes = (0..asrs.len())
        .map(|ordinal| sections.bytes.get(&ordinal).copied().unwrap_or(0))
        .collect();
    let images = (0..asrs.len())
        .map(|ordinal| {
            match (
                sections.poisoned.remove(&ordinal),
                sections.done.remove(&ordinal),
            ) {
                _ if version == 1 => Err("v1 snapshot".to_string()),
                (Some(reason), _) => Err(reason),
                (None, Some(images)) => Ok((images, None)),
                (None, None) => Err("no physical section for this ASR".into()),
            }
        })
        .collect();
    Ok((
        version,
        base,
        Parsed {
            sizes,
            asrs,
            images,
            bytes,
        },
    ))
}

/// `S <type> <size>`.
fn parse_s_line(line: &str) -> Result<(String, usize)> {
    let bad = |msg: &str| AsrError::Snapshot(msg.into());
    let mut parts = line.splitn(3, ' ').skip(1);
    let name = parts.next().ok_or_else(|| bad("S: missing type"))?;
    let size = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("S: bad size"))?;
    Ok((name.to_string(), size))
}

/// `A <dotted-path> <extension> <cuts-csv> <keep 0|1>`.
fn parse_a_line(line: &str) -> Result<(String, AsrConfig)> {
    let bad = |msg: String| AsrError::Snapshot(msg);
    let mut parts = line.split(' ').skip(1);
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
    Ok((
        dotted.to_string(),
        AsrConfig {
            extension,
            decomposition: Decomposition::new(cuts)?,
            keep_set_oids: keep,
        },
    ))
}

/// Parse a `-`-or-CSV token; `what` names an element in errors.
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

/// Decode a cell token (the GOM value codec; `N` is a NULL cell).
fn parse_cell(tok: &str) -> Result<Option<Cell>> {
    Ok(Cell::from_gom_owned(snapshot::decode_value(tok)?))
}

/// Parse an `R` line of `arity` cells: its row id and row.
fn parse_r_line(line: &str, arity: usize) -> std::result::Result<(u64, Row), String> {
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
    let cells = it
        .map(parse_cell)
        .collect::<Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    if cells.len() != arity {
        return Err(format!("R: {} cells for arity {arity}", cells.len()));
    }
    Ok((rowid, Row::new(cells)))
}

/// The row ids an `N` line's page lists: none for an inner page (whose
/// fields are checked and dropped), its entries' for a leaf.
fn parse_node_body<'a>(
    kind: &str,
    mut rest: impl Iterator<Item = &'a str>,
) -> std::result::Result<Vec<u64>, String> {
    match kind {
        "I" => {
            let kids = rest.next().ok_or("N I record too short")?;
            parse_csv_or_dash::<usize>(kids, "child")?;
            for tok in rest {
                let (cell, rowid) = tok
                    .rsplit_once('=')
                    .ok_or_else(|| format!("bad key `{tok}`"))?;
                rowid
                    .parse::<u64>()
                    .map_err(|_| format!("bad key row id `{rowid}`"))?;
                parse_cell(cell).map_err(|e| e.to_string())?;
            }
            Ok(Vec::new())
        }
        "L" => {
            let (sibling, ids) = (rest.next(), rest.next());
            let extra = rest.count();
            let (Some(sibling), Some(ids), 0) = (sibling, ids, extra) else {
                let fields =
                    4 + usize::from(sibling.is_some()) + usize::from(ids.is_some()) + extra;
                return Err(format!("N L record has {fields} fields, expected 6"));
            };
            if sibling != "-" {
                sibling
                    .parse::<usize>()
                    .map_err(|_| format!("bad sibling `{sibling}`"))?;
            }
            parse_csv_or_dash(ids, "row id")
        }
        other => Err(format!("bad page kind `{other}`")),
    }
}

/// The partition-section reader.  A malformed line poisons the ASR it
/// belongs to instead of failing at once; only lines with no attributable
/// ASR abort the load.
#[derive(Default)]
struct Sections {
    /// Completed images per `A`-line ordinal.
    done: BTreeMap<usize, Vec<PartitionImage>>,
    /// Section bytes per ordinal (newlines included).
    bytes: BTreeMap<usize, usize>,
    /// Poison reason per ordinal (first error wins).
    poisoned: BTreeMap<usize, String>,
    /// Partition currently being assembled.
    current: Option<PartBuilder>,
    /// Skip body lines until the next `P` record (after a poisoning).
    skipping: bool,
    /// Ordinal of the most recent `P` record.
    last_asr: Option<usize>,
    /// Bytes of `last_asr`'s lines not yet added to `bytes`.
    pending_bytes: usize,
    /// Bytes in the document head, which bound the rows a section lists.
    head_len: usize,
}

impl Sections {
    fn feed(&mut self, tag: &str, line: &str) -> Result<()> {
        if tag == "P" {
            self.finalize_current();
            match PartBuilder::open(line, &self.done, self.head_len) {
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
                            "first P record unreadable: {e}"
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
        match pb.finish() {
            Ok(image) => self.done.entry(asr).or_default().push(image),
            Err(e) => self.poison(asr, e),
        }
    }
}

/// One partition under construction: `P`, its `R` rows and its `T`/`N`
/// trees.
struct PartBuilder {
    asr: usize,
    from: usize,
    to: usize,
    next_rowid: u64,
    nrows: usize,
    /// Each `R` line's row id, and its row.
    ids: Vec<u64>,
    rows: Vec<Row>,
    /// The forward and the backward tree, once its `T` header is read.
    trees: [Option<TextTree>; 2],
    /// Serialized bytes of the header and `R` lines — split between the
    /// two trees for restore-read pricing.
    row_bytes: usize,
}

/// One tree of a partition section, as far as it is read.
struct TextTree {
    /// Slab size its header declares, and how many of its slots are free.
    total: usize,
    free: usize,
    /// Its `N` lines' page ids.
    pages: Vec<usize>,
    /// The row ids its leaves list.
    leaf_ids: Vec<u64>,
    /// Bytes its lines take.
    bytes: usize,
}

impl PartBuilder {
    /// Open a section from its `P <asr#> <part#> <from> <to> <next_rowid>
    /// <nrows>` header.  Partitions arrive in order: `done` says which
    /// index each ASR expects next.  The promised rows get room up front,
    /// as far as a head of `head_len` bytes can hold them.
    fn open(
        line: &str,
        done: &BTreeMap<usize, Vec<PartitionImage>>,
        head_len: usize,
    ) -> std::result::Result<PartBuilder, String> {
        let t: Vec<&str> = line.split(' ').collect();
        if t.len() != 7 {
            return Err(format!("P record has {} fields, expected 7", t.len()));
        }
        let num = |s: &str| s.parse::<usize>().map_err(|_| format!("bad number `{s}`"));
        let asr = num(t[1])?;
        let pidx = num(t[2])?;
        let expected = done.get(&asr).map_or(0, Vec::len);
        if pidx != expected {
            return Err(format!(
                "partition {pidx} out of order (expected {expected})"
            ));
        }
        let (from, to) = (num(t[3])?, num(t[4])?);
        let arity = to
            .checked_sub(from)
            .filter(|&width| width > 0)
            .and_then(|width| width.checked_add(1))
            .ok_or_else(|| format!("bad span ({from}, {to})"))?;
        let nrows = num(t[6])?;
        let capacity = nrows.min(head_len / arity.saturating_mul(2));
        Ok(PartBuilder {
            asr,
            from,
            to,
            next_rowid: t[5].parse().map_err(|_| format!("bad number `{}`", t[5]))?,
            nrows,
            ids: Vec::with_capacity(capacity),
            rows: Vec::with_capacity(capacity),
            trees: [None, None],
            row_bytes: line.len() + 1,
        })
    }

    /// One body line: `R`, `T`, or an `N` page of the last tree header.
    fn body_line(&mut self, tag: &str, line: &str) -> std::result::Result<(), String> {
        match tag {
            "R" => {
                let (rowid, row) = parse_r_line(line, self.to - self.from + 1)?;
                self.ids.push(rowid);
                self.rows.push(row);
                self.row_bytes += line.len() + 1;
            }
            "T" => self.tree_header(line)?,
            "N" => self.page(line)?,
            other => return Err(format!("unknown physical record `{other}`")),
        }
        Ok(())
    }

    /// The slot of the tree of direction `f` or `b`.
    fn tree(&mut self, dir: &str) -> std::result::Result<&mut Option<TextTree>, String> {
        match dir {
            "f" => Ok(&mut self.trees[0]),
            "b" => Ok(&mut self.trees[1]),
            other => Err(format!("bad tree direction `{other}`")),
        }
    }

    /// A `T <asr#> <part#> f|b <root> <height> <len> <pages> <free>`
    /// header.
    fn tree_header(&mut self, line: &str) -> std::result::Result<(), String> {
        let t: Vec<&str> = line.split(' ').collect();
        if t.len() != 9 {
            return Err(format!("T record has {} fields, expected 9", t.len()));
        }
        let num = |s: &str| s.parse::<usize>().map_err(|_| format!("bad number `{s}`"));
        let free: Vec<usize> = parse_csv_or_dash(t[8], "number")?;
        let (root, len, total) = (num(t[4])?, num(t[6])?, num(t[7])?);
        num(t[5])?;
        if root >= total {
            return Err(format!("root {root} out of bounds ({total} pages)"));
        }
        // The trees index exactly the rows listed before them, which ties
        // `len` (and through it the slab) to the input's size.
        let rows = self.rows.len();
        if len != rows {
            return Err(format!("{len} tree entries for {rows} rows"));
        }
        // Bound the slab before trusting the field: a legal tree has at
        // most ~2·len live pages plus its free slots.
        if total > len.saturating_mul(2).saturating_add(free.len() + 8) {
            return Err(format!("implausible page count {total} for {len} entries"));
        }
        let tree = self.tree(t[3])?;
        if tree.is_some() {
            return Err(format!("duplicate {} tree", t[3]));
        }
        *tree = Some(TextTree {
            total,
            free: free.len(),
            pages: Vec::new(),
            leaf_ids: Vec::new(),
            bytes: line.len() + 1,
        });
        Ok(())
    }

    /// An `N f|b <page#> I|L …` page of the tree whose header preceded it.
    fn page(&mut self, line: &str) -> std::result::Result<(), String> {
        let mut t = line.split(' ');
        let (Some(_), Some(dir), Some(id), Some(kind)) = (t.next(), t.next(), t.next(), t.next())
        else {
            return Err("N record too short".into());
        };
        let tree = self
            .tree(dir)?
            .as_mut()
            .ok_or("N record before its T header")?;
        tree.bytes += line.len() + 1;
        let id: usize = id.parse().map_err(|_| format!("bad page id `{id}`"))?;
        if id >= tree.total {
            return Err(format!("page id {id} out of bounds"));
        }
        tree.pages.push(id);
        tree.leaf_ids.extend(parse_node_body(kind, t)?);
        Ok(())
    }

    /// Close the section: check the row count its header promised, that
    /// no page is written twice and that each tree's leaves list every
    /// row id once, then bulk-load the rows and split the row bytes
    /// evenly between the two trees (each tree's restore read is priced
    /// on its share).
    fn finish(self) -> std::result::Result<PartitionImage, String> {
        if self.rows.len() != self.nrows {
            return Err(format!(
                "partition has {} R rows, expected {}",
                self.rows.len(),
                self.nrows
            ));
        }
        let mut ids = self.ids;
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("row id {} appears twice", w[0]));
        }
        if ids.last().is_some_and(|&id| id >= self.next_rowid) {
            return Err(format!("row id {} >= next_rowid", ids[ids.len() - 1]));
        }
        let [Some(mut fwd), Some(mut bwd)] = self.trees else {
            return Err("partition is missing a tree image".into());
        };
        for (dir, tree) in [("f", &mut fwd), ("b", &mut bwd)] {
            tree.pages.sort_unstable();
            if let Some(w) = tree.pages.windows(2).find(|w| w[0] == w[1]) {
                return Err(format!("page {} written twice", w[0]));
            }
            if tree.pages.len() + tree.free != tree.total {
                return Err(format!(
                    "the {dir} tree lists {} pages and {} free slots of {}",
                    tree.pages.len(),
                    tree.free,
                    tree.total
                ));
            }
            tree.leaf_ids.sort_unstable();
            if let Some(w) = tree.leaf_ids.windows(2).find(|w| w[0] == w[1]) {
                return Err(format!("the {dir} leaves name row id {} twice", w[0]));
            }
            if let Some(id) = tree
                .leaf_ids
                .iter()
                .find(|id| ids.binary_search(id).is_err())
            {
                return Err(format!("a {dir} leaf names unknown row id {id}"));
            }
            if tree.leaf_ids.len() != ids.len() {
                return Err(format!("the {dir} leaves leave rows out"));
            }
        }
        let mut sorted: Vec<&Row> = self.rows.iter().collect();
        sorted.sort_unstable();
        let twice = sorted.windows(2).filter(|w| w[0] == w[1]).count();
        if twice > 0 {
            return Err(format!("{twice} rows listed twice under different row ids"));
        }
        let mut part = StoredPartition::new(self.from, self.to, fresh_stats());
        part.bulk_load(self.rows).map_err(|e| e.to_string())?;
        let mut image = part.dump();
        let half = self.row_bytes / 2;
        image.fwd_bytes = fwd.bytes + half;
        image.bwd_bytes = bwd.bytes + (self.row_bytes - half);
        Ok(image)
    }
}
