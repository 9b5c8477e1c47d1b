//! Incremental maintenance of access support relations under object
//! updates (Section 6 of the paper).
//!
//! Every structural update decomposes into **edge events** at a path step
//! `p`: an edge `owner →_{A_p} target` is *added* or *removed*, or a
//! set-valued attribute transitions to/from the empty set (a **marker**
//! event, Definition 3.3's `(id(o_{j-1}), id(o'_j), NULL)` tuple).
//!
//! A stored partition is a *set* of projections (Definition 3.8), so
//! maintenance writes each partition's own delta and never builds an
//! extension row.  The extension rows an event adds or removes are
//! `I_l × edge × I_r`: the paper's maximal **prefixes** ending at the
//! owner (`I_l`) and maximal **suffixes** starting at the target (`I_r`).
//! *Where* they come from is the extension-specific economics of formula
//! (36):
//!
//! | extension | prefixes `I_l`            | suffixes `I_r`            |
//! |-----------|---------------------------|---------------------------|
//! | full      | the step's partition      | the step's partition      |
//! | left      | ASR lookup                | forward search in data    |
//! | right     | backward search (scans)   | ASR lookup                |
//! | canonical | backward search (scans)   | forward search in data    |
//!
//! with the paper's conditioning: the expensive search is skipped whenever
//! the cheap side already proves no admitted row can change (e.g. for the
//! right-complete extension nothing changes unless `target` reaches `t_n`).
//! The full extension needs only the owner's and the target's rows in the
//! partition holding the step: as sets, every other partition already
//! holds its projections.
//!
//! **The step's partition** (the one spanning columns `c_{p-1} … c_p`)
//! takes the delta directly, as a product of the prefixes' and suffixes'
//! projections onto its span: on an addition the owner's `(…, o, ⊥)` rows
//! (if it was bare) and the target's `(⊥, e, …)` rows come out and the
//! new `o…e` segments go in; on a removal the `o…e` segments come out and
//! the owner's bare rows and the target's left-maximal rows come back
//! where the extension has them.  Every such row contains the changed
//! edge (or stop), so nothing else can witness it.
//!
//! **Every other partition** changes only through a border cell.  A
//! partition's rows that meet a neighbour at a shared column `c` in cell
//! `y` depend on the rest of the path only through whether `y` appears at
//! column `c` at all; so a partition further out gains or loses the whole
//! cluster of `y` exactly when that flips.  One charged probe decides it:
//! of the neighbour not yet written (did `y` appear before?) for a cell
//! the nearer partition gained, of the nearer partition (does `y` still
//! appear?) for a cell it lost.  The walk goes outward from the step and
//! stops at the first partition where nothing flips.  A gained cluster is
//! the projections of the event's new rows; a lost one is what the probe
//! found.  Reachability from `t_0` cannot change left of the step, nor
//! reachability to `t_n` right of it, so the left-complete extension walks
//! only rightward and the right-complete one only leftward; for the full
//! extension only the owner (leftward) and the target (rightward) can
//! flip, when they enter or leave the extension.  Removals are decided by
//! these probes, never by counting.
//!
//! When set OIDs are kept and a cut falls on the set column of the
//! updated step, the edge's rows meet at that column: the owner's side
//! holds `(…, o, s)`, the target's `(s, e, …)`.  The side the event
//! detached (the member, or the owner's hold on the set, read off the
//! object base) loses its rows outright; the other keeps them while the
//! set still meets the first side, which one probe of that side's tree
//! on `s` decides.  Property tests verify `incremental ≡ rebuild`,
//! partition by partition.

use std::collections::BTreeSet;

use asr_gom::{ObjectBase, Oid};

use crate::cell::Cell;
use crate::error::Result;
use crate::extension::Extension;
use crate::manager::AccessSupportRelation;
use crate::naive;
use crate::partition::StoredPartition;
use crate::query;
use crate::row::Row;
use crate::store::ObjectStore;

/// One edge event at path step `step` (1-based).
#[derive(Debug, Clone)]
pub struct EdgeEvent {
    /// The step `p` whose attribute `A_p` changed.
    pub step: usize,
    /// The object `o_{p-1}` owning the attribute.
    pub owner: Oid,
    /// The set instance traversed, for set occurrences.
    pub set: Option<Oid>,
    /// The referenced target (OID or terminal value); `None` for a marker
    /// event (empty-set attach/detach).
    pub target: Option<Cell>,
}

/// An extension row known only as the pieces the delta rules work with —
/// a prefix ending at the owner, the edge's set cell, a suffix starting
/// at the target — each placed at its first column.  Columns no piece
/// covers read NULL.  Only projections of it are ever built.
#[derive(Clone, Copy)]
struct Spliced<'a>([(usize, &'a [Option<Cell>]); 3]);

const NULL: Option<Cell> = None;

impl<'a> Spliced<'a> {
    fn new(pieces: &[(usize, &'a [Option<Cell>])]) -> Self {
        let mut all = [(0, &[][..]); 3];
        all[..pieces.len()].copy_from_slice(pieces);
        Spliced(all)
    }

    fn cell(&self, col: usize) -> &Option<Cell> {
        self.0
            .iter()
            .find(|(start, cells)| (*start..start + cells.len()).contains(&col))
            .map_or(&NULL, |(start, cells)| &cells[col - start])
    }

    /// The projection onto columns `a ..= b`.
    fn project(&self, a: usize, b: usize) -> Row {
        Row::new((a..=b).map(|c| self.cell(c).clone()).collect())
    }
}

/// Context needed to decide extension membership of candidate rows.
struct Admission<'a> {
    ext: Extension,
    m: usize,
    base: &'a ObjectBase,
    path: &'a asr_gom::PathExpression,
    keep: bool,
}

impl Admission<'_> {
    /// Does `row` belong to the extension?
    ///
    /// These characterizations follow the *mechanical* join definitions
    /// (Definitions 3.4–3.7), including their subtle corner: an empty-set
    /// **marker** tuple in the last auxiliary relation `E_{n-1}` survives
    /// both the natural-join chain (canonical) and the right-outer fold
    /// (right-complete) with a NULL final column.  In the set-OID-free
    /// form a marker row and a row that merely *stops* at `t_{n-1}`
    /// (undefined attribute) have the same shape, so the decision consults
    /// the object base: the row counts as a marker iff the position-`n−1`
    /// object's last attribute is defined (an attached-but-empty set).
    fn admitted(&self, row: &Spliced<'_>) -> bool {
        let m = self.m;
        if (0..=m).all(|c| row.cell(c).is_none()) {
            return false;
        }
        match self.ext {
            Extension::Full => true,
            Extension::LeftComplete => row.cell(0).is_some(),
            Extension::Canonical => {
                (0..m).all(|c| row.cell(c).is_some())
                    && (row.cell(m).is_some() || self.last_stop_is_marker(row))
            }
            Extension::RightComplete => {
                row.cell(m).is_some()
                    || (row.cell(m.saturating_sub(1)).is_some() && self.last_stop_is_marker(row))
            }
        }
    }

    /// For a row with a NULL final column whose defined region reaches
    /// column `m−1`: did the path stop in an *empty set* at the last step
    /// (auxiliary marker tuple ⇒ row exists) or at an undefined attribute
    /// (⇒ row does not exist)?
    fn last_stop_is_marker(&self, row: &Spliced<'_>) -> bool {
        let n = self.path.len();
        let last_step = &self.path.steps()[n - 1];
        if !last_step.is_set_occurrence() {
            return false; // single-valued: no marker tuples exist
        }
        if self.keep {
            // The set-OID column disambiguates structurally.
            return row.cell(self.m - 1).is_some();
        }
        let owner_col = self.path.column_of(n - 1, self.keep);
        let Some(Cell::Oid(owner)) = row.cell(owner_col) else {
            return false;
        };
        self.base
            .get_attribute(*owner, &last_step.attr)
            .map(|v| !v.is_null())
            .unwrap_or(false)
    }
}

/// The rows of `part` whose cell at partition column `offset` is `cell`:
/// a charged clustered probe at either border, a charged scan inside.
fn rows_at(part: &StoredPartition, offset: usize, cell: &Cell) -> Vec<Row> {
    if offset == 0 {
        part.lookup_first(cell)
    } else if offset + 1 == part.arity() {
        part.lookup_last(cell)
    } else {
        let mut rows = Vec::new();
        part.scan(|row| {
            if row.cell(offset).as_ref() == Some(cell) {
                rows.push(row.to_row());
            }
        });
        rows
    }
}

/// The distinct projections onto partition columns `from ..= to` of the
/// rows of `part` holding `cell` at partition column `at`; when there are
/// none, the one row holding only `cell` (at column `at − from`).  A
/// one-column span is `cell` itself, and no probe is needed.
fn local_segments(
    part: &StoredPartition,
    at: usize,
    cell: &Cell,
    from: usize,
    to: usize,
) -> Vec<Row> {
    if from < to {
        let found: BTreeSet<Row> = rows_at(part, at, cell)
            .iter()
            .map(|row| row.project(from, to))
            .collect();
        if !found.is_empty() {
            return found.into_iter().collect();
        }
    }
    let mut cells = vec![None; to - from + 1];
    cells[at - from] = Some(cell.clone());
    vec![Row::new(cells)]
}

/// What one partition gained and lost in an event.
#[derive(Clone, Default)]
struct Written {
    inserted: Vec<Row>,
    removed: Vec<Row>,
}

impl Written {
    /// Insert or remove `row`, noting it when `part` changed.
    fn apply(&mut self, part: &mut StoredPartition, row: Row, insert: bool) -> Result<()> {
        if insert && part.insert(row.clone())? {
            self.inserted.push(row);
        } else if !insert && part.remove(&row)? {
            self.removed.push(row);
        }
        Ok(())
    }

    /// Insert or remove the projection of `r` onto `part`'s span.
    fn write(&mut self, part: &mut StoredPartition, r: &Spliced<'_>, insert: bool) -> Result<()> {
        let (a, b) = part.span();
        self.apply(part, r.project(a, b), insert)
    }
}

/// The rows of `part` whose first (`first`) or last cell is `y`: one
/// charged clustered probe.
fn border_rows(part: &StoredPartition, first: bool, y: &Cell) -> Vec<Row> {
    if first {
        part.lookup_first(y)
    } else {
        part.lookup_last(y)
    }
}

/// Carry the step partition's changes outward, one partition at a time
/// (see the module doc): from partition `near`, which took `written`,
/// towards column 0 (`leftward`) or column `m`.  A gained cluster is the
/// projections of `new_rows` through the cell.
fn walk_outward(
    parts: &mut [StoredPartition],
    mut near: usize,
    leftward: bool,
    mut written: Written,
    new_rows: &[Spliced<'_>],
) -> Result<()> {
    while !(written.inserted.is_empty() && written.removed.is_empty()) {
        let far = if leftward {
            near.checked_sub(1)
        } else {
            Some(near + 1)
        };
        let Some(far) = far.filter(|&far| far < parts.len()) else {
            break;
        };
        let ((na, nb), (fa, fb)) = (parts[near].span(), parts[far].span());
        let (border, offset) = if leftward { (na, 0) } else { (nb, nb - na) };
        let cells = |rows: &[Row]| -> BTreeSet<Cell> {
            rows.iter().filter_map(|r| r.cell(offset).clone()).collect()
        };
        let (gained, lost) = (cells(&written.inserted), cells(&written.removed));
        let mut next = Written::default();
        for y in lost.difference(&gained) {
            // Does `y` still meet the far partition?
            if border_rows(&parts[near], leftward, y).is_empty() {
                for row in border_rows(&parts[far], !leftward, y) {
                    next.apply(&mut parts[far], row, false)?;
                }
            }
        }
        for y in gained.difference(&lost) {
            // Did `y` meet the near partition before?
            if border_rows(&parts[far], !leftward, y).is_empty() {
                for row in new_rows
                    .iter()
                    .filter(|r| r.cell(border).as_ref() == Some(y))
                {
                    next.apply(&mut parts[far], row.project(fa, fb), true)?;
                }
            }
        }
        (written, near) = (next, far);
    }
    Ok(())
}

/// Apply one edge event to an access support relation.
///
/// `owner_bare_before` / `owner_bare_after` report whether the owner's
/// `A_p` attribute was / is entirely undefined (`NULL`) around this event —
/// the state in which the extension holds rows *ending bare* at the owner.
/// Marker (empty-set) states are communicated through explicit marker
/// events instead (`target = None`).
#[allow(clippy::too_many_arguments)]
pub fn maintain_edge(
    asr: &mut AccessSupportRelation,
    base: &ObjectBase,
    store: &ObjectStore,
    event: &EdgeEvent,
    added: bool,
    owner_bare_before: bool,
    owner_bare_after: bool,
) -> Result<()> {
    let ext = asr.config().extension;
    let keep = asr.config().keep_set_oids;
    let path = asr.path().clone();
    let dec = asr.config().decomposition.clone();
    let n = path.len();
    let p = event.step;
    debug_assert!((1..=n).contains(&p));
    let cl = path.column_of(p - 1, keep);
    let ce = path.column_of(p, keep);
    let m = path.arity(keep) - 1;
    let adm = Admission {
        ext,
        m,
        base,
        path: &path,
        keep,
    };

    // Marker events at *interior* steps never reach the canonical /
    // right-complete extensions (the NULL breaks every later join).  A
    // marker at the **last** step, however, survives both (see
    // [`Admission::admitted`]) and must be maintained.
    if event.target.is_none()
        && p < n
        && matches!(ext, Extension::Canonical | Extension::RightComplete)
    {
        return Ok(());
    }

    // The partition holding the step — or, when a kept set column is a
    // cut, the two meeting there: `s` holds the owner's column, `t` the
    // target's.
    let s = dec.partition_containing(cl);
    let (sa, sb) = dec.span(s);
    let t = if sb < ce { s + 1 } else { s };
    let (ta, tb) = dec.span(t);

    // ------------------------------------------------------------------
    // Gather I_l (prefixes, from column `pstart` to `cl`) and I_r
    // (suffixes, from `ce`), in the cost-conditioned order of formula (36).
    // ------------------------------------------------------------------
    let owner_cell = Cell::Oid(event.owner);
    let parts = asr.partitions();

    let (pstart, p_rows, s_rows): (usize, Vec<Row>, Vec<Row>) = match ext {
        Extension::Full => {
            // Only the step's partition: its rows through the owner and
            // the target carry every prefix and suffix within its span.
            let pr = local_segments(&parts[s], cl - sa, &owner_cell, 0, cl - sa);
            let sr = match &event.target {
                Some(e) => local_segments(&parts[t], ce - ta, e, ce - ta, tb - ta),
                None => Vec::new(),
            };
            (sa, pr, sr)
        }
        _ => {
            // Cheap side first: an owner unreachable from t_0 (left) or a
            // target that does not reach t_n (right, canonical — markers
            // there are at the last step, and `admitted` takes them with
            // no suffix) changes no admitted row, and the other side's
            // search is skipped.
            let prefixes = || -> Result<Vec<Row>> {
                Ok(match ext {
                    Extension::LeftComplete => {
                        query::collect_prefixes(parts, &dec, cl, &owner_cell)
                    }
                    _ => naive::backward_prefixes(base, store, &path, p - 1, event.owner, keep)?,
                })
            };
            let suffixes = || -> Result<Vec<Row>> {
                Ok(match (&event.target, ext) {
                    (None, _) => Vec::new(),
                    (Some(e), Extension::RightComplete) => {
                        query::collect_suffixes(parts, &dec, ce, e)
                    }
                    (Some(e), _) => naive::forward_suffixes(base, store, &path, p, e, keep)?,
                })
            };
            let anchored = |rows: Vec<Row>| -> Vec<Row> {
                rows.into_iter().filter(|r| r.cell(0).is_some()).collect()
            };
            if ext == Extension::LeftComplete {
                let pr = anchored(prefixes()?);
                if pr.is_empty() {
                    return Ok(());
                }
                (0, pr, suffixes()?)
            } else {
                let sr: Vec<Row> = suffixes()?.into_iter().filter(reaches_end).collect();
                if sr.is_empty() && event.target.is_some() {
                    return Ok(());
                }
                let pr = match ext {
                    Extension::Canonical => anchored(prefixes()?),
                    _ => prefixes()?,
                };
                if pr.is_empty() && ext == Extension::Canonical {
                    return Ok(());
                }
                (0, pr, sr)
            }
        }
    };

    // ------------------------------------------------------------------
    // The extension rows of the event, as pieces.
    // ------------------------------------------------------------------

    // The edge's set cell, covering columns cl+1 .. ce (set OIDs kept).
    let set_cell: Vec<Option<Cell>> = if keep && path.steps()[p - 1].is_set_occurrence() {
        vec![event.set.map(Cell::Oid)]
    } else {
        Vec::new()
    };

    // Rows carried by the edge itself (marker rows for a marker event).
    let edge_rows: Vec<Spliced<'_>> = match &event.target {
        Some(_) => p_rows
            .iter()
            .flat_map(|pr| {
                s_rows.iter().map(|sr| {
                    Spliced::new(&[(pstart, pr.cells()), (cl + 1, &set_cell), (ce, sr.cells())])
                })
            })
            .filter(|r| adm.admitted(r))
            .collect(),
        None => p_rows
            .iter()
            .map(|pr| Spliced::new(&[(pstart, pr.cells()), (cl + 1, &set_cell)]))
            .filter(|r| adm.admitted(r))
            .collect(),
    };

    // Bare rows: prefix ++ all-NULL tail.  A bare owner that nothing
    // references is in no auxiliary relation, so on a removal its trivial
    // prefix is skipped — unless the prefix is only local (full extension,
    // owner on the step partition's border) and the neighbour shows a
    // referrer.
    let owner_referenced = || {
        pstart == cl
            && s > 0
            && parts[s - 1]
                .lookup_last(&owner_cell)
                .iter()
                .any(|r| r.cell(r.arity() - 2).is_some())
    };
    let bare_rows = |skip_trivial: bool| -> Vec<Spliced<'_>> {
        let keep_trivial = skip_trivial && p_rows.len() == 1 && owner_referenced();
        p_rows
            .iter()
            .filter(|pr| !skip_trivial || keep_trivial || pr.first_defined() != Some(cl - pstart))
            .map(|pr| Spliced::new(&[(pstart, pr.cells())]))
            .filter(|r| adm.admitted(r))
            .collect()
    };

    // Target-side left-maximal rows: NULL prefix ++ suffix.
    let target_rows: Vec<Spliced<'_>> = s_rows
        .iter()
        .map(|sr| Spliced::new(&[(ce, sr.cells())]))
        .filter(|r| adm.admitted(r))
        .collect();

    // ------------------------------------------------------------------
    // Write the step's partition(s), then walk outward.
    // ------------------------------------------------------------------
    // What `s` (index 0) and, when it is another partition, `t` (index 1)
    // gained and lost.
    let mut written = [Written::default(), Written::default()];
    let side = usize::from(t != s);
    let mut new_rows: Vec<Spliced<'_>> = Vec::new();
    let owner_known = added && !owner_bare_before && matches!(ext, Extension::Full);
    let bare_before = (added && owner_bare_before).then(|| bare_rows(false));
    let bare_after = (!added && owner_bare_after).then(|| bare_rows(true));
    let parts = asr.partitions_mut();
    let w = |idx: usize| usize::from(idx != s);
    if added {
        // The owner's bare rows and the target's left-maximal rows become
        // non-maximal; the edge's rows appear.
        for r in bare_before.iter().flatten() {
            written[w(s)].write(&mut parts[s], r, false)?;
        }
        for r in &target_rows {
            written[w(t)].write(&mut parts[t], r, false)?;
        }
        for r in &edge_rows {
            written[w(s)].write(&mut parts[s], r, true)?;
            if t != s {
                written[w(t)].write(&mut parts[t], r, true)?;
            }
        }
        new_rows = edge_rows;
    } else {
        if t == s {
            for r in &edge_rows {
                written[w(s)].write(&mut parts[s], r, false)?;
            }
        } else {
            // The edge's rows meet at the set column.  The side the event
            // detached — the set's member, or the owner's hold on the set —
            // loses them outright; the other keeps them while the set still
            // meets the first side there.
            let set = event.set.expect("a split step is a set step");
            let attr = base.get_attribute(event.owner, &path.steps()[p - 1].attr)?;
            let (first, second) = if attr == asr_gom::Value::Ref(set) {
                (t, s)
            } else {
                (s, t)
            };
            for r in &edge_rows {
                written[w(first)].write(&mut parts[first], r, false)?;
            }
            if border_rows(&parts[first], first == t, &Cell::Oid(set)).is_empty() {
                for r in &edge_rows {
                    written[w(second)].write(&mut parts[second], r, false)?;
                }
            }
        }
        // Rows ending bare at the owner reappear — except the trivial one.
        for r in bare_after.into_iter().flatten() {
            written[w(s)].write(&mut parts[s], &r, true)?;
            new_rows.push(r);
        }
        if let Some(e) = &event.target {
            if matches!(ext, Extension::Full | Extension::RightComplete) {
                // If nothing references the target at column ce any more,
                // its suffixes resurface as left-maximal rows.
                let at = ce - ta;
                let still_referenced = rows_at(&parts[t], at, e)
                    .iter()
                    .any(|r| r.cell(at - 1).is_some());
                if !still_referenced {
                    let target_in_tail = target_participates_beyond(base, store, &path, p, e)?;
                    for (sr, r) in s_rows.iter().zip(&target_rows) {
                        let trivial = sr.cells()[1..].iter().all(Option::is_none);
                        if trivial && !target_in_tail {
                            continue;
                        }
                        written[w(t)].write(&mut parts[t], r, true)?;
                        new_rows.push(*r);
                    }
                }
            }
        }
    }
    // Reachability from t_0 cannot change left of the step, nor to t_n
    // right of it.  The full extension's pieces are local: only the owner
    // on the left border and the target on the right one can flip, and
    // the owner cannot appear anew when it held the attribute before.
    let full = ext == Extension::Full;
    let [mut left, right] = written;
    let right = if side == 0 { left.clone() } else { right };
    if ext != Extension::LeftComplete && (!full || cl == sa) {
        if owner_known {
            left.inserted.clear();
        }
        walk_outward(parts, s, true, left, &new_rows)?;
    }
    if ext != Extension::RightComplete && (!full || ce == tb) {
        walk_outward(parts, t, false, right, &new_rows)?;
    }
    Ok(())
}

/// Does a suffix reach `t_n` — or stop in an empty set at the last step
/// (the marker corner `Admission::admitted` settles)?
fn reaches_end(r: &Row) -> bool {
    r.last().is_some() || (r.arity() >= 2 && r.cell(r.arity() - 2).is_some())
}

/// Does `target` itself participate in an auxiliary relation beyond column
/// `c_p` — i.e. is its own `A_{p+1}` attribute defined?  Distinguishes a
/// target that merely lost its last referencer (which keeps its suffix
/// rows) from one that vanishes from the extension entirely.
fn target_participates_beyond(
    base: &ObjectBase,
    store: &ObjectStore,
    path: &asr_gom::PathExpression,
    p: usize,
    target: &Cell,
) -> Result<bool> {
    if p >= path.len() {
        return Ok(false);
    }
    let Some(oid) = target.as_oid() else {
        return Ok(false);
    };
    store.charge_read(base.type_of(oid)?, oid);
    let step = &path.steps()[p];
    Ok(!base.get_attribute(oid, &step.attr)?.is_null())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::Decomposition;
    use crate::manager::AsrConfig;
    use asr_gom::Value;
    use asr_pagesim::IoStats;
    use std::rc::Rc;

    fn oid_of(base: &ObjectBase, name: &str) -> Oid {
        base.find_by_attribute("Name", &Value::string(name))
            .unwrap()
    }

    /// Drive a set-element insertion through both base and ASR, then check
    /// against a rebuilt reference copy.
    fn insert_and_check(ext: Extension, dec_cuts: Option<Vec<usize>>, keep: bool) {
        let (mut base, path) = crate::testutil::figure2_base();
        let m = path.arity(keep) - 1;
        let dec = match dec_cuts {
            Some(c) => Decomposition::new(c).unwrap(),
            None => Decomposition::binary(m),
        };
        let config = AsrConfig {
            extension: ext,
            decomposition: dec,
            keep_set_oids: keep,
        };
        let stats = IoStats::new_handle();
        let mut asr =
            AccessSupportRelation::build(&base, path.clone(), config.clone(), Rc::clone(&stats))
                .unwrap();
        let store = {
            let mut s = ObjectStore::new(Rc::clone(&stats));
            s.sync_with_base(&base).unwrap();
            s
        };

        // ins_2 in the paper's notation: insert Pepper into 560 SEC's
        // Composition set (i7), giving the Door chain a second member.
        let sec = oid_of(&base, "560 SEC");
        let pepper = oid_of(&base, "Pepper");
        let set = base
            .get_attribute(sec, "Composition")
            .unwrap()
            .as_ref_oid()
            .unwrap();
        assert!(base.insert_into_set(set, Value::Ref(pepper)).unwrap());
        let event = EdgeEvent {
            step: 2,
            owner: sec,
            set: Some(set),
            target: Some(Cell::Oid(pepper)),
        };
        maintain_edge(&mut asr, &base, &store, &event, true, false, false).unwrap();
        asr.check_consistency().unwrap();

        let reference =
            AccessSupportRelation::build(&base, path, config, IoStats::new_handle()).unwrap();
        let got: Vec<Row> = asr.full_rows().collect();
        let want: Vec<Row> = reference.full_rows().collect();
        assert_eq!(got, want, "{ext} incremental != rebuild");
    }

    #[test]
    fn set_insert_maintains_every_configuration() {
        // Binary, undecomposed, set OIDs kept (binary cuts at the set
        // columns, so each set step spans two partitions), and set OIDs
        // kept under cuts that leave every set step inside one partition.
        let configs = [
            (None, false),
            (Some(vec![0, 3]), false),
            (None, true),
            (Some(vec![0, 2, 4, 5]), true),
        ];
        for (cuts, keep) in configs {
            for ext in Extension::ALL {
                insert_and_check(ext, cuts.clone(), keep);
            }
        }
    }

    #[test]
    fn remove_then_reinsert_round_trips() {
        let (mut base, path) = crate::testutil::figure2_base();
        for ext in Extension::ALL {
            let config = AsrConfig {
                extension: ext,
                decomposition: Decomposition::binary(3),
                keep_set_oids: false,
            };
            let stats = IoStats::new_handle();
            let mut asr = AccessSupportRelation::build(
                &base,
                path.clone(),
                config.clone(),
                Rc::clone(&stats),
            )
            .unwrap();
            let mut store = ObjectStore::new(Rc::clone(&stats));
            store.sync_with_base(&base).unwrap();
            let before: Vec<Row> = asr.full_rows().collect();

            // Remove Door from i7 (560 SEC's only base part), then put it back.
            let sec = oid_of(&base, "560 SEC");
            let door = oid_of(&base, "Door");
            let set = base
                .get_attribute(sec, "Composition")
                .unwrap()
                .as_ref_oid()
                .unwrap();
            assert!(base.remove_from_set(set, &Value::Ref(door)).unwrap());
            let ev = EdgeEvent {
                step: 2,
                owner: sec,
                set: Some(set),
                target: Some(Cell::Oid(door)),
            };
            // The set becomes empty: the marker rows appear first (they
            // need the owner's prefixes, which live in the rows about to
            // be retracted), then the edge rows are removed.
            let marker = EdgeEvent {
                step: 2,
                owner: sec,
                set: Some(set),
                target: None,
            };
            maintain_edge(&mut asr, &base, &store, &marker, true, false, false).unwrap();
            maintain_edge(&mut asr, &base, &store, &ev, false, false, false).unwrap();
            asr.check_consistency().unwrap();
            let reference = AccessSupportRelation::build(
                &base,
                path.clone(),
                config.clone(),
                IoStats::new_handle(),
            )
            .unwrap();
            assert_eq!(
                asr.full_rows().collect::<Vec<_>>(),
                reference.full_rows().collect::<Vec<_>>(),
                "{ext} after removal"
            );

            // Reinsert: edge returns first, then the marker disappears.
            assert!(base.insert_into_set(set, Value::Ref(door)).unwrap());
            maintain_edge(&mut asr, &base, &store, &ev, true, false, false).unwrap();
            maintain_edge(&mut asr, &base, &store, &marker, false, false, false).unwrap();
            asr.check_consistency().unwrap();
            assert_eq!(
                asr.full_rows().collect::<Vec<_>>(),
                before,
                "{ext} round trip"
            );
        }
    }

    #[test]
    fn search_costs_differ_by_extension() {
        // The signature economics of formula (36): full never searches the
        // object representation; right/canonical pay extent scans.
        let (mut base, path) = crate::testutil::figure2_base();
        let mut costs = std::collections::HashMap::new();
        for ext in Extension::ALL {
            let config = AsrConfig {
                extension: ext,
                decomposition: Decomposition::binary(3),
                keep_set_oids: false,
            };
            let asr_stats = IoStats::new_handle();
            let mut asr =
                AccessSupportRelation::build(&base, path.clone(), config, Rc::clone(&asr_stats))
                    .unwrap();
            // Separate store stats isolate object-representation accesses.
            let store_stats = IoStats::new_handle();
            let mut store = ObjectStore::new(Rc::clone(&store_stats));
            store.set_default_size(400);
            store.sync_with_base(&base).unwrap();

            let sec = oid_of(&base, "560 SEC");
            let pepper = oid_of(&base, "Pepper");
            let set = base
                .get_attribute(sec, "Composition")
                .unwrap()
                .as_ref_oid()
                .unwrap();
            base.insert_into_set(set, Value::Ref(pepper)).unwrap();
            let ev = EdgeEvent {
                step: 2,
                owner: sec,
                set: Some(set),
                target: Some(Cell::Oid(pepper)),
            };
            store_stats.reset();
            maintain_edge(&mut asr, &base, &store, &ev, true, false, false).unwrap();
            costs.insert(ext.name(), store_stats.accesses());
            // Undo for the next extension.
            base.remove_from_set(set, &Value::Ref(pepper)).unwrap();
        }
        assert_eq!(costs["full"], 0, "full extension needs no data search");
        assert!(costs["canonical"] > 0, "canonical searches both directions");
        assert!(costs["right"] > 0, "right-complete scans for prefixes");
        assert!(
            costs["canonical"] >= costs["left"],
            "canonical pays at least the forward search"
        );
    }
}
