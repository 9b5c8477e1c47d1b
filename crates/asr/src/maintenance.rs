//! Incremental maintenance of access support relations under object
//! updates (Section 6 of the paper).
//!
//! Every structural update decomposes into **edge events** at a path step
//! `p`: an edge `owner →_{A_p} target` is *added* or *removed*, or a
//! set-valued attribute transitions to/from the empty set (a **marker**
//! event, Definition 3.3's `(id(o_{j-1}), id(o'_j), NULL)` tuple).
//!
//! For each event the maintenance algorithm materializes the paper's two
//! auxiliary relations:
//!
//! * `I_l` — the maximal **prefixes** ending at `owner` (columns
//!   `0 … c_{p-1}`), and
//! * `I_r` — the maximal **suffixes** starting at `target` (columns
//!   `c_p … m`),
//!
//! and derives the delta rows `I_l × edge × I_r`.  *Where* the prefixes and
//! suffixes come from is exactly the extension-specific economics of
//! formula (36):
//!
//! | extension | prefixes `I_l`            | suffixes `I_r`            |
//! |-----------|---------------------------|---------------------------|
//! | full      | ASR lookup                | ASR lookup                |
//! | left      | ASR lookup                | forward search in data    |
//! | right     | backward search (scans)   | ASR lookup                |
//! | canonical | backward search (scans)   | forward search in data    |
//!
//! with the paper's conditioning: the expensive search is skipped whenever
//! the cheap side already proves no admitted row can change (e.g. for the
//! right-complete extension nothing changes unless `target` reaches `t_n`).
//!
//! Removals are guarded by the manager's logical row mirror, making every
//! delta idempotent: removing a row that is not in the extension is a
//! no-op.  Property tests verify `incremental ≡ rebuild` over random
//! update sequences.

use asr_gom::{ObjectBase, Oid};

use crate::cell::Cell;
use crate::error::Result;
use crate::extension::Extension;
use crate::manager::AccessSupportRelation;
use crate::naive;
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
    fn admitted(&self, row: &Row) -> bool {
        if row.is_all_null() {
            return false;
        }
        let m = self.m;
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
    fn last_stop_is_marker(&self, row: &Row) -> bool {
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
        let Some(crate::cell::Cell::Oid(owner)) = row.cell(owner_col) else {
            return false;
        };
        self.base
            .get_attribute(*owner, &last_step.attr)
            .map(|v| !v.is_null())
            .unwrap_or(false)
    }
}

/// `prefix` covers columns `0 ..= cl`; `tail` covers `cl+1 ..= m`.
fn assemble(prefix: &Row, tail: &[Option<Cell>]) -> Row {
    let mut cells = prefix.cells().to_vec();
    cells.extend_from_slice(tail);
    Row::new(cells)
}

/// A NULL-prefixed row from a suffix covering columns `ce ..= m`.
fn null_prefixed(suffix: &Row, ce: usize) -> Row {
    let mut cells = vec![None; ce];
    cells.extend_from_slice(suffix.cells());
    Row::new(cells)
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
    // [`admitted`]) and must be maintained.
    if event.target.is_none()
        && p < n
        && matches!(ext, Extension::Canonical | Extension::RightComplete)
    {
        return Ok(());
    }

    // ------------------------------------------------------------------
    // Gather I_l (prefixes) and I_r (suffixes), in the cost-conditioned
    // order of formula (36).
    // ------------------------------------------------------------------
    let owner_cell = Cell::Oid(event.owner);

    let prefixes_from_asr = |asr: &AccessSupportRelation| {
        query::collect_prefixes(asr.partitions(), &dec, cl, &owner_cell)
    };
    let suffixes_from_asr = |asr: &AccessSupportRelation, t: &Cell| {
        query::collect_suffixes(asr.partitions(), &dec, ce, t)
    };

    let (p_rows, s_rows): (Vec<Row>, Vec<Row>) = match ext {
        Extension::Full => {
            let mut pr = prefixes_from_asr(asr);
            if pr.is_empty() {
                // The owner appears in no stored row: its only maximal
                // prefix is the trivial one.
                let mut cells = vec![None; cl];
                cells.push(Some(owner_cell.clone()));
                pr.push(Row::new(cells));
            }
            let sr = match &event.target {
                Some(t) => {
                    let mut sr = suffixes_from_asr(asr, t);
                    if sr.is_empty() {
                        let mut cells = vec![Some(t.clone())];
                        cells.resize(m - ce + 1, None);
                        sr.push(Row::new(cells));
                    }
                    sr
                }
                None => Vec::new(),
            };
            (pr, sr)
        }
        Extension::LeftComplete => {
            // Cheap side first: if the owner is unreachable from t_0, no
            // anchored row can change and the forward search is skipped.
            let pr: Vec<Row> = prefixes_from_asr(asr)
                .into_iter()
                .filter(|r| r.cell(0).is_some())
                .collect();
            if pr.is_empty() {
                return Ok(());
            }
            let sr = match &event.target {
                Some(t) => naive::forward_suffixes(base, store, &path, p, t, keep)?,
                None => Vec::new(),
            };
            (pr, sr)
        }
        Extension::RightComplete => {
            // Cheap side first: if the target does not reach t_n, no
            // admitted row can change and the extent scans are skipped.
            // (Markers here are at the last step — `admitted` accepts
            // them with no suffix at all.)
            let sr: Vec<Row> = match &event.target {
                Some(t) => {
                    let sr: Vec<Row> = suffixes_from_asr(asr, t)
                        .into_iter()
                        .filter(|r| {
                            r.last().is_some()
                                || (r.arity() >= 2 && r.cell(r.arity() - 2).is_some())
                        })
                        .collect();
                    if sr.is_empty() {
                        return Ok(());
                    }
                    sr
                }
                None => Vec::new(),
            };
            let pr = naive::backward_prefixes(base, store, &path, p - 1, event.owner, keep)?;
            (pr, sr)
        }
        Extension::Canonical => {
            // Forward search first (it is cheaper than the backward scan).
            let sr: Vec<Row> = match &event.target {
                Some(t) => {
                    let sr: Vec<Row> = naive::forward_suffixes(base, store, &path, p, t, keep)?
                        .into_iter()
                        .filter(|r| {
                            r.last().is_some()
                                || (r.arity() >= 2 && r.cell(r.arity() - 2).is_some())
                        })
                        .collect();
                    if sr.is_empty() {
                        return Ok(());
                    }
                    sr
                }
                None => Vec::new(),
            };
            let pr: Vec<Row> =
                naive::backward_prefixes(base, store, &path, p - 1, event.owner, keep)?
                    .into_iter()
                    .filter(|r| r.cell(0).is_some())
                    .collect();
            if pr.is_empty() {
                return Ok(());
            }
            (pr, sr)
        }
    };

    // ------------------------------------------------------------------
    // Construct the delta rows.
    // ------------------------------------------------------------------

    // The edge's mid cells covering columns cl+1 ..= ce.
    let mut mid: Vec<Option<Cell>> = Vec::new();
    if keep && path.steps()[p - 1].is_set_occurrence() {
        mid.push(event.set.map(Cell::Oid));
    }
    mid.push(event.target.clone());

    // Rows carried by the edge itself.
    let edge_rows: Vec<Row> = match &event.target {
        Some(_) => {
            // mid minus its final cell: the suffix provides column ce.
            let mid_head = &mid[..mid.len() - 1];
            let mut rows = Vec::with_capacity(p_rows.len() * s_rows.len());
            for pr in &p_rows {
                for sr in &s_rows {
                    let mut cells = pr.cells().to_vec();
                    cells.extend_from_slice(mid_head);
                    cells.extend_from_slice(sr.cells());
                    rows.push(Row::new(cells));
                }
            }
            rows
        }
        None => {
            // Marker rows: prefix ++ [set?, NULL] ++ NULL padding.
            let mut tail = mid.clone();
            tail.resize(m - cl, None);
            p_rows.iter().map(|pr| assemble(pr, &tail)).collect()
        }
    };
    let edge_rows: Vec<Row> = edge_rows.into_iter().filter(|r| adm.admitted(r)).collect();

    // Bare rows: prefix ++ all-NULL tail.
    let bare_tail = vec![None; m - cl];
    let bare_rows = |trivial_skip: bool| -> Vec<Row> {
        p_rows
            .iter()
            .filter(|pr| !(trivial_skip && pr.first_defined() == Some(cl)))
            .map(|pr| assemble(pr, &bare_tail))
            .filter(|r| adm.admitted(r))
            .collect()
    };

    // Target-side left-maximal rows: NULL prefix ++ suffix.
    let target_stale_rows: Vec<Row> = s_rows
        .iter()
        .map(|sr| null_prefixed(sr, ce))
        .filter(|r| adm.admitted(r))
        .collect();

    // ------------------------------------------------------------------
    // Apply.
    // ------------------------------------------------------------------
    if added {
        // The owner's bare rows and the target's left-maximal rows become
        // non-maximal; removals are mirror-guarded no-ops when such rows
        // never existed.
        if owner_bare_before {
            for r in bare_rows(false) {
                asr.remove_full_row(&r)?;
            }
        }
        for r in &target_stale_rows {
            asr.remove_full_row(r)?;
        }
        for r in edge_rows {
            asr.insert_full_row(r)?;
        }
    } else {
        for r in &edge_rows {
            asr.remove_full_row(r)?;
        }
        if owner_bare_after {
            // Rows ending bare at the owner reappear — except the trivial
            // one (a bare, unreferenced owner is in no auxiliary relation).
            for r in bare_rows(true) {
                asr.insert_full_row(r)?;
            }
        }
        if let Some(t) = &event.target {
            if matches!(ext, Extension::Full | Extension::RightComplete) {
                // If nothing references the target at column ce any more,
                // its suffixes resurface as left-maximal rows.
                let still_referenced = query::collect_prefixes(asr.partitions(), &dec, ce, t)
                    .iter()
                    .any(|r| r.cell(ce - 1).is_some());
                if !still_referenced {
                    let target_in_tail = target_participates_beyond(base, store, &path, p, t)?;
                    for sr in &s_rows {
                        let trivial = sr.cells()[1..].iter().all(Option::is_none);
                        if trivial && !target_in_tail {
                            continue;
                        }
                        let row = null_prefixed(sr, ce);
                        if adm.admitted(&row) {
                            asr.insert_full_row(row)?;
                        }
                    }
                }
            }
        }
    }
    Ok(())
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
        let got: Vec<Row> = asr.full_rows().cloned().collect();
        let want: Vec<Row> = reference.full_rows().cloned().collect();
        assert_eq!(got, want, "{ext} incremental != rebuild");
    }

    #[test]
    fn set_insert_maintains_all_extensions_binary() {
        for ext in Extension::ALL {
            insert_and_check(ext, None, false);
        }
    }

    #[test]
    fn set_insert_maintains_all_extensions_non_decomposed() {
        for ext in Extension::ALL {
            insert_and_check(ext, Some(vec![0, 3]), false);
        }
    }

    #[test]
    fn set_insert_maintains_with_set_oids() {
        for ext in Extension::ALL {
            insert_and_check(ext, None, true);
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
            let before: Vec<Row> = asr.full_rows().cloned().collect();

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
                asr.full_rows().cloned().collect::<Vec<_>>(),
                reference.full_rows().cloned().collect::<Vec<_>>(),
                "{ext} after removal"
            );

            // Reinsert: edge returns first, then the marker disappears.
            assert!(base.insert_into_set(set, Value::Ref(door)).unwrap());
            maintain_edge(&mut asr, &base, &store, &ev, true, false, false).unwrap();
            maintain_edge(&mut asr, &base, &store, &marker, false, false, false).unwrap();
            asr.check_consistency().unwrap();
            assert_eq!(
                asr.full_rows().cloned().collect::<Vec<_>>(),
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
