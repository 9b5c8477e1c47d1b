//! Naive (unsupported) query evaluation and charged object-base searches.
//!
//! When no access support relation applies, queries navigate the object
//! representation itself (Section 5.6 of the paper):
//!
//! * a **forward** query reads the start object and then every object on a
//!   path from it through the intermediate types (`Qnas_{i,j}(fw)`,
//!   formula 31);
//! * a **backward** query has no reverse references to follow — it scans
//!   the anchor extent exhaustively and performs the forward closure from
//!   *all* anchors (`Qnas_{i,j}(bw)`, formula 32).
//!
//! The same machinery provides the *maximal prefix/suffix searches* that
//! access-relation maintenance needs when the chosen extension does not
//! contain the required partial paths (the searches priced by formula 36).
//!
//! All object accesses are charged through the [`ObjectStore`]; in-memory
//! postprocessing (reverse reachability) is free, consistent with the
//! paper's page-access-only cost metric.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use asr_gom::{ObjectBase, Oid, PathExpression, TypeRef, Value};

use crate::cell::Cell;
use crate::error::{AsrError, Result};
use crate::row::Row;
use crate::store::ObjectStore;

/// Cell fragments of partial rows, memoized per `(object, position)`.
type FragmentMemo = HashMap<(Oid, usize), Vec<Vec<Option<Cell>>>>;

/// Reverse edges per position: target object -> `(set instance,
/// predecessor)` pairs.
type ReverseEdges = BTreeMap<Oid, Vec<(Option<Oid>, Oid)>>;

/// Validate a query span `0 ≤ i < j ≤ n`.
pub fn check_span(path: &PathExpression, i: usize, j: usize) -> Result<()> {
    if i < j && j <= path.len() {
        Ok(())
    } else {
        Err(AsrError::InvalidSpan {
            i,
            j,
            n: path.len(),
        })
    }
}

/// The navigable targets of one step from object `oid`, as
/// `(set oid if the step is a set occurrence, target cell)` pairs.
/// An empty-set attribute yields a single `(Some(set), None)` marker; an
/// undefined attribute yields nothing.
fn step_targets(
    base: &ObjectBase,
    oid: Oid,
    step: &asr_gom::PathStep,
) -> Result<Vec<(Option<Oid>, Option<Cell>)>> {
    let value = base.get_attribute(oid, &step.attr)?;
    match value {
        Value::Null => Ok(vec![]),
        Value::Ref(target) if step.is_set_occurrence() => {
            if !base.contains(target) {
                return Ok(vec![]);
            }
            let set_obj = base.object(target)?;
            let members: Vec<Option<Cell>> = set_obj
                .elements()
                .iter()
                .filter_map(Cell::from_gom)
                .filter(|c| match c {
                    Cell::Oid(o) => base.contains(*o),
                    Cell::Value(_) => true,
                })
                .map(Some)
                .collect();
            if members.is_empty() {
                Ok(vec![(Some(target), None)])
            } else {
                Ok(members.into_iter().map(|m| (Some(target), m)).collect())
            }
        }
        Value::Ref(target) => {
            if base.contains(target) {
                Ok(vec![(None, Some(Cell::Oid(target)))])
            } else {
                Ok(vec![])
            }
        }
        atomic => Ok(vec![(None, Cell::from_gom(&atomic))]),
    }
}

/// Forward query without access support: all `t_j` cells reachable from
/// the `t_i` object `start` (formula 31's access pattern: the start object
/// plus every distinct intermediate object, once each).
pub fn forward_naive(
    base: &ObjectBase,
    store: &ObjectStore,
    path: &PathExpression,
    i: usize,
    j: usize,
    start: Oid,
) -> Result<Vec<Cell>> {
    check_span(path, i, j)?;
    store.charge_read(base.type_of(start)?, start);
    let mut frontier: BTreeSet<Oid> = BTreeSet::from([start]);
    let mut result: BTreeSet<Cell> = BTreeSet::new();
    for l in i..j {
        let step = &path.steps()[l];
        // Levels strictly between i and j are charged per distinct object;
        // level i was charged above.
        if l > i {
            for &o in &frontier {
                store.charge_read(base.type_of(o)?, o);
            }
        }
        let mut next: BTreeSet<Oid> = BTreeSet::new();
        for &o in &frontier {
            for (_, target) in step_targets(base, o, step)? {
                match target {
                    Some(Cell::Oid(t)) if l + 1 < j => {
                        next.insert(t);
                    }
                    Some(cell) if l + 1 == j => {
                        result.insert(cell);
                    }
                    _ => {}
                }
            }
        }
        frontier = next;
    }
    Ok(result.into_iter().collect())
}

/// Backward query without access support: all `t_i` objects with a path to
/// `target` (a `t_j` OID or, when `j = n` ends in a value, an attribute
/// value).  Exhaustively scans the `t_i` extent and forward-closes through
/// the intermediate levels (formula 32's access pattern); the reverse
/// reachability is computed in memory.
pub fn backward_naive(
    base: &ObjectBase,
    store: &ObjectStore,
    path: &PathExpression,
    i: usize,
    j: usize,
    target: &Cell,
) -> Result<Vec<Oid>> {
    check_span(path, i, j)?;
    let TypeRef::Named(anchor_ty) = path.type_at(i) else {
        return Err(AsrError::InvalidSpan {
            i,
            j,
            n: path.len(),
        });
    };
    // op_i: exhaustive scan of the anchor extent (all subtype files).
    for sub in base.schema().subtype_closure(anchor_ty) {
        store.charge_scan(sub);
    }
    let mut level: BTreeSet<Oid> = base.extent_closure(anchor_ty).into_iter().collect();
    let anchors: Vec<Oid> = level.iter().copied().collect();
    // successors[l] maps each level-l object to its step targets.
    let mut successors: Vec<BTreeMap<Oid, BTreeSet<Cell>>> = Vec::new();
    for l in i..j {
        let step = &path.steps()[l];
        if l > i {
            for &o in &level {
                store.charge_read(base.type_of(o)?, o);
            }
        }
        let mut succ: BTreeMap<Oid, BTreeSet<Cell>> = BTreeMap::new();
        let mut next: BTreeSet<Oid> = BTreeSet::new();
        for &o in &level {
            let entry = succ.entry(o).or_default();
            for (_, t) in step_targets(base, o, step)? {
                if let Some(cell) = t {
                    if let Cell::Oid(t_oid) = &cell {
                        if l + 1 < j {
                            next.insert(*t_oid);
                        }
                    }
                    entry.insert(cell);
                }
            }
        }
        successors.push(succ);
        level = next;
    }
    // In-memory reverse reachability from the target.
    let mut reachable: BTreeSet<Cell> = BTreeSet::from([target.clone()]);
    for succ in successors.iter().rev() {
        let mut prev: BTreeSet<Cell> = BTreeSet::new();
        for (o, targets) in succ {
            if targets.iter().any(|t| reachable.contains(t)) {
                prev.insert(Cell::Oid(*o));
            }
        }
        reachable = prev;
    }
    Ok(anchors
        .into_iter()
        .filter(|o| reachable.contains(&Cell::Oid(*o)))
        .collect())
}

// ----------------------------------------------------------------------
// Charged searches for maintenance (Section 6.1)
// ----------------------------------------------------------------------

/// All **maximal suffix rows** starting at `start` in path position `pos`:
/// rows spanning the relation columns `col(pos) … m`, enumerating every
/// way the path continues from `start` (padded with NULLs where it stops).
///
/// This is the forward search maintenance performs to materialize the
/// paper's `I_r` relation.  Each visited object is charged once.
pub fn forward_suffixes(
    base: &ObjectBase,
    store: &ObjectStore,
    path: &PathExpression,
    pos: usize,
    start: &Cell,
    keep_set_oids: bool,
) -> Result<Vec<Row>> {
    let tail_cols = path.arity(keep_set_oids) - path.column_of(pos, keep_set_oids);
    match start {
        Cell::Value(_) => {
            // Atomic terminal: the suffix is the single value column.
            debug_assert_eq!(pos, path.len());
            Ok(vec![Row::new(vec![Some(start.clone())])])
        }
        Cell::Oid(oid) => {
            let mut memo: FragmentMemo = HashMap::new();
            let mut charged: BTreeSet<Oid> = BTreeSet::new();
            let frags = suffix_fragments(
                base,
                store,
                path,
                pos,
                *oid,
                keep_set_oids,
                &mut memo,
                &mut charged,
            )?;
            Ok(frags
                .into_iter()
                .map(|mut f| {
                    f.resize(tail_cols, None);
                    Row::new(f)
                })
                .collect())
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn suffix_fragments(
    base: &ObjectBase,
    store: &ObjectStore,
    path: &PathExpression,
    pos: usize,
    oid: Oid,
    keep_set_oids: bool,
    memo: &mut FragmentMemo,
    charged: &mut BTreeSet<Oid>,
) -> Result<Vec<Vec<Option<Cell>>>> {
    if let Some(hit) = memo.get(&(oid, pos)) {
        return Ok(hit.clone());
    }
    if pos == path.len() {
        return Ok(vec![vec![Some(Cell::Oid(oid))]]);
    }
    if charged.insert(oid) {
        store.charge_read(base.type_of(oid)?, oid);
    }
    let step = &path.steps()[pos];
    let targets = step_targets(base, oid, step)?;
    let mut out: Vec<Vec<Option<Cell>>> = Vec::new();
    if targets.is_empty() {
        out.push(vec![Some(Cell::Oid(oid))]); // path stops here; NULL-padded by caller
    } else {
        for (set, target) in targets {
            let mut head = vec![Some(Cell::Oid(oid))];
            if keep_set_oids && step.is_set_occurrence() {
                head.push(set.map(Cell::Oid));
            }
            match target {
                None => out.push(head), // empty-set marker
                Some(Cell::Oid(t)) => {
                    for tail in suffix_fragments(
                        base,
                        store,
                        path,
                        pos + 1,
                        t,
                        keep_set_oids,
                        memo,
                        charged,
                    )? {
                        let mut row = head.clone();
                        row.extend(tail);
                        out.push(row);
                    }
                }
                Some(cell @ Cell::Value(_)) => {
                    let mut row = head;
                    row.push(Some(cell));
                    out.push(row);
                }
            }
        }
    }
    memo.insert((oid, pos), out.clone());
    Ok(out)
}

/// All **maximal prefix rows** ending at `end` in path position `pos`:
/// rows spanning the relation columns `0 … col(pos)` (NULL-padded on the
/// left where the path begins), enumerating every chain of referencing
/// objects.
///
/// References are uni-directional, so this search must *scan* the extents
/// of the types `t_0 … t_{pos-1}` (the paper's `Σ op_l` term in formula 36)
/// and build the reverse edges in memory.
pub fn backward_prefixes(
    base: &ObjectBase,
    store: &ObjectStore,
    path: &PathExpression,
    pos: usize,
    end: Oid,
    keep_set_oids: bool,
) -> Result<Vec<Row>> {
    assert!(pos <= path.len());
    // Charge the scans and collect reverse edges level by level.
    // rev[l] : object at position l -> (set oid, predecessor at l-1)
    let mut rev: Vec<ReverseEdges> = vec![BTreeMap::new(); pos + 1];
    for l in 0..pos {
        let TypeRef::Named(ty) = path.type_at(l) else {
            unreachable!("interior types are named")
        };
        for sub in base.schema().subtype_closure(ty) {
            store.charge_scan(sub);
        }
        let step = &path.steps()[l];
        for &o in &base.extent_closure(ty) {
            for (set, target) in step_targets(base, o, step)? {
                if let Some(Cell::Oid(t)) = target {
                    rev[l + 1].entry(t).or_default().push((set, o));
                }
            }
        }
    }
    let mut memo: FragmentMemo = HashMap::new();
    let frags = prefix_fragments(path, pos, end, keep_set_oids, &rev, &mut memo);
    let head_cols = path.column_of(pos, keep_set_oids) + 1;
    Ok(frags
        .into_iter()
        .map(|f| {
            let mut row = vec![None; head_cols - f.len()];
            row.extend(f);
            Row::new(row)
        })
        .collect())
}

fn prefix_fragments(
    path: &PathExpression,
    pos: usize,
    oid: Oid,
    keep_set_oids: bool,
    rev: &[ReverseEdges],
    memo: &mut FragmentMemo,
) -> Vec<Vec<Option<Cell>>> {
    if let Some(hit) = memo.get(&(oid, pos)) {
        return hit.clone();
    }
    let preds = if pos == 0 { None } else { rev[pos].get(&oid) };
    let out: Vec<Vec<Option<Cell>>> = match preds {
        None => vec![vec![Some(Cell::Oid(oid))]],
        Some(preds) if preds.is_empty() => vec![vec![Some(Cell::Oid(oid))]],
        Some(preds) => {
            let step = &path.steps()[pos - 1];
            let mut out = Vec::new();
            for (set, pred) in preds {
                for mut head in prefix_fragments(path, pos - 1, *pred, keep_set_oids, rev, memo) {
                    if keep_set_oids && step.is_set_occurrence() {
                        head.push(set.map(Cell::Oid));
                    }
                    head.push(Some(Cell::Oid(oid)));
                    out.push(head);
                }
            }
            out
        }
    };
    memo.insert((oid, pos), out.clone());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_pagesim::IoStats;
    use std::rc::Rc;

    fn setup() -> (ObjectBase, PathExpression, ObjectStore) {
        let (base, path) = crate::testutil::figure2_base();
        let stats = IoStats::new_handle();
        let mut store = ObjectStore::new(stats);
        store.sync_with_base(&base).unwrap();
        (base, path, store)
    }

    fn oid_of(base: &ObjectBase, name: &str) -> Oid {
        base.find_by_attribute("Name", &Value::string(name))
            .unwrap()
    }

    #[test]
    fn forward_full_span() {
        let (base, path, store) = setup();
        let auto = oid_of(&base, "Auto");
        let names = forward_naive(&base, &store, &path, 0, 3, auto).unwrap();
        assert_eq!(names, vec![Cell::Value(Value::string("Door"))]);
    }

    #[test]
    fn forward_partial_span() {
        let (base, path, store) = setup();
        let truck = oid_of(&base, "Truck");
        let products = forward_naive(&base, &store, &path, 0, 1, truck).unwrap();
        assert_eq!(products.len(), 2, "Truck manufactures 560 SEC and MB Trak");
        let sec = oid_of(&base, "560 SEC");
        let parts = forward_naive(&base, &store, &path, 1, 2, sec).unwrap();
        assert_eq!(parts, vec![Cell::Oid(oid_of(&base, "Door"))]);
    }

    #[test]
    fn forward_charges_pages() {
        let (base, path, store) = setup();
        let auto = oid_of(&base, "Auto");
        let stats = Rc::clone(store.stats());
        stats.reset();
        forward_naive(&base, &store, &path, 0, 3, auto).unwrap();
        // Auto + 560 SEC + Door are read (sets inline).
        assert_eq!(stats.accesses(), 3);
    }

    #[test]
    fn backward_finds_divisions_using_door() {
        let (base, path, store) = setup();
        // Query 2 of the paper: which Division uses a BasePart named Door?
        let hits = backward_naive(
            &base,
            &store,
            &path,
            0,
            3,
            &Cell::Value(Value::string("Door")),
        )
        .unwrap();
        let names: Vec<_> = hits
            .iter()
            .map(|o| base.get_attribute(*o, "Name").unwrap())
            .collect();
        assert!(names.contains(&Value::string("Auto")));
        assert!(
            names.contains(&Value::string("Truck")),
            "i5 = {{i6,...}} reaches Door too"
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn backward_by_oid_target() {
        let (base, path, store) = setup();
        let door = oid_of(&base, "Door");
        let hits = backward_naive(&base, &store, &path, 0, 2, &Cell::Oid(door)).unwrap();
        assert_eq!(hits.len(), 2);
        // Nobody reaches Pepper from a Division.
        let pepper = oid_of(&base, "Pepper");
        let hits = backward_naive(&base, &store, &path, 0, 2, &Cell::Oid(pepper)).unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn backward_charges_extent_scan() {
        let (base, path, store) = setup();
        let stats = Rc::clone(store.stats());
        // An invalid span must not charge anything.
        assert!(backward_naive(&base, &store, &path, 1, 1, &Cell::Oid(Oid::from_raw(0))).is_err());
        assert_eq!(stats.accesses(), 0);
        backward_naive(
            &base,
            &store,
            &path,
            0,
            3,
            &Cell::Value(Value::string("Door")),
        )
        .unwrap();
        assert!(
            stats.accesses() >= store.page_count(path.anchor()),
            "at least op_0"
        );
    }

    #[test]
    fn invalid_spans_rejected() {
        let (base, path, store) = setup();
        let auto = oid_of(&base, "Auto");
        assert!(forward_naive(&base, &store, &path, 2, 2, auto).is_err());
        assert!(forward_naive(&base, &store, &path, 0, 9, auto).is_err());
        assert!(backward_naive(&base, &store, &path, 3, 1, &Cell::Oid(auto)).is_err());
    }

    #[test]
    fn suffixes_enumerate_maximal_paths() {
        let (base, path, store) = setup();
        let truck = oid_of(&base, "Truck");
        let rows = forward_suffixes(&base, &store, &path, 0, &Cell::Oid(truck), false).unwrap();
        // Truck -> 560 SEC -> Door -> "Door" and Truck -> MB Trak -> stop.
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.arity() == 4));
        assert!(rows.iter().any(|r| r.trailing_nulls() == 2));
        assert!(rows
            .iter()
            .any(|r| r.last() == &Some(Cell::Value(Value::string("Door")))));
    }

    #[test]
    fn suffixes_with_set_oids_have_wider_rows() {
        let (base, path, store) = setup();
        let truck = oid_of(&base, "Truck");
        let rows = forward_suffixes(&base, &store, &path, 0, &Cell::Oid(truck), true).unwrap();
        assert!(rows.iter().all(|r| r.arity() == 6));
    }

    #[test]
    fn prefixes_enumerate_referencing_chains() {
        let (base, path, store) = setup();
        let door = oid_of(&base, "Door");
        let rows = backward_prefixes(&base, &store, &path, 2, door, false).unwrap();
        // Door is reached from Auto and from Truck via 560 SEC.
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.arity() == 3));
        assert!(rows.iter().all(|r| r.last() == &Some(Cell::Oid(door))));
        assert!(rows.iter().all(|r| r.first().is_some()));
        // Pepper's chain stops at Sausage, which nothing references.
        let pepper = oid_of(&base, "Pepper");
        let rows = backward_prefixes(&base, &store, &path, 2, pepper, false).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].leading_nulls(), 1);
    }

    #[test]
    fn trivial_prefix_for_unreferenced_object() {
        let (base, path, store) = setup();
        let sausage = oid_of(&base, "Sausage");
        let rows = backward_prefixes(&base, &store, &path, 1, sausage, false).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0], Row::new(vec![None, Some(Cell::Oid(sausage))]));
    }
}
