//! Auxiliary relations `E_0 … E_{n-1}` (Definition 3.3).
//!
//! For each path attribute `A_j` the auxiliary relation `E_{j-1}` captures
//! the live references:
//!
//! 1. `A_j` single-valued: binary, one tuple `(id(o_{j-1}), id(o_j))` per
//!    pair with `o_{j-1}.A_j = o_j`;
//! 2. `A_j` set-valued: ternary, one tuple `(id(o_{j-1}), id(o'_j),
//!    id(o_j))` per set member, and the special tuple `(id(o_{j-1}),
//!    id(o'_j), NULL)` when the set `o'_j` is empty.
//!
//! Objects whose `A_j` attribute is `NULL` do not appear in `E_{j-1}` at
//! all.  When the range type `t_j` is atomic, `id(o_j)` is the attribute
//! *value* (footnote 3).
//!
//! The paper's simplification "no set sharing ⇒ drop the set identifiers"
//! (after Definition 3.8) is available through `keep_set_oids = false`,
//! which projects the set column away, making every `E_{j-1}` binary.

use asr_gom::{ObjectBase, PathExpression, Value};

use crate::cell::Cell;
use crate::error::Result;
use crate::relation::Relation;
use crate::row::Row;

/// Build all auxiliary relations for `path` over the current state of
/// `base`.
///
/// Dangling references (to deleted objects) are treated as `NULL`,
/// consistent with [`ObjectBase`] navigation.
pub fn build_auxiliary_relations(
    base: &ObjectBase,
    path: &PathExpression,
    keep_set_oids: bool,
) -> Result<Vec<Relation>> {
    auxiliary_runs(base, path, keep_set_oids)?
        .into_iter()
        .map(|run| Relation::from_rows(run.arity, run.rows))
        .collect()
}

/// One auxiliary relation as a sorted run: its distinct rows of `arity`
/// cells, in ascending order — the input [`crate::AccessSupportRelation`]
/// builds from.
pub(crate) struct SortedRun {
    /// Cells per row.
    pub arity: usize,
    /// Distinct rows, ascending.
    pub rows: Vec<Row>,
}

/// [`build_auxiliary_relations`] as sorted runs: each relation's rows are
/// collected into a vector, then sorted and deduplicated once.  No row is
/// all-NULL (the first cell is always the owner's OID) and every row has
/// its relation's arity, so nothing [`Relation::insert`] refuses or drops
/// is ever made.
pub(crate) fn auxiliary_runs(
    base: &ObjectBase,
    path: &PathExpression,
    keep_set_oids: bool,
) -> Result<Vec<SortedRun>> {
    let mut out = Vec::with_capacity(path.len());
    for step in path.steps() {
        let arity = if keep_set_oids && step.is_set_occurrence() {
            3
        } else {
            2
        };
        let mut rows = Vec::new();
        for &oid in &base.extent_closure(step.domain) {
            let attr_value = base.get_attribute(oid, &step.attr)?;
            match &attr_value {
                Value::Null => {} // not in E_{j-1}
                Value::Ref(target) if step.is_set_occurrence() => {
                    if !base.contains(*target) {
                        continue; // dangling set reference ≡ NULL
                    }
                    let set_obj = base.object(*target)?;
                    let before = rows.len();
                    // Dangling member references degrade to NULL and are
                    // dropped (they carry no navigable target).
                    let members =
                        set_obj
                            .elements()
                            .iter()
                            .map(Cell::from_gom)
                            .filter(|c| match c {
                                Some(Cell::Oid(o)) => base.contains(*o),
                                _ => true,
                            });
                    for member in members {
                        rows.push(make_set_row(oid, *target, member, keep_set_oids));
                    }
                    if rows.len() == before {
                        // The empty-set marker tuple of Definition 3.3.
                        rows.push(make_set_row(oid, *target, None, keep_set_oids));
                    }
                }
                Value::Ref(target) => {
                    if base.contains(*target) {
                        rows.push(Row::new(vec![
                            Some(Cell::Oid(oid)),
                            Some(Cell::Oid(*target)),
                        ]));
                    }
                }
                atomic => {
                    rows.push(Row::new(vec![Some(Cell::Oid(oid)), Cell::from_gom(atomic)]));
                }
            }
        }
        rows.sort_unstable();
        rows.dedup();
        out.push(SortedRun { arity, rows });
    }
    Ok(out)
}

fn make_set_row(
    owner: asr_gom::Oid,
    set: asr_gom::Oid,
    member: Option<Cell>,
    keep_set_oids: bool,
) -> Row {
    if keep_set_oids {
        Row::new(vec![Some(Cell::Oid(owner)), Some(Cell::Oid(set)), member])
    } else {
        Row::new(vec![Some(Cell::Oid(owner)), member])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_gom::Oid;

    use crate::testutil::figure2_base;

    fn oid_of(base: &ObjectBase, name: &str) -> Oid {
        base.find_by_attribute("Name", &Value::string(name))
            .unwrap_or_else(|| panic!("no object named {name}"))
    }

    #[test]
    fn e0_matches_paper_example() {
        let (base, path) = figure2_base();
        let aux = build_auxiliary_relations(&base, &path, true).unwrap();
        assert_eq!(aux.len(), 3);
        let e0 = &aux[0];
        assert_eq!(e0.arity(), 3);
        // Paper's E0: (i2,i5,i9), (i1,i4,i6), and additionally (i2,i5,i6)
        // because i5 = {i6, i9} (the paper's "..." rows).
        assert_eq!(e0.len(), 3);
        let auto = oid_of(&base, "Auto");
        let truck = oid_of(&base, "Truck");
        let sec = oid_of(&base, "560 SEC");
        let trak = oid_of(&base, "MB Trak");
        let rows: Vec<Vec<Option<Oid>>> = e0
            .iter()
            .map(|r| {
                r.cells()
                    .iter()
                    .map(|c| c.as_ref().and_then(Cell::as_oid))
                    .collect()
            })
            .collect();
        assert!(rows.iter().any(|r| r[0] == Some(auto) && r[2] == Some(sec)));
        assert!(rows
            .iter()
            .any(|r| r[0] == Some(truck) && r[2] == Some(trak)));
        assert!(rows
            .iter()
            .any(|r| r[0] == Some(truck) && r[2] == Some(sec)));
        // Space has NULL Manufactures — absent entirely.
        let space = oid_of(&base, "Space");
        assert!(rows.iter().all(|r| r[0] != Some(space)));
    }

    #[test]
    fn e2_holds_values_not_oids() {
        let (base, path) = figure2_base();
        let aux = build_auxiliary_relations(&base, &path, false).unwrap();
        let e2 = &aux[2];
        assert_eq!(e2.arity(), 2);
        let door = Row::new(vec![
            Some(Cell::Oid(oid_of(&base, "Door"))),
            Some(Cell::Value(Value::string("Door"))),
        ]);
        assert!(e2.contains(&door));
    }

    #[test]
    fn empty_set_produces_marker_tuple() {
        let (mut base, path) = figure2_base();
        // Give Space an empty ProdSET.
        let space = oid_of(&base, "Space");
        let empty = base.instantiate("ProdSET").unwrap();
        base.set_attribute(space, "Manufactures", Value::Ref(empty))
            .unwrap();
        let aux = build_auxiliary_relations(&base, &path, true).unwrap();
        let marker = Row::new(vec![Some(Cell::Oid(space)), Some(Cell::Oid(empty)), None]);
        assert!(aux[0].contains(&marker), "Definition 3.3 empty-set tuple");
        // Binary form: (space, NULL).
        let aux2 = build_auxiliary_relations(&base, &path, false).unwrap();
        assert!(aux2[0].contains(&Row::new(vec![Some(Cell::Oid(space)), None])));
    }

    #[test]
    fn dangling_references_skipped() {
        let (mut base, path) = figure2_base();
        let door = oid_of(&base, "Door");
        base.delete(door).unwrap();
        let aux = build_auxiliary_relations(&base, &path, true).unwrap();
        // E1 loses the (i6, i7, i8) member row; i7 still has no live
        // members, so the empty-set marker appears instead.
        let sec = oid_of(&base, "560 SEC");
        let e1_rows: Vec<&Row> = aux[1]
            .iter()
            .filter(|r| r.cell(0) == &Some(Cell::Oid(sec)))
            .collect();
        assert_eq!(e1_rows.len(), 1);
        assert_eq!(e1_rows[0].cell(2), &None);
        // E2 no longer mentions the deleted BasePart.
        assert!(aux[2].iter().all(|r| r.cell(0) != &Some(Cell::Oid(door))));
    }

    #[test]
    fn binary_form_dedups_shared_elements() {
        let (base, path) = figure2_base();
        let aux3 = build_auxiliary_relations(&base, &path, true).unwrap();
        let aux2 = build_auxiliary_relations(&base, &path, false).unwrap();
        // Dropping the set column can only shrink or keep the row count.
        for (a3, a2) in aux3.iter().zip(aux2.iter()) {
            assert!(a2.len() <= a3.len());
        }
    }
}
