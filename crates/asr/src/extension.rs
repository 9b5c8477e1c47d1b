//! The four extensions of an access support relation
//! (Definitions 3.4–3.7) and their query-applicability rules
//! (Section 5.3 / formula 35).

use std::borrow::Borrow;
use std::fmt;

use crate::decomposition::{CellRows, Decomposition};
use crate::error::Result;
use crate::join::{fold_left, fold_right, JoinKind};
use crate::relation::Relation;
use crate::row::Row;

/// Which tuples an access support relation materializes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Extension {
    /// `E_can = E_0 ⋈ … ⋈ E_{n-1}` — complete paths from `t_0` to `t_n`
    /// only.  The minimum information supporting whole-chain queries.
    Canonical,
    /// `E_full = E_0 ⟗ … ⟗ E_{n-1}` — every (maximal) partial path,
    /// including those neither anchored in `t_0` nor reaching `t_n`.
    Full,
    /// `E_left = (…(E_0 ⟕ E_1) ⟕ …) ⟕ E_{n-1}` — all partial paths
    /// originating in `t_0` (possibly dangling on the right).
    LeftComplete,
    /// `E_right = E_0 ⟖ (… ⟖ (E_{n-2} ⟖ E_{n-1}))` — all partial paths
    /// reaching `t_n` (possibly not anchored in `t_0`).
    RightComplete,
}

impl Extension {
    /// All extensions, in the paper's presentation order.
    pub const ALL: [Extension; 4] = [
        Extension::Canonical,
        Extension::Full,
        Extension::LeftComplete,
        Extension::RightComplete,
    ];

    /// Short name used in diagnostics, experiment tables, snapshots and
    /// the WAL.
    pub const fn name(self) -> &'static str {
        match self {
            Extension::Canonical => "canonical",
            Extension::Full => "full",
            Extension::LeftComplete => "left",
            Extension::RightComplete => "right",
        }
    }

    /// The extension whose [`Extension::name`] is `name`, if any — the one
    /// parser of extension names.
    pub fn from_name(name: &str) -> Option<Extension> {
        Extension::ALL.into_iter().find(|e| e.name() == name)
    }

    /// The join flavour that assembles this extension from the auxiliary
    /// relations.
    pub const fn join_kind(self) -> JoinKind {
        match self {
            Extension::Canonical => JoinKind::Natural,
            Extension::Full => JoinKind::FullOuter,
            Extension::LeftComplete => JoinKind::LeftOuter,
            Extension::RightComplete => JoinKind::RightOuter,
        }
    }

    /// Compute the extension from the auxiliary relations `E_0 … E_{n-1}`
    /// (Definitions 3.4–3.7) by the reassembly walk of Theorem 3.9: the
    /// auxiliary relations are the partitions of the extension under the
    /// decomposition that cuts at every step (binary, but for the
    /// three-column relations of set occurrences when set OIDs are kept),
    /// so reassembling them is [`Self::fold`] without its intermediate
    /// relations.
    pub fn compute(self, aux: &[Relation]) -> Result<Relation> {
        let arities: Vec<usize> = aux.iter().map(Relation::arity).collect();
        let width = 1 + arities.iter().map(|a| a - 1).sum::<usize>();
        let rows = self.walk(
            &arities,
            aux.iter().map(|rel| rel.iter().collect::<Vec<_>>()),
        )?;
        Ok(Relation::from_set(
            width,
            rows.into_rows().into_iter().collect(),
        ))
    }

    /// [`Self::compute`]'s walk over the auxiliary relations' rows, owned
    /// or borrowed (`arities[k]` cells each in the `k`th): the
    /// extension's rows in walk order.
    pub(crate) fn walk<P, R>(
        self,
        arities: &[usize],
        aux: impl IntoIterator<Item = P>,
    ) -> Result<CellRows>
    where
        P: AsRef<[R]>,
        R: Borrow<Row>,
    {
        let ends = arities.iter().scan(0, |end, arity| {
            *end += arity.saturating_sub(1);
            Some(*end)
        });
        let cuts: Vec<usize> = std::iter::once(0).chain(ends).collect();
        Decomposition::new(cuts)?.reassemble_cells(aux, self)
    }

    /// Definitions 3.4–3.7 as written: the fold of `chain_join`s over the
    /// auxiliary relations in the extension's association order —
    /// left-complete folds left-associatively, right-complete
    /// right-associatively, exactly as the definitions parenthesize.  The
    /// definitional oracle [`Self::compute`] and
    /// [`Decomposition::reassemble`] are tested against.
    pub fn fold(self, aux: &[Relation]) -> Result<Relation> {
        match self {
            Extension::RightComplete => fold_right(aux, self.join_kind()),
            _ => fold_left(aux, self.join_kind()),
        }
    }

    /// Formula (35): can this extension evaluate a span query
    /// `Q_{i,j}` (forward or backward) over a path of length `n`?
    ///
    /// * canonical — only the whole chain (`i = 0 ∧ j = n`);
    /// * full — every span;
    /// * left-complete — spans anchored at `t_0` (`i = 0`);
    /// * right-complete — spans reaching `t_n` (`j = n`).
    pub fn supports(self, i: usize, j: usize, n: usize) -> bool {
        debug_assert!(i < j && j <= n);
        match self {
            Extension::Canonical => i == 0 && j == n,
            Extension::Full => true,
            Extension::LeftComplete => i == 0,
            Extension::RightComplete => j == n,
        }
    }
}

impl fmt::Display for Extension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auxrel::build_auxiliary_relations;
    use crate::cell::Cell;
    use asr_gom::{ObjectBase, Value};

    fn oid_of(base: &ObjectBase, name: &str) -> Option<Cell> {
        base.find_by_attribute("Name", &Value::string(name))
            .map(|oid| Some(Cell::Oid(oid)))
            .unwrap_or_else(|| panic!("no object named {name}"))
    }

    fn val(s: &str) -> Option<Cell> {
        Some(Cell::Value(Value::string(s)))
    }

    /// All four extensions over the paper's Figure 2 extension,
    /// binary (set-OID-free) auxiliary relations.
    fn extensions() -> (ObjectBase, [Relation; 4]) {
        let (base, path) = crate::testutil::figure2_base();
        let aux = build_auxiliary_relations(&base, &path, false).unwrap();
        let e = Extension::ALL.map(|ext| {
            let folded = ext.fold(&aux).unwrap();
            assert_eq!(ext.compute(&aux).unwrap(), folded, "{ext}");
            folded
        });
        (base, e)
    }

    #[test]
    fn canonical_contains_only_complete_paths() {
        let (base, [can, _, _, _]) = extensions();
        assert_eq!(can.len(), 2);
        let auto_row = Row::new(vec![
            oid_of(&base, "Auto"),
            oid_of(&base, "560 SEC"),
            oid_of(&base, "Door"),
            val("Door"),
        ]);
        let truck_row = Row::new(vec![
            oid_of(&base, "Truck"),
            oid_of(&base, "560 SEC"),
            oid_of(&base, "Door"),
            val("Door"),
        ]);
        assert!(
            can.contains(&auto_row),
            "the paper's example canonical tuple"
        );
        assert!(
            can.contains(&truck_row),
            "i5 = {{i6, i9}} also reaches Door"
        );
    }

    #[test]
    fn full_contains_incomplete_paths_both_ways() {
        let (base, [_, full, _, _]) = extensions();
        assert_eq!(full.len(), 4);
        // Paper's first E_full example tuple: (i2, i9, NULL, NULL) — the
        // Truck division's MB Trak has no Composition.
        let dangling_right = Row::new(vec![
            oid_of(&base, "Truck"),
            oid_of(&base, "MB Trak"),
            None,
            None,
        ]);
        // Paper's second: (NULL, i11, i14, "Pepper") — Sausage is not
        // manufactured by any Division.
        let dangling_left = Row::new(vec![
            None,
            oid_of(&base, "Sausage"),
            oid_of(&base, "Pepper"),
            val("Pepper"),
        ]);
        assert!(full.contains(&dangling_right));
        assert!(full.contains(&dangling_left));
    }

    #[test]
    fn left_complete_requires_anchor() {
        let (base, [_, _, left, _]) = extensions();
        assert_eq!(left.len(), 3);
        assert!(
            left.iter().all(|r| r.first().is_some()),
            "all rows originate in t_0"
        );
        assert!(left.contains(&Row::new(vec![
            oid_of(&base, "Truck"),
            oid_of(&base, "MB Trak"),
            None,
            None,
        ])));
    }

    #[test]
    fn right_complete_requires_terminal() {
        let (base, [_, _, _, right]) = extensions();
        assert_eq!(right.len(), 3);
        assert!(
            right.iter().all(|r| r.last().is_some()),
            "all rows reach A_n"
        );
        assert!(right.contains(&Row::new(vec![
            None,
            oid_of(&base, "Sausage"),
            oid_of(&base, "Pepper"),
            val("Pepper"),
        ])));
    }

    #[test]
    fn containment_hierarchy() {
        let (_, [can, full, left, right]) = extensions();
        assert!(can.is_subset_of(&left));
        assert!(can.is_subset_of(&right));
        assert!(left.is_subset_of(&full));
        assert!(right.is_subset_of(&full));
    }

    #[test]
    fn formula_35_support_matrix() {
        let n = 4;
        // (extension, i, j, expected)
        let cases = [
            (Extension::Canonical, 0, 4, true),
            (Extension::Canonical, 0, 3, false),
            (Extension::Canonical, 1, 4, false),
            (Extension::Full, 1, 3, true),
            (Extension::Full, 0, 4, true),
            (Extension::LeftComplete, 0, 2, true),
            (Extension::LeftComplete, 1, 4, false),
            (Extension::RightComplete, 2, 4, true),
            (Extension::RightComplete, 0, 3, false),
        ];
        for (ext, i, j, expected) in cases {
            assert_eq!(ext.supports(i, j, n), expected, "{ext} Q_{{{i},{j}}}");
        }
    }

    #[test]
    fn set_oid_form_has_wider_arity() {
        let (base, path) = crate::testutil::figure2_base();
        let aux = build_auxiliary_relations(&base, &path, true).unwrap();
        let can = Extension::Canonical.fold(&aux).unwrap();
        assert_eq!(can.arity(), 6, "n + k + 1 = 3 + 2 + 1");
        assert_eq!(can.len(), 2);
        let full = Extension::Full.fold(&aux).unwrap();
        assert_eq!(full.arity(), 6);
        assert!(full.len() >= 4);
        for ext in Extension::ALL {
            assert_eq!(ext.compute(&aux).unwrap(), ext.fold(&aux).unwrap(), "{ext}");
        }
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Extension::Canonical.to_string(), "canonical");
        assert_eq!(Extension::ALL.len(), 4);
    }

    #[test]
    fn names_round_trip_and_unknown_names_are_rejected() {
        for ext in Extension::ALL {
            assert_eq!(Extension::from_name(ext.name()), Some(ext));
        }
        for name in ["", "can", "Full", "full ", "left-complete", "none"] {
            assert_eq!(Extension::from_name(name), None, "{name:?}");
        }
    }
}
