//! Path expressions (Definition 3.1 of the paper).
//!
//! A path expression `t0.A1.….An` on an anchor type `t0` is valid iff for
//! each `1 ≤ i ≤ n` one of:
//!
//! 1. `t_{i-1}` is a tuple type with an attribute `A_i: t_i`
//!    (a *single-valued* step), or
//! 2. `t_{i-1}` has an attribute `A_i: t'_i` where `t'_i is {t_i}`
//!    (a **set occurrence** at `A_i`).
//!
//! `t_{i-1}` is the *domain* type of `A_i` and `t_i` its *range* type.
//! A path without set occurrences is called *linear*.  Power-sets (a set
//! attribute whose element type is itself a set) are not permitted.
//!
//! The access support relation for a path with `k` set occurrences has arity
//! `n + k + 1`: each set occurrence contributes an extra column holding the
//! set object's OID (the paper's `S_{i+k(i)}` indexing, Definition 3.2).

use std::fmt;

use crate::atomic::AtomicType;
use crate::error::{GomError, Result};
use crate::schema::Schema;
use crate::types::{TypeId, TypeRef};

/// One validated step `A_i` of a path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// The attribute name `A_i`.
    pub attr: String,
    /// The domain type `t_{i-1}` (always a tuple type).
    pub domain: TypeId,
    /// For a set occurrence, the intermediate set type `t'_i`.
    pub set_type: Option<TypeId>,
    /// The range `t_i`: a named type, or an atomic type (only possible on
    /// the final step).
    pub range: TypeRef,
}

impl PathStep {
    /// `true` iff this step traverses a set-valued attribute.
    pub fn is_set_occurrence(&self) -> bool {
        self.set_type.is_some()
    }
}

/// What a relation column of the access support relation holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnDomain {
    /// OIDs of instances of a named type.
    Oids(TypeId),
    /// Atomic attribute values (only the last column of a value-terminated
    /// path).
    Values(AtomicType),
}

/// A validated path expression `t0.A1.….An`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathExpression {
    anchor: TypeId,
    anchor_name: String,
    steps: Vec<PathStep>,
    rendered: String,
}

impl PathExpression {
    /// Validate a path given by the anchor type name and attribute names.
    pub fn new<'a>(
        schema: &Schema,
        anchor: &str,
        attrs: impl IntoIterator<Item = &'a str>,
    ) -> Result<Self> {
        let anchor_id = schema.require(anchor)?;
        if !schema.def(anchor_id)?.kind.is_tuple() {
            return Err(GomError::InvalidPath(format!(
                "anchor type `{anchor}` must be tuple-structured"
            )));
        }
        let mut steps = Vec::new();
        let mut domain = anchor_id;
        let mut rendered = anchor.to_string();
        let mut attrs = attrs.into_iter().peekable();
        if attrs.peek().is_none() {
            return Err(GomError::InvalidPath(
                "a path needs at least one attribute".into(),
            ));
        }
        while let Some(attr) = attrs.next() {
            rendered.push('.');
            rendered.push_str(attr);
            let declared = schema.slot(domain, attr)?.1.ty;
            let step = match declared {
                TypeRef::Atomic(a) => {
                    if attrs.peek().is_some() {
                        return Err(GomError::InvalidPath(format!(
                            "attribute `{attr}` is atomic ({}) and cannot be navigated further",
                            a.name()
                        )));
                    }
                    PathStep {
                        attr: attr.into(),
                        domain,
                        set_type: None,
                        range: declared,
                    }
                }
                TypeRef::Named(target) => {
                    let target_def = schema.def(target)?;
                    if target_def.kind.is_tuple() {
                        PathStep {
                            attr: attr.into(),
                            domain,
                            set_type: None,
                            range: TypeRef::Named(target),
                        }
                    } else if target_def.kind.is_set() || target_def.kind.is_list() {
                        // A set occurrence at A_i.  (Lists are treated like
                        // sets for access support — Section 2.1.)
                        let element = target_def.kind.element().expect("set/list has element");
                        match element {
                            TypeRef::Named(elem_id) => {
                                let elem_def = schema.def(elem_id)?;
                                if !elem_def.kind.is_tuple() {
                                    return Err(GomError::InvalidPath(format!(
                                        "power-sets are not permitted: `{attr}` is a collection \
                                         of the non-tuple type `{}`",
                                        schema.name(elem_id)
                                    )));
                                }
                                PathStep {
                                    attr: attr.into(),
                                    domain,
                                    set_type: Some(target),
                                    range: TypeRef::Named(elem_id),
                                }
                            }
                            TypeRef::Atomic(a) => {
                                if attrs.peek().is_some() {
                                    return Err(GomError::InvalidPath(format!(
                                        "`{attr}` is a collection of atomic {} values and cannot \
                                         be navigated further",
                                        a.name()
                                    )));
                                }
                                PathStep {
                                    attr: attr.into(),
                                    domain,
                                    set_type: Some(target),
                                    range: TypeRef::Atomic(a),
                                }
                            }
                        }
                    } else {
                        unreachable!("type kinds are tuple/set/list")
                    }
                }
            };
            // Prepare the next domain.
            if attrs.peek().is_some() {
                match step.range {
                    TypeRef::Named(next) => domain = next,
                    TypeRef::Atomic(_) => unreachable!("checked above"),
                }
            }
            steps.push(step);
        }
        Ok(PathExpression {
            anchor: anchor_id,
            anchor_name: anchor.to_string(),
            steps,
            rendered,
        })
    }

    /// Parse dotted notation, e.g.
    /// `"ROBOT.Arm.MountedTool.ManufacturedBy.Location"`.
    pub fn parse(schema: &Schema, dotted: &str) -> Result<Self> {
        let mut parts = dotted.split('.');
        let anchor = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| GomError::InvalidPath("empty path".into()))?;
        let attrs: Vec<&str> = parts.collect();
        if attrs.iter().any(|a| a.is_empty()) {
            return Err(GomError::InvalidPath(format!(
                "empty attribute name in `{dotted}`"
            )));
        }
        PathExpression::new(schema, anchor, attrs)
    }

    /// The anchor type `t0`.
    pub fn anchor(&self) -> TypeId {
        self.anchor
    }

    /// The anchor type's name.
    pub fn anchor_name(&self) -> &str {
        &self.anchor_name
    }

    /// The path length `n` (number of attributes).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Paths are never empty; provided for lint symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The validated steps `A_1 … A_n`.
    pub fn steps(&self) -> &[PathStep] {
        &self.steps
    }

    /// Number of set occurrences `k` in the whole path.
    pub fn set_occurrences(&self) -> usize {
        self.steps.iter().filter(|s| s.is_set_occurrence()).count()
    }

    /// `k(i)`: the number of set occurrences strictly before `A_i`
    /// (at `A_j` for `j < i`); `i` is 1-based as in the paper.
    pub fn k_before(&self, i: usize) -> usize {
        assert!((1..=self.len()).contains(&i), "step index out of range");
        self.steps[..i - 1]
            .iter()
            .filter(|s| s.is_set_occurrence())
            .count()
    }

    /// A path is *linear* iff it contains no set occurrence.
    pub fn is_linear(&self) -> bool {
        self.set_occurrences() == 0
    }

    /// Does the path terminate in an atomic value (footnote 3: then the
    /// last relation column holds values rather than OIDs)?
    pub fn ends_in_value(&self) -> bool {
        matches!(self.steps.last().map(|s| s.range), Some(TypeRef::Atomic(_)))
    }

    /// The type `t_i` at position `i` (0 = anchor).  For the final position
    /// of a value-terminated path this is the atomic range.
    pub fn type_at(&self, i: usize) -> TypeRef {
        if i == 0 {
            TypeRef::Named(self.anchor)
        } else {
            self.steps[i - 1].range
        }
    }

    /// The arity of the access support relation over this path:
    /// `n + k + 1` when set-object OIDs are kept, `n + 1` otherwise
    /// (Definition 3.2 resp. the paper's simplification `m = n`).
    pub fn arity(&self, keep_set_oids: bool) -> usize {
        if keep_set_oids {
            self.len() + self.set_occurrences() + 1
        } else {
            self.len() + 1
        }
    }

    /// The column domains `S_0 … S_m` of the access support relation.
    pub fn columns(&self, keep_set_oids: bool) -> Vec<ColumnDomain> {
        let mut cols = vec![ColumnDomain::Oids(self.anchor)];
        for step in &self.steps {
            if keep_set_oids {
                if let Some(set_ty) = step.set_type {
                    cols.push(ColumnDomain::Oids(set_ty));
                }
            }
            cols.push(match step.range {
                TypeRef::Named(id) => ColumnDomain::Oids(id),
                TypeRef::Atomic(a) => ColumnDomain::Values(a),
            });
        }
        cols
    }

    /// The relation column index holding `t_i` objects: `i + k(i)` when set
    /// OIDs are kept (the paper's `S_{i+k(i)}`), plainly `i` otherwise.
    pub fn column_of(&self, i: usize, keep_set_oids: bool) -> usize {
        if !keep_set_oids || i == 0 {
            return i;
        }
        i + self.k_before(i) + usize::from(self.steps[i - 1].is_set_occurrence())
    }
}

impl fmt::Display for PathExpression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.rendered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schemas() -> Schema {
        let mut s = Schema::new();
        // Linear robot path.
        s.define_tuple("MANUFACTURER", [("Name", "STRING"), ("Location", "STRING")])
            .unwrap();
        s.define_tuple(
            "TOOL",
            [("Function", "STRING"), ("ManufacturedBy", "MANUFACTURER")],
        )
        .unwrap();
        s.define_tuple("ARM", [("MountedTool", "TOOL")]).unwrap();
        s.define_tuple("ROBOT", [("Name", "STRING"), ("Arm", "ARM")])
            .unwrap();
        // Company path with set occurrences.
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
        s.define_tuple("BasePart", [("Name", "STRING"), ("Price", "DECIMAL")])
            .unwrap();
        s.define_set("STRSET", "STRING").unwrap();
        s.define_tuple("Tagged", [("Tags", "STRSET")]).unwrap();
        s.define_set("SETSET", "ProdSET").unwrap();
        s.define_tuple("Nested", [("Sets", "SETSET")]).unwrap();
        s.validate().unwrap();
        s
    }

    #[test]
    fn linear_path_validates() {
        let s = schemas();
        let p = PathExpression::parse(&s, "ROBOT.Arm.MountedTool.ManufacturedBy.Location").unwrap();
        assert_eq!(p.len(), 4);
        assert!(p.is_linear());
        assert!(p.ends_in_value());
        assert_eq!(p.arity(true), 5);
        assert_eq!(p.arity(false), 5);
        assert_eq!(
            p.to_string(),
            "ROBOT.Arm.MountedTool.ManufacturedBy.Location"
        );
        assert_eq!(p.anchor_name(), "ROBOT");
    }

    #[test]
    fn set_occurrences_counted() {
        let s = schemas();
        let p = PathExpression::parse(&s, "Division.Manufactures.Composition.Name").unwrap();
        assert_eq!(p.len(), 3, "n = 3");
        assert_eq!(p.set_occurrences(), 2, "k = 2");
        assert!(!p.is_linear());
        // Definition 3.2: arity n + k (+1 for S_0).
        assert_eq!(p.arity(true), 6);
        assert_eq!(p.arity(false), 4);
        assert_eq!(p.k_before(1), 0);
        assert_eq!(p.k_before(2), 1);
        assert_eq!(p.k_before(3), 2);
    }

    #[test]
    fn column_layout_matches_definition_3_2() {
        let s = schemas();
        let p = PathExpression::parse(&s, "Division.Manufactures.Composition.Name").unwrap();
        let cols = p.columns(true);
        let names: Vec<String> = cols
            .iter()
            .map(|c| match c {
                ColumnDomain::Oids(id) => s.name(*id).to_string(),
                ColumnDomain::Values(a) => a.name().to_string(),
            })
            .collect();
        assert_eq!(
            names,
            vec![
                "Division",
                "ProdSET",
                "Product",
                "BasePartSET",
                "BasePart",
                "STRING"
            ]
        );
        // S_{i+k(i)}: objects of type t_1=Product live in column 1+k(1)+1 = 2.
        assert_eq!(p.column_of(0, true), 0);
        assert_eq!(p.column_of(1, true), 2);
        assert_eq!(p.column_of(2, true), 4);
        assert_eq!(p.column_of(3, true), 5);
        // Without set OIDs columns collapse to position i.
        assert_eq!(p.column_of(2, false), 2);
        let thin = p.columns(false);
        assert_eq!(thin.len(), 4);
    }

    #[test]
    fn atomic_midway_rejected() {
        let s = schemas();
        let err = PathExpression::parse(&s, "ROBOT.Name.Length").unwrap_err();
        assert!(matches!(err, GomError::InvalidPath(_)));
    }

    #[test]
    fn unknown_pieces_rejected() {
        let s = schemas();
        assert!(PathExpression::parse(&s, "DROID.Arm").is_err());
        assert!(matches!(
            PathExpression::parse(&s, "ROBOT.Wheels"),
            Err(GomError::UnknownAttribute { .. })
        ));
        assert!(
            PathExpression::parse(&s, "ROBOT").is_err(),
            "needs >= 1 attribute"
        );
        assert!(PathExpression::parse(&s, "").is_err());
        assert!(PathExpression::parse(&s, "ROBOT..Arm").is_err());
    }

    #[test]
    fn set_of_atomic_must_terminate() {
        let s = schemas();
        let p = PathExpression::parse(&s, "Tagged.Tags").unwrap();
        assert!(p.ends_in_value());
        assert_eq!(p.set_occurrences(), 1);
        assert!(PathExpression::parse(&s, "Tagged.Tags.Length").is_err());
    }

    #[test]
    fn powerset_rejected() {
        let s = schemas();
        let err = PathExpression::parse(&s, "Nested.Sets").unwrap_err();
        let GomError::InvalidPath(msg) = err else {
            panic!("wrong error kind")
        };
        assert!(msg.contains("power-set"));
    }

    #[test]
    fn anchor_must_be_tuple() {
        let s = schemas();
        assert!(PathExpression::parse(&s, "ProdSET.Name").is_err());
    }

    #[test]
    fn type_at_walks_the_chain() {
        let s = schemas();
        let p = PathExpression::parse(&s, "Division.Manufactures.Composition.Name").unwrap();
        assert_eq!(s.ref_name(p.type_at(0)), "Division");
        assert_eq!(s.ref_name(p.type_at(1)), "Product");
        assert_eq!(s.ref_name(p.type_at(2)), "BasePart");
        assert_eq!(s.ref_name(p.type_at(3)), "STRING");
    }
}
