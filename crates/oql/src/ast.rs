//! Abstract syntax of the query notation.

use std::fmt;

/// A dotted reference `var.A1.….Ak` (the attribute chain may be empty —
/// then the reference denotes the variable itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRef {
    /// The range variable.
    pub var: String,
    /// The attribute chain.
    pub attrs: Vec<String>,
}

impl fmt::Display for PathRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.var)?;
        for a in &self.attrs {
            write!(f, ".{a}")?;
        }
        Ok(())
    }
}

/// One `from` binding: `var in source`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// The freshly bound range variable.
    pub var: String,
    /// What it ranges over.
    pub source: Source,
}

/// The source of a binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A named database variable (root) or a type extent, e.g.
    /// `OurRobots` or `ROBOT`.
    Collection(String),
    /// A path from an earlier variable, e.g. `d.Manufactures.Composition`
    /// (the paper's Query 2 binds `b` this way).
    Path(PathRef),
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Collection(name) => f.write_str(name),
            Source::Path(p) => write!(f, "{p}"),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Comparison::Eq => "=",
            Comparison::Ne => "!=",
            Comparison::Lt => "<",
            Comparison::Le => "<=",
            Comparison::Gt => ">",
            Comparison::Ge => ">=",
        })
    }
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// String literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Decimal literal as a signed count of hundredths (the scale of
    /// [`asr_gom::Value::Decimal`]).
    Dec(i64),
    /// Boolean literal.
    Bool(bool),
    /// `NULL`.
    Null,
}

impl Literal {
    /// Convert to a GOM value.
    pub fn to_value(&self) -> asr_gom::Value {
        match self {
            Literal::Str(s) => asr_gom::Value::string(s.clone()),
            Literal::Int(i) => asr_gom::Value::Integer(*i),
            Literal::Dec(hundredths) => asr_gom::Value::Decimal(*hundredths),
            Literal::Bool(b) => asr_gom::Value::Bool(*b),
            Literal::Null => asr_gom::Value::Null,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Str(s) => write!(f, "\"{s}\""),
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Dec(hundredths) => {
                let sign = if *hundredths < 0 { "-" } else { "" };
                let magnitude = hundredths.unsigned_abs();
                write!(f, "{sign}{}.{:02}", magnitude / 100, magnitude % 100)
            }
            Literal::Bool(b) => write!(f, "{b}"),
            Literal::Null => f.write_str("NULL"),
        }
    }
}

/// One `where` predicate: `path op literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The dotted reference being tested.
    pub path: PathRef,
    /// The comparison.
    pub op: Comparison,
    /// The right-hand literal.
    pub literal: Literal,
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.path, self.op, self.literal)
    }
}

/// A whole query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Projections (dotted references).
    pub projections: Vec<PathRef>,
    /// Range-variable bindings, in order.
    pub bindings: Vec<Binding>,
    /// Conjunctive predicates (possibly empty).
    pub predicates: Vec<Predicate>,
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select ")?;
        for (i, p) in self.projections.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, " from ")?;
        for (i, b) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} in {}", b.var, b.source)?;
        }
        if !self.predicates.is_empty() {
            write!(f, " where ")?;
            for (i, p) in self.predicates.iter().enumerate() {
                if i > 0 {
                    write!(f, " and ")?;
                }
                write!(f, "{p}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trip_shape() {
        let q = Query {
            projections: vec![PathRef {
                var: "r".into(),
                attrs: vec!["Name".into()],
            }],
            bindings: vec![Binding {
                var: "r".into(),
                source: Source::Collection("OurRobots".into()),
            }],
            predicates: vec![Predicate {
                path: PathRef {
                    var: "r".into(),
                    attrs: vec!["Arm".into(), "MountedTool".into()],
                },
                op: Comparison::Eq,
                literal: Literal::Str("x".into()),
            }],
        };
        let s = q.to_string();
        assert!(s.starts_with("select r.Name from r in OurRobots where"));
        assert!(s.contains("r.Arm.MountedTool = \"x\""));
    }

    #[test]
    fn literal_conversion() {
        assert_eq!(Literal::Int(5).to_value(), asr_gom::Value::Integer(5));
        assert_eq!(
            Literal::Dec(120_550).to_value(),
            asr_gom::Value::decimal(1205, 50)
        );
        assert!(Literal::Null.to_value().is_null());
    }
}
