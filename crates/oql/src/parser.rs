//! Recursive-descent parser for the query notation.

use crate::ast::{Binding, Comparison, Literal, PathRef, Predicate, Query, Source};
use crate::error::{OqlError, Result};
use crate::lexer::{tokenize, Token, TokenKind};

/// Parse a query string.
pub fn parse(input: &str) -> Result<Query> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let query = p.query()?;
    p.expect_eof()?;
    Ok(query)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> OqlError {
        OqlError::Parse {
            offset: self.peek().offset,
            message: message.into(),
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if &self.peek().kind == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {what}, found {}",
                self.peek().kind.describe()
            )))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.err(format!(
                "unexpected trailing {}",
                self.peek().kind.describe()
            )))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match &self.peek().kind {
            TokenKind::Ident(name) => {
                let name = name.clone();
                self.advance();
                Ok(name)
            }
            other => Err(self.err(format!("expected {what}, found {}", other.describe()))),
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.expect(&TokenKind::Select, "`select`")?;
        let mut projections = vec![self.path_ref()?];
        while self.peek().kind == TokenKind::Comma {
            self.advance();
            projections.push(self.path_ref()?);
        }
        self.expect(&TokenKind::From, "`from`")?;
        let mut bindings = vec![self.binding()?];
        while self.peek().kind == TokenKind::Comma {
            self.advance();
            bindings.push(self.binding()?);
        }
        let mut predicates = Vec::new();
        if self.peek().kind == TokenKind::Where {
            self.advance();
            predicates.push(self.predicate()?);
            while self.peek().kind == TokenKind::And {
                self.advance();
                predicates.push(self.predicate()?);
            }
        }
        Ok(Query {
            projections,
            bindings,
            predicates,
        })
    }

    fn path_ref(&mut self) -> Result<PathRef> {
        let var = self.ident("a variable or collection name")?;
        let mut attrs = Vec::new();
        while self.peek().kind == TokenKind::Dot {
            self.advance();
            attrs.push(self.ident("an attribute name")?);
        }
        Ok(PathRef { var, attrs })
    }

    fn binding(&mut self) -> Result<Binding> {
        let var = self.ident("a range variable")?;
        self.expect(&TokenKind::In, "`in`")?;
        let head = self.path_ref()?;
        let source = if head.attrs.is_empty() {
            Source::Collection(head.var)
        } else {
            Source::Path(head)
        };
        Ok(Binding { var, source })
    }

    fn predicate(&mut self) -> Result<Predicate> {
        let path = self.path_ref()?;
        let op = match self.peek().kind {
            TokenKind::Eq => Comparison::Eq,
            TokenKind::Ne => Comparison::Ne,
            TokenKind::Lt => Comparison::Lt,
            TokenKind::Le => Comparison::Le,
            TokenKind::Gt => Comparison::Gt,
            TokenKind::Ge => Comparison::Ge,
            _ => return Err(self.err("expected a comparison operator")),
        };
        self.advance();
        let literal = match self.advance().kind {
            TokenKind::Str(s) => Literal::Str(s),
            TokenKind::Int(i) => Literal::Int(i),
            TokenKind::Dec(hundredths) => Literal::Dec(hundredths),
            TokenKind::Bool(b) => Literal::Bool(b),
            TokenKind::Null => Literal::Null,
            other => {
                return Err(self.err(format!("expected a literal, found {}", other.describe())))
            }
        };
        Ok(Predicate { path, op, literal })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_query_1() {
        let q = parse(
            r#"select r.Name
               from r in OurRobots
               where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia""#,
        )
        .unwrap();
        assert_eq!(q.projections.len(), 1);
        assert_eq!(q.projections[0].to_string(), "r.Name");
        assert_eq!(q.bindings.len(), 1);
        assert_eq!(q.bindings[0].var, "r");
        assert_eq!(q.bindings[0].source, Source::Collection("OurRobots".into()));
        assert_eq!(q.predicates.len(), 1);
        assert_eq!(
            q.predicates[0].path.to_string(),
            "r.Arm.MountedTool.ManufacturedBy.Location"
        );
        assert_eq!(q.predicates[0].literal, Literal::Str("Utopia".into()));
    }

    #[test]
    fn paper_query_2_with_path_binding() {
        let q = parse(
            r#"select d.Name
               from d in Mercedes,
                    b in d.Manufactures.Composition
               where b.Name = "Door""#,
        )
        .unwrap();
        assert_eq!(q.bindings.len(), 2);
        match &q.bindings[1].source {
            Source::Path(p) => {
                assert_eq!(p.var, "d");
                assert_eq!(p.attrs, vec!["Manufactures", "Composition"]);
            }
            other => panic!("expected a path source, got {other}"),
        }
    }

    #[test]
    fn paper_query_3_path_projection() {
        let q = parse(
            r#"select d.Manufactures.Composition.Name
               from d in Mercedes
               where d.Name = "Auto""#,
        )
        .unwrap();
        assert_eq!(q.projections[0].attrs.len(), 3);
    }

    #[test]
    fn conjunctions_and_operators() {
        let q =
            parse(r#"select b from b in BasePart where b.Price >= 100.00 and b.Name != "Door""#)
                .unwrap();
        assert_eq!(q.predicates.len(), 2);
        assert_eq!(q.predicates[0].op, Comparison::Ge);
        assert_eq!(q.predicates[0].literal, Literal::Dec(10_000));
        assert_eq!(q.predicates[1].op, Comparison::Ne);
        // Bare-variable projection.
        assert!(q.projections[0].attrs.is_empty());
    }

    #[test]
    fn no_where_clause() {
        let q = parse("select r.Name from r in OurRobots").unwrap();
        assert!(q.predicates.is_empty());
    }

    #[test]
    fn syntax_errors_report_position() {
        for bad in [
            "from r in X",                                // missing select
            "select from r in X",                         // missing projection
            "select r.Name r in X",                       // missing from
            "select r.Name from r X",                     // missing in
            "select r.Name from r in X where r",          // missing operator
            "select r.Name from r in X where r = select", // bad literal
            "select r.Name from r in X extra",            // trailing garbage
        ] {
            let err = parse(bad).unwrap_err();
            assert!(matches!(err, OqlError::Parse { .. }), "{bad}: {err}");
        }
    }

    #[test]
    fn round_trips_through_display() {
        let text = r#"select d.Name from d in Mercedes, b in d.Manufactures.Composition where b.Name = "Door""#;
        let q = parse(text).unwrap();
        let q2 = parse(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }
}
