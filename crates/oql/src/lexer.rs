//! Tokenizer for the SQL-like query notation.

use crate::ast::Literal;
use crate::error::{OqlError, Result};

/// A token with its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Byte offset where the token starts (for error messages).
    pub offset: usize,
    /// The token itself.
    pub kind: TokenKind,
}

/// The token kinds of the grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Keyword `select` (case-insensitive).
    Select,
    /// Keyword `from`.
    From,
    /// Keyword `where`.
    Where,
    /// Keyword `in`.
    In,
    /// Keyword `and`.
    And,
    /// An identifier (variable, attribute, collection name).
    Ident(String),
    /// A string literal, quotes removed.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A decimal literal as a signed count of hundredths — `-0.5` is
    /// `Dec(-50)`, the paper's `1205.50` is `Dec(120_550)`.
    Dec(i64),
    /// `true` / `false`.
    Bool(bool),
    /// `NULL`.
    Null,
    /// `.`
    Dot,
    /// `,`
    Comma,
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
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Str(s) => format!("string \"{s}\""),
            TokenKind::Int(i) => format!("number {i}"),
            TokenKind::Dec(hundredths) => format!("number {}", Literal::Dec(*hundredths)),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("{other:?}").to_lowercase(),
        }
    }
}

/// Tokenize the whole input.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let char_at = |i: usize| input[i..].chars().next().expect("in-bounds char");
    while i < bytes.len() {
        let start = i;
        let c = char_at(i);
        match c {
            c if c.is_whitespace() => {
                i += c.len_utf8();
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment (the paper's examples carry prose remarks).
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '.' => {
                tokens.push(Token {
                    offset: start,
                    kind: TokenKind::Dot,
                });
                i += 1;
            }
            ',' => {
                tokens.push(Token {
                    offset: start,
                    kind: TokenKind::Comma,
                });
                i += 1;
            }
            '=' => {
                tokens.push(Token {
                    offset: start,
                    kind: TokenKind::Eq,
                });
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token {
                    offset: start,
                    kind: TokenKind::Ne,
                });
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        offset: start,
                        kind: TokenKind::Le,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        offset: start,
                        kind: TokenKind::Lt,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        offset: start,
                        kind: TokenKind::Ge,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        offset: start,
                        kind: TokenKind::Gt,
                    });
                    i += 1;
                }
            }
            '"' => {
                i += 1;
                let str_start = i;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(OqlError::Lex {
                        offset: start,
                        message: "unterminated string literal".into(),
                    });
                }
                let s = &input[str_start..i];
                i += 1; // closing quote
                tokens.push(Token {
                    offset: start,
                    kind: TokenKind::Str(s.to_string()),
                });
            }
            c if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())) =>
            {
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let out_of_range = || OqlError::Lex {
                    offset: start,
                    message: "number out of range".into(),
                };
                // Parsing the signed text keeps `-9223372036854775808` in
                // range; the fraction below takes the literal's sign, as
                // `-0` parses to 0.
                let whole: i64 = input[start..i].parse().map_err(|_| out_of_range())?;
                let kind = if bytes.get(i) == Some(&b'.')
                    && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())
                {
                    i += 1;
                    let frac_start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let cents: i64 = match &bytes[frac_start..i] {
                        [d] => i64::from(d - b'0') * 10,
                        [d, e] => i64::from(d - b'0') * 10 + i64::from(e - b'0'),
                        _ => {
                            return Err(OqlError::Lex {
                                offset: start,
                                message: "decimals support at most two fractional digits".into(),
                            })
                        }
                    };
                    let cents = if c == '-' { -cents } else { cents };
                    let hundredths = whole
                        .checked_mul(100)
                        .and_then(|h| h.checked_add(cents))
                        .ok_or_else(out_of_range)?;
                    TokenKind::Dec(hundredths)
                } else {
                    TokenKind::Int(whole)
                };
                tokens.push(Token {
                    offset: start,
                    kind,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                while i < bytes.len() {
                    let c = char_at(i);
                    if c.is_alphanumeric() || c == '_' {
                        i += c.len_utf8();
                    } else {
                        break;
                    }
                }
                let word = &input[start..i];
                let kind = match word.to_ascii_lowercase().as_str() {
                    "select" => TokenKind::Select,
                    "from" => TokenKind::From,
                    "where" => TokenKind::Where,
                    "in" => TokenKind::In,
                    "and" => TokenKind::And,
                    "true" => TokenKind::Bool(true),
                    "false" => TokenKind::Bool(false),
                    "null" => TokenKind::Null,
                    _ => TokenKind::Ident(word.to_string()),
                };
                tokens.push(Token {
                    offset: start,
                    kind,
                });
            }
            other => {
                return Err(OqlError::Lex {
                    offset: start,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    tokens.push(Token {
        offset: input.len(),
        kind: TokenKind::Eof,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn paper_query_1_tokenizes() {
        let toks = kinds(
            r#"select r.Name
               from r in OurRobots
               where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia""#,
        );
        assert_eq!(toks[0], TokenKind::Select);
        assert_eq!(toks[1], TokenKind::Ident("r".into()));
        assert_eq!(toks[2], TokenKind::Dot);
        assert!(toks.contains(&TokenKind::Str("Utopia".into())));
        assert_eq!(*toks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            kinds("SELECT FROM WHERE IN AND")[..5].to_vec(),
            vec![
                TokenKind::Select,
                TokenKind::From,
                TokenKind::Where,
                TokenKind::In,
                TokenKind::And,
            ]
        );
    }

    #[test]
    fn numbers_and_decimals() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("-7")[0], TokenKind::Int(-7));
        assert_eq!(kinds("1205.50")[0], TokenKind::Dec(120_550));
        assert_eq!(kinds("0.5")[0], TokenKind::Dec(50));
        assert!(tokenize("1.234").is_err(), "3 fractional digits rejected");
    }

    #[test]
    fn negative_decimals_keep_the_sign_of_their_fraction() {
        assert_eq!(kinds("-0.5")[0], TokenKind::Dec(-50));
        assert_eq!(kinds("-0.05")[0], TokenKind::Dec(-5));
        assert_eq!(kinds("-1205.50")[0], TokenKind::Dec(-120_550));
        assert_eq!(kinds("x.Price = -0.50")[4], TokenKind::Dec(-50));
        assert_eq!(Literal::Dec(-50).to_string(), "-0.50");
        assert_eq!(Literal::Dec(-50).to_value(), asr_gom::Value::Decimal(-50));
    }

    #[test]
    fn numbers_at_the_i64_extremes_lex_or_fail_typed() {
        assert_eq!(kinds("-9223372036854775808")[0], TokenKind::Int(i64::MIN));
        assert_eq!(kinds("92233720368547758.07")[0], TokenKind::Dec(i64::MAX));
        assert_eq!(kinds("-92233720368547758.08")[0], TokenKind::Dec(i64::MIN));
        for overflow in [
            "92233720368547758.08",
            "92233720368547759.5",
            "-92233720368547758.09",
            "9223372036854775808",
        ] {
            assert!(
                matches!(tokenize(overflow), Err(OqlError::Lex { offset: 0, .. })),
                "{overflow}"
            );
        }
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("= != < <= > >=")[..6].to_vec(),
            vec![
                TokenKind::Eq,
                TokenKind::Ne,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
            ]
        );
    }

    #[test]
    fn comments_and_errors() {
        let toks = kinds("select -- the projection\n x");
        assert_eq!(toks.len(), 3, "comment skipped");
        assert!(tokenize("select @").is_err());
        assert!(matches!(
            tokenize(r#"where x = "unterminated"#),
            Err(OqlError::Lex { .. })
        ));
    }

    #[test]
    fn null_and_bool_literals() {
        assert_eq!(kinds("NULL")[0], TokenKind::Null);
        assert_eq!(
            kinds("true false")[..2].to_vec(),
            vec![TokenKind::Bool(true), TokenKind::Bool(false)]
        );
    }
}
