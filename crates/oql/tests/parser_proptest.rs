//! Property tests for the query parser: every well-formed AST prints and
//! re-parses to itself, and arbitrary byte soup never panics the
//! lexer/parser.

use asr_oql::ast::{Binding, Comparison, Literal, PathRef, Predicate, Query, Source};
use asr_oql::parse;
use proptest::prelude::*;

fn ident() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_]{0,8}".prop_filter("not a keyword", |s| {
        !matches!(
            s.to_ascii_lowercase().as_str(),
            "select" | "from" | "where" | "in" | "and" | "true" | "false" | "null"
        )
    })
}

fn path_ref(var: String) -> impl Strategy<Value = PathRef> {
    proptest::collection::vec(ident(), 0..4).prop_map(move |attrs| PathRef {
        var: var.clone(),
        attrs,
    })
}

fn literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        "[a-zA-Z0-9 _.-]{0,12}".prop_map(Literal::Str),
        any::<i32>().prop_map(|i| Literal::Int(i as i64)),
        prop_oneof![
            -99i64..0,
            -1_000_000i64..1_000_000,
            any::<i64>(),
            Just(i64::MIN),
            Just(i64::MAX),
        ]
        .prop_map(Literal::Dec),
        any::<bool>().prop_map(Literal::Bool),
        Just(Literal::Null),
    ]
}

fn comparison() -> impl Strategy<Value = Comparison> {
    prop_oneof![
        Just(Comparison::Eq),
        Just(Comparison::Ne),
        Just(Comparison::Lt),
        Just(Comparison::Le),
        Just(Comparison::Gt),
        Just(Comparison::Ge),
    ]
}

fn query() -> impl Strategy<Value = Query> {
    (
        proptest::collection::vec(ident(), 1..4),
        ident(),
        proptest::collection::vec((comparison(), literal()), 0..3),
    )
        .prop_flat_map(|(vars, collection, pred_parts)| {
            let first = vars[0].clone();
            let proj_strategies: Vec<_> =
                vars.iter().map(|v| path_ref(v.clone()).boxed()).collect();
            let pred_strategies: Vec<_> = pred_parts
                .into_iter()
                .map(|(op, lit)| {
                    let v = first.clone();
                    (path_ref(v), Just(op), Just(lit))
                        .prop_filter_map("predicates need attrs", |(p, op, lit)| {
                            if p.attrs.is_empty() {
                                None
                            } else {
                                Some(Predicate {
                                    path: p,
                                    op,
                                    literal: lit,
                                })
                            }
                        })
                        .boxed()
                })
                .collect();
            let vars2 = vars.clone();
            (proj_strategies, pred_strategies).prop_map(move |(projections, predicates)| {
                let mut bindings = vec![Binding {
                    var: vars2[0].clone(),
                    source: Source::Collection(collection.clone()),
                }];
                for v in vars2.iter().skip(1) {
                    if bindings.iter().any(|b| &b.var == v) {
                        continue;
                    }
                    bindings.push(Binding {
                        var: v.clone(),
                        source: Source::Path(PathRef {
                            var: vars2[0].clone(),
                            attrs: vec!["x".into()],
                        }),
                    });
                }
                // Projections must reference bound variables only.
                let projections = projections
                    .into_iter()
                    .filter(|p| bindings.iter().any(|b| b.var == p.var))
                    .collect::<Vec<_>>();
                let projections = if projections.is_empty() {
                    vec![PathRef {
                        var: vars2[0].clone(),
                        attrs: vec![],
                    }]
                } else {
                    projections
                };
                Query {
                    projections,
                    bindings,
                    predicates,
                }
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn display_parse_round_trip(q in query()) {
        let text = q.to_string();
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
        prop_assert_eq!(reparsed, q);
    }

    #[test]
    fn parser_never_panics(junk in "[ -~\n]{0,120}") {
        let _ = parse(&junk); // errors allowed, panics not
    }

    #[test]
    fn lexer_handles_all_printable_input(junk in "\\PC{0,80}") {
        let _ = asr_oql::lexer::tokenize(&junk);
    }
}
