//! # asr-oql — the paper's SQL-like query language
//!
//! Kemper & Moerkotte present every example query in an SQL-like
//! notation (Section 2):
//!
//! ```text
//! select r.Name
//! from r in OurRobots
//! where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"
//! ```
//!
//! This crate implements that notation end to end: a lexer, a
//! recursive-descent parser, semantic analysis against the GOM schema, a
//! small **planner** that recognizes when a `where` predicate can be
//! answered by a registered access support relation (turning the
//! selection into a *backward* span query), and an executor with naive
//! navigation as the fallback.
//!
//! Supported grammar (a faithful subset of the paper's examples):
//!
//! ```text
//! query   := "select" proj ("," proj)*
//!            "from" binding ("," binding)*
//!            ("where" pred ("and" pred)*)?
//! proj    := IDENT ("." IDENT)*
//! binding := IDENT "in" source
//! source  := IDENT ("." IDENT)*          -- a database variable (root),
//!                                        -- a type extent, or a path from
//!                                        -- an earlier variable
//! pred    := proj op literal
//! op      := "=" | "!=" | "<" | "<=" | ">" | ">="
//! literal := STRING | NUMBER | "true" | "false" | "NULL"
//! ```
//!
//! ```
//! use asr_oql::execute;
//! use asr_workload::company_database;
//!
//! let ex = company_database();
//! let result = execute(
//!     &ex.db,
//!     r#"select d.Name
//!        from d in Mercedes,
//!             b in d.Manufactures.Composition
//!        where b.Name = "Door""#,
//! ).unwrap();
//! assert_eq!(result.rows.len(), 2); // Auto and Truck
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod ast;
pub mod error;
pub mod exec;
pub mod lexer;
pub mod parser;
pub mod plan;

pub use analyze::{explain_analyze, AnalyzeReport, OperatorReport};
pub use ast::{Binding, Comparison, Literal, PathRef, Predicate, Query};
pub use error::{OqlError, Result};
pub use exec::{execute, execute_profiled, execute_query, ExecProfile, OpIo, ResultSet};
pub use parser::parse;
pub use plan::{explain, Plan};
