//! # asr-gom — the Generic Object Model
//!
//! This crate implements **GOM**, the Generic Object Model that serves as the
//! research vehicle of Kemper & Moerkotte, *"Access Support in Object Bases"*
//! (SIGMOD 1990).  GOM unites the salient features of the object-oriented
//! data models of its era in one coherent framework:
//!
//! * **object identity** — every tuple-, set- or list-structured instance
//!   carries an invariant [`Oid`]; atomic values are identified by their
//!   value (see [`Value`]),
//! * **type constructors** — tuple `[a1: t1, …, an: tn]`, set `{t}` and list
//!   `<t>` (see [`TypeKind`]),
//! * **subtyping** — single and multiple inheritance of attributes between
//!   tuple-structured types,
//! * **strong typing** — every attribute, set element and list element is
//!   constrained to a declared type which acts as an *upper bound*; a
//!   subtype instance may always stand in for a supertype,
//! * **instantiation** — freshly instantiated tuple objects have all
//!   attributes set to `NULL`; sets and lists start out empty.
//!
//! On top of the model the crate provides [`PathExpression`] (Definition 3.1
//! of the paper): a validated attribute chain `t0.A1.….An` which may contain
//! *set occurrences* and is the object the access-support-relation machinery
//! in the `asr-core` crate indexes.
//!
//! ## Quick example
//!
//! ```
//! use asr_gom::{Schema, ObjectBase, Value, PathExpression};
//!
//! let mut schema = Schema::new();
//! schema.define_tuple("MANUFACTURER", [("Name", "STRING"), ("Location", "STRING")]).unwrap();
//! schema.define_tuple("TOOL", [("Function", "STRING"), ("ManufacturedBy", "MANUFACTURER")]).unwrap();
//! schema.define_tuple("ARM", [("MountedTool", "TOOL")]).unwrap();
//! schema.define_tuple("ROBOT", [("Name", "STRING"), ("Arm", "ARM")]).unwrap();
//!
//! let path = PathExpression::parse(&schema, "ROBOT.Arm.MountedTool.ManufacturedBy.Location").unwrap();
//! assert!(path.is_linear());
//! assert_eq!(path.len(), 4);
//!
//! let mut base = ObjectBase::new(schema);
//! let robot = base.instantiate("ROBOT").unwrap();
//! base.set_attribute(robot, "Name", Value::string("R2D2")).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod atomic;
pub mod base;
pub mod error;
pub mod object;
pub mod oid;
pub mod path;
pub mod schema;
pub mod snapshot;
mod table;
pub mod types;
pub mod value;

pub use atomic::AtomicType;
pub use base::{BaseBuilder, ObjectBase};
pub use error::{GomError, Result};
pub use object::{Object, ObjectBody};
pub use oid::{Oid, OidGenerator};
pub use path::{PathExpression, PathStep};
pub use schema::Schema;
pub use types::{AttrDef, TypeDef, TypeId, TypeKind, TypeRef};
pub use value::Value;
