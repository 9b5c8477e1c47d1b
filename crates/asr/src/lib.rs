//! # asr-core — access support relations
//!
//! The primary contribution of Kemper & Moerkotte, *"Access Support in
//! Object Bases"* (SIGMOD 1990): **access support relations (ASRs)** are
//! materialized relations, stored separately from the object
//! representation, that hold the OID chains along a path expression
//! `t0.A1.….An` so that queries navigating the path — forwards or
//! backwards — become index lookups instead of object traversals or
//! exhaustive searches.
//!
//! The crate implements, faithfully to the paper's definitions:
//!
//! * the **auxiliary relations** `E_0 … E_{n-1}` (Definition 3.3): one
//!   binary (single-valued step) or ternary (set occurrence) relation per
//!   path attribute;
//! * the four **extensions** (Definitions 3.4–3.7) — *canonical*
//!   (`E_0 ⋈ … ⋈ E_{n-1}`), *full* (full outer joins), *left-complete*
//!   and *right-complete* (one-sided outer joins) — built on NULL-aware
//!   join semantics where `NULL` never matches `NULL`;
//! * arbitrary **decompositions** (Definition 3.8) into contiguous
//!   partitions, all of which are lossless (Theorem 3.9 — property-tested);
//! * **dual-clustered storage**: each partition lives in two page-accounted
//!   B+ trees, keyed on its first and last attribute (Section 5.2);
//! * **query evaluation** for forward and backward span queries
//!   `Q_{i,j}(fw|bw)` with the extension-applicability rules of
//!   formula (35) and naive fallback evaluation (Section 5.6) charged
//!   against type-clustered object files;
//! * **incremental maintenance** under object updates (Section 6),
//!   including the extension-specific search behaviour of formula (36);
//! * **partition sharing** between overlapping path expressions
//!   (Section 5.4).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod auxrel;
pub mod cell;
pub mod codec;
pub mod crc;
pub mod database;
pub mod decomposition;
pub mod error;
pub mod extension;
pub mod join;
pub mod maintenance;
pub mod manager;
pub mod naive;
pub mod partition;
pub mod persist;
pub mod query;
pub mod relation;
pub mod row;
pub mod sharing;
pub mod snapshot;
pub mod store;
#[cfg(test)]
pub(crate) mod testutil;

pub use auxrel::build_auxiliary_relations;
pub use cell::Cell;
pub use crc::{crc32, crc32_combine};
pub use database::{AsrId, Database};
pub use decomposition::Decomposition;
pub use error::{AsrError, Result};
pub use extension::Extension;
pub use manager::{AccessSupportRelation, AsrConfig};
pub use persist::{AsrLoadMode, CheckpointHeader, CheckpointSource, LoadReport};
pub use query::Frontier;
pub use relation::Relation;
pub use row::{Row, RowRef};
pub use snapshot::{PinnedPartition, Snapshot, TxnStatus};
pub use store::ObjectStore;
