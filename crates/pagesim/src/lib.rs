//! # asr-pagesim — page-granular storage simulator
//!
//! The cost metric of Kemper & Moerkotte's evaluation is the number of
//! **secondary-storage page accesses**.  This crate reproduces that
//! experimental substrate: an in-memory "disk" of fixed-size pages whose
//! every read and write is counted, plus the two storage structures the
//! paper assumes:
//!
//! * [`ClusteredFile`] — objects clustered by type, `opp_i = ⌊PageSize /
//!   size_i⌋` objects per page (formulas 17–18 of the paper), and
//! * [`BPlusTree`] — a from-scratch B+ tree with page-sized nodes
//!   (`B⁺fan = ⌊PageSize / (PPsize + OIDsize)⌋`, Figure 3) used to store
//!   access-support-relation partitions clustered on their first or last
//!   attribute (Section 5.2, following Valduriez' join indices).
//!
//! An optional LRU [`BufferPool`] can be layered on top; the paper's model
//! assumes *no* buffering (every access hits the disk), which is the default
//! configuration, but the buffered mode enables ablation experiments.
//!
//! All structures route their page traffic through a shared [`IoStats`]
//! handle, so an experiment can meter an arbitrary ensemble of files and
//! trees with one counter.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod btree;
pub mod buffer;
pub mod clustered;
pub mod constants;
pub mod error;
pub mod stats;

pub use btree::{
    build_bulk, BPlusTree, BatchReport, BulkNodes, NodeImage, PageMarks, PageRef, PageSlab,
    TreeImage,
};
pub use buffer::BufferPool;
pub use clustered::ClusteredFile;
pub use constants::{bplus_fan, OID_SIZE, PAGE_SIZE, PP_SIZE};
pub use error::{PageSimError, Result};
pub use stats::{IoSnapshot, IoStats, StatsHandle, StructureId, StructureIo, StructureKind};
