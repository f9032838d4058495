//! # adj-relational — relational substrate for the ADJ reproduction
//!
//! This crate provides the in-memory relational data model every other crate
//! in the workspace builds on:
//!
//! * [`Value`] — attribute values (dense `u32` ids, as in the paper's graph
//!   workloads where every relation is an edge table over node ids);
//! * [`Attr`] / [`Schema`] — attribute identifiers and ordered relation
//!   schemas;
//! * [`Relation`] — a sorted, deduplicated, row-major tuple store with the
//!   relational-algebra operations the paper's algorithms need (projection,
//!   semi-join, natural binary join, union, rename);
//! * [`Trie`] / [`TrieCursor`] — the level-wise sorted trie index used by
//!   Leapfrog Triejoin (Sec. II-A of the paper) and by the "Merge" HCube
//!   implementation that pre-builds tries per block (Sec. V);
//! * [`Database`] — a named collection of relations;
//! * intersection kernels ([`intersect`]) shared by Leapfrog and by the
//!   sampling estimator's `val(A)` computation (Sec. IV);
//! * the streaming-output vocabulary ([`output`]): [`OutputMode`],
//!   [`QueryOutput`], and the [`RowSink`] trait execution layers stream
//!   result rows into instead of materializing everything.
//!
//! Everything is deterministic: relations normalize to sorted-dedup form so
//! that two equal relations are byte-identical, which the test-suite and the
//! experiment harness rely on.

pub mod bind;
pub mod database;
pub mod error;
pub mod hash;
pub mod intersect;
pub mod output;
pub mod relation;
pub mod schema;
pub mod trie;

pub use bind::BoundValues;
pub use database::Database;
pub use error::{Error, Result};
pub use output::{CountSink, ExistsSink, FnSink, OutputMode, QueryOutput, RowBuffer, RowSink};
pub use relation::Relation;
pub use schema::{Attr, Schema};
pub use trie::{Trie, TrieCursor};

/// An attribute value. The paper's workloads are graphs whose node ids fit in
/// 32 bits (the largest dataset, com-Orkut, has ~3M nodes); dense `u32`
/// values keep tuples at 8 bytes for binary relations and make hashing and
/// comparison cheap.
pub type Value = u32;
