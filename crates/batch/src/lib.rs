//! # adj-batch — the binding normal form
//!
//! Serving traffic against a prepared query is many *bindings* of one
//! *shape*. [`BindingBatch`] normalizes a batch door's submissions once:
//! one attribute set, duplicates collapsed, uniques sorted, and a map from
//! every submission back to its unique binding. Executing them is not this
//! crate's business: `adj_core::execute_plan` runs every query as a slice
//! of bindings — the unbound query is one empty binding, a bound call one
//! binding — and `adj-service` hands it the uniques its result LRU missed.

pub mod binding;

pub use binding::BindingBatch;
