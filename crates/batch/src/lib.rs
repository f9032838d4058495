//! # adj-batch — batched multi-query execution
//!
//! Serving traffic against a prepared query is many *bindings* of one
//! *shape*: the plan, the attribute order, and — crucially — the shuffled
//! trie indexes are identical across bindings; only the bound constants
//! differ. The single-binding hot path already amortizes planning (plan
//! cache) and indexes (index cache) — it is this crate's degenerate case,
//! one bound join over the same binding-independent locals — but still pays
//! per binding for admission, shuffle consultation, worker dispatch, and a
//! from-the-root cursor descent per bound level.
//!
//! This crate amortizes those per-binding costs across a whole
//! [`BindingBatch`]:
//!
//! * the plan's bags and final shuffle run **once** — no phase before the
//!   join sees a binding, so the whole batch shares the one set of warm
//!   tries that single bound calls and the unbound query use too;
//! * each worker drives a [`adj_leapfrog::BatchedLeapfrog`] over its local
//!   tries: bindings are visited in sorted order and bound-prefix cursors
//!   *gallop forward* from the previous binding's position instead of
//!   re-descending from the trie root;
//! * results demultiplex per binding through the existing
//!   [`adj_relational::RowSink`] / [`adj_relational::OutputMode`] contract,
//!   byte-identical to executing each binding alone.
//!
//! [`execute_plan_batch`] is the executor; `adj-service` wraps it with one
//! admission slot, one deadline, and one trace span tree per batch.

pub mod binding;
pub mod exec;

pub use binding::BindingBatch;
pub use exec::execute_plan_batch;
