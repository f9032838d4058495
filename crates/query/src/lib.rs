//! # adj-query — join queries, hypergraphs, GHDs and attribute orders
//!
//! This crate models everything the ADJ optimizer reasons about *before*
//! touching data:
//!
//! * [`JoinQuery`] — a natural join `Q :- R1 ⋈ … ⋈ Rm` (Eq. (1) of the
//!   paper) and the standard subgraph workload `Q1..Q11` of Fig. 7;
//! * [`Hypergraph`] — the query's hypergraph `H = (V, E)` (Sec. II);
//! * [`lp`] — a small two-phase simplex solver used to compute fractional
//!   edge covers, hence `fhw` (Sec. III-A);
//! * [`ghd`] — Generalized Hypertree Decomposition search producing the
//!   hypertree `T` that bounds ADJ's candidate-relation search space;
//! * [`order`] — attribute orders: full enumeration (what HCubeJ searches)
//!   and hypertree-*valid* orders (ADJ's pruned space, Sec. III-A);
//! * [`fingerprint`](mod@fingerprint) — canonical query fingerprints, the plan-cache key of
//!   `adj-service`.

pub mod fingerprint;
pub mod ghd;
pub mod hypergraph;
pub mod lp;
pub mod order;
pub mod parser;
pub mod query;
pub mod workload;

pub use fingerprint::{fingerprint, QueryFingerprint};
pub use ghd::{GhdNode, GhdTree};
pub use hypergraph::Hypergraph;
pub use order::{valid_orders, AttrOrder};
pub use parser::{parse_query, parse_query_explain, parse_query_with_mode, ExplainMode};
pub use query::{Atom, Bindings, JoinQuery, ParamTable, Term};
pub use workload::{paper_query, PaperQuery};
