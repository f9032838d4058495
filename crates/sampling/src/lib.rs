//! # adj-sampling — cardinality estimation via distributed sampling (Sec. IV)
//!
//! The estimator implements Eq. (4): `|T| = |val(A)| · avg_a |T_{A=a}|`,
//! where `val(A)` is the intersection of the projections onto `A` of every
//! relation containing `A`, and `|T_{A=a}|` is obtained by a Leapfrog run
//! with the first attribute pinned to `a`. Chernoff–Hoeffding (Lemma 2)
//! bounds the error: `k = ⌈0.5·p⁻²·ln(2/δ)⌉` samples give error ≤ `p·b`
//! with confidence `1-δ`.
//!
//! Besides the cardinality, a sampling run yields two by-products the ADJ
//! optimizer consumes (Sec. III-B):
//!
//! * estimated per-level partial-binding counts `|T_i|` (scaling the sampled
//!   per-level counters by `|val(A)|/k`), which feed `costE`;
//! * the measured extension rate β (extensions per second).
//!
//! [`distributed`] adds the paper's optimization: semi-join *reduce* the
//! database by the sampled values before shuffling, so only tuples that can
//! participate travel.

pub mod distributed;
pub mod estimator;
pub mod skew;

pub use distributed::{estimate_distributed, DistributedReport};
pub use estimator::{
    connected_order, required_samples, val_a, CardinalityEstimate, Sampler, SamplingConfig,
};
pub use skew::{
    detect_heavy_hitters, sample_relation, ColumnSkew, HeavyHitter, RelationSkew, SkewConfig,
    SkewProfile,
};
