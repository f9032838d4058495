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
//! A [`Sampler`] splits into the steps the paper distributes: draw the
//! sample ([`Sampler::draw`]), count a slice of the grouped draws
//! ([`Sampler::count`], into a [`Tally`]) and scale the summed tallies
//! ([`Sampler::finish`]); [`Sampler::estimate`] runs them on one thread.
//! The planner runs the counts on the cluster's workers, in morsels every
//! worker claims from one cursor (`adj_core::cost::walk_phase`), and its
//! integer tallies add up to this crate's sequential estimate bit for bit.

pub mod estimator;

pub use estimator::{
    connected_order, group_draws, required_samples, val_a, CardinalityEstimate, Draws, Sampler,
    SamplingConfig, Tally,
};
