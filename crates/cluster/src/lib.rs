//! # adj-cluster — a simulated shared-nothing cluster
//!
//! The paper evaluates on a 7-server Spark cluster with 28 workers connected
//! by 10 GbE. This crate substitutes that testbed with an in-process
//! simulation that preserves everything the paper's cost model reasons
//! about (see DESIGN.md's substitution table):
//!
//! * **N logical workers**, each owning a disjoint partition of the database
//!   ([`PartitionedRelation`], [`PartitionedDatabase`]);
//! * **routed shuffles** through an accounting layer ([`CommStats`]) that
//!   counts every delivered tuple copy — communication *time* is then
//!   modeled as `tuples / α`, which is exactly how the paper computes
//!   `costC` (Sec. III-B);
//! * **parallel execution**: per-worker closures run on real OS threads
//!   ([`Cluster::run`]), so computation cost is measured wall-clock per
//!   worker and the *makespan* (the paper's "last straggler", Sec. VII-B)
//!   falls out naturally;
//! * **per-worker memory budgets** so that methods which shuffle too much
//!   fail the test-case like the paper's OOM bars (Fig. 12).

pub mod comm;
pub mod exec;
pub mod partition;
pub mod transport;

pub use comm::{CommStats, CostModel};
pub use exec::{Cluster, RunReport, WorkerFailure};
pub use partition::{PartitionedDatabase, PartitionedRelation};
pub use transport::{
    decode_frame, encode_batch, BatchPayload, Delivery, RoutedBatch, TransportKind, TransportRound,
};

/// Identifier of a logical worker (`0..num_workers`).
pub type WorkerId = usize;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of logical workers (the paper sweeps 1..28 in Fig. 11).
    pub num_workers: usize,
    /// α — tuples transmitted per second by the interconnect. The paper
    /// pre-measures α on the real cluster; we make it a model parameter so
    /// experiments report deterministic communication seconds.
    pub alpha_tuples_per_sec: f64,
    /// Per-worker memory budget in bytes. `None` disables the check.
    pub memory_limit_bytes: Option<usize>,
    /// How shuffle rounds deliver routed batches: zero-copy in-process
    /// hand-off (the default) or a length-prefixed serialized wire format
    /// whose byte accounting is real encoded bytes. See
    /// [`transport`].
    pub transport: TransportKind,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_workers: 4,
            // Scaled-down analog of 10 GbE moving 8-byte tuples with
            // framing overheads: ~10M tuples/s.
            alpha_tuples_per_sec: 10_000_000.0,
            memory_limit_bytes: None,
            transport: TransportKind::InProcess,
        }
    }
}

impl ClusterConfig {
    /// Convenience constructor with `num_workers` and defaults otherwise.
    pub fn with_workers(num_workers: usize) -> Self {
        ClusterConfig { num_workers, ..Default::default() }
    }

    /// Validates the configuration, returning a typed
    /// [`InvalidConfig`](adj_relational::Error::InvalidConfig) instead of
    /// letting a zero worker count or a non-finite α panic deep inside
    /// share solving or partitioning. Checked at [`Cluster`] construction.
    pub fn validate(&self) -> Result<(), adj_relational::Error> {
        let invalid = |message: String| Err(adj_relational::Error::InvalidConfig { message });
        if self.num_workers == 0 {
            return invalid("num_workers must be at least 1".to_string());
        }
        if !self.alpha_tuples_per_sec.is_finite() || self.alpha_tuples_per_sec <= 0.0 {
            return invalid(format!(
                "alpha_tuples_per_sec must be finite and positive, got {}",
                self.alpha_tuples_per_sec
            ));
        }
        if self.memory_limit_bytes == Some(0) {
            return invalid(
                "memory_limit_bytes must be positive (use None for unlimited)".to_string(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_defaults_and_rejects_degenerate_configs() {
        assert!(ClusterConfig::default().validate().is_ok());
        assert!(ClusterConfig::with_workers(1).validate().is_ok());

        let reject = |c: ClusterConfig, needle: &str| {
            let err = c.validate().unwrap_err();
            let adj_relational::Error::InvalidConfig { message } = &err else {
                panic!("expected InvalidConfig, got {err:?}")
            };
            assert!(message.contains(needle), "{message} should mention {needle}");
        };
        reject(ClusterConfig::with_workers(0), "num_workers");
        reject(
            ClusterConfig { alpha_tuples_per_sec: 0.0, ..Default::default() },
            "alpha_tuples_per_sec",
        );
        reject(
            ClusterConfig { alpha_tuples_per_sec: f64::NAN, ..Default::default() },
            "alpha_tuples_per_sec",
        );
        reject(
            ClusterConfig { alpha_tuples_per_sec: -1.0, ..Default::default() },
            "alpha_tuples_per_sec",
        );
        reject(
            ClusterConfig { memory_limit_bytes: Some(0), ..Default::default() },
            "memory_limit_bytes",
        );
    }

    #[test]
    fn cluster_construction_is_gated_on_validation() {
        assert!(Cluster::try_new(ClusterConfig::with_workers(0)).is_err());
        assert_eq!(Cluster::try_new(ClusterConfig::with_workers(2)).unwrap().num_workers(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid cluster configuration")]
    fn infallible_constructor_fails_fast_with_a_clear_message() {
        let _ =
            Cluster::new(ClusterConfig { alpha_tuples_per_sec: f64::NAN, ..Default::default() });
    }
}
