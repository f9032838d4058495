//! # adjbench — the repository's benchmark
//!
//! Five workloads drive `adj-service` from outside through its public front
//! door, check every answer, and print every metric by name with its unit as
//! one JSON object. See `README.md` for the workloads, the metrics, and why
//! the harness is shaped the way it is.

pub mod digest;
pub mod layers;
pub mod procfs;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
