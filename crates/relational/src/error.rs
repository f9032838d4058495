//! Error type shared across the workspace's relational layer.

use std::fmt;

/// Errors raised by relational operations.
///
/// The substrate is strict: schema mismatches are programming errors in the
/// planner layers above, so they surface as typed errors rather than panics,
/// letting the optimizer report which candidate plan was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A tuple's arity did not match the relation schema.
    ArityMismatch { expected: usize, got: usize },
    /// An operation referenced an attribute absent from the schema.
    UnknownAttr { attr: String, schema: String },
    /// Two relations were combined with incompatible schemas.
    SchemaMismatch { left: String, right: String },
    /// A named relation was not found in the database.
    NoSuchRelation(String),
    /// A schema contained a duplicate attribute.
    DuplicateAttr(String),
    /// An operation exceeded a configured budget (memory or tuple cap).
    BudgetExceeded { what: &'static str, limit: usize },
    /// Query text failed to parse. `offset` is the byte offset of the
    /// offending token in the text handed to the parser entry point.
    Parse { offset: usize, token: String, message: String },
    /// A prepared query was executed without a value for parameter `$name`.
    UnboundParam { name: String },
    /// A binding supplied a value for a parameter the query does not have.
    UnknownParam { name: String },
    /// A well-formed request hit a code path that does not implement the
    /// feature (e.g. bound constants on the comparison baselines, which
    /// have no selection pushdown).
    Unsupported { feature: &'static str, by: &'static str },
    /// The query was cooperatively cancelled mid-execution — by its
    /// deadline elapsing (`deadline_exceeded`) or by an explicit
    /// cancellation request.
    Cancelled { deadline_exceeded: bool },
    /// A cluster worker closure panicked; the failure was isolated to this
    /// query. `worker` is `None` when the panic happened on the
    /// coordinator thread (routing, gather, mutation apply).
    WorkerPanicked { worker: Option<usize>, message: String },
    /// A configuration value is unusable (zero workers, non-finite α,
    /// zero memory budget) — reported at construction instead of as a
    /// panic deep inside share solving or partitioning.
    InvalidConfig { message: String },
    /// An attribute order with no attributes reached an operation that needs
    /// a first one (the sampled attribute `A` of the cardinality estimator).
    EmptyOrder,
    /// A transport wire frame could not be decoded: empty, truncated,
    /// carrying an unknown tag, or disagreeing with the round's schemas.
    MalformedFrame { message: String },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ArityMismatch { expected, got } => {
                write!(f, "arity mismatch: expected {expected}, got {got}")
            }
            Error::UnknownAttr { attr, schema } => {
                write!(f, "unknown attribute {attr} in schema {schema}")
            }
            Error::SchemaMismatch { left, right } => {
                write!(f, "schema mismatch between {left} and {right}")
            }
            Error::NoSuchRelation(name) => write!(f, "no such relation: {name}"),
            Error::DuplicateAttr(a) => write!(f, "duplicate attribute in schema: {a}"),
            Error::BudgetExceeded { what, limit } => {
                write!(f, "budget exceeded: {what} over limit {limit}")
            }
            Error::Parse { offset, token, message } => {
                write!(f, "parse error at byte {offset} near '{token}': {message}")
            }
            Error::UnboundParam { name } => {
                write!(f, "parameter ${name} was not bound to a value")
            }
            Error::UnknownParam { name } => {
                write!(f, "no parameter ${name} in the prepared query")
            }
            Error::Unsupported { feature, by } => {
                write!(f, "{feature} is not supported by {by}")
            }
            Error::Cancelled { deadline_exceeded } => {
                if *deadline_exceeded {
                    write!(f, "query deadline exceeded")
                } else {
                    write!(f, "query cancelled")
                }
            }
            Error::WorkerPanicked { worker, message } => match worker {
                Some(w) => write!(f, "worker {w} panicked: {message}"),
                None => write!(f, "coordinator panicked: {message}"),
            },
            Error::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            Error::EmptyOrder => write!(f, "empty attribute order"),
            Error::MalformedFrame { message } => write!(f, "malformed wire frame: {message}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::ArityMismatch { expected: 2, got: 3 };
        assert!(e.to_string().contains("expected 2"));
        let e = Error::NoSuchRelation("R9".into());
        assert!(e.to_string().contains("R9"));
        let e = Error::BudgetExceeded { what: "intermediate tuples", limit: 10 };
        assert!(e.to_string().contains("intermediate tuples"));
        let e = Error::Parse { offset: 12, token: "R1(".into(), message: "unclosed '('".into() };
        assert!(e.to_string().contains("byte 12") && e.to_string().contains("R1("));
        let e = Error::UnboundParam { name: "v".into() };
        assert!(e.to_string().contains("$v"));
        let e = Error::Cancelled { deadline_exceeded: true };
        assert!(e.to_string().contains("deadline"));
        let e = Error::Cancelled { deadline_exceeded: false };
        assert!(e.to_string().contains("cancelled"));
        let e = Error::WorkerPanicked { worker: Some(3), message: "boom".into() };
        assert!(e.to_string().contains("worker 3") && e.to_string().contains("boom"));
        let e = Error::InvalidConfig { message: "0 workers".into() };
        assert!(e.to_string().contains("0 workers"));
    }
}
