//! Consumer-driven query output: [`OutputMode`], [`QueryOutput`], and the
//! [`RowSink`] abstraction the execution layers stream result rows into.
//!
//! The original execution contract materialized every join result into one
//! gathered [`Relation`] even when the caller only wanted a cardinality, a
//! sample, or a yes/no answer — and the paper's workloads (cyclic pattern
//! queries with huge output sizes) are exactly where that materialization
//! dominates cost and memory. This module inverts the contract: the caller
//! picks an [`OutputMode`], each execution layer pushes rows into a
//! [`RowSink`], and the sink decides what to keep and when enumeration may
//! stop early ([`RowSink::push`] returning `false` short-circuits the
//! Leapfrog enumeration loop).
//!
//! The concrete sinks:
//!
//! * [`RowBuffer`] — accumulates flat rows (the `Rows` mode), optionally
//!   under a tuple budget ([`RowBuffer::over_budget`] reports a breach) or
//!   a row limit (the `Limit(n)` mode, saturating after `n` rows);
//! * [`CountSink`] — counts rows, never stores them;
//! * [`ExistsSink`] — saturates after the first row.
//!
//! Everything here is deliberately dependency-free so every layer — the
//! Leapfrog driver, the per-worker closures of the executor, and the
//! service front door — can share one vocabulary.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::{Result, Value};

/// What a caller wants back from a query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputMode {
    /// The full materialized result relation (the original contract).
    Rows,
    /// Only the result cardinality; no tuple is ever gathered.
    Count,
    /// At most `n` result rows (a sample of the full result).
    Limit(usize),
    /// Only whether the result is non-empty; enumeration stops at the
    /// first witness.
    Exists,
}

impl OutputMode {
    /// A short stable label (used by metrics and bench artifacts).
    pub fn label(&self) -> &'static str {
        match self {
            OutputMode::Rows => "rows",
            OutputMode::Count => "count",
            OutputMode::Limit(_) => "limit",
            OutputMode::Exists => "exists",
        }
    }

    /// Whether this mode ships result tuples back to the caller.
    pub fn returns_rows(&self) -> bool {
        matches!(self, OutputMode::Rows | OutputMode::Limit(_))
    }
}

impl std::fmt::Display for OutputMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutputMode::Limit(n) => write!(f, "limit({n})"),
            other => f.write_str(other.label()),
        }
    }
}

/// The result of one query execution, shaped by the [`OutputMode`] the
/// caller requested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutput {
    /// A materialized relation (`Rows` and `Limit(n)` modes).
    Rows(Relation),
    /// The result cardinality (`Count` mode).
    Count(u64),
    /// Whether the result is non-empty (`Exists` mode).
    Exists(bool),
}

impl QueryOutput {
    /// Derives the output a materialized relation would stream into `mode`
    /// (used by evaluation paths that must materialize internally, e.g.
    /// GHD-Yannakakis' bottom-up join).
    pub fn from_relation(rel: Relation, mode: OutputMode) -> Result<QueryOutput> {
        Ok(match mode {
            OutputMode::Rows => QueryOutput::Rows(rel),
            OutputMode::Count => QueryOutput::Count(rel.len() as u64),
            OutputMode::Exists => QueryOutput::Exists(!rel.is_empty()),
            OutputMode::Limit(n) => {
                if rel.len() <= n {
                    QueryOutput::Rows(rel)
                } else {
                    let width = rel.arity();
                    let flat: Vec<Value> = rel.flat()[..n * width].to_vec();
                    QueryOutput::Rows(Relation::from_flat(rel.schema().clone(), flat)?)
                }
            }
        })
    }

    /// The materialized rows. Panics for `Count`/`Exists` outputs — use
    /// [`QueryOutput::try_rows`] when the mode is not statically known.
    /// This is the mechanical migration target for the old
    /// `AdjOutcome.result` field: call sites that always execute in `Rows`
    /// mode (the former universal contract) swap `.result` for `.rows()`.
    pub fn rows(&self) -> &Relation {
        self.try_rows().expect("QueryOutput::rows() on a Count/Exists output")
    }

    /// The materialized rows, when this output carries any.
    pub fn try_rows(&self) -> Option<&Relation> {
        match self {
            QueryOutput::Rows(rel) => Some(rel),
            _ => None,
        }
    }

    /// Consumes the output into its relation, if it carries one.
    pub fn into_rows(self) -> Option<Relation> {
        match self {
            QueryOutput::Rows(rel) => Some(rel),
            _ => None,
        }
    }

    /// The known result cardinality: exact for `Rows` and `Count`, `None`
    /// for `Exists` (which learns only emptiness) and for truncated
    /// `Limit` outputs' *full* cardinality (the returned relation's own
    /// length is what it reports).
    pub fn count(&self) -> Option<u64> {
        match self {
            QueryOutput::Rows(rel) => Some(rel.len() as u64),
            QueryOutput::Count(n) => Some(*n),
            QueryOutput::Exists(_) => None,
        }
    }

    /// Whether the result is non-empty (known in every mode).
    pub fn exists(&self) -> bool {
        match self {
            QueryOutput::Rows(rel) => !rel.is_empty(),
            QueryOutput::Count(n) => *n > 0,
            QueryOutput::Exists(b) => *b,
        }
    }

    /// Number of tuples this output actually carries back to the caller
    /// (0 for `Count`/`Exists`; the gauge `adj-service` reports as
    /// `output_tuples_returned`).
    pub fn tuples_returned(&self) -> u64 {
        match self {
            QueryOutput::Rows(rel) => rel.len() as u64,
            _ => 0,
        }
    }
}

/// A consumer of result rows, driven by the join enumeration.
///
/// `push` absorbs one row (values in the global attribute order) and
/// returns whether the producer should keep enumerating: `false` means the
/// sink is saturated and the join may short-circuit immediately. A
/// saturated sink must also report it through [`RowSink::saturated`], so
/// producers can skip work before the next row is even found.
pub trait RowSink {
    /// Absorbs one result row; returns `false` once no further rows are
    /// wanted.
    fn push(&mut self, row: &[Value]) -> bool;

    /// Whether the sink needs no more rows (`push` would return `false`).
    fn saturated(&self) -> bool {
        false
    }

    /// Whether the sink needs only *how many* rows arrive, not their
    /// values. A producer that can count rows without materializing them —
    /// Leapfrog's last level, counted by intersection size — then calls
    /// [`RowSink::push_count`] instead of pushing each row.
    fn counts_only(&self) -> bool {
        false
    }

    /// Absorbs `n` rows at once; returns `false` once no further rows are
    /// wanted. Producers call it only on a sink whose
    /// [`RowSink::counts_only`] is `true`; the default absorbs nothing.
    fn push_count(&mut self, _n: u64) -> bool {
        true
    }

    /// Absorbs the rows that differ only in their last value: `row` with
    /// its last value set to each `v` of `run`, which is strictly
    /// ascending; returns `false` once no further rows are wanted. `row`'s
    /// last value is the sink's to overwrite. Producers that find a run of
    /// last values at once — Leapfrog's last level — hand it over here; the
    /// default pushes the rows one by one.
    fn push_run(&mut self, row: &mut [Value], run: &[Value]) -> bool {
        let last = row.len() - 1;
        run.iter().all(|&v| {
            row[last] = v;
            self.push(row)
        })
    }

    /// Told that the producer made `n` bindings of the `level`-th attribute
    /// of its order — partial bindings above the last level, rows at it —
    /// whether or not they reach the sink as rows; returns `false` once no
    /// further bindings are wanted. A sink that budgets or weighs a whole
    /// Leapfrog traversal, not only its rows, hooks in here; the default
    /// wants everything.
    fn produced(&mut self, _level: usize, _n: u64) -> bool {
        true
    }
}

/// A borrowed sink is a sink: a caller that keeps its sinks (and their
/// buffers) from one run to the next lends them by reference.
impl<S: RowSink + ?Sized> RowSink for &mut S {
    fn push(&mut self, row: &[Value]) -> bool {
        (**self).push(row)
    }

    fn saturated(&self) -> bool {
        (**self).saturated()
    }

    fn counts_only(&self) -> bool {
        (**self).counts_only()
    }

    fn push_count(&mut self, n: u64) -> bool {
        (**self).push_count(n)
    }

    fn push_run(&mut self, row: &mut [Value], run: &[Value]) -> bool {
        (**self).push_run(row, run)
    }

    fn produced(&mut self, level: usize, n: u64) -> bool {
        (**self).produced(level, n)
    }
}

/// A closure adapter, so existing `FnMut(&[Value])` consumers are sinks.
pub struct FnSink<F: FnMut(&[Value])>(pub F);

impl<F: FnMut(&[Value])> RowSink for FnSink<F> {
    fn push(&mut self, row: &[Value]) -> bool {
        (self.0)(row);
        true
    }
}

/// Accumulates rows into a flat buffer (`Rows`/`Limit` modes), optionally
/// bounded by a budget (error signal) or a limit (saturation signal).
#[derive(Debug)]
pub struct RowBuffer {
    width: usize,
    rows: Vec<Value>,
    /// Stop-and-error bound: exceeding it sets `over_budget` (the caller
    /// turns that into a `BudgetExceeded` error).
    max_rows: usize,
    /// Stop-and-succeed bound (`Limit(n)`): reaching it saturates the sink.
    limit: usize,
    over_budget: bool,
}

impl RowBuffer {
    /// An unbounded buffer for `width`-ary rows.
    pub fn new(width: usize) -> Self {
        RowBuffer {
            width: width.max(1),
            rows: Vec::new(),
            max_rows: usize::MAX,
            limit: usize::MAX,
            over_budget: false,
        }
    }

    /// Caps stored rows at `max_rows`; one row beyond marks the buffer
    /// over budget and stops enumeration (the result would be discarded
    /// anyway — the caller reports a budget error).
    pub fn with_budget(mut self, max_rows: usize) -> Self {
        self.max_rows = max_rows;
        self
    }

    /// Saturates (successfully) after `limit` rows — the `Limit(n)` mode.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Whether the budget was breached.
    pub fn over_budget(&self) -> bool {
        self.over_budget
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.rows.len() / self.width
    }

    /// Whether no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The flat row data, consumed.
    pub fn into_flat(self) -> Vec<Value> {
        self.rows
    }

    /// The flat row data buffered so far.
    pub fn flat(&self) -> &[Value] {
        &self.rows
    }

    /// Values the buffer can hold without growing.
    pub fn capacity(&self) -> usize {
        self.rows.capacity()
    }

    /// Takes the flat row data out, leaving the buffer empty and without
    /// its allocation.
    pub fn take_flat(&mut self) -> Vec<Value> {
        std::mem::take(&mut self.rows)
    }

    /// Empties the buffer for a new run over `width`-ary rows, under a new
    /// budget and limit (as [`RowBuffer::with_budget`] and
    /// [`RowBuffer::with_limit`] set them), keeping its allocation.
    pub fn reset(&mut self, width: usize, max_rows: usize, limit: usize) {
        self.rows.clear();
        (self.width, self.max_rows, self.limit) = (width.max(1), max_rows, limit);
        self.over_budget = false;
    }

    /// Builds the relation over `schema` (which must match the row width).
    pub fn into_relation(self, schema: Schema) -> Result<Relation> {
        Relation::from_flat(schema, self.rows)
    }
}

/// An unbounded buffer of 1-ary rows, to [`RowBuffer::reset`] before use.
impl Default for RowBuffer {
    fn default() -> Self {
        RowBuffer::new(1)
    }
}

impl RowSink for RowBuffer {
    fn push(&mut self, row: &[Value]) -> bool {
        debug_assert_eq!(row.len(), self.width);
        if self.len() >= self.max_rows {
            self.over_budget = true;
            return false;
        }
        self.rows.extend_from_slice(row);
        self.len() < self.limit
    }

    fn saturated(&self) -> bool {
        self.over_budget || self.len() >= self.limit
    }
}

/// Counts rows without storing them (`Count` mode). Never saturates: the
/// full result is enumerated, but nothing is materialized or gathered.
#[derive(Debug, Default)]
pub struct CountSink {
    count: u64,
}

impl CountSink {
    /// A zeroed counter.
    pub fn new() -> Self {
        CountSink::default()
    }

    /// Rows seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl RowSink for CountSink {
    fn push(&mut self, _row: &[Value]) -> bool {
        self.count += 1;
        true
    }

    fn counts_only(&self) -> bool {
        true
    }

    fn push_count(&mut self, n: u64) -> bool {
        self.count += n;
        true
    }
}

/// Saturates on the first row (`Exists` mode): the join short-circuits as
/// soon as one witness binding is found.
#[derive(Debug, Default)]
pub struct ExistsSink {
    found: bool,
}

impl ExistsSink {
    /// A sink that has seen nothing yet.
    pub fn new() -> Self {
        ExistsSink::default()
    }

    /// Whether any row arrived.
    pub fn found(&self) -> bool {
        self.found
    }
}

impl RowSink for ExistsSink {
    fn push(&mut self, _row: &[Value]) -> bool {
        self.found = true;
        false
    }

    fn saturated(&self) -> bool {
        self.found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn rel_123() -> Relation {
        Relation::from_rows(Schema::from_ids(&[0, 1]), &[&[1, 2], &[2, 3], &[3, 4]]).unwrap()
    }

    #[test]
    fn mode_labels_and_row_shipping() {
        assert_eq!(OutputMode::Rows.label(), "rows");
        assert_eq!(OutputMode::Limit(5).to_string(), "limit(5)");
        assert!(OutputMode::Rows.returns_rows());
        assert!(OutputMode::Limit(0).returns_rows());
        assert!(!OutputMode::Count.returns_rows());
        assert!(!OutputMode::Exists.returns_rows());
    }

    #[test]
    fn from_relation_by_mode() {
        let r = rel_123();
        assert_eq!(
            QueryOutput::from_relation(r.clone(), OutputMode::Count).unwrap(),
            QueryOutput::Count(3)
        );
        assert_eq!(
            QueryOutput::from_relation(r.clone(), OutputMode::Exists).unwrap(),
            QueryOutput::Exists(true)
        );
        let limited = QueryOutput::from_relation(r.clone(), OutputMode::Limit(2)).unwrap();
        let rows = limited.rows();
        assert_eq!(rows.len(), 2);
        for row in rows.rows() {
            assert!(r.contains_row(row), "limit output must be a subset");
        }
        // limit beyond the cardinality returns everything
        let all = QueryOutput::from_relation(r.clone(), OutputMode::Limit(99)).unwrap();
        assert_eq!(all.rows(), &r);
    }

    #[test]
    fn accessors_across_variants() {
        let rows = QueryOutput::Rows(rel_123());
        assert_eq!(rows.count(), Some(3));
        assert!(rows.exists());
        assert_eq!(rows.tuples_returned(), 3);
        assert!(rows.try_rows().is_some());

        let count = QueryOutput::Count(7);
        assert_eq!(count.count(), Some(7));
        assert!(count.exists());
        assert_eq!(count.tuples_returned(), 0);
        assert!(count.try_rows().is_none());
        assert!(count.clone().into_rows().is_none());

        let nothing = QueryOutput::Exists(false);
        assert_eq!(nothing.count(), None);
        assert!(!nothing.exists());
    }

    #[test]
    #[should_panic(expected = "Count/Exists")]
    fn rows_on_count_panics() {
        QueryOutput::Count(1).rows();
    }

    #[test]
    fn row_buffer_budget_and_limit() {
        let mut b = RowBuffer::new(2).with_budget(2);
        assert!(b.push(&[1, 2]));
        assert!(b.push(&[3, 4]));
        assert!(!b.push(&[5, 6]), "third row breaches the 2-row budget");
        assert!(b.over_budget());
        assert!(b.saturated());
        assert_eq!(b.len(), 2, "the breaching row is not stored");

        let mut l = RowBuffer::new(2).with_limit(2);
        assert!(l.push(&[1, 2]));
        assert!(!l.push(&[3, 4]), "limit reached on the second row");
        assert!(l.saturated());
        assert!(!l.over_budget());
        let rel = l.into_relation(Schema::from_ids(&[0, 1])).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn count_and_exists_sinks() {
        let mut c = CountSink::new();
        for i in 0..5u32 {
            assert!(c.push(&[i]));
        }
        assert_eq!(c.count(), 5);
        assert!(!c.saturated());
        assert!(c.counts_only());
        assert!(c.push_count(1000));
        assert_eq!(c.count(), 1005, "a bulk count adds like that many pushes");

        let mut e = ExistsSink::new();
        assert!(!e.found());
        assert!(!e.push(&[1]), "exists saturates on the first row");
        assert!(e.found());
        assert!(e.saturated());
    }

    #[test]
    fn fn_sink_adapts_closures() {
        let mut seen = Vec::new();
        let mut s = FnSink(|row: &[Value]| seen.push(row.to_vec()));
        assert!(s.push(&[1, 2]));
        assert!(!s.saturated());
        assert_eq!(seen, vec![vec![1, 2]]);
    }
}
