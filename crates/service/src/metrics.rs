//! The metrics registry: atomic counters plus per-phase latency histograms.
//!
//! Every successful query contributes its [`ExecutionReport`] phase
//! breakdown (the Tables II–IV columns: optimization, pre-computing,
//! communication, computation) to one histogram per phase, plus end-to-end
//! and queue-wait histograms measured by the service itself. Recording is
//! lock-free (`fetch_add`/`fetch_max` on relaxed atomics), so worker
//! threads never serialize on telemetry; [`MetricsSnapshot`] reads are
//! *not* atomic across counters, which is fine for monitoring.
//!
//! Histograms use power-of-two microsecond buckets (bucket *i* holds
//! latencies in `(2^(i-1), 2^i] µs`), covering 1 µs to ~2.3 hours in 43
//! buckets. Quantiles interpolate linearly *within* the winning bucket
//! (rank position between the bucket's lower and upper bound, assuming a
//! uniform spread of its observations) — the standard fixed-memory
//! estimator (cf. Prometheus `histogram_quantile`), bounding the error by
//! the bucket width instead of always reporting the upper edge (which
//! overestimated by up to 2×).

use adj_core::ExecutionReport;
use adj_relational::OutputMode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets (1 µs … ~2.3 h).
const BUCKETS: usize = 43;

/// Recording ceiling: observations land in the last bucket at most. Clamping
/// *before* the running sum keeps `sum_micros` overflow-free for any
/// realistic observation count (2^42 µs ≈ 52 days per sample leaves room for
/// ~4 million samples even in the worst case), so one absurd sample —
/// `f64::INFINITY` seconds, a stuck clock — can never wreck the mean.
const MAX_MICROS: u64 = 1 << (BUCKETS - 1);

/// A fixed-bucket concurrent latency histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one latency observation. Saturates cleanly at both extremes:
    /// zero/negative/NaN durations land in bucket 0 (≤ 1 µs), and anything
    /// at or beyond the bucket range (multi-second and up to `+∞`) clamps
    /// into the last bucket with its contribution to the mean capped at the
    /// recording ceiling (`MAX_MICROS`, the last bucket's edge).
    pub fn record_secs(&self, secs: f64) {
        let micros = ((secs.max(0.0) * 1e6).round() as u64).min(MAX_MICROS);
        let idx =
            if micros == 0 { 0 } else { ((64 - micros.leading_zeros()) as usize).min(BUCKETS - 1) };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// A point-in-time summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count: u64 = counts.iter().sum();
        let sum_micros = self.sum_micros.load(Ordering::Relaxed);
        let quantile = |q: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                if seen + c >= rank && c > 0 {
                    // Bucket i spans (2^(i-1), 2^i] µs (bucket 0: (0, 1]).
                    // Interpolate the rank's position through the bucket,
                    // assuming its observations spread uniformly.
                    let lower = if i == 0 { 0.0 } else { (1u64 << (i - 1)) as f64 };
                    let upper = (1u64 << i) as f64;
                    let through = (rank - seen) as f64 / c as f64;
                    return (lower + through * (upper - lower)) * 1e-6;
                }
                seen += c;
            }
            self.max_micros.load(Ordering::Relaxed) as f64 * 1e-6
        };
        HistogramSnapshot {
            count,
            mean_secs: if count == 0 { 0.0 } else { sum_micros as f64 * 1e-6 / count as f64 },
            p50_secs: quantile(0.50),
            p90_secs: quantile(0.90),
            p99_secs: quantile(0.99),
            max_secs: self.max_micros.load(Ordering::Relaxed) as f64 * 1e-6,
        }
    }
}

/// Summary statistics of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Mean latency in seconds (exact — from the running sum, not buckets).
    pub mean_secs: f64,
    /// Median, interpolated within its bucket.
    pub p50_secs: f64,
    /// 90th percentile, interpolated within its bucket.
    pub p90_secs: f64,
    /// 99th percentile, interpolated within its bucket.
    pub p99_secs: f64,
    /// Largest observation (exact).
    pub max_secs: f64,
}

/// Per-[`OutputMode`] served-query counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModeCounts {
    /// Queries served in `Rows` mode.
    pub rows: u64,
    /// Queries served in `Count` mode.
    pub count: u64,
    /// Queries served in `Limit(n)` mode (any `n`).
    pub limit: u64,
    /// Queries served in `Exists` mode.
    pub exists: u64,
}

impl ModeCounts {
    /// Sum over all modes (equals `queries_ok`).
    pub fn total(&self) -> u64 {
        self.rows + self.count + self.limit + self.exists
    }
}

/// The service-wide metrics registry.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    queries_ok: AtomicU64,
    queries_failed: AtomicU64,
    queries_rejected: AtomicU64,
    queries_rows: AtomicU64,
    queries_count: AtomicU64,
    queries_limit: AtomicU64,
    queries_exists: AtomicU64,
    output_tuples: AtomicU64,
    output_tuples_returned: AtomicU64,
    comm_tuples: AtomicU64,
    precompute_tuples: AtomicU64,
    index_relations_built: AtomicU64,
    index_relations_reused: AtomicU64,
    index_bags_reused: AtomicU64,
    queries_prepared: AtomicU64,
    params_bound: AtomicU64,
    share_solves: AtomicU64,
    queries_traced: AtomicU64,
    trace_events_dropped: AtomicU64,
    slow_queries_logged: AtomicU64,
    mutations_applied: AtomicU64,
    delta_overlay_tuples: AtomicU64,
    index_entries_patched: AtomicU64,
    compactions: AtomicU64,
    worker_panics_caught: AtomicU64,
    queries_deadline_exceeded: AtomicU64,
    queries_cancelled: AtomicU64,
    batch_bindings_executed: AtomicU64,
    result_cache_hits: AtomicU64,
    partition_tuples_max: AtomicU64,
    partition_fill_sum: AtomicU64,
    partition_fill_slots: AtomicU64,
    wire_bytes: AtomicU64,
    pipeline_overlap_micros: AtomicU64,
    /// End-to-end service-side latency (admission wait included).
    pub total: Histogram,
    /// Time spent waiting for an admission slot.
    pub queue_wait: Histogram,
    /// Plan-search + sampling seconds (0 on plan-cache hits).
    pub optimization: Histogram,
    /// Bag pre-computation seconds.
    pub precompute: Histogram,
    /// Final-shuffle communication seconds.
    pub communication: Histogram,
    /// Leapfrog computation seconds (makespan).
    pub computation: Histogram,
    /// Local trie index build seconds (0 when every relation came from the
    /// index cache — the warm-path signature).
    pub index_build: Histogram,
}

impl ServiceMetrics {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        ServiceMetrics::default()
    }

    /// Records one successfully served query: its cost report, the output
    /// mode it ran under, and how many tuples were actually shipped back
    /// to the caller (0 in `Count`/`Exists` modes — the
    /// `output_tuples_returned` gauge is how a dashboard sees streaming
    /// modes saving result-transfer volume).
    pub fn record_success(
        &self,
        report: &ExecutionReport,
        mode: OutputMode,
        tuples_returned: u64,
        queue_secs: f64,
        total_secs: f64,
    ) {
        self.queries_ok.fetch_add(1, Ordering::Relaxed);
        let by_mode = match mode {
            OutputMode::Rows => &self.queries_rows,
            OutputMode::Count => &self.queries_count,
            OutputMode::Limit(_) => &self.queries_limit,
            OutputMode::Exists => &self.queries_exists,
        };
        by_mode.fetch_add(1, Ordering::Relaxed);
        self.output_tuples_returned.fetch_add(tuples_returned, Ordering::Relaxed);
        self.output_tuples.fetch_add(report.output_tuples, Ordering::Relaxed);
        self.comm_tuples.fetch_add(report.comm_tuples, Ordering::Relaxed);
        self.precompute_tuples.fetch_add(report.precompute_tuples, Ordering::Relaxed);
        self.index_relations_built.fetch_add(report.index_relations_built, Ordering::Relaxed);
        self.index_relations_reused.fetch_add(report.index_relations_reused, Ordering::Relaxed);
        self.index_bags_reused.fetch_add(report.index_bags_reused, Ordering::Relaxed);
        self.params_bound.fetch_add(report.bound_values, Ordering::Relaxed);
        self.share_solves.fetch_add(report.share_solves, Ordering::Relaxed);
        self.partition_tuples_max.fetch_max(report.max_partition_tuples(), Ordering::Relaxed);
        self.partition_fill_sum
            .fetch_add(report.worker_tuples.iter().sum::<u64>(), Ordering::Relaxed);
        self.partition_fill_slots.fetch_add(report.worker_tuples.len() as u64, Ordering::Relaxed);
        self.wire_bytes.fetch_add(report.wire_bytes, Ordering::Relaxed);
        self.pipeline_overlap_micros
            .fetch_add((report.pipeline_overlap_secs * 1e6) as u64, Ordering::Relaxed);
        self.total.record_secs(total_secs);
        self.queue_wait.record_secs(queue_secs);
        self.optimization.record_secs(report.optimization_secs);
        self.precompute.record_secs(report.precompute_secs);
        self.communication.record_secs(report.communication_secs);
        self.computation.record_secs(report.computation_secs);
        self.index_build.record_secs(report.index_build_secs);
    }

    /// Records a query that failed during planning or execution.
    pub fn record_failure(&self) {
        self.queries_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a [`Service::prepare`](crate::Service::prepare) call.
    pub fn record_prepare(&self) {
        self.queries_prepared.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a query turned away by admission control.
    pub fn record_rejection(&self) {
        self.queries_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker (or coordinator) panic that was caught and isolated
    /// to its query. The query also counts as failed
    /// ([`record_failure`](Self::record_failure) is the caller's job).
    pub fn record_worker_panic(&self) {
        self.worker_panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a query stopped because its deadline passed.
    pub fn record_deadline_exceeded(&self) {
        self.queries_deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a query stopped by explicit cancellation.
    pub fn record_cancelled(&self) {
        self.queries_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one traced query and how many of its events overflowed the
    /// trace ring buffer (0 when the capacity sufficed).
    pub fn record_trace(&self, events_dropped: u64) {
        self.queries_traced.fetch_add(1, Ordering::Relaxed);
        self.trace_events_dropped.fetch_add(events_dropped, Ordering::Relaxed);
    }

    /// Records a query admitted into the slow-query log.
    pub fn record_slow_logged(&self) {
        self.slow_queries_logged.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one served mutation batch: how many warm index-cache
    /// entries were patched forward, whether the overlay compacted, and
    /// the resulting overlay-tuple residency across all databases (a
    /// gauge — the last write wins).
    pub fn record_mutation(&self, entries_patched: u64, compacted: bool, overlay_tuples: u64) {
        self.mutations_applied.fetch_add(1, Ordering::Relaxed);
        self.index_entries_patched.fetch_add(entries_patched, Ordering::Relaxed);
        if compacted {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
        self.delta_overlay_tuples.store(overlay_tuples, Ordering::Relaxed);
    }

    /// Records one served [`Service::execute_batch`](crate::Service)
    /// call: how many binding submissions it answered (duplicates and
    /// result-cache hits included — every submission the batched path
    /// served) and how many of those came straight out of the per-binding
    /// result LRU without executing.
    pub fn record_batch(&self, bindings: u64, cache_hits: u64) {
        self.batch_bindings_executed.fetch_add(bindings, Ordering::Relaxed);
        self.result_cache_hits.fetch_add(cache_hits, Ordering::Relaxed);
    }

    /// A point-in-time summary of everything.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_failed: self.queries_failed.load(Ordering::Relaxed),
            queries_rejected: self.queries_rejected.load(Ordering::Relaxed),
            by_mode: ModeCounts {
                rows: self.queries_rows.load(Ordering::Relaxed),
                count: self.queries_count.load(Ordering::Relaxed),
                limit: self.queries_limit.load(Ordering::Relaxed),
                exists: self.queries_exists.load(Ordering::Relaxed),
            },
            output_tuples: self.output_tuples.load(Ordering::Relaxed),
            output_tuples_returned: self.output_tuples_returned.load(Ordering::Relaxed),
            comm_tuples: self.comm_tuples.load(Ordering::Relaxed),
            precompute_tuples: self.precompute_tuples.load(Ordering::Relaxed),
            index_relations_built: self.index_relations_built.load(Ordering::Relaxed),
            index_relations_reused: self.index_relations_reused.load(Ordering::Relaxed),
            index_bags_reused: self.index_bags_reused.load(Ordering::Relaxed),
            queries_prepared: self.queries_prepared.load(Ordering::Relaxed),
            params_bound: self.params_bound.load(Ordering::Relaxed),
            share_solves: self.share_solves.load(Ordering::Relaxed),
            queries_traced: self.queries_traced.load(Ordering::Relaxed),
            trace_events_dropped: self.trace_events_dropped.load(Ordering::Relaxed),
            slow_queries_logged: self.slow_queries_logged.load(Ordering::Relaxed),
            mutations_applied: self.mutations_applied.load(Ordering::Relaxed),
            delta_overlay_tuples: self.delta_overlay_tuples.load(Ordering::Relaxed),
            index_entries_patched: self.index_entries_patched.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            worker_panics_caught: self.worker_panics_caught.load(Ordering::Relaxed),
            queries_deadline_exceeded: self.queries_deadline_exceeded.load(Ordering::Relaxed),
            queries_cancelled: self.queries_cancelled.load(Ordering::Relaxed),
            batch_bindings_executed: self.batch_bindings_executed.load(Ordering::Relaxed),
            result_cache_hits: self.result_cache_hits.load(Ordering::Relaxed),
            // The registry does not own the index cache; the service fills
            // this in from `IndexCacheStats` when assembling its snapshot.
            coalesced_builds: 0,
            max_partition_tuples: self.partition_tuples_max.load(Ordering::Relaxed),
            mean_partition_tuples: {
                let slots = self.partition_fill_slots.load(Ordering::Relaxed);
                if slots == 0 {
                    0.0
                } else {
                    self.partition_fill_sum.load(Ordering::Relaxed) as f64 / slots as f64
                }
            },
            wire_bytes: self.wire_bytes.load(Ordering::Relaxed),
            pipeline_overlap_secs: self.pipeline_overlap_micros.load(Ordering::Relaxed) as f64
                / 1e6,
            total: self.total.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            optimization: self.optimization.snapshot(),
            precompute: self.precompute.snapshot(),
            communication: self.communication.snapshot(),
            computation: self.computation.snapshot(),
            index_build: self.index_build.snapshot(),
        }
    }
}

/// A point-in-time copy of every counter and histogram summary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Queries served successfully.
    pub queries_ok: u64,
    /// Queries that failed during planning or execution.
    pub queries_failed: u64,
    /// Queries rejected by admission control.
    pub queries_rejected: u64,
    /// Served queries broken down by output mode.
    pub by_mode: ModeCounts,
    /// Total result tuples the joins *found* (full cardinalities in
    /// `Rows`/`Count` modes; short-circuited tallies under `Limit`/
    /// `Exists`).
    pub output_tuples: u64,
    /// Total result tuples actually *returned* to callers — the gauge that
    /// shows `Count`/`Exists` (0 per query) and `Limit(n)` (≤ n per query)
    /// saving result-transfer volume.
    pub output_tuples_returned: u64,
    /// Total tuple copies moved by final shuffles.
    pub comm_tuples: u64,
    /// Total tuple copies moved while pre-computing.
    pub precompute_tuples: u64,
    /// Relation indexes built (cold shuffle + sort + trie build paid).
    pub index_relations_built: u64,
    /// Relation indexes served from the index cache (nothing moved or
    /// built).
    pub index_relations_reused: u64,
    /// Pre-computed bag relations served from the index cache.
    pub index_bags_reused: u64,
    /// Prepared statements created
    /// ([`Service::prepare`](crate::Service::prepare) /
    /// `prepare_text` calls).
    pub queries_prepared: u64,
    /// Constants bound across all served executions: bound `$name`
    /// parameters plus resolved inline literals.
    pub params_bound: u64,
    /// Execution-time share programs solved across all served executions.
    /// A plan solves each of its shuffle rounds once and later executions
    /// reuse the vector, so this grows with new plan entries (cold shapes,
    /// mutations, re-registrations) — not with traffic.
    pub share_solves: u64,
    /// Served queries that ran with an enabled tracer (configured tracing,
    /// a slow-query threshold, or `EXPLAIN ANALYZE`).
    pub queries_traced: u64,
    /// Trace events lost to ring-buffer overflow across all traced
    /// queries. Non-zero means the configured trace buffer capacity is too
    /// small for the query shapes being served.
    pub trace_events_dropped: u64,
    /// Queries admitted into the slow-query log (exceeded the configured
    /// latency threshold).
    pub slow_queries_logged: u64,
    /// Mutation batches served (`Service::mutate` calls that applied).
    pub mutations_applied: u64,
    /// Overlay tuples (insert + tombstone runs) currently resident across
    /// all registered databases — falls back to 0 after compactions fold
    /// the overlays away.
    pub delta_overlay_tuples: u64,
    /// Warm index-cache entries patched forward to a new delta sequence
    /// instead of being discarded.
    pub index_entries_patched: u64,
    /// Delta overlays folded into their base (size- or drift-triggered).
    pub compactions: u64,
    /// Worker (or coordinator) panics caught and isolated to their query —
    /// each also counts under `queries_failed`. Non-zero means a bug fired
    /// in production without taking the process down.
    pub worker_panics_caught: u64,
    /// Queries stopped because their deadline passed (admission wait
    /// included).
    pub queries_deadline_exceeded: u64,
    /// Queries stopped by explicit cancellation (a fault-plan `Cancel` or a
    /// manually triggered token — distinct from deadline expiry).
    pub queries_cancelled: u64,
    /// Binding submissions served through the batched execution path
    /// (`Service::execute_batch`) — duplicates and result-cache hits
    /// included.
    pub batch_bindings_executed: u64,
    /// Binding submissions answered straight from the per-binding result
    /// LRU without executing. The batch hit rate is this over
    /// `batch_bindings_executed`.
    pub result_cache_hits: u64,
    /// Index/bag builds avoided by request coalescing: concurrent misses on
    /// one cold cache entry collapse onto a single builder and the rest
    /// wait for its published handle. (Sourced from
    /// [`IndexCacheStats`](adj_core::IndexCacheStats) at snapshot time —
    /// 0 in snapshots taken directly off a bare `ServiceMetrics`.)
    pub coalesced_builds: u64,
    /// Fullest single-worker partition fill (delivered tuple copies)
    /// observed on any served query — the hot-spot ceiling.
    pub max_partition_tuples: u64,
    /// Mean partition fill per worker across all shuffles that moved data.
    pub mean_partition_tuples: f64,
    /// Real serialized bytes put on the wire by shuffles — 0 under the
    /// in-process transport (which moves `Arc`s, not bytes) and for fully
    /// warm queries on any transport.
    pub wire_bytes: u64,
    /// Modeled seconds saved by pipelining shuffle delivery with trie
    /// builds, summed over served queries (already subtracted from the
    /// communication histograms — this is the win, broken out).
    pub pipeline_overlap_secs: f64,
    /// End-to-end latency summary.
    pub total: HistogramSnapshot,
    /// Admission-wait summary.
    pub queue_wait: HistogramSnapshot,
    /// Optimization-phase summary.
    pub optimization: HistogramSnapshot,
    /// Pre-compute-phase summary.
    pub precompute: HistogramSnapshot,
    /// Communication-phase summary.
    pub communication: HistogramSnapshot,
    /// Computation-phase summary.
    pub computation: HistogramSnapshot,
    /// Index-build summary (the index_build vs index_reuse split: warm
    /// queries record ~0 here).
    pub index_build: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters as `adj_*_total`, gauges bare, histogram
    /// summaries as `adj_*_seconds{quantile="…"}` plus `_count`/`_sum`
    /// series (sum reconstructed as mean × count). Serve this under
    /// `/metrics` and any Prometheus-compatible scraper ingests it as-is.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        let mut counter = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP adj_{name} {help}\n# TYPE adj_{name} counter\nadj_{name} {v}\n"
            ));
        };
        counter("queries_ok_total", "Queries served successfully.", self.queries_ok);
        counter("queries_failed_total", "Queries that failed.", self.queries_failed);
        counter("queries_rejected_total", "Queries rejected by admission.", self.queries_rejected);
        counter("queries_rows_total", "Queries served in Rows mode.", self.by_mode.rows);
        counter("queries_count_total", "Queries served in Count mode.", self.by_mode.count);
        counter("queries_limit_total", "Queries served in Limit mode.", self.by_mode.limit);
        counter("queries_exists_total", "Queries served in Exists mode.", self.by_mode.exists);
        counter("output_tuples_total", "Result tuples found by joins.", self.output_tuples);
        counter(
            "output_tuples_returned_total",
            "Result tuples shipped to callers.",
            self.output_tuples_returned,
        );
        counter("comm_tuples_total", "Tuples moved by final shuffles.", self.comm_tuples);
        counter(
            "precompute_tuples_total",
            "Tuples moved while pre-computing.",
            self.precompute_tuples,
        );
        counter(
            "index_relations_built_total",
            "Relation indexes built cold.",
            self.index_relations_built,
        );
        counter(
            "index_relations_reused_total",
            "Relation indexes served from the index cache.",
            self.index_relations_reused,
        );
        counter(
            "index_bags_reused_total",
            "Pre-computed bags served from the index cache.",
            self.index_bags_reused,
        );
        counter("queries_prepared_total", "Prepared statements created.", self.queries_prepared);
        counter("params_bound_total", "Constants bound at bind time.", self.params_bound);
        counter(
            "share_solves_total",
            "Execution-time share programs solved (not reused from a plan's memo).",
            self.share_solves,
        );
        counter("queries_traced_total", "Queries that ran with tracing on.", self.queries_traced);
        counter(
            "trace_events_dropped_total",
            "Trace events lost to ring-buffer overflow.",
            self.trace_events_dropped,
        );
        counter(
            "slow_queries_logged_total",
            "Queries admitted into the slow-query log.",
            self.slow_queries_logged,
        );
        counter("mutations_applied_total", "Mutation batches served.", self.mutations_applied);
        counter(
            "index_entries_patched_total",
            "Warm index-cache entries patched forward across mutations.",
            self.index_entries_patched,
        );
        counter("compactions_total", "Delta overlays folded into their base.", self.compactions);
        counter(
            "worker_panics_caught_total",
            "Worker panics caught and isolated to their query.",
            self.worker_panics_caught,
        );
        counter(
            "queries_deadline_exceeded_total",
            "Queries stopped because their deadline passed.",
            self.queries_deadline_exceeded,
        );
        counter(
            "queries_cancelled_total",
            "Queries stopped by explicit cancellation.",
            self.queries_cancelled,
        );
        counter(
            "batch_bindings_executed_total",
            "Binding submissions served through the batched execution path.",
            self.batch_bindings_executed,
        );
        counter(
            "result_cache_hits_total",
            "Binding submissions answered from the per-binding result cache.",
            self.result_cache_hits,
        );
        counter(
            "coalesced_builds_total",
            "Index/bag builds avoided by request coalescing.",
            self.coalesced_builds,
        );
        counter("wire_bytes_total", "Serialized bytes moved by shuffles.", self.wire_bytes);
        out.push_str(&format!(
            "# HELP adj_pipeline_overlap_seconds_total Modeled seconds saved by pipelined shuffles.\n\
             # TYPE adj_pipeline_overlap_seconds_total counter\n\
             adj_pipeline_overlap_seconds_total {}\n",
            self.pipeline_overlap_secs
        ));
        out.push_str(&format!(
            "# HELP adj_delta_overlay_tuples Overlay tuples resident across databases.\n\
             # TYPE adj_delta_overlay_tuples gauge\n\
             adj_delta_overlay_tuples {}\n",
            self.delta_overlay_tuples
        ));
        out.push_str(&format!(
            "# HELP adj_max_partition_tuples Fullest single-worker partition fill observed.\n\
             # TYPE adj_max_partition_tuples gauge\n\
             adj_max_partition_tuples {}\n",
            self.max_partition_tuples
        ));
        out.push_str(&format!(
            "# HELP adj_mean_partition_tuples Mean partition fill per worker.\n\
             # TYPE adj_mean_partition_tuples gauge\n\
             adj_mean_partition_tuples {}\n",
            self.mean_partition_tuples
        ));
        for (name, help, h) in [
            ("total_latency", "End-to-end service-side latency.", &self.total),
            ("queue_wait", "Admission-wait latency.", &self.queue_wait),
            ("optimization", "Plan-search latency.", &self.optimization),
            ("precompute", "Bag pre-computation latency.", &self.precompute),
            ("communication", "Final-shuffle latency.", &self.communication),
            ("computation", "Leapfrog join latency.", &self.computation),
            ("index_build", "Local trie build latency.", &self.index_build),
        ] {
            out.push_str(&format!(
                "# HELP adj_{name}_seconds {help}\n# TYPE adj_{name}_seconds summary\n"
            ));
            for (q, v) in [("0.5", h.p50_secs), ("0.9", h.p90_secs), ("0.99", h.p99_secs)] {
                out.push_str(&format!("adj_{name}_seconds{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("adj_{name}_seconds_count {}\n", h.count));
            out.push_str(&format!("adj_{name}_seconds_sum {}\n", h.mean_secs * h.count as f64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        // 90 fast observations, 10 slow ones.
        for _ in 0..90 {
            h.record_secs(0.001); // 1000 µs → bucket ⌈log2⌉ = 10
        }
        for _ in 0..10 {
            h.record_secs(0.5); // 500_000 µs
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // median in the fast bucket (512, 1024]µs: rank 50 of its 90
        // observations interpolates to 512 + (50/90)·512 µs ≈ 796.4 µs —
        // within the bucket, not pinned to its upper edge.
        let expect_p50 = 512e-6 * (1.0 + 50.0 / 90.0);
        assert!((s.p50_secs - expect_p50).abs() < 1e-9, "p50={}", s.p50_secs);
        assert!(s.p50_secs > 512e-6 && s.p50_secs < 1024e-6, "p50={}", s.p50_secs);
        // p99 lands among the slow: 500 ms sits in (262144, 524288]µs, and
        // rank 99 is the 9th of that bucket's 10 observations.
        let expect_p99 = 262144e-6 * (1.0 + 9.0 / 10.0);
        assert!((s.p99_secs - expect_p99).abs() < 1e-9, "p99={}", s.p99_secs);
        assert!((s.max_secs - 0.5).abs() < 1e-6);
        let mean = (90.0 * 0.001 + 10.0 * 0.5) / 100.0;
        assert!((s.mean_secs - mean).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_secs, 0.0);
        assert_eq!(s.mean_secs, 0.0);
    }

    #[test]
    fn sub_microsecond_goes_to_bucket_zero() {
        let h = Histogram::default();
        h.record_secs(1e-9);
        h.record_secs(0.0);
        assert_eq!(h.snapshot().count, 2);
        // bucket 0 spans (0, 1]µs; rank 1 of 2 interpolates to 0.5 µs
        assert!((h.snapshot().p50_secs - 0.5e-6).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_extreme_saturates_cleanly() {
        // Zero, negative, and NaN durations must all land in bucket 0 with
        // a sane (1 µs upper-bound) quantile and a finite mean — a spinning
        // clock or a subtraction gone negative must never corrupt stats.
        let h = Histogram::default();
        h.record_secs(0.0);
        h.record_secs(-3.5);
        h.record_secs(f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.mean_secs, 0.0);
        // all three land in bucket 0 (0, 1]µs: rank 2 of 3 → ⅔ µs, rank 3
        // of 3 → the bucket's upper edge
        assert!((s.p50_secs - (2.0 / 3.0) * 1e-6).abs() < 1e-12);
        assert!((s.p99_secs - 1e-6).abs() < 1e-12);
        assert_eq!(s.max_secs, 0.0);
    }

    #[test]
    fn multi_second_extreme_saturates_into_the_last_bucket() {
        // Multi-second, multi-day, and infinite samples clamp into the last
        // log2 bucket; the running sum (hence the mean) stays finite and
        // monotone instead of wrapping.
        let h = Histogram::default();
        h.record_secs(5.0); // a legitimate slow query
        for _ in 0..100 {
            h.record_secs(f64::INFINITY); // a wedged clock, 100 times over
        }
        h.record_secs(1e12); // a bogus huge-but-finite sample
        let s = h.snapshot();
        assert_eq!(s.count, 102);
        let cap_secs = (super::MAX_MICROS as f64) * 1e-6;
        assert!(s.max_secs <= cap_secs, "max {} must clamp at {cap_secs}", s.max_secs);
        assert!(s.mean_secs.is_finite() && s.mean_secs > 0.0 && s.mean_secs <= cap_secs);
        assert!(s.p99_secs.is_finite() && s.p99_secs > 5.0);
        // The legitimate sample is still visible below the saturated mass.
        assert!(s.p50_secs >= 5.0, "p50={}", s.p50_secs);
    }

    #[test]
    fn skew_gauges_accumulate() {
        let m = ServiceMetrics::new();
        let balanced =
            ExecutionReport { worker_tuples: vec![10, 10, 10, 10], ..Default::default() };
        let skewed = ExecutionReport { worker_tuples: vec![70, 10, 10, 10], ..Default::default() };
        m.record_success(&balanced, OutputMode::Rows, 0, 0.0, 0.001);
        m.record_success(&skewed, OutputMode::Rows, 0, 0.0, 0.001);
        let s = m.snapshot();
        assert_eq!(s.max_partition_tuples, 70);
        assert!((s.mean_partition_tuples - 140.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn registry_accumulates_reports() {
        let m = ServiceMetrics::new();
        let r = ExecutionReport {
            output_tuples: 7,
            comm_tuples: 100,
            optimization_secs: 0.002,
            communication_secs: 0.001,
            computation_secs: 0.003,
            ..Default::default()
        };
        m.record_success(&r, OutputMode::Rows, 7, 0.0005, 0.01);
        m.record_failure();
        m.record_rejection();
        let s = m.snapshot();
        assert_eq!((s.queries_ok, s.queries_failed, s.queries_rejected), (1, 1, 1));
        assert_eq!(s.output_tuples, 7);
        assert_eq!(s.output_tuples_returned, 7);
        assert_eq!(s.comm_tuples, 100);
        assert_eq!(s.total.count, 1);
        assert_eq!(s.optimization.count, 1);
        assert!(s.total.max_secs > 0.009);
    }

    #[test]
    fn per_mode_counters_and_returned_gauge() {
        let m = ServiceMetrics::new();
        let r = ExecutionReport { output_tuples: 10, ..Default::default() };
        m.record_success(&r, OutputMode::Rows, 10, 0.0, 0.001);
        m.record_success(&r, OutputMode::Count, 0, 0.0, 0.001);
        m.record_success(&r, OutputMode::Count, 0, 0.0, 0.001);
        m.record_success(&r, OutputMode::Limit(3), 3, 0.0, 0.001);
        m.record_success(&r, OutputMode::Exists, 0, 0.0, 0.001);
        let s = m.snapshot();
        assert_eq!(s.by_mode, ModeCounts { rows: 1, count: 2, limit: 1, exists: 1 });
        assert_eq!(s.by_mode.total(), s.queries_ok);
        assert_eq!(s.output_tuples, 50, "joins found 10 tuples every time");
        assert_eq!(s.output_tuples_returned, 13, "but only rows/limit shipped any");
    }

    #[test]
    fn trace_counters_accumulate() {
        let m = ServiceMetrics::new();
        m.record_trace(0);
        m.record_trace(7);
        m.record_slow_logged();
        let s = m.snapshot();
        assert_eq!(s.queries_traced, 2);
        assert_eq!(s.trace_events_dropped, 7);
        assert_eq!(s.slow_queries_logged, 1);
    }

    #[test]
    fn fault_counters_accumulate_and_export() {
        let m = ServiceMetrics::new();
        m.record_worker_panic();
        m.record_failure();
        m.record_deadline_exceeded();
        m.record_failure();
        m.record_cancelled();
        m.record_failure();
        let s = m.snapshot();
        assert_eq!(s.worker_panics_caught, 1);
        assert_eq!(s.queries_deadline_exceeded, 1);
        assert_eq!(s.queries_cancelled, 1);
        assert_eq!(s.queries_failed, 3);
        let text = s.to_prometheus_text();
        assert!(text.contains("adj_worker_panics_caught_total 1\n"));
        assert!(text.contains("adj_queries_deadline_exceeded_total 1\n"));
        assert!(text.contains("adj_queries_cancelled_total 1\n"));
    }

    #[test]
    fn batch_counters_accumulate_and_export() {
        let m = ServiceMetrics::new();
        m.record_batch(100, 40);
        m.record_batch(50, 50);
        let s = m.snapshot();
        assert_eq!(s.batch_bindings_executed, 150);
        assert_eq!(s.result_cache_hits, 90);
        assert_eq!(s.coalesced_builds, 0, "filled in by the service, not the registry");
        let text = s.to_prometheus_text();
        assert!(text.contains("adj_batch_bindings_executed_total 150\n"));
        assert!(text.contains("adj_result_cache_hits_total 90\n"));
        assert!(text.contains("adj_coalesced_builds_total 0\n"));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let m = ServiceMetrics::new();
        let r = ExecutionReport { output_tuples: 3, ..Default::default() };
        m.record_success(&r, OutputMode::Rows, 3, 0.0001, 0.002);
        m.record_trace(1);
        let text = m.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE adj_queries_ok_total counter"));
        assert!(text.contains("adj_queries_ok_total 1\n"));
        assert!(text.contains("adj_queries_traced_total 1\n"));
        assert!(text.contains("adj_trace_events_dropped_total 1\n"));
        assert!(text.contains("# TYPE adj_total_latency_seconds summary"));
        assert!(text.contains("adj_total_latency_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("adj_total_latency_seconds_count 1\n"));
        // every non-comment line is `name{labels}? value`
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value pair");
            assert!(name.starts_with("adj_"), "{line}");
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = std::sync::Arc::new(ServiceMetrics::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    let r = ExecutionReport::default();
                    for _ in 0..250 {
                        m.record_success(&r, OutputMode::Rows, 0, 0.0001, 0.0002);
                    }
                });
            }
        });
        let s = m.snapshot();
        assert_eq!(s.queries_ok, 2000);
        assert_eq!(s.total.count, 2000);
    }
}
