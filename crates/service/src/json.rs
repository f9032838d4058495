//! A tiny hand-rolled JSON writer — the one serializer every emitter in
//! the workspace shares (metrics snapshots, execution reports, bench
//! result files), instead of each bench binary hand-formatting its own
//! string soup. Zero dependencies by design: the workspace builds offline.
//!
//! The writer produces deterministic, insertion-ordered objects. Floats
//! are emitted via Rust's shortest-roundtrip `{}` formatting; NaN and
//! infinities (which raw JSON cannot carry) are emitted as `null`.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot, ModeCounts};
use adj_core::ExecutionReport;

/// Escapes `s` into a double-quoted JSON string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An object under construction. Fields keep insertion order; keys are
/// escaped, values rendered per type.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    fn push(&mut self, key: &str, rendered: String) -> &mut Self {
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.push(key, escape(value))
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.push(key, value.to_string())
    }

    /// Adds an `usize` field.
    pub fn usize(&mut self, key: &str, value: usize) -> &mut Self {
        self.push(key, value.to_string())
    }

    /// Adds a float field (`null` for non-finite values).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.push(key, fmt_f64(value))
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.push(key, value.to_string())
    }

    /// Adds an already-rendered JSON value (nested object, array, …).
    pub fn raw(&mut self, key: &str, rendered: impl Into<String>) -> &mut Self {
        self.push(key, rendered.into())
    }

    /// Adds a nested object field.
    pub fn object(&mut self, key: &str, value: &JsonObject) -> &mut Self {
        self.push(key, value.render())
    }

    /// Renders the object to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape(k));
            out.push(':');
            out.push_str(v);
        }
        out.push('}');
        out
    }
}

/// Renders a float as a JSON value (`null` for NaN / ±∞, which JSON
/// cannot represent).
pub fn fmt_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Renders a JSON array from rendered element strings.
pub fn array(rendered: impl IntoIterator<Item = String>) -> String {
    let mut out = String::from("[");
    for (i, v) in rendered.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v);
    }
    out.push(']');
    out
}

/// Renders a `u64` slice as a JSON array.
pub fn array_u64(values: &[u64]) -> String {
    array(values.iter().map(|v| v.to_string()))
}

/// Renders a float slice as a JSON array.
pub fn array_f64(values: &[f64]) -> String {
    array(values.iter().map(|v| fmt_f64(*v)))
}

impl HistogramSnapshot {
    /// This summary as a JSON object string.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.u64("count", self.count)
            .f64("mean_secs", self.mean_secs)
            .f64("p50_secs", self.p50_secs)
            .f64("p90_secs", self.p90_secs)
            .f64("p99_secs", self.p99_secs)
            .f64("max_secs", self.max_secs);
        o.render()
    }
}

impl ModeCounts {
    /// The per-mode counters as a JSON object string.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.u64("rows", self.rows)
            .u64("count", self.count)
            .u64("limit", self.limit)
            .u64("exists", self.exists);
        o.render()
    }
}

impl MetricsSnapshot {
    /// The full snapshot as a JSON object string — every counter, gauge,
    /// and histogram summary, with stable field names.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.u64("queries_ok", self.queries_ok)
            .u64("queries_failed", self.queries_failed)
            .u64("queries_rejected", self.queries_rejected)
            .raw("by_mode", self.by_mode.to_json())
            .u64("output_tuples", self.output_tuples)
            .u64("output_tuples_returned", self.output_tuples_returned)
            .u64("comm_tuples", self.comm_tuples)
            .u64("precompute_tuples", self.precompute_tuples)
            .u64("index_relations_built", self.index_relations_built)
            .u64("index_relations_reused", self.index_relations_reused)
            .u64("queries_prepared", self.queries_prepared)
            .u64("params_bound", self.params_bound)
            .u64("max_partition_tuples", self.max_partition_tuples)
            .f64("mean_partition_tuples", self.mean_partition_tuples)
            .u64("queries_traced", self.queries_traced)
            .u64("trace_events_dropped", self.trace_events_dropped)
            .u64("slow_queries_logged", self.slow_queries_logged)
            .u64("mutations_applied", self.mutations_applied)
            .u64("delta_overlay_tuples", self.delta_overlay_tuples)
            .u64("index_entries_patched", self.index_entries_patched)
            .u64("compactions", self.compactions)
            .u64("worker_panics_caught", self.worker_panics_caught)
            .u64("queries_deadline_exceeded", self.queries_deadline_exceeded)
            .u64("queries_cancelled", self.queries_cancelled)
            .u64("batch_bindings_executed", self.batch_bindings_executed)
            .u64("result_cache_hits", self.result_cache_hits)
            .u64("coalesced_builds", self.coalesced_builds)
            .raw("total", self.total.to_json())
            .raw("queue_wait", self.queue_wait.to_json())
            .raw("optimization", self.optimization.to_json())
            .raw("precompute", self.precompute.to_json())
            .raw("communication", self.communication.to_json())
            .raw("computation", self.computation.to_json())
            .raw("index_build", self.index_build.to_json());
        o.render()
    }
}

/// An [`ExecutionReport`]'s phase breakdown and counters as a JSON object
/// string (the shape bench emitters embed per measured query).
pub fn execution_report_json(r: &ExecutionReport) -> String {
    let mut o = JsonObject::new();
    o.f64("optimization_secs", r.optimization_secs)
        .f64("precompute_secs", r.precompute_secs)
        .f64("communication_secs", r.communication_secs)
        .f64("computation_secs", r.computation_secs)
        .f64("other_secs", r.other_secs)
        .f64("total_secs", r.total_secs())
        .u64("comm_tuples", r.comm_tuples)
        .u64("precompute_tuples", r.precompute_tuples)
        .u64("output_tuples", r.output_tuples)
        .raw("share", array_u64(&r.share.iter().map(|&s| s as u64).collect::<Vec<_>>()))
        .u64("index_relations_built", r.index_relations_built)
        .u64("index_relations_reused", r.index_relations_reused)
        .raw("worker_tuples", array_u64(&r.worker_tuples));
    o.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escape("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("Ω(a,b)"), "\"Ω(a,b)\"");
    }

    #[test]
    fn objects_render_in_insertion_order() {
        let mut o = JsonObject::new();
        o.u64("b", 2).str("a", "x").f64("c", 1.5).bool("d", true);
        assert_eq!(o.render(), "{\"b\":2,\"a\":\"x\",\"c\":1.5,\"d\":true}");
    }

    #[test]
    fn non_finite_floats_render_null() {
        let mut o = JsonObject::new();
        o.f64("nan", f64::NAN).f64("inf", f64::INFINITY).f64("ok", 0.25);
        assert_eq!(o.render(), "{\"nan\":null,\"inf\":null,\"ok\":0.25}");
    }

    #[test]
    fn arrays_render() {
        assert_eq!(array_u64(&[1, 2, 3]), "[1,2,3]");
        assert_eq!(array_f64(&[0.5]), "[0.5]");
        assert_eq!(array_u64(&[]), "[]");
    }

    #[test]
    fn snapshots_render_valid_json_shapes() {
        let h = HistogramSnapshot { count: 2, mean_secs: 0.5, ..Default::default() };
        let json = h.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"count\":2"));

        let m = MetricsSnapshot { queries_ok: 3, ..Default::default() };
        let json = m.to_json();
        assert!(json.contains("\"queries_ok\":3"));
        assert!(json.contains("\"by_mode\":{"));
        assert!(json.contains("\"worker_panics_caught\":0"));
        assert!(json.contains("\"queries_deadline_exceeded\":0"));
        assert!(json.contains("\"queries_cancelled\":0"));
        assert!(json.contains("\"batch_bindings_executed\":0"));
        assert!(json.contains("\"result_cache_hits\":0"));
        assert!(json.contains("\"coalesced_builds\":0"));
        assert!(json.contains("\"total\":{\"count\":0"));

        let r = ExecutionReport {
            output_tuples: 9,
            share: [2, 2, 1].into_iter().collect(),
            ..Default::default()
        };
        let json = execution_report_json(&r);
        assert!(json.contains("\"output_tuples\":9"));
        assert!(json.contains("\"share\":[2,2,1]"));
    }
}
