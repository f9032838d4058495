//! Integration tests of the tracing subsystem end to end: well-formed span
//! trees for every query × strategy × output-mode combination, results
//! byte-identical with tracing on and off, EXPLAIN ANALYZE actuals
//! consistent with the execution report, ring-buffer overflow accounting,
//! and true no-op behavior when disabled.

use adj::prelude::*;
use adj_trace::lane_for_worker;

const WORKERS: usize = 3;

fn service_with(strategy: Strategy, trace: Option<TraceSettings>) -> Service {
    // Pin the cost model's β calibration: the traced and plain services
    // plan independently, and the byte-identical assertions below need
    // both plans to be a pure function of the data, not of machine load.
    let cost = CostParams { measure_beta: false, ..Default::default() };
    Service::new(ServiceConfig {
        adj: AdjConfig {
            cluster: ClusterConfig::with_workers(WORKERS),
            cost,
            ..Default::default()
        },
        strategy,
        trace: trace.unwrap_or_default(),
        ..Default::default()
    })
}

fn traced_settings() -> TraceSettings {
    TraceSettings { enabled: true, ..Default::default() }
}

#[test]
fn span_trees_are_well_formed_across_the_matrix() {
    for (pq, dataset) in [
        (PaperQuery::Q1, Dataset::WB),
        (PaperQuery::Q4, Dataset::AS),
        (PaperQuery::Q7, Dataset::WB),
    ] {
        let q = paper_query(pq);
        let db = q.instantiate(&dataset.graph(0.01));
        for strategy in [Strategy::CoOptimize, Strategy::CommFirst] {
            let traced = service_with(strategy, Some(traced_settings()));
            traced.register_database("g", db.clone());
            let plain = service_with(strategy, None);
            plain.register_database("g", db.clone());

            for mode in
                [OutputMode::Rows, OutputMode::Count, OutputMode::Limit(5), OutputMode::Exists]
            {
                let label = format!("{pq:?}/{strategy:?}/{mode:?}");
                let on = traced.execute_mode("g", &q, mode).unwrap();
                let off = plain.execute_mode("g", &q, mode).unwrap();

                // Identical results with tracing on and off.
                assert_eq!(on.output, off.output, "{label}: tracing must not change results");
                assert!(off.trace.is_none(), "{label}: default config must not trace");

                let trace = on.trace.as_ref().expect("tracing enabled");
                assert!(trace.is_well_formed(), "{label}: spans must nest per lane");
                assert_eq!(trace.events_dropped, 0, "{label}: default capacity suffices");

                // Every coordinator phase span is present (admission_wait
                // is not: uncontended queries discard it by design)...
                for name in ["plan_lookup", "shuffle", "computation", "gather"] {
                    assert!(
                        !trace.events_named(name).is_empty(),
                        "{label}: missing phase span {name}"
                    );
                }
                // ...and exactly one final-join lane per worker.
                let joins = trace.events_named("join");
                assert_eq!(joins.len(), WORKERS, "{label}: one join span per worker");
                for w in 0..WORKERS {
                    assert!(
                        joins.iter().any(|e| e.lane == lane_for_worker(w)),
                        "{label}: worker {w} has no join span"
                    );
                }
                assert!(
                    trace.lanes().len() > WORKERS,
                    "{label}: coordinator + worker lanes expected, got {:?}",
                    trace.lanes()
                );

                // The Chrome export is syntactically sound and names lanes.
                let json = trace.to_chrome_json();
                assert!(json.starts_with('[') && json.trim_end().ends_with(']'), "{label}");
                assert!(json.contains("thread_name"), "{label}");
            }
        }
    }
}

#[test]
fn worker_join_spans_sum_worker_tuples() {
    let q = paper_query(PaperQuery::Q4);
    let db = q.instantiate(&Dataset::AS.graph(0.01));
    let service = service_with(Strategy::CoOptimize, Some(traced_settings()));
    service.register_database("g", db);
    let out = service.execute("g", &q).unwrap();
    let trace = out.trace.as_ref().unwrap();
    // The per-worker join spans carry counter args that sum to the
    // report's: the result cardinality, the dance's gallops and the probes.
    let total = |arg: &str| -> u64 {
        trace
            .events_named("join")
            .iter()
            .flat_map(|e| &e.args)
            .filter(|(k, _)| k == arg)
            .map(|(_, v)| v)
            .sum()
    };
    let c = &out.report.counters;
    assert_eq!(total("output_tuples"), out.report.output_tuples, "span args match the report");
    assert_eq!(total("intersect_ops"), c.intersect_ops);
    assert_eq!(total("probes"), c.stats.total_probes());
    assert_eq!(total("table_builds"), c.stats.table_builds);
}

#[test]
fn cold_optimize_span_shows_what_the_optimizer_shared() {
    // A cold Q5 samples several sub-joins over the same seven relations and
    // prices the same pre-compute sets at several positions: the optimize
    // span must say how much of that one call served from its own cache.
    let q = paper_query(PaperQuery::Q5);
    let db = q.instantiate(&Dataset::WB.graph(0.01));
    let service = service_with(Strategy::CoOptimize, Some(traced_settings()));
    service.register_database("g", db);
    let out = service.execute_mode("g", &q, OutputMode::Count).unwrap();
    assert!(!out.cache_hit, "first touch plans cold");
    let trace = out.trace.as_ref().unwrap();
    let spans = trace.events_named("optimize");
    assert_eq!(spans.len(), 1, "one optimize span per cold plan");
    for (name, value) in out.plan.optimizer.args() {
        assert_eq!(spans[0].args.get(name), Some(value), "span arg {name} mirrors the plan");
    }
    let arg = |name: &str| spans[0].args.get(name).unwrap();
    // One trie per distinct (relation, level order) of the seven sampled
    // sub-joins — Q5's seven relations, one in two orders — reused by the
    // fourteen other members; a first touch finds nothing in the index
    // cache to read.
    assert_eq!(arg("subjoins_sampled"), 7, "{:?}", spans[0].args);
    assert_eq!(arg("tries_built"), 8, "{:?}", spans[0].args);
    assert_eq!(arg("tries_cached"), 0, "{:?}", spans[0].args);
    assert_eq!(arg("tries_reused"), 14, "{:?}", spans[0].args);
    assert!(arg("share_reused") > 0, "{:?}", spans[0].args);
    assert_eq!(arg("sampler_errors"), 0);
    // Every sub-join counts each distinct drawn value once: at most one
    // value per draw, and fewer wherever draws repeat.
    let draws = arg("subjoins_sampled") * SamplingConfig::default().samples as u64;
    assert!(arg("sample_values") > 0, "{:?}", spans[0].args);
    assert!(arg("sample_values") < draws, "{:?}", spans[0].args);
    // Q5 has five attributes: at three workers one solve's lattice holds
    // 3,652 vectors (product at most 64), and the pruned search scores a
    // sliver of it across all its solves together.
    assert!(arg("share_solves") > 0, "{:?}", spans[0].args);
    assert!(arg("share_candidates") > 0, "{:?}", spans[0].args);
    assert!(arg("share_candidates") < 3_652 / 10, "{:?}", spans[0].args);
}

#[test]
fn explain_analyze_actuals_match_the_execution_report() {
    let q = paper_query(PaperQuery::Q1);
    let db = q.instantiate(&Dataset::WB.graph(0.01));
    let service = service_with(Strategy::CoOptimize, None);
    service.register_database("g", db);

    let count = service.execute_mode("g", &q, OutputMode::Count).unwrap();
    let expect = match count.output {
        QueryOutput::Count(n) => n,
        other => panic!("count mode returned {other:?}"),
    };

    let text = "EXPLAIN ANALYZE COUNT(R1(a,b), R2(b,c), R3(a,c))";
    let rendered = service.explain_text("g", text).unwrap();
    assert!(rendered.starts_with("EXPLAIN ANALYZE mode=Count"), "{rendered}");
    assert!(
        rendered.contains(&format!("output: tuples={expect}")),
        "actual cardinality must appear: {rendered}"
    );
    for needle in [
        "actuals:",
        "phases: optimization=",
        "level 0 (",
        "probes=",
        "table_builds=",
        "worker join spans: w0=",
        "trace: events=",
    ] {
        assert!(rendered.contains(needle), "missing {needle:?} in: {rendered}");
    }
    // One lane line per worker in the partition fill.
    for w in 0..WORKERS {
        assert!(rendered.contains(&format!("w{w}=")), "{rendered}");
    }
}

#[test]
fn ring_buffer_overflow_is_counted_not_lost() {
    let q = paper_query(PaperQuery::Q4);
    let db = q.instantiate(&Dataset::AS.graph(0.01));
    let service = service_with(
        Strategy::CoOptimize,
        Some(TraceSettings { enabled: true, buffer_capacity: 4, ..Default::default() }),
    );
    service.register_database("g", db);
    let out = service.execute("g", &q).unwrap();
    let trace = out.trace.as_ref().unwrap();
    assert_eq!(trace.events.len(), 4, "capacity bounds retained events");
    assert!(trace.events_dropped > 0, "overflow must be counted");
    assert_eq!(trace.capacity, 4);
    assert!(service.metrics().trace_events_dropped > 0, "drop counter reaches the registry");
    // Execution itself is unaffected by the tiny buffer.
    let plain = service_with(Strategy::CoOptimize, None);
    plain.register_database("g", q.instantiate(&Dataset::AS.graph(0.01)));
    assert_eq!(out.output, plain.execute("g", &q).unwrap().output);
}

#[test]
fn disabled_tracing_records_nothing_anywhere() {
    let q = paper_query(PaperQuery::Q7);
    let db = q.instantiate(&Dataset::WB.graph(0.01));
    let service = service_with(Strategy::CoOptimize, None);
    service.register_database("g", db);
    let out = service.execute("g", &q).unwrap();
    assert!(out.trace.is_none());
    let m = service.metrics();
    assert_eq!(m.queries_traced, 0);
    assert_eq!(m.trace_events_dropped, 0);
    assert!(service.slow_queries().is_empty());

    // The raw no-op tracer records nothing even when exercised directly.
    let tracer = Tracer::disabled();
    let mut span = tracer.span(COORDINATOR_LANE, "anything");
    span.arg("k", 1);
    drop(span);
    tracer.instant(COORDINATOR_LANE, "marker", "detail");
    let trace = tracer.finish();
    assert!(trace.events.is_empty());
    assert_eq!(trace.events_dropped, 0);
}

#[test]
fn prepared_bound_executions_trace_too() {
    let tri = paper_query(PaperQuery::Q1);
    let db = tri.instantiate(&Dataset::WB.graph(0.01));
    let service = service_with(Strategy::CoOptimize, Some(traced_settings()));
    service.register_database("g", db);
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let prepared = service.prepare("g", &q).unwrap();
    let out =
        service.execute_bound(&prepared, &Bindings::new().set("v", 3), OutputMode::Count).unwrap();
    let trace = out.trace.as_ref().expect("bound path traces like any other");
    assert!(trace.is_well_formed());
    assert!(!trace.events_named("shuffle").is_empty());
    assert_eq!(trace.events_named("join").len(), WORKERS);

    let again =
        service.execute_bound(&prepared, &Bindings::new().set("v", 4), OutputMode::Count).unwrap();
    assert!(again.trace.as_ref().unwrap().is_well_formed());
    assert_eq!(again.report.share, out.plan.share, "every call reports the plan's share");
}

#[test]
fn traced_batches_record_one_join_span_per_worker() {
    // The batch door runs the same executor as every other door, so its
    // trace has the same shape: one `join` span per worker whose counters
    // sum to the report's, and one `gather` span with the per-level args.
    // The workers divide the bindings in morsels, so their completed
    // bindings sum to the batch's.
    let tri = paper_query(PaperQuery::Q1);
    let db = tri.instantiate(&Dataset::WB.graph(0.01));
    let service = service_with(Strategy::CoOptimize, Some(traced_settings()));
    service.register_database("g", db);
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let prepared = service.prepare("g", &q).unwrap();
    let bindings: Vec<Bindings> = (0..24).map(|v| Bindings::new().set("v", v % 20)).collect();
    let out = service.execute_batch(&prepared, &bindings, OutputMode::Rows).unwrap();
    let trace = out.trace.as_ref().expect("batches trace like any other door");
    assert!(trace.is_well_formed());

    let joins = trace.events_named("join");
    assert_eq!(joins.len(), WORKERS, "one join span per worker");
    assert!(trace.events_named("batch_join").is_empty());
    let total = |arg: &str| -> u64 {
        joins.iter().flat_map(|e| &e.args).filter(|(k, _)| k == arg).map(|(_, v)| v).sum()
    };
    assert!(total("output_tuples") > 0);
    assert_eq!(total("output_tuples"), out.report.counters.output_tuples);
    assert_eq!(total("intersect_ops"), out.report.counters.intersect_ops);
    // Each binding is walked by the one worker whose morsel holds it.
    assert_eq!(total("bindings_completed"), out.unique_executed as u64);
    assert_eq!(total("morsels"), 1, "20 bindings are one morsel");

    let gather = trace.events_named("gather");
    assert_eq!(gather.len(), 1);
    let arg = |name: &str| gather[0].args.get(name);
    assert_eq!(arg("bindings"), Some(out.unique_executed as u64));
    assert_eq!(arg("output_tuples"), Some(out.report.counters.output_tuples));
    assert_eq!(arg("tuples_l0"), Some(out.report.counters.tuples_per_level[0]));
}

#[test]
fn worker_join_spans_carry_per_level_counts_that_sum_to_the_gather() {
    // Each worker's `join` span says how many bindings it produced at every
    // level, so a trace shows which worker's enumeration is replicated; the
    // gather span's per-level counts are their sums.
    let q = paper_query(PaperQuery::Q8);
    let db = q.instantiate(&Dataset::WB.graph(0.01));
    let cost = CostParams { measure_beta: false, ..Default::default() };
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(2), cost, ..Default::default() },
        trace: traced_settings(),
        ..Default::default()
    });
    service.register_database("g", db);
    let out = service.execute_mode("g", &q, OutputMode::Count).unwrap();
    let trace = out.trace.as_ref().unwrap();
    let joins = trace.events_named("join");
    assert_eq!(joins.len(), 2, "one join span per worker");
    let gather = trace.events_named("gather");
    let c = &out.report.counters;
    assert!(c.tuples_per_level[2] > 0);
    for (kind, per_level) in
        [("tuples", &c.tuples_per_level), ("probes", &c.stats.probes_per_level)]
    {
        for (level, &want) in per_level.iter().enumerate() {
            let key = format!("{kind}_l{level}");
            let workers: Vec<u64> =
                joins.iter().map(|e| e.args.get(&key).expect("every worker says")).collect();
            assert_eq!(workers.iter().sum::<u64>(), want, "{key}: workers sum to the report");
            assert_eq!(gather[0].args.get(&key), Some(want), "{key}: the gather says the same");
        }
    }
}
