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
    assert!(arg("tries_reused") > 0, "{:?}", spans[0].args);
    assert!(arg("share_reused") > 0, "{:?}", spans[0].args);
    assert!(arg("tries_built") <= 2 * q.atoms.len() as u64, "{:?}", spans[0].args);
    assert_eq!(arg("sampler_errors"), 0);
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

    // The share program is on the timeline when it is solved — between the
    // plan lookup and the shuffle — and only then: the second call reuses
    // the plan's vector and says so on its shuffle span.
    let solve = trace.events_named("share_solve");
    assert_eq!(solve.len(), 1, "the first execution of a plan solves its share");
    assert_eq!(solve[0].lane, COORDINATOR_LANE);
    let shuffle = trace.events_named("shuffle")[0];
    assert!(solve[0].start_us + solve[0].dur_us <= shuffle.start_us, "solve precedes the shuffle");
    assert_eq!(shuffle.args.get("share_reused"), None);
    assert_eq!(out.report.share_solves, 1);

    let again =
        service.execute_bound(&prepared, &Bindings::new().set("v", 4), OutputMode::Count).unwrap();
    let trace = again.trace.as_ref().unwrap();
    assert!(trace.is_well_formed());
    assert!(trace.events_named("share_solve").is_empty(), "a reused share is not re-solved");
    assert_eq!(trace.events_named("shuffle")[0].args.get("share_reused"), Some(1));
    assert_eq!(again.report.share_solves, 0);
    assert_eq!(again.report.share, out.report.share, "the report carries the share either way");
}
