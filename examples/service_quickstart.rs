//! Quickstart for the serving layer: register databases, fire concurrent
//! queries from scoped threads, read the metrics.
//!
//! ```sh
//! cargo run --release --example service_quickstart
//! ```

use adj::prelude::*;

fn main() {
    // 1. A service over one shared 4-worker simulated cluster. Admission:
    //    at most 3 queries in flight, the rest queue.
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() },
        max_concurrent: 3,
        ..Default::default()
    });

    // 2. Named databases: one per workload shape, instantiated from the WB
    //    stand-in graph (Sec. VII-A test-case construction).
    let graph = Dataset::WB.graph(0.03);
    println!("dataset: WB stand-in, {} edges", graph.len());
    for shape in [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q7] {
        let q = paper_query(shape);
        service.register_database(format!("{shape:?}"), q.instantiate(&graph));
    }

    // 3. A mixed repeated-shape workload: 48 queries from 6 caller
    //    threads sharing the one `Service` (admission bounds what actually
    //    runs). Every fourth query only wants the cardinality —
    //    `execute_mode` keeps it on the same cached plan but ships zero
    //    result tuples back.
    const SHAPES: [PaperQuery; 3] = [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q7];
    let t0 = std::time::Instant::now();
    let counts: Vec<u64> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..6)
            .map(|t| {
                let service = &service;
                s.spawn(move || {
                    let mut last = 0;
                    for i in (t..48).step_by(6) {
                        let shape = SHAPES[i % 3];
                        let mode = if i % 4 == 3 { OutputMode::Count } else { OutputMode::Rows };
                        let out = service
                            .execute_mode(&format!("{shape:?}"), &paper_query(shape), mode)
                            .expect("every query succeeds");
                        // `count()` reads the cardinality whatever the mode.
                        last = out.output.count().unwrap();
                    }
                    last
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().expect("caller thread")).collect()
    });
    let wall = t0.elapsed().as_secs_f64();

    // Caller `t` only ever ran shape `t % 3`.
    for (label, count) in ["Q1", "Q4", "Q7"].iter().zip(&counts) {
        println!("{label}: {count} result tuples");
    }

    // 4. What serving bought us, straight from the registry.
    let stats = service.stats();
    println!("\nserved {} queries in {wall:.3}s wall", stats.metrics.queries_ok);
    println!(
        "plan cache: {} hits / {} misses ({:.0}% hit rate, {} entries)",
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.hit_rate() * 100.0,
        stats.cache.len
    );
    println!(
        "admission:  peak {} running, {} waiting (limit 3)",
        stats.admission.peak_running, stats.admission.peak_waiting
    );
    println!(
        "latency:    p50 {:.4}s  p99 {:.4}s  mean {:.4}s",
        stats.metrics.total.p50_secs, stats.metrics.total.p99_secs, stats.metrics.total.mean_secs
    );
    println!(
        "phases:     opt {:.4}s  comm {:.4}s  comp {:.4}s (means)",
        stats.metrics.optimization.mean_secs,
        stats.metrics.communication.mean_secs,
        stats.metrics.computation.mean_secs
    );
    println!(
        "modes:      {} rows + {} count; {} tuples found, {} returned",
        stats.metrics.by_mode.rows,
        stats.metrics.by_mode.count,
        stats.metrics.output_tuples,
        stats.metrics.output_tuples_returned
    );
    println!(
        "index:      {} hits / {} misses ({:.0}% hit rate), {} B resident, \
         {} relations reused vs {} built",
        stats.index.hits,
        stats.index.misses,
        stats.index.hit_rate() * 100.0,
        stats.index.resident_bytes,
        stats.metrics.index_relations_reused,
        stats.metrics.index_relations_built
    );

    // 5. The warm path in one picture: the same query served cold paid the
    //    shuffle + trie build; served again it joins over cached Arc<Trie>
    //    handles — index_build drops to ~0 and nothing is shuffled.
    let q1 = paper_query(PaperQuery::Q1);
    let t_warm = std::time::Instant::now();
    let warm = service.execute("Q1", &q1).expect("warm query");
    println!(
        "\nwarm Q1:    {:.4}s end-to-end ({} relations reused, {} tuple copies shuffled, \
         index_build {:.6}s)",
        t_warm.elapsed().as_secs_f64(),
        warm.report.index_relations_reused,
        warm.report.comm_tuples,
        warm.report.index_build_secs
    );

    // 6. Where did the time go? `EXPLAIN ANALYZE` runs the query with
    //    tracing forced and renders the plan tree with per-phase,
    //    per-worker, and per-trie-level actuals — no config change needed.
    let analyzed = service
        .explain_text("Q1", "EXPLAIN ANALYZE COUNT(R1(a,b), R2(b,c), R3(a,c))")
        .expect("explain analyze");
    println!("\n{analyzed}");
}
