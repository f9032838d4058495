//! Prepared statements in action: "triangles through vertex $v" prepared
//! once, bound per request — one cached plan and one warm index family
//! serving every vertex, with inline literals as the one-shot spelling.
//!
//! ```sh
//! cargo run --release --example prepared_params [scale]
//! ```

use adj::prelude::*;
use std::time::Instant;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.04);
    let triangle = paper_query(PaperQuery::Q1);
    let graph = Dataset::WB.graph(scale);
    println!("triangles over the WB stand-in: {} edges (scale {scale})\n", graph.len());

    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() },
        ..Default::default()
    });
    service.register_database("wb", triangle.instantiate(&graph));

    // Prepare once: $v is a bind-time parameter. The plan (and, after the
    // first execution, the shuffled index family) is shared by every
    // binding below.
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let prepared = service.prepare("wb", &q).unwrap();
    println!(
        "prepared {} with {} parameter(s): {:?}\n",
        q.name,
        prepared.params().len(),
        prepared.params().iter().map(|(n, _)| format!("${n}")).collect::<Vec<_>>(),
    );

    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>12}",
        "binding", "triangles", "comm tuples", "secs", "plan cache"
    );
    for v in [1u32, 7, 20, 33, 7] {
        let t0 = Instant::now();
        let out = service
            .execute_bound(&prepared, &Bindings::new().set("v", v), OutputMode::Count)
            .unwrap();
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "$v = {v:<5} {:>12?} {:>12} {secs:>10.4} {:>12}",
            out.output.count().unwrap(),
            out.report.comm_tuples,
            if out.cache_hit { "hit" } else { "miss" },
        );
    }

    // Inline literals are the one-shot spelling of the same thing — and
    // the same shape, so they hit the prepared plan too.
    let one_shot = service.execute_text("wb", "COUNT(R1(7,b), R2(b,c), R3(7,c))").unwrap();
    println!(
        "\nexecute_text(\"COUNT(R1(7,b), R2(b,c), R3(7,c))\") -> {:?} (cache_hit: {})",
        one_shot.output, one_shot.cache_hit
    );

    // A parse error points at the offending byte, not the whole string.
    let err = service.execute_text("wb", "R1($v,b), R2(b,!!)").unwrap_err();
    println!("malformed text -> {err}");

    let m = service.metrics();
    println!(
        "\nprepared statements: {} | params bound: {} | share programs solved: {}",
        m.queries_prepared, m.params_bound, m.share_solves
    );
    let stats = service.stats();
    println!(
        "plan cache: {:.1}% hits | index cache: {:.1}% hits",
        stats.cache.hit_rate() * 100.0,
        stats.index.hit_rate() * 100.0
    );
}
