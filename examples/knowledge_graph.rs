//! A heterogeneous (non-subgraph) workload: a tiny knowledge-graph join,
//! showing the public API on relations with *different* contents and
//! arities — the "querying knowledge graph" application of the paper's
//! introduction.
//!
//! Query: find (user, group, event, city) where the user belongs to the
//! group, the group hosts the event, the event takes place in the city, and
//! the user lives in that same city — a 4-cycle across four typed relations.
//!
//! ```sh
//! cargo run --release --example knowledge_graph
//! ```

use adj::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // Attributes: u = user(0), g = group(1), e = event(2), c = city(3).
    let (u, g, e, c) = (Attr(0), Attr(1), Attr(2), Attr(3));
    let mut rng = StdRng::seed_from_u64(7);
    let users = 3000u32;
    let groups = 150u32;
    let events = 400u32;
    let cities = 40u32;

    // member(u, g), hosts(g, e), located(e, c), lives(u, c)
    let member: Vec<(Value, Value)> = (0..users)
        .flat_map(|x| (0..3).map(move |_| (x, 0)).collect::<Vec<_>>())
        .map(|(x, _)| (x, rng.gen_range(0..groups)))
        .collect();
    let mut rng2 = StdRng::seed_from_u64(8);
    let hosts: Vec<(Value, Value)> =
        (0..events).map(|ev| (rng2.gen_range(0..groups), ev)).collect();
    let located: Vec<(Value, Value)> =
        (0..events).map(|ev| (ev, rng2.gen_range(0..cities))).collect();
    let lives: Vec<(Value, Value)> = (0..users).map(|x| (x, rng2.gen_range(0..cities))).collect();

    let query = JoinQuery::new(
        "Reachable",
        vec![
            Atom::new("member", Schema::new(vec![u, g]).unwrap()),
            Atom::new("hosts", Schema::new(vec![g, e]).unwrap()),
            Atom::new("located", Schema::new(vec![e, c]).unwrap()),
            Atom::new("lives", Schema::new(vec![u, c]).unwrap()),
        ],
    );
    let mut db = Database::new();
    db.insert("member", Relation::from_pairs(u, g, &member));
    db.insert("hosts", Relation::from_pairs(g, e, &hosts));
    db.insert("located", Relation::from_pairs(e, c, &located));
    db.insert("lives", Relation::from_pairs(u, c, &lives));

    println!("query: {query}");
    for (name, rel) in db.iter() {
        println!("  {name}{}: {} tuples", rel.schema(), rel.len());
    }

    // Estimate the cardinality first (what ADJ's optimizer does internally).
    let order = query.attrs();
    let sampler = Sampler::new(&db, &query, &order).unwrap();
    let est = sampler.estimate(&SamplingConfig { samples: 2000, seed: 1 }).unwrap();
    println!("\nsampling estimate: ~{:.0} results (|val(user)| = {})", est.cardinality, est.val_a);

    // Run both strategies.
    let adj = Adj::with_workers(4);
    for (label, strategy) in
        [("co-optimization", Strategy::CoOptimize), ("comm-first", Strategy::CommFirst)]
    {
        let out = adj.execute_with(&query, &db, strategy, OutputMode::Rows).unwrap();
        println!(
            "{label:>16}: {} results, total {:.4}s (pre {:.4}s, comm {:.4}s, comp {:.4}s)",
            out.rows().len(),
            out.report.total_secs(),
            out.report.precompute_secs,
            out.report.communication_secs,
            out.report.computation_secs,
        );
    }
}
