//! `EXPLAIN` / `EXPLAIN ANALYZE` rendering: the chosen plan as an
//! indented text tree — hypertree bags, pre-compute set, attribute order,
//! the share vector the plan is priced under and each relation's
//! duplication under it — and, under `ANALYZE`, the measured
//! actuals folded in (per-phase seconds, the plan's communication cost,
//! cache hits, per-trie-level operation counts, per-worker morsels,
//! bindings and span times).
//!
//! The output is line-oriented `key=value` text, stable enough for tests
//! to grep and humans to read; it is not a machine interface (the JSON
//! emitters in [`crate::json`] are).

use adj_core::{ExecutionReport, QueryPlan, Strategy};
use adj_hcube::share::dup_factor;
use adj_query::{ExplainMode, Term};
use adj_relational::{Attr, OutputMode};
use adj_trace::Trace;
use std::fmt::Write as _;

/// Renders a plan (and, for [`ExplainMode::Analyze`], its measured
/// actuals) as an indented text tree. `attr_names` maps attribute ids to
/// the submitted query's variable names; ids past its end print as `_<id>`.
pub fn render(
    plan: &QueryPlan,
    attr_names: &[String],
    db_name: &str,
    strategy: Strategy,
    mode: OutputMode,
    explain: ExplainMode,
    actuals: Option<(&ExecutionReport, &Trace)>,
) -> String {
    let name_of = |a: Attr| -> String {
        attr_names.get(a.0 as usize).cloned().unwrap_or_else(|| format!("_{}", a.0))
    };
    let mut out = String::new();
    let verb = match explain {
        ExplainMode::Plan => "EXPLAIN",
        ExplainMode::Analyze => "EXPLAIN ANALYZE",
    };
    let _ = writeln!(out, "{verb} mode={mode:?} db={db_name} strategy={strategy:?}");
    let share: Vec<String> = plan
        .share
        .iter()
        .enumerate()
        .map(|(a, p)| format!("{}={p}", name_of(Attr(a as u32))))
        .collect();
    let _ = writeln!(
        out,
        "plan: fhw={:.2} estimated_cost_secs={:.6} optimization_secs={:.6} share={{{}}}",
        plan.tree.fhw,
        plan.estimated_cost_secs,
        plan.optimization_secs,
        share.join(",")
    );
    let searched: Vec<String> =
        plan.optimizer.args().iter().map(|(name, value)| format!("{name}={value}")).collect();
    let _ = writeln!(out, "optimizer: {}", searched.join(" "));
    let order: Vec<String> = plan.order.iter().map(|&a| name_of(a)).collect();
    let _ = writeln!(out, "attribute order: {}", order.join(", "));

    // The hypertree, indented by depth (root at indent 1). `parent`
    // pointers always lead to lower indices, so depth resolves in one pass.
    let _ = writeln!(out, "hypertree:");
    let mut depth = vec![0usize; plan.tree.nodes.len()];
    for (i, node) in plan.tree.nodes.iter().enumerate() {
        depth[i] = node.parent.map_or(0, |p| depth[p] + 1);
        let attrs: Vec<String> = node.attrs().into_iter().map(name_of).collect();
        let atoms: Vec<&str> =
            node.edge_indices().iter().map(|&e| plan.query.atoms[e].name.as_str()).collect();
        let tag = if plan.precompute.contains(&i) { " precompute" } else { "" };
        let _ = writeln!(
            out,
            "{}bag {i}: chi={{{}}} lambda={{{}}} rho={:.2}{tag}",
            "  ".repeat(depth[i] + 1),
            attrs.join(","),
            atoms.join(","),
            node.rho,
        );
    }

    // The rewritten query the final shuffle moves and Leapfrog joins, each
    // relation with the copies the share makes of its tuples.
    let _ = writeln!(out, "shuffle relations:");
    for rel in &plan.relations {
        let schema = rel.schema(&plan.query);
        let dup = dup_factor(&plan.share, schema.mask());
        let schema: Vec<String> = schema.attrs().iter().map(|&a| name_of(a)).collect();
        match rel {
            adj_core::PlanRelation::Base(ai) => {
                let atom = &plan.query.atoms[*ai];
                let terms: Vec<String> = atom
                    .terms
                    .iter()
                    .zip(atom.schema.attrs())
                    .map(|(t, &a)| match t {
                        Term::Var(_) => name_of(a),
                        Term::Const(v) => v.to_string(),
                        Term::Param(p) => format!("${p}"),
                    })
                    .collect();
                let _ = writeln!(out, "  {}({}) kind=base dup={dup}", atom.name, terms.join(","));
            }
            adj_core::PlanRelation::Precomputed { node, name, atoms, .. } => {
                let joined: Vec<&str> =
                    atoms.iter().map(|&e| plan.query.atoms[e].name.as_str()).collect();
                let _ = writeln!(
                    out,
                    "  {name}({}) kind=precomputed bag={node} joins={{{}}} dup={dup}",
                    schema.join(","),
                    joined.join(","),
                );
            }
        }
    }

    // An unbound count whose relations split is counted bag by bag.
    if mode == OutputMode::Count && !plan.query.has_bound_terms() {
        if let Some(split) = plan.count_split() {
            let _ = writeln!(out, "{}", split.describe(name_of));
        }
    }

    let Some((report, trace)) = actuals else { return out };

    let _ = writeln!(out, "actuals:");
    let _ = writeln!(
        out,
        "  phases: optimization={:.6} precompute={:.6} communication={:.6} \
         computation={:.6} other={:.6} total={:.6}",
        report.optimization_secs,
        report.precompute_secs,
        report.communication_secs,
        report.computation_secs,
        report.other_secs,
        report.total_secs(),
    );
    let _ = writeln!(
        out,
        "  shuffle: comm_tuples={} precompute_tuples={} index_built={} index_reused={}",
        report.comm_tuples,
        report.precompute_tuples,
        report.index_relations_built,
        report.index_relations_reused,
    );
    // Per worker: the morsels of the driver it claimed (off its `join`
    // span; lane `w + 1` is worker `w`) and the bindings it produced.
    let mut morsels: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for e in trace.events.iter().filter(|e| e.name == "join" && e.lane > 0) {
        *morsels.entry(e.lane).or_insert(0) += e.args.get("morsels").unwrap_or(0);
    }
    if !report.worker_tuples.is_empty() {
        let per: Vec<String> = (report.worker_tuples.iter().enumerate())
            .map(|(w, b)| {
                let m = morsels.get(&(w as u32 + 1)).copied().unwrap_or(0);
                format!("w{w}=morsels:{m},bindings:{b}")
            })
            .collect();
        let _ = writeln!(
            out,
            "  per worker: {} max_bindings={}",
            per.join(" "),
            report.max_partition_tuples()
        );
    }

    // Per-trie-level Leapfrog actuals, labelled by the attribute each
    // level binds.
    let c = &report.counters;
    let levels = plan.order.len().max(c.tuples_per_level.len()).max(c.stats.seeks_per_level.len());
    for level in 0..levels {
        let attr =
            plan.order.get(level).map(|&a| name_of(a)).unwrap_or_else(|| format!("_{level}"));
        let _ = writeln!(
            out,
            "  level {level} ({attr}): tuples={} seeks={} opens={} open_ats={} probes={}",
            c.tuples_per_level.get(level).copied().unwrap_or(0),
            c.stats.seeks_per_level.get(level).copied().unwrap_or(0),
            c.stats.opens_per_level.get(level).copied().unwrap_or(0),
            c.stats.open_ats_per_level.get(level).copied().unwrap_or(0),
            c.stats.probes_per_level.get(level).copied().unwrap_or(0),
        );
    }
    let _ = writeln!(
        out,
        "  output: tuples={} intersect_ops={} table_builds={} table_bytes_allocated={}",
        report.output_tuples, c.intersect_ops, c.stats.table_builds, c.stats.table_bytes
    );

    // Straggler telemetry: each worker's final-join span time, off the
    // trace's worker lanes (lane `w + 1` is worker `w`), and a spawned
    // worker's lag from its dispatch to its first instruction.
    let mut per_lane: std::collections::BTreeMap<u32, (u64, Option<u64>)> =
        std::collections::BTreeMap::new();
    for e in trace.events.iter().filter(|e| e.name == "join" && e.lane > 0) {
        let (us, lag) = per_lane.entry(e.lane).or_insert((0, None));
        *us += e.dur_us;
        if let Some(l) = e.args.get("start_lag_us") {
            *lag = Some(lag.unwrap_or(0) + l);
        }
    }
    if !per_lane.is_empty() {
        let max_us = per_lane.values().map(|p| p.0).max().unwrap_or(0);
        let min_us = per_lane.values().map(|p| p.0).min().unwrap_or(0);
        let joins: Vec<String> = (per_lane.iter())
            .map(|(lane, (us, lag))| match lag {
                Some(lag) => format!("w{}={us}us(start_lag={lag}us)", lane - 1),
                None => format!("w{}={us}us", lane - 1),
            })
            .collect();
        let _ = writeln!(
            out,
            "  worker join spans: {} straggler_spread_us={}",
            joins.join(" "),
            max_us.saturating_sub(min_us)
        );
    }
    let _ =
        writeln!(out, "  trace: events={} dropped={}", trace.events.len(), trace.events_dropped);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_core::Adj;
    use adj_query::{paper_query, parse_query, PaperQuery};
    use adj_relational::Relation;

    #[test]
    fn renders_plan_tree_without_actuals() {
        let (q, names) = parse_query("Q(a,b,c) :- R1(a,b), R2(b,c), R3(a,c)").unwrap();
        let g = Relation::from_pairs(Attr(0), Attr(1), &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let db = paper_query(PaperQuery::Q1).instantiate(&g);
        let adj = Adj::with_workers(2);
        let plan = adj.plan(&q, &db, Strategy::CoOptimize).unwrap();
        let text = render(
            &plan,
            &names,
            "toy",
            Strategy::CoOptimize,
            OutputMode::Rows,
            ExplainMode::Plan,
            None,
        );
        assert!(text.starts_with("EXPLAIN mode=Rows db=toy strategy=CoOptimize"));
        assert!(text.contains("optimizer: subjoins_sampled=1 sample_extensions="), "{text}");
        assert!(
            text.contains(" tries_built=2 tries_cached=0 tries_reused=0 share_solves="),
            "{text}"
        );
        assert!(text.contains("attribute order: "));
        assert!(text.contains("hypertree:"));
        assert!(text.contains("bag 0:"));
        assert!(text.contains("shuffle relations:"));
        assert!(text.contains("kind=base"), "base atoms listed: {text}");
        assert!(!text.contains("actuals:"), "no actuals without ANALYZE");
        // attribute names come from the submitted text, not raw ids
        assert!(text.contains("chi={a,b,c}"), "{text}");
        assert!(!text.contains("counted"), "a triangle does not split: {text}");
    }

    #[test]
    fn a_split_count_names_its_bags() {
        let text = "R1(a,b), R2(b,c), R3(c,d), R4(d,a)";
        let (q, names) = parse_query(text).unwrap();
        let g = Relation::from_pairs(Attr(0), Attr(1), &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let db = paper_query(PaperQuery::Q8).instantiate(&g);
        // Communication-first plans pre-compute no bag.
        let plan = Adj::with_workers(2).plan(&q, &db, Strategy::CommFirst).unwrap();
        assert_eq!(plan.order, [Attr(0), Attr(1), Attr(2), Attr(3)]);
        let explain =
            |mode| render(&plan, &names, "g", Strategy::CommFirst, mode, ExplainMode::Plan, None);
        let counted = explain(OutputMode::Count);
        assert!(counted.contains("\ncounted {a,b,c} ⊗ {a,c,d} on {a,c}\n"), "{counted}");
        assert!(!explain(OutputMode::Rows).contains("counted"), "rows are enumerated");
    }

    #[test]
    fn each_relation_prints_its_duplication_under_the_plan_share() {
        let g = Relation::from_pairs(
            Attr(0),
            Attr(1),
            &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 0), (1, 3), (2, 0)],
        );
        let shapes = [
            ("R1(a,b), R2(b,c), R3(a,c)", PaperQuery::Q1),
            ("R1(a,b), R2(b,c), R3(c,d), R4(d,a)", PaperQuery::Q8),
        ];
        for (text, shape) in shapes {
            let (q, names) = parse_query(text).unwrap();
            let db = paper_query(shape).instantiate(&g);
            for strategy in [Strategy::CoOptimize, Strategy::CommFirst] {
                let plan = Adj::with_workers(2).plan(&q, &db, strategy).unwrap();
                let explain = ExplainMode::Plan;
                let out = render(&plan, &names, "g", strategy, OutputMode::Rows, explain, None);
                // The plan line names the share by attribute.
                let share: Vec<String> =
                    plan.share.iter().zip(&names).map(|(p, n)| format!("{n}={p}")).collect();
                assert!(out.contains(&format!(" share={{{}}}\n", share.join(","))), "{out}");
                // Each relation line carries its duplication under it.
                let dups: Vec<u64> = (out.lines().filter_map(|l| l.split(" dup=").nth(1)))
                    .map(|d| d.parse().unwrap())
                    .collect();
                let want: Vec<u64> = (plan.relations.iter())
                    .map(|r| dup_factor(&plan.share, r.schema(&plan.query).mask()))
                    .collect();
                assert_eq!(dups, want, "{out}");
                assert!(want.iter().any(|&d| d > 1), "two workers copy some relation: {out}");
            }
        }
    }
}
