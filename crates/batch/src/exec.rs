//! [`execute_plan_batch`]: one shared shuffle, many bound joins.

use crate::BindingBatch;
use adj_cluster::Cluster;
use adj_core::{
    cancel_err, merge_plan_consts, prepare_plan_locals, shape_output, AdjConfig, CancelSink,
    ExecCtx, ExecutionReport, QueryPlan,
};
use adj_faults::FaultSite;
use adj_leapfrog::{BatchedLeapfrog, JoinCounters, JoinScratch};
use adj_relational::relation::merge_sorted_runs;
use adj_relational::{
    Attr, BoundValues, CountSink, Database, Error, ExistsSink, OutputMode, QueryOutput, Result,
    RowBuffer, RowSink, Trie, Value,
};
use adj_trace::COORDINATOR_LANE;
use std::sync::Arc;
use std::time::Instant;

/// One executed driver slot's payload, as shipped back by a worker.
enum SlotData {
    /// Flat row data (`Rows`/`Limit` modes).
    Rows(Vec<Value>),
    /// This worker's local cardinality (`Count` mode; 0 or 1 under
    /// `Exists`, for "found a witness").
    Found(u64),
}

/// Per-driver-slot gather accumulator.
#[derive(Default)]
struct SlotAcc {
    /// Each worker's sorted rows for the slot, merged once all arrived.
    runs: Vec<Vec<Value>>,
    found: u64,
    err: Option<Error>,
}

/// Executes every binding of `batch` against one prepared plan, sharing
/// the expensive phases across the whole batch:
///
/// * **one** bag pre-computation pass and **one** final HCube shuffle via
///   [`prepare_plan_locals`] — binding-independent, so the whole batch joins
///   over the same warm tries a single bound call or the unbound query
///   would;
/// * each worker drives a [`BatchedLeapfrog`] over its local tries: the
///   batch's distinct bound rows are visited in sorted order with
///   forward-galloping cursor reuse on the bound prefix of the order;
/// * results demultiplex per *submission*: duplicate bindings execute once
///   and their output is cloned back to every submission slot.
///
/// Returns one `Result<QueryOutput>` per submission, **aligned with the
/// original submission order**, plus the batch's aggregate cost report.
/// The outer `Err` is a whole-batch failure (planning-level: unbound
/// parameter, conflicting constants, shuffle failure, worker panic); the
/// inner per-binding errors carry partial-batch outcomes — on a mid-batch
/// deadline or cancel, bindings that completed keep their results and the
/// rest observe [`Error::Cancelled`].
///
/// Results are byte-identical to looping the single-binding bound executor
/// over the submissions — the same locals, one Leapfrog seek sequence per
/// binding instead of one shared forward pass — and per-worker `Limit`
/// sampling keeps its canonical smallest-rows semantics.
pub fn execute_plan_batch(
    cluster: &Cluster,
    db: &Database,
    plan: &QueryPlan,
    config: &AdjConfig,
    mode: OutputMode,
    batch: &BindingBatch,
    ctx: &ExecCtx<'_>,
) -> Result<(Vec<Result<QueryOutput>>, ExecutionReport)> {
    let t_exec = Instant::now();
    let (cancel, tracer) = (&ctx.cancel, &ctx.tracer);
    let mut report = ExecutionReport::default();
    if batch.is_empty() {
        return Ok((Vec::new(), report));
    }

    // Resolve each unique binding's full constant set: the submission's
    // values take priority, the plan's inline literals fill the rest —
    // exactly the single-binding executor's merge discipline.
    let consts = plan.query.const_bindings()?;
    let merged: Vec<BoundValues> =
        batch.unique().iter().map(|b| merge_plan_consts(&consts, b)).collect::<Result<_>>()?;
    // Every bound position of the shape must have a value. The batch's
    // attribute set is uniform across submissions (BindingBatch enforces
    // it), so an unbound parameter is an all-or-nothing, whole-batch error.
    plan.query.require_params_bound(&merged[0])?;
    report.bound_values = merged[0].len() as u64;

    // `LIMIT 0` is a complete answer for every binding by definition.
    if mode == OutputMode::Limit(0) {
        let empty = shape_output(mode, &plan.order, Vec::new(), 0);
        report.close(t_exec);
        return Ok((vec![empty; batch.len()], report));
    }

    // One shuffle for the whole batch: the locals are the same warm,
    // cacheable tries the unbound query and every single bound call use —
    // and the next batch of the same shape reuses them wholesale.
    let locals = prepare_plan_locals(cluster, db, plan, config, &mut report, ctx)?;

    // Project each unique binding onto the plan's attribute order. Bound
    // attributes outside the order are ignored, like the single-binding
    // path does (they touch no relation of this plan). Distinct bindings
    // can collapse onto one *driver row* here (e.g. they differed only in
    // an ignored attribute), so the rows deduplicate once more.
    let bound_attrs: Vec<Attr> =
        plan.order.iter().copied().filter(|&a| merged[0].get(a).is_some()).collect();
    let mut keyed: Vec<(Vec<Value>, usize)> = merged
        .iter()
        .enumerate()
        .map(|(j, m)| (bound_attrs.iter().map(|&a| m.get(a).unwrap()).collect(), j))
        .collect();
    keyed.sort();
    let mut driver_rows: Vec<Vec<Value>> = Vec::new();
    let mut row_of_unique = vec![0usize; merged.len()];
    for (row, j) in keyed {
        if driver_rows.last() != Some(&row) {
            driver_rows.push(row);
        }
        row_of_unique[j] = driver_rows.len() - 1;
    }

    let budget = config.max_intermediate_tuples;
    let order = &plan.order;
    let width = order.len();
    let n_slots = driver_rows.len();
    let driver_rows_ref = &driver_rows;
    let bound_attrs_ref = &bound_attrs;
    let computation_span = tracer.span(COORDINATOR_LANE, "computation");
    let run = cluster.run_traced(
        tracer,
        "batch_join",
        |w, span| -> Result<(Vec<Result<SlotData>>, JoinCounters, usize)> {
            // At least one fault/cancellation checkpoint per worker, then
            // one per `SINK_CHECK_EVERY` emitted rows inside the sinks and
            // one per binding in the driver's stop hook.
            adj_faults::inject(FaultSite::JoinEnumerate, cancel);
            cancel.check().map_err(cancel_err)?;
            let tries: Vec<Arc<Trie>> = locals[w].iter().map(|l| Arc::clone(&l.trie)).collect();
            let driver = BatchedLeapfrog::new(order, tries, bound_attrs_ref)?;
            let mut scratch = JoinScratch::new();
            let mut stop = || cancel.check().is_err();
            let (slots, counters, completed) = match mode {
                OutputMode::Rows | OutputMode::Limit(_) => {
                    let mut sinks: Vec<CancelSink<'_, RowBuffer>> = (0..n_slots)
                        .map(|_| {
                            let mut inner = RowBuffer::new(width).with_budget(budget);
                            if let OutputMode::Limit(n) = mode {
                                inner = inner.with_limit(n);
                            }
                            CancelSink::new(inner, cancel)
                        })
                        .collect();
                    let mut refs: Vec<&mut dyn RowSink> =
                        sinks.iter_mut().map(|s| s as &mut dyn RowSink).collect();
                    let outcome =
                        driver.run_batch(driver_rows_ref, &mut refs, &mut scratch, &mut stop);
                    let slots: Vec<Result<SlotData>> = sinks
                        .into_iter()
                        .take(outcome.completed)
                        .map(|s| {
                            let inner = s.into_inner();
                            if inner.over_budget() {
                                Err(Error::BudgetExceeded {
                                    what: "join output tuples",
                                    limit: budget,
                                })
                            } else {
                                Ok(SlotData::Rows(inner.into_flat()))
                            }
                        })
                        .collect();
                    (slots, outcome.counters, outcome.completed)
                }
                OutputMode::Count => {
                    let mut sinks: Vec<CancelSink<'_, CountSink>> =
                        (0..n_slots).map(|_| CancelSink::new(CountSink::new(), cancel)).collect();
                    let mut refs: Vec<&mut dyn RowSink> =
                        sinks.iter_mut().map(|s| s as &mut dyn RowSink).collect();
                    let outcome =
                        driver.run_batch(driver_rows_ref, &mut refs, &mut scratch, &mut stop);
                    let slots: Vec<Result<SlotData>> = sinks
                        .into_iter()
                        .take(outcome.completed)
                        .map(|s| Ok(SlotData::Found(s.into_inner().count())))
                        .collect();
                    (slots, outcome.counters, outcome.completed)
                }
                OutputMode::Exists => {
                    let mut sinks: Vec<CancelSink<'_, ExistsSink>> =
                        (0..n_slots).map(|_| CancelSink::new(ExistsSink::new(), cancel)).collect();
                    let mut refs: Vec<&mut dyn RowSink> =
                        sinks.iter_mut().map(|s| s as &mut dyn RowSink).collect();
                    let outcome =
                        driver.run_batch(driver_rows_ref, &mut refs, &mut scratch, &mut stop);
                    let slots: Vec<Result<SlotData>> = sinks
                        .into_iter()
                        .take(outcome.completed)
                        .map(|s| Ok(SlotData::Found(u64::from(s.into_inner().found()))))
                        .collect();
                    (slots, outcome.counters, outcome.completed)
                }
            };
            if span.is_recording() {
                span.arg("bindings_completed", completed as u64);
                span.arg("output_tuples", counters.output_tuples);
                span.arg("seeks", counters.stats.total_seeks());
                span.arg("probes", counters.stats.total_probes());
            }
            Ok((slots, counters, completed))
        },
    );
    report.computation_secs = run.makespan_secs;
    drop(computation_span);

    // Gather: merge counters, accumulate per-slot payloads, and take the
    // *minimum* completion watermark across workers — a binding's result is
    // complete only when every worker enumerated its partition of it.
    let mut gather_span = tracer.span(COORDINATOR_LANE, "gather");
    let mut counters = JoinCounters::new(width);
    let mut completed_global = n_slots;
    let mut accs: Vec<SlotAcc> = (0..n_slots).map(|_| SlotAcc::default()).collect();
    for r in run.results {
        // Outer layer: panic isolation; inner layer: the worker's own
        // typed result. Either one fails the whole batch — a lost worker
        // means every binding's partition is incomplete.
        let (slots, c, completed) = r.map_err(Error::from)??;
        counters.merge(&c);
        completed_global = completed_global.min(completed);
        for (acc, slot) in accs.iter_mut().zip(slots) {
            match slot {
                Ok(SlotData::Rows(rows)) => acc.runs.push(rows),
                Ok(SlotData::Found(n)) => acc.found += n,
                Err(e) => {
                    acc.err.get_or_insert(e);
                }
            }
        }
    }

    // A slot past the watermark was cancelled mid-batch; surface the
    // token's own verdict (deadline vs explicit cancel) on each.
    let cancel_error = cancel
        .check()
        .err()
        .map(cancel_err)
        .unwrap_or(Error::Cancelled { deadline_exceeded: false });
    let mut slot_outputs: Vec<Result<QueryOutput>> = Vec::with_capacity(n_slots);
    for (i, acc) in accs.into_iter().enumerate() {
        if i >= completed_global {
            slot_outputs.push(Err(cancel_error.clone()));
            continue;
        }
        if let Some(e) = acc.err {
            slot_outputs.push(Err(e));
            continue;
        }
        let rows = merge_sorted_runs(acc.runs, width);
        slot_outputs.push(Ok(shape_output(mode, order, rows, acc.found)?));
    }
    if gather_span.is_recording() {
        gather_span.arg("bindings", batch.len() as u64);
        gather_span.arg("unique_bindings", n_slots as u64);
        gather_span.arg("bindings_completed", completed_global as u64);
        gather_span.arg("output_tuples", counters.output_tuples);
    }
    drop(gather_span);
    report.output_tuples = counters.output_tuples;
    report.counters = counters;

    // Demultiplex driver slots back onto submissions: submission → unique
    // binding → driver row.
    let outputs: Vec<Result<QueryOutput>> =
        batch.slot_of().iter().map(|&u| slot_outputs[row_of_unique[u]].clone()).collect();

    report.close(t_exec);
    Ok((outputs, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_core::{execute_plan, optimize, Adj, CancelToken, Strategy};
    use adj_query::parse_query;
    use adj_relational::Attr;
    use adj_relational::Relation;

    fn graph(n: u32, m: u32) -> Relation {
        let edges: Vec<(Value, Value)> = (0..n)
            .flat_map(|i| vec![(i % m, (i * 7 + 1) % m), ((i * 3) % m, (i * 11 + 5) % m)])
            .collect();
        Relation::from_pairs(Attr(0), Attr(1), &edges)
    }

    /// Triangle with parameterized apex: `$v` binds attribute 0.
    fn setup() -> (Adj, adj_relational::Database, QueryPlan) {
        let (q, _) = parse_query("R1($v, b), R2(b, c), R3(c, $v)").unwrap();
        let db = q.instantiate(&graph(300, 37));
        let adj = Adj::with_workers(4);
        let plan = optimize(&q, &db, adj.config(), Strategy::CoOptimize).unwrap();
        (adj, db, plan)
    }

    fn param_attr(plan: &QueryPlan) -> Attr {
        plan.query.param_attrs()[0].1
    }

    #[test]
    fn batch_matches_looped_bound_execution() {
        let (adj, db, plan) = setup();
        let attr = param_attr(&plan);
        let values: Vec<Value> = (0..37).map(|i| (i * 13 + 5) % 37).collect();
        let batch = BindingBatch::new(
            values.iter().map(|&v| BoundValues::new(vec![(attr, v)]).unwrap()).collect(),
        )
        .unwrap();
        for mode in [OutputMode::Rows, OutputMode::Count, OutputMode::Exists, OutputMode::Limit(3)]
        {
            let (outs, _) = execute_plan_batch(
                adj.cluster(),
                &db,
                &plan,
                adj.config(),
                mode,
                &batch,
                &ExecCtx::default(),
            )
            .unwrap();
            assert_eq!(outs.len(), values.len());
            for (&v, out) in values.iter().zip(&outs) {
                let bound = BoundValues::new(vec![(attr, v)]).unwrap();
                let (expect, _) = execute_plan(
                    adj.cluster(),
                    &db,
                    &plan,
                    adj.config(),
                    mode,
                    &bound,
                    &ExecCtx::default(),
                )
                .unwrap();
                assert_eq!(
                    out.as_ref().unwrap(),
                    &expect,
                    "binding {v} under {mode:?} must match the single-binding path"
                );
            }
        }
    }

    #[test]
    fn duplicate_submissions_share_one_execution() {
        let (adj, db, plan) = setup();
        let attr = param_attr(&plan);
        let bv = |v| BoundValues::new(vec![(attr, v)]).unwrap();
        let batch = BindingBatch::new(vec![bv(5), bv(9), bv(5), bv(5)]).unwrap();
        assert_eq!(batch.unique_len(), 2);
        let (outs, _) = execute_plan_batch(
            adj.cluster(),
            &db,
            &plan,
            adj.config(),
            OutputMode::Count,
            &batch,
            &ExecCtx::default(),
        )
        .unwrap();
        assert_eq!(outs.len(), 4);
        assert_eq!(outs[0].as_ref().unwrap(), outs[2].as_ref().unwrap());
        assert_eq!(outs[0].as_ref().unwrap(), outs[3].as_ref().unwrap());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (adj, db, plan) = setup();
        let batch = BindingBatch::new(Vec::new()).unwrap();
        let (outs, report) = execute_plan_batch(
            adj.cluster(),
            &db,
            &plan,
            adj.config(),
            OutputMode::Rows,
            &batch,
            &ExecCtx::default(),
        )
        .unwrap();
        assert!(outs.is_empty());
        assert_eq!(report.comm_tuples, 0);
    }

    #[test]
    fn unbound_param_fails_the_whole_batch() {
        let (adj, db, plan) = setup();
        let batch = BindingBatch::new(vec![BoundValues::none()]).unwrap();
        let err = execute_plan_batch(
            adj.cluster(),
            &db,
            &plan,
            adj.config(),
            OutputMode::Count,
            &batch,
            &ExecCtx::default(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::UnboundParam { .. }));
    }

    #[test]
    fn pre_fired_cancel_yields_per_binding_errors() {
        let (adj, db, plan) = setup();
        let attr = param_attr(&plan);
        let batch =
            BindingBatch::new((0..8).map(|v| BoundValues::new(vec![(attr, v)]).unwrap()).collect())
                .unwrap();
        let cancel = CancelToken::manual();
        cancel.cancel();
        let ctx = ExecCtx { cancel, ..Default::default() };
        let result = execute_plan_batch(
            adj.cluster(),
            &db,
            &plan,
            adj.config(),
            OutputMode::Count,
            &batch,
            &ctx,
        );
        // The token can fire the batch-level shuffle (whole-batch error) —
        // but if execution reaches the join, every binding must carry a
        // typed per-binding cancellation.
        match result {
            Err(e) => assert!(matches!(e, Error::Cancelled { .. })),
            Ok((outs, _)) => {
                assert!(outs.iter().all(|o| matches!(o, Err(Error::Cancelled { .. }))));
            }
        }
    }
}
