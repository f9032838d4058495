//! The three HCube shuffle implementations compared in Fig. 9.
//!
//! * **Push** — the original map/reduce formulation: every tuple copy is an
//!   individual message to each destination worker. Payload is the same as
//!   Pull's, but the per-message overhead is paid once *per delivered tuple
//!   copy*, which is what makes it orders of magnitude slower.
//! * **Pull** — the paper's optimized implementation (Sec. V): tuples are
//!   grouped into *blocks* keyed by their HCube hash signature, and each
//!   worker pulls whole blocks; per-message overhead is paid per block.
//! * **Merge** — Pull plus per-block pre-building: each block is stored
//!   pre-permuted into the Leapfrog attribute order and pre-sorted, so a
//!   worker assembles its local trie by a k-way *merge* of sorted runs
//!   instead of a full sort, and blocks serialize more cheaply (the paper's
//!   "three arrays" observation) — modeled as a 0.5× per-message overhead.
//!
//! All three produce byte-identical local tries; only their costs differ.
//!
//! [`hcube_shuffle`] is the paper's routed round, kept for what measures
//! it: the baselines, the figure binaries and the benchmark's per-layer
//! replay. Serving never routes — its workers share one trie per relation
//! ([`index_round`](crate::index_round)) — so the shuffle consults no index
//! cache.

use crate::plan::HCubePlan;
use crate::round::{checkpoint, RoundAtom, RoundLayout, CANCEL_CHECK_EVERY};
use adj_cluster::{BatchPayload, Cluster, RoutedBatch};
use adj_faults::{CancelToken, FaultSite};
use adj_relational::{Attr, Database, Error, Relation, Result, Trie, Value};
use adj_trace::{Tracer, COORDINATOR_LANE};
use std::sync::Arc;
use std::time::Instant;

/// Which shuffle implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HCubeImpl {
    /// Tuple-at-a-time shuffle (the original HCube implementation).
    Push,
    /// Block pull (optimized, Sec. V).
    Pull,
    /// Block pull with pre-built sorted blocks (optimized + trie pre-build).
    Merge,
}

impl HCubeImpl {
    /// All three implementations, for sweeps.
    pub const ALL: [HCubeImpl; 3] = [HCubeImpl::Push, HCubeImpl::Pull, HCubeImpl::Merge];

    /// Display name matching the paper's Fig. 9 legend.
    pub fn name(self) -> &'static str {
        match self {
            HCubeImpl::Push => "Push",
            HCubeImpl::Pull => "Pull",
            HCubeImpl::Merge => "Merge",
        }
    }
}

/// One relation as materialized on a worker after the shuffle: a trie of its
/// fragment in the query's (induced) attribute order.
#[derive(Debug, Clone)]
pub struct LocalRelation {
    /// The atom / relation name.
    pub name: String,
    /// Local fragment, indexed as a trie.
    pub trie: Arc<Trie>,
}

/// Cost breakdown of one shuffle, or of one [`index_round`](crate::index_round)
/// (which routes nothing: its per-worker fill, messages and wire bytes stay
/// empty).
#[derive(Debug, Clone, Default)]
pub struct ShuffleReport {
    /// Delivered tuple copies (`Σ_R |R|·dup(R,p)`); for an index round, what
    /// the plan's share would deliver for the relations it built (cache
    /// hits contribute nothing here).
    pub tuples: u64,
    /// Delivered tuple copies per worker — the partition-fill vector the
    /// skew stats (max/mean fill) are computed from. Empty on a fully warm
    /// shuffle (nothing moved).
    pub worker_tuples: Vec<u64>,
    /// Transfer units (tuple copies for Push; blocks for Pull/Merge).
    pub messages: u64,
    /// Encoded frame bytes that crossed the wire — real serialized bytes on
    /// the [`TransportKind::Serialized`](adj_cluster::TransportKind)
    /// backend, 0 on the zero-copy in-process backend and on warm shuffles.
    pub wire_bytes: u64,
    /// Modeled communication seconds (α model + per-message overhead).
    pub comm_secs: f64,
    /// Measured makespan of the local build phase over the *cold*
    /// relations: for a shuffle, each worker's inbox drain (frame decoding
    /// included) and its sort + trie builds (merge + trie build for Merge);
    /// 0 when every relation was served from the index cache.
    pub build_secs: f64,
    /// Measured seconds spent pre-building blocks (Merge only; happens once
    /// per stored relation, before query time).
    pub preprocess_secs: f64,
    /// Relations whose indexes were built.
    pub built_relations: u64,
    /// Relations served from the index cache (no build).
    pub reused_relations: u64,
}

impl ShuffleReport {
    /// Modeled communication plus measured build: the round routes every
    /// relation before any worker builds, so the two phases add up.
    pub fn comm_and_build_secs(&self) -> f64 {
        self.comm_secs + self.build_secs
    }
}

/// The result of [`hcube_shuffle`]: per-worker local databases plus the
/// cost report.
#[derive(Debug)]
pub struct ShuffleOutput {
    /// `locals[w]` is worker `w`'s relations, in atom order.
    pub locals: Vec<Vec<LocalRelation>>,
    /// Cost breakdown.
    pub report: ShuffleReport,
}

/// Runs the HCube shuffle for the relations named in `atom_names` (each must
/// exist in `db`), under `plan`, preparing tries in the induced order of
/// `order`. Untraced, and cancelled only by an injected fault: the shuffle
/// owns a token of its own, so an injected `Cancel` fails it with
/// [`Error::Cancelled`]. A panic fails it with [`Error::WorkerPanicked`],
/// naming the build worker, or no worker for the routing coordinator.
pub fn hcube_shuffle(
    cluster: &Cluster,
    db: &Database,
    atom_names: &[String],
    plan: &HCubePlan,
    order: &[Attr],
    impl_: HCubeImpl,
) -> Result<ShuffleOutput> {
    let layout = RoundLayout::new(db, &[], atom_names, order, None)?;
    let (cancel, tracer) = (CancelToken::manual(), Tracer::disabled());
    let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        route_round(cluster, db, &layout.atoms, plan, impl_, &cancel, &tracer)
    }));
    routed.unwrap_or_else(|payload| {
        let message = match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload.downcast_ref::<&str>().map_or("a panic", |m| m).to_string(),
        };
        Err(Error::WorkerPanicked { worker: None, message })
    })
}

/// The routed round of [`hcube_shuffle`], polling `cancel` and tracing on
/// `tracer`: the coordinator routes every relation into the workers'
/// inboxes, then each worker drains its own and builds its tries.
///
/// The token is polled every `CANCEL_CHECK_EVERY` (4096) routed rows and
/// once per atom, batch and build phase; a fired token aborts the shuffle
/// with [`Error::Cancelled`]. Each delivery is charged against its worker's
/// memory budget as it is routed — a Push row as it joins the worker's
/// pending batch, a Pull/Merge block before it is sent — so the delivery
/// that crosses the budget fails the shuffle with
/// [`Error::BudgetExceeded`] before it is sent or encoded. A panicking
/// build worker is isolated ([`adj_cluster::WorkerFailure`]) and surfaces
/// as [`Error::WorkerPanicked`].
///
/// The span timeline: one `shuffle` span on the coordinator lane (with
/// tuple and message totals), a `route` span over the routing pass, and a
/// `build` span per worker lane over its drain and trie builds.
fn route_round(
    cluster: &Cluster,
    db: &Database,
    infos: &[RoundAtom],
    plan: &HCubePlan,
    impl_: HCubeImpl,
    cancel: &CancelToken,
    tracer: &Tracer,
) -> Result<ShuffleOutput> {
    let n = cluster.num_workers();
    if n != plan.num_workers() {
        return Err(Error::InvalidConfig {
            message: format!(
                "an HCube plan for {} workers on a {n}-worker cluster",
                plan.num_workers()
            ),
        });
    }
    let mut shuffle_span = tracer.span(COORDINATOR_LANE, "shuffle");
    let n_atoms = infos.len();
    let mut round = cluster.open_round(infos.iter().map(|i| i.induced.clone()).collect());

    // Routing and block grouping run entirely in each relation's induced
    // layout — the stored schema only derived the permutation.
    let mut route_span = tracer.span(COORDINATOR_LANE, "route");
    let t_pre = Instant::now();
    let mut tuples: u64 = 0;
    let mut messages: u64 = 0;
    // Delivered copies per worker: the partition-fill vector the skew
    // stats read.
    let mut worker_tuples: Vec<u64> = vec![0; n];
    // Payload bytes charged to each worker so far, for the memory budget.
    // Modeled payload bytes on both backends so the budget doesn't shift
    // with framing overhead.
    let mut worker_bytes: Vec<u64> = vec![0; n];
    let limit = cluster.config().memory_limit_bytes;
    let mut charge = |w: usize, bytes: u64| match limit {
        Some(limit) if worker_bytes[w] + bytes > limit as u64 => {
            Err(Error::BudgetExceeded { what: "worker memory", limit })
        }
        _ => {
            worker_bytes[w] += bytes;
            Ok(())
        }
    };
    // Rows of Merge blocks that arrived out of order and were sorted here
    // (a block routed in its stored order needs no sort).
    let mut rows_sorted: u64 = 0;
    let mut rows_since_check: u64 = 0;
    for (ai, info) in infos.iter().enumerate() {
        // At least one cancellation checkpoint per atom, then one per
        // CANCEL_CHECK_EVERY scanned rows inside the routing loops, plus
        // one per sent batch.
        checkpoint(FaultSite::ShuffleRoute, cancel)?;
        let rel = db.get(&info.name)?;
        // Both paths route by the per-attribute hash coordinates of the
        // induced (permuted) row.
        let mut prow: Vec<Value> = Vec::with_capacity(info.perm.len());
        let mut coords: Vec<u32> = Vec::with_capacity(info.perm.len());
        match impl_ {
            HCubeImpl::Push => {
                // Per-delivery message accounting is preserved, but tuples
                // travel in flushed batches so the transport isn't hit once
                // per copy: each worker's pending rows and their count.
                const PUSH_BATCH_TUPLES: u64 = 2048;
                let mut pending: Vec<(Vec<Value>, u64)> = vec![(Vec::new(), 0); n];
                let mut flush = |w: usize, (data, copies): (Vec<Value>, u64)| -> Result<()> {
                    checkpoint(FaultSite::TransportSend, cancel)?;
                    let payload = BatchPayload::Rows(data);
                    let batch =
                        RoutedBatch { relation: ai, tuples: copies, messages: copies, payload };
                    round.send(w, batch);
                    Ok(())
                };
                for row in rel.rows() {
                    rows_since_check += 1;
                    if rows_since_check >= CANCEL_CHECK_EVERY as u64 {
                        rows_since_check = 0;
                        checkpoint(FaultSite::ShuffleRoute, cancel)?;
                    }
                    prow.clear();
                    prow.extend(info.perm.iter().map(|&p| row[p]));
                    plan.tuple_coords(&info.induced, &prow, &mut coords);
                    for w in plan.block_workers(&info.induced, &coords) {
                        charge(w, prow.len() as u64 * 4)?;
                        pending[w].0.extend_from_slice(&prow);
                        pending[w].1 += 1;
                        worker_tuples[w] += 1;
                        tuples += 1;
                        messages += 1; // one message per copy
                        if pending[w].1 >= PUSH_BATCH_TUPLES {
                            flush(w, std::mem::take(&mut pending[w]))?;
                        }
                    }
                }
                for (w, batch) in pending.into_iter().enumerate() {
                    if batch.1 > 0 {
                        flush(w, batch)?;
                    }
                }
            }
            HCubeImpl::Pull | HCubeImpl::Merge => {
                // Group into blocks by coordinate signature, indexed by
                // block id (at most Π shares, which the share program caps
                // at max(8·workers, 64)) and sent in id order. Blocks are
                // stored in the *induced* (permuted) layout so that the
                // block-id decode below matches the encode.
                let num_blocks = plan.num_blocks(&info.induced) as usize;
                let mut blocks: Vec<Vec<Value>> = vec![Vec::new(); num_blocks];
                for row in rel.rows() {
                    rows_since_check += 1;
                    if rows_since_check >= CANCEL_CHECK_EVERY as u64 {
                        rows_since_check = 0;
                        checkpoint(FaultSite::ShuffleRoute, cancel)?;
                    }
                    prow.clear();
                    prow.extend(info.perm.iter().map(|&p| row[p]));
                    plan.tuple_coords(&info.induced, &prow, &mut coords);
                    let id = plan.encode_block(&info.induced, &coords);
                    blocks[id as usize].extend_from_slice(&prow);
                }
                for (id, data) in blocks.into_iter().enumerate() {
                    if data.is_empty() {
                        continue;
                    }
                    let block_tuples = (data.len() / info.perm.len().max(1)) as u64;
                    let block_coords = plan.block_hashes(&info.induced, id as u64);
                    let dests = plan.block_workers(&info.induced, &block_coords);
                    // Merge pre-builds the block once (sorted, induced
                    // layout; counted as preprocessing below) and every
                    // destination shares it.
                    let payload = if impl_ == HCubeImpl::Merge {
                        let (block, sorted) =
                            Relation::from_flat_reporting(info.induced.clone(), data)
                                .expect("arity preserved");
                        if sorted {
                            rows_sorted += block_tuples;
                        }
                        BatchPayload::SortedBlock(Arc::new(block))
                    } else {
                        BatchPayload::Rows(data)
                    };
                    let payload_bytes = block_tuples * info.perm.len() as u64 * 4;
                    for &w in &dests {
                        checkpoint(FaultSite::TransportSend, cancel)?;
                        charge(w, payload_bytes)?;
                        let batch = RoutedBatch {
                            relation: ai,
                            tuples: block_tuples,
                            messages: 1, // one per block delivery
                            payload: payload.clone(),
                        };
                        round.send(w, batch);
                        worker_tuples[w] += block_tuples;
                        tuples += block_tuples;
                        messages += 1;
                    }
                }
            }
        }
    }
    let preprocess_secs =
        if impl_ == HCubeImpl::Merge { t_pre.elapsed().as_secs_f64() } else { 0.0 };
    route_span.arg("tuples", tuples);
    route_span.arg("messages", messages);
    route_span.arg("rows_sorted", rows_sorted);
    route_span.arg("frames", round.frames_sent());
    drop(route_span);

    // Each worker drains its inbox (decoding frames on the serialized
    // backend), then builds one trie per relation from what it received.
    let round = &round;
    let run = cluster.run_traced(tracer, "build", |w, span| -> Result<(Vec<Arc<Trie>>, u64)> {
        adj_faults::inject(FaultSite::TrieBuild, cancel);
        let mut raw: Vec<Vec<Value>> = vec![Vec::new(); n_atoms];
        let mut blocks: Vec<Vec<Arc<Relation>>> = vec![Vec::new(); n_atoms];
        let (mut recv_tuples, mut batches) = (0u64, 0u64);
        for batch in round.drain(w) {
            checkpoint(FaultSite::TransportRecv, cancel)?;
            let batch = batch?;
            recv_tuples += batch.tuples;
            batches += 1;
            match batch.payload {
                BatchPayload::Rows(v) => raw[batch.relation].extend_from_slice(&v),
                BatchPayload::SortedBlock(b) => blocks[batch.relation].push(b),
            }
        }
        span.arg("inbox_tuples", recv_tuples);
        span.arg("batches", batches);
        let fragments = infos.iter().zip(raw).zip(blocks);
        let tries = fragments.map(|((info, raw), blocks)| {
            Arc::new(match blocks.as_slice() {
                // sort + dedup + trie build
                [] => Trie::build(
                    &Relation::from_flat(info.induced.clone(), raw).expect("arity preserved"),
                ),
                // One pre-sorted block is the fragment already.
                [only] => Trie::build(only),
                // k-way merge of pre-sorted blocks + linear build
                many => {
                    let refs: Vec<&Relation> = many.iter().map(|b| b.as_ref()).collect();
                    Trie::build(&Relation::merge_sorted(&refs).expect("same schema"))
                }
            })
        });
        Ok((tries.collect(), recv_tuples))
    });
    let build_secs = run.makespan_secs;
    // A panicking build worker fails the whole shuffle here; its siblings
    // finished normally and their tries are dropped.
    let mut locals: Vec<Vec<LocalRelation>> = Vec::with_capacity(n);
    let mut recv_tuples = 0u64;
    for built in run.into_results().map_err(Error::from)? {
        let (tries, received) = built?;
        recv_tuples += received;
        let named = infos.iter().zip(tries);
        locals.push(
            named.map(|(atom, trie)| LocalRelation { name: atom.name.clone(), trie }).collect(),
        );
    }
    debug_assert_eq!(recv_tuples, tuples, "every routed copy is delivered");
    // A Cancel fault injected during the build (or a deadline that elapsed
    // while workers ran) aborts the shuffle too.
    cancel.check().map_err(|c| Error::Cancelled { deadline_exceeded: c.deadline })?;

    let model = cluster.cost_model();
    let msg_overhead = match impl_ {
        HCubeImpl::Merge => 0.5, // tries serialize/deserialize cheaper
        _ => 1.0,
    };
    let comm_secs =
        model.comm_secs(tuples) + messages as f64 * model.per_message_secs * msg_overhead;

    if shuffle_span.is_recording() {
        shuffle_span.arg("tuples", tuples);
        shuffle_span.arg("bytes", round.bytes_sent());
        shuffle_span.arg("wire_bytes", round.wire_bytes());
        shuffle_span.arg("messages", messages);
        shuffle_span.arg("built_relations", n_atoms as u64);
    }
    drop(shuffle_span);

    Ok(ShuffleOutput {
        locals,
        report: ShuffleReport {
            tuples,
            worker_tuples: if tuples > 0 { worker_tuples } else { Vec::new() },
            messages,
            wire_bytes: round.wire_bytes(),
            comm_secs,
            build_secs,
            preprocess_secs,
            built_relations: n_atoms as u64,
            reused_relations: 0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_cluster::ClusterConfig;
    use adj_relational::Attr;

    /// Triangle test database over a small random-ish graph.
    fn tri_db() -> (Database, Vec<String>) {
        let edges: Vec<(Value, Value)> =
            (0..50u32).flat_map(|i| vec![(i, (i * 7 + 3) % 50), (i, (i * 13 + 1) % 50)]).collect();
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs(Attr(0), Attr(1), &edges));
        db.insert("R2", Relation::from_pairs(Attr(1), Attr(2), &edges));
        db.insert("R3", Relation::from_pairs(Attr(0), Attr(2), &edges));
        (db, vec!["R1".into(), "R2".into(), "R3".into()])
    }

    fn order3() -> Vec<Attr> {
        vec![Attr(0), Attr(1), Attr(2)]
    }

    #[test]
    fn all_impls_produce_identical_locals() {
        use adj_cluster::TransportKind;
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let mut outs: Vec<(String, ShuffleOutput)> = Vec::new();
        for transport in [TransportKind::InProcess, TransportKind::Serialized] {
            for i in HCubeImpl::ALL {
                let cluster =
                    Cluster::new(ClusterConfig { transport, ..ClusterConfig::with_workers(4) });
                let out = hcube_shuffle(&cluster, &db, &names, &plan, &order3(), i).unwrap();
                outs.push((format!("{}/{}", i.name(), transport.name()), out));
            }
        }
        let (first, want) = &outs[0];
        for (cell, got) in &outs[1..] {
            for w in 0..4 {
                for ai in 0..names.len() {
                    assert_eq!(
                        got.locals[w][ai].trie, want.locals[w][ai].trie,
                        "{cell} vs {first} differ at worker {w} atom {ai}"
                    );
                }
            }
        }
    }

    #[test]
    fn impls_identical_under_permuting_order() {
        // Regression: an attribute order that permutes relation columns
        // (c ≺ a ≺ b) must still route blocks to exactly the workers Push
        // routes tuples to.
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 2], 8);
        let order = vec![Attr(2), Attr(0), Attr(1)];
        let outs: Vec<ShuffleOutput> = HCubeImpl::ALL
            .iter()
            .map(|&i| {
                let cluster = Cluster::new(ClusterConfig::with_workers(8));
                hcube_shuffle(&cluster, &db, &names, &plan, &order, i).unwrap()
            })
            .collect();
        for w in 0..8 {
            for ai in 0..names.len() {
                assert_eq!(outs[0].locals[w][ai].trie, outs[1].locals[w][ai].trie);
                assert_eq!(outs[1].locals[w][ai].trie, outs[2].locals[w][ai].trie);
            }
        }
    }

    #[test]
    fn local_union_covers_every_tuple() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let out = hcube_shuffle(&cluster, &db, &names, &plan, &order3(), HCubeImpl::Pull).unwrap();
        for (ai, name) in names.iter().enumerate() {
            let original = db.get(name).unwrap();
            let mut parts: Vec<Relation> =
                (0..4).map(|w| out.locals[w][ai].trie.to_relation()).collect();
            let mut all = parts.remove(0);
            for p in parts {
                all = all.union(&p).unwrap();
            }
            // permute back to original column order for comparison
            let back = all.permute(original.schema().attrs()).unwrap();
            assert_eq!(&back, original, "{name} lost tuples in shuffle");
        }
    }

    #[test]
    fn push_sends_more_messages_than_pull() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 2], 8);
        let c1 = Cluster::new(ClusterConfig::with_workers(8));
        let push = hcube_shuffle(&c1, &db, &names, &plan, &order3(), HCubeImpl::Push).unwrap();
        let c2 = Cluster::new(ClusterConfig::with_workers(8));
        let pull = hcube_shuffle(&c2, &db, &names, &plan, &order3(), HCubeImpl::Pull).unwrap();
        assert_eq!(push.report.tuples, pull.report.tuples, "same payload");
        assert!(
            push.report.messages > 10 * pull.report.messages,
            "push {} vs pull {} messages",
            push.report.messages,
            pull.report.messages
        );
        assert!(push.report.comm_secs > pull.report.comm_secs);
    }

    #[test]
    fn tuple_count_matches_dup_model() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let out = hcube_shuffle(&cluster, &db, &names, &plan, &order3(), HCubeImpl::Push).unwrap();
        // Each relation R is delivered |R|·dup(R,p) copies when all cubes
        // map to distinct workers (4 cubes on 4 workers here).
        let expect: u64 = names
            .iter()
            .map(|n| {
                let r = db.get(n).unwrap();
                r.len() as u64 * plan.dup_factor(r.schema())
            })
            .sum();
        assert_eq!(out.report.tuples, expect);
    }

    #[test]
    fn memory_budget_fails_shuffle() {
        use adj_cluster::TransportKind;
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![1, 1, 1], 1);
        for transport in [TransportKind::InProcess, TransportKind::Serialized] {
            for impl_ in HCubeImpl::ALL {
                let cfg = ClusterConfig {
                    memory_limit_bytes: Some(64),
                    transport,
                    ..ClusterConfig::with_workers(1)
                };
                let cluster = Cluster::new(cfg);
                // The coordinator fails before any worker drains its inbox,
                // and before it sends the delivery that crosses the budget:
                // R1 alone is 98 rows (784 bytes).
                let err =
                    hcube_shuffle(&cluster, &db, &names, &plan, &order3(), impl_).unwrap_err();
                assert!(matches!(err, Error::BudgetExceeded { .. }), "{transport:?}/{impl_:?}");
                let (_, bytes, _, _) = cluster.comm().snapshot();
                assert!(bytes <= 64, "{transport:?}/{impl_:?}: {bytes} bytes sent past the budget");
            }
        }
    }

    #[test]
    fn a_plan_for_another_cluster_width_is_a_typed_error() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(2));
        let err = hcube_shuffle(&cluster, &db, &names, &plan, &order3(), HCubeImpl::Pull)
            .expect_err("a 4-worker plan on a 2-worker cluster");
        let Error::InvalidConfig { message } = &err else {
            panic!("expected InvalidConfig, got {err:?}");
        };
        assert!(message.contains("4 workers") && message.contains("2-worker"), "{message}");
        assert_eq!(cluster.comm().snapshot(), (0, 0, 0, 0), "nothing was routed");
    }

    #[test]
    fn merge_reports_preprocess_time() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let out = hcube_shuffle(&cluster, &db, &names, &plan, &order3(), HCubeImpl::Merge).unwrap();
        assert!(out.report.preprocess_secs > 0.0);
        let c2 = Cluster::new(ClusterConfig::with_workers(4));
        let pull = hcube_shuffle(&c2, &db, &names, &plan, &order3(), HCubeImpl::Pull).unwrap();
        assert_eq!(pull.report.preprocess_secs, 0.0);
    }

    #[test]
    fn route_span_counts_the_merge_rows_it_sorted() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 2], 4);
        let rows_sorted = |order: Vec<Attr>, impl_: HCubeImpl| {
            let cluster = Cluster::new(ClusterConfig::with_workers(4));
            let layout = RoundLayout::new(&db, &[], &names, &order, None).unwrap();
            let tracer = Tracer::new(256);
            let cancel = CancelToken::none();
            route_round(&cluster, &db, &layout.atoms, &plan, impl_, &cancel, &tracer).unwrap();
            let trace = tracer.finish();
            let route = trace.events.iter().find(|e| e.name == "route").expect("route span");
            route.args.get("rows_sorted").expect("rows_sorted arg")
        };
        // Blocks of relations routed in their stored column order are
        // subsequences of sorted rows: nothing to sort.
        assert_eq!(rows_sorted(order3(), HCubeImpl::Merge), 0);
        // (c ≺ a ≺ b) reverses R2(b,c) and R3(a,c): every one of their rows
        // lands in a block that has to be sorted; R1(a,b) stays in order.
        let permuting = vec![Attr(2), Attr(0), Attr(1)];
        let reversed = (db.get("R2").unwrap().len() + db.get("R3").unwrap().len()) as u64;
        assert_eq!(rows_sorted(permuting.clone(), HCubeImpl::Merge), reversed);
        // Pull leaves the sorting to the workers.
        assert_eq!(rows_sorted(permuting, HCubeImpl::Pull), 0);
    }

    #[test]
    fn order_missing_attr_errors() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let bad_order = vec![Attr(0), Attr(1)]; // attr 2 missing
        assert!(hcube_shuffle(&cluster, &db, &names, &plan, &bad_order, HCubeImpl::Pull).is_err());
    }

    #[test]
    fn worker_tuples_sum_to_total() {
        let (db, names) = tri_db();
        let plan = HCubePlan::new(vec![2, 2, 1], 4);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let out = hcube_shuffle(&cluster, &db, &names, &plan, &order3(), HCubeImpl::Pull).unwrap();
        assert_eq!(out.report.worker_tuples.len(), 4);
        assert_eq!(out.report.worker_tuples.iter().sum::<u64>(), out.report.tuples);
    }
}
