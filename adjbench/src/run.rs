//! One run of one workload: set-up, warm-up, measured rounds, checks, and
//! the metrics that come out.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! is a separate run that measures the per-layer metrics: the same rounds on
//! a traced and an untraced service side by side (their difference is the
//! tracing overhead), then the layer replay, all under harness spans.

use crate::digest::fold;
use crate::layers::{median_of, replay, Replay};
use crate::procfs::{cpu_secs, peak_rss_mb};
use crate::stats::{median, percentile, rank_margin, ClassShare};
use crate::workloads::{bound_call_secs, setup, OpCtx, Size, Workload, WorkloadKind, DEFAULT_SEED};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// A percentile rank closer than this (as a share of all ops) to the
/// boundary between two latency classes makes the percentile flip between
/// them from run to run.
const MIN_RANK_MARGIN: f64 = 0.04;

/// Plan digests of the warm-up round at the default seed and full size, one
/// line per workload: what `measure_beta: false` makes reproducible.
const STORED_PLAN_DIGESTS: &str = include_str!("../plan_digests.txt");

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub kind: WorkloadKind,
    pub seed: u64,
    /// How long the measured rounds go on, all epochs together. A round
    /// that has started finishes.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Epochs of the end-to-end run: how many times the workload is set up
    /// (and warmed up) and then measured for `seconds / setups`. `setup_s`
    /// is the median set-up.
    pub setups: usize,
    /// Measured rounds every epoch runs however short `seconds` is.
    pub min_rounds: usize,
    /// Where the traced run writes its spans.
    pub trace_path: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug)]
pub struct RunResult {
    /// Every output was right: no op failed, the oracle agreed, plans
    /// repeated, and the workload saw what it is built to see.
    pub correct: bool,
    /// Measured ops.
    pub attempted: u64,
    /// Measured ops that errored, were refused, or returned a wrong result.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// What the run wants a reader to know; goes to standard error.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The one-line JSON object the run prints last.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// What one round observed, per op.
struct Round {
    secs: Vec<f64>,
    output: Vec<u64>,
    plan: Vec<u64>,
    failed: Vec<bool>,
    cpu_secs: f64,
}

impl Round {
    fn wall_secs(&self) -> f64 {
        self.secs.iter().sum()
    }

    fn ops_per_s(&self) -> f64 {
        self.secs.len() as f64 / self.wall_secs()
    }

    fn failures(&self) -> u64 {
        self.failed.iter().filter(|&&f| f).count() as u64
    }
}

/// Runs one round. An op fails if the workload says so, or if its digests
/// differ from `reference`'s: every round repeats the same ops on the same
/// state.
fn run_round(
    w: &mut dyn Workload,
    ctx: &mut OpCtx,
    reference: Option<&Round>,
    notes: &mut Vec<String>,
) -> Round {
    w.before_round();
    let n = w.round().len();
    let mut round = Round {
        secs: Vec::with_capacity(n),
        output: Vec::with_capacity(n),
        plan: Vec::with_capacity(n),
        failed: Vec::with_capacity(n),
        cpu_secs: 0.0,
    };
    let cpu = cpu_secs();
    for i in 0..n {
        ctx.op_id += 1;
        let obs = w.run_op(i, ctx);
        let mut error = obs.error;
        if let (None, Some(r)) = (&error, reference) {
            if r.output[i] != obs.output {
                error = Some("output digest differs from the warm-up round's".to_string());
            } else if r.plan[i] != obs.plan {
                error = Some("plan digest differs from the warm-up round's".to_string());
            }
        }
        if let Some(e) = &error {
            notes.push(format!("op {i} ({}) failed: {e}", w.classes()[w.round()[i]]));
        }
        round.secs.push(obs.secs);
        round.output.push(obs.output);
        round.plan.push(obs.plan);
        round.failed.push(error.is_some());
    }
    round.cpu_secs = cpu_secs() - cpu;
    round
}

/// Median latency and op share of every class, over the measured rounds.
fn class_shares(w: &dyn Workload, rounds: &[Round]) -> Vec<ClassShare> {
    let sequence = w.round();
    w.classes()
        .iter()
        .enumerate()
        .map(|(c, name)| {
            let ms: Vec<f64> = rounds
                .iter()
                .flat_map(|r| r.secs.iter().zip(sequence).filter(|(_, &k)| k == c))
                .map(|(s, _)| s * 1e3)
                .collect();
            ClassShare {
                name: name.to_string(),
                share: sequence.iter().filter(|&&k| k == c).count() as f64 / sequence.len() as f64,
                median_ms: median(&ms),
            }
        })
        .collect()
}

/// Checks the warm-up round's plans against the ones stored for this
/// workload and says what it found; `true` means they differ. Nothing is
/// stored for other seeds or sizes. A difference is reported, not failed: a
/// later change to the optimizer moves plans on purpose, and what must hold
/// then is that they still repeat — which every run checks across epochs.
fn plans_drifted(cfg: &RunConfig, warmup: &Round, notes: &mut Vec<String>) -> bool {
    let digest = format!("{:016x}", warmup.plan.iter().fold(0, |h, &p| fold(h, p)));
    notes.push(format!("plan digest of the warm-up round: {digest}"));
    if cfg.seed != DEFAULT_SEED || cfg.size != Size::Full {
        return false;
    }
    let stored = STORED_PLAN_DIGESTS
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == cfg.kind.name())
        .map(|(_, stored)| stored.trim());
    if stored == Some(digest.as_str()) {
        return false;
    }
    notes.push(format!("plans differ from the stored ones for the default seed ({stored:?})"));
    true
}

/// One set-up: builds the workload and runs its warm-up round. Returns
/// the workload, the warm-up round, and the seconds both took together.
fn set_up(
    cfg: &RunConfig,
    traced: bool,
    correct: &mut bool,
    notes: &mut Vec<String>,
) -> (Box<dyn Workload>, Round, f64) {
    let t = Instant::now();
    let mut w = setup(cfg.kind, cfg.seed, cfg.size, traced);
    let warmup = run_round(&mut *w, &mut OpCtx::new(false), None, notes);
    let secs = t.elapsed().as_secs_f64();
    if warmup.failures() > 0 {
        *correct = false;
    }
    (w, warmup, secs)
}

/// Whether two rounds planned and answered alike.
fn same_answers(a: &Round, b: &Round) -> bool {
    a.plan == b.plan && a.output == b.output
}

fn finite(metrics: Vec<Metric>, correct: &mut bool, notes: &mut Vec<String>) -> Vec<Metric> {
    metrics
        .into_iter()
        .map(|m| {
            if m.value.is_finite() {
                return m;
            }
            *correct = false;
            notes.push(format!("{} measured {}, reported as 0", m.name, m.value));
            Metric { value: 0.0, ..m }
        })
        .collect()
}

pub fn run(cfg: &RunConfig) -> RunResult {
    assert!(cfg.setups >= 1 && cfg.min_rounds >= 1);
    if cfg.trace {
        run_traced(cfg)
    } else {
        run_end_to_end(cfg)
    }
}

/// The end-to-end run is a sequence of epochs: set-up, warm-up round, then
/// measured rounds for an equal share of `seconds`. How fast a workload runs
/// depends a little on where its indexes happened to land in memory, and
/// that differs from one set-up to the next as much as from one process to
/// the next; measuring across several set-ups averages it out, and gives
/// `setup_s` its samples. The repeats double as the determinism guard: built
/// from the same seed, every epoch must plan and answer alike.
fn run_end_to_end(cfg: &RunConfig) -> RunResult {
    let mut correct = true;
    let mut notes = Vec::new();
    let mut ctx = OpCtx::new(false);
    let mut setup_secs = Vec::new();
    let mut rounds = Vec::new();
    let mut first_warmup: Option<Round> = None;
    let mut current: Option<Box<dyn Workload>> = None;
    for epoch in 0..cfg.setups {
        // The previous epoch's workload goes before the clock starts.
        drop(current.take());
        let (mut w, warmup, secs) = set_up(cfg, false, &mut correct, &mut notes);
        setup_secs.push(secs);

        let start = Instant::now();
        let mut measured = 0;
        while measured < cfg.min_rounds
            || start.elapsed().as_secs_f64() < cfg.seconds / cfg.setups as f64
        {
            rounds.push(run_round(&mut *w, &mut ctx, Some(&warmup), &mut notes));
            measured += 1;
        }

        if let Err(e) = w.check_run() {
            correct = false;
            notes.push(format!("epoch {epoch}: {e}"));
        }
        match &first_warmup {
            None => {
                notes.push(format!("{}: {}", cfg.kind.name(), w.describe()));
                plans_drifted(cfg, &warmup, &mut notes);
                first_warmup = Some(warmup);
            }
            Some(first) if !same_answers(first, &warmup) => {
                correct = false;
                notes.push(format!("epoch {epoch} planned or answered unlike epoch 0"));
            }
            Some(_) => {}
        }
        current = Some(w);
    }
    // Read before the oracle runs: its intermediate results are not the
    // program's memory.
    let rss = peak_rss_mb();
    let mut w = current.expect("at least one epoch");
    match w.check_oracle() {
        Ok(what) => notes.push(format!("oracle: {what}")),
        Err(e) => {
            correct = false;
            notes.push(format!("oracle mismatch: {e}"));
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.secs.len() as u64).sum();
    let failed: u64 = rounds.iter().map(Round::failures).sum();

    let classes = class_shares(&*w, &rounds);
    for q in [0.5, 0.9] {
        let margin = rank_margin(&classes, q);
        if margin < MIN_RANK_MARGIN {
            correct = false;
            notes.push(format!("the p{:.0} rank is {margin:.3} from a class boundary", q * 100.0));
        }
    }
    for c in &classes {
        notes.push(format!(
            "class {}: {:.1} % of ops, median {:.3} ms",
            c.name,
            c.share * 100.0,
            c.median_ms
        ));
    }
    notes.push(format!(
        "{} epochs, {} measured rounds x {} ops = {attempted} samples behind op_p50_ms and op_p90_ms",
        cfg.setups,
        rounds.len(),
        w.round().len()
    ));

    // Every round repeats the same ops, so each op has one latency per
    // round. The host this runs on slows the whole process down by tens of
    // percent for seconds to minutes at a time and never speeds it up, so
    // the fastest of an op's repeats is the program's own cost; medians move
    // with the host (README, "Noise"). They are printed beside for reference.
    let n = w.round().len();
    let quiet_ms: Vec<f64> = (0..n)
        .map(|i| rounds.iter().map(|r| r.secs[i]).fold(f64::INFINITY, f64::min) * 1e3)
        .collect();
    let quiet_cpu_ms =
        rounds.iter().map(|r| r.cpu_secs).fold(f64::INFINITY, f64::min) * 1e3 / n as f64;
    let pooled_ms: Vec<f64> = rounds.iter().flat_map(|r| &r.secs).map(|s| s * 1e3).collect();
    let per_round: Vec<f64> = rounds.iter().map(Round::ops_per_s).collect();
    notes.push(format!(
        "as experienced: ops_per_s {:.4} (median round), op_p50_ms {:.4}, op_p90_ms {:.4} (pooled)",
        median(&per_round),
        percentile(&pooled_ms, 0.5),
        percentile(&pooled_ms, 0.9),
    ));
    let metrics = vec![
        Metric { name: "setup_s", value: median(&setup_secs), unit: "s" },
        Metric {
            name: "ops_per_s",
            value: n as f64 * 1e3 / quiet_ms.iter().sum::<f64>(),
            unit: "1/s",
        },
        Metric { name: "op_p50_ms", value: percentile(&quiet_ms, 0.5), unit: "ms" },
        Metric { name: "op_p90_ms", value: percentile(&quiet_ms, 0.9), unit: "ms" },
        Metric { name: "cpu_ms_per_op", value: quiet_cpu_ms, unit: "ms" },
        Metric { name: "peak_rss_mb", value: rss, unit: "MiB" },
    ];
    let metrics = finite(metrics, &mut correct, &mut notes);
    RunResult { correct: correct && failed == 0, attempted, failed, metrics, notes }
}

fn frac(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

fn run_traced(cfg: &RunConfig) -> RunResult {
    let mut correct = true;
    let mut notes = Vec::new();
    let (mut plain, plain_warmup, _) = set_up(cfg, false, &mut correct, &mut notes);
    let (mut traced, traced_warmup, _) = set_up(cfg, true, &mut correct, &mut notes);
    notes.push(format!("{}: {}", cfg.kind.name(), traced.describe()));
    if !same_answers(&plain_warmup, &traced_warmup) {
        correct = false;
        notes.push("the traced service planned or answered unlike the untraced one".to_string());
    }
    let drift = f64::from(u8::from(plans_drifted(cfg, &traced_warmup, &mut notes)));

    // The same rounds on both services, alternating which goes first.
    let mut quiet = OpCtx::new(false);
    let mut ctx = OpCtx::new(true);
    let (mut plain_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced_rounds.len() < cfg.min_rounds || start.elapsed().as_secs_f64() < cfg.seconds * 0.6
    {
        let traced_first = traced_rounds.len() % 2 == 1;
        for on_traced in [traced_first, !traced_first] {
            if on_traced {
                let r = run_round(&mut *traced, &mut ctx, Some(&traced_warmup), &mut notes);
                traced_rounds.push(r);
            } else {
                let r = run_round(&mut *plain, &mut quiet, Some(&plain_warmup), &mut notes);
                plain_rounds.push(r);
            }
        }
    }
    let all = || plain_rounds.iter().chain(&traced_rounds);
    let attempted: u64 = all().map(|r| r.secs.len() as u64).sum();
    let failed: u64 = all().map(Round::failures).sum();
    let ops_per_s =
        |rounds: &[Round]| median(&rounds.iter().map(Round::ops_per_s).collect::<Vec<_>>());
    let overhead = 1.0 - ops_per_s(&traced_rounds) / ops_per_s(&plain_rounds);
    drop(plain);
    match traced.check_oracle() {
        Ok(what) => notes.push(format!("oracle: {what}")),
        Err(e) => {
            correct = false;
            notes.push(format!("oracle mismatch: {e}"));
        }
    }

    // Layer replay on the workload's own cells.
    let replays: Vec<Replay> = traced
        .replay_cells()
        .iter()
        .map(|cell| {
            ctx.op_id += 1;
            replay(cell, &mut ctx.spans, ctx.op_id)
        })
        .collect();
    let handoff_us = match cfg.kind {
        WorkloadKind::BoundLoop | WorkloadKind::BoundBatch => {
            (bound_call_secs(cfg.seed, cfg.size, 2) - bound_call_secs(cfg.seed, cfg.size, 1)) * 1e6
        }
        _ => 0.0,
    };

    if let Some(path) = &cfg.trace_path {
        match ctx.spans.write(path) {
            Ok(()) => {
                notes.push(format!("{} spans written to {}", ctx.spans.len(), path.display()))
            }
            Err(e) => {
                correct = false;
                notes.push(format!("could not write {}: {e}", path.display()));
            }
        }
    }

    let c = &ctx.counts;
    let rounds = traced_rounds.len() as f64;
    let calls = c.calls.max(1) as f64;
    let phase_ms = |name: &str| c.phase_secs.get(name).copied().unwrap_or(0.0) * 1e3 / calls;
    let stats = traced.service().stats();
    let med = |field: fn(&Replay) -> f64| median_of(&replays, field);
    let metrics = vec![
        Metric { name: "query.parse_us", value: med(|r| r.parse_us), unit: "us" },
        Metric { name: "sampling.estimate_ms", value: med(|r| r.estimate_ms), unit: "ms" },
        Metric { name: "core.optimize_ms", value: med(|r| r.optimize_ms), unit: "ms" },
        Metric {
            name: "core.optimize_share",
            value: c.optimize_secs / c.call_secs.max(f64::MIN_POSITIVE),
            unit: "frac",
        },
        Metric {
            name: "core.precompute_bags",
            value: c.precompute_bags as f64 / rounds,
            unit: "count",
        },
        Metric {
            name: "core.precompute_tuples",
            value: c.precompute_tuples as f64 / rounds,
            unit: "count",
        },
        Metric { name: "core.commfirst_op_ms", value: med(|r| r.commfirst_op_ms), unit: "ms" },
        Metric { name: "core.coopt_op_ms", value: med(|r| r.coopt_op_ms), unit: "ms" },
        Metric { name: "core.plan_digest_drift", value: drift, unit: "count" },
        Metric { name: "hcube.share_us", value: med(|r| r.share_us), unit: "us" },
        Metric { name: "hcube.shuffle_ms", value: med(|r| r.shuffle_ms), unit: "ms" },
        Metric { name: "hcube.comm_tuples", value: c.comm_tuples as f64 / rounds, unit: "count" },
        Metric { name: "hcube.dup_factor", value: med(|r| r.dup_factor), unit: "ratio" },
        Metric {
            name: "hcube.partition_balance",
            value: med(|r| r.partition_balance),
            unit: "ratio",
        },
        Metric {
            name: "hcube.patch_entries",
            value: c.patch_entries as f64 / rounds,
            unit: "count",
        },
        Metric {
            name: "relational.trie_build_mtuples_per_s",
            value: med(|r| r.trie_build_mtuples_per_s),
            unit: "Mtuples/s",
        },
        Metric {
            name: "relational.intersect_ns_per_elem",
            value: med(|r| r.intersect_ns_per_elem),
            unit: "ns",
        },
        Metric {
            name: "relational.gallop_ns_per_seek",
            value: med(|r| r.gallop_ns_per_seek),
            unit: "ns",
        },
        Metric { name: "leapfrog.join_ms", value: med(|r| r.join_ms), unit: "ms" },
        Metric {
            name: "leapfrog.seeks_per_out",
            value: c.seeks as f64 / c.output_tuples.max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "leapfrog.rows_mtuples_per_s",
            value: med(|r| r.rows_mtuples_per_s),
            unit: "Mtuples/s",
        },
        Metric {
            name: "batch.bindings_per_s",
            value: c.batch_bindings as f64 / c.batch_secs.max(f64::MIN_POSITIVE),
            unit: "1/s",
        },
        Metric {
            name: "batch.unique_frac",
            value: c.batch_unique as f64 / c.batch_bindings.max(1) as f64,
            unit: "frac",
        },
        Metric { name: "cluster.handoff_us_per_call", value: handoff_us, unit: "us" },
        Metric {
            name: "cluster.serialized_overhead_frac",
            value: med(|r| r.serialized_overhead_frac),
            unit: "frac",
        },
        Metric {
            name: "service.result_cache_hit_frac",
            value: frac(stats.results.hits, stats.results.misses),
            unit: "frac",
        },
        Metric {
            name: "service.plan_cache_hit_frac",
            value: frac(stats.cache.hits, stats.cache.misses),
            unit: "frac",
        },
        Metric {
            name: "service.index_cache_hit_frac",
            value: frac(stats.index.hits, stats.index.misses),
            unit: "frac",
        },
        Metric {
            name: "service.index_resident_mb",
            value: stats.index.resident_bytes as f64 / (1 << 20) as f64,
            unit: "MiB",
        },
        Metric {
            name: "service.index_evictions",
            value: stats.index.evictions as f64,
            unit: "count",
        },
        Metric { name: "service.register_ms", value: med(|r| r.register_ms), unit: "ms" },
        Metric {
            name: "service.mutate_ms",
            value: c.mutate_secs * 1e3 / c.mutations.max(1) as f64,
            unit: "ms",
        },
        Metric { name: "service.admission_wait_ms", value: phase_ms("admission_wait"), unit: "ms" },
        Metric { name: "service.phase_plan_lookup_ms", value: phase_ms("plan_lookup"), unit: "ms" },
        Metric { name: "service.phase_shuffle_ms", value: phase_ms("shuffle"), unit: "ms" },
        Metric { name: "service.phase_computation_ms", value: phase_ms("computation"), unit: "ms" },
        Metric { name: "service.phase_gather_ms", value: phase_ms("gather"), unit: "ms" },
        Metric { name: "delta.overlay_tuples", value: c.overlay_tuples as f64, unit: "count" },
        Metric {
            name: "delta.compactions",
            value: stats.metrics.compactions as f64,
            unit: "count",
        },
        Metric { name: "trace.overhead_frac", value: overhead, unit: "frac" },
        Metric { name: "trace.events_dropped", value: c.events_dropped as f64, unit: "count" },
        Metric { name: "replay_coverage", value: med(|r| r.coverage), unit: "frac" },
    ];
    let metrics = finite(metrics, &mut correct, &mut notes);
    RunResult { correct: correct && failed == 0, attempted, failed, metrics, notes }
}
