//! Every workload end to end at smoke size: the declared metrics are the
//! printed ones, every answer checks out, and the workloads' own assertions
//! fire when their precondition is broken.

use adjbench::run::{run, RunConfig, RunResult};
use adjbench::workloads::{setup, OpCtx, Size, WorkloadKind, DEFAULT_SEED};
use std::path::PathBuf;

fn config(kind: WorkloadKind, trace: bool) -> RunConfig {
    let trace_path = trace.then(|| {
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}.trace.json", kind.name()))
    });
    RunConfig {
        kind,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        setups: 2,
        min_rounds: 2,
        trace_path,
    }
}

/// The `(name, unit)` pairs BENCHMARK.json declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = &text[text.find(&format!("\"{key}\"")).expect("section exists")..];
    let section = &section[..section.find(']').expect("section is an array")];
    let field = |entry: &str, name: &str| {
        let rest = &entry[entry.find(&format!("\"{name}\"")).expect("field exists")..];
        rest.split('"').nth(3).expect("string value").to_string()
    };
    section.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

fn assert_prints(result: &RunResult, key: &str) {
    let printed: Vec<(String, String)> =
        result.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
    assert_eq!(printed, declared(key), "printed metrics are the declared {key} metrics, in order");
    for m in &result.metrics {
        assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
    }
    let json = result.to_json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
    assert!(!json.contains('\n'));
}

#[test]
fn every_workload_measures_and_checks_out() {
    for kind in WorkloadKind::ALL {
        let result = run(&config(kind, false));
        assert!(result.correct, "{}: {:?}", kind.name(), result.notes);
        assert_eq!(result.failed, 0);
        assert!(result.attempted >= 12, "{}: {} ops", kind.name(), result.attempted);
        assert!(result.notes.iter().any(|n| n.starts_with("oracle: ")), "{:?}", result.notes);
        assert_prints(&result, "end_to_end");
        for m in &result.metrics {
            assert!(m.value > 0.0, "{}: end-to-end metric {} is never 0", kind.name(), m.name);
        }
    }
}

#[test]
fn every_workload_traces_its_layers() {
    for kind in WorkloadKind::ALL {
        let cfg = config(kind, true);
        let result = run(&cfg);
        assert!(result.correct, "{}: {:?}", kind.name(), result.notes);
        assert_eq!(result.failed, 0);
        assert_prints(&result, "per_layer");
        let value = |name: &str| {
            result.metrics.iter().find(|m| m.name == name).expect("declared metric").value
        };
        assert_eq!(value("service.admission_wait_ms").max(0.05), 0.05, "one closed-loop client");
        assert_eq!(value("trace.events_dropped"), 0.0);
        assert!(value("leapfrog.join_ms") > 0.0);
        match kind {
            WorkloadKind::ColdFirstTouch => assert!(value("core.optimize_share") > 0.0),
            WorkloadKind::WarmModes => assert_eq!(value("core.optimize_share"), 0.0),
            WorkloadKind::BoundBatch => assert!(value("batch.bindings_per_s") > 0.0),
            WorkloadKind::MutateRead => assert!(value("service.mutate_ms") > 0.0),
            WorkloadKind::BoundLoop => assert_eq!(value("hcube.patch_entries"), 0.0),
        }
        let spans = std::fs::read_to_string(cfg.trace_path.expect("traced")).expect("span file");
        assert!(spans.starts_with('[') && spans.ends_with(']'));
        for name in ["\"name\":\"core.optimize\"", "\"name\":\"plan_lookup\"", "\"parent\":"] {
            assert!(spans.contains(name), "{}: span file lacks {name}", kind.name());
        }
    }
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let digests = |seed: u64| {
        let mut w = setup(WorkloadKind::BoundLoop, seed, Size::Smoke, false);
        let mut ctx = OpCtx::new(false);
        (0..w.round().len()).map(|i| w.run_op(i, &mut ctx).output).collect::<Vec<u64>>()
    };
    assert_eq!(digests(1), digests(1));
    assert_ne!(digests(1), digests(2));
}

#[test]
fn a_first_touch_that_is_not_cold_fails_its_op() {
    let mut w = setup(WorkloadKind::ColdFirstTouch, 3, Size::Smoke, false);
    let mut ctx = OpCtx::new(false);
    w.before_round();
    assert!(w.run_op(0, &mut ctx).error.is_none());
    // No re-registration in between: the second touch finds the plan.
    let error = w.run_op(0, &mut ctx).error.expect("a warm first touch is a failed op");
    assert!(error.contains("plan-cache hit"), "{error}");
}

#[test]
fn a_warm_op_that_replans_fails() {
    let mut w = setup(WorkloadKind::WarmModes, 3, Size::Smoke, false);
    let mut ctx = OpCtx::new(false);
    assert!(w.run_op(0, &mut ctx).error.is_none());
    // Replace the databases behind the workload's back: the plans and
    // indexes of the next op are gone.
    for cell in w.replay_cells() {
        w.service().register_database(cell.name, cell.db);
    }
    let error = w.run_op(0, &mut ctx).error.expect("a cold warm op is a failed op");
    assert!(error.contains("plan-cache miss"), "{error}");
}
