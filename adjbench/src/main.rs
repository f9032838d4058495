//! `adjbench --workload <name> [--seed N] [--seconds S] [--trace [0|1]]`

use adjbench::run::{run, RunConfig};
use adjbench::workloads::{Size, WorkloadKind, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: adjbench --workload <name> [--seed N] [--seconds S] [--trace [0|1]]";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        kind: WorkloadKind::ColdFirstTouch,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        setups: 5,
        min_rounds: 1,
        trace_path: None,
    };
    let mut workload = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
                workload = Some(WorkloadKind::from_name(name).ok_or(format!(
                    "unknown workload '{name}'; the workloads are {}",
                    known.join(", ")
                ))?);
            }
            "--seed" => {
                cfg.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cfg.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds >= 0.0 && cfg.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".to_string());
                }
            }
            // `--trace` alone turns tracing on; `--trace 0|1` says which.
            "--trace" => {
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        cfg.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    cfg.kind = workload.ok_or("--workload is required")?;
    if cfg.trace {
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
        cfg.trace_path =
            Some(target.join("adjbench").join(format!("{}.trace.json", cfg.kind.name())));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&cfg);
    for note in &result.notes {
        eprintln!("{note}");
    }
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
