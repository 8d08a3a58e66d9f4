//! `tkdbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path tkdbench/Cargo.toml -- \
//!     --workload read-mix|write-mix|cluster-mix --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path tkdbench/Cargo.toml -- --self-test
//! ```
//!
//! One run is one workload in its own process. It builds its inputs from
//! the seed, sets up the real service (`tkd_serve::Server`, or
//! `tkd_cluster` workers and a coordinator) in-process on loopback,
//! measures for about `--seconds`, checks every answer against an
//! in-process oracle, and prints as its last line one JSON object:
//! `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Lines before it
//! record the environment, the sample count behind each percentile, and
//! everything the JSON leaves out. `METRICS.md` documents the workloads,
//! metrics and the layer map. Scratch files live under `.bench_work/` in
//! the working directory.

mod cluster_mix;
mod env;
mod gen;
mod layers;
mod read_mix;
mod replay;
mod run;
mod serve;
mod stats;
mod trace;
mod write_mix;

use crate::replay::Replay;
use crate::run::{Cfg, RunResult, Size};
use crate::trace::Span;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["read-mix", "write-mix", "cluster-mix"];
const WORK_ROOT: &str = ".bench_work";

const USAGE: &str = "usage: tkdbench --workload read-mix|write-mix|cluster-mix --seed N --seconds S --trace 0|1\n       tkdbench --self-test";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn run_workload(workload: &str, cfg: &Cfg) -> RunResult {
    match workload {
        "read-mix" => read_mix::run(cfg),
        "write-mix" => write_mix::run(cfg),
        "cluster-mix" => cluster_mix::run(cfg),
        other => unreachable!("workload {other} was validated"),
    }
}

/// A fresh scratch directory for this process.
fn work_dir() -> PathBuf {
    let dir = Path::new(WORK_ROOT).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

/// Write a traced run's spans, replay and root spans alike, next to the
/// scratch directories (each traced run replaces its workload's file),
/// and return one log line of total and self time per span name.
pub fn write_spans(replay: &Replay, roots: &[Span], workload: &str, dir: &Path) -> Vec<String> {
    let lines = replay
        .tracer
        .self_times()
        .into_iter()
        .map(|(name, count, total, own)| {
            format!("span {name}: {count} spans, total {total:.1} us, self {own:.1} us")
        })
        .collect();
    let mut all = replay.tracer.spans.clone();
    all.extend_from_slice(roots);
    let path = dir
        .parent()
        .unwrap_or(dir)
        .join(format!("spans-{workload}.tsv"));
    if let Err(e) = trace::write_tsv(&all, &path) {
        eprintln!("could not write {}: {e}", path.display());
    }
    lines
}

fn report(result: &RunResult, trace: bool) -> String {
    for (k, v) in &result.env {
        println!("# env {k}={v}");
    }
    for line in &result.log {
        println!("# {line}");
    }
    for (kind, metrics) in [("e2e", &result.e2e), ("class", &result.class)] {
        for m in &metrics.0 {
            println!(
                "# {kind} {} = {} {}",
                m.name,
                stats::json_number(m.value),
                m.unit
            );
        }
    }
    let metrics = if trace { &result.layers } else { &result.e2e };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.correct(),
        result.attempted,
        result.failed,
        metrics.to_json()
    )
}

/// All three workloads at tiny sizes, traced, through the output check;
/// then each again with one oracle answer falsified, which must fail.
fn self_test() -> Result<(), String> {
    for workload in WORKLOADS {
        let dir = work_dir();
        let cfg = Cfg {
            seed: 11,
            seconds: 1.5,
            trace: true,
            size: Size::Tiny,
            corrupt: false,
            dir: dir.clone(),
        };
        let good = run_workload(workload, &cfg);
        let bad = run_workload(
            workload,
            &Cfg {
                trace: false,
                corrupt: true,
                ..cfg
            },
        );
        std::fs::remove_dir_all(&dir).ok();
        println!(
            "# self-test {workload}: clean run attempted={} failed={} mismatches={}; corrupted oracle: mismatches={}",
            good.attempted, good.failed, good.mismatches, bad.mismatches
        );
        if good.attempted == 0 || good.failed != 0 || good.mismatches != 0 {
            return Err(format!(
                "{workload}: the clean run did not pass the output check"
            ));
        }
        if bad.mismatches == 0 {
            return Err(format!(
                "{workload}: a corrupted oracle answer went unnoticed"
            ));
        }
        if good.layers.0.is_empty() || good.e2e.0.is_empty() {
            return Err(format!("{workload}: metrics missing"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match self_test() {
                Ok(()) => {
                    println!("# self-test passed");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("self-test failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = work_dir();
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::Full,
        corrupt: false,
        dir: dir.clone(),
    };
    let result = run_workload(&args.workload, &cfg);
    std::fs::remove_dir_all(&dir).ok();
    let line = report(&result, args.trace);
    println!("{line}");
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload read-mix --seed 3 --seconds 10 --trace 0")
            .unwrap()
            .is_some());
        assert!(parse("--self-test").unwrap().is_none());
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload read-mix --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload read-mix --seed 3 --trace 0").is_err());
    }

    #[test]
    fn self_test_passes_and_its_gate_is_live() {
        self_test().unwrap();
    }
}
