//! End-to-end repair-time benchmark.
//!
//! One binary, three workloads, each measured from outside the program
//! through its public API:
//!
//! * `corpus` — full `repair()` (`RepairDriver::new` → `step`* → `finish`)
//!   of every runnable registry subject except SV-COMP/loops/sum, one
//!   subject at a time, at a fixed 60-iteration budget;
//! * `served` — an in-process epoll server on loopback, drained by two
//!   closed-loop clients submitting 48 quick-profile jobs;
//! * `reduce_pool` — `reduce()` called directly on a 500-patch nonlinear
//!   pool over four fixed partitions.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload corpus --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run repeats whole passes of its workload until `--seconds` have
//! elapsed (always at least one) and reports medians over passes. The seed
//! only reorders work (corpus order, served job order), so every seed
//! measures the same work. Every report is checked against the golden
//! digests in `goldens.txt`; a mismatch counts as a failed job.
//!
//! `--trace 0` prints the end-to-end metrics of `BENCHMARK.json`;
//! `--trace 1` additionally runs one instrumented pass and prints the
//! per-layer metrics instead, 0 for a layer that does no work on the
//! workload (the record's `unobserved` key lists what a workload cannot
//! see from outside the program). The last stdout line is the result
//! object `{"correct", "attempted", "failed", "metrics"}`; the line before
//! it records the run's configuration (CPU count, threads, workers, sample
//! counts). `--threads N` overrides the repair thread count (refused above
//! the CPU count); `--bless` prints the golden lines of one pass instead of
//! measuring.

mod corpus;
mod measure;
mod reduce_pool;
mod served;

use std::process::ExitCode;

use cpr_serve::Json;
use measure::{Metrics, Record};

/// The benchmark definition: which metrics a run prints, with their units.
const DEFINITION: &str = include_str!("../../BENCHMARK.json");

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Repair worker threads (corpus, reduce_pool); defaults to the CPU
    /// count.
    pub threads: usize,
    pub bless: bool,
}

/// What one run measured.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Consistency checks beyond per-job goldens (trace attribution).
    pub checks_ok: bool,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub record: Record,
}

fn parse_args() -> Result<Args, String> {
    let nproc = measure::nproc();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut threads = nproc;
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => trace = value("--trace")? == "1",
            "--threads" => {
                threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--bless" => bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if threads == 0 || threads > nproc {
        return Err(format!(
            "--threads {threads} refused: this host has {nproc} CPU(s), and a run with more \
             threads than CPUs is not comparable"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        threads,
        bless,
    })
}

/// `(name, unit)` of every metric in one section of the definition.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let def = cpr_serve::json::parse(DEFINITION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(items)) = def.get(section) else {
        return Err(format!("BENCHMARK.json has no `{section}` list"));
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("BENCHMARK.json: malformed `{section}` entry"))
        })
        .collect()
}

/// The result line: every declared metric, in declaration order.
fn result_line(run: &RunResult, trace: bool) -> Result<String, String> {
    let (section, metrics) = if trace {
        ("per_layer", &run.per_layer)
    } else {
        ("end_to_end", &run.end_to_end)
    };
    let mut fields = Vec::new();
    for (name, unit) in declared(section)? {
        let value = match metrics.get(&name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("`{name}` measured {v}")),
            None if trace => 0.0,
            None => return Err(format!("workload did not measure `{name}`")),
        };
        let metric = Json::obj(vec![
            ("value", Json::Float(value)),
            ("unit", Json::Str(unit)),
        ]);
        fields.push((name, metric));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(run.failed == 0 && run.checks_ok)),
        ("attempted", Json::Int(run.attempted as i64)),
        ("failed", Json::Int(run.failed as i64)),
        ("metrics", Json::Obj(fields)),
    ])
    .to_line())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "corpus" => corpus::run(&args),
        "served" => served::run(&args),
        "reduce_pool" => reduce_pool::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (corpus, served, reduce_pool)"
        )),
    };
    let mut run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.bless {
        return ExitCode::SUCCESS;
    }
    let line = match result_line(&run, args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    run.record.int("failed", run.failed);
    run.record.int("attempted", run.attempted);
    println!("{}", run.record.to_line());
    println!("{line}");
    ExitCode::SUCCESS
}
