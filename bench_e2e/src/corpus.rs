//! `corpus`: full `repair()` of every runnable registry subject except
//! SV-COMP/loops/sum (42 subjects), one at a time, under
//! `RepairConfig::default()` with a 60-iteration budget and no wall-clock
//! cutoff — what a `cpr repair` user runs.
//!
//! The traced pass wraps the driver's public calls: `with_metrics`
//! (synthesis), each `step`, and `finish` (ranking). Reduce and expand time
//! inside a step come from the driver's `reduce.phase_nanos` and
//! `expand.phase_nanos` histogram sums on the traced pass's own registry;
//! `cpr_synth::enumerate` runs once more on a scratch pool to split
//! enumeration from validation. SV-COMP/loops/sum, kept out of the timed
//! pass because its Phase-1 validation alone outweighs the rest of the
//! corpus, is synthesized once in the traced run for its split.

use std::time::Instant;

use cpr_core::{RepairConfig, RepairDriver, RepairProblem, RepairReport, StepStatus};
use cpr_obs::{MetricsRegistry, MetricsSnapshot};
use cpr_serve::report_to_json;
use cpr_subjects::{all_subjects, Benchmark, Subject};

use crate::measure::{self, histogram, median, quantile, secs, Goldens, Metrics};
use crate::{Args, RunResult};

/// Iteration budget of every corpus subject.
const MAX_ITERATIONS: usize = 60;

/// Times the subject problems are rebuilt to measure `setup_s`.
const SETUP_REPS: usize = 51;

fn is_loops_sum(s: &Subject) -> bool {
    s.benchmark == Benchmark::SvComp && s.bug_id == "loops/sum"
}

/// The timed corpus: runnable subjects minus SV-COMP/loops/sum, in
/// registry order.
fn subjects() -> Vec<Subject> {
    all_subjects()
        .into_iter()
        .filter(|s| !s.not_supported && !is_loops_sum(s))
        .collect()
}

fn config(threads: usize) -> RepairConfig {
    RepairConfig {
        max_iterations: MAX_ITERATIONS,
        max_millis: None,
        threads,
        metrics: false,
        ..RepairConfig::default()
    }
}

fn fingerprint(report: &RepairReport) -> String {
    measure::outcome_key(&report_to_json(report))
}

struct Pass {
    wall: f64,
    latencies_ms: Vec<f64>,
    reports: Vec<RepairReport>,
}

fn untraced_pass(problems: &[RepairProblem], config: &RepairConfig) -> Pass {
    let inputs: Vec<(RepairProblem, RepairConfig)> = problems
        .iter()
        .map(|p| (p.clone(), config.clone()))
        .collect();
    let mut latencies_ms = Vec::with_capacity(inputs.len());
    let mut reports = Vec::with_capacity(inputs.len());
    let start = Instant::now();
    for (problem, config) in inputs {
        let t0 = Instant::now();
        let mut driver = RepairDriver::new(problem, config);
        while driver.step() == StepStatus::Running {}
        reports.push(driver.finish());
        latencies_ms.push(secs(t0.elapsed()) * 1e3);
    }
    Pass {
        wall: secs(start.elapsed()),
        latencies_ms,
        reports,
    }
}

/// Layer totals of one traced pass.
#[derive(Default)]
struct Trace {
    wall: f64,
    synth: f64,
    synth_solver: f64,
    steps_ms: Vec<f64>,
    finish: f64,
    snapshot: MetricsSnapshot,
    reports: Vec<RepairReport>,
}

fn traced_pass(problems: &[RepairProblem], config: &RepairConfig) -> Trace {
    let inputs: Vec<(RepairProblem, RepairConfig)> = problems
        .iter()
        .map(|p| (p.clone(), config.clone()))
        .collect();
    let registry = MetricsRegistry::new();
    let solve_ns = || histogram(&registry.snapshot(), "solver.solve_nanos").1;
    let mut t = Trace::default();
    let start = Instant::now();
    for (problem, config) in inputs {
        let solve_before = solve_ns();
        let t0 = Instant::now();
        let mut driver = RepairDriver::with_metrics(problem, config, &registry);
        t.synth += secs(t0.elapsed());
        t.synth_solver += (solve_ns() - solve_before) as f64 / 1e9;
        loop {
            let t0 = Instant::now();
            let status = driver.step();
            t.steps_ms.push(secs(t0.elapsed()) * 1e3);
            if status != StepStatus::Running {
                break;
            }
        }
        let t0 = Instant::now();
        t.reports.push(driver.finish());
        t.finish += secs(t0.elapsed());
    }
    t.wall = secs(start.elapsed());
    t.snapshot = registry.snapshot();
    t
}

fn check_reports(goldens: &mut Goldens, reports: &[RepairReport]) -> u64 {
    reports
        .iter()
        .filter(|r| !goldens.check(&r.subject, &fingerprint(r)))
        .count() as u64
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut order = subjects();
    measure::shuffle(&mut order, args.seed);
    let config = config(args.threads);
    let mut goldens = Goldens::new("corpus", args.bless);

    // Setup: parse and check every subject, several times for a median.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut problems = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        problems = order.iter().map(Subject::problem).collect();
        setups.push(secs(t0.elapsed()));
    }

    let seconds = if args.bless { 0.0 } else { args.seconds };
    let (passes, peak_rss_mb) = measure::passes(seconds, |_| {
        let pass = untraced_pass(&problems, &config);
        let wall = pass.wall;
        Ok((pass, wall))
    })?;
    let mut failed = 0;
    for pass in &passes {
        failed += check_reports(&mut goldens, &pass.reports);
    }
    let mut attempted = (passes.len() * problems.len()) as u64;

    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let reports = &passes[0].reports;
    let reduction = reports
        .iter()
        .map(|r| 1.0 - r.p_final as f64 / (r.p_init as f64).max(1.0))
        .sum::<f64>()
        / reports.len() as f64;

    let mut e2e = Metrics::default();
    let wall = median(&walls);
    e2e.set("wall_s", wall);
    e2e.set("job_p50_ms", quantile(&latencies, 0.50));
    e2e.set("job_p75_ms", quantile(&latencies, 0.75));
    e2e.set("jobs_per_s", problems.len() as f64 / wall);
    e2e.set("setup_s", median(&setups));
    e2e.set("peak_rss_mb", peak_rss_mb);
    e2e.set("reduction_pct", reduction * 100.0);

    let mut record = measure::base_record(args, config.threads);
    record.int("max_iterations", MAX_ITERATIONS as u64);
    record.int("subjects", problems.len() as u64);
    record.int("passes", passes.len() as u64);
    record.int("job_samples", latencies.len() as u64);
    record.int("setup_samples", setups.len() as u64);
    record.nums("pass_wall_s", &walls);

    let mut layers = Metrics::default();
    let mut checks_ok = true;
    if args.trace && !args.bless {
        let t = traced_pass(&problems, &config);
        failed += check_reports(&mut goldens, &t.reports);
        attempted += problems.len() as u64;
        checks_ok = trace_layers(&mut layers, &t, &problems, wall);
        loops_sum(&mut layers, &config);
        record.int("step_samples", t.steps_ms.len() as u64);
        record.num("traced_wall_s", t.wall);
        record.text(
            "unobserved",
            "reduce.call_p50_ms: reduce runs inside driver steps",
        );
    }
    Ok(RunResult {
        attempted,
        failed,
        checks_ok,
        end_to_end: e2e,
        per_layer: layers,
        record,
    })
}

/// Fills the per-layer metrics from a traced pass; returns whether the
/// attribution checks hold.
fn trace_layers(
    m: &mut Metrics,
    t: &Trace,
    problems: &[RepairProblem],
    untraced_wall: f64,
) -> bool {
    let step_s = t.steps_ms.iter().sum::<f64>() / 1e3;
    measure::repair_layers(
        m,
        &t.snapshot,
        t.synth,
        step_s,
        measure::enumerate(problems),
    );
    m.set("synthesize.solver_s", t.synth_solver);
    m.set("driver.steps", t.steps_ms.len() as f64);
    m.set("driver.step_p50_ms", quantile(&t.steps_ms, 0.50));
    m.set("driver.step_p98_ms", quantile(&t.steps_ms, 0.98));
    m.set("rank.finish_s", t.finish);
    m.set(
        "rank.dev_top10",
        t.reports
            .iter()
            .filter(|r| r.dev_rank.is_some_and(|k| k <= 10))
            .count() as f64,
    );

    let other_s = m.get("driver.other_s").unwrap_or(0.0);
    let attributed = (t.synth + step_s + t.finish) / t.wall;
    m.set("trace.attributed_share", attributed);
    m.set("trace.overhead_pct", (t.wall / untraced_wall - 1.0) * 100.0);
    let ok = attributed >= 0.95 && other_s >= 0.0;
    if !ok {
        eprintln!(
            "bench_e2e: attribution check failed: {:.1}% of the traced pass attributed, \
             driver.other_s = {other_s:.3}",
            attributed * 100.0
        );
    }
    ok
}

/// Synthesizes SV-COMP/loops/sum once and records its Phase-1 split.
fn loops_sum(m: &mut Metrics, config: &RepairConfig) {
    let Some(subject) = all_subjects().into_iter().find(is_loops_sum) else {
        return;
    };
    let problem = subject.problem();
    let (_, enumerate_s) = measure::enumerate([&problem]);
    let registry = MetricsRegistry::new();
    let t0 = Instant::now();
    let driver = RepairDriver::with_metrics(problem, config.clone(), &registry);
    let synth = secs(t0.elapsed());
    drop(driver);
    m.set("sum.synthesize_s", synth);
    m.set("sum.enumerate_s", enumerate_s);
    m.set("sum.validate_s", (synth - enumerate_s).max(0.0));
    m.set(
        "sum.solver_s",
        histogram(&registry.snapshot(), "solver.solve_nanos").1 as f64 / 1e9,
    );
}
