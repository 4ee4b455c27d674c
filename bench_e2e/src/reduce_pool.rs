//! `reduce_pool`: `reduce()` (Algorithm 2) called directly on a 500-patch
//! pool with a nonlinear specification, over the four partitions of its
//! `(x > 0) × (y > 0)` branching, for a fixed number of rounds.
//!
//! Synthesis, the executor, expansion and serving do no work here; the
//! solver's cache, frames and screen carry the load, and many fresh
//! queries run into the 4000-node search budget. A "job" is one `reduce()`
//! call.

use std::fmt::Write as _;
use std::time::Instant;

use cpr_concolic::{ConcolicExecutor, ConcolicResult, HolePatch};
use cpr_core::{
    build_patch_pool, reduce, test_input, PoolEntry, ReduceStats, RepairConfig, RepairProblem,
    Session,
};
use cpr_obs::MetricsRegistry;
use cpr_smt::{Model, Region, Sort};
use cpr_synth::{AbstractPatch, ComponentSet, SynthConfig};

use crate::measure::{self, median, quantile, secs, Goldens, Metrics};
use crate::{Args, RunResult};

const SRC: &str = "program bench_reduce {
    input x in [-100000, 100000];
    input y in [-100000, 100000];
    input z in [-100000, 100000];
    if (__patch_cond__(x, y, z)) { return 1; }
    var w: int = 0;
    if (x > 0) { w = 1; } else { w = 2; }
    if (y > 0) { w = w + 10; }
    bug nonlinear_identity requires (x * y != z * z + 1);
    return w;
  }";

/// Pool size the synthesized pool is padded up to.
const POOL_TARGET: usize = 500;

/// Rounds over the four partitions per pass: the first visits run cold,
/// later ones replay the converged query stream through the cache.
const ROUNDS: usize = 3;

/// Setups timed for `setup_s`, besides each pass's own.
const SETUP_REPS: usize = 8;

/// One input per partition of the `(x > 0) × (y > 0)` branching; two of
/// the four violate the specification.
const PARTITIONS: [(i64, i64, i64); 4] = [(1, 1, 0), (7, -2, 3), (-4, 5, 2), (-1, -1, 0)];

fn problem() -> RepairProblem {
    let program = cpr_lang::parse(SRC).expect("reduce_pool program parses");
    cpr_lang::check(&program).expect("reduce_pool program checks");
    RepairProblem::new(
        "reduce_pool",
        program,
        ComponentSet::new()
            .with_all_comparisons()
            .with_logic()
            .with_variables(["x", "y", "z"]),
        SynthConfig::default(),
        vec![test_input(&[("x", 7), ("y", 0)])],
    )
}

fn config(threads: usize) -> RepairConfig {
    let mut config = RepairConfig::quick();
    config.threads = threads;
    // Bounds the per-query search: the nonlinear spec makes single
    // queries arbitrarily hard, and a budget-capped `Unknown` verdict is
    // still deterministic.
    config.solver.max_nodes = 4_000;
    // A cache that holds a whole round's distinct queries, so later rounds
    // replay the steady-state query stream from it.
    config.solver.cache_capacity = 1 << 15;
    config
}

/// The synthesized pool padded with shifted families of the nonlinear
/// identity. Each family member is a distinct term with the same meaning,
/// so entries never share cache keys, and each has parameter values that
/// cover every violation of `x*y != z*z + 1`: refinement narrows the
/// regions instead of emptying them and the pool keeps its size.
fn build_pool(
    sess: &mut Session,
    problem: &RepairProblem,
    config: &RepairConfig,
) -> Vec<PoolEntry> {
    let (mut entries, _) = build_patch_pool(sess, problem, config);
    let p = &mut sess.pool;
    let (x, y, z) = (
        p.named_var("x", Sort::Int),
        p.named_var("y", Sort::Int),
        p.named_var("z", Sort::Int),
    );
    let a_var = p.find_var("a").expect("synthesis parameter a");
    let b_var = p.find_var("b").expect("synthesis parameter b");
    let (a, b) = (p.var_term(a_var), p.var_term(b_var));
    let mut next_id = entries.iter().map(|e| e.patch.id).max().unwrap_or(0) + 1;
    let mut c = 0i64;
    while entries.len() < POOL_TARGET {
        let k = p.int(c);
        let xy = p.mul(x, y);
        let xyc = p.add(xy, k);
        let zz = p.mul(z, z);
        let ac = p.add(a, k);
        let bc = p.add(b, k);
        let rhs_a = p.add(zz, ac);
        let rhs_b = p.add(zz, bc);
        // x*y + c == z*z + (a + c), survives at a = 1.
        let t1 = p.eq(xyc, rhs_a);
        // ... || x == b + c, survives on a = 1.
        let exb = p.eq(x, bc);
        let t2 = p.or(t1, exb);
        // x == a + c || x*y + c == z*z + (b + c), survives on b = 1.
        let exa = p.eq(x, ac);
        let eb = p.eq(xyc, rhs_b);
        let t3 = p.or(exa, eb);
        for (theta, params) in [
            (t1, vec![a_var]),
            (t2, vec![a_var, b_var]),
            (t3, vec![a_var, b_var]),
        ] {
            let region = Region::full(params.clone(), -10, 10);
            entries.push(PoolEntry::new(AbstractPatch::new(
                next_id, theta, params, region,
            )));
            next_id += 1;
        }
        c += 1;
    }
    entries
}

fn partition_runs(sess: &mut Session, problem: &RepairProblem) -> Vec<ConcolicResult> {
    let patch = HolePatch {
        theta: sess.pool.ff(),
        params: Model::new(),
    };
    let exec = ConcolicExecutor::new();
    PARTITIONS
        .iter()
        .map(|&(xv, yv, zv)| {
            let mut input = Model::new();
            for (name, v) in [("x", xv), ("y", yv), ("z", zv)] {
                input.set(sess.pool.find_var(name).expect("input var"), v);
            }
            exec.execute(&mut sess.pool, &problem.program, &input, Some(&patch))
        })
        .collect()
}

fn volume(entries: &[PoolEntry]) -> u128 {
    entries.iter().map(|e| e.patch.concrete_count()).sum()
}

/// One pass's timings and outcome; the session and pool are dropped at
/// the end of the pass so peak memory does not grow with the pass count.
struct Pass {
    setup: f64,
    wall: f64,
    calls_ms: Vec<f64>,
    stats: Vec<ReduceStats>,
    outcome: String,
    pool_after: usize,
    reduction: f64,
    queries: u64,
}

type Setup = (Session, Vec<PoolEntry>, Vec<ConcolicResult>);

/// Setup: the session, the padded pool and the partition runs.
fn setup(
    problem: &RepairProblem,
    config: &RepairConfig,
    registry: &MetricsRegistry,
) -> (Setup, f64) {
    let t0 = Instant::now();
    let mut sess = Session::with_metrics(problem, config, registry);
    let entries = build_pool(&mut sess, problem, config);
    let runs = partition_runs(&mut sess, problem);
    ((sess, entries, runs), secs(t0.elapsed()))
}

fn pass(problem: &RepairProblem, config: &RepairConfig, registry: &MetricsRegistry) -> Pass {
    let ((mut sess, mut entries, runs), setup) = setup(problem, config, registry);
    let volume_before = volume(&entries);

    let mut calls_ms = Vec::with_capacity(ROUNDS * runs.len());
    let mut stats = Vec::with_capacity(ROUNDS * runs.len());
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for run in &runs {
            let t0 = Instant::now();
            stats.push(reduce(&mut sess, &mut entries, run, config));
            calls_ms.push(secs(t0.elapsed()) * 1e3);
        }
    }
    let wall = secs(start.elapsed());
    Pass {
        setup,
        wall,
        outcome: outcome(&entries, &stats),
        calls_ms,
        stats,
        pool_after: entries.len(),
        reduction: 1.0 - volume(&entries) as f64 / volume_before as f64,
        queries: sess.solver.stats().queries,
    }
}

/// What the golden digest pins: the pool after the pass and what each call
/// did to it, without the query accounting solver-layer changes may move.
fn outcome(entries: &[PoolEntry], stats: &[ReduceStats]) -> String {
    let mut s = String::new();
    for e in entries {
        let _ = writeln!(
            s,
            "{} {:?} {} {} {}",
            e.patch.id,
            e.patch.constraint,
            e.score.feasible,
            e.score.bug_hits,
            e.score.deletion_evidence
        );
    }
    for st in stats {
        let _ = writeln!(s, "{} {} {}", st.refined, st.removed, st.feasible);
    }
    s
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let problem = problem();
    let config = config(args.threads);
    let mut goldens = Goldens::new("reduce_pool", args.bless);
    let untraced = MetricsRegistry::disabled();

    let mut setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| setup(&problem, &config, &untraced).1)
        .collect();
    let seconds = if args.bless { 0.0 } else { args.seconds };
    let (passes, peak_rss_mb) = measure::passes(seconds, |_| {
        let p = pass(&problem, &config, &untraced);
        let wall = p.wall;
        Ok((p, wall))
    })?;
    let mut failed = passes
        .iter()
        .filter(|p| !goldens.check("pool", &p.outcome))
        .count() as u64;
    let calls_per_pass = passes[0].calls_ms.len();
    let mut attempted = (passes.len() * calls_per_pass) as u64;

    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    setups.extend(passes.iter().map(|p| p.setup));
    let calls: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.calls_ms.iter().copied())
        .collect();
    let first = &passes[0];
    let wall = median(&walls);
    let mut e2e = Metrics::default();
    e2e.set("wall_s", wall);
    e2e.set("job_p50_ms", quantile(&calls, 0.50));
    e2e.set("job_p75_ms", quantile(&calls, 0.75));
    e2e.set("jobs_per_s", calls_per_pass as f64 / wall);
    e2e.set("setup_s", median(&setups));
    e2e.set("peak_rss_mb", peak_rss_mb);
    e2e.set("reduction_pct", first.reduction * 100.0);

    let mut record = measure::base_record(args, config.threads);
    record.int("pool_target", POOL_TARGET as u64);
    record.int("pool_after", first.pool_after as u64);
    record.int("rounds", ROUNDS as u64);
    record.int("passes", passes.len() as u64);
    record.int("job_samples", calls.len() as u64);
    record.int("setup_samples", setups.len() as u64);
    record.int("solver_queries", first.queries);
    record.nums("pass_wall_s", &walls);

    let mut layers = Metrics::default();
    if args.trace && !args.bless {
        let registry = MetricsRegistry::new();
        let t = pass(&problem, &config, &registry);
        if !goldens.check("pool", &t.outcome) {
            failed += 1;
        }
        attempted += t.calls_ms.len() as u64;
        let snap = registry.snapshot();
        let reduce_s = t.calls_ms.iter().sum::<f64>() / 1e3;
        layers.set("reduce.busy_s", reduce_s);
        layers.set("reduce.calls", t.calls_ms.len() as f64);
        layers.set("reduce.call_p50_ms", quantile(&t.calls_ms, 0.50));
        layers.set(
            "reduce.patches_dropped",
            t.stats.iter().map(|s| s.removed).sum::<usize>() as f64,
        );
        layers.set(
            "reduce.patches_refined",
            t.stats.iter().map(|s| s.refined).sum::<usize>() as f64,
        );
        let screened = t.stats.iter().map(|s| s.screened).sum();
        measure::solver_layers(&mut layers, &snap, screened);
        layers.set("trace.attributed_share", reduce_s / t.wall);
        layers.set("trace.overhead_pct", (t.wall / wall - 1.0) * 100.0);
        record.num("traced_wall_s", t.wall);
    }
    Ok(RunResult {
        attempted,
        failed,
        checks_ok: true,
        end_to_end: e2e,
        per_layer: layers,
        record,
    })
}
