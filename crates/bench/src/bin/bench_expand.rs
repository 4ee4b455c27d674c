//! Expansion-phase benchmark: serial vs parallel `expand` (generational
//! search + path-reduction feasibility probes) with and without the
//! memoizing solver cache, against a 500-patch pool — the repair loop's
//! hot phase, where every explored path fans out into
//! `max_expansion × max_feasibility_probes` solver checks.
//!
//! The subject nests branches under implied guards (`x > 0` implies
//! `x > -5`), so many flipped prefixes have UNSAT patch-free skeletons:
//! exactly the pattern the skeleton check refutes with one query per flip.
//! Each round restarts the prefix-dedup set (as a fresh path exploration
//! would) while the cache persists — the steady state of the repair loop,
//! where later iterations re-derive refutations the cache already holds.
//!
//! Writes `BENCH_expand.json` into the current directory (the repo root
//! when run via `cargo run -p cpr-bench --bin bench_expand`).
//!
//! Every configuration must produce the *same* candidates, skip counts and
//! per-call statistics — the benchmark asserts bit-identical outcomes
//! before reporting timings.

use std::fmt::Write as _;
use std::time::Instant;

use cpr_bench::{comparable, json_speedup, speedup};
use cpr_concolic::{ConcolicExecutor, ConcolicResult, HolePatch, SeenPrefixes};
use cpr_core::{
    build_patch_pool, expand, test_input, ExpandStats, PoolEntry, RepairConfig, RepairProblem,
    Session,
};
use cpr_lang::{check, parse};
use cpr_smt::{Model, Region, Sort};
use cpr_synth::{AbstractPatch, ComponentSet, SynthConfig};

const SRC: &str = "program bench_expand {
    input x in [-100000, 100000];
    input y in [-100000, 100000];
    input z in [-100000, 100000];
    if (__patch_cond__(x, y, z)) { return 1; }
    var w: int = 0;
    if (x > 0) { if (x > -5) { w = 1; } } else { w = 2; }
    if (y > 0) { if (y > -5) { w = w + 10; } }
    if (z > 0) { if (z > -5) { w = w + 100; } }
    if (x + y > z) { w = w + 3; }
    if (x - y > z) { w = w + 5; }
    bug nonlinear_identity requires (x * y != z * z + 1);
    return w;
  }";

/// The pool probed by every configuration: the synthesized pool for the
/// subject, padded with shifted nonlinear families up to 500+ entries (the
/// same construction as `bench_reduce`, so feasibility probes replay hard
/// nonlinear queries).
fn build_pool(
    sess: &mut Session,
    problem: &RepairProblem,
    config: &RepairConfig,
) -> Vec<PoolEntry> {
    let (mut entries, _) = build_patch_pool(sess, problem, config);
    let synthesized = entries.len();
    let x = sess.pool.named_var("x", Sort::Int);
    let y = sess.pool.named_var("y", Sort::Int);
    let z = sess.pool.named_var("z", Sort::Int);
    let a_var = sess.pool.find_var("a").expect("synth param a");
    let b_var = sess.pool.find_var("b").expect("synth param b");
    let a = sess.pool.var_term(a_var);
    let b = sess.pool.var_term(b_var);
    let mut next_id = entries.iter().map(|e| e.patch.id).max().unwrap_or(0) + 1;
    let mut push = |entries: &mut Vec<PoolEntry>, theta, params: Vec<_>, region| {
        entries.push(PoolEntry::new(AbstractPatch::new(
            next_id, theta, params, region,
        )));
        next_id += 1;
    };
    // Five parity-hard guards, ranked top by their (synthetic) steady-state
    // evidence: `2·x·y + 2c != 2·z² + 2a + (2c + 1)`. The parent run took
    // the hole's else-branch, so re-targeting a flipped prefix at one of
    // these patches conjoins the *negated* guard — the equality, whose left
    // side is even and right side odd for every parameter value. No model
    // exists, but interval propagation cannot see parity, so each probe
    // deterministically exhausts the node budget: the expensive *recurring*
    // query shape the shared cache exists for (a capped `Unknown` is
    // deterministic and cacheable).
    let two = sess.pool.int(2);
    for c in 0..5i64 {
        let xy = sess.pool.mul(x, y);
        let zz = sess.pool.mul(z, z);
        let xy2 = sess.pool.mul(two, xy);
        let zz2 = sess.pool.mul(two, zz);
        let a2 = sess.pool.mul(two, a);
        let even_shift = sess.pool.int(2 * c);
        let odd_shift = sess.pool.int(2 * c + 1);
        let lhs = sess.pool.add(xy2, even_shift);
        let rhs_za = sess.pool.add(zz2, a2);
        let rhs = sess.pool.add(rhs_za, odd_shift);
        let eq = sess.pool.eq(lhs, rhs);
        let t = sess.pool.not(eq);
        push(
            &mut entries,
            t,
            vec![a_var],
            Region::full(vec![a_var], -10, 10),
        );
    }
    let mut c = 0i64;
    while entries.len() < 500 {
        let k = sess.pool.int(c);
        let xy = sess.pool.mul(x, y);
        let xyc = sess.pool.add(xy, k);
        let zz = sess.pool.mul(z, z);
        let ac = sess.pool.add(a, k);
        let bc = sess.pool.add(b, k);
        let rhs_a = sess.pool.add(zz, ac);
        let rhs_b = sess.pool.add(zz, bc);
        let t1 = sess.pool.eq(xyc, rhs_a);
        push(
            &mut entries,
            t1,
            vec![a_var],
            Region::full(vec![a_var], -10, 10),
        );
        let exb = sess.pool.eq(x, bc);
        let t2 = sess.pool.or(t1, exb);
        push(
            &mut entries,
            t2,
            vec![a_var, b_var],
            Region::full(vec![a_var, b_var], -10, 10),
        );
        let exa = sess.pool.eq(x, ac);
        let eb = sess.pool.eq(xyc, rhs_b);
        let t3 = sess.pool.or(exa, eb);
        push(
            &mut entries,
            t3,
            vec![a_var, b_var],
            Region::full(vec![a_var, b_var], -10, 10),
        );
        c += 1;
    }
    // The padded families carry accumulated ranking evidence, modelling the
    // repair loop's steady state: patches that mirror the violated
    // specification survive reduction and collect bug-hit rank, so the
    // feasibility probes of later iterations replay exactly these hard
    // nonlinear queries. The parity guards rank above the satisfiable
    // families, so every probed flip pays the hard queries before the
    // easy SAT witness.
    for (i, e) in entries[synthesized..].iter_mut().enumerate() {
        if i < 5 {
            e.score.feasible = 4;
            e.score.bug_hits = 2;
        } else {
            e.score.feasible = 2;
            e.score.bug_hits = 1;
        }
    }
    entries
}

/// One parent run per partition of the outer branching; paths are long
/// enough that each `expand` call fans a dozen-plus flips across the
/// workers.
fn runs_for(sess: &mut Session, problem: &RepairProblem) -> Vec<ConcolicResult> {
    let theta_exec = sess.pool.ff();
    let patch = HolePatch {
        theta: theta_exec,
        params: Model::new(),
    };
    let exec = ConcolicExecutor::new();
    [(1, 1, 0), (7, -2, 3), (-4, 5, 2), (-1, -1, 0)]
        .iter()
        .map(|&(xv, yv, zv)| {
            let mut input = Model::new();
            input.set(sess.pool.find_var("x").unwrap(), xv);
            input.set(sess.pool.find_var("y").unwrap(), yv);
            input.set(sess.pool.find_var("z").unwrap(), zv);
            exec.execute(&mut sess.pool, &problem.program, &input, Some(&patch))
        })
        .collect()
}

struct Outcome {
    label: String,
    threads: usize,
    cache_capacity: usize,
    millis: f64,
    stats: Vec<ExpandStats>,
    snapshot: String,
    queries: u64,
    cache_hits: u64,
    cache_misses: u64,
    base_unsat_skips: u64,
    model_reuse_hits: u64,
    paths_skipped: usize,
    candidates: usize,
}

fn run_config(label: &str, threads: usize, cache_capacity: usize, rounds: usize) -> Outcome {
    let program = parse(SRC).unwrap();
    check(&program).unwrap();
    let problem = RepairProblem::new(
        "bench_expand",
        program,
        ComponentSet::new()
            .with_all_comparisons()
            .with_logic()
            .with_variables(["x", "y", "z"]),
        SynthConfig::default(),
        vec![test_input(&[("x", 7), ("y", 0)])],
    );
    let mut config = RepairConfig::quick();
    config.threads = threads;
    config.solver.cache_capacity = cache_capacity;
    // Long paths: let every flip through to the probe stage.
    config.max_expansion = 16;
    // Bound the per-query search: the nonlinear probes make single queries
    // arbitrarily hard for branch-and-prune, and a budget-capped verdict
    // (`Unknown`) is still deterministic and cacheable.
    config.solver.max_nodes = 4_000;

    let mut sess = Session::new(&problem, &config);
    let entries = build_pool(&mut sess, &problem, &config);
    let pool_size = entries.len();
    assert!(pool_size >= 500, "pool too small: {pool_size}");
    let runs = runs_for(&mut sess, &problem);

    let mut stats = Vec::new();
    let mut snapshot = String::new();
    let mut paths_skipped = 0usize;
    let mut candidates = 0usize;
    let start = Instant::now();
    for _ in 0..rounds {
        // A fresh dedup set per round (as each new explored path would
        // have); the solver cache persists.
        let mut seen = SeenPrefixes::new();
        for run in &runs {
            let out = expand(&mut sess, &entries, run, &mut seen, &config);
            paths_skipped += out.paths_skipped;
            candidates += out.candidates.len();
            for c in &out.candidates {
                let _ = writeln!(
                    snapshot,
                    "score={} flip={} model={:?}",
                    c.score, c.flipped_index, c.model
                );
            }
            let _ = writeln!(snapshot, "skipped={}", out.paths_skipped);
            stats.push(out.stats);
        }
    }
    let millis = start.elapsed().as_secs_f64() * 1e3;

    let solver_stats = sess.solver.stats();
    let agg = |f: fn(&ExpandStats) -> u64| stats.iter().map(f).sum::<u64>();
    let out = Outcome {
        label: label.to_owned(),
        threads,
        cache_capacity,
        millis,
        snapshot,
        queries: solver_stats.queries,
        cache_hits: solver_stats.cache_hits,
        cache_misses: solver_stats.cache_misses,
        base_unsat_skips: agg(|s| s.base_unsat_skips),
        model_reuse_hits: agg(|s| s.model_reuse_hits),
        paths_skipped,
        candidates,
        stats,
    };
    eprintln!(
        "[bench_expand] {label}: {} expand calls, {:.0} ms, {} queries \
         ({} sat / {} unsat / {} unknown, {} nodes), {} hits / {} misses, \
         {} skeleton skips, {} model reuses, \
         {} candidates, {} skips, {} flips",
        out.stats.len(),
        millis,
        out.queries,
        solver_stats.sat,
        solver_stats.unsat,
        solver_stats.unknown,
        solver_stats.nodes,
        out.cache_hits,
        out.cache_misses,
        out.base_unsat_skips,
        out.model_reuse_hits,
        out.candidates,
        out.paths_skipped,
        out.stats.iter().map(|s| s.flips_expanded).sum::<usize>()
    );
    out
}

fn main() {
    let rounds: usize = std::env::var("CPR_BENCH_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .max(1);
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let par_threads = cpus.max(4);
    let cache = 1 << 15;

    let serial_nocache = run_config("serial-nocache", 1, 0, rounds);
    let serial_cache = run_config("serial-cache", 1, cache, rounds);
    let parallel_cache = run_config("parallel-cache", par_threads, cache, rounds);

    // Bit-identical outcomes across all configurations (the cache and the
    // worker pool are semantically transparent; the per-call stats include
    // solver-call counts, so this also pins the query stream itself).
    for other in [&serial_cache, &parallel_cache] {
        assert_eq!(
            serial_nocache.stats, other.stats,
            "ExpandStats diverged in {}",
            other.label
        );
        assert_eq!(
            serial_nocache.snapshot, other.snapshot,
            "candidates/skips diverged in {}",
            other.label
        );
        assert_eq!(serial_nocache.queries, other.queries);
    }
    assert!(
        serial_nocache.base_unsat_skips > 0,
        "benchmark must exercise the skeleton check"
    );

    // Only a row whose thread count fits the host yields a speedup; a
    // 4-thread row timed on fewer CPUs is reported as `null`.
    let speedup = speedup(
        serial_nocache.millis,
        parallel_cache.millis,
        parallel_cache.threads,
        cpus,
    );
    let hit_rate = parallel_cache.cache_hits as f64
        / (parallel_cache.cache_hits + parallel_cache.cache_misses).max(1) as f64;

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"expand\",");
    let _ = writeln!(json, "  \"pool_size\": 500,");
    let _ = writeln!(json, "  \"expand_calls\": {},", serial_nocache.stats.len());
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"identical_outcomes\": true,");
    let _ = writeln!(json, "  \"candidates\": {},", serial_nocache.candidates);
    let _ = writeln!(
        json,
        "  \"paths_skipped\": {},",
        serial_nocache.paths_skipped
    );
    let _ = writeln!(
        json,
        "  \"base_unsat_skips\": {},",
        serial_nocache.base_unsat_skips
    );
    let _ = writeln!(
        json,
        "  \"model_reuse_hits\": {},",
        serial_nocache.model_reuse_hits
    );
    let _ = writeln!(json, "  \"configs\": [");
    let outs = [&serial_nocache, &serial_cache, &parallel_cache];
    for (i, o) in outs.iter().enumerate() {
        let comma = if i + 1 < outs.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"label\": \"{}\", \"threads\": {}, \"cache_capacity\": {}, \
             \"millis\": {:.1}, \"solver_queries\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"comparable\": {}}}{comma}",
            o.label,
            o.threads,
            o.cache_capacity,
            o.millis,
            o.queries,
            o.cache_hits,
            o.cache_misses,
            comparable(o.threads, cpus)
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"speedup_parallel_cache_vs_serial_nocache\": {},",
        json_speedup(speedup)
    );
    let _ = writeln!(json, "  \"cache_hit_rate\": {hit_rate:.4}");
    json.push_str("}\n");

    std::fs::write("BENCH_expand.json", &json).expect("write BENCH_expand.json");
    println!("{json}");
    println!(
        "expand phase: {:.1} ms serial/no-cache vs {:.1} ms parallel/cache \
         (speedup {}, {:.1}% cache hits, {} threads on {cpus} cpu(s))",
        serial_nocache.millis,
        parallel_cache.millis,
        json_speedup(speedup),
        hit_rate * 100.0,
        parallel_cache.threads
    );
}
