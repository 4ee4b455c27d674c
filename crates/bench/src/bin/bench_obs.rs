//! Observability-overhead benchmark: the reduce-phase workload of
//! `bench_reduce` (a 500+ patch pool walked over repeated partitions),
//! once with metrics recording into a live registry and once with the
//! disabled registry — the configuration `RepairConfig::metrics = false`
//! selects, where every record call is a no-op and timers never read the
//! clock.
//!
//! Both configurations must produce bit-identical pools and statistics
//! (the instrumentation is write-only), and the enabled run must cost
//! less than 3% extra wall time. One sample is a *pair*: the workload on
//! a fresh session with metrics off and on a fresh session with metrics
//! on, advanced in lockstep one `reduce` call at a time. Which side runs a
//! call first follows an ABBA pattern over each round's partitions,
//! reversed every other round and every other pair, because the leader of
//! two back-to-back runs reads slower. Each pair yields one paired
//! overhead `on / off - 1` over its summed times, and the gate reads the
//! median over `CPR_BENCH_PAIRS` pairs (default 6, an even count so each
//! side starts half of them), so drift and a noisy neighbour hit both
//! halves of a pair alike and no single pair decides it. `--check` turns
//! the bound into a hard assertion (exit non-zero), which is how CI runs
//! it.
//!
//! Writes `BENCH_obs.json` (every pair, the quartiles and the CPU count)
//! into the current directory.

use std::fmt::Write as _;
use std::time::Instant;

use cpr_bench::quantile;
use cpr_concolic::{ConcolicExecutor, ConcolicResult};
use cpr_core::{
    build_patch_pool, reduce, test_input, PoolEntry, ReduceStats, RepairConfig, RepairProblem,
    Session,
};
use cpr_lang::{check, parse};
use cpr_obs::MetricsRegistry;
use cpr_smt::{Region, Sort};
use cpr_synth::{AbstractPatch, ComponentSet, SynthConfig};

const SRC: &str = "program bench_obs {
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

/// Pads the synthesized pool with shifted comparison families up to 500+
/// entries (the `bench_reduce` pool shape: distinct terms, identical
/// semantics, so refinement narrows instead of emptying).
fn build_pool(
    sess: &mut Session,
    problem: &RepairProblem,
    config: &RepairConfig,
) -> Vec<PoolEntry> {
    let (mut entries, _) = build_patch_pool(sess, problem, config);
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
    entries
}

/// One side of the comparison: a session recording metrics or not, its
/// pool, the partitions it reduces against and the statistics so far.
struct Side {
    registry: MetricsRegistry,
    sess: Session,
    config: RepairConfig,
    entries: Vec<PoolEntry>,
    runs: Vec<ConcolicResult>,
    stats: Vec<ReduceStats>,
}

impl Side {
    fn new(enabled: bool) -> Side {
        let program = parse(SRC).unwrap();
        check(&program).unwrap();
        let problem = RepairProblem::new(
            "bench_obs",
            program,
            ComponentSet::new()
                .with_all_comparisons()
                .with_logic()
                .with_variables(["x", "y", "z"]),
            SynthConfig::default(),
            vec![test_input(&[("x", 7), ("y", 0)])],
        );
        let mut config = RepairConfig::quick();
        config.solver.cache_capacity = 1 << 15;
        config.solver.max_nodes = 4_000;

        // A fresh registry per side: the enabled one records, the disabled
        // one is exactly what `RepairConfig::metrics = false` wires in.
        let registry = if enabled {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        };
        let mut sess = Session::with_metrics(&problem, &config, &registry);
        let entries = build_pool(&mut sess, &problem, &config);
        assert!(entries.len() >= 500, "pool too small: {}", entries.len());

        // One run per partition of the (x > 0) x (y > 0) branching.
        let runs = [(1, 1, 0), (7, -2, 3), (-4, 5, 2), (-1, -1, 0)]
            .iter()
            .map(|&(xv, yv, zv)| {
                let patch = cpr_concolic::HolePatch {
                    theta: sess.pool.ff(),
                    params: cpr_smt::Model::new(),
                };
                let mut input = cpr_smt::Model::new();
                input.set(sess.pool.find_var("x").unwrap(), xv);
                input.set(sess.pool.find_var("y").unwrap(), yv);
                input.set(sess.pool.find_var("z").unwrap(), zv);
                ConcolicExecutor::new().execute(
                    &mut sess.pool,
                    &problem.program,
                    &input,
                    Some(&patch),
                )
            })
            .collect();
        Side {
            registry,
            sess,
            config,
            entries,
            runs,
            stats: Vec::new(),
        }
    }

    /// Reduces against partition `k`; returns the wall time in ms.
    fn reduce(&mut self, k: usize) -> f64 {
        let start = Instant::now();
        let stats = reduce(
            &mut self.sess,
            &mut self.entries,
            &self.runs[k],
            &self.config,
        );
        let millis = start.elapsed().as_secs_f64() * 1e3;
        self.stats.push(stats);
        millis
    }

    /// Everything the instrumentation must not change: the pool's entries,
    /// constraints and scores.
    fn snapshot(&self) -> String {
        let mut snapshot = String::new();
        for e in &self.entries {
            let _ = writeln!(
                snapshot,
                "{} {:?} {} {} {}",
                e.patch.id,
                e.patch.constraint,
                e.score.feasible,
                e.score.bug_hits,
                e.score.deletion_evidence
            );
        }
        snapshot
    }

    /// Latency samples the `solver.solve_nanos` histogram recorded.
    fn samples(&self) -> u64 {
        self.registry
            .snapshot()
            .histograms
            .iter()
            .find(|h| h.name == "solver.solve_nanos")
            .map(|h| h.count)
            .unwrap_or(0)
    }
}

/// The workload timed with metrics off and on, interleaved call by call;
/// `on_first` tells whether metrics-on ran the pair's first call first.
struct Pair {
    off_ms: f64,
    on_ms: f64,
    on_first: bool,
}

impl Pair {
    fn overhead(&self) -> f64 {
        self.on_ms / self.off_ms - 1.0
    }
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let env = |name: &str, default: usize| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let rounds = env("CPR_BENCH_ROUNDS", 4).max(1);
    let pair_count = env("CPR_BENCH_PAIRS", 6).max(1);
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut pairs: Vec<Pair> = Vec::new();
    let mut reference: Option<(String, Vec<ReduceStats>, u64)> = None;
    for i in 0..pair_count {
        let (mut off, mut on) = (Side::new(false), Side::new(true));
        // The sessions advance in lockstep, one reduce call at a time. Of
        // two back-to-back runs of a call on a 2-CPU host the leader reads
        // up to ~10% slower, so the lead follows an ABBA pattern over each
        // round's partitions (whose calls cost about the same), reversed
        // every other round and every other pair.
        let n = off.runs.len();
        let on_leads = |call: usize| {
            let k = call % n;
            (i + call / n + k.div_ceil(2)) % 2 == 1
        };
        let (mut off_ms, mut on_ms) = (0.0, 0.0);
        for call in 0..rounds * n {
            let k = call % n;
            if on_leads(call) {
                on_ms += on.reduce(k);
                off_ms += off.reduce(k);
            } else {
                off_ms += off.reduce(k);
                on_ms += on.reduce(k);
            }
        }
        let on_first = on_leads(0);
        let p = Pair {
            off_ms,
            on_ms,
            on_first,
        };
        eprintln!(
            "[bench_obs] pair {i}: {:.0} ms off, {:.0} ms on ({:+.2}%, {} started)",
            p.off_ms,
            p.on_ms,
            p.overhead() * 100.0,
            if on_first { "on" } else { "off" }
        );
        pairs.push(p);

        let queries = off.sess.solver.stats().queries;
        assert_eq!(
            off.stats, on.stats,
            "metrics recording changed ReduceStats (pair {i})"
        );
        assert_eq!(
            off.snapshot(),
            on.snapshot(),
            "metrics recording changed the pool (pair {i})"
        );
        assert_eq!(queries, on.sess.solver.stats().queries);
        assert_eq!(
            on.samples(),
            queries,
            "every solver query must land one latency sample"
        );
        let outcome = (off.snapshot(), off.stats, queries);
        match &reference {
            Some(first) => assert!(*first == outcome, "pair {i} diverged from pair 0"),
            None => reference = Some(outcome),
        }
    }
    let (_, stats, queries) = reference.expect("at least one pair");

    let mut overheads: Vec<f64> = pairs.iter().map(Pair::overhead).collect();
    overheads.sort_by(f64::total_cmp);
    let overhead = quantile(&overheads, 0.5);
    let (q1, q3) = (quantile(&overheads, 0.25), quantile(&overheads, 0.75));
    let total_off: f64 = pairs.iter().map(|p| p.off_ms).sum();
    let total_on: f64 = pairs.iter().map(|p| p.on_ms).sum();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"obs\",");
    let _ = writeln!(json, "  \"pool_size\": 500,");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(
        json,
        "  \"method\": \"each pair runs the workload on a fresh session with metrics off and \
         one with metrics on, in lockstep one reduce call at a time, the side that runs a call \
         first following an ABBA pattern over each round's partitions, reversed every other \
         round and pair; overhead_ratio is the median over pairs of the summed on/off - 1 \
         ratios\","
    );
    let _ = writeln!(json, "  \"reduce_calls\": {},", stats.len());
    let _ = writeln!(json, "  \"solver_queries\": {queries},");
    let _ = writeln!(json, "  \"identical_outcomes\": true,");
    let _ = writeln!(json, "  \"millis_metrics_off\": {total_off:.1},");
    let _ = writeln!(json, "  \"millis_metrics_on\": {total_on:.1},");
    let _ = writeln!(json, "  \"overhead_ratio\": {overhead:.4},");
    let _ = writeln!(json, "  \"overhead_q1\": {q1:.4},");
    let _ = writeln!(json, "  \"overhead_q3\": {q3:.4},");
    let _ = writeln!(json, "  \"overhead_min\": {:.4},", overheads[0]);
    let _ = writeln!(
        json,
        "  \"overhead_max\": {:.4},",
        overheads[overheads.len() - 1]
    );
    let _ = writeln!(json, "  \"pairs\": [");
    for (i, p) in pairs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"off_ms\": {:.1}, \"on_ms\": {:.1}, \"on_first\": {}, \"overhead\": {:.4}}}{}",
            p.off_ms,
            p.on_ms,
            p.on_first,
            p.overhead(),
            if i + 1 < pairs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("{json}");
    println!(
        "observability overhead: median {:+.2}% over {} off/on pairs \
         (IQR {:+.2}% .. {:+.2}%) on a {queries}-query workload, {cpus} CPU(s)",
        overhead * 100.0,
        pairs.len(),
        q1 * 100.0,
        q3 * 100.0
    );

    if check_mode {
        assert!(
            overhead < 0.03,
            "median metrics overhead {:.2}% exceeds the 3% budget",
            overhead * 100.0
        );
        println!("bench_obs --check: overhead within the 3% budget");
    }
}
