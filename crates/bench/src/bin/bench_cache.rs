//! Fleet-cache benchmark: full-job repair latency with the persistent
//! solver cache cold (fresh directory, populated as the job runs) versus
//! warm (a second job over the same directory, answering solver queries
//! from the store a previous process... or in this harness, a previous
//! run... already paid for).
//!
//! Three configurations run the *same* repair job:
//!
//! * `no-fleet`  — baseline, `cache_dir: None`;
//! * `cold-fleet` — a fresh cache directory (every fleet lookup misses);
//! * `warm-fleet` — the directory the cold run just populated.
//!
//! The fleet cache is a pure accelerator, so all three must produce a
//! bit-identical [`RepairReport`] (wall clock aside) — the benchmark
//! asserts that before reporting any timing. Timed mode writes
//! `BENCH_cache.json` into the current directory.
//!
//! `--check` runs the identity assertions on a reduced workload and skips
//! the timing claims and the JSON artifact: the CI-sized proof that the
//! persistent cache is semantically transparent end to end.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cpr_core::{repair, test_input, RepairConfig, RepairProblem, RepairReport};
use cpr_lang::{check, parse};
use cpr_smt::FleetCache;
use cpr_synth::{ComponentSet, SynthConfig};

const SRC: &str = "program bench_cache {
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

/// Everything in the report except the wall clock, as a comparable string
/// (the same shape `tests/determinism.rs` compares).
fn fingerprint(r: &RepairReport) -> String {
    let ranked: Vec<String> = r
        .ranked
        .iter()
        .map(|p| {
            format!(
                "id={} score={} concrete={} del={} display={}",
                p.id, p.score, p.concrete, p.deletion_evidence, p.display
            )
        })
        .collect();
    format!(
        "subject={} p_init={} p_final={} abs_init={} abs_final={} explored={} skipped={} \
         iters={} inputs={} dev_rank={:?} history={:?} queries={} top={:?} ranked=[{}]",
        r.subject,
        r.p_init,
        r.p_final,
        r.abstract_init,
        r.abstract_final,
        r.paths_explored,
        r.paths_skipped,
        r.iterations,
        r.inputs_generated,
        r.dev_rank,
        r.history,
        r.solver_queries,
        r.top_patched_source,
        ranked.join("; ")
    )
}

fn problem() -> RepairProblem {
    let program = parse(SRC).unwrap();
    check(&program).unwrap();
    RepairProblem::new(
        "bench_cache",
        program,
        ComponentSet::new()
            .with_all_comparisons()
            .with_logic()
            .with_variables(["x", "y", "z"])
            .with_constants(&[0, 1]),
        SynthConfig::default(),
        vec![
            test_input(&[("x", 7), ("y", 0), ("z", 1)]),
            test_input(&[("x", -3), ("y", -4), ("z", 20)]),
        ],
    )
}

fn config(iterations: usize, max_nodes: u64) -> RepairConfig {
    let mut config = RepairConfig::quick();
    config.max_iterations = iterations;
    config.max_millis = None;
    config.threads = 1;
    // Bound the per-query search. The nonlinear spec makes single queries
    // arbitrarily hard for branch-and-prune; a budget-capped `Unknown` is
    // deterministic and — because the budget is part of the fleet key —
    // persistable, so the cap trades cold-run wall clock without hiding
    // any query from the store.
    config.solver.max_nodes = max_nodes;
    config
}

struct Outcome {
    label: String,
    millis: f64,
    key: String,
    pool_concrete: u128,
    queries: u64,
    fleet_hits: u64,
    fleet_misses: u64,
    store_bytes: u64,
}

/// One full repair job. `cache_dir: Some` runs with the fleet cache rooted
/// there, holding the shared instance open across the run (the way the CLI
/// and the job server do) and flushing at the end so the next run can warm
/// from disk.
fn run_job(label: &str, iterations: usize, max_nodes: u64, cache_dir: Option<&Path>) -> Outcome {
    let problem = problem();
    let mut config = config(iterations, max_nodes);
    config.solver.cache_dir = cache_dir.map(Path::to_path_buf);
    let fleet = cache_dir.map(|dir| FleetCache::open_shared(dir, config.solver.fleet_capacity));
    let start = Instant::now();
    let report = repair(&problem, &config);
    let millis = start.elapsed().as_secs_f64() * 1e3;
    let (fleet_hits, fleet_misses, store_bytes) = match &fleet {
        Some(f) => {
            f.flush().expect("flush fleet cache");
            let (h, m) = f.hit_counts();
            (h, m, f.store_bytes())
        }
        None => (0, 0, 0),
    };
    eprintln!(
        "[bench_cache] {label}: {millis:.0} ms, {} solver queries, \
         fleet {fleet_hits} hits / {fleet_misses} misses, store {store_bytes} B",
        report.solver_queries,
    );
    Outcome {
        label: label.to_owned(),
        millis,
        key: fingerprint(&report),
        pool_concrete: report.p_init,
        queries: report.solver_queries,
        fleet_hits,
        fleet_misses,
        store_bytes,
    }
}

fn temp_cache_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cpr_bench_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let iterations = if check_mode { 6 } else { 24 };
    let max_nodes = if check_mode { 2_000 } else { 20_000 };
    let dir = temp_cache_dir();

    let no_fleet = run_job("no-fleet", iterations, max_nodes, None);
    let cold = run_job("cold-fleet", iterations, max_nodes, Some(&dir));
    let warm = run_job("warm-fleet", iterations, max_nodes, Some(&dir));

    // Identity first: the persistent cache (absent, empty, or warm) must
    // never move a report field. Timing claims below rest on this.
    for other in [&cold, &warm] {
        assert_eq!(
            no_fleet.key, other.key,
            "RepairReport diverged in {}",
            other.label
        );
    }
    assert!(
        warm.fleet_hits > 0,
        "warm run scored no fleet hits; the benchmark is not exercising the store"
    );
    assert_eq!(
        warm.fleet_misses, 0,
        "warm run missed the store the cold run filled"
    );

    if check_mode {
        let _ = std::fs::remove_dir_all(&dir);
        println!(
            "bench_cache --check: no-fleet / cold-fleet / warm-fleet produced \
             bit-identical reports ({} fleet hits when warm)",
            warm.fleet_hits
        );
        return;
    }

    let speedup = cold.millis / warm.millis;
    let lookups = (warm.fleet_hits + warm.fleet_misses).max(1);
    let hit_rate = warm.fleet_hits as f64 / lookups as f64;

    assert!(
        no_fleet.pool_concrete >= 500,
        "workload too small: {} concrete patches",
        no_fleet.pool_concrete
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"cache\",");
    let _ = writeln!(json, "  \"iterations\": {iterations},");
    let _ = writeln!(json, "  \"pool_concrete\": {},", no_fleet.pool_concrete);
    let _ = writeln!(json, "  \"solver_queries\": {},", no_fleet.queries);
    let _ = writeln!(json, "  \"identical_reports\": true,");
    let _ = writeln!(json, "  \"configs\": [");
    let outs = [&no_fleet, &cold, &warm];
    for (i, o) in outs.iter().enumerate() {
        let comma = if i + 1 < outs.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"label\": \"{}\", \"millis\": {:.1}, \"fleet_hits\": {}, \
             \"fleet_misses\": {}, \"store_bytes\": {}}}{comma}",
            o.label, o.millis, o.fleet_hits, o.fleet_misses, o.store_bytes
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedup_warm_vs_cold\": {speedup:.2},");
    let _ = writeln!(json, "  \"warm_hit_rate\": {hit_rate:.4}");
    json.push_str("}\n");

    std::fs::write("BENCH_cache.json", &json).expect("write BENCH_cache.json");
    println!("{json}");
    println!(
        "fleet cache: {:.1} ms cold vs {:.1} ms warm ({speedup:.2}x, \
         {:.0}% warm hit rate, {} B on disk)",
        cold.millis,
        warm.millis,
        hit_rate * 100.0,
        warm.store_bytes
    );
    let _ = std::fs::remove_dir_all(&dir);
}
