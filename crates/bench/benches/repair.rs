//! Criterion benchmarks for the repair pipeline phases: initial pool
//! construction (Phase 1), the Reduce step (Algorithm 2), abstract-patch
//! refinement (Algorithm 3), a full repair run, and the CEGIS baseline.

use cpr_bench::timing::Criterion;

use cpr_baselines::cegis;
use cpr_concolic::{ConcolicExecutor, HolePatch};
use cpr_core::{
    build_patch_pool, refine_patch, repair, test_input, RepairConfig, RepairProblem, Session,
};
use cpr_lang::{check, parse};
use cpr_smt::{Model, Region, Sort};
use cpr_synth::{ComponentSet, SynthConfig};

const DIV_SRC: &str = "program cve_2016_3623 {
    input x in [-64, 64];
    input y in [-64, 64];
    if (__patch_cond__(x, y)) { return 1; }
    bug div_by_zero requires (x * y != 0);
    return 100 / (x * y);
  }";

fn demo_problem() -> RepairProblem {
    let program = parse(DIV_SRC).unwrap();
    check(&program).unwrap();
    RepairProblem::new(
        "bench/cve-2016-3623",
        program,
        ComponentSet::new()
            .with_all_comparisons()
            .with_logic()
            .with_variables(["x", "y"])
            .with_constants(&[0]),
        SynthConfig::default(),
        vec![test_input(&[("x", 7), ("y", 0)])],
    )
    .with_developer_patch("x == 0 || y == 0")
    .with_baseline("false")
}

fn quick_config() -> RepairConfig {
    RepairConfig {
        max_iterations: 15,
        max_millis: Some(5_000),
        max_expansion: 8,
        ..RepairConfig::default()
    }
}

fn bench_phase1(c: &mut Criterion) {
    let mut g = c.benchmark_group("phase1");
    g.sample_size(10);
    g.bench_function("pool_construction", |b| {
        let problem = demo_problem();
        let config = quick_config();
        b.iter(|| {
            let mut sess = Session::new(&problem, &config);
            build_patch_pool(&mut sess, &problem, &config)
        })
    });
    g.finish();
}

fn bench_refine(c: &mut Criterion) {
    let mut g = c.benchmark_group("phase3");
    g.sample_size(20);

    g.bench_function("refine_patch_p1", |b| {
        // The paper's §2 refinement: partition P1 for patch x >= a.
        let problem = demo_problem();
        let config = quick_config();
        let mut sess = Session::new(&problem, &config);
        let x = sess.pool.named_var("x", Sort::Int);
        let y = sess.pool.named_var("y", Sort::Int);
        let a_var = sess.pool.find_var("a").unwrap();
        let a = sess.pool.var_term(a_var);
        let three = sess.pool.int(3);
        let five = sess.pool.int(5);
        let zero = sess.pool.int(0);
        let theta = sess.pool.ge(x, a);
        let not_psi = sess.pool.not(theta);
        let phi = vec![sess.pool.gt(x, three), sess.pool.le(y, five), not_psi];
        let xy = sess.pool.mul(x, y);
        let sigma = sess.pool.ne(xy, zero);
        let region = Region::full(vec![a_var], -10, 7);
        b.iter(|| refine_patch(&mut sess, &phi, &region, sigma, &mut 0, &config))
    });

    g.bench_function("reduce_one_run", |b| {
        let problem = demo_problem();
        let config = quick_config();
        let mut sess = Session::new(&problem, &config);
        let (entries, _) = build_patch_pool(&mut sess, &problem, &config);
        // One concolic run to reduce against.
        let theta = sess.pool.ff();
        let hole = HolePatch {
            theta,
            params: Model::new(),
        };
        let input = sess.input_model(&test_input(&[("x", 5), ("y", 2)]));
        let run =
            ConcolicExecutor::new().execute(&mut sess.pool, &problem.program, &input, Some(&hole));
        b.iter(|| {
            let mut pool = entries.clone();
            cpr_core::reduce::reduce(&mut sess, &mut pool, &run, &config)
        })
    });

    g.finish();
}

fn bench_full_repair(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    g.bench_function("cpr_repair_quick", |b| {
        let problem = demo_problem();
        let config = quick_config();
        b.iter(|| repair(&problem, &config))
    });
    g.bench_function("cegis_quick", |b| {
        let problem = demo_problem();
        let config = quick_config();
        b.iter(|| cegis(&problem, &config))
    });
    g.finish();
}

cpr_bench::bench_main!(bench_phase1, bench_refine, bench_full_repair);
