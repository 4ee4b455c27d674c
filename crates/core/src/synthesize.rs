//! Phase 1: initial patch-pool construction (paper §3.3).
//!
//! Candidates come from the component-based synthesizer; each is validated
//! against the initial (failing) test case — and any further provided tests —
//! by concolically executing the patched program and refining the parameter
//! constraint until the specification holds on the observed partition. The
//! refinement loop is the same machinery as Phase 3 (`RefinePatch`), applied
//! at construction time, which is what the paper means by "the constraints
//! shown in the table are already modified by the synthesizer to pass the
//! initial test case".
//!
//! Validation asks most of a repair's solver queries: each refinement
//! starts from the template's full parameter range and recurses deeply.
//! Every refinement keeps the models of `φ ∧ σ` the solver already gave
//! it and answers `ω_pass2` from them where one, moved into the region,
//! still satisfies `φ` and `σ` (see [`crate::reduce`]'s `Refinement`);
//! [`SynthStats::model_reuse_hits`] counts those answers.
//!
//! # Parallelism
//!
//! Candidates never interact, so validation fans out over
//! [`RepairConfig::threads`] workers through the same `fan_out` as
//! [`crate::reduce::reduce`]: every term shared between candidates (the
//! templates `θ`, the alpha-reject baseline, the input variables of the
//! provided tests) is interned into the session pool before the fan-out;
//! each worker validates on its own pool fork and solver fork, and returns
//! pool-independent outcomes (regions over base-pool parameters) that are
//! merged in candidate order. The solver answers every query in
//! content-digest order, so a verdict never depends on the worker-local ids
//! a worker's interning history assigned. Worker pools are dropped at the
//! merge: Phase 1 leaves only the pre-interned terms in the session pool,
//! at every thread count.

use cpr_analysis::alpha_equivalent;
use cpr_concolic::{ConcolicExecutor, HolePatch};
use cpr_lang::{HoleKind, Outcome};
use cpr_smt::{Domains, Model, Region, Solver, TermId, TermPool};
use cpr_synth::{enumerate, AbstractPatch, PatchCandidate};

use crate::problem::{RepairConfig, RepairProblem};
use crate::ranking::PoolEntry;
use crate::reduce::{fan_out, refine_patch_impl, RefineCounts};
use crate::session::Session;

/// Statistics from pool construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthStats {
    /// Templates enumerated before validation.
    pub enumerated: usize,
    /// Templates surviving validation (the pool size in abstract patches).
    pub validated: usize,
    /// Total concrete patches covered by the validated pool (`|P_Init|`).
    pub concrete: u128,
    /// Concrete candidates rejected as alpha-equivalent to the buggy
    /// expression (structurally equal modulo commutativity) without
    /// spending their refinement solver queries.
    pub alpha_rejected: usize,
    /// RefinePatch `ω_pass2` queries answered from a witness model instead
    /// of the solver ("refine.model_reuse_hits").
    pub model_reuse_hits: u64,
}

/// Builds and validates the initial patch pool for `problem`.
pub fn build_patch_pool(
    sess: &mut Session,
    problem: &RepairProblem,
    config: &RepairConfig,
) -> (Vec<PoolEntry>, SynthStats) {
    // Serial pre-interning: the templates (by `enumerate`), the baseline
    // and the provided tests' input variables all get shared-pool ids.
    let candidates = enumerate(&mut sess.pool, &problem.components, &problem.synth);
    let mut stats = SynthStats {
        enumerated: candidates.len(),
        ..SynthStats::default()
    };
    // The buggy expression at the hole, as a pool term for the
    // alpha-equivalence reject. A condition hole with no recorded baseline
    // behaves as `false`.
    let baseline: Option<TermId> = match problem.baseline_expr.as_deref() {
        Some(src) => crate::lower::lower_expr_src(&mut sess.pool, src).ok(),
        None if problem.synth.hole_kind == HoleKind::Cond => Some(sess.pool.ff()),
        None => None,
    };
    let inputs: Vec<Model> = problem
        .failing_inputs
        .iter()
        .chain(problem.passing_inputs.iter())
        .map(|input| sess.input_model(input))
        .collect();

    // Validate on forked workers; results come back in candidate order,
    // and the survivors are numbered in that order.
    let domains = &sess.domains;
    let validated = fan_out(
        &sess.pool,
        &mut sess.solver,
        candidates.len(),
        config.threads,
        |pool, solver, i| {
            let mut alpha_rejected = false;
            let mut counts = RefineCounts::default();
            let patch = validate_candidate(
                pool,
                solver,
                domains,
                &inputs,
                problem,
                config,
                &candidates[i],
                baseline,
                &mut alpha_rejected,
                &mut counts,
            );
            (patch, alpha_rejected, counts.model_reuse_hits)
        },
    );
    stats.alpha_rejected = validated.iter().filter(|(_, alpha, _)| *alpha).count();
    stats.model_reuse_hits = validated.iter().map(|(_, _, hits)| hits).sum();
    let entries: Vec<PoolEntry> = validated
        .into_iter()
        .filter_map(|(patch, _, _)| patch)
        .enumerate()
        .map(|(id, patch)| PoolEntry::new(AbstractPatch { id, ..patch }))
        .collect();
    stats.validated = entries.len();
    stats.concrete = entries.iter().map(|e| e.patch.concrete_count()).sum();
    (entries, stats)
}

/// Validates one candidate against all provided tests (`inputs`, as
/// models), refining its parameter constraint on worker-owned state.
/// Returns the refined patch — numbered 0; the merge assigns pool ids — or
/// `None` when the candidate cannot repair some test for any parameter
/// value. `counts` accumulates what its refinements did.
#[allow(clippy::too_many_arguments)]
fn validate_candidate(
    pool: &mut TermPool,
    solver: &mut Solver,
    domains: &Domains,
    inputs: &[Model],
    problem: &RepairProblem,
    config: &RepairConfig,
    cand: &PatchCandidate,
    baseline: Option<TermId>,
    alpha_rejected: &mut bool,
    counts: &mut RefineCounts,
) -> Option<AbstractPatch> {
    let mut patch = if cand.params.is_empty() {
        AbstractPatch::concrete(0, cand.theta)
    } else {
        let (plo, phi) = problem.synth.param_range;
        AbstractPatch::new(
            0,
            cand.theta,
            cand.params.clone(),
            Region::full(cand.params.clone(), plo, phi),
        )
    };
    let exec = ConcolicExecutor::with_budgets(config.exec_max_steps, config.exec_max_path);
    for input_model in inputs {
        let mut accepted = false;
        for _round in 0..config.max_validation_rounds {
            let rep = patch.representative()?;
            let hole = HolePatch {
                theta: cand.theta,
                params: rep.clone(),
            };
            let run = exec.execute(pool, &problem.program, input_model, Some(&hole));
            match &run.outcome {
                // A sanitizer crash the specification did not capture: the
                // candidate does not even keep the program crash-free on
                // this test — discard.
                Outcome::Crash { .. } => return None,
                Outcome::MissingPatch => unreachable!("patch provided"),
                // Vacuous paths carry no evidence.
                Outcome::AssumeFailed => {
                    accepted = true;
                    break;
                }
                // A diverging patched program does not pass the test.
                Outcome::StepLimit => return None,
                Outcome::AssertFailed { .. }
                | Outcome::SpecViolated { .. }
                | Outcome::Returned(_) => {
                    let failed = run.outcome.is_failure();
                    if !run.hit_patch {
                        // Patch location not exercised: the program is
                        // unchanged on this input, so a failing test stays
                        // failing.
                        if failed {
                            return None;
                        }
                        accepted = true;
                        break;
                    }
                    let Some(sigma) = run.spec_term(pool) else {
                        // No specification observed on this path.
                        if failed {
                            return None;
                        }
                        accepted = true;
                        break;
                    };
                    let phi = run.constraints_for_patch(pool, cand.theta);
                    // Alpha-equivalence reject: a concrete candidate
                    // structurally equal (modulo commutativity) to the
                    // buggy expression reproduces the original behaviour
                    // verbatim, so this failing test keeps failing and the
                    // refinement below is guaranteed to end in rejection.
                    // Reject without its solver queries.
                    if failed
                        && cand.params.is_empty()
                        && baseline.is_some_and(|b| alpha_equivalent(pool, cand.theta, b))
                    {
                        *alpha_rejected = true;
                        return None;
                    }
                    let refined = refine_patch_impl(
                        pool,
                        solver,
                        domains,
                        &phi,
                        &patch.constraint,
                        sigma,
                        &mut 0,
                        counts,
                        config,
                    );
                    if refined.is_empty() {
                        return None;
                    }
                    if !failed {
                        // The representative passes and the region is
                        // cleaned of the violations the solver could find:
                        // validated on this test (Phase 3 keeps refining
                        // during exploration).
                        patch = patch.with_constraint(refined);
                        accepted = true;
                        break;
                    }
                    // The representative failed. Make sure it is gone even
                    // when the budgeted refinement could not exclude it,
                    // then retry with a fresh representative.
                    let mut region = refined;
                    let rep_point: Vec<i64> = patch
                        .params
                        .iter()
                        .map(|&p| rep.int(p).unwrap_or(0))
                        .collect();
                    if region.contains_point(&rep_point) {
                        let parts = region.split_at(&rep_point);
                        region = Region::union(patch.params.clone(), parts).merged();
                    }
                    if region.is_empty() {
                        return None;
                    }
                    patch = patch.with_constraint(region);
                }
            }
        }
        if !accepted {
            // Could not find a passing representative within budget.
            return None;
        }
    }
    Some(patch)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::problem::{test_input, RepairProblem};
    use cpr_lang::{check, parse};
    use cpr_synth::{ComponentSet, SynthConfig};

    const DIV_SRC: &str = "program cve_2016_3623 {
        input x in [-10, 10];
        input y in [-10, 10];
        if (__patch_cond__(x, y)) { return 1; }
        bug div_by_zero requires (x * y != 0);
        return 100 / (x * y);
      }";

    pub(crate) fn problem() -> RepairProblem {
        let program = parse(DIV_SRC).unwrap();
        check(&program).unwrap();
        RepairProblem::new(
            "Libtiff/CVE-2016-3623",
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
    }

    /// A subject with one failing and two passing tests whose oracles are
    /// assertions (the ManyBugs libtiff-865f7b2 shape): validation runs
    /// failing and passing branches and refines against both.
    pub(crate) fn asserting_problem() -> RepairProblem {
        let program = parse(
            "program libtiff_865f7b2 {
               input flags in [-10, 10];
               input n in [0, 10];
               var out: int = 0;
               if (__patch_cond__(flags, n)) { out = n * 2; } else { out = n; }
               assert(out == n * 2 || flags <= 0);
               assert(out == n || flags > 0);
               return out;
             }",
        )
        .unwrap();
        check(&program).unwrap();
        RepairProblem::new(
            "Libtiff/865f7b2",
            program,
            ComponentSet::new()
                .with_all_comparisons()
                .with_logic()
                .with_variables(["flags", "n"])
                .with_constants(&[0]),
            SynthConfig::default(),
            vec![test_input(&[("flags", 3), ("n", 2)])],
        )
        .with_passing_inputs(vec![
            test_input(&[("flags", 9), ("n", 1)]),
            test_input(&[("flags", -4), ("n", 3)]),
        ])
        .with_baseline("flags > 5")
    }

    /// Everything Phase 1 leaves behind that a later phase or a report can
    /// observe: the entries (order, ids, display, regions, volumes), the
    /// statistics, the solver query count and the session pool size.
    type PoolFingerprint = (Vec<(usize, String, Region, u128)>, SynthStats, u64, usize);

    fn pool_at(problem: &RepairProblem, threads: usize) -> PoolFingerprint {
        let config = RepairConfig {
            threads,
            ..RepairConfig::quick()
        };
        let mut sess = Session::new(problem, &config);
        let (entries, stats) = build_patch_pool(&mut sess, problem, &config);
        let entries = entries
            .iter()
            .map(|e| {
                (
                    e.patch.id,
                    e.patch.display(&sess.pool),
                    e.patch.constraint.clone(),
                    e.patch.concrete_count(),
                )
            })
            .collect();
        (entries, stats, sess.solver.stats().queries, sess.pool.len())
    }

    #[test]
    fn pool_construction_is_identical_across_thread_counts() {
        for problem in [problem(), asserting_problem()] {
            let serial = pool_at(&problem, 1);
            assert!(!serial.0.is_empty(), "{}: empty pool", problem.name);
            assert!(
                serial.0.iter().enumerate().all(|(i, e)| e.0 == i),
                "{}: ids are not sequential",
                problem.name
            );
            for threads in [2, 4, 8] {
                assert_eq!(
                    pool_at(&problem, threads),
                    serial,
                    "{}: Phase 1 differs between 1 and {threads} threads",
                    problem.name
                );
            }
        }
    }

    #[test]
    fn pool_construction_produces_plausible_patches() {
        let problem = problem();
        let config = RepairConfig::quick();
        let mut sess = Session::new(&problem, &config);
        let (entries, stats) = build_patch_pool(&mut sess, &problem, &config);
        assert!(stats.enumerated > entries.len(), "validation filtered none");
        assert!(!entries.is_empty(), "no plausible patches found");
        assert!(stats.concrete > 0);

        // Every surviving patch repairs the failing test with its
        // representative parameters.
        let exec = ConcolicExecutor::new();
        let input = sess.input_model(&test_input(&[("x", 7), ("y", 0)]));
        for entry in &entries {
            let rep = entry.patch.representative().unwrap();
            let hole = HolePatch {
                theta: entry.patch.theta,
                params: rep,
            };
            let run = exec.execute(&mut sess.pool, &problem.program, &input, Some(&hole));
            assert!(
                !run.outcome.is_failure(),
                "patch {} does not repair the failing test",
                entry.patch.display(&sess.pool)
            );
        }
    }

    #[test]
    fn correct_patch_template_survives_with_correct_params() {
        let problem = problem();
        let config = RepairConfig::quick();
        let mut sess = Session::new(&problem, &config);
        let (entries, _) = build_patch_pool(&mut sess, &problem, &config);
        // The paper's correct patch template x == a || y == b must be in
        // the pool with (0, 0) still inside its parameter region.
        let found = entries.iter().any(|e| {
            let d = e.patch.display(&sess.pool);
            d.starts_with("(or (= x a) (= y b))") && e.patch.constraint.contains_point(&[0, 0])
        });
        assert!(
            found,
            "correct template missing or (0,0) refined away: {:?}",
            entries
                .iter()
                .map(|e| e.patch.display(&sess.pool))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn tautology_survives_but_contradiction_like_guards_do_too() {
        // `true` deletes functionality (never reaches the bug) and so is
        // plausible; `false` leaves the program unchanged and keeps failing,
        // so it must be filtered out.
        let problem = problem();
        let config = RepairConfig::quick();
        let mut sess = Session::new(&problem, &config);
        let (entries, _) = build_patch_pool(&mut sess, &problem, &config);
        let displays: Vec<String> = entries
            .iter()
            .map(|e| e.patch.display(&sess.pool))
            .collect();
        assert!(displays.iter().any(|d| d == "true"), "{displays:?}");
        assert!(displays.iter().all(|d| d != "false"), "{displays:?}");
    }
}
