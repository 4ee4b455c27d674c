//! Patch-space reduction: the paper's Algorithm 2 (`Reduce`) and
//! Algorithm 3 (`RefinePatch`).
//!
//! Given one concolic run (a path constraint `φ_t`, the captured
//! specification `σ`, and the hit flags), `Reduce` walks the entire patch
//! pool: every patch whose formula is feasible with the partition is ranked,
//! and — when the bug location was exercised — refined so that no surviving
//! parameter value can violate `σ` anywhere in the partition. Refinement
//! works on the exact region representation of `T_ρ` via counterexample
//! splitting and merging.
//!
//! # Parallelism
//!
//! The pool walk is embarrassingly parallel — entries never interact — so
//! `reduce` fans it out over [`RepairConfig::threads`] workers, each owning
//! a fork of the term pool and the solver. The output is bit-identical to a
//! serial walk at any thread count because of two invariants:
//!
//! 1. **Serial pre-interning.** Every term shared between entries (the
//!    re-targeted path constraints `φ_i`, the parameter-constraint terms
//!    `T_i`, `σ`, `¬σ`, and the oriented `¬ψ_i` of the deletion check) is
//!    interned into the shared pool *before* the fan-out, so all pool forks
//!    agree on those ids.
//! 2. **At most one worker-local id per query.** Any term a worker interns
//!    itself (a refinement region term) gets an id past the pre-interned
//!    base, so in the solver's canonical (sorted) query order it always
//!    sorts last — a worker's interning history can never change the
//!    canonical form, hence never the verdict or the witness model.
//!
//! Workers return pool-independent outcomes (regions, flags) that are
//! merged in entry order, and their solver statistics and cacheable query
//! results are folded back via [`Solver::absorb`].

use std::sync::atomic::{AtomicUsize, Ordering};

use cpr_concolic::ConcolicResult;
use cpr_smt::{Domains, FrameSession, Region, SatResult, Solver, TermId, TermPool};
use cpr_synth::AbstractPatch;

use crate::problem::RepairConfig;
use crate::ranking::PoolEntry;
use crate::session::Session;

/// Statistics from one `Reduce` invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Patches whose parameter constraint was narrowed.
    pub refined: usize,
    /// Patches removed entirely (empty constraint after refinement).
    pub removed: usize,
    /// Patches found feasible with the partition (ranked up).
    pub feasible: usize,
    /// Solver calls spent.
    pub solver_calls: u64,
    /// Always 0: every query goes to the solver, whose root search node
    /// refutes what a static screen used to. Kept because external
    /// benchmark code still reads the field.
    pub screened: u64,
}

/// Per-entry result of the parallel pool walk. Deliberately free of
/// `TermId`s from worker-local pools: regions and flags carry over to the
/// shared pool unchanged.
struct EntryOutcome {
    feasible: bool,
    refined_shrunk: bool,
    new_patch: Option<AbstractPatch>,
    deletion: bool,
}

/// Algorithm 2: reduces the patch pool against one explored partition.
///
/// Entries whose constraint becomes empty are removed from `entries`.
pub fn reduce(
    sess: &mut Session,
    entries: &mut Vec<PoolEntry>,
    run: &ConcolicResult,
    config: &RepairConfig,
) -> ReduceStats {
    let mut stats = ReduceStats::default();
    let before = sess.solver.stats().queries;
    let n = entries.len();

    // Serial pre-interning (invariant 1 of the module docs): φ_i, T_i, σ,
    // ¬σ and the oriented ¬ψ_i all get their ids in the shared pool.
    let thetas: Vec<TermId> = entries.iter().map(|e| e.patch.theta).collect();
    let phis = run.constraints_for_patches(&mut sess.pool, &thetas);
    let t_terms: Vec<TermId> = entries
        .iter_mut()
        .map(|e| e.patch.constraint_term(&mut sess.pool))
        .collect();
    let sigma = run.spec_term(&mut sess.pool);
    if let Some(sigma) = sigma {
        sess.pool.not(sigma);
    }
    if config.deletion_check {
        for phi in &phis {
            if let Some(psi) = oriented_patch_step(run, phi) {
                sess.pool.not(psi);
            }
        }
    }
    let base_terms = sess.pool.len();
    let refine_spec = run.hit_bug || !run.asserts.is_empty();

    // Fan the per-entry work out over forked workers; entry index order is
    // restored at merge time, so scheduling cannot influence the result.
    let threads = config.threads.clamp(1, n.max(1));
    let counter = AtomicUsize::new(0);
    let entries_view: &[PoolEntry] = entries;
    let domains = &sess.domains;
    let worker_results: Vec<(Vec<(usize, EntryOutcome)>, Solver)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let mut pool = sess.pool.clone();
                let mut solver = sess.solver.fork(base_terms);
                let counter = &counter;
                let phis = &phis;
                let t_terms = &t_terms;
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let outcome = process_entry(
                            &mut pool,
                            &mut solver,
                            domains,
                            &entries_view[i].patch,
                            &phis[i],
                            t_terms[i],
                            sigma,
                            refine_spec,
                            run,
                            config,
                        );
                        done.push((i, outcome));
                    }
                    (done, solver)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reduce worker panicked"))
            .collect()
    });

    // Deterministic merge: fold solvers back in spawn order, apply
    // outcomes in entry order.
    let mut outcomes: Vec<Option<EntryOutcome>> = Vec::with_capacity(n);
    outcomes.resize_with(n, || None);
    for (done, solver) in worker_results {
        for (i, outcome) in done {
            outcomes[i] = Some(outcome);
        }
        sess.solver.absorb(solver);
    }
    for (entry, outcome) in entries.iter_mut().zip(outcomes) {
        let outcome = outcome.expect("every entry is processed exactly once");
        if !outcome.feasible {
            // Unsat/Unknown π: cannot reason about ρ here; ranking unchanged.
            continue;
        }
        stats.feasible += 1;
        if outcome.refined_shrunk {
            stats.refined += 1;
        }
        if let Some(patch) = outcome.new_patch {
            entry.patch = patch;
        }
        // UpdateRanking(ρ): feasibility evidence, plus bug-location bonus,
        // plus the functionality-deletion check.
        if !entry.patch.is_exhausted() {
            entry.score.feasible += 1;
            if run.hit_bug {
                entry.score.bug_hits += 1;
            }
            if outcome.deletion {
                entry.score.deletion_evidence += 1;
            }
        }
    }

    let removed_before = entries.len();
    entries.retain(|e| !e.patch.is_exhausted());
    stats.removed = removed_before - entries.len();
    stats.solver_calls = sess.solver.stats().queries - before;
    stats
}

/// A solver check of `prefix ++ extras`. When `frames` is given, the
/// session must already hold exactly `prefix` pushed (the caller's
/// invariant) and the check runs incrementally — `extras` are pushed,
/// decided, and popped, which [`Solver::check_frames_with`] guarantees is
/// verdict- and model-identical to `check` on the full query.
fn check_query(
    pool: &TermPool,
    solver: &mut Solver,
    domains: &Domains,
    frames: Option<&mut FrameSession>,
    prefix: &[TermId],
    extras: &[TermId],
) -> SatResult {
    match frames {
        Some(f) => solver.check_frames_with(pool, f, extras, None),
        None => solver.check(pool, &[prefix, extras].concat(), domains),
    }
}

/// One entry of the pool walk, on worker-owned state.
#[allow(clippy::too_many_arguments)]
fn process_entry(
    pool: &mut TermPool,
    solver: &mut Solver,
    domains: &Domains,
    patch: &AbstractPatch,
    phi: &[TermId],
    t_term: TermId,
    sigma: Option<TermId>,
    refine_spec: bool,
    run: &ConcolicResult,
    config: &RepairConfig,
) -> EntryOutcome {
    let mut outcome = EntryOutcome {
        feasible: false,
        refined_shrunk: false,
        new_patch: None,
        deletion: false,
    };
    // Every query this entry issues — the feasibility gate and the whole
    // refinement recursion — conjoins the same path prefix φ. With the
    // incremental knobs on, push φ as assertion frames once: the shared
    // prefix is contracted a single time and each query only push/pops its
    // own hole constraints.
    let mut frames: Option<FrameSession> =
        if solver.config().incremental && solver.config().batch_candidates {
            let mut f = solver.open_frames(pool, domains);
            for &c in phi {
                solver.push_frame(pool, &mut f, c);
            }
            Some(f)
        } else {
            None
        };
    // π ← φ(X) ∧ ψ_ρ(X, A) ∧ T_ρ(A)
    if !check_query(pool, solver, domains, frames.as_mut(), phi, &[t_term]).is_sat() {
        return outcome;
    }
    outcome.feasible = true;
    let mut patch = patch.clone();
    if refine_spec {
        if let Some(sigma) = sigma {
            let refined = refine_patch_impl(
                pool,
                solver,
                domains,
                frames.as_mut(),
                phi,
                &patch.constraint,
                sigma,
                0,
                &mut 0,
                config,
            );
            if refined.volume() < patch.constraint.volume() {
                outcome.refined_shrunk = true;
            }
            patch = patch.with_constraint(refined);
            outcome.new_patch = Some(patch.clone());
        }
    }
    if !patch.is_exhausted() && config.deletion_check {
        outcome.deletion = deletion_like(pool, solver, domains, &patch, run, phi, config);
    }
    outcome
}

/// The path constraint of the (first) patch-hole step of `phi`, oriented
/// the way the partition went.
fn oriented_patch_step(run: &ConcolicResult, phi: &[TermId]) -> Option<TermId> {
    run.path
        .iter()
        .zip(phi)
        .find(|(step, _)| step.from_patch())
        .map(|(_, &c)| c)
}

/// Functionality-deletion heuristic (§3.5.3): on the partition defined by
/// the *non-patch* steps of the path, does the patch force a single branch
/// direction for every input? Tautology/contradiction guards always do.
///
/// With [`RepairConfig::model_counting`] the check is refined as the paper
/// suggests: the *proportion* of partition inputs redirected by the patch
/// is computed by exact branch-and-count (under the patch's representative
/// parameters), and redirection above `deletion_ratio` counts as evidence.
#[allow(clippy::too_many_arguments)]
fn deletion_like(
    pool: &mut TermPool,
    solver: &mut Solver,
    domains: &Domains,
    patch: &AbstractPatch,
    run: &ConcolicResult,
    phi: &[TermId],
    config: &RepairConfig,
) -> bool {
    // Collect the partition without the patch branch itself.
    let mut base: Vec<TermId> = Vec::new();
    let mut psi_oriented: Option<TermId> = None;
    for (step, c) in run.path.iter().zip(phi) {
        if step.from_patch() {
            if psi_oriented.is_none() {
                psi_oriented = Some(*c);
            }
        } else {
            base.push(*c);
        }
    }
    let Some(psi) = psi_oriented else {
        return false;
    };
    if config.model_counting {
        // Fix parameters to the representative so the count ranges over
        // program inputs only.
        let Some(rep) = patch.representative() else {
            return false;
        };
        let mut map = std::collections::HashMap::new();
        for (v, val) in rep.iter() {
            let c = pool.int(val.as_int().unwrap_or(0));
            map.insert(v, c);
        }
        let base_inst: Vec<TermId> = base.iter().map(|&c| pool.substitute(c, &map)).collect();
        let psi_inst = pool.substitute(psi, &map);
        let total = solver.count_models(pool, &base_inst, domains);
        if total.hi == 0 {
            return false;
        }
        // The partition was recorded with ψ oriented *along* the executed
        // path; the redirected inputs are those taking the opposite side.
        let not_psi = pool.not(psi_inst);
        let mut away = base_inst.clone();
        away.push(not_psi);
        let redirected = solver.count_models(pool, &away, domains);
        let ratio = 1.0 - redirected.estimate() / total.estimate().max(1.0);
        return ratio >= config.deletion_ratio;
    }
    let t_term = patch.constraint_term(pool);
    base.push(t_term);
    // If the *other* direction is infeasible on this partition, the patch is
    // constant here: evidence of functionality deletion. (This query is
    // over the non-patch partition, not the entry's φ prefix, so it does
    // not ride the entry's frame session.)
    let not_psi = pool.not(psi);
    let mut q = base.clone();
    q.push(not_psi);
    solver.check(pool, &q, domains).is_unsat()
}

/// Algorithm 3: refines the parameter constraint `T_ρ` (given as a
/// [`Region`]) so that the specification `σ` can no longer be violated on
/// the partition `φ` (which must already be re-targeted at this patch, i.e.
/// include `ψ_ρ`). Returns the refined region; an empty region means the
/// patch must be discarded.
pub fn refine_patch(
    sess: &mut Session,
    phi: &[TermId],
    region: &Region,
    sigma: TermId,
    depth: u32,
    calls: &mut u32,
    config: &RepairConfig,
) -> Region {
    refine_patch_impl(
        &mut sess.pool,
        &mut sess.solver,
        &sess.domains,
        None,
        phi,
        region,
        sigma,
        depth,
        calls,
        config,
    )
}

/// [`refine_patch`] on explicit pool/solver/domain state, so reduce workers
/// can run it on their forks. When `frames` is given it must hold exactly
/// `phi` pushed; every query of the refinement then reuses that contracted
/// prefix and only push/pops its own two or three hole constraints.
#[allow(clippy::too_many_arguments)]
fn refine_patch_impl(
    pool: &mut TermPool,
    solver: &mut Solver,
    domains: &Domains,
    mut frames: Option<&mut FrameSession>,
    phi: &[TermId],
    region: &Region,
    sigma: TermId,
    depth: u32,
    calls: &mut u32,
    config: &RepairConfig,
) -> Region {
    if depth >= config.max_refine_depth || *calls >= config.max_refine_calls {
        // Budget exhausted: keep the region (conservative, mirrors a solver
        // timeout in the original tool).
        return region.clone();
    }
    let region_term = region.to_term(pool);
    let not_sigma = pool.not(sigma);

    // ω_pass1 ← φ(X) ∧ σ(X)
    *calls += 1;
    if check_query(pool, solver, domains, frames.as_deref_mut(), phi, &[sigma]).is_sat() {
        // ω_pass2 ← φ ∧ ψ_ρ ∧ T_ρ ∧ σ
        *calls += 1;
        if check_query(
            pool,
            solver,
            domains,
            frames.as_deref_mut(),
            phi,
            &[region_term, sigma],
        )
        .is_unsat()
        {
            // No parameter value in T_ρ can make the spec pass: discard.
            return Region::empty(region.params().to_vec());
        }
    }

    // ω_fail ← φ ∧ ψ_ρ ∧ T_ρ ∧ ¬σ
    *calls += 1;
    match check_query(
        pool,
        solver,
        domains,
        frames.as_deref_mut(),
        phi,
        &[region_term, not_sigma],
    ) {
        SatResult::Sat(model) => {
            // Extract the counterexample parameter point m_A.
            let point: Vec<i64> = region
                .params()
                .iter()
                .map(|&p| model.int(p).unwrap_or(0))
                .collect();
            if !region.contains_point(&point) && !region.params().is_empty() {
                // Defensive: a model outside the region (should not happen);
                // stop refining rather than loop.
                return region.clone();
            }
            let subregions = region.split_at(&point);
            if subregions.is_empty() {
                return Region::empty(region.params().to_vec());
            }
            let mut kept: Vec<Region> = Vec::with_capacity(subregions.len());
            for r in subregions {
                // Guard: only recurse into regions compatible with the path.
                *calls += 1;
                let r_term = r.to_term(pool);
                match check_query(pool, solver, domains, frames.as_deref_mut(), phi, &[r_term]) {
                    SatResult::Sat(_) | SatResult::Unknown => {
                        let refined = refine_patch_impl(
                            pool,
                            solver,
                            domains,
                            frames.as_deref_mut(),
                            phi,
                            &r,
                            sigma,
                            depth + 1,
                            calls,
                            config,
                        );
                        if !refined.is_empty() {
                            kept.push(refined);
                        }
                    }
                    SatResult::Unsat => {
                        // Cannot reason about this region here; keep it.
                        kept.push(r);
                    }
                }
            }
            Region::union(region.params().to_vec(), kept).merged()
        }
        // No counterexample: the constraint needs no further refinement.
        SatResult::Unsat | SatResult::Unknown => region.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{test_input, RepairProblem};
    use cpr_concolic::{ConcolicExecutor, HolePatch};
    use cpr_lang::{check, parse};
    use cpr_smt::Sort;
    use cpr_synth::{AbstractPatch, ComponentSet, SynthConfig};

    /// The running example of the paper: CVE-2016-3623-style divide by zero
    /// guarded by a condition hole.
    const DIV_SRC: &str = "program cve_2016_3623 {
        input x in [-10, 10];
        input y in [-10, 10];
        if (__patch_cond__(x, y)) { return 1; }
        bug div_by_zero requires (x * y != 0);
        return 100 / (x * y);
      }";

    fn setup() -> (Session, cpr_lang::Program, RepairConfig) {
        let program = parse(DIV_SRC).unwrap();
        check(&program).unwrap();
        let problem = RepairProblem::new(
            "demo",
            program.clone(),
            ComponentSet::new()
                .with_all_comparisons()
                .with_logic()
                .with_variables(["x", "y"]),
            SynthConfig::default(),
            vec![test_input(&[("x", 7), ("y", 0)])],
        );
        let config = RepairConfig::quick();
        let sess = Session::new(&problem, &config);
        (sess, program, config)
    }

    /// Reproduces the paper's §2 refinement of patch 1: exploring partition
    /// P1 (x > 3 ∧ y ≤ 5) refines `x ≥ a, a ∈ [-10, 7]` to `a ∈ [-10, 4]`.
    #[test]
    fn paper_example_patch1_refinement() {
        let (mut sess, program, config) = setup();
        // θ1 := x >= a with representative a = 7 (so x=7,y=0 passes the
        // guard? No: we need the partition that reaches the bug. Use an
        // input that fails the guard: x=4,y=0 with a=5 → 4 >= 5 false.)
        let x = sess.pool.named_var("x", Sort::Int);
        let a_var = sess.pool.find_var("a").unwrap();
        let a = sess.pool.var_term(a_var);
        let theta = sess.pool.ge(x, a);
        let mut params = cpr_smt::Model::new();
        params.set(a_var, 5i64);
        let patch = HolePatch { theta, params };
        let mut input = cpr_smt::Model::new();
        let xv = sess.pool.find_var("x").unwrap();
        let yv = sess.pool.find_var("y").unwrap();
        input.set(xv, 4i64);
        input.set(yv, 0i64);
        let run = ConcolicExecutor::new().execute(&mut sess.pool, &program, &input, Some(&patch));
        assert!(run.hit_bug);
        assert!(matches!(
            run.outcome,
            cpr_lang::Outcome::SpecViolated { .. }
        ));

        // Refine T = [-10, 7] for patch 1 on this partition.
        let region = Region::full(vec![a_var], -10, 7);
        let phi = run.constraints_for_patch(&mut sess.pool, theta);
        let sigma = run.sigma.unwrap();
        let refined = refine_patch(&mut sess, &phi, &region, sigma, 0, &mut 0, &config);
        // Partition: ¬(x ≥ a) ∧ x = 4 (from concretization-free path, the
        // partition here is x < a with the x*y = 0 spec): every a > 4 lets
        // x = 4 slip into the division with y = 0 possible... the exact
        // remaining region must exclude values of a that leave a violating
        // (x, y) inside the partition. For x=4's path the violating models
        // force a > x for some x with x*y = 0 feasible, so the refined
        // region must have shrunk and must not be empty.
        assert!(refined.volume() < region.volume(), "no refinement happened");
        assert!(!refined.is_empty());
    }

    /// Concrete (parameterless) patches are removed outright when the spec
    /// can be violated on a feasible partition.
    #[test]
    fn concrete_patch_removed_on_violation() {
        let (mut sess, program, config) = setup();
        let theta = sess.pool.ff(); // never take the early return
        let patch = HolePatch {
            theta,
            params: cpr_smt::Model::new(),
        };
        let mut input = cpr_smt::Model::new();
        let xv = sess.pool.find_var("x").unwrap();
        let yv = sess.pool.find_var("y").unwrap();
        input.set(xv, 7i64);
        input.set(yv, 2i64);
        let run = ConcolicExecutor::new().execute(&mut sess.pool, &program, &input, Some(&patch));
        assert!(run.hit_bug);

        let mut entries = vec![PoolEntry::new(AbstractPatch::concrete(0, theta))];
        let stats = reduce(&mut sess, &mut entries, &run, &config);
        // The partition ¬false = the whole input space reaching the bug;
        // x*y = 0 is violable there, and a parameterless patch cannot be
        // refined → removed.
        assert_eq!(stats.removed, 1);
        assert!(entries.is_empty());
    }

    /// The paper's patch 3 (`x == a || y == b`) refines to the correct
    /// patch a = 0 ∧ b = 0 given enough partitions; after one partition the
    /// region already shrinks towards b = 0.
    #[test]
    fn pair_patch_refines_towards_correct_values() {
        let (mut sess, program, config) = setup();
        let x = sess.pool.named_var("x", Sort::Int);
        let y = sess.pool.named_var("y", Sort::Int);
        let a_var = sess.pool.find_var("a").unwrap();
        let b_var = sess.pool.find_var("b").unwrap();
        let a = sess.pool.var_term(a_var);
        let b = sess.pool.var_term(b_var);
        let ex = sess.pool.eq(x, a);
        let ey = sess.pool.eq(y, b);
        let theta = sess.pool.or(ex, ey);
        let mut params = cpr_smt::Model::new();
        params.set(a_var, 5i64);
        params.set(b_var, 5i64);
        let patch = HolePatch { theta, params };
        let mut input = cpr_smt::Model::new();
        let xv = sess.pool.find_var("x").unwrap();
        let yv = sess.pool.find_var("y").unwrap();
        input.set(xv, 7i64);
        input.set(yv, 0i64);
        // x=7,y=0: guard (x==5 || y==5) is false → bug path → violation.
        let run = ConcolicExecutor::new().execute(&mut sess.pool, &program, &input, Some(&patch));
        assert!(matches!(
            run.outcome,
            cpr_lang::Outcome::SpecViolated { .. }
        ));

        let region = Region::full(vec![a_var, b_var], -10, 10);
        let phi = run.constraints_for_patch(&mut sess.pool, theta);
        let refined = refine_patch(
            &mut sess,
            &phi,
            &region,
            run.sigma.unwrap(),
            0,
            &mut 0,
            &config,
        );
        assert!(refined.volume() < region.volume());
        // The correct parameters (a=0, b=0) must survive every refinement.
        assert!(refined.contains_point(&[0, 0]));
    }

    #[test]
    fn reduce_ranks_feasible_patches() {
        let (mut sess, program, config) = setup();
        // Execute with the always-false patch; pool holds a parameterized
        // patch that is feasible with the partition.
        let theta_exec = sess.pool.ff();
        let patch = HolePatch {
            theta: theta_exec,
            params: cpr_smt::Model::new(),
        };
        let mut input = cpr_smt::Model::new();
        let xv = sess.pool.find_var("x").unwrap();
        let yv = sess.pool.find_var("y").unwrap();
        input.set(xv, 7i64);
        input.set(yv, 2i64);
        let run = ConcolicExecutor::new().execute(&mut sess.pool, &program, &input, Some(&patch));

        let x = sess.pool.named_var("x", Sort::Int);
        let a_var = sess.pool.find_var("a").unwrap();
        let a = sess.pool.var_term(a_var);
        let theta = sess.pool.ge(x, a);
        let mut entries = vec![PoolEntry::new(AbstractPatch::new(
            0,
            theta,
            vec![a_var],
            Region::full(vec![a_var], -10, 10),
        ))];
        let stats = reduce(&mut sess, &mut entries, &run, &config);
        assert_eq!(stats.feasible, 1);
        assert!(!entries.is_empty());
        assert!(entries[0].score.feasible >= 1);
        assert!(entries[0].score.bug_hits >= 1);
    }

    #[test]
    fn refine_on_unsat_partition_keeps_the_region() {
        // When the path constraint itself is unsatisfiable, ω_fail has no
        // model and the constraint is returned unchanged (Algorithm 3's
        // "needs no further refinement" exit).
        let (mut sess, _, config) = setup();
        let x = sess.pool.named_var("x", Sort::Int);
        let a_var = sess.pool.find_var("a").unwrap();
        let five = sess.pool.int(5);
        let contradiction = [sess.pool.gt(x, five), sess.pool.lt(x, five)];
        let zero = sess.pool.int(0);
        let sigma = sess.pool.ne(x, zero);
        let region = Region::full(vec![a_var], -10, 10);
        let refined = refine_patch(
            &mut sess,
            &contradiction,
            &region,
            sigma,
            0,
            &mut 0,
            &config,
        );
        assert_eq!(refined.volume(), region.volume());
    }

    #[test]
    fn refine_with_exhausted_budget_is_conservative() {
        // A zero call budget must leave the region untouched (the solver
        // timeout analogue) rather than dropping patches.
        let (mut sess, program, config) = setup();
        let x = sess.pool.named_var("x", Sort::Int);
        let a_var = sess.pool.find_var("a").unwrap();
        let a = sess.pool.var_term(a_var);
        let theta = sess.pool.ge(x, a);
        let mut params = cpr_smt::Model::new();
        params.set(a_var, 5i64);
        let patch = HolePatch { theta, params };
        let mut input = cpr_smt::Model::new();
        input.set(sess.pool.find_var("x").unwrap(), 4i64);
        input.set(sess.pool.find_var("y").unwrap(), 0i64);
        let run = ConcolicExecutor::new().execute(&mut sess.pool, &program, &input, Some(&patch));
        let region = Region::full(vec![a_var], -10, 7);
        let phi = run.constraints_for_patch(&mut sess.pool, theta);
        let mut calls = u32::MAX - 1; // pretend the budget is already spent
        let refined = refine_patch(
            &mut sess,
            &phi,
            &region,
            run.sigma.unwrap(),
            0,
            &mut calls,
            &config,
        );
        assert_eq!(refined.volume(), region.volume());
    }

    #[test]
    fn point_regions_are_emptied_but_infeasible_patches_are_gated() {
        // Two single-point regions under the partition "guard did not fire"
        // (x < a) of the divide-by-zero subject:
        //
        // * a = 5 admits the violating x=4, y=0 → Algorithm 3 empties it;
        // * a = -10 makes the partition infeasible (x < -10 with x ≥ -10) —
        //   Algorithm 2's `IsSat(π)` gate must keep such a patch untouched
        //   rather than ever calling RefinePatch on it.
        let (mut sess, program, config) = setup();
        let x = sess.pool.named_var("x", Sort::Int);
        let a_var = sess.pool.find_var("a").unwrap();
        let a = sess.pool.var_term(a_var);
        let theta = sess.pool.ge(x, a);
        let mut params = cpr_smt::Model::new();
        params.set(a_var, 5i64);
        let patch = HolePatch { theta, params };
        let mut input = cpr_smt::Model::new();
        input.set(sess.pool.find_var("x").unwrap(), 4i64);
        input.set(sess.pool.find_var("y").unwrap(), 0i64);
        let run = ConcolicExecutor::new().execute(&mut sess.pool, &program, &input, Some(&patch));
        let phi = run.constraints_for_patch(&mut sess.pool, theta);
        let sigma = run.sigma.unwrap();
        let point_region = |v: i64| {
            Region::from_boxes(
                vec![a_var],
                vec![cpr_smt::ParamBox::new(vec![cpr_smt::Interval::point(v)])],
            )
        };
        let refined = refine_patch(&mut sess, &phi, &point_region(5), sigma, 0, &mut 0, &config);
        assert!(refined.is_empty());

        // Through Algorithm 2, the infeasible patch survives intact.
        let mut entries = vec![PoolEntry::new(AbstractPatch::new(
            0,
            theta,
            vec![a_var],
            point_region(-10),
        ))];
        let stats = reduce(&mut sess, &mut entries, &run, &config);
        assert_eq!(stats.feasible, 0);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].patch.concrete_count(), 1);
        assert_eq!(entries[0].score.feasible, 0);
    }

    #[test]
    fn deletion_evidence_accumulates_for_tautology() {
        let (mut sess, program, config) = setup();
        let theta_true = sess.pool.tt();
        let patch = HolePatch {
            theta: theta_true,
            params: cpr_smt::Model::new(),
        };
        let mut input = cpr_smt::Model::new();
        let xv = sess.pool.find_var("x").unwrap();
        let yv = sess.pool.find_var("y").unwrap();
        input.set(xv, 7i64);
        input.set(yv, 2i64);
        let run = ConcolicExecutor::new().execute(&mut sess.pool, &program, &input, Some(&patch));
        assert!(run.hit_patch);
        assert!(!run.hit_bug); // early return: functionality deleted

        let mut entries = vec![PoolEntry::new(AbstractPatch::concrete(0, theta_true))];
        let stats = reduce(&mut sess, &mut entries, &run, &config);
        assert_eq!(stats.feasible, 1);
        assert_eq!(entries[0].score.deletion_evidence, 1);
        // A tautology is never removed (it violates no spec) — only
        // deprioritized, exactly as the paper describes.
        assert_eq!(stats.removed, 0);
    }

    /// The pool walk is bit-identical at any thread count: same stats, same
    /// surviving entries, same refined regions, same scores.
    #[test]
    fn reduce_is_deterministic_across_thread_counts() {
        let run_with_threads = |threads: usize| {
            let (mut sess, program, mut config) = setup();
            config.threads = threads;
            let theta_exec = sess.pool.ff();
            let patch = HolePatch {
                theta: theta_exec,
                params: cpr_smt::Model::new(),
            };
            let mut input = cpr_smt::Model::new();
            input.set(sess.pool.find_var("x").unwrap(), 7i64);
            input.set(sess.pool.find_var("y").unwrap(), 0i64);
            let run =
                ConcolicExecutor::new().execute(&mut sess.pool, &program, &input, Some(&patch));

            // A mixed pool: parameterized single/pair patches + concretes.
            let x = sess.pool.named_var("x", Sort::Int);
            let y = sess.pool.named_var("y", Sort::Int);
            let a_var = sess.pool.find_var("a").unwrap();
            let b_var = sess.pool.find_var("b").unwrap();
            let a = sess.pool.var_term(a_var);
            let b = sess.pool.var_term(b_var);
            let ge_xa = sess.pool.ge(x, a);
            let eq_xa = sess.pool.eq(x, a);
            let eq_yb = sess.pool.eq(y, b);
            let pair = sess.pool.or(eq_xa, eq_yb);
            let tt = sess.pool.tt();
            let ff = sess.pool.ff();
            let mut entries = vec![
                PoolEntry::new(AbstractPatch::new(
                    0,
                    ge_xa,
                    vec![a_var],
                    Region::full(vec![a_var], -10, 10),
                )),
                PoolEntry::new(AbstractPatch::new(
                    1,
                    pair,
                    vec![a_var, b_var],
                    Region::full(vec![a_var, b_var], -10, 10),
                )),
                PoolEntry::new(AbstractPatch::concrete(2, tt)),
                PoolEntry::new(AbstractPatch::concrete(3, ff)),
                PoolEntry::new(AbstractPatch::new(
                    4,
                    eq_xa,
                    vec![a_var],
                    Region::full(vec![a_var], -10, 10),
                )),
            ];
            let stats = reduce(&mut sess, &mut entries, &run, &config);
            let snapshot: Vec<_> = entries
                .iter()
                .map(|e| {
                    (
                        e.patch.id,
                        e.patch.constraint.volume(),
                        e.patch.constraint.clone(),
                        e.score.feasible,
                        e.score.bug_hits,
                        e.score.deletion_evidence,
                    )
                })
                .collect();
            (stats, snapshot)
        };

        let serial = run_with_threads(1);
        for threads in [2, 4, 8] {
            let parallel = run_with_threads(threads);
            assert_eq!(serial.0, parallel.0, "stats differ at {threads} threads");
            assert_eq!(
                serial.1.len(),
                parallel.1.len(),
                "pool size differs at {threads} threads"
            );
            for (s, p) in serial.1.iter().zip(&parallel.1) {
                assert_eq!(s.0, p.0, "entry order differs at {threads} threads");
                assert_eq!(s.1, p.1, "volume differs at {threads} threads");
                assert_eq!(
                    format!("{:?}", s.2),
                    format!("{:?}", p.2),
                    "region differs at {threads} threads"
                );
                assert_eq!(
                    (s.3, s.4, s.5),
                    (p.3, p.4, p.5),
                    "score differs at {threads} threads"
                );
            }
        }
    }
}
