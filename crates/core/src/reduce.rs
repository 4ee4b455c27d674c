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
//! 2. **Content-digest answer order.** Any term a worker interns itself (a
//!    refinement region term) gets an id past the pre-interned base whose
//!    value depends on that worker's interning history. The solver never
//!    lets such ids steer a search: it answers every query with its
//!    constraints iterated in content-digest order (see `cpr_smt::digest`),
//!    so the verdict and the witness model are functions of what the
//!    constraints say, not of the ids they were given. Queries mentioning
//!    a worker-local id also bypass the shared query cache (the fork's
//!    cache floor), where an id would name different terms in different
//!    forks.
//!
//! Workers return pool-independent outcomes (regions, flags) that are
//! merged in entry order, and their solver statistics and cacheable query
//! results are folded back via [`Solver::absorb`].

use std::sync::atomic::{AtomicUsize, Ordering};

use cpr_concolic::ConcolicResult;
use cpr_smt::{Domains, Model, Region, SatResult, Solver, TermId, TermPool};
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
    /// RefinePatch `ω_pass2` queries answered from a witness model instead
    /// of the solver ("refine.model_reuse_hits").
    pub model_reuse_hits: u64,
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
    model_reuse_hits: u64,
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
    let refine_spec = run.hit_bug || !run.asserts.is_empty();

    // Per-entry work on forked workers; outcomes come back in entry order.
    let entries_view: &[PoolEntry] = entries;
    let domains = &sess.domains;
    let outcomes = fan_out(
        &sess.pool,
        &mut sess.solver,
        n,
        config.threads,
        |pool, solver, i| {
            process_entry(
                pool,
                solver,
                domains,
                &entries_view[i].patch,
                &phis[i],
                t_terms[i],
                sigma,
                refine_spec,
                run,
                config,
            )
        },
    );
    for (entry, outcome) in entries.iter_mut().zip(outcomes) {
        stats.model_reuse_hits += outcome.model_reuse_hits;
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

/// Runs `work(pool, solver, i)` for every `i` in `0..n` on up to `threads`
/// workers, each owning a fork of `pool` and a [`Solver::fork`] of
/// `solver` taken at `pool.len()` — every id already in `pool` is shared by
/// all forks, so callers pre-intern whatever their items share first.
/// Workers claim indices from an atomic counter; their solvers are
/// absorbed back into `solver` in spawn order and their pools dropped.
/// Results come back in index order, so scheduling cannot influence them
/// as long as each result is pool-independent (see the module docs). This
/// is the fan-out of Reduce and of Phase-1 validation; `threads = 1` runs
/// the same code on one worker.
pub(crate) fn fan_out<T: Send>(
    pool: &TermPool,
    solver: &mut Solver,
    n: usize,
    threads: usize,
    work: impl Fn(&mut TermPool, &mut Solver, usize) -> T + Sync,
) -> Vec<T> {
    let base_terms = pool.len();
    let threads = threads.clamp(1, n.max(1));
    let counter = AtomicUsize::new(0);
    let work = &work;
    let workers: Vec<(Vec<(usize, T)>, Solver)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let mut pool = pool.clone();
                let mut solver = solver.fork(base_terms);
                let counter = &counter;
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, work(&mut pool, &mut solver, i)));
                    }
                    (done, solver)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-out worker panicked"))
            .collect()
    });
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for (done, worker) in workers {
        for (i, result) in done {
            results[i] = Some(result);
        }
        solver.absorb(worker);
    }
    results
        .into_iter()
        .map(|r| r.expect("every index is processed exactly once"))
        .collect()
}

/// A solver check of `prefix ++ extras`.
fn check_query(
    pool: &TermPool,
    solver: &mut Solver,
    domains: &Domains,
    prefix: &[TermId],
    extras: &[TermId],
) -> SatResult {
    solver.check(pool, &[prefix, extras].concat(), domains)
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
        model_reuse_hits: 0,
    };
    // π ← φ(X) ∧ ψ_ρ(X, A) ∧ T_ρ(A)
    if !check_query(pool, solver, domains, phi, &[t_term]).is_sat() {
        return outcome;
    }
    outcome.feasible = true;
    let mut patch = patch.clone();
    if refine_spec {
        if let Some(sigma) = sigma {
            let mut counts = RefineCounts::default();
            let refined = refine_patch_impl(
                pool,
                solver,
                domains,
                phi,
                &patch.constraint,
                sigma,
                &mut 0,
                &mut counts,
                config,
            );
            outcome.model_reuse_hits = counts.model_reuse_hits;
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
    // constant here: evidence of functionality deletion.
    let not_psi = pool.not(psi);
    let mut q = base.clone();
    q.push(not_psi);
    solver.check(pool, &q, domains).is_unsat()
}

/// Algorithm 3: refines the parameter constraint `T_ρ` (given as a
/// [`Region`]) so that the specification `σ` can no longer be violated on
/// the partition `φ` (which must already be re-targeted at this patch, i.e.
/// include `ψ_ρ`). Returns the refined region; an empty region means the
/// patch must be discarded. `calls` accumulates the solver calls charged
/// against [`RepairConfig::max_refine_calls`].
pub fn refine_patch(
    sess: &mut Session,
    phi: &[TermId],
    region: &Region,
    sigma: TermId,
    calls: &mut u32,
    config: &RepairConfig,
) -> Region {
    refine_patch_impl(
        &mut sess.pool,
        &mut sess.solver,
        &sess.domains,
        phi,
        region,
        sigma,
        calls,
        &mut RefineCounts::default(),
        config,
    )
}

/// What [`refine_patch_impl`] calls did besides returning regions,
/// accumulated over every call given the same counts.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RefineCounts {
    /// `ω_pass2` queries answered from a witness model, without the solver.
    pub(crate) model_reuse_hits: u64,
    /// Solver-issued `ω_pass2` verdicts: `Sat`, `Unsat`, `Unknown`.
    #[cfg(test)]
    pub(crate) pass2_issued: [u64; 3],
}

#[cfg(test)]
impl RefineCounts {
    fn tally_pass2(&mut self, verdict: &SatResult) {
        let slot = match verdict {
            SatResult::Sat(_) => 0,
            SatResult::Unsat => 1,
            SatResult::Unknown => 2,
        };
        self.pass2_issued[slot] += 1;
    }
}

/// How many of the latest models of `φ ∧ σ` one top-level refinement keeps
/// as `ω_pass2` witnesses.
const MAX_WITNESSES: usize = 4;

/// [`refine_patch`] on explicit pool/solver/domain state, so reduce and
/// Phase-1 validation workers can run it on their forks. `counts`
/// accumulates what the call did besides returning the region.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_patch_impl(
    pool: &mut TermPool,
    solver: &mut Solver,
    domains: &Domains,
    phi: &[TermId],
    region: &Region,
    sigma: TermId,
    calls: &mut u32,
    counts: &mut RefineCounts,
    config: &RepairConfig,
) -> Region {
    let mut refinement = Refinement {
        pool,
        solver,
        domains,
        phi,
        sigma,
        calls,
        config,
        pass1: None,
        witnesses: Vec::new(),
        counts,
    };
    refinement.refine(region, 0, None)
}

/// The state of one top-level [`refine_patch`] call, threaded through its
/// recursion.
///
/// The recursion issues a solver query only when the eager Algorithm 3
/// would act on its verdict, yet charges `calls` exactly as the eager
/// version does, so the budget cuts off at the same points and the
/// returned region is bit-identical (DESIGN.md §4.5, "RefinePatch query
/// discipline"):
///
/// * `ω_pass1 = φ ∧ σ` does not mention the region; it is decided once and
///   its verdict reused at every level (each level still charges a call).
/// * The sub-region guard `φ ∧ T_r` is charged before entering the child
///   but decided only when the child ends without a split — a model of the
///   child's `ω_pass2` or `ω_fail` is a model of the guard. If the guard
///   turns out `Unsat`, the eager recursion never entered the child: the
///   child rolls `calls` back to its entry value and returns `r` unchanged.
/// * `ω_pass2 = φ ∧ T_r ∧ σ` counts as `Sat` without a solver call when a
///   witness — a model of `φ ∧ σ` the solver already returned (ω_pass1's
///   or an earlier `Sat` ω_pass2's) — still satisfies `φ` and `σ` with its
///   parameters clamped into `r`'s first box. Only ω_pass2's verdict is
///   read, and its `Sat` and `Unknown` lead to the same region and `calls`:
///   `Sat` only settles the pending guard, which a real model of `φ ∧ T_r`
///   cannot refute. ω_pass1 and ω_fail, whose model picks the split,
///   always go to the solver.
struct Refinement<'a> {
    pool: &'a mut TermPool,
    solver: &'a mut Solver,
    domains: &'a Domains,
    phi: &'a [TermId],
    sigma: TermId,
    calls: &'a mut u32,
    config: &'a RepairConfig,
    /// `is_sat()` of ω_pass1, once decided (`Unknown` counts as not sat).
    pass1: Option<bool>,
    /// The latest models of `φ ∧ σ` the solver returned, oldest first, at
    /// most [`MAX_WITNESSES`]. Never shared beyond this refinement, so
    /// what it answers does not depend on scheduling.
    witnesses: Vec<Model>,
    counts: &'a mut RefineCounts,
}

impl Refinement<'_> {
    fn check(&mut self, extras: &[TermId]) -> SatResult {
        check_query(self.pool, self.solver, self.domains, self.phi, extras)
    }

    /// Algorithm 3 on `region` at recursion `depth`. `guard` is `Some(T_r)`
    /// (the region's term) while this call's sub-region guard is charged
    /// but undecided; `None` at the top level or once a model proved it.
    fn refine(&mut self, region: &Region, depth: u32, mut guard: Option<TermId>) -> Region {
        if depth >= self.config.max_refine_depth || *self.calls >= self.config.max_refine_calls {
            // Budget exhausted: keep the region (conservative, mirrors a solver
            // timeout in the original tool). The eager guard would have led
            // here or to the same `r`, with `calls` untouched either way.
            return region.clone();
        }
        let entry_calls = *self.calls;
        let region_term = match guard {
            Some(t) => t,
            None => region.to_term(self.pool),
        };
        let not_sigma = self.pool.not(self.sigma);

        // ω_pass1 ← φ(X) ∧ σ(X)
        *self.calls += 1;
        let pass1 = match self.pass1 {
            Some(sat) => sat,
            None => {
                let sat = match self.check(&[self.sigma]) {
                    SatResult::Sat(model) => {
                        self.remember(model);
                        true
                    }
                    SatResult::Unsat | SatResult::Unknown => false,
                };
                self.pass1 = Some(sat);
                sat
            }
        };
        if pass1 {
            // ω_pass2 ← φ ∧ ψ_ρ ∧ T_ρ ∧ σ, from a witness when one holds
            *self.calls += 1;
            if self.witness_holds(region) {
                self.counts.model_reuse_hits += 1;
                guard = None;
            } else {
                let verdict = self.check(&[region_term, self.sigma]);
                #[cfg(test)]
                self.counts.tally_pass2(&verdict);
                match verdict {
                    SatResult::Unsat => {
                        if self.guard_refutes(guard, entry_calls) {
                            return region.clone();
                        }
                        // No parameter value in T_ρ can make the spec pass: discard.
                        return Region::empty(region.params().to_vec());
                    }
                    SatResult::Sat(model) => {
                        self.remember(model);
                        guard = None;
                    }
                    SatResult::Unknown => {}
                }
            }
        }

        // ω_fail ← φ ∧ ψ_ρ ∧ T_ρ ∧ ¬σ
        *self.calls += 1;
        let SatResult::Sat(model) = self.check(&[region_term, not_sigma]) else {
            // No counterexample: the constraint needs no further refinement.
            self.guard_refutes(guard, entry_calls);
            return region.clone();
        };
        // Extract the counterexample parameter point m_A.
        let point: Vec<i64> = region
            .params()
            .iter()
            .map(|&p| model.int(p).unwrap_or(0))
            .collect();
        if !region.contains_point(&point) && !region.params().is_empty() {
            // Defensive: a model outside the region (should not happen);
            // stop refining rather than loop.
            self.guard_refutes(guard, entry_calls);
            return region.clone();
        }
        let subregions = region.split_at(&point);
        if subregions.is_empty() {
            return Region::empty(region.params().to_vec());
        }
        let mut kept: Vec<Region> = Vec::with_capacity(subregions.len());
        for r in subregions {
            // Guard: only recurse into regions compatible with the path.
            // Charged here, decided by the child only if its verdict matters;
            // a refuted child returns `r` itself ("cannot reason about this
            // region here; keep it").
            *self.calls += 1;
            let r_term = r.to_term(self.pool);
            let refined = self.refine(&r, depth + 1, Some(r_term));
            if !refined.is_empty() {
                kept.push(refined);
            }
        }
        Region::union(region.params().to_vec(), kept).merged()
    }

    /// Keeps `model`, a model of `φ ∧ σ`, as the newest witness.
    fn remember(&mut self, model: Model) {
        if self.witnesses.len() == MAX_WITNESSES {
            self.witnesses.remove(0);
        }
        self.witnesses.push(model);
    }

    /// Whether some witness, newest first, moved into `region` is a model
    /// of `φ ∧ T_region ∧ σ`: each parameter is clamped into the region's
    /// first box (so `T_region` holds) and must lie in its domain; the
    /// other values are a solver model's under the same `domains`, so they
    /// lie in theirs.
    fn witness_holds(&self, region: &Region) -> bool {
        let Some(first) = region.boxes().first() else {
            return false;
        };
        let pool: &TermPool = self.pool;
        self.witnesses.iter().rev().any(|witness| {
            let mut model = witness.clone();
            for (&p, iv) in region.params().iter().zip(first.intervals()) {
                let value = witness.int(p).unwrap_or(0).clamp(iv.lo(), iv.hi());
                if !self.domains.get(p).is_some_and(|d| d.contains(value)) {
                    return false;
                }
                model.set(p, value);
            }
            model.eval_bool(pool, self.sigma) && model.satisfies(pool, self.phi)
        })
    }

    /// Decides a still-pending sub-region guard for a call that ends
    /// without a split. An `Unsat` guard means the eager recursion never
    /// entered this call, so `calls` goes back to its entry value and the
    /// caller must get the region back unchanged.
    fn guard_refutes(&mut self, guard: Option<TermId>, entry_calls: u32) -> bool {
        let Some(r_term) = guard else {
            return false;
        };
        if !self.check(&[r_term]).is_unsat() {
            return false;
        }
        *self.calls = entry_calls;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{test_input, RepairProblem};
    use cpr_concolic::{ConcolicExecutor, HolePatch};
    use cpr_lang::{check, parse};
    use cpr_smt::{Interval, ParamBox, Sort, VarId};
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
        let refined = refine_patch(&mut sess, &phi, &region, sigma, &mut 0, &config);
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
        let refined = refine_patch(&mut sess, &contradiction, &region, sigma, &mut 0, &config);
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
        let refined = refine_patch(&mut sess, &phi, &point_region(5), sigma, &mut 0, &config);
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

    /// Algorithm 3 as it was before the query discipline of
    /// [`Refinement`]: every level re-issues ω_pass1 and every sub-region
    /// guard is decided before the child is entered. The reference the
    /// deferred recursion must reproduce; counts the guards it finds
    /// `Unsat` in `refuted_guards`.
    #[allow(clippy::too_many_arguments)]
    fn eager_refine(
        pool: &mut TermPool,
        solver: &mut Solver,
        domains: &Domains,
        phi: &[TermId],
        region: &Region,
        sigma: TermId,
        depth: u32,
        calls: &mut u32,
        config: &RepairConfig,
        refuted_guards: &mut u32,
    ) -> Region {
        if depth >= config.max_refine_depth || *calls >= config.max_refine_calls {
            return region.clone();
        }
        let region_term = region.to_term(pool);
        let not_sigma = pool.not(sigma);
        macro_rules! check {
            ($($extra:expr),+) => {
                check_query(pool, solver, domains, phi, &[$($extra),+])
            };
        }
        *calls += 1;
        if check!(sigma).is_sat() {
            *calls += 1;
            if check!(region_term, sigma).is_unsat() {
                return Region::empty(region.params().to_vec());
            }
        }
        *calls += 1;
        let SatResult::Sat(model) = check!(region_term, not_sigma) else {
            return region.clone();
        };
        let point: Vec<i64> = region
            .params()
            .iter()
            .map(|&p| model.int(p).unwrap_or(0))
            .collect();
        if !region.contains_point(&point) && !region.params().is_empty() {
            return region.clone();
        }
        let subregions = region.split_at(&point);
        if subregions.is_empty() {
            return Region::empty(region.params().to_vec());
        }
        let mut kept = Vec::new();
        for r in subregions {
            *calls += 1;
            let r_term = r.to_term(pool);
            if check!(r_term).is_unsat() {
                *refuted_guards += 1;
                kept.push(r);
                continue;
            }
            let refined = eager_refine(
                pool,
                solver,
                domains,
                phi,
                &r,
                sigma,
                depth + 1,
                calls,
                config,
                refuted_guards,
            );
            if !refined.is_empty() {
                kept.push(refined);
            }
        }
        Region::union(region.params().to_vec(), kept).merged()
    }

    /// A condition template `θ(u, v, a, b)` over two program inputs and the
    /// parameters `a`, `b`.
    type Template = fn(&mut TermPool, TermId, TermId, TermId, TermId) -> TermId;

    /// One RefinePatch problem: a session, a partition re-targeted at a
    /// template, the specification and a starting region.
    struct RefineCase {
        sess: Session,
        phi: Vec<TermId>,
        sigma: TermId,
        region: Region,
    }

    /// What one refinement leaves behind.
    struct RefineOutcome {
        region: Region,
        /// The final `calls`.
        calls: u32,
        /// Solver queries issued.
        queries: u64,
        pool_len: usize,
        /// Guards the eager oracle found `Unsat` (0 for the deferred
        /// recursion).
        refuted_guards: u32,
        /// The deferred recursion's counts (all 0 for the oracle).
        counts: RefineCounts,
    }

    /// Runs the eager oracle or [`refine_patch_impl`] on a fork of the
    /// case's session, like a reduce worker does.
    fn refine_on_fork(case: &RefineCase, config: &RepairConfig, eager: bool) -> RefineOutcome {
        let mut pool = case.sess.pool.clone();
        let mut solver = case.sess.solver.fork(pool.len());
        let domains = &case.sess.domains;
        let before = solver.stats().queries;
        let mut calls = 0;
        let mut refuted_guards = 0;
        let mut counts = RefineCounts::default();
        let (pool, solver) = (&mut pool, &mut solver);
        let (phi, region, sigma) = (&case.phi, &case.region, case.sigma);
        let region = if eager {
            eager_refine(
                pool,
                solver,
                domains,
                phi,
                region,
                sigma,
                0,
                &mut calls,
                config,
                &mut refuted_guards,
            )
        } else {
            refine_patch_impl(
                pool,
                solver,
                domains,
                phi,
                region,
                sigma,
                &mut calls,
                &mut counts,
                config,
            )
        };
        RefineOutcome {
            region,
            calls,
            queries: solver.stats().queries - before,
            pool_len: pool.len(),
            refuted_guards,
            counts,
        }
    }

    /// Builds the refinement cases of `problem`, on sessions set up with
    /// `session_config` (whose solver answers the case's queries): each
    /// template (over the parameters `a`, `b`) is run concolically with
    /// `a = b = 5` on each input, and its partition refined from two
    /// starting regions — the full box, and an isolated corner box beside
    /// a middle one, whose sub-region guard is `Unsat` on most partitions.
    fn refine_cases(
        problem: &RepairProblem,
        session_config: &RepairConfig,
        templates: &[Template],
        inputs: &[[i64; 2]],
    ) -> Vec<RefineCase> {
        let program = &problem.program;
        let mut cases = Vec::new();
        for template in templates {
            for input in inputs {
                for isolated_corner in [false, true] {
                    let mut sess = Session::new(problem, session_config);
                    let pool = &mut sess.pool;
                    let input_vars: Vec<VarId> = program
                        .inputs
                        .iter()
                        .map(|d| pool.find_var(&d.name).unwrap())
                        .collect();
                    let params = [pool.find_var("a").unwrap(), pool.find_var("b").unwrap()];
                    let [u, v, a, b] = [input_vars[0], input_vars[1], params[0], params[1]]
                        .map(|var| pool.var_term(var));
                    let theta = template(pool, u, v, a, b);
                    let params: Vec<VarId> = params
                        .into_iter()
                        .filter(|&p| pool.vars_of(theta).contains(&p))
                        .collect();
                    let mut rep = cpr_smt::Model::new();
                    let mut input_model = cpr_smt::Model::new();
                    for &p in &params {
                        rep.set(p, 5i64);
                    }
                    for (&var, &value) in input_vars.iter().zip(input) {
                        input_model.set(var, value);
                    }
                    let hole = HolePatch { theta, params: rep };
                    let run =
                        ConcolicExecutor::new().execute(pool, program, &input_model, Some(&hole));
                    let Some(sigma) = run.spec_term(pool).filter(|_| run.hit_patch) else {
                        continue;
                    };
                    let phi = run.constraints_for_patch(pool, theta);
                    let dims = params.len();
                    let boxes = if isolated_corner {
                        vec![
                            ParamBox::new(vec![Interval::point(-10); dims]),
                            ParamBox::new(vec![Interval::of(-3, 7); dims]),
                        ]
                    } else {
                        vec![ParamBox::new(vec![Interval::of(-10, 10); dims])]
                    };
                    let region = Region::from_boxes(params, boxes);
                    cases.push(RefineCase {
                        sess,
                        phi,
                        sigma,
                        region,
                    });
                }
            }
        }
        cases
    }

    /// The partition `φ` and specification `σ` of a hand-built case, over
    /// the DIV problem's inputs `x`, `y` and parameters `a`, `b` (terms).
    type Formula = fn(&mut TermPool, [TermId; 4]) -> (Vec<TermId>, TermId);

    /// A hand-built refinement case per starting region of `regions`
    /// (boxes over the parameters `a`, then `b`, as many as a box has
    /// intervals), on sessions set up with `session_config`.
    fn formula_cases(
        session_config: &RepairConfig,
        formula: Formula,
        regions: &[Vec<Vec<(i64, i64)>>],
    ) -> Vec<RefineCase> {
        regions
            .iter()
            .map(|boxes| {
                let problem = crate::synthesize::tests::problem();
                let mut sess = Session::new(&problem, session_config);
                let pool = &mut sess.pool;
                let vars = ["x", "y", "a", "b"].map(|name| pool.find_var(name).unwrap());
                let terms = vars.map(|var| pool.var_term(var));
                let (phi, sigma) = formula(pool, terms);
                let dims = boxes[0].len();
                let boxes = boxes
                    .iter()
                    .map(|ivs| {
                        ParamBox::new(ivs.iter().map(|&(lo, hi)| Interval::of(lo, hi)).collect())
                    })
                    .collect();
                let region = Region::from_boxes(vars[2..2 + dims].to_vec(), boxes);
                RefineCase {
                    sess,
                    phi,
                    sigma,
                    region,
                }
            })
            .collect()
    }

    /// The deferred recursion, answering `ω_pass2` from witnesses where it
    /// can, returns the eager Algorithm 3's region and leaves `calls` and
    /// the pool where it left them, for every budget cutoff — calls swept
    /// so the cut lands mid sibling loop, depths 1–3 and the default — on
    /// the DIV and the libtiff-865f7b2-shaped problems (also with a solver
    /// node budget small enough to leave queries `Unknown`) and on
    /// hand-built partitions whose specification mentions the parameters,
    /// where a witness moved into a region can break `σ`; and it never
    /// issues more queries.
    #[test]
    fn deferred_refinement_matches_the_eager_algorithm() {
        use crate::synthesize::tests::{asserting_problem, problem};
        let templates: [Template; 4] = [
            |p, u, _, a, _| p.ge(u, a),
            |p, _, v, a, _| p.le(v, a),
            |p, u, v, a, b| {
                let (ua, vb) = (p.eq(u, a), p.eq(v, b));
                p.or(ua, vb)
            },
            |p, u, v, a, b| {
                let (ua, vb) = (p.gt(u, a), p.ge(v, b));
                p.and(ua, vb)
            },
        ];
        let quick = RepairConfig::quick();
        let starved = RepairConfig {
            solver: cpr_smt::SolverConfig {
                max_nodes: 4,
                ..quick.solver.clone()
            },
            ..RepairConfig::quick()
        };
        let mut cases = refine_cases(&problem(), &quick, &templates, &[[7, 0], [4, 0]]);
        cases.extend(refine_cases(
            &asserting_problem(),
            &quick,
            &templates,
            &[[3, 2], [-4, 3]],
        ));
        cases.extend(refine_cases(&problem(), &starved, &templates, &[[7, 0]]));
        // A partition on which the spec can never pass (ω_pass1 Unsat).
        cases.extend(formula_cases(
            &quick,
            |p, [x, _, a, _]| {
                let (zero, five) = (p.int(0), p.int(5));
                (vec![p.ge(x, a), p.gt(x, five)], p.lt(x, zero))
            },
            &[vec![vec![(-10, 10)]]],
        ));
        // The spec passes outside the band 0 ≤ a ≤ 5: a witness clamped
        // into a box at or inside the band satisfies φ but not σ, and
        // ω_pass2 is Unsat on a box inside it.
        cases.extend(formula_cases(
            &quick,
            |p, [x, _, a, _]| {
                let (zero, five) = (p.int(0), p.int(5));
                let (below, above) = (p.lt(a, zero), p.gt(a, five));
                (vec![p.ge(x, a), p.gt(x, five)], p.or(below, above))
            },
            &[
                vec![vec![(-10, 10)]],
                vec![vec![(1, 4)]],
                vec![vec![(2, 3)], vec![(-10, -8)]],
                vec![vec![(0, 7)], vec![(-10, -10)]],
            ],
        ));
        // Spec over inputs and parameters: x + a ≠ 0 and a + b < y.
        cases.extend(formula_cases(
            &quick,
            |p, [x, _, a, _]| {
                let (two, seven, zero) = (p.int(2), p.int(7), p.int(0));
                let sum = p.add(x, a);
                (
                    vec![p.gt(x, two), p.lt(x, seven), p.ge(x, a)],
                    p.ne(sum, zero),
                )
            },
            &[vec![vec![(-10, 10)]], vec![vec![(-6, -3)]]],
        ));
        cases.extend(formula_cases(
            &quick,
            |p, [x, y, a, b]| {
                let sum = p.add(a, b);
                (vec![p.ge(x, a), p.le(y, b)], p.lt(sum, y))
            },
            &[
                vec![vec![(-10, 10), (-10, 10)]],
                vec![vec![(4, 10), (-2, 10)], vec![(-10, -10), (-10, -10)]],
            ],
        ));
        // Under a small node budget: ω_pass1 is decided (a < -5 holds on
        // whole boxes), while on a box in 1..=4 only the few points with
        // x·y = a² + 7 pass, which the search may not reach, and no
        // witness does.
        cases.extend(formula_cases(
            &starved,
            |p, [x, y, a, _]| {
                let (seven, five, minus_five) = (p.int(7), p.int(5), p.int(-5));
                let (xy, aa) = (p.mul(x, y), p.mul(a, a));
                let shifted = p.add(aa, seven);
                let (hit, below) = (p.eq(xy, shifted), p.lt(a, minus_five));
                (vec![p.ge(x, a), p.gt(x, five)], p.or(hit, below))
            },
            &[
                vec![vec![(-10, 10)]],
                vec![vec![(1, 4)]],
                vec![vec![(0, 7)], vec![(-10, -10)]],
            ],
        ));
        assert!(cases.len() >= 30, "only {} cases", cases.len());

        let (mut eager_queries, mut deferred_queries, mut refuted_guards) = (0, 0, 0);
        let mut counts = RefineCounts::default();
        for (i, case) in cases.iter().enumerate() {
            for max_refine_depth in [1, 2, 3, RepairConfig::quick().max_refine_depth] {
                for max_refine_calls in 1..=40 {
                    let config = RepairConfig {
                        max_refine_depth,
                        max_refine_calls,
                        ..RepairConfig::quick()
                    };
                    let eager = refine_on_fork(case, &config, true);
                    let deferred = refine_on_fork(case, &config, false);
                    let at =
                        format!("case {i}, depth {max_refine_depth}, calls {max_refine_calls}");
                    assert_eq!(eager.region, deferred.region, "region differs at {at}");
                    assert_eq!(eager.calls, deferred.calls, "calls differ at {at}");
                    assert!(deferred.queries <= eager.queries, "more queries at {at}");
                    assert_eq!(
                        eager.pool_len, deferred.pool_len,
                        "pool size differs at {at}"
                    );
                    eager_queries += eager.queries;
                    deferred_queries += deferred.queries;
                    refuted_guards += eager.refuted_guards;
                    counts.model_reuse_hits += deferred.counts.model_reuse_hits;
                    for (sum, n) in counts
                        .pass2_issued
                        .iter_mut()
                        .zip(deferred.counts.pass2_issued)
                    {
                        *sum += n;
                    }
                    if eager.calls < max_refine_calls {
                        // The budget never bound: larger ones change nothing.
                        break;
                    }
                }
            }
        }
        assert!(refuted_guards > 0, "no deferred guard was ever Unsat");
        assert!(
            counts.model_reuse_hits > 0,
            "no ω_pass2 answered by a witness"
        );
        let [sat, unsat, unknown] = counts.pass2_issued;
        assert!(
            sat > 0 && unsat > 0 && unknown > 0,
            "solver-issued ω_pass2: {sat} Sat, {unsat} Unsat, {unknown} Unknown"
        );
        assert!(
            deferred_queries < eager_queries,
            "no query saved: {deferred_queries} vs {eager_queries}"
        );
    }
}
