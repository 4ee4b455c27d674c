//! The expansion phase of the repair loop: generational search with path
//! reduction (§3.4), fanned out over [`RepairConfig::threads`] workers.
//!
//! Per explored path, the serial algorithm issues up to
//! `max_expansion × max_feasibility_probes` solver checks: every prefix
//! flip is probed against the top-ranked patches until one can exercise it
//! (the flip yields a candidate input) or all are infeasible (the prefix is
//! *skipped* — path reduction). This module keeps those semantics exactly
//! while attacking the cost on three fronts:
//!
//! 1. **Parallel per-flip fan-out.** Flips never interact, so they are
//!    distributed over forked solvers sharing the memoizing query cache of
//!    `crates/smt`. Unlike the reduce phase, workers intern nothing: every
//!    query of the batch is pre-built serially into the shared term pool,
//!    so workers borrow the pool read-only and all queries lie below the
//!    cache floor (fully cacheable).
//! 2. **A skeleton check.** Constraints are conjunctive, so once a prefix
//!    is UNSAT every extension of it is UNSAT. Each flip first checks its
//!    patch-independent *skeleton* (the non-patch steps of the flipped
//!    prefix): skeleton-UNSAT refutes all of the flip's probe queries at
//!    once, whatever patch or parameter constraint they append.
//! 3. **SAT-model reuse.** A probe query differs from the parent path only
//!    in the re-targeted patch steps and the flipped branch, so the parent
//!    run's inputs extended with the probe patch's representative
//!    parameters often already satisfy it. Model evaluation is a pure
//!    read-only pass; when it succeeds the solver is skipped entirely.
//!
//! # Determinism
//!
//! The outcome is bit-identical at any thread count:
//!
//! * every term is interned serially before the fan-out, so ids are
//!   scheduling-independent and workers need no pool forks at all;
//! * each flip's probe sequence (early exit at the first SAT) is decided
//!   by solver verdicts, which are pure functions of the canonical query —
//!   cached or not, whichever thread computed them first;
//! * candidates and skip counts are merged in flip order, so the input
//!   queue sees the exact serial insertion sequence.

use std::sync::atomic::{AtomicUsize, Ordering};

use cpr_concolic::{prefix_flips, score_candidate, CandidateInput, ConcolicResult, SeenPrefixes};
use cpr_smt::{Domains, Model, SatResult, Solver, TermId, TermPool};

use crate::problem::RepairConfig;
use crate::ranking::{rank_order, PoolEntry};
use crate::session::Session;

/// Statistics from one expansion batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpandStats {
    /// Prefix flips of the parent path (before cap and dedup).
    pub flips_considered: usize,
    /// Flips actually probed (after `max_expansion` and dedup).
    pub flips_expanded: usize,
    /// Candidate inputs produced.
    pub candidates: usize,
    /// Flips counted as skipped (path reduction).
    pub paths_skipped: usize,
    /// Solver calls spent in this batch.
    pub solver_calls: u64,
    /// Probe queries skipped outright because the flip's patch-free
    /// skeleton was UNSAT.
    pub base_unsat_skips: u64,
    /// Probe queries answered by re-evaluating the parent run's model
    /// (extended with the probe patch's representative parameters).
    pub model_reuse_hits: u64,
}

/// Result of one expansion batch, merged in flip order.
#[derive(Debug, Clone, Default)]
pub struct ExpandOutcome {
    /// New candidate inputs, in the deterministic flip order the serial
    /// algorithm would have pushed them.
    pub candidates: Vec<CandidateInput>,
    /// Prefixes no probed patch could exercise (`φ_S` increments).
    pub paths_skipped: usize,
    /// Batch statistics.
    pub stats: ExpandStats,
}

/// One flip's worth of pre-built work: every query term is already interned
/// into the shared pool, so workers treat these as read-only data.
struct FlipTask {
    /// One query per feasibility probe (re-targeted prefix + `T_ρ`), in
    /// ranked-patch order. With path reduction disabled: the single raw
    /// flipped prefix.
    queries: Vec<Vec<TermId>>,
    /// The patch-independent skeleton of the flipped prefix (non-patch
    /// steps only, flipped last step included). `None` when the flipped
    /// step itself is a patch step (its orientation depends on the probe)
    /// or with path reduction disabled.
    skeleton: Option<Vec<TermId>>,
    /// Whether an all-infeasible outcome counts toward `paths_skipped`
    /// (true exactly when path reduction is on).
    count_skip: bool,
    /// Pre-computed candidate priority.
    score: i64,
    /// Flipped branch index (candidate bookkeeping).
    flipped_index: usize,
}

/// Pool-independent result of one flip, produced on a worker.
#[derive(Default)]
struct FlipOutcome {
    /// Witness model of the first satisfiable probe, if any.
    candidate: Option<Model>,
    /// All probes infeasible (with `count_skip`: a skipped path).
    skipped: bool,
    base_unsat_skips: u64,
    model_reuse_hits: u64,
}

/// Expands one explored path: enumerates prefix flips, probes their
/// feasibility against the top-ranked patches (path reduction) across the
/// configured worker threads, and returns the new candidate inputs plus the
/// number of skipped prefixes — bit-identical to a serial run.
pub fn expand(
    sess: &mut Session,
    entries: &[PoolEntry],
    run: &ConcolicResult,
    seen_prefixes: &mut SeenPrefixes,
    config: &RepairConfig,
) -> ExpandOutcome {
    let queries_before = sess.solver.stats().queries;
    let mut stats = ExpandStats::default();

    // Serial pre-pass 1: enumerate flips (interning each negation into the
    // shared pool), apply the expansion cap, drop already-seen prefixes.
    // The cap is applied *before* dedup: seen flips consume expansion
    // slots, exactly as in the serial loop.
    let flips = prefix_flips(&mut sess.pool, &run.path);
    stats.flips_considered = flips.len();
    let live: Vec<_> = flips
        .into_iter()
        .take(config.max_expansion)
        .filter(|flip| seen_prefixes.insert(&flip.constraints))
        .collect();
    stats.flips_expanded = live.len();
    if live.is_empty() {
        return ExpandOutcome {
            stats,
            ..ExpandOutcome::default()
        };
    }

    // Serial pre-pass 2: build every query of the batch. After this point
    // nothing interns another term, so workers share `&sess.pool`.
    let mut reuse_models: Vec<Option<Model>> = Vec::new();
    let tasks: Vec<FlipTask> = if config.path_reduction {
        let order = rank_order(&sess.pool, entries);
        let probe_entries: Vec<&PoolEntry> = order
            .iter()
            .take(config.max_feasibility_probes)
            .map(|&i| &entries[i])
            .collect();
        let t_terms: Vec<TermId> = probe_entries
            .iter()
            .map(|e| e.patch.constraint_term(&mut sess.pool))
            .collect();
        // Candidate models for SAT reuse: the parent inputs extended with
        // each probe patch's representative parameters.
        reuse_models = probe_entries
            .iter()
            .map(|e| {
                e.patch.representative().map(|rep| {
                    let mut m = run.inputs.clone();
                    m.extend(&rep);
                    m
                })
            })
            .collect();
        live.iter()
            .map(|flip| {
                let upto = flip.flipped_index + 1;
                let queries = probe_entries
                    .iter()
                    .zip(&t_terms)
                    .map(|(e, &t_term)| {
                        let mut q = run.patched_prefix(&mut sess.pool, e.patch.theta, upto, true);
                        q.push(t_term);
                        q
                    })
                    .collect();
                // Patch-free skeleton: the non-patch steps are kept
                // verbatim by `patched_prefix`, so this is a subset of
                // every probe query above — skeleton-UNSAT refutes them
                // all, for any patch and any parameter constraint.
                let skeleton = (!run.path[flip.flipped_index].from_patch()).then(|| {
                    let mut base: Vec<TermId> = run.path[..flip.flipped_index]
                        .iter()
                        .filter(|s| !s.from_patch())
                        .map(|s| s.constraint)
                        .collect();
                    base.push(*flip.constraints.last().expect("flip has a constraint"));
                    base
                });
                FlipTask {
                    queries,
                    skeleton,
                    count_skip: true,
                    score: score_candidate(run, flip),
                    flipped_index: flip.flipped_index,
                }
            })
            .collect()
    } else {
        // Ablation: solve the raw flipped prefix, no patch required.
        reuse_models.push(None);
        live.iter()
            .map(|flip| FlipTask {
                queries: vec![flip.constraints.clone()],
                skeleton: None,
                count_skip: false,
                score: score_candidate(run, flip),
                flipped_index: flip.flipped_index,
            })
            .collect()
    };

    // Fan the flips out over forked solvers. Workers borrow the pool
    // read-only; every query is below the cache floor, so all verdicts
    // flow through the shared memoizing cache.
    let n = tasks.len();
    let threads = config.threads.clamp(1, n);
    let base_terms = sess.pool.len();
    let counter = AtomicUsize::new(0);
    let pool = &sess.pool;
    let domains = &sess.domains;
    let worker_results: Vec<(Vec<(usize, FlipOutcome)>, Solver)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let mut solver = sess.solver.fork(base_terms);
                let counter = &counter;
                let tasks = &tasks;
                let reuse_models = &reuse_models;
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let outcome =
                            process_flip(pool, &mut solver, domains, &tasks[i], reuse_models);
                        done.push((i, outcome));
                    }
                    (done, solver)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("expand worker panicked"))
            .collect()
    });

    // Deterministic merge: solvers fold back in spawn order; candidates
    // and skips apply in flip order.
    let mut outcomes: Vec<Option<FlipOutcome>> = Vec::with_capacity(n);
    outcomes.resize_with(n, || None);
    for (done, solver) in worker_results {
        for (i, outcome) in done {
            outcomes[i] = Some(outcome);
        }
        sess.solver.absorb(solver);
    }
    let mut result = ExpandOutcome::default();
    for (task, outcome) in tasks.iter().zip(outcomes) {
        let outcome = outcome.expect("every flip is processed exactly once");
        if let Some(model) = outcome.candidate {
            result.candidates.push(CandidateInput {
                model,
                score: task.score,
                flipped_index: task.flipped_index,
            });
        }
        if outcome.skipped {
            result.paths_skipped += 1;
        }
        stats.base_unsat_skips += outcome.base_unsat_skips;
        stats.model_reuse_hits += outcome.model_reuse_hits;
    }
    stats.candidates = result.candidates.len();
    stats.paths_skipped = result.paths_skipped;
    stats.solver_calls = sess.solver.stats().queries - queries_before;
    result.stats = stats;
    result
}

/// Processes one flip on worker-owned solver state: skeleton check, then
/// the probe sequence with model reuse, early-exiting at the first SAT.
fn process_flip(
    pool: &TermPool,
    solver: &mut Solver,
    domains: &Domains,
    task: &FlipTask,
    reuse_models: &[Option<Model>],
) -> FlipOutcome {
    let mut out = FlipOutcome::default();
    // Stage A: the patch-independent skeleton. UNSAT here refutes every
    // probe query (each is a superset), producing the same skip decision
    // with one query instead of `max_feasibility_probes`.
    if let Some(skeleton) = &task.skeleton {
        if solver.check(pool, skeleton, domains).is_unsat() {
            out.base_unsat_skips = task.queries.len() as u64;
            out.skipped = task.count_skip;
            return out;
        }
    }
    let mut all_infeasible = true;
    for (p, query) in task.queries.iter().enumerate() {
        // SAT-model reuse: a pure evaluation pass; on success the solver
        // (and its cache) are skipped entirely.
        if let Some(model) = reuse_models.get(p).and_then(|m| m.as_ref()) {
            if model.satisfies(pool, query) {
                out.model_reuse_hits += 1;
                out.candidate = Some(model.clone());
                break;
            }
        }
        match solver.check(pool, query, domains) {
            SatResult::Sat(model) => {
                // Keep parameter values in the model: the repair loop uses
                // them as the representative so the intended path is
                // actually taken.
                out.candidate = Some(model);
                break;
            }
            SatResult::Unsat => {}
            SatResult::Unknown => {
                all_infeasible = false;
            }
        }
    }
    if out.candidate.is_none() && all_infeasible {
        out.skipped = task.count_skip;
    }
    out
}
