//! The resumable repair driver: Algorithm 1 as a stepwise state machine.
//!
//! [`crate::repair`] used to be one blocking function; it is now a thin
//! loop over [`RepairDriver`], which exposes the repair loop one iteration
//! at a time (`new` → `step`* → `finish`) and can checkpoint its complete
//! anytime state to bytes at any step boundary ([`RepairDriver::snapshot`])
//! and restore it bit-identically ([`RepairDriver::resume`]). This is what
//! lets `cpr-serve` pause, cancel, migrate and resume repair jobs without
//! changing a single field of the final [`crate::RepairReport`].
//!
//! # What a snapshot contains
//!
//! Everything the remaining iterations depend on: the hash-consed term
//! pool (ids are creation-order indices, so every stored `TermId`/`VarId`
//! stays meaningful), the patch pool entries with their parameter-
//! constraint regions and ranking evidence, the input queue in internal
//! heap order (preserving the pop order of tied candidates), both
//! seen-prefix sets, the anytime history, coverage partitions, all
//! counters, and the accumulated solver statistics.
//!
//! # What a snapshot deliberately omits
//!
//! * The **solver query cache** — it is a warm-start optimization only.
//!   Verdicts are pure functions of canonical queries and the `queries`
//!   counter counts every check *including* cache hits, so a cold cache
//!   after resume re-derives identical verdicts and identical report
//!   counters (only cache hit/miss internals differ, which no report
//!   field exposes).
//! * The **problem and config** — the caller supplies them to `resume`;
//!   the header's subject digest plus a pool-prefix check reject a
//!   snapshot replayed against the wrong subject.
//! * The **executor** — rebuilt from config; it holds no run state.
//! * **Wall-clock instants** — elapsed time is accumulated as durations,
//!   so a snapshot taken on one machine resumes on another.

use std::time::Instant;

use cpr_concolic::{CandidateInput, HolePatch, InputQueue, SeenPrefixes};
use cpr_smt::wire::{self, ByteReader, ByteWriter, WireError};
use cpr_smt::{Model, Region, SolverStats, TermId, TermPool, VarId};
use cpr_synth::AbstractPatch;

use crate::expand::expand;
use crate::problem::{RepairConfig, RepairProblem};
use crate::ranking::{rank_order, PoolEntry, RankScore};
use crate::reduce::reduce;
use crate::repair::{pool_volume, ratio, select_patch, RankedPatch, RepairReport};
use crate::session::Session;
use crate::synthesize::build_patch_pool;

/// Leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"CPRS";
/// Current snapshot format version. Bumped to 2 when `SolverStats` gained
/// the assertion-frame and no-good counters, to 3 when it gained the
/// persistent solver-cache counters — each change altered the embedded
/// stats codec shape — to 4 when the payload gained the injected-inputs log
/// ([`RepairDriver::inject_input`]), to 5 when it dropped the
/// static-screen query counter along with the screen, to 6 when it
/// dropped the expansion UNSAT-prefix store and the six frame, no-good and
/// prefix counters along with those mechanisms, and to 7 when it dropped
/// the four persistent solver-cache counters along with that cache.
pub const SNAPSHOT_VERSION: u32 = 7;

/// Oldest snapshot format version [`RepairDriver::resume`] still loads.
/// Version 3 predates the injected-inputs log; such snapshots load with an
/// empty injection log (there was nothing to inject back then). Versions 3
/// and 4 carry a static-screen query counter, versions 3–5 the
/// UNSAT-prefix store and six more solver counters, and versions 3–6 four
/// persistent solver-cache counters; all of these are read and discarded.
/// Older snapshots re-encode as the current version.
pub const MIN_SNAPSHOT_VERSION: u32 = 3;

/// Why a snapshot could not be loaded. Loading never panics: every
/// malformed, truncated, or mismatched input maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input does not start with the `CPRS` magic bytes.
    BadMagic,
    /// The format version is not one this build understands.
    UnsupportedVersion(u32),
    /// The snapshot was taken for a different subject (name, program
    /// source, or test inputs differ).
    SubjectMismatch,
    /// The input ends before the declared payload and checksum.
    Truncated,
    /// The payload bytes do not match the trailing checksum.
    ChecksumMismatch,
    /// The payload decoded to ids that do not extend the session this
    /// problem/config pair builds — the snapshot was taken under a
    /// different configuration.
    PoolMismatch,
    /// The payload itself is structurally malformed.
    Corrupt(WireError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a CPR snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::SubjectMismatch => {
                write!(f, "snapshot was taken for a different subject")
            }
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot payload checksum mismatch"),
            SnapshotError::PoolMismatch => write!(
                f,
                "snapshot does not extend the session its problem/config builds"
            ),
            SnapshotError::Corrupt(e) => write!(f, "snapshot payload corrupt: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Corrupt(e)
    }
}

/// Why the repair loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Every abstract patch was refuted — the pool is empty.
    PoolEmpty,
    /// The iteration budget ([`RepairConfig::max_iterations`]) ran out.
    IterationBudget,
    /// The wall-clock budget ([`RepairConfig::max_millis`]) ran out.
    TimeBudget,
    /// The input queue drained — the reachable input space is exhausted.
    InputsExhausted,
}

impl StopReason {
    /// Stable lowercase name (used by the serve protocol).
    pub fn name(self) -> &'static str {
        match self {
            StopReason::PoolEmpty => "pool_empty",
            StopReason::IterationBudget => "iteration_budget",
            StopReason::TimeBudget => "time_budget",
            StopReason::InputsExhausted => "inputs_exhausted",
        }
    }
}

/// Result of one [`RepairDriver::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// The loop made one iteration and can continue.
    Running,
    /// The loop is finished; further `step` calls return the same status.
    Done(StopReason),
}

/// The repair loop as an explicit state machine. See the module docs for
/// the snapshot contract.
#[derive(Debug)]
pub struct RepairDriver {
    problem: RepairProblem,
    config: RepairConfig,
    sess: Session,
    entries: Vec<PoolEntry>,
    queue: InputQueue,
    seen_paths: SeenPrefixes,
    seen_prefixes: SeenPrefixes,
    history: Vec<u128>,
    coverage_paths: Vec<(Vec<TermId>, Model)>,
    p_init: u128,
    abstract_init: usize,
    paths_explored: usize,
    paths_skipped: usize,
    iterations: usize,
    inputs_generated: usize,
    generated_runs: usize,
    generated_patch_hits: usize,
    generated_bug_hits: usize,
    /// Nanoseconds spent inside the exploration loop (budget clock).
    explore_nanos: u64,
    /// Nanoseconds spent in the driver overall (reported wall clock).
    elapsed_nanos: u64,
    stop: Option<StopReason>,
    /// Inputs injected between steps ([`RepairDriver::inject_input`]), as
    /// sorted `(name, value)` pairs in arrival order. Part of the snapshot
    /// payload (format v4), so injection count — and with it the score of
    /// the *next* injection — survives a park/resume cycle.
    injected: Vec<Vec<(String, i64)>>,
}

/// Priority band for injected inputs: strictly below the provided seeds
/// (scored `100 - i`) and strictly above everything generational search
/// can produce (`score_candidate < 50`). As long as an injection arrives
/// while inputs of the provided band are still queued, the run is
/// bit-identical to one where the same input was injected up front — the
/// determinism contract `tests/determinism.rs` proves.
const INJECTED_SCORE_BASE: i64 = 80;

/// Floor of the injected band; also the driver's provided/generated
/// boundary (a candidate scoring below this counts as generated).
const INJECTED_SCORE_FLOOR: i64 = 50;

impl RepairDriver {
    /// Phase 1: builds the patch pool and seeds the input queue with the
    /// provided tests. Always runs to completion so that `|P_Init|` is
    /// well-defined for every subject; budgets apply to `step` only.
    pub fn new(problem: RepairProblem, config: RepairConfig) -> RepairDriver {
        let registry = if config.metrics {
            cpr_obs::global().clone()
        } else {
            cpr_obs::MetricsRegistry::disabled()
        };
        RepairDriver::with_metrics(problem, config, &registry)
    }

    /// [`RepairDriver::new`] recording metrics into an explicit registry
    /// instead of the process-wide one (ignoring
    /// [`RepairConfig::metrics`]); the injection point for tests that
    /// assert on counter totals without cross-test interference.
    pub fn with_metrics(
        problem: RepairProblem,
        config: RepairConfig,
        registry: &cpr_obs::MetricsRegistry,
    ) -> RepairDriver {
        let t0 = Instant::now();
        let mut sess = Session::with_metrics(&problem, &config, registry);
        let synth_timer = sess.obs.synthesize_nanos.start();
        let (entries, synth_stats) = build_patch_pool(&mut sess, &problem, &config);
        sess.obs.synthesize_nanos.stop(synth_timer);
        sess.obs.patches_synthesized.add(entries.len() as u64);
        sess.obs
            .refine_model_reuse_hits
            .add(synth_stats.model_reuse_hits);
        sess.obs.pool_patches.set(entries.len() as i64);
        let p_init = synth_stats.concrete;
        let abstract_init = entries.len();

        let mut queue = InputQueue::new();
        for (i, input) in problem
            .failing_inputs
            .iter()
            .chain(problem.passing_inputs.iter())
            .enumerate()
        {
            let model = sess.input_model(input);
            queue.push(CandidateInput {
                model,
                score: 100 - i as i64, // provided tests first, in order
                flipped_index: 0,
            });
        }

        RepairDriver {
            problem,
            config,
            sess,
            entries,
            queue,
            seen_paths: SeenPrefixes::new(),
            seen_prefixes: SeenPrefixes::new(),
            history: Vec::new(),
            coverage_paths: Vec::new(),
            p_init,
            abstract_init,
            paths_explored: 0,
            paths_skipped: 0,
            iterations: 0,
            inputs_generated: 0,
            generated_runs: 0,
            generated_patch_hits: 0,
            generated_bug_hits: 0,
            explore_nanos: 0,
            elapsed_nanos: t0.elapsed().as_nanos() as u64,
            stop: None,
            injected: Vec::new(),
        }
    }

    /// Injects a failing (or passing) input into the live run, between
    /// `step`s — the continuous-repair entry point: a fuzzing front end
    /// that keeps discovering inputs can stream them into an in-flight
    /// job and every subsequent step's patch-space reduction sees them.
    ///
    /// The input joins the queue in the injected priority band (below the
    /// provided seeds, above all generated candidates) with a score that
    /// decreases per injection, and is logged in the snapshot payload so
    /// a park/resume cycle preserves both the pending candidate and the
    /// next injection's score — the determinism contract holds across
    /// inject-then-snapshot-then-resume.
    ///
    /// # Errors
    ///
    /// Rejects injections after the run has stopped, inputs naming
    /// unknown variables, missing a declared input, or out of declared
    /// range — the same well-formedness provided tests are validated for.
    pub fn inject_input(&mut self, input: &crate::problem::TestInput) -> Result<(), String> {
        if let Some(reason) = self.stop {
            return Err(format!(
                "run already stopped ({}): injection would never be explored",
                reason.name()
            ));
        }
        let mut pairs: Vec<(String, i64)> = Vec::with_capacity(input.len());
        for decl in &self.problem.program.inputs {
            let Some(&value) = input.get(&decl.name) else {
                return Err(format!("injected input is missing \"{}\"", decl.name));
            };
            if value < decl.lo || value > decl.hi {
                return Err(format!(
                    "injected value {}={} is outside the declared range [{}, {}]",
                    decl.name, value, decl.lo, decl.hi
                ));
            }
            pairs.push((decl.name.clone(), value));
        }
        if input.len() > pairs.len() {
            let declared: std::collections::HashSet<&str> = self
                .problem
                .program
                .inputs
                .iter()
                .map(|d| d.name.as_str())
                .collect();
            let unknown = input
                .keys()
                .find(|k| !declared.contains(k.as_str()))
                .cloned()
                .unwrap_or_default();
            return Err(format!(
                "injected input names unknown variable \"{unknown}\""
            ));
        }
        pairs.sort();
        let score = (INJECTED_SCORE_BASE - self.injected.len() as i64).max(INJECTED_SCORE_FLOOR);
        let model = self.sess.input_model(input);
        self.queue.push(CandidateInput {
            model,
            score,
            flipped_index: 0,
        });
        self.injected.push(pairs);
        Ok(())
    }

    /// Number of inputs injected so far (including ones already explored).
    pub fn injected_inputs(&self) -> usize {
        self.injected.len()
    }

    /// Runs one iteration of the repair loop (Algorithm 1, lines 2–11):
    /// pick an input, pick a compatible patch, execute concolically,
    /// reduce the pool, expand the search frontier. Idempotent once done.
    pub fn step(&mut self) -> StepStatus {
        if let Some(reason) = self.stop {
            return StepStatus::Done(reason);
        }
        let _span = cpr_obs::span!(
            self.sess.obs.registry,
            "driver.step",
            "iteration {}",
            self.iterations
        );
        let step_timer = self.sess.obs.step_nanos.start();
        let t0 = Instant::now();
        let status = self.step_inner();
        let ns = t0.elapsed().as_nanos() as u64;
        self.explore_nanos += ns;
        self.elapsed_nanos += ns;
        self.sess.obs.step_nanos.stop(step_timer);
        status
    }

    fn step_inner(&mut self) -> StepStatus {
        if self.entries.is_empty() {
            return self.stop_with(StopReason::PoolEmpty);
        }
        if self.iterations >= self.config.max_iterations {
            return self.stop_with(StopReason::IterationBudget);
        }
        if let Some(ms) = self.config.max_millis {
            if self.explore_nanos >= ms.saturating_mul(1_000_000) {
                return self.stop_with(StopReason::TimeBudget);
            }
        }
        // PickNewInput: highest-priority candidate plus a patch that makes
        // its path feasible.
        let Some(candidate) = self.queue.pop() else {
            return self.stop_with(StopReason::InputsExhausted);
        };
        self.iterations += 1;
        let is_generated = candidate.score < INJECTED_SCORE_FLOOR;

        // Pick the best-ranked patch compatible with this candidate's
        // parameters; if the stored parameters died with refinement, fall
        // back to the current best patch's representative.
        let order = rank_order(&self.sess.pool, &self.entries);
        let Some((theta, params)) = select_patch(&self.entries, &order, &candidate) else {
            return self.stop_with(StopReason::PoolEmpty);
        };

        // ConcolicExec(t, ρ, L) — line 7.
        let input = self.sess.project_inputs(&candidate.model);
        let hole = HolePatch { theta, params };
        let exec = self.sess.exec.clone();
        let run = exec.execute(
            &mut self.sess.pool,
            &self.problem.program,
            &input,
            Some(&hole),
        );
        let obs = self.sess.obs.clone();
        if is_generated {
            self.inputs_generated += 1;
            obs.inputs_generated.inc();
            self.generated_runs += 1;
            if run.hit_patch {
                self.generated_patch_hits += 1;
            }
            if run.hit_bug {
                self.generated_bug_hits += 1;
            }
        }
        let full_path: Vec<TermId> = run.constraints();
        if self.seen_paths.insert(&full_path) {
            self.paths_explored += 1;
            obs.paths_explored.inc();
            if self.config.track_coverage {
                // Record the partition and its executed parameters; the
                // model counting itself runs in `finish` so coverage
                // tracking never serializes exploration.
                self.coverage_paths.push((full_path, hole.params.clone()));
            }
        }

        // Reduce — lines 8–10.
        if run.hit_patch {
            let _sp = cpr_obs::span!(obs.registry, "reduce.phase", "pool {}", self.entries.len());
            let timer = obs.reduce_nanos.start();
            let rstats = reduce(&mut self.sess, &mut self.entries, &run, &self.config);
            obs.reduce_nanos.stop(timer);
            obs.patches_refined.add(rstats.refined as u64);
            obs.patches_dropped.add(rstats.removed as u64);
            obs.evidence_feasible.add(rstats.feasible as u64);
            obs.refine_model_reuse_hits.add(rstats.model_reuse_hits);
        }
        obs.pool_patches.set(self.entries.len() as i64);
        self.history.push(pool_volume(&self.entries));
        if self.entries.is_empty() {
            return self.stop_with(StopReason::PoolEmpty);
        }

        // Expansion: generational search with path reduction, fanned out
        // over the worker pool (see [`crate::expand`]). Candidates arrive
        // in the serial flip order, so the input queue evolves
        // bit-identically at any thread count.
        let expansion = {
            let _sp = cpr_obs::span!(obs.registry, "expand.phase");
            let timer = obs.expand_nanos.start();
            let expansion = expand(
                &mut self.sess,
                &self.entries,
                &run,
                &mut self.seen_prefixes,
                &self.config,
            );
            obs.expand_nanos.stop(timer);
            expansion
        };
        obs.flips_expanded
            .add(expansion.stats.flips_expanded as u64);
        obs.expand_candidates.add(expansion.stats.candidates as u64);
        obs.model_reuse_hits.add(expansion.stats.model_reuse_hits);
        obs.paths_skipped.add(expansion.paths_skipped as u64);
        for candidate in expansion.candidates {
            self.queue.push(candidate);
        }
        self.paths_skipped += expansion.paths_skipped;
        StepStatus::Running
    }

    fn stop_with(&mut self, reason: StopReason) -> StepStatus {
        self.stop = Some(reason);
        StepStatus::Done(reason)
    }

    /// Whether the loop has reached a stop condition.
    pub fn is_done(&self) -> bool {
        self.stop.is_some()
    }

    /// Why the loop stopped, once it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Abstract patches still in the pool.
    pub fn abstract_patches(&self) -> usize {
        self.entries.len()
    }

    /// Concrete patches still in the pool.
    pub fn concrete_patches(&self) -> u128 {
        pool_volume(&self.entries)
    }

    /// The problem being repaired.
    pub fn problem(&self) -> &RepairProblem {
        &self.problem
    }

    /// The active configuration.
    pub fn config(&self) -> &RepairConfig {
        &self.config
    }

    /// Coverage model counting, final ranking, developer-patch rank and
    /// patched-source rendering — everything that happens after the loop.
    /// Valid at any point (the algorithm is anytime): the report simply
    /// describes the pool as reduced so far.
    pub fn finish(mut self) -> RepairReport {
        let t0 = Instant::now();
        // Coverage accounting, off the critical exploration loop:
        // instantiate each recorded partition at its executed parameters
        // and count models. Substitution is hash-consing on the same term
        // structures the in-loop variant would have built, so the reported
        // share is unchanged.
        let input_space_volume: u128 = self.problem.program.inputs.iter().fold(1u128, |acc, d| {
            acc.saturating_mul((d.hi - d.lo + 1).max(1) as u128)
        });
        let mut covered_models: u128 = 0;
        for (path, params) in &self.coverage_paths {
            let mut map = std::collections::HashMap::new();
            for (v, val) in params.iter() {
                let c = self.sess.pool.int(val.as_int().unwrap_or(0));
                map.insert(v, c);
            }
            let instantiated: Vec<TermId> = path
                .iter()
                .map(|&c| self.sess.pool.substitute(c, &map))
                .collect();
            let bounds =
                self.sess
                    .solver
                    .count_models(&self.sess.pool, &instantiated, &self.sess.domains);
            covered_models = covered_models.saturating_add(bounds.estimate() as u128);
        }

        // Final report.
        let order = rank_order(&self.sess.pool, &self.entries);
        let ranked: Vec<RankedPatch> = order
            .iter()
            .map(|&i| {
                let e = &self.entries[i];
                RankedPatch {
                    id: e.patch.id,
                    display: e.patch.display(&self.sess.pool),
                    score: e.score.value(),
                    concrete: e.patch.concrete_count(),
                    deletion_evidence: e.score.deletion_evidence,
                }
            })
            .collect();
        let dev_rank = self.problem.developer_patch.clone().and_then(|src| {
            crate::repair::developer_rank(
                &mut self.sess,
                &self.problem,
                &self.entries,
                &order,
                &src,
            )
        });
        let top_patched_source = order.first().and_then(|&i| {
            let patch = &self.entries[i].patch;
            let binding = patch.representative()?;
            crate::apply_patch(
                &self.problem.program,
                &mut self.sess.pool,
                patch.theta,
                &binding,
            )
            .ok()
            .map(|p| cpr_lang::pretty(&p))
        });
        self.elapsed_nanos += t0.elapsed().as_nanos() as u64;
        RepairReport {
            subject: self.problem.name.clone(),
            p_init: self.p_init,
            p_final: pool_volume(&self.entries),
            abstract_init: self.abstract_init,
            abstract_final: self.entries.len(),
            paths_explored: self.paths_explored,
            paths_skipped: self.paths_skipped,
            iterations: self.iterations,
            inputs_generated: self.inputs_generated,
            patch_loc_hit_ratio: ratio(self.generated_patch_hits, self.generated_runs),
            bug_loc_hit_ratio: ratio(self.generated_bug_hits, self.generated_runs),
            ranked,
            dev_rank,
            history: self.history,
            top_patched_source,
            input_coverage: if self.config.track_coverage {
                Some((covered_models as f64 / input_space_volume.max(1) as f64).min(1.0))
            } else {
                None
            },
            wall_millis: self.elapsed_nanos / 1_000_000,
            solver_queries: self.sess.solver.stats().queries,
        }
    }

    // -----------------------------------------------------------------
    // Snapshot / resume.
    // -----------------------------------------------------------------

    /// Serializes the driver's complete loop state (see the module docs
    /// for the contract). Valid at any step boundary; byte-stable: the
    /// same state always encodes to the same bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut p = ByteWriter::new();
        self.sess.pool.write_wire(&mut p);
        wire::write_solver_stats(&mut p, &self.sess.solver.stats());

        p.usize(self.entries.len());
        for e in &self.entries {
            p.usize(e.patch.id);
            wire::write_term_id(&mut p, e.patch.theta);
            p.usize(e.patch.params.len());
            for &v in &e.patch.params {
                wire::write_var_id(&mut p, v);
            }
            wire::write_region(&mut p, &e.patch.constraint);
            p.u32(e.score.feasible);
            p.u32(e.score.bug_hits);
            p.u32(e.score.deletion_evidence);
        }

        // The queue in internal heap order: `CandidateInput`'s ordering
        // ignores the model, so only the exact internal layout reproduces
        // the pop order — and with it the models — of tied candidates.
        p.usize(self.queue.len());
        for c in self.queue.snapshot_order() {
            wire::write_model(&mut p, &c.model);
            p.i64(c.score);
            p.usize(c.flipped_index);
        }

        // Seen sets are pure membership — sorted for stable bytes.
        for set in [&self.seen_paths, &self.seen_prefixes] {
            let mut seqs: Vec<&[TermId]> = set.iter().collect();
            seqs.sort();
            p.usize(seqs.len());
            for s in seqs {
                p.usize(s.len());
                for &t in s {
                    wire::write_term_id(&mut p, t);
                }
            }
        }

        p.usize(self.history.len());
        for &h in &self.history {
            write_u128(&mut p, h);
        }

        p.usize(self.coverage_paths.len());
        for (path, params) in &self.coverage_paths {
            p.usize(path.len());
            for &t in path {
                wire::write_term_id(&mut p, t);
            }
            wire::write_model(&mut p, params);
        }

        write_u128(&mut p, self.p_init);
        p.usize(self.abstract_init);
        p.usize(self.paths_explored);
        p.usize(self.paths_skipped);
        p.usize(self.iterations);
        p.usize(self.inputs_generated);
        p.usize(self.generated_runs);
        p.usize(self.generated_patch_hits);
        p.usize(self.generated_bug_hits);
        p.u64(self.explore_nanos);
        p.u64(self.elapsed_nanos);
        p.u8(match self.stop {
            None => 0,
            Some(StopReason::PoolEmpty) => 1,
            Some(StopReason::IterationBudget) => 2,
            Some(StopReason::TimeBudget) => 3,
            Some(StopReason::InputsExhausted) => 4,
        });

        // Injected-inputs log (format v4): arrival order, pairs pre-sorted
        // at injection time, so the bytes are stable.
        p.usize(self.injected.len());
        for pairs in &self.injected {
            p.usize(pairs.len());
            for (name, value) in pairs {
                p.str(name);
                p.i64(*value);
            }
        }

        let payload = p.into_bytes();
        let mut out = ByteWriter::new();
        out.raw(SNAPSHOT_MAGIC);
        out.u32(SNAPSHOT_VERSION);
        out.u64(subject_digest(&self.problem));
        out.u64(payload.len() as u64);
        let checksum = wire::fnv1a(&payload);
        out.raw(&payload);
        out.u64(checksum);
        out.into_bytes()
    }

    /// Restores a driver from snapshot bytes taken for the same
    /// `problem`/`config` pair. The resumed driver continues the run
    /// bit-identically: every subsequent `step` and the final `finish`
    /// produce exactly what the original driver would have produced.
    pub fn resume(
        problem: RepairProblem,
        config: RepairConfig,
        bytes: &[u8],
    ) -> Result<RepairDriver, SnapshotError> {
        let trunc = |_: WireError| SnapshotError::Truncated;
        let (version, mut r) = check_snapshot_header(&problem, bytes)?;
        let plen = r.u64("payload length").map_err(trunc)? as usize;
        if r.remaining() < plen + 8 {
            return Err(SnapshotError::Truncated);
        }
        let payload = r.raw(plen, "payload").map_err(trunc)?;
        let checksum = r.u64("checksum").map_err(trunc)?;
        if wire::fnv1a(payload) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut p = ByteReader::new(payload);
        let pool = TermPool::read_wire(&mut p)?;
        let terms = pool.len();
        let vars = pool.var_count();
        let stats = if version <= 6 {
            read_legacy_solver_stats(&mut p, terms, version)?
        } else {
            wire::read_solver_stats(&mut p)?
        };

        // Sequence counts feeding `Vec::with_capacity` are read through
        // `seq_len` with each element's minimum encoded size, so a corrupt
        // count fails as a typed error before it can demand an allocation
        // larger than the payload itself.
        let nentries = p.seq_len("pool entries", 48)?;
        let mut entries = Vec::with_capacity(nentries);
        for _ in 0..nentries {
            let id = p.len("patch id")?;
            let theta = wire::read_term_id(&mut p, terms, "patch theta")?;
            let nparams = p.seq_len("patch params", 4)?;
            let mut params: Vec<VarId> = Vec::with_capacity(nparams);
            for _ in 0..nparams {
                params.push(wire::read_var_id(&mut p, vars, "patch parameter")?);
            }
            let constraint: Region = wire::read_region(&mut p, vars)?;
            let score = RankScore {
                feasible: p.u32("score feasible")?,
                bug_hits: p.u32("score bug hits")?,
                deletion_evidence: p.u32("score deletion evidence")?,
            };
            entries.push(PoolEntry {
                patch: AbstractPatch {
                    id,
                    theta,
                    params,
                    constraint,
                },
                score,
            });
        }

        let ncands = p.seq_len("queue candidates", 24)?;
        let mut candidates = Vec::with_capacity(ncands);
        for _ in 0..ncands {
            let model = wire::read_model(&mut p, vars)?;
            let score = p.i64("candidate score")?;
            let flipped_index = p.len("candidate flip index")?;
            candidates.push(CandidateInput {
                model,
                score,
                flipped_index,
            });
        }
        let queue = InputQueue::from_snapshot(candidates);

        let read_prefix_set = |p: &mut ByteReader<'_>| -> Result<SeenPrefixes, SnapshotError> {
            let n = p.seq_len("prefix set", 8)?;
            let mut set = SeenPrefixes::new();
            for _ in 0..n {
                let len = p.seq_len("prefix length", 4)?;
                let mut seq = Vec::with_capacity(len);
                for _ in 0..len {
                    seq.push(wire::read_term_id(p, terms, "prefix constraint")?);
                }
                set.insert(&seq);
            }
            Ok(set)
        };
        let seen_paths = read_prefix_set(&mut p)?;
        let seen_prefixes = read_prefix_set(&mut p)?;

        let nhist = p.seq_len("history", 16)?;
        let mut history = Vec::with_capacity(nhist);
        for _ in 0..nhist {
            history.push(read_u128(&mut p)?);
        }

        let ncov = p.seq_len("coverage paths", 16)?;
        let mut coverage_paths = Vec::with_capacity(ncov);
        for _ in 0..ncov {
            let len = p.seq_len("coverage path length", 4)?;
            let mut path = Vec::with_capacity(len);
            for _ in 0..len {
                path.push(wire::read_term_id(&mut p, terms, "coverage constraint")?);
            }
            let params = wire::read_model(&mut p, vars)?;
            coverage_paths.push((path, params));
        }

        let p_init = read_u128(&mut p)?;
        let abstract_init = p.len("abstract init")?;
        let paths_explored = p.len("paths explored")?;
        let paths_skipped = p.len("paths skipped")?;
        let iterations = p.len("iterations")?;
        let inputs_generated = p.len("inputs generated")?;
        let generated_runs = p.len("generated runs")?;
        let generated_patch_hits = p.len("generated patch hits")?;
        let generated_bug_hits = p.len("generated bug hits")?;
        if version <= 4 {
            // The static-screen query counter, dropped in v5: read and
            // discarded.
            p.u64("queries screened")?;
        }
        let explore_nanos = p.u64("explore nanos")?;
        let elapsed_nanos = p.u64("elapsed nanos")?;
        let stop = match p.u8("stop reason")? {
            0 => None,
            1 => Some(StopReason::PoolEmpty),
            2 => Some(StopReason::IterationBudget),
            3 => Some(StopReason::TimeBudget),
            4 => Some(StopReason::InputsExhausted),
            tag => {
                return Err(SnapshotError::Corrupt(WireError::BadTag {
                    what: "stop reason",
                    tag,
                }))
            }
        };

        // Injected-inputs log: absent before v4 — a v3 snapshot predates
        // injection, so it loads with an empty log (forward compat).
        let mut injected = Vec::new();
        if version >= 4 {
            let ninj = p.seq_len("injected inputs", 8)?;
            injected.reserve(ninj);
            for _ in 0..ninj {
                let npairs = p.seq_len("injected input pairs", 16)?;
                let mut pairs = Vec::with_capacity(npairs);
                for _ in 0..npairs {
                    let name = p.str("injected input name")?;
                    let value = p.i64("injected input value")?;
                    pairs.push((name, value));
                }
                injected.push(pairs);
            }
        }

        // Rebuild the session from problem + config, then verify the
        // restored pool extends the session's base pool: if the config
        // disagrees with the one the snapshot was taken under (different
        // parameter count, say), the base vars/terms would differ and the
        // restored ids would silently mean different terms.
        let mut sess = Session::new(&problem, &config);
        if !pool.is_extension_of(&sess.pool) {
            return Err(SnapshotError::PoolMismatch);
        }
        sess.pool = pool;
        sess.solver.restore_stats(stats);

        Ok(RepairDriver {
            problem,
            config,
            sess,
            entries,
            queue,
            seen_paths,
            seen_prefixes,
            history,
            coverage_paths,
            p_init,
            abstract_init,
            paths_explored,
            paths_skipped,
            iterations,
            inputs_generated,
            generated_runs,
            generated_patch_hits,
            generated_bug_hits,
            explore_nanos,
            elapsed_nanos,
            stop,
            injected,
        })
    }
}

/// Reads the solver statistics of a version 3–6 snapshot, and for
/// versions 3–5 the UNSAT-prefix store that followed them, keeping only
/// the counters that still exist. The dropped counters (versions 3–5:
/// prefix short-circuits, frames pushed, trail restores, no-good hits,
/// batched queries, persistent-cache no-good hits; versions 3–6:
/// persistent-cache hits, misses, stores and load errors) and the store
/// are validated as they are read, then discarded.
fn read_legacy_solver_stats(
    p: &mut ByteReader<'_>,
    terms: usize,
    version: u32,
) -> Result<SolverStats, WireError> {
    let stats = SolverStats {
        queries: p.u64("stats queries")?,
        sat: p.u64("stats sat")?,
        unsat: p.u64("stats unsat")?,
        unknown: p.u64("stats unknown")?,
        nodes: p.u64("stats nodes")?,
        cache_hits: p.u64("stats cache hits")?,
        cache_misses: p.u64("stats cache misses")?,
    };
    // In the order they were written: versions 3–5 also carried the
    // persistent-cache no-good counter between its misses and stores.
    let dropped: &[&'static str] = if version <= 5 {
        &[
            "stats prefix short circuits",
            "stats frames pushed",
            "stats trail restores",
            "stats nogood hits",
            "stats batched queries",
            "stats fleet hits",
            "stats fleet misses",
            "stats fleet nogood hits",
            "stats fleet stores",
            "stats fleet load errors",
        ]
    } else {
        &[
            "stats fleet hits",
            "stats fleet misses",
            "stats fleet stores",
            "stats fleet load errors",
        ]
    };
    for &what in dropped {
        p.u64(what)?;
    }
    if version <= 5 {
        p.len("prefix store capacity")?;
        // Min entry: 8-byte constraint count + 8-byte fingerprint.
        for _ in 0..p.seq_len("prefix store entries", 16)? {
            for _ in 0..p.seq_len("prefix store query", 4)? {
                wire::read_term_id(p, terms, "prefix store constraint")?;
            }
            p.u64("prefix store fingerprint")?;
        }
    }
    Ok(stats)
}

/// Validates a snapshot's header (magic, format version, subject digest)
/// against `problem` without decoding the payload. Cheap — a submit-time
/// guard for services adopting a stored snapshot, so a wrong-subject or
/// wrong-version file is rejected up front instead of failing the job
/// later. Returns the format version (any in
/// [`MIN_SNAPSHOT_VERSION`]`..=`[`SNAPSHOT_VERSION`] is accepted) and a
/// reader positioned at the payload length for [`RepairDriver::resume`]
/// to continue from.
pub fn check_snapshot_header<'a>(
    problem: &RepairProblem,
    bytes: &'a [u8],
) -> Result<(u32, ByteReader<'a>), SnapshotError> {
    let trunc = |_: WireError| SnapshotError::Truncated;
    let mut r = ByteReader::new(bytes);
    let magic = r.raw(4, "magic").map_err(trunc)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32("version").map_err(trunc)?;
    if !(MIN_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let digest = r.u64("subject digest").map_err(trunc)?;
    if digest != subject_digest(problem) {
        return Err(SnapshotError::SubjectMismatch);
    }
    Ok((version, r))
}

/// Digest identifying the subject a snapshot belongs to: name, program
/// source, and the provided tests. Config is deliberately *not* digested —
/// the pool-prefix check in `resume` catches config drift that matters,
/// while irrelevant knobs (thread count, say) stay freely changeable.
pub fn subject_digest(problem: &RepairProblem) -> u64 {
    let mut w = ByteWriter::new();
    w.str(&problem.name);
    w.str(&cpr_lang::pretty(&problem.program));
    for set in [&problem.failing_inputs, &problem.passing_inputs] {
        w.usize(set.len());
        for input in set {
            let mut pairs: Vec<(&String, i64)> = input.iter().map(|(k, &v)| (k, v)).collect();
            pairs.sort();
            w.usize(pairs.len());
            for (k, v) in pairs {
                w.str(k);
                w.i64(v);
            }
        }
    }
    wire::fnv1a(w.bytes())
}

fn write_u128(w: &mut ByteWriter, v: u128) {
    w.u64((v >> 64) as u64);
    w.u64(v as u64);
}

fn read_u128(r: &mut ByteReader<'_>) -> Result<u128, WireError> {
    let hi = r.u64("u128 high")?;
    let lo = r.u64("u128 low")?;
    Ok((u128::from(hi) << 64) | u128::from(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_input;
    use cpr_lang::{check, parse};
    use cpr_synth::{ComponentSet, SynthConfig};

    const DIV_SRC: &str = "program cve_2016_3623 {
        input x in [-10, 10];
        input y in [-10, 10];
        if (__patch_cond__(x, y)) { return 1; }
        bug div_by_zero requires (x * y != 0);
        return 100 / (x * y);
      }";

    fn problem() -> RepairProblem {
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

    fn config() -> RepairConfig {
        RepairConfig {
            max_iterations: 6,
            ..RepairConfig::quick()
        }
    }

    #[test]
    fn driver_loop_matches_repair() {
        let mut d = RepairDriver::new(problem(), config());
        while d.step() == StepStatus::Running {}
        let by_driver = d.finish();
        let direct = crate::repair(&problem(), &config());
        assert_eq!(by_driver.p_init, direct.p_init);
        assert_eq!(by_driver.p_final, direct.p_final);
        assert_eq!(by_driver.iterations, direct.iterations);
        assert_eq!(by_driver.history, direct.history);
        assert_eq!(by_driver.solver_queries, direct.solver_queries);
    }

    #[test]
    fn step_is_idempotent_after_done() {
        let mut d = RepairDriver::new(problem(), config());
        while d.step() == StepStatus::Running {}
        let reason = d.stop_reason().unwrap();
        assert_eq!(d.step(), StepStatus::Done(reason));
        assert_eq!(d.step(), StepStatus::Done(reason));
        assert!(d.is_done());
    }

    #[test]
    fn snapshot_roundtrips_mid_run() {
        let mut d = RepairDriver::new(problem(), config());
        d.step();
        d.step();
        let snap = d.snapshot();
        let r = RepairDriver::resume(problem(), config(), &snap).unwrap();
        // Same state, same bytes.
        assert_eq!(r.iterations(), d.iterations());
        assert_eq!(r.snapshot(), snap);
        // Both continue to the same report.
        let mut r = r;
        while d.step() == StepStatus::Running {}
        while r.step() == StepStatus::Running {}
        let a = d.finish();
        let b = r.finish();
        assert_eq!(a.p_final, b.p_final);
        assert_eq!(a.history, b.history);
        assert_eq!(a.solver_queries, b.solver_queries);
        assert_eq!(
            a.ranked.iter().map(|p| &p.display).collect::<Vec<_>>(),
            b.ranked.iter().map(|p| &p.display).collect::<Vec<_>>()
        );
    }

    #[test]
    fn resume_rejects_bad_magic() {
        let mut d = RepairDriver::new(problem(), config());
        d.step();
        let mut snap = d.snapshot();
        snap[0] = b'X';
        assert!(matches!(
            RepairDriver::resume(problem(), config(), &snap),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn resume_rejects_unsupported_version() {
        let d = RepairDriver::new(problem(), config());
        let mut snap = d.snapshot();
        snap[4] = 0xFF; // version is the u32 after the 4 magic bytes
        assert!(matches!(
            RepairDriver::resume(problem(), config(), &snap),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn resume_rejects_wrong_subject() {
        let d = RepairDriver::new(problem(), config());
        let snap = d.snapshot();
        let mut other = problem();
        other.name = "Other/Subject".into();
        assert!(matches!(
            RepairDriver::resume(other, config(), &snap),
            Err(SnapshotError::SubjectMismatch)
        ));
    }

    #[test]
    fn header_check_validates_without_decoding_payload() {
        let mut d = RepairDriver::new(problem(), config());
        d.step();
        let snap = d.snapshot();
        assert!(check_snapshot_header(&problem(), &snap).is_ok());
        let mut other = problem();
        other.name = "Other/Subject".into();
        assert!(matches!(
            check_snapshot_header(&other, &snap),
            Err(SnapshotError::SubjectMismatch)
        ));
        assert!(matches!(
            check_snapshot_header(&problem(), b"CPR"),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn resume_rejects_huge_counts_in_a_checksum_valid_payload() {
        // FNV-1a is a checksum, not a MAC: anyone who can write the file
        // can make a corrupt payload checksum-valid. A snapshot declaring
        // an absurd collection count must fail as a typed error before the
        // decoder allocates for the declared count.
        let mut p = ByteWriter::new();
        p.u64(0); // term pool: no variables
        p.u64(0); // term pool: no terms
        for _ in 0..11 {
            p.u64(0); // solver stats
        }
        p.u64(u64::MAX / 2); // pool entries: absurd
        let payload = p.into_bytes();
        let mut w = ByteWriter::new();
        w.raw(SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.u64(subject_digest(&problem()));
        w.u64(payload.len() as u64);
        let checksum = wire::fnv1a(&payload);
        w.raw(&payload);
        w.u64(checksum);
        assert!(matches!(
            RepairDriver::resume(problem(), config(), &w.into_bytes()),
            Err(SnapshotError::Corrupt(WireError::BadLength { .. }))
        ));
    }

    #[test]
    fn resume_rejects_truncation_at_every_prefix_length() {
        let mut d = RepairDriver::new(problem(), config());
        d.step();
        let snap = d.snapshot();
        // Chopping the snapshot anywhere must yield a typed error, never a
        // panic. Check a spread of prefix lengths including the header.
        for cut in [0, 1, 3, 4, 7, 8, 15, 16, 23, snap.len() / 2, snap.len() - 1] {
            let err = RepairDriver::resume(problem(), config(), &snap[..cut])
                .expect_err("truncated snapshot must not load");
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn resume_rejects_corrupted_payload() {
        let mut d = RepairDriver::new(problem(), config());
        d.step();
        let mut snap = d.snapshot();
        // Flip one payload byte: the checksum catches it.
        let mid = 24 + (snap.len() - 32) / 2;
        snap[mid] ^= 0xA5;
        assert!(matches!(
            RepairDriver::resume(problem(), config(), &snap),
            Err(SnapshotError::ChecksumMismatch)
        ));
    }

    #[test]
    fn resume_rejects_mismatched_config_pool() {
        let d = RepairDriver::new(problem(), config());
        let snap = d.snapshot();
        // A config with a different parameter count builds a different base
        // session; restored ids would silently shift meaning.
        let mut other = problem();
        other.synth.max_params = 7;
        assert!(matches!(
            RepairDriver::resume(other, config(), &snap),
            Err(SnapshotError::PoolMismatch)
        ));
    }

    #[test]
    fn inject_validates_inputs_and_rejects_finished_runs() {
        let mut d = RepairDriver::new(problem(), config());
        let err = d
            .inject_input(&test_input(&[("x", 3)]))
            .expect_err("missing y");
        assert!(err.contains("missing \"y\""), "{err}");
        let err = d
            .inject_input(&test_input(&[("x", 3), ("y", 99)]))
            .expect_err("y out of range");
        assert!(err.contains("outside the declared range"), "{err}");
        let err = d
            .inject_input(&test_input(&[("x", 3), ("y", 2), ("z", 1)]))
            .expect_err("z undeclared");
        assert!(err.contains("unknown variable \"z\""), "{err}");
        assert_eq!(d.injected_inputs(), 0);
        while d.step() == StepStatus::Running {}
        let err = d
            .inject_input(&test_input(&[("x", 0), ("y", 3)]))
            .expect_err("run is done");
        assert!(err.contains("already stopped"), "{err}");
    }

    #[test]
    fn injected_inputs_outrank_generated_candidates_but_not_provided_seeds() {
        let mut d = RepairDriver::new(problem(), config());
        for i in 0..3 {
            d.inject_input(&test_input(&[("x", i), ("y", 3)])).unwrap();
        }
        let scores: Vec<i64> = d.queue.snapshot_order().map(|c| c.score).collect();
        // The provided seed keeps its 100-band score; injections fill the
        // 50..=80 band below it, decreasing so earlier injections explore
        // first; nothing enters the generated band (< 50).
        assert!(scores.contains(&100));
        assert!(scores.contains(&80) && scores.contains(&79) && scores.contains(&78));
        assert!(scores.iter().all(|&s| s >= INJECTED_SCORE_FLOOR));
    }

    #[test]
    fn injection_enters_the_snapshot_and_roundtrips() {
        let mut d = RepairDriver::new(problem(), config());
        d.step();
        d.inject_input(&test_input(&[("x", 0), ("y", 3)])).unwrap();
        d.inject_input(&test_input(&[("x", 2), ("y", 0)])).unwrap();
        let snap = d.snapshot();
        let mut r = RepairDriver::resume(problem(), config(), &snap).unwrap();
        // Same state — including the injection log — and same bytes.
        assert_eq!(r.injected_inputs(), 2);
        assert_eq!(r.snapshot(), snap);
        // Both continue to the same report.
        while d.step() == StepStatus::Running {}
        while r.step() == StepStatus::Running {}
        let a = d.finish();
        let b = r.finish();
        assert_eq!(a.p_final, b.p_final);
        assert_eq!(a.history, b.history);
        assert_eq!(a.solver_queries, b.solver_queries);
        assert_eq!(
            a.ranked.iter().map(|p| &p.display).collect::<Vec<_>>(),
            b.ranked.iter().map(|p| &p.display).collect::<Vec<_>>()
        );
    }

    /// Rebuilds a current-version snapshot of `d` with no injections as an
    /// older wire image.
    ///
    /// * Versions 3–6 carried four persistent-cache counters after the seven
    ///   kept solver counters: hits, misses, stores and load errors.
    /// * Versions 3–5 carried 17 solver counters instead of 11 — six frame,
    ///   no-good and prefix counters sat after `cache_misses` and after
    ///   persistent-cache misses — followed by the UNSAT-prefix store:
    ///   capacity, then its sorted-id queries. The fixture fills the dropped counters and
    ///   the store with nonzero values.
    /// * The payload ends with explore and elapsed nanos (u64 each), the
    ///   stop tag (u8) and the injection count (u64, zero here). Versions 3
    ///   and 4 carried a static-screen query counter (u64) right before
    ///   those 25 bytes; version 3 also lacked the injection count.
    ///
    /// Re-stamping version + length + checksum then reproduces the old
    /// format byte-for-byte.
    fn downgrade(d: &RepairDriver, version: u32, queries_screened: u64) -> Vec<u8> {
        let snap = d.snapshot();
        let plen = u64::from_le_bytes(snap[16..24].try_into().unwrap()) as usize;
        let payload = &snap[24..24 + plen];
        assert_eq!(
            &payload[plen - 8..],
            &0u64.to_le_bytes(),
            "fixture requires an empty injection log"
        );
        let mut pool_bytes = ByteWriter::new();
        d.sess.pool.write_wire(&mut pool_bytes);
        let stats_at = pool_bytes.into_bytes().len();
        let stats_end = stats_at + 7 * 8;
        let mut old = payload[..stats_end].to_vec();
        let put = |old: &mut Vec<u8>, counters: &[u64]| {
            for c in counters {
                old.extend_from_slice(&c.to_le_bytes());
            }
        };
        if version == 6 {
            // persistent-cache hits, misses, stores, load errors
            put(&mut old, &[11, 12, 14, 1]);
        } else {
            // prefix short-circuits, frames pushed, trail restores, no-good
            // hits, batched queries, then persistent-cache hits, misses,
            // no-good hits, stores, load errors
            put(&mut old, &[3, 41, 97, 5, 60, 11, 12, 2, 14, 1]);
        }
        if version <= 5 {
            let mut store = ByteWriter::new();
            store.usize(512);
            store.usize(2);
            for (ids, fingerprint) in [(&[0u32, 3][..], 0xfeed_u64), (&[1, 2, 4], 0xbeef)] {
                store.usize(ids.len());
                for &id in ids {
                    store.u32(id); // a term id
                }
                store.u64(fingerprint);
            }
            old.extend_from_slice(&store.into_bytes());
        }
        old.extend_from_slice(&payload[stats_end..]);
        if version <= 4 {
            let tail = old.len() - 25;
            old.splice(tail..tail, queries_screened.to_le_bytes());
        }
        if version == 3 {
            old.truncate(old.len() - 8);
        }
        let mut w = ByteWriter::new();
        w.raw(SNAPSHOT_MAGIC);
        w.u32(version);
        w.raw(&snap[8..16]); // subject digest, verbatim
        w.u64(old.len() as u64);
        let checksum = wire::fnv1a(&old);
        w.raw(&old);
        w.u64(checksum);
        w.into_bytes()
    }

    /// The whole report except its wall-clock field.
    fn report_key(mut report: RepairReport) -> String {
        report.wall_millis = 0;
        format!("{report:?}")
    }

    #[test]
    fn resume_accepts_a_version_5_snapshot_and_discards_its_prefix_store() {
        // Version 6 too: it differs from 5 only in the counters it drops.
        for version in [5, 6] {
            let mut d = RepairDriver::new(problem(), config());
            d.step();
            d.step();
            let old = downgrade(&d, version, 0);
            assert_eq!(u32::from_le_bytes(old[4..8].try_into().unwrap()), version);
            assert!(check_snapshot_header(&problem(), &old).is_ok());
            let mut r = RepairDriver::resume(problem(), config(), &old).unwrap();
            // The kept counters survive; re-snapshotting writes the current
            // version, without the store and the dropped counters.
            assert_eq!(r.sess.solver.stats().queries, d.sess.solver.stats().queries);
            assert_eq!(r.snapshot(), d.snapshot());
            while d.step() == StepStatus::Running {}
            while r.step() == StepStatus::Running {}
            assert_eq!(report_key(d.finish()), report_key(r.finish()));
        }
    }

    #[test]
    fn resume_rejects_a_version_5_prefix_store_naming_an_unknown_term() {
        let mut d = RepairDriver::new(problem(), config());
        d.step();
        let terms = d.sess.pool.len() as u32;
        let v5 = downgrade(&d, 5, 0);
        // Re-point the store's last constraint id (4) past the pool: the
        // checksum is recomputed, so only the id validation can object.
        let plen = u64::from_le_bytes(v5[16..24].try_into().unwrap()) as usize;
        let mut payload = v5[24..24 + plen].to_vec();
        let last_id = 4u32.to_le_bytes();
        let at = payload
            .windows(12)
            .position(|w| w[..4] == last_id && w[4..] == 0xbeef_u64.to_le_bytes())
            .expect("fixture store entry");
        payload[at..at + 4].copy_from_slice(&terms.to_le_bytes());
        let mut w = ByteWriter::new();
        w.raw(&v5[..16]);
        w.u64(payload.len() as u64);
        let checksum = wire::fnv1a(&payload);
        w.raw(&payload);
        w.u64(checksum);
        let err = RepairDriver::resume(problem(), config(), &w.into_bytes())
            .expect_err("an out-of-pool prefix store id must not load");
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn resume_accepts_a_version_4_snapshot_and_discards_its_screen_counter() {
        let mut d = RepairDriver::new(problem(), config());
        d.step();
        d.step();
        let v4 = downgrade(&d, 4, 1234);
        assert_eq!(u32::from_le_bytes(v4[4..8].try_into().unwrap()), 4);
        assert!(check_snapshot_header(&problem(), &v4).is_ok());
        let mut r = RepairDriver::resume(problem(), config(), &v4).unwrap();
        // Re-snapshotting writes the current version, without the counter.
        assert_eq!(r.snapshot(), d.snapshot());
        while d.step() == StepStatus::Running {}
        while r.step() == StepStatus::Running {}
        assert_eq!(report_key(d.finish()), report_key(r.finish()));
    }

    #[test]
    fn resume_accepts_a_version_3_snapshot_with_an_empty_injection_log() {
        let mut d = RepairDriver::new(problem(), config());
        d.step();
        d.step();
        let v3 = downgrade(&d, 3, 77);
        assert_eq!(u32::from_le_bytes(v3[4..8].try_into().unwrap()), 3);
        assert!(check_snapshot_header(&problem(), &v3).is_ok());
        let mut r = RepairDriver::resume(problem(), config(), &v3).unwrap();
        assert_eq!(r.injected_inputs(), 0);
        // Re-snapshotting writes the current version, not the old one.
        assert_eq!(r.snapshot(), d.snapshot());
        while d.step() == StepStatus::Running {}
        while r.step() == StepStatus::Running {}
        let a = d.finish();
        let b = r.finish();
        assert_eq!(a.p_final, b.p_final);
        assert_eq!(a.history, b.history);
        assert_eq!(a.solver_queries, b.solver_queries);
    }

    #[test]
    fn resume_rejects_a_truncated_version_3_snapshot() {
        let mut d = RepairDriver::new(problem(), config());
        d.step();
        let v3 = downgrade(&d, 3, 0);
        // Chop inside the payload: the checksum no longer matches (or the
        // byte reader runs dry) — either way a typed error, never a panic.
        let err = RepairDriver::resume(problem(), config(), &v3[..v3.len() - 9])
            .expect_err("truncated v3 snapshot must not load");
        assert!(matches!(
            err,
            SnapshotError::Truncated | SnapshotError::ChecksumMismatch
        ));
    }

    #[test]
    fn snapshot_error_display_is_informative() {
        let errors: Vec<SnapshotError> = vec![
            SnapshotError::BadMagic,
            SnapshotError::UnsupportedVersion(9),
            SnapshotError::SubjectMismatch,
            SnapshotError::Truncated,
            SnapshotError::ChecksumMismatch,
            SnapshotError::PoolMismatch,
            SnapshotError::Corrupt(WireError::BadUtf8),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
