//! Shared per-repair session state: the term pool, solver, executor and the
//! variable domains derived from the subject's input declarations.

use cpr_concolic::ConcolicExecutor;
use cpr_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use cpr_smt::{Domains, Model, SatResult, Solver, Sort, TermId, TermPool, UnsatPrefixStore, VarId};
use cpr_synth::param_vars;

use crate::problem::{RepairConfig, RepairProblem, TestInput};

/// Observability handles for the repair phases, resolved once per session
/// so the phases record through pure atomic adds. Everything here is
/// write-only from the repair loop's point of view: no phase ever reads a
/// metric or a clock value recorded here to make a decision, which is how
/// the bit-identical-report-with-metrics-on/off guarantee holds.
#[derive(Debug, Clone)]
pub struct CoreObs {
    /// The registry the handles live on (also used for spans).
    pub registry: MetricsRegistry,
    /// Wall time of each driver step ("driver.step_nanos").
    pub step_nanos: Histogram,
    /// Wall time of each reduce phase ("reduce.phase_nanos").
    pub reduce_nanos: Histogram,
    /// Wall time of each expand phase ("expand.phase_nanos").
    pub expand_nanos: Histogram,
    /// Wall time of patch-pool synthesis ("synthesize.phase_nanos").
    pub synthesize_nanos: Histogram,
    /// Partition paths explored ("driver.paths_explored").
    pub paths_explored: Counter,
    /// Candidate inputs skipped as already-seen ("driver.paths_skipped").
    pub paths_skipped: Counter,
    /// Inputs generated by expansion ("driver.inputs_generated").
    pub inputs_generated: Counter,
    /// Patches synthesized into the initial pool ("synthesize.patches").
    pub patches_synthesized: Counter,
    /// Patches dropped by refinement ("reduce.patches_dropped").
    pub patches_dropped: Counter,
    /// Patches whose constraint was narrowed ("reduce.patches_refined").
    pub patches_refined: Counter,
    /// Feasible-with-partition ranking evidence ("rank.evidence_feasible").
    pub evidence_feasible: Counter,
    /// Prefix flips expanded ("expand.flips_expanded").
    pub flips_expanded: Counter,
    /// Candidate inputs produced by expansion ("expand.candidates").
    pub expand_candidates: Counter,
    /// Probes answered by SAT-model reuse ("expand.model_reuse_hits").
    pub model_reuse_hits: Counter,
    /// Current patch-pool entry count ("driver.pool_patches").
    pub pool_patches: Gauge,
}

impl CoreObs {
    /// Resolves all handles on `registry`.
    pub fn new(registry: &MetricsRegistry) -> CoreObs {
        CoreObs {
            registry: registry.clone(),
            step_nanos: registry.histogram("driver.step_nanos"),
            reduce_nanos: registry.histogram("reduce.phase_nanos"),
            expand_nanos: registry.histogram("expand.phase_nanos"),
            synthesize_nanos: registry.histogram("synthesize.phase_nanos"),
            paths_explored: registry.counter("driver.paths_explored"),
            paths_skipped: registry.counter("driver.paths_skipped"),
            inputs_generated: registry.counter("driver.inputs_generated"),
            patches_synthesized: registry.counter("synthesize.patches"),
            patches_dropped: registry.counter("reduce.patches_dropped"),
            patches_refined: registry.counter("reduce.patches_refined"),
            evidence_feasible: registry.counter("rank.evidence_feasible"),
            flips_expanded: registry.counter("expand.flips_expanded"),
            expand_candidates: registry.counter("expand.candidates"),
            model_reuse_hits: registry.counter("expand.model_reuse_hits"),
            pool_patches: registry.gauge("driver.pool_patches"),
        }
    }
}

/// All mutable state shared by the phases of one repair run.
#[derive(Debug)]
pub struct Session {
    /// The hash-consing pool every term of the run lives in.
    pub pool: TermPool,
    /// The branch-and-prune solver.
    pub solver: Solver,
    /// The concolic executor.
    pub exec: ConcolicExecutor,
    /// Initial domains: program inputs bounded by their declared ranges,
    /// template parameters bounded by the synthesis parameter range.
    pub domains: Domains,
    /// The program input variables, in declaration order.
    pub input_vars: Vec<VarId>,
    /// UNSAT path prefixes learned during expansion (incremental prefix
    /// solving): a query subsumed by a stored prefix is UNSAT without a
    /// search. Frozen during each parallel expansion batch and grown only
    /// at the batch's deterministic merge point.
    pub unsat_prefixes: UnsatPrefixStore,
    /// Observability handles (write-only from the repair loop).
    pub obs: CoreObs,
}

impl Session {
    /// Sets up a session for the given problem: interns input and parameter
    /// variables and configures domains, solver and executor budgets.
    ///
    /// Metrics go to the process-wide [`cpr_obs::global`] registry when
    /// [`RepairConfig::metrics`] is set, and nowhere otherwise; use
    /// [`Session::with_metrics`] to record into an explicit registry.
    pub fn new(problem: &RepairProblem, config: &RepairConfig) -> Session {
        let registry = if config.metrics {
            cpr_obs::global().clone()
        } else {
            MetricsRegistry::disabled()
        };
        Session::with_metrics(problem, config, &registry)
    }

    /// [`Session::new`] recording into `registry` (the injection point the
    /// determinism tests use to keep counter assertions isolated from the
    /// process-wide registry).
    pub fn with_metrics(
        problem: &RepairProblem,
        config: &RepairConfig,
        registry: &MetricsRegistry,
    ) -> Session {
        let mut pool = TermPool::new();
        let mut domains = Domains::new();
        let mut input_vars = Vec::with_capacity(problem.program.inputs.len());
        for decl in &problem.program.inputs {
            let v = pool.var(&decl.name, Sort::Int);
            domains.bound(v, decl.lo, decl.hi);
            input_vars.push(v);
        }
        let (plo, phi) = problem.synth.param_range;
        for p in param_vars(&mut pool, problem.synth.max_params.max(2)) {
            domains.bound(p, plo, phi);
        }
        let mut solver = Solver::new(config.solver.clone());
        solver.attach_metrics(registry);
        Session {
            pool,
            solver,
            exec: ConcolicExecutor::with_budgets(config.exec_max_steps, config.exec_max_path),
            domains,
            input_vars,
            unsat_prefixes: UnsatPrefixStore::new(config.unsat_prefix_capacity),
            obs: CoreObs::new(registry),
        }
    }

    /// Checks satisfiability of a conjunction under the session domains.
    pub fn check(&mut self, constraints: &[TermId]) -> SatResult {
        self.solver.check(&self.pool, constraints, &self.domains)
    }

    /// [`Session::check`] with incremental prefix solving: consults the
    /// session's UNSAT-prefix store before searching. The caller is
    /// responsible for learning new UNSAT queries back into
    /// [`Session::unsat_prefixes`] at a deterministic point.
    pub fn check_prefixed(&mut self, constraints: &[TermId]) -> SatResult {
        self.solver
            .check_prefixed(&self.pool, constraints, &self.domains, &self.unsat_prefixes)
    }

    /// Converts a named test input into a model over the input variables.
    pub fn input_model(&mut self, input: &TestInput) -> Model {
        let mut m = Model::new();
        for (name, &v) in input {
            let var = self.pool.var(name, Sort::Int);
            m.set(var, v);
        }
        m
    }

    /// Restricts a solver model to the program input variables (dropping
    /// parameter and hole-output assignments).
    pub fn project_inputs(&self, model: &Model) -> Model {
        model.restrict_to(&self.input_vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{test_input, RepairProblem};
    use cpr_lang::parse;
    use cpr_synth::{ComponentSet, SynthConfig};

    fn demo_problem() -> RepairProblem {
        let program =
            parse("program p { input x in [-7, 7]; input y in [0, 3]; return x + y; }").unwrap();
        RepairProblem::new(
            "demo",
            program,
            ComponentSet::new().with_variables(["x", "y"]),
            SynthConfig::default(),
            vec![test_input(&[("x", 1), ("y", 2)])],
        )
    }

    #[test]
    fn session_bounds_inputs_and_params() {
        let problem = demo_problem();
        let mut sess = Session::new(&problem, &RepairConfig::quick());
        let x = sess.pool.find_var("x").unwrap();
        let a = sess.pool.find_var("a").unwrap();
        assert_eq!(sess.domains.get(x).unwrap().lo(), -7);
        assert_eq!(sess.domains.get(a).unwrap().lo(), -10);
        assert_eq!(sess.input_vars.len(), 2);

        // The domain is enforced in queries: x > 7 is unsatisfiable.
        let xv = sess.pool.var_term(x);
        let c7 = sess.pool.int(7);
        let q = sess.pool.gt(xv, c7);
        assert!(sess.check(&[q]).is_unsat());
    }

    #[test]
    fn input_model_roundtrip_and_projection() {
        let problem = demo_problem();
        let mut sess = Session::new(&problem, &RepairConfig::quick());
        let mut m = sess.input_model(&test_input(&[("x", 3), ("y", 1)]));
        let x = sess.pool.find_var("x").unwrap();
        assert_eq!(m.int(x), Some(3));
        // Add a parameter assignment and project it away.
        let a = sess.pool.find_var("a").unwrap();
        m.set(a, 9i64);
        let projected = sess.project_inputs(&m);
        assert_eq!(projected.len(), 2);
        assert_eq!(projected.int(a), None);
    }
}
