//! Repair problem definition and configuration: the inputs of the paper's
//! Algorithm 1 (buggy program, fault locations, budget, specification,
//! language components, initial tests).

use std::collections::HashMap;

use cpr_lang::Program;
use cpr_smt::SolverConfig;
use cpr_synth::{ComponentSet, SynthConfig};

/// A concrete test input: values for the program's declared inputs by name.
pub type TestInput = HashMap<String, i64>;

/// Builds a [`TestInput`] from `(name, value)` pairs.
pub fn test_input(pairs: &[(&str, i64)]) -> TestInput {
    pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
}

/// A complete repair problem.
///
/// The fault location (patch hole) and bug location (specification `σ`) are
/// part of the [`Program`] itself via the `__patch_*__` hole and the
/// `bug … requires (…)` marker — mirroring the paper's setup where the fault
/// locations are provided to the tool.
#[derive(Debug, Clone)]
pub struct RepairProblem {
    /// Human-readable subject name (e.g. `Libtiff/CVE-2016-3623`).
    pub name: String,
    /// The buggy program with hole and bug markers.
    pub program: Program,
    /// Language components for the synthesizer.
    pub components: ComponentSet,
    /// Synthesizer configuration (hole kind, parameter range, caps).
    pub synth: SynthConfig,
    /// At least one failing (error-exposing) input.
    pub failing_inputs: Vec<TestInput>,
    /// Optional additional passing tests.
    pub passing_inputs: Vec<TestInput>,
    /// The developer (ground-truth) patch as an expression source string,
    /// used only for evaluation (rank / correctness columns).
    pub developer_patch: Option<String>,
    /// The original (buggy) expression at the hole, as source. `None` means
    /// the fix *inserts* a guard that did not exist (the original behaves as
    /// `false` for condition holes).
    pub baseline_expr: Option<String>,
}

impl RepairProblem {
    /// Creates a problem with the mandatory pieces; optional fields start
    /// empty.
    pub fn new(
        name: impl Into<String>,
        program: Program,
        components: ComponentSet,
        synth: SynthConfig,
        failing_inputs: Vec<TestInput>,
    ) -> Self {
        RepairProblem {
            name: name.into(),
            program,
            components,
            synth,
            failing_inputs,
            passing_inputs: Vec::new(),
            developer_patch: None,
            baseline_expr: None,
        }
    }

    /// Sets the developer patch used for rank evaluation.
    pub fn with_developer_patch(mut self, src: impl Into<String>) -> Self {
        self.developer_patch = Some(src.into());
        self
    }

    /// Sets the original buggy expression at the hole.
    pub fn with_baseline(mut self, src: impl Into<String>) -> Self {
        self.baseline_expr = Some(src.into());
        self
    }

    /// Adds passing tests.
    pub fn with_passing_inputs(mut self, inputs: Vec<TestInput>) -> Self {
        self.passing_inputs = inputs;
        self
    }

    /// Validates that the problem is well-formed for repair: the program
    /// has a patch hole whose kind matches the synthesizer configuration,
    /// some specification is present (a bug location or an assertion),
    /// at least one failing input is given, and every test input stays
    /// inside the declared ranges.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let Some((kind, _)) = self.program.hole() else {
            return Err("program has no patch hole (__patch_cond__/__patch_expr__)".into());
        };
        if kind != self.synth.hole_kind {
            return Err(format!(
                "synthesizer configured for {:?} but the hole is {kind:?}",
                self.synth.hole_kind
            ));
        }
        let has_assert = program_has_assert(&self.program.body);
        if self.program.bug().is_none() && !has_assert {
            return Err(
                "program has neither a bug location nor an assertion: no specification to                  repair against"
                    .into(),
            );
        }
        if self.failing_inputs.is_empty() {
            return Err("at least one failing input is required".into());
        }
        let (lo, hi) = self.synth.param_range;
        if lo > hi {
            return Err(format!("empty parameter range [{lo}, {hi}]"));
        }
        for (idx, input) in self
            .failing_inputs
            .iter()
            .chain(self.passing_inputs.iter())
            .enumerate()
        {
            for (name, &v) in input {
                match self.program.input_range(name) {
                    None => {
                        return Err(format!("test {idx} sets unknown input `{name}`"));
                    }
                    Some((lo, hi)) if v < lo || v > hi => {
                        return Err(format!(
                            "test {idx}: {name}={v} outside declared range [{lo}, {hi}]"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }
}

fn program_has_assert(stmts: &[cpr_lang::Stmt]) -> bool {
    use cpr_lang::Stmt;
    stmts.iter().any(|s| match s {
        Stmt::Assert { .. } => true,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => program_has_assert(then_body) || program_has_assert(else_body),
        Stmt::While { body, .. } => program_has_assert(body),
        _ => false,
    })
}

/// Budgets and tuning for a repair run. The paper's experiments use a
/// 1-hour wall-clock budget; this reproduction uses an iteration budget plus
/// an optional wall-clock cap so runs are deterministic.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Maximum number of repair-loop iterations (explored inputs).
    pub max_iterations: usize,
    /// Optional wall-clock budget in milliseconds.
    pub max_millis: Option<u64>,
    /// Solver configuration.
    pub solver: SolverConfig,
    /// Interpreter/executor statement budget per run.
    pub exec_max_steps: u64,
    /// Maximum recorded path length per run.
    pub exec_max_path: usize,
    /// Maximum recursion depth of `RefinePatch` (Algorithm 3).
    pub max_refine_depth: u32,
    /// Maximum solver calls per `RefinePatch` invocation.
    pub max_refine_calls: u32,
    /// Maximum prefix flips expanded per explored path.
    pub max_expansion: usize,
    /// Maximum patches tried when checking prefix feasibility
    /// (path-reduction check); prefixes failing for this many patches are
    /// counted as skipped.
    pub max_feasibility_probes: usize,
    /// Whether to run the functionality-deletion ranking check (§3.5.3).
    pub deletion_check: bool,
    /// Refine the deletion check with model counting (§3.5.3: "find the
    /// proportion of inputs in a path affected by a patch insertion"):
    /// instead of penalizing only patches that are *constant* on a
    /// partition, penalize patches that redirect at least
    /// [`RepairConfig::deletion_ratio`] of the partition's inputs.
    pub model_counting: bool,
    /// Redirection proportion above which a patch counts as functionality
    /// deleting (only with `model_counting`).
    pub deletion_ratio: f64,
    /// Whether to prune path prefixes no patch can exercise (§3.4, "path
    /// reduction"). Disabling this is an ablation: exploration then wastes
    /// executions on partitions outside every patch.
    pub path_reduction: bool,
    /// Track the explored share of the input space by model counting each
    /// new partition (reported as `RepairReport::input_coverage`). Off by
    /// default: it costs one counting query per explored path.
    pub track_coverage: bool,
    /// Fixpoint rounds when validating candidates in Phase 1.
    pub max_validation_rounds: usize,
    /// Worker threads for the parallel phases of a repair run: Phase-1
    /// validation (patch-pool construction), the patch-space reduction
    /// walk (Algorithm 2) and the expansion phase (generational search +
    /// path-reduction feasibility probes). Defaults to the machine's
    /// available parallelism. Any value produces bit-identical results —
    /// only wall-clock changes.
    pub threads: usize,
    /// Record metrics and spans on the process-wide [`cpr_obs::global`]
    /// registry. Instrumentation is write-only — nothing recorded ever
    /// feeds back into repair decisions — so the final
    /// [`crate::RepairReport`] is bit-identical with it on or off
    /// (proved in `tests/determinism.rs`). Off means genuinely off: the
    /// phases hold no-op handles and skip even their clock reads.
    pub metrics: bool,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            max_iterations: 120,
            max_millis: None,
            solver: SolverConfig::default(),
            exec_max_steps: 100_000,
            exec_max_path: 256,
            max_refine_depth: 24,
            max_refine_calls: 256,
            max_expansion: 24,
            max_feasibility_probes: 8,
            deletion_check: true,
            model_counting: false,
            deletion_ratio: 0.9,
            path_reduction: true,
            track_coverage: false,
            max_validation_rounds: 6,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            metrics: true,
        }
    }
}

impl RepairConfig {
    /// A small-budget configuration for unit tests and examples.
    pub fn quick() -> Self {
        RepairConfig {
            max_iterations: 30,
            max_expansion: 12,
            ..RepairConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_lang::parse;

    #[test]
    fn builder_roundtrip() {
        let program = parse("program p { input x in [0, 5]; return x; }").unwrap();
        let problem = RepairProblem::new(
            "demo",
            program,
            ComponentSet::new(),
            SynthConfig::default(),
            vec![test_input(&[("x", 3)])],
        )
        .with_developer_patch("x == 0")
        .with_baseline("false")
        .with_passing_inputs(vec![test_input(&[("x", 1)])]);
        assert_eq!(problem.name, "demo");
        assert_eq!(problem.failing_inputs[0]["x"], 3);
        assert_eq!(problem.passing_inputs.len(), 1);
        assert_eq!(problem.developer_patch.as_deref(), Some("x == 0"));
        assert_eq!(problem.baseline_expr.as_deref(), Some("false"));
    }

    #[test]
    fn validate_catches_malformed_problems() {
        let good = parse(
            "program p {
               input x in [0, 5];
               if (__patch_cond__(x)) { return 1; }
               bug b requires (x != 0);
               return 10 / x;
             }",
        )
        .unwrap();
        let base = RepairProblem::new(
            "demo",
            good.clone(),
            ComponentSet::new().with_variables(["x"]),
            SynthConfig::default(),
            vec![test_input(&[("x", 0)])],
        );
        base.validate().unwrap();

        // No failing input.
        let mut p = base.clone();
        p.failing_inputs.clear();
        assert!(p.validate().unwrap_err().contains("failing input"));

        // Input outside the declared range.
        let mut p = base.clone();
        p.failing_inputs = vec![test_input(&[("x", 99)])];
        assert!(p.validate().unwrap_err().contains("outside declared range"));

        // Unknown input name.
        let mut p = base.clone();
        p.failing_inputs = vec![test_input(&[("zz", 0)])];
        assert!(p.validate().unwrap_err().contains("unknown input"));

        // Hole-kind mismatch.
        let mut p = base.clone();
        p.synth.hole_kind = cpr_lang::HoleKind::IntExpr;
        assert!(p.validate().unwrap_err().contains("hole is Cond"));

        // No hole at all.
        let mut p = base.clone();
        p.program = parse("program q { input x in [0, 5]; return x; }").unwrap();
        assert!(p.validate().unwrap_err().contains("no patch hole"));

        // No specification.
        let mut p = base;
        p.program = parse(
            "program q { input x in [0, 5]; if (__patch_cond__(x)) { return 1; } return x; }",
        )
        .unwrap();
        assert!(p.validate().unwrap_err().contains("specification"));
    }

    #[test]
    fn quick_config_is_smaller() {
        let q = RepairConfig::quick();
        let d = RepairConfig::default();
        assert!(q.max_iterations < d.max_iterations);
    }
}
