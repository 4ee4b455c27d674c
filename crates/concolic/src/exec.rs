//! The concolic executor: runs a subject program on a concrete input while
//! building the symbolic path constraint, injecting the patch formula `ψ_ρ`
//! at the hole, and capturing the specification `σ` at the bug location.
//! The run is `cpr_lang::engine::run` with the term shadow below.

use std::collections::HashMap;

use cpr_lang::engine::{self, patch_value, Env, Shadow, Slot};
use cpr_lang::{BinOp, Builtin, Expr, HoleKind, Outcome, Program, UnOp};
use cpr_smt::{Model, Sort, TermData, TermId, TermPool, Value, VarId};

/// The patch inserted into the program's hole during a concolic run.
///
/// `theta` is the patch expression `θ_ρ(X_P, A)` over *pool variables whose
/// names match program variables* plus template parameter variables. During
/// symbolic evaluation the program variables are substituted by their current
/// symbolic values (that substitution is the paper's patch formula `ψ_ρ`);
/// the parameters stay symbolic. During concrete evaluation the parameters
/// take the representative values in `params`.
#[derive(Debug, Clone)]
pub struct HolePatch {
    /// Patch expression `θ_ρ`.
    pub theta: TermId,
    /// Representative concrete parameter values used to drive execution.
    pub params: Model,
}

/// One recorded branch decision: the constraint is already oriented (negated
/// when the false branch was taken).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// The oriented branch constraint over inputs `X` and parameters `A`.
    pub constraint: TermId,
    /// For steps produced by the patch hole: the index of the associated
    /// observation (see [`HoleObservation`]) and the branch polarity taken
    /// (condition holes) or `true` (expression holes, whose step is the
    /// defining equation).
    pub patch_obs: Option<(usize, bool)>,
}

impl PathStep {
    /// Whether the constraint stems from evaluating the patch hole.
    pub fn from_patch(&self) -> bool {
        self.patch_obs.is_some()
    }
}

/// Snapshot of the symbolic state at one evaluation of the patch hole.
///
/// This is the paper's first-order encoding of the patch formula `ψ_ρ`:
/// given any template `θ`, substituting each program variable by its
/// symbolic value in `subst` yields `ψ` for *that* patch at *this* hole
/// evaluation — so a single concolic run can be re-targeted at every patch
/// in the pool during `Reduce`.
#[derive(Debug, Clone)]
pub struct HoleObservation {
    /// Program variable name → symbolic value at the hole.
    pub subst: HashMap<String, TermId>,
    /// For expression holes: the fresh output variable `__hole_k` that
    /// carries the patch value through the rest of the path.
    pub out_var: Option<VarId>,
}

/// Result of one concolic run.
#[derive(Debug, Clone)]
pub struct ConcolicResult {
    /// Oriented branch constraints in execution order (the path constraint
    /// `φ_t` is their conjunction).
    pub path: Vec<PathStep>,
    /// The symbolic specification `σ` captured at the bug location (over
    /// inputs and parameters), if the bug location was reached.
    pub sigma: Option<TermId>,
    /// Whether the patch hole was evaluated (`hit_patch` in Algorithm 1).
    pub hit_patch: bool,
    /// Whether the bug location was reached (`hit_bug` in Algorithm 1).
    pub hit_bug: bool,
    /// Concrete outcome of the run.
    pub outcome: Outcome,
    /// The concrete input the run used.
    pub inputs: Model,
    /// Statements executed.
    pub steps: u64,
    /// One entry per evaluation of the patch hole, in execution order.
    pub observations: Vec<HoleObservation>,
    /// Symbolic conditions of the `assert` statements evaluated on this
    /// path (the failed one included, when the outcome is `AssertFailed`).
    /// Assertions are partial specifications (paper §1), so they take part
    /// in patch reduction alongside the bug location's `σ`.
    pub asserts: Vec<TermId>,
}

impl ConcolicResult {
    /// The path constraint `φ_t` as a single conjunction.
    pub fn path_constraint(&self, pool: &mut TermPool) -> TermId {
        pool.and_many(self.path.iter().map(|s| s.constraint))
    }

    /// The branch constraints only (oriented), without patch bookkeeping.
    pub fn constraints(&self) -> Vec<TermId> {
        self.path.iter().map(|s| s.constraint).collect()
    }

    /// The full specification observed on this path: the bug location's `σ`
    /// conjoined with every executed assertion. `None` when neither was
    /// reached (no reduction is possible then).
    pub fn spec_term(&self, pool: &mut TermPool) -> Option<TermId> {
        let mut parts: Vec<TermId> = Vec::new();
        if let Some(s) = self.sigma {
            parts.push(s);
        }
        parts.extend(self.asserts.iter().copied());
        if parts.is_empty() {
            None
        } else {
            Some(pool.and_many(parts))
        }
    }

    /// Whether any specification (bug location or assertion) was observed.
    pub fn spec_observed(&self) -> bool {
        self.sigma.is_some() || !self.asserts.is_empty()
    }

    /// Re-targets the recorded path at another patch template: every
    /// patch-hole step is replaced by `θ`'s formula in the same polarity
    /// (`ψ_ρ` oriented the way the partition went), all other steps are kept
    /// verbatim. This is what lets the Reduce step of Algorithm 2 reason
    /// about every patch in the pool from a single concolic run.
    pub fn constraints_for_patch(&self, pool: &mut TermPool, theta: TermId) -> Vec<TermId> {
        self.patched_prefix(pool, theta, self.path.len(), false)
    }

    /// Batch form of [`ConcolicResult::constraints_for_patch`]: re-targets
    /// the path at every patch template in turn, interning all constraints
    /// into `pool`. This is the pre-interning hook for the parallel reduce
    /// phase — running it serially before forking the pool guarantees every
    /// worker agrees on the `TermId` of every path constraint.
    pub fn constraints_for_patches(
        &self,
        pool: &mut TermPool,
        thetas: &[TermId],
    ) -> Vec<Vec<TermId>> {
        thetas
            .iter()
            .map(|&theta| self.constraints_for_patch(pool, theta))
            .collect()
    }

    /// The first `upto` steps re-targeted at `theta` (see
    /// [`ConcolicResult::constraints_for_patch`]); when `flip_last` is set
    /// the final step is negated (generational search).
    ///
    /// # Panics
    ///
    /// Panics if `upto` is zero with `flip_last`, or exceeds the path length.
    pub fn patched_prefix(
        &self,
        pool: &mut TermPool,
        theta: TermId,
        upto: usize,
        flip_last: bool,
    ) -> Vec<TermId> {
        assert!(upto <= self.path.len(), "prefix exceeds path");
        let mut out = Vec::with_capacity(upto);
        for (i, step) in self.path[..upto].iter().enumerate() {
            let mut c = match step.patch_obs {
                None => step.constraint,
                Some((obs_idx, polarity)) => {
                    let obs = &self.observations[obs_idx];
                    let psi = substitute_theta(pool, theta, &obs.subst);
                    match obs.out_var {
                        // Expression hole: defining equation __hole_k = ψ.
                        Some(out_var) => {
                            let hv = pool.var_term(out_var);
                            pool.eq(hv, psi)
                        }
                        // Condition hole: ψ oriented by the taken branch.
                        None => {
                            if polarity {
                                psi
                            } else {
                                pool.not(psi)
                            }
                        }
                    }
                }
            };
            if flip_last && i + 1 == upto {
                c = pool.not(c);
            }
            out.push(c);
        }
        out
    }
}

/// Substitutes the program variables of `theta` by their symbolic values at
/// a hole observation (parameters and unknown names are left symbolic).
fn substitute_theta(pool: &mut TermPool, theta: TermId, subst: &HashMap<String, TermId>) -> TermId {
    let map: HashMap<VarId, TermId> = pool
        .vars_of(theta)
        .into_iter()
        .filter_map(|v| subst.get(pool.var_name(v)).map(|&sym| (v, sym)))
        .collect();
    pool.substitute(theta, &map)
}

/// The concolic executor. Holds budgets; all per-run state is local.
#[derive(Debug, Clone)]
pub struct ConcolicExecutor {
    max_steps: u64,
    max_path_len: usize,
}

impl Default for ConcolicExecutor {
    fn default() -> Self {
        ConcolicExecutor {
            max_steps: 100_000,
            max_path_len: 512,
        }
    }
}

impl ConcolicExecutor {
    /// Creates an executor with default budgets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an executor with custom step and path-length budgets.
    pub fn with_budgets(max_steps: u64, max_path_len: usize) -> Self {
        ConcolicExecutor {
            max_steps,
            max_path_len,
        }
    }

    /// Declares the program's inputs as pool variables (idempotent) and
    /// returns them in declaration order.
    pub fn input_vars(pool: &mut TermPool, program: &Program) -> Vec<VarId> {
        program
            .inputs
            .iter()
            .map(|i| pool.var(&i.name, Sort::Int))
            .collect()
    }

    /// Runs `program` concolically on the concrete `inputs` (a model over
    /// the input variables as named in the pool). Returns the path
    /// constraint, captured specification, hit flags, and the concrete
    /// outcome. `patch` fills the hole if present.
    pub fn execute(
        &self,
        pool: &mut TermPool,
        program: &Program,
        inputs: &Model,
        patch: Option<&HolePatch>,
    ) -> ConcolicResult {
        let mut input_model = Model::new();
        let mut bindings = Vec::with_capacity(program.inputs.len());
        for decl in &program.inputs {
            let var = pool.var(&decl.name, Sort::Int);
            let c = inputs.int(var).unwrap_or(decl.lo);
            input_model.set(var, c);
            bindings.push((c, pool.var_term(var)));
        }
        let mut shadow = TermShadow {
            pool,
            patch,
            max_path_len: self.max_path_len,
            path: Vec::new(),
            sigma: None,
            observations: Vec::new(),
            asserts: Vec::new(),
            pending_obs: None,
        };
        let run = engine::run(program, bindings, self.max_steps, &mut shadow);
        ConcolicResult {
            path: shadow.path,
            sigma: shadow.sigma,
            hit_patch: run.patch_hits > 0,
            hit_bug: run.bug_hits > 0,
            outcome: run.outcome,
            inputs: input_model,
            steps: run.steps,
            observations: shadow.observations,
            asserts: shadow.asserts,
        }
    }
}

/// The concolic run's shadow: a solver term per value, and the path
/// constraint, hole observations, `σ` and assertions of the run.
struct TermShadow<'a> {
    pool: &'a mut TermPool,
    patch: Option<&'a HolePatch>,
    max_path_len: usize,
    path: Vec<PathStep>,
    sigma: Option<TermId>,
    observations: Vec<HoleObservation>,
    asserts: Vec<TermId>,
    /// Observation index produced by the most recent hole evaluation, to be
    /// attached to the branch constraint recorded right after.
    pending_obs: Option<usize>,
}

impl TermShadow<'_> {
    /// Records a branch constraint. `polarity` is the direction taken; when
    /// the condition contained the patch hole, the pending observation is
    /// attached so Reduce can re-target the step at other patches.
    fn record(&mut self, constraint: TermId, polarity: bool, hole_in_cond: bool) {
        let pending = hole_in_cond.then(|| self.pending_obs.take()).flatten();
        let patch_obs = pending.map(|i| (i, polarity));
        // Skip constants unless they anchor a patch observation.
        if matches!(self.pool.data(constraint), TermData::BoolConst(_)) && patch_obs.is_none() {
            return;
        }
        if self.path.len() < self.max_path_len {
            self.path.push(PathStep {
                constraint,
                patch_obs,
            });
        }
    }
}

impl Shadow for TermShadow<'_> {
    type Term = TermId;
    const GHOST: bool = true;

    fn constant(&mut self, value: Value) -> TermId {
        match value {
            Value::Int(v) => self.pool.int(v),
            Value::Bool(b) => self.pool.bool(b),
        }
    }

    fn unary(&mut self, op: UnOp, a: TermId) -> TermId {
        match op {
            UnOp::Neg => self.pool.neg(a),
            UnOp::Not => self.pool.not(a),
        }
    }

    fn binary(&mut self, op: BinOp, a: TermId, b: TermId) -> TermId {
        op.term(self.pool, a, b)
    }

    fn builtin(&mut self, f: Builtin, a: TermId, b: TermId) -> TermId {
        f.term(self.pool, a, b)
    }

    fn branch(&mut self, cond: &Expr, term: TermId, taken: bool) {
        let oriented = if taken { term } else { self.pool.not(term) };
        self.record(oriented, taken, cond.contains_hole());
    }

    /// Concretizes the index (standard concolic treatment of memory): pins
    /// the symbolic index to its concrete value on this path.
    fn pin(&mut self, index: TermId, value: i64) {
        let c = self.pool.int(value);
        let pin = self.pool.eq(index, c);
        self.record(pin, true, false);
    }

    fn hole(&mut self, kind: HoleKind, env: &Env<TermId>) -> Option<(Value, TermId)> {
        let patch = self.patch?;
        // Snapshot the symbolic environment: this observation is the
        // first-order encoding of ψ_ρ and lets Reduce re-target the path at
        // every patch in the pool.
        let subst: HashMap<String, TermId> = env
            .iter()
            .filter_map(|(name, slot)| match slot {
                Slot::Int(_, s) | Slot::Bool(_, s) => Some((name.clone(), *s)),
                Slot::Array(_) => None,
            })
            .collect();
        // Symbolic value of θ_ρ0 here: program variables replaced by their
        // symbolic values, parameters left free.
        let psi = substitute_theta(self.pool, patch.theta, &subst);
        let concrete = patch_value(self.pool, patch.theta, &patch.params, env);
        let obs_idx = self.observations.len();
        self.pending_obs = Some(obs_idx);
        match kind {
            HoleKind::Cond => {
                self.observations.push(HoleObservation {
                    subst,
                    out_var: None,
                });
                Some((concrete, psi))
            }
            HoleKind::IntExpr => {
                // Route the value through a fresh output variable so that
                // downstream constraints stay patch-independent; the
                // defining equation is itself a patch step.
                let out_var = self.pool.var(&format!("__hole_{obs_idx}"), Sort::Int);
                self.observations.push(HoleObservation {
                    subst,
                    out_var: Some(out_var),
                });
                let hv = self.pool.var_term(out_var);
                let eq = self.pool.eq(hv, psi);
                self.record(eq, true, true);
                Some((concrete, hv))
            }
        }
    }

    fn assert(&mut self, cond: TermId) {
        self.asserts.push(cond);
    }

    fn bug(&mut self, spec: TermId) {
        // σ is captured symbolically whatever the concrete verdict.
        self.sigma = Some(match self.sigma {
            None => spec,
            Some(prev) => self.pool.and(prev, spec),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_lang::{check, parse};

    const DIV_SRC: &str = "program p {
        input x in [-10, 10];
        input y in [-10, 10];
        if (__patch_cond__(x, y)) { return 1; }
        bug div_by_zero requires (x * y != 0);
        return 100 / (x * y);
      }";

    fn input_model(pool: &mut TermPool, pairs: &[(&str, i64)]) -> Model {
        let mut m = Model::new();
        for (name, v) in pairs {
            let var = pool.var(name, Sort::Int);
            m.set(var, *v);
        }
        m
    }

    #[test]
    fn concolic_matches_concrete_interpreter() {
        let prog = parse("program p { input x in [-10, 10]; if (x > 3) { return 1; } return 0; }")
            .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("x", 7)]);
        let exec = ConcolicExecutor::new();
        let r = exec.execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(1));
        assert_eq!(r.path.len(), 1);
        // The recorded constraint holds for the concrete input.
        assert!(r.inputs.eval_bool(&pool, r.path[0].constraint));
        assert_eq!(pool.display(r.path[0].constraint), "(> x 3)");
    }

    #[test]
    fn false_branch_is_negated() {
        let prog = parse("program p { input x in [-10, 10]; if (x > 3) { return 1; } return 0; }")
            .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("x", 0)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(0));
        assert_eq!(pool.display(r.path[0].constraint), "(<= x 3)");
    }

    #[test]
    fn path_constraint_is_satisfied_by_the_inputs() {
        let prog = parse(
            "program p {
               input a in [-10, 10];
               input b in [-10, 10];
               var s: int = a + b;
               if (s > 5) { if (a > b) { return 2; } return 1; }
               while (s < 0) { s = s + 3; }
               return s;
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        for (a, b) in [(9, 9), (-7, 2), (3, 3), (-10, -10)] {
            let mut pool = TermPool::new();
            let inputs = input_model(&mut pool, &[("a", a), ("b", b)]);
            let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
            for step in &r.path {
                assert!(
                    r.inputs.eval_bool(&pool, step.constraint),
                    "constraint {} not satisfied for a={a}, b={b}",
                    pool.display(step.constraint)
                );
            }
        }
    }

    #[test]
    fn bug_location_captures_sigma() {
        let prog = parse(DIV_SRC).unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        // Patch: false (never take the early return).
        let theta = pool.ff();
        let patch = HolePatch {
            theta,
            params: Model::new(),
        };
        let inputs = input_model(&mut pool, &[("x", 7), ("y", 2)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        assert!(r.hit_patch);
        assert!(r.hit_bug);
        assert_eq!(r.outcome, Outcome::Returned(100 / 14));
        let sigma = r.sigma.unwrap();
        assert_eq!(pool.display(sigma), "(distinct (* x y) 0)");
    }

    #[test]
    fn spec_violation_detected() {
        let prog = parse(DIV_SRC).unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let theta = pool.ff();
        let patch = HolePatch {
            theta,
            params: Model::new(),
        };
        let inputs = input_model(&mut pool, &[("x", 7), ("y", 0)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        assert!(matches!(r.outcome, Outcome::SpecViolated { .. }));
        assert!(r.hit_bug);
        assert!(r.sigma.is_some());
    }

    #[test]
    fn patch_formula_is_injected_with_parameters() {
        let prog = parse(DIV_SRC).unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        // θ := x >= a with representative a = 4.
        let x = pool.named_var("x", Sort::Int);
        let a_var = pool.var("a", Sort::Int);
        let a = pool.var_term(a_var);
        let theta = pool.ge(x, a);
        let mut params = Model::new();
        params.set(a_var, 4i64);
        let patch = HolePatch { theta, params };

        let inputs = input_model(&mut pool, &[("x", 7), ("y", 2)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        // x=7 >= a=4, so the early return fires.
        assert_eq!(r.outcome, Outcome::Returned(1));
        assert!(r.hit_patch);
        assert!(!r.hit_bug);
        // The patch branch constraint mentions the *symbolic* parameter.
        let patch_step = r.path.iter().find(|s| s.from_patch()).unwrap();
        assert_eq!(pool.display(patch_step.constraint), "(>= x a)");
    }

    #[test]
    fn patch_condition_false_takes_else() {
        let prog = parse(DIV_SRC).unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let x = pool.named_var("x", Sort::Int);
        let a_var = pool.var("a", Sort::Int);
        let a = pool.var_term(a_var);
        let theta = pool.ge(x, a);
        let mut params = Model::new();
        params.set(a_var, 4i64);
        let patch = HolePatch { theta, params };
        let inputs = input_model(&mut pool, &[("x", 1), ("y", 2)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        assert_eq!(r.outcome, Outcome::Returned(50));
        let patch_step = r.path.iter().find(|s| s.from_patch()).unwrap();
        assert_eq!(pool.display(patch_step.constraint), "(< x a)");
    }

    #[test]
    fn expr_hole_substitutes_symbolically() {
        let prog = parse(
            "program p {
               input x in [-10, 10];
               var y: int = 0;
               y = __patch_expr__(x);
               if (y > 5) { return 1; }
               return 0;
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        // θ := x + a, a = 3
        let x = pool.named_var("x", Sort::Int);
        let a_var = pool.var("a", Sort::Int);
        let a = pool.var_term(a_var);
        let theta = pool.add(x, a);
        let mut params = Model::new();
        params.set(a_var, 3i64);
        let patch = HolePatch { theta, params };
        let inputs = input_model(&mut pool, &[("x", 4)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        assert_eq!(r.outcome, Outcome::Returned(1));
        // The hole value flows through a fresh output variable: the first
        // step is the defining equation, the second is the branch on it.
        assert_eq!(pool.display(r.path[0].constraint), "(= __hole_0 (+ x a))");
        assert!(r.path[0].from_patch());
        assert_eq!(pool.display(r.path[1].constraint), "(> __hole_0 5)");
        assert_eq!(r.observations.len(), 1);
        assert!(r.observations[0].out_var.is_some());
        // Re-targeting at another template swaps only the equation.
        let y2 = pool.named_var("x", cpr_smt::Sort::Int);
        let two = pool.int(2);
        let theta2 = pool.mul(y2, two);
        let cs = r.constraints_for_patch(&mut pool, theta2);
        assert_eq!(pool.display(cs[0]), "(= __hole_0 (* x 2))");
        assert_eq!(pool.display(cs[1]), "(> __hole_0 5)");
    }

    #[test]
    fn retargeting_cond_hole_at_other_patches() {
        let prog = parse(DIV_SRC).unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        // Execute with θ1 := x >= a (a = 4); retarget at θ2 := y < b.
        let x = pool.named_var("x", Sort::Int);
        let a_var = pool.var("a", Sort::Int);
        let a = pool.var_term(a_var);
        let theta1 = pool.ge(x, a);
        let mut params = Model::new();
        params.set(a_var, 4i64);
        let patch = HolePatch {
            theta: theta1,
            params,
        };
        let inputs = input_model(&mut pool, &[("x", 1), ("y", 2)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        // Patch branch went false (x=1 < a=4): partition took the buggy path.
        let y = pool.named_var("y", Sort::Int);
        let b_var = pool.var("b", Sort::Int);
        let b = pool.var_term(b_var);
        let theta2 = pool.lt(y, b);
        let cs = r.constraints_for_patch(&mut pool, theta2);
        // The patch step is now ¬(y < b), same polarity as executed.
        assert!(
            cs.iter().any(|&c| pool.display(c) == "(>= y b)"),
            "{:?}",
            cs.iter().map(|&c| pool.display(c)).collect::<Vec<_>>()
        );
        // And θ1's parameter no longer occurs anywhere.
        for &c in &cs {
            assert!(!pool.contains_var(c, a_var), "{}", pool.display(c));
        }
    }

    #[test]
    fn patched_prefix_flips_last_step() {
        let prog = parse(DIV_SRC).unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let x = pool.named_var("x", Sort::Int);
        let a_var = pool.var("a", Sort::Int);
        let a = pool.var_term(a_var);
        let theta = pool.ge(x, a);
        let mut params = Model::new();
        params.set(a_var, 4i64);
        let patch = HolePatch { theta, params };
        let inputs = input_model(&mut pool, &[("x", 7), ("y", 2)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        let full = r.constraints_for_patch(&mut pool, theta);
        let flipped = r.patched_prefix(&mut pool, theta, 1, true);
        assert_eq!(flipped.len(), 1);
        let expected = pool.not(full[0]);
        assert_eq!(flipped[0], expected);
    }

    #[test]
    fn loops_unroll_in_path() {
        let prog = parse(
            "program p {
               input n in [0, 5];
               var i: int = 0;
               while (i < n) { i = i + 1; }
               return i;
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("n", 3)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(3));
        // 3 true iterations + 1 exit constraint.
        assert_eq!(r.path.len(), 4);
    }

    #[test]
    fn array_index_concretization_pins_symbolic_index() {
        let prog = parse(
            "program p {
               input i in [0, 7];
               var a: int[8];
               a[i] = 42;
               return a[i];
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("i", 5)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(42));
        assert!(r
            .path
            .iter()
            .any(|s| pool.display(s.constraint) == "(= i 5)"));
    }

    #[test]
    fn user_function_branches_are_recorded_in_the_callers_path() {
        let prog = parse(
            "program p {
               fn clamp_low(v: int, lo: int) -> int {
                 if (v < lo) { return lo; }
                 return v;
               }
               input x in [-10, 10];
               var y: int = clamp_low(x, 0);
               if (y > 3) { return 1; }
               return 0;
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("x", 7)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(1));
        // Two constraints: the callee's `v >= lo` branch and the caller's
        // `y > 3` branch, both over the input x.
        let shown: Vec<String> = r.path.iter().map(|s| pool.display(s.constraint)).collect();
        assert_eq!(shown, vec!["(>= x 0)", "(> x 3)"], "{shown:?}");
        // All constraints hold for the producing input.
        for step in &r.path {
            assert!(r.inputs.eval_bool(&pool, step.constraint));
        }
    }

    #[test]
    fn recursive_function_unrolls_concretely() {
        let prog = parse(
            "program p {
               fn triangle(n: int) -> int {
                 if (n <= 0) { return 0; }
                 return n + triangle(n - 1);
               }
               input n in [0, 6];
               return triangle(n);
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("n", 4)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(10));
        // One branch per recursive activation (4 false + 1 base case).
        assert_eq!(r.path.len(), 5);
    }

    #[test]
    fn decided_operands_are_ghosts() {
        // The right operand calls a loop the left operand decides away: it
        // costs no steps, but its term and the callee's branches, which hold
        // under the input, are still recorded.
        let prog = parse(
            "program p {
               fn count(n: int) -> int {
                 var i: int = 0;
                 while (i < n) { i = i + 1; }
                 return i;
               }
               input x in [0, 9];
               if (x > 100 && count(x) + x > 3) { return 1; }
               return 0;
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("x", 2)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, None);
        let concrete =
            cpr_lang::Interp::new().run(&prog, &[("x".to_string(), 2)].into_iter().collect(), None);
        assert_eq!(r.outcome, Outcome::Returned(0));
        assert_eq!(r.steps, concrete.steps);
        let shown: Vec<String> = r.path.iter().map(|s| pool.display(s.constraint)).collect();
        assert_eq!(
            shown,
            [
                "(< 0 x)",
                "(< 1 x)",
                "(>= 2 x)",
                "(not (and (> x 100) (> (+ 2 x) 3)))"
            ]
        );
        for step in &r.path {
            assert!(r.inputs.eval_bool(&pool, step.constraint));
        }
    }

    #[test]
    fn runaway_ghost_keeps_the_left_term() {
        let prog = parse(
            "program p {
               fn spin(n: int) -> int { return spin(n); }
               input x in [0, 9];
               if (x > 100 && spin(x) > 3) { return 1; }
               return 0;
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("x", 2)]);
        let r = ConcolicExecutor::with_budgets(200, 512).execute(&mut pool, &prog, &inputs, None);
        assert_eq!(r.outcome, Outcome::Returned(0));
        let shown: Vec<String> = r.path.iter().map(|s| pool.display(s.constraint)).collect();
        assert_eq!(shown, ["(<= x 100)"]);
    }

    #[test]
    fn ghost_hole_is_observed_but_not_hit() {
        let prog = parse(
            "program p {
               input x in [-10, 10];
               if (x > 100 && __patch_cond__(x)) { return 1; }
               return 0;
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let x = pool.named_var("x", Sort::Int);
        let a_var = pool.var("a", Sort::Int);
        let a = pool.var_term(a_var);
        let theta = pool.ge(x, a);
        let mut params = Model::new();
        params.set(a_var, 4i64);
        let patch = HolePatch { theta, params };
        let inputs = input_model(&mut pool, &[("x", 7)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &inputs, Some(&patch));
        assert_eq!(r.outcome, Outcome::Returned(0));
        assert!(!r.hit_patch, "the hole never ran concretely");
        // The branch carries ψ, so it stays re-targetable at other patches.
        assert_eq!(r.observations.len(), 1);
        assert_eq!(
            pool.display(r.path[0].constraint),
            "(not (and (> x 100) (>= x a)))"
        );
        assert!(r.path[0].from_patch());
    }

    #[test]
    fn step_limit_reports() {
        let prog = parse("program p { while (true) { } return 0; }").unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let r =
            ConcolicExecutor::with_budgets(50, 512).execute(&mut pool, &prog, &Model::new(), None);
        assert_eq!(r.outcome, Outcome::StepLimit);
    }

    #[test]
    fn path_length_budget_truncates_recording() {
        let prog = parse(
            "program p {
               input n in [0, 50];
               var i: int = 0;
               while (i < n) { i = i + 1; }
               return i;
             }",
        )
        .unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let inputs = input_model(&mut pool, &[("n", 40)]);
        let r = ConcolicExecutor::with_budgets(100_000, 8).execute(&mut pool, &prog, &inputs, None);
        // Execution completes concretely, but only the first 8 branch
        // constraints are recorded.
        assert_eq!(r.outcome, Outcome::Returned(40));
        assert_eq!(r.path.len(), 8);
    }

    #[test]
    fn assume_records_and_stops_on_failure() {
        let prog = parse("program p { input x in [0, 9]; assume(x > 4); return x; }").unwrap();
        check(&prog).unwrap();
        let mut pool = TermPool::new();
        let ok = input_model(&mut pool, &[("x", 7)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &ok, None);
        assert_eq!(r.outcome, Outcome::Returned(7));
        assert_eq!(r.path.len(), 1);
        let bad = input_model(&mut pool, &[("x", 1)]);
        let r = ConcolicExecutor::new().execute(&mut pool, &prog, &bad, None);
        assert_eq!(r.outcome, Outcome::AssumeFailed);
    }
}
