//! Concrete interpreter for the subject language.
//!
//! The interpreter plays two roles in the reproduction:
//!
//! * it is the **test oracle**: running a (patched) program on a concrete
//!   input reveals crashes, assertion failures and specification violations,
//!   exactly like executing an instrumented binary in the original tool;
//! * it is the **sanitizer**: divide-by-zero, remainder-by-zero and
//!   out-of-bounds accesses abort execution with a [`CrashKind`], mirroring
//!   the sanitizer-instrumented subjects of the ExtractFix benchmark.
//!
//! It is a thin wrapper over the [engine](crate::engine) with a shadow that
//! builds no terms, so the concolic executor, which runs the same engine,
//! cannot disagree with it.

use std::collections::HashMap;

use cpr_smt::{Model, Sort, TermId, TermPool, Value};

use crate::ast::{BinOp, Builtin, Expr, HoleKind, Program, UnOp};
use crate::engine::{self, patch_value, Env, RunResult, Shadow};

/// A concrete patch to splice into the program's hole: an expression over
/// the hole's argument variables (by name, as pool variables) plus an
/// assignment `binding` for any template parameters it mentions.
#[derive(Debug, Clone)]
pub struct ConcretePatch<'a> {
    /// Pool the patch expression lives in.
    pub pool: &'a TermPool,
    /// The patch expression `θ_ρ` with parameters substituted or bound.
    pub expr: TermId,
    /// Values for template parameters occurring in `expr`.
    pub binding: Model,
}

/// A concrete run's shadow: it builds no terms (`Term = ()`) and only fills
/// the hole with the patch, if there is one.
impl Shadow for Option<&ConcretePatch<'_>> {
    type Term = ();
    const GHOST: bool = false;

    fn constant(&mut self, _: Value) {}
    fn unary(&mut self, _: UnOp, _: ()) {}
    fn binary(&mut self, _: BinOp, _: (), _: ()) {}
    fn builtin(&mut self, _: Builtin, _: (), _: ()) {}
    fn branch(&mut self, _: &Expr, _: (), _: bool) {}
    fn pin(&mut self, _: (), _: i64) {}
    fn hole(&mut self, _: HoleKind, env: &Env<()>) -> Option<(Value, ())> {
        self.map(|p| (patch_value(p.pool, p.expr, &p.binding, env), ()))
    }
    fn assert(&mut self, _: ()) {}
    fn bug(&mut self, _: ()) {}
}

/// The concrete interpreter. Construct once and reuse across runs.
#[derive(Debug, Clone)]
pub struct Interp {
    max_steps: u64,
}

impl Default for Interp {
    fn default() -> Self {
        Interp { max_steps: 100_000 }
    }
}

impl Interp {
    /// Creates an interpreter with the default step budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interpreter with a custom statement budget.
    pub fn with_max_steps(max_steps: u64) -> Self {
        Interp { max_steps }
    }

    /// Runs `program` on the given inputs (by input name). Missing inputs
    /// default to the low end of their declared range. `patch` fills the
    /// patch hole, if the program has one.
    pub fn run(
        &self,
        program: &Program,
        inputs: &HashMap<String, i64>,
        mut patch: Option<&ConcretePatch<'_>>,
    ) -> RunResult {
        let inputs = program
            .inputs
            .iter()
            .map(|decl| (inputs.get(&decl.name).copied().unwrap_or(decl.lo), ()));
        engine::run(program, inputs, self.max_steps, &mut patch)
    }

    /// Convenience: runs the program and builds the input map from a model
    /// whose variable *names* match the program's input names.
    pub fn run_with_model(
        &self,
        program: &Program,
        pool: &TermPool,
        model: &Model,
        patch: Option<&ConcretePatch<'_>>,
    ) -> RunResult {
        let mut inputs = HashMap::new();
        for decl in &program.inputs {
            if let Some(var) = pool.find_var(&decl.name) {
                if pool.var_sort(var) == Sort::Int {
                    if let Some(v) = model.int(var) {
                        inputs.insert(decl.name.clone(), v);
                    }
                }
            }
        }
        self.run(program, &inputs, patch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Span;
    use crate::engine::{CrashKind, Outcome};
    use crate::parser::parse;
    use crate::types::check;
    use cpr_smt::Sort;

    fn run(src: &str, inputs: &[(&str, i64)]) -> RunResult {
        let prog = parse(src).unwrap();
        check(&prog).unwrap();
        let map: HashMap<String, i64> = inputs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        Interp::new().run(&prog, &map, None)
    }

    #[test]
    fn straight_line_arithmetic() {
        let r = run(
            "program p { input x in [0, 9]; return x * 3 + 1; }",
            &[("x", 4)],
        );
        assert_eq!(r.outcome, Outcome::Returned(13));
    }

    #[test]
    fn missing_input_defaults_to_range_low() {
        let r = run("program p { input x in [5, 9]; return x; }", &[]);
        assert_eq!(r.outcome, Outcome::Returned(5));
    }

    #[test]
    fn division_by_zero_crashes() {
        let r = run(
            "program p { input x in [-5, 5]; return 10 / x; }",
            &[("x", 0)],
        );
        assert!(matches!(
            r.outcome,
            Outcome::Crash {
                kind: CrashKind::DivByZero,
                ..
            }
        ));
    }

    #[test]
    fn remainder_by_zero_crashes() {
        let r = run(
            "program p { input x in [-5, 5]; return 10 % x; }",
            &[("x", 0)],
        );
        assert!(matches!(
            r.outcome,
            Outcome::Crash {
                kind: CrashKind::RemByZero,
                ..
            }
        ));
    }

    #[test]
    fn array_out_of_bounds_crashes() {
        let r = run(
            "program p { input i in [0, 20]; var a: int[4]; return a[i]; }",
            &[("i", 9)],
        );
        assert!(matches!(
            r.outcome,
            Outcome::Crash {
                kind: CrashKind::IndexOutOfBounds,
                ..
            }
        ));
        let ok = run(
            "program p { input i in [0, 20]; var a: int[4]; a[i] = 7; return a[i]; }",
            &[("i", 3)],
        );
        assert_eq!(ok.outcome, Outcome::Returned(7));
    }

    #[test]
    fn loops_and_builtins() {
        let r = run(
            "program p {
               input n in [1, 10];
               var i: int = 0;
               var acc: int = 0;
               while (i < n) { acc = acc + i; i = i + 1; }
               return max(acc, 3);
             }",
            &[("n", 5)],
        );
        assert_eq!(r.outcome, Outcome::Returned(10));
    }

    #[test]
    fn roundup_matches_libtiff_helper() {
        let r = run(
            "program p { input a in [0, 100]; input b in [1, 10]; return roundup(a, b); }",
            &[("a", 10), ("b", 4)],
        );
        assert_eq!(r.outcome, Outcome::Returned(12));
        let crash = run(
            "program p { input a in [0, 100]; input b in [0, 10]; return roundup(a, b); }",
            &[("a", 10), ("b", 0)],
        );
        assert!(matches!(
            crash.outcome,
            Outcome::Crash {
                kind: CrashKind::RoundupByZero,
                ..
            }
        ));
    }

    #[test]
    fn roundup_saturates_instead_of_overflowing() {
        // a + b - 1 leaves the i64 range; the value saturates exactly as
        // the term algebra's operators do.
        let r = run(
            "program p { return roundup(4611686018427387904 * 4, 2); }",
            &[],
        );
        assert_eq!(r.outcome, Outcome::Returned(i64::MAX - 1));
    }

    #[test]
    fn logical_operators_short_circuit() {
        let src = "program p {
            input x in [-5, 5];
            if (x != 0 && 10 / x > 1) { return 1; }
            if (x == 0 || 10 % x > 1) { return 2; }
            return 0;
          }";
        // A right operand the left one decides never runs, so it cannot
        // crash.
        assert_eq!(run(src, &[("x", 0)]).outcome, Outcome::Returned(2));
        assert_eq!(run(src, &[("x", 3)]).outcome, Outcome::Returned(1));
        assert_eq!(run(src, &[("x", -4)]).outcome, Outcome::Returned(2));
        assert_eq!(run(src, &[("x", -5)]).outcome, Outcome::Returned(0));
    }

    #[test]
    fn assert_and_assume() {
        let fail = run(
            "program p { input x in [0, 9]; assert(x > 5); return x; }",
            &[("x", 2)],
        );
        assert!(matches!(fail.outcome, Outcome::AssertFailed { .. }));
        let vacuous = run(
            "program p { input x in [0, 9]; assume(x > 5); return x; }",
            &[("x", 2)],
        );
        assert_eq!(vacuous.outcome, Outcome::AssumeFailed);
    }

    #[test]
    fn bug_location_spec_violation() {
        let src = "program p {
            input x in [-10, 10];
            input y in [-10, 10];
            bug div_by_zero requires (x * y != 0);
            return 100 / (x * y);
          }";
        let bad = run(src, &[("x", 7), ("y", 0)]);
        assert!(
            matches!(bad.outcome, Outcome::SpecViolated { ref bug, .. } if bug == "div_by_zero")
        );
        assert_eq!(bad.bug_hits, 1);
        let good = run(src, &[("x", 5), ("y", 2)]);
        assert_eq!(good.outcome, Outcome::Returned(10));
        assert_eq!(good.bug_hits, 1);
    }

    #[test]
    fn step_limit_stops_divergence() {
        let prog = parse("program p { while (true) { } return 0; }").unwrap();
        check(&prog).unwrap();
        let r = Interp::with_max_steps(100).run(&prog, &HashMap::new(), None);
        assert_eq!(r.outcome, Outcome::StepLimit);
    }

    #[test]
    fn hole_without_patch_is_reported() {
        let r = run(
            "program p { input x in [0,9]; if (__patch_cond__(x)) { return 1; } return 0; }",
            &[("x", 1)],
        );
        assert_eq!(r.outcome, Outcome::MissingPatch);
        assert_eq!(r.patch_hits, 1);
    }

    #[test]
    fn concrete_patch_is_spliced() {
        let prog = parse(
            "program p {
               input x in [-10, 10];
               input y in [-10, 10];
               if (__patch_cond__(x, y)) { return 1; }
               bug div_by_zero requires (x * y != 0);
               return 100 / (x * y);
             }",
        )
        .unwrap();
        check(&prog).unwrap();

        // Patch: x == a || y == b with a=0, b=0 (the paper's correct patch).
        let mut pool = TermPool::new();
        let x = pool.named_var("x", Sort::Int);
        let y = pool.named_var("y", Sort::Int);
        let a = pool.var("a", Sort::Int);
        let b = pool.var("b", Sort::Int);
        let at = pool.var_term(a);
        let bt = pool.var_term(b);
        let ex = pool.eq(x, at);
        let ey = pool.eq(y, bt);
        let expr = pool.or(ex, ey);
        let mut binding = Model::new();
        binding.set(a, 0i64);
        binding.set(b, 0i64);
        let patch = ConcretePatch {
            pool: &pool,
            expr,
            binding,
        };

        let interp = Interp::new();
        // y == 0 would crash; patch routes it to the early return.
        let mut inputs = HashMap::new();
        inputs.insert("x".to_string(), 7i64);
        inputs.insert("y".to_string(), 0i64);
        let r = interp.run(&prog, &inputs, Some(&patch));
        assert_eq!(r.outcome, Outcome::Returned(1));
        assert_eq!(r.patch_hits, 1);
        assert_eq!(r.bug_hits, 0);

        // Non-zero inputs flow through the division safely.
        inputs.insert("y".to_string(), 2i64);
        let r = interp.run(&prog, &inputs, Some(&patch));
        assert_eq!(r.outcome, Outcome::Returned(100 / 14));
        assert_eq!(r.bug_hits, 1);
    }

    #[test]
    fn user_functions_evaluate_purely() {
        let r = run(
            "program p {
               fn clamp_low(v: int, lo: int) -> int {
                 if (v < lo) { return lo; }
                 return v;
               }
               input x in [-10, 10];
               var v: int = 7;
               var y: int = clamp_low(x, 0);
               return y * 10 + v;
             }",
            &[("x", -3)],
        );
        // The callee's local scope must not leak into or read the caller's
        // `v`; clamp_low(-3, 0) = 0.
        assert_eq!(r.outcome, Outcome::Returned(7));
        let r = run(
            "program p {
               fn clamp_low(v: int, lo: int) -> int {
                 if (v < lo) { return lo; }
                 return v;
               }
               input x in [-10, 10];
               return clamp_low(x, 0);
             }",
            &[("x", 5)],
        );
        assert_eq!(r.outcome, Outcome::Returned(5));
    }

    #[test]
    fn recursive_function_with_budget() {
        let src = "program p {
            fn fact(n: int) -> int {
              if (n <= 1) { return 1; }
              return n * fact(n - 1);
            }
            input n in [0, 10];
            return fact(n);
          }";
        let r = run(src, &[("n", 5)]);
        assert_eq!(r.outcome, Outcome::Returned(120));
        // Unbounded recursion hits the step budget instead of diverging.
        let bad = "program p {
            fn spin(n: int) -> int { return spin(n); }
            input n in [0, 10];
            return spin(n);
          }";
        let prog = parse(bad).unwrap();
        check(&prog).unwrap();
        let r = Interp::with_max_steps(200).run(&prog, &HashMap::new(), None);
        assert_eq!(r.outcome, Outcome::StepLimit);
    }

    #[test]
    fn function_crash_propagates() {
        let r = run(
            "program p {
               fn inv(n: int) -> int { return 100 / n; }
               input x in [-5, 5];
               return inv(x);
             }",
            &[("x", 0)],
        );
        assert!(matches!(
            r.outcome,
            Outcome::Crash {
                kind: CrashKind::DivByZero,
                ..
            }
        ));
    }

    #[test]
    fn outcome_classification() {
        assert!(Outcome::Returned(3).is_success());
        assert!(!Outcome::Returned(3).is_failure());
        assert!(Outcome::AssertFailed {
            span: Span::default()
        }
        .is_failure());
        assert!(!Outcome::AssumeFailed.is_failure());
    }
}
