//! Cross-crate consistency tests: the concolic executor, concrete
//! interpreter and solver must agree on every benchmark subject.

use std::collections::HashMap;

use cpr_concolic::{ConcolicExecutor, HolePatch};
use cpr_core::{lower_expr_src, RepairConfig, Session};
use cpr_lang::{ConcretePatch, Interp, Outcome};
use cpr_smt::Model;
use cpr_subjects::all_subjects;

/// A handful of deterministic inputs inside the declared ranges.
fn sample_inputs(program: &cpr_lang::Program) -> Vec<HashMap<String, i64>> {
    let mut out = Vec::new();
    for pick in 0..5 {
        let mut m = HashMap::new();
        for (i, decl) in program.inputs.iter().enumerate() {
            let span = decl.hi - decl.lo;
            let v = decl.lo + (span * ((pick + i as i64) % 5)) / 4;
            m.insert(decl.name.clone(), v.clamp(decl.lo, decl.hi));
        }
        out.push(m);
    }
    out
}

/// The concolic executor and the concrete interpreter produce the same
/// outcome for the developer patch on sampled inputs of every subject.
#[test]
fn concolic_agrees_with_interpreter_on_all_subjects() {
    for s in all_subjects() {
        let problem = s.problem();
        let config = RepairConfig::quick();
        let mut sess = Session::new(&problem, &config);
        let theta = lower_expr_src(&mut sess.pool, s.dev_patch).unwrap();
        for input in sample_inputs(&problem.program) {
            // Concrete interpreter.
            let patch = ConcretePatch {
                pool: &sess.pool,
                expr: theta,
                binding: Model::new(),
            };
            let concrete = Interp::new().run(&problem.program, &input, Some(&patch));

            // Concolic executor.
            let model = sess.input_model(&input);
            let hole = HolePatch {
                theta,
                params: Model::new(),
            };
            let run = ConcolicExecutor::new().execute(
                &mut sess.pool,
                &problem.program,
                &model,
                Some(&hole),
            );
            assert_eq!(
                run.outcome,
                concrete.outcome,
                "{}: outcome mismatch on {input:?}",
                s.name()
            );
            assert_eq!(
                u32::from(run.hit_bug),
                u32::from(concrete.bug_hits > 0),
                "{}: bug-hit mismatch on {input:?}",
                s.name()
            );
        }
    }
}

/// Every recorded path constraint is satisfied by the concrete input that
/// produced it (with the developer patch's parameters empty, all parameter
/// variables are absent from the path).
#[test]
fn path_constraints_hold_for_their_inputs() {
    for s in all_subjects() {
        let problem = s.problem();
        let config = RepairConfig::quick();
        let mut sess = Session::new(&problem, &config);
        let theta = lower_expr_src(&mut sess.pool, s.dev_patch).unwrap();
        for input in sample_inputs(&problem.program).into_iter().take(3) {
            let model = sess.input_model(&input);
            let hole = HolePatch {
                theta,
                params: Model::new(),
            };
            let run = ConcolicExecutor::new().execute(
                &mut sess.pool,
                &problem.program,
                &model,
                Some(&hole),
            );
            for step in &run.path {
                // `__hole_k` output variables are defined by their
                // equations; bind them by evaluating under the model and
                // checking only constraints free of them is overkill —
                // total evaluation with defaults suffices for cond holes,
                // so restrict the check to those subjects.
                if s.hole_kind == cpr_lang::HoleKind::Cond {
                    assert!(
                        run.inputs.eval_bool(&sess.pool, step.constraint),
                        "{}: unsatisfied path step {} for {input:?}",
                        s.name(),
                        sess.pool.display(step.constraint)
                    );
                }
            }
        }
    }
}

/// The specification σ captured concolically matches the concrete verdict:
/// whenever the bug location is reached, evaluating σ under the inputs
/// agrees with whether the run failed with `SpecViolated`.
#[test]
fn captured_sigma_matches_concrete_verdict() {
    for s in all_subjects() {
        let problem = s.problem();
        let config = RepairConfig::quick();
        let mut sess = Session::new(&problem, &config);
        // Use the baseline so that violations are actually reachable.
        let theta = lower_expr_src(&mut sess.pool, s.baseline).unwrap();
        for input in sample_inputs(&problem.program).into_iter().take(3) {
            let model = sess.input_model(&input);
            let hole = HolePatch {
                theta,
                params: Model::new(),
            };
            let run = ConcolicExecutor::new().execute(
                &mut sess.pool,
                &problem.program,
                &model,
                Some(&hole),
            );
            if s.hole_kind != cpr_lang::HoleKind::Cond {
                continue; // σ may reference __hole_k outputs
            }
            if let Some(sigma) = run.sigma {
                let holds = run.inputs.eval_bool(&sess.pool, sigma);
                let violated = matches!(run.outcome, Outcome::SpecViolated { .. });
                assert_eq!(
                    holds,
                    !violated,
                    "{}: σ/verdict mismatch on {input:?}",
                    s.name()
                );
            }
        }
    }
}

/// Runs `src` at `x` through both entry points and checks that they agree
/// and that every recorded path step and σ hold under the input.
fn run_both_modes(src: &str, x: i64) -> Outcome {
    let program = cpr_lang::parse(src).unwrap();
    cpr_lang::check(&program).unwrap();
    let inputs: HashMap<String, i64> = [("x".to_string(), x)].into();
    let concrete = Interp::new().run(&program, &inputs, None);

    let mut pool = cpr_smt::TermPool::new();
    let var = pool.var("x", cpr_smt::Sort::Int);
    let mut model = Model::new();
    model.set(var, x);
    let run = ConcolicExecutor::new().execute(&mut pool, &program, &model, None);
    assert_eq!(run.outcome, concrete.outcome, "outcome mismatch at x = {x}");
    assert_eq!(run.steps, concrete.steps, "step mismatch at x = {x}");
    for step in &run.path {
        assert!(
            run.inputs.eval_bool(&pool, step.constraint),
            "unsatisfied path step {} at x = {x}",
            pool.display(step.constraint)
        );
    }
    if let Some(sigma) = run.sigma {
        let violated = matches!(run.outcome, Outcome::SpecViolated { .. });
        assert_eq!(
            run.inputs.eval_bool(&pool, sigma),
            !violated,
            "σ at x = {x}"
        );
    }
    run.outcome
}

/// `&&` and `||` short-circuit in both modes: a right operand the left one
/// decides does not run, so its division by zero cannot crash either run.
/// The path constraint still carries the whole condition.
#[test]
fn short_circuit_guards_a_crashing_operand_in_both_modes() {
    let and = "program p {
        input x in [-10, 10];
        if (x != 0 && 10 / x > 1) { return 1; }
        return 0;
      }";
    assert_eq!(run_both_modes(and, 0), Outcome::Returned(0));
    assert_eq!(run_both_modes(and, 3), Outcome::Returned(1));
    assert_eq!(run_both_modes(and, -3), Outcome::Returned(0));

    let or = "program p {
        input x in [-10, 10];
        bug guarded requires (x == 0 || 10 % x < 3);
        return 0;
      }";
    assert_eq!(run_both_modes(or, 0), Outcome::Returned(0));
    assert!(matches!(
        run_both_modes(or, 7),
        Outcome::SpecViolated { .. }
    ));

    // The decided operand's term is still part of the branch constraint.
    let program = cpr_lang::parse(and).unwrap();
    let mut pool = cpr_smt::TermPool::new();
    let var = pool.var("x", cpr_smt::Sort::Int);
    let mut model = Model::new();
    model.set(var, 0);
    let run = ConcolicExecutor::new().execute(&mut pool, &program, &model, None);
    let shown: Vec<String> = run
        .path
        .iter()
        .map(|s| pool.display(s.constraint))
        .collect();
    assert_eq!(shown, ["(not (and (distinct x 0) (> (div 10 x) 1)))"]);
}

/// `roundup` computes its value with the term algebra's saturating
/// operators, so the recorded step agrees with the concrete branch even
/// where `a + b - 1` leaves the `i64` range.
#[test]
fn roundup_saturates_like_its_term() {
    let src = "program p {
        input x in [-10, 10];
        if (roundup(4611686018427387904 * 4, 2) > x) { return 1; }
        return 0;
      }";
    assert_eq!(run_both_modes(src, 5), Outcome::Returned(1));
}

/// `-(-m)` is not `m` where `m` saturates to `i64::MIN`: negation
/// saturates, so the term keeps both negations and the recorded step
/// agrees with the concrete branch.
#[test]
fn double_negation_at_i64_min_matches_the_concrete_branch() {
    let src = "program p {
        input x in [-10, 10];
        var m: int = x - 4611686018427387904 * 4 - 1;
        if (-(-m) - m > 0) { return 1; }
        return 0;
      }";
    assert_eq!(run_both_modes(src, -5), Outcome::Returned(1));
}
