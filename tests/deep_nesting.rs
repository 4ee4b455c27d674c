//! `cpr-lang` source nested past [`MAX_DEPTH`] is a typed parse error, not
//! a stack overflow, and source nested right up to the cap goes through
//! every later stage — type checking, linting, the interpreter, the
//! concolic executor and the solver — on a test thread's 2 MB stack.

use std::collections::HashMap;

use cpr_concolic::ConcolicExecutor;
use cpr_lang::{check, parse, Interp, LangError, Outcome, MAX_DEPTH};
use cpr_smt::{Domains, Model, Solver, SolverConfig, TermPool};

fn program(body: &str) -> String {
    format!("program deep {{\n  input x in [-9, 9];\n  {body}\n  return 0;\n}}\n")
}

/// `levels` of parentheses: the returned expression plus `levels - 1`
/// parentheses around it.
fn parens(levels: usize) -> String {
    let n = levels - 1;
    program(&format!("return {}x{};", "(".repeat(n), ")".repeat(n)))
}

/// `levels` of unary minus: a comparison whose left side is a chain of
/// `levels - 2` negations of `x`.
fn negations(levels: usize) -> String {
    program(&format!(
        "if ({}x == 0) {{ return 1; }}",
        "- ".repeat(levels - 2)
    ))
}

/// `levels` of blocks: `levels - 1` nested `if`s around a `return`.
fn blocks(levels: usize) -> String {
    let n = levels - 1;
    program(&format!(
        "{}return 1;{}",
        "if (x > 0) { ".repeat(n),
        " }".repeat(n)
    ))
}

/// `levels` of operator chain: a comparison whose left side is the
/// left-deep sum of `levels - 1` copies of `x`.
fn chain(levels: usize) -> String {
    let sum = vec!["x"; levels - 1].join(" + ");
    program(&format!("if ({sum} > 0) {{ return 1; }}"))
}

/// Builds a program nested the given number of levels deep.
type Build = fn(usize) -> String;

const FAMILIES: [(&str, Build); 4] = [
    ("parens", parens),
    ("negations", negations),
    ("blocks", blocks),
    ("chain", chain),
];

#[test]
fn nesting_past_the_cap_is_a_parse_error() {
    let hostile = program(&format!(
        "return {}x{};",
        "(".repeat(5_000),
        ")".repeat(5_000)
    ));
    let mut cases: Vec<(&str, String)> = FAMILIES
        .iter()
        .map(|&(name, build)| (name, build(MAX_DEPTH + 1)))
        .collect();
    cases.push(("5,000 parentheses", hostile));
    for (name, src) in cases {
        match parse(&src) {
            Err(LangError::Parse { message, .. }) => {
                assert!(message.contains("nesting"), "{name}: {message}")
            }
            other => panic!("{name}: expected a nesting parse error, got {other:?}"),
        }
    }
}

#[test]
fn nesting_at_the_cap_runs_through_every_stage() {
    for (name, build) in FAMILIES {
        let src = build(MAX_DEPTH);
        let program = parse(&src).unwrap_or_else(|e| panic!("{name}: {}", e.render(&src)));
        check(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
        cpr_analysis::lint_program(&program);
        let input = HashMap::from([("x".to_owned(), 1)]);
        let concrete = Interp::new().run(&program, &input, None);
        assert!(
            matches!(concrete.outcome, Outcome::Returned(_)),
            "{name}: {:?}",
            concrete.outcome
        );
        let mut pool = TermPool::new();
        let x = pool.var("x", cpr_smt::Sort::Int);
        let mut model = Model::new();
        model.set(x, 1);
        let run = ConcolicExecutor::new().execute(&mut pool, &program, &model, None);
        assert_eq!(run.outcome, concrete.outcome, "{name}");
        let mut path: Vec<_> = run.path.iter().map(|s| s.constraint).collect();
        let mut domains = Domains::new();
        domains.bound(x, -9, 9);
        let mut solver = Solver::new(SolverConfig::default());
        assert!(
            solver.check(&pool, &path, &domains).is_sat(),
            "{name}: the executed path is infeasible"
        );
        if let Some(last) = path.pop() {
            let flipped = pool.not(last);
            path.push(flipped);
            solver.check(&pool, &path, &domains);
        }
    }
}
