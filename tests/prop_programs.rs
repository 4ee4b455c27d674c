//! Property-based differential testing over *randomly generated programs*:
//!
//! * the concrete interpreter and the concolic executor's term shadow agree
//!   on the outcome and step count of every run (they share one engine, so
//!   this checks that the shadow never changes what runs),
//! * every recorded path constraint is satisfied by the input that
//!   produced it, including the terms of `&&`/`||` operands that were
//!   short-circuited away (and would have crashed),
//! * pretty-printing a generated program round-trips through the parser.
//!
//! Programs are generated from a recipe (indices resolved modulo the set of
//! in-scope variables), which keeps them well-typed by construction. The
//! recipes themselves are drawn from the dependency-free xorshift64*
//! generator in `cpr_fuzz::rng`; each case's seed is printed on failure so
//! counterexamples are reproducible.

use std::collections::HashMap;

use cpr_concolic::ConcolicExecutor;
use cpr_fuzz::rng::XorShiftRng;
use cpr_lang::{ast::Span, check, parse, pretty, BinOp, Expr, Interp, Program, Stmt, Type};
use cpr_smt::{ArithOp, Model, Sort, TermData, TermId, TermPool};

#[derive(Debug, Clone)]
enum ExprRecipe {
    Var(u8),
    Const(i64),
    Bin(u8, Box<ExprRecipe>, Box<ExprRecipe>),
}

#[derive(Debug, Clone)]
enum CondRecipe {
    Cmp(u8, ExprRecipe, ExprRecipe),
    /// `l && r` (`true`) or `l || r`.
    Logic(bool, Box<CondRecipe>, Box<CondRecipe>),
    /// A guarded division by a variable: `v != 0 && e / v < k` (`true`) or
    /// `v == 0 || e % v < k`.
    Guard(bool, u8, ExprRecipe, i64),
}

#[derive(Debug, Clone)]
enum StmtRecipe {
    Decl(ExprRecipe),
    Assign(u8, ExprRecipe),
    If(CondRecipe, Vec<StmtRecipe>, Vec<StmtRecipe>),
    CountedLoop(u8, Vec<StmtRecipe>),
    Return(ExprRecipe),
}

fn gen_expr(rng: &mut XorShiftRng, depth: u32) -> ExprRecipe {
    if depth == 0 || rng.gen_index(5) < 2 {
        if rng.gen_bool() {
            ExprRecipe::Var(rng.gen_index(8) as u8)
        } else {
            ExprRecipe::Const(rng.gen_range_i64(-5, 5))
        }
    } else {
        ExprRecipe::Bin(
            rng.gen_index(5) as u8,
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        )
    }
}

fn gen_cond(rng: &mut XorShiftRng, depth: u32) -> CondRecipe {
    match rng.gen_index(4) {
        2 if depth > 0 => CondRecipe::Logic(
            rng.gen_bool(),
            Box::new(gen_cond(rng, depth - 1)),
            Box::new(gen_cond(rng, depth - 1)),
        ),
        3 => CondRecipe::Guard(
            rng.gen_bool(),
            rng.gen_index(8) as u8,
            gen_expr(rng, 2),
            rng.gen_range_i64(-3, 3),
        ),
        _ => CondRecipe::Cmp(rng.gen_index(6) as u8, gen_expr(rng, 3), gen_expr(rng, 3)),
    }
}

fn gen_stmts(rng: &mut XorShiftRng, depth: u32, lo: usize, hi: usize) -> Vec<StmtRecipe> {
    let n = lo + rng.gen_index(hi - lo + 1);
    (0..n).map(|_| gen_stmt(rng, depth)).collect()
}

fn gen_stmt(rng: &mut XorShiftRng, depth: u32) -> StmtRecipe {
    if depth == 0 {
        return if rng.gen_bool() {
            StmtRecipe::Decl(gen_expr(rng, 3))
        } else {
            StmtRecipe::Assign(rng.gen_index(8) as u8, gen_expr(rng, 3))
        };
    }
    // Weighted pick mirroring the original strategy: decl 3, assign 3,
    // if 2, counted loop 1, return 1.
    match rng.gen_index(10) {
        0..=2 => StmtRecipe::Decl(gen_expr(rng, 3)),
        3..=5 => StmtRecipe::Assign(rng.gen_index(8) as u8, gen_expr(rng, 3)),
        6 | 7 => StmtRecipe::If(
            gen_cond(rng, 1),
            gen_stmts(rng, depth - 1, 0, 2),
            gen_stmts(rng, depth - 1, 0, 2),
        ),
        8 => StmtRecipe::CountedLoop(
            rng.gen_range_i64(1, 3) as u8,
            gen_stmts(rng, depth - 1, 1, 2),
        ),
        _ => StmtRecipe::Return(gen_expr(rng, 3)),
    }
}

fn gen_program(rng: &mut XorShiftRng) -> (Program, u32) {
    let stmts = gen_stmts(rng, 2, 1, 5);
    let ret = gen_expr(rng, 3);
    let n_inputs = rng.gen_range_i64(2, 3) as u8;
    let mut b = Builder {
        vars: (0..n_inputs).map(|i| format!("in{i}")).collect(),
        counter: 0,
        loop_counter: 0,
    };
    let mut body: Vec<Stmt> = stmts.iter().map(|s| b.stmt(s)).collect();
    body.push(Stmt::Return {
        value: b.expr(&ret),
        span: Span::default(),
    });
    let program = Program {
        name: "generated".into(),
        functions: Vec::new(),
        inputs: (0..n_inputs)
            .map(|i| cpr_lang::InputDecl {
                name: format!("in{i}"),
                lo: -8,
                hi: 8,
                span: Span::default(),
            })
            .collect(),
        body,
    };
    (program, n_inputs as u32)
}

struct Builder {
    vars: Vec<String>,
    counter: usize,
    loop_counter: usize,
}

impl Builder {
    fn expr(&self, r: &ExprRecipe) -> Expr {
        match r {
            ExprRecipe::Var(i) => Expr::Var(
                self.vars[*i as usize % self.vars.len()].clone(),
                Span::default(),
            ),
            ExprRecipe::Const(c) => Expr::Int(*c, Span::default()),
            ExprRecipe::Bin(op, a, b) => {
                let op =
                    [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem][*op as usize % 5];
                Expr::Binary(
                    op,
                    Box::new(self.expr(a)),
                    Box::new(self.expr(b)),
                    Span::default(),
                )
            }
        }
    }

    fn cond(&self, r: &CondRecipe) -> Expr {
        let bin =
            |op, a: Expr, b: Expr| Expr::Binary(op, Box::new(a), Box::new(b), Span::default());
        match r {
            CondRecipe::Cmp(op, a, b) => {
                let op = [
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                ][*op as usize % 6];
                bin(op, self.expr(a), self.expr(b))
            }
            CondRecipe::Logic(and, l, r) => {
                let op = if *and { BinOp::And } else { BinOp::Or };
                bin(op, self.cond(l), self.cond(r))
            }
            CondRecipe::Guard(and, v, e, k) => {
                let v = || self.expr(&ExprRecipe::Var(*v));
                let zero = || Expr::Int(0, Span::default());
                let k = Expr::Int(*k, Span::default());
                let (test, divide, join) = if *and {
                    (BinOp::Ne, BinOp::Div, BinOp::And)
                } else {
                    (BinOp::Eq, BinOp::Rem, BinOp::Or)
                };
                let quotient = bin(divide, self.expr(e), v());
                bin(join, bin(test, v(), zero()), bin(BinOp::Lt, quotient, k))
            }
        }
    }

    fn stmt(&mut self, r: &StmtRecipe) -> Stmt {
        match r {
            StmtRecipe::Decl(e) => {
                let init = self.expr(e);
                let name = format!("v{}", self.counter);
                self.counter += 1;
                self.vars.push(name.clone());
                Stmt::Decl {
                    name,
                    ty: Type::Int,
                    init: Some(init),
                    span: Span::default(),
                }
            }
            StmtRecipe::Assign(i, e) => Stmt::Assign {
                name: self.vars[*i as usize % self.vars.len()].clone(),
                value: self.expr(e),
                span: Span::default(),
            },
            StmtRecipe::If(c, t, e) => {
                let cond = self.cond(c);
                // Declarations are block-scoped: restore the visible-name
                // list after each branch so later recipes cannot reference
                // branch-local variables.
                let mark = self.vars.len();
                let then_body = t.iter().map(|s| self.stmt(s)).collect();
                self.vars.truncate(mark);
                let else_body = e.iter().map(|s| self.stmt(s)).collect();
                self.vars.truncate(mark);
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span: Span::default(),
                }
            }
            StmtRecipe::CountedLoop(n, body_r) => {
                // for (k = 0; k < n; k++) body — guaranteed to terminate.
                let k = format!("k{}", self.loop_counter);
                self.loop_counter += 1;
                let mark = self.vars.len();
                self.vars.push(k.clone());
                let decl = Stmt::Decl {
                    name: k.clone(),
                    ty: Type::Int,
                    init: Some(Expr::Int(0, Span::default())),
                    span: Span::default(),
                };
                let mut body: Vec<Stmt> = body_r.iter().map(|s| self.stmt(s)).collect();
                body.push(Stmt::Assign {
                    name: k.clone(),
                    value: Expr::Binary(
                        BinOp::Add,
                        Box::new(Expr::Var(k.clone(), Span::default())),
                        Box::new(Expr::Int(1, Span::default())),
                        Span::default(),
                    ),
                    span: Span::default(),
                });
                let cond = Expr::Binary(
                    BinOp::Lt,
                    Box::new(Expr::Var(k, Span::default())),
                    Box::new(Expr::Int(*n as i64, Span::default())),
                    Span::default(),
                );
                let while_stmt = Stmt::While {
                    cond,
                    body,
                    span: Span::default(),
                };
                self.vars.truncate(mark);
                // Wrap decl+loop into an if(true)-free sequence: return the
                // loop and rely on the caller emitting the decl first is not
                // possible with a single Stmt — so nest them in a vacuous If.
                Stmt::If {
                    cond: Expr::Bool(true, Span::default()),
                    then_body: vec![decl, while_stmt],
                    else_body: Vec::new(),
                    span: Span::default(),
                }
            }
            StmtRecipe::Return(e) => Stmt::Return {
                value: self.expr(e),
                span: Span::default(),
            },
        }
    }
}

/// Whether `t` divides by a subterm that is 0 under `model`. A concrete
/// division by zero crashes before anything is recorded, so such a term in
/// a path step comes from a short-circuited operand's term.
fn divides_by_zero(pool: &TermPool, model: &Model, t: TermId) -> bool {
    let sub = |x| divides_by_zero(pool, model, x);
    match pool.data(t) {
        TermData::Arith(op, a, b) => {
            (matches!(op, ArithOp::Div | ArithOp::Rem) && model.eval_int(pool, b) == 0)
                || sub(a)
                || sub(b)
        }
        TermData::And(a, b) | TermData::Or(a, b) | TermData::Cmp(_, a, b) => sub(a) || sub(b),
        TermData::Not(a) | TermData::Neg(a) => sub(a),
        TermData::Ite(c, a, b) => sub(c) || sub(a) || sub(b),
        TermData::BoolConst(_) | TermData::IntConst(_) | TermData::Var(_) => false,
    }
}

#[test]
fn interpreter_and_concolic_agree_on_random_programs() {
    let mut exercised = 0u32;
    let mut short_circuited_crashes = 0u32;
    for case in 0..160u64 {
        let mut rng = XorShiftRng::seed_from_u64(0x9806 + case);
        let (program, n_inputs) = gen_program(&mut rng);
        let seed: Vec<i64> = (0..3).map(|_| rng.gen_range_i64(-8, 8)).collect();
        if check(&program).is_err() {
            continue;
        }
        exercised += 1;
        // The drawn input, and all-zero inputs, at which guarded divisors
        // are often zero.
        let drawn = (0..n_inputs as usize).map(|i| seed[i.min(seed.len() - 1)]);
        for values in [drawn.collect::<Vec<_>>(), vec![0; n_inputs as usize]] {
            let inputs: HashMap<String, i64> = values
                .iter()
                .enumerate()
                .map(|(i, v)| (format!("in{i}"), *v))
                .collect();

            // Concrete interpreter.
            let concrete = Interp::with_max_steps(20_000).run(&program, &inputs, None);

            // Concolic executor.
            let mut pool = TermPool::new();
            let mut model = Model::new();
            for (name, v) in &inputs {
                let var = pool.var(name, Sort::Int);
                model.set(var, *v);
            }
            let run = ConcolicExecutor::with_budgets(20_000, 512)
                .execute(&mut pool, &program, &model, None);

            assert_eq!(
                &run.outcome,
                &concrete.outcome,
                "case {case} at {inputs:?}: outcome mismatch\n{}",
                pretty(&program)
            );
            assert_eq!(run.hit_bug, concrete.bug_hits > 0, "case {case}");
            assert_eq!(run.steps, concrete.steps, "case {case}: step mismatch");

            // Every recorded path step holds under the producing input.
            for step in &run.path {
                assert!(
                    run.inputs.eval_bool(&pool, step.constraint),
                    "case {case} at {inputs:?}: unsatisfied path step {}",
                    pool.display(step.constraint)
                );
            }
            if run
                .path
                .iter()
                .any(|s| divides_by_zero(&pool, &run.inputs, s.constraint))
            {
                short_circuited_crashes += 1;
            }
        }
    }
    assert!(
        exercised >= 100,
        "only {exercised}/160 generated programs checked"
    );
    assert!(
        short_circuited_crashes >= 15,
        "only {short_circuited_crashes} runs short-circuited an operand that would crash"
    );
}

#[test]
fn pretty_print_roundtrips_shipped_subjects() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "cpr"))
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no shipped subjects in {}",
        dir.display()
    );
    for file in files {
        let src = std::fs::read_to_string(&file).unwrap();
        let program = parse(&src).unwrap();
        let printed = pretty(&program);
        let reparsed = parse(&printed).unwrap_or_else(|e| {
            panic!(
                "{}: pretty output failed to reparse: {}\n{printed}",
                file.display(),
                e.render(&printed)
            )
        });
        assert_eq!(
            reparsed.strip_spans(),
            program.strip_spans(),
            "{}: AST changed across pretty/parse",
            file.display()
        );
        assert!(check(&reparsed).is_ok(), "{}", file.display());
    }
}

#[test]
fn negative_literals_roundtrip_exactly() {
    // Regression for the pretty-printer emitting `(0 - 5)` for `-5`, which
    // reparsed to a structurally different (if semantically equal) AST.
    let program = Program {
        name: "neg".into(),
        functions: Vec::new(),
        inputs: vec![cpr_lang::InputDecl {
            name: "x".into(),
            lo: -8,
            hi: 8,
            span: Span::default(),
        }],
        body: vec![Stmt::Return {
            value: Expr::Binary(
                BinOp::Add,
                Box::new(Expr::Var("x".into(), Span::default())),
                Box::new(Expr::Int(-5, Span::default())),
                Span::default(),
            ),
            span: Span::default(),
        }],
    };
    let printed = pretty(&program);
    let reparsed = parse(&printed).unwrap();
    assert_eq!(reparsed.strip_spans(), program.strip_spans(), "{printed}");
    // A unary minus over a non-literal still parses as negation, and a
    // doubly negated literal folds twice.
    let e = cpr_lang::parse_expr("-(x)").unwrap();
    assert!(matches!(e, Expr::Unary(cpr_lang::UnOp::Neg, ..)));
    let e = cpr_lang::parse_expr("- - 5").unwrap();
    assert!(matches!(e, Expr::Int(5, _)));
}

#[test]
fn pretty_print_roundtrips_random_programs() {
    let mut exercised = 0u32;
    for case in 0..160u64 {
        let mut rng = XorShiftRng::seed_from_u64(0x9906 + case);
        let (program, _) = gen_program(&mut rng);
        if check(&program).is_err() {
            continue;
        }
        exercised += 1;
        let printed = pretty(&program);
        let reparsed = parse(&printed).unwrap_or_else(|e| {
            panic!(
                "case {case}: pretty output failed to reparse: {}\n{}",
                e.render(&printed),
                printed
            )
        });
        // Full structural round-trip, not just print-stability: negative
        // literals in particular used to reparse as `0 - n` subtractions.
        assert_eq!(
            reparsed.strip_spans(),
            program.strip_spans(),
            "case {case}: AST changed across pretty/parse\n{printed}"
        );
        assert_eq!(pretty(&reparsed), printed, "case {case}");
        assert!(check(&reparsed).is_ok(), "case {case}");
    }
    assert!(
        exercised >= 100,
        "only {exercised}/160 generated programs checked"
    );
}
