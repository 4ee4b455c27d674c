//! The one execution engine of the subject language.
//!
//! Concrete and concolic execution are the same run. The engine owns the
//! concrete semantics: control flow, the sanitizer crash checks, block
//! scoping, the user-call frame and the single step counter. Every value it
//! computes is handed to a [`Shadow`], which builds a companion term for it
//! and observes the run's events (branches, index pins, hole evaluations,
//! assertions, the bug location).
//!
//! * The concrete [`Interp`](crate::Interp) runs with a shadow whose term
//!   type is `()`: it builds nothing, and only fills the patch hole.
//! * The concolic executor (`cpr-concolic`) runs with a term-building
//!   shadow that records the path constraint, `σ` and the hole
//!   observations.
//!
//! Both modes therefore agree on outcomes, coverage counters and
//! `StepLimit` by construction.
//!
//! `&&` and `||` short-circuit: a right operand that the left one already
//! decides is not run. A shadow that builds terms (`Shadow::GHOST`) still
//! needs that operand's term, because branch constraints and `σ` are full
//! conjunctions over the symbolic inputs. The engine then evaluates the
//! operand as a *ghost*: its crashes are totalized the way the term algebra
//! totalizes them (`x / 0 = 0`, an out-of-bounds read is `0`), and it counts
//! no steps, hole hits or assertions. A ghost that runs away in a user call
//! (more than the step budget in total) or stops inside one leaves only the
//! left operand's term.

use std::collections::HashMap;

use cpr_smt::{ArithOp, Model, TermId, TermPool, Value};

use crate::ast::{BinOp, Builtin, Expr, FunDecl, HoleKind, Program, Span, Stmt, Type, UnOp};

/// Reasons a run crashed (sanitizer-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashKind {
    /// Division by zero.
    DivByZero,
    /// Remainder by zero.
    RemByZero,
    /// Array index out of bounds.
    IndexOutOfBounds,
    /// `roundup(_, 0)` (divides internally).
    RoundupByZero,
}

impl std::fmt::Display for CrashKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CrashKind::DivByZero => "division by zero",
            CrashKind::RemByZero => "remainder by zero",
            CrashKind::IndexOutOfBounds => "index out of bounds",
            CrashKind::RoundupByZero => "roundup by zero",
        };
        write!(f, "{s}")
    }
}

/// Final outcome of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Normal termination with a return value.
    Returned(i64),
    /// A sanitizer crash.
    Crash {
        /// What crashed.
        kind: CrashKind,
        /// Where it crashed.
        span: Span,
    },
    /// An `assert` failed.
    AssertFailed {
        /// Location of the assertion.
        span: Span,
    },
    /// The `bug` location's specification `σ` was violated.
    SpecViolated {
        /// Name of the bug marker.
        bug: String,
        /// Location of the bug marker.
        span: Span,
    },
    /// An `assume` failed: the path is vacuous (not an error).
    AssumeFailed,
    /// The step budget was exhausted (e.g. a diverging loop).
    StepLimit,
    /// The patch hole was reached but no patch was supplied.
    MissingPatch,
}

impl Outcome {
    /// Whether the outcome counts as an observable failure (crash, failed
    /// assertion, or specification violation).
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            Outcome::Crash { .. } | Outcome::AssertFailed { .. } | Outcome::SpecViolated { .. }
        )
    }

    /// Whether the run terminated normally.
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Returned(_))
    }
}

/// Result of a run: the outcome plus coverage counters used by the repair
/// loop's ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Final outcome.
    pub outcome: Outcome,
    /// How often the patch hole was evaluated.
    pub patch_hits: u32,
    /// How often the bug location was reached.
    pub bug_hits: u32,
    /// Statements executed.
    pub steps: u64,
}

/// A variable's storage: concrete value(s) with their shadow terms.
#[derive(Debug, Clone)]
pub enum Slot<T> {
    /// An integer.
    Int(i64, T),
    /// A boolean.
    Bool(bool, T),
    /// A fixed-size integer array, element by element.
    Array(Vec<(i64, T)>),
}

impl<T> Slot<T> {
    fn scalar((value, term): (Value, T)) -> Self {
        match value {
            Value::Int(c) => Slot::Int(c, term),
            Value::Bool(c) => Slot::Bool(c, term),
        }
    }
}

/// The variables of one frame, by name.
pub type Env<T> = HashMap<String, Slot<T>>;

/// What rides along a run: a companion term per value, plus the events the
/// engine reports. Methods are called in evaluation order.
pub trait Shadow {
    /// The companion of a value (`()` for a concrete run).
    type Term: Copy;
    /// Whether a `&&`/`||` operand the left operand already decides is
    /// still evaluated, as a ghost, to build its term (see the module docs).
    const GHOST: bool;

    /// The term of a literal or default value.
    fn constant(&mut self, value: Value) -> Self::Term;
    /// The term of a unary operation.
    fn unary(&mut self, op: UnOp, a: Self::Term) -> Self::Term;
    /// The term of a binary operation.
    fn binary(&mut self, op: BinOp, a: Self::Term, b: Self::Term) -> Self::Term;
    /// The term of a builtin call (`b` repeats `a` for `abs`).
    fn builtin(&mut self, f: Builtin, a: Self::Term, b: Self::Term) -> Self::Term;
    /// An `if`/`while` condition or a passed `assume` went the way `taken`.
    fn branch(&mut self, cond: &Expr, term: Self::Term, taken: bool);
    /// An array index was used at its concrete value.
    fn pin(&mut self, index: Self::Term, value: i64);
    /// Fills the patch hole in environment `env`: the patch's concrete value
    /// and term, or `None` when there is no patch.
    fn hole(&mut self, kind: HoleKind, env: &Env<Self::Term>) -> Option<(Value, Self::Term)>;
    /// An `assert` was evaluated (pass or fail).
    fn assert(&mut self, cond: Self::Term);
    /// The bug location's specification was evaluated (pass or fail).
    fn bug(&mut self, spec: Self::Term);
}

/// Evaluates a patch expression concretely: parameters from `binding`,
/// program variables (matched by name) from `env`, booleans as `0`/`1`.
pub fn patch_value<T>(pool: &TermPool, expr: TermId, binding: &Model, env: &Env<T>) -> Value {
    let mut model = binding.clone();
    for v in pool.vars_of(expr) {
        if model.get(v).is_none() {
            let value = match env.get(pool.var_name(v)) {
                Some(Slot::Int(c, _)) => *c,
                Some(Slot::Bool(c, _)) => i64::from(*c),
                _ => continue,
            };
            model.set(v, value);
        }
    }
    model.eval(pool, expr)
}

/// Runs `program` with its inputs bound, in declaration order, to
/// `inputs` (concrete value and term each), under a budget of `max_steps`
/// statements and loop iterations.
pub fn run<S: Shadow>(
    program: &Program,
    inputs: impl IntoIterator<Item = (i64, S::Term)>,
    max_steps: u64,
    shadow: &mut S,
) -> RunResult {
    let env = program
        .inputs
        .iter()
        .zip(inputs)
        .map(|(decl, (c, t))| (decl.name.clone(), Slot::Int(c, t)))
        .collect();
    let mut engine = Engine {
        shadow,
        functions: &program.functions,
        env,
        scope: Vec::new(),
        max_steps,
        steps: 0,
        ghost_steps: 0,
        ghost: false,
        patch_hits: 0,
        bug_hits: 0,
    };
    let outcome = match engine.exec_stmts(&program.body) {
        Ok(Flow::Return(v, _)) => Outcome::Returned(v),
        Ok(Flow::Normal) => Outcome::Returned(0),
        Ok(Flow::Stop(o)) | Err(o) => o,
    };
    RunResult {
        outcome,
        patch_hits: engine.patch_hits,
        bug_hits: engine.bug_hits,
        steps: engine.steps,
    }
}

enum Flow<T> {
    Normal,
    Return(i64, T),
    Stop(Outcome),
}

struct Engine<'a, S: Shadow> {
    shadow: &'a mut S,
    functions: &'a [FunDecl],
    env: Env<S::Term>,
    /// Names declared in the current frame, innermost block last.
    scope: Vec<String>,
    max_steps: u64,
    steps: u64,
    /// Steps taken by ghost operands, bounded by `max_steps` on their own.
    ghost_steps: u64,
    ghost: bool,
    patch_hits: u32,
    bug_hits: u32,
}

impl<S: Shadow> Engine<'_, S> {
    fn tick(&mut self) -> Result<(), Outcome> {
        let count = if self.ghost {
            &mut self.ghost_steps
        } else {
            &mut self.steps
        };
        *count += 1;
        (*count <= self.max_steps)
            .then_some(())
            .ok_or(Outcome::StepLimit)
    }

    /// A sanitizer crash, except in a ghost operand, which goes on with the
    /// term algebra's total value.
    fn crash(&self, kind: CrashKind, span: Span) -> Result<(), Outcome> {
        if self.ghost {
            Ok(())
        } else {
            Err(Outcome::Crash { kind, span })
        }
    }

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> Result<Flow<S::Term>, Outcome> {
        for s in stmts {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Executes a block body: names it declares are removed afterwards.
    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Flow<S::Term>, Outcome> {
        let mark = self.scope.len();
        let flow = self.exec_stmts(stmts);
        for name in self.scope.drain(mark..) {
            self.env.remove(&name);
        }
        flow
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow<S::Term>, Outcome> {
        self.tick()?;
        match stmt {
            Stmt::Decl { name, ty, init, .. } => {
                let slot = match (ty, init) {
                    (Type::IntArray(n), _) => {
                        let zero = self.shadow.constant(Value::Int(0));
                        Slot::Array(vec![(0, zero); *n])
                    }
                    (_, Some(e)) => Slot::scalar(self.eval(e)?),
                    (_, None) => {
                        let zero = match ty {
                            Type::Bool => Value::Bool(false),
                            _ => Value::Int(0),
                        };
                        Slot::scalar((zero, self.shadow.constant(zero)))
                    }
                };
                if self.env.insert(name.clone(), slot).is_none() {
                    self.scope.push(name.clone());
                }
                Ok(Flow::Normal)
            }
            Stmt::Assign { name, value, .. } => {
                let slot = Slot::scalar(self.eval(value)?);
                match self.env.get_mut(name) {
                    Some(old) => *old = slot,
                    None => unreachable!("type checker guarantees declared variable"),
                }
                Ok(Flow::Normal)
            }
            Stmt::AssignIndex {
                name,
                index,
                value,
                span,
            } => {
                let (i, it) = self.eval_int(index)?;
                let value = self.eval_int(value)?;
                self.shadow.pin(it, i);
                let Some(Slot::Array(arr)) = self.env.get_mut(name) else {
                    unreachable!("type checker guarantees array target")
                };
                match usize::try_from(i).ok().and_then(|i| arr.get_mut(i)) {
                    Some(cell) => *cell = value,
                    None => self.crash(CrashKind::IndexOutOfBounds, *span)?,
                }
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let (c, t) = self.eval_bool(cond)?;
                self.shadow.branch(cond, t, c);
                self.exec_block(if c { then_body } else { else_body })
            }
            Stmt::While { cond, body, .. } => loop {
                self.tick()?;
                let (c, t) = self.eval_bool(cond)?;
                self.shadow.branch(cond, t, c);
                if !c {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(body)? {
                    Flow::Normal => {}
                    other => return Ok(other),
                }
            },
            Stmt::Return { value, .. } => {
                let (c, t) = self.eval_int(value)?;
                Ok(Flow::Return(c, t))
            }
            Stmt::Assert { cond, span } => {
                let (c, t) = self.eval_bool(cond)?;
                if !self.ghost {
                    self.shadow.assert(t);
                }
                Ok(if c {
                    Flow::Normal
                } else {
                    Flow::Stop(Outcome::AssertFailed { span: *span })
                })
            }
            Stmt::Assume { cond, .. } => {
                let (c, t) = self.eval_bool(cond)?;
                if !c {
                    return Ok(Flow::Stop(Outcome::AssumeFailed));
                }
                self.shadow.branch(cond, t, true);
                Ok(Flow::Normal)
            }
            Stmt::Bug { name, spec, span } => {
                // Bug locations sit in the program body, never in a ghost.
                self.bug_hits += 1;
                let (c, t) = self.eval_bool(spec)?;
                self.shadow.bug(t);
                Ok(if c {
                    Flow::Normal
                } else {
                    Flow::Stop(Outcome::SpecViolated {
                        bug: name.clone(),
                        span: *span,
                    })
                })
            }
        }
    }

    fn eval_int(&mut self, e: &Expr) -> Result<(i64, S::Term), Outcome> {
        let (Value::Int(c), t) = self.eval(e)? else {
            unreachable!("type checker guarantees int expression")
        };
        Ok((c, t))
    }

    fn eval_bool(&mut self, e: &Expr) -> Result<(bool, S::Term), Outcome> {
        let (Value::Bool(c), t) = self.eval(e)? else {
            unreachable!("type checker guarantees bool expression")
        };
        Ok((c, t))
    }

    /// Evaluates a decided `&&`/`||` operand as a ghost (see the module
    /// docs); `None` when it stopped.
    fn eval_ghost(&mut self, e: &Expr) -> Option<(bool, S::Term)> {
        let outer = std::mem::replace(&mut self.ghost, true);
        let result = self.eval_bool(e);
        self.ghost = outer;
        result.ok()
    }

    fn eval(&mut self, e: &Expr) -> Result<(Value, S::Term), Outcome> {
        match e {
            Expr::Int(v, _) => Ok((Value::Int(*v), self.shadow.constant(Value::Int(*v)))),
            Expr::Bool(b, _) => Ok((Value::Bool(*b), self.shadow.constant(Value::Bool(*b)))),
            Expr::Var(name, _) => match self.env.get(name) {
                Some(Slot::Int(c, t)) => Ok((Value::Int(*c), *t)),
                Some(Slot::Bool(c, t)) => Ok((Value::Bool(*c), *t)),
                _ => unreachable!("type checker guarantees declared scalar"),
            },
            Expr::Index(name, idx, span) => {
                let (i, it) = self.eval_int(idx)?;
                self.shadow.pin(it, i);
                let Some(Slot::Array(arr)) = self.env.get(name) else {
                    unreachable!("type checker guarantees array")
                };
                match usize::try_from(i).ok().and_then(|i| arr.get(i)) {
                    Some(&(c, t)) => Ok((Value::Int(c), t)),
                    None => {
                        self.crash(CrashKind::IndexOutOfBounds, *span)?;
                        Ok((Value::Int(0), self.shadow.constant(Value::Int(0))))
                    }
                }
            }
            Expr::Unary(op, inner, _) => {
                let (c, t) = self.eval(inner)?;
                let c = match c {
                    Value::Int(v) => Value::Int(v.saturating_neg()),
                    Value::Bool(b) => Value::Bool(!b),
                };
                Ok((c, self.shadow.unary(*op, t)))
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), a, b, _) => {
                let (x, xt) = self.eval_bool(a)?;
                // `&&` is decided by a false left operand, `||` by a true one.
                let decided = x == (*op == BinOp::Or);
                let right = if !decided {
                    Some(self.eval_bool(b)?)
                } else if S::GHOST {
                    self.eval_ghost(b)
                } else {
                    None
                };
                let (c, t) = match right {
                    Some((y, yt)) => {
                        let c = if decided { x } else { y };
                        (c, self.shadow.binary(*op, xt, yt))
                    }
                    None => (x, xt),
                };
                Ok((Value::Bool(c), t))
            }
            Expr::Binary(op, a, b, span) => {
                let (x, xt) = self.eval_int(a)?;
                let (y, yt) = self.eval_int(b)?;
                let c = match (op.cmp(), op.arith()) {
                    (Some(cmp), _) => Value::Bool(cmp.apply(x, y)),
                    (None, Some(arith)) => {
                        if y == 0 {
                            match arith {
                                ArithOp::Div => self.crash(CrashKind::DivByZero, *span)?,
                                ArithOp::Rem => self.crash(CrashKind::RemByZero, *span)?,
                                _ => {}
                            }
                        }
                        Value::Int(arith.apply(x, y))
                    }
                    (None, None) => unreachable!("logical operators are handled above"),
                };
                Ok((c, self.shadow.binary(*op, xt, yt)))
            }
            Expr::Call(f, args, span) => {
                let (a, at) = self.eval_int(&args[0])?;
                let (b, bt) = match args.get(1) {
                    Some(arg) => self.eval_int(arg)?,
                    None => (a, at),
                };
                let c = match f {
                    Builtin::Min => a.min(b),
                    Builtin::Max => a.max(b),
                    Builtin::Abs => a.saturating_abs(),
                    Builtin::Roundup => {
                        if b == 0 {
                            self.crash(CrashKind::RoundupByZero, *span)?;
                        }
                        // Smallest multiple of b that is >= a (for positive
                        // b), with the term algebra's operators, so the value
                        // is what its term evaluates to.
                        let bumped = ArithOp::Sub.apply(ArithOp::Add.apply(a, b), 1);
                        ArithOp::Mul.apply(ArithOp::Div.apply(bumped, b), b)
                    }
                };
                Ok((Value::Int(c), self.shadow.builtin(*f, at, bt)))
            }
            Expr::UserCall(name, args, _) => {
                let mut frame = Env::with_capacity(args.len());
                let f = self
                    .functions
                    .iter()
                    .find(|f| f.name == *name)
                    .expect("type checker guarantees declared function");
                for (param, arg) in f.params.iter().zip(args) {
                    let (c, t) = self.eval_int(arg)?;
                    frame.insert(param.clone(), Slot::Int(c, t));
                }
                // Pure call: a fresh frame holding only the parameters; the
                // caller's frame is restored afterwards. The callee's events
                // reach the shadow as if the call were inlined.
                let saved = std::mem::replace(&mut self.env, frame);
                let mark = self.scope.len();
                let flow = self.exec_stmts(&f.body);
                self.env = saved;
                self.scope.truncate(mark);
                match flow? {
                    Flow::Return(c, t) => Ok((Value::Int(c), t)),
                    Flow::Normal => Ok((Value::Int(0), self.shadow.constant(Value::Int(0)))),
                    Flow::Stop(o) => Err(o),
                }
            }
            Expr::Hole(kind, _, _) => {
                if !self.ghost {
                    self.patch_hits += 1;
                }
                let (c, t) = self
                    .shadow
                    .hole(*kind, &self.env)
                    .ok_or(Outcome::MissingPatch)?;
                let c = match (kind, c) {
                    (HoleKind::Cond, Value::Int(v)) => Value::Bool(v != 0),
                    (HoleKind::IntExpr, Value::Bool(b)) => Value::Int(i64::from(b)),
                    (_, c) => c,
                };
                Ok((c, t))
            }
        }
    }
}
