//! Abstract syntax tree of the subject language.
//!
//! The language is a small C-flavoured imperative language in which the
//! benchmark subjects are written. Two special constructs support program
//! repair:
//!
//! * **patch holes** — `__patch_cond__(x, y)` (boolean) and
//!   `__patch_expr__(x, y)` (integer), marking the single fault location
//!   where a synthesized expression is spliced in;
//! * **bug locations** — `bug <name> requires (e);`, marking the program
//!   point where buggy behaviour is observable together with the partial
//!   specification `σ` that must hold there (crash-freedom constraints and
//!   assertions both take this shape).

use std::fmt;

use cpr_smt::{ArithOp, CmpOp, TermId, TermPool};

/// A half-open byte range into the source text, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Span {
    /// Start byte offset (inclusive).
    pub start: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

/// Scalar types of the language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// Signed bounded integer.
    Int,
    /// Boolean.
    Bool,
    /// Fixed-size integer array.
    IntArray(usize),
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Bool => write!(f, "bool"),
            Type::IntArray(n) => write!(f, "int[{n}]"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (crashes on zero divisor at run time)
    Div,
    /// `%` (crashes on zero divisor at run time)
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

impl BinOp {
    /// Whether this operator produces a boolean.
    pub fn is_boolean(self) -> bool {
        !matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
        )
    }

    /// Whether this operator compares two integers.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether this operator connects two booleans.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// The term algebra's operator for an arithmetic `BinOp`.
    pub fn arith(self) -> Option<ArithOp> {
        Some(match self {
            BinOp::Add => ArithOp::Add,
            BinOp::Sub => ArithOp::Sub,
            BinOp::Mul => ArithOp::Mul,
            BinOp::Div => ArithOp::Div,
            BinOp::Rem => ArithOp::Rem,
            _ => return None,
        })
    }

    /// The term algebra's operator for a comparison `BinOp`.
    pub fn cmp(self) -> Option<CmpOp> {
        Some(match self {
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    /// The term of `a op b` (the term algebra's `/` and `%` are total).
    pub fn term(self, pool: &mut TermPool, a: TermId, b: TermId) -> TermId {
        match (self.arith(), self.cmp()) {
            (Some(arith), _) => pool.arith(arith, a, b),
            (_, Some(cmp)) => pool.cmp(cmp, a, b),
            _ if self == BinOp::And => pool.and(a, b),
            _ => pool.or(a, b),
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation `-`.
    Neg,
    /// Boolean negation `!`.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "-"),
            UnOp::Not => write!(f, "!"),
        }
    }
}

/// Pure builtin functions available to subject programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `abs(a)`
    Abs,
    /// `roundup(a, b)` = smallest multiple of `b` that is `≥ a`
    /// (crashes when `b == 0`, mirroring the LibTIFF helper).
    Roundup,
}

impl Builtin {
    /// Looks a builtin up by source name.
    pub fn from_name(name: &str) -> Option<Builtin> {
        match name {
            "min" => Some(Builtin::Min),
            "max" => Some(Builtin::Max),
            "abs" => Some(Builtin::Abs),
            "roundup" => Some(Builtin::Roundup),
            _ => None,
        }
    }

    /// Number of arguments the builtin expects.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Abs => 1,
            Builtin::Min | Builtin::Max | Builtin::Roundup => 2,
        }
    }

    /// The source-level name.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Abs => "abs",
            Builtin::Roundup => "roundup",
        }
    }

    /// The term of a call on `a` and `b` (`abs` ignores `b`); `roundup` is
    /// `((a + b - 1) / b) * b` with the term algebra's total division.
    pub fn term(self, pool: &mut TermPool, a: TermId, b: TermId) -> TermId {
        match self {
            Builtin::Min => {
                let cond = pool.le(a, b);
                pool.ite(cond, a, b)
            }
            Builtin::Max => {
                let cond = pool.ge(a, b);
                pool.ite(cond, a, b)
            }
            Builtin::Abs => {
                let zero = pool.int(0);
                let cond = pool.ge(a, zero);
                let negated = pool.neg(a);
                pool.ite(cond, a, negated)
            }
            Builtin::Roundup => {
                let one = pool.int(1);
                let ab = pool.add(a, b);
                let ab1 = pool.sub(ab, one);
                let q = pool.div(ab1, b);
                pool.mul(q, b)
            }
        }
    }
}

/// Which kind of expression a patch hole expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HoleKind {
    /// `__patch_cond__(...)`: boolean expression.
    Cond,
    /// `__patch_expr__(...)`: integer expression.
    IntExpr,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// Variable read.
    Var(String, Span),
    /// Array element read `a[i]`.
    Index(String, Box<Expr>, Span),
    /// Unary operation.
    Unary(UnOp, Box<Expr>, Span),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>, Span),
    /// Builtin call.
    Call(Builtin, Vec<Expr>, Span),
    /// Call to a user-defined pure function.
    UserCall(String, Vec<Expr>, Span),
    /// The patch hole; `args` are the variables visible to the synthesizer.
    Hole(HoleKind, Vec<String>, Span),
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Bool(_, s)
            | Expr::Var(_, s)
            | Expr::Index(_, _, s)
            | Expr::Unary(_, _, s)
            | Expr::Binary(_, _, _, s)
            | Expr::Call(_, _, s)
            | Expr::UserCall(_, _, s)
            | Expr::Hole(_, _, s) => *s,
        }
    }

    /// A copy of the expression with every span reset to
    /// [`Span::default`], for span-insensitive structural comparison
    /// (e.g. the `parse(pretty(ast)) == ast` round-trip property).
    pub fn strip_spans(&self) -> Expr {
        let s = Span::default();
        match self {
            Expr::Int(v, _) => Expr::Int(*v, s),
            Expr::Bool(b, _) => Expr::Bool(*b, s),
            Expr::Var(name, _) => Expr::Var(name.clone(), s),
            Expr::Index(name, idx, _) => Expr::Index(name.clone(), Box::new(idx.strip_spans()), s),
            Expr::Unary(op, e, _) => Expr::Unary(*op, Box::new(e.strip_spans()), s),
            Expr::Binary(op, a, b, _) => {
                Expr::Binary(*op, Box::new(a.strip_spans()), Box::new(b.strip_spans()), s)
            }
            Expr::Call(f, args, _) => {
                Expr::Call(*f, args.iter().map(Expr::strip_spans).collect(), s)
            }
            Expr::UserCall(name, args, _) => Expr::UserCall(
                name.clone(),
                args.iter().map(Expr::strip_spans).collect(),
                s,
            ),
            Expr::Hole(kind, args, _) => Expr::Hole(*kind, args.clone(), s),
        }
    }

    /// Whether the expression contains a patch hole.
    pub fn contains_hole(&self) -> bool {
        match self {
            Expr::Hole(..) => true,
            Expr::Int(..) | Expr::Bool(..) | Expr::Var(..) => false,
            Expr::Index(_, i, _) => i.contains_hole(),
            Expr::Unary(_, e, _) => e.contains_hole(),
            Expr::Binary(_, a, b, _) => a.contains_hole() || b.contains_hole(),
            Expr::Call(_, args, _) | Expr::UserCall(_, args, _) => {
                args.iter().any(Expr::contains_hole)
            }
        }
    }
}

/// Statements. Each carries its source [`Span`] for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `var name: type = init;` (array declarations have no initializer and
    /// start zeroed).
    Decl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Optional initializer (scalars only).
        init: Option<Expr>,
        /// Source span.
        span: Span,
    },
    /// `name = expr;`
    Assign {
        /// Target variable.
        name: String,
        /// Assigned value.
        value: Expr,
        /// Source span.
        span: Span,
    },
    /// `name[idx] = expr;`
    AssignIndex {
        /// Target array.
        name: String,
        /// Element index.
        index: Expr,
        /// Assigned value.
        value: Expr,
        /// Source span.
        span: Span,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        /// Branch condition.
        cond: Expr,
        /// Then-branch.
        then_body: Vec<Stmt>,
        /// Else-branch (possibly empty).
        else_body: Vec<Stmt>,
        /// Source span.
        span: Span,
    },
    /// `while (cond) { .. }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source span.
        span: Span,
    },
    /// `return expr;`
    Return {
        /// Returned value.
        value: Expr,
        /// Source span.
        span: Span,
    },
    /// `assert(expr);` — failing it is an observable error.
    Assert {
        /// Asserted condition.
        cond: Expr,
        /// Source span.
        span: Span,
    },
    /// `assume(expr);` — silently stops paths where it fails.
    Assume {
        /// Assumed condition.
        cond: Expr,
        /// Source span.
        span: Span,
    },
    /// `bug name requires (expr);` — the bug location with its partial
    /// specification σ.
    Bug {
        /// Name of the modelled defect (e.g. `div_by_zero`).
        name: String,
        /// The specification that must hold here.
        spec: Expr,
        /// Source span.
        span: Span,
    },
}

impl Stmt {
    /// A copy of the statement with every span (including in nested
    /// expressions and blocks) reset to [`Span::default`].
    pub fn strip_spans(&self) -> Stmt {
        fn block(stmts: &[Stmt]) -> Vec<Stmt> {
            stmts.iter().map(Stmt::strip_spans).collect()
        }
        let s = Span::default();
        match self {
            Stmt::Decl { name, ty, init, .. } => Stmt::Decl {
                name: name.clone(),
                ty: *ty,
                init: init.as_ref().map(Expr::strip_spans),
                span: s,
            },
            Stmt::Assign { name, value, .. } => Stmt::Assign {
                name: name.clone(),
                value: value.strip_spans(),
                span: s,
            },
            Stmt::AssignIndex {
                name, index, value, ..
            } => Stmt::AssignIndex {
                name: name.clone(),
                index: index.strip_spans(),
                value: value.strip_spans(),
                span: s,
            },
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => Stmt::If {
                cond: cond.strip_spans(),
                then_body: block(then_body),
                else_body: block(else_body),
                span: s,
            },
            Stmt::While { cond, body, .. } => Stmt::While {
                cond: cond.strip_spans(),
                body: block(body),
                span: s,
            },
            Stmt::Return { value, .. } => Stmt::Return {
                value: value.strip_spans(),
                span: s,
            },
            Stmt::Assert { cond, .. } => Stmt::Assert {
                cond: cond.strip_spans(),
                span: s,
            },
            Stmt::Assume { cond, .. } => Stmt::Assume {
                cond: cond.strip_spans(),
                span: s,
            },
            Stmt::Bug { name, spec, .. } => Stmt::Bug {
                name: name.clone(),
                spec: spec.strip_spans(),
                span: s,
            },
        }
    }

    /// The source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::AssignIndex { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::Assert { span, .. }
            | Stmt::Assume { span, .. }
            | Stmt::Bug { span, .. } => *span,
        }
    }
}

/// A symbolic program input with its declared value range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputDecl {
    /// Input variable name.
    pub name: String,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
    /// Source span.
    pub span: Span,
}

/// A user-defined pure function: integer parameters, integer result,
/// side-effect free (its body may only touch its own locals). Recursion is
/// allowed; termination is enforced by the interpreter's step budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunDecl {
    /// Function name.
    pub name: String,
    /// Parameter names (all of type `int`).
    pub params: Vec<String>,
    /// Function body (no holes, bug markers, or input declarations).
    pub body: Vec<Stmt>,
    /// Source span.
    pub span: Span,
}

/// A parsed subject program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// Pure helper functions, declared before the inputs.
    pub functions: Vec<FunDecl>,
    /// Symbolic inputs in declaration order.
    pub inputs: Vec<InputDecl>,
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

impl Program {
    /// A copy of the program with every span reset to [`Span::default`],
    /// so two parses of equivalent source compare equal structurally.
    pub fn strip_spans(&self) -> Program {
        Program {
            name: self.name.clone(),
            functions: self
                .functions
                .iter()
                .map(|f| FunDecl {
                    name: f.name.clone(),
                    params: f.params.clone(),
                    body: f.body.iter().map(Stmt::strip_spans).collect(),
                    span: Span::default(),
                })
                .collect(),
            inputs: self
                .inputs
                .iter()
                .map(|i| InputDecl {
                    name: i.name.clone(),
                    lo: i.lo,
                    hi: i.hi,
                    span: Span::default(),
                })
                .collect(),
            body: self.body.iter().map(Stmt::strip_spans).collect(),
        }
    }

    /// Finds the (first) patch hole: its kind and visible variables.
    pub fn hole(&self) -> Option<(HoleKind, Vec<String>)> {
        fn in_expr(e: &Expr) -> Option<(HoleKind, Vec<String>)> {
            match e {
                Expr::Hole(k, args, _) => Some((*k, args.clone())),
                Expr::Index(_, i, _) => in_expr(i),
                Expr::Unary(_, e, _) => in_expr(e),
                Expr::Binary(_, a, b, _) => in_expr(a).or_else(|| in_expr(b)),
                Expr::Call(_, args, _) | Expr::UserCall(_, args, _) => {
                    args.iter().find_map(in_expr)
                }
                _ => None,
            }
        }
        fn in_stmts(stmts: &[Stmt]) -> Option<(HoleKind, Vec<String>)> {
            for s in stmts {
                let found = match s {
                    Stmt::Decl { init: Some(e), .. } => in_expr(e),
                    Stmt::Decl { .. } => None,
                    Stmt::Assign { value, .. } => in_expr(value),
                    Stmt::AssignIndex { index, value, .. } => {
                        in_expr(index).or_else(|| in_expr(value))
                    }
                    Stmt::If {
                        cond,
                        then_body,
                        else_body,
                        ..
                    } => in_expr(cond)
                        .or_else(|| in_stmts(then_body))
                        .or_else(|| in_stmts(else_body)),
                    Stmt::While { cond, body, .. } => in_expr(cond).or_else(|| in_stmts(body)),
                    Stmt::Return { value, .. } => in_expr(value),
                    Stmt::Assert { cond, .. } | Stmt::Assume { cond, .. } => in_expr(cond),
                    Stmt::Bug { spec, .. } => in_expr(spec),
                };
                if found.is_some() {
                    return found;
                }
            }
            None
        }
        in_stmts(&self.body)
    }

    /// Finds the (first) bug location: its name and specification.
    pub fn bug(&self) -> Option<(&str, &Expr)> {
        fn in_stmts(stmts: &[Stmt]) -> Option<(&str, &Expr)> {
            for s in stmts {
                match s {
                    Stmt::Bug { name, spec, .. } => return Some((name, spec)),
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        if let Some(found) = in_stmts(then_body).or_else(|| in_stmts(else_body)) {
                            return Some(found);
                        }
                    }
                    Stmt::While { body, .. } => {
                        if let Some(found) = in_stmts(body) {
                            return Some(found);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        in_stmts(&self.body)
    }

    /// Looks up a user-defined function by name.
    pub fn function(&self, name: &str) -> Option<&FunDecl> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// The declared range of an input, if `name` is an input.
    pub fn input_range(&self, name: &str) -> Option<(i64, i64)> {
        self.inputs
            .iter()
            .find(|i| i.name == name)
            .map(|i| (i.lo, i.hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge() {
        let a = Span::new(3, 7);
        let b = Span::new(5, 12);
        assert_eq!(a.merge(b), Span::new(3, 12));
    }

    #[test]
    fn binop_classification() {
        assert!(!BinOp::Add.is_boolean());
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(BinOp::Eq.is_boolean());
    }

    #[test]
    fn builtin_lookup() {
        assert_eq!(Builtin::from_name("min"), Some(Builtin::Min));
        assert_eq!(Builtin::from_name("nope"), None);
        assert_eq!(Builtin::Roundup.arity(), 2);
        assert_eq!(Builtin::Abs.name(), "abs");
    }

    #[test]
    fn hole_detection_in_nested_expr() {
        let hole = Expr::Hole(HoleKind::Cond, vec!["x".into()], Span::default());
        let wrapped = Expr::Unary(UnOp::Not, Box::new(hole), Span::default());
        assert!(wrapped.contains_hole());
        let plain = Expr::Int(1, Span::default());
        assert!(!plain.contains_hole());
    }

    #[test]
    fn program_hole_and_bug_lookup() {
        let prog = Program {
            name: "p".into(),
            functions: Vec::new(),
            inputs: vec![InputDecl {
                name: "x".into(),
                lo: -10,
                hi: 10,
                span: Span::default(),
            }],
            body: vec![
                Stmt::If {
                    cond: Expr::Hole(HoleKind::Cond, vec!["x".into()], Span::default()),
                    then_body: vec![Stmt::Return {
                        value: Expr::Int(1, Span::default()),
                        span: Span::default(),
                    }],
                    else_body: vec![],
                    span: Span::default(),
                },
                Stmt::Bug {
                    name: "div_by_zero".into(),
                    spec: Expr::Binary(
                        BinOp::Ne,
                        Box::new(Expr::Var("x".into(), Span::default())),
                        Box::new(Expr::Int(0, Span::default())),
                        Span::default(),
                    ),
                    span: Span::default(),
                },
            ],
        };
        let (kind, args) = prog.hole().unwrap();
        assert_eq!(kind, HoleKind::Cond);
        assert_eq!(args, vec!["x".to_owned()]);
        let (bug_name, _) = prog.bug().unwrap();
        assert_eq!(bug_name, "div_by_zero");
        assert_eq!(prog.input_range("x"), Some((-10, 10)));
        assert_eq!(prog.input_range("zz"), None);
    }
}
