//! Lowering of pure subject-language expressions into SMT terms.
//!
//! Benchmark subjects describe developer patches and baseline (buggy)
//! expressions as source strings; this module turns the parsed [`Expr`]
//! into a pool term over variables named after the program variables, which
//! is exactly the form the synthesizer and concolic engine use for `θ_ρ`.

use cpr_lang::{Expr, UnOp};
use cpr_smt::{Sort, TermId, TermPool};

/// Error for expressions that cannot be lowered (holes, array accesses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError(pub String);

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot lower expression: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

/// Lowers a pure expression into a term. Variables are interned as integer
/// pool variables by name; boolean operators map onto the term algebra;
/// builtins become `ite` trees.
///
/// # Errors
///
/// Returns [`LowerError`] if the expression contains a patch hole or an
/// array access (neither has a pure first-order meaning).
pub fn lower_expr(pool: &mut TermPool, e: &Expr) -> Result<TermId, LowerError> {
    match e {
        Expr::Int(v, _) => Ok(pool.int(*v)),
        Expr::Bool(b, _) => Ok(pool.bool(*b)),
        Expr::Var(name, _) => Ok(pool.named_var(name, Sort::Int)),
        Expr::Index(..) => Err(LowerError("array access".into())),
        Expr::UserCall(..) => Err(LowerError("user function call".into())),
        Expr::Hole(..) => Err(LowerError("patch hole".into())),
        Expr::Unary(UnOp::Neg, inner, _) => {
            let t = lower_expr(pool, inner)?;
            Ok(pool.neg(t))
        }
        Expr::Unary(UnOp::Not, inner, _) => {
            let t = lower_expr(pool, inner)?;
            Ok(pool.not(t))
        }
        Expr::Binary(op, a, b, _) => {
            let x = lower_expr(pool, a)?;
            let y = lower_expr(pool, b)?;
            Ok(op.term(pool, x, y))
        }
        Expr::Call(builtin, args, _) => {
            let a = lower_expr(pool, &args[0])?;
            let b = match args.get(1) {
                Some(arg) => lower_expr(pool, arg)?,
                None => a,
            };
            Ok(builtin.term(pool, a, b))
        }
    }
}

/// Parses and lowers an expression source string in one step.
///
/// # Errors
///
/// Returns the parse error message or [`LowerError`] rendered as a string.
pub fn lower_expr_src(pool: &mut TermPool, src: &str) -> Result<TermId, String> {
    let e = cpr_lang::parse_expr(src).map_err(|e| e.to_string())?;
    lower_expr(pool, &e).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_smt::Model;

    #[test]
    fn lowers_boolean_expression() {
        let mut pool = TermPool::new();
        let t = lower_expr_src(&mut pool, "x == 0 || y == 0").unwrap();
        assert_eq!(pool.display(t), "(or (= x 0) (= y 0))");
    }

    #[test]
    fn lowers_arithmetic_and_builtins() {
        let mut pool = TermPool::new();
        let t = lower_expr_src(&mut pool, "max(x, 3) + min(y, 0) - abs(x)").unwrap();
        let mut m = Model::new();
        let x = pool.find_var("x").unwrap();
        let y = pool.find_var("y").unwrap();
        m.set(x, -5i64);
        m.set(y, 2i64);
        // max(-5,3)=3, min(2,0)=0, abs(-5)=5 → 3 + 0 - 5 = -2
        assert_eq!(m.eval_int(&pool, t), -2);
    }

    #[test]
    fn rejects_holes_and_arrays() {
        let mut pool = TermPool::new();
        assert!(lower_expr_src(&mut pool, "__patch_cond__(x)").is_err());
        assert!(lower_expr_src(&mut pool, "a[1] > 0").is_err());
    }

    #[test]
    fn roundup_matches_interpreter_for_positive_divisors() {
        let mut pool = TermPool::new();
        let t = lower_expr_src(&mut pool, "roundup(n, k)").unwrap();
        let n = pool.find_var("n").unwrap();
        let k = pool.find_var("k").unwrap();
        for nv in 0..20i64 {
            for kv in 1..6i64 {
                let mut m = Model::new();
                m.set(n, nv);
                m.set(k, kv);
                let expected = ((nv + kv - 1) / kv) * kv;
                assert_eq!(m.eval_int(&pool, t), expected, "n={nv} k={kv}");
            }
        }
    }
}
