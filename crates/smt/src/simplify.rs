//! Structural simplification of terms beyond the light local rewrites the
//! [`TermPool`] constructors already apply.
//!
//! Simplification keeps formulas small across the many rebuild steps of the
//! repair loop (path constraints are re-assembled with negated suffixes on
//! every generational-search step).

use std::collections::HashMap;

use crate::term::{ArithOp, CmpOp, TermData, TermId, TermPool};

impl TermPool {
    /// Bottom-up structural simplification. Idempotent; preserves semantics
    /// under the pool's total evaluation.
    ///
    /// Beyond constructor-level folding this normalizes:
    /// * `x - x → 0`
    /// * comparisons with both sides equal
    /// * `¬¬t → t`, De-Morgan push of `¬` over `∧`/`∨`
    /// * flattened duplicate conjuncts/disjuncts
    /// * `a ∧ ¬a → false`, `a ∨ ¬a → true`
    pub fn simplify(&mut self, t: TermId) -> TermId {
        let mut memo = HashMap::new();
        self.simplify_memo(t, &mut memo)
    }

    fn simplify_memo(&mut self, t: TermId, memo: &mut HashMap<TermId, TermId>) -> TermId {
        if let Some(&r) = memo.get(&t) {
            return r;
        }
        let r = match self.data(t) {
            TermData::BoolConst(_) | TermData::IntConst(_) | TermData::Var(_) => t,
            TermData::Not(a) => {
                let a = self.simplify_memo(a, memo);
                match self.data(a) {
                    // De Morgan: push negation down one level so that
                    // contradiction detection on literals fires more often.
                    TermData::And(x, y) => {
                        let nx = self.not(x);
                        let ny = self.not(y);
                        let nx = self.simplify_memo(nx, memo);
                        let ny = self.simplify_memo(ny, memo);
                        self.or(nx, ny)
                    }
                    TermData::Or(x, y) => {
                        let nx = self.not(x);
                        let ny = self.not(y);
                        let nx = self.simplify_memo(nx, memo);
                        let ny = self.simplify_memo(ny, memo);
                        self.and(nx, ny)
                    }
                    _ => self.not(a),
                }
            }
            TermData::And(a, b) => {
                let a = self.simplify_memo(a, memo);
                let b = self.simplify_memo(b, memo);
                if self.complementary(a, b) {
                    self.ff()
                } else {
                    self.and(a, b)
                }
            }
            TermData::Or(a, b) => {
                let a = self.simplify_memo(a, memo);
                let b = self.simplify_memo(b, memo);
                if self.complementary(a, b) {
                    self.tt()
                } else {
                    self.or(a, b)
                }
            }
            TermData::Cmp(op, a, b) => {
                let a = self.simplify_memo(a, memo);
                let b = self.simplify_memo(b, memo);
                self.simplify_cmp(op, a, b)
            }
            TermData::Arith(op, a, b) => {
                let a = self.simplify_memo(a, memo);
                let b = self.simplify_memo(b, memo);
                self.simplify_arith(op, a, b)
            }
            TermData::Neg(a) => {
                let a = self.simplify_memo(a, memo);
                self.neg(a)
            }
            TermData::Ite(c, a, b) => {
                let c = self.simplify_memo(c, memo);
                let a = self.simplify_memo(a, memo);
                let b = self.simplify_memo(b, memo);
                self.ite(c, a, b)
            }
        };
        memo.insert(t, r);
        r
    }

    /// Whether `a` is the literal negation of `b` (or vice versa).
    pub(crate) fn complementary(&self, a: TermId, b: TermId) -> bool {
        match (self.data(a), self.data(b)) {
            (TermData::Not(x), _) if x == b => true,
            (_, TermData::Not(y)) if y == a => true,
            (TermData::Cmp(op1, x1, y1), TermData::Cmp(op2, x2, y2)) => {
                x1 == x2 && y1 == y2 && op1.negate() == op2
            }
            _ => false,
        }
    }

    fn simplify_cmp(&mut self, op: CmpOp, a: TermId, b: TermId) -> TermId {
        // x - y <op> 0  ⇔  x <op> y
        if let (TermData::Arith(ArithOp::Sub, x, y), TermData::IntConst(0)) =
            (self.data(a), self.data(b))
        {
            return self.cmp(op, x, y);
        }
        self.cmp(op, a, b)
    }

    fn simplify_arith(&mut self, op: ArithOp, a: TermId, b: TermId) -> TermId {
        match op {
            ArithOp::Sub if a == b => self.int(0),
            // No `x + (-y) → x - y`: negation saturates, so at `y = i64::MIN`
            // the two differ (at `x = -1`: `MAX - 1` against `MAX`). A
            // constant `y` needs no rule: `-c` has already folded.
            _ => self.arith(op, a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Sort};

    #[test]
    fn sub_self_is_zero() {
        let mut p = TermPool::new();
        let x = p.named_var("x", Sort::Int);
        let e = p.intern_sub_for_test(x);
        let s = p.simplify(e);
        assert_eq!(p.data(s), TermData::IntConst(0));
    }

    impl TermPool {
        fn intern_sub_for_test(&mut self, x: TermId) -> TermId {
            // Build (x - x) without the constructor shortcut firing (it
            // doesn't fold this case, so plain sub is fine).
            self.sub(x, x)
        }
    }

    #[test]
    fn add_neg_of_a_constant_folds_the_constant() {
        // `Neg` of a constant comes only from a decoded pool (the
        // constructor folds it); simplifying folds it the same way.
        let mut p = TermPool::new();
        let x = p.named_var("x", Sort::Int);
        let c = p.int(7);
        let nc = p.intern_unfolded(TermData::Neg(c));
        let e = p.add(x, nc);
        let s = p.simplify(e);
        let minus_seven = p.int(-7);
        assert_eq!(s, p.add(x, minus_seven));
    }

    #[test]
    fn add_neg_stays_exact_at_i64_min() {
        // Under saturating evaluation `-1 + -(MIN)` is `MAX - 1` while
        // `-1 - MIN` is `MAX`, so neither a variable nor the constant
        // `MIN` under `Neg` may be rewritten into a subtraction.
        let mut p = TermPool::new();
        let xv = p.var("x", Sort::Int);
        let yv = p.var("y", Sort::Int);
        let x = p.var_term(xv);
        let y = p.var_term(yv);
        let min = p.int(i64::MIN);
        let neg_min = p.intern_unfolded(TermData::Neg(min));
        let ny = p.neg(y);
        let mut m = Model::new();
        m.set(xv, -1);
        m.set(yv, i64::MIN);
        for e in [
            p.add(x, ny),
            p.add(ny, x),
            p.add(x, neg_min),
            p.add(neg_min, x),
        ] {
            let s = p.simplify(e);
            assert_eq!(m.eval_int(&p, e), i64::MAX - 1);
            assert_eq!(m.eval_int(&p, s), m.eval_int(&p, e), "{}", p.display(e));
        }
    }

    #[test]
    fn demorgan_pushes_not() {
        let mut p = TermPool::new();
        let a = p.named_var("a", Sort::Bool);
        let b = p.named_var("b", Sort::Bool);
        let conj = p.and(a, b);
        let n = p.not(conj);
        let s = p.simplify(n);
        let na = p.not(a);
        let nb = p.not(b);
        assert_eq!(s, p.or(na, nb));
    }

    #[test]
    fn contradiction_folds_to_false() {
        let mut p = TermPool::new();
        let x = p.named_var("x", Sort::Int);
        let c = p.int(3);
        let lt = p.lt(x, c);
        let ge = p.ge(x, c);
        let conj = p.and(lt, ge);
        let s = p.simplify(conj);
        assert_eq!(p.data(s), TermData::BoolConst(false));
    }

    #[test]
    fn tautology_folds_to_true() {
        let mut p = TermPool::new();
        let x = p.named_var("x", Sort::Int);
        let c = p.int(3);
        let lt = p.lt(x, c);
        let ge = p.ge(x, c);
        let disj = p.or(lt, ge);
        let s = p.simplify(disj);
        assert_eq!(p.data(s), TermData::BoolConst(true));
    }

    #[test]
    fn sub_zero_comparison_normalizes() {
        let mut p = TermPool::new();
        let x = p.named_var("x", Sort::Int);
        let y = p.named_var("y", Sort::Int);
        let d = p.sub(x, y);
        let z = p.int(0);
        let c = p.gt(d, z);
        let s = p.simplify(c);
        assert_eq!(s, p.gt(x, y));
    }

    #[test]
    fn simplify_preserves_semantics() {
        let mut p = TermPool::new();
        let xv = p.var("x", Sort::Int);
        let yv = p.var("y", Sort::Int);
        let x = p.var_term(xv);
        let y = p.var_term(yv);
        let ny = p.neg(y);
        let e1 = p.add(x, ny);
        let z = p.int(0);
        let cmp = p.le(e1, z);
        let n = p.not(cmp);
        let s = p.simplify(n);
        for xi in -3..=3 {
            for yi in -3..=3i64 {
                let mut m = Model::new();
                m.set(xv, xi);
                m.set(yv, yi);
                assert_eq!(m.eval_bool(&p, n), m.eval_bool(&p, s), "x={xi} y={yi}");
            }
        }
    }

    #[test]
    fn simplify_is_idempotent() {
        let mut p = TermPool::new();
        let a = p.named_var("a", Sort::Bool);
        let b = p.named_var("b", Sort::Bool);
        let conj = p.and(a, b);
        let n = p.not(conj);
        let s1 = p.simplify(n);
        let s2 = p.simplify(s1);
        assert_eq!(s1, s2);
    }
}
