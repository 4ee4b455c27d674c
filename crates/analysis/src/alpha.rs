//! Alpha-equivalence of terms, used by Phase-1 synthesis to reject a
//! concrete candidate patch that reproduces the buggy expression.
//!
//! The term language binds no variables, so alpha-equivalence degenerates
//! to structural equality modulo argument order of the commutative
//! operators; hash-consing makes identical subtrees pointer-equal, which
//! keeps the walk cheap. A concrete candidate alpha-equivalent to the buggy
//! expression reproduces the original program behaviour verbatim, so the
//! failing test still fails and validation is guaranteed to reject it.

use cpr_smt::{ArithOp, CmpOp, TermData, TermId, TermPool};

/// Whether two terms are alpha-equivalent.
///
/// The term language has no binders, so this is structural equality modulo
/// the argument order of commutative operators (`∧`, `∨`, `=`, `≠`, `+`,
/// `*`). Hash-consing guarantees structurally identical terms share one
/// `TermId`, so the interesting work is only re-ordered operands.
pub fn alpha_equivalent(pool: &TermPool, a: TermId, b: TermId) -> bool {
    if a == b {
        return true;
    }
    match (pool.data(a), pool.data(b)) {
        (TermData::Not(x), TermData::Not(y)) | (TermData::Neg(x), TermData::Neg(y)) => {
            alpha_equivalent(pool, x, y)
        }
        (TermData::And(x1, x2), TermData::And(y1, y2))
        | (TermData::Or(x1, x2), TermData::Or(y1, y2)) => commuted(pool, x1, x2, y1, y2, true),
        (TermData::Cmp(o1, x1, x2), TermData::Cmp(o2, y1, y2)) if o1 == o2 => {
            commuted(pool, x1, x2, y1, y2, matches!(o1, CmpOp::Eq | CmpOp::Ne))
        }
        (TermData::Arith(o1, x1, x2), TermData::Arith(o2, y1, y2)) if o1 == o2 => commuted(
            pool,
            x1,
            x2,
            y1,
            y2,
            matches!(o1, ArithOp::Add | ArithOp::Mul),
        ),
        (TermData::Ite(c1, t1, e1), TermData::Ite(c2, t2, e2)) => {
            alpha_equivalent(pool, c1, c2)
                && alpha_equivalent(pool, t1, t2)
                && alpha_equivalent(pool, e1, e2)
        }
        // Constants and variables are hash-consed: if the ids differ, the
        // terms differ.
        _ => false,
    }
}

fn commuted(
    pool: &TermPool,
    x1: TermId,
    x2: TermId,
    y1: TermId,
    y2: TermId,
    commutative: bool,
) -> bool {
    (alpha_equivalent(pool, x1, y1) && alpha_equivalent(pool, x2, y2))
        || (commutative && alpha_equivalent(pool, x1, y2) && alpha_equivalent(pool, x2, y1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpr_smt::Sort;

    #[test]
    fn alpha_equivalence_handles_commutative_reordering() {
        let mut pool = TermPool::new();
        let x = pool.named_var("x", Sort::Int);
        let y = pool.named_var("y", Sort::Int);
        let one = pool.int(1);

        let xy = pool.add(x, y);
        let yx = pool.add(y, x);
        assert!(alpha_equivalent(&pool, xy, yx));

        // Nested reordering under a commutative comparison.
        let a = pool.eq(xy, one);
        let b = pool.eq(one, yx);
        assert!(alpha_equivalent(&pool, a, b));

        // Non-commutative operators respect order.
        let x_minus_y = pool.sub(x, y);
        let y_minus_x = pool.sub(y, x);
        assert!(!alpha_equivalent(&pool, x_minus_y, y_minus_x));

        // `<` is not commutative either.
        let lt = pool.lt(x, y);
        let tl = pool.lt(y, x);
        assert!(!alpha_equivalent(&pool, lt, tl));

        // Identical terms are pointer-equal under hash-consing.
        let xy2 = pool.add(x, y);
        assert_eq!(xy, xy2);
        assert!(alpha_equivalent(&pool, xy, xy2));
    }

    #[test]
    fn alpha_equivalence_is_not_semantic_equivalence() {
        let mut pool = TermPool::new();
        let x = pool.named_var("x", Sort::Int);
        let one = pool.int(1);
        let two = pool.int(2);
        // x + 1 + 1 vs x + 2: semantically equal, structurally different —
        // the check must stay an under-approximation and say "different".
        let x1 = pool.add(x, one);
        let x11 = pool.add(x1, one);
        let x2 = pool.add(x, two);
        assert!(!alpha_equivalent(&pool, x11, x2));
    }
}
