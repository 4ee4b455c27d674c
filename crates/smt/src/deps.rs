//! Precomputed term → variable dependency lists for the solver's hot path.
//!
//! [`TermPool::vars_of`] walks the term DAG with two freshly allocated
//! pool-sized visit bitmaps on *every* call — and the solver calls it per
//! constraint per query and per search node (branch-variable selection).
//! [`DepGraph`] computes the same lists once, bottom-up, and serves them as
//! slices: a [`DepGraph::sync`] after new terms are interned costs O(new
//! terms), a lookup costs nothing.
//!
//! The cached lists are **order-identical** to `vars_of` output, which
//! matters because the solver's variable-box layout and dedup loops follow
//! first-occurrence order. `vars_of` is a depth-first walk that pushes
//! children left-to-right onto an explicit stack (so it *visits* them
//! right-to-left) and skips shared subterms via a global visited set. For a
//! DAG that rule has a bottom-up equivalent: the list of a binary node is
//! the first-occurrence merge of the right child's list followed by the
//! left child's, and `Ite(c, a, b)` merges `b`, then `a`, then `c`.
//! Skipping an already-visited shared subterm never reorders the merge,
//! because any variable first reached through a shared subterm was already
//! emitted by the subtree that visited it first. The randomized test below
//! pins this equivalence against `vars_of` itself.

use crate::term::{TermData, TermId, TermPool, VarId};

/// Bottom-up cache of `vars_of` results for a term-pool prefix.
///
/// Synced lazily: [`DepGraph::sync`] extends the cache to the pool's
/// current length (children always precede parents in a hash-consing
/// pool, so one forward pass suffices). A forked solver clones the graph
/// and extends it against its own pool fork.
#[derive(Debug, Default, Clone)]
pub struct DepGraph {
    lists: Vec<Box<[VarId]>>,
}

impl DepGraph {
    /// An empty graph covering no terms.
    pub fn new() -> Self {
        DepGraph::default()
    }

    /// Number of terms covered (a prefix of the pool).
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether no terms are covered yet.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Whether `t`'s list is cached.
    pub fn covers(&self, t: TermId) -> bool {
        t.index() < self.lists.len()
    }

    /// The variables of `t`, in exactly the first-occurrence order
    /// [`TermPool::vars_of`] reports them.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not covered; call [`DepGraph::sync`] first.
    pub fn vars_of(&self, t: TermId) -> &[VarId] {
        &self.lists[t.index()]
    }

    /// Extends the cache to cover every term currently in `pool`.
    pub fn sync(&mut self, pool: &TermPool) {
        let n = pool.len();
        if self.lists.len() >= n {
            return;
        }
        self.lists.reserve(n - self.lists.len());
        for i in self.lists.len()..n {
            let t = TermId(i as u32);
            let list: Box<[VarId]> = match pool.data(t) {
                TermData::BoolConst(_) | TermData::IntConst(_) => Box::new([]),
                TermData::Var(v) => Box::new([v]),
                TermData::Not(a) | TermData::Neg(a) => self.lists[a.index()].clone(),
                TermData::And(a, b)
                | TermData::Or(a, b)
                | TermData::Cmp(_, a, b)
                | TermData::Arith(_, a, b) => {
                    merge(&[&self.lists[b.index()], &self.lists[a.index()]])
                }
                TermData::Ite(c, a, b) => merge(&[
                    &self.lists[b.index()],
                    &self.lists[a.index()],
                    &self.lists[c.index()],
                ]),
            };
            self.lists.push(list);
        }
    }
}

/// First-occurrence concatenation of variable lists (each input is itself
/// deduplicated, so a linear membership scan over the small output is
/// cheaper than hashing).
fn merge(parts: &[&[VarId]]) -> Box<[VarId]> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    match parts {
        // Common fast path: one side has no variables at all.
        [[], b] => Box::from(*b),
        [a, []] => Box::from(*a),
        _ => {
            let mut out: Vec<VarId> = Vec::with_capacity(total);
            for part in parts {
                for &v in part.iter() {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            out.into_boxed_slice()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    /// Tiny xorshift for the property test (`cpr-fuzz` would be a cyclic
    /// dev-dependency here; the seeded-reproducibility style is the same).
    struct TestRng(u64);

    impl TestRng {
        fn new(seed: u64) -> Self {
            TestRng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
        }

        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn index(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Builds a random term over a handful of variables, mixing every
    /// constructor (including `Ite` and shared subterms via hash-consing).
    fn random_term(rng: &mut TestRng, pool: &mut TermPool, depth: usize) -> TermId {
        if depth == 0 || rng.index(4) == 0 {
            return match rng.index(3) {
                0 => {
                    let c = rng.index(11) as i64 - 5;
                    pool.int(c)
                }
                _ => {
                    let name = ["x", "y", "z", "u", "w"][rng.index(5)];
                    pool.named_var(name, Sort::Int)
                }
            };
        }
        let a = random_term(rng, pool, depth - 1);
        let b = random_term(rng, pool, depth - 1);
        match rng.index(6) {
            0 => pool.add(a, b),
            1 => pool.mul(a, b),
            2 => pool.sub(a, b),
            3 => pool.neg(a),
            4 => {
                let ca = pool.le(a, b);
                let cb = pool.ge(a, b);
                pool.and(ca, cb)
            }
            _ => {
                let c = pool.lt(a, b);
                pool.ite(c, a, b)
            }
        }
    }

    #[test]
    fn dep_graph_matches_vars_of_order_exactly() {
        for seed in 0..64u64 {
            let mut rng = TestRng::new(seed);
            let mut pool = TermPool::new();
            let mut deps = DepGraph::new();
            for round in 0..6 {
                let depth = 1 + rng.index(5);
                let _ = random_term(&mut rng, &mut pool, depth);
                deps.sync(&pool);
                assert_eq!(deps.len(), pool.len(), "seed {seed} round {round}");
                for i in 0..pool.len() {
                    let t = TermId(i as u32);
                    assert_eq!(
                        deps.vars_of(t),
                        pool.vars_of(t).as_slice(),
                        "seed {seed} round {round} term {i}: cached list diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn sync_extends_lazily_and_is_idempotent() {
        let mut pool = TermPool::new();
        let mut deps = DepGraph::new();
        deps.sync(&pool);
        assert!(deps.is_empty());
        let xv = pool.var("x", Sort::Int);
        let x = pool.var_term(xv);
        let five = pool.int(5);
        let c = pool.gt(x, five);
        deps.sync(&pool);
        let before = deps.len();
        deps.sync(&pool);
        assert_eq!(deps.len(), before, "second sync must be a no-op");
        assert!(deps.covers(c));
        assert_eq!(deps.vars_of(c), &[xv]);
        assert_eq!(deps.vars_of(five), &[] as &[VarId]);
    }
}
