//! Property test: the solver's root search node alone refutes the
//! relational-guard and out-of-range-guard query families, and every
//! root refutation is answered `Unsat` by a single-node search.
//!
//! The families are the re-targeted partitions a repair run feeds the
//! solver for two kinds of parameterized guard over the program
//!
//! ```text
//! input x, y, z in [-100000, 100000];
//! if (__patch_cond__(x, y, z)) { return 1; }
//! if (x > 0) ... if (y > 0) ... if (x < y) ...
//! bug requires (x * y != z * z + 1);
//! ```
//!
//! executed with the patch guard false, so each path constraint starts with
//! `¬θ` followed by the three branch orientations of one of four
//! partitions:
//!
//! * *relational guards* `θ = x >= y - j || y >= x - j`: `¬θ` is
//!   `x < y - j ∧ y < x - j`, a two-edge negative difference cycle that the
//!   root zone pass closes even where the x and y boxes overlap;
//! * *out-of-range guards* `θ = x <= a + K_j` with `K_j` past the input
//!   domain: `¬θ` is `x > a + K_j`, refuted by root interval contraction.
//!
//! Each family is checked in the four query shapes Reduce issues per entry
//! (the feasibility gate `φ ∧ T` and the three refinement queries
//! `φ ∧ σ`, `φ ∧ T ∧ σ`, `φ ∧ T ∧ ¬σ`), each on a fresh solver so the
//! node count is the search's own.

use cpr_smt::{Domains, Region, Solver, SolverConfig, Sort, TermId, TermPool, VarId};

/// Guards per family.
const GUARDS: i64 = 64;

/// The `(x > 0, y > 0, x < y)` orientations of the four partitions, from
/// the inputs (1,1,0), (7,-2,3), (-4,5,2) and (-1,-1,0).
const PARTITIONS: [(bool, bool, bool); 4] = [
    (true, true, false),
    (true, false, false),
    (false, true, true),
    (false, false, false),
];

struct Subject {
    pool: TermPool,
    domains: Domains,
    x: TermId,
    y: TermId,
    z: TermId,
    a_var: VarId,
    a: TermId,
}

fn subject() -> Subject {
    let mut pool = TermPool::new();
    let mut domains = Domains::new();
    let mut input = |pool: &mut TermPool, name: &str| {
        let v = pool.var(name, Sort::Int);
        domains.bound(v, -100_000, 100_000);
        pool.var_term(v)
    };
    let x = input(&mut pool, "x");
    let y = input(&mut pool, "y");
    let z = input(&mut pool, "z");
    let a_var = pool.var("a", Sort::Int);
    domains.bound(a_var, -10, 10);
    let a = pool.var_term(a_var);
    Subject {
        pool,
        domains,
        x,
        y,
        z,
        a_var,
        a,
    }
}

/// `θ = x >= y - j || y >= x - j`.
fn relational_guard(s: &mut Subject, j: i64) -> TermId {
    let p = &mut s.pool;
    let k = p.int(j);
    let yj = p.sub(s.y, k);
    let xj = p.sub(s.x, k);
    let left = p.ge(s.x, yj);
    let right = p.ge(s.y, xj);
    p.or(left, right)
}

/// `θ = x <= a + K_j`, `K_j` past the input domain.
fn out_of_range_guard(s: &mut Subject, j: i64) -> TermId {
    let p = &mut s.pool;
    let k = p.int(200_050 + j);
    let ak = p.add(s.a, k);
    p.le(s.x, ak)
}

/// Branch condition `c` as the partition took it.
fn oriented(p: &mut TermPool, c: TermId, taken: bool) -> TermId {
    if taken {
        c
    } else {
        p.not(c)
    }
}

/// The four Reduce query shapes for guard `theta` on one partition.
fn reduce_queries(s: &mut Subject, theta: TermId, part: (bool, bool, bool)) -> Vec<Vec<TermId>> {
    let p = &mut s.pool;
    let zero = p.int(0);
    let one = p.int(1);
    let x_pos = p.gt(s.x, zero);
    let y_pos = p.gt(s.y, zero);
    let x_lt_y = p.lt(s.x, s.y);
    let phi = vec![
        p.not(theta),
        oriented(p, x_pos, part.0),
        oriented(p, y_pos, part.1),
        oriented(p, x_lt_y, part.2),
    ];
    let t = Region::full(vec![s.a_var], -10, 10).to_term(p);
    let xy = p.mul(s.x, s.y);
    let zz = p.mul(s.z, s.z);
    let zz1 = p.add(zz, one);
    let sigma = p.ne(xy, zz1);
    let not_sigma = p.not(sigma);
    let with = |extra: &[TermId]| [phi.as_slice(), extra].concat();
    vec![
        with(&[t]),
        with(&[sigma]),
        with(&[t, sigma]),
        with(&[t, not_sigma]),
    ]
}

/// Asserts `query` is root-refutable and answered `Unsat` after `nodes`
/// search nodes.
fn assert_root_refuted(s: &Subject, query: &[TermId], nodes: u64, what: &str) {
    let mut solver = Solver::new(SolverConfig::default());
    assert!(
        solver.refute_root(&s.pool, query, &s.domains),
        "{what}: the root pass did not refute {query:?}"
    );
    assert!(
        solver.check(&s.pool, query, &s.domains).is_unsat(),
        "{what}: the solver did not answer Unsat on {query:?}"
    );
    assert_eq!(
        solver.stats().nodes,
        nodes,
        "{what}: unexpected search node count on {query:?}"
    );
}

#[test]
fn relational_guard_family_is_refuted_at_the_root() {
    let mut s = subject();
    for j in 0..GUARDS {
        let theta = relational_guard(&mut s, j);
        for (i, &part) in PARTITIONS.iter().enumerate() {
            for q in reduce_queries(&mut s, theta, part) {
                assert_root_refuted(&s, &q, 1, &format!("relational j={j} partition {i}"));
            }
        }
    }
}

#[test]
fn out_of_range_guard_family_is_refuted_at_the_root() {
    let mut s = subject();
    for j in 0..GUARDS {
        let theta = out_of_range_guard(&mut s, j);
        for (i, &part) in PARTITIONS.iter().enumerate() {
            for q in reduce_queries(&mut s, theta, part) {
                assert_root_refuted(&s, &q, 1, &format!("out-of-range j={j} partition {i}"));
            }
        }
    }
}

/// Deterministic 64-bit LCG (Knuth's MMIX multiplier), so the seeded
/// systems below are bit-reproducible across platforms.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Uniform-ish draw from `[lo, hi]` (inclusive).
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % ((hi - lo + 1) as u64)) as i64
    }

    fn pick(&mut self, vars: &[TermId]) -> TermId {
        vars[self.range(0, vars.len() as i64 - 1) as usize]
    }
}

/// One random comparison between `a` and `b + k` — the difference fragment
/// the root zone pass decomposes.
fn diff_cmp(pool: &mut TermPool, rng: &mut Lcg, vars: &[TermId]) -> TermId {
    let a = rng.pick(vars);
    let b = rng.pick(vars);
    let k = pool.int(rng.range(-20, 20));
    let rhs = pool.add(b, k);
    match rng.range(0, 4) {
        0 => pool.le(a, rhs),
        1 => pool.lt(a, rhs),
        2 => pool.ge(a, rhs),
        3 => pool.gt(a, rhs),
        _ => pool.eq(a, rhs),
    }
}

/// One random constraint: a difference comparison, a unary bound, a
/// disjunction of two difference comparisons, or — outside the zone
/// fragment — a nonlinear comparison.
fn constraint(pool: &mut TermPool, rng: &mut Lcg, vars: &[TermId]) -> TermId {
    match rng.range(0, 9) {
        0..=3 => diff_cmp(pool, rng, vars),
        4..=5 => {
            let a = rng.pick(vars);
            let k = pool.int(rng.range(-120_000, 120_000));
            if rng.range(0, 1) == 0 {
                pool.le(a, k)
            } else {
                pool.ge(a, k)
            }
        }
        6..=7 => {
            let l = diff_cmp(pool, rng, vars);
            let r = diff_cmp(pool, rng, vars);
            pool.or(l, r)
        }
        _ => {
            let a = rng.pick(vars);
            let b = rng.pick(vars);
            let k = pool.int(rng.range(-50, 50));
            let ab = pool.mul(a, b);
            pool.le(ab, k)
        }
    }
}

#[test]
fn root_refutations_of_random_difference_systems_cost_one_node() {
    let mut searched = 0usize;
    for seed in 0..64u64 {
        let mut s = subject();
        let vars = [s.x, s.y, s.z];
        let mut rng = Lcg(0x9E3779B97F4A7C15 ^ seed.wrapping_mul(0xBF58476D1CE4E5B9));
        let n = rng.range(3, 7) as usize;
        let query: Vec<TermId> = (0..n)
            .map(|_| constraint(&mut s.pool, &mut rng, &vars))
            .collect();
        let solver = Solver::new(SolverConfig::default());
        if solver.refute_root(&s.pool, &query, &s.domains) {
            // A constant-false or complementary-literal system is refuted
            // before the search starts (what a zero node budget still
            // refutes); everything else at its root.
            let fast = Solver::new(SolverConfig {
                max_nodes: 0,
                ..SolverConfig::default()
            });
            let nodes = u64::from(!fast.refute_root(&s.pool, &query, &s.domains));
            searched += nodes as usize;
            assert_root_refuted(&s, &query, nodes, &format!("seed {seed}"));
        }
    }
    assert!(searched > 0, "no seeded system needed the root search node");
}
