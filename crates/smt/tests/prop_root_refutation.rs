//! Property test: the solver answers the relational-guard and
//! out-of-range-guard query families `Unsat`, and the cost of each is
//! pinned in search nodes.
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
//!   `x < y - j ∧ y < x - j`, a two-edge negative difference cycle. Interval
//!   contraction shaves such a cycle by its offset per round, so where the
//!   x and y boxes overlap the search bisects before it refutes: every
//!   query is `Unsat`, and the family's node total is pinned so that a
//!   branching change shows its cost here;
//! * *out-of-range guards* `θ = x <= a + K_j` with `K_j` past the input
//!   domain: `¬θ` is `x > a + K_j`, refuted by root interval contraction
//!   after exactly one search node.
//!
//! Each family is checked in the four query shapes Reduce issues per entry
//! (the feasibility gate `φ ∧ T` and the three refinement queries
//! `φ ∧ σ`, `φ ∧ T ∧ σ`, `φ ∧ T ∧ ¬σ`), each on a fresh solver so the
//! node count is the search's own. A last case pins the difference cycle
//! that `bench_fuzz`'s campaign asks at its frontier.

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

/// Asserts `query` is answered `Unsat` and returns the search nodes it
/// took.
fn unsat_nodes(pool: &TermPool, query: &[TermId], domains: &Domains, what: &str) -> u64 {
    let mut solver = Solver::new(SolverConfig::default());
    assert!(
        solver.check(pool, query, domains).is_unsat(),
        "{what}: the solver did not answer Unsat on {query:?}"
    );
    solver.stats().nodes
}

#[test]
fn relational_guard_family_is_unsat_at_a_pinned_node_total() {
    let mut s = subject();
    let mut total = 0;
    for j in 0..GUARDS {
        let theta = relational_guard(&mut s, j);
        for (i, &part) in PARTITIONS.iter().enumerate() {
            for q in reduce_queries(&mut s, theta, part) {
                let what = format!("relational j={j} partition {i}");
                total += unsat_nodes(&s.pool, &q, &s.domains, &what);
            }
        }
    }
    assert_eq!(total, 66_904, "relational family: search node total");
}

#[test]
fn out_of_range_guard_family_is_refuted_at_the_root() {
    let mut s = subject();
    for j in 0..GUARDS {
        let theta = out_of_range_guard(&mut s, j);
        for (i, &part) in PARTITIONS.iter().enumerate() {
            for q in reduce_queries(&mut s, theta, part) {
                let what = format!("out-of-range j={j} partition {i}");
                let nodes = unsat_nodes(&s.pool, &q, &s.domains, &what);
                assert_eq!(nodes, 1, "{what}: unexpected search node count on {q:?}");
            }
        }
    }
}

/// `bench_fuzz`'s frontier query `x*3 != y+21 ∧ x <= 100 ∧ y = x+5 ∧ x = y`
/// over `x, y ∈ [-10000, 10000]`: the cycle `y = x + 5 ∧ x = y` loses 5
/// per contraction round, so the search bisects to refute it.
#[test]
fn bench_fuzz_frontier_cycle_is_unsat_at_a_pinned_node_count() {
    let mut pool = TermPool::new();
    let mut domains = Domains::new();
    let [x, y] = ["x", "y"].map(|name| {
        let v = pool.var(name, Sort::Int);
        domains.bound(v, -10_000, 10_000);
        pool.var_term(v)
    });
    let three = pool.int(3);
    let five = pool.int(5);
    let twenty_one = pool.int(21);
    let hundred = pool.int(100);
    let x3 = pool.mul(x, three);
    let y21 = pool.add(y, twenty_one);
    let x5 = pool.add(x, five);
    let query = [
        pool.ne(x3, y21),
        pool.le(x, hundred),
        pool.eq(y, x5),
        pool.eq(x, y),
    ];
    let nodes = unsat_nodes(&pool, &query, &domains, "bench_fuzz frontier");
    assert_eq!(nodes, 94, "bench_fuzz frontier: search node count");
}
