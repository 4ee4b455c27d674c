//! Property-based tests: the branch-and-prune solver against brute-force
//! enumeration on small domains, interval soundness, and region invariants.
//!
//! The random-input generation is driven by the same dependency-free
//! xorshift64* generator the fuzz crate uses (inlined here because
//! `cpr-fuzz` depends on `cpr-smt`, so a dev-dependency would be cyclic).
//! Every case prints its seed on failure, so any counterexample is
//! reproducible by construction.

use cpr_smt::{
    ArithOp, CmpOp, Domains, Interval, Model, ParamBox, Region, SatResult, Solver, SolverConfig,
    Sort, TermId, TermPool,
};

/// Deterministic xorshift64* generator (same algorithm as `cpr_fuzz::rng`).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        })
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw from the inclusive range `[lo, hi]`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let draw = (self.next_u64() as u128 * span) >> 64;
        (lo as i128 + draw as i128) as i64
    }

    /// Uniform index in `[0, n)`.
    fn index(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// A small random formula AST that we can lower into a pool and also
/// brute-force evaluate.
#[derive(Debug, Clone)]
enum Fx {
    Var(u8),
    Const(i64),
    Add(Box<Fx>, Box<Fx>),
    Sub(Box<Fx>, Box<Fx>),
    Mul(Box<Fx>, Box<Fx>),
    Div(Box<Fx>, Box<Fx>),
    /// One subtree lowered into both operands of a product; hash-consing
    /// makes the lowered term `Mul(t, t)`.
    Sq(Box<Fx>),
}

#[derive(Debug, Clone)]
enum Fb {
    Cmp(CmpOp, Fx, Fx),
    And(Box<Fb>, Box<Fb>),
    Or(Box<Fb>, Box<Fb>),
    Not(Box<Fb>),
}

/// With `squares`, a fifth operator arm draws [`Fx::Sq`]; without it the
/// draws (and so every seeded formula) are those of the four-arm generator.
fn gen_fx(rng: &mut Rng, depth: u32, squares: bool) -> Fx {
    // Leaves at the depth limit, and with 2/5 probability elsewhere, which
    // keeps the expected tree size close to the old proptest strategy's.
    if depth == 0 || rng.index(5) < 2 {
        if rng.index(2) == 0 {
            Fx::Var(rng.index(3) as u8)
        } else {
            Fx::Const(rng.range(-6, 6))
        }
    } else {
        let a = Box::new(gen_fx(rng, depth - 1, squares));
        let b = Box::new(gen_fx(rng, depth - 1, squares));
        match rng.index(if squares { 5 } else { 4 }) {
            0 => Fx::Add(a, b),
            1 => Fx::Sub(a, b),
            2 => Fx::Mul(a, b),
            3 => Fx::Div(a, b),
            _ => Fx::Sq(a),
        }
    }
}

fn gen_cmp(rng: &mut Rng) -> CmpOp {
    match rng.index(6) {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

fn gen_fb(rng: &mut Rng, depth: u32, squares: bool) -> Fb {
    if depth == 0 || rng.index(5) < 2 {
        Fb::Cmp(
            gen_cmp(rng),
            gen_fx(rng, 3, squares),
            gen_fx(rng, 3, squares),
        )
    } else {
        match rng.index(3) {
            0 => Fb::And(
                Box::new(gen_fb(rng, depth - 1, squares)),
                Box::new(gen_fb(rng, depth - 1, squares)),
            ),
            1 => Fb::Or(
                Box::new(gen_fb(rng, depth - 1, squares)),
                Box::new(gen_fb(rng, depth - 1, squares)),
            ),
            _ => Fb::Not(Box::new(gen_fb(rng, depth - 1, squares))),
        }
    }
}

/// Whether `f` squares a non-constant term (an [`Fx::Sq`] over a variable).
fn squares_a_variable(f: &Fb) -> bool {
    /// (squares a variable, mentions a variable)
    fn fx(e: &Fx) -> (bool, bool) {
        match e {
            Fx::Var(_) => (false, true),
            Fx::Const(_) => (false, false),
            Fx::Add(a, b) | Fx::Sub(a, b) | Fx::Mul(a, b) | Fx::Div(a, b) => {
                let ((sa, va), (sb, vb)) = (fx(a), fx(b));
                (sa || sb, va || vb)
            }
            Fx::Sq(a) => {
                let (s, v) = fx(a);
                (s || v, v)
            }
        }
    }
    match f {
        Fb::Cmp(_, a, b) => fx(a).0 || fx(b).0,
        Fb::And(a, b) | Fb::Or(a, b) => squares_a_variable(a) || squares_a_variable(b),
        Fb::Not(a) => squares_a_variable(a),
    }
}

fn lower_fx(pool: &mut TermPool, e: &Fx, vars: &[TermId]) -> TermId {
    match e {
        Fx::Var(i) => vars[*i as usize % vars.len()],
        Fx::Const(c) => pool.int(*c),
        Fx::Add(a, b) => {
            let a = lower_fx(pool, a, vars);
            let b = lower_fx(pool, b, vars);
            pool.arith(ArithOp::Add, a, b)
        }
        Fx::Sub(a, b) => {
            let a = lower_fx(pool, a, vars);
            let b = lower_fx(pool, b, vars);
            pool.arith(ArithOp::Sub, a, b)
        }
        Fx::Mul(a, b) => {
            let a = lower_fx(pool, a, vars);
            let b = lower_fx(pool, b, vars);
            pool.arith(ArithOp::Mul, a, b)
        }
        Fx::Div(a, b) => {
            let a = lower_fx(pool, a, vars);
            let b = lower_fx(pool, b, vars);
            pool.arith(ArithOp::Div, a, b)
        }
        Fx::Sq(a) => {
            let a = lower_fx(pool, a, vars);
            pool.arith(ArithOp::Mul, a, a)
        }
    }
}

fn lower_fb(pool: &mut TermPool, f: &Fb, vars: &[TermId]) -> TermId {
    match f {
        Fb::Cmp(op, a, b) => {
            let a = lower_fx(pool, a, vars);
            let b = lower_fx(pool, b, vars);
            pool.cmp(*op, a, b)
        }
        Fb::And(a, b) => {
            let a = lower_fb(pool, a, vars);
            let b = lower_fb(pool, b, vars);
            pool.and(a, b)
        }
        Fb::Or(a, b) => {
            let a = lower_fb(pool, a, vars);
            let b = lower_fb(pool, b, vars);
            pool.or(a, b)
        }
        Fb::Not(a) => {
            let a = lower_fb(pool, a, vars);
            pool.not(a)
        }
    }
}

const DOM: std::ops::RangeInclusive<i64> = -4..=4;

/// Brute-force ground truth on the 3-variable domain.
fn brute_force_sat(pool: &TermPool, phi: TermId, vars: &[cpr_smt::VarId]) -> bool {
    for x in DOM {
        for y in DOM {
            for z in DOM {
                let mut m = Model::new();
                m.set(vars[0], x);
                m.set(vars[1], y);
                m.set(vars[2], z);
                if m.eval_bool(pool, phi) {
                    return true;
                }
            }
        }
    }
    false
}

/// Fresh pool with the standard three test variables, plus the lowering of
/// a random boolean formula over them.
fn pool_with_formula(f: &Fb) -> (TermPool, [cpr_smt::VarId; 3], TermId) {
    let mut pool = TermPool::new();
    let vx = pool.var("x", Sort::Int);
    let vy = pool.var("y", Sort::Int);
    let vz = pool.var("z", Sort::Int);
    let vars = [pool.var_term(vx), pool.var_term(vy), pool.var_term(vz)];
    let phi = lower_fb(&mut pool, f, &vars);
    (pool, [vx, vy, vz], phi)
}

/// The solver agrees with brute-force enumeration on small domains, and
/// its models actually satisfy the formula. Formulas include products with
/// repeated operands (`Mul(t, t)`), which the solver encloses as squares.
#[test]
fn solver_matches_brute_force() {
    let mut squared = 0;
    for case in 0..96u64 {
        let mut rng = Rng::new(0x50a7 + case);
        let f = gen_fb(&mut rng, 3, true);
        squared += usize::from(squares_a_variable(&f));
        let (pool, vs, phi) = pool_with_formula(&f);

        let mut domains = Domains::new();
        for v in vs {
            domains.bound(v, *DOM.start(), *DOM.end());
        }
        let mut solver = Solver::new(SolverConfig::default());
        let expected = brute_force_sat(&pool, phi, &vs);
        match solver.check(&pool, &[phi], &domains) {
            SatResult::Sat(m) => {
                assert!(
                    expected,
                    "case {case}: solver said sat, brute force says unsat: {}",
                    pool.display(phi)
                );
                assert!(
                    m.eval_bool(&pool, phi),
                    "case {case}: model does not satisfy formula"
                );
            }
            SatResult::Unsat => {
                assert!(
                    !expected,
                    "case {case}: solver said unsat, brute force found a model: {}",
                    pool.display(phi)
                );
            }
            SatResult::Unknown => {
                // Budget exhaustion is allowed (treated as a timeout), but
                // should not happen on these tiny domains.
                panic!("case {case}: unexpected Unknown on tiny domain");
            }
        }
    }
    assert!(
        squared >= 16,
        "only {squared} formulas square a variable term"
    );
}

/// Simplification preserves semantics on all points of the domain.
#[test]
fn simplify_preserves_semantics() {
    for case in 0..96u64 {
        let mut rng = Rng::new(0x51a9 + case);
        let f = gen_fb(&mut rng, 3, false);
        let (mut pool, vs, phi) = pool_with_formula(&f);
        let simp = pool.simplify(phi);
        for x in DOM {
            for y in DOM {
                let mut m = Model::new();
                m.set(vs[0], x);
                m.set(vs[1], y);
                m.set(vs[2], 1i64);
                assert_eq!(
                    m.eval_bool(&pool, phi),
                    m.eval_bool(&pool, simp),
                    "case {case}: {}",
                    pool.display(phi)
                );
            }
        }
    }
}

/// Forward interval evaluation encloses the concrete value of every point
/// inside the domains (soundness of the contractor's basis): if a concrete
/// point satisfies the formula, the solver must not answer Unsat for
/// domains containing that point. Squares (`Mul(t, t)`) are included.
#[test]
fn enclosure_soundness_via_solver() {
    let mut squared = 0;
    for case in 0..256u64 {
        let mut rng = Rng::new(0x52ab + case);
        let f = gen_fb(&mut rng, 3, true);
        squared += usize::from(squares_a_variable(&f));
        let (x, y, z) = (
            rng.range(*DOM.start(), *DOM.end()),
            rng.range(*DOM.start(), *DOM.end()),
            rng.range(*DOM.start(), *DOM.end()),
        );
        let (pool, vs, phi) = pool_with_formula(&f);
        let mut m = Model::new();
        m.set(vs[0], x);
        m.set(vs[1], y);
        m.set(vs[2], z);
        if m.eval_bool(&pool, phi) {
            let mut domains = Domains::new();
            for v in vs {
                domains.bound(v, *DOM.start(), *DOM.end());
            }
            let mut solver = Solver::new(SolverConfig::default());
            let r = solver.check(&pool, &[phi], &domains);
            assert!(
                !r.is_unsat(),
                "case {case}: solver refuted a satisfiable formula: {}",
                pool.display(phi)
            );
        }
    }
    assert!(
        squared >= 16,
        "only {squared} formulas square a variable term"
    );
}

/// Interval multiplication soundness: products of members are members.
#[test]
fn interval_mul_sound() {
    for case in 0..256u64 {
        let mut rng = Rng::new(0x53ad + case);
        let (alo, aw) = (rng.range(-50, 49), rng.range(0, 19));
        let (blo, bw) = (rng.range(-50, 49), rng.range(0, 19));
        let (pa, pb) = (rng.range(0, 19), rng.range(0, 19));
        let a = Interval::of(alo, alo + aw);
        let b = Interval::of(blo, blo + bw);
        let x = alo + pa.min(aw);
        let y = blo + pb.min(bw);
        assert!(
            a.mul(b).contains(x * y),
            "case {case}: {a:?} * {b:?} misses {x} * {y}"
        );
    }
}

/// Interval squaring is the exact hull of the members' squares (clamped to
/// the representable range) in all three sign cases, including endpoints
/// near ±2⁶², and near ±2³¹ where the square crosses the bound.
#[test]
fn interval_sqr_sound() {
    let clamp = |v: i128| v.clamp(Interval::MIN_BOUND as i128, Interval::MAX_BOUND as i128) as i64;
    let sq = |a: i64| clamp(a as i128 * a as i128);
    let mut signs = [0u32; 3];
    for case in 0..768u64 {
        let mut rng = Rng::new(0x59b9 + case);
        let centre = match case % 3 {
            0 => 0,
            1 => 1 << 31,
            _ => Interval::MAX_BOUND,
        };
        let lo = centre - rng.range(0, 60);
        let hi = (lo + rng.range(0, 40)).min(Interval::MAX_BOUND);
        let (lo, hi) = if rng.index(2) == 0 {
            (-hi, -lo)
        } else {
            (lo, hi)
        };
        let a = Interval::of(lo, hi);
        signs[if lo >= 0 {
            0
        } else if hi <= 0 {
            1
        } else {
            2
        }] += 1;
        let (min, max) = (lo..=hi)
            .map(sq)
            .fold((i64::MAX, i64::MIN), |(m, n), s| (m.min(s), n.max(s)));
        assert_eq!(a.sqr(), Interval::of(min, max), "case {case}: {a:?}");
        assert!(a.mul(a).contains_interval(a.sqr()), "case {case}: {a:?}");
    }
    assert!(signs.iter().all(|&n| n > 20), "sign cases {signs:?}");
    // Wide intervals: a square is monotone on each side of 0, so the hull
    // of the squares is attained at the endpoints and, when contained, at 0.
    let wide = [
        (Interval::MIN_BOUND, Interval::MAX_BOUND),
        (Interval::MIN_BOUND, -7),
        (3, Interval::MAX_BOUND),
        (-(1 << 31) - 5, (1 << 31) - 9),
        (-(1 << 40), 1 << 20),
    ];
    for (lo, hi) in wide {
        let a = Interval::of(lo, hi);
        let zero = if a.contains(0) { 0 } else { i64::MAX };
        let min = sq(lo).min(sq(hi)).min(zero);
        let max = sq(lo).max(sq(hi));
        assert_eq!(a.sqr(), Interval::of(min, max), "{a:?}");
        let mut rng = Rng::new(lo as u64 ^ hi as u64);
        for _ in 0..64 {
            let v = rng.range(lo, hi);
            assert!(a.sqr().contains(sq(v)), "{a:?} misses {v}²");
        }
    }
}

/// Interval division soundness with total semantics.
#[test]
fn interval_div_sound() {
    for case in 0..256u64 {
        let mut rng = Rng::new(0x54af + case);
        let (alo, aw) = (rng.range(-50, 49), rng.range(0, 19));
        let (blo, bw) = (rng.range(-50, 49), rng.range(0, 19));
        let (pa, pb) = (rng.range(0, 19), rng.range(0, 19));
        let a = Interval::of(alo, alo + aw);
        let b = Interval::of(blo, blo + bw);
        let x = alo + pa.min(aw);
        let y = blo + pb.min(bw);
        let q = if y == 0 { 0 } else { x / y };
        assert!(
            a.div_total(b).contains(q),
            "case {case}: {a:?} / {b:?} misses {x} / {y}"
        );
    }
}

/// Region split removes exactly the counterexample point: volume drops by
/// one and the point is gone while neighbours remain.
#[test]
fn region_split_removes_one_point() {
    for case in 0..256u64 {
        let mut rng = Rng::new(0x55b1 + case);
        let (lo, hi) = (rng.range(-20, -1), rng.range(0, 19));
        let (px, py) = (rng.range(-20, 19), rng.range(-20, 19));
        let dims = rng.index(3) + 1;
        let mut pool = TermPool::new();
        let params: Vec<_> = (0..dims)
            .map(|i| pool.var(&format!("p{i}"), Sort::Int))
            .collect();
        let region = Region::full(params.clone(), lo, hi);
        let point: Vec<i64> = (0..dims)
            .map(|i| if i % 2 == 0 { px } else { py })
            .collect();
        let inside = point.iter().all(|&v| v >= lo && v <= hi);
        let parts = region.split_at(&point);
        let merged = Region::union(params, parts).merged();
        if inside {
            assert_eq!(merged.volume(), region.volume() - 1, "case {case}");
            assert!(!merged.contains_point(&point), "case {case}");
        } else {
            assert_eq!(merged.volume(), region.volume(), "case {case}");
        }
    }
}

/// Merge never changes the set of contained points (checked by membership
/// sampling).
#[test]
fn region_merge_preserves_membership() {
    for case in 0..256u64 {
        let mut rng = Rng::new(0x56b3 + case);
        let n_boxes = rng.index(4) + 1;
        let seed_boxes: Vec<(i64, i64, i64, i64)> = (0..n_boxes)
            .map(|_| {
                (
                    rng.range(-10, 9),
                    rng.range(0, 5),
                    rng.range(-10, 9),
                    rng.range(0, 5),
                )
            })
            .collect();
        let (qx, qy) = (rng.range(-12, 11), rng.range(-12, 11));
        let mut pool = TermPool::new();
        let params = vec![pool.var("a", Sort::Int), pool.var("b", Sort::Int)];
        let boxes: Vec<ParamBox> = seed_boxes
            .iter()
            .map(|&(alo, aw, blo, bw)| {
                ParamBox::new(vec![
                    Interval::of(alo, alo + aw),
                    Interval::of(blo, blo + bw),
                ])
            })
            .collect();
        let region = Region::from_boxes(params, boxes);
        let merged = region.merged();
        assert_eq!(
            region.contains_point(&[qx, qy]),
            merged.contains_point(&[qx, qy]),
            "case {case}: query ({qx}, {qy}) on {seed_boxes:?}"
        );
    }
}

/// Region to_term agrees with membership.
#[test]
fn region_term_agrees_with_membership() {
    for case in 0..256u64 {
        let mut rng = Rng::new(0x57b5 + case);
        let (lo, hi) = (rng.range(-10, -1), rng.range(0, 9));
        let q = rng.range(-15, 14);
        let mut pool = TermPool::new();
        let params = vec![pool.var("a", Sort::Int)];
        let region = Region::full(params.clone(), lo, hi);
        let t = region.to_term(&mut pool);
        let mut m = Model::new();
        m.set(params[0], q);
        assert_eq!(
            m.eval_bool(&pool, t),
            region.contains_point(&[q]),
            "case {case}: [{lo}, {hi}] at {q}"
        );
    }
}

/// `parse_term` is a left inverse of `display` for generated formulas.
#[test]
fn display_parse_roundtrip() {
    for case in 0..128u64 {
        let mut rng = Rng::new(0x58b7 + case);
        let f = gen_fb(&mut rng, 3, false);
        let (mut pool, _, phi) = pool_with_formula(&f);
        let shown = pool.display(phi);
        let reparsed = pool.parse_term(&shown).expect("reparse");
        assert_eq!(reparsed, phi, "case {case}: display: {shown}");
    }
}

/// Deterministic regression: generational-search-style suffix negation
/// formulas (long conjunctions) stay fast and exact.
#[test]
fn long_conjunction_with_negated_suffix() {
    let mut pool = TermPool::new();
    let mut solver = Solver::new(SolverConfig::default());
    let n = 24;
    let vars: Vec<_> = (0..n)
        .map(|i| pool.var(&format!("v{i}"), Sort::Int))
        .collect();
    let mut domains = Domains::new();
    let mut conj = Vec::new();
    for (i, &v) in vars.iter().enumerate() {
        domains.bound(v, -100, 100);
        let vt = pool.var_term(v);
        let c = pool.int(i as i64);
        conj.push(pool.gt(vt, c));
    }
    // Negate the last conjunct, as PickNewInput does.
    let last = conj.pop().unwrap();
    conj.push(pool.not(last));
    let r = solver.check(&pool, &conj, &domains);
    let m = r.model().expect("satisfiable");
    assert!(m.satisfies(&pool, &conj));
}

/// FNV-1a accumulator for [`solver_answers_match_the_pinned_digest`].
struct Fnv(u64);

impl Fnv {
    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One seeded query of the pinned-digest mix.
struct SeededQuery {
    pool: TermPool,
    constraints: Vec<TermId>,
    domains: Domains,
    max_nodes: u64,
}

/// Draws a query into a fresh pool: see [`seeded_query_in`].
fn seeded_query(rng: &mut Rng) -> SeededQuery {
    seeded_query_in(TermPool::new(), rng)
}

/// Draws a query into `pool`: 1–3 random formulas over `x`, `y`, `z`
/// (sometimes weakened by a boolean flag that a further constraint forces
/// false), domains from tiny to the default, and a node budget of 400 or,
/// in a quarter of the cases, 1–40.
fn seeded_query_in(mut pool: TermPool, rng: &mut Rng) -> SeededQuery {
    let vs = [
        pool.var("x", Sort::Int),
        pool.var("y", Sort::Int),
        pool.var("z", Sort::Int),
    ];
    let terms = vs.map(|v| pool.var_term(v));
    let mut constraints: Vec<TermId> = (0..1 + rng.index(3))
        .map(|_| {
            let f = gen_fb(rng, 3, false);
            lower_fb(&mut pool, &f, &terms)
        })
        .collect();
    if rng.index(6) == 0 {
        let flag = pool.var("flag", Sort::Bool);
        let b = pool.var_term(flag);
        let c = constraints[0];
        constraints[0] = pool.or(b, c);
        let nb = pool.not(b);
        constraints.push(nb);
    }
    let mut domains = Domains::new();
    let half = [4, 60, 100_000][rng.index(3)];
    for v in vs {
        // Leave a variable unbounded (the default domain) now and then.
        if rng.index(5) != 0 {
            domains.bound(v, -half, half);
        }
    }
    let max_nodes = if rng.index(4) == 0 {
        rng.range(1, 40) as u64
    } else {
        400
    };
    SeededQuery {
        pool,
        constraints,
        domains,
        max_nodes,
    }
}

/// A solver reuses its search buffers (box layout, slot table, root node,
/// recycled node and box stacks) from one query to the next.
/// One long-lived solver per budget answers a seeded, interleaved run of
/// `check` and `count_models` calls over one growing pool — 1 to 9
/// variables, domains from tiny to the default, some queries cut short by
/// the budget mid-search — and every answer must be a fresh solver's:
/// verdict, model, node count and count bounds. A buffer that a query
/// failed to reset would show as a different answer or node count.
#[test]
fn reused_search_scratch_leaves_no_residue() {
    let config = |max_nodes: u64| SolverConfig {
        max_nodes,
        cache_capacity: 0,
        ..SolverConfig::default()
    };
    let budgets = [400u64, 9];
    let mut long: Vec<Solver> = budgets.iter().map(|&b| Solver::new(config(b))).collect();
    let mut rng = Rng::new(0x5c2a_7c00);
    let mut pool = TermPool::new();
    let (mut checks, mut counts, mut unknown, mut widest) = (0u32, 0u32, 0u32, 0usize);
    for case in 0..600u32 {
        let mut q = seeded_query_in(pool, &mut rng);
        // Widen some queries with extra variables, bounded by constants
        // or by `x`.
        let x = q.pool.named_var("x", Sort::Int);
        for k in 0..rng.index(6) {
            let w = q.pool.named_var(&format!("w{k}"), Sort::Int);
            let c = q.pool.int(rng.range(-8, 8));
            let bound = if rng.index(2) == 0 {
                c
            } else {
                q.pool.add(x, c)
            };
            let atom = q.pool.lt(w, bound);
            q.constraints.push(atom);
        }
        let vars: std::collections::BTreeSet<_> = q
            .constraints
            .iter()
            .flat_map(|&c| q.pool.vars_of(c))
            .collect();
        widest = widest.max(vars.len());
        let counting = rng.index(4) == 0;
        for (solver, &budget) in long.iter_mut().zip(&budgets) {
            let mut fresh = Solver::new(config(budget));
            let before = solver.stats().nodes;
            if counting {
                let got = solver.count_models(&q.pool, &q.constraints, &q.domains);
                let want = fresh.count_models(&q.pool, &q.constraints, &q.domains);
                assert_eq!(got, want, "case {case}, budget {budget}: count bounds");
                counts += 1;
            } else {
                let got = solver.check(&q.pool, &q.constraints, &q.domains);
                let want = fresh.check(&q.pool, &q.constraints, &q.domains);
                assert_eq!(got, want, "case {case}, budget {budget}: answer");
                unknown += u32::from(got == SatResult::Unknown);
                checks += 1;
            }
            assert_eq!(
                solver.stats().nodes - before,
                fresh.stats().nodes,
                "case {case}, budget {budget}: node count"
            );
        }
        pool = q.pool;
    }
    assert!(
        checks > 600 && counts > 150 && unknown > 50 && widest >= 8,
        "checks {checks}, counts {counts}, unknown {unknown}, widest {widest}"
    );
}

/// Pins the solver's exact answers, not only their soundness: verdict,
/// witness model and search-node count of ~2,000 seeded random queries
/// (nonlinear terms, `Or`/`Not`, a boolean flag, domains from tiny to the
/// default, some node budgets small enough to end `Unknown`, some
/// `count_models` bounds) fold into one FNV-1a digest. A change to the
/// search kernel that claims to be answer-preserving must leave it
/// unchanged; a deliberate change of answers re-pins it and says why.
/// The formulas come from the four-arm generator (no `Fx::Sq` draws), so a
/// re-pin changes answers, never the queries. Last re-pinned when the
/// root zone pass was removed: sat 1240, unsat 339, unknown 168, counts
/// 253 (5 root-refuted `Unsat`s now end `Unknown` at the budget, 2 take
/// 285 and 334 nodes; no answer flips between `Sat` and `Unsat`).
#[test]
fn solver_answers_match_the_pinned_digest() {
    const PINNED: u64 = 0xd2e8_baa1_31ad_519f;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut sat, mut unsat, mut unknown, mut counts) = (0u32, 0u32, 0u32, 0u32);
    for case in 0..2_000u64 {
        let mut rng = Rng::new(0x5eed_0000 + case);
        let SeededQuery {
            pool,
            constraints,
            domains,
            max_nodes,
        } = seeded_query(&mut rng);
        let mut solver = Solver::new(SolverConfig {
            max_nodes,
            cache_capacity: 0,
            ..SolverConfig::default()
        });
        if rng.index(8) == 0 {
            counts += 1;
            let c = solver.count_models(&pool, &constraints, &domains);
            h.mix(3);
            h.mix(c.lo as u64);
            h.mix((c.lo >> 64) as u64);
            h.mix(c.hi as u64);
            h.mix((c.hi >> 64) as u64);
        } else {
            match solver.check(&pool, &constraints, &domains) {
                SatResult::Sat(m) => {
                    sat += 1;
                    h.mix(0);
                    for (v, value) in m.iter() {
                        h.mix(v.index() as u64);
                        match value {
                            cpr_smt::Value::Int(i) => h.mix(i as u64),
                            cpr_smt::Value::Bool(b) => h.mix(2 + u64::from(b)),
                        }
                    }
                }
                SatResult::Unsat => {
                    unsat += 1;
                    h.mix(1);
                }
                SatResult::Unknown => {
                    unknown += 1;
                    h.mix(2);
                }
            }
        }
        h.mix(solver.stats().nodes);
    }
    // The mix must exercise every answer kind, or the digest pins little.
    assert!(
        sat > 100 && unsat > 100 && unknown > 50 && counts > 100,
        "sat {sat}, unsat {unsat}, unknown {unknown}, counts {counts}"
    );
    assert_eq!(
        h.0, PINNED,
        "solver answers changed: digest {:#018x} (sat {sat}, unsat {unsat}, unknown {unknown}, counts {counts})",
        h.0
    );
}
