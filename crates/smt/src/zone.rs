//! Relational (zone) refutation over contracted boxes: the last step of
//! the solver's root search node.
//!
//! The branch-and-prune root pass is purely *interval* reasoning: each
//! variable is contracted independently, so facts like `x < y ∧ y < x`
//! with wide domains survive it untouched. This module adds the missing
//! relational step: every live constraint is decomposed — where possible —
//! into **difference constraints** of the form `p - n ≤ w` (with either
//! side optionally the distinguished zero node `Z`), the contracted box
//! contributes its own bounds as `v ≤ hi` / `-v ≤ -lo` edges, and the
//! resulting constraint graph is scanned for a negative cycle with
//! Bellman–Ford. A negative cycle telescopes to `0 ≤ Σw < 0` — a proof
//! that no integer point of the box satisfies the conjunction.
//!
//! # Saturation guard
//!
//! Concrete evaluation ([`crate::Model::eval`]) uses *saturating* `i64`
//! arithmetic, so a syntactic decomposition is only faithful when no term
//! node can saturate under any assignment in the current box. The
//! normalizer therefore carries an exact `i128` range per node and
//! abandons a constraint the moment any intermediate range leaves `i64`;
//! such constraints simply contribute no edges (the pass is allowed to
//! under-approximate, never to over-refute).

use crate::solver::{Ctx, VarBox};
use crate::term::{ArithOp, CmpOp, TermData, TermId, VarId};

/// One difference constraint `dst - src ≤ weight`, where `None` stands
/// for the distinguished zero node `Z` (so `src: None` encodes
/// `dst ≤ weight` and `dst: None` encodes `-src ≤ weight`). The pass
/// reports a refutation as a cycle of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneEdge {
    /// The subtracted variable (`None` = the zero node).
    pub src: Option<VarId>,
    /// The bounded variable (`None` = the zero node).
    pub dst: Option<VarId>,
    /// The bound: `dst - src ≤ weight` (exact, never saturated).
    pub weight: i128,
}

/// An edge of the graph the pass scans, `dst - src ≤ weight`, over node
/// indices: node 0 is the zero node `Z` and node `s + 1` is box slot `s`,
/// so the relaxation passes index their arrays directly.
#[derive(Debug, Clone, Copy)]
struct Edge {
    src: u32,
    dst: u32,
    weight: i128,
}

/// The zone pass's buffers, kept in the solver's search scratch so a pass
/// allocates nothing once they have grown. Every pass overwrites them.
#[derive(Debug, Default)]
pub(crate) struct ZoneScratch {
    edges: Vec<Edge>,
    /// Bellman–Ford distance and predecessor edge per node.
    dist: Vec<i128>,
    pred: Vec<Option<u32>>,
}

/// A partially-normalized linear view of an integer term: `±pos ∓ neg + k`
/// with at most one variable on each side (as graph node indices), plus
/// the exact `i128` range of the term under the current box. `lo`/`hi` are
/// exact (never clamped); the saturation guard checks them against `i64`
/// at every node.
#[derive(Debug, Clone, Copy)]
struct Lin {
    pos: Option<u32>,
    neg: Option<u32>,
    k: i128,
    lo: i128,
    hi: i128,
}

impl Lin {
    fn constant(v: i128) -> Lin {
        Lin {
            pos: None,
            neg: None,
            k: v,
            lo: v,
            hi: v,
        }
    }

    fn fits_i64(&self) -> bool {
        self.lo >= i64::MIN as i128 && self.hi <= i64::MAX as i128
    }

    fn negated(self) -> Lin {
        Lin {
            pos: self.neg,
            neg: self.pos,
            k: -self.k,
            lo: -self.hi,
            hi: -self.lo,
        }
    }

    /// `self + other`, cancelling a variable that appears positively on
    /// one side and negatively on the other. `None` when the sum needs
    /// more than one variable per sign.
    fn add(self, other: Lin) -> Option<Lin> {
        let mut pos = [self.pos, other.pos];
        let mut neg = [self.neg, other.neg];
        // Cancel `x - x` pairs exactly (sound: the concrete values agree):
        // each positive occurrence, in order, against the first negative
        // occurrence of the same variable.
        for p in pos.iter_mut().filter(|p| p.is_some()) {
            if let Some(n) = neg.iter_mut().find(|n| **n == *p) {
                *p = None;
                *n = None;
            }
        }
        Some(Lin {
            pos: one_var(pos)?,
            neg: one_var(neg)?,
            k: self.k + other.k,
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        })
    }
}

/// The variable left on one sign of a sum after cancellation (`Some(None)`
/// for none), or `None` when two remain.
fn one_var(side: [Option<u32>; 2]) -> Option<Option<u32>> {
    match side {
        [Some(_), Some(_)] => None,
        [a, b] => Some(a.or(b)),
    }
}

/// Normalizes an integer term into [`Lin`] form, failing (`None`) when
/// the term is not expressible as `±x ∓ y + k`, mentions a variable
/// outside the box, or — the saturation guard — any node's exact range
/// leaves `i64` (concrete evaluation could then saturate, making the
/// syntactic decomposition unfaithful).
fn lin(cx: Ctx<'_>, t: TermId, vbox: &VarBox) -> Option<Lin> {
    let out = match cx.pool.data(t) {
        TermData::IntConst(v) => Lin::constant(v as i128),
        TermData::Var(v) => {
            let slot = cx.layout.slot_index(v)?;
            let iv = vbox.at(slot);
            Lin {
                pos: Some(slot as u32 + 1),
                neg: None,
                k: 0,
                lo: iv.lo() as i128,
                hi: iv.hi() as i128,
            }
        }
        TermData::Neg(a) => lin(cx, a, vbox)?.negated(),
        TermData::Arith(ArithOp::Add, a, b) => lin(cx, a, vbox)?.add(lin(cx, b, vbox)?)?,
        TermData::Arith(ArithOp::Sub, a, b) => {
            lin(cx, a, vbox)?.add(lin(cx, b, vbox)?.negated())?
        }
        TermData::Arith(ArithOp::Mul, a, b) => {
            let la = lin(cx, a, vbox)?;
            let lb = lin(cx, b, vbox)?;
            let scale = |l: Lin, c: i128| -> Option<Lin> {
                match c {
                    0 => Some(Lin::constant(0)),
                    1 => Some(l),
                    -1 => Some(l.negated()),
                    _ if l.pos.is_none() && l.neg.is_none() => {
                        let v = l.k.checked_mul(c)?;
                        Some(Lin::constant(v))
                    }
                    _ => None,
                }
            };
            if la.pos.is_none() && la.neg.is_none() {
                scale(lb, la.k)?
            } else if lb.pos.is_none() && lb.neg.is_none() {
                scale(la, lb.k)?
            } else {
                return None;
            }
        }
        _ => return None,
    };
    if !out.fits_i64() {
        return None;
    }
    Some(out)
}

/// Appends the difference edges entailed by asserting `c` with the given
/// polarity. Conjunctions descend under positive polarity, disjunctions
/// under negative (De Morgan); comparisons decompose through [`lin`].
/// Constraints outside the fragment contribute nothing.
fn constraint_edges(cx: Ctx<'_>, c: TermId, polarity: bool, vbox: &VarBox, out: &mut Vec<Edge>) {
    match cx.pool.data(c) {
        // An asserted constant `false`: a weight `-1` self-loop on the
        // zero node is the canonical contradiction edge.
        TermData::BoolConst(b) if b != polarity => out.push(Edge {
            src: 0,
            dst: 0,
            weight: -1,
        }),
        // A boolean variable asserted outright: `b ≥ 1` (or `b ≤ 0`
        // negated) over its `[0, 1]` box encoding.
        TermData::Var(v) => {
            let Some(slot) = cx.layout.slot_index(v) else {
                return;
            };
            let node = slot as u32 + 1;
            out.push(if polarity {
                Edge {
                    src: node,
                    dst: 0,
                    weight: -1,
                }
            } else {
                Edge {
                    src: 0,
                    dst: node,
                    weight: 0,
                }
            });
        }
        TermData::Not(a) => constraint_edges(cx, a, !polarity, vbox, out),
        TermData::And(a, b) if polarity => {
            constraint_edges(cx, a, true, vbox, out);
            constraint_edges(cx, b, true, vbox, out);
        }
        TermData::Or(a, b) if !polarity => {
            constraint_edges(cx, a, false, vbox, out);
            constraint_edges(cx, b, false, vbox, out);
        }
        TermData::Cmp(op, a, b) => {
            let op = if polarity { op } else { op.negate() };
            let (Some(la), Some(lb)) = (lin(cx, a, vbox), lin(cx, b, vbox)) else {
                return;
            };
            match op {
                CmpOp::Le => le_edge(la, lb, 0, out),
                CmpOp::Lt => le_edge(la, lb, -1, out),
                CmpOp::Ge => le_edge(lb, la, 0, out),
                CmpOp::Gt => le_edge(lb, la, -1, out),
                CmpOp::Eq => {
                    le_edge(la, lb, 0, out);
                    le_edge(lb, la, 0, out);
                }
                // Disequality is disjunctive; no difference edge.
                CmpOp::Ne => {}
            }
        }
        _ => {}
    }
}

/// Emits the edge for `l ≤ r + slack` (slack `-1` encodes strict `<`):
/// with `d = l - r` in `±p ∓ n + k` form, the constraint is
/// `p - n ≤ slack - k`.
fn le_edge(l: Lin, r: Lin, slack: i128, out: &mut Vec<Edge>) {
    let Some(d) = l.add(r.negated()) else {
        return;
    };
    out.push(Edge {
        src: d.neg.unwrap_or(0),
        dst: d.pos.unwrap_or(0),
        weight: slack - d.k,
    });
}

/// Relational root refutation: decomposes the live constraints (in the
/// caller's canonical order) plus the contracted box into difference
/// edges and looks for a negative cycle. `Some(cycle)` is a proof that no
/// point of the box satisfies the conjunction; `None` carries no
/// information. Deterministic: a pure function of `(live order, box)`.
pub(crate) fn zone_refute(
    cx: Ctx<'_>,
    live: &[TermId],
    vbox: &VarBox,
    scratch: &mut ZoneScratch,
) -> Option<Vec<ZoneEdge>> {
    let ZoneScratch { edges, dist, pred } = scratch;
    edges.clear();
    for &c in live {
        constraint_edges(cx, c, true, vbox, edges);
    }
    if edges.is_empty() {
        // Box bounds alone describe a non-empty box; no cycle possible.
        return None;
    }
    // The box's own bounds, in slot order.
    for slot in 0..vbox.len() {
        let iv = vbox.at(slot);
        let node = slot as u32 + 1;
        edges.push(Edge {
            src: 0,
            dst: node,
            weight: iv.hi() as i128,
        });
        edges.push(Edge {
            src: node,
            dst: 0,
            weight: -(iv.lo() as i128),
        });
    }
    let cycle = bellman_ford(vbox.len() + 1, edges, dist, pred)?;
    let var = |node: u32| (node > 0).then(|| cx.layout.vars()[node as usize - 1]);
    let out: Vec<ZoneEdge> = cycle
        .iter()
        .map(|e| ZoneEdge {
            src: var(e.src),
            dst: var(e.dst),
            weight: e.weight,
        })
        .collect();
    // Defensive re-verification before claiming anything: the edges must
    // chain (each dst is the next src) and telescope to a negative sum.
    let chained = out
        .iter()
        .zip(out.iter().cycle().skip(1))
        .all(|(e, next)| e.dst == next.src);
    if !chained || out.iter().map(|e| e.weight).sum::<i128>() >= 0 {
        return None;
    }
    Some(out)
}

/// Bellman–Ford negative-cycle detection over the difference graph of `n`
/// nodes, with predecessor-edge extraction of one witness cycle.
/// Distances start at zero everywhere (a virtual source connected to every
/// node), so any negative cycle is found regardless of reachability. Runs
/// `n` full relaxation passes; a relaxation in the final pass proves a
/// cycle, and walking the predecessor chain `n` steps lands inside it.
fn bellman_ford(
    n: usize,
    edges: &[Edge],
    dist: &mut Vec<i128>,
    pred: &mut Vec<Option<u32>>,
) -> Option<Vec<Edge>> {
    dist.clear();
    dist.resize(n, 0);
    pred.clear();
    pred.resize(n, None);
    let mut flagged: Option<usize> = None;
    'passes: for pass in 0..n {
        let mut any = false;
        for (ei, e) in edges.iter().enumerate() {
            let (s, d) = (e.src as usize, e.dst as usize);
            let via = dist[s] + e.weight;
            if via < dist[d] {
                dist[d] = via;
                pred[d] = Some(ei as u32);
                any = true;
                if pass == n - 1 {
                    flagged = Some(d);
                    break 'passes;
                }
            }
        }
        if !any {
            return None;
        }
    }
    let mut x = flagged?;
    // Walk back n steps to guarantee we are on the cycle itself, not a
    // tail hanging off it.
    for _ in 0..n {
        x = edges[pred[x]? as usize].src as usize;
    }
    let first = x;
    let mut cycle: Vec<Edge> = Vec::new();
    loop {
        let e = edges[pred[x]? as usize];
        cycle.push(e);
        x = e.src as usize;
        if x == first {
            break;
        }
        if cycle.len() > n {
            return None;
        }
    }
    cycle.reverse();
    Some(cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::solver::{BoxLayout, Domains, VarBox};
    use crate::term::{Sort, TermPool};

    fn setup() -> (TermPool, Vec<VarId>) {
        let mut pool = TermPool::new();
        let x = pool.var("x", Sort::Int);
        let y = pool.var("y", Sort::Int);
        let z = pool.var("z", Sort::Int);
        (pool, vec![x, y, z])
    }

    fn boxed(pool: &TermPool, vars: &[VarId], lo: i64, hi: i64) -> (BoxLayout, VarBox) {
        let mut d = Domains::new();
        let mut layout = BoxLayout::default();
        for &v in vars {
            d.bound(v, lo, hi);
            layout.insert(v);
        }
        let mut vbox = VarBox::default();
        vbox.reset(pool, &layout, &d, Interval::of(lo, hi));
        (layout, vbox)
    }

    fn zone_refute(
        pool: &TermPool,
        live: &[TermId],
        (layout, vbox): &(BoxLayout, VarBox),
    ) -> Option<Vec<ZoneEdge>> {
        let cx = Ctx { pool, layout };
        super::zone_refute(cx, live, vbox, &mut ZoneScratch::default())
    }

    /// The `Vec`-based cancellation [`Lin::add`] replaced, kept as its
    /// oracle.
    fn add_by_vecs(a: Lin, b: Lin) -> Option<Lin> {
        let mut pos: Vec<u32> = [a.pos, b.pos].into_iter().flatten().collect();
        let mut neg: Vec<u32> = [a.neg, b.neg].into_iter().flatten().collect();
        let mut i = 0;
        while i < pos.len() {
            if let Some(j) = neg.iter().position(|&v| v == pos[i]) {
                pos.remove(i);
                neg.remove(j);
            } else {
                i += 1;
            }
        }
        if pos.len() > 1 || neg.len() > 1 {
            return None;
        }
        Some(Lin {
            pos: pos.first().copied(),
            neg: neg.first().copied(),
            k: a.k + b.k,
            lo: a.lo + b.lo,
            hi: a.hi + b.hi,
        })
    }

    #[test]
    fn allocation_free_add_matches_the_vec_cancellation() {
        // Every `pos`/`neg` combination of both operands over
        // {none, x, y, z}.
        let vars = [None, Some(1), Some(2), Some(3)];
        let lin = |pos, neg| Lin {
            pos,
            neg,
            k: 0,
            lo: 0,
            hi: 0,
        };
        let mut cancelled = 0;
        for i in 0..vars.len().pow(4) {
            let [ap, an, bp, bn] = [0, 1, 2, 3].map(|k| vars[i / vars.len().pow(k) % vars.len()]);
            let (a, b) = (lin(ap, an), lin(bp, bn));
            let got = a.add(b).map(|l| (l.pos, l.neg));
            let want = add_by_vecs(a, b).map(|l| (l.pos, l.neg));
            assert_eq!(got, want, "({ap:?} - {an:?}) + ({bp:?} - {bn:?})");
            cancelled += usize::from(got.is_some_and(|(p, n)| p.is_none() && n.is_none()));
        }
        assert!(cancelled > 0, "no combination cancelled fully");
    }

    #[test]
    fn strict_order_cycle_is_refuted() {
        let (mut pool, vars) = setup();
        let (x, y) = (vars[0], vars[1]);
        let xv = pool.var_term(x);
        let yv = pool.var_term(y);
        let a = pool.lt(xv, yv);
        let b = pool.lt(yv, xv);
        let vbox = boxed(&pool, &[x, y], -1000, 1000);
        let cycle = zone_refute(&pool, &[a, b], &vbox).expect("x<y && y<x must cycle");
        assert!(cycle.iter().map(|e| e.weight).sum::<i128>() < 0);
        // Both edges come from the constraints, not the bounds.
        assert!(cycle.iter().all(|e| e.src.is_some() && e.dst.is_some()));
    }

    #[test]
    fn offset_chain_with_bounds_is_refuted() {
        // x >= 90, y <= 10, x - y <= 5: needs bound edges to close.
        let (mut pool, vars) = setup();
        let (x, y) = (vars[0], vars[1]);
        let xv = pool.var_term(x);
        let yv = pool.var_term(y);
        let c90 = pool.int(90);
        let c10 = pool.int(10);
        let c5 = pool.int(5);
        let d = pool.sub(xv, yv);
        let a = pool.ge(xv, c90);
        let b = pool.le(yv, c10);
        let c = pool.le(d, c5);
        let vbox = boxed(&pool, &[x, y], -1000, 1000);
        assert!(zone_refute(&pool, &[a, b, c], &vbox).is_some());
        // Dropping the difference constraint makes it satisfiable.
        assert!(zone_refute(&pool, &[a, b], &vbox).is_none());
    }

    #[test]
    fn equality_produces_both_directions() {
        // x == y + 3 && x <= y is a 2-cycle through the Eq edges.
        let (mut pool, vars) = setup();
        let (x, y) = (vars[0], vars[1]);
        let xv = pool.var_term(x);
        let yv = pool.var_term(y);
        let c3 = pool.int(3);
        let y3 = pool.add(yv, c3);
        let a = pool.eq(xv, y3);
        let b = pool.le(xv, yv);
        let vbox = boxed(&pool, &[x, y], -1000, 1000);
        assert!(zone_refute(&pool, &[a, b], &vbox).is_some());
    }

    #[test]
    fn satisfiable_chain_finds_no_cycle() {
        let (mut pool, vars) = setup();
        let (x, y, z) = (vars[0], vars[1], vars[2]);
        let xv = pool.var_term(x);
        let yv = pool.var_term(y);
        let zv = pool.var_term(z);
        let a = pool.lt(xv, yv);
        let b = pool.lt(yv, zv);
        let vbox = boxed(&pool, &[x, y, z], -1000, 1000);
        assert!(zone_refute(&pool, &[a, b], &vbox).is_none());
    }

    #[test]
    fn saturation_guard_drops_wide_terms() {
        // With ±2^62 domains the node `x - y` ranges over ±2^63, beyond
        // `i64` — concrete evaluation could saturate, so the guard must
        // refuse the decomposition even though the conjunction
        // (x-y > 5) ∧ (x-y < 0) is unsatisfiable.
        let (mut pool, vars) = setup();
        let (x, y) = (vars[0], vars[1]);
        let xv = pool.var_term(x);
        let yv = pool.var_term(y);
        let s = pool.sub(xv, yv);
        let five = pool.int(5);
        let zero = pool.int(0);
        let c = pool.gt(s, five);
        let c2 = pool.lt(s, zero);
        let wide = boxed(&pool, &[x, y], Interval::MIN_BOUND, Interval::MAX_BOUND);
        assert!(zone_refute(&pool, &[c, c2], &wide).is_none());
        // In a narrow box the same constraints decompose and refute.
        let narrow = boxed(&pool, &[x, y], -100, 100);
        assert!(zone_refute(&pool, &[c, c2], &narrow).is_some());
    }

    #[test]
    fn multiplication_by_one_and_cancellation_normalize() {
        // 1*x - x + y < y  ⟺  0 < 0: contradiction via cancellation.
        let (mut pool, vars) = setup();
        let (x, y) = (vars[0], vars[1]);
        let xv = pool.var_term(x);
        let yv = pool.var_term(y);
        let one = pool.int(1);
        let mx = pool.mul(one, xv);
        let d = pool.sub(mx, xv);
        let s = pool.add(d, yv);
        let c = pool.lt(s, yv);
        let vbox = boxed(&pool, &[x, y], -50, 50);
        assert!(zone_refute(&pool, &[c], &vbox).is_some());
    }
}
