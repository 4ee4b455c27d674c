//! Parameter-space regions: disjunctions of axis-aligned integer boxes.
//!
//! An abstract patch's parameter constraint `T_ρ(A)` (paper §3.1) is
//! represented as a [`Region`] over the ordered parameter variables `A`.
//! This module implements the exact operations used by the paper's
//! Algorithm 3:
//!
//! * [`Region::split_at`] — the `Split` function: remove a counterexample
//!   point, decomposing the box containing it into up to `3^n − 1` boxes;
//! * [`Region::merged`] — the `Merge` function: coalesce face-adjacent boxes;
//! * [`Region::volume`] — exact model counting, which produces the
//!   `# Concrete Patches` column of the paper's Figure 1;
//! * [`Region::to_term`] — the first-order encoding of `T_ρ(A)` that is
//!   conjoined into solver queries.

use std::fmt;

use crate::interval::Interval;
use crate::model::Model;
use crate::term::{TermId, TermPool, VarId};

/// An axis-aligned box: one interval per parameter, aligned with the
/// parameter order of the owning [`Region`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParamBox {
    ivs: Vec<Interval>,
}

impl ParamBox {
    /// Creates a box from per-parameter intervals.
    pub fn new(ivs: Vec<Interval>) -> Self {
        ParamBox { ivs }
    }

    /// The intervals of this box, in parameter order.
    pub fn intervals(&self) -> &[Interval] {
        &self.ivs
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.ivs.len()
    }

    /// Number of integer points inside the box (saturating).
    pub fn volume(&self) -> u128 {
        self.ivs
            .iter()
            .fold(1u128, |acc, iv| acc.saturating_mul(iv.width() as u128))
    }

    /// Whether the point (one value per dimension) lies inside.
    pub fn contains(&self, point: &[i64]) -> bool {
        self.ivs.len() == point.len() && self.ivs.iter().zip(point).all(|(iv, &v)| iv.contains(v))
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains_box(&self, other: &ParamBox) -> bool {
        self.ivs
            .iter()
            .zip(&other.ivs)
            .all(|(a, b)| a.contains_interval(*b))
    }

    /// A representative point (the midpoint in every dimension).
    pub fn sample(&self) -> Vec<i64> {
        self.ivs.iter().map(|iv| iv.midpoint()).collect()
    }

    /// Tries to merge with `other`: succeeds when the boxes agree in all
    /// dimensions except one, in which they are contiguous or overlapping.
    pub fn try_merge(&self, other: &ParamBox) -> Option<ParamBox> {
        if self.dims() != other.dims() {
            return None;
        }
        let mut differing = None;
        for (i, (a, b)) in self.ivs.iter().zip(&other.ivs).enumerate() {
            if a != b {
                if differing.is_some() {
                    return None;
                }
                differing = Some(i);
            }
        }
        let Some(i) = differing else {
            return Some(self.clone()); // identical boxes
        };
        let a = self.ivs[i];
        let b = other.ivs[i];
        // Contiguous or overlapping along dimension i?
        let touch = a.lo().saturating_sub(1) <= b.hi() && b.lo().saturating_sub(1) <= a.hi();
        if touch {
            let mut ivs = self.ivs.clone();
            ivs[i] = a.hull(b);
            Some(ParamBox { ivs })
        } else {
            None
        }
    }
}

impl fmt::Display for ParamBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, iv) in self.ivs.iter().enumerate() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "{iv}")?;
        }
        write!(f, ")")
    }
}

/// A parameter constraint: a finite union of integer boxes over an ordered
/// list of parameter variables. The empty region denotes `False` (the patch
/// has no surviving concrete instantiation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    params: Vec<VarId>,
    boxes: Vec<ParamBox>,
}

impl Region {
    /// The full region: every parameter ranges over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn full(params: Vec<VarId>, lo: i64, hi: i64) -> Self {
        let b = ParamBox::new(vec![Interval::of(lo, hi); params.len()]);
        Region {
            params,
            boxes: vec![b],
        }
    }

    /// The empty region over the given parameters (`T_ρ = False`).
    pub fn empty(params: Vec<VarId>) -> Self {
        Region {
            params,
            boxes: Vec::new(),
        }
    }

    /// A region made of explicit boxes.
    ///
    /// # Panics
    ///
    /// Panics if any box has a different dimensionality than `params`.
    pub fn from_boxes(params: Vec<VarId>, boxes: Vec<ParamBox>) -> Self {
        for b in &boxes {
            assert_eq!(b.dims(), params.len(), "box dimensionality mismatch");
        }
        Region { params, boxes }
    }

    /// The ordered parameter variables.
    pub fn params(&self) -> &[VarId] {
        &self.params
    }

    /// The boxes of the region.
    pub fn boxes(&self) -> &[ParamBox] {
        &self.boxes
    }

    /// Whether the region denotes `False`.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty() || (!self.params.is_empty() && self.volume() == 0)
    }

    /// Whether this region is trivially `True` (no parameters at all).
    pub fn is_trivial(&self) -> bool {
        self.params.is_empty()
    }

    /// Exact number of concrete parameter assignments covered (the volume
    /// of the *union* of the boxes — overlapping boxes are not counted
    /// twice). A region with no parameters counts as `1` (one concrete
    /// patch).
    pub fn volume(&self) -> u128 {
        if self.params.is_empty() {
            return if self.boxes.is_empty() { 0 } else { 1 };
        }
        // Disjointify box by box: each box contributes the parts not
        // covered by earlier boxes.
        let mut covered: Vec<ParamBox> = Vec::with_capacity(self.boxes.len());
        let mut total: u128 = 0;
        for b in &self.boxes {
            let mut frontier = vec![b.clone()];
            for earlier in &covered {
                let mut next = Vec::with_capacity(frontier.len());
                for f in frontier {
                    next.extend(subtract_box(&f, earlier));
                }
                frontier = next;
                if frontier.is_empty() {
                    break;
                }
            }
            total = total.saturating_add(frontier.iter().map(ParamBox::volume).sum::<u128>());
            covered.push(b.clone());
        }
        total
    }

    /// Whether the region contains the given point (values aligned with
    /// [`Region::params`]).
    pub fn contains_point(&self, point: &[i64]) -> bool {
        self.boxes.iter().any(|b| b.contains(point))
    }

    /// Whether the region contains the assignment in `model`
    /// (missing parameters default to `0`).
    pub fn contains_model(&self, model: &Model) -> bool {
        let point: Vec<i64> = self
            .params
            .iter()
            .map(|&p| model.int(p).unwrap_or(0))
            .collect();
        self.contains_point(&point)
    }

    /// A representative assignment (from the first box), or `None` if empty.
    pub fn sample(&self) -> Option<Model> {
        let b = self.boxes.first()?;
        let mut m = Model::new();
        for (&p, v) in self.params.iter().zip(b.sample()) {
            m.set(p, v);
        }
        Some(m)
    }

    /// All representative assignments, one per box.
    pub fn samples(&self) -> Vec<Model> {
        self.boxes
            .iter()
            .map(|b| {
                let mut m = Model::new();
                for (&p, v) in self.params.iter().zip(b.sample()) {
                    m.set(p, v);
                }
                m
            })
            .collect()
    }

    /// The paper's `Split` function: removes the counterexample `point` from
    /// the region. The box containing the point is decomposed into up to
    /// `3^n − 1` sub-boxes (below/at/above the point in each dimension, minus
    /// the all-at cell); other boxes are kept untouched.
    ///
    /// Returns the resulting sub-regions, one per surviving box, so that the
    /// caller (Algorithm 3) can recursively refine each region separately.
    pub fn split_at(&self, point: &[i64]) -> Vec<Region> {
        let mut out: Vec<ParamBox> = Vec::new();
        for b in &self.boxes {
            if b.contains(point) {
                decompose_around(b, point, &mut out);
            } else {
                out.push(b.clone());
            }
        }
        out.into_iter()
            .map(|b| Region {
                params: self.params.clone(),
                boxes: vec![b],
            })
            .collect()
    }

    /// Union of several regions over the same parameters.
    ///
    /// # Panics
    ///
    /// Panics if the regions have different parameter lists.
    pub fn union<I: IntoIterator<Item = Region>>(params: Vec<VarId>, regions: I) -> Region {
        let mut boxes = Vec::new();
        for r in regions {
            assert_eq!(r.params, params, "region parameter mismatch");
            boxes.extend(r.boxes);
        }
        Region { params, boxes }
    }

    /// The paper's `Merge` function: coalesces face-adjacent or overlapping
    /// boxes and removes subsumed boxes, until a fixpoint.
    pub fn merged(&self) -> Region {
        let mut boxes = self.boxes.clone();
        // Drop exact duplicates and subsumed boxes first.
        boxes.dedup();
        let mut changed = true;
        while changed {
            changed = false;
            // Subsumption.
            let mut keep: Vec<ParamBox> = Vec::with_capacity(boxes.len());
            'outer: for (i, b) in boxes.iter().enumerate() {
                for (j, other) in boxes.iter().enumerate() {
                    if i != j && other.contains_box(b) && !(b.contains_box(other) && i < j) {
                        changed = true;
                        continue 'outer;
                    }
                }
                keep.push(b.clone());
            }
            boxes = keep;
            // Pairwise merging.
            'merge: for i in 0..boxes.len() {
                for j in (i + 1)..boxes.len() {
                    if let Some(m) = boxes[i].try_merge(&boxes[j]) {
                        boxes.swap_remove(j);
                        boxes[i] = m;
                        changed = true;
                        break 'merge;
                    }
                }
            }
        }
        Region {
            params: self.params.clone(),
            boxes,
        }
    }

    /// Encodes the region as a term: the disjunction over boxes of the
    /// conjunction of `lo ≤ aᵢ ∧ aᵢ ≤ hi` bounds. The empty region encodes
    /// `false`; a parameterless region encodes `true`.
    pub fn to_term(&self, pool: &mut TermPool) -> TermId {
        if self.params.is_empty() {
            return if self.boxes.is_empty() {
                pool.ff()
            } else {
                pool.tt()
            };
        }
        let mut disjuncts = Vec::with_capacity(self.boxes.len());
        for b in &self.boxes {
            let mut conj = Vec::with_capacity(self.params.len() * 2);
            for (&p, iv) in self.params.iter().zip(b.intervals()) {
                let pv = pool.var_term(p);
                if iv.is_point() {
                    let c = pool.int(iv.lo());
                    conj.push(pool.eq(pv, c));
                } else {
                    let lo = pool.int(iv.lo());
                    let hi = pool.int(iv.hi());
                    let a = pool.ge(pv, lo);
                    let b2 = pool.le(pv, hi);
                    conj.push(a);
                    conj.push(b2);
                }
            }
            disjuncts.push(pool.and_many(conj));
        }
        pool.or_many(disjuncts)
    }

    /// Renders the region compactly for reports, e.g.
    /// `a ∈ [-10, 4]` or `(a=[0,0] × b=[0,0]) ∨ …`.
    pub fn display(&self, pool: &TermPool) -> String {
        if self.boxes.is_empty() {
            return "False".to_owned();
        }
        if self.params.is_empty() {
            return "True".to_owned();
        }
        let mut parts = Vec::new();
        for b in &self.boxes {
            let mut dims = Vec::new();
            for (&p, iv) in self.params.iter().zip(b.intervals()) {
                if iv.is_point() {
                    dims.push(format!("{}={}", pool.var_name(p), iv.lo()));
                } else {
                    dims.push(format!("{} ∈ {}", pool.var_name(p), iv));
                }
            }
            parts.push(dims.join(" ∧ "));
        }
        parts.join(" ∨ ")
    }
}

/// Computes `b \ cover` as a set of disjoint boxes (at most `2·dims`):
/// slice off the slabs of `b` outside `cover` along each dimension.
fn subtract_box(b: &ParamBox, cover: &ParamBox) -> Vec<ParamBox> {
    // Fast paths: disjoint or fully covered.
    let overlaps = b
        .intervals()
        .iter()
        .zip(cover.intervals())
        .all(|(x, c)| x.intersect(*c).is_some());
    if !overlaps {
        return vec![b.clone()];
    }
    if cover.contains_box(b) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut rest: Vec<Interval> = b.intervals().to_vec();
    for d in 0..b.dims() {
        let bi = rest[d];
        let ci = cover.intervals()[d];
        // Slab below the cover along dimension d.
        if let Some(below) = Interval::new(bi.lo(), ci.lo().saturating_sub(1)) {
            if let Some(below) = below.intersect(bi) {
                let mut ivs = rest.clone();
                ivs[d] = below;
                out.push(ParamBox::new(ivs));
            }
        }
        // Slab above the cover along dimension d.
        if let Some(above) = Interval::new(ci.hi().saturating_add(1), bi.hi()) {
            if let Some(above) = above.intersect(bi) {
                let mut ivs = rest.clone();
                ivs[d] = above;
                out.push(ParamBox::new(ivs));
            }
        }
        // Continue with the middle band only.
        match bi.intersect(ci) {
            Some(mid) => rest[d] = mid,
            None => return out, // unreachable given the overlap fast path
        }
    }
    out
}

/// Decomposes `b` into the boxes covering `b \ {point}`: for each dimension
/// three slices (below, at, above the point value), all combinations except
/// the all-`at` cell.
fn decompose_around(b: &ParamBox, point: &[i64], out: &mut Vec<ParamBox>) {
    let n = b.dims();
    debug_assert_eq!(n, point.len());
    // Per-dimension slices with a marker of whether the slice is the "at"
    // slice.
    let mut slices: Vec<Vec<(Interval, bool)>> = Vec::with_capacity(n);
    for (iv, &p) in b.intervals().iter().zip(point) {
        let mut s = Vec::with_capacity(3);
        if let Some(below) = Interval::new(iv.lo(), p - 1) {
            s.push((below, false));
        }
        s.push((Interval::point(p), true));
        if let Some(above) = Interval::new(p + 1, iv.hi()) {
            s.push((above, false));
        }
        slices.push(s);
    }
    // Enumerate the cartesian product, skipping the all-"at" combination.
    let mut idx = vec![0usize; n];
    loop {
        let all_at = (0..n).all(|d| slices[d][idx[d]].1);
        if !all_at {
            let ivs = (0..n).map(|d| slices[d][idx[d]].0).collect();
            out.push(ParamBox::new(ivs));
        }
        // Increment the multi-index.
        let mut d = 0;
        loop {
            if d == n {
                return;
            }
            idx[d] += 1;
            if idx[d] < slices[d].len() {
                break;
            }
            idx[d] = 0;
            d += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sort;

    fn params(pool: &mut TermPool, names: &[&str]) -> Vec<VarId> {
        names.iter().map(|n| pool.var(n, Sort::Int)).collect()
    }

    #[test]
    fn full_region_volume() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a"]);
        let r = Region::full(ps, -10, 10);
        assert_eq!(r.volume(), 21);
        assert!(!r.is_empty());
    }

    #[test]
    fn two_param_volume() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a", "b"]);
        let r = Region::full(ps, -10, 10);
        assert_eq!(r.volume(), 21 * 21);
    }

    #[test]
    fn split_removes_exactly_one_point_1d() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a"]);
        let r = Region::full(ps.clone(), -10, 10);
        let parts = r.split_at(&[3]);
        let merged = Region::union(ps, parts);
        assert_eq!(merged.volume(), 20);
        assert!(!merged.contains_point(&[3]));
        assert!(merged.contains_point(&[2]));
        assert!(merged.contains_point(&[4]));
    }

    #[test]
    fn split_removes_exactly_one_point_2d() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a", "b"]);
        let r = Region::full(ps.clone(), 0, 4);
        let parts = r.split_at(&[2, 2]);
        // 3^2 - 1 = 8 sub-boxes for an interior point.
        assert_eq!(parts.len(), 8);
        let merged = Region::union(ps, parts);
        assert_eq!(merged.volume(), 24);
        assert!(!merged.contains_point(&[2, 2]));
        assert!(merged.contains_point(&[2, 3]));
    }

    #[test]
    fn split_at_corner_produces_fewer_boxes() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a", "b"]);
        let r = Region::full(ps.clone(), 0, 4);
        let parts = r.split_at(&[0, 0]);
        // Corner point: 2^2 - 1 = 3 sub-boxes.
        assert_eq!(parts.len(), 3);
        let merged = Region::union(ps, parts);
        assert_eq!(merged.volume(), 24);
    }

    #[test]
    fn split_point_outside_keeps_region() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a"]);
        let r = Region::full(ps.clone(), 0, 4);
        let parts = r.split_at(&[99]);
        let merged = Region::union(ps, parts);
        assert_eq!(merged.volume(), 5);
    }

    #[test]
    fn merge_coalesces_adjacent() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a"]);
        let r = Region::from_boxes(
            ps,
            vec![
                ParamBox::new(vec![Interval::of(0, 3)]),
                ParamBox::new(vec![Interval::of(4, 9)]),
            ],
        );
        let m = r.merged();
        assert_eq!(m.boxes().len(), 1);
        assert_eq!(m.volume(), 10);
    }

    #[test]
    fn merge_keeps_gaps() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a"]);
        let r = Region::from_boxes(
            ps,
            vec![
                ParamBox::new(vec![Interval::of(0, 3)]),
                ParamBox::new(vec![Interval::of(5, 9)]),
            ],
        );
        let m = r.merged();
        assert_eq!(m.boxes().len(), 2);
        assert_eq!(m.volume(), 9);
    }

    #[test]
    fn merge_removes_subsumed() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a", "b"]);
        let r = Region::from_boxes(
            ps,
            vec![
                ParamBox::new(vec![Interval::of(0, 9), Interval::of(0, 9)]),
                ParamBox::new(vec![Interval::of(2, 3), Interval::of(2, 3)]),
            ],
        );
        let m = r.merged();
        assert_eq!(m.boxes().len(), 1);
        assert_eq!(m.volume(), 100);
    }

    #[test]
    fn split_then_merge_roundtrip_2d() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a", "b"]);
        let r = Region::full(ps.clone(), -10, 10);
        let before = r.volume();
        let parts = r.split_at(&[0, 0]);
        let merged = Region::union(ps, parts).merged();
        assert_eq!(merged.volume(), before - 1);
    }

    #[test]
    fn to_term_encodes_bounds() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a"]);
        let r = Region::full(ps.clone(), -10, 10);
        let t = r.to_term(&mut p);
        let mut m = Model::new();
        m.set(ps[0], 5i64);
        assert!(m.eval_bool(&p, t));
        m.set(ps[0], 11i64);
        assert!(!m.eval_bool(&p, t));
    }

    #[test]
    fn to_term_point_is_equality() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a"]);
        let r = Region::from_boxes(ps.clone(), vec![ParamBox::new(vec![Interval::point(0)])]);
        let t = r.to_term(&mut p);
        assert_eq!(p.display(t), "(= a 0)");
    }

    #[test]
    fn empty_and_trivial_regions() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a"]);
        let e = Region::empty(ps);
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0);
        let t = e.to_term(&mut p);
        assert_eq!(p.display(t), "false");

        let trivial = Region::from_boxes(Vec::new(), vec![ParamBox::new(Vec::new())]);
        assert!(trivial.is_trivial());
        assert_eq!(trivial.volume(), 1);
        let tt = trivial.to_term(&mut p);
        assert_eq!(p.display(tt), "true");
    }

    #[test]
    fn contains_model_defaults_missing_to_zero() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a"]);
        let r = Region::full(ps, -1, 1);
        let m = Model::new();
        assert!(r.contains_model(&m));
    }

    #[test]
    fn sample_lies_inside() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a", "b"]);
        let r = Region::full(ps.clone(), -7, 13);
        let s = r.sample().unwrap();
        let point: Vec<i64> = ps.iter().map(|&v| s.int(v).unwrap()).collect();
        assert!(r.contains_point(&point));
    }

    #[test]
    fn union_volume_does_not_double_count_overlaps() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a", "b"]);
        // The paper's Figure-1 patch 3 constraint:
        // (a = 7 ∧ b ∈ [-10, 10]) ∨ (b = 0 ∧ a ∈ [-10, 10]) — 41 points.
        let r = Region::from_boxes(
            ps,
            vec![
                ParamBox::new(vec![Interval::point(7), Interval::of(-10, 10)]),
                ParamBox::new(vec![Interval::of(-10, 10), Interval::point(0)]),
            ],
        );
        assert_eq!(r.volume(), 41);
    }

    #[test]
    fn union_volume_identical_boxes() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a"]);
        let bx = ParamBox::new(vec![Interval::of(0, 9)]);
        let r = Region::from_boxes(ps, vec![bx.clone(), bx]);
        assert_eq!(r.volume(), 10);
    }

    #[test]
    fn union_volume_partial_overlap_1d() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a"]);
        let r = Region::from_boxes(
            ps,
            vec![
                ParamBox::new(vec![Interval::of(0, 5)]),
                ParamBox::new(vec![Interval::of(3, 9)]),
            ],
        );
        assert_eq!(r.volume(), 10);
    }

    #[test]
    fn display_readable() {
        let mut p = TermPool::new();
        let ps = params(&mut p, &["a"]);
        let r = Region::full(ps, -10, 4);
        assert_eq!(r.display(&p), "a ∈ [-10, 4]");
    }
}
