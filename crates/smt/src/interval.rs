//! Closed integer intervals with saturating arithmetic and the
//! forward/backward contractors used by the branch-and-prune solver.
//!
//! All interval endpoints are clamped to [`Interval::MIN_BOUND`] and
//! [`Interval::MAX_BOUND`] so that interval arithmetic itself can never
//! overflow `i64` (intermediate products are computed in `i128`).

use std::fmt;

/// A non-empty closed integer interval `[lo, hi]`.
///
/// Empty results of interval operations are represented as `Option<Interval>`
/// (`None` = empty set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    lo: i64,
    hi: i64,
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

fn clamp(v: i128) -> i64 {
    if v < Interval::MIN_BOUND as i128 {
        Interval::MIN_BOUND
    } else if v > Interval::MAX_BOUND as i128 {
        Interval::MAX_BOUND
    } else {
        v as i64
    }
}

impl Interval {
    /// Smallest representable endpoint (−2⁶²): leaves headroom so sums of two
    /// endpoints still fit in `i64`.
    pub const MIN_BOUND: i64 = -(1 << 62);
    /// Largest representable endpoint (2⁶²).
    pub const MAX_BOUND: i64 = 1 << 62;

    /// The full representable range.
    pub const TOP: Interval = Interval {
        lo: Self::MIN_BOUND,
        hi: Self::MAX_BOUND,
    };

    /// Creates `[lo, hi]`. Returns `None` when `lo > hi` (empty).
    pub fn new(lo: i64, hi: i64) -> Option<Interval> {
        let lo = clamp(lo as i128);
        let hi = clamp(hi as i128);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Creates `[lo, hi]`, panicking on an empty range.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn of(lo: i64, hi: i64) -> Interval {
        Interval::new(lo, hi).expect("empty interval")
    }

    /// The singleton interval `[v, v]`.
    pub fn point(v: i64) -> Interval {
        let v = clamp(v as i128);
        Interval { lo: v, hi: v }
    }

    /// Lower endpoint.
    pub fn lo(self) -> i64 {
        self.lo
    }

    /// Upper endpoint.
    pub fn hi(self) -> i64 {
        self.hi
    }

    /// Number of integers contained (saturating at `u64::MAX`).
    pub fn width(self) -> u64 {
        (self.hi as i128 - self.lo as i128 + 1).min(u64::MAX as i128) as u64
    }

    /// Whether this interval is a single point.
    pub fn is_point(self) -> bool {
        self.lo == self.hi
    }

    /// Whether `v` lies in the interval.
    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether `other` is fully inside `self`.
    pub fn contains_interval(self, other: Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Midpoint (rounded toward `lo`).
    pub fn midpoint(self) -> i64 {
        // Average in i128 to avoid endpoint-difference overflow.
        ((self.lo as i128 + self.hi as i128) >> 1) as i64
    }

    /// Intersection; `None` when disjoint.
    pub fn intersect(self, other: Interval) -> Option<Interval> {
        Interval::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Smallest interval containing both (convex hull).
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Forward addition: `{a + b | a ∈ self, b ∈ rhs}` (clamped).
    ///
    /// An inherent method rather than `std::ops::Add` so that calls work
    /// without a trait import (same for `sub`/`mul`/`neg`).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Interval) -> Interval {
        Interval {
            lo: clamp(self.lo as i128 + rhs.lo as i128),
            hi: clamp(self.hi as i128 + rhs.hi as i128),
        }
    }

    /// Forward subtraction.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Interval) -> Interval {
        Interval {
            lo: clamp(self.lo as i128 - rhs.hi as i128),
            hi: clamp(self.hi as i128 - rhs.lo as i128),
        }
    }

    /// Forward negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Interval {
        Interval {
            lo: clamp(-(self.hi as i128)),
            hi: clamp(-(self.lo as i128)),
        }
    }

    /// Forward multiplication (exact up to clamping).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Interval) -> Interval {
        let products = [
            self.lo as i128 * rhs.lo as i128,
            self.lo as i128 * rhs.hi as i128,
            self.hi as i128 * rhs.lo as i128,
            self.hi as i128 * rhs.hi as i128,
        ];
        let lo = products.iter().copied().min().unwrap();
        let hi = products.iter().copied().max().unwrap();
        Interval {
            lo: clamp(lo),
            hi: clamp(hi),
        }
    }

    /// Forward truncating division with the solver's *total* semantics
    /// (`x / 0 = 0`): an enclosure of `{a / b | a ∈ self, b ∈ rhs}`.
    pub fn div_total(self, rhs: Interval) -> Interval {
        let mut out: Option<Interval> = None;
        let mut push = |iv: Interval| {
            out = Some(match out {
                None => iv,
                Some(acc) => acc.hull(iv),
            });
        };
        if rhs.contains(0) {
            push(Interval::point(0));
        }
        // Positive divisors.
        if let Some(pos) = rhs.intersect(Interval::of(1, Self::MAX_BOUND)) {
            push(self.div_by_samesign(pos));
        }
        // Negative divisors.
        if let Some(neg) = rhs.intersect(Interval::of(Self::MIN_BOUND, -1)) {
            push(self.div_by_samesign(neg));
        }
        out.unwrap_or(Interval::point(0))
    }

    /// Division by an interval that does not straddle zero. Truncating
    /// division is monotone in the dividend for a fixed-sign divisor, so the
    /// extreme quotients occur at endpoint combinations.
    fn div_by_samesign(self, rhs: Interval) -> Interval {
        debug_assert!(!rhs.contains(0) || rhs.is_point() && rhs.lo == 0);
        // Endpoint quotients are computed in i128: i64 division overflows
        // (and `wrapping_div` silently flips sign) at MIN / -1, which would
        // yield an enclosure excluding representable quotients — an unsound
        // contraction that the solver must never perform.
        let q = [
            self.lo as i128 / rhs.lo as i128,
            self.lo as i128 / rhs.hi as i128,
            self.hi as i128 / rhs.lo as i128,
            self.hi as i128 / rhs.hi as i128,
        ];
        Interval {
            lo: clamp(*q.iter().min().unwrap()),
            hi: clamp(*q.iter().max().unwrap()),
        }
    }

    /// Forward remainder with total semantics (`x rem 0 = 0`). Returns a
    /// sound (possibly loose) enclosure based on `|r| < |b|` and
    /// `sign(r) = sign(a)`.
    pub fn rem_total(self, rhs: Interval) -> Interval {
        // Point-wise exact case, in i128 for the same MIN / -1 reason as
        // `div_by_samesign` (i128 gives the true remainder, 0, directly).
        if self.is_point() && rhs.is_point() {
            let b = rhs.lo;
            let r = if b == 0 {
                0
            } else {
                clamp(self.lo as i128 % b as i128)
            };
            return Interval::point(r);
        }
        let max_abs_b = rhs.lo.unsigned_abs().max(rhs.hi.unsigned_abs());
        let bound = if max_abs_b == 0 {
            0
        } else {
            (max_abs_b - 1).min(i64::MAX as u64) as i64
        };
        let lo = if self.lo < 0 { -bound } else { 0 };
        let hi = if self.hi > 0 { bound } else { 0 };
        // Remainder magnitude is also bounded by the dividend's magnitude.
        let lo = lo.max(self.lo.min(0));
        let hi = hi.min(self.hi.max(0));
        Interval { lo, hi }
    }

    /// Backward contractor for `z = x + y`: returns the refined `x` domain.
    pub fn back_add(z: Interval, y: Interval, x: Interval) -> Option<Interval> {
        x.intersect(z.sub(y))
    }

    /// Backward contractor for `z = x - y`, refining `x` (`x = z + y`).
    pub fn back_sub_lhs(z: Interval, y: Interval, x: Interval) -> Option<Interval> {
        x.intersect(z.add(y))
    }

    /// Backward contractor for `z = x - y`, refining `y` (`y = x - z`).
    pub fn back_sub_rhs(z: Interval, x: Interval, y: Interval) -> Option<Interval> {
        y.intersect(x.sub(z))
    }

    /// Backward contractor for `z = x * y`, refining `x`.
    ///
    /// Sound but incomplete: when `y` straddles zero no contraction happens
    /// unless `z` excludes zero, in which case `y = 0` is impossible and the
    /// two sign-halves are handled separately.
    pub fn back_mul(z: Interval, y: Interval, x: Interval) -> Option<Interval> {
        if y.contains(0) {
            if z.contains(0) {
                // x can be anything that reaches z with some y; give up.
                return Some(x);
            }
            // z != 0 forces y != 0; union of the two half contractions.
            let mut acc: Option<Interval> = None;
            for half in [
                y.intersect(Interval::of(1, Interval::MAX_BOUND)),
                y.intersect(Interval::of(Interval::MIN_BOUND, -1)),
            ]
            .into_iter()
            .flatten()
            {
                if let Some(c) = Self::back_mul_nonzero(z, half, x) {
                    acc = Some(match acc {
                        None => c,
                        Some(a) => a.hull(c),
                    });
                }
            }
            return acc;
        }
        Self::back_mul_nonzero(z, y, x)
    }

    /// `back_mul` for a divisor interval excluding zero. Uses the enclosure
    /// `x ∈ z /̃ y` where `/̃` is the rational-division hull widened by one to
    /// account for integer multiplication not being exactly invertible.
    fn back_mul_nonzero(z: Interval, y: Interval, x: Interval) -> Option<Interval> {
        debug_assert!(!y.contains(0));
        let cands = [
            (z.lo as i128, y.lo as i128),
            (z.lo as i128, y.hi as i128),
            (z.hi as i128, y.lo as i128),
            (z.hi as i128, y.hi as i128),
        ];
        let mut lo = i128::MAX;
        let mut hi = i128::MIN;
        for (a, b) in cands {
            // Floor and ceil of the rational a/b.
            let fd = a.div_euclid(b);
            let cd = if a.rem_euclid(b) == 0 { fd } else { fd + 1 };
            lo = lo.min(fd);
            hi = hi.max(cd);
        }
        x.intersect(Interval {
            lo: clamp(lo),
            hi: clamp(hi),
        })
    }

    /// Contract `self` to satisfy `self < other` (strictly below `other.hi`).
    pub fn below_strict(self, other: Interval) -> Option<Interval> {
        self.intersect(Interval::new(Self::MIN_BOUND, other.hi.saturating_sub(1))?)
    }

    /// Contract `self` to satisfy `self ≤ other`.
    pub fn below(self, other: Interval) -> Option<Interval> {
        self.intersect(Interval::of(Self::MIN_BOUND, other.hi))
    }

    /// Contract `self` to satisfy `self > other`.
    pub fn above_strict(self, other: Interval) -> Option<Interval> {
        self.intersect(Interval::new(other.lo.saturating_add(1), Self::MAX_BOUND)?)
    }

    /// Contract `self` to satisfy `self ≥ other`.
    pub fn above(self, other: Interval) -> Option<Interval> {
        self.intersect(Interval::of(other.lo, Self::MAX_BOUND))
    }

    /// Removes a point from the interval *if it is an endpoint* (interior
    /// removal would split the interval; callers needing that use
    /// [`crate::Region`] boxes).
    pub fn remove_endpoint(self, v: i64) -> Option<Interval> {
        if self.is_point() && self.lo == v {
            None
        } else if self.lo == v {
            Interval::new(v + 1, self.hi)
        } else if self.hi == v {
            Interval::new(self.lo, v - 1)
        } else {
            Some(self)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let i = Interval::of(-3, 7);
        assert_eq!(i.lo(), -3);
        assert_eq!(i.hi(), 7);
        assert_eq!(i.width(), 11);
        assert!(!i.is_point());
        assert!(Interval::point(4).is_point());
        assert!(Interval::new(3, 2).is_none());
    }

    #[test]
    fn intersect_and_hull() {
        let a = Interval::of(0, 10);
        let b = Interval::of(5, 20);
        assert_eq!(a.intersect(b), Some(Interval::of(5, 10)));
        assert_eq!(a.hull(b), Interval::of(0, 20));
        let c = Interval::of(30, 40);
        assert_eq!(a.intersect(c), None);
    }

    #[test]
    fn forward_arith() {
        let a = Interval::of(1, 3);
        let b = Interval::of(-2, 2);
        assert_eq!(a.add(b), Interval::of(-1, 5));
        assert_eq!(a.sub(b), Interval::of(-1, 5));
        assert_eq!(a.mul(b), Interval::of(-6, 6));
        assert_eq!(a.neg(), Interval::of(-3, -1));
    }

    #[test]
    fn mul_sign_cases() {
        let neg = Interval::of(-4, -2);
        let pos = Interval::of(3, 5);
        assert_eq!(neg.mul(pos), Interval::of(-20, -6));
        assert_eq!(neg.mul(neg), Interval::of(4, 16));
    }

    #[test]
    fn division_encloses_all_quotients() {
        let a = Interval::of(-7, 7);
        let b = Interval::of(-2, 3);
        let d = a.div_total(b);
        for x in -7..=7 {
            for y in -2..=3i64 {
                let q = if y == 0 { 0 } else { x / y };
                assert!(d.contains(q), "{x}/{y}={q} not in {d}");
            }
        }
    }

    #[test]
    fn rem_encloses_all_remainders() {
        let a = Interval::of(-9, 9);
        let b = Interval::of(-4, 4);
        let r = a.rem_total(b);
        for x in -9..=9 {
            for y in -4..=4i64 {
                let m = if y == 0 { 0 } else { x % y };
                assert!(r.contains(m), "{x}%{y}={m} not in {r}");
            }
        }
    }

    #[test]
    fn division_and_rem_are_sound_at_boundary_cross_products() {
        // Exhaustive sweep over every interval whose endpoints come from the
        // boundary set: all (lo <= hi) dividend/divisor pairs. Soundness is
        // checked against concrete total division/remainder (computed in
        // i128, the reference semantics) at the endpoint witnesses — the
        // extreme quotients of a monotone operation occur at endpoints, so
        // these are exactly the values an unsound contraction would drop.
        const B: [i64; 6] = [
            Interval::MIN_BOUND,
            Interval::MIN_BOUND + 1,
            -1,
            0,
            1,
            Interval::MAX_BOUND,
        ];
        let intervals: Vec<Interval> = B
            .iter()
            .flat_map(|&lo| {
                B.iter()
                    .filter(move |&&hi| lo <= hi)
                    .map(move |&hi| Interval::of(lo, hi))
            })
            .collect();
        let total_div = |x: i64, y: i64| {
            if y == 0 {
                0
            } else {
                clamp(x as i128 / y as i128)
            }
        };
        let total_rem = |x: i64, y: i64| {
            if y == 0 {
                0
            } else {
                clamp(x as i128 % y as i128)
            }
        };
        for &a in &intervals {
            for &b in &intervals {
                let d = a.div_total(b);
                let r = a.rem_total(b);
                assert!(
                    d.lo() >= Interval::MIN_BOUND && d.hi() <= Interval::MAX_BOUND,
                    "div {a}/{b} escaped the clamp bounds: {d}"
                );
                for x in [a.lo(), a.hi()] {
                    for y in [b.lo(), b.hi()] {
                        let q = total_div(x, y);
                        assert!(d.contains(q), "{x}/{y}={q} not in {d} (a={a} b={b})");
                        let m = total_rem(x, y);
                        assert!(r.contains(m), "{x}%{y}={m} not in {r} (a={a} b={b})");
                    }
                }
            }
        }
    }

    #[test]
    fn backward_add_contracts() {
        // z = x + y, z in [10,10], y in [3,4] => x in [6,7]
        let z = Interval::point(10);
        let y = Interval::of(3, 4);
        let x = Interval::of(-100, 100);
        assert_eq!(Interval::back_add(z, y, x), Some(Interval::of(6, 7)));
    }

    #[test]
    fn backward_mul_contracts() {
        // z = x * y, z = [6,6], y = [2,3] => x in [2,3]
        let z = Interval::point(6);
        let y = Interval::of(2, 3);
        let x = Interval::of(-100, 100);
        let c = Interval::back_mul(z, y, x).unwrap();
        assert!(c.contains(2) && c.contains(3));
        assert!(!c.contains(10) && !c.contains(-1));
    }

    #[test]
    fn backward_mul_zero_straddle_gives_up_soundly() {
        let z = Interval::of(-5, 5);
        let y = Interval::of(-2, 2);
        let x = Interval::of(-100, 100);
        assert_eq!(Interval::back_mul(z, y, x), Some(x));
    }

    #[test]
    fn backward_mul_nonzero_product_excludes_zero_divisor() {
        // z = x*y = [4,4], y=[-2,2]: y=0 impossible; x must lie in [-4,4].
        let z = Interval::point(4);
        let y = Interval::of(-2, 2);
        let x = Interval::of(-100, 100);
        let c = Interval::back_mul(z, y, x).unwrap();
        assert!(c.contains(2) && c.contains(-2) && c.contains(4) && c.contains(-4));
        assert!(!c.contains(50));
    }

    #[test]
    fn ordering_contractors() {
        let a = Interval::of(0, 10);
        let b = Interval::of(3, 5);
        assert_eq!(a.below_strict(b), Some(Interval::of(0, 4)));
        assert_eq!(a.below(b), Some(Interval::of(0, 5)));
        assert_eq!(a.above_strict(b), Some(Interval::of(4, 10)));
        assert_eq!(a.above(b), Some(Interval::of(3, 10)));
    }

    #[test]
    fn remove_endpoint_behaviour() {
        let a = Interval::of(2, 5);
        assert_eq!(a.remove_endpoint(2), Some(Interval::of(3, 5)));
        assert_eq!(a.remove_endpoint(5), Some(Interval::of(2, 4)));
        assert_eq!(a.remove_endpoint(3), Some(a)); // interior: unchanged
        assert_eq!(Interval::point(4).remove_endpoint(4), None);
    }

    #[test]
    fn clamping_prevents_overflow() {
        let big = Interval::of(Interval::MAX_BOUND - 1, Interval::MAX_BOUND);
        let sum = big.add(big);
        assert_eq!(sum.hi(), Interval::MAX_BOUND);
        let prod = big.mul(big);
        assert_eq!(prod.hi(), Interval::MAX_BOUND);
    }

    #[test]
    fn midpoint_no_overflow() {
        let i = Interval::of(Interval::MIN_BOUND, Interval::MAX_BOUND);
        let m = i.midpoint();
        assert!(i.contains(m));
    }

    #[test]
    fn strict_contractors_saturate_at_the_clamping_bounds() {
        // `below_strict` against an interval whose hi is already MIN_BOUND:
        // hi - 1 saturates in i64 and `new` clamps it back to MIN_BOUND, so
        // the result is the point [MIN_BOUND, MIN_BOUND] rather than empty.
        // MIN_BOUND acts as -∞, so this looseness is sound: values at the
        // clamp bound stand for "anything at or beyond it".
        let min_pt = Interval::point(Interval::MIN_BOUND);
        assert_eq!(Interval::TOP.below_strict(min_pt), Some(min_pt));
        // Symmetric at the top end for `above_strict`.
        let max_pt = Interval::point(Interval::MAX_BOUND);
        assert_eq!(Interval::TOP.above_strict(max_pt), Some(max_pt));
        // One step inside the bound the strict contractors are exact again.
        let above_min = Interval::point(Interval::MIN_BOUND + 1);
        assert_eq!(Interval::TOP.below_strict(above_min), Some(min_pt));
        let below_max = Interval::point(Interval::MAX_BOUND - 1);
        assert_eq!(Interval::TOP.above_strict(below_max), Some(max_pt));
        // And they produce empty when the receiver lies entirely outside
        // the (clamped) strict half-space.
        assert_eq!(above_min.below_strict(min_pt), None);
        assert_eq!(below_max.above_strict(max_pt), None);
    }

    #[test]
    fn saturating_mul_and_div_at_the_bounds() {
        let max_pt = Interval::point(Interval::MAX_BOUND);
        let min_pt = Interval::point(Interval::MIN_BOUND);
        // MAX * MAX clamps to MAX; MIN * MAX clamps to MIN.
        assert_eq!(max_pt.mul(max_pt), max_pt);
        assert_eq!(min_pt.mul(max_pt), min_pt);
        // Mixed-sign square interval clamps on both ends.
        let wide = Interval::of(Interval::MIN_BOUND, Interval::MAX_BOUND);
        assert_eq!(wide.mul(wide), wide);
        // Division at the extremes stays inside the bounds: div_by_samesign
        // computes endpoint quotients in i128 and clamps, so even the
        // MIN / -1 pattern (which overflows i64 division) is exact.
        let d = min_pt.div_total(Interval::point(-1));
        assert!(d.contains(Interval::MAX_BOUND));
        assert!(d.hi() <= Interval::MAX_BOUND && d.lo() >= Interval::MIN_BOUND);
        // x / 0 is total (defined as 0), so dividing by the zero point keeps
        // 0 in the enclosure instead of producing an empty result.
        assert!(wide.div_total(Interval::point(0)).contains(0));
    }

    #[test]
    fn back_mul_empty_results_at_the_bounds() {
        // z = x * y with z strictly positive and y = 0 admits no x at all:
        // the backward contractor must report empty (None), including when z
        // sits at the clamping bound.
        let z = Interval::point(Interval::MAX_BOUND);
        let y = Interval::point(0);
        assert_eq!(Interval::back_mul(z, y, Interval::TOP), None);
        // Nonzero z with a sign-straddling y keeps only consistent x halves;
        // an x domain living entirely where no quotient exists goes empty.
        let z = Interval::point(8);
        let y = Interval::of(2, 4);
        let x = Interval::of(-100, -1); // 8 / [2,4] is positive
        assert_eq!(Interval::back_mul(z, y, x), None);
        // The same contraction at the bound: z = MAX with tiny positive y
        // forces x up to the clamp region, never empty for TOP x.
        let z = Interval::point(Interval::MAX_BOUND);
        let y = Interval::point(1);
        let back = Interval::back_mul(z, y, Interval::TOP).unwrap();
        assert!(back.contains(Interval::MAX_BOUND));
    }

    #[test]
    fn rem_total_at_clamping_boundaries() {
        let wide = Interval::of(Interval::MIN_BOUND, Interval::MAX_BOUND);
        // Point-exact remainder at the bounds (total: x rem 0 = 0).
        let r = Interval::point(Interval::MAX_BOUND).rem_total(Interval::point(0));
        assert_eq!(r, Interval::point(0));
        // Wide dividend: the remainder magnitude is bounded by |b| - 1 and
        // never escapes the clamp range.
        let r = wide.rem_total(Interval::point(7));
        assert!(r.lo() >= -6 && r.hi() <= 6);
        // Remainder by a wide divisor is bounded by the dividend magnitude.
        let r = Interval::of(0, 5).rem_total(wide);
        assert!(r.lo() >= -5 && r.hi() <= 5);
    }

    #[test]
    fn remove_endpoint_at_the_bounds() {
        let min_pt = Interval::point(Interval::MIN_BOUND);
        assert_eq!(min_pt.remove_endpoint(Interval::MIN_BOUND), None);
        let max_pt = Interval::point(Interval::MAX_BOUND);
        assert_eq!(max_pt.remove_endpoint(Interval::MAX_BOUND), None);
        let all = Interval::of(Interval::MIN_BOUND, Interval::MAX_BOUND);
        let trimmed = all.remove_endpoint(Interval::MIN_BOUND).unwrap();
        assert_eq!(trimmed.lo(), Interval::MIN_BOUND + 1);
        let trimmed = all.remove_endpoint(Interval::MAX_BOUND).unwrap();
        assert_eq!(trimmed.hi(), Interval::MAX_BOUND - 1);
    }
}
