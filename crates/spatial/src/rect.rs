//! Axis-aligned minimum bounding rectangles (MBRs) of constant dimension.
//!
//! The UST-tree (Section 6 of the paper) conservatively approximates the set
//! of possible `(location, time)` pairs of an uncertain object between two
//! observations by minimum bounding rectangles, and prunes database objects
//! with the classic `dmin`/`dmax` distance bounds:
//!
//! * `dmin(o(t), q(t))` — smallest possible distance between any point of the
//!   MBR and the query position,
//! * `dmax(o(t), q(t))` — largest possible distance.
//!
//! [`Rect`] is generic over the dimension so the same type serves both the
//! purely spatial 2-d MBRs (`Rect2`) and the spatio-temporal 3-d boxes
//! (`Rect3`, axes `x`, `y`, `t`) stored in the R-tree.

use crate::point::Point;

/// An axis-aligned box in `D` dimensions, stored as per-axis `[min, max]`.
///
/// (Rectangles carry no serialisation support of their own; the on-disk
/// store (`ust-persist`) encodes the diamond rectangles it needs as plain
/// min/max coordinate pairs and re-validates `min <= max` and finiteness on
/// load, so this type never has to trust external bytes.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect<const D: usize> {
    /// Per-axis lower bounds.
    pub min: [f64; D],
    /// Per-axis upper bounds.
    pub max: [f64; D],
}

/// A two-dimensional rectangle (purely spatial MBR).
pub type Rect2 = Rect<2>;
/// A three-dimensional box (spatio-temporal MBR: `x`, `y`, `t`).
pub type Rect3 = Rect<3>;

impl<const D: usize> Rect<D> {
    /// Creates a rectangle from lower and upper bounds.
    ///
    /// # Panics
    /// Panics (in debug builds) if any `min[i] > max[i]`.
    #[inline]
    pub fn new(min: [f64; D], max: [f64; D]) -> Self {
        debug_assert!(
            min.iter().zip(max.iter()).all(|(lo, hi)| lo <= hi),
            "invalid rectangle: min {min:?} > max {max:?}"
        );
        Rect { min, max }
    }

    /// A degenerate rectangle covering exactly one point.
    #[inline]
    pub fn point(p: [f64; D]) -> Self {
        Rect { min: p, max: p }
    }

    /// An "empty" rectangle suitable as the neutral element of [`Rect::extend`].
    ///
    /// Its bounds are inverted (`+inf`/`-inf`), so extending it by any proper
    /// rectangle yields that rectangle. Use [`Rect::is_empty`] to test for it.
    #[inline]
    pub fn empty() -> Self {
        Rect { min: [f64::INFINITY; D], max: [f64::NEG_INFINITY; D] }
    }

    /// Whether this is the empty rectangle produced by [`Rect::empty`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..D).any(|i| self.min[i] > self.max[i])
    }

    /// Center of the rectangle.
    #[inline]
    pub fn center(&self) -> [f64; D] {
        let mut c = [0.0; D];
        for ((c, &lo), &hi) in c.iter_mut().zip(&self.min).zip(&self.max) {
            *c = 0.5 * (lo + hi);
        }
        c
    }

    /// Extends `self` in place to contain `other`.
    #[inline]
    pub fn extend(&mut self, other: &Rect<D>) {
        for i in 0..D {
            self.min[i] = self.min[i].min(other.min[i]);
            self.max[i] = self.max[i].max(other.max[i]);
        }
    }

    /// Extends `self` in place to contain the point `p`.
    #[inline]
    pub fn extend_point(&mut self, p: &[f64; D]) {
        for ((lo, hi), &pi) in self.min.iter_mut().zip(self.max.iter_mut()).zip(p) {
            *lo = lo.min(pi);
            *hi = hi.max(pi);
        }
    }

    /// Whether the two rectangles intersect (boundaries touching counts).
    #[inline]
    pub fn intersects(&self, other: &Rect<D>) -> bool {
        (0..D).all(|i| self.min[i] <= other.max[i] && other.min[i] <= self.max[i])
    }

    /// Whether `self` fully contains `other`.
    #[inline]
    pub fn contains(&self, other: &Rect<D>) -> bool {
        (0..D).all(|i| self.min[i] <= other.min[i] && self.max[i] >= other.max[i])
    }

    /// Squared minimum distance between any point of `self` and the point `p`.
    #[inline]
    pub fn min_dist2_point(&self, p: &[f64; D]) -> f64 {
        let mut d2 = 0.0;
        for ((&pi, &lo), &hi) in p.iter().zip(&self.min).zip(&self.max) {
            let d = if pi < lo {
                lo - pi
            } else if pi > hi {
                pi - hi
            } else {
                0.0
            };
            d2 += d * d;
        }
        d2
    }

    /// Squared maximum distance between any point of `self` and the point `p`.
    #[inline]
    pub fn max_dist2_point(&self, p: &[f64; D]) -> f64 {
        let mut d2 = 0.0;
        for ((&pi, &lo), &hi) in p.iter().zip(&self.min).zip(&self.max) {
            let d = (pi - lo).abs().max((pi - hi).abs());
            d2 += d * d;
        }
        d2
    }
}

impl Rect<2> {
    /// Builds the smallest rectangle containing all given points.
    ///
    /// Returns [`Rect::empty`] for an empty iterator.
    pub fn bounding(points: impl IntoIterator<Item = Point>) -> Rect2 {
        let mut r = Rect::empty();
        for p in points {
            r.extend_point(&p.coords());
        }
        r
    }

    /// Minimum Euclidean distance from this rectangle to a [`Point`].
    #[inline]
    pub fn min_dist(&self, p: &Point) -> f64 {
        self.min_dist2_point(&p.coords()).sqrt()
    }

    /// Maximum Euclidean distance from this rectangle to a [`Point`].
    #[inline]
    pub fn max_dist(&self, p: &Point) -> f64 {
        self.max_dist2_point(&p.coords()).sqrt()
    }

    /// Lifts this spatial rectangle into space-time, covering the (inclusive)
    /// timestamp interval `[t_start, t_end]`.
    #[inline]
    pub fn with_time(&self, t_start: f64, t_end: f64) -> Rect3 {
        Rect::new(
            [self.min[0], self.min[1], t_start],
            [self.max[0], self.max[1], t_end],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(min: [f64; 2], max: [f64; 2]) -> Rect2 {
        Rect::new(min, max)
    }

    /// `a` extended in place by `b`.
    fn union(a: Rect2, b: &Rect2) -> Rect2 {
        let mut u = a;
        u.extend(b);
        u
    }

    #[test]
    fn center_is_the_midpoint() {
        let a = r([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(a.center(), [1.0, 1.5]);
        assert_eq!(Rect::point([4.0, -1.0]).center(), [4.0, -1.0]);
    }

    #[test]
    fn empty_rectangle_is_union_identity() {
        let e = Rect2::empty();
        assert!(e.is_empty());
        let a = r([1.0, 1.0], [2.0, 2.0]);
        assert_eq!(union(e, &a), a);
        assert_eq!(union(a, &e), a);
    }

    #[test]
    fn union_contains_both() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([2.0, -1.0], [3.0, 0.5]);
        let u = union(a, &b);
        assert!(u.contains(&a));
        assert!(u.contains(&b));
        assert_eq!(u, r([0.0, -1.0], [3.0, 1.0]));
    }

    #[test]
    fn intersection_and_overlap() {
        let a = r([0.0, 0.0], [2.0, 2.0]);
        let b = r([1.0, 1.0], [3.0, 3.0]);
        let c = r([5.0, 5.0], [6.0, 6.0]);
        assert!(a.intersects(&b) && b.intersects(&a));
        assert!(!a.intersects(&c) && !c.intersects(&a));
        // Overlapping on one axis only is not an intersection.
        let d = r([1.0, 2.5], [3.0, 4.0]);
        assert!(!a.intersects(&d));
    }

    #[test]
    fn touching_rectangles_intersect_with_zero_overlap() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([1.0, 0.0], [2.0, 1.0]);
        assert!(a.intersects(&b) && b.intersects(&a));
        // A degenerate (zero-extent) box on the shared edge intersects both.
        let edge = r([1.0, 0.25], [1.0, 0.75]);
        assert!(a.intersects(&edge) && b.intersects(&edge));
        let gap = r([1.0 + 1e-9, 0.0], [2.0, 1.0]);
        assert!(!a.intersects(&gap));
    }

    #[test]
    fn point_distances_inside_and_outside() {
        let a = r([0.0, 0.0], [2.0, 2.0]);
        // Point inside: min dist 0, max dist to farthest corner.
        let p = Point::new(0.5, 0.5);
        assert_eq!(a.min_dist(&p), 0.0);
        let expected_max = Point::new(2.0, 2.0).dist(&p);
        assert!((a.max_dist(&p) - expected_max).abs() < 1e-12);
        // Point outside along x.
        let q = Point::new(5.0, 1.0);
        assert_eq!(a.min_dist(&q), 3.0);
        let expected_max_q = Point::new(0.0, 2.0).dist(&q).max(Point::new(0.0, 0.0).dist(&q));
        assert!((a.max_dist(&q) - expected_max_q).abs() < 1e-12);
    }

    #[test]
    fn bounding_of_points() {
        let pts = vec![Point::new(1.0, 5.0), Point::new(-2.0, 3.0), Point::new(0.0, 7.0)];
        let b = Rect2::bounding(pts);
        assert_eq!(b, r([-2.0, 3.0], [1.0, 7.0]));
        assert!(Rect2::bounding(std::iter::empty()).is_empty());
    }

    #[test]
    fn with_time_produces_3d_box() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let st = a.with_time(5.0, 9.0);
        assert_eq!(st.min, [0.0, 0.0, 5.0]);
        assert_eq!(st.max, [1.0, 1.0, 9.0]);
        assert!(st.contains(&Rect::point([0.5, 0.5, 7.0])));
        assert!(!st.contains(&Rect::point([0.5, 0.5, 10.0])));
    }

    #[test]
    fn min_max_dist_bound_every_contained_point_pair() {
        // A small deterministic grid check: for every sample point inside
        // the box and every query point on a grid around it,
        // dmin <= d <= dmax (the filter's per-timestamp bounds).
        let a = r([0.0, 0.0], [1.0, 2.0]);
        for k in 0..=4 {
            for l in 0..=4 {
                let q = Point::new(-1.5 + k as f64, -1.0 + l as f64);
                let (dmin, dmax) = (a.min_dist(&q), a.max_dist(&q));
                for i in 0..=4 {
                    for j in 0..=4 {
                        let p = Point::new(a.min[0] + i as f64 / 4.0, a.min[1] + j as f64 / 2.0);
                        let d = p.dist(&q);
                        assert!(d >= dmin - 1e-9, "d {d} < dmin {dmin}");
                        assert!(d <= dmax + 1e-9, "d {d} > dmax {dmax}");
                    }
                }
            }
        }
    }
}
