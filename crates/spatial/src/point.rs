//! Two-dimensional points and Euclidean distances.
//!
//! The paper's experiments (Section 7) use a two-dimensional Euclidean state
//! space (`[0,1]²` for the synthetic networks, projected map coordinates for
//! the taxi data). The distance function `d(x, y)` of Definitions 1–3 is the
//! Euclidean distance between spatial points.

/// A position in the two-dimensional Euclidean plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (longitude-like axis).
    pub x: f64,
    /// Vertical coordinate (latitude-like axis).
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Squared Euclidean distance to `other`.
    ///
    /// Comparing squared distances avoids the square root on the hot path of
    /// nearest-neighbor evaluation; ordering is preserved because `sqrt` is
    /// monotone.
    #[inline]
    pub fn dist2(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist2(other).sqrt()
    }

    /// Coordinates as a fixed-size array, useful for building [`crate::Rect`]s.
    #[inline]
    pub fn coords(&self) -> [f64; 2] {
        [self.x, self.y]
    }

    /// Component-wise minimum of two points.
    #[inline]
    pub fn min(&self, other: &Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum of two points.
    #[inline]
    pub fn max(&self, other: &Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Linear interpolation between `self` (at `f = 0`) and `other` (at `f = 1`).
    #[inline]
    pub fn lerp(&self, other: &Point, f: f64) -> Point {
        Point::new(self.x + (other.x - self.x) * f, self.y + (other.y - self.y) * f)
    }
}

impl From<[f64; 2]> for Point {
    fn from(c: [f64; 2]) -> Self {
        Point::new(c[0], c[1])
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist2(&b), 25.0);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.5, -2.25);
        let b = Point::new(-0.5, 7.0);
        assert_eq!(a.dist(&b), b.dist(&a));
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn min_max_are_componentwise() {
        let a = Point::new(1.0, 5.0);
        let b = Point::new(2.0, 3.0);
        assert_eq!(a.min(&b), Point::new(1.0, 3.0));
        assert_eq!(a.max(&b), Point::new(2.0, 5.0));
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point::new(1.0, 2.0));
    }

    #[test]
    fn conversions() {
        let p: Point = [1.0, 2.0].into();
        assert_eq!(p, Point::new(1.0, 2.0));
        let q: Point = (3.0, 4.0).into();
        assert_eq!(q, Point::new(3.0, 4.0));
        assert_eq!(q.coords(), [3.0, 4.0]);
    }
}
