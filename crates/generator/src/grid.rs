//! A uniform spatial hash grid.
//!
//! The synthetic network generator must connect every state to all states
//! within the radius `r = sqrt(b / (N π))`. A naive all-pairs scan is
//! `O(N²)`; bucketing the states into cells of side length `r` makes the
//! neighbor search expected `O(1)` per state for uniformly distributed data,
//! which keeps even the paper-scale `N = 500 000` configuration tractable.

use rustc_hash::FxHashMap;
use ust_spatial::{Point, StateId};

/// A hash grid over 2-d points with a fixed cell size.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    buckets: FxHashMap<(i64, i64), Vec<StateId>>,
}

impl GridIndex {
    /// Builds a grid with the given cell size over the given points (indexed
    /// by their position in the slice).
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive.
    pub fn build(points: &[Point], cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        let mut buckets: FxHashMap<(i64, i64), Vec<StateId>> = FxHashMap::default();
        for (i, p) in points.iter().enumerate() {
            buckets.entry(Self::key(p, cell_size)).or_default().push(i as StateId);
        }
        GridIndex { cell: cell_size, buckets }
    }

    fn key(p: &Point, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// All states within Euclidean distance `radius` of `center` (excluding
    /// `exclude`, typically the state itself). `points` must be the same slice
    /// the grid was built from.
    pub fn within_radius(
        &self,
        points: &[Point],
        center: &Point,
        radius: f64,
        exclude: Option<StateId>,
    ) -> Vec<StateId> {
        let r2 = radius * radius;
        let reach = (radius / self.cell).ceil() as i64;
        let (cx, cy) = Self::key(center, self.cell);
        let mut out = Vec::new();
        for dx in -reach..=reach {
            for dy in -reach..=reach {
                if let Some(bucket) = self.buckets.get(&(cx + dx, cy + dy)) {
                    for &s in bucket {
                        if Some(s) == exclude {
                            continue;
                        }
                        if points[s as usize].dist2(center) <= r2 {
                            out.push(s);
                        }
                    }
                }
            }
        }
        out
    }

    /// The state nearest to `center`, searching outward ring by ring.
    pub fn nearest(&self, points: &[Point], center: &Point) -> Option<StateId> {
        if points.is_empty() {
            return None;
        }
        let (cx, cy) = Self::key(center, self.cell);
        let mut best: Option<(f64, StateId)> = None;
        let mut ring = 0i64;
        loop {
            let mut found_any = false;
            for dx in -ring..=ring {
                for dy in -ring..=ring {
                    if dx.abs() != ring && dy.abs() != ring {
                        continue; // only the boundary of the ring
                    }
                    if let Some(bucket) = self.buckets.get(&(cx + dx, cy + dy)) {
                        found_any = true;
                        for &s in bucket {
                            let d = points[s as usize].dist2(center);
                            if best.map(|(bd, _)| d < bd).unwrap_or(true) {
                                best = Some((d, s));
                            }
                        }
                    }
                }
            }
            // Stop once we have a candidate and have searched one extra ring
            // (a nearer point cannot hide further out than cell diagonal).
            if let Some((d, _)) = best {
                let safe_radius = (ring as f64 - 1.0).max(0.0) * self.cell;
                if d.sqrt() <= safe_radius || ring as usize > self.buckets.len() + 2 {
                    break;
                }
            }
            if !found_any && ring as usize > 4 * (self.buckets.len() + 2) {
                break;
            }
            ring += 1;
        }
        best.map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.0),
            Point::new(0.0, 0.1),
            Point::new(0.5, 0.5),
            Point::new(1.0, 1.0),
        ]
    }

    #[test]
    fn radius_queries_match_linear_scan() {
        let pts = cluster();
        let grid = GridIndex::build(&pts, 0.2);
        for (i, p) in pts.iter().enumerate() {
            let mut got = grid.within_radius(&pts, p, 0.25, Some(i as StateId));
            got.sort_unstable();
            let mut expected: Vec<StateId> = pts
                .iter()
                .enumerate()
                .filter(|&(j, q)| j != i && q.dist(p) <= 0.25)
                .map(|(j, _)| j as StateId)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "neighbors of point {i}");
        }
    }

    #[test]
    fn radius_query_without_exclusion_includes_self() {
        let pts = cluster();
        let grid = GridIndex::build(&pts, 0.2);
        let got = grid.within_radius(&pts, &pts[0], 0.01, None);
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn nearest_finds_the_closest_point() {
        let pts = cluster();
        let grid = GridIndex::build(&pts, 0.2);
        assert_eq!(grid.nearest(&pts, &Point::new(0.52, 0.48)), Some(3));
        assert_eq!(grid.nearest(&pts, &Point::new(5.0, 5.0)), Some(4));
        assert_eq!(grid.nearest(&[], &Point::new(0.0, 0.0)), None);
    }

    #[test]
    fn cell_bucketing() {
        let pts = cluster();
        let grid = GridIndex::build(&pts, 1.0);
        assert!(grid.buckets.len() >= 2, "the cluster spans several cells");
    }
}
