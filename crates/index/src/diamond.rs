//! Diamond approximations of observation segments.
//!
//! "Given an uncertain spatio-temporal object o, the main idea of the
//! UST-tree is to conservatively approximate the set of possible (location,
//! time) pairs that o could have possibly visited, given its observations Θ.
//! In a first approximation step, these (location, time) pairs [...] are
//! minimally bounded by rectangles. Such a rectangle, for observations Θ_i
//! and Θ_{i+1}, is defined by the time interval [t_i, t_{i+1}], as well as the
//! minimal and maximal longitude and latitude values of all reachable states."
//! (Section 6, see also Figure 5.)

use crate::{ObjectId, Timestamp};
use ust_markov::reachability::ReachabilitySets;
use ust_spatial::{Point, Rect2, Rect3, StateSpace};

/// The rectangular approximation of one observation segment of one object.
#[derive(Debug, Clone, PartialEq)]
pub struct Diamond {
    /// The object this diamond belongs to.
    pub object: ObjectId,
    /// First timestamp of the segment (time of the earlier observation).
    pub t_start: Timestamp,
    /// Last timestamp of the segment (time of the later observation).
    pub t_end: Timestamp,
    /// MBR over all states reachable anywhere in the segment (the rectangle
    /// stored at the UST-tree leaf level).
    pub mbr: Rect2,
    /// Optional per-timestamp MBRs (the dashed rectangles of Figure 5) used
    /// for tighter `dmin`/`dmax` bounds during refinement of the filter step.
    pub per_time: Option<Vec<Rect2>>,
}

impl Diamond {
    /// Builds the diamond of a segment from its reachable state sets.
    ///
    /// Returns `None` if the reachability sets are inconsistent (contradictory
    /// observations) — such segments cannot occur for validly generated data.
    pub fn from_reachability(
        object: ObjectId,
        reach: &ReachabilitySets,
        space: &StateSpace,
        keep_per_time: bool,
    ) -> Option<Diamond> {
        if !reach.is_consistent() {
            return None;
        }
        let mut total = Rect2::empty();
        let mut per_time = Vec::with_capacity(reach.per_time.len());
        for states in &reach.per_time {
            let r = space.mbr_of(states.iter().copied());
            total.extend(&r);
            per_time.push(r);
        }
        Some(Diamond {
            object,
            t_start: reach.start,
            t_end: reach.end,
            mbr: total,
            per_time: if keep_per_time { Some(per_time) } else { None },
        })
    }

    /// Whether the segment covers timestamp `t`.
    #[inline]
    pub fn covers(&self, t: Timestamp) -> bool {
        t >= self.t_start && t <= self.t_end
    }

    /// The tightest available bounding rectangle for the object's position at
    /// time `t` (per-timestamp MBR if kept, otherwise the segment MBR), or
    /// `None` if the segment does not cover `t`.
    pub fn rect_at(&self, t: Timestamp) -> Option<&Rect2> {
        if !self.covers(t) {
            return None;
        }
        match &self.per_time {
            Some(v) => v.get((t - self.t_start) as usize),
            None => Some(&self.mbr),
        }
    }

    /// Lower bound on the distance between the object at time `t` and `q`.
    pub fn dmin(&self, t: Timestamp, q: &Point) -> Option<f64> {
        self.rect_at(t).map(|r| r.min_dist(q))
    }

    /// Upper bound on the distance between the object at time `t` and `q`.
    pub fn dmax(&self, t: Timestamp, q: &Point) -> Option<f64> {
        self.rect_at(t).map(|r| r.max_dist(q))
    }

    /// The space-time box `(x, y, t)` stored in the R-tree.
    pub fn space_time_box(&self) -> Rect3 {
        self.mbr.with_time(self.t_start as f64, self.t_end as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_markov::reachability::ReachabilityIndex;
    use ust_markov::CsrMatrix;
    use ust_spatial::StateSpace;

    /// Line of 5 unit-spaced states with bidirectional moves and self-loops.
    fn line() -> (StateSpace, ReachabilityIndex) {
        let space = StateSpace::from_points(
            (0..5).map(|i| Point::new(i as f64, 0.0)).collect(),
        );
        let rows = (0..5i64)
            .map(|i| {
                let mut row = vec![(i as u32, 1.0)];
                if i > 0 {
                    row.push((i as u32 - 1, 1.0));
                }
                if i < 4 {
                    row.push((i as u32 + 1, 1.0));
                }
                row
            })
            .collect();
        let m = CsrMatrix::stochastic_from_weights(rows);
        (space, ReachabilityIndex::from_matrix(&m))
    }

    #[test]
    fn diamond_bounds_reachable_positions() {
        let (space, reach) = line();
        let sets = reach.segment((0, 0), (4, 4));
        let d = Diamond::from_reachability(9, &sets, &space, true).unwrap();
        assert_eq!(d.object, 9);
        assert_eq!(d.t_start, 0);
        assert_eq!(d.t_end, 4);
        assert_eq!(d.mbr.min, [0.0, 0.0]);
        assert_eq!(d.mbr.max, [4.0, 0.0]);
        // At t=0 the object is certainly at state 0.
        let r0 = d.rect_at(0).unwrap();
        assert_eq!(r0.min, [0.0, 0.0]);
        assert_eq!(r0.max, [0.0, 0.0]);
        // At t=2 the object can be anywhere in [0, 2] x {0} — it has to reach
        // state 4 by t=4, so it cannot have fallen behind state 2... wait, it
        // must still be able to reach 4 in 2 steps, so x >= 2.
        let r2 = d.rect_at(2).unwrap();
        assert_eq!(r2.min, [2.0, 0.0]);
        assert_eq!(r2.max, [2.0, 0.0]);
        assert!(d.rect_at(9).is_none());
        assert!(!d.covers(5));
    }

    #[test]
    fn dmin_dmax_bracket_true_distances() {
        let (space, reach) = line();
        let sets = reach.segment((0, 0), (6, 2));
        let d = Diamond::from_reachability(1, &sets, &space, true).unwrap();
        let q = Point::new(10.0, 0.0);
        for t in 0..=6u32 {
            let dmin = d.dmin(t, &q).unwrap();
            let dmax = d.dmax(t, &q).unwrap();
            assert!(dmin <= dmax);
            for &s in sets.at(t) {
                let true_d = space.position(s).dist(&q);
                assert!(true_d >= dmin - 1e-9 && true_d <= dmax + 1e-9);
            }
        }
    }

    #[test]
    fn without_per_time_rects_the_segment_mbr_is_used() {
        let (space, reach) = line();
        let sets = reach.segment((0, 0), (6, 2));
        let fine = Diamond::from_reachability(1, &sets, &space, true).unwrap();
        let coarse = Diamond::from_reachability(1, &sets, &space, false).unwrap();
        assert!(coarse.per_time.is_none());
        let q = Point::new(-3.0, 0.0);
        // The coarse bound can only be looser (smaller dmin, larger dmax).
        for t in 0..=6u32 {
            assert!(coarse.dmin(t, &q).unwrap() <= fine.dmin(t, &q).unwrap() + 1e-12);
            assert!(coarse.dmax(t, &q).unwrap() >= fine.dmax(t, &q).unwrap() - 1e-12);
        }
    }

    #[test]
    fn inconsistent_reachability_produces_no_diamond() {
        let (space, reach) = line();
        let sets = reach.segment((0, 0), (1, 4));
        assert!(Diamond::from_reachability(0, &sets, &space, true).is_none());
    }

    #[test]
    fn space_time_box_spans_the_segment() {
        let (space, reach) = line();
        let sets = reach.segment((3, 1), (7, 3));
        let d = Diamond::from_reachability(2, &sets, &space, false).unwrap();
        let b = d.space_time_box();
        assert_eq!(b.min[2], 3.0);
        assert_eq!(b.max[2], 7.0);
        assert!(b.min[0] <= 1.0 && b.max[0] >= 3.0);
    }
}
