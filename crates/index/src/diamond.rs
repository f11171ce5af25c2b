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
use ust_spatial::{Point, Rect2, Rect3};

/// The rectangular approximation of one observation segment of one object.
#[derive(Debug, Clone, PartialEq)]
pub struct Diamond {
    /// The object this diamond belongs to.
    pub object: ObjectId,
    /// First timestamp of the segment (time of the earlier observation).
    pub t_start: Timestamp,
    /// Last timestamp of the segment (time of the later observation).
    pub t_end: Timestamp,
    /// MBR over all states reachable anywhere in the segment: the box stored
    /// in the R-tree, which selects the diamond by its time interval.
    pub mbr: Rect2,
    /// One MBR per covered timestamp, `per_time[k]` at `t_start + k` (the
    /// dashed rectangles of Figure 5): the `dmin`/`dmax` bounds of the
    /// filter step.
    pub per_time: Vec<Rect2>,
}

impl Diamond {
    /// Whether the segment covers timestamp `t`.
    #[inline]
    pub fn covers(&self, t: Timestamp) -> bool {
        t >= self.t_start && t <= self.t_end
    }

    /// The bounding rectangle of the object's position at time `t`, or
    /// `None` if the segment does not cover `t`.
    pub fn rect_at(&self, t: Timestamp) -> Option<&Rect2> {
        if !self.covers(t) {
            return None;
        }
        self.per_time.get((t - self.t_start) as usize)
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
    use crate::{UstTree, UstTreeConfig};
    use std::sync::Arc;
    use ust_markov::{CsrMatrix, MarkovModel};
    use ust_spatial::StateSpace;
    use ust_trajectory::{TrajectoryDatabase, UncertainObject};

    /// Line of 5 unit-spaced states with bidirectional moves and self-loops.
    fn line() -> (Arc<StateSpace>, Arc<MarkovModel>) {
        let space = StateSpace::from_points((0..5).map(|i| Point::new(i as f64, 0.0)).collect());
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
        (Arc::new(space), Arc::new(MarkovModel::homogeneous(m)))
    }

    /// The diamonds a serial build makes of one object observed at `pairs`.
    fn diamonds(object: ObjectId, pairs: Vec<(Timestamp, u32)>) -> Vec<Diamond> {
        let (space, model) = line();
        let objects = vec![UncertainObject::from_pairs(object, pairs).unwrap()];
        let db = TrajectoryDatabase::with_objects(space, model, objects);
        let tree = UstTree::build_with(&db, &UstTreeConfig { build_threads: 1, ..Default::default() });
        tree.diamonds().to_vec()
    }

    #[test]
    fn diamond_bounds_reachable_positions() {
        let [d] = &diamonds(9, vec![(0, 0), (4, 4)])[..] else { panic!("one segment") };
        assert_eq!(d.object, 9);
        assert_eq!(d.t_start, 0);
        assert_eq!(d.t_end, 4);
        assert_eq!(d.mbr.min, [0.0, 0.0]);
        assert_eq!(d.mbr.max, [4.0, 0.0]);
        assert_eq!(d.per_time.len(), 5);
        // At t=0 the object is certainly at state 0.
        let r0 = d.rect_at(0).unwrap();
        assert_eq!(r0.min, [0.0, 0.0]);
        assert_eq!(r0.max, [0.0, 0.0]);
        // It must still be able to reach state 4 in the 2 steps left at t=2,
        // so it is exactly at state 2.
        let r2 = d.rect_at(2).unwrap();
        assert_eq!(r2.min, [2.0, 0.0]);
        assert_eq!(r2.max, [2.0, 0.0]);
        assert!(d.rect_at(9).is_none());
        assert!(!d.covers(5));
    }

    #[test]
    fn dmin_dmax_bracket_true_distances() {
        let [d] = &diamonds(1, vec![(0, 0), (6, 2)])[..] else { panic!("one segment") };
        let (space, model) = line();
        let sets = ust_markov::reachability::segment(&model, (0, 0), (6, 2));
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
    fn inconsistent_reachability_produces_no_diamond() {
        // State 4 is four steps from state 0, not one.
        assert!(diamonds(0, vec![(0, 0), (1, 4)]).is_empty());
    }

    #[test]
    fn space_time_box_spans_the_segment() {
        let [d] = &diamonds(2, vec![(3, 1), (7, 3)])[..] else { panic!("one segment") };
        let b = d.space_time_box();
        assert_eq!(b.min[2], 3.0);
        assert_eq!(b.max[2], 7.0);
        assert!(b.min[0] <= 1.0 && b.max[0] >= 3.0);
    }
}
