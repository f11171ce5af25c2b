//! The finite, discrete state space `S` of possible object locations.
//!
//! Following Section 3 of the paper, space is discretized in an
//! application-dependent way (road crossings, RFID tracker positions, grid
//! cells). A [`StateSpace`] is simply an indexed collection of [`Point`]s;
//! a [`StateId`] is an index into it. All higher layers (Markov chains,
//! trajectories, queries) operate on `StateId`s and only go back to geometry
//! through the state space when distances are required.

use crate::point::Point;
use crate::rect::Rect2;

/// Identifier of a discrete state (location) in the state space.
///
/// `u32` comfortably covers the paper's largest configuration (500 000 states)
/// while keeping hot per-state arrays compact.
pub type StateId = u32;

/// The discrete set of possible locations `S = {s_1, ..., s_|S|}`.
#[derive(Debug, Clone, Default)]
pub struct StateSpace {
    positions: Vec<Point>,
}

impl StateSpace {
    /// Creates an empty state space.
    pub fn new() -> Self {
        StateSpace { positions: Vec::new() }
    }

    /// Creates a state space from a list of positions; the `StateId` of each
    /// state is its index in the list.
    pub fn from_points(positions: Vec<Point>) -> Self {
        StateSpace { positions }
    }

    /// Adds a state and returns its id.
    pub fn push(&mut self, p: Point) -> StateId {
        let id = self.positions.len() as StateId;
        self.positions.push(p);
        id
    }

    /// Number of states `|S|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the state space is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of state `s`.
    ///
    /// # Panics
    /// Panics if `s` is out of bounds.
    #[inline]
    pub fn position(&self, s: StateId) -> Point {
        self.positions[s as usize]
    }

    /// Position of state `s`, or `None` if out of bounds.
    #[inline]
    pub fn get(&self, s: StateId) -> Option<Point> {
        self.positions.get(s as usize).copied()
    }

    /// All positions, indexed by state id.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Iterator over `(StateId, Point)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, Point)> + '_ {
        self.positions.iter().enumerate().map(|(i, p)| (i as StateId, *p))
    }

    /// Euclidean distance between the positions of two states.
    #[inline]
    pub fn dist(&self, a: StateId, b: StateId) -> f64 {
        self.position(a).dist(&self.position(b))
    }

    /// Squared Euclidean distance between the positions of two states.
    #[inline]
    pub fn dist2(&self, a: StateId, b: StateId) -> f64 {
        self.position(a).dist2(&self.position(b))
    }

    /// Minimum bounding rectangle of a set of states.
    ///
    /// This is the basic building block of the UST-tree's "diamond"
    /// approximations (Section 6): the MBR of all states reachable during a
    /// time interval.
    pub fn mbr_of(&self, states: impl IntoIterator<Item = StateId>) -> Rect2 {
        let mut r = Rect2::empty();
        for s in states {
            r.extend_point(&self.position(s).coords());
        }
        r
    }

    /// The state closest to `p` (linear scan; intended for tests and small
    /// spaces — workload generators keep their own grid index).
    pub fn nearest_state(&self, p: &Point) -> Option<StateId> {
        self.positions
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.dist2(p).total_cmp(&b.dist2(p)))
            .map(|(i, _)| i as StateId)
    }
}

impl FromIterator<Point> for StateSpace {
    fn from_iter<T: IntoIterator<Item = Point>>(iter: T) -> Self {
        StateSpace::from_points(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_space() -> StateSpace {
        StateSpace::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(2.0, 2.0),
        ])
    }

    #[test]
    fn push_and_lookup() {
        let mut s = StateSpace::new();
        assert!(s.is_empty());
        let a = s.push(Point::new(1.0, 2.0));
        let b = s.push(Point::new(3.0, 4.0));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.position(b), Point::new(3.0, 4.0));
        assert_eq!(s.get(7), None);
    }

    #[test]
    fn distances() {
        let s = sample_space();
        assert_eq!(s.dist(0, 1), 1.0);
        assert_eq!(s.dist2(0, 3), 8.0);
    }

    #[test]
    fn mbr_of_states() {
        let s = sample_space();
        let mbr = s.mbr_of([0, 1, 2]);
        assert_eq!(mbr.min, [0.0, 0.0]);
        assert_eq!(mbr.max, [1.0, 1.0]);
        assert!(s.mbr_of(std::iter::empty()).is_empty());
    }

    #[test]
    fn nearest_state_linear() {
        let s = sample_space();
        assert_eq!(s.nearest_state(&Point::new(1.9, 2.1)), Some(3));
        assert_eq!(s.nearest_state(&Point::new(0.1, -0.1)), Some(0));
        assert_eq!(StateSpace::new().nearest_state(&Point::ORIGIN), None);
    }

    #[test]
    fn from_iterator() {
        let s: StateSpace = vec![Point::new(0.0, 0.0), Point::new(5.0, 5.0)].into_iter().collect();
        assert_eq!(s.len(), 2);
        let ids: Vec<_> = s.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
