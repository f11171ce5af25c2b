//! Certain (materialised) trajectories.
//!
//! A certain trajectory is one realisation of an object's stochastic process:
//! one state per timestamp over a contiguous time interval. The Monte-Carlo
//! query algorithms draw one certain trajectory per object per possible world
//! and run classic trajectory-NN algorithms on them (Section 5.2.3).

use crate::{StateId, Timestamp};
use ust_spatial::{Point, StateSpace};

/// A certain trajectory: one state per tic, covering the closed interval
/// `[start, start + len - 1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trajectory {
    start: Timestamp,
    states: Vec<StateId>,
}

impl Trajectory {
    /// Creates a trajectory starting at `start` with one state per subsequent
    /// timestamp.
    ///
    /// # Panics
    /// Panics if `states` is empty.
    pub fn new(start: Timestamp, states: Vec<StateId>) -> Self {
        assert!(!states.is_empty(), "a trajectory needs at least one state");
        Trajectory { start, states }
    }

    /// First covered timestamp.
    #[inline]
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// Last covered timestamp.
    #[inline]
    pub fn end(&self) -> Timestamp {
        self.start + (self.states.len() as Timestamp) - 1
    }

    /// Number of covered timestamps.
    #[inline]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Trajectories are never empty, but clippy likes the pair.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether the trajectory covers timestamp `t`.
    #[inline]
    pub fn covers(&self, t: Timestamp) -> bool {
        t >= self.start && t <= self.end()
    }

    /// The state occupied at time `t`, or `None` outside the covered interval.
    #[inline]
    pub fn state_at(&self, t: Timestamp) -> Option<StateId> {
        if self.covers(t) {
            Some(self.states[(t - self.start) as usize])
        } else {
            None
        }
    }

    /// The spatial position at time `t`.
    #[inline]
    pub fn position_at(&self, t: Timestamp, space: &StateSpace) -> Option<Point> {
        self.state_at(t).map(|s| space.position(s))
    }

    /// The raw state sequence.
    #[inline]
    pub fn states(&self) -> &[StateId] {
        &self.states
    }

    /// Iterator over `(timestamp, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, StateId)> + '_ {
        self.states.iter().enumerate().map(move |(k, &s)| (self.start + k as Timestamp, s))
    }

    /// Whether the trajectory passes through all given `(time, state)`
    /// observations. Sampled trajectories must always satisfy this for the
    /// observations they were conditioned on.
    pub fn consistent_with(&self, observations: &[(Timestamp, StateId)]) -> bool {
        observations.iter().all(|&(t, s)| self.state_at(t) == Some(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> StateSpace {
        StateSpace::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ])
    }

    #[test]
    fn coverage_and_lookup() {
        let tr = Trajectory::new(5, vec![0, 1, 2, 1]);
        assert_eq!(tr.start(), 5);
        assert_eq!(tr.end(), 8);
        assert_eq!(tr.len(), 4);
        assert!(tr.covers(5) && tr.covers(8));
        assert!(!tr.covers(4) && !tr.covers(9));
        assert_eq!(tr.state_at(6), Some(1));
        assert_eq!(tr.state_at(9), None);
    }

    #[test]
    fn positions_and_length() {
        let tr = Trajectory::new(0, vec![0, 2, 1]);
        let sp = space();
        assert_eq!(tr.position_at(0, &sp), Some(Point::new(0.0, 0.0)));
        assert_eq!(tr.position_at(1, &sp), Some(Point::new(2.0, 0.0)));
    }

    #[test]
    fn iteration_yields_time_state_pairs() {
        let tr = Trajectory::new(3, vec![2, 0]);
        let v: Vec<_> = tr.iter().collect();
        assert_eq!(v, vec![(3, 2), (4, 0)]);
    }

    #[test]
    fn observation_consistency() {
        let tr = Trajectory::new(0, vec![0, 1, 2, 2]);
        assert!(tr.consistent_with(&[(0, 0), (2, 2)]));
        assert!(!tr.consistent_with(&[(1, 2)]));
        assert!(!tr.consistent_with(&[(9, 0)]));
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_trajectory_panics() {
        let _ = Trajectory::new(0, vec![]);
    }
}
