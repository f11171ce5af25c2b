//! Support-only reachability propagation.
//!
//! The UST-tree (Section 6) approximates, for each pair of consecutive
//! observations `Θ_i = (t_i, θ_i)` and `Θ_{i+1} = (t_{i+1}, θ_{i+1})`, the set
//! of `(time, location)` pairs the object may visit in between — the
//! "diamond" shape visible in Figures 4 and 5. A state `s` is possible at
//! time `t` iff it is forward-reachable from `θ_i` in `t - t_i` steps *and*
//! backward-reachable from `θ_{i+1}` in `t_{i+1} - t` steps.
//!
//! This module computes those sets using only the *support* of the object's
//! own a-priori chain (which states can follow which), without tracking
//! probabilities — that is all the index needs, and it is considerably
//! cheaper than a full adaptation. Every step reads the matrix of its own
//! time, [`MarkovModel::matrix_at`], so a time-varying chain gets the sets
//! it actually allows.
//!
//! Each expansion step visits the successors of the whole frontier, and a
//! state with several reached predecessors turns up several times. A
//! per-thread scratch of generation stamps, one per state, removes those
//! duplicates as they appear: a state joins the next set only the first time
//! the step marks it. The scratch grows once to the largest state space the
//! thread has seen and is never cleared between steps (each step takes a
//! fresh stamp), so an expansion allocates nothing per state of the model.
//! A segment then walks back from the second observation through the
//! forward sets alone: it marks the states still possible at `t_i + k + 1`,
//! and a state stays possible at `t_i + k` iff it is forward-reachable there
//! and one of its successors is marked. That is the intersection with the
//! backward set without ever building the backward set or a predecessor
//! graph. Membership is all the walk back asks of a forward set, so a
//! segment leaves them in discovery order and sorts only what it keeps.

use crate::model::MarkovModel;
use crate::{StateId, Timestamp};
use std::cell::Cell;

/// Per-timestamp reachable state sets between two observations.
#[derive(Debug, Clone)]
pub struct ReachabilitySets {
    /// Timestamp of the first observation.
    pub start: Timestamp,
    /// Timestamp of the second observation.
    pub end: Timestamp,
    /// `per_time[k]` lists (sorted) the states the object may occupy at time
    /// `start + k`, consistent with both observations. Empty sets indicate
    /// contradictory observations.
    pub per_time: Vec<Vec<StateId>>,
}

impl ReachabilitySets {
    /// The states possible at time `t`, or an empty slice outside `[start, end]`.
    pub fn at(&self, t: Timestamp) -> &[StateId] {
        if t < self.start || t > self.end {
            return &[];
        }
        &self.per_time[(t - self.start) as usize]
    }

    /// Whether at least one state is possible at every covered timestamp.
    pub fn is_consistent(&self) -> bool {
        self.per_time.iter().all(|s| !s.is_empty())
    }
}

/// States reachable from `from = (t, origin)` in exactly `0..=steps`
/// transitions of `model`: `result[k]` is the set at time `t + k`, each step
/// taken by the matrix of its own time. Every set is in discovery order: a
/// segment sorts only what its walk back keeps.
fn expand(model: &MarkovModel, from: (Timestamp, StateId), steps: usize) -> Vec<Vec<StateId>> {
    let (start, origin) = from;
    let mut out: Vec<Vec<StateId>> = Vec::with_capacity(steps + 1);
    out.push(vec![origin]);
    with_marks(|marks| {
        for k in 0..steps {
            let matrix = model.matrix_at(start.saturating_add(k as Timestamp));
            marks.next_step(matrix.num_states());
            let mut next: Vec<StateId> = Vec::new();
            for &s in &out[k] {
                next.extend(matrix.successors(s).iter().copied().filter(|&t| marks.mark(t)));
            }
            out.push(next);
        }
    });
    out
}

/// Per-timestamp possible states between two consecutive observations of
/// an object moving by `model`: the forward sets from the first
/// observation, each cut to the states from which the second observation
/// stays reachable, by walking back from the second observation through the
/// forward sets (see the module doc).
///
/// If the second observation is not forward-reachable from the first in
/// the given number of steps, the segment is contradictory — no trajectory
/// satisfies both observations, so the possible-state set is empty at
/// *every* covered timestamp — and the walk back is skipped entirely.
/// Hop-infeasible commutes are common in map-matched real data, so the
/// index build benefits from skipping the walk back for them.
pub fn segment(
    model: &MarkovModel,
    from: (Timestamp, StateId),
    to: (Timestamp, StateId),
) -> ReachabilitySets {
    assert!(from.0 <= to.0, "observations must be ordered in time");
    let steps = (to.0 - from.0) as usize;
    let mut per_time = expand(model, from, steps);
    if !per_time[steps].contains(&to.1) {
        return ReachabilitySets { start: from.0, end: to.0, per_time: vec![Vec::new(); steps + 1] };
    }
    per_time[steps] = vec![to.1];
    with_marks(|marks| {
        for k in (0..steps).rev() {
            let matrix = model.matrix_at(from.0 + k as Timestamp);
            marks.next_step(matrix.num_states());
            for &s in &per_time[k + 1] {
                marks.mark(s);
            }
            per_time[k].retain(|&s| matrix.successors(s).iter().any(|&t| marks.is_marked(t)));
            per_time[k].sort_unstable();
        }
    });
    ReachabilitySets { start: from.0, end: to.0, per_time }
}

/// Generation-stamped marks over the states: `stamps[s] == stamp` iff `s`
/// was marked in the current step.
#[derive(Debug, Default)]
struct Marks {
    stamps: Vec<u32>,
    /// Stamp of the current step; 0 is never a live stamp.
    stamp: u32,
}

impl Marks {
    /// Starts a step over a state space of `num_states` states in which no
    /// state is marked yet.
    fn next_step(&mut self, num_states: usize) {
        if self.stamps.len() < num_states {
            self.stamps.resize(num_states, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: old stamps could collide with new ones.
            self.stamps.fill(0);
            self.stamp = 1;
        }
    }

    /// Marks `s`; `true` iff the current step had not marked it yet.
    fn mark(&mut self, s: StateId) -> bool {
        let fresh = !self.is_marked(s);
        self.stamps[s as usize] = self.stamp;
        fresh
    }

    fn is_marked(&self, s: StateId) -> bool {
        self.stamps[s as usize] == self.stamp
    }
}

thread_local! {
    /// The marks of this thread's expansions, grown once to the largest
    /// state space seen (500 000 states at paper scale) and never sized per
    /// call.
    static MARKS: Cell<Marks> = const { Cell::new(Marks { stamps: Vec::new(), stamp: 0 }) };
}

/// Runs `f` on this thread's marks. The marks leave their slot for the call;
/// a panic inside `f` drops them, and the thread's next call starts from
/// empty marks.
fn with_marks(f: impl FnOnce(&mut Marks)) {
    let mut marks = MARKS.take();
    f(&mut marks);
    MARKS.set(marks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrMatrix;

    /// A 4-state line graph: 0 <-> 1 <-> 2 <-> 3, plus self-loops.
    fn line_graph() -> MarkovModel {
        MarkovModel::homogeneous(CsrMatrix::stochastic_from_weights(vec![
            vec![(0, 1.0), (1, 1.0)],
            vec![(0, 1.0), (1, 1.0), (2, 1.0)],
            vec![(1, 1.0), (2, 1.0), (3, 1.0)],
            vec![(2, 1.0), (3, 1.0)],
        ]))
    }

    /// [`expand`] with every set sorted.
    fn forward_reachable(
        model: &MarkovModel,
        from: (Timestamp, StateId),
        steps: usize,
    ) -> Vec<Vec<StateId>> {
        let mut sets = expand(model, from, steps);
        for set in &mut sets {
            set.sort_unstable();
        }
        sets
    }

    #[test]
    fn forward_expansion_grows_along_the_line() {
        let fwd = forward_reachable(&line_graph(), (0, 0), 3);
        assert_eq!(fwd[0], vec![0]);
        assert_eq!(fwd[1], vec![0, 1]);
        assert_eq!(fwd[2], vec![0, 1, 2]);
        assert_eq!(fwd[3], vec![0, 1, 2, 3]);
    }

    #[test]
    fn backward_expansion_mirrors_forward_on_symmetric_graphs() {
        // On a symmetric graph the walk back from 0 to 3 is the walk from 3
        // to 0 run backwards in time.
        let m = line_graph();
        let there = segment(&m, (0, 0), (5, 3)).per_time;
        let mut back = segment(&m, (0, 3), (5, 0)).per_time;
        back.reverse();
        assert_eq!(there, back);
        assert_eq!(there[4], vec![2, 3]);
    }

    #[test]
    fn segment_intersects_forward_and_backward() {
        // From state 0 at t=10 to state 3 at t=13: the object must move right
        // every step, so the diamond is a thin corridor.
        let seg = segment(&line_graph(), (10, 0), (13, 3));
        assert!(seg.is_consistent());
        assert_eq!(seg.at(10), &[0]);
        assert_eq!(seg.at(11), &[1]);
        assert_eq!(seg.at(12), &[2]);
        assert_eq!(seg.at(13), &[3]);
        assert_eq!(seg.at(9), &[] as &[StateId]);
    }

    #[test]
    fn segment_with_slack_forms_a_diamond() {
        // Same endpoints but 6 steps of time: intermediate sets widen and then
        // narrow again (the "bead"/diamond of the paper).
        let seg = segment(&line_graph(), (0, 0), (6, 3));
        assert!(seg.is_consistent());
        assert!(seg.at(3).len() >= seg.at(1).len());
        assert!(seg.at(3).len() >= seg.at(5).len());
        assert_eq!(seg.at(0), &[0]);
        assert_eq!(seg.at(6), &[3]);
    }

    #[test]
    fn contradictory_segment_yields_empty_sets() {
        // Cannot get from state 0 to state 3 in a single step. No trajectory
        // satisfies both observations, so every covered timestamp is empty
        // (the early exit that skips the walk back).
        let seg = segment(&line_graph(), (0, 0), (1, 3));
        assert!(!seg.is_consistent());
        assert_eq!(seg.at(0), &[] as &[StateId]);
        assert_eq!(seg.at(1), &[] as &[StateId]);
    }

    #[test]
    fn each_step_reads_the_matrix_of_its_time() {
        // Everything shifts right at t = 0, then stands still.
        let shift = CsrMatrix::from_rows(vec![
            vec![(1, 1.0)],
            vec![(2, 1.0)],
            vec![(3, 1.0)],
            vec![(3, 1.0)],
        ]);
        let m = MarkovModel::time_varying(vec![shift, CsrMatrix::identity(4)]);
        let seg = segment(&m, (0, 0), (2, 1));
        assert_eq!(seg.per_time, vec![vec![0], vec![1], vec![1]]);
        // The same commute one tick later only stands still.
        assert!(!segment(&m, (1, 0), (3, 1)).is_consistent());
        assert_eq!(forward_reachable(&m, (1, 2), 2), vec![vec![2], vec![2], vec![2]]);
    }

    #[test]
    fn stamps_that_wrap_mid_segment_leave_no_stale_marks() {
        let m = line_graph();
        let fresh = segment(&m, (0, 0), (6, 3)).per_time;
        // Every state carries the stamp the wrap restarts from, and the
        // counter wraps during the forward expansion.
        MARKS.set(Marks { stamps: vec![1; 4], stamp: u32::MAX - 2 });
        assert_eq!(segment(&m, (0, 0), (6, 3)).per_time, fresh);
        assert_eq!(forward_reachable(&m, (0, 0), 3)[1], vec![0, 1]);
    }

    #[test]
    fn zero_length_segment() {
        let seg = segment(&line_graph(), (4, 2), (4, 2));
        assert!(seg.is_consistent());
        assert_eq!(seg.at(4), &[2]);
    }
}
