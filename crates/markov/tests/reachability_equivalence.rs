//! The reachability expansion must equal a plain sort-and-dedup
//! breadth-first search, set for set, on homogeneous and time-varying
//! chains.
//!
//! `ust_markov::reachability` removes each step's duplicate successors with
//! generation-stamped marks in a per-thread scratch and cuts a segment's
//! forward sets by walking back through them, reading the matrix of each
//! step's own time. The oracle below is the plain expansion, step by step:
//! push every successor of the frontier under that step's matrix, sort,
//! dedup, and build a segment as the intersection of the forward and the
//! backward sets, the backward ones over per-step predecessor graphs rebuilt
//! from the swapped entries. Random support graphs cover self-loops,
//! successors shared by many states, sinks and an origin without
//! successors, at 0–12 steps; half the chains switch among up to four such
//! graphs over time. Each case alternates between a small and a large state
//! space on the test's one thread, so the reused scratch is read at sizes
//! below and above the last expansion's.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ust_markov::reachability::segment;
use ust_markov::{CsrMatrix, MarkovModel, StateId, Timestamp};

const CASES: u64 = 300;
const MAX_STEPS: usize = 12;

/// `result[k]` is the sorted set of states reachable from `origin` at time
/// `start` in exactly `k` steps, step `k` taken by the matrix of time
/// `start + k`: every successor of the frontier, sorted and deduplicated.
fn oracle_expand(
    model: &MarkovModel,
    start: Timestamp,
    origin: StateId,
    steps: usize,
) -> Vec<Vec<StateId>> {
    let mut out = vec![vec![origin]];
    for k in 0..steps {
        let matrix = model.matrix_at(start + k as Timestamp);
        let mut next: Vec<StateId> = Vec::new();
        for &s in &out[k] {
            next.extend_from_slice(matrix.successors(s));
        }
        next.sort_unstable();
        next.dedup();
        out.push(next);
    }
    out
}

/// The predecessor graph of `matrix`, rebuilt row by row from its swapped
/// entries.
fn oracle_transpose(matrix: &CsrMatrix) -> CsrMatrix {
    let mut rows: Vec<Vec<(StateId, f64)>> = vec![Vec::new(); matrix.num_states()];
    for i in 0..matrix.num_states() as StateId {
        for (j, v) in matrix.row_iter(i) {
            rows[j as usize].push((i, v));
        }
    }
    CsrMatrix::from_rows(rows)
}

/// A segment's per-timestamp sets: all empty when the target is not
/// forward-reachable, else forward ∩ backward at every step. `bwd[j]` holds
/// the states `j` steps before the target, expanded over the predecessor
/// graph of the step that leads out of them.
fn oracle_segment(
    model: &MarkovModel,
    start: Timestamp,
    from: StateId,
    to: StateId,
    steps: usize,
) -> Vec<Vec<StateId>> {
    let fwd = oracle_expand(model, start, from, steps);
    if fwd[steps].binary_search(&to).is_err() {
        return vec![Vec::new(); steps + 1];
    }
    let mut bwd = vec![vec![to]];
    for j in 0..steps {
        let preds = oracle_transpose(model.matrix_at(start + (steps - 1 - j) as Timestamp));
        let mut prev: Vec<StateId> = Vec::new();
        for &s in &bwd[j] {
            prev.extend_from_slice(preds.successors(s));
        }
        prev.sort_unstable();
        prev.dedup();
        bwd.push(prev);
    }
    (0..=steps)
        .map(|k| {
            let backward = &bwd[steps - k];
            fwd[k].iter().copied().filter(|s| backward.binary_search(s).is_ok()).collect()
        })
        .collect()
}

/// A random support graph over `n` states: some rows are sinks, some carry
/// a self-loop, and successors are drawn mostly from a few hub states so
/// that many states share them. `origin_sink` empties the origin's row.
fn random_graph(rng: &mut StdRng, n: u32, origin: StateId, origin_sink: bool) -> CsrMatrix {
    let hubs: Vec<StateId> = (0..3).map(|_| rng.gen_range(0..n)).collect();
    let rows = (0..n)
        .map(|s| {
            if (s == origin && origin_sink) || rng.gen_bool(0.15) {
                return Vec::new();
            }
            let mut row: Vec<(StateId, f64)> = (0..rng.gen_range(1..=5))
                .map(|_| {
                    let t = if rng.gen_bool(0.5) {
                        hubs[rng.gen_range(0..hubs.len())]
                    } else {
                        rng.gen_range(0..n)
                    };
                    (t, 1.0)
                })
                .collect();
            if rng.gen_bool(0.3) {
                row.push((s, 1.0));
            }
            row
        })
        .collect();
    CsrMatrix::from_rows(rows)
}

#[test]
fn expansion_and_segments_equal_the_sort_and_dedup_oracle() {
    let (mut sinks, mut consistent, mut contradictory) = (0, 0, 0);
    let mut time_varying_differs = 0;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let n = if case % 2 == 0 {
            rng.gen_range(1..=8u32)
        } else {
            rng.gen_range(40..=120u32)
        };
        let origin = rng.gen_range(0..n);
        let origin_sink = rng.gen_bool(0.1);
        let time_varying = rng.gen_bool(0.5);
        let (model, start) = if time_varying {
            let count = rng.gen_range(2..=4usize);
            let matrices = (0..count).map(|_| random_graph(&mut rng, n, origin, origin_sink));
            // Starts before the last matrix, so a segment crosses switches.
            (MarkovModel::time_varying(matrices.collect()), rng.gen_range(0..count as u32))
        } else {
            let matrix = random_graph(&mut rng, n, origin, origin_sink);
            (MarkovModel::homogeneous(matrix), rng.gen_range(0..100u32))
        };
        let steps = rng.gen_range(0..=MAX_STEPS);

        let fwd = oracle_expand(&model, start, origin, steps);
        // The expansion's last set, through the public API: a segment is
        // consistent exactly when its second observation is reachable.
        for s in 0..n {
            let end = (start + steps as u32, s);
            assert_eq!(
                segment(&model, (start, origin), end).is_consistent(),
                fwd[steps].contains(&s),
                "case {case}: forward to {s}"
            );
        }
        let target = if rng.gen_bool(0.7) && !fwd[steps].is_empty() {
            fwd[steps][rng.gen_range(0..fwd[steps].len())]
        } else {
            rng.gen_range(0..n)
        };

        let sets = segment(&model, (start, origin), (start + steps as u32, target));
        assert_eq!((sets.start, sets.end), (start, start + steps as u32));
        let expected = oracle_segment(&model, start, origin, target, steps);
        assert_eq!(sets.per_time, expected, "case {case}");

        if time_varying {
            // The sets step 0's matrix alone would give.
            let first = MarkovModel::homogeneous(model.matrix_at(start).clone());
            time_varying_differs +=
                usize::from(oracle_segment(&first, start, origin, target, steps) != expected);
        }
        sinks += usize::from(model.matrix_at(start).successors(origin).is_empty());
        if sets.is_consistent() {
            consistent += 1;
        } else {
            contradictory += 1;
        }
    }
    assert!(sinks > 0, "no case expanded from an origin without successors");
    assert!(consistent > 0 && contradictory > 0, "{consistent} consistent, {contradictory} not");
    assert!(time_varying_differs > 0, "no time-varying case depended on its later matrices");
}
