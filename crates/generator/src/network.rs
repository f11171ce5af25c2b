//! Spatial networks: the discrete state space plus its edge structure.
//!
//! Both experimental setups of the paper operate on a network: the synthetic
//! generator connects nearby states, the taxi experiment uses a road graph.
//! The network provides
//!
//! * shortest paths (object motion follows "best paths" — Section 3.1),
//! * the derivation of the a-priori Markov model, either with transition
//!   probabilities inversely proportional to edge length (synthetic data,
//!   Section 7) or learned from observed trips (taxi data, where "the
//!   transition matrix was extracted by aggregating the turning probabilities
//!   at crossroads").

use rustc_hash::FxHashMap;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use ust_markov::{CsrMatrix, MarkovModel};
use ust_spatial::{Point, StateId, StateSpace};

/// A spatial network: states with positions and undirected edges.
#[derive(Debug, Clone)]
pub struct Network {
    space: Arc<StateSpace>,
    /// Adjacency lists, sorted by neighbor id. Edge weights are Euclidean
    /// lengths.
    adjacency: Vec<Vec<(StateId, f64)>>,
}

impl Network {
    /// Builds a network from a state space and undirected edge list.
    /// Duplicate and self edges are ignored.
    pub fn new(space: Arc<StateSpace>, edges: impl IntoIterator<Item = (StateId, StateId)>) -> Self {
        let n = space.len();
        let mut adjacency: Vec<Vec<(StateId, f64)>> = vec![Vec::new(); n];
        for (a, b) in edges {
            if a == b || (a as usize) >= n || (b as usize) >= n {
                continue;
            }
            let d = space.dist(a, b);
            adjacency[a as usize].push((b, d));
            adjacency[b as usize].push((a, d));
        }
        for list in &mut adjacency {
            list.sort_unstable_by_key(|&(s, _)| s);
            list.dedup_by_key(|&mut (s, _)| s);
        }
        Network { space, adjacency }
    }

    /// The underlying state space.
    #[inline]
    pub fn space(&self) -> &Arc<StateSpace> {
        &self.space
    }

    /// Number of states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.space.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().map(|l| l.len()).sum::<usize>() / 2
    }

    /// Average degree (the realised branching factor `b` of the paper).
    pub fn average_degree(&self) -> f64 {
        if self.num_states() == 0 {
            return 0.0;
        }
        self.adjacency.iter().map(|l| l.len()).sum::<usize>() as f64 / self.num_states() as f64
    }

    /// Neighbors of a state with their edge lengths.
    #[inline]
    pub fn neighbors(&self, s: StateId) -> &[(StateId, f64)] {
        &self.adjacency[s as usize]
    }

    /// Position of a state.
    #[inline]
    pub fn position(&self, s: StateId) -> Point {
        self.space.position(s)
    }

    /// Shortest path from `from` to `to` (inclusive of both endpoints), or
    /// `None` if `to` is unreachable.
    ///
    /// Convenience wrapper that builds a transient [`PathFinder`]; loops that
    /// query many paths (the object generator chains waypoint legs, the taxi
    /// generator simulates thousands of training trips) should hold one
    /// `PathFinder` and reuse it, which skips the per-call `O(|S|)` scratch
    /// allocation.
    pub fn shortest_path(&self, from: StateId, to: StateId) -> Option<Vec<StateId>> {
        PathFinder::new(self).shortest_path(from, to)
    }

    /// Derives the a-priori Markov model of the synthetic experiments: for
    /// every state, the transition probability to each neighbor is inversely
    /// proportional to the edge length, plus a self-loop whose weight is
    /// `self_loop_weight` times the mean neighbor weight (a positive self-loop
    /// allows objects to move slower than the shortest path — the lag
    /// parameter `v` of the object generator).
    pub fn distance_weighted_model(&self, self_loop_weight: f64) -> MarkovModel {
        let rows: Vec<Vec<(StateId, f64)>> = (0..self.num_states())
            .map(|i| {
                let neighbors = &self.adjacency[i];
                let mut row: Vec<(StateId, f64)> = neighbors
                    .iter()
                    .map(|&(s, d)| (s, 1.0 / d.max(1e-12)))
                    .collect();
                if self_loop_weight > 0.0 || row.is_empty() {
                    let mean = if row.is_empty() {
                        1.0
                    } else {
                        row.iter().map(|&(_, w)| w).sum::<f64>() / row.len() as f64
                    };
                    row.push((i as StateId, self_loop_weight.max(1e-12) * mean));
                }
                row
            })
            .collect();
        MarkovModel::homogeneous(CsrMatrix::stochastic_from_weights(rows))
    }

    /// Derives a Markov model from observed transition counts (the taxi
    /// setup: "aggregating the turning probabilities at crossroads").
    ///
    /// `smoothing` is added to every network edge and to every self-loop so
    /// that the support of the learned model covers the whole network —
    /// evaluation trips may use turns never seen in training, and the
    /// adaptation requires observations to be non-contradicting.
    pub fn learned_model(
        &self,
        counts: &FxHashMap<(StateId, StateId), f64>,
        smoothing: f64,
    ) -> MarkovModel {
        let rows: Vec<Vec<(StateId, f64)>> = (0..self.num_states())
            .map(|i| {
                let s = i as StateId;
                let mut row: Vec<(StateId, f64)> = self.adjacency[i]
                    .iter()
                    .map(|&(t, _)| (t, smoothing + counts.get(&(s, t)).copied().unwrap_or(0.0)))
                    .collect();
                row.push((s, smoothing + counts.get(&(s, s)).copied().unwrap_or(0.0)));
                row
            })
            .collect();
        MarkovModel::homogeneous(CsrMatrix::stochastic_from_weights(rows))
    }

    /// States sorted by distance from a point (nearest first); helper for
    /// query generation and map matching of simulated GPS positions.
    pub fn nearest_state(&self, p: &Point) -> Option<StateId> {
        self.space.nearest_state(p)
    }
}

/// A reusable goal-directed shortest-path searcher over one [`Network`].
///
/// Two properties make paper-scale object generation (500k states, tens of
/// thousands of path queries) tractable where the old per-call Dijkstra was
/// not:
///
/// * **A\* with the straight-line lower bound.** Edge weights *are* Euclidean
///   lengths, so the distance to the target is an admissible (and consistent)
///   heuristic — returned paths are exact shortest paths, but the search
///   explores a corridor between the endpoints instead of a distance ball
///   that covers most of the network when the endpoints are far apart.
/// * **Epoch-stamped scratch.** The `g`-score/predecessor arrays are
///   allocated once and invalidated per query by bumping an epoch counter,
///   so repeated queries are allocation-free and cost `O(visited)`, not
///   `O(|S|)` re-initialisation.
pub struct PathFinder<'a> {
    network: &'a Network,
    /// `g`-score per state, valid only where `stamp == epoch`.
    g_score: Vec<f64>,
    /// Predecessor per state, valid only where `stamp == epoch`.
    prev: Vec<StateId>,
    /// Query epoch each state's scratch entries belong to.
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<AStarEntry>,
}

impl std::fmt::Debug for PathFinder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PathFinder")
            .field("states", &self.g_score.len())
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl<'a> PathFinder<'a> {
    /// Creates a finder with fresh scratch for the given network.
    pub fn new(network: &'a Network) -> Self {
        let n = network.num_states();
        PathFinder {
            network,
            g_score: vec![f64::INFINITY; n],
            prev: vec![StateId::MAX; n],
            stamp: vec![0; n],
            epoch: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// The network this finder searches.
    #[inline]
    pub fn network(&self) -> &'a Network {
        self.network
    }

    #[inline]
    fn g(&self, s: StateId) -> f64 {
        if self.stamp[s as usize] == self.epoch {
            self.g_score[s as usize]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn set(&mut self, s: StateId, g: f64, from: StateId) {
        self.g_score[s as usize] = g;
        self.prev[s as usize] = from;
        self.stamp[s as usize] = self.epoch;
    }

    /// Shortest path from `from` to `to` (inclusive of both endpoints), or
    /// `None` if `to` is unreachable. Exact — see the heuristic note on
    /// [`PathFinder`].
    pub fn shortest_path(&mut self, from: StateId, to: StateId) -> Option<Vec<StateId>> {
        if from == to {
            return Some(vec![from]);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.heap.clear();
        let target = self.network.position(to);
        self.set(from, 0.0, StateId::MAX);
        self.heap.push(AStarEntry {
            f: self.network.position(from).dist(&target),
            g: 0.0,
            state: from,
        });
        while let Some(AStarEntry { g, state, .. }) = self.heap.pop() {
            if state == to {
                let mut path = vec![to];
                let mut cur = to;
                while cur != from {
                    cur = self.prev[cur as usize];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            if g > self.g(state) {
                continue;
            }
            for &(next, w) in self.network.neighbors(state) {
                let ng = g + w;
                if ng < self.g(next) {
                    self.set(next, ng, state);
                    let h = self.network.position(next).dist(&target);
                    self.heap.push(AStarEntry { f: ng + h, g: ng, state: next });
                }
            }
        }
        None
    }
}

/// Max-heap entry ordered by minimal `f = g + h` (reverse ordering), with the
/// `g`-score carried along for the stale-entry check.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AStarEntry {
    f: f64,
    g: f64,
    state: StateId,
}

impl Eq for AStarEntry {}

impl Ord for AStarEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| other.state.cmp(&self.state))
    }
}

impl PartialOrd for AStarEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3x3 grid of unit-spaced states, 4-connected.
    fn grid3() -> Network {
        let mut pts = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                pts.push(Point::new(x as f64, y as f64));
            }
        }
        let space = Arc::new(StateSpace::from_points(pts));
        let mut edges = Vec::new();
        for y in 0..3i32 {
            for x in 0..3i32 {
                let id = (y * 3 + x) as StateId;
                if x + 1 < 3 {
                    edges.push((id, id + 1));
                }
                if y + 1 < 3 {
                    edges.push((id, id + 3));
                }
            }
        }
        Network::new(space, edges)
    }

    #[test]
    fn construction_and_degrees() {
        let net = grid3();
        assert_eq!(net.num_states(), 9);
        assert_eq!(net.num_edges(), 12);
        assert_eq!(net.neighbors(4).len(), 4, "center of the grid has degree 4");
        assert_eq!(net.neighbors(0).len(), 2, "corner has degree 2");
        assert!((net.average_degree() - 24.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_and_self_edges_are_ignored() {
        let space = Arc::new(StateSpace::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
        ]));
        let net = Network::new(space, vec![(0, 1), (1, 0), (0, 0), (0, 1)]);
        assert_eq!(net.num_edges(), 1);
    }

    #[test]
    fn shortest_path_on_grid() {
        let net = grid3();
        let path = net.shortest_path(0, 8).unwrap();
        assert_eq!(path.first(), Some(&0));
        assert_eq!(path.last(), Some(&8));
        assert_eq!(path.len(), 5, "manhattan distance 4 -> 5 nodes");
        // Consecutive nodes are connected.
        for w in path.windows(2) {
            assert!(net.neighbors(w[0]).iter().any(|&(s, _)| s == w[1]));
        }
        assert_eq!(net.shortest_path(3, 3).unwrap(), vec![3]);
    }

    #[test]
    fn shortest_path_unreachable() {
        let space = Arc::new(StateSpace::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 5.0),
        ]));
        let net = Network::new(space, vec![(0, 1)]);
        assert!(net.shortest_path(0, 2).is_none());
    }

    #[test]
    fn distance_weighted_model_is_stochastic_and_prefers_near_neighbors() {
        // State 0 has a near neighbor (1) and a far neighbor (2).
        let space = Arc::new(StateSpace::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(4.0, 0.0),
        ]));
        let net = Network::new(space, vec![(0, 1), (0, 2), (1, 2)]);
        let model = net.distance_weighted_model(0.0);
        assert!(model.is_valid());
        let m = model.matrix_at(0);
        assert!(m.get(0, 1) > m.get(0, 2), "closer neighbor gets higher probability");
        // With a self-loop weight, the diagonal becomes positive.
        let with_loop = net.distance_weighted_model(0.5);
        assert!(with_loop.matrix_at(0).get(0, 0) > 0.0);
        assert!(with_loop.is_valid());
    }

    #[test]
    fn learned_model_uses_counts_and_smoothing() {
        let net = grid3();
        let mut counts: FxHashMap<(StateId, StateId), f64> = FxHashMap::default();
        counts.insert((0, 1), 10.0);
        counts.insert((0, 3), 1.0);
        let model = net.learned_model(&counts, 0.1);
        assert!(model.is_valid());
        let m = model.matrix_at(0);
        assert!(m.get(0, 1) > m.get(0, 3));
        // Smoothing keeps unobserved turns and the self-loop possible.
        assert!(m.get(0, 0) > 0.0);
        assert!(m.get(3, 4) > 0.0);
    }
}
