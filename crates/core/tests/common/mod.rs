//! The horizontal Apriori of Algorithm 1, the test oracle of the vertical
//! PCNN miner (`ust_core::pcnn::vertical_timesets`).
//!
//! Per sampled world it keeps the mask of query timestamps at which the
//! object is a nearest neighbor, joins each lattice level pairwise with a
//! hash-set dedup, and validates every candidate with a containment scan over
//! all world masks. It shares no code with the miner it checks.

use rustc_hash::FxHashSet;
use ust_core::pcnn::{PcnnConfig, PcnnResult, WorldSet};
use ust_core::{Timestamp, TimestampSets};
use ust_trajectory::TimeMask;

/// Builds world masks from explicit per-world index lists.
pub fn masks(num_times: usize, worlds: &[&[usize]]) -> Vec<TimeMask> {
    worlds.iter().map(|w| TimeMask::from_indices(num_times, w.iter().copied())).collect()
}

/// The vertical layout of per-world masks: world `w` is recorded at every
/// timestamp its mask holds.
pub fn world_set(num_times: usize, masks: &[TimeMask]) -> WorldSet {
    let mut ws = WorldSet::new(num_times, masks.len());
    for (w, mask) in masks.iter().enumerate() {
        for t in mask.iter_ones() {
            ws.record(t, w);
        }
    }
    ws
}

/// Estimates `P∀NN(o, q, T_k)` for the timestamp subset given by `indices`
/// (sorted indices into the query timestamps) from per-world membership masks.
///
/// The engine validates candidates through [`WorldSet`] intersections
/// instead.
pub fn subset_probability(world_masks: &[TimeMask], indices: &[usize]) -> f64 {
    if world_masks.is_empty() {
        return 0.0;
    }
    let num_times = world_masks[0].len();
    let subset = TimeMask::from_indices(num_times, indices.iter().copied());
    let hits = world_masks.iter().filter(|m| m.contains_all(&subset)).count();
    hits as f64 / world_masks.len() as f64
}

/// Runs Algorithm 1 for one object over horizontal per-world masks.
///
/// `world_masks` holds, for every sampled possible world, the set of query
/// timestamps (as indices `0..num_times`) at which the object was a nearest
/// neighbor. Returns all qualifying timestamp sets.
///
/// This is the **reference implementation** the vertical miner is tested
/// against: `vertical_timesets` must return byte-identical sets,
/// probabilities and counters.
pub fn apriori_timesets(
    world_masks: &[TimeMask],
    num_times: usize,
    cfg: &PcnnConfig,
) -> PcnnResult {
    let mut evaluated = 0usize;
    let mut max_level = 0usize;
    let mut frontier_peak = 0usize;
    let mut all_results: Vec<(Vec<usize>, f64)> = Vec::new();

    // L1: singleton timestamp sets (line 1 of Algorithm 1).
    let mut current_level: Vec<(Vec<usize>, f64)> = Vec::new();
    for i in 0..num_times {
        evaluated += 1;
        let p = subset_probability(world_masks, &[i]);
        if p >= cfg.tau {
            current_level.push((vec![i], p));
        }
    }
    if !current_level.is_empty() {
        max_level = 1;
        frontier_peak = current_level.len();
    }
    all_results.extend(current_level.iter().cloned());

    // Lk from Lk-1 (lines 2-5).
    while current_level.len() > 1 {
        let prev_sets: FxHashSet<Vec<usize>> =
            current_level.iter().map(|(s, _)| s.clone()).collect();
        let mut next_level: Vec<(Vec<usize>, f64)> = Vec::new();
        let mut generated: FxHashSet<Vec<usize>> = FxHashSet::default();
        for a in 0..current_level.len() {
            for b in (a + 1)..current_level.len() {
                let (sa, _) = &current_level[a];
                let (sb, _) = &current_level[b];
                // Apriori join: both sets must agree on all but the last element.
                if sa[..sa.len() - 1] != sb[..sb.len() - 1] {
                    continue;
                }
                let mut joined = sa.clone();
                joined.push(*sb.last().expect("non-empty"));
                joined.sort_unstable();
                if !generated.insert(joined.clone()) {
                    continue;
                }
                // Prune: every (k-1)-subset must have qualified.
                let all_subsets_qualify = (0..joined.len()).all(|drop| {
                    let mut sub = joined.clone();
                    sub.remove(drop);
                    prev_sets.contains(&sub)
                });
                if !all_subsets_qualify {
                    continue;
                }
                evaluated += 1;
                let p = subset_probability(world_masks, &joined);
                if p >= cfg.tau {
                    next_level.push((joined, p));
                }
            }
        }
        if next_level.is_empty() {
            break;
        }
        max_level = next_level[0].0.len();
        frontier_peak = frontier_peak.max(next_level.len());
        all_results.extend(next_level.iter().cloned());
        current_level = next_level;
    }

    if cfg.maximal_only {
        all_results = keep_maximal(all_results);
    }
    let mut sets = TimestampSets::default();
    for (indices, p) in &all_results {
        let indices: Vec<Timestamp> = indices.iter().map(|&i| i as Timestamp).collect();
        sets.push(&indices, *p);
    }
    PcnnResult {
        sets,
        candidate_sets_evaluated: evaluated,
        max_level,
        frontier_peak,
        degraded: false,
    }
}

/// Removes every set that is a proper subset of another qualifying set (the
/// maximality filter, by an all-pairs scan).
fn keep_maximal(sets: Vec<(Vec<usize>, f64)>) -> Vec<(Vec<usize>, f64)> {
    let mut keep = Vec::new();
    for (i, (s, p)) in sets.iter().enumerate() {
        let is_subsumed = sets.iter().enumerate().any(|(j, (other, _))| {
            i != j && other.len() > s.len() && s.iter().all(|x| other.contains(x))
        });
        if !is_subsumed {
            keep.push((s.clone(), *p));
        }
    }
    keep
}
