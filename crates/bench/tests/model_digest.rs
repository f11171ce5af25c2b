//! Pins the adapted models of the quick-scale synthetic dataset bit for bit.
//!
//! The dataset is the one the end-to-end benchmark and the quick figures use
//! (2 000 states, b = 8, 200 objects, seed 1). Every object is adapted with
//! the default forward–backward pass and hashed: its forward marginals (from
//! the forward-only pass, `ModelAdaptation::forward_marginals`, since a model
//! does not keep them) and posterior marginals, every `F(t)` row, the
//! alias table's selection measure of every entry, and the alias draws at
//! five fixed `u` values per row. The digest was computed before the
//! adaptation dropped its per-step hash maps; any change to a single
//! probability bit, row or alias slot moves it.

use ust_bench::datasets::{build_synthetic, ScaleParams};
use ust_bench::RunScale;
use ust_markov::{AdaptedModel, ModelAdaptation, SparseDist};
use ust_persist::format::fnv1a64;

/// FNV-1a over the byte image below, and the row and slot totals.
const DIGEST: u64 = 0xaf1e_0336_0fb1_b0cd;
const ROWS: usize = 276_027;
const SLOTS: usize = 1_825_096;

fn push_dist(bytes: &mut Vec<u8>, d: &SparseDist) {
    bytes.extend_from_slice(&(d.support_size() as u64).to_le_bytes());
    for (s, p) in d.iter() {
        bytes.extend_from_slice(&s.to_le_bytes());
        bytes.extend_from_slice(&p.to_bits().to_le_bytes());
    }
}

#[test]
fn quick_scale_models_are_bit_identical_to_the_pinned_digest() {
    let params = ScaleParams::for_scale(RunScale::Quick);
    let db = build_synthetic(&params, 2_000, 8.0, 200, 1).database;
    assert_eq!(db.len(), 200);
    let mut bytes = Vec::new();
    let (mut rows, mut slots) = (0, 0);
    for o in db.objects() {
        let (model, observations) = (db.model_for(o.id()).as_ref(), o.observation_pairs());
        let m = AdaptedModel::build(model, &observations)
            .expect("generated observations are consistent");
        let forward = ModelAdaptation::new()
            .forward_marginals(model, &observations)
            .expect("the forward pass of a model that adapts succeeds");
        for v in [o.id(), m.start(), m.end()] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for (t, belief) in (m.start()..=m.end()).zip(&forward) {
            push_dist(&mut bytes, belief);
            push_dist(&mut bytes, m.posterior_at(t).unwrap());
        }
        assert_eq!(forward.len(), m.horizon() + 1);
        for t in m.start()..m.end() {
            let step = (t - m.start()) as usize;
            let table = m.transition_table(t).unwrap();
            bytes.extend_from_slice(&(table.len() as u64).to_le_bytes());
            for (src, row) in table {
                rows += 1;
                slots += row.len();
                bytes.extend_from_slice(&src.to_le_bytes());
                bytes.extend_from_slice(&(row.len() as u64).to_le_bytes());
                for (s, p) in row.iter() {
                    let measure = m.alias_kernel().table_probability(step, src, s);
                    bytes.extend_from_slice(&s.to_le_bytes());
                    bytes.extend_from_slice(&p.to_bits().to_le_bytes());
                    bytes.extend_from_slice(&measure.to_bits().to_le_bytes());
                }
                for u in [0.0, 0.25, 0.5, 0.75, 1.0 - f64::EPSILON / 2.0] {
                    let drawn = m.sample_transition(t, src, u).unwrap_or(u32::MAX);
                    bytes.extend_from_slice(&drawn.to_le_bytes());
                }
            }
        }
    }
    assert_eq!((rows, slots), (ROWS, SLOTS));
    assert_eq!(fnv1a64(&bytes), DIGEST, "got {:#018x}", fnv1a64(&bytes));
}
