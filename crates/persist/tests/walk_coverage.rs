//! A checksum-valid store must not smuggle a dead end into the sampler.
//!
//! The sampler walks an adapted model from its first observed state, or from
//! a state drawn from the a-posteriori marginal at a query window's start,
//! and asks the model for a row at every step; a state without one has
//! nowhere to go. The decoder therefore rejects, with a typed
//! [`StoreError::Malformed`], any stored model whose first observed state
//! has no non-empty row at step 0, whose step-`k` rows reach a state with no
//! non-empty row at step `k + 1`, with an empty a-posteriori marginal, or
//! with a marginal state at offset `k` that has no non-empty row at step
//! `k`. The stores below are well-formed in every other respect: each
//! section's checksum is valid and every row and marginal is individually
//! valid.

mod common;

use ust_markov::{AdaptedModel, SparseDist, StateId, Timestamp};
use ust_persist::format::{fnv1a64, section, ByteWriter, FORMAT_VERSION, MAGIC};
use ust_persist::{decode_store, encode_store, StoreContents, StoreError};

/// Byte offset of the only section's payload in a one-section store: magic
/// (8) + version (4) + section count (4) + frame id (4) + payload length (8)
/// + checksum (8).
const PAYLOAD_OFFSET: usize = 36;

/// Which stored rows to keep: `(model index, step, source)`.
type Keep<'a> = &'a dyn Fn(usize, usize, StateId) -> bool;

/// The stored a-posteriori marginal of `(model index, offset)`, given the
/// model's own.
type Posterior<'a> = &'a dyn Fn(usize, usize, &SparseDist) -> Vec<(StateId, f64)>;

/// Writes one adapted model in the MODELS encoding, keeping only the rows
/// `keep` accepts and storing the posterior marginals `posterior` returns.
fn encode_model(
    w: &mut ByteWriter,
    m: &AdaptedModel,
    keep: impl Fn(usize, StateId) -> bool,
    posterior: impl Fn(usize, &SparseDist) -> Vec<(StateId, f64)>,
) {
    let entries = |w: &mut ByteWriter, pairs: Vec<(StateId, f64)>| {
        w.u64(pairs.len() as u64);
        for (s, p) in pairs {
            w.u32(s);
            w.f64(p);
        }
    };
    w.u64(m.observations().len() as u64);
    for &(t, s) in m.observations() {
        w.u32(t);
        w.u32(s);
    }
    for t in m.start()..=m.end() {
        entries(w, posterior((t - m.start()) as usize, m.posterior_at(t).unwrap()));
    }
    for t in m.start()..m.end() {
        let step = (t - m.start()) as usize;
        let rows: Vec<_> = m.transition_table(t).unwrap().filter(|&(s, _)| keep(step, s)).collect();
        w.u64(rows.len() as u64);
        for (s, row) in rows {
            w.u32(s);
            entries(w, row.iter().collect());
        }
    }
}

/// A store of the workload's database and models, with every section
/// checksum recomputed over the edited payload.
fn store_with(w: &common::Workload, keep: Keep<'_>) -> Vec<u8> {
    store_edited(w, keep, &|_, _, marginal| marginal.entries().to_vec())
}

/// [`store_with`], with the stored posterior marginals edited too.
fn store_edited(w: &common::Workload, keep: Keep<'_>, posterior: Posterior<'_>) -> Vec<u8> {
    let database_only = encode_store(&StoreContents { database: &w.db, index: None, models: &[] });
    let database = database_only[PAYLOAD_OFFSET..].to_vec();
    let mut mw = ByteWriter::new();
    mw.u64(w.models.len() as u64);
    for (index, (id, model)) in w.models.iter().enumerate() {
        mw.u32(*id);
        encode_model(
            &mut mw,
            model,
            |step, source| keep(index, step, source),
            |offset, marginal| posterior(index, offset, marginal),
        );
    }
    let mut out = ByteWriter::new();
    out.bytes(&MAGIC);
    out.u32(FORMAT_VERSION);
    out.u32(2);
    for (id, payload) in [(section::DATABASE, database), (section::MODELS, mw.into_bytes())] {
        out.u32(id);
        out.u64(payload.len() as u64);
        out.u64(fnv1a64(&payload));
        out.bytes(&payload);
    }
    out.into_bytes()
}

/// A workload and the index of a model spanning at least two steps.
fn workload() -> (common::Workload, usize) {
    let w = common::build_workload(20, 4, 6, 99);
    let index = w.models.iter().position(|(_, m)| m.horizon() >= 2).expect("a multi-step model");
    (w, index)
}

fn malformed(context: &'static str) -> Result<(), StoreError> {
    Err(StoreError::Malformed { context })
}

#[test]
fn the_hand_encoding_is_the_store_encoding() {
    // Keeping every row reproduces the encoder's bytes, so the edits below
    // differ from a real store only in the rows they drop.
    let (w, _) = workload();
    let bytes = store_with(&w, &|_, _, _| true);
    let real = encode_store(&StoreContents { database: &w.db, index: None, models: &w.models });
    assert_eq!(bytes, real);
    assert!(decode_store(&bytes).is_ok());
}

#[test]
fn an_empty_first_step_is_rejected() {
    let (w, target) = workload();
    let bytes = store_with(&w, &|index, step, _| index != target || step != 0);
    let outcome = decode_store(&bytes).map(|_| ());
    assert_eq!(outcome, malformed("first observed state has no transition row at the first step"));
}

#[test]
fn a_missing_first_row_is_rejected() {
    let (w, target) = workload();
    let first = w.models[target].1.observations()[0].1;
    let bytes =
        store_with(&w, &|index, step, source| index != target || (step, source) != (0, first));
    let outcome = decode_store(&bytes).map(|_| ());
    assert_eq!(outcome, malformed("first observed state has no transition row at the first step"));
}

#[test]
fn a_target_without_a_row_at_the_next_step_is_rejected() {
    let (w, target) = workload();
    let model = &w.models[target].1;
    let (start, first): (Timestamp, StateId) = model.observations()[0];
    let next = model.transition_row(start, first).expect("first row").targets()[0];
    let bytes =
        store_with(&w, &|index, step, source| index != target || (step, source) != (1, next));
    let outcome = decode_store(&bytes).map(|_| ());
    assert_eq!(outcome, malformed("a transition target has no row at the next step"));
}

#[test]
fn an_empty_interior_posterior_is_rejected() {
    let (w, target) = workload();
    let keep_all: Keep<'_> = &|_, _, _| true;
    let bytes = store_edited(&w, keep_all, &|index, offset, marginal| {
        if (index, offset) == (target, 1) {
            Vec::new()
        } else {
            marginal.entries().to_vec()
        }
    });
    let outcome = decode_store(&bytes).map(|_| ());
    assert_eq!(outcome, malformed("an a-posteriori marginal is empty"));
}

#[test]
fn a_posterior_state_without_a_row_at_its_step_is_rejected() {
    // Every walk from the first observation still finds its rows; only a
    // window walk drawn onto the stray state at offset 1 would be stuck.
    let (w, target) = workload();
    let model = &w.models[target].1;
    let t = model.start() + 1;
    let sources: Vec<StateId> = model.transition_table(t).unwrap().map(|(s, _)| s).collect();
    let stray = (0..).find(|s| !sources.contains(s)).expect("a state without a row");
    assert!((stray as usize) < w.db.state_space().len());
    let keep_all: Keep<'_> = &|_, _, _| true;
    let bytes = store_edited(&w, keep_all, &|index, offset, marginal| {
        if (index, offset) == (target, 1) {
            vec![(stray, 1.0)]
        } else {
            marginal.entries().to_vec()
        }
    });
    let outcome = decode_store(&bytes).map(|_| ());
    assert_eq!(outcome, malformed("an a-posteriori state has no transition row at its step"));
}
