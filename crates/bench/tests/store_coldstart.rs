//! Cold-start determinism for the on-disk store: an engine reconstructed
//! from a `.ustore` file must answer the full efficiency workload with a
//! digest byte-identical to the engine that built the dataset from scratch —
//! at every TS-phase worker count. This is the end-to-end counterpart of the
//! byte-level round-trip tests in `crates/persist/tests/roundtrip.rs`.

use std::path::PathBuf;

use ust_bench::args::RunScale;
use ust_bench::datasets::{build_queries, build_synthetic, ScaleParams};
use ust_bench::efficiency::measure_efficiency;
use ust_core::{EngineConfig, EngineStore, QueryEngine};

fn quick_params() -> ScaleParams {
    let mut params = ScaleParams::for_scale(RunScale::Quick);
    params.num_queries = 3;
    params
}

fn store_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ust_store_coldstart_{}_{tag}.ustore", std::process::id()))
}

#[test]
fn cold_started_engine_answers_byte_identically() {
    let params = quick_params();
    let dataset = build_synthetic(&params, 400, params.branching, 40, 0);
    let queries = build_queries(&dataset, &params, 0);

    for threads in [1usize, 2] {
        let config = EngineConfig {
            num_samples: params.num_samples,
            seed: 0,
            adaptation_threads: threads,
            index_build_threads: 1,
            ..Default::default()
        };
        let fresh = QueryEngine::new(&dataset.database, config.clone());
        let fresh_m = measure_efficiency(&fresh, &queries).expect("unlimited budget");
        assert_ne!(fresh_m.digest, 0);

        let path = store_path(&format!("t{threads}"));
        let written = fresh.save_store(&path).expect("save succeeds");
        assert!(written.bytes > 0);
        assert!(written.sections >= 2, "database and tree sections expected");

        let store = EngineStore::load(&path).expect("load succeeds");
        std::fs::remove_file(&path).ok();
        assert_eq!(store.stats().objects, dataset.database.len());
        assert!(store.index().is_some(), "the tree must survive the trip");

        let cold = store.engine(config);
        let cold_m = measure_efficiency(&cold, &queries).expect("unlimited budget");
        assert_eq!(
            fresh_m.digest, cold_m.digest,
            "cold-started engine diverged at {threads} TS threads"
        );
        assert_eq!(fresh_m.candidates.to_bits(), cold_m.candidates.to_bits());
        assert_eq!(fresh_m.influencers.to_bits(), cold_m.influencers.to_bits());
        eprintln!(
            "[store_coldstart] threads={threads} store={}B load={:?}",
            store.stats().bytes,
            store.stats().load_time
        );
    }
}

#[test]
fn cold_started_engine_without_index_still_matches() {
    // With `use_index: false` the store's tree section is decoded but
    // ignored; the cold engine must take the same index-free path as a fresh
    // index-free engine and produce the same result set.
    let params = quick_params();
    let dataset = build_synthetic(&params, 300, params.branching, 25, 1);
    let queries = build_queries(&dataset, &params, 1);
    let config = EngineConfig {
        num_samples: params.num_samples,
        seed: 1,
        adaptation_threads: 1,
        index_build_threads: 1,
        use_index: false,
        ..Default::default()
    };
    let fresh = QueryEngine::new(&dataset.database, config.clone());
    let fresh_m = measure_efficiency(&fresh, &queries).expect("unlimited budget");

    // Save from an indexed engine so the store genuinely carries a TREE
    // section that the cold start then has to skip.
    let indexed = QueryEngine::new(&dataset.database, EngineConfig { use_index: true, ..config.clone() });
    let path = store_path("noindex");
    let written = indexed.save_store(&path).expect("save succeeds");
    assert!(written.sections >= 2, "the store must carry the tree being skipped");
    let store = EngineStore::load(&path).expect("load succeeds");
    std::fs::remove_file(&path).ok();

    let cold = store.engine(config);
    let cold_m = measure_efficiency(&cold, &queries).expect("unlimited budget");
    assert_eq!(fresh_m.digest, cold_m.digest, "index-free cold start diverged");
}
