//! Exact equivalence of the shard-parallel engine and the sequential reference scan.
//!
//! The refactor's contract: for any corpus, any query and any shard count, the
//! [`SearchEngine`] over a [`ShardedStore`] returns **identical** `SearchMatch`
//! lists (same documents, same ranks, same deterministic order), identical merged
//! `SearchStats` and identical top-k cuts (every k around the match count: the
//! engine selects what it keeps, the reference sorts everything and truncates,
//! and a fused batch may ask a different k per position) — only wall-clock time
//! may differ. This
//! test drives randomized corpora
//! and keyword workloads through both paths at shard counts 1, 2 and 7 (coprime
//! with nothing, so round-robin tails are exercised) plus 16 (more shards than some
//! corpora have documents).
//!
//! The same contract extends to the **result cache**: a cache-enabled engine must
//! return byte-identical matches, ranks, order and merged `SearchStats` on cold
//! lookups, warm hits, after interleaved inserts (per-shard invalidation) and
//! across a snapshot/restore cycle.
//!
//! The engine's shard scans run on the scan plane (`mkse_core::scanplane`), so
//! every assertion here also holds the bit-sliced layout to the AoS reference —
//! on scheme-generated corpora, where the §6 fake keywords leave most of the
//! plane's rows dead; the plane-specific corners (ragged r, row-selection
//! extremes, corpora with no dead row, arbitrary bit patterns) live in
//! `mkse-core/tests/scanplane_equivalence.rs`, which CI additionally runs in
//! release mode.
//!
//! Shard scans are dispatched by one executor over scan units — chunk ranges
//! of a shard's plane on a multi-lane engine, whole shards on one lane — so the
//! contract covers the lane count too. The steal-heavy sweep below holds every
//! combination of shards × lanes — cache on and off, fused batches with
//! duplicates — to the same byte-identical bar, including the cache hit/miss
//! counters, which must not be able to tell a multi-lane engine from a
//! one-lane twin.

use mkse::core::scanplane::CHUNK;
use mkse::core::{
    BitIndex, CacheConfig, CloudIndex, DocumentIndexer, QueryBuilder, QueryIndex,
    RankedDocumentIndex, SchemeKeys, SearchEngine, ShardedStore, SystemParams,
};
use mkse::textproc::corpus::{CorpusSpec, FrequencyModel, SyntheticCorpus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

fn small_params() -> SystemParams {
    // Small index keeps the sweep fast; every structural property is preserved.
    SystemParams::new(128, 4, 16, 10, 5, vec![1, 3, 6]).expect("valid parameters")
}

struct Workload {
    params: SystemParams,
    indices: Vec<mkse::core::RankedDocumentIndex>,
    queries: Vec<QueryIndex>,
}

fn random_workload(seed: u64, num_docs: usize) -> Workload {
    let params = small_params();
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = SchemeKeys::generate(&params, &mut rng);
    let indexer = DocumentIndexer::new(&params, &keys);
    let corpus = SyntheticCorpus::generate(
        &CorpusSpec {
            num_documents: num_docs,
            vocabulary_size: 60,
            keywords_per_document: 6,
            frequency_model: FrequencyModel::Uniform { lo: 1, hi: 8 },
        },
        &mut rng,
    );
    let indices: Vec<_> = corpus
        .documents
        .iter()
        .map(|d| indexer.index_document(d))
        .collect();

    // Query workload: single keywords, pairs drawn from real documents, and one
    // randomized query (randomization must not affect equivalence either).
    let pool = keys.random_pool_trapdoors(&params);
    let mut queries = Vec::new();
    for _ in 0..4 {
        let doc = &corpus.documents[rng.gen_range(0..corpus.documents.len())];
        let kws: Vec<&str> = doc.keywords().into_iter().take(2).collect();
        let tds = keys.trapdoors_for(&params, &kws);
        queries.push(
            QueryBuilder::new(&params)
                .add_trapdoors(&tds)
                .build(&mut rng),
        );
        let one = keys.trapdoors_for(&params, &kws[..1]);
        queries.push(
            QueryBuilder::new(&params)
                .add_trapdoors(&one)
                .with_randomization(&pool)
                .build(&mut rng),
        );
    }
    Workload {
        params,
        indices,
        queries,
    }
}

/// [`random_workload`]'s `real_docs` documents, each followed by `stride - 1`
/// padding documents of raw pseudo-random indices — the real indexer is too
/// slow to fill multi-unit shards. The real queries keep finding
/// their real matches in every chunk range, and the padding (zero-heavy levels,
/// so a sparse query's zeros now and then all line up) adds stray matches of
/// its own.
fn padded_workload(seed: u64, real_docs: usize, stride: usize) -> Workload {
    let mut wl = random_workload(seed, real_docs);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let (r, eta) = (wl.params.index_bits, wl.params.rank_levels());
    let mut indices = Vec::with_capacity(stride * real_docs);
    for (i, real) in wl.indices.drain(..).enumerate() {
        indices.push(real);
        indices.extend((1..stride).map(|j| {
            RankedDocumentIndex {
                document_id: 1_000_000 + (i * stride + j) as u64,
                levels: (0..eta)
                    .map(|_| {
                        let bits: Vec<bool> = (0..r).map(|_| rng.gen_range(0..10) >= 7).collect();
                        BitIndex::from_bits(&bits)
                    })
                    .collect(),
            }
        }));
    }
    wl.indices = indices;
    wl
}

/// Every `top` around the reference's match count — none, one, one short,
/// exact, one over, unbounded — cuts the engine's reply exactly as the
/// reference's stable sort + `truncate` does. The engine selects the kept
/// matches instead of sorting them all, so these are its edge cases.
fn assert_top_cuts(
    engine: &SearchEngine<ShardedStore>,
    reference: &CloudIndex,
    query: &QueryIndex,
    ctx: &str,
) {
    let len = reference.search(query).len();
    for k in [0, 1, len.saturating_sub(1), len, len + 1, usize::MAX] {
        assert_eq!(
            engine.search_top(query, k),
            reference.search_top(query, k),
            "top-{k} differs: {ctx}"
        );
    }
}

#[test]
fn sharded_search_is_bit_identical_to_sequential_reference() {
    for (seed, num_docs) in [(1u64, 23), (2, 64), (3, 5), (4, 100)] {
        let wl = random_workload(seed, num_docs);
        let mut reference = CloudIndex::new(wl.params.clone());
        reference.insert_all(wl.indices.iter().cloned()).unwrap();

        for shards in SHARD_COUNTS {
            let mut engine = SearchEngine::sharded(wl.params.clone(), shards);
            engine.insert_all(wl.indices.iter().cloned()).unwrap();
            assert_eq!(engine.len(), reference.len());

            for (qi, query) in wl.queries.iter().enumerate() {
                let ctx = format!("seed {seed}, {num_docs} docs, {shards} shards, query {qi}");
                let (seq_matches, seq_stats) = reference.search_ranked_with_stats(query);
                let (par_matches, par_stats) = engine.search_ranked_with_stats(query);
                assert_eq!(par_matches, seq_matches, "ranked matches differ: {ctx}");
                assert_eq!(par_stats, seq_stats, "merged stats differ: {ctx}");
                assert_top_cuts(&engine, &reference, query, &ctx);
            }
        }
    }
}

#[test]
fn batched_execution_is_identical_to_sequential_singles() {
    let wl = random_workload(7, 48);
    let mut reference = CloudIndex::new(wl.params.clone());
    reference.insert_all(wl.indices.iter().cloned()).unwrap();

    for shards in SHARD_COUNTS {
        let mut engine = SearchEngine::sharded(wl.params.clone(), shards);
        engine.insert_all(wl.indices.iter().cloned()).unwrap();
        let batched = engine.search_batch_with_stats(&wl.queries);
        assert_eq!(batched.len(), wl.queries.len());
        for (query, (matches, stats)) in wl.queries.iter().zip(batched) {
            let (seq_matches, seq_stats) = reference.search_ranked_with_stats(query);
            assert_eq!(matches, seq_matches, "{shards} shards");
            assert_eq!(stats, seq_stats, "{shards} shards");
        }
    }
}

#[test]
fn fused_batch_with_duplicates_is_identical_to_sequential_singles() {
    // The fused batch sweep (one plane pass per shard for the whole batch, with
    // intra-batch dedup of repeated query indices) must be indistinguishable —
    // matches, ranks, order, per-query stats — from the sequential reference
    // answering each query alone, at every shard count, cache on and off.
    let wl = random_workload(17, 53);
    let mut reference = CloudIndex::new(wl.params.clone());
    reference.insert_all(wl.indices.iter().cloned()).unwrap();
    let mut batch = wl.queries.clone();
    batch.push(wl.queries[0].clone()); // duplicate of the first query
    batch.push(wl.queries[2].clone()); // and a duplicate further along

    for shards in SHARD_COUNTS {
        for cached in [false, true] {
            let mut engine = SearchEngine::sharded(wl.params.clone(), shards);
            if cached {
                engine.enable_cache(CacheConfig {
                    capacity_per_shard: 4,
                });
            }
            engine.insert_all(wl.indices.iter().cloned()).unwrap();
            for pass in ["cold", "warm"] {
                let batched = engine.search_batch_with_stats(&batch);
                assert_eq!(batched.len(), batch.len());
                for (qi, (query, (matches, stats))) in batch.iter().zip(&batched).enumerate() {
                    let ctx = format!("{shards} shards, cached={cached}, {pass}, query {qi}");
                    let (seq_matches, seq_stats) = reference.search_ranked_with_stats(query);
                    assert_eq!(matches, &seq_matches, "fused batch differs: {ctx}");
                    assert_eq!(stats, &seq_stats, "fused batch stats differ: {ctx}");
                }
                // The same batch with a `top` per position: both duplicates
                // carry a different `top` than their first occurrence.
                let tops: Vec<Option<usize>> = (0..batch.len())
                    .map(|i| [None, Some(0), Some(1), Some(3), Some(usize::MAX)][i % 5])
                    .collect();
                assert_ne!(tops[0], tops[batch.len() - 2]);
                assert_ne!(tops[2], tops[batch.len() - 1]);
                let cut = engine.search_batch_with_effects(&batch, &tops);
                for (qi, ((query, top), (matches, stats, _))) in
                    batch.iter().zip(&tops).zip(&cut).enumerate()
                {
                    let ctx = format!("{shards} shards, cached={cached}, {pass}, query {qi}");
                    let (mut seq_matches, seq_stats) = reference.search_ranked_with_stats(query);
                    seq_matches.truncate(top.unwrap_or(usize::MAX));
                    assert_eq!(matches, &seq_matches, "cut fused batch differs: {ctx}");
                    assert_eq!(stats, &seq_stats, "cut fused batch stats differ: {ctx}");
                }
            }
        }
    }
}

#[test]
fn steal_scheduler_heavy_configs_are_byte_identical() {
    // A multi-lane engine partitions every shard's plane into 8-chunk units
    // and lets idle lanes steal; nothing about the reply — matches, ranks,
    // order, merged stats, cache counters — may depend on the lane count or on
    // which lane scanned which range. 15 × 1280 documents give the 1- and
    // 2-shard stores several units per shard (18.75 chunks single-sharded,
    // ~9.4 per shard at 2 shards).
    let wl = padded_workload(43, CHUNK + 256, 15);
    let mut reference = CloudIndex::new(wl.params.clone());
    reference.insert_all(wl.indices.iter().cloned()).unwrap();
    let expected: Vec<_> = wl
        .queries
        .iter()
        .map(|q| reference.search_ranked_with_stats(q))
        .collect();
    // Fused batch with intra-batch duplicates: dedup must compose with stealing.
    let mut batch = wl.queries.clone();
    batch.push(wl.queries[0].clone());
    batch.push(wl.queries[1].clone());
    let expected_batch: Vec<_> = batch
        .iter()
        .map(|q| reference.search_ranked_with_stats(q))
        .collect();

    for shards in SHARD_COUNTS {
        let mut engine = SearchEngine::sharded(wl.params.clone(), shards);
        engine.insert_all(wl.indices.iter().cloned()).unwrap();
        let mut cached = SearchEngine::sharded(wl.params.clone(), shards)
            .with_result_cache(CacheConfig::default());
        cached.insert_all(wl.indices.iter().cloned()).unwrap();
        // A one-lane cached twin (whole-shard units, run inline — the
        // sequential execution): the cache layer sits above the executor, so
        // its hit/miss/admission counters must match exactly.
        let mut inline_cached = SearchEngine::sharded(wl.params.clone(), shards)
            .with_scan_lanes(1)
            .with_result_cache(CacheConfig::default());
        inline_cached
            .insert_all(wl.indices.iter().cloned())
            .unwrap();

        for lanes in [1usize, 2, 3] {
            let ctx = format!("{shards} shards, {lanes} lanes");
            engine.set_scan_lanes(lanes);

            for (qi, query) in wl.queries.iter().enumerate() {
                assert_eq!(
                    engine.search_ranked_with_stats(query),
                    expected[qi],
                    "single differs: {ctx}, query {qi}"
                );
                assert_top_cuts(&engine, &reference, query, &format!("{ctx}, query {qi}"));
            }
            let batched = engine.search_batch_with_stats(&batch);
            assert_eq!(batched.len(), batch.len());
            for (qi, got) in batched.iter().enumerate() {
                assert_eq!(
                    got, &expected_batch[qi],
                    "fused batch differs: {ctx}, query {qi}"
                );
            }

            // Cache counters are lane-invisible: start both caches cold, run a
            // cold + warm pass, compare replies and counters.
            for eng in [&mut cached, &mut inline_cached] {
                eng.clear_cache();
                eng.reset_cache_stats();
            }
            cached.set_scan_lanes(lanes);
            for pass in ["cold", "warm"] {
                for (qi, query) in wl.queries.iter().enumerate() {
                    assert_eq!(
                        cached.search_ranked_with_stats(query),
                        expected[qi],
                        "cached differs: {ctx}, {pass}, query {qi}"
                    );
                    let _ = inline_cached.search_ranked_with_stats(query);
                    // Both twins take the same cuts, so their cache traffic
                    // stays comparable below.
                    let ctx = format!("{ctx}, cached, {pass}, query {qi}");
                    assert_top_cuts(&cached, &reference, query, &ctx);
                    assert_top_cuts(&inline_cached, &reference, query, &ctx);
                }
                let warm_batch = cached.search_batch_with_stats(&batch);
                for (qi, got) in warm_batch.iter().enumerate() {
                    assert_eq!(
                        got, &expected_batch[qi],
                        "cached batch differs: {ctx}, {pass}, query {qi}"
                    );
                }
                let _ = inline_cached.search_batch_with_stats(&batch);
                assert_eq!(
                    cached.cache_stats(),
                    inline_cached.cache_stats(),
                    "cache counters must be lane-invisible: {ctx}, {pass}"
                );
            }
        }
    }
}

#[test]
fn per_document_lookup_agrees_across_layouts() {
    let wl = random_workload(11, 37);
    let mut reference = CloudIndex::new(wl.params.clone());
    reference.insert_all(wl.indices.iter().cloned()).unwrap();
    for shards in SHARD_COUNTS {
        let mut engine = SearchEngine::sharded(wl.params.clone(), shards);
        engine.insert_all(wl.indices.iter().cloned()).unwrap();
        for idx in &wl.indices {
            assert_eq!(
                engine.document_index(idx.document_id),
                reference.document_index(idx.document_id)
            );
        }
        assert!(engine.document_index(u64::MAX).is_none());
    }
}

#[test]
fn cached_execution_is_byte_identical_at_every_shard_count() {
    for (seed, num_docs) in [(21u64, 23), (22, 64), (23, 5), (24, 100)] {
        let wl = random_workload(seed, num_docs);
        let mut reference = CloudIndex::new(wl.params.clone());
        reference.insert_all(wl.indices.iter().cloned()).unwrap();

        for shards in SHARD_COUNTS {
            let mut engine =
                SearchEngine::sharded(wl.params.clone(), shards).with_result_cache(CacheConfig {
                    capacity_per_shard: 4,
                });
            engine.insert_all(wl.indices.iter().cloned()).unwrap();

            // Two passes: the first admits (cold), the second hits (warm). The
            // tiny capacity also exercises LRU eviction mid-workload.
            for pass in ["cold", "warm"] {
                for (qi, query) in wl.queries.iter().enumerate() {
                    let ctx = format!(
                        "seed {seed}, {num_docs} docs, {shards} shards, query {qi}, {pass}"
                    );
                    let (seq_matches, seq_stats) = reference.search_ranked_with_stats(query);
                    let (par_matches, par_stats) = engine.search_ranked_with_stats(query);
                    assert_eq!(par_matches, seq_matches, "ranked matches differ: {ctx}");
                    assert_eq!(par_stats, seq_stats, "merged stats differ: {ctx}");
                    assert_top_cuts(&engine, &reference, query, &ctx);
                }
            }
            // Batched execution against the same (now warm) cache.
            let batched = engine.search_batch_with_stats(&wl.queries);
            for (query, (matches, stats)) in wl.queries.iter().zip(batched) {
                let (seq_matches, seq_stats) = reference.search_ranked_with_stats(query);
                assert_eq!(
                    matches, seq_matches,
                    "cached batch differs: {shards} shards"
                );
                assert_eq!(
                    stats, seq_stats,
                    "cached batch stats differ: {shards} shards"
                );
            }
        }
    }
}

#[test]
fn interleaved_inserts_invalidate_cached_results_correctly() {
    let wl = random_workload(31, 60);
    let mut reference = CloudIndex::new(wl.params.clone());

    for shards in SHARD_COUNTS {
        let mut engine = SearchEngine::sharded(wl.params.clone(), shards)
            .with_result_cache(CacheConfig::default());
        reference = CloudIndex::new(wl.params.clone());

        // Interleave: upload a chunk, query everything twice (admit + hit),
        // upload the next chunk — cached results must never outlive the insert.
        for chunk in wl.indices.chunks(17) {
            reference.insert_all(chunk.iter().cloned()).unwrap();
            engine.insert_all(chunk.iter().cloned()).unwrap();
            for _ in 0..2 {
                for (qi, query) in wl.queries.iter().enumerate() {
                    let ctx = format!("{shards} shards, {} docs, query {qi}", reference.len());
                    assert_eq!(
                        engine.search_ranked_with_stats(query),
                        reference.search_ranked_with_stats(query),
                        "post-insert mismatch: {ctx}"
                    );
                }
            }
        }
    }
    assert_eq!(reference.len(), 60);
}

#[test]
fn snapshot_restore_cycle_preserves_cached_engine_equivalence() {
    let wl = random_workload(37, 41);
    let mut reference = CloudIndex::new(wl.params.clone());
    reference.insert_all(wl.indices.iter().cloned()).unwrap();

    for shards in SHARD_COUNTS {
        let mut original = SearchEngine::sharded(wl.params.clone(), shards)
            .with_result_cache(CacheConfig::default());
        original.insert_all(wl.indices.iter().cloned()).unwrap();
        // Warm the cache, snapshot, restore into a differently sharded cached
        // engine: the restored engine must answer identically (and from a cold
        // cache — stale entries must not survive the reload).
        for query in &wl.queries {
            let _ = original.search_ranked_with_stats(query);
        }
        let bytes = original.snapshot();

        let mut restored =
            SearchEngine::sharded(wl.params.clone(), 3).with_result_cache(CacheConfig::default());
        assert_eq!(restored.restore_snapshot(&bytes).unwrap(), wl.indices.len());
        let stats = restored.cache_stats().expect("cache enabled");
        assert_eq!(stats.hits, 0, "restored cache must start cold");
        for (qi, query) in wl.queries.iter().enumerate() {
            assert_eq!(
                restored.search_ranked_with_stats(query),
                reference.search_ranked_with_stats(query),
                "restored engine differs: {shards} shards, query {qi}"
            );
        }
    }
}

#[test]
fn snapshots_are_layout_independent() {
    use mkse::core::serialize_index_store;
    let wl = random_workload(13, 29);
    let mut reference = CloudIndex::new(wl.params.clone());
    reference.insert_all(wl.indices.iter().cloned()).unwrap();
    let reference_bytes = serialize_index_store(reference.store());

    for shards in SHARD_COUNTS {
        let mut engine = SearchEngine::sharded(wl.params.clone(), shards);
        engine.insert_all(wl.indices.iter().cloned()).unwrap();
        // Same bytes regardless of shard layout…
        assert_eq!(serialize_index_store(engine.store()), reference_bytes);
        // …and a restored engine behaves identically to the original.
        let mut restored = SearchEngine::sharded(wl.params.clone(), 3);
        restored.restore_snapshot(&reference_bytes).unwrap();
        let query = &wl.queries[0];
        assert_eq!(
            restored.search_ranked_with_stats(query),
            reference.search_ranked_with_stats(query)
        );
    }
}
