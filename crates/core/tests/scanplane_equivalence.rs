//! Exact equivalence of the plane-backed shard scan and the sequential reference.
//!
//! The scan plane is a pure layout change: for any document set (arbitrary bit
//! patterns, not just scheme-generated ones), any query — all-ones, all-zeros,
//! random, or a stored document's own base level — any index size `r` (multiples
//! of 64 and ragged tails alike) and any shard count, the plane-backed
//! [`SearchEngine`] must return **byte-identical** matches, ranks, order,
//! [`SearchStats`] and cache counters to the AoS reference scan of
//! [`CloudIndex`]. Inserts between queries must keep both the planes and the
//! result cache fresh, and a snapshot/restore cycle must rebuild the planes.
//!
//! Which rows a sweep reads depends on the corpus as well as the query (a row no
//! stored index sets is skipped), so the proptests hold the contract in both
//! regimes: paper-shaped corpora, where the §6 fake keywords leave most rows
//! dead, and dense ones with no dead row at all.
//!
//! This suite runs in **release mode on CI** (`cargo test --release -q -p
//! mkse-core scanplane`): the sweep's loops are written for the autovectorizer,
//! and masking bugs in optimized builds must not be able to hide behind
//! debug-only testing.

use mkse_core::scanplane::CHUNK;
use mkse_core::{
    BitIndex, CacheConfig, CloudIndex, DocumentIndexer, IndexStore, QueryBuilder, QueryIndex,
    RankedDocumentIndex, ScanPlane, SchemeKeys, SearchEngine, SystemParams, TelemetryLevel,
};
use mkse_textproc::TermFrequencies;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// Minimal valid parameters for an arbitrary index size and level count — the
/// scan is a function of the stored bits alone, so nothing else matters here.
fn params_for(r: usize, eta: usize) -> SystemParams {
    SystemParams::new(r, 4, 16, 0, 0, (1..=eta as u32).collect()).expect("valid parameters")
}

fn random_bitindex(rng: &mut StdRng, len: usize, zero_prob: f64) -> BitIndex {
    let bits: Vec<bool> = (0..len)
        .map(|_| rng.gen_range(0.0..1.0) >= zero_prob)
        .collect();
    BitIndex::from_bits(&bits)
}

/// Random document indices with *dense-ones* levels so random queries genuinely
/// match some documents (an all-reject workload would not exercise rank walks).
fn random_docs(rng: &mut StdRng, n: usize, r: usize, eta: usize) -> Vec<RankedDocumentIndex> {
    (0..n)
        .map(|i| RankedDocumentIndex {
            document_id: 1000 + i as u64,
            levels: (0..eta).map(|_| random_bitindex(rng, r, 0.05)).collect(),
        })
        .collect()
}

/// A query workload covering the row-selection extremes: sparse- and dense-zero
/// random queries, the all-ones query (no row selected), the all-zeros query
/// (every live row selected), and one stored document's own base level
/// (guaranteed matches, deep rank walks).
fn query_workload(rng: &mut StdRng, r: usize, docs: &[RankedDocumentIndex]) -> Vec<QueryIndex> {
    let mut queries = vec![
        QueryIndex::from_bits(random_bitindex(rng, r, 0.02)),
        QueryIndex::from_bits(random_bitindex(rng, r, 0.3)),
        QueryIndex::from_bits(BitIndex::all_ones(r)),
        QueryIndex::from_bits(BitIndex::all_zeros(r)),
    ];
    if let Some(doc) = docs.first() {
        queries.push(QueryIndex::from_bits(doc.base_level().clone()));
    }
    queries
}

/// Level-1 index bits no document of the corpus sets — rows every sweep skips,
/// whatever the query.
fn dead_rows(docs: &[RankedDocumentIndex]) -> usize {
    let mut live = vec![0u64; docs[0].base_level().as_blocks().len()];
    for doc in docs {
        for (live, block) in live.iter_mut().zip(doc.base_level().as_blocks()) {
            *live |= block;
        }
    }
    BitIndex::from_blocks(live, docs[0].base_level().len()).count_zeros()
}

/// A scheme-generated corpus and query workload at a small geometry (r = 128,
/// η = 3): `fake_keywords` is U, and every query carries V = U/2. With U = 0
/// nothing is folded into every document and no row stays dead; with U > 0 the
/// zeros of the U fake keywords are dead in every level of the whole corpus —
/// the paper's shape.
fn scheme_workload(
    rng: &mut StdRng,
    num_docs: usize,
    fake_keywords: usize,
) -> (SystemParams, Vec<RankedDocumentIndex>, Vec<QueryIndex>) {
    let params = SystemParams::new(128, 4, 16, fake_keywords, fake_keywords / 2, vec![1, 3, 6])
        .expect("valid parameters");
    let keys = SchemeKeys::generate(&params, rng);
    let indexer = DocumentIndexer::new(&params, &keys);
    let mut trapdoors = std::collections::HashMap::new();
    let docs = (0..num_docs)
        .map(|id| {
            let terms = (0..6).map(|_| {
                let term = format!("kw{}", rng.gen_range(0..60));
                (term, rng.gen_range(1u32..=8))
            });
            let terms = TermFrequencies::from_pairs(terms);
            indexer.index_terms_cached(id as u64, &terms, &mut trapdoors)
        })
        .collect();
    let pool = keys.random_pool_trapdoors(&params);
    let queries = (0..6)
        .map(|q| {
            let kws: Vec<String> = (0..1 + q % 2)
                .map(|_| format!("kw{}", rng.gen_range(0..60)))
                .collect();
            let kws: Vec<&str> = kws.iter().map(String::as_str).collect();
            QueryBuilder::new(&params)
                .add_trapdoors(&keys.trapdoors_for(&params, &kws))
                .with_randomization(&pool)
                .build(rng)
        })
        .collect();
    (params, docs, queries)
}

fn assert_engine_equals_reference<S: IndexStore>(
    engine: &SearchEngine<S>,
    reference: &CloudIndex,
    queries: &[QueryIndex],
    ctx: &str,
) {
    for (qi, query) in queries.iter().enumerate() {
        let (seq_matches, seq_stats) = reference.search_ranked_with_stats(query);
        let (par_matches, par_stats) = engine.search_ranked_with_stats(query);
        assert_eq!(
            par_matches, seq_matches,
            "ranked matches differ: {ctx}, query {qi}"
        );
        assert_eq!(par_stats, seq_stats, "stats differ: {ctx}, query {qi}");
        assert_eq!(
            engine.search_top(query, 3),
            reference.search_top(query, 3),
            "top-k differs: {ctx}, query {qi}"
        );
    }
}

#[test]
fn scanplane_engine_is_byte_identical_to_reference_at_all_shard_counts() {
    let mut rng = StdRng::seed_from_u64(91);
    // r straddles block boundaries: 64 | r, ragged tails (r % 64 ∈ {1, 36}), and
    // the paper's 448; η covers the unranked and deep-ranking shapes.
    for &r in &[64usize, 65, 100, 448] {
        for &eta in &[1usize, 3] {
            let params = params_for(r, eta);
            let docs = random_docs(&mut rng, 61, r, eta);
            let queries = query_workload(&mut rng, r, &docs);
            let mut reference = CloudIndex::new(params.clone());
            reference.insert_all(docs.iter().cloned()).unwrap();

            for shards in SHARD_COUNTS {
                let mut engine = SearchEngine::sharded(params.clone(), shards);
                engine.insert_all(docs.iter().cloned()).unwrap();
                let ctx = format!("r={r}, eta={eta}, {shards} shards");
                assert_engine_equals_reference(&engine, &reference, &queries, &ctx);
            }
        }
    }
}

#[test]
fn scanplane_all_ones_and_all_zeros_queries_hit_pruning_extremes() {
    let mut rng = StdRng::seed_from_u64(92);
    let r = 100; // ragged tail: the phantom 28 bits must never reject or match
    let params = params_for(r, 2);
    let mut docs = random_docs(&mut rng, 33, r, 2);
    // An all-zero document is the only one the all-zeros query may match.
    docs.push(RankedDocumentIndex {
        document_id: 7,
        levels: vec![BitIndex::all_zeros(r), BitIndex::all_zeros(r)],
    });
    let mut reference = CloudIndex::new(params.clone());
    reference.insert_all(docs.iter().cloned()).unwrap();

    let all_ones = QueryIndex::from_bits(BitIndex::all_ones(r));
    let all_zeros = QueryIndex::from_bits(BitIndex::all_zeros(r));
    for shards in SHARD_COUNTS {
        let mut engine = SearchEngine::sharded(params.clone(), shards);
        engine.insert_all(docs.iter().cloned()).unwrap();

        let (matches, stats) = engine.search_ranked_with_stats(&all_ones);
        assert_eq!(
            (matches.clone(), stats),
            reference.search_ranked_with_stats(&all_ones),
            "{shards} shards, all-ones"
        );
        assert_eq!(matches.len(), docs.len(), "all-ones matches everything");
        assert!(matches.iter().all(|m| m.rank == 2), "and at the top rank");

        let (matches, stats) = engine.search_ranked_with_stats(&all_zeros);
        assert_eq!(
            (matches.clone(), stats),
            reference.search_ranked_with_stats(&all_zeros),
            "{shards} shards, all-zeros"
        );
        assert!(matches.iter().any(|m| m.document_id == 7));
    }
}

#[test]
fn scanplane_inserts_between_queries_keep_planes_and_cache_fresh() {
    let mut rng = StdRng::seed_from_u64(93);
    let r = 129; // two full blocks + 1-bit tail
    let params = params_for(r, 3);
    let docs = random_docs(&mut rng, 59, r, 3);
    let queries = query_workload(&mut rng, r, &docs);

    for shards in [1usize, 2, 7] {
        let mut reference = CloudIndex::new(params.clone());
        let mut engine =
            SearchEngine::sharded(params.clone(), shards).with_result_cache(CacheConfig::default());
        // Upload a chunk, query everything twice (cache admit + hit), repeat:
        // neither a stale plane nor a stale cache entry may survive an insert.
        for chunk in docs.chunks(13) {
            reference.insert_all(chunk.iter().cloned()).unwrap();
            engine.insert_all(chunk.iter().cloned()).unwrap();
            for pass in ["cold", "warm"] {
                let ctx = format!("{shards} shards, {} docs, {pass}", reference.len());
                assert_engine_equals_reference(&engine, &reference, &queries, &ctx);
            }
        }
        // Planes track their shards exactly.
        for shard in 0..engine.store().num_shards() {
            let plane = engine.scan_plane(shard);
            assert_eq!(plane.len(), engine.store().shard_documents(shard).len());
        }
    }
}

#[test]
fn scanplane_snapshot_restore_rebuilds_planes() {
    let mut rng = StdRng::seed_from_u64(94);
    let r = 448;
    let params = params_for(r, 3);
    let docs = random_docs(&mut rng, 47, r, 3);
    let queries = query_workload(&mut rng, r, &docs);
    let mut reference = CloudIndex::new(params.clone());
    reference.insert_all(docs.iter().cloned()).unwrap();

    let mut original = SearchEngine::sharded(params.clone(), 5);
    original.insert_all(docs.iter().cloned()).unwrap();
    let bytes = original.snapshot();

    for shards in SHARD_COUNTS {
        let mut restored =
            SearchEngine::sharded(params.clone(), shards).with_result_cache(CacheConfig::default());
        assert_eq!(restored.restore_snapshot(&bytes).unwrap(), docs.len());
        // The snapshot carries no plane bytes; restore rebuilt them via insert.
        for shard in 0..restored.store().num_shards() {
            let plane = restored.scan_plane(shard);
            let shard_docs = restored.store().shard_documents(shard);
            assert_eq!(
                plane.len(),
                shard_docs.len(),
                "{shards} shards, shard {shard}"
            );
            let ids: Vec<u64> = shard_docs.iter().map(|d| d.document_id).collect();
            assert_eq!(plane.ids(), &ids[..], "{shards} shards, shard {shard}");
        }
        let ctx = format!("restored into {shards} shards");
        assert_engine_equals_reference(&restored, &reference, &queries, &ctx);
    }
}

#[test]
fn scanplane_fused_batch_equals_sequential_engine_at_all_shard_counts() {
    // Engine-level fused-batch parity: for every shard count, with the cache off
    // and on (cold and warm), a batch containing duplicates and the pruning
    // extremes must reply exactly like the sequential reference answers each
    // query alone.
    let mut rng = StdRng::seed_from_u64(95);
    let r = 193; // three full blocks + 1-bit tail
    let params = params_for(r, 3);
    let docs = random_docs(&mut rng, 67, r, 3);
    let mut batch = query_workload(&mut rng, r, &docs);
    let dup = batch[0].clone();
    batch.push(dup); // intra-batch duplicate: deduped scan, identical reply
    let mut reference = CloudIndex::new(params.clone());
    reference.insert_all(docs.iter().cloned()).unwrap();

    for shards in SHARD_COUNTS {
        for cached in [false, true] {
            let mut engine = SearchEngine::sharded(params.clone(), shards);
            if cached {
                engine.enable_cache(CacheConfig::default());
            }
            engine.insert_all(docs.iter().cloned()).unwrap();
            for pass in ["cold", "warm"] {
                let batched = engine.search_batch_with_stats(&batch);
                for (qi, (query, (matches, stats))) in batch.iter().zip(&batched).enumerate() {
                    let (seq_matches, seq_stats) = reference.search_ranked_with_stats(query);
                    let ctx = format!("{shards} shards, cached={cached}, {pass}, query {qi}");
                    assert_eq!(matches, &seq_matches, "fused batch differs: {ctx}");
                    assert_eq!(stats, &seq_stats, "fused batch stats differ: {ctx}");
                }
            }
        }
    }
}

#[test]
fn scanplane_steal_scheduler_heavy_configs_are_byte_identical() {
    // Lane count is invisible — the executor's correctness oracle at scale: a
    // corpus big enough that the 1- and 2-shard stores split into several
    // chunk-range units per shard (a multi-lane unit is 8 chunks), swept under
    // every shards × lanes combination with the cache off and on — every
    // reply, every stat and every cache counter must match the sequential
    // reference (and a one-lane twin: whole-shard units run inline, the
    // sequential execution) byte for byte.
    let mut rng = StdRng::seed_from_u64(96);
    let r = 65; // ragged tail: 64 valid bits + 1
    let eta = 2;
    let params = params_for(r, eta);
    // ~18.3 chunks single-sharded (3 units), ~9.2 per shard at 2 shards (2
    // units each, the last ragged); 7 and 16 shards hold one unit apiece.
    let docs = random_docs(&mut rng, 2 * (8 * CHUNK + CHUNK) + 321, r, eta);
    let queries = query_workload(&mut rng, r, &docs);
    let mut batch = queries.clone();
    batch.push(batch[0].clone()); // intra-batch duplicates ride along
    batch.push(batch[1].clone());
    let mut reference = CloudIndex::new(params.clone());
    reference.insert_all(docs.iter().cloned()).unwrap();
    let expected_batch: Vec<_> = batch
        .iter()
        .map(|q| reference.search_ranked_with_stats(q))
        .collect();

    for shards in SHARD_COUNTS {
        let mut engine = SearchEngine::sharded(params.clone(), shards);
        engine.insert_all(docs.iter().cloned()).unwrap();
        let mut cached =
            SearchEngine::sharded(params.clone(), shards).with_result_cache(CacheConfig::default());
        cached.insert_all(docs.iter().cloned()).unwrap();
        // A one-lane twin with the same cache config: sub-shard execution
        // must be invisible to the cache counters too.
        let mut inline_cached = SearchEngine::sharded(params.clone(), shards)
            .with_scan_lanes(1)
            .with_result_cache(CacheConfig::default());
        inline_cached.insert_all(docs.iter().cloned()).unwrap();

        for lanes in [1usize, 2, 3] {
            engine.set_scan_lanes(lanes);
            let ctx = format!("{shards} shards, lanes={lanes}");
            assert_engine_equals_reference(&engine, &reference, &queries, &ctx);
            assert_eq!(
                engine.search_batch_with_stats(&batch),
                expected_batch,
                "fused batch differs: {ctx}"
            );

            cached.set_scan_lanes(lanes);
            cached.clear_cache();
            cached.reset_cache_stats();
            inline_cached.clear_cache();
            inline_cached.reset_cache_stats();
            for pass in ["cold", "warm"] {
                assert_eq!(
                    cached.search_batch_with_stats(&batch),
                    expected_batch,
                    "cached fused batch differs: {ctx}, {pass}"
                );
                let _ = inline_cached.search_batch_with_stats(&batch);
            }
            assert_eq!(
                cached.cache_stats(),
                inline_cached.cache_stats(),
                "cache counters must be lane-invisible: {ctx}"
            );
        }
    }
}

#[test]
fn scanplane_telemetry_spans_are_invisible_to_every_reply_and_counter() {
    // The telemetry invariant (§6 note): the registry observes, it never
    // participates. An engine recording at `Spans` must return byte-identical
    // matches, ranks, stats and cache counters to an identical twin at `Off` —
    // across every shard count, lane count, cache config, and fused batches
    // with intra-batch duplicates. Only the registry itself may differ.
    let mut rng = StdRng::seed_from_u64(97);
    let r = 129; // two full blocks + 1-bit tail
    let eta = 2;
    let params = params_for(r, eta);
    let docs = random_docs(&mut rng, CHUNK + 173, r, eta);
    let queries = query_workload(&mut rng, r, &docs);
    let mut batch = queries.clone();
    batch.push(batch[0].clone()); // intra-batch duplicates ride along
    batch.push(batch[2].clone());
    let mut reference = CloudIndex::new(params.clone());
    reference.insert_all(docs.iter().cloned()).unwrap();

    for shards in SHARD_COUNTS {
        for cached in [false, true] {
            let build = || {
                let mut e = SearchEngine::sharded(params.clone(), shards);
                if cached {
                    e.enable_cache(CacheConfig::default());
                }
                e.insert_all(docs.iter().cloned()).unwrap();
                e
            };
            let mut off = build();
            let mut spans = build();
            spans.set_telemetry_level(TelemetryLevel::Spans);

            for lanes in [1usize, 2, 3] {
                off.set_scan_lanes(lanes);
                spans.set_scan_lanes(lanes);
                let ctx = format!("{shards} shards, lanes={lanes}, cached={cached}");
                // Both twins must also agree with the sequential reference —
                // "identical to each other but both wrong" is not equivalence.
                // (Run it on both so their cache states stay in lockstep.)
                assert_engine_equals_reference(&spans, &reference, &queries, &ctx);
                assert_engine_equals_reference(&off, &reference, &queries, &ctx);
                for (qi, query) in queries.iter().enumerate() {
                    assert_eq!(
                        spans.search_ranked_with_stats(query),
                        off.search_ranked_with_stats(query),
                        "spans vs off differ: {ctx}, query {qi}"
                    );
                }
                for pass in ["cold", "warm"] {
                    assert_eq!(
                        spans.search_batch_with_stats(&batch),
                        off.search_batch_with_stats(&batch),
                        "fused batch differs: {ctx}, {pass}"
                    );
                }
                if cached {
                    assert_eq!(
                        spans.cache_stats(),
                        off.cache_stats(),
                        "cache counters must be telemetry-invisible: {ctx}"
                    );
                }
            }
            // The observing twin did record: the registry is where the levels
            // are allowed to differ.
            if shards == SHARD_COUNTS[0] {
                let snap = spans.telemetry().snapshot();
                assert!(snap.counter("queries") > 0, "spans twin recorded queries");
                assert!(
                    snap.histograms.iter().any(|h| h.stage == "unit_scan"),
                    "spans twin recorded unit scans"
                );
                assert!(
                    off.telemetry().snapshot().histograms.is_empty(),
                    "off twin recorded nothing"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core contract under arbitrary geometry and bit patterns: a plane built
    /// by incremental pushes scans exactly like the reference loop over the same
    /// slice, and the plane-backed 2-shard engine agrees with the reference
    /// index — including r values with ragged tails and degenerate stores.
    #[test]
    fn scanplane_prop_equivalence_on_arbitrary_workloads(
        seed in 0u64..1_000_000,
        r in 1usize..=200,
        eta in 1usize..=3,
        num_docs in 0usize..24,
        query_zero_prob in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let docs: Vec<RankedDocumentIndex> = (0..num_docs)
            .map(|i| RankedDocumentIndex {
                document_id: i as u64,
                levels: (0..eta).map(|_| random_bitindex(&mut rng, r, 0.2)).collect(),
            })
            .collect();
        let query = QueryIndex::from_bits(random_bitindex(&mut rng, r, query_zero_prob));

        // Direct: plane vs the reference scan loop.
        let mut plane = ScanPlane::new();
        for d in &docs {
            plane.push(d);
        }
        let expected = mkse_core::search::scan_ranked(&docs, &query);
        prop_assert_eq!(plane.scan_ranked(query.bits()), expected);

        // Engine-level: plane-backed shards vs the AoS reference index.
        let params = params_for(r, eta);
        let mut reference = CloudIndex::new(params.clone());
        reference.insert_all(docs.iter().cloned()).unwrap();
        let mut engine = SearchEngine::sharded(params, 2);
        engine.insert_all(docs.iter().cloned()).unwrap();
        prop_assert_eq!(
            engine.search_ranked_with_stats(&query),
            reference.search_ranked_with_stats(&query)
        );
    }

    /// The fused-batch contract under arbitrary geometry: for any batch size in
    /// 1..=64 — with duplicate queries and the all-ones/all-zeros pruning
    /// extremes mixed in — `scan_ranked_batch` returns exactly what b
    /// independent `scan_ranked` calls return, and the engine's fused batch
    /// equals the reference answering each query alone, at any shard count
    /// and lane count, cache on or off.
    #[test]
    fn scanplane_prop_batch_equals_independent_scans(
        seed in 0u64..1_000_000,
        r in 1usize..=200,
        eta in 1usize..=3,
        num_docs in 0usize..24,
        batch_size in 1usize..=64,
        shards_idx in 0usize..4,
        lanes in 1usize..=3,
        cached in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let docs: Vec<RankedDocumentIndex> = (0..num_docs)
            .map(|i| RankedDocumentIndex {
                document_id: i as u64,
                levels: (0..eta).map(|_| random_bitindex(&mut rng, r, 0.2)).collect(),
            })
            .collect();
        let queries: Vec<BitIndex> = (0..batch_size)
            .map(|q| match q % 5 {
                // Duplicates of the first query land in the batch whenever
                // batch_size > 3, alongside both pruning extremes.
                0 => random_bitindex(&mut rng, r, 0.3),
                1 => BitIndex::all_ones(r),
                2 => BitIndex::all_zeros(r),
                _ => random_bitindex(&mut rng, r, 0.05),
            })
            .collect();
        let mut queries = queries;
        if batch_size > 3 {
            queries[3] = queries[0].clone();
        }

        let mut plane = ScanPlane::new();
        for d in &docs {
            plane.push(d);
        }
        let refs: Vec<&BitIndex> = queries.iter().collect();
        let batched = plane.scan_ranked_batch(&refs);
        prop_assert_eq!(batched.len(), queries.len());
        for (q, got) in queries.iter().zip(&batched) {
            prop_assert_eq!(got, &plane.scan_ranked(q));
        }

        // Engine-level: the fused batch vs the AoS reference, at an arbitrary
        // shards × lanes configuration.
        let shards = SHARD_COUNTS[shards_idx];
        let params = params_for(r, eta);
        let mut reference = CloudIndex::new(params.clone());
        reference.insert_all(docs.iter().cloned()).unwrap();
        let mut engine = SearchEngine::sharded(params, shards).with_scan_lanes(lanes);
        if cached {
            engine.enable_cache(CacheConfig::default());
        }
        engine.insert_all(docs.iter().cloned()).unwrap();
        let wrapped: Vec<QueryIndex> = queries.iter().cloned().map(QueryIndex::from_bits).collect();
        let engine_batch = engine.search_batch_with_stats(&wrapped);
        for (query, got) in wrapped.iter().zip(engine_batch) {
            prop_assert_eq!(got, reference.search_ranked_with_stats(query));
        }
    }

    /// The contract in both row-skipping regimes, side by side. Dense corpora
    /// have **no** dead row — uniformly random level bits, or scheme-generated
    /// with `doc_random_keywords = 0` — so every zero of a query selects a row;
    /// the paper-shaped corpus (U fake keywords folded into every level of every
    /// document) leaves most of a randomized query's zeros on dead rows. In
    /// each, the plane equals the reference loop (invariant 3), the fused batch
    /// equals independent scans (4), and the engine equals `CloudIndex` at an
    /// arbitrary shards × lanes configuration (1, 5).
    #[test]
    fn scanplane_prop_dense_and_sparse_corpora_equal_reference(
        seed in 0u64..1_000_000,
        regime in 0usize..3,
        num_docs in 40usize..100,
        shards_idx in 0usize..4,
        lanes in 1usize..=3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (params, docs, mut queries) = match regime {
            0 => {
                let docs: Vec<RankedDocumentIndex> = (0..num_docs)
                    .map(|i| RankedDocumentIndex {
                        document_id: i as u64,
                        levels: (0..3).map(|_| random_bitindex(&mut rng, 129, 0.5)).collect(),
                    })
                    .collect();
                let queries = (0..6)
                    .map(|_| QueryIndex::from_bits(random_bitindex(&mut rng, 129, 0.02)))
                    .collect();
                (params_for(129, 3), docs, queries)
            }
            1 => scheme_workload(&mut rng, num_docs, 0),
            _ => scheme_workload(&mut rng, num_docs, 10),
        };
        prop_assert_eq!(params.doc_random_keywords == 0, regime < 2);
        if regime < 2 {
            prop_assert_eq!(dead_rows(&docs), 0, "dense regime {}", regime);
        } else {
            prop_assert!(dead_rows(&docs) > params.index_bits / 4, "paper-shaped corpus");
        }
        let r = params.index_bits;
        queries.push(QueryIndex::from_bits(BitIndex::all_ones(r)));
        queries.push(QueryIndex::from_bits(BitIndex::all_zeros(r)));
        queries.push(QueryIndex::from_bits(docs[0].base_level().clone()));

        let mut plane = ScanPlane::new();
        for d in &docs {
            plane.push(d);
        }
        let bits: Vec<&BitIndex> = queries.iter().map(|q| q.bits()).collect();
        let batched = plane.scan_ranked_batch(&bits);
        for (query, got) in queries.iter().zip(&batched) {
            prop_assert_eq!(got, &mkse_core::search::scan_ranked(&docs, query));
            prop_assert_eq!(got, &plane.scan_ranked(query.bits()));
        }

        let mut reference = CloudIndex::new(params.clone());
        reference.insert_all(docs.iter().cloned()).unwrap();
        let mut engine =
            SearchEngine::sharded(params, SHARD_COUNTS[shards_idx]).with_scan_lanes(lanes);
        engine.insert_all(docs.iter().cloned()).unwrap();
        let engine_batch = engine.search_batch_with_stats(&queries);
        for (query, got) in queries.iter().zip(engine_batch) {
            let expected = reference.search_ranked_with_stats(query);
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(engine.search_ranked_with_stats(query), expected);
        }
    }
}
