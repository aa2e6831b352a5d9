//! Exact equivalence of the plane-backed shard scan and the sequential reference.
//!
//! The scan plane is a pure layout change: for any document set (arbitrary bit
//! patterns, not just scheme-generated ones), any query — all-ones, all-zeros,
//! random, or a stored document's own base level — any index size `r` (multiples
//! of 64 and ragged tails alike) and any shard count, the plane-backed
//! [`SearchEngine`] must return **byte-identical** matches, ranks, order,
//! [`SearchStats`] and cache counters to the AoS reference scan of
//! [`CloudIndex`]. Engines over every configuration and script are rows of
//! the oracle matrix (`tests/oracle_matrix.rs`); this suite keeps the corners.
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

use mkse_core::scanplane::{Sweeper, CHUNK};
use mkse_core::{
    BitIndex, CacheConfig, CloudIndex, DocumentIndexer, QueryBuilder, QueryIndex,
    RankedDocumentIndex, ScanPlane, SchemeKeys, SearchEngine, ShardedStore, SystemParams,
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

/// A plane of `docs` pushed the way an engine pushes: from a store's entries.
fn plane_of(params: &SystemParams, docs: &[RankedDocumentIndex]) -> ScanPlane {
    let mut store = ShardedStore::new(params.clone(), 1);
    store.insert_all(docs.iter().cloned()).unwrap();
    let mut plane = ScanPlane::new();
    for entry in store.shard_entries(0) {
        plane.push(entry);
    }
    plane
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
        let params = params_for(r, eta);

        // Direct: plane vs the reference scan loop.
        let plane = plane_of(&params, &docs);
        let expected = mkse_core::search::scan_ranked(&docs, &query);
        prop_assert_eq!(plane.scan_ranked(query.bits()), expected);

        // Engine-level: plane-backed shards vs the AoS reference index.
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
    /// and lane count, cache on or off. With the cache on, one query's bits
    /// are first issued at a cut k and then re-issued at a narrower cut, at k,
    /// wider and uncut: each reply and its stats equal the reference's cut,
    /// and the cached entry serves the first two and misses the last two.
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

        let params = params_for(r, eta);
        let plane = plane_of(&params, &docs);
        let refs: Vec<&BitIndex> = queries.iter().collect();
        let batched = plane.scan_ranked_batch(&refs);
        prop_assert_eq!(batched.len(), queries.len());
        for (q, got) in queries.iter().zip(&batched) {
            prop_assert_eq!(got, &plane.scan_ranked(q));
        }

        // Engine-level: the fused batch vs the AoS reference, at an arbitrary
        // shards × lanes configuration.
        let shards = SHARD_COUNTS[shards_idx];
        let mut reference = CloudIndex::new(params.clone());
        reference.insert_all(docs.iter().cloned()).unwrap();
        let mut engine = SearchEngine::sharded(params, shards).with_scan_lanes(lanes);
        if cached {
            engine.enable_cache(CacheConfig::default());
        }
        engine.insert_all(docs.iter().cloned()).unwrap();
        let wrapped: Vec<QueryIndex> = queries.iter().cloned().map(QueryIndex::from_bits).collect();
        if cached {
            let query = &wrapped[0];
            let (all, stats) = reference.search_ranked_with_stats(query);
            let k = 1 + all.len() / 2;
            let issues = [(Some(k), false), (Some(k - 1), true), (Some(k), true), (Some(k + 1), false), (None, false)];
            for (top, hit) in issues {
                let replies = engine.search_batch_with_effects(std::slice::from_ref(query), &[top]);
                let (matches, got, effect) = &replies[0];
                let cut = top.map_or(all.len(), |t| t.min(all.len()));
                prop_assert_eq!(&matches[..], &all[..cut], "top {:?}", top);
                prop_assert_eq!(got, &stats, "top {:?}", top);
                let (hits, misses) = if hit { (shards, 0) } else { (0, shards) };
                prop_assert_eq!(
                    (effect.shard_hits, effect.shard_misses),
                    (hits as u64, misses as u64),
                    "top {:?}", top
                );
            }
        }
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

        let plane = plane_of(&params, &docs);
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

/// Sparse random levels (each bit set with probability 2^-`thin`) under ids
/// pushed in shuffled order, so slot order is not id order: queries with a few
/// zeros match many documents across every rank, with ties at each one.
fn shuffled_sparse_docs(
    rng: &mut StdRng,
    n: usize,
    r: usize,
    eta: usize,
    thin: u32,
) -> Vec<RankedDocumentIndex> {
    let mut ids: Vec<u64> = (0..n as u64).collect();
    for i in (1..n).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    let mut sparse_word = || (0..thin).fold(u64::MAX, |word, _| word & rng.gen::<u64>());
    ids.into_iter()
        .map(|document_id| RankedDocumentIndex {
            document_id,
            levels: (0..eta)
                .map(|_| {
                    BitIndex::from_blocks((0..r.div_ceil(64)).map(|_| sparse_word()).collect(), r)
                })
                .collect(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A kept sweep, under any chunk partition, answers what the uncut sweep
    /// cut to the same `k` answers. The corpus spans more than one 8-chunk
    /// engine unit, its ids are shuffled (a cut by slot order would pick the
    /// wrong ties), and each batch mixes every keep — nothing, one, ten, more
    /// than the matches, `usize::MAX`, uncut — over queries whose matches tie
    /// at every rank. Each range's stats are the uncut range's, each range's
    /// kept list is its uncut list cut by `top_matches`, and the partition's
    /// kept lists, cut again, are the whole uncut sweep's cut, which is the
    /// reference loop's.
    #[test]
    fn scanplane_prop_kept_partitions_equal_the_full_sweep_cut(
        seed in 0u64..1_000_000,
        r in 1usize..=200,
        eta in 1usize..=5,
        num_docs in (8 * CHUNK + 1)..=(10 * CHUNK),
        thin in 2u32..=4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let docs = shuffled_sparse_docs(&mut rng, num_docs, r, eta, thin);
        let params = params_for(r, eta);
        let plane = plane_of(&params, &docs);
        prop_assert!(plane.ids().windows(2).any(|w| w[0] > w[1]), "slot order is not id order");

        // The all-ones query ties every document at rank η; the others put
        // 1–8 zeros at random positions.
        let mut queries = vec![BitIndex::all_ones(r)];
        for zeros in [1, 2, 4, 8] {
            let mut q = BitIndex::all_ones(r);
            for _ in 0..zeros {
                q.set(rng.gen_range(0..r), false);
            }
            queries.push(q);
        }
        let full: Vec<_> = queries.iter().map(|q| plane.scan_ranked(q)).collect();
        for (q, (matches, stats)) in queries.iter().zip(&full) {
            let reference = mkse_core::search::scan_ranked(&docs, &QueryIndex::from_bits(q.clone()));
            prop_assert_eq!(&(matches.clone(), *stats), &reference);
        }
        let mut batch: Vec<(usize, Option<usize>)> = Vec::new();
        for (q, (matches, _)) in full.iter().enumerate() {
            for keep in [Some(0), Some(1), Some(10), Some(matches.len() + 1), Some(usize::MAX), None] {
                batch.push((q, keep));
            }
        }
        let bits: Vec<&BitIndex> = batch.iter().map(|&(q, _)| &queries[q]).collect();
        let keeps: Vec<Option<usize>> = batch.iter().map(|&(_, keep)| keep).collect();
        let uncut = vec![None; batch.len()];

        let mut stitched = vec![(Vec::new(), mkse_core::SearchStats::default()); batch.len()];
        let mut lo = 0;
        while lo < plane.num_chunks() {
            let range = lo..(lo + rng.gen_range(1usize..=10)).min(plane.num_chunks());
            let kept = plane.scan_ranked_batch_chunks(&bits, &keeps, range.clone());
            let whole = plane.scan_ranked_batch_chunks(&bits, &uncut, range.clone());
            for (i, ((matches, stats), (all, all_stats))) in kept.into_iter().zip(whole).enumerate() {
                let ctx = format!("range {range:?}, query {}, keep {:?}", batch[i].0, keeps[i]);
                prop_assert_eq!(stats, all_stats, "{}", ctx);
                let want = match keeps[i] {
                    None => all,
                    keep => mkse_core::search::top_matches(all, keep, |m| *m),
                };
                prop_assert_eq!(&matches, &want, "{}", ctx);
                stitched[i].0.extend(matches);
                stitched[i].1.merge(&stats);
            }
            lo = range.end;
        }
        for (i, (matches, stats)) in stitched.into_iter().enumerate() {
            let (q, keep) = batch[i];
            let (all, all_stats) = full[q].clone();
            let ctx = format!("query {q}, keep {keep:?}");
            prop_assert_eq!(stats, all_stats, "{}", ctx);
            let cut = |list| match keep {
                None => list,
                keep => mkse_core::search::top_matches(list, keep, |m| *m),
            };
            prop_assert_eq!(cut(matches), cut(all), "{}", ctx);
        }
    }

    /// The engine's lanes carry a kept result across every unit they claim,
    /// of any shard: a bar raised in one chunk range shuts matches out of
    /// the next. Here a shuffled-id corpus is split over two planes (two
    /// shards) cut into ranges of 1–10 chunks; the ranges are shuffled and
    /// dealt to one to three sweepers (lanes), each sweeping its ranges in
    /// that order into one result per query and keep — nothing, one, ten,
    /// more than the matches, `usize::MAX`, uncut. Folded into one slot per
    /// result and cut again, every result is the reference loop's cut and
    /// carries its stats, at η = 1 (no comparison past level 1), 3 and 5,
    /// for the all-ones query (every match tied at rank η, so the cut falls
    /// inside one rank), the all-zeros query and queries with 1–8 zeros.
    #[test]
    fn scanplane_prop_lane_carried_bars_equal_the_full_sweep_cut(
        seed in 0u64..1_000_000,
        r in 1usize..=200,
        num_docs in (8 * CHUNK + 1)..=(10 * CHUNK),
        thin in 2u32..=4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for eta in [1usize, 3, 5] {
            let docs = shuffled_sparse_docs(&mut rng, num_docs, r, eta, thin);
            let params = params_for(r, eta);
            let split = rng.gen_range(1..num_docs);
            let planes = [plane_of(&params, &docs[..split]), plane_of(&params, &docs[split..])];

            let mut queries = vec![BitIndex::all_ones(r), BitIndex::all_zeros(r)];
            for zeros in [1, 2, 4, 8] {
                let mut q = BitIndex::all_ones(r);
                for _ in 0..zeros {
                    q.set(rng.gen_range(0..r), false);
                }
                queries.push(q);
            }
            let full: Vec<_> = (queries.iter())
                .map(|q| mkse_core::search::scan_ranked(&docs, &QueryIndex::from_bits(q.clone())))
                .collect();
            let mut batch: Vec<(usize, Option<usize>)> = Vec::new();
            for (q, (matches, _)) in full.iter().enumerate() {
                for keep in [Some(0), Some(1), Some(10), Some(matches.len() + 1), Some(usize::MAX), None] {
                    batch.push((q, keep));
                }
            }
            let work: Vec<(&BitIndex, usize)> =
                batch.iter().enumerate().map(|(i, &(q, _))| (&queries[q], i)).collect();

            let mut units = Vec::new();
            for (p, plane) in planes.iter().enumerate() {
                let mut lo = 0;
                while lo < plane.num_chunks() {
                    let hi = (lo + rng.gen_range(1usize..=10)).min(plane.num_chunks());
                    units.push((p, lo..hi));
                    lo = hi;
                }
            }
            for i in (1..units.len()).rev() {
                units.swap(i, rng.gen_range(0..=i));
            }
            let mut lanes: Vec<Sweeper> = (0..rng.gen_range(1usize..=3)).map(|_| Sweeper::default()).collect();
            for lane in &mut lanes {
                lane.reset(batch.len(), |i| batch[i].1);
            }
            for (p, range) in units {
                let lane = rng.gen_range(0..lanes.len());
                planes[p].sweep(range, &work, &mut lanes[lane]);
            }
            let mut out = vec![(Vec::new(), mkse_core::SearchStats::default()); batch.len()];
            for lane in &mut lanes {
                lane.fold_into(&mut out);
            }
            for (i, (matches, stats)) in out.into_iter().enumerate() {
                let (q, keep) = batch[i];
                let (all, all_stats) = full[q].clone();
                let ctx = format!("eta {eta}, {} lanes, query {q}, keep {keep:?}", lanes.len());
                prop_assert_eq!(stats, all_stats, "{}", ctx);
                let cut = |list| mkse_core::search::top_matches(list, keep, |m| *m);
                prop_assert_eq!(cut(matches), cut(all), "{}", ctx);
            }
        }
    }
}
