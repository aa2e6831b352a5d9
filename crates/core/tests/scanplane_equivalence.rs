//! Exact equivalence of the scan plane and the paper's sequential loop.
//!
//! The scan plane is a pure layout change: for any document set (arbitrary bit
//! patterns, not just scheme-generated ones), any query — all-ones, all-zeros,
//! random, or a stored document's own base level — any index size `r` (multiples
//! of 64 and ragged tails alike), any level count and any chunk partition, a
//! [`ScanPlane`] sweep must return **byte-identical** matches, ranks, order and
//! [`mkse_core::SearchStats`] to [`mkse_core::search::scan_ranked`], Algorithm
//! 1's loop over the same documents — and a kept sweep, cut again, that loop's
//! cut. This suite holds the plane and nothing above it: the engine over the
//! planes is held to `CloudIndex` by the engine rows of the oracle matrix
//! (`tests/oracle_matrix.rs`).
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
use mkse_core::search::scan_ranked;
use mkse_core::{
    BitIndex, DocumentIndexer, QueryBuilder, QueryIndex, RankedDocumentIndex, ScanPlane,
    SchemeKeys, SearchMatch, SearchStats, ShardedStore, SystemParams,
};
use mkse_textproc::TermFrequencies;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// `n` documents with ids `0..n` whose level bits are zero with probability
/// `zero_prob`: dense ones, so random queries genuinely match some documents
/// (an all-reject workload would not exercise rank walks).
fn random_docs(
    rng: &mut StdRng,
    n: usize,
    r: usize,
    eta: usize,
    zero_prob: f64,
) -> Vec<RankedDocumentIndex> {
    (0..n)
        .map(|i| RankedDocumentIndex {
            document_id: i as u64,
            levels: (0..eta)
                .map(|_| random_bitindex(rng, r, zero_prob))
                .collect(),
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

/// The whole plane's uncut sweep of a batch: one result per query.
fn sweep_all(plane: &ScanPlane, queries: &[&BitIndex]) -> Vec<(Vec<SearchMatch>, SearchStats)> {
    let uncut = vec![None; queries.len()];
    plane.scan_ranked_batch_chunks(queries, &uncut, 0..plane.num_chunks())
}

/// The reference loop's answer to `query` over `docs`.
fn reference(docs: &[RankedDocumentIndex], query: &BitIndex) -> (Vec<SearchMatch>, SearchStats) {
    scan_ranked(docs, &QueryIndex::from_bits(query.clone()))
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

/// The pruning extremes, at a ragged r = 100 (the phantom 28 bits must never
/// reject or match) and η = 2 and 3: the all-ones query reads no row and
/// matches every document at the top rank; the all-zeros query reads every
/// live row and matches only the all-zero document.
#[test]
fn scanplane_all_ones_and_all_zeros_queries_hit_pruning_extremes() {
    let mut rng = StdRng::seed_from_u64(92);
    let r = 100;
    for eta in [2, 3] {
        let mut docs = random_docs(&mut rng, 33, r, eta, 0.05);
        docs.push(RankedDocumentIndex {
            document_id: 77,
            levels: vec![BitIndex::all_zeros(r); eta],
        });
        let plane = plane_of(&params_for(r, eta), &docs);

        let all_ones = BitIndex::all_ones(r);
        let (matches, stats) = plane.scan_ranked(&all_ones);
        assert_eq!(
            (matches.clone(), stats),
            reference(&docs, &all_ones),
            "η {eta}, all-ones"
        );
        assert_eq!(
            stats.matches,
            docs.len() as u64,
            "all-ones matches everything"
        );
        assert!(
            matches.iter().all(|m| m.rank == eta as u32),
            "and at the top rank"
        );

        let all_zeros = BitIndex::all_zeros(r);
        let (matches, stats) = plane.scan_ranked(&all_zeros);
        assert_eq!(
            (matches.clone(), stats),
            reference(&docs, &all_zeros),
            "η {eta}, all-zeros"
        );
        let ids: Vec<u64> = matches.iter().map(|m| m.document_id).collect();
        assert_eq!(ids, [77], "only the all-zero document");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core contract under arbitrary geometry and bit patterns: a plane
    /// built by incremental pushes scans exactly like the reference loop over
    /// the same slice — r with ragged tails up to the paper's 448, η up to 5,
    /// degenerate stores — and the empty plane, whose geometry is unknown,
    /// answers any query with no matches and zeroed stats.
    #[test]
    fn scanplane_prop_equivalence_on_arbitrary_workloads(
        seed in 0u64..1_000_000,
        r in 1usize..=448,
        eta in 1usize..=5,
        num_docs in 0usize..24,
        query_zero_prob in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let docs = random_docs(&mut rng, num_docs, r, eta, 0.2);
        let query = random_bitindex(&mut rng, r, query_zero_prob);

        let empty = ScanPlane::new();
        prop_assert!(empty.is_empty());
        prop_assert_eq!((empty.len(), empty.bits(), empty.levels()), (0, 0, 0));
        prop_assert_eq!(empty.scan_ranked(&query), reference(&[], &query));

        let plane = plane_of(&params_for(r, eta), &docs);
        prop_assert_eq!(plane.len(), num_docs);
        if num_docs > 0 {
            prop_assert_eq!((plane.bits(), plane.levels()), (r, eta));
        }
        let (matches, stats) = plane.scan_ranked(&query);
        prop_assert_eq!(&(matches.clone(), stats), &reference(&docs, &query));
        let ids: Vec<u64> = (docs.iter())
            .filter(|d| d.base_level().matches_query(&query))
            .map(|d| d.document_id)
            .collect();
        let got: Vec<u64> = matches.iter().map(|m| m.document_id).collect();
        prop_assert_eq!(got, ids, "matches in slot order");
    }

    /// The fused-batch contract under arbitrary geometry: for any batch size in
    /// 0..=64 — with duplicate queries and the all-ones/all-zeros pruning
    /// extremes mixed in — one sweep of the whole plane returns exactly what b
    /// independent `scan_ranked` calls return, on planes of up to three
    /// chunks, the last one partial.
    #[test]
    fn scanplane_prop_batch_equals_independent_scans(
        seed in 0u64..1_000_000,
        r in 1usize..=448,
        eta in 1usize..=3,
        num_docs in 0usize..24,
        full_chunks in 0usize..=2,
        batch_size in 0usize..=64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let docs = random_docs(&mut rng, full_chunks * CHUNK + num_docs, r, eta, 0.2);
        let mut queries: Vec<BitIndex> = (0..batch_size)
            .map(|q| match q % 5 {
                0 => random_bitindex(&mut rng, r, 0.3),
                1 => BitIndex::all_ones(r),
                2 => BitIndex::all_zeros(r),
                _ => random_bitindex(&mut rng, r, 0.05),
            })
            .collect();
        // A duplicate of the first query whenever batch_size > 3.
        if batch_size > 3 {
            queries[3] = queries[0].clone();
        }

        let plane = plane_of(&params_for(r, eta), &docs);
        let refs: Vec<&BitIndex> = queries.iter().collect();
        let batched = sweep_all(&plane, &refs);
        prop_assert_eq!(batched.len(), queries.len());
        for (i, (q, got)) in queries.iter().zip(&batched).enumerate() {
            prop_assert_eq!(got, &plane.scan_ranked(q), "query {}", i);
        }
    }

    /// The contract in both row-skipping regimes, side by side. Dense corpora
    /// have **no** dead row — uniformly random level bits, or scheme-generated
    /// with `doc_random_keywords = 0` — so every zero of a query selects a row;
    /// the paper-shaped corpus (U fake keywords folded into every level of every
    /// document) leaves most of a randomized query's zeros on dead rows. In
    /// each, the plane's fused batch equals the reference loop (invariant 3)
    /// and independent scans (4).
    #[test]
    fn scanplane_prop_dense_and_sparse_corpora_equal_reference(
        seed in 0u64..1_000_000,
        regime in 0usize..3,
        num_docs in 40usize..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (params, docs, mut queries) = match regime {
            0 => {
                let docs = random_docs(&mut rng, num_docs, 129, 3, 0.5);
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
        let batched = sweep_all(&plane, &bits);
        for (query, got) in queries.iter().zip(&batched) {
            prop_assert_eq!(got, &scan_ranked(&docs, query));
            prop_assert_eq!(got, &plane.scan_ranked(query.bits()));
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
            let reference = scan_ranked(&docs, &QueryIndex::from_bits(q.clone()));
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

        let mut stitched = vec![(Vec::new(), SearchStats::default()); batch.len()];
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
                .map(|q| scan_ranked(&docs, &QueryIndex::from_bits(q.clone())))
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
            let mut out = vec![(Vec::new(), SearchStats::default()); batch.len()];
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
