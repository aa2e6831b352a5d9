//! Oblivious search on the server side (§4.3) and ranked search (§5, Algorithm 1).
//!
//! The server holds one [`RankedDocumentIndex`] per document and evaluates the matching
//! predicate of Eq. (3) — a pure bitwise comparison — against the query index. When ranking is
//! enabled, Algorithm 1 walks the levels of each matching document upward; the document's rank
//! is the highest level that still matches. The server never learns anything beyond which
//! stored indices matched at which level.
//!
//! [`CloudIndex`] is the **sequential reference implementation** and the paper's
//! literal layout: a plain vector of decoded [`RankedDocumentIndex`]es in upload
//! order plus an id map, scanned with this module's [`scan_ranked`] loop — no
//! scan plane, no cache, and no code shared with the store under test beyond
//! [`check_geometry`]. The production read path is the shard-parallel
//! [`crate::engine::SearchEngine`] over a [`crate::storage::ShardedStore`] of
//! packed §5 entries, sweeping the bit-sliced [`crate::scanplane::ScanPlane`] it
//! derives per shard instead — a layout change only; it is held match-for-match,
//! rank-for-rank and count-for-count equivalent to this reference (see the
//! engine rows of `tests/oracle_matrix.rs` and
//! `mkse-core/tests/scanplane_equivalence.rs`).

use crate::document_index::RankedDocumentIndex;
use crate::params::SystemParams;
use crate::query::QueryIndex;
use crate::storage::{check_geometry, StoreError};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;

/// One search hit: a document id and its relevance rank (1 ≤ rank ≤ η).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchMatch {
    /// The matching document.
    pub document_id: u64,
    /// The highest index level that matched the query (Algorithm 1); higher is more relevant.
    pub rank: u32,
}

/// Statistics about one search execution (used for the Table 2 computation-cost accounting
/// and the Figure 4b timing experiments).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Number of r-bit binary comparisons performed (σ for level 1, plus the extra level
    /// comparisons for matching documents).
    pub comparisons: u64,
    /// Number of documents that matched at level 1.
    pub matches: u64,
}

impl SearchStats {
    /// Accumulate another execution's counts (used when merging per-shard scans; the
    /// sums equal the sequential scan's counts exactly).
    pub fn merge(&mut self, other: &SearchStats) {
        self.comparisons += other.comparisons;
        self.matches += other.matches;
    }
}

/// The ranked scan of Algorithm 1 over one contiguous run of documents.
///
/// This is *the* comparison loop of the scheme and the only AoS scan: the
/// sequential [`CloudIndex`] executes it, and the engine's plane sweep is held
/// bit-for-bit equal to it by the equivalence suites. Matches are returned in scan
/// order; callers order them with `sort_matches` or [`top_matches`].
pub fn scan_ranked(
    documents: &[RankedDocumentIndex],
    query: &QueryIndex,
) -> (Vec<SearchMatch>, SearchStats) {
    let mut stats = SearchStats::default();
    let mut matches = Vec::new();
    for doc in documents {
        stats.comparisons += 1;
        if !doc.base_level().matches_query(query.bits()) {
            continue;
        }
        stats.matches += 1;
        // Walk upward while the higher levels still match.
        let mut rank = 1u32;
        for level in doc.levels.iter().skip(1) {
            stats.comparisons += 1;
            if level.matches_query(query.bits()) {
                rank += 1;
            } else {
                break;
            }
        }
        matches.push(SearchMatch {
            document_id: doc.document_id,
            rank,
        });
    }
    (matches, stats)
}

/// The canonical result order: descending rank, ties broken by ascending
/// document id — the one comparator `sort_matches` and [`top_matches`] share.
fn canonical_order(a: &SearchMatch, b: &SearchMatch) -> Ordering {
    b.rank.cmp(&a.rank).then(a.document_id.cmp(&b.document_id))
}

/// Sort into the canonical result order: descending rank, ties broken by
/// ascending document id.
///
/// Document ids are unique, so this comparator is a total order — sorting any
/// permutation of the same match set (e.g. a shard-merged one) yields one unique
/// sequence, which is what makes parallel execution deterministic. The
/// reference [`CloudIndex`] sorts with this; the engine and the fleet cut with
/// [`top_matches`] instead.
fn sort_matches(matches: &mut [SearchMatch]) {
    matches.sort_by(canonical_order);
}

/// The first `top` of `matches` in the canonical order (all of them for
/// `None`) — what `sort_matches` followed by `truncate(top)` returns, without
/// sorting what the cut drops. `key` reads the `(document_id, rank)` an item is
/// ordered by, so a reply type that carries more than a [`SearchMatch`] is cut
/// by the same rule.
///
/// With more than `k` items the `k`-th is selected in linear time and only the
/// `k` kept are sorted. Ids are unique, so the order is total and the unstable
/// select and sort return exactly what the stable sort does. `Some(0)` keeps
/// nothing.
pub fn top_matches<T>(
    mut matches: Vec<T>,
    top: Option<usize>,
    key: impl Fn(&T) -> SearchMatch,
) -> Vec<T> {
    let order = |a: &T, b: &T| canonical_order(&key(a), &key(b));
    match top {
        Some(0) => matches.clear(),
        Some(k) if k < matches.len() => {
            matches.select_nth_unstable_by(k - 1, order);
            matches.truncate(k);
        }
        _ => {}
    }
    matches.sort_unstable_by(order);
    matches
}

/// The sequential server-side index store — the paper's single-threaded scan, kept as
/// the reference the parallel engine is tested against.
#[derive(Clone, Debug)]
pub struct CloudIndex {
    params: SystemParams,
    /// Every document, in insertion order.
    documents: Vec<RankedDocumentIndex>,
    /// document id → position in `documents`.
    by_id: HashMap<u64, usize>,
}

impl CloudIndex {
    /// Create an empty store for the given parameters.
    pub fn new(params: SystemParams) -> Self {
        CloudIndex {
            params,
            documents: Vec::new(),
            by_id: HashMap::new(),
        }
    }

    /// Upload one document index.
    ///
    /// Fails if the index was built with a different number of levels or a different
    /// index size than this store's parameters (mixing parameter sets is a protocol
    /// violation), or if the document id is already stored.
    pub fn insert(&mut self, index: RankedDocumentIndex) -> Result<(), StoreError> {
        check_geometry(&self.params, &index)?;
        if self.by_id.contains_key(&index.document_id) {
            return Err(StoreError::DuplicateDocument(index.document_id));
        }
        self.by_id.insert(index.document_id, self.documents.len());
        self.documents.push(index);
        Ok(())
    }

    /// Upload many document indices, stopping at the first invalid one.
    pub fn insert_all<I: IntoIterator<Item = RankedDocumentIndex>>(
        &mut self,
        indices: I,
    ) -> Result<(), StoreError> {
        for index in indices {
            self.insert(index)?;
        }
        Ok(())
    }

    /// Number of stored documents (σ).
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// True if no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// Every stored index, in insertion order — what a snapshot of this
    /// reference writes ([`crate::persistence::serialize_store`]).
    pub fn documents(&self) -> &[RankedDocumentIndex] {
        &self.documents
    }

    /// The stored index of one document (O(1) via the id map).
    pub fn document_index(&self, document_id: u64) -> Option<&RankedDocumentIndex> {
        (self.by_id.get(&document_id)).map(|&position| &self.documents[position])
    }

    /// Plain (unranked) oblivious search: every document whose level-1 index matches the
    /// query, in storage order. This is Eq. (3) applied across the database.
    pub fn search_unranked(&self, query: &QueryIndex) -> Vec<u64> {
        self.documents
            .iter()
            .filter(|d| d.base_level().matches_query(query.bits()))
            .map(|d| d.document_id)
            .collect()
    }

    /// Ranked search (Algorithm 1): returns matches sorted by descending rank (ties broken by
    /// document id) together with execution statistics.
    pub fn search_ranked_with_stats(&self, query: &QueryIndex) -> (Vec<SearchMatch>, SearchStats) {
        let (mut matches, stats) = scan_ranked(&self.documents, query);
        sort_matches(&mut matches);
        (matches, stats)
    }

    /// Ranked search without statistics.
    pub fn search(&self, query: &QueryIndex) -> Vec<SearchMatch> {
        self.search_ranked_with_stats(query).0
    }

    /// Ranked search returning only the top `tau` matches (§5: "the user can retrieve only
    /// the top τ matches where τ is chosen by the user").
    pub fn search_top(&self, query: &QueryIndex, tau: usize) -> Vec<SearchMatch> {
        let mut all = self.search(query);
        all.truncate(tau);
        all
    }

    /// The parameters of this store.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document_index::DocumentIndexer;
    use crate::keys::SchemeKeys;
    use crate::query::QueryBuilder;
    use mkse_textproc::document::TermFrequencies;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        params: SystemParams,
        keys: SchemeKeys,
        rng: StdRng,
    }

    fn fixture(params: SystemParams) -> Fixture {
        let mut rng = StdRng::seed_from_u64(99);
        let keys = SchemeKeys::generate(&params, &mut rng);
        Fixture { params, keys, rng }
    }

    fn query(fx: &mut Fixture, keywords: &[&str]) -> QueryIndex {
        let tds = fx.keys.trapdoors_for(&fx.params, keywords);
        QueryBuilder::new(&fx.params)
            .add_trapdoors(&tds)
            .build(&mut fx.rng)
    }

    #[test]
    fn documents_with_all_query_keywords_match() {
        let mut fx = fixture(SystemParams::default());
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        let mut cloud = CloudIndex::new(fx.params.clone());
        cloud
            .insert(indexer.index_keywords(0, &["cloud", "privacy", "search"]))
            .unwrap();
        cloud
            .insert(indexer.index_keywords(1, &["cloud", "weather"]))
            .unwrap();
        cloud
            .insert(indexer.index_keywords(2, &["privacy", "search", "ranking"]))
            .unwrap();
        assert_eq!(cloud.len(), 3);

        let q = query(&mut fx, &["privacy", "search"]);
        let hits = cloud.search_unranked(&q);
        assert!(hits.contains(&0));
        assert!(hits.contains(&2));
        assert!(!hits.contains(&1));
    }

    #[test]
    fn single_keyword_query_matches_all_containing_documents() {
        let mut fx = fixture(SystemParams::default());
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        let mut cloud = CloudIndex::new(fx.params.clone());
        for (id, kws) in [
            (0u64, vec!["alpha", "beta"]),
            (1, vec!["alpha"]),
            (2, vec!["gamma"]),
        ] {
            cloud.insert(indexer.index_keywords(id, &kws)).unwrap();
        }
        let q = query(&mut fx, &["alpha"]);
        let hits = cloud.search_unranked(&q);
        assert!(hits.contains(&0) && hits.contains(&1));
        assert!(!hits.contains(&2));
    }

    #[test]
    fn ranked_search_orders_by_term_frequency_level() {
        let mut fx = fixture(SystemParams::default()); // thresholds 1, 5, 10
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        let mut cloud = CloudIndex::new(fx.params.clone());
        // doc 0: keyword occurs 12 times → should reach level 3.
        cloud
            .insert(indexer.index_terms(0, &TermFrequencies::from_pairs([("topic", 12u32)])))
            .unwrap();
        // doc 1: keyword occurs 6 times → level 2.
        cloud
            .insert(indexer.index_terms(1, &TermFrequencies::from_pairs([("topic", 6u32)])))
            .unwrap();
        // doc 2: keyword occurs once → level 1.
        cloud
            .insert(indexer.index_terms(2, &TermFrequencies::from_pairs([("topic", 1u32)])))
            .unwrap();
        // doc 3: unrelated.
        cloud
            .insert(indexer.index_terms(3, &TermFrequencies::from_pairs([("other", 9u32)])))
            .unwrap();

        let q = query(&mut fx, &["topic"]);
        let (hits, stats) = cloud.search_ranked_with_stats(&q);
        let ranks: Vec<(u64, u32)> = hits.iter().map(|m| (m.document_id, m.rank)).collect();
        assert_eq!(ranks, vec![(0, 3), (1, 2), (2, 1)]);
        assert_eq!(stats.matches, 3);
        // 4 level-1 comparisons + (2 extra for doc0) + (2 extra for doc1: level2 match,
        // level3 fail) + (1 extra for doc2: level2 fail) = 9.
        assert_eq!(stats.comparisons, 9);
    }

    #[test]
    fn rank_is_determined_by_least_frequent_query_keyword() {
        // §5: "The rank of the document is identified with the least frequent keyword of the
        // query."
        let mut fx = fixture(SystemParams::default());
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        let mut cloud = CloudIndex::new(fx.params.clone());
        cloud
            .insert(indexer.index_terms(
                0,
                &TermFrequencies::from_pairs([("hot", 12u32), ("rare", 1u32)]),
            ))
            .unwrap();
        let q = query(&mut fx, &["hot", "rare"]);
        let hits = cloud.search(&q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rank, 1);
        // Querying only the hot keyword reaches level 3.
        let q_hot = query(&mut fx, &["hot"]);
        assert_eq!(cloud.search(&q_hot)[0].rank, 3);
    }

    #[test]
    fn search_top_truncates_to_tau() {
        let mut fx = fixture(SystemParams::default());
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        let mut cloud = CloudIndex::new(fx.params.clone());
        for id in 0..10u64 {
            let tf = TermFrequencies::from_pairs([("shared", 1 + (id as u32 % 11))]);
            cloud.insert(indexer.index_terms(id, &tf)).unwrap();
        }
        let q = query(&mut fx, &["shared"]);
        let top3 = cloud.search_top(&q, 3);
        assert_eq!(top3.len(), 3);
        let all = cloud.search(&q);
        assert_eq!(&all[..3], &top3[..]);
        // The canonical order: descending rank, ties by ascending id.
        for w in all.windows(2) {
            assert!((w[1].rank, w[0].document_id) < (w[0].rank, w[1].document_id));
        }
    }

    /// `matches` with the ids deduplicated (first occurrence kept, order
    /// otherwise arbitrary) and every rank folded into `1..=eta`.
    fn match_set(ids: Vec<u64>, ranks: &[u32], eta: u32) -> Vec<SearchMatch> {
        let mut seen = std::collections::HashSet::new();
        (ids.into_iter().zip(ranks))
            .filter(|(id, _)| seen.insert(*id))
            .map(|(document_id, rank)| SearchMatch {
                document_id,
                rank: 1 + rank % eta,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The selection is the reference sort cut short: for any match set and
        /// every `top` around its length, `top_matches` == `sort_matches` +
        /// `truncate`, for bare matches and for a payload-carrying item keyed
        /// by its match alike.
        #[test]
        fn prop_top_matches_is_sort_then_truncate(
            ids in proptest::collection::vec(0u64..400, 0..300),
            ranks in proptest::collection::vec(any::<u32>(), 300),
            eta in 1u32..=5,
        ) {
            let matches = match_set(ids, &ranks, eta);
            let len = matches.len();
            let tops = [
                None,
                Some(0),
                Some(1),
                Some(len.saturating_sub(1)),
                Some(len),
                Some(len + 1),
                Some(usize::MAX),
            ];
            for top in tops {
                let mut expected = matches.clone();
                sort_matches(&mut expected);
                expected.truncate(top.unwrap_or(usize::MAX));
                prop_assert_eq!(&top_matches(matches.clone(), top, |m| *m), &expected, "top {:?}", top);
                let tagged: Vec<(SearchMatch, u64)> =
                    matches.iter().map(|m| (*m, m.document_id ^ 0x5a)).collect();
                let cut: Vec<SearchMatch> =
                    top_matches(tagged, top, |t| t.0).into_iter().map(|t| t.0).collect();
                prop_assert_eq!(&cut, &expected, "keyed, top {:?}", top);
            }
        }
    }

    #[test]
    fn randomized_queries_return_the_same_matches() {
        // Randomization must not change the response (§6, last paragraph).
        let mut fx = fixture(SystemParams::default());
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        let mut cloud = CloudIndex::new(fx.params.clone());
        cloud
            .insert(indexer.index_keywords(0, &["cloud", "privacy"]))
            .unwrap();
        cloud
            .insert(indexer.index_keywords(1, &["weather"]))
            .unwrap();

        let tds = fx.keys.trapdoors_for(&fx.params, &["cloud"]);
        let pool = fx.keys.random_pool_trapdoors(&fx.params);
        let plain = QueryBuilder::new(&fx.params)
            .add_trapdoors(&tds)
            .build(&mut fx.rng);
        let randomized = QueryBuilder::new(&fx.params)
            .add_trapdoors(&tds)
            .with_randomization(&pool)
            .build(&mut fx.rng);
        assert_eq!(
            cloud.search_unranked(&plain),
            cloud.search_unranked(&randomized)
        );
    }

    #[test]
    fn metadata_is_returned_for_matches_only() {
        let mut fx = fixture(SystemParams::default());
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        let mut cloud = CloudIndex::new(fx.params.clone());
        cloud.insert(indexer.index_keywords(0, &["match"])).unwrap();
        cloud.insert(indexer.index_keywords(1, &["other"])).unwrap();
        let q = query(&mut fx, &["match"]);
        // What a server ships beside each ranked match (§4.3): the matching
        // document's stored per-level indices, looked up by id.
        let metadata: Vec<(u64, usize)> = (cloud.search(&q).iter())
            .map(|m| {
                let stored = cloud.document_index(m.document_id).expect("stored");
                (m.document_id, stored.levels.len())
            })
            .collect();
        assert_eq!(metadata.len(), 1);
        assert_eq!(metadata[0].0, 0);
        assert_eq!(metadata[0].1, fx.params.rank_levels());
    }

    #[test]
    fn empty_store_returns_no_matches() {
        let mut fx = fixture(SystemParams::default());
        let cloud = CloudIndex::new(fx.params.clone());
        assert!(cloud.is_empty());
        let q = query(&mut fx, &["anything"]);
        assert!(cloud.search(&q).is_empty());
        assert!(cloud.search_unranked(&q).is_empty());
        assert!(cloud.document_index(0).is_none());
    }

    #[test]
    fn document_index_lookup_finds_stored_index() {
        let fx = fixture(SystemParams::default());
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        let mut cloud = CloudIndex::new(fx.params.clone());
        let idx = indexer.index_keywords(42, &["kw"]);
        cloud.insert(idx.clone()).unwrap();
        assert_eq!(cloud.document_index(42), Some(&idx));
        assert!(cloud.document_index(43).is_none());
    }

    #[test]
    fn inserting_index_with_wrong_level_count_is_rejected() {
        let fx = fixture(SystemParams::default());
        let other_params = SystemParams::without_ranking();
        let other_keys = SchemeKeys::generate(&other_params, &mut StdRng::seed_from_u64(5));
        let other_indexer = DocumentIndexer::new(&other_params, &other_keys);
        let mut cloud = CloudIndex::new(fx.params.clone());
        assert_eq!(
            cloud.insert(other_indexer.index_keywords(0, &["kw"])),
            Err(StoreError::LevelCountMismatch {
                expected: 3,
                found: 1
            })
        );
        assert!(cloud.is_empty(), "rejected insert must not be stored");
    }

    #[test]
    fn inserting_duplicate_document_id_is_rejected() {
        let fx = fixture(SystemParams::default());
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        let mut cloud = CloudIndex::new(fx.params.clone());
        cloud.insert(indexer.index_keywords(7, &["kw"])).unwrap();
        assert_eq!(
            cloud.insert(indexer.index_keywords(7, &["kw2"])),
            Err(StoreError::DuplicateDocument(7))
        );
        assert_eq!(cloud.len(), 1);
    }

    #[test]
    fn insert_all_accepts_an_iterator_and_stops_on_error() {
        let fx = fixture(SystemParams::default());
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        let mut cloud = CloudIndex::new(fx.params.clone());
        cloud
            .insert_all((0..5u64).map(|id| indexer.index_keywords(id, &["kw"])))
            .unwrap();
        assert_eq!(cloud.len(), 5);
        // A duplicate in the middle aborts the remaining inserts.
        let result = cloud.insert_all([
            indexer.index_keywords(10, &["kw"]),
            indexer.index_keywords(3, &["kw"]),
            indexer.index_keywords(11, &["kw"]),
        ]);
        assert_eq!(result, Err(StoreError::DuplicateDocument(3)));
        assert_eq!(cloud.len(), 6);
        assert!(cloud.document_index(11).is_none());
    }

    #[test]
    fn unranked_search_with_single_level_params() {
        let mut fx = fixture(SystemParams::without_ranking());
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        let mut cloud = CloudIndex::new(fx.params.clone());
        cloud.insert(indexer.index_keywords(0, &["kw"])).unwrap();
        let q = query(&mut fx, &["kw"]);
        let (hits, stats) = cloud.search_ranked_with_stats(&q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rank, 1);
        assert_eq!(stats.comparisons, 1);
    }
}
