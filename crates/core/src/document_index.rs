//! Searchable document indices with ranking levels (§4.1 and §5).
//!
//! For a document `R` with keywords `w_1 … w_m`, the level-1 index is the bitwise product of
//! all keyword indices (Eq. 2). Level `i > 1` only includes keywords whose term frequency
//! reaches the level-`i` threshold, *cumulatively*: every keyword of level `i+1` is also in
//! level `i`. The data owner additionally folds the `U` random keywords of the randomization
//! pool into **every** level so that randomized queries (§6) still match at every level.

use crate::bitindex::BitIndex;
use crate::keys::{SchemeKeys, Trapdoor};
use crate::params::SystemParams;
use crate::storage::IndexEntry;
use mkse_textproc::document::{Document, TermFrequencies};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The per-document searchable index uploaded to the cloud server: one `r`-bit index per
/// ranking level, plus the document id it belongs to.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankedDocumentIndex {
    /// The document this index describes.
    pub document_id: u64,
    /// `levels[i]` is the level-`(i+1)` search index; `levels[0]` indexes every keyword.
    pub levels: Vec<BitIndex>,
}

impl RankedDocumentIndex {
    /// Number of ranking levels stored (η).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The level-1 index (every keyword of the document).
    pub fn base_level(&self) -> &BitIndex {
        &self.levels[0]
    }
}

impl From<IndexEntry<'_>> for RankedDocumentIndex {
    /// Decode a stored entry: one [`BitIndex`] per level.
    fn from(entry: IndexEntry<'_>) -> Self {
        RankedDocumentIndex {
            document_id: entry.document_id,
            levels: (entry.levels())
                .map(|level| BitIndex::from_blocks(level.to_vec(), entry.bits()))
                .collect(),
        }
    }
}

/// Builds [`RankedDocumentIndex`]es on the data-owner side.
pub struct DocumentIndexer<'a> {
    params: &'a SystemParams,
    keys: &'a SchemeKeys,
    /// Pre-computed bitwise product of all random-pool keyword indices, folded into every
    /// level of every document (identity when randomization is disabled).
    random_mask: BitIndex,
}

impl<'a> DocumentIndexer<'a> {
    /// Create an indexer for the given parameters and owner keys.
    pub fn new(params: &'a SystemParams, keys: &'a SchemeKeys) -> Self {
        let mut random_mask = BitIndex::all_ones(params.index_bits);
        for td in keys.random_pool_trapdoors(params) {
            random_mask.bitwise_product_assign(td.index());
        }
        DocumentIndexer {
            params,
            keys,
            random_mask,
        }
    }

    /// Index a document: one searchable index per ranking level, derived from the document's
    /// term frequencies.
    pub fn index_document(&self, document: &Document) -> RankedDocumentIndex {
        self.index_terms(document.id, &document.terms)
    }

    /// Index a bag of terms with explicit frequencies.
    ///
    /// The paper-faithful cost model of Figure 4(a): nothing is memoized, so every level
    /// recomputes the trapdoor of every keyword that reaches it — one PRF evaluation per
    /// (document, level, keyword whose count reaches the level's threshold). The data owner's
    /// own path is [`DocumentIndexer::index_terms_cached`].
    pub fn index_terms(&self, document_id: u64, terms: &TermFrequencies) -> RankedDocumentIndex {
        let levels = self
            .params
            .level_thresholds
            .iter()
            .map(|&threshold| {
                let mut level = self.random_mask.clone();
                for (term, count) in terms.iter() {
                    if count >= threshold {
                        let td = self.keys.trapdoor_for(self.params, term);
                        level.bitwise_product_assign(td.index());
                    }
                }
                level
            })
            .collect();
        RankedDocumentIndex {
            document_id,
            levels,
        }
    }

    /// Convenience: index a plain keyword list (every keyword with term frequency 1, so only
    /// level 1 carries information).
    pub fn index_keywords(&self, document_id: u64, keywords: &[&str]) -> RankedDocumentIndex {
        let terms = TermFrequencies::from_pairs(keywords.iter().map(|k| (k.to_string(), 1u32)));
        self.index_terms(document_id, &terms)
    }

    /// Index a bag of terms while memoizing keyword trapdoors in `cache` — the data owner's
    /// production path ([`DocumentIndexer::index_documents`],
    /// [`DocumentIndexer::index_documents_parallel`]).
    ///
    /// The terms are walked once: each term that reaches at least one level is looked up in
    /// `cache` once (a `String` key is allocated only on a miss, when the trapdoor is
    /// computed and stored) and its trapdoor is ANDed into every level whose threshold its
    /// count reaches. AND commutes, so the levels equal [`DocumentIndexer::index_terms`]'s
    /// bit for bit. A term that reaches no level is neither looked up nor cached.
    pub fn index_terms_cached(
        &self,
        document_id: u64,
        terms: &TermFrequencies,
        cache: &mut HashMap<String, Trapdoor>,
    ) -> RankedDocumentIndex {
        let thresholds = &self.params.level_thresholds;
        let mut levels = vec![self.random_mask.clone(); thresholds.len()];
        for (term, count) in terms.iter() {
            if !thresholds.iter().any(|&threshold| count >= threshold) {
                continue;
            }
            let fold_into_levels = |levels: &mut [BitIndex], td: &Trapdoor| {
                for (level, &threshold) in levels.iter_mut().zip(thresholds) {
                    if count >= threshold {
                        level.bitwise_product_assign(td.index());
                    }
                }
            };
            match cache.get(term) {
                Some(td) => fold_into_levels(&mut levels, td),
                None => {
                    let td = self.keys.trapdoor_for(self.params, term);
                    fold_into_levels(&mut levels, &td);
                    cache.insert(term.to_string(), td);
                }
            }
        }
        RankedDocumentIndex {
            document_id,
            levels,
        }
    }

    /// Index a whole corpus sequentially, memoizing keyword indices across documents.
    pub fn index_documents(&self, documents: &[Document]) -> Vec<RankedDocumentIndex> {
        let mut cache = HashMap::new();
        documents
            .iter()
            .map(|d| self.index_terms_cached(d.id, &d.terms, &mut cache))
            .collect()
    }

    /// Index a whole corpus in parallel across `threads` worker threads (the paper notes that
    /// "index calculation problem is of highly parallelized nature", §8.1). Each worker keeps
    /// its own keyword cache; results come back in the input order.
    pub fn index_documents_parallel(
        &self,
        documents: &[Document],
        threads: usize,
    ) -> Vec<RankedDocumentIndex> {
        let threads = threads.max(1);
        if threads == 1 || documents.len() < 2 * threads {
            return self.index_documents(documents);
        }
        let chunk_size = documents.len().div_ceil(threads);
        let mut results: Vec<Vec<RankedDocumentIndex>> = Vec::new();
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = documents
                .chunks(chunk_size)
                .map(|chunk| {
                    scope.spawn(move |_| {
                        let mut cache = HashMap::new();
                        chunk
                            .iter()
                            .map(|d| self.index_terms_cached(d.id, &d.terms, &mut cache))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().expect("indexing worker panicked"));
            }
        })
        .expect("crossbeam scope failed");
        results.into_iter().flatten().collect()
    }

    /// The parameters this indexer was built with.
    pub fn params(&self) -> &SystemParams {
        self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(params: SystemParams) -> (SystemParams, SchemeKeys) {
        let keys = SchemeKeys::generate(&params, &mut StdRng::seed_from_u64(1));
        (params, keys)
    }

    /// The product of the pool trapdoors' indices, from the owner's keys:
    /// what every level of every document must carry.
    fn pool_mask(params: &SystemParams, keys: &SchemeKeys) -> BitIndex {
        let mut mask = BitIndex::all_ones(params.index_bits);
        for td in keys.random_pool_trapdoors(params) {
            mask.bitwise_product_assign(td.index());
        }
        mask
    }

    #[test]
    fn index_has_one_bitindex_per_level() {
        let (params, keys) = setup(SystemParams::default());
        let indexer = DocumentIndexer::new(&params, &keys);
        let idx = indexer.index_keywords(5, &["cloud", "privacy"]);
        assert_eq!(idx.document_id, 5);
        assert_eq!(idx.num_levels(), 3);
        for level in &idx.levels {
            assert_eq!(level.len(), 448);
        }
        // Storage grows η-fold, as §5 notes.
        let stored: usize = idx.levels.iter().map(|l| l.serialized_bits()).sum();
        assert_eq!(stored, 3 * 448);
    }

    #[test]
    fn base_level_is_product_of_keyword_indices_and_random_mask() {
        let (params, keys) = setup(SystemParams::default());
        let indexer = DocumentIndexer::new(&params, &keys);
        let idx = indexer.index_keywords(0, &["alpha", "beta"]);
        let expected = keys
            .trapdoor_for(&params, "alpha")
            .index()
            .bitwise_product(keys.trapdoor_for(&params, "beta").index())
            .bitwise_product(&pool_mask(&params, &keys));
        assert_eq!(idx.base_level(), &expected);
    }

    #[test]
    fn higher_levels_only_contain_frequent_keywords() {
        let (params, keys) = setup(SystemParams::default()); // thresholds 1, 5, 10
        let indexer = DocumentIndexer::new(&params, &keys);
        let terms = TermFrequencies::from_pairs([("rare", 1u32), ("medium", 6), ("hot", 12)]);
        let idx = indexer.index_terms(9, &terms);

        // Level 1 includes all three keywords, level 2 two, level 3 one — so the number of
        // zero bits can only decrease (fewer keyword indices are ANDed in).
        assert!(idx.levels[0].count_zeros() >= idx.levels[1].count_zeros());
        assert!(idx.levels[1].count_zeros() >= idx.levels[2].count_zeros());

        // Level 2 equals the product of the two frequent keywords and the random mask.
        let expected_l2 = keys
            .trapdoor_for(&params, "medium")
            .index()
            .bitwise_product(keys.trapdoor_for(&params, "hot").index())
            .bitwise_product(&pool_mask(&params, &keys));
        assert_eq!(idx.levels[1], expected_l2);

        // Level 3 equals the product of the hottest keyword and the random mask.
        let expected_l3 = keys
            .trapdoor_for(&params, "hot")
            .index()
            .bitwise_product(&pool_mask(&params, &keys));
        assert_eq!(idx.levels[2], expected_l3);
    }

    #[test]
    fn levels_are_cumulative() {
        // Every zero of level i+1 must be a zero of level i (level i indexes a superset of
        // keywords, and AND only adds zeros).
        let (params, keys) = setup(SystemParams::with_five_levels());
        let indexer = DocumentIndexer::new(&params, &keys);
        let terms =
            TermFrequencies::from_pairs([("a", 1u32), ("b", 3), ("c", 5), ("d", 8), ("e", 12)]);
        let idx = indexer.index_terms(0, &terms);
        for i in 0..idx.num_levels() - 1 {
            // levels[i] has more (or equal) keywords folded in than levels[i+1], so
            // levels[i] AND levels[i+1] == levels[i].
            assert_eq!(
                idx.levels[i].bitwise_product(&idx.levels[i + 1]),
                idx.levels[i]
            );
        }
    }

    #[test]
    fn document_with_no_keywords_has_only_the_random_mask() {
        let (params, keys) = setup(SystemParams::default());
        let indexer = DocumentIndexer::new(&params, &keys);
        let idx = indexer.index_terms(1, &TermFrequencies::new());
        assert_eq!(idx.base_level(), &pool_mask(&params, &keys));
    }

    #[test]
    fn randomization_disabled_gives_pure_keyword_product() {
        let params = SystemParams::default().without_randomization();
        let (params, keys) = setup(params);
        let indexer = DocumentIndexer::new(&params, &keys);
        let empty = indexer.index_terms(1, &TermFrequencies::new());
        assert_eq!(empty.base_level().count_zeros(), 0);
        let idx = indexer.index_keywords(0, &["only"]);
        assert_eq!(idx.base_level(), keys.trapdoor_for(&params, "only").index());
    }

    #[test]
    fn index_document_uses_document_terms() {
        let (params, keys) = setup(SystemParams::default());
        let indexer = DocumentIndexer::new(&params, &keys);
        let doc = Document::from_text(77, "cloud cloud cloud privacy");
        let via_doc = indexer.index_document(&doc);
        let via_terms = indexer.index_terms(77, &doc.terms);
        assert_eq!(via_doc, via_terms);
        assert_eq!(via_doc.document_id, 77);
    }

    #[test]
    fn params_accessor_returns_configuration() {
        let (params, keys) = setup(SystemParams::default());
        let indexer = DocumentIndexer::new(&params, &keys);
        assert_eq!(indexer.params().index_bits, 448);
    }

    #[test]
    fn cached_indexing_matches_uncached() {
        let (params, keys) = setup(SystemParams::default());
        let indexer = DocumentIndexer::new(&params, &keys);
        let terms = TermFrequencies::from_pairs([("alpha", 2u32), ("beta", 7), ("gamma", 11)]);
        let mut cache = std::collections::HashMap::new();
        let cached = indexer.index_terms_cached(3, &terms, &mut cache);
        let plain = indexer.index_terms(3, &terms);
        assert_eq!(cached, plain);
        assert_eq!(cache.len(), 3);
        // Re-indexing with the warm cache still gives the same result.
        assert_eq!(indexer.index_terms_cached(3, &terms, &mut cache), plain);
    }

    #[test]
    fn corpus_indexing_sequential_and_parallel_agree() {
        let (params, keys) = setup(SystemParams::default());
        let indexer = DocumentIndexer::new(&params, &keys);
        let docs: Vec<Document> = (0..12u64)
            .map(|id| {
                Document::from_terms(
                    id,
                    TermFrequencies::from_pairs([
                        (format!("kw{}", id % 5), 1 + (id as u32 % 12)),
                        ("shared".to_string(), 3),
                    ]),
                )
            })
            .collect();
        let sequential = indexer.index_documents(&docs);
        let parallel = indexer.index_documents_parallel(&docs, 4);
        assert_eq!(sequential.len(), 12);
        assert_eq!(sequential, parallel);
        for (doc, idx) in docs.iter().zip(sequential.iter()) {
            assert_eq!(idx, &indexer.index_document(doc));
        }
        // Degenerate thread counts fall back to the sequential path.
        assert_eq!(indexer.index_documents_parallel(&docs, 1), sequential);
        assert_eq!(indexer.index_documents_parallel(&docs, 100), sequential);
    }
}
