//! # mkse-core — the ranked multi-keyword search scheme of Örencik & Savaş (EDBT/PAIS 2012)
//!
//! This crate implements the paper's primary contribution:
//!
//! | Paper section | Module |
//! |---|---|
//! | §4.1 index generation (HMAC → GF(2^d) → GF(2) reduction, bitwise product) | [`keyword`], [`bitindex`], [`document_index`] |
//! | §4.2 trapdoors & bins (`GetBin`, per-bin secret keys, query generation) | [`bins`], [`keys`], [`query`] |
//! | §4.3 oblivious search (Eq. 3) | [`search`] |
//! | §5 ranked search (cumulative levels, Algorithm 1) | [`document_index`], [`search`] |
//! | §6 query randomization and its analytic model (`F`, `C`, `Δ`, `EO`) | [`keys`], [`query`], [`analysis`] |
//! | §6.1 false accept rates | [`analysis`] |
//!
//! Beyond the paper, the server-side read path is layered for scale (see the root
//! crate's architecture notes): the [`storage`] module holds the [`storage::IndexStore`]
//! abstraction and its one built-in layout, the round-robin [`storage::ShardedStore`]
//! (one shard is the contiguous case), and the [`engine`] module executes single,
//! batched and top-k ranked queries across shards in parallel with results that are
//! bit-for-bit identical to the sequential [`search::CloudIndex`] reference scan.
//! Each shard's hot loop runs on the [`scanplane`] module's bit-sliced
//! [`scanplane::ScanPlane`] — one bitmap row per index bit per 1,024-document chunk,
//! which the engine appends to on insert; a query ORs only the rows where it has a
//! zero and some document of the chunk has a one (a row nobody sets can reject
//! nothing and is never read) —
//! while the AoS documents remain the authoritative copy and the reference scan.
//! The [`cache`] module adds an optional per-shard, generation-invalidated result
//! cache on top: repeated query indices (the search pattern the server observes
//! anyway, §6) skip the shard scan entirely without changing a single reply byte.
//! The [`telemetry`] module observes all of it: a lock-free registry of
//! relaxed-atomic counters, gauges and log₂-bucketed latency histograms behind a
//! runtime [`telemetry::TelemetryLevel`] knob on the engine — per-stage spans,
//! per-lane scheduler stats and per-shard cache tallies, recorded without
//! perturbing a single reply byte (the registry observes, it never
//! participates).
//!
//! Document encryption, RSA blind decryption of per-document keys and the three-party protocol
//! (data owner / user / cloud server) live in `mkse-protocol`; the baselines the paper compares
//! against (Cao et al. MRSE, Wang et al. common secure indices, plaintext relevance ranking)
//! live in `mkse-baselines`.
//!
//! ## End-to-end example
//!
//! ```
//! use mkse_core::{
//!     CloudIndex, DocumentIndexer, QueryBuilder, SchemeKeys, SystemParams,
//! };
//! use rand::SeedableRng;
//!
//! let params = SystemParams::default();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! // Data owner: generate keys, index documents, upload to the cloud.
//! let keys = SchemeKeys::generate(&params, &mut rng);
//! let indexer = DocumentIndexer::new(&params, &keys);
//! let mut cloud = CloudIndex::new(params.clone());
//! cloud.insert(indexer.index_keywords(0, &["cloud", "privacy", "search"])).unwrap();
//! cloud.insert(indexer.index_keywords(1, &["weather", "forecast"])).unwrap();
//!
//! // User: obtain trapdoors (and the randomization pool) from the data owner, build a query.
//! let trapdoors = keys.trapdoors_for(&params, &["privacy", "search"]);
//! let pool = keys.random_pool_trapdoors(&params);
//! let query = QueryBuilder::new(&params)
//!     .add_trapdoors(&trapdoors)
//!     .with_randomization(&pool)
//!     .build(&mut rng);
//!
//! // Server: oblivious ranked search.
//! let hits = cloud.search(&query);
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].document_id, 0);
//! ```

pub mod analysis;
pub mod bins;
pub mod bitindex;
pub mod cache;
pub mod document_index;
pub mod engine;
pub mod keys;
pub mod keyword;
pub mod params;
pub mod persistence;
pub mod query;
pub mod rotation;
#[forbid(unsafe_code)]
pub mod scanplane;
pub mod search;
pub mod storage;
pub mod telemetry;

pub use analysis::{
    expected_common_zeros, expected_hamming_distance, expected_random_overlap, expected_zeros,
    false_accept_rate, Histogram,
};
pub use bins::{bins_for_keywords, get_bin, BinId, BinOccupancy};
pub use bitindex::BitIndex;
pub use cache::{CacheConfig, CacheEffect, CacheStats, QueryFingerprint, RankingMode, ResultCache};
pub use document_index::{DocumentIndexer, RankedDocumentIndex};
pub use engine::SearchEngine;
pub use keys::{trapdoor_from_bin_key, RandomKeywordPool, SchemeKeys, Trapdoor};
pub use keyword::keyword_index;
pub use params::{ParamError, SystemParams};
pub use persistence::{
    deserialize_store, serialize_index_store, serialize_shard, serialize_store, PersistenceError,
};
pub use query::{QueryBuilder, QueryIndex};
pub use rotation::{EpochTrapdoor, RotatingKeys};
pub use scanplane::ScanPlane;
pub use search::{CloudIndex, SearchMatch, SearchStats};
pub use storage::{IndexStore, ShardedStore, StoreError};
pub use telemetry::{
    LaneSnapshot, LaneStats, MetricsSnapshot, ShardCacheSnapshot, Telemetry, TelemetryLevel,
};

#[cfg(test)]
mod tests {
    use super::*;
    use mkse_textproc::corpus::{CorpusSpec, FrequencyModel, SyntheticCorpus};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A miniature end-to-end run over a synthetic corpus, exercising the whole pipeline the
    /// way the experiment binaries do.
    #[test]
    fn end_to_end_synthetic_corpus_search() {
        let params = SystemParams::default();
        let mut rng = StdRng::seed_from_u64(1);
        let keys = SchemeKeys::generate(&params, &mut rng);
        let indexer = DocumentIndexer::new(&params, &keys);

        let corpus = SyntheticCorpus::generate(
            &CorpusSpec {
                num_documents: 60,
                vocabulary_size: 2_000,
                keywords_per_document: 20,
                frequency_model: FrequencyModel::Uniform { lo: 1, hi: 15 },
            },
            &mut rng,
        );

        let mut cloud = CloudIndex::new(params.clone());
        cloud
            .insert_all(corpus.documents.iter().map(|d| indexer.index_document(d)))
            .unwrap();

        // Query for three keywords that co-occur in at least one document. The FAR of a
        // randomized query is dominated by how many trapdoor zero-bits survive outside
        // the U=60 random mask (§6.1): with two keywords a seed can leave only 1–2
        // discriminating bits and a FAR of 25%+; three keywords plus this fixed seed
        // give a representative low-FAR draw.
        let target = &corpus.documents[7];
        let kws: Vec<&str> = target.keywords().into_iter().take(3).collect();
        let ground_truth = corpus.documents_containing_all(&kws);
        assert!(ground_truth.contains(&target.id));

        let trapdoors = keys.trapdoors_for(&params, &kws);
        let pool = keys.random_pool_trapdoors(&params);
        let query = QueryBuilder::new(&params)
            .add_trapdoors(&trapdoors)
            .with_randomization(&pool)
            .build(&mut rng);

        let hits = cloud.search_unranked(&query);
        // Completeness: every true match is returned (the scheme has no false negatives).
        for id in &ground_truth {
            assert!(hits.contains(id), "document {id} should match");
        }
        // Soundness up to false accepts: the FAR at these parameters is small.
        let far = false_accept_rate(&hits, &ground_truth).unwrap();
        assert!(far < 0.5, "false accept rate unexpectedly high: {far}");
    }

    #[test]
    fn reexports_are_usable() {
        let params = SystemParams::default();
        assert_eq!(params.rank_levels(), 3);
        let bin = get_bin(&params, "anything");
        assert!(bin < params.num_bins as u32);
        assert!(expected_zeros(&params, 1) > 0.0);
    }
}
