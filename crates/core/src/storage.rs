//! The server-side index **storage layer**.
//!
//! The paper's server holds one searchable index per document and scans all of
//! them per query (Eq. 3 over σ documents). This module holds *how the indices are
//! laid out*; *how queries execute* is the [`crate::engine`] layer's. There is one
//! store, [`ShardedStore`]: it partitions documents round-robin across N shards so
//! the engine can scan them on N lanes, validates every insert's geometry, finds a
//! document by id in O(1) through an id → (shard, slot) map, and hands out every
//! entry as a borrowed [`IndexEntry`] view.
//!
//! A store is **the §5 entries, once**. Each shard holds its documents' ids in
//! one column and their η·r index bits in **entry pages** of
//! [`crate::scanplane::CHUNK`] documents: one allocation of `CHUNK·η·⌈r/64⌉`
//! words per page, made when the page opens, filled in place and never moved,
//! so a growing store never holds two copies of anything. An entry's words are exactly the
//! bits [`crate::persistence`] writes (its first `⌈r/8⌉` little-endian bytes
//! per level), and bits at or beyond r are always zero — every insert masks
//! them, whatever the source. Nothing decoded is kept: [`ShardedStore::insert`]
//! copies a [`RankedDocumentIndex`]'s words and drops it, and
//! [`ShardedStore::insert_encoded`] copies a snapshot's bytes without building one.
//!
//! Everything derived from the entries belongs to the one holder that scans:
//! the scan layout ([`crate::scanplane::ScanPlane`]) and the result cache live in
//! [`crate::engine::SearchEngine`], which [`ShardedStore::insert`] tells the shard
//! it appended to — so a holder that never scans (the fleet coordinator's
//! mirror) pays for neither. The decoded [`RankedDocumentIndex`] survives only
//! where something needs it: as the upload currency, in the
//! [`crate::search::CloudIndex`] reference, and in
//! [`crate::engine::SearchEngine::document_index`]'s answer.
//!
//! The store lists its entries in **insertion order**, so persisted snapshots
//! keep the exact storage order of the sequential reference regardless of the
//! shard count.
//!
//! **Leakage note (§6)**: the pages are a server-side memory layout of bytes the
//! server already holds — the uploaded indices themselves; how they are arranged
//! in the server's memory opens no channel.

use crate::document_index::RankedDocumentIndex;
use crate::params::SystemParams;
use crate::scanplane::CHUNK;
use std::collections::HashMap;

/// Errors produced when uploading a document index into a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The index was built with a different number of ranking levels (η) than the store.
    LevelCountMismatch {
        /// η of the store's parameters.
        expected: usize,
        /// η of the rejected index.
        found: usize,
    },
    /// Some level of the index has a different bit length (r) than the store.
    IndexSizeMismatch {
        /// r of the store's parameters.
        expected: usize,
        /// Offending level length of the rejected index.
        found: usize,
    },
    /// A document with this id is already stored.
    DuplicateDocument(u64),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::LevelCountMismatch { expected, found } => {
                write!(
                    f,
                    "index has {found} ranking levels, store expects {expected}"
                )
            }
            StoreError::IndexSizeMismatch { expected, found } => {
                write!(
                    f,
                    "index level is {found} bits long, store expects {expected}"
                )
            }
            StoreError::DuplicateDocument(id) => {
                write!(f, "document {id} is already stored")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Check an index against a store's parameters (the invariant every store upholds:
/// mixing parameter sets is a protocol violation).
pub fn check_geometry(
    params: &SystemParams,
    index: &RankedDocumentIndex,
) -> Result<(), StoreError> {
    if index.num_levels() != params.rank_levels() {
        return Err(StoreError::LevelCountMismatch {
            expected: params.rank_levels(),
            found: index.num_levels(),
        });
    }
    for level in &index.levels {
        if level.len() != params.index_bits {
            return Err(StoreError::IndexSizeMismatch {
                expected: params.index_bits,
                found: level.len(),
            });
        }
    }
    Ok(())
}

/// One stored document, borrowed from its store: the document id and its η
/// levels of r bits, each `⌈r/64⌉` words in
/// [`crate::bitindex::BitIndex::as_blocks`] order with every bit at or beyond r
/// zero. `RankedDocumentIndex::from(entry)` decodes one.
#[derive(Clone, Copy, Debug)]
pub struct IndexEntry<'a> {
    /// The document this entry describes.
    pub document_id: u64,
    /// Bits per level (r).
    bits: usize,
    /// The η levels back to back.
    words: &'a [u64],
}

impl<'a> IndexEntry<'a> {
    /// A view of `words` as levels of `bits` bits. The caller keeps the tail
    /// of every level masked.
    pub(crate) fn new(document_id: u64, bits: usize, words: &'a [u64]) -> Self {
        debug_assert!(words.len().is_multiple_of(bits.div_ceil(64)));
        IndexEntry {
            document_id,
            bits,
            words,
        }
    }

    /// Bits per level (r).
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of ranking levels (η).
    pub fn num_levels(&self) -> usize {
        self.words.len() / self.bits.div_ceil(64)
    }

    /// Every level's words, level 1 (which indexes every keyword) first.
    pub fn levels(&self) -> impl ExactSizeIterator<Item = &'a [u64]> {
        self.words.chunks_exact(self.bits.div_ceil(64))
    }
}

/// One shard: an id column beside entry pages of [`CHUNK`] slots.
#[derive(Clone, Debug, Default)]
struct Shard {
    /// Document id of every slot, in slot order.
    ids: Vec<u64>,
    /// `pages[p]` holds slots `p·CHUNK ..`, `stride` words each. A page is
    /// allocated for all [`CHUNK`] slots when it opens and filled in place, so
    /// it never moves and the memory behind its unfilled slots is never
    /// written (a small shard keeps only what it holds resident).
    pages: Vec<Vec<u64>>,
}

/// The store: documents partitioned **round-robin** across `num_shards` shards,
/// each a sequence of slots holding one [`IndexEntry`].
///
/// Round-robin keeps shards balanced within one document of each other for any
/// insertion pattern, and makes the insertion order recoverable arithmetically:
/// the document at `(shard, slot)` was insertion number `slot · N + shard` —
/// so [`ShardedStore::documents_in_insertion_order`] recovers it and snapshots
/// are layout-independent.
#[derive(Clone, Debug)]
pub struct ShardedStore {
    params: SystemParams,
    /// Words per entry: η·⌈r/64⌉.
    stride: usize,
    shards: Vec<Shard>,
    /// document id → (shard, slot): O(1) metadata lookup instead of a linear scan.
    by_id: HashMap<u64, (u32, u32)>,
    total: usize,
}

impl ShardedStore {
    /// An empty store with `num_shards` shards (clamped to at least 1).
    pub fn new(params: SystemParams, num_shards: usize) -> Self {
        let stride = params.rank_levels() * params.index_bits.div_ceil(64);
        ShardedStore {
            params,
            stride,
            shards: vec![Shard::default(); num_shards.max(1)],
            by_id: HashMap::new(),
            total: 0,
        }
    }

    /// The one place a slot is written: refuse a known id, otherwise open a
    /// page if the shard's last one is full, let `fill` write the entry's words
    /// (zero when handed over) and record the id.
    fn append(
        &mut self,
        document_id: u64,
        fill: impl FnOnce(&mut [u64]),
    ) -> Result<usize, StoreError> {
        if self.by_id.contains_key(&document_id) {
            return Err(StoreError::DuplicateDocument(document_id));
        }
        let shard = self.total % self.shards.len();
        let stride = self.stride;
        let Shard { ids, pages } = &mut self.shards[shard];
        let slot = ids.len();
        if slot.is_multiple_of(CHUNK) {
            pages.push(Vec::with_capacity(CHUNK * stride));
        }
        let page = &mut pages[slot / CHUNK];
        // A clone's pages hold only their filled part: restore the full page.
        page.reserve_exact(CHUNK * stride - page.len());
        let start = page.len();
        page.resize(start + stride, 0);
        fill(&mut page[start..]);
        ids.push(document_id);
        self.by_id.insert(document_id, (shard as u32, slot as u32));
        self.total += 1;
        Ok(shard)
    }

    /// The parameters every stored index was validated against.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// Upload one document index, validating its geometry and id uniqueness.
    /// An accepted index is copied into the **last** slot of one shard and
    /// dropped; the shard is returned, so whoever keeps per-shard derived state
    /// knows what changed. A refused index changes nothing.
    pub fn insert(&mut self, index: RankedDocumentIndex) -> Result<usize, StoreError> {
        check_geometry(&self.params, &index)?;
        let blocks = self.params.index_bits.div_ceil(64);
        self.append(index.document_id, |words| {
            for (words, level) in words.chunks_exact_mut(blocks).zip(&index.levels) {
                words.copy_from_slice(level.as_blocks());
            }
        })
    }

    /// [`ShardedStore::insert`] for an entry in its persisted form: `levels` is
    /// η levels of `⌈r/8⌉` little-endian bytes each, as
    /// [`crate::persistence`] writes them (bits beyond r are dropped). Only id
    /// uniqueness can refuse it.
    ///
    /// # Panics
    ///
    /// If `levels` is not η·⌈r/8⌉ bytes long.
    pub fn insert_encoded(&mut self, document_id: u64, levels: &[u8]) -> Result<usize, StoreError> {
        let bits = self.params.index_bits;
        let (blocks, level_bytes) = (bits.div_ceil(64), bits.div_ceil(8));
        assert_eq!(
            levels.len(),
            self.params.rank_levels() * level_bytes,
            "entry size mismatch"
        );
        // Bits at or beyond r in the last byte are whatever the sender wrote:
        // the tail mask keeps them out of the store (and so out of every plane's
        // live masks).
        let tail = match bits % 64 {
            0 => u64::MAX,
            n => (1 << n) - 1,
        };
        self.append(document_id, |words| {
            for (words, bytes) in words
                .chunks_exact_mut(blocks)
                .zip(levels.chunks(level_bytes))
            {
                for (word, bytes) in words.iter_mut().zip(bytes.chunks(8)) {
                    let mut le = [0; 8];
                    le[..bytes.len()].copy_from_slice(bytes);
                    *word = u64::from_le_bytes(le);
                }
                words[blocks - 1] &= tail;
            }
        })
    }

    /// Upload many document indices, stopping at the first invalid one.
    pub fn insert_all<I: IntoIterator<Item = RankedDocumentIndex>>(
        &mut self,
        indices: I,
    ) -> Result<(), StoreError> {
        for idx in indices {
            self.insert(idx)?;
        }
        Ok(())
    }

    /// Number of stored documents (σ).
    pub fn len(&self) -> usize {
        self.total
    }

    /// True if no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of shards the documents are partitioned into.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of documents in one shard.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].ids.len()
    }

    /// The document at `slot` of `shard`.
    pub fn entry(&self, shard: usize, slot: usize) -> IndexEntry<'_> {
        let Shard { ids, pages } = &self.shards[shard];
        let words = &pages[slot / CHUNK][slot % CHUNK * self.stride..][..self.stride];
        IndexEntry::new(ids[slot], self.params.index_bits, words)
    }

    /// The documents of one shard, in slot order.
    pub fn shard_entries(&self, shard: usize) -> impl Iterator<Item = IndexEntry<'_>> {
        (0..self.shard_len(shard)).map(move |slot| self.entry(shard, slot))
    }

    /// The stored entry of one document, or `None` if unknown.
    pub fn document_index(&self, document_id: u64) -> Option<IndexEntry<'_>> {
        (self.by_id.get(&document_id))
            .map(|&(shard, slot)| self.entry(shard as usize, slot as usize))
    }

    /// Every stored entry in insertion order (what snapshots write).
    pub fn documents_in_insertion_order(&self) -> impl Iterator<Item = IndexEntry<'_>> {
        let shards = self.shards.len();
        (0..self.total).map(move |k| self.entry(k % shards, k / shards))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitindex::BitIndex;
    use crate::document_index::DocumentIndexer;
    use crate::engine::SearchEngine;
    use crate::keys::SchemeKeys;
    use crate::persistence::{serialize_index_store, serialize_shard, serialize_store};
    use crate::query::QueryIndex;
    use crate::search::scan_ranked;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn indexer_fixture(params: &SystemParams) -> SchemeKeys {
        SchemeKeys::generate(params, &mut StdRng::seed_from_u64(71))
    }

    fn ids<'a>(entries: impl Iterator<Item = IndexEntry<'a>>) -> Vec<u64> {
        entries.map(|e| e.document_id).collect()
    }

    #[test]
    fn one_shard_store_preserves_insertion_order_and_lookup() {
        let params = SystemParams::default();
        let keys = indexer_fixture(&params);
        let indexer = DocumentIndexer::new(&params, &keys);
        let mut store = ShardedStore::new(params.clone(), 1);
        for id in [5u64, 3, 9] {
            store.insert(indexer.index_keywords(id, &["kw"])).unwrap();
        }
        assert_eq!(store.len(), 3);
        assert_eq!(store.num_shards(), 1);
        assert_eq!(store.entry(0, 1).document_id, 3);
        assert_eq!(store.document_index(9).unwrap().document_id, 9);
        assert_eq!(
            RankedDocumentIndex::from(store.document_index(9).unwrap()),
            indexer.index_keywords(9, &["kw"])
        );
        assert!(store.document_index(4).is_none());
        assert_eq!(ids(store.documents_in_insertion_order()), vec![5, 3, 9]);
    }

    #[test]
    fn sharded_store_round_robins_and_recovers_order() {
        let params = SystemParams::default();
        let keys = indexer_fixture(&params);
        let indexer = DocumentIndexer::new(&params, &keys);
        let mut store = ShardedStore::new(params.clone(), 3);
        store
            .insert_all((0..10u64).map(|id| indexer.index_keywords(id, &["kw"])))
            .unwrap();
        assert_eq!(store.len(), 10);
        assert_eq!(
            (0..3).map(|s| store.shard_len(s)).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        // Document 7 went to shard 7 % 3 = 1, slot 7 / 3 = 2.
        assert_eq!(store.entry(1, 2).document_id, 7);
        assert_eq!(ids(store.shard_entries(1)), vec![1, 4, 7]);
        assert_eq!(store.document_index(7).unwrap().document_id, 7);
        assert_eq!(
            ids(store.documents_in_insertion_order()),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let store = ShardedStore::new(SystemParams::default(), 0);
        assert_eq!(store.num_shards(), 1);
        assert!(store.is_empty());
    }

    #[test]
    fn geometry_violations_are_rejected() {
        let params3 = SystemParams::default();
        let params1 = SystemParams::without_ranking();
        let keys1 = indexer_fixture(&params1);
        let indexer1 = DocumentIndexer::new(&params1, &keys1);
        let mut store = ShardedStore::new(params3.clone(), 2);
        assert_eq!(
            store.insert(indexer1.index_keywords(0, &["kw"])),
            Err(StoreError::LevelCountMismatch {
                expected: 3,
                found: 1
            })
        );

        let params_small = SystemParams::new(64, 4, 16, 0, 0, vec![1]).unwrap();
        let keys_small = indexer_fixture(&params_small);
        let indexer_small = DocumentIndexer::new(&params_small, &keys_small);
        let mut store1 = ShardedStore::new(params1.clone(), 1);
        assert_eq!(
            store1.insert(indexer_small.index_keywords(0, &["kw"])),
            Err(StoreError::IndexSizeMismatch {
                expected: 448,
                found: 64
            })
        );
        assert!(store.is_empty() && store1.is_empty());
    }

    #[test]
    fn duplicate_ids_are_rejected_in_both_stores() {
        let params = SystemParams::default();
        let keys = indexer_fixture(&params);
        let indexer = DocumentIndexer::new(&params, &keys);
        let mut one_shard = ShardedStore::new(params.clone(), 1);
        one_shard.insert(indexer.index_keywords(1, &["a"])).unwrap();
        assert_eq!(
            one_shard.insert(indexer.index_keywords(1, &["b"])),
            Err(StoreError::DuplicateDocument(1))
        );
        let mut sharded = ShardedStore::new(params.clone(), 4);
        sharded.insert(indexer.index_keywords(1, &["a"])).unwrap();
        assert_eq!(
            sharded.insert(indexer.index_keywords(1, &["b"])),
            Err(StoreError::DuplicateDocument(1))
        );
        // The encoded door refuses the same id.
        let bytes = vec![0; params.rank_levels() * params.index_bits.div_ceil(8)];
        assert_eq!(
            sharded.insert_encoded(1, &bytes),
            Err(StoreError::DuplicateDocument(1))
        );
        // A failed insert must not consume a round-robin position: the next
        // accepted index lands in (and names) shard 1.
        assert_eq!(sharded.insert(indexer.index_keywords(2, &["c"])), Ok(1));
        assert_eq!(
            (0..4).map(|s| sharded.shard_len(s)).collect::<Vec<_>>(),
            vec![1, 1, 0, 0]
        );
    }

    #[test]
    fn error_display_is_informative() {
        for e in [
            StoreError::LevelCountMismatch {
                expected: 3,
                found: 1,
            },
            StoreError::IndexSizeMismatch {
                expected: 448,
                found: 64,
            },
            StoreError::DuplicateDocument(42),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    /// A document of random bits at the given geometry (tails masked by
    /// `from_blocks`), without the indexer's HMACs.
    fn random_doc(rng: &mut StdRng, id: u64, r: usize, eta: usize) -> RankedDocumentIndex {
        RankedDocumentIndex {
            document_id: id,
            levels: (0..eta)
                .map(|_| BitIndex::from_blocks((0..r.div_ceil(64)).map(|_| rng.gen()).collect(), r))
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The entry pages at every geometry edge: ragged and whole-word r,
        /// η from 1 to 5, 1..=7 shards and stores that cross page boundaries.
        /// Snapshots — whole and per shard — are the AoS serializer's bytes,
        /// every lookup decodes to its input, and every plane an engine
        /// derives is its shard's entries, slot for slot.
        #[test]
        fn prop_entry_pages_hold_every_geometry(
            seed in 0u64..1_000_000,
            r_idx in 0usize..3,
            eta_idx in 0usize..3,
            shards in 1usize..=7,
            n in 0usize..=2_100,
        ) {
            let (r, eta) = ([64, 100, 448][r_idx], [1, 3, 5][eta_idx]);
            let params = SystemParams::new(r, 4, 16, 0, 0, (1..=eta as u32).collect()).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let docs: Vec<RankedDocumentIndex> =
                (0..n).map(|i| random_doc(&mut rng, 3 * i as u64 + 1, r, eta)).collect();
            let mut engine = SearchEngine::sharded(params.clone(), shards);
            engine.insert_all(docs.iter().cloned()).unwrap();
            let store = engine.store();

            prop_assert_eq!(serialize_index_store(store), serialize_store(&params, &docs));
            for shard in 0..shards {
                let mine: Vec<&RankedDocumentIndex> = docs.iter().skip(shard).step_by(shards).collect();
                prop_assert_eq!(serialize_shard(store, shard), serialize_store(&params, mine));
            }
            for doc in &docs {
                let entry = store.document_index(doc.document_id).expect("stored");
                prop_assert_eq!(&RankedDocumentIndex::from(entry), doc);
            }
            prop_assert!(store.document_index(0).is_none());

            let probes = [
                QueryIndex::from_bits(BitIndex::all_ones(r)),
                QueryIndex::from_bits(BitIndex::all_zeros(r)),
                QueryIndex::from_bits(random_doc(&mut rng, 0, r, 1).levels[0].clone()),
            ];
            for shard in 0..shards {
                let plane = engine.scan_plane(shard);
                let decoded: Vec<RankedDocumentIndex> =
                    store.shard_entries(shard).map(RankedDocumentIndex::from).collect();
                prop_assert_eq!(plane.ids(), &ids(store.shard_entries(shard))[..]);
                for probe in &probes {
                    prop_assert_eq!(plane.scan_ranked(probe.bits()), scan_ranked(&decoded, probe));
                }
            }
        }
    }
}
