//! The server-side **query-result cache**: per-shard, generation-invalidated
//! memoization of shard scans.
//!
//! The paper's server answers every query with a fresh linear pass of r-bit
//! comparisons over all σ stored indices (Eq. 3). Real workloads repeat queries —
//! the very "search pattern" §6 analyzes is the server observing identical query
//! indices arriving again — so re-paying the full scan for a repeated trapdoor is
//! pure waste. This module memoizes **per-shard scan results** keyed by the
//! query index bits themselves — the bytes the server already sees. A key is a
//! [`BitIndex`]: the map hashes it and compares candidates bit for bit, so two
//! different queries can never share an entry. An entry keeps what the reply
//! that scanned it could use, and records that cut: `kept = None` is the
//! shard's whole list, `kept = Some(k)` a superset of the shard's best k under
//! the (rank desc, id asc) order (each scan lane's best k, so at most
//! lanes·k matches). A lookup at `top` hits a whole entry, or a kept one with
//! `top ≤ k`; a wider or uncut `top` misses, and the rescan's admission
//! replaces the entry in place.
//!
//! * [`ResultCache`] — one LRU map per shard with a configurable per-shard capacity
//!   ([`CacheConfig`]), plus a per-shard **write generation**: every insert into a
//!   shard bumps only that shard's generation, so cached scans of the other shards
//!   stay valid. Stale entries (admitted under an older generation) are discarded
//!   lazily at lookup time.
//! * [`CacheStats`] — hits, misses, evictions, invalidations and the r-bit
//!   comparisons the hits saved, for the Table-2-style accounting in
//!   `mkse-protocol`.
//!
//! ## What the cache may never change
//!
//! A cached entry stores what the engine's sweep of `(shard, query)` returned —
//! the shard's matches (all of them, or a superset of its best k) and the
//! whole shard's [`SearchStats`]. The engine merges cached and freshly scanned
//! shards through the same merge, which keeps the first `top` of the
//! canonical order, and an entry only serves a `top` its cut covers: for
//! t ≤ k the merged top t lies in the union of the per-shard best k. So cached
//! and uncached execution are **byte-identical** (matches, ranks, order,
//! merged stats); only wall-clock time and the *actual* number of comparisons
//! performed differ. The engine rows of the oracle matrix
//! (`tests/oracle_matrix.rs`, cache off, at capacity 4 and at the default)
//! enforce this.
//!
//! ## Search-pattern note (why this leaks nothing new)
//!
//! The key is the query index bytes the server receives anyway. Recognizing
//! "these bytes arrived before" is precisely the search pattern the server
//! already observes by storing past queries (§6 builds its attack model on
//! exactly this); the cache adds no new information, it only stops re-paying
//! for scans whose outcome the server could already predict. Query
//! randomization (§6) makes repeated searches produce *different* bits — and,
//! correctly, such queries never hit the cache.

use crate::bitindex::BitIndex;
use crate::search::{SearchMatch, SearchStats};
use std::collections::HashMap;

/// Cache tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of entries **per shard**; the oldest (least recently used)
    /// entry of a full shard is evicted on admission.
    pub capacity_per_shard: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // A few hundred distinct hot queries per shard covers the skewed
        // (Zipf-like) workloads the bench sweeps. An entry for a reply cut to
        // τ holds at most lanes·τ matches at 16 bytes a `SearchMatch` (a few
        // hundred bytes at τ = 10); only an uncut query's entry holds the
        // shard's whole list — kilobytes for a typical query.
        CacheConfig {
            capacity_per_shard: 256,
        }
    }
}

/// Counters describing cache effectiveness (monotonic until reset).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (per shard: one query over N shards makes N
    /// lookups).
    pub hits: u64,
    /// Lookups that had to fall through to a shard scan.
    pub misses: u64,
    /// Entries displaced by the per-shard LRU capacity limit.
    pub evictions: u64,
    /// Stale entries discarded because their shard's write generation moved on
    /// (counted at the lookup that finds one; the generation moves themselves
    /// are the telemetry counter `shard_cache_generation_bumps`).
    pub invalidations: u64,
    /// r-bit comparisons that cache hits made unnecessary.
    pub saved_comparisons: u64,
}

/// What the cache contributed to **one** query execution (as opposed to the
/// cumulative [`CacheStats`]): how many shards were served from cache, how many
/// had to be scanned, and the r-bit comparisons the hits avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheEffect {
    /// Shards answered from the cache.
    pub shard_hits: u64,
    /// Shards that had to be scanned.
    pub shard_misses: u64,
    /// r-bit comparisons skipped thanks to the hits.
    pub saved_comparisons: u64,
}

impl CacheEffect {
    /// True if the whole reply came from the cache (every shard hit, none scanned).
    pub fn fully_cached(&self) -> bool {
        self.shard_hits > 0 && self.shard_misses == 0
    }
}

/// Whether a list scanned at cut `kept` serves a reply cut to `top`: a whole
/// list (`None`) serves every cut, a kept one (`Some(k)`) every `top ≤ k`.
pub(crate) fn serves(kept: Option<usize>, top: Option<usize>) -> bool {
    match (kept, top) {
        (None, _) => true,
        (Some(k), Some(t)) => t <= k,
        (Some(_), None) => false,
    }
}

/// One memoized shard scan.
struct CacheEntry {
    /// Shard write generation at admission; a lookup under a newer generation
    /// discards the entry.
    generation: u64,
    /// LRU clock value of the last touch.
    last_used: u64,
    /// The cut the entry serves ([`serves`]): `None` for the shard's whole
    /// list, `Some(k)` for a superset of its best k.
    kept: Option<usize>,
    matches: Vec<SearchMatch>,
    stats: SearchStats,
}

/// Per-shard entry map plus its write generation.
struct ShardCache {
    /// Strictly monotonic: bumped on every insert into the shard (and on restore),
    /// never reset — so an entry admitted under any older generation is provably
    /// stale.
    generation: u64,
    entries: HashMap<BitIndex, CacheEntry>,
}

/// A sharded, LRU, generation-invalidated result cache.
///
/// The cache never answers with stale data: every entry records the shard write
/// generation it was computed under, and any insert into a shard bumps that shard's
/// generation (only that shard's — scans of the other shards remain valid). Lookups
/// discard entries from older generations.
pub struct ResultCache {
    shards: Vec<ShardCache>,
    config: CacheConfig,
    stats: CacheStats,
    /// Monotonic LRU clock (one tick per touch).
    clock: u64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

impl ResultCache {
    /// An empty cache for a store with `num_shards` shards.
    pub fn new(num_shards: usize, config: CacheConfig) -> Self {
        ResultCache {
            shards: (0..num_shards.max(1))
                .map(|_| ShardCache {
                    generation: 0,
                    entries: HashMap::new(),
                })
                .collect(),
            config,
            stats: CacheStats::default(),
            clock: 0,
        }
    }

    /// The configuration this cache runs with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Number of shards this cache mirrors.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total live entries across all shards (stale entries count until a lookup
    /// discards them).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current write generation of `shard`.
    pub fn generation(&self, shard: usize) -> u64 {
        self.shards[shard].generation
    }

    /// Effectiveness counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Record one insert into `shard`: bumps that shard's write generation, which
    /// lazily invalidates every entry previously cached for it. Other shards'
    /// entries are untouched — that is the point of per-shard generations.
    pub fn note_insert(&mut self, shard: usize) {
        self.shards[shard].generation += 1;
    }

    /// Bump **every** shard's generation. Used after operations whose shard
    /// placement the cache cannot observe (snapshot restore, direct store
    /// mutation), so no stale entry can ever survive them.
    pub fn invalidate_all(&mut self) {
        for shard in &mut self.shards {
            shard.generation += 1;
        }
    }

    /// Look up the memoized scan of the query `bits` over `shard` for a reply
    /// cut to `top`.
    ///
    /// Hits a live entry whose cut serves `top` — a whole entry, or one kept
    /// at `k` when `top` is a cut no wider than `k` — and returns its
    /// matches, its whole-shard stats and its cut. A live entry kept narrower
    /// than `top` is a miss that stays in place, for the admission that
    /// follows the rescan to replace. A stale entry (older write generation)
    /// is discarded, counted as an invalidation *and* a miss.
    pub fn lookup(
        &mut self,
        shard: usize,
        bits: &BitIndex,
        top: Option<usize>,
    ) -> Option<(Vec<SearchMatch>, SearchStats, Option<usize>)> {
        self.clock += 1;
        let clock = self.clock;
        let shard_cache = &mut self.shards[shard];
        match shard_cache.entries.get_mut(bits) {
            Some(entry) if entry.generation == shard_cache.generation => {
                if !serves(entry.kept, top) {
                    self.stats.misses += 1;
                    return None;
                }
                entry.last_used = clock;
                self.stats.hits += 1;
                self.stats.saved_comparisons += entry.stats.comparisons;
                Some((entry.matches.clone(), entry.stats, entry.kept))
            }
            Some(_) => {
                shard_cache.entries.remove(bits);
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Admit a freshly scanned result for `(shard, bits)`, kept at cut `kept`
    /// (`None`: the whole list; `Some(k)`: a superset of the shard's best k),
    /// evicting the least recently used entry if the shard is at capacity. An
    /// entry already held for the bits is replaced in place, evicting nothing.
    ///
    /// `generation` must be the shard's write generation **observed before the
    /// scan** (the engine captures it at lookup time); if the shard has moved on
    /// since, the result is silently not admitted — it describes a superseded
    /// store state.
    pub fn admit(
        &mut self,
        shard: usize,
        bits: BitIndex,
        kept: Option<usize>,
        (matches, stats): (Vec<SearchMatch>, SearchStats),
        generation: u64,
    ) {
        if self.config.capacity_per_shard == 0 {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        let shard_cache = &mut self.shards[shard];
        if generation != shard_cache.generation {
            return;
        }
        if !shard_cache.entries.contains_key(&bits)
            && shard_cache.entries.len() >= self.config.capacity_per_shard
        {
            // Evict the least recently used entry of this shard. Linear scan:
            // capacities are small (hundreds) and admissions happen at most once
            // per (query, shard) miss, which just paid for a shard scan.
            if let Some(oldest) = shard_cache
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard_cache.entries.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        shard_cache.entries.insert(
            bits,
            CacheEntry {
                generation,
                last_used: clock,
                kept,
                matches,
                stats,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits_from_seed(len: usize, seed: u64) -> BitIndex {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx = BitIndex::all_ones(len);
        for i in 0..len {
            if rng.gen_bool(0.5) {
                idx.set(i, false);
            }
        }
        idx
    }

    fn sample_matches(n: u64) -> Vec<SearchMatch> {
        (0..n)
            .map(|i| SearchMatch {
                document_id: i,
                rank: 1 + (i % 3) as u32,
            })
            .collect()
    }

    fn sample_stats(comparisons: u64) -> SearchStats {
        SearchStats {
            comparisons,
            matches: comparisons / 2,
        }
    }

    #[test]
    fn hit_returns_admitted_value_and_counts_saved_comparisons() {
        let mut cache = ResultCache::new(2, CacheConfig::default());
        let key = bits_from_seed(128, 1);
        assert!(cache.lookup(0, &key, None).is_none());
        cache.admit(
            0,
            key.clone(),
            None,
            (sample_matches(3), sample_stats(10)),
            0,
        );
        let (matches, stats, kept) = cache.lookup(0, &key, None).expect("hit");
        assert_eq!(kept, None);
        assert_eq!(matches, sample_matches(3));
        assert_eq!(stats, sample_stats(10));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.saved_comparisons), (1, 1, 10));
        // The same query on the other shard is independent.
        assert!(cache.lookup(1, &key, None).is_none());
    }

    #[test]
    fn insert_invalidates_only_that_shard() {
        let mut cache = ResultCache::new(3, CacheConfig::default());
        let key = bits_from_seed(128, 2);
        for shard in 0..3 {
            cache.admit(
                shard,
                key.clone(),
                None,
                (sample_matches(1), sample_stats(4)),
                0,
            );
        }
        cache.note_insert(1);
        assert!(cache.lookup(0, &key, None).is_some());
        assert!(
            cache.lookup(1, &key, None).is_none(),
            "shard 1 must be stale"
        );
        assert!(cache.lookup(2, &key, None).is_some());
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.generation(1), 1);
        assert_eq!(cache.generation(0), 0);
    }

    #[test]
    fn invalidate_all_bumps_every_generation() {
        let mut cache = ResultCache::new(4, CacheConfig::default());
        let before: Vec<u64> = (0..4).map(|s| cache.generation(s)).collect();
        cache.invalidate_all();
        for (s, b) in before.iter().enumerate() {
            assert_eq!(cache.generation(s), b + 1);
        }
    }

    #[test]
    fn stale_admission_is_rejected() {
        let mut cache = ResultCache::new(1, CacheConfig::default());
        let key = bits_from_seed(128, 3);
        let old_generation = cache.generation(0);
        cache.note_insert(0); // the store moved on while the scan ran
        cache.admit(
            0,
            key.clone(),
            None,
            (sample_matches(2), sample_stats(6)),
            old_generation,
        );
        assert!(cache.lookup(0, &key, None).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn lru_evicts_least_recently_used_at_capacity() {
        let mut cache = ResultCache::new(
            1,
            CacheConfig {
                capacity_per_shard: 2,
            },
        );
        let keys: Vec<BitIndex> = (0..3).map(|i| bits_from_seed(128, 10 + i)).collect();
        cache.admit(
            0,
            keys[0].clone(),
            None,
            (sample_matches(1), sample_stats(1)),
            0,
        );
        cache.admit(
            0,
            keys[1].clone(),
            None,
            (sample_matches(1), sample_stats(1)),
            0,
        );
        // Touch keys[0] so keys[1] becomes the LRU victim.
        assert!(cache.lookup(0, &keys[0], None).is_some());
        cache.admit(
            0,
            keys[2].clone(),
            None,
            (sample_matches(1), sample_stats(1)),
            0,
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(0, &keys[0], None).is_some());
        assert!(
            cache.lookup(0, &keys[1], None).is_none(),
            "LRU entry evicted"
        );
        assert!(cache.lookup(0, &keys[2], None).is_some());
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut cache = ResultCache::new(
            2,
            CacheConfig {
                capacity_per_shard: 0,
            },
        );
        let key = bits_from_seed(128, 4);
        cache.admit(
            0,
            key.clone(),
            None,
            (sample_matches(1), sample_stats(1)),
            0,
        );
        assert!(cache.is_empty());
        assert!(cache.lookup(0, &key, None).is_none());
        assert!(format!("{cache:?}").contains("ResultCache"));
    }

    /// An entry kept at k serves every top up to k and misses a wider top or
    /// an uncut one; the miss leaves a live entry for the rescan's admission
    /// to replace in place, evicting nothing, while a stale one is still an
    /// invalidation.
    #[test]
    fn a_kept_entry_serves_every_narrower_top() {
        let mut cache = ResultCache::new(
            1,
            CacheConfig {
                capacity_per_shard: 1,
            },
        );
        let key = bits_from_seed(128, 8);
        let scan = (sample_matches(4), sample_stats(12));
        cache.admit(0, key.clone(), Some(2), scan.clone(), 0);
        for top in 0..=2 {
            let (matches, stats, kept) = cache.lookup(0, &key, Some(top)).expect("covered");
            assert_eq!((matches, stats, kept), (scan.0.clone(), scan.1, Some(2)));
        }
        assert!(cache.lookup(0, &key, Some(3)).is_none(), "wider than kept");
        assert!(cache.lookup(0, &key, None).is_none(), "uncut");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.saved_comparisons), (3, 2, 36));
        assert_eq!((s.evictions, s.invalidations), (0, 0));
        assert_eq!(cache.len(), 1, "a narrower live entry stays for its rescan");

        // The rescan's admission replaces the entry in place: capacity 1 and
        // still no eviction.
        cache.admit(0, key.clone(), None, scan.clone(), 0);
        assert_eq!((cache.len(), cache.stats().evictions), (1, 0));
        assert!(cache.lookup(0, &key, Some(usize::MAX)).is_some());
        assert!(cache.lookup(0, &key, None).is_some());

        // A stale kept entry is an invalidation at any top, not a narrow miss.
        cache.admit(0, key.clone(), Some(2), scan, 0);
        cache.note_insert(0);
        assert!(cache.lookup(0, &key, Some(1)).is_none());
        let s = cache.stats();
        assert_eq!((s.misses, s.invalidations, s.evictions), (3, 1, 0));
        assert!(cache.is_empty());
    }

    /// The key is the query bits: other bits, or the same words at another
    /// length, are another entry.
    #[test]
    fn fingerprint_distinguishes_bits() {
        let shorter = BitIndex::from_blocks(bits_from_seed(256, 6).as_blocks().to_vec(), 255);
        let bits = BitIndex::from_blocks(shorter.as_blocks().to_vec(), 256);
        assert_eq!(bits.as_blocks(), shorter.as_blocks());
        let mut cache = ResultCache::new(1, CacheConfig::default());
        cache.admit(
            0,
            bits.clone(),
            None,
            (sample_matches(5), sample_stats(9)),
            0,
        );
        assert!(cache.lookup(0, &bits_from_seed(256, 7), None).is_none());
        assert!(cache.lookup(0, &shorter, None).is_none());
        assert!(cache.lookup(0, &bits, None).is_some());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Equal query indices share an entry: bits decoded afresh from the
        /// query's wire bytes hit what the original admitted.
        #[test]
        fn prop_equal_queries_have_equal_fingerprints(seed in 0u64..1000, len in 64usize..300) {
            let bits = bits_from_seed(len, seed);
            let decoded = BitIndex::from_bytes(&bits.to_bytes(), len);
            let mut cache = ResultCache::new(1, CacheConfig::default());
            cache.admit(0, bits, None, (sample_matches(2), sample_stats(4)), 0);
            prop_assert_eq!(cache.lookup(0, &decoded, None), Some((sample_matches(2), sample_stats(4), None)));
        }

        /// Differing bits ⇒ differing entries.
        #[test]
        fn prop_differing_keys_have_differing_fingerprints(seed in 0u64..1000) {
            let bits = bits_from_seed(256, seed);
            let other = bits_from_seed(256, seed + 1);
            if bits != other {
                let mut cache = ResultCache::new(1, CacheConfig::default());
                cache.admit(0, bits, None, (sample_matches(1), sample_stats(1)), 0);
                prop_assert!(cache.lookup(0, &other, None).is_none());
            }
        }

        /// Write generations are strictly monotonic across arbitrary interleavings
        /// of inserts and lookups, and lookups never move a generation.
        #[test]
        fn prop_generations_strictly_monotonic(ops in proptest::collection::vec(0u8..4, 1..60)) {
            let mut cache = ResultCache::new(3, CacheConfig { capacity_per_shard: 4 });
            let key = bits_from_seed(128, 42);
            let mut expected = [0u64; 3];
            for op in ops {
                let shard = (op % 3) as usize;
                if op < 3 {
                    let before = cache.generation(shard);
                    cache.note_insert(shard);
                    prop_assert!(cache.generation(shard) > before, "insert must advance");
                    expected[shard] += 1;
                } else {
                    // Lookups (hit, miss or invalidation) never move generations.
                    let generation = cache.generation(0);
                    cache.admit(0, key.clone(), None, (vec![], SearchStats::default()), generation);
                    let _ = cache.lookup(0, &key, None);
                    let _ = cache.lookup(1, &key, None);
                }
                for (s, &e) in expected.iter().enumerate() {
                    prop_assert_eq!(cache.generation(s), e);
                }
            }
        }
    }
}
