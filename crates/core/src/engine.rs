//! The server-side **query-execution layer**: parallel ranked search over the
//! [`ShardedStore`], with an optional per-shard result cache.
//!
//! [`SearchEngine`] executes the paper's oblivious matching (Eq. 3 + Algorithm 1)
//! shard-by-shard, on parallel lanes (workers of the process's one lane pool plus
//! the calling thread) when the host has more than one core. Semantics are
//! **bit-for-bit identical** to the sequential reference scan ([`crate::search::CloudIndex`]):
//!
//! * per-shard scans sweep the shard's bit-sliced [`crate::scanplane::ScanPlane`]
//!   — a few bitmap rows per 1,024 documents instead of per-document pointer
//!   chasing — and produce the matches, scan order and [`SearchStats`] of the
//!   reference's [`crate::search::scan_ranked`] loop (r-bit comparison counts
//!   are unchanged: row skipping happens *inside* one r-bit comparison), or,
//!   for a reply cut to τ, a superset of the shard's best τ;
//! * merged ranked results are ordered by descending rank, ties broken by
//!   ascending document id — a total order, so the merged list is unique and
//!   equals the sequential sort (cut to `top`, when the caller asks for a cut);
//! * merged [`SearchStats`] are the field-wise sums of per-shard stats, which equal
//!   the sequential counts.
//!
//! ## Derived state has one owner
//!
//! The store is the corpus; everything computed *from* it lives here, side by
//! side: one [`ScanPlane`] per shard and the optional [`ResultCache`]. The engine
//! holds its [`ShardedStore`] privately — [`SearchEngine::store`] is read-only and
//! there is no mutable accessor — and [`SearchEngine::insert`] is the only door a
//! document comes in through ([`SearchEngine::insert_all`] and
//! [`SearchEngine::restore_snapshot`] funnel into the same append). Each append
//! pushes the document onto the plane of the shard [`ShardedStore::insert`] (or
//! [`ShardedStore::insert_encoded`]) names, and each door bumps the cache
//! generations it must, so neither a plane nor a cache entry can go stale.
//! [`SearchEngine::new`] derives the planes from whatever the store it is handed
//! already holds; snapshots carry neither.
//!
//! ## Scheduling: one executor over scan units
//!
//! Parallelism is a property of the **executor**, not the data layout, and
//! there is one executor. Every execution is carved into **scan units** — one
//! flat slate, made before any lane starts — and every lane takes its next
//! unit from **one shared claim counter** until the slate runs out. The
//! paper's server work (Eq. 3 + Algorithm 1) is one r-bit comparison per
//! stored document, independent of every other, so no unit ever spawns
//! another: a lane that finishes early simply claims more, which is all the
//! balancing a flat slate needs, and the lanes are interchangeable. A unit is
//! a range of `UNIT_CHUNKS` (8) chunks of [`crate::scanplane::CHUNK`]
//! documents of one selected shard's scan plane, at every lane count — so an
//! oversharded store (more shards than lanes) balances instead of serializing
//! whole shards behind one lane, a host with more lanes than shards splits
//! single shards across lanes instead of idling, and a one-lane engine runs
//! the same units, in order, on the calling thread.
//!
//! The lanes' worker threads are not the engine's: every engine of a process
//! holds a handle to the one shared `WorkerPool` (`engine/pool.rs`;
//! `available_parallelism − 1` workers, spawned once), so building, cloning,
//! re-laning or dropping an engine never starts or joins a thread, and k engines
//! in one process — a fleet's nodes — keep no more idle workers spinning than one
//! does. [`SearchEngine::scan_lanes`] is the cap on the lanes **one execution**
//! may use: the pool runs the engine's one lane function on lane 0 — the
//! calling thread — and on up to `scan_lanes − 1` workers. Engines sharing the
//! pool do not wait on each other: a lane no worker has started by the time
//! the caller's lane 0 is done is taken back and run by the caller (the
//! pool's take-back rule), so an execution never
//! waits behind another engine's scan for a worker it no longer needs. And while
//! the engines executing at once fill the host's cores by themselves — a
//! fleet's three nodes on two — the pool is *crowded* and its idle worker
//! offers its core instead of holding it (`engine/pool.rs`, "Crowding"); an
//! engine alone in its process never meets that case.
//!
//! **A lane keeps its results across its units.** Each lane sweeps every unit
//! it claims into its thread's [`crate::scanplane::Sweeper`] — one result per
//! distinct query with the cache off (gathered across every shard), one per
//! distinct query and shard with it on (a shard's list is what the cache
//! looks up and admits) — reset, not reallocated, per
//! execution, so a warm lane allocates nothing to scan. A kept query's top-τ
//! bar therefore outlives the unit that raised it: a heavy query builds it
//! once per lane, not once per unit. When its claims run out, the lane folds
//! its results into the execution's (kept ones cut to τ, stats summed) under
//! one lock. Which lane ran which unit changes the order an uncut list is
//! gathered in, never its contents, and every list reaches the reply through
//! the merge's canonical order (rank descending, id ascending), so replies,
//! [`SearchStats`] and cache traffic are byte-identical to the sequential scan
//! no matter how many lanes there are. The cache never sees units: lookups and
//! admissions happen per whole shard, on gathered per-shard results, each
//! recorded with the cut it was kept at.
//!
//! ## One read path: a single query is a batch of one
//!
//! Every ranked execution is [`SearchEngine::search_batch_with_effects`], in
//! three phases: the cache lookups of the batch's distinct queries, **one fused
//! pass** per shard over the (cache-missed, intra-batch-deduplicated) query set
//! ([`crate::scanplane::ScanPlane::sweep`]) — one lane
//! hand-off and one merge per batch, not per query — and the admissions, in
//! batch order. The single-query entries ([`SearchEngine::search`],
//! [`SearchEngine::search_top`], [`SearchEngine::search_ranked_with_stats`]) are
//! views of it on a batch of one, and a batch of one builds no deduplication
//! map and no position table. Queries with identical bits inside one batch
//! are scanned once and fanned out to every duplicate position; with the cache
//! enabled the duplicates are resolved through real cache lookups against what
//! the first occurrence admitted — exactly the hits sequential execution would
//! produce, counted in the same [`CacheEffect`]/[`crate::cache::CacheStats`] counters.
//!
//! The reply's `top` (§5's τ) reaches the sweep. A query repeated inside a
//! batch is scanned and merged once, at the widest `top` among its positions,
//! and each position is cut to its own. Cache on or off, every lane keeps
//! only its best `top` matches of each query, across all the units it claims
//! ([`crate::scanplane::Sweeper`]): a match that `top` matches the lane
//! already holds beat is counted but never materialized, and no lane ships
//! more than `top` matches per query to the merge. With the cache on, what a
//! shard's lanes kept is what the cache admits, recorded at the cut it was
//! kept at: the entry serves any later `top` no wider than that cut, and a
//! wider one misses, rescans and replaces it. Either way the merge selects
//! the `top` matches the reply keeps and sorts only those
//! ([`crate::search::top_matches`]), and the stats are always the whole
//! scan's.
//!
//! Every execution records one telemetry family, whatever its size: `batches`,
//! `batch_queries` and one [`crate::telemetry::Stage::EngineBatch`] sample, beside the cache
//! lookups, shard scans and unit spans. A [`crate::telemetry::Stage::CacheAdmit`] span opens only
//! when the third phase admits or resolves something, so a fully cached
//! execution records no admit.
//!
//! ## The result cache
//!
//! With [`SearchEngine::enable_cache`] (or [`SearchEngine::with_result_cache`]) the
//! engine memoizes **per-shard scan results** in a [`ResultCache`], keyed by the
//! query bits themselves. On a repeated query the shard scan is skipped
//! entirely for every shard whose entry serves the query's `top`; missed shards
//! are scanned (in parallel, as usual) and admitted. Cached and uncached
//! execution are byte-identical — cached entries hold what the scan kept, the
//! whole shard's [`SearchStats`] and the cut they serve, and flow through the
//! same merge — so enabling the cache changes wall-clock time and *actual*
//! comparisons performed, never results.
//! Inserts bump only the written shard's generation (see [`crate::cache`]);
//! [`SearchEngine::restore_snapshot`] invalidates every shard once, so no stale
//! entry survives a reload.

use crate::cache::{CacheEffect, ResultCache};
use crate::document_index::RankedDocumentIndex;
use crate::params::SystemParams;
use crate::persistence::PersistenceError;
use crate::scanplane::ScanPlane;
use crate::search::{SearchMatch, SearchStats};
use crate::storage::{ShardedStore, StoreError};
use crate::telemetry::{Counter, LabelledCounter, Telemetry};
use std::sync::{Arc, Mutex};

mod executor;
mod options;
mod pool;
mod read;
use pool::WorkerPool;

/// One shard's ranked-scan output: its matches plus the shard's stats. The
/// stats are always the whole shard's. The matches are every match (for an
/// uncut reply) or, for a reply cut to τ, each lane's best τ, which the merge
/// cuts to the same τ; with the cache on, this is what the cache memoizes.
type ShardScan = (Vec<SearchMatch>, SearchStats);

/// One query's reply: merged matches, merged stats and the cache's part in it.
type Reply = (Vec<SearchMatch>, SearchStats, CacheEffect);

/// The planes of whatever `store` already holds: one per shard, slot for slot.
fn derive_planes(store: &ShardedStore) -> Vec<ScanPlane> {
    (0..store.num_shards())
        .map(|shard| {
            let mut plane = ScanPlane::new();
            for entry in store.shard_entries(shard) {
                plane.push(entry);
            }
            plane
        })
        .collect()
}

/// The shard-parallel search engine over a [`ShardedStore`].
///
/// Scan lanes beyond the caller's run on the process's shared, persistent lane
/// workers (spawning threads per query would cost more than scanning a
/// 10⁴-document shard on some hosts); the engine owns no thread. A one-lane
/// engine runs every unit on the calling thread.
#[derive(Debug)]
pub struct SearchEngine {
    store: ShardedStore,
    /// `planes[s]` is the bit-sliced copy of shard `s`'s entries, slot for
    /// slot — built in [`SearchEngine::new`], appended in
    /// `SearchEngine::append`, touched nowhere else.
    planes: Vec<ScanPlane>,
    /// The process's lane workers ([`WorkerPool::shared`]); only the unit tests
    /// inject a private pool here.
    pool: Arc<WorkerPool>,
    /// The most lanes (pool workers + the calling thread) one execution may
    /// use. Always `1..=cores`.
    lanes: usize,
    /// The optional per-shard result cache. Interior mutability because searches
    /// take `&self` (and must be able to run concurrently from many sessions);
    /// all cache access happens on the calling thread, never inside scan jobs.
    cache: Option<Mutex<ResultCache>>,
    /// The lock-free metrics registry (see [`crate::telemetry`]). Observation
    /// only: nothing in the search path reads it back, so replies, stats and
    /// cache counters are byte-identical at every [`TelemetryLevel`].
    telemetry: Telemetry,
}

impl Clone for SearchEngine {
    fn clone(&self) -> Self {
        let mut engine = SearchEngine::new(self.store.clone());
        engine.set_scan_lanes(self.lanes);
        // The clone keeps the cache *configuration* but starts with an empty
        // cache: entries are cheap to recompute and a fresh engine should not
        // carry another engine's LRU history.
        if let Some(cache) = &self.cache {
            engine.enable_cache(cache.lock().unwrap().config());
        }
        // The clone keeps the telemetry *level* but gets a fresh registry:
        // recorded values describe the original engine's traffic, not the
        // clone's.
        engine.telemetry.set_level(self.telemetry.level());
        engine
    }
}

impl SearchEngine {
    /// A parallel engine over a fresh round-robin store with `num_shards` shards.
    pub fn sharded(params: SystemParams, num_shards: usize) -> Self {
        SearchEngine::new(ShardedStore::new(params, num_shards))
    }

    /// Run queries on an existing store. The engine starts with one scan lane
    /// per host core (shared pool workers plus the calling thread, which always
    /// takes one lane) — *not* per shard: multi-lane engines split shards into
    /// chunk-range units, so even a single-shard store fills every lane,
    /// and more busy threads than cores would only add scheduler thrash to a
    /// CPU-bound scan. Use [`SearchEngine::with_scan_lanes`] to pin a count.
    ///
    /// The result cache starts disabled; see [`SearchEngine::enable_cache`].
    pub fn new(store: ShardedStore) -> Self {
        let planes = derive_planes(&store);
        let mut engine = SearchEngine {
            store,
            planes,
            pool: Arc::clone(WorkerPool::shared()),
            lanes: 1,
            cache: None,
            telemetry: Telemetry::new(),
        };
        engine.set_scan_lanes(usize::MAX);
        engine
    }

    /// The underlying store, read-only: documents come in through
    /// [`SearchEngine::insert`] so the planes and the cache see every one.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// The scan plane the engine sweeps for `shard` — the equivalence suites
    /// and the scan bench read it to hold the layout to the AoS reference.
    pub fn scan_plane(&self, shard: usize) -> &ScanPlane {
        &self.planes[shard]
    }

    /// The store's parameters.
    pub fn params(&self) -> &SystemParams {
        self.store.params()
    }

    /// Number of stored documents (σ).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Upload one document index. With the cache enabled, only the shard the
    /// document landed in is invalidated; cached scans of every other shard stay
    /// live.
    pub fn insert(&mut self, index: RankedDocumentIndex) -> Result<(), StoreError> {
        let shard = self.append(|store| store.insert(index))?;
        self.telemetry.add(Counter::Inserts, 1);
        if let Some(cache) = &self.cache {
            cache.lock().unwrap().note_insert(shard);
            self.telemetry
                .add_at(LabelledCounter::ShardCacheGenerationBumps, shard, 1);
        }
        Ok(())
    }

    /// Store one document through `insert` (one of the store's two doors) and
    /// pack the stored entry onto the plane of the shard the store appended it
    /// to — the single place store and planes change, so they change together.
    /// Cache and telemetry accounting is the caller's.
    fn append(
        &mut self,
        insert: impl FnOnce(&mut ShardedStore) -> Result<usize, StoreError>,
    ) -> Result<usize, StoreError> {
        let shard = insert(&mut self.store)?;
        // An accepted insert fills the last slot of the shard it names.
        let slot = self.store.shard_len(shard) - 1;
        self.planes[shard].push(self.store.entry(shard, slot));
        Ok(shard)
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

    /// Snapshot the store into the versioned binary format of
    /// [`crate::persistence`]. The cache is **never** part of a snapshot: it is
    /// derived state, rebuilt on demand.
    pub fn snapshot(&self) -> Vec<u8> {
        crate::persistence::serialize_index_store(&self.store)
    }

    /// Restore a snapshot produced by [`SearchEngine::snapshot`] (or
    /// [`crate::persistence::serialize_index_store`]), appending its entries in
    /// their original insertion order — copied from the bytes into the store
    /// and the planes, never decoded into indices. The header and the claimed
    /// count are checked before anything is stored. Every cache generation is
    /// bumped afterwards, so entries cached before the restore can never be
    /// served again — also when the store refuses an entry midway: the accepted
    /// prefix stays.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<usize, PersistenceError> {
        let mut entries = crate::persistence::snapshot_entries(self.store.params(), bytes)?;
        let count = entries.len();
        let restored = entries.try_for_each(|(document_id, levels)| {
            self.append(|store| store.insert_encoded(document_id, levels))
                .map(drop)
        });
        if let Some(cache) = &self.cache {
            cache.lock().unwrap().invalidate_all();
            for shard in 0..self.store.num_shards() {
                self.telemetry
                    .add_at(LabelledCounter::ShardCacheGenerationBumps, shard, 1);
            }
        }
        restored?;
        Ok(count)
    }

    /// The stored index of one document, decoded (O(1): the store's id map).
    pub fn document_index(&self, document_id: u64) -> Option<RankedDocumentIndex> {
        (self.store.document_index(document_id)).map(RankedDocumentIndex::from)
    }
}

#[cfg(test)]
mod tests {
    use super::executor::{panic_message, ScanUnit, UNIT_CHUNKS};
    use super::*;
    use crate::bitindex::BitIndex;
    use crate::cache::{CacheConfig, CacheStats};
    use crate::document_index::DocumentIndexer;
    use crate::keys::SchemeKeys;
    use crate::query::QueryBuilder;
    use crate::query::QueryIndex;
    use crate::search::CloudIndex;
    use crate::telemetry::TelemetryLevel;
    use mkse_textproc::document::TermFrequencies;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A fused batch of uncut queries, each reply without its cache effect.
    fn uncut_batch(engine: &SearchEngine, queries: &[QueryIndex]) -> Vec<ShardScan> {
        let tops = vec![None; queries.len()];
        (engine.search_batch_with_effects(queries, &tops).into_iter())
            .map(|(matches, stats, _)| (matches, stats))
            .collect()
    }

    struct Fixture {
        params: SystemParams,
        keys: SchemeKeys,
        rng: StdRng,
    }

    fn fixture() -> Fixture {
        let params = SystemParams::default();
        let mut rng = StdRng::seed_from_u64(123);
        let keys = SchemeKeys::generate(&params, &mut rng);
        Fixture { params, keys, rng }
    }

    fn corpus_indices(fx: &Fixture, n: u64) -> Vec<RankedDocumentIndex> {
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        (0..n)
            .map(|id| {
                let tf = TermFrequencies::from_pairs([
                    (format!("kw{}", id % 7), 1 + (id as u32 % 12)),
                    ("shared".to_string(), 1 + (id as u32 % 11)),
                ]);
                indexer.index_terms(id, &tf)
            })
            .collect()
    }

    fn query(fx: &mut Fixture, keywords: &[&str]) -> QueryIndex {
        let tds = fx.keys.trapdoors_for(&fx.params, keywords);
        QueryBuilder::new(&fx.params)
            .add_trapdoors(&tds)
            .build(&mut fx.rng)
    }

    #[test]
    fn duplicate_batch_queries_under_lru_pressure_match_sequential() {
        // capacity 1 with batch [A, A, B]: sequential execution admits A, hits
        // A, then B's admission evicts A — so B ends up cached and the
        // duplicate's reply reports a hit. The batched path must replay exactly
        // that cache traffic (admissions and duplicate lookups interleaved in
        // batch order), not admit everything first and let B's admission evict
        // A before the duplicate looks up.
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 24);
        let q_a = query(&mut fx, &["shared"]);
        let q_b = query(&mut fx, &["kw1"]);
        let batch = vec![q_a.clone(), q_a.clone(), q_b.clone()];
        let tiny = CacheConfig {
            capacity_per_shard: 1,
        };

        let mut sequential = SearchEngine::sharded(fx.params.clone(), 3).with_result_cache(tiny);
        sequential.insert_all(indices.iter().cloned()).unwrap();
        let expected: Vec<_> = batch
            .iter()
            .map(|q| sequential.search_one(q, None))
            .collect();
        assert!(
            expected[1].2.fully_cached(),
            "sequential duplicate must hit before B evicts A"
        );

        let mut batched = SearchEngine::sharded(fx.params.clone(), 3).with_result_cache(tiny);
        batched.insert_all(indices.iter().cloned()).unwrap();
        let got = batched.search_batch_with_effects(&batch, &vec![None; batch.len()]);
        assert_eq!(got, expected);
        assert_eq!(
            batched.cache_stats().unwrap(),
            sequential.cache_stats().unwrap()
        );
        // And the surviving LRU contents match: B (the last admission) is the
        // cached entry in both worlds, so a follow-up B fully hits.
        assert_eq!(
            batched.search_one(&q_b, None),
            sequential.search_one(&q_b, None)
        );
        assert!(batched.search_one(&q_b, None).2.fully_cached());
    }

    #[test]
    fn duplicate_batch_queries_with_zero_capacity_cache_match_sequential() {
        // capacity 0: nothing is ever admitted, so sequential execution rescans
        // every repeat and reports misses — the deduplicated batch must report
        // the same effects even though it physically scans once.
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 20);
        let q = query(&mut fx, &["shared"]);
        let batch = vec![q.clone(), q.clone(), q.clone()];
        let mut sequential =
            SearchEngine::sharded(fx.params.clone(), 3).with_result_cache(CacheConfig {
                capacity_per_shard: 0,
            });
        sequential.insert_all(indices.iter().cloned()).unwrap();
        let expected: Vec<_> = batch
            .iter()
            .map(|q| sequential.search_one(q, None))
            .collect();
        let mut cached =
            SearchEngine::sharded(fx.params.clone(), 3).with_result_cache(CacheConfig {
                capacity_per_shard: 0,
            });
        cached.insert_all(indices.iter().cloned()).unwrap();
        assert_eq!(
            cached.search_batch_with_effects(&batch, &vec![None; batch.len()]),
            expected
        );
    }

    #[test]
    fn scan_lanes_never_exceed_available_parallelism() {
        let fx = fixture();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for shards in [1usize, 2, 3, 4, 7, 16, 32] {
            let engine = SearchEngine::sharded(fx.params.clone(), shards);
            let lanes = engine.scan_lanes();
            assert!(lanes >= 1);
            assert!(
                lanes <= cores,
                "{shards} shards fanned out to {lanes} lanes on a {cores}-core host"
            );
            // Lanes are decoupled from the shard count: a multi-lane engine
            // splits shards into chunk units, so even one shard uses them all.
            assert_eq!(lanes, cores, "default lane count is the host parallelism");
        }
    }

    #[test]
    fn scan_lanes_runtime_knob_clamps() {
        let fx = fixture();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut engine = SearchEngine::sharded(fx.params.clone(), 4);
        // Requests are clamped to [1, cores], from either direction.
        engine.set_scan_lanes(0);
        assert_eq!(engine.scan_lanes(), 1);
        engine.set_scan_lanes(usize::MAX);
        assert_eq!(engine.scan_lanes(), cores);
        for request in [1usize, 2, 3, 4, 64] {
            engine.set_scan_lanes(request);
            assert_eq!(engine.scan_lanes(), request.clamp(1, cores));
        }
        // The builder form pins a count too, and the count survives a clone.
        let engine = SearchEngine::sharded(fx.params.clone(), 2).with_scan_lanes(1);
        assert_eq!(engine.scan_lanes(), 1);
        assert_eq!(engine.clone().scan_lanes(), 1);
    }

    #[test]
    fn engines_share_one_set_of_lane_workers() {
        let fx = fixture();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let shared = WorkerPool::shared();
        // Eight engines, a clone and a lane-knob walk later, every engine still
        // holds the one pool `shared()` built once — so nothing was spawned
        // beside its `cores − 1` workers (the private pools other tests inject
        // never reach an engine built through `new`).
        let mut engines: Vec<_> = (0..8)
            .map(|shards| SearchEngine::sharded(fx.params.clone(), shards + 1))
            .collect();
        engines.push(engines[0].clone());
        let mut walked = SearchEngine::sharded(fx.params.clone(), 2);
        for lanes in [1, usize::MAX, 1, usize::MAX] {
            walked.set_scan_lanes(lanes);
            assert!(Arc::ptr_eq(&walked.pool, shared), "lanes={lanes}");
        }
        engines.push(walked);
        for engine in &engines {
            assert!(Arc::ptr_eq(&engine.pool, shared));
        }
        assert_eq!(shared.workers(), cores - 1);
    }

    /// Force a multi-lane pool regardless of the host's core count (the struct
    /// literal bypasses `set_scan_lanes`' clamp) so lanes genuinely race for
    /// the claim counter even on single-core CI hosts.
    fn forced_lane_engine(store: ShardedStore, lanes: usize) -> SearchEngine {
        forced_lane_engine_on(store, lanes, Arc::new(WorkerPool::new(lanes - 1)))
    }

    /// [`forced_lane_engine`] on an injected pool, so several engines can share
    /// one set of private workers the way a process's engines share
    /// [`WorkerPool::shared`].
    fn forced_lane_engine_on(
        store: ShardedStore,
        lanes: usize,
        pool: Arc<WorkerPool>,
    ) -> SearchEngine {
        SearchEngine {
            planes: derive_planes(&store),
            store,
            pool,
            lanes,
            cache: None,
            telemetry: Telemetry::new(),
        }
    }

    /// A geometry-valid store of `docs` raw pseudo-random 2-level, 64-bit
    /// indices — multi-unit shards without the (slow) real indexer — and a
    /// generator for more bits from the same stream (queries).
    fn raw_store(
        shards: usize,
        docs: usize,
    ) -> (ShardedStore, impl FnMut(usize) -> crate::bitindex::BitIndex) {
        raw_store_seeded(0x9e37_79b9_97f4_a7c1, shards, docs)
    }

    /// [`raw_store`] from a chosen stream, for tests that need distinct corpora.
    fn raw_store_seeded(
        seed: u64,
        shards: usize,
        docs: usize,
    ) -> (ShardedStore, impl FnMut(usize) -> crate::bitindex::BitIndex) {
        let params = SystemParams::new(64, 4, 16, 0, 0, vec![1, 2]).unwrap();
        let mut state = seed;
        let mut next_bits = move |n: usize| {
            let bits: Vec<bool> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    state >> 63 == 1
                })
                .collect();
            crate::bitindex::BitIndex::from_bits(&bits)
        };
        let mut store = ShardedStore::new(params, shards);
        for id in 0..docs as u64 {
            store
                .insert(RankedDocumentIndex {
                    document_id: id,
                    levels: vec![next_bits(64), next_bits(64)],
                })
                .unwrap();
        }
        (store, next_bits)
    }

    #[test]
    fn forced_multi_lane_pool_matches_sequential_reference() {
        use crate::scanplane::CHUNK;
        // 3 shards of 16 full chunks + 100 documents of a 17th: 3 units each,
        // 9 units over 2 or 3 lanes, so the lanes' claims genuinely interleave.
        let (store, mut next_bits) = raw_store(3, 3 * (2 * UNIT_CHUNKS * CHUNK + 100));
        let mut reference = CloudIndex::new(store.params().clone());
        reference
            .insert_all(
                store
                    .documents_in_insertion_order()
                    .map(RankedDocumentIndex::from),
            )
            .unwrap();
        let queries: Vec<QueryIndex> = (0..5)
            .map(|_| QueryIndex::from_bits(next_bits(64)))
            .collect();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| reference.search_ranked_with_stats(q))
            .collect();
        // Aggregated across the forced multi-lane configs below: the lanes must
        // account every unit, and counting must not perturb a single reply
        // byte.
        let mut total_executed = 0u64;
        for lanes in [2usize, 3] {
            let engine = forced_lane_engine(store.clone(), lanes);
            engine.set_telemetry_level(TelemetryLevel::Counters);
            for (q, want) in queries.iter().zip(&expected) {
                assert_eq!(&engine.search_ranked_with_stats(q), want, "lanes={lanes}");
            }
            assert_eq!(
                uncut_batch(&engine, &queries),
                expected,
                "fused batch, lanes={lanes}"
            );
            let snap = engine.metrics_snapshot();
            total_executed += snap.labelled_sum("lane_executed");
        }
        // Every unit execution is accounted: per lane count, 5 single queries
        // and one fused batch over 9 chunk-range units each.
        assert_eq!(
            total_executed,
            2 * 6 * 9,
            "lane counters must see every executed unit"
        );
    }

    #[test]
    fn engines_sharing_one_pool_each_match_their_own_reference() {
        use crate::scanplane::CHUNK;
        // Invariant 5 across engines: three engines over different corpora
        // (seed, shard count and size all differ) ask ONE two-worker pool for
        // three lanes each, concurrently — so lanes queue behind other engines'
        // scans and get taken back — and every reply must still be its own
        // engine's sequential reference, stats included, and every engine must
        // count exactly its own units.
        let pool = Arc::new(WorkerPool::new(2));
        struct Case {
            engine: SearchEngine,
            reference: CloudIndex,
            queries: Vec<QueryIndex>,
            /// Scan units of one execution: every shard holds `units_per_shard`
            /// full units and a ragged one for its last 100 documents.
            units: u64,
        }
        const ROUNDS: u64 = 3;
        let cases: Vec<Case> = [(0x51u64, 3usize, 2usize), (0x52, 2, 3), (0x53, 1, 4)]
            .into_iter()
            .map(|(seed, shards, units_per_shard)| {
                let docs = shards * (units_per_shard * UNIT_CHUNKS * CHUNK + 100);
                let (store, mut next_bits) = raw_store_seeded(seed, shards, docs);
                let mut reference = CloudIndex::new(store.params().clone());
                reference
                    .insert_all(
                        store
                            .documents_in_insertion_order()
                            .map(RankedDocumentIndex::from),
                    )
                    .unwrap();
                let mut queries: Vec<QueryIndex> = (0..3)
                    .map(|_| QueryIndex::from_bits(next_bits(64)))
                    .collect();
                // Duplicates inside the fused batch.
                queries.push(queries[0].clone());
                queries.push(queries[2].clone());
                let engine = forced_lane_engine_on(store, 3, Arc::clone(&pool));
                engine.set_telemetry_level(TelemetryLevel::Counters);
                Case {
                    engine,
                    reference,
                    queries,
                    units: (shards * (units_per_shard + 1)) as u64,
                }
            })
            .collect();
        let start = std::sync::Barrier::new(cases.len());
        std::thread::scope(|scope| {
            for (n, case) in cases.iter().enumerate() {
                let start = &start;
                scope.spawn(move || {
                    let expected: Vec<_> = case
                        .queries
                        .iter()
                        .map(|q| case.reference.search_ranked_with_stats(q))
                        .collect();
                    start.wait();
                    for round in 0..ROUNDS {
                        for (q, want) in case.queries.iter().zip(&expected) {
                            assert_eq!(
                                &case.engine.search_ranked_with_stats(q),
                                want,
                                "engine {n}, round {round}"
                            );
                        }
                        assert_eq!(
                            uncut_batch(&case.engine, &case.queries),
                            expected,
                            "fused batch, engine {n}, round {round}"
                        );
                    }
                });
            }
        });
        // Per round: one execution per query and one fused batch.
        for (n, case) in cases.iter().enumerate() {
            let executions = ROUNDS * (case.queries.len() as u64 + 1);
            assert_eq!(
                case.engine.metrics_snapshot().labelled_sum("lane_executed"),
                case.units * executions,
                "engine {n} counts exactly its own units"
            );
        }
    }

    #[test]
    fn units_are_carved_from_lanes_and_planes() {
        use crate::scanplane::CHUNK;
        // Each of the 2 shards gets 18 full chunks and 10 documents of a 19th:
        // two full units and a ragged 3-chunk one.
        let (store, mut next_bits) = raw_store(2, 2 * (2 * UNIT_CHUNKS + 2) * CHUNK + 2 * 10);
        // The selection order is the unit order; `pos` indexes the selection.
        let selection = [1usize, 0];
        let range = |pos: usize, shard: usize, chunks: std::ops::Range<usize>| ScanUnit {
            pos,
            shard,
            chunks,
        };
        // Ascending 8-chunk ranges, ragged last unit — the same at every lane
        // count.
        for lanes in [1, 2] {
            assert_eq!(
                forced_lane_engine(store.clone(), lanes).carve_units(selection),
                vec![
                    range(0, 1, 0..8),
                    range(0, 1, 8..16),
                    range(0, 1, 16..19),
                    range(1, 0, 0..8),
                    range(1, 0, 8..16),
                    range(1, 0, 16..19),
                ],
                "lanes={lanes}"
            );
        }

        // An empty plane carves into zero units, and its stitched row is
        // empty: no matches, zeroed stats.
        let empty = forced_lane_engine(ShardedStore::new(store.params().clone(), 2), 2);
        assert!(empty.carve_units([0, 1]).is_empty());
        let q = QueryIndex::from_bits(next_bits(64));
        let mut out = vec![(Vec::new(), SearchStats::default())];
        empty.scan_plan(
            &[(0, 0..1), (1, 0..1)],
            &[(q.bits(), 0)],
            |_| None,
            &mut out,
        );
        assert_eq!(out, vec![(Vec::new(), SearchStats::default())]);
    }

    #[test]
    fn empty_engine_returns_nothing() {
        let mut fx = fixture();
        let engine = SearchEngine::sharded(fx.params.clone(), 4);
        assert!(engine.is_empty());
        assert_eq!(engine.len(), 0);
        let q = query(&mut fx, &["anything"]);
        assert!(engine.search(&q).is_empty());
        assert!(engine.document_index(0).is_none());
    }

    #[test]
    fn clone_keeps_cache_config_but_starts_cold() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 10);
        let mut engine =
            SearchEngine::sharded(fx.params.clone(), 2).with_result_cache(CacheConfig {
                capacity_per_shard: 7,
            });
        engine.insert_all(indices).unwrap();
        let q = query(&mut fx, &["shared"]);
        let warm = engine.search_one(&q, None);
        let clone = engine.clone();
        assert!(clone.cache_enabled());
        assert_eq!(clone.cache_stats().unwrap(), CacheStats::default());
        // Its planes are derived from the store: the same reply, scanned.
        let (matches, stats, effect) = clone.search_one(&q, None);
        assert_eq!((matches, stats), (warm.0, warm.1));
        assert_eq!(effect.shard_hits, 0);
        // And disabling works.
        let mut off = clone;
        off.disable_cache();
        assert!(!off.cache_enabled());
        assert_eq!(off.cache_stats(), None);
    }

    /// Run `scan` on every unit through the executor, each unit on whichever
    /// lane claims it, and return the results in unit order.
    fn unit_results<T: Send>(
        engine: &SearchEngine,
        units: &[ScanUnit],
        scan: impl Fn(&ScanUnit) -> T + Sync,
    ) -> Vec<T> {
        let results = Mutex::new(Vec::new());
        engine.run_units(units, |claims| {
            for (index, unit) in claims {
                let value = scan(unit);
                results.lock().unwrap().push((index, value));
            }
        });
        let mut results = results.into_inner().unwrap();
        results.sort_by_key(|&(index, _)| index);
        assert!(
            (results.iter().map(|&(index, _)| index)).eq(0..units.len()),
            "every unit claimed exactly once"
        );
        results.into_iter().map(|(_, value)| value).collect()
    }

    /// A query one bit longer than `params` allows.
    fn wrong_length_query(params: &SystemParams) -> QueryIndex {
        QueryIndex::from_bits(BitIndex::all_ones(params.index_bits + 1))
    }

    #[test]
    fn scan_panic_names_the_failing_shard() {
        // A unit at selection position 0 of shard 2: the message must name
        // the shard, not the position, inline and across a two-lane pool.
        let store = ShardedStore::new(SystemParams::default(), 1);
        let unit = |chunks| ScanUnit {
            pos: 0,
            shard: 2,
            chunks,
        };
        let refuse = |unit: &ScanUnit| panic!("plane refused chunks {:?}", unit.chunks);
        let inline = forced_lane_engine(store.clone(), 1);
        let two_lanes = forced_lane_engine(store, 2);
        for (engine, units) in [
            (&inline, vec![unit(0..8)]),
            (&two_lanes, vec![unit(0..8), unit(8..16)]),
        ] {
            let lanes = engine.lanes;
            let result = catch_unwind(AssertUnwindSafe(|| unit_results(engine, &units, refuse)));
            let message = panic_message(result.expect_err("the scan must panic").as_ref());
            assert!(
                message.starts_with("shard 2: plane refused chunks "),
                "lanes={lanes}: the panic must name shard 2 and forward the original text: {message}"
            );
        }
    }

    #[test]
    fn non_string_panic_payloads_get_a_placeholder() {
        let engine = forced_lane_engine(ShardedStore::new(SystemParams::default(), 1), 2);
        let units = [ScanUnit {
            pos: 0,
            shard: 1,
            chunks: 0..8,
        }];
        let result = catch_unwind(AssertUnwindSafe(|| {
            unit_results(&engine, &units, |_| std::panic::panic_any(17u32))
        }));
        let message = panic_message(result.expect_err("the scan must panic").as_ref());
        assert_eq!(message, "shard 1: <non-string panic payload>");
    }

    #[test]
    fn run_units_returns_every_result_in_unit_order() {
        // Synthetic units over shards the store does not have: the executor
        // never looks at a plane, it hands each unit to `scan` and puts the
        // result in the unit's own slot, whichever lane ran it.
        let units: Vec<ScanUnit> = (0..23)
            .map(|i| ScanUnit {
                pos: i % 4,
                shard: (7 * i) % 5,
                chunks: i..i + 1 + i % 3,
            })
            .collect();
        let store = ShardedStore::new(SystemParams::default(), 1);
        for lanes in [1, 2, 3] {
            let engine = forced_lane_engine(store.clone(), lanes);
            engine.set_telemetry_level(TelemetryLevel::Counters);
            let echoed = unit_results(&engine, &units, |u| (u.pos, u.shard, u.chunks.clone()));
            let expected: Vec<_> = units
                .iter()
                .map(|u| (u.pos, u.shard, u.chunks.clone()))
                .collect();
            assert_eq!(echoed, expected, "lanes={lanes}");
            let snap = engine.metrics_snapshot();
            assert_eq!(
                snap.labelled_sum("lane_executed"),
                units.len() as u64,
                "lanes={lanes}"
            );
        }
    }

    #[test]
    fn a_lane_keeps_bounded_buffers_after_an_unbounded_top() {
        use crate::scanplane::{CHUNK, RETAINED_MATCHES, RETAINED_RESULTS};
        // Documents without a one-bit match every query, so a `top` wider
        // than the store never cuts and each result grows to every document.
        let params = SystemParams::new(64, 4, 16, 0, 0, vec![1, 2]).unwrap();
        let mut store = ShardedStore::new(params, 2);
        let docs = 3 * CHUNK;
        for id in 0..docs as u64 {
            let empty = BitIndex::from_bits(&[false; 64]);
            store
                .insert(RankedDocumentIndex {
                    document_id: id,
                    levels: vec![empty.clone(), empty],
                })
                .unwrap();
        }
        // One lane runs inline: the sweeper it leaves behind is this thread's.
        let engine = forced_lane_engine(store, 1);
        let queries: Vec<QueryIndex> = (0..100u64)
            .map(|i| {
                let bits: Vec<bool> = (0..64).map(|b| b < 7 && i >> b & 1 == 1).collect();
                QueryIndex::from_bits(BitIndex::from_bits(&bits))
            })
            .collect();
        let bounded = |what: &str| {
            let (matches, results) = executor::retained();
            assert!(
                results <= RETAINED_RESULTS,
                "{what}: room for {results} results"
            );
            assert!(
                matches <= RETAINED_RESULTS * RETAINED_MATCHES,
                "{what}: room for {matches} matches"
            );
        };

        assert_eq!(engine.search_top(&queries[0], usize::MAX).len(), docs);
        bounded("one query");
        let replies = engine.search_batch_with_effects(&queries, &vec![Some(usize::MAX); 100]);
        assert!(replies.iter().all(|(matches, _, _)| matches.len() == docs));
        bounded("a batch of 100 distinct queries");

        // A narrow keep's buffer still stays for the next execution.
        assert_eq!(engine.search_top(&queries[0], 10).len(), 10);
        assert!(executor::retained().0 > 0, "a top-10 buffer is kept");
    }

    #[test]
    fn single_query_entries_record_one_batch_of_one() {
        // `search`, `search_top` and `search_ranked_with_stats` are views of
        // the batch entry: each adds one batch of one query and one
        // `engine_batch` sample, and an empty batch records nothing.
        let mut fx = fixture();
        let mut engine = SearchEngine::sharded(fx.params.clone(), 2);
        engine.insert_all(corpus_indices(&fx, 12)).unwrap();
        engine.set_telemetry_level(TelemetryLevel::Spans);
        let q = query(&mut fx, &["shared"]);
        let family = |engine: &SearchEngine| {
            let snap = engine.metrics_snapshot();
            let samples = (snap.histograms.iter())
                .find(|h| h.stage == "engine_batch")
                .map_or(0, |h| h.count);
            [
                snap.counter("batches"),
                snap.counter("batch_queries"),
                samples,
            ]
        };
        let _ = engine.search(&q);
        assert_eq!(family(&engine), [1, 1, 1]);
        let _ = engine.search_top(&q, 2);
        assert_eq!(family(&engine), [2, 2, 2]);
        let _ = engine.search_ranked_with_stats(&q);
        assert_eq!(family(&engine), [3, 3, 3]);
        assert!(engine.search_batch_with_effects(&[], &[]).is_empty());
        assert_eq!(family(&engine), [3, 3, 3]);
        let _ = engine.search_batch_with_effects(&[q.clone(), q], &[None, None]);
        assert_eq!(family(&engine), [4, 5, 4]);
    }

    #[test]
    fn a_restore_bumps_every_shard_once_folded_like_its_lookups() {
        use crate::telemetry::LABEL_SLOTS;
        // 70 shards: shards 63..70 share the registry's last per-shard slot.
        // One query looks each shard up once and one restore bumps each
        // shard's generation once, so both read 1 per slot and 7 in the last.
        let mut fx = fixture();
        let mut source = SearchEngine::sharded(fx.params.clone(), 2);
        source.insert_all(corpus_indices(&fx, 8)).unwrap();
        let q = query(&mut fx, &["shared"]);
        let mut engine =
            SearchEngine::sharded(fx.params.clone(), 70).with_result_cache(CacheConfig::default());
        engine.set_telemetry_level(TelemetryLevel::Counters);
        let _ = engine.search(&q);
        assert_eq!(engine.restore_snapshot(&source.snapshot()), Ok(8));
        let snap = engine.metrics_snapshot();
        let last = LABEL_SLOTS - 1;
        for name in ["shard_cache_misses", "shard_cache_generation_bumps"] {
            for index in 0..LABEL_SLOTS {
                let want = if index == last { 70 - last as u64 } else { 1 };
                assert_eq!(snap.labelled(name, index as u32), want, "{name}[{index}]");
            }
            assert_eq!(snap.labelled_sum(name), 70, "{name}");
        }
    }

    #[test]
    fn a_panicking_engine_does_not_disturb_its_pool_mates() {
        use crate::scanplane::CHUNK;
        // Engines A and B run their lanes on one injected pool. A's one shard
        // is two scan units (8 chunks and 1), so a query of the wrong length
        // panics on both lanes while B queries: B's replies are its
        // reference's, A's panic still names its shard, and the pool serves
        // both afterwards.
        let mut fx = fixture();
        let pool = Arc::new(WorkerPool::new(1));
        let (a_store, _) = raw_store(1, UNIT_CHUNKS * CHUNK + 1);
        let a_params = a_store.params().clone();
        let a = forced_lane_engine_on(a_store, 2, Arc::clone(&pool));
        assert_eq!(a.carve_units([0]).len(), 2);
        let indices = corpus_indices(&fx, 40);
        let mut reference = CloudIndex::new(fx.params.clone());
        reference.insert_all(indices.iter().cloned()).unwrap();
        let mut store = ShardedStore::new(fx.params.clone(), 3);
        store.insert_all(indices).unwrap();
        let b = forced_lane_engine_on(store, 2, Arc::clone(&pool));
        let q = query(&mut fx, &["shared"]);
        let everything = QueryIndex::from_bits(BitIndex::all_ones(a_params.index_bits));
        let a_healthy = a.search_ranked_with_stats(&everything);
        assert!(!a_healthy.0.is_empty());
        let b_ranked = reference.search_ranked_with_stats(&q);

        let bad = wrong_length_query(&a_params);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for round in 0..20 {
                    assert_eq!(b.search_ranked_with_stats(&q), b_ranked, "round {round}");
                }
            });
            start.wait();
            for _ in 0..20 {
                let result = catch_unwind(AssertUnwindSafe(|| a.search(&bad)));
                let payload = result.expect_err("a wrong-length query must panic the scan");
                let message = panic_message(payload.as_ref());
                assert!(
                    message.starts_with("shard 0: ") && message.contains("length mismatch"),
                    "panic must name the failing shard: {message}"
                );
            }
        });

        assert_eq!(a.search_ranked_with_stats(&everything), a_healthy);
        assert_eq!(b.search_ranked_with_stats(&q), b_ranked);
    }
}
