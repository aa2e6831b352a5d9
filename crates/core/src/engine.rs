//! The server-side **query-execution layer**: parallel ranked search over any
//! [`IndexStore`], with an optional per-shard result cache.
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
//!   are unchanged: row skipping happens *inside* one r-bit comparison);
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
//! holds its store privately — [`SearchEngine::store`] is read-only and there is
//! no mutable accessor — and [`SearchEngine::insert`] is the only door a document
//! comes in through ([`SearchEngine::insert_all`] and
//! [`SearchEngine::restore_snapshot`] funnel into the same append). Each append
//! pushes the document onto the plane of the shard [`IndexStore::insert`] names,
//! and each door bumps the cache generations it must, so neither a plane nor a
//! cache entry can go stale. [`SearchEngine::new`] derives the planes from
//! whatever the store it is handed already holds; snapshots carry neither.
//!
//! ## Scheduling: one executor over scan units
//!
//! Parallelism is a property of the **executor**, not the data layout, and
//! there is one executor. Every execution is carved into **scan units**, the
//! units are dealt contiguously onto the engine's scan lanes, and a lane that
//! drains its own deal **steals** units from the tail of another lane's. What a
//! unit is follows from what the engine can observe, not from an option:
//!
//! * with more than one lane, a unit is a range of `UNIT_CHUNKS` (8) chunks of
//!   [`crate::scanplane::CHUNK`] documents of one selected shard's scan plane —
//!   so an oversharded store (more shards than lanes) balances instead of
//!   serializing whole shards behind one lane, and a host with more lanes than
//!   shards splits single shards across lanes instead of idling;
//! * with a single lane a unit is the **whole shard**: with nobody to steal
//!   from, splitting buys nothing and costs per-range setup (result
//!   buffers).
//!
//! The lanes' worker threads are not the engine's: every engine of a process
//! holds a handle to the one shared `WorkerPool` (`engine/pool.rs`;
//! `available_parallelism − 1` workers, spawned once), so building, cloning,
//! re-laning or dropping an engine never starts or joins a thread, and k engines
//! in one process — a fleet's nodes — keep no more idle workers spinning than one
//! does. [`SearchEngine::scan_lanes`] is the cap on the lanes **one execution**
//! may use: it asks the pool for `scan_lanes − 1` workers beside the calling
//! thread. Engines sharing the pool do not wait on each other: a lane job no
//! worker has started by the time the caller's own lane is done is taken back
//! and run by the caller (the pool's take-back rule), so an execution never
//! waits behind another engine's scan for a worker it no longer needs. And while
//! the engines executing at once fill the host's cores by themselves — a
//! fleet's three nodes on two — the pool is *crowded* and its idle worker
//! offers its core instead of holding it (`engine/pool.rs`, "Crowding"); an
//! engine alone in its process never meets that case.
//!
//! Stitching is deterministic: every unit writes into its pre-assigned result
//! slot, a shard's unit results concatenate in chunk (slot) order and its stats
//! sum, so replies, [`SearchStats`] and cache traffic are byte-identical to the
//! sequential scan no matter how many lanes there are or which lane ran which
//! unit. The cache never sees units: lookups and admissions happen per whole
//! shard, on the stitched per-shard results.
//!
//! ## One read path: a single query is a batch of one
//!
//! Every ranked execution runs one private executor in three phases: the cache
//! lookups of the batch's distinct queries, **one fused pass** per shard over
//! the (cache-missed, intra-batch-deduplicated) query set
//! ([`crate::scanplane::ScanPlane::scan_ranked_batch_chunks`]) — one lane
//! hand-off and one merge per batch, not per query — and the admissions, in
//! batch order. [`SearchEngine::search_ranked_with_effect`] hands it a batch of
//! one. Queries with identical [`QueryFingerprint`]s inside one batch are
//! scanned once and fanned out to every duplicate position; with the cache
//! enabled the duplicates are resolved through real cache lookups against what
//! the first occurrence admitted — exactly the hits sequential execution would
//! produce, counted in the same [`CacheEffect`]/[`CacheStats`] counters.
//!
//! The reply's `top` (§5's τ) reaches the executor too, and only its last
//! step: every shard still scans — and the cache still holds — the shard's
//! whole match list in slot order, independent of k, so one cached query
//! serves every `top`. The merge then selects the `top` matches the reply
//! keeps and sorts only those ([`crate::search::top_matches`]) instead of
//! sorting everything the shards found. A fingerprint repeated inside a batch
//! is merged once, at the widest `top` among its positions, and each position
//! is cut to its own.
//!
//! The two entry points differ only in what they record, so the telemetry
//! split is what it was when they were two paths: a single query counts
//! `queries` and one [`Stage::EngineQuery`] sample, a batch `batches`,
//! `batch_queries` and one [`Stage::EngineBatch`] sample. Everything else —
//! cache lookups, shard scans, unit spans — the executor records for both, and
//! it opens a [`Stage::CacheAdmit`] span only when the third phase admits or
//! resolves something, so a fully cached execution records no admit.
//!
//! ## The result cache
//!
//! With [`SearchEngine::enable_cache`] (or [`SearchEngine::with_result_cache`]) the
//! engine memoizes **per-shard scan results** in a [`ResultCache`], keyed by a
//! [`crate::cache::QueryFingerprint`] of the query bits. On a repeated query the
//! shard scan is skipped entirely for every shard that hits; missed shards are
//! scanned (in parallel, as usual) and admitted. Cached and uncached execution are
//! byte-identical — cached entries hold exactly what the scan returned, including
//! the per-shard [`SearchStats`], and flow through the same merge — so enabling the
//! cache changes wall-clock time and *actual* comparisons performed, never results.
//! Inserts bump only the written shard's generation (see [`crate::cache`]);
//! [`SearchEngine::restore_snapshot`] invalidates every shard once, so no stale
//! entry survives a reload.

use crate::bitindex::BitIndex;
use crate::cache::{
    CacheConfig, CacheEffect, CacheStats, QueryFingerprint, RankingMode, ResultCache,
};
use crate::document_index::RankedDocumentIndex;
use crate::params::SystemParams;
use crate::persistence::PersistenceError;
use crate::query::QueryIndex;
use crate::scanplane::ScanPlane;
use crate::search::{top_matches, SearchMatch, SearchStats};
use crate::storage::{IndexStore, ShardedStore, StoreError};
use crate::telemetry::{
    Counter, Gauge, LaneStats, MetricsSnapshot, Stage, Telemetry, TelemetryLevel,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

mod pool;
use pool::{StealDeques, WorkerPool};

/// One shard's ranked-scan output: scan-order matches plus the shard's stats —
/// exactly what [`crate::search::scan_ranked`] returns and what the cache memoizes.
type ShardScan = (Vec<SearchMatch>, SearchStats);

/// One query's reply: merged matches, merged stats and the cache's part in it.
type Reply = (Vec<SearchMatch>, SearchStats, CacheEffect);

/// Chunks per multi-lane scan unit: 8 × [`crate::scanplane::CHUNK`] = 8192
/// documents — a few tens of microseconds of sweeping, coarse enough that
/// deque traffic is noise yet fine enough to balance shards across lanes.
const UNIT_CHUNKS: usize = 8;

/// One unit of scan work (see the [module docs](self)): a chunk range of one
/// selected shard's plane, or the whole shard. `pos` indexes the *selection*
/// (result row), not the store.
#[derive(Debug, PartialEq, Eq)]
struct ScanUnit {
    pos: usize,
    shard: usize,
    /// `None` = the whole shard.
    chunks: Option<std::ops::Range<usize>>,
}

impl ScanUnit {
    fn whole(pos: usize, shard: usize) -> Self {
        ScanUnit {
            pos,
            shard,
            chunks: None,
        }
    }
}

/// The planes of whatever `store` already holds: one per shard, slot for slot.
fn derive_planes<S: IndexStore>(store: &S) -> Vec<ScanPlane> {
    (0..store.num_shards())
        .map(|shard| {
            let mut plane = ScanPlane::new();
            for index in store.shard_documents(shard) {
                plane.push(index);
            }
            plane
        })
        .collect()
}

/// A pluggable, shard-parallel search engine over an [`IndexStore`].
///
/// Scan lanes beyond the caller's run on the process's shared, persistent lane
/// workers (spawning threads per query would cost more than scanning a
/// 10⁴-document shard on some hosts); the engine owns no thread. A one-lane
/// engine scans inline.
#[derive(Debug)]
pub struct SearchEngine<S: IndexStore> {
    store: S,
    /// `planes[s]` is the bit-sliced copy of `store.shard_documents(s)`, slot
    /// for slot — built in [`SearchEngine::new`], appended in
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

impl<S: IndexStore + Clone> Clone for SearchEngine<S> {
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

impl SearchEngine<ShardedStore> {
    /// An engine over a fresh single-shard store.
    pub fn sequential(params: SystemParams) -> Self {
        SearchEngine::sharded(params, 1)
    }

    /// A parallel engine over a fresh round-robin store with `num_shards` shards.
    pub fn sharded(params: SystemParams, num_shards: usize) -> Self {
        SearchEngine::new(ShardedStore::new(params, num_shards))
    }
}

impl<S: IndexStore> SearchEngine<S> {
    /// Run queries on an existing store. The engine starts with one scan lane
    /// per host core (shared pool workers plus the calling thread, which always
    /// takes one lane) — *not* per shard: multi-lane engines split shards into
    /// chunk-range units, so even a single-shard store fills every lane,
    /// and more busy threads than cores would only add scheduler thrash to a
    /// CPU-bound scan. Use [`SearchEngine::with_scan_lanes`] to pin a count.
    ///
    /// The result cache starts disabled; see [`SearchEngine::enable_cache`].
    pub fn new(store: S) -> Self {
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

    /// Builder-style [`SearchEngine::set_scan_lanes`].
    pub fn with_scan_lanes(mut self, lanes: usize) -> Self {
        self.set_scan_lanes(lanes);
        self
    }

    /// Set the number of parallel scan lanes one execution may use, clamped to
    /// `1..=available_parallelism` (lanes beyond the host's cores only thrash a
    /// CPU-bound scan; the lane-invisibility sweeps and multi-node deployments
    /// pin explicit counts with this). A field store: the lane workers are the
    /// process's, so no thread starts or stops; results are identical at any
    /// lane count.
    pub fn set_scan_lanes(&mut self, lanes: usize) {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.lanes = lanes.clamp(1, cores);
        self.telemetry
            .set_gauge(Gauge::ScanLanes, self.lanes as u64);
    }

    /// Builder-style [`SearchEngine::set_telemetry_level`].
    pub fn with_telemetry_level(self, level: TelemetryLevel) -> Self {
        self.set_telemetry_level(level);
        self
    }

    /// Set how much the engine's telemetry registry records (default
    /// [`TelemetryLevel::Off`]). Takes `&self`: the level is an atomic on the
    /// shared registry, so sessions can toggle telemetry on a live engine.
    /// Telemetry is **invisible** to execution — replies, [`SearchStats`] and
    /// cache counters are byte-identical at every level.
    pub fn set_telemetry_level(&self, level: TelemetryLevel) {
        self.telemetry.set_level(level);
    }

    /// Current telemetry recording level.
    pub fn telemetry_level(&self) -> TelemetryLevel {
        self.telemetry.level()
    }

    /// The engine's telemetry registry handle (cheap to clone; shared).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Snapshot the telemetry registry, refreshing the store gauges first so a
    /// report always carries current geometry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry
            .set_gauge(Gauge::ScanLanes, self.lanes as u64);
        self.telemetry
            .set_gauge(Gauge::StoreDocuments, self.store.len() as u64);
        self.telemetry
            .set_gauge(Gauge::StoreShards, self.store.num_shards() as u64);
        if let Some(cache) = &self.cache {
            self.telemetry
                .set_gauge(Gauge::CacheEntries, cache.lock().unwrap().len() as u64);
        }
        self.telemetry.snapshot()
    }

    /// Builder-style cache enablement: `SearchEngine::sharded(p, 4).with_result_cache(cfg)`.
    pub fn with_result_cache(mut self, config: CacheConfig) -> Self {
        self.enable_cache(config);
        self
    }

    /// Enable (or reconfigure) the per-shard result cache. Existing entries, if
    /// any, are discarded.
    pub fn enable_cache(&mut self, config: CacheConfig) {
        self.cache = Some(Mutex::new(ResultCache::new(
            self.store.num_shards(),
            config,
        )));
    }

    /// Disable the result cache, dropping every entry.
    pub fn disable_cache(&mut self) {
        self.cache = None;
    }

    /// True if the result cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Cache effectiveness counters, or `None` when the cache is disabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.lock().unwrap().stats())
    }

    /// Zero the cache effectiveness counters (no-op when disabled).
    pub fn reset_cache_stats(&self) {
        if let Some(cache) = &self.cache {
            cache.lock().unwrap().reset_stats();
        }
    }

    /// Drop every cached entry (no-op when disabled).
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.lock().unwrap().clear();
        }
    }

    /// The underlying store, read-only: documents come in through
    /// [`SearchEngine::insert`] so the planes and the cache see every one.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The scan plane the engine sweeps for `shard` — the equivalence suites
    /// and the scan bench read it to hold the layout to the AoS reference.
    pub fn scan_plane(&self, shard: usize) -> &ScanPlane {
        &self.planes[shard]
    }

    /// Consume the engine, returning the store.
    pub fn into_store(self) -> S {
        self.store
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
        let shard = self.append(index)?;
        self.telemetry.add(Counter::Inserts, 1);
        if let Some(cache) = &self.cache {
            cache.lock().unwrap().note_insert(shard);
            self.telemetry.record_cache_invalidation(shard);
        }
        Ok(())
    }

    /// Store one document and pack it onto the plane of the shard the store
    /// appended it to — the single place store and planes change, so they
    /// change together. Cache and telemetry accounting is the caller's.
    fn append(&mut self, index: RankedDocumentIndex) -> Result<usize, StoreError> {
        let shard = self.store.insert(index)?;
        let stored = self.store.shard_documents(shard).last();
        self.planes[shard].push(stored.expect("insert appended to the shard it named"));
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
    /// [`crate::persistence::serialize_index_store`]), appending the decoded
    /// indices in their original insertion order. Every cache generation is bumped
    /// afterwards, so entries cached before the restore can never be served again —
    /// also when the store refuses an index midway: the accepted prefix stays.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<usize, PersistenceError> {
        let indices = crate::persistence::deserialize_store(self.store.params(), bytes)?;
        let count = indices.len();
        let restored = indices
            .into_iter()
            .try_for_each(|index| self.append(index).map(drop));
        if let Some(cache) = &self.cache {
            cache.lock().unwrap().invalidate_all();
            self.telemetry
                .record_cache_invalidation_all(self.store.num_shards());
        }
        restored?;
        Ok(count)
    }

    /// The stored index of one document (O(1) on map-backed stores).
    pub fn document_index(&self, document_id: u64) -> Option<&RankedDocumentIndex> {
        self.store.document_index(document_id)
    }

    /// Carve the selected shards into scan units, in selection order (see the
    /// [module docs](self)): ascending [`UNIT_CHUNKS`]-chunk ranges of the
    /// shard's plane (= slot order within the shard; an empty plane yields no
    /// unit) when there are lanes to share them, the whole shard when there is
    /// one lane.
    fn carve_units(&self, shard_ids: &[usize]) -> Vec<ScanUnit> {
        let mut units = Vec::new();
        for (pos, &shard) in shard_ids.iter().enumerate() {
            if self.lanes > 1 {
                let chunks = self.planes[shard].num_chunks();
                units.extend((0..chunks).step_by(UNIT_CHUNKS).map(|lo| ScanUnit {
                    pos,
                    shard,
                    chunks: Some(lo..(lo + UNIT_CHUNKS).min(chunks)),
                }));
            } else {
                units.push(ScanUnit::whole(pos, shard));
            }
        }
        units
    }

    /// **The** executor: run `scan(unit)` for every unit on the engine's lanes.
    /// Units are dealt contiguously onto the lanes' deques, each lane drains its
    /// own deal head-first and then steals from other lanes' tails, and every
    /// unit's result lands in its own slot — so the returned vector is in unit
    /// order regardless of which lane ran what. Runs inline (in unit order) with
    /// one lane or one unit. Each unit is timed into [`Stage::UnitScan`], and a
    /// panicking scan is re-raised with the failing shard named (the pool adds
    /// the failing lane's job index).
    fn run_units<T, F>(&self, units: &[ScanUnit], scan: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&ScanUnit) -> T + Sync,
    {
        // Capture the span gate once per execution: `Instant::now` runs on
        // whatever lane executes the unit, so the drop-guard `Telemetry::span`
        // (which borrows `&self`) is replaced by an explicit timed pair here.
        let time_units = self.telemetry.level().spans_enabled();
        let run = |u: usize| -> T {
            let unit = &units[u];
            let started = time_units.then(Instant::now);
            // Name the shard in any scan panic before it crosses the pool boundary.
            let value = match catch_unwind(AssertUnwindSafe(|| scan(unit))) {
                Ok(value) => value,
                Err(payload) => {
                    let message = pool::panic_message(payload.as_ref());
                    resume_unwind(Box::new(format!("shard {}: {message}", unit.shard)));
                }
            };
            if let Some(started) = started {
                let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.telemetry.record_duration(Stage::UnitScan, ns);
            }
            value
        };
        let total = units.len();
        let lanes = self.lanes.min(self.pool.workers() + 1).min(total);
        if lanes <= 1 {
            let out: Vec<T> = (0..total).map(run).collect();
            if total > 0 {
                self.telemetry.record_lane(
                    0,
                    &LaneStats {
                        executed: total as u64,
                        ..LaneStats::default()
                    },
                );
            }
            return out;
        }
        let deques = StealDeques::new(total, lanes);
        let mut lane_results: Vec<Vec<(usize, T)>> = (0..lanes).map(|_| Vec::new()).collect();
        {
            let (deques, run, telemetry) = (&deques, &run, &self.telemetry);
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = lane_results
                .iter_mut()
                .enumerate()
                .map(|(lane, out)| {
                    Box::new(move || {
                        // Scheduler stats accumulate in lane-local plain
                        // integers and flush once after the drain: the claim
                        // loop stays free of shared-cacheline traffic.
                        let mut stats = LaneStats::default();
                        while let Some(unit) = deques.next_tracked(lane, &mut stats) {
                            out.push((unit, run(unit)));
                        }
                        telemetry.record_lane(lane, &stats);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            self.pool.run_scoped(jobs);
        }
        let mut results: Vec<Option<T>> = (0..total).map(|_| None).collect();
        for (unit, value) in lane_results.into_iter().flatten() {
            results[unit] = Some(value);
        }
        results
            .into_iter()
            .map(|r| r.expect("every unit claimed exactly once"))
            .collect()
    }

    /// One unit's ranked scan of a query set: the shard's bit-sliced
    /// [`ScanPlane`] sweeps the unit's chunks once, chunk-major with the
    /// queries inside — each query ORs the few bitmap rows it selects per
    /// chunk instead of per-document pointer chasing. The output is aligned with
    /// `queries` and bit-for-bit what [`crate::search::scan_ranked`] returns
    /// over the unit's documents — same matches, same scan order, same
    /// [`SearchStats`] (the equivalence suite and
    /// `mkse-core/tests/scanplane_equivalence.rs` hold it to that).
    fn scan_unit(&self, unit: &ScanUnit, queries: &[&QueryIndex]) -> Vec<ShardScan> {
        let plane = &self.planes[unit.shard];
        let bits: Vec<&BitIndex> = queries.iter().map(|q| q.bits()).collect();
        let chunks = unit.chunks.clone().unwrap_or(0..plane.num_chunks());
        plane.scan_ranked_batch_chunks(&bits, chunks)
    }

    /// The scan step of every ranked execution: scan each selected shard for
    /// its query subset (`subsets[pos]` belongs to `shard_ids[pos]`), returning
    /// per-shard rows aligned with `queries` order within each subset. The
    /// shards are carved into units, the units run on the executor, and the
    /// per-unit results are stitched back: within a shard, unit results
    /// concatenate in chunk (slot) order and stats sum — byte-identical to one
    /// whole-shard scan per selected shard. A shard with no units (an empty
    /// plane) keeps the whole-shard scan's empty result.
    fn scan_selected_shards(
        &self,
        shard_ids: &[usize],
        subsets: &[Vec<&QueryIndex>],
    ) -> Vec<Vec<ShardScan>> {
        debug_assert_eq!(shard_ids.len(), subsets.len());
        let units = self.carve_units(shard_ids);
        let unit_scans = self.run_units(&units, |unit| self.scan_unit(unit, &subsets[unit.pos]));
        let mut out: Vec<Vec<ShardScan>> = subsets
            .iter()
            .map(|subset| vec![(Vec::new(), SearchStats::default()); subset.len()])
            .collect();
        for (unit, scans) in units.iter().zip(unit_scans) {
            for ((matches, stats), (row_matches, row_stats)) in
                scans.into_iter().zip(&mut out[unit.pos])
            {
                row_matches.extend(matches);
                row_stats.merge(&stats);
            }
        }
        out
    }

    /// Number of parallel scan lanes one execution of this engine fans out to:
    /// shared pool workers plus the calling thread (which always takes one
    /// lane). Defaults
    /// to the host's available parallelism — independent of the shard count,
    /// because the executor splits and coalesces shards across lanes freely —
    /// and is always clamped to `1..=available_parallelism`
    /// (see [`SearchEngine::set_scan_lanes`]): more busy threads than cores
    /// only adds scheduler thrash to a CPU-bound scan.
    pub fn scan_lanes(&self) -> usize {
        self.lanes
    }

    /// The fingerprint keying this query's per-shard ranked-scan entries. Top-k is
    /// `None` because truncation happens *after* the cross-shard merge — one cached
    /// entry per shard serves every k.
    fn ranked_fingerprint(query: &QueryIndex) -> QueryFingerprint {
        QueryFingerprint::new(query.bits(), RankingMode::Ranked, None)
    }

    /// Ranked search (Algorithm 1) with execution statistics, merged across shards.
    pub fn search_ranked_with_stats(&self, query: &QueryIndex) -> (Vec<SearchMatch>, SearchStats) {
        let (matches, stats, _) = self.search_ranked_with_effect(query, None);
        (matches, stats)
    }

    /// Ranked search with statistics **and** the cache's contribution to this
    /// execution, keeping the first `top` matches (all of them for `None`).
    /// With the cache disabled the effect is all zeros. Matches and stats are
    /// byte-identical to the uncached execution either way, and `top` cuts
    /// only the matches: the stats and the effect are the whole scan's. A
    /// batch of one through the engine's one executor (see the
    /// [module docs](self)); it records `queries` and [`Stage::EngineQuery`].
    pub fn search_ranked_with_effect(
        &self,
        query: &QueryIndex,
        top: Option<usize>,
    ) -> (Vec<SearchMatch>, SearchStats, CacheEffect) {
        self.telemetry.add(Counter::Queries, 1);
        let _query_span = self.telemetry.span(Stage::EngineQuery);
        let mut replies = self.execute(std::slice::from_ref(query), &[top]);
        replies.pop().expect("one reply per query")
    }

    /// The single merge point for ranked execution: extend in shard order, sum
    /// the stats, and keep the first `top` matches of the (rank desc, id asc)
    /// total order — selected, and only those sorted
    /// ([`crate::search::top_matches`]). Cached and fresh shard results flow
    /// through this identically.
    fn merge_ranked<I: IntoIterator<Item = ShardScan>>(
        per_shard: I,
        top: Option<usize>,
    ) -> ShardScan {
        let mut matches = Vec::new();
        let mut stats = SearchStats::default();
        for (shard_matches, shard_stats) in per_shard {
            matches.extend(shard_matches);
            stats.merge(&shard_stats);
        }
        (top_matches(matches, top, |m| *m), stats)
    }

    /// Ranked search without statistics.
    pub fn search(&self, query: &QueryIndex) -> Vec<SearchMatch> {
        self.search_ranked_with_stats(query).0
    }

    /// Ranked search returning only the top `tau` matches (§5: "the user can
    /// retrieve only the top τ matches"). `tau` reaches the merge, which
    /// selects the `tau` kept and sorts only those; the per-shard cache entries
    /// stay k-independent, so one cached query serves every `tau`.
    pub fn search_top(&self, query: &QueryIndex, tau: usize) -> Vec<SearchMatch> {
        self.search_ranked_with_effect(query, Some(tau)).0
    }

    /// Execute many queries in one pass: each shard is scanned once for the whole
    /// batch, and per-query results are merged exactly as a single query's are.
    pub fn search_batch_with_stats(
        &self,
        queries: &[QueryIndex],
    ) -> Vec<(Vec<SearchMatch>, SearchStats)> {
        self.search_batch_with_effects(queries, &vec![None; queries.len()])
            .into_iter()
            .map(|(matches, stats, _)| (matches, stats))
            .collect()
    }

    /// Batched ranked search with per-query statistics and cache effects;
    /// reply `i` keeps the first `tops[i]` matches (all of them for `None`).
    ///
    /// Execution is **fused and deduplicated**: queries carrying identical
    /// [`QueryFingerprint`]s are scanned once (the first occurrence is the
    /// representative; every duplicate position receives a copy of its reply),
    /// and each shard worker receives its whole remaining query set in one
    /// [`crate::scanplane::ScanPlane::scan_ranked_batch`] pass — one lane
    /// hand-off and one merge per batch, not per query.
    /// With the cache enabled, each shard scans exactly the unique queries that
    /// missed it (fully cached queries trigger no scan at all), and duplicates
    /// are resolved through real cache lookups against what the representative
    /// admitted — so their [`CacheEffect`]s report the same hits, and the same
    /// saved comparisons, that issuing the b queries one at a time would have
    /// produced. Replies, per-query [`SearchStats`] and merge order are
    /// byte-identical to b independent single-query executions either way.
    ///
    /// One scoped caveat on the *diagnostics*: the distinct queries' cache
    /// lookups are phased (all before the fused scans — that is what makes one
    /// plane pass per shard possible), so when the cache is under eviction
    /// pressure **within a single batch** (`capacity_per_shard` smaller than the
    /// batch's distinct working set plus the warm entries it displaces), a
    /// [`CacheEffect`]/[`CacheStats`] entry may differ from strict one-at-a-time
    /// issue order — an earlier query's admission cannot evict an entry a later
    /// distinct query already looked up. Replies and [`SearchStats`] are never
    /// affected (the cache may change work accounting, never bytes), and
    /// duplicate positions always replay sequential cache traffic exactly.
    ///
    /// # Panics
    ///
    /// If `tops` and `queries` differ in length.
    pub fn search_batch_with_effects(
        &self,
        queries: &[QueryIndex],
        tops: &[Option<usize>],
    ) -> Vec<(Vec<SearchMatch>, SearchStats, CacheEffect)> {
        assert_eq!(queries.len(), tops.len(), "one top per query");
        if queries.is_empty() {
            return Vec::new();
        }
        self.telemetry.add(Counter::Batches, 1);
        self.telemetry
            .add(Counter::BatchQueries, queries.len() as u64);
        let _batch_span = self.telemetry.span(Stage::EngineBatch);
        self.execute(queries, tops)
    }

    /// **The** read path: every ranked execution, a single query included, is
    /// this batch executor (see the [module docs](self)). Replies come back in
    /// batch order, reply `i` cut to `tops[i]`.
    fn execute(&self, queries: &[QueryIndex], tops: &[Option<usize>]) -> Vec<Reply> {
        let shards = self.store.num_shards();
        let fingerprints: Vec<QueryFingerprint> =
            queries.iter().map(Self::ranked_fingerprint).collect();
        // Intra-batch dedup: uniques[row] is the batch position of a distinct
        // fingerprint's first occurrence (its representative), and rows[i] is
        // position i's row in the per-unique tables below.
        let mut uniques: Vec<usize> = Vec::new();
        let mut first_of: HashMap<&QueryFingerprint, usize> = HashMap::with_capacity(queries.len());
        let rows: Vec<usize> = (fingerprints.iter().enumerate())
            .map(|(i, fingerprint)| {
                *first_of.entry(fingerprint).or_insert_with(|| {
                    uniques.push(i);
                    uniques.len() - 1
                })
            })
            .collect();
        let tally = |effect: &mut CacheEffect, found: Option<&ShardScan>| match found {
            Some((_, stats)) => {
                effect.shard_hits += 1;
                effect.saved_comparisons += stats.comparisons;
            }
            None => effect.shard_misses += 1,
        };

        // Phase 1 — the distinct queries' lookups, in batch order.
        // resolved[row][shard] is a hit's entry; `None` (every shard, with the
        // cache off) is a shard to scan.
        let mut resolved: Vec<Vec<Option<ShardScan>>> = vec![vec![None; shards]; uniques.len()];
        let mut effects = vec![CacheEffect::default(); uniques.len()];
        let mut generations: Vec<u64> = Vec::new();
        if let Some(cache) = &self.cache {
            let _lookup_span = self.telemetry.span(Stage::CacheLookup);
            let mut cache = cache.lock().unwrap();
            generations = (0..shards).map(|shard| cache.generation(shard)).collect();
            for ((&u, slots), effect) in uniques.iter().zip(&mut resolved).zip(&mut effects) {
                for (shard, slot) in slots.iter_mut().enumerate() {
                    *slot = cache.lookup(shard, &fingerprints[u]);
                    self.telemetry.record_cache_lookup(shard, slot.is_some());
                    tally(effect, slot.as_ref());
                }
            }
        }

        // Phase 2 — fused scans: each shard sweeps exactly the distinct queries
        // that missed it, in one plane pass. Results only fill `resolved` here;
        // admissions happen in phase 3, in batch order.
        let mut rows_for_shard: Vec<Vec<usize>> = vec![Vec::new(); shards];
        // scanned_on[row] = the shards `row` was freshly scanned on (its
        // phase-1 misses) — the shards sequential execution would admit.
        let mut scanned_on: Vec<Vec<usize>> = vec![Vec::new(); uniques.len()];
        for (row, slots) in resolved.iter().enumerate() {
            for (shard, _) in slots.iter().enumerate().filter(|(_, s)| s.is_none()) {
                rows_for_shard[shard].push(row);
                scanned_on[row].push(shard);
            }
        }
        let shard_ids: Vec<usize> = (0..shards)
            .filter(|&shard| !rows_for_shard[shard].is_empty())
            .collect();
        if !shard_ids.is_empty() {
            self.telemetry
                .add(Counter::ShardScans, shard_ids.len() as u64);
            let subsets: Vec<Vec<&QueryIndex>> = (shard_ids.iter())
                .map(|&shard| {
                    (rows_for_shard[shard].iter())
                        .map(|&row| &queries[uniques[row]])
                        .collect()
                })
                .collect();
            let fresh = self.scan_selected_shards(&shard_ids, &subsets);
            for (&shard, scans) in shard_ids.iter().zip(fresh) {
                for (&row, scan) in rows_for_shard[shard].iter().zip(scans) {
                    resolved[row][shard] = Some(scan);
                }
            }
        }

        // Phase 3 — one pass over the batch in position order, replaying the
        // cache traffic sequential execution would generate: a representative
        // admits its freshly scanned shards; a duplicate resolves through real
        // lookups, hitting whatever is cached *at its position in the batch*
        // (normally what its representative just admitted — but under LRU
        // pressure an intervening admission may have evicted it, and then, like
        // sequential execution, the duplicate reports a miss and re-admits; the
        // "rescan" result is the representative's identical row). Distinct
        // queries' *lookups* stay phased (see `search_batch_with_effects`), so
        // only their diagnostics can deviate under intra-batch eviction
        // pressure; the admission order and every duplicate's traffic match
        // sequential execution exactly. Nothing to admit or resolve, no span.
        let mut duplicate_effects = vec![CacheEffect::default(); queries.len()];
        let has_duplicates = uniques.len() < queries.len();
        if let Some(cache) =
            (self.cache.as_ref()).filter(|_| !shard_ids.is_empty() || has_duplicates)
        {
            let _admit_span = self.telemetry.span(Stage::CacheAdmit);
            let mut cache = cache.lock().unwrap();
            for (i, (fingerprint, &row)) in fingerprints.iter().zip(&rows).enumerate() {
                if uniques[row] == i {
                    for &shard in &scanned_on[row] {
                        let (matches, stats) = resolved[row][shard].as_ref().expect("scanned");
                        let generation = generations[shard];
                        cache.admit(
                            shard,
                            fingerprint.clone(),
                            matches.clone(),
                            *stats,
                            generation,
                        );
                    }
                    continue;
                }
                for shard in 0..shards {
                    let found = cache.lookup(shard, fingerprint);
                    self.telemetry.record_cache_lookup(shard, found.is_some());
                    tally(&mut duplicate_effects[i], found.as_ref());
                    if found.is_none() {
                        let (matches, stats) = resolved[row][shard].clone().expect("resolved");
                        let generation = generations[shard];
                        cache.admit(shard, fingerprint.clone(), matches, stats, generation);
                    }
                }
            }
        }

        // Merge each distinct query once, at the widest `top` any of its
        // positions asks for (`None` — everything — outranks any cut). Every
        // position is then that list cut to its own `top`, beside its own
        // cache effect; a row's last position takes the list itself.
        let mut widest: Vec<Option<usize>> = vec![Some(0); uniques.len()];
        let mut last = vec![0; uniques.len()];
        for (i, (&row, &top)) in rows.iter().zip(tops).enumerate() {
            widest[row] = widest[row].zip(top).map(|(w, t)| w.max(t));
            last[row] = i;
        }
        let mut merged: Vec<ShardScan> = (resolved.into_iter().zip(widest))
            .map(|(slots, top)| {
                Self::merge_ranked(slots.into_iter().map(|s| s.expect("shard resolved")), top)
            })
            .collect();
        (rows.iter().zip(tops).enumerate())
            .map(|(i, (&row, &top))| {
                let effect = if uniques[row] == i {
                    effects[row]
                } else {
                    duplicate_effects[i]
                };
                let (matches, stats) = &mut merged[row];
                let keep = top.map_or(matches.len(), |k| k.min(matches.len()));
                let matches = if last[row] == i {
                    matches.truncate(keep);
                    std::mem::take(matches)
                } else {
                    matches[..keep].to_vec()
                };
                (matches, *stats, effect)
            })
            .collect()
    }

    /// Batched ranked search without statistics.
    pub fn search_batch(&self, queries: &[QueryIndex]) -> Vec<Vec<SearchMatch>> {
        self.search_batch_with_stats(queries)
            .into_iter()
            .map(|(matches, _)| matches)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document_index::DocumentIndexer;
    use crate::keys::SchemeKeys;
    use crate::persistence::serialize_store;
    use crate::query::QueryBuilder;
    use crate::search::{scan_ranked, CloudIndex};
    use mkse_textproc::document::TermFrequencies;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn sharded_engine_matches_sequential_reference() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 40);
        let mut reference = CloudIndex::new(fx.params.clone());
        reference.insert_all(indices.iter().cloned()).unwrap();
        let q = query(&mut fx, &["shared"]);
        let (seq_matches, seq_stats) = reference.search_ranked_with_stats(&q);

        for shards in [1usize, 2, 3, 8] {
            let mut engine = SearchEngine::sharded(fx.params.clone(), shards);
            engine.insert_all(indices.iter().cloned()).unwrap();
            let (matches, stats) = engine.search_ranked_with_stats(&q);
            assert_eq!(matches, seq_matches, "ranked mismatch at {shards} shards");
            assert_eq!(stats, seq_stats, "stats mismatch at {shards} shards");
        }
    }

    #[test]
    fn batch_results_equal_single_query_results() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 30);
        let mut engine = SearchEngine::sharded(fx.params.clone(), 4);
        engine.insert_all(indices).unwrap();
        let queries = vec![
            query(&mut fx, &["shared"]),
            query(&mut fx, &["kw3"]),
            query(&mut fx, &["kw5", "shared"]),
        ];
        let batched = engine.search_batch_with_stats(&queries);
        assert_eq!(batched.len(), 3);
        for (q, (matches, stats)) in queries.iter().zip(batched.iter()) {
            let (single_matches, single_stats) = engine.search_ranked_with_stats(q);
            assert_eq!(matches, &single_matches);
            assert_eq!(stats, &single_stats);
        }
        assert!(engine.search_batch(&[]).is_empty());
    }

    #[test]
    fn duplicate_batch_queries_scan_once_and_reply_like_sequential_execution() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 30);
        let q_a = query(&mut fx, &["shared"]);
        let q_b = query(&mut fx, &["kw3"]);
        // The batch repeats q_a (positions 0, 2, 3) and q_b (positions 1, 4).
        let batch = vec![
            q_a.clone(),
            q_b.clone(),
            q_a.clone(),
            q_a.clone(),
            q_b.clone(),
        ];

        // Cache off: duplicates are scanned once and fanned out; replies and
        // effects are byte-identical to independent executions (all-zero effects).
        let mut plain = SearchEngine::sharded(fx.params.clone(), 4);
        plain.insert_all(indices.iter().cloned()).unwrap();
        let results = plain.search_batch_with_effects(&batch, &vec![None; batch.len()]);
        for (query, (matches, stats, effect)) in batch.iter().zip(&results) {
            let (sm, ss) = plain.search_ranked_with_stats(query);
            assert_eq!(matches, &sm);
            assert_eq!(stats, &ss);
            assert_eq!(effect, &CacheEffect::default());
        }

        // Cache on: issuing the 5 queries one at a time admits on first sight and
        // hits on every repeat — the batch must report exactly those effects.
        let mut sequential =
            SearchEngine::sharded(fx.params.clone(), 4).with_result_cache(CacheConfig::default());
        sequential.insert_all(indices.iter().cloned()).unwrap();
        let expected: Vec<_> = batch
            .iter()
            .map(|q| sequential.search_ranked_with_effect(q, None))
            .collect();
        let expected_stats = sequential.cache_stats().unwrap();

        let mut cached =
            SearchEngine::sharded(fx.params.clone(), 4).with_result_cache(CacheConfig::default());
        cached.insert_all(indices.iter().cloned()).unwrap();
        let got = cached.search_batch_with_effects(&batch, &vec![None; batch.len()]);
        assert_eq!(got, expected, "batched execution must equal sequential");
        assert!(got[2].2.fully_cached(), "duplicate is a pure cache hit");
        assert_eq!(got[2].2.saved_comparisons, got[2].1.comparisons);
        assert_eq!(
            cached.cache_stats().unwrap(),
            expected_stats,
            "dedup must leave the same CacheStats trail as sequential execution"
        );
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
            .map(|q| sequential.search_ranked_with_effect(q, None))
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
            batched.search_ranked_with_effect(&q_b, None),
            sequential.search_ranked_with_effect(&q_b, None)
        );
        assert!(batched
            .search_ranked_with_effect(&q_b, None)
            .2
            .fully_cached());
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
            .map(|q| sequential.search_ranked_with_effect(q, None))
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

    /// The corpus of `fx` in a 4-shard engine, cache on or off.
    fn engine_with(
        fx: &Fixture,
        indices: &[RankedDocumentIndex],
        cached: bool,
    ) -> SearchEngine<ShardedStore> {
        let mut engine = SearchEngine::sharded(fx.params.clone(), 4);
        if cached {
            engine.enable_cache(CacheConfig::default());
        }
        engine.insert_all(indices.iter().cloned()).unwrap();
        engine
    }

    #[test]
    fn top_zero_and_top_max_cost_what_an_uncut_execution_costs() {
        // `Some(0)` must keep nothing without computing `k − 1`, and
        // `Some(usize::MAX)` keep everything; neither may move a stat, a
        // cache effect or a cache counter away from the uncut execution's.
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 30);
        let (q_a, q_b) = (query(&mut fx, &["shared"]), query(&mut fx, &["kw3"]));
        let batch = vec![q_a.clone(), q_b, q_a.clone()];
        for cached in [false, true] {
            for top in [Some(0), Some(usize::MAX)] {
                let (uncut, cut) = (
                    engine_with(&fx, &indices, cached),
                    engine_with(&fx, &indices, cached),
                );
                for pass in ["cold", "warm"] {
                    let ctx = format!("cached={cached}, top={top:?}, {pass}");
                    let (want, got) = (
                        uncut.search_ranked_with_effect(&q_a, None),
                        cut.search_ranked_with_effect(&q_a, top),
                    );
                    let want_batch = uncut.search_batch_with_effects(&batch, &[None; 3]);
                    let got_batch = cut.search_batch_with_effects(&batch, &[top; 3]);
                    for (want, got) in
                        std::iter::once((&want, &got)).chain(want_batch.iter().zip(&got_batch))
                    {
                        assert!(!want.0.is_empty(), "{ctx}");
                        let kept = if top == Some(0) { &[][..] } else { &want.0[..] };
                        assert_eq!(got.0, kept, "{ctx}");
                        assert_eq!((got.1, got.2), (want.1, want.2), "{ctx}");
                    }
                    assert_eq!(cut.cache_stats(), uncut.cache_stats(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn duplicates_with_different_tops_are_merged_once_and_cut_per_position() {
        // q_a repeats at positions 0, 2, 3 and 5 with four different `top`s
        // (the widest, `None`, in the middle), q_b at 1 and 4: every position
        // must equal its own single execution on a twin — matches, stats and
        // cache effect — and leave the twin's cache counters.
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 30);
        let (q_a, q_b) = (query(&mut fx, &["shared"]), query(&mut fx, &["kw3"]));
        let batch = [&q_a, &q_b, &q_a, &q_a, &q_b, &q_a].map(QueryIndex::clone);
        let tops = [Some(2), None, Some(0), None, Some(1), Some(5)];
        for cached in [false, true] {
            let (sequential, batched) = (
                engine_with(&fx, &indices, cached),
                engine_with(&fx, &indices, cached),
            );
            for pass in ["cold", "warm"] {
                let expected: Vec<_> = (batch.iter().zip(tops))
                    .map(|(q, top)| sequential.search_ranked_with_effect(q, top))
                    .collect();
                assert!(expected[3].0.len() > 5, "the cuts must bite");
                let got = batched.search_batch_with_effects(&batch, &tops);
                assert_eq!(got, expected, "cached={cached}, {pass}");
                assert_eq!(
                    batched.cache_stats(),
                    sequential.cache_stats(),
                    "cached={cached}, {pass}"
                );
            }
        }
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

    #[test]
    fn lane_knob_does_not_change_results() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 40);
        let q = query(&mut fx, &["shared"]);
        let mut engine = SearchEngine::sharded(fx.params.clone(), 3);
        engine.insert_all(indices).unwrap();
        let baseline = engine.search_ranked_with_stats(&q);
        for lanes in [1usize, 2, 5] {
            engine.set_scan_lanes(lanes);
            assert_eq!(
                engine.search_ranked_with_stats(&q),
                baseline,
                "lanes={lanes}"
            );
        }
    }

    /// Force a multi-lane pool regardless of the host's core count (the struct
    /// literal bypasses `set_scan_lanes`' clamp) so genuine concurrent stealing
    /// runs even on single-core CI hosts.
    fn forced_lane_engine<S: IndexStore>(store: S, lanes: usize) -> SearchEngine<S> {
        forced_lane_engine_on(store, lanes, Arc::new(WorkerPool::new(lanes - 1)))
    }

    /// [`forced_lane_engine`] on an injected pool, so several engines can share
    /// one set of private workers the way a process's engines share
    /// [`WorkerPool::shared`].
    fn forced_lane_engine_on<S: IndexStore>(
        store: S,
        lanes: usize,
        pool: Arc<WorkerPool>,
    ) -> SearchEngine<S> {
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
    fn work_stealing_on_forced_multi_lane_pool_matches_sequential_reference() {
        use crate::scanplane::CHUNK;
        // 3 shards of 16 full chunks + 100 documents of a 17th: 3 units each,
        // 9 units over 2 or 3 lanes, so pops and steals genuinely interleave.
        let (store, mut next_bits) = raw_store(3, 3 * (2 * UNIT_CHUNKS * CHUNK + 100));
        let mut reference = CloudIndex::new(store.params().clone());
        reference
            .insert_all(store.documents_in_insertion_order().into_iter().cloned())
            .unwrap();
        let queries: Vec<QueryIndex> = (0..5)
            .map(|_| QueryIndex::from_bits(next_bits(64)))
            .collect();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| reference.search_ranked_with_stats(q))
            .collect();
        // Aggregated across the forced multi-lane configs below: the lanes must
        // record genuine steals, and recording them must not perturb a single
        // reply byte.
        let mut total_steals = 0u64;
        let mut total_executed = 0u64;
        for lanes in [2usize, 3] {
            let engine = forced_lane_engine(store.clone(), lanes);
            engine.set_telemetry_level(TelemetryLevel::Counters);
            for (q, want) in queries.iter().zip(&expected) {
                assert_eq!(&engine.search_ranked_with_stats(q), want, "lanes={lanes}");
            }
            assert_eq!(
                engine.search_batch_with_stats(&queries),
                expected,
                "fused batch, lanes={lanes}"
            );
            let snap = engine.metrics_snapshot();
            total_steals += snap.total_steals();
            total_executed += snap.lanes.iter().map(|l| l.executed).sum::<u64>();
        }
        // Every unit execution is accounted: per lane count, 5 single queries
        // and one fused batch over 9 chunk-range units each.
        assert_eq!(
            total_executed,
            2 * 6 * 9,
            "lane counters must see every executed unit"
        );
        // And at least one lane stole: the caller lane drains its own deal
        // inline and then eats from workers still waking up, so a forced
        // multi-lane run cannot finish steal-free.
        assert!(
            total_steals > 0,
            "forced multi-lane work-stealing runs must record steals"
        );
    }

    #[test]
    fn engines_sharing_one_pool_each_match_their_own_reference() {
        use crate::scanplane::CHUNK;
        // Invariant 5 across engines: three engines over different corpora
        // (seed, shard count and size all differ) ask ONE two-worker pool for
        // three lanes each, concurrently — so lanes queue behind other engines'
        // scans, get taken back, and steal — and every reply must still be its
        // own engine's sequential reference, stats included.
        let pool = Arc::new(WorkerPool::new(2));
        struct Case {
            engine: SearchEngine<ShardedStore>,
            reference: CloudIndex,
            queries: Vec<QueryIndex>,
        }
        let cases: Vec<Case> = [(0x51u64, 3usize, 2usize), (0x52, 2, 3), (0x53, 1, 4)]
            .into_iter()
            .map(|(seed, shards, units_per_shard)| {
                let docs = shards * (units_per_shard * UNIT_CHUNKS * CHUNK + 100);
                let (store, mut next_bits) = raw_store_seeded(seed, shards, docs);
                let mut reference = CloudIndex::new(store.params().clone());
                reference
                    .insert_all(store.documents_in_insertion_order().into_iter().cloned())
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
                    for round in 0..3 {
                        for (q, want) in case.queries.iter().zip(&expected) {
                            assert_eq!(
                                &case.engine.search_ranked_with_stats(q),
                                want,
                                "engine {n}, round {round}"
                            );
                        }
                        assert_eq!(
                            case.engine.search_batch_with_stats(&case.queries),
                            expected,
                            "fused batch, engine {n}, round {round}"
                        );
                    }
                });
            }
        });
        let steals: u64 = cases
            .iter()
            .map(|case| case.engine.metrics_snapshot().total_steals())
            .sum();
        assert!(steals > 0, "shared-pool runs must record steals");
    }

    #[test]
    fn units_are_carved_from_lanes_and_planes() {
        use crate::scanplane::CHUNK;
        // Each of the 2 shards gets 18 full chunks and 10 documents of a 19th:
        // two full units and a ragged 3-chunk one.
        let (store, mut next_bits) = raw_store(2, 2 * (2 * UNIT_CHUNKS + 2) * CHUNK + 2 * 10);
        // The selection order is the unit order; `pos` indexes the selection.
        let selection = [1usize, 0];

        // One lane: nobody to share with, one whole-shard unit per selection.
        let one_lane = forced_lane_engine(store.clone(), 1);
        assert_eq!(
            one_lane.carve_units(&selection),
            vec![ScanUnit::whole(0, 1), ScanUnit::whole(1, 0)]
        );

        // Multi-lane: ascending 8-chunk ranges, ragged last unit.
        let two_lanes = forced_lane_engine(store.clone(), 2);
        let range = |pos: usize, shard: usize, chunks: std::ops::Range<usize>| ScanUnit {
            pos,
            shard,
            chunks: Some(chunks),
        };
        assert_eq!(
            two_lanes.carve_units(&selection),
            vec![
                range(0, 1, 0..8),
                range(0, 1, 8..16),
                range(0, 1, 16..19),
                range(1, 0, 0..8),
                range(1, 0, 8..16),
                range(1, 0, 16..19),
            ]
        );

        // An empty plane carves into zero units, and the stitched row is the
        // whole-shard scan's: no matches, zeroed stats.
        let empty = forced_lane_engine(ShardedStore::new(store.params().clone(), 2), 2);
        assert!(empty.carve_units(&[0, 1]).is_empty());
        let q = QueryIndex::from_bits(next_bits(64));
        assert_eq!(
            empty.scan_selected_shards(&[0, 1], &[vec![&q], vec![&q]]),
            vec![vec![(Vec::new(), SearchStats::default())]; 2]
        );
    }

    /// Every plane is its shard, slot for slot: same length, ids and geometry,
    /// and the same answer to `probe` as the AoS loop over the documents.
    fn assert_planes_in_lockstep<S: IndexStore>(
        engine: &SearchEngine<S>,
        probe: &QueryIndex,
        ctx: &str,
    ) {
        let store = engine.store();
        for shard in 0..store.num_shards() {
            let (plane, docs) = (engine.scan_plane(shard), store.shard_documents(shard));
            assert_eq!(plane.len(), docs.len(), "{ctx}: shard {shard}");
            let ids: Vec<u64> = docs.iter().map(|d| d.document_id).collect();
            assert_eq!(plane.ids(), &ids[..], "{ctx}: shard {shard}");
            assert_eq!(plane.bits(), store.params().index_bits, "{ctx}");
            assert_eq!(plane.levels(), store.params().rank_levels(), "{ctx}");
            assert_eq!(
                plane.scan_ranked(probe.bits()),
                scan_ranked(docs, probe),
                "{ctx}: shard {shard}"
            );
        }
    }

    #[test]
    fn scan_planes_stay_in_lockstep_with_shard_documents() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 14);
        let probe = query(&mut fx, &["shared"]);
        for shards in [1usize, 3] {
            let mut engine = SearchEngine::sharded(fx.params.clone(), shards);
            engine.insert_all(indices[..10].iter().cloned()).unwrap();
            assert_planes_in_lockstep(&engine, &probe, "insert_all");

            // A rejected insert must not dirty any plane.
            assert!(engine.insert(indices[3].clone()).is_err());
            assert_planes_in_lockstep(&engine, &probe, "rejected duplicate");

            // A restore appends through the same door…
            let tail = serialize_store(&fx.params, &indices[10..12]);
            assert_eq!(engine.restore_snapshot(&tail), Ok(2));
            assert_planes_in_lockstep(&engine, &probe, "restore");
            // …and one the store refuses midway keeps exactly its accepted prefix.
            let refused = serialize_store(&fx.params, [&indices[12], &indices[0], &indices[13]]);
            assert!(engine.restore_snapshot(&refused).is_err());
            assert_eq!(engine.len(), 13);
            assert_planes_in_lockstep(&engine, &probe, "restore refused midway");

            // An engine handed a pre-filled store derives its planes from it,
            // and a clone is built the same way.
            let rebuilt = SearchEngine::new(engine.store().clone());
            assert_planes_in_lockstep(&rebuilt, &probe, "new over a pre-filled store");
            assert_planes_in_lockstep(&engine.clone(), &probe, "clone");
        }
    }

    #[test]
    fn top_k_truncates_merged_ranking() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 25);
        let mut engine = SearchEngine::sharded(fx.params.clone(), 3);
        engine.insert_all(indices).unwrap();
        let q = query(&mut fx, &["shared"]);
        let all = engine.search(&q);
        let top = engine.search_top(&q, 4);
        assert_eq!(top.len(), 4.min(all.len()));
        assert_eq!(&all[..top.len()], &top[..]);
        for w in all.windows(2) {
            assert!(
                w[0].rank > w[1].rank
                    || (w[0].rank == w[1].rank && w[0].document_id < w[1].document_id)
            );
        }
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
    fn sequential_constructor_runs_on_a_one_shard_store() {
        let mut fx = fixture();
        let mut engine = SearchEngine::sequential(fx.params.clone());
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        engine.insert(indexer.index_keywords(0, &["kw0"])).unwrap();
        assert_eq!(engine.store().num_shards(), 1);
        let q = query(&mut fx, &["kw0"]);
        let ids: Vec<u64> = engine.search(&q).iter().map(|m| m.document_id).collect();
        assert_eq!(ids, vec![0]);
        assert_eq!(engine.params().index_bits, 448);
        assert_eq!(engine.into_store().len(), 1);
    }

    #[test]
    fn cached_engine_returns_identical_results_and_reports_hits() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 40);
        let mut plain = SearchEngine::sharded(fx.params.clone(), 4);
        plain.insert_all(indices.iter().cloned()).unwrap();
        let mut cached =
            SearchEngine::sharded(fx.params.clone(), 4).with_result_cache(CacheConfig::default());
        cached.insert_all(indices.iter().cloned()).unwrap();
        assert!(cached.cache_enabled() && !plain.cache_enabled());

        let q = query(&mut fx, &["shared"]);
        let (m1, s1, e1) = cached.search_ranked_with_effect(&q, None);
        assert_eq!(e1.shard_misses, 4, "cold cache scans every shard");
        assert_eq!(e1.shard_hits, 0);
        assert!(!e1.fully_cached());
        let (m2, s2, e2) = cached.search_ranked_with_effect(&q, None);
        assert_eq!(e2.shard_hits, 4, "repeat is served from cache");
        assert_eq!(e2.shard_misses, 0);
        assert!(e2.fully_cached());
        assert_eq!(e2.saved_comparisons, s2.comparisons);

        let (pm, ps) = plain.search_ranked_with_stats(&q);
        assert_eq!(m1, pm);
        assert_eq!(m2, pm);
        assert_eq!(s1, ps, "first (admitting) stats identical");
        assert_eq!(s2, ps, "cached stats identical");

        let stats = cached.cache_stats().unwrap();
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.saved_comparisons, ps.comparisons);
    }

    #[test]
    fn insert_invalidates_only_the_written_shard() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 12);
        let mut engine =
            SearchEngine::sharded(fx.params.clone(), 3).with_result_cache(CacheConfig::default());
        engine.insert_all(indices.iter().cloned()).unwrap();
        let q = query(&mut fx, &["shared"]);
        let _ = engine.search_ranked_with_effect(&q, None); // warm all 3 shards

        // 12 documents round-robin over 3 shards ⇒ the next insert goes to shard 0.
        let indexer = DocumentIndexer::new(&fx.params, &fx.keys);
        engine
            .insert(indexer.index_keywords(100, &["kw1"]))
            .unwrap();

        let (_, _, effect) = engine.search_ranked_with_effect(&q, None);
        assert_eq!(effect.shard_hits, 2, "two shards stayed cached");
        assert_eq!(effect.shard_misses, 1, "only the written shard rescans");
        assert_eq!(engine.cache_stats().unwrap().invalidations, 1);
    }

    #[test]
    fn batch_uses_cache_and_matches_uncached_batch() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 30);
        let mut plain = SearchEngine::sharded(fx.params.clone(), 4);
        plain.insert_all(indices.iter().cloned()).unwrap();
        let mut cached =
            SearchEngine::sharded(fx.params.clone(), 4).with_result_cache(CacheConfig::default());
        cached.insert_all(indices.iter().cloned()).unwrap();

        let queries = vec![
            query(&mut fx, &["shared"]),
            query(&mut fx, &["kw3"]),
            query(&mut fx, &["kw5", "shared"]),
        ];
        // Warm only the first query through the single path.
        let _ = cached.search_ranked_with_effect(&queries[0], None);

        let expected = plain.search_batch_with_stats(&queries);
        let got = cached.search_batch_with_effects(&queries, &vec![None; queries.len()]);
        assert_eq!(got.len(), expected.len());
        for ((m, s, effect), (em, es)) in got.iter().zip(&expected) {
            assert_eq!(m, em);
            assert_eq!(s, es);
            assert_eq!(effect.shard_hits + effect.shard_misses, 4);
        }
        assert!(got[0].2.fully_cached(), "warmed query fully cached");
        assert_eq!(got[1].2.shard_misses, 4, "cold query scans everywhere");

        // The whole batch again: every (query, shard) pair now hits.
        let again = cached.search_batch_with_effects(&queries, &vec![None; queries.len()]);
        for ((m, s, effect), (em, es)) in again.iter().zip(&expected) {
            assert_eq!(m, em);
            assert_eq!(s, es);
            assert!(effect.fully_cached());
        }
    }

    #[test]
    fn restore_invalidates_everything() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 22);
        let mut engine =
            SearchEngine::sharded(fx.params.clone(), 2).with_result_cache(CacheConfig::default());
        engine.insert_all(indices[..20].iter().cloned()).unwrap();
        let q = query(&mut fx, &["shared"]);
        let _ = engine.search_ranked_with_effect(&q, None);
        assert!(engine.search_ranked_with_effect(&q, None).2.fully_cached());

        // A restore the store refuses midway still stored its accepted prefix
        // (document 20, into shard 0), so nothing cached may be served after it.
        let refused = serialize_store(&fx.params, [&indices[20], &indices[0], &indices[21]]);
        assert_eq!(
            engine.restore_snapshot(&refused),
            Err(PersistenceError::Store(StoreError::DuplicateDocument(0)))
        );
        assert_eq!(engine.len(), 21);
        assert_eq!(engine.search_ranked_with_effect(&q, None).2.shard_hits, 0);

        // A snapshot/restore cycle also invalidates (and restores content).
        let bytes = engine.snapshot();
        let mut restored =
            SearchEngine::sharded(fx.params.clone(), 5).with_result_cache(CacheConfig::default());
        assert_eq!(restored.restore_snapshot(&bytes).unwrap(), 21);
        let (rm, rs, re) = restored.search_ranked_with_effect(&q, None);
        let (em, es, _) = engine.search_ranked_with_effect(&q, None);
        assert_eq!(rm, em);
        assert_eq!(rs, es);
        assert_eq!(re.shard_hits, 0, "restored engine starts cold");
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
        let _ = engine.search(&q);
        let clone = engine.clone();
        assert!(clone.cache_enabled());
        assert_eq!(clone.cache_stats().unwrap(), CacheStats::default());
        let (_, _, effect) = clone.search_ranked_with_effect(&q, None);
        assert_eq!(effect.shard_hits, 0);
        // And disabling works.
        let mut off = clone;
        off.disable_cache();
        assert!(!off.cache_enabled());
        assert_eq!(off.cache_stats(), None);
    }

    #[test]
    fn cache_maintenance_helpers() {
        let mut fx = fixture();
        let indices = corpus_indices(&fx, 8);
        let mut engine =
            SearchEngine::sharded(fx.params.clone(), 2).with_result_cache(CacheConfig::default());
        engine.insert_all(indices).unwrap();
        let q = query(&mut fx, &["shared"]);
        let _ = engine.search(&q);
        let _ = engine.search(&q);
        assert!(engine.cache_stats().unwrap().hits > 0);
        engine.reset_cache_stats();
        assert_eq!(engine.cache_stats().unwrap(), CacheStats::default());
        engine.clear_cache();
        let (_, _, effect) = engine.search_ranked_with_effect(&q, None);
        assert_eq!(effect.shard_hits, 0, "cleared cache serves nothing");
    }

    /// The one shard of `inner` dressed as shard 2 of four, the other three
    /// empty — so a query the plane refuses (one of the wrong length, which
    /// the front door keeps out in production) panics inside shard 2's scan
    /// units and nowhere else, exercising the panic-context propagation
    /// through the worker pool.
    struct LoneShardStore {
        inner: ShardedStore,
    }

    const LONE_SHARD: usize = 2;

    impl IndexStore for LoneShardStore {
        fn params(&self) -> &SystemParams {
            self.inner.params()
        }
        fn insert(&mut self, index: RankedDocumentIndex) -> Result<usize, StoreError> {
            self.inner.insert(index).map(|_| LONE_SHARD)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn num_shards(&self) -> usize {
            4
        }
        fn shard_documents(&self, shard: usize) -> &[RankedDocumentIndex] {
            match shard {
                LONE_SHARD => self.inner.shard_documents(0),
                _ => &[],
            }
        }
        fn ordinal(&self, _shard: usize, slot: usize) -> u64 {
            self.inner.ordinal(0, slot)
        }
        fn document_index(&self, document_id: u64) -> Option<&RankedDocumentIndex> {
            self.inner.document_index(document_id)
        }
    }

    /// A query one bit longer than `params` allows.
    fn wrong_length_query(params: &SystemParams) -> QueryIndex {
        QueryIndex::from_bits(BitIndex::all_ones(params.index_bits + 1))
    }

    #[test]
    fn scan_panic_names_the_failing_shard() {
        let fx = fixture();
        let mut inner = ShardedStore::new(fx.params.clone(), 1);
        inner.insert_all(corpus_indices(&fx, 16)).unwrap();
        let engine = SearchEngine::new(LoneShardStore { inner });
        // Only shard 2 has a plane to hold the query to, on whichever lane
        // runs its unit; the empty shards answer any length with nothing.
        let bad = wrong_length_query(&fx.params);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| engine.search(&bad)));
        let payload = result.expect_err("a wrong-length query must panic the scan");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("string panic payload");
        assert!(
            message.contains("shard 2"),
            "panic must name the failing shard: {message}"
        );
        assert!(
            message.contains("length mismatch"),
            "panic must forward the original message: {message}"
        );
    }

    #[test]
    fn a_panicking_engine_does_not_disturb_its_pool_mates() {
        use crate::scanplane::CHUNK;
        // Engines A and B run their lanes on one injected pool. A's only
        // documents sit in its shard 2, two 8-chunk units of them, so a query
        // of the wrong length panics on both lanes while B queries: B's
        // replies are its reference's, A's panic still names its job and
        // shard, and the pool serves both afterwards.
        let mut fx = fixture();
        let pool = Arc::new(WorkerPool::new(1));
        let (inner, _) = raw_store(1, UNIT_CHUNKS * CHUNK + 1);
        let a_params = inner.params().clone();
        let a = forced_lane_engine_on(LoneShardStore { inner }, 2, Arc::clone(&pool));
        assert_eq!(a.carve_units(&[LONE_SHARD]).len(), 2);
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
                let message = pool::panic_message(payload.as_ref());
                assert!(
                    message.starts_with("shard scan panicked: job ")
                        && message.contains(": shard 2: ")
                        && message.contains("length mismatch"),
                    "panic must name the failing job and shard: {message}"
                );
            }
        });

        assert_eq!(a.search_ranked_with_stats(&everything), a_healthy);
        assert_eq!(b.search_ranked_with_stats(&q), b_ranked);
    }
}
