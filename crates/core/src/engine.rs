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
//!   for a reply cut to τ with the cache off, a superset of the shard's best τ;
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
//! Stitching is deterministic: every unit's result lands in its own slot (one
//! `OnceLock` per unit), a shard's unit results concatenate in chunk order and its stats
//! sum, so replies, [`SearchStats`] and cache traffic are byte-identical to the
//! sequential scan no matter how many lanes there are or which lane ran which
//! unit. The cache never sees units: lookups and admissions happen per whole
//! shard, on the stitched per-shard results, and only ever on uncut ones.
//!
//! ## One read path: a single query is a batch of one
//!
//! Every ranked execution is [`SearchEngine::search_batch_with_effects`], in
//! three phases: the cache lookups of the batch's distinct queries, **one fused
//! pass** per shard over the (cache-missed, intra-batch-deduplicated) query set
//! ([`crate::scanplane::ScanPlane::scan_ranked_batch_chunks`]) — one lane
//! hand-off and one merge per batch, not per query — and the admissions, in
//! batch order. The single-query entries ([`SearchEngine::search`],
//! [`SearchEngine::search_top`], [`SearchEngine::search_ranked_with_stats`]) are
//! views of it on a batch of one. Queries with identical bits inside one batch
//! are scanned once and fanned out to every duplicate position; with the cache
//! enabled the duplicates are resolved through real cache lookups against what
//! the first occurrence admitted — exactly the hits sequential execution would
//! produce, counted in the same [`CacheEffect`]/[`CacheStats`] counters.
//!
//! The reply's `top` (§5's τ) reaches the sweep. A query repeated inside a
//! batch is scanned and merged once, at the widest `top` among its positions,
//! and each position is cut to its own. With the cache off, every scan unit
//! keeps only its best `top` matches
//! ([`crate::scanplane::ScanPlane::scan_ranked_batch_chunks`]): a match that
//! `top` matches the unit already holds beat is counted but never
//! materialized, and no lane ships more than `top` matches per query to the
//! merge. With the cache on, units keep every match, so an admitted entry is
//! the shard's whole list in slot order, independent of k, and one cached
//! query serves every `top`. Either way the merge selects the `top` matches
//! the reply keeps and sorts only those ([`crate::search::top_matches`]), and
//! the stats are always the whole scan's.
//!
//! Every execution records one telemetry family, whatever its size: `batches`,
//! `batch_queries` and one [`Stage::EngineBatch`] sample, beside the cache
//! lookups, shard scans and unit spans. A [`Stage::CacheAdmit`] span opens only
//! when the third phase admits or resolves something, so a fully cached
//! execution records no admit.
//!
//! ## The result cache
//!
//! With [`SearchEngine::enable_cache`] (or [`SearchEngine::with_result_cache`]) the
//! engine memoizes **per-shard scan results** in a [`ResultCache`], keyed by the
//! query bits themselves. On a repeated query the shard scan is skipped
//! entirely for every shard that hits; missed shards are scanned (in parallel,
//! as usual) and admitted. Cached and uncached execution are
//! byte-identical — cached entries hold exactly what the scan returned, including
//! the per-shard [`SearchStats`], and flow through the same merge — so enabling the
//! cache changes wall-clock time and *actual* comparisons performed, never results.
//! Inserts bump only the written shard's generation (see [`crate::cache`]);
//! [`SearchEngine::restore_snapshot`] invalidates every shard once, so no stale
//! entry survives a reload.

use crate::bitindex::BitIndex;
use crate::cache::{CacheConfig, CacheEffect, CacheStats, ResultCache};
use crate::document_index::RankedDocumentIndex;
use crate::params::SystemParams;
use crate::persistence::PersistenceError;
use crate::query::QueryIndex;
use crate::scanplane::ScanPlane;
use crate::search::{top_matches, SearchMatch, SearchStats};
use crate::storage::{ShardedStore, StoreError};
use crate::telemetry::{
    Counter, Gauge, LabelledCounter, MetricsSnapshot, Stage, Telemetry, TelemetryLevel,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod pool;
use pool::WorkerPool;

/// One shard's ranked-scan output: its matches plus the shard's stats. The
/// stats are always the whole shard's. The matches are every match in slot
/// order — what [`crate::search::scan_ranked`] returns and what the cache
/// memoizes — or, for a kept scan (cache off, a reply cut to τ), each scan
/// unit's best τ, which the merge cuts to the same τ.
type ShardScan = (Vec<SearchMatch>, SearchStats);

/// One query's reply: merged matches, merged stats and the cache's part in it.
type Reply = (Vec<SearchMatch>, SearchStats, CacheEffect);

/// Chunks per scan unit: 8 × [`crate::scanplane::CHUNK`] = 8192
/// documents — a few tens of microseconds of sweeping, coarse enough that
/// claim traffic is noise yet fine enough to balance shards across lanes.
const UNIT_CHUNKS: usize = 8;

/// The shared claim counter of one execution, on a cache line of
/// its own: the line every lane writes holds nothing else of the caller's
/// frame.
#[repr(align(128))]
struct ClaimCounter(AtomicUsize);

/// One unit of scan work (see the [module docs](self)): a chunk range of one
/// selected shard's plane. `pos` indexes the *selection* (result row), not
/// the store.
#[derive(Debug, PartialEq, Eq)]
struct ScanUnit {
    pos: usize,
    shard: usize,
    chunks: std::ops::Range<usize>,
}

/// Render a panic payload for the shard-naming context of a scan panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

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

/// The per-shard counter a cache lookup's outcome adds to.
fn lookup_outcome(hit: bool) -> LabelledCounter {
    if hit {
        LabelledCounter::ShardCacheHits
    } else {
        LabelledCounter::ShardCacheMisses
    }
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

    /// Carve the selected shards into scan units, in selection order (see the
    /// [module docs](self)): ascending [`UNIT_CHUNKS`]-chunk ranges of each
    /// shard's plane (= slot order within the shard; an empty plane yields no
    /// unit).
    fn carve_units(&self, shard_ids: &[usize]) -> Vec<ScanUnit> {
        let mut units = Vec::new();
        for (pos, &shard) in shard_ids.iter().enumerate() {
            let chunks = self.planes[shard].num_chunks();
            units.extend((0..chunks).step_by(UNIT_CHUNKS).map(|lo| ScanUnit {
                pos,
                shard,
                chunks: lo..(lo + UNIT_CHUNKS).min(chunks),
            }));
        }
        units
    }

    /// **The** executor: run `scan(unit)` for every unit on the engine's lanes.
    /// Every lane runs the same drain loop — claim the next unit index from one
    /// shared counter, run it, stop once the counter passes the last unit — and
    /// every unit's result lands in its own slot, so the returned vector is in
    /// unit order regardless of which lane ran what. Each unit is timed into
    /// [`Stage::UnitScan`], and a panicking scan is re-raised with the failing
    /// shard named.
    fn run_units<T, F>(&self, units: &[ScanUnit], scan: F) -> Vec<T>
    where
        T: Send + Sync,
        F: Fn(&ScanUnit) -> T + Sync,
    {
        // Capture the span gate once per execution: `Instant::now` runs on
        // whatever lane executes the unit, so the drop-guard `Telemetry::span`
        // (which borrows `&self`) is replaced by an explicit timed pair here.
        let time_units = self.telemetry.level().spans_enabled();
        let slots: Vec<OnceLock<T>> = units.iter().map(|_| OnceLock::new()).collect();
        let next = ClaimCounter(AtomicUsize::new(0));
        let lanes = self.lanes.min(self.pool.workers() + 1).min(units.len());
        self.pool.run_lanes(lanes, &|lane| {
            let mut ran = 0;
            // `Relaxed`: the counter publishes no data. Each index is claimed
            // once because a fetch_add is one indivisible read-modify-write,
            // and the results reach the caller through their `OnceLock`s.
            loop {
                let index = next.0.fetch_add(1, Ordering::Relaxed);
                let Some(unit) = units.get(index) else {
                    break;
                };
                let started = time_units.then(Instant::now);
                // Name the shard in any scan panic; the pool re-raises it as is.
                let value =
                    catch_unwind(AssertUnwindSafe(|| scan(unit))).unwrap_or_else(|payload| {
                        let message = panic_message(payload.as_ref());
                        resume_unwind(Box::new(format!("shard {}: {message}", unit.shard)))
                    });
                if let Some(started) = started {
                    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    self.telemetry.record_duration(Stage::UnitScan, ns);
                }
                let _ = slots[index].set(value);
                ran += 1;
            }
            self.telemetry
                .add_at(LabelledCounter::LaneExecuted, lane, ran);
        });
        (slots.into_iter())
            .map(|slot| slot.into_inner().expect("every unit claimed exactly once"))
            .collect()
    }

    /// The scan step of every ranked execution: scan each selected shard for
    /// its query subset (`subsets[pos]` belongs to `shard_ids[pos]`: query bits
    /// and, per query, the matches a unit keeps), returning per-shard rows
    /// aligned with the subset's order. The shards are carved into units, each
    /// unit is one [`ScanPlane::scan_ranked_batch_chunks`] sweep of its chunks
    /// on the executor, and the per-unit results are stitched back: within a
    /// shard, unit results concatenate in chunk (slot) order and stats sum —
    /// with every keep `None`, byte-identical to one whole-shard scan per
    /// selected shard. A shard with no units (an empty plane) keeps an empty
    /// row: no matches, zeroed stats.
    fn scan_selected_shards(
        &self,
        shard_ids: &[usize],
        subsets: &[(Vec<&BitIndex>, Vec<Option<usize>>)],
    ) -> Vec<Vec<ShardScan>> {
        debug_assert_eq!(shard_ids.len(), subsets.len());
        let units = self.carve_units(shard_ids);
        let unit_scans = self.run_units(&units, |unit| {
            let (bits, keeps) = &subsets[unit.pos];
            self.planes[unit.shard].scan_ranked_batch_chunks(bits, keeps, unit.chunks.clone())
        });
        let mut out: Vec<Vec<ShardScan>> = subsets
            .iter()
            .map(|(bits, _)| vec![(Vec::new(), SearchStats::default()); bits.len()])
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

    /// Ranked search (Algorithm 1) with execution statistics, merged across shards.
    pub fn search_ranked_with_stats(&self, query: &QueryIndex) -> (Vec<SearchMatch>, SearchStats) {
        let (matches, stats, _) = self.search_one(query, None);
        (matches, stats)
    }

    /// One query as a batch of one through
    /// [`SearchEngine::search_batch_with_effects`], its reply cut to `top`.
    fn search_one(&self, query: &QueryIndex, top: Option<usize>) -> Reply {
        let mut replies = self.search_batch_with_effects(std::slice::from_ref(query), &[top]);
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
        self.search_one(query, None).0
    }

    /// Ranked search returning only the top `tau` matches (§5: "the user can
    /// retrieve only the top τ matches"). With the cache off, `tau` reaches
    /// every scan unit, which keeps only its best `tau`; the merge selects the
    /// `tau` kept and sorts only those. The per-shard cache entries stay
    /// k-independent, so one cached query serves every `tau`.
    pub fn search_top(&self, query: &QueryIndex, tau: usize) -> Vec<SearchMatch> {
        self.search_one(query, Some(tau)).0
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

    /// **The** read path: every ranked execution, a single query included, is
    /// this batched ranked search with per-query statistics and cache effects
    /// (see the [module docs](self)). Replies come back in batch order; reply
    /// `i` keeps the first `tops[i]` matches (all of them for `None`), and the
    /// cut touches only the matches — the stats and the effect are the whole
    /// scan's. With the cache disabled every effect is all zeros.
    ///
    /// Execution is **fused and deduplicated**: queries carrying identical
    /// bits are scanned once (the first occurrence is the representative;
    /// every duplicate position receives a copy of its reply),
    /// and every scan unit of a shard sweeps the shard's whole remaining
    /// query set in one [`crate::scanplane::ScanPlane::scan_ranked_batch_chunks`]
    /// pass — one lane hand-off and one merge per batch, not per query. With the
    /// cache disabled, each unit keeps only the best `tops[i]` matches of
    /// query `i` (the widest `top` among a query's duplicates).
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
        let shards = self.store.num_shards();
        // Intra-batch dedup: uniques[row] is the batch position of a distinct
        // query's first occurrence (its representative), and rows[i] is
        // position i's row in the per-unique tables below.
        let mut uniques: Vec<usize> = Vec::new();
        let mut first_of: HashMap<&BitIndex, usize> = HashMap::with_capacity(queries.len());
        let rows: Vec<usize> = (queries.iter().enumerate())
            .map(|(i, query)| {
                *first_of.entry(query.bits()).or_insert_with(|| {
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
                    *slot = cache.lookup(shard, queries[u].bits());
                    self.telemetry
                        .add_at(lookup_outcome(slot.is_some()), shard, 1);
                    tally(effect, slot.as_ref());
                }
            }
        }

        // Each distinct query is merged once, at the widest `top` any of its
        // positions asks for (`None` — everything — outranks any cut). With the
        // cache off that is also what each of its scan units keeps; with the
        // cache on the units keep everything, so an admitted entry is the
        // shard's whole list and serves every later `top`.
        let mut widest: Vec<Option<usize>> = vec![Some(0); uniques.len()];
        let mut last = vec![0; uniques.len()];
        for (i, (&row, &top)) in rows.iter().zip(tops).enumerate() {
            widest[row] = widest[row].zip(top).map(|(w, t)| w.max(t));
            last[row] = i;
        }
        let keep = |row: usize| widest[row].filter(|_| self.cache.is_none());

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
            let subsets: Vec<(Vec<&BitIndex>, Vec<Option<usize>>)> = (shard_ids.iter())
                .map(|&shard| {
                    (rows_for_shard[shard].iter())
                        .map(|&row| (queries[uniques[row]].bits(), keep(row)))
                        .unzip()
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
        // queries' *lookups* stay phased (the caveat above), so
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
            for (i, (query, &row)) in queries.iter().zip(&rows).enumerate() {
                debug_assert_eq!(keep(row), None, "a kept scan is never cached");
                if uniques[row] == i {
                    for &shard in &scanned_on[row] {
                        let (matches, stats) = resolved[row][shard].as_ref().expect("scanned");
                        let generation = generations[shard];
                        cache.admit(
                            shard,
                            query.bits().clone(),
                            matches.clone(),
                            *stats,
                            generation,
                        );
                    }
                    continue;
                }
                for shard in 0..shards {
                    let found = cache.lookup(shard, query.bits());
                    self.telemetry
                        .add_at(lookup_outcome(found.is_some()), shard, 1);
                    tally(&mut duplicate_effects[i], found.as_ref());
                    if found.is_none() {
                        let (matches, stats) = resolved[row][shard].clone().expect("resolved");
                        let generation = generations[shard];
                        cache.admit(shard, query.bits().clone(), matches, stats, generation);
                    }
                }
            }
        }

        // Merge each distinct query once, at its widest `top`. Every position
        // is then that list cut to its own `top`, beside its own cache effect;
        // a row's last position takes the list itself.
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
    use crate::query::QueryBuilder;
    use crate::search::CloudIndex;
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
                engine.search_batch_with_stats(&queries),
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
                            case.engine.search_batch_with_stats(&case.queries),
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
                forced_lane_engine(store.clone(), lanes).carve_units(&selection),
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
        assert!(empty.carve_units(&[0, 1]).is_empty());
        let q = QueryIndex::from_bits(next_bits(64));
        assert_eq!(
            empty.scan_selected_shards(&[0, 1], &vec![(vec![q.bits()], vec![None]); 2]),
            vec![vec![(Vec::new(), SearchStats::default())]; 2]
        );
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
            let result = catch_unwind(AssertUnwindSafe(|| engine.run_units(&units, refuse)));
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
            engine.run_units(&units, |_| std::panic::panic_any(17u32))
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
            let echoed = engine.run_units(&units, |u| (u.pos, u.shard, u.chunks.clone()));
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
        assert!(engine.search_batch(&[]).is_empty());
        assert_eq!(family(&engine), [3, 3, 3]);
        let _ = engine.search_batch(&[q.clone(), q]);
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
        assert_eq!(a.carve_units(&[0]).len(), 2);
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
