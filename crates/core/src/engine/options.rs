//! The engine's settable options: scan lanes, the result cache and the
//! telemetry level.

use super::SearchEngine;
use crate::cache::{CacheConfig, CacheStats, ResultCache};
use crate::telemetry::{Gauge, MetricsSnapshot, Telemetry, TelemetryLevel};
use std::sync::Mutex;

impl SearchEngine {
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
    /// Telemetry is **invisible** to execution — replies, [`crate::search::SearchStats`] and
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
}
