//! Lock-free telemetry plane: counters, gauges, log₂-bucketed latency
//! histograms, per-lane scheduler stats and per-shard cache stats.
//!
//! Design constraints (house invariants):
//!
//! - **No allocation on the hot path.** Every recording primitive is a
//!   fixed-slot [`AtomicU64`] touched with [`Ordering::Relaxed`]. Allocation
//!   happens only in [`Telemetry::snapshot`], which is a cold diagnostic op.
//! - **Runtime-gated no-ops.** A [`TelemetryLevel`] knob (an `AtomicU8` on the
//!   shared state) gates everything: at `Off` every recording call returns
//!   after a single relaxed load; at `Counters` only counter/gauge/lane/shard
//!   adds run; timers ([`Telemetry::span`]) exist only at `Spans`.
//! - **Telemetry is invisible.** Nothing in this module feeds back into the
//!   search path: replies, `SearchStats`, cache counters and wire bytes are
//!   byte-identical whatever the level. The equivalence suite proves this.
//!
//! Leakage note (§6 discipline): every quantity recorded here is a function
//! of bytes the server already observes (framed request/response sizes,
//! opcount) plus public geometry (shard count, lane count, chunk ranges).
//! Spans observe wall-clock durations of work the server itself performs;
//! they reorder and observe nothing about plaintexts or trapdoor contents.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How much the registry records. Runtime knob; default [`Off`].
///
/// [`Off`]: TelemetryLevel::Off
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TelemetryLevel {
    /// Record nothing; every hot-path call is a single relaxed load.
    #[default]
    Off = 0,
    /// Record counters, gauges, per-lane and per-shard stats — no timers.
    Counters = 1,
    /// Everything in `Counters` plus stage-duration histograms (spans).
    Spans = 2,
}

impl TelemetryLevel {
    /// Decode from the wire representation.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Self::Off),
            1 => Some(Self::Counters),
            2 => Some(Self::Spans),
            _ => None,
        }
    }

    /// Stable lowercase name used by renderers and reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Counters => "counters",
            Self::Spans => "spans",
        }
    }

    /// True when counters/gauges/lane/shard stats record (Counters or Spans).
    pub fn counters_enabled(self) -> bool {
        !matches!(self, Self::Off)
    }

    /// True when duration histograms record (Spans only).
    pub fn spans_enabled(self) -> bool {
        matches!(self, Self::Spans)
    }
}

/// Monotonic event counters. Fixed enum so the registry is one flat array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Requests served by the `Service` (every envelope op).
    RequestsServed = 0,
    /// Ranked executions of the engine (a single query is a batch of one).
    Batches,
    /// Queries carried inside those batches (pre-dedup).
    BatchQueries,
    /// Document insertions.
    Inserts,
    /// Shard scans actually performed (cache misses; fused passes count
    /// one per shard swept).
    ShardScans,
    /// Framed requests decoded by `serve`.
    WireFramesIn,
    /// Framed responses encoded by `serve`.
    WireFramesOut,
    /// Framed request bytes in (length prefix included).
    WireBytesIn,
    /// Framed response bytes out (length prefix included).
    WireBytesOut,
    /// Transport connections accepted (TCP or in-process).
    ConnectionsOpened,
    /// Transport connections closed (graceful, faulted or idle-timed-out).
    ConnectionsClosed,
    /// Single-query requests the cross-client batcher executed inside a
    /// fused group (every single query a hub serves; a lone connection's
    /// query is a group of one).
    BatcherCoalesced,
    /// Batcher flushes because every connection the group was waiting for
    /// already had a query in it (nothing left to wait for).
    BatcherFlushComplete,
    /// Batcher flushes because the window expired with an expected
    /// connection still missing (the straggler bound).
    BatcherFlushWindow,
    /// Batcher flushes because the pending group reached the depth limit.
    BatcherFlushDepth,
    /// Batcher flushes forced by a non-batchable request on any connection
    /// (preserves the arrival-order linearization).
    BatcherFlushBarrier,
    /// Batcher flushes forced by graceful shutdown (drain, never drop).
    BatcherFlushShutdown,
    /// Client-side request attempts beyond the first (resubmissions after a
    /// link fault, a lost reply, or an overload shed).
    Retries,
    /// Client-side connection re-establishments after a link died.
    Reconnects,
    /// Requests the hub refused *before execution* because the hub-wide
    /// in-flight budget was exhausted (answered with
    /// `TransportError::Overloaded` instead of stalling the reader).
    Sheds,
    /// Fault events a chaos harness injected into a link (kills, torn
    /// writes, corrupted bytes, delays).
    FaultsInjected,
    /// Fleet failovers executed: a node was declared dead and its shards
    /// re-assigned to survivors.
    Failovers,
    /// Heartbeat deadlines a node missed (each sweep that found the node
    /// silent past its failure deadline).
    HeartbeatsMissed,
    /// Shards shipped to a surviving node during failovers.
    ShardsReassigned,
}

impl Counter {
    /// All counters, in wire/report order.
    pub const ALL: [Counter; 24] = [
        Counter::RequestsServed,
        Counter::Batches,
        Counter::BatchQueries,
        Counter::Inserts,
        Counter::ShardScans,
        Counter::WireFramesIn,
        Counter::WireFramesOut,
        Counter::WireBytesIn,
        Counter::WireBytesOut,
        Counter::ConnectionsOpened,
        Counter::ConnectionsClosed,
        Counter::BatcherCoalesced,
        Counter::BatcherFlushComplete,
        Counter::BatcherFlushWindow,
        Counter::BatcherFlushDepth,
        Counter::BatcherFlushBarrier,
        Counter::BatcherFlushShutdown,
        Counter::Retries,
        Counter::Reconnects,
        Counter::Sheds,
        Counter::FaultsInjected,
        Counter::Failovers,
        Counter::HeartbeatsMissed,
        Counter::ShardsReassigned,
    ];

    /// Stable snake_case name used by the exposition formats.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RequestsServed => "requests_served",
            Counter::Batches => "batches",
            Counter::BatchQueries => "batch_queries",
            Counter::Inserts => "inserts",
            Counter::ShardScans => "shard_scans",
            Counter::WireFramesIn => "wire_frames_in",
            Counter::WireFramesOut => "wire_frames_out",
            Counter::WireBytesIn => "wire_bytes_in",
            Counter::WireBytesOut => "wire_bytes_out",
            Counter::ConnectionsOpened => "connections_opened",
            Counter::ConnectionsClosed => "connections_closed",
            Counter::BatcherCoalesced => "batcher_coalesced_queries",
            Counter::BatcherFlushComplete => "batcher_flush_complete",
            Counter::BatcherFlushWindow => "batcher_flush_window",
            Counter::BatcherFlushDepth => "batcher_flush_depth",
            Counter::BatcherFlushBarrier => "batcher_flush_barrier",
            Counter::BatcherFlushShutdown => "batcher_flush_shutdown",
            Counter::Retries => "retries",
            Counter::Reconnects => "reconnects",
            Counter::Sheds => "sheds",
            Counter::FaultsInjected => "faults_injected",
            Counter::Failovers => "failovers",
            Counter::HeartbeatsMissed => "heartbeats_missed",
            Counter::ShardsReassigned => "shards_reassigned",
        }
    }
}

/// Last-write-wins gauges (current values, not monotonic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Cached query results currently resident (all shards).
    CacheEntries = 0,
    /// Configured scan-lane count.
    ScanLanes,
    /// Documents in the store.
    StoreDocuments,
    /// Shards in the store.
    StoreShards,
    /// Transport connections currently open.
    OpenConnections,
    /// Shard-server nodes that ever registered with the fleet coordinator.
    NodesRegistered,
    /// Shard-server nodes currently live (registered and inside their
    /// failure deadline).
    NodesLive,
}

impl Gauge {
    /// All gauges, in wire/report order.
    pub const ALL: [Gauge; 7] = [
        Gauge::CacheEntries,
        Gauge::ScanLanes,
        Gauge::StoreDocuments,
        Gauge::StoreShards,
        Gauge::OpenConnections,
        Gauge::NodesRegistered,
        Gauge::NodesLive,
    ];

    /// Stable snake_case name used by the exposition formats.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::CacheEntries => "cache_entries",
            Gauge::ScanLanes => "scan_lanes",
            Gauge::StoreDocuments => "store_documents",
            Gauge::StoreShards => "store_shards",
            Gauge::OpenConnections => "open_connections",
            Gauge::NodesRegistered => "nodes_registered",
            Gauge::NodesLive => "nodes_live",
        }
    }
}

/// Pipeline stages whose durations the span layer histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// One `Service::call` dispatch (any op).
    ServiceCall = 0,
    /// One ranked engine execution end to end (a batch of any size, one
    /// query included).
    EngineBatch,
    /// One scan unit executed by a lane: a chunk range on a multi-lane
    /// engine, a whole shard on one lane or without a scan plane.
    UnitScan,
    /// Cache lookup pass (all shards, lock held once).
    CacheLookup,
    /// Cache admission pass (all misses, lock held once).
    CacheAdmit,
    /// Encoding one response frame.
    FrameEncode,
    /// Decoding one request wire (all frames of a flushed outbox).
    FrameDecode,
    /// Time a coalesced query spent waiting in the cross-client batcher
    /// (arrival in the pending group → fused dispatch).
    BatcherWait,
    /// Time a resilient client slept backing off between request attempts
    /// (exponential backoff and honored `retry_after_ms` hints).
    BackoffWait,
    /// One fleet failover end to end: dead-node detection → lost shards
    /// shipped to survivors → journaled writes replayed.
    FailoverDuration,
}

impl Stage {
    /// All stages, in wire/report order.
    pub const ALL: [Stage; 10] = [
        Stage::ServiceCall,
        Stage::EngineBatch,
        Stage::UnitScan,
        Stage::CacheLookup,
        Stage::CacheAdmit,
        Stage::FrameEncode,
        Stage::FrameDecode,
        Stage::BatcherWait,
        Stage::BackoffWait,
        Stage::FailoverDuration,
    ];

    /// Stable snake_case name used by the exposition formats.
    pub fn name(self) -> &'static str {
        match self {
            Stage::ServiceCall => "service_call",
            Stage::EngineBatch => "engine_batch",
            Stage::UnitScan => "unit_scan",
            Stage::CacheLookup => "cache_lookup",
            Stage::CacheAdmit => "cache_admit",
            Stage::FrameEncode => "frame_encode",
            Stage::FrameDecode => "frame_decode",
            Stage::BatcherWait => "batcher_wait",
            Stage::BackoffWait => "backoff_wait",
            Stage::FailoverDuration => "failover_duration",
        }
    }
}

/// Unit-free quantities histogrammed with the same log₂ buckets as stage
/// durations — counts, not nanoseconds (kept as a separate family so the
/// renderers never mislabel them as latencies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Series {
    /// Group depth of each cross-client batcher flush (how many single-query
    /// requests one fused pass served).
    BatchOccupancy = 0,
}

impl Series {
    /// All value series, in wire/report order.
    pub const ALL: [Series; 1] = [Series::BatchOccupancy];

    /// Stable snake_case name used by the exposition formats.
    pub fn name(self) -> &'static str {
        match self {
            Series::BatchOccupancy => "batch_occupancy",
        }
    }
}

/// Histogram buckets per stage: bucket `i` covers `[2^i, 2^(i+1))` ns,
/// with 0 and 1 both landing in bucket 0. 64 buckets cover all of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Bucket index for a duration: `floor(log2(max(v, 1)))`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// Per-lane scheduler slots tracked by the registry. Lanes at or above this
/// fold into the last slot (the engine clamps lanes to host cores, so in
/// practice this is never hit).
pub const MAX_LANES: usize = 32;

/// Per-shard cache slots tracked by the registry. Shards at or above this
/// fold into the last slot.
pub const MAX_SHARDS: usize = 64;

/// Per-connection wire-traffic slots tracked by the registry. Connection ids
/// at or above this fold into the last slot (long-lived deployments recycle
/// the overflow slot rather than growing without bound).
pub const MAX_CONNECTIONS: usize = 64;

/// Scratch accumulator a scan lane fills locally (plain `u64`s, no atomics)
/// and flushes into the registry once when the lane drains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Units this lane executed (own pops plus successful steals).
    pub executed: u64,
    /// Units obtained by stealing from another lane's deque.
    pub stolen: u64,
    /// CAS attempts (own-pop or steal) that lost a race and retried.
    pub failed_cas: u64,
    /// Full victim sweeps that found every deque empty.
    pub idle_polls: u64,
}

#[derive(Debug, Default)]
struct LaneSlots {
    executed: AtomicU64,
    stolen: AtomicU64,
    failed_cas: AtomicU64,
    idle_polls: AtomicU64,
}

#[derive(Debug, Default)]
struct ShardCacheSlots {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

#[derive(Debug, Default)]
struct ConnSlots {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

#[derive(Debug)]
struct HistogramSlots {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSlots {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

#[derive(Debug)]
struct TelemetryState {
    level: AtomicU8,
    counters: [AtomicU64; Counter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    histograms: [HistogramSlots; Stage::ALL.len()],
    values: [HistogramSlots; Series::ALL.len()],
    lanes: [LaneSlots; MAX_LANES],
    shard_caches: [ShardCacheSlots; MAX_SHARDS],
    connections: [ConnSlots; MAX_CONNECTIONS],
}

impl Default for TelemetryState {
    fn default() -> Self {
        Self {
            level: AtomicU8::new(TelemetryLevel::Off as u8),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| HistogramSlots::default()),
            values: std::array::from_fn(|_| HistogramSlots::default()),
            lanes: std::array::from_fn(|_| LaneSlots::default()),
            shard_caches: std::array::from_fn(|_| ShardCacheSlots::default()),
            connections: std::array::from_fn(|_| ConnSlots::default()),
        }
    }
}

/// Shared handle onto one lock-free metrics registry.
///
/// Cloning is cheap (`Arc`); every method takes `&self` and is safe to call
/// from any thread. All stores are `Relaxed`: the snapshot is a statistical
/// view, not a synchronization point.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    state: Arc<TelemetryState>,
}

impl Telemetry {
    /// Fresh registry at [`TelemetryLevel::Off`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Current recording level.
    pub fn level(&self) -> TelemetryLevel {
        TelemetryLevel::from_u8(self.state.level.load(Ordering::Relaxed))
            .unwrap_or(TelemetryLevel::Off)
    }

    /// Change the recording level. Takes effect on subsequent recordings;
    /// already-recorded values are kept.
    pub fn set_level(&self, level: TelemetryLevel) {
        self.state.level.store(level as u8, Ordering::Relaxed);
    }

    #[inline]
    fn counters_on(&self) -> bool {
        self.state.level.load(Ordering::Relaxed) != TelemetryLevel::Off as u8
    }

    #[inline]
    fn spans_on(&self) -> bool {
        self.state.level.load(Ordering::Relaxed) == TelemetryLevel::Spans as u8
    }

    /// Add `n` to a counter. No-op at `Off`.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if self.counters_on() {
            self.state.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add `n` to a counter **regardless of level**. The accounting path for
    /// quantities that exist independently of the observability plane — e.g.
    /// the served-request count backing the protocol's Table 2
    /// `OperationCounters`: the registry is their single source of truth, so
    /// they must keep counting even at `Off`.
    #[inline]
    pub fn tally(&self, counter: Counter, n: u64) {
        self.state.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Set a gauge to its current value. No-op at `Off`.
    #[inline]
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        if self.counters_on() {
            self.state.gauges[gauge as usize].store(value, Ordering::Relaxed);
        }
    }

    /// Record one duration (nanoseconds) into a stage histogram.
    /// No-op unless the level is `Spans`.
    #[inline]
    pub fn record_duration(&self, stage: Stage, ns: u64) {
        if !self.spans_on() {
            return;
        }
        let h = &self.state.histograms[stage as usize];
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum_ns.fetch_add(ns, Ordering::Relaxed);
        h.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one unit-free value into a series histogram (same log₂ buckets
    /// as durations; values, not nanoseconds). Gated like counters: no-op at
    /// `Off` — occupancy is an occurrence statistic, not a timer.
    #[inline]
    pub fn record_value(&self, series: Series, v: u64) {
        if !self.counters_on() {
            return;
        }
        let h = &self.state.values[series as usize];
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum_ns.fetch_add(v, Ordering::Relaxed);
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one decoded request frame arriving on a connection. No-op at
    /// `Off`. `bytes` is the framed size (length prefix included), matching
    /// the global [`Counter::WireBytesIn`] accounting.
    #[inline]
    pub fn record_conn_frame_in(&self, conn: usize, bytes: u64) {
        if !self.counters_on() {
            return;
        }
        let slot = &self.state.connections[conn.min(MAX_CONNECTIONS - 1)];
        slot.frames_in.fetch_add(1, Ordering::Relaxed);
        slot.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one encoded response frame written to a connection. No-op at
    /// `Off`.
    #[inline]
    pub fn record_conn_frame_out(&self, conn: usize, bytes: u64) {
        if !self.counters_on() {
            return;
        }
        let slot = &self.state.connections[conn.min(MAX_CONNECTIONS - 1)];
        slot.frames_out.fetch_add(1, Ordering::Relaxed);
        slot.bytes_out.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Start a drop-guard timer for `stage`, or `None` unless the level is
    /// `Spans`. Bind it (`let _span = ...`) so it drops at scope end.
    #[inline]
    pub fn span(&self, stage: Stage) -> Option<Span<'_>> {
        if self.spans_on() {
            Some(Span {
                telemetry: self,
                stage,
                start: Instant::now(),
            })
        } else {
            None
        }
    }

    /// Flush a lane's locally-accumulated scheduler stats. No-op at `Off`.
    pub fn record_lane(&self, lane: usize, stats: &LaneStats) {
        if !self.counters_on() {
            return;
        }
        let slot = &self.state.lanes[lane.min(MAX_LANES - 1)];
        slot.executed.fetch_add(stats.executed, Ordering::Relaxed);
        slot.stolen.fetch_add(stats.stolen, Ordering::Relaxed);
        slot.failed_cas
            .fetch_add(stats.failed_cas, Ordering::Relaxed);
        slot.idle_polls
            .fetch_add(stats.idle_polls, Ordering::Relaxed);
    }

    /// Record one cache lookup outcome on a shard. No-op at `Off`.
    #[inline]
    pub fn record_cache_lookup(&self, shard: usize, hit: bool) {
        if !self.counters_on() {
            return;
        }
        let slot = &self.state.shard_caches[shard.min(MAX_SHARDS - 1)];
        if hit {
            slot.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a write-generation invalidation on one shard. No-op at `Off`.
    #[inline]
    pub fn record_cache_invalidation(&self, shard: usize) {
        if self.counters_on() {
            self.state.shard_caches[shard.min(MAX_SHARDS - 1)]
                .invalidations
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record an invalidation touching every shard (global clear / restore).
    pub fn record_cache_invalidation_all(&self, shards: usize) {
        if self.counters_on() {
            for shard in 0..shards.min(MAX_SHARDS) {
                self.state.shard_caches[shard]
                    .invalidations
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Current value of one counter (reads even at `Off`).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.state.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Materialize a full snapshot. Allocates; cold path only.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), self.counter(c)))
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| {
                (
                    g.name().to_string(),
                    self.state.gauges[g as usize].load(Ordering::Relaxed),
                )
            })
            .collect();
        let histograms = Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let h = &self.state.histograms[stage as usize];
                let count = h.count.load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                let mut buckets: Vec<u64> = h
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
                while buckets.last() == Some(&0) {
                    buckets.pop();
                }
                Some(HistogramSnapshot {
                    stage: stage.name().to_string(),
                    count,
                    sum_ns: h.sum_ns.load(Ordering::Relaxed),
                    buckets,
                })
            })
            .collect();
        let values = Series::ALL
            .iter()
            .filter_map(|&series| {
                let h = &self.state.values[series as usize];
                let count = h.count.load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                let mut buckets: Vec<u64> = h
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
                while buckets.last() == Some(&0) {
                    buckets.pop();
                }
                Some(ValueHistogramSnapshot {
                    series: series.name().to_string(),
                    count,
                    sum: h.sum_ns.load(Ordering::Relaxed),
                    buckets,
                })
            })
            .collect();
        let lanes = self
            .state
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(lane, slot)| {
                let snap = LaneSnapshot {
                    lane: lane as u32,
                    executed: slot.executed.load(Ordering::Relaxed),
                    stolen: slot.stolen.load(Ordering::Relaxed),
                    failed_steals: slot.failed_cas.load(Ordering::Relaxed),
                    idle_polls: slot.idle_polls.load(Ordering::Relaxed),
                };
                (snap.executed | snap.stolen | snap.failed_steals | snap.idle_polls != 0)
                    .then_some(snap)
            })
            .collect();
        let shard_caches = self
            .state
            .shard_caches
            .iter()
            .enumerate()
            .filter_map(|(shard, slot)| {
                let snap = ShardCacheSnapshot {
                    shard: shard as u32,
                    hits: slot.hits.load(Ordering::Relaxed),
                    misses: slot.misses.load(Ordering::Relaxed),
                    invalidations: slot.invalidations.load(Ordering::Relaxed),
                };
                (snap.hits | snap.misses | snap.invalidations != 0).then_some(snap)
            })
            .collect();
        let connections = self
            .state
            .connections
            .iter()
            .enumerate()
            .filter_map(|(conn, slot)| {
                let snap = ConnectionSnapshot {
                    connection: conn as u32,
                    frames_in: slot.frames_in.load(Ordering::Relaxed),
                    frames_out: slot.frames_out.load(Ordering::Relaxed),
                    bytes_in: slot.bytes_in.load(Ordering::Relaxed),
                    bytes_out: slot.bytes_out.load(Ordering::Relaxed),
                };
                (snap.frames_in | snap.frames_out | snap.bytes_in | snap.bytes_out != 0)
                    .then_some(snap)
            })
            .collect();
        MetricsSnapshot {
            level: self.level(),
            counters,
            gauges,
            histograms,
            values,
            lanes,
            shard_caches,
            connections,
        }
    }
}

/// Drop-guard stage timer returned by [`Telemetry::span`].
#[derive(Debug)]
pub struct Span<'a> {
    telemetry: &'a Telemetry,
    stage: Stage,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.telemetry.record_duration(self.stage, ns);
    }
}

/// Point-in-time copy of the registry, suitable for the wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Level at snapshot time.
    pub level: TelemetryLevel,
    /// `(name, value)` in [`Counter::ALL`] order; always complete.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` in [`Gauge::ALL`] order; always complete.
    pub gauges: Vec<(String, u64)>,
    /// Stage histograms with at least one sample.
    pub histograms: Vec<HistogramSnapshot>,
    /// Unit-free value histograms ([`Series`]) with at least one sample.
    pub values: Vec<ValueHistogramSnapshot>,
    /// Lanes with at least one nonzero field.
    pub lanes: Vec<LaneSnapshot>,
    /// Shards with at least one nonzero cache field.
    pub shard_caches: Vec<ShardCacheSnapshot>,
    /// Connections with at least one nonzero wire-traffic field.
    pub connections: Vec<ConnectionSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a named counter, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Total successful steals across all lanes.
    pub fn total_steals(&self) -> u64 {
        self.lanes.iter().map(|l| l.stolen).sum()
    }
}

/// One stage's latency histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Stage name ([`Stage::name`]).
    pub stage: String,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u64,
    /// Bucket counts, trailing zeros trimmed; bucket `i` covers
    /// `[2^i, 2^(i+1))` ns.
    pub buckets: Vec<u64>,
}

/// One value series' log₂ histogram ([`Telemetry::record_value`]); bucket `i`
/// covers `[2^i, 2^(i+1))` of the recorded quantity (not nanoseconds).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValueHistogramSnapshot {
    /// Series name ([`Series::name`]).
    pub series: String,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Bucket counts, trailing zeros trimmed.
    pub buckets: Vec<u64>,
}

/// One connection's cumulative wire traffic as the server's transport saw it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnectionSnapshot {
    /// Connection id (ids at or above [`MAX_CONNECTIONS`] fold into the
    /// last slot).
    pub connection: u32,
    /// Request frames decoded on this connection.
    pub frames_in: u64,
    /// Response frames written to this connection.
    pub frames_out: u64,
    /// Framed request bytes in (length prefix included).
    pub bytes_in: u64,
    /// Framed response bytes out (length prefix included).
    pub bytes_out: u64,
}

/// One scan lane's scheduler stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneSnapshot {
    /// Lane index (caller lane is 0).
    pub lane: u32,
    /// Units executed by this lane.
    pub executed: u64,
    /// Units obtained by stealing.
    pub stolen: u64,
    /// CAS races lost (own-pop or steal retries).
    pub failed_steals: u64,
    /// Full victim sweeps that found no work.
    pub idle_polls: u64,
}

/// One shard's cache stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCacheSnapshot {
    /// Shard index.
    pub shard: u32,
    /// Lookup hits on this shard.
    pub hits: u64,
    /// Lookup misses on this shard.
    pub misses: u64,
    /// Write-generation invalidations observed on this shard.
    pub invalidations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_follow_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(7), 2);
        assert_eq!(bucket_index(8), 3);
        for k in 0..64 {
            assert_eq!(bucket_index(1u64 << k), k as usize, "2^{k}");
            if k > 0 {
                assert_eq!(bucket_index((1u64 << k) - 1), k as usize - 1);
            }
        }
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn off_level_records_nothing() {
        let tel = Telemetry::new();
        tel.add(Counter::Batches, 5);
        tel.set_gauge(Gauge::ScanLanes, 3);
        tel.record_duration(Stage::EngineBatch, 1_000);
        tel.record_lane(
            0,
            &LaneStats {
                executed: 4,
                stolen: 1,
                failed_cas: 2,
                idle_polls: 3,
            },
        );
        tel.record_cache_lookup(0, true);
        tel.record_cache_invalidation(1);
        tel.record_value(Series::BatchOccupancy, 8);
        tel.record_conn_frame_in(0, 64);
        tel.record_conn_frame_out(0, 128);
        assert!(tel.span(Stage::EngineBatch).is_none());
        let snap = tel.snapshot();
        assert_eq!(snap.level, TelemetryLevel::Off);
        assert!(snap.counters.iter().all(|(_, v)| *v == 0));
        assert!(snap.gauges.iter().all(|(_, v)| *v == 0));
        assert!(snap.histograms.is_empty());
        assert!(snap.values.is_empty());
        assert!(snap.lanes.is_empty());
        assert!(snap.shard_caches.is_empty());
        assert!(snap.connections.is_empty());
    }

    #[test]
    fn value_series_and_connection_slots_record_at_counters_level() {
        let tel = Telemetry::new();
        tel.set_level(TelemetryLevel::Counters);
        tel.record_value(Series::BatchOccupancy, 1); // bucket 0
        tel.record_value(Series::BatchOccupancy, 5); // bucket 2
        tel.record_conn_frame_in(2, 40);
        tel.record_conn_frame_in(2, 60);
        tel.record_conn_frame_out(2, 200);
        // Overflowing connection ids fold into the last slot.
        tel.record_conn_frame_out(MAX_CONNECTIONS + 7, 9);
        let snap = tel.snapshot();
        let v = &snap.values[0];
        assert_eq!(v.series, "batch_occupancy");
        assert_eq!((v.count, v.sum), (2, 6));
        assert_eq!(v.buckets, vec![1, 0, 1]);
        assert_eq!(snap.connections.len(), 2);
        let c = snap.connections[0];
        assert_eq!(c.connection, 2);
        assert_eq!((c.frames_in, c.bytes_in), (2, 100));
        assert_eq!((c.frames_out, c.bytes_out), (1, 200));
        assert_eq!(snap.connections[1].connection as usize, MAX_CONNECTIONS - 1);
        assert_eq!(snap.connections[1].bytes_out, 9);
    }

    #[test]
    fn tally_counts_even_at_off() {
        let tel = Telemetry::new();
        tel.tally(Counter::RequestsServed, 2);
        assert_eq!(tel.counter(Counter::RequestsServed), 2);
        assert_eq!(tel.snapshot().counter("requests_served"), 2);
        tel.set_level(TelemetryLevel::Spans);
        tel.tally(Counter::RequestsServed, 1);
        assert_eq!(tel.counter(Counter::RequestsServed), 3);
    }

    #[test]
    fn counters_level_records_counters_but_not_spans() {
        let tel = Telemetry::new();
        tel.set_level(TelemetryLevel::Counters);
        tel.add(Counter::Batches, 2);
        tel.record_duration(Stage::EngineBatch, 1_000);
        assert!(tel.span(Stage::EngineBatch).is_none());
        tel.record_cache_lookup(1, false);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("batches"), 2);
        assert!(snap.histograms.is_empty());
        assert_eq!(snap.shard_caches.len(), 1);
        assert_eq!(snap.shard_caches[0].shard, 1);
        assert_eq!(snap.shard_caches[0].misses, 1);
    }

    #[test]
    fn spans_level_populates_histograms_via_drop_guard() {
        let tel = Telemetry::new();
        tel.set_level(TelemetryLevel::Spans);
        {
            let _span = tel.span(Stage::UnitScan);
        }
        tel.record_duration(Stage::UnitScan, 5); // bucket 2
        let snap = tel.snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.stage == "unit_scan")
            .expect("unit_scan histogram present");
        assert_eq!(h.count, 2);
        assert!(h.sum_ns >= 5);
        assert!(h.buckets.len() >= 3);
        assert!(*h.buckets.last().unwrap() > 0, "trailing zeros trimmed");
        assert_eq!(h.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn snapshots_are_monotonic_for_counters_and_histograms() {
        let tel = Telemetry::new();
        tel.set_level(TelemetryLevel::Spans);
        let mut prev = tel.snapshot();
        for round in 0..5u64 {
            tel.add(Counter::RequestsServed, round + 1);
            tel.record_duration(Stage::ServiceCall, 100 * (round + 1));
            tel.record_lane(
                0,
                &LaneStats {
                    executed: 1,
                    ..LaneStats::default()
                },
            );
            tel.record_cache_lookup(0, round % 2 == 0);
            let cur = tel.snapshot();
            for ((name, was), (name2, is)) in prev.counters.iter().zip(cur.counters.iter()) {
                assert_eq!(name, name2);
                assert!(is >= was, "counter {name} regressed");
            }
            for h in &prev.histograms {
                let now = cur
                    .histograms
                    .iter()
                    .find(|c| c.stage == h.stage)
                    .expect("histogram persists");
                assert!(now.count >= h.count);
                assert!(now.sum_ns >= h.sum_ns);
            }
            for l in &prev.lanes {
                let now = cur.lanes.iter().find(|c| c.lane == l.lane).unwrap();
                assert!(now.executed >= l.executed);
            }
            for s in &prev.shard_caches {
                let now = cur
                    .shard_caches
                    .iter()
                    .find(|c| c.shard == s.shard)
                    .unwrap();
                assert!(now.hits >= s.hits && now.misses >= s.misses);
            }
            prev = cur;
        }
        assert_eq!(prev.counter("requests_served"), 1 + 2 + 3 + 4 + 5);
    }

    #[test]
    fn lane_and_shard_overflow_fold_into_last_slot() {
        let tel = Telemetry::new();
        tel.set_level(TelemetryLevel::Counters);
        tel.record_lane(
            MAX_LANES + 10,
            &LaneStats {
                executed: 7,
                ..LaneStats::default()
            },
        );
        tel.record_cache_lookup(MAX_SHARDS + 3, true);
        let snap = tel.snapshot();
        assert_eq!(snap.lanes.len(), 1);
        assert_eq!(snap.lanes[0].lane as usize, MAX_LANES - 1);
        assert_eq!(snap.lanes[0].executed, 7);
        assert_eq!(snap.shard_caches[0].shard as usize, MAX_SHARDS - 1);
    }

    #[test]
    fn shared_handle_aggregates_across_clones() {
        let tel = Telemetry::new();
        tel.set_level(TelemetryLevel::Counters);
        let clone = tel.clone();
        clone.add(Counter::Inserts, 3);
        tel.add(Counter::Inserts, 4);
        assert_eq!(tel.counter(Counter::Inserts), 7);
        assert_eq!(clone.level(), TelemetryLevel::Counters);
    }
}
