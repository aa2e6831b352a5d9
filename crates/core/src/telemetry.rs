//! Lock-free telemetry plane: one registry of three shapes.
//!
//! - **Counter** — monotonic. Unlabelled ([`Counter`]) or carrying one label
//!   ([`LabelledCounter`]) whose key is one of `lane` (a lane's index in its
//!   execution; lane 0 is the calling thread), `shard` (store shard) or
//!   `connection` (hub connection id).
//!   A labelled counter is one slot array of [`LABEL_SLOTS`]; label values at
//!   or above the cap fold into the last slot.
//! - **Gauge** ([`Gauge`]) — last write wins.
//! - **log₂ histogram** — one slot type and one record path for two units:
//!   [`Stage`] durations in nanoseconds, recorded at `Spans`, and [`Series`]
//!   counts, recorded at `Counters`.
//!
//! Each metric is declared once, in one row of its `metrics!` table: the
//! variant, the exported name and the doc (and, for a labelled counter, the
//! label key). The enum, its `ALL` list and its `name()` are generated from
//! that row, so they cannot drift apart.
//!
//! Design constraints (house invariants):
//!
//! - **No allocation on the hot path.** Every recording primitive is a
//!   fixed-slot [`AtomicU64`] touched with [`Ordering::Relaxed`]. Allocation
//!   happens only in [`Telemetry::snapshot`], which is a cold diagnostic op.
//! - **Runtime-gated no-ops.** A [`TelemetryLevel`] knob (an `AtomicU8` on the
//!   shared state) gates everything: at `Off` every recording call returns
//!   after a single relaxed load; at `Counters` counters, gauges and count
//!   histograms record; duration histograms ([`Telemetry::span`]) record only
//!   at `Spans`.
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
    /// Record counters (labelled ones included), gauges and count
    /// histograms — no timers.
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

    /// True when duration histograms record (Spans only).
    pub fn spans_enabled(self) -> bool {
        matches!(self, Self::Spans)
    }
}

/// Declares one metric enum from its rows — `Variant => "exported_name"`
/// under the variant's doc — and generates `ALL` (declaration order, which is
/// wire and report order) and `name()`. A table declared `by label` names each
/// row's label key after `by` and also generates `label()`.
macro_rules! metrics {
    ($(#[$meta:meta])* $ty:ident by label {
        $($(#[doc = $doc:literal])* $variant:ident => $name:literal by $label:literal,)*
    }) => {
        metrics! { $(#[$meta])* $ty { $($(#[doc = $doc])* $variant => $name,)* } }

        impl $ty {
            /// The key of this counter's one label.
            pub fn label(self) -> &'static str {
                match self {
                    $($ty::$variant => $label,)*
                }
            }
        }
    };
    ($(#[$meta:meta])* $ty:ident {
        $($(#[doc = $doc:literal])* $variant:ident => $name:literal,)*
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $ty {
            $($(#[doc = $doc])* $variant,)*
        }

        impl $ty {
            /// Every metric of this kind, in wire/report order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant),*];

            /// Stable snake_case name used by the exposition formats.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}

metrics! {
    /// Monotonic event counters.
    Counter {
        /// Requests served by the `Service` (every envelope op).
        RequestsServed => "requests_served",
        /// Ranked executions of the engine (a single query is a batch of one).
        Batches => "batches",
        /// Queries carried inside those batches (pre-dedup).
        BatchQueries => "batch_queries",
        /// Document insertions.
        Inserts => "inserts",
        /// Shard scans actually performed (cache misses; fused passes count
        /// one per shard swept).
        ShardScans => "shard_scans",
        /// Framed requests decoded by `serve`.
        WireFramesIn => "wire_frames_in",
        /// Framed responses encoded by `serve` (a hub counts each before
        /// writing it, so a frame whose write fails is still counted).
        WireFramesOut => "wire_frames_out",
        /// Framed request bytes in (length prefix included).
        WireBytesIn => "wire_bytes_in",
        /// Framed response bytes out (length prefix included; counted with
        /// [`Counter::WireFramesOut`], failed writes too).
        WireBytesOut => "wire_bytes_out",
        /// Transport connections accepted (TCP or in-process).
        ConnectionsOpened => "connections_opened",
        /// Transport connections closed (graceful, faulted or idle-timed-out).
        ConnectionsClosed => "connections_closed",
        /// Single-query requests the cross-client batcher executed inside a
        /// fused group (every single query a hub serves; a lone connection's
        /// query is a group of one).
        BatcherCoalesced => "batcher_coalesced_queries",
        /// Batcher flushes because every connection the group was waiting for
        /// already had a query in it (nothing left to wait for).
        BatcherFlushComplete => "batcher_flush_complete",
        /// Batcher flushes because the window expired with an expected
        /// connection still missing (the straggler bound).
        BatcherFlushWindow => "batcher_flush_window",
        /// Batcher flushes because the pending group reached the depth limit.
        BatcherFlushDepth => "batcher_flush_depth",
        /// Batcher flushes forced by a non-batchable request on any connection
        /// (preserves the arrival-order linearization).
        BatcherFlushBarrier => "batcher_flush_barrier",
        /// Batcher flushes forced by graceful shutdown (drain, never drop).
        BatcherFlushShutdown => "batcher_flush_shutdown",
        /// Client-side request attempts beyond the first (resubmissions after a
        /// link fault, a lost reply, or an overload shed).
        Retries => "retries",
        /// Client-side connection re-establishments after a link died.
        Reconnects => "reconnects",
        /// Requests the hub refused *before execution* because the hub-wide
        /// in-flight budget was exhausted (answered with
        /// `TransportError::Overloaded` instead of stalling the reader).
        Sheds => "sheds",
        /// Fault events a chaos harness injected into a link (kills, torn
        /// writes, corrupted bytes, delays).
        FaultsInjected => "faults_injected",
        /// Fleet failovers executed: a node was declared dead and its shards
        /// re-assigned to survivors.
        Failovers => "failovers",
        /// Heartbeat deadlines a node missed (each sweep that found the node
        /// silent past its failure deadline).
        HeartbeatsMissed => "heartbeats_missed",
        /// Shards shipped to a surviving node during failovers.
        ShardsReassigned => "shards_reassigned",
    }
}

metrics! {
    /// Monotonic counters with one label ([`Telemetry::add_at`]); the label
    /// key of each is declared beside its name.
    LabelledCounter by label {
        /// Scan units a lane executed.
        LaneExecuted => "lane_executed" by "lane",
        /// Result-cache lookups answered from a shard's cache.
        ShardCacheHits => "shard_cache_hits" by "shard",
        /// Result-cache lookups that fell through to a scan of the shard.
        ShardCacheMisses => "shard_cache_misses" by "shard",
        /// Write-generation bumps of a shard's cache: one per insert into the
        /// shard and one per restore. Not the stale entries a lookup discards
        /// (that is `CacheStats::invalidations`).
        ShardCacheGenerationBumps => "shard_cache_generation_bumps" by "shard",
        /// Request frames decoded on a hub connection.
        ConnectionFramesIn => "connection_frames_in" by "connection",
        /// Response frames written to a hub connection, counted before the
        /// write (a frame whose write fails is still counted).
        ConnectionFramesOut => "connection_frames_out" by "connection",
        /// Framed request bytes in on a hub connection (length prefix
        /// included, as [`Counter::WireBytesIn`] counts them).
        ConnectionBytesIn => "connection_bytes_in" by "connection",
        /// Framed response bytes out on a hub connection, counted with
        /// [`LabelledCounter::ConnectionFramesOut`].
        ConnectionBytesOut => "connection_bytes_out" by "connection",
    }
}

metrics! {
    /// Last-write-wins gauges (current values, not monotonic).
    Gauge {
        /// Cached query results currently resident (all shards).
        CacheEntries => "cache_entries",
        /// Configured scan-lane count.
        ScanLanes => "scan_lanes",
        /// Documents in the store.
        StoreDocuments => "store_documents",
        /// Shards in the store.
        StoreShards => "store_shards",
        /// Transport connections currently open.
        OpenConnections => "open_connections",
        /// Shard-server nodes that ever registered with the fleet coordinator.
        NodesRegistered => "nodes_registered",
        /// Shard-server nodes currently live (registered and inside their
        /// failure deadline).
        NodesLive => "nodes_live",
    }
}

metrics! {
    /// Pipeline stages whose durations (nanoseconds) the span layer
    /// histograms.
    Stage {
        /// One `Service::call` dispatch (any op).
        ServiceCall => "service_call",
        /// One ranked engine execution end to end (a batch of any size, one
        /// query included).
        EngineBatch => "engine_batch",
        /// One scan unit executed by a lane (lane 0 is the calling thread):
        /// an 8-chunk range of one shard's plane, at every lane count, timed
        /// from the lane's claim of it to its next claim. The lane's fold
        /// of its results, once its claims run out, is outside every unit.
        UnitScan => "unit_scan",
        /// Cache lookup pass (all shards, lock held once).
        CacheLookup => "cache_lookup",
        /// Cache admission pass (all misses, lock held once).
        CacheAdmit => "cache_admit",
        /// Encoding one response frame.
        FrameEncode => "frame_encode",
        /// Decoding one request wire (all frames of a flushed outbox).
        FrameDecode => "frame_decode",
        /// Time a coalesced query spent waiting in the cross-client batcher
        /// (arrival in the pending group → fused dispatch).
        BatcherWait => "batcher_wait",
        /// Time a resilient client slept backing off between request attempts
        /// (exponential backoff and honored `retry_after_ms` hints).
        BackoffWait => "backoff_wait",
        /// One fleet failover end to end: dead-node detection → lost shards
        /// shipped to survivors → journaled writes replayed.
        FailoverDuration => "failover_duration",
    }
}

metrics! {
    /// Quantities whose unit is a count, histogrammed with the same log₂
    /// buckets as stage durations (reported apart from them so no renderer
    /// labels a count as a latency).
    Series {
        /// Group depth of each cross-client batcher flush (how many
        /// single-query requests one fused pass served).
        BatchOccupancy => "batch_occupancy",
    }
}

/// Histogram buckets: bucket `i` covers `[2^i, 2^(i+1))` of the recorded
/// unit, with 0 and 1 both landing in bucket 0. 64 buckets cover all of `u64`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Bucket index for a value: `floor(log2(max(v, 1)))`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// Slots per labelled counter. Label values at or above this fold into the
/// last slot (the engine clamps lanes to host cores, so only shards and
/// long-lived hubs' connection ids ever reach it).
pub const LABEL_SLOTS: usize = 64;

#[derive(Debug)]
struct HistogramSlots {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSlots {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Histogram slots: the stages', then the series'.
const HISTOGRAMS: usize = Stage::ALL.len() + Series::ALL.len();

impl Series {
    /// This series' histogram slot, after every stage's.
    #[inline]
    fn slot(self) -> usize {
        Stage::ALL.len() + self as usize
    }
}

#[derive(Debug)]
struct TelemetryState {
    level: AtomicU8,
    counters: [AtomicU64; Counter::ALL.len()],
    labelled: [[AtomicU64; LABEL_SLOTS]; LabelledCounter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    histograms: [HistogramSlots; HISTOGRAMS],
}

impl Default for TelemetryState {
    fn default() -> Self {
        Self {
            level: AtomicU8::new(TelemetryLevel::Off as u8),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            labelled: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| HistogramSlots::default()),
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

    /// Add `n` to the slot of label value `index` of a labelled counter
    /// (indices at or above [`LABEL_SLOTS`] fold into the last slot). No-op
    /// at `Off`.
    #[inline]
    pub fn add_at(&self, counter: LabelledCounter, index: usize, n: u64) {
        if self.counters_on() {
            self.state.labelled[counter as usize][index.min(LABEL_SLOTS - 1)]
                .fetch_add(n, Ordering::Relaxed);
        }
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
        if self.spans_on() {
            self.record(stage as usize, ns);
        }
    }

    /// Record one count into a series histogram. Gated like counters: no-op
    /// at `Off` — a count is an occurrence statistic, not a timer.
    #[inline]
    pub fn record_value(&self, series: Series, v: u64) {
        if self.counters_on() {
            self.record(series.slot(), v);
        }
    }

    /// The one histogram record path, for either unit.
    #[inline]
    fn record(&self, slot: usize, v: u64) {
        let h = &self.state.histograms[slot];
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
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

    /// Current value of one counter (reads even at `Off`).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.state.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// `(count, sum, buckets)` of one histogram slot, trailing empty buckets
    /// trimmed; `None` before its first sample.
    fn histogram(&self, slot: usize) -> Option<(u64, u64, Vec<u64>)> {
        let h = &self.state.histograms[slot];
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
        Some((count, h.sum.load(Ordering::Relaxed), buckets))
    }

    /// Materialize a full snapshot. Allocates; cold path only.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |slot: &AtomicU64| slot.load(Ordering::Relaxed);
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), self.counter(c)))
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| (g.name().to_string(), load(&self.state.gauges[g as usize])))
            .collect();
        let histograms = Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let (count, sum_ns, buckets) = self.histogram(stage as usize)?;
                Some(HistogramSnapshot {
                    stage: stage.name().to_string(),
                    count,
                    sum_ns,
                    buckets,
                })
            })
            .collect();
        let values = Series::ALL
            .iter()
            .filter_map(|&series| {
                let (count, sum, buckets) = self.histogram(series.slot())?;
                Some(ValueHistogramSnapshot {
                    series: series.name().to_string(),
                    count,
                    sum,
                    buckets,
                })
            })
            .collect();
        let labelled = LabelledCounter::ALL
            .iter()
            .flat_map(|&counter| {
                let slots = &self.state.labelled[counter as usize];
                (0..LABEL_SLOTS).filter_map(move |index| {
                    let value = load(&slots[index]);
                    (value != 0).then(|| LabelledSnapshot {
                        name: counter.name().to_string(),
                        label: counter.label().to_string(),
                        index: index as u32,
                        value,
                    })
                })
            })
            .collect();
        MetricsSnapshot {
            level: self.level(),
            counters,
            gauges,
            histograms,
            values,
            labelled,
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
    /// Stage (duration) histograms with at least one sample.
    pub histograms: Vec<HistogramSnapshot>,
    /// Count histograms ([`Series`]) with at least one sample.
    pub values: Vec<ValueHistogramSnapshot>,
    /// Nonzero slots of the labelled counters, in [`LabelledCounter::ALL`]
    /// order, then by label value.
    pub labelled: Vec<LabelledSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a named counter, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        value_of(&self.counters, name)
    }

    /// Value of a named gauge, or 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        value_of(&self.gauges, name)
    }

    /// Value of a labelled counter at one label value, or 0 when absent.
    pub fn labelled(&self, name: &str, index: u32) -> u64 {
        (self.labelled.iter())
            .find(|row| row.name == name && row.index == index)
            .map_or(0, |row| row.value)
    }

    /// A labelled counter summed over every label value.
    pub fn labelled_sum(&self, name: &str) -> u64 {
        (self.labelled.iter())
            .filter(|row| row.name == name)
            .map(|row| row.value)
            .sum()
    }
}

fn value_of(entries: &[(String, u64)], name: &str) -> u64 {
    entries
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// One stage's duration histogram.
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

/// One series' count histogram ([`Telemetry::record_value`]); bucket `i`
/// covers `[2^i, 2^(i+1))` of the recorded count.
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

/// One nonzero slot of a labelled counter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelledSnapshot {
    /// Counter name ([`LabelledCounter::name`]).
    pub name: String,
    /// Label key ([`LabelledCounter::label`]).
    pub label: String,
    /// Label value (the last slot also holds every value beyond it).
    pub index: u32,
    /// Counter value.
    pub value: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_names() -> Vec<&'static str> {
        (Counter::ALL.iter().map(|m| m.name()))
            .chain(LabelledCounter::ALL.iter().map(|m| m.name()))
            .chain(Gauge::ALL.iter().map(|m| m.name()))
            .chain(Stage::ALL.iter().map(|m| m.name()))
            .chain(Series::ALL.iter().map(|m| m.name()))
            .collect()
    }

    #[test]
    fn declared_names_are_unique_well_formed_and_cover_the_benchmark() {
        let names = all_names();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is declared twice");
        for name in &names {
            let mut chars = name.chars();
            assert!(
                chars.next().is_some_and(|c| c.is_ascii_lowercase())
                    && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name} is not [a-z][a-z0-9_]*"
            );
        }
        for label in LabelledCounter::ALL.iter().map(|m| m.label()) {
            assert!(["lane", "shard", "connection"].contains(&label), "{label}");
        }
        // `MetricsSnapshot::counter` answers 0 for a name it does not know,
        // so a rename would silently zero a benchmark row. These are the
        // names `benchmark/src/run.rs` (counters, histograms, values) and
        // `benchmark/src/spec.rs` (the `stage.*` rows) read.
        for read in [
            "batcher_coalesced_queries",
            "batcher_flush_window",
            "batcher_flush_depth",
            "batcher_flush_barrier",
            "batcher_flush_shutdown",
            "failovers",
            "service_call",
            "engine_batch",
            "unit_scan",
            "cache_lookup",
            "batcher_wait",
            "frame_encode",
            "frame_decode",
            "batch_occupancy",
        ] {
            assert!(names.contains(&read), "the benchmark reads {read}");
        }
    }

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
        for &counter in LabelledCounter::ALL {
            tel.add_at(counter, 1, 4);
        }
        tel.record_value(Series::BatchOccupancy, 8);
        assert!(tel.span(Stage::EngineBatch).is_none());
        let snap = tel.snapshot();
        assert_eq!(snap.level, TelemetryLevel::Off);
        assert!(snap.counters.iter().all(|(_, v)| *v == 0));
        assert!(snap.gauges.iter().all(|(_, v)| *v == 0));
        assert!(snap.histograms.is_empty());
        assert!(snap.values.is_empty());
        assert!(snap.labelled.is_empty());
    }

    #[test]
    fn value_series_and_connection_slots_record_at_counters_level() {
        let tel = Telemetry::new();
        tel.set_level(TelemetryLevel::Counters);
        tel.record_value(Series::BatchOccupancy, 1); // bucket 0
        tel.record_value(Series::BatchOccupancy, 5); // bucket 2
        tel.add_at(LabelledCounter::ConnectionFramesIn, 2, 2);
        tel.add_at(LabelledCounter::ConnectionBytesIn, 2, 100);
        tel.add_at(LabelledCounter::ConnectionBytesOut, 2, 200);
        // Overflowing connection ids fold into the last slot.
        tel.add_at(LabelledCounter::ConnectionBytesOut, LABEL_SLOTS + 7, 9);
        let snap = tel.snapshot();
        let v = &snap.values[0];
        assert_eq!(v.series, "batch_occupancy");
        assert_eq!((v.count, v.sum), (2, 6));
        assert_eq!(v.buckets, vec![1, 0, 1]);
        assert_eq!(snap.labelled.len(), 4, "one row per nonzero slot");
        assert_eq!(snap.labelled("connection_frames_in", 2), 2);
        assert_eq!(snap.labelled("connection_bytes_in", 2), 100);
        assert_eq!(snap.labelled("connection_frames_out", 2), 0);
        assert_eq!(snap.labelled("connection_bytes_out", 2), 200);
        let last = LABEL_SLOTS as u32 - 1;
        assert_eq!(snap.labelled("connection_bytes_out", last), 9);
        assert_eq!(snap.labelled_sum("connection_bytes_out"), 209);
        let row = &snap.labelled[0];
        assert_eq!(
            (row.name.as_str(), row.label.as_str(), row.index, row.value),
            ("connection_frames_in", "connection", 2, 2)
        );
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
        tel.set_gauge(Gauge::StoreShards, 4);
        tel.record_duration(Stage::EngineBatch, 1_000);
        assert!(tel.span(Stage::EngineBatch).is_none());
        tel.add_at(LabelledCounter::ShardCacheMisses, 1, 1);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("batches"), 2);
        assert_eq!(snap.gauge("store_shards"), 4);
        assert!(snap.histograms.is_empty());
        assert_eq!(snap.labelled.len(), 1);
        assert_eq!(snap.labelled("shard_cache_misses", 1), 1);
        assert_eq!(snap.labelled[0].label, "shard");
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
        assert!(snap.values.is_empty(), "a duration is no count");
    }

    #[test]
    fn snapshots_are_monotonic_for_counters_and_histograms() {
        let tel = Telemetry::new();
        tel.set_level(TelemetryLevel::Spans);
        let mut prev = tel.snapshot();
        for round in 0..5u64 {
            tel.add(Counter::RequestsServed, round + 1);
            tel.record_duration(Stage::ServiceCall, 100 * (round + 1));
            tel.add_at(LabelledCounter::LaneExecuted, 0, 1);
            let hit = round % 2 == 0;
            let outcome = [
                LabelledCounter::ShardCacheMisses,
                LabelledCounter::ShardCacheHits,
            ];
            tel.add_at(outcome[usize::from(hit)], 0, 1);
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
            for row in &prev.labelled {
                assert!(cur.labelled(&row.name, row.index) >= row.value, "{row:?}");
            }
            prev = cur;
        }
        assert_eq!(prev.counter("requests_served"), 1 + 2 + 3 + 4 + 5);
        assert_eq!(prev.labelled("lane_executed", 0), 5);
        assert_eq!(prev.labelled("shard_cache_hits", 0), 3);
    }

    #[test]
    fn lane_and_shard_overflow_fold_into_last_slot() {
        let tel = Telemetry::new();
        tel.set_level(TelemetryLevel::Counters);
        tel.add_at(LabelledCounter::LaneExecuted, LABEL_SLOTS + 10, 7);
        tel.add_at(LabelledCounter::ShardCacheHits, LABEL_SLOTS + 3, 1);
        tel.add_at(LabelledCounter::ShardCacheHits, LABEL_SLOTS - 1, 1);
        let snap = tel.snapshot();
        let last = LABEL_SLOTS as u32 - 1;
        assert_eq!(snap.labelled.len(), 2);
        assert_eq!(snap.labelled("lane_executed", last), 7);
        assert_eq!(snap.labelled("shard_cache_hits", last), 2);
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
