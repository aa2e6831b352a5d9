//! What the benchmark declares: the six workloads, the end-to-end metrics
//! with their regression bounds, and every per-layer metric with the
//! end-to-end metric it is expected to move. `BENCHMARK.json` at the repo root
//! is this table rendered (`--emit-spec`); a unit test keeps the two equal.

use crate::json::{object, Value};

/// Seconds of timed work one run is sized for (`run_seconds` in
/// `BENCHMARK.json`; the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 8;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 11;
/// Randomized 2-keyword queries generated per corpus.
pub const POOL_SIZE: usize = 4096;
/// `top` of every query.
pub const TOP_K: usize = 10;
/// Documents per `Upload` op.
pub const UPLOAD_DOCS: usize = 16;
/// Leading share of every client's query ops that runs untimed.
pub const WARMUP_SHARE: f64 = 0.05;
/// Distinct query bit-strings `cached_rw` draws from, and its Zipf exponent.
/// Every upload touches both shards and so empties the cache; at the issue's
/// exponent of 1.1 that leaves a 52% hit ratio, which puts the *median* query
/// on the boundary between a hit (~25 us) and a miss (~150 us) — it read 67 to
/// 147 us across ten seeds. At 1.5 three quarters of the queries hit: the
/// median is well inside the hit path, the misses show in `query_qps`.
pub const CACHED_POOL: usize = 512;
pub const CACHED_ZIPF: f64 = 1.5;
/// Every `CACHED_ROTATE_EVERY` ops the popularity ranking moves on by
/// `CACHED_ROTATE_BY` queries. A Zipf head is a handful of queries, so a run
/// with a fixed head measures *their* reply sizes (anything from 0 to 10
/// matches): `wire_bytes_per_query` read 1,250 to 2,000 B across ten seeds.
/// With the head drifting through the pool, a run averages over the pool;
/// a drift step is ten times rarer than an invalidation, so the hit ratio
/// stays what the exponent makes it.
pub const CACHED_ROTATE_EVERY: usize = 1024;
pub const CACHED_ROTATE_BY: usize = 37;
/// Seed of the deployment's key material. Keys are part of the fixture, like
/// the geometry: most matches of a 2-keyword query at 64k documents are the
/// scheme's false accepts, whose rate depends on the keys, so keys drawn from
/// `--seed` moved `wire_bytes_per_query` by up to 17% between seeds.
pub const KEY_SEED: u64 = 0x6d6b_7365;
/// Equal-count slices of each client's timed window, and the percentile of
/// the slices (ordered from fast to slow) that `query_p50_us` and `query_qps`
/// report: the median latency, and the rate, of the window's quiet decile.
/// This host's disturbances — a busy neighbour, for seconds at a time — only
/// ever slow a slice down and take the whole-window median with them (ten
/// seeds of `scan_heavy`: 134-184 us, spread 22%), while the fast slices keep
/// reading what the code costs (the same ten runs: spread 10%). A regression
/// in the code moves every slice, the quiet ones too; a stall that recurs in
/// fewer than nine slices of ten does not move these two metrics and shows in
/// `tail.*` instead.
pub const SLICES: usize = 40;
pub const QUIET_PERCENTILE: f64 = 10.0;
/// Local shards of every `CloudServer`, and global shards of every fleet.
pub const SERVER_SHARDS: usize = 2;
pub const FLEET_GLOBAL_SHARDS: usize = 6;
/// Documents per seed-upload frame during set-up.
pub const SEED_CHUNK: usize = 8_000;
/// Share of the op count the traced re-run (and its untraced twin) executes.
pub const TRACE_SHARE: f64 = 0.2;
/// Ladder queries per nominal second (fleet rungs run a quarter of them).
pub const LADDER_QUERIES_PER_SECOND: u64 = 400;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corpus {
    Big,
    Small,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientKind {
    Net,
    Resilient,
}

/// Corpus sizes, the op-count divisor and how many set-ups are timed
/// (`setup_s` is the fastest): full size, or `--smoke`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    pub big_docs: usize,
    pub small_docs: usize,
    pub divisor: u64,
    pub setups: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        big_docs: 64_000,
        small_docs: 1_000,
        divisor: 1,
        setups: 3,
    };
    pub const SMOKE: Scale = Scale {
        big_docs: 2_000,
        small_docs: 200,
        divisor: 50,
        setups: 1,
    };

    pub fn docs(&self, corpus: Corpus) -> usize {
        match corpus {
            Corpus::Big => self.big_docs,
            Corpus::Small => self.small_docs,
        }
    }

    /// `rate × seconds ÷ divisor`, at least 1: every op count in the
    /// benchmark goes through here, so one common factor scales them all.
    pub fn ops(&self, per_second: u64, seconds: u64) -> usize {
        (per_second * seconds / self.divisor).max(1) as usize
    }
}

/// One workload: a deployment shape plus a closed-loop, count-based op plan.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub corpus: Corpus,
    pub clients: usize,
    pub client: ClientKind,
    /// 0 = clients talk to the `CloudServer` hub directly; n = to a
    /// coordinator hub in front of n `NodeRunner`s.
    pub fleet_nodes: usize,
    /// Queries each client keeps in flight (1 = strict request/reply).
    pub pipeline: usize,
    /// `EnableCache` capacity per shard; 0 leaves the cache off.
    pub cache_capacity: u64,
    /// Ops per client per nominal second. Calibrated on the 2-core reference
    /// host so the timed window lasts about `--seconds`; `× 10` is the
    /// issue's nominal op count.
    pub ops_per_second: u64,
    /// Every n-th op is an `Upload`; 0 = the workload only queries.
    pub upload_every: usize,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "scan_heavy",
        why: "One NetClient, 64k docs, cache off: on the solo fast path the engine scan is most of the request, so kernel or scheduler changes show here and transport changes barely do.",
        corpus: Corpus::Big,
        clients: 1,
        client: ClientKind::Net,
        fleet_nodes: 0,
        pipeline: 1,
        cache_capacity: 0,
        ops_per_second: 6_000,
        upload_every: 0,
    },
    Workload {
        name: "wire_heavy",
        why: "One ResilientClient, 1k docs: the scan is a few us of the round trip, so the per-frame cost of wire, frame, link, hub, client and resilient dominates; an engine change must not move it.",
        corpus: Corpus::Small,
        clients: 1,
        client: ClientKind::Resilient,
        fleet_nodes: 0,
        pipeline: 1,
        cache_capacity: 0,
        ops_per_second: 40_000,
        upload_every: 0,
    },
    Workload {
        name: "pair_closed",
        why: "Two NetClients at depth 1, 64k docs: the smallest case where the cross-client batcher chooses between waiting out batch_window and a fused pass; today the wait costs 4x the solo latency.",
        corpus: Corpus::Big,
        clients: 2,
        client: ClientKind::Net,
        fleet_nodes: 0,
        pipeline: 1,
        cache_capacity: 0,
        ops_per_second: 1_600,
        upload_every: 0,
    },
    Workload {
        name: "bulk_pipelined",
        why: "Two NetClients pipelining windows of 16, 64k docs: 32 queries in flight keep the hub queue full, where the batcher and the fused 4-query tile kernel should pay; throughput is the point, not latency.",
        corpus: Corpus::Big,
        clients: 2,
        client: ClientKind::Net,
        fleet_nodes: 0,
        pipeline: 16,
        cache_capacity: 0,
        ops_per_second: 2_400,
        upload_every: 0,
    },
    Workload {
        name: "fleet3",
        why: "Two ResilientClients, coordinator hub, three NodeRunners, 64k docs: scatter/gather, per-node forwards and the coordinator's mirror dominate; two clients so a fused coordinator group can show.",
        corpus: Corpus::Big,
        clients: 2,
        client: ClientKind::Resilient,
        fleet_nodes: 3,
        pipeline: 1,
        cache_capacity: 0,
        ops_per_second: 130,
        upload_every: 0,
    },
    Workload {
        name: "cached_rw",
        why: "One NetClient, 64k docs, EnableCache{64}, Zipf(1.5) over 512 queries, every 128th op an Upload of 16 docs: cache hits, generation invalidation and insert beside reads; count-based, state grows.",
        corpus: Corpus::Big,
        clients: 1,
        client: ClientKind::Net,
        fleet_nodes: 0,
        pipeline: 1,
        cache_capacity: 64,
        ops_per_second: 10_000,
        upload_every: 128,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a user of the service sees. `bound` is the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "index construction + deployment spawn/registration + seed upload until acked (the fastest of 3 set-ups)",
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        what: "client-observed query latency: the median of each of 40 equal-count slices of the timed window, and of those the 10th percentile (the quiet decile)",
    },
    EndToEnd {
        name: "query_qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        what: "completed queries per second: the rate of each of 40 equal-count slices of the timed window, summed over clients, and of those the 90th percentile (the quiet decile)",
    },
    EndToEnd {
        name: "wire_bytes_per_query",
        unit: "B",
        better: "lower",
        bound: 0.08,
        what: "client WireStats sent+received over the query ops / completed queries (Table 1's quantity)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        what: "VmHWM of the workload's process at the end of the timed window (harness data included)",
    },
];

/// A per-layer metric and the end-to-end metric (on which workload) it is
/// expected to move. No bound: these explain, they do not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// Ladder rungs, bottom first. Each is the same query stream through one
/// more layer.
pub const RUNGS: [&str; 8] = [
    "engine",
    "service",
    "codec",
    "hub_mem",
    "hub_tcp",
    "resilient",
    "fleet1",
    "fleet3",
];

/// Names of the differences of adjacent rungs, in rung order.
pub const RUNG_DELTAS: [&str; 7] = [
    "protocol.server.self_us",
    "protocol.wire.self_us",
    "net.hub.self_us",
    "net.link.tcp_self_us",
    "net.resilient.self_us",
    "net.coordinator.hop_us",
    "net.coordinator.fanout_us",
];

/// Server stage histograms reported as means.
pub const STAGES: [&str; 8] = [
    "service_call",
    "engine_query",
    "engine_batch",
    "unit_scan",
    "cache_lookup",
    "batcher_wait",
    "frame_encode",
    "frame_decode",
];

pub const PER_LAYER: [PerLayer; 61] = [
    // Ladder: one closed-loop caller, the workload's corpus, eight rungs.
    layer(
        "ladder.engine.p50_us",
        "us",
        "lower",
        "query_p50_us on scan_heavy",
    ),
    layer(
        "ladder.service.p50_us",
        "us",
        "lower",
        "query_p50_us on scan_heavy",
    ),
    layer(
        "ladder.codec.p50_us",
        "us",
        "lower",
        "query_p50_us on wire_heavy",
    ),
    layer(
        "ladder.hub_mem.p50_us",
        "us",
        "lower",
        "query_p50_us on wire_heavy",
    ),
    layer(
        "ladder.hub_tcp.p50_us",
        "us",
        "lower",
        "query_p50_us on scan_heavy, wire_heavy",
    ),
    layer(
        "ladder.resilient.p50_us",
        "us",
        "lower",
        "query_p50_us on wire_heavy",
    ),
    layer(
        "ladder.fleet1.p50_us",
        "us",
        "lower",
        "query_p50_us on fleet3",
    ),
    layer(
        "ladder.fleet3.p50_us",
        "us",
        "lower",
        "query_p50_us on fleet3",
    ),
    // Adjacent-rung differences (telescope to fleet3 - engine).
    layer(
        "protocol.server.self_us",
        "us",
        "lower",
        "query_p50_us on wire_heavy",
    ),
    layer(
        "protocol.wire.self_us",
        "us",
        "lower",
        "query_p50_us on wire_heavy",
    ),
    layer(
        "net.hub.self_us",
        "us",
        "lower",
        "query_p50_us on wire_heavy",
    ),
    layer(
        "net.link.tcp_self_us",
        "us",
        "lower",
        "query_p50_us on wire_heavy",
    ),
    layer(
        "net.resilient.self_us",
        "us",
        "lower",
        "query_p50_us on wire_heavy",
    ),
    layer(
        "net.coordinator.hop_us",
        "us",
        "lower",
        "query_p50_us on fleet3",
    ),
    layer(
        "net.coordinator.fanout_us",
        "us",
        "lower",
        "query_p50_us on fleet3",
    ),
    // Timed public calls (harness spans, means).
    layer(
        "protocol.wire.encode_request_ns",
        "ns",
        "lower",
        "query_p50_us, query_qps on wire_heavy",
    ),
    layer(
        "protocol.wire.decode_request_ns",
        "ns",
        "lower",
        "query_p50_us, query_qps on wire_heavy",
    ),
    layer(
        "protocol.wire.encode_response_ns",
        "ns",
        "lower",
        "query_p50_us, query_qps on wire_heavy",
    ),
    layer(
        "protocol.wire.decode_response_ns",
        "ns",
        "lower",
        "query_p50_us, query_qps on wire_heavy",
    ),
    layer(
        "net.frame.reassemble_ns",
        "ns",
        "lower",
        "query_p50_us, query_qps on wire_heavy",
    ),
    layer(
        "core.engine.batch16_us_per_query",
        "us",
        "lower",
        "query_qps on bulk_pipelined",
    ),
    layer(
        "core.storage.insert_us_per_doc",
        "us",
        "lower",
        "query_qps on cached_rw (its window carries the uploads); setup_s everywhere",
    ),
    layer(
        "core.index.build_us_per_doc",
        "us",
        "lower",
        "setup_s everywhere",
    ),
    // Counts and ratios of the traced run, read through the admin ops.
    layer(
        "core.engine.comparisons_per_query",
        "count",
        "lower",
        "query_p50_us on scan_heavy",
    ),
    layer(
        "core.cache.hit_ratio",
        "ratio",
        "higher",
        "query_p50_us on cached_rw",
    ),
    layer(
        "core.cache.invalidations_per_upload",
        "count",
        "lower",
        "query_p50_us on cached_rw",
    ),
    layer(
        "core.cache.saved_comparisons_ratio",
        "ratio",
        "higher",
        "query_p50_us on cached_rw",
    ),
    layer(
        "net.hub.coalesced_ratio",
        "ratio",
        "higher",
        "query_qps on bulk_pipelined",
    ),
    layer(
        "net.hub.solo_ratio",
        "ratio",
        "higher",
        "query_p50_us on scan_heavy, wire_heavy",
    ),
    layer(
        "net.hub.batch_occupancy_mean",
        "count",
        "higher",
        "query_qps on bulk_pipelined",
    ),
    layer(
        "net.hub.flush_window_share",
        "ratio",
        "lower",
        "query_p50_us on pair_closed",
    ),
    layer(
        "net.hub.flush_depth_share",
        "ratio",
        "higher",
        "query_qps on bulk_pipelined",
    ),
    layer(
        "net.hub.flush_barrier_share",
        "ratio",
        "lower",
        "query_p50_us on cached_rw",
    ),
    layer(
        "net.hub.sheds",
        "count",
        "lower",
        "failed ops on every workload",
    ),
    layer(
        "net.resilient.attempts_per_success",
        "ratio",
        "lower",
        "failed ops; query_p50_us on wire_heavy, fleet3",
    ),
    layer(
        "net.resilient.retries",
        "count",
        "lower",
        "failed ops; query_p50_us on wire_heavy, fleet3",
    ),
    layer(
        "net.resilient.reconnects",
        "count",
        "lower",
        "failed ops; query_p50_us on wire_heavy, fleet3",
    ),
    layer(
        "net.coordinator.node_requests_per_query",
        "count",
        "lower",
        "query_p50_us, query_qps on fleet3",
    ),
    layer(
        "net.coordinator.failovers",
        "count",
        "lower",
        "query_p50_us, query_qps on fleet3",
    ),
    layer(
        "net.node.heartbeats",
        "count",
        "lower",
        "query_p50_us, query_qps on fleet3",
    ),
    layer(
        "proc.cpu_us_per_query",
        "us",
        "lower",
        "query_qps on every workload",
    ),
    layer(
        "proc.cpu_busy_share",
        "ratio",
        "higher",
        "query_qps: were the cores busy before a throughput change is read as cost",
    ),
    // Budget of the traced run: client spans, server stage means, the rest.
    layer(
        "net.client.submit_mean_us",
        "us",
        "lower",
        "query_p50_us on wire_heavy",
    ),
    layer(
        "net.client.flush_mean_us",
        "us",
        "lower",
        "query_p50_us on wire_heavy",
    ),
    layer(
        "net.client.wait_mean_us",
        "us",
        "lower",
        "query_p50_us on every workload",
    ),
    layer(
        "net.client.upload_p50_us",
        "us",
        "lower",
        "query_qps on cached_rw (its window carries the uploads)",
    ),
    layer(
        "stage.service_call_mean_us",
        "us",
        "lower",
        "query_p50_us on scan_heavy",
    ),
    layer(
        "stage.engine_query_mean_us",
        "us",
        "lower",
        "query_p50_us on scan_heavy",
    ),
    layer(
        "stage.engine_batch_mean_us",
        "us",
        "lower",
        "query_qps on bulk_pipelined",
    ),
    layer(
        "stage.unit_scan_mean_us",
        "us",
        "lower",
        "query_p50_us on scan_heavy",
    ),
    layer(
        "stage.cache_lookup_mean_us",
        "us",
        "lower",
        "query_p50_us on cached_rw",
    ),
    layer(
        "stage.batcher_wait_mean_us",
        "us",
        "lower",
        "query_p50_us on pair_closed",
    ),
    layer(
        "stage.frame_encode_mean_us",
        "us",
        "lower",
        "query_p50_us on wire_heavy",
    ),
    layer(
        "stage.frame_decode_mean_us",
        "us",
        "lower",
        "query_p50_us on wire_heavy",
    ),
    layer(
        "budget.unattributed_us",
        "us",
        "lower",
        "query_p50_us on every workload",
    ),
    layer(
        "budget.unattributed_share",
        "ratio",
        "lower",
        "query_p50_us on every workload",
    ),
    layer(
        "trace.overhead_pct",
        "%",
        "lower",
        "none: the cost of looking",
    ),
    // Tails: recorded, not gated (they spread 4-15% between identical runs).
    layer(
        "tail.query_p90_us",
        "us",
        "lower",
        "query_qps on every workload",
    ),
    layer(
        "tail.query_p99_us",
        "us",
        "lower",
        "query_qps on every workload",
    ),
    layer(
        "tail.query_max_us",
        "us",
        "lower",
        "query_qps on every workload",
    ),
    layer(
        "tail.query_samples",
        "count",
        "higher",
        "none: sample count behind the tail percentiles",
    ),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    object([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|s| text(s))
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![text("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| object([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn per_layer_covers_every_rung_delta_and_stage() {
        let names: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        for rung in RUNGS {
            assert!(names.contains(format!("ladder.{rung}.p50_us").as_str()));
        }
        for delta in RUNG_DELTAS {
            assert!(names.contains(delta));
        }
        for stage in STAGES {
            assert!(names.contains(format!("stage.{stage}_mean_us").as_str()));
        }
        assert_eq!(RUNG_DELTAS.len(), RUNGS.len() - 1);
    }

    /// The committed `BENCHMARK.json` is exactly this table.
    #[test]
    fn benchmark_json_file_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(file.len() <= 64 * 1024);
        assert_eq!(crate::json::parse(&file).unwrap(), benchmark_json());
    }

    #[test]
    fn op_counts_share_one_factor() {
        assert_eq!(Scale::FULL.ops(6_000, 10), 60_000);
        assert_eq!(Scale::FULL.ops(6_000, 6), 36_000);
        assert_eq!(Scale::SMOKE.ops(6_000, 6), 720);
        assert_eq!(Scale::SMOKE.ops(1, 1), 1);
    }
}
