//! Resilience-cost sweep (`fig4b_resil`), recorded in `BENCH_resil.json`.
//!
//! One hub owning a 2-shard `CloudServer` answers a sequential single-query
//! workload from 2 concurrent `ResilientClient`s while their links run a
//! **deterministic seeded fault plan** — none / light / heavy byte-budget
//! kills plus torn writes — with the retry machinery on and off. The sweep
//! prices what resilience costs: the wrapper's overhead on a healthy link
//! (fault=none rows), the throughput tax of recovering from dying links
//! (retry=on under faults completes everything, slower per query), and what
//! is *lost* without retries (retry=off under faults completes only a
//! fraction — the completed column is the figure, not just the latency).
//!
//! Fault plans inject kills and tears only — never delays — so the timings
//! measure recovery work (reconnect + resubmit), not injected sleep.
//!
//! Before any configuration is timed, the same workload runs once with the
//! hub's execution journal on and every *completed* reply is asserted
//! identical to a twin server driven sequentially through `Service::call` —
//! chaos may cost retries, it must never change an answer. The per-client
//! conservation law `attempts == successes + sheds + link_faults` is asserted
//! in the same pass. Smoke runs (`--test`) never overwrite the committed
//! record.

use criterion::{criterion_group, criterion_main, Criterion};
use mkse_bench::BenchFixture;
use mkse_core::{QueryBuilder, QueryIndex, TelemetryLevel};
use mkse_net::{
    Connector, FaultPlan, FaultyLink, Hub, HubConfig, HubHandle, ResilienceStats, ResilientClient,
    RetryPolicy,
};
use mkse_protocol::{wire, CloudServer, QueryMessage, Request, Response, Service, UploadMessage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const RESIL_DOCS: usize = 8_000;
const POOL: usize = 8;
const CLIENTS: usize = 2;
const PER_CLIENT_CHECK: usize = 16;
const PER_CLIENT_TIMED: usize = 48;

/// A fault intensity: connection byte budget (in query frames) and torn-write
/// probability. `None` = clean links.
#[derive(Clone, Copy)]
struct FaultLevel {
    name: &'static str,
    frames_per_connection: Option<u64>,
    torn_write_per_mille: u32,
}

const LEVELS: [FaultLevel; 3] = [
    FaultLevel {
        name: "none",
        frames_per_connection: None,
        torn_write_per_mille: 0,
    },
    FaultLevel {
        name: "light",
        frames_per_connection: Some(16),
        torn_write_per_mille: 20,
    },
    FaultLevel {
        name: "heavy",
        frames_per_connection: Some(4),
        torn_write_per_mille: 80,
    },
];

fn hub_config(journal: bool) -> HubConfig {
    HubConfig {
        batch_window: Duration::from_micros(200),
        batch_depth: 16,
        journal,
        ..HubConfig::default()
    }
}

fn policy(retry: bool) -> RetryPolicy {
    RetryPolicy {
        // retry=off still reconnects on the *next* call — it only refuses to
        // resubmit the failed request itself.
        max_attempts: if retry { 24 } else { 1 },
        base_backoff: Duration::from_micros(200),
        backoff_cap: Duration::from_millis(5),
        attempt_timeout: Duration::from_secs(10),
        request_deadline: Duration::from_secs(60),
        jitter_seed: 0xF1C4,
    }
}

fn connector(hub: &HubHandle, level: FaultLevel, frame_len: u64, seed: u64) -> Connector {
    let dialer = hub.memory_dialer();
    Box::new(move |ordinal| {
        let (reader, writer) = dialer.connect().split();
        match level.frames_per_connection {
            None => Ok((Box::new(reader) as _, Box::new(writer) as _)),
            Some(frames) => {
                let plan = FaultPlan {
                    kill_after_bytes: Some(frames * frame_len + frame_len / 2),
                    torn_write_per_mille: level.torn_write_per_mille,
                    ..FaultPlan::healthy(seed.wrapping_add(ordinal.wrapping_mul(0x9e37)))
                };
                let (r, w, _handle) = FaultyLink::wrap(Box::new(reader), Box::new(writer), plan);
                Ok((Box::new(r) as _, Box::new(w) as _))
            }
        }
    })
}

struct DriveOutcome {
    received: Vec<(u64, Response)>,
    stats: ResilienceStats,
    completed: u64,
    issued: u64,
}

/// Drive `CLIENTS` concurrent resilient clients for `per_client` sequential
/// queries each; failed calls (retry budget exhausted) are counted, not
/// fatal.
fn drive(
    hub: &HubHandle,
    pool: &[QueryMessage],
    per_client: usize,
    level: FaultLevel,
    retry: bool,
    frame_len: u64,
    seed_round: u64,
) -> DriveOutcome {
    let workers: Vec<_> = (0..CLIENTS)
        .map(|k| {
            let conn = connector(
                hub,
                level,
                frame_len,
                seed_round.wrapping_add(k as u64 * 7919),
            );
            let pool: Vec<QueryMessage> = pool.to_vec();
            std::thread::spawn(move || {
                let mut client = ResilientClient::new(conn, policy(retry))
                    .with_first_request_id(k as u64 * 1_000_000 + 1);
                let mut received = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let q = &pool[(k + i) % pool.len()];
                    if let Ok((id, reply)) = client.call_traced(&Request::Query(q.clone())) {
                        received.push((id, reply));
                    }
                }
                (received, client.stats())
            })
        })
        .collect();
    let mut outcome = DriveOutcome {
        received: Vec::new(),
        stats: ResilienceStats::default(),
        completed: 0,
        issued: (CLIENTS * per_client) as u64,
    };
    for worker in workers {
        let (received, stats) = worker.join().expect("client thread");
        assert_eq!(
            stats.attempts,
            stats.successes + stats.sheds + stats.link_faults,
            "conservation law violated: {stats:?}"
        );
        outcome.completed += received.len() as u64;
        outcome.received.extend(received);
        outcome.stats.attempts += stats.attempts;
        outcome.stats.successes += stats.successes;
        outcome.stats.sheds += stats.sheds;
        outcome.stats.link_faults += stats.link_faults;
        outcome.stats.retries += stats.retries;
        outcome.stats.reconnects += stats.reconnects;
    }
    outcome
}

fn bench_resil(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--test");
    let filtered_out = std::env::args()
        .skip(1)
        .any(|a| !a.starts_with('-') && !"fig4b_resil".contains(a.as_str()));
    if filtered_out {
        return;
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = |id: &str, ns: f64| {
        if quick {
            println!("fig4b_resil/{id}  ok (smoke run)");
        } else {
            println!("fig4b_resil/{id}  time: {:.3} µs/completed query", ns / 1e3);
        }
    };

    let fixture = BenchFixture::new(RESIL_DOCS, 3, 11);
    let indexer = fixture.indexer();
    let indices = indexer.index_documents(&fixture.corpus.documents);
    let r = fixture.params.index_bits;
    let random_pool = fixture.keys.random_pool_trapdoors(&fixture.params);
    let mut rng = StdRng::seed_from_u64(41);
    let pool: Vec<QueryMessage> = fixture
        .query_keyword_pool(POOL)
        .iter()
        .map(|kws| {
            let kw_refs: Vec<&str> = kws.iter().map(|s| s.as_str()).collect();
            let trapdoors = fixture.keys.trapdoors_for(&fixture.params, &kw_refs);
            let q: QueryIndex = QueryBuilder::new(&fixture.params)
                .add_trapdoors(&trapdoors)
                .with_randomization(&random_pool)
                .build(&mut rng);
            QueryMessage {
                query: q.bits().clone(),
                top: Some(10),
            }
        })
        .collect();
    let frame_len = wire::encode_request(1, &Request::Query(pool[0].clone())).len() as u64;

    let make_server = || {
        let mut server = CloudServer::with_shards(fixture.params.clone(), 2);
        server.set_telemetry_level(TelemetryLevel::Counters);
        server
            .call(Request::Upload(UploadMessage {
                indices: indices.clone(),
                documents: vec![],
            }))
            .into_uploaded()
            .expect("seed upload");
        server
    };

    let mut entries: Vec<String> = Vec::new();
    for level in LEVELS {
        for &retry in &[true, false] {
            // Equivalence before timing: journal the chaotic run, replay it
            // sequentially on a twin, compare every *completed* reply.
            let hub = Hub::spawn(make_server(), hub_config(true));
            let checked = drive(&hub, &pool, PER_CLIENT_CHECK, level, retry, frame_len, 0xA5);
            let hub_report = hub.shutdown();
            assert_eq!(hub_report.sheds, 0, "no budget pressure in this sweep");
            let mut twin = make_server();
            let mut expected = std::collections::BTreeMap::new();
            for entry in &hub_report.journal {
                expected.insert(entry.request_id, twin.call(entry.request.clone()));
            }
            for (id, reply) in &checked.received {
                assert_eq!(
                    Some(reply),
                    expected.get(id),
                    "fault={} retry={retry}: completed reply #{id} diverged \
                     from sequential Service::call",
                    level.name
                );
            }
            if retry || level.frames_per_connection.is_none() {
                assert_eq!(
                    checked.completed, checked.issued,
                    "fault={} retry={retry}: with retries on, chaos may cost \
                     attempts but never answers",
                    level.name
                );
            }

            // Timed rounds: whole concurrent runs against fresh hubs, best
            // round kept; cost is per *completed* query.
            let rounds = if quick { 1 } else { 5 };
            let per_client = if quick { 2 } else { PER_CLIENT_TIMED };
            let mut best = f64::MAX;
            let mut last = DriveOutcome {
                received: Vec::new(),
                stats: ResilienceStats::default(),
                completed: 0,
                issued: 0,
            };
            for round in 0..rounds {
                let hub = Hub::spawn(make_server(), hub_config(false));
                let start = Instant::now();
                let outcome = drive(
                    &hub,
                    &pool,
                    per_client,
                    level,
                    retry,
                    frame_len,
                    0xBEEF + round as u64,
                );
                let elapsed = start.elapsed().as_nanos() as f64;
                hub.shutdown();
                best = best.min(elapsed / outcome.completed.max(1) as f64);
                last = outcome;
            }
            let ns = if quick { 0.0 } else { best };
            let mode = if retry { "retry" } else { "noretry" };
            report(&format!("{mode}/fault_{}", level.name), ns);
            entries.push(format!(
                "    {{\"fault\": \"{}\", \"retry\": {retry}, \
                 \"ns_per_completed\": {ns:.1}, \"completed\": {}, \"issued\": {}, \
                 \"attempts\": {}, \"retries\": {}, \"reconnects\": {}, \
                 \"link_faults\": {}}}",
                level.name,
                last.completed,
                last.issued,
                last.stats.attempts,
                last.stats.retries,
                last.stats.reconnects,
                last.stats.link_faults,
            ));
        }
    }
    println!();

    if quick {
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"fig4b_resil\",\n  \"docs\": {RESIL_DOCS},\n  \"r\": {r},\n  \
         \"eta\": {},\n  \"host_cores\": {host_cores},\n  \"clients\": {CLIENTS},\n  \
         \"queries_per_client\": {PER_CLIENT_TIMED},\n  \"query_frame_bytes\": {frame_len},\n  \
         \"entries\": [\n{}\n  ]\n}}\n",
        fixture.params.rank_levels(),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_resil.json");
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("fig4b_resil: wrote {path}"),
        Err(e) => eprintln!("fig4b_resil: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_resil);
criterion_main!(benches);
