//! Concurrent-client transport sweep (`fig4b_net`), recorded in
//! `BENCH_net.json`.
//!
//! One hub owning a 2-shard `CloudServer` answers a pipelined single-query
//! workload from 1/2/4/8 concurrent in-process clients (`MemoryLink`s — the
//! deterministic twin of the TCP path, so the sweep measures the dispatcher
//! and the batcher, not the kernel's loopback stack), with the cross-client
//! batcher on and off. With batching on, the queries of the clients that are
//! querying are executed as one fused scan-plane pass (a group is flushed
//! once each of them has a query in it, or at the depth); with it off every
//! request executes on arrival — the gap is the server-side memory-traffic
//! amortization the batcher exists for.
//!
//! Before any configuration is timed, the same workload runs once with the
//! hub's execution journal on and every reply is asserted identical to a twin
//! server driven sequentially through `Service::call` — the transport and the
//! batcher must be invisible, or the timings compare different computations.
//!
//! The committed record carries `host_cores` honestly: on a single-core
//! container every "concurrent" client is time-sliced onto the same core, so
//! client-count scaling mostly measures scheduling overhead there, and the
//! record must say so rather than imply a wider machine. Smoke runs
//! (`--test`) never overwrite the committed record.

use criterion::{criterion_group, criterion_main, Criterion};
use mkse_bench::BenchFixture;
use mkse_core::{QueryBuilder, QueryIndex, TelemetryLevel};
use mkse_net::{Hub, HubConfig, HubHandle, NetClient};
use mkse_protocol::{CloudServer, QueryMessage, Request, Response, Service};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const NET_DOCS: usize = 8_000;
const POOL: usize = 8;
const WINDOW: usize = 8;
const PER_CLIENT_CHECK: usize = 16;
const PER_CLIENT_TIMED: usize = 64;
const WAIT: Duration = Duration::from_secs(60);

fn hub_config(batching: bool, journal: bool) -> HubConfig {
    HubConfig {
        batching,
        batch_window: Duration::from_micros(200),
        batch_depth: 16,
        journal,
        ..HubConfig::default()
    }
}

/// Drive `clients` concurrent pipelined clients (windows of [`WINDOW`]) for
/// `per_client` queries each; returns every (request id, reply) pair per
/// client, in take order.
fn drive(
    hub: &HubHandle,
    clients: usize,
    pool: &[QueryMessage],
    per_client: usize,
) -> Vec<Vec<(u64, Response)>> {
    // All connections are attached before any traffic flows, so every
    // configuration coalesces across the same set of open connections.
    let handles: Vec<NetClient> = (0..clients)
        .map(|k| {
            NetClient::from_memory(hub.connect_memory())
                .with_first_request_id(k as u64 * 1_000_000 + 1)
        })
        .collect();
    let workers: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(k, mut client)| {
            let pool: Vec<QueryMessage> = pool.to_vec();
            std::thread::spawn(move || {
                let mut replies = Vec::with_capacity(per_client);
                let mut served = 0usize;
                while served < per_client {
                    let window = WINDOW.min(per_client - served);
                    let ids: Vec<u64> = (0..window)
                        .map(|i| {
                            let q = &pool[(k + served + i) % pool.len()];
                            client.submit(&Request::Query(q.clone()))
                        })
                        .collect();
                    client.flush().expect("pipelined flush");
                    for id in ids {
                        replies.push((id, client.wait_take(id, WAIT).expect("reply")));
                    }
                    served += window;
                }
                replies
            })
        })
        .collect();
    workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect()
}

fn bench_net(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--test");
    let filtered_out = std::env::args()
        .skip(1)
        .any(|a| !a.starts_with('-') && !"fig4b_net".contains(a.as_str()));
    if filtered_out {
        return;
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = |id: &str, ns: f64| {
        if quick {
            println!("fig4b_net/{id}  ok (smoke run)");
        } else {
            println!("fig4b_net/{id}  time: {:.3} µs/query", ns / 1e3);
        }
    };

    let fixture = BenchFixture::new(NET_DOCS, 3, 11);
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

    let make_server = || {
        let mut server = CloudServer::with_shards(fixture.params.clone(), 2);
        server.set_telemetry_level(TelemetryLevel::Counters);
        server.upload(indices.clone(), vec![]).expect("seed upload");
        server
    };

    let mut entries: Vec<String> = Vec::new();
    for &clients in &[1usize, 2, 4, 8] {
        for &batching in &[true, false] {
            // Equivalence before timing: journal the concurrent run, replay it
            // sequentially on a twin, compare every reply a client received.
            let hub = Hub::spawn(make_server(), hub_config(batching, true));
            let received = drive(&hub, clients, &pool, PER_CLIENT_CHECK);
            let hub_report = hub.shutdown();
            assert_eq!(
                hub_report.requests,
                (clients * PER_CLIENT_CHECK) as u64,
                "clients={clients} batching={batching}: requests lost"
            );
            let mut twin = make_server();
            let mut expected = std::collections::BTreeMap::new();
            for entry in &hub_report.journal {
                expected.insert(entry.request_id, twin.call(entry.request.clone()));
            }
            for (id, reply) in received.iter().flatten() {
                assert_eq!(
                    Some(reply),
                    expected.get(id),
                    "clients={clients} batching={batching}: reply #{id} diverged \
                     from sequential Service::call"
                );
            }

            // Timed rounds: whole concurrent runs, best round kept (each round
            // spawns a fresh hub so no round inherits a warm batcher state).
            let rounds = if quick { 1 } else { 7 };
            let per_client = if quick { 2 } else { PER_CLIENT_TIMED };
            let total = (clients * per_client) as f64;
            let mut best = f64::MAX;
            let mut coalesced = 0u64;
            let mut solo = 0u64;
            for _ in 0..rounds {
                let hub = Hub::spawn(make_server(), hub_config(batching, false));
                let start = Instant::now();
                std::hint::black_box(drive(&hub, clients, &pool, per_client));
                best = best.min(start.elapsed().as_nanos() as f64 / total);
                // Diagnostics from the last round's registry (read over the
                // same transport), before the hub goes away.
                let mut admin =
                    NetClient::from_memory(hub.connect_memory()).with_first_request_id(9_000_000);
                if let Ok(Response::MetricsReport(snapshot)) =
                    admin.call(&Request::MetricsSnapshot, WAIT)
                {
                    coalesced = snapshot.counter("batcher_coalesced_queries");
                    solo = snapshot.counter("batcher_solo_dispatches");
                }
                drop(admin);
                hub.shutdown();
            }
            let ns = if quick { 0.0 } else { best };
            let mode = if batching { "batched" } else { "unbatched" };
            report(&format!("{mode}/clients{clients}"), ns);
            entries.push(format!(
                "    {{\"mode\": \"{mode}\", \"clients\": {clients}, \
                 \"ns_per_query\": {ns:.1}, \"coalesced_queries\": {coalesced}, \
                 \"solo_dispatches\": {solo}}}"
            ));
        }
    }
    println!();

    if quick {
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"fig4b_net\",\n  \"docs\": {NET_DOCS},\n  \"r\": {r},\n  \
         \"eta\": {},\n  \"host_cores\": {host_cores},\n  \"queries_per_client\": \
         {PER_CLIENT_TIMED},\n  \"entries\": [\n{}\n  ]\n}}\n",
        fixture.params.rank_levels(),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("fig4b_net: wrote {path}"),
        Err(e) => eprintln!("fig4b_net: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
