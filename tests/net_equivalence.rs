//! The transport-invisibility oracle: N concurrent socket clients (real TCP
//! **and** the in-process `MemoryLink` twin) hammer one hub with interleaved
//! single-query / batch-query / upload traffic, with the result cache off and
//! on — and every reply each client received must be **byte-identical** to
//! what a twin `CloudServer`, identically initialized and driven sequentially
//! through `Service::call`, answers for the same requests.
//!
//! The bridge between "concurrent" and "sequential" is the hub's execution
//! journal: the dispatcher thread executes requests in a total order and
//! records it. Replaying that journal on the twin reproduces not just the
//! replies but the full server state trajectory — so the final `Counters` and
//! `CacheStats` requests (issued through the hub like everything else) also
//! assert that the *cumulative* operation and cache counters are unchanged by
//! the transport and the batcher.
//!
//! The hub's own accounting is checked beside the replies: every single query
//! is dispatched once, through the batcher; one occupancy sample per flush
//! accounts for every coalesced query; and every frame in is answered by a
//! frame out, connection by connection.

use mkse::core::{MetricsSnapshot, TelemetryLevel};
use mkse::net::{Hub, HubConfig, NetClient};
use mkse::protocol::{
    BatchQueryMessage, QueryMessage, Request, Response, Service, UploadMessage, WireStats,
};
use mkse_testkit::{assert_replies_match_replay, fixture, replay_journal};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);

const TEXTS: &[&str] = &[
    "cloud privacy search encryption audit",
    "weather forecast rain and wind",
    "cloud storage pricing enterprise",
    "encrypted archive migration cloud",
    "audit of encryption key management",
    "privacy impact assessment cloud data",
    "searchable encryption design notes",
    "cloud audit logging pipeline",
];
const KEYWORDS: &[&[&str]] = &[&["cloud"], &["audit"], &["cloud", "audit"], &["privacy"]];

/// One extra single-document upload per client, prepared up front so the
/// client threads stay free of RNG state.
fn late_uploads(clients: usize) -> Vec<(u64, &'static str)> {
    (0..clients as u64)
        .map(|k| {
            (
                1000 + k,
                "late arriving cloud audit notes from a busy client",
            )
        })
        .collect()
}

/// The interleaved workload one client runs: a pipelined burst of queries,
/// a batch-query message, an upload (a batcher barrier), then the same
/// queries again so a warm cache answers repeats. Returns every
/// (request id, reply) pair in the order the replies were taken, and the
/// client's wire accounting.
fn run_client(
    mut client: NetClient,
    queries: &[QueryMessage],
    upload: &UploadMessage,
) -> (Vec<(u64, Response)>, WireStats) {
    let mut replies = Vec::new();

    // Pipelined burst: submit the whole window, flush once, take in order.
    let ids: Vec<u64> = queries
        .iter()
        .map(|q| client.submit(&Request::Query(q.clone())))
        .collect();
    client.flush().expect("flush query burst");
    for id in ids {
        let reply = client.wait_take(id, WAIT).expect("query reply");
        replies.push((id, reply));
    }

    // The batched envelope surface travels through the hub too.
    let batch = Request::BatchQuery(BatchQueryMessage {
        queries: queries.iter().map(|q| q.query.clone()).collect(),
        top: Some(3),
    });
    let id = client.submit(&batch);
    client.flush().expect("flush batch");
    replies.push((id, client.wait_take(id, WAIT).expect("batch reply")));

    // A mutating request: barrier-flushes the batcher, invalidates cache
    // shards, and changes every later reply's ground truth.
    let id = client.submit(&Request::Upload(upload.clone()));
    client.flush().expect("flush upload");
    replies.push((id, client.wait_take(id, WAIT).expect("upload reply")));

    // Same queries again: with the cache on these are warm repeats.
    for q in queries {
        let id = client.submit(&Request::Query(q.clone()));
        client.flush().expect("flush repeat");
        replies.push((id, client.wait_take(id, WAIT).expect("repeat reply")));
    }
    (replies, client.wire_stats())
}

/// The hub's accounting, read off the served registry after shutdown:
/// `singles` single queries and `batched` batch-message members ran, and
/// `clients` holds every connection's client-side wire stats.
fn assert_hub_accounting(
    snapshot: &MetricsSnapshot,
    clients: &[WireStats],
    singles: u64,
    batched: u64,
) {
    // Every single query is dispatched exactly once, through the batcher: a
    // lone connection's query is a group of one, never a second path.
    let coalesced = snapshot.counter("batcher_coalesced_queries");
    assert_eq!(coalesced, singles);
    let flushes: u64 = ["complete", "window", "depth", "barrier", "shutdown"]
        .iter()
        .map(|reason| snapshot.counter(&format!("batcher_flush_{reason}")))
        .sum();
    let occupancy = snapshot
        .values
        .iter()
        .find(|v| v.series == "batch_occupancy")
        .expect("the hub records batch occupancy");
    assert_eq!(
        (occupancy.count, occupancy.sum),
        (flushes, coalesced),
        "one occupancy sample per flush, summing to the coalesced queries"
    );
    // The engine ran every query once: groups and batch messages alike.
    assert_eq!(snapshot.counter("batch_queries"), singles + batched);
    // Every frame in was answered by a frame out, connection by connection.
    let frames: u64 = clients.iter().map(|c| c.frames_sent).sum();
    assert_eq!(snapshot.counter("wire_frames_in"), frames);
    assert_eq!(snapshot.counter("wire_frames_out"), frames);
    assert_eq!(snapshot.counter("connections_opened"), clients.len() as u64);
    let mut served: Vec<_> = (snapshot.connections.iter())
        .map(|c| (c.frames_in, c.bytes_in, c.frames_out, c.bytes_out))
        .collect();
    let mut sent: Vec<_> = (clients.iter())
        .map(|c| {
            (
                c.frames_sent,
                c.bytes_sent,
                c.frames_received,
                c.bytes_received,
            )
        })
        .collect();
    served.sort_unstable();
    sent.sort_unstable();
    assert_eq!(served, sent, "per-connection frame accounting");
}

#[test]
fn concurrent_clients_are_equivalent_to_sequential_service_calls() {
    const TCP_CLIENTS: usize = 4;
    const MEM_CLIENTS: usize = 2;
    const CLIENTS: usize = TCP_CLIENTS + MEM_CLIENTS;
    let fx = fixture(20812, TEXTS, KEYWORDS, &late_uploads(CLIENTS));

    for &cache in &[false, true] {
        let config = HubConfig {
            batch_window: Duration::from_millis(2),
            batch_depth: 4,
            journal: true,
            ..HubConfig::default()
        };
        let server = fx.server(2, cache);
        server.set_telemetry_level(TelemetryLevel::Counters);
        let telemetry = server.telemetry().expect("a server registry").clone();
        let hub = Hub::spawn(server, config);
        let addr = hub.bind_tcp("127.0.0.1:0").expect("bind");

        // ≥ 4 concurrent socket clients plus the MemoryLink twin, each on
        // its own thread with a disjoint request-id range.
        let mut workers = Vec::new();
        for k in 0..CLIENTS {
            let client = if k < TCP_CLIENTS {
                NetClient::connect_tcp(addr).expect("connect")
            } else {
                NetClient::from_memory(hub.connect_memory())
            }
            .with_first_request_id(k as u64 * 1_000_000 + 1);
            let queries = fx.queries.clone();
            let upload = fx.extra_uploads[k].clone();
            workers.push(std::thread::spawn(move || {
                run_client(client, &queries, &upload)
            }));
        }
        let mut received: Vec<(u64, Response)> = Vec::new();
        let mut wire = Vec::new();
        for worker in workers {
            let (replies, stats) = worker.join().expect("client thread");
            received.extend(replies);
            wire.push(stats);
        }

        // After the concurrent phase: read the cumulative counters through
        // the hub. These go through the journal like everything else, so
        // the replay below asserts counter equality too.
        let mut admin =
            NetClient::from_memory(hub.connect_memory()).with_first_request_id(9_000_000);
        for (id, request) in [
            (9_000_000, Request::Counters),
            (9_000_001, Request::CacheStats),
        ] {
            let reply = admin.call(&request, WAIT).expect("admin through the hub");
            received.push((id, reply));
        }
        wire.push(admin.wire_stats());
        drop(admin);

        let report = hub.shutdown();
        let expected_requests = (CLIENTS * (2 * fx.queries.len() + 2) + 2) as u64;
        assert_eq!(
            report.requests, expected_requests,
            "cache={cache}: every request must be executed"
        );
        assert_eq!(report.journal.len() as u64, report.requests);
        assert_eq!(received.len() as u64, expected_requests);

        // Sequential replay on the twin: the hub's total execution order,
        // one plain Service::call at a time — no transport, no batcher.
        let expected = replay_journal(&mut fx.server(2, cache), &report.journal);
        assert_replies_match_replay(&received, &expected, &format!("cache={cache}"));
        let found = (received.iter())
            .filter_map(|(_, reply)| reply.clone().into_search().ok())
            .any(|reply| !reply.matches.is_empty());
        assert!(found, "the workload must find documents");

        let snapshot = telemetry.snapshot();
        let singles = (CLIENTS * 2 * fx.queries.len()) as u64;
        let batched = (CLIENTS * fx.queries.len()) as u64;
        assert_hub_accounting(&snapshot, &wire, singles, batched);
        let hits: u64 = snapshot.shard_caches.iter().map(|s| s.hits).sum();
        assert_eq!(
            hits > 0,
            cache,
            "repeated queries hit the cache iff it is on"
        );
    }
}

#[test]
fn shutdown_while_loaded_drains_every_accepted_request() {
    let fx = fixture(20812, TEXTS, KEYWORDS, &[]);
    // A huge window and depth, and a connection the batcher expects that has
    // gone quiet: nothing flushes until shutdown forces it.
    let config = HubConfig {
        batch_window: Duration::from_secs(10),
        batch_depth: 1 << 20,
        journal: true,
        ..HubConfig::default()
    };
    let hub = Hub::spawn(fx.server(2, true), config);

    let mut clients: Vec<NetClient> = (0..3)
        .map(|k| {
            NetClient::from_memory(hub.connect_memory()).with_first_request_id(k as u64 * 1_000 + 1)
        })
        .collect();
    let mut quiet = NetClient::from_memory(hub.connect_memory()).with_first_request_id(9_001);
    quiet
        .call(&Request::Query(fx.queries[0].clone()), WAIT)
        .expect("the quiet client's one query");
    let mut ids = Vec::new();
    for client in clients.iter_mut() {
        for q in &fx.queries {
            ids.push(client.submit(&Request::Query(q.clone())));
        }
        client.flush().expect("flush");
    }
    let total = (3 * fx.queries.len() + 1) as u64;
    while hub.frames_accepted() < total {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Shut down with the whole load still pending in the batcher: the drain
    // must execute and answer every accepted request.
    let report = hub.shutdown();
    assert_eq!(report.requests, total, "no accepted request may be dropped");

    let expected = replay_journal(&mut fx.server(2, true), &report.journal);
    let mut drained = Vec::new();
    for (k, client) in clients.iter_mut().enumerate() {
        for &id in &ids[k * fx.queries.len()..(k + 1) * fx.queries.len()] {
            drained.push((id, client.wait_take(id, WAIT).expect("drained reply")));
        }
    }
    assert_eq!(
        drained.len() as u64 + 1,
        total,
        "every client read every drained reply"
    );
    assert_replies_match_replay(&drained, &expected, "drain");
}
