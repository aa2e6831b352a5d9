//! The socket transport end to end: one hub owning a cached, telemetry-enabled
//! `CloudServer`, four concurrent TCP clients driving mixed traffic — pipelined
//! single queries (hot repeats), a batched-query message, an upload — and then
//! a dashboard read over the same wire: the per-connection wire section and the
//! cross-client batcher section of the server's `MetricsSnapshot`.
//!
//! The cross-client batcher coalesces single `Request::Query` frames from
//! the connections that are querying into one fused scan-plane pass; the
//! asserts at the bottom check the conservation laws that make it invisible
//! (every single query is either coalesced or dispatched solo, every frame in
//! is answered by a frame out) rather than timing-dependent quantities.
//!
//! Run with: `cargo run --release --example socket_session`

use mkse::core::{DocumentIndexer, QueryBuilder, SchemeKeys, SystemParams, TelemetryLevel};
use mkse::net::{Hub, HubConfig, NetClient};
use mkse::protocol::{BatchQueryMessage, CloudServer, QueryMessage, Request, UploadMessage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const CLIENTS: usize = 4;
const BURST: usize = 8;
const BATCH: usize = 6;
const REPEATS: usize = 4;
const WAIT: Duration = Duration::from_secs(60);

fn main() {
    let params = SystemParams::default();
    let mut rng = StdRng::seed_from_u64(11);
    let keys = SchemeKeys::generate(&params, &mut rng);
    let indexer = DocumentIndexer::new(&params, &keys);
    let pool = keys.random_pool_trapdoors(&params);

    let topics = [
        "alert",
        "invoice",
        "intrusion",
        "revenue",
        "backup",
        "audit",
        "phishing",
        "forecast",
    ];
    let indices = (0..32u64)
        .map(|id| {
            let topic = topics[id as usize % topics.len()];
            indexer.index_keywords(id, &[topic, "common", "filler"])
        })
        .collect();

    let mut server = CloudServer::with_shards(params.clone(), 2);
    server.set_telemetry_level(TelemetryLevel::Spans);
    server.upload(indices, vec![]).expect("seed upload");
    server.enable_result_cache(64);

    // One prebuilt query per topic: repeats arrive as identical bytes, which is
    // exactly the traffic the result cache (and the batcher's fused dedup)
    // serves. Every client shares the same set — cross-client repeats too.
    let queries: Vec<QueryMessage> = topics
        .iter()
        .map(|topic| {
            let query = QueryBuilder::new(&params)
                .add_trapdoors(&keys.trapdoors_for(&params, &[topic]))
                .with_randomization(&pool)
                .build(&mut rng);
            QueryMessage {
                query: query.bits().clone(),
                top: None,
            }
        })
        .collect();
    // Each client also uploads one late document mid-session (a batcher
    // barrier and a cache invalidation for the shard it lands in).
    let uploads: Vec<UploadMessage> = (0..CLIENTS as u64)
        .map(|k| UploadMessage {
            indices: vec![indexer.index_keywords(100 + k, &["audit", "late", "arrival"])],
            documents: vec![],
        })
        .collect();

    let hub = Hub::spawn(
        server,
        HubConfig {
            batch_window: Duration::from_millis(2),
            batch_depth: 8,
            ..HubConfig::default()
        },
    );
    let addr = hub.bind_tcp("127.0.0.1:0").expect("bind");

    // Connect all four sockets before any traffic flows, then let the client
    // threads loose concurrently.
    let clients: Vec<NetClient> = (0..CLIENTS)
        .map(|k| {
            NetClient::connect_tcp(addr)
                .expect("connect")
                .with_first_request_id(k as u64 * 1_000_000 + 1)
        })
        .collect();
    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(k, mut client)| {
            let queries = queries.clone();
            let upload = uploads[k].clone();
            std::thread::spawn(move || {
                let mut matches = 0usize;
                // Pipelined burst: submit a window of hot single queries,
                // flush once, correlate replies by id.
                let ids: Vec<u64> = (0..BURST)
                    .map(|i| {
                        client.submit(&Request::Query(queries[(k + i) % queries.len()].clone()))
                    })
                    .collect();
                client.flush().expect("flush burst");
                for id in ids {
                    let reply = client.wait_take(id, WAIT).expect("burst reply");
                    matches += reply.into_search().expect("a Search reply").matches.len();
                }
                // One batched-query envelope (its own fused pass, a barrier
                // for the cross-client batcher).
                let batch = Request::BatchQuery(BatchQueryMessage {
                    queries: (0..BATCH)
                        .map(|i| queries[(k + i) % queries.len()].query.clone())
                        .collect(),
                    top: Some(3),
                });
                let reply = client.call(&batch, WAIT).expect("batch reply");
                let reply = reply.into_batch_search().expect("a BatchSearch reply");
                matches += reply.replies.iter().map(|r| r.matches.len()).sum::<usize>();
                // The upload, then the hot queries again — now partly warm.
                let reply = client.call(&Request::Upload(upload), WAIT);
                reply
                    .expect("upload reply")
                    .into_uploaded()
                    .expect("upload acknowledged");
                for i in 0..REPEATS {
                    let q = Request::Query(queries[(k + i) % queries.len()].clone());
                    let reply = client.call(&q, WAIT).expect("repeat reply");
                    matches += reply.into_search().expect("a Search reply").matches.len();
                }
                (client.wire_stats(), matches)
            })
        })
        .collect();

    println!("=== client wire ===");
    let mut matches_total = 0usize;
    let mut frames_sent_total = 0u64;
    for (k, worker) in workers.into_iter().enumerate() {
        let (stats, matches) = worker.join().expect("client thread");
        println!(
            "client {k}: {} frames / {} bytes sent, {} frames / {} bytes received, {matches} matches",
            stats.frames_sent, stats.bytes_sent, stats.frames_received, stats.bytes_received
        );
        matches_total += matches;
        frames_sent_total += stats.frames_sent;
    }

    // The dashboard read travels the same transport: a fifth (in-process)
    // connection asking for the telemetry snapshot.
    let mut admin = NetClient::from_memory(hub.connect_memory()).with_first_request_id(9_000_000);
    let snapshot = admin
        .call(&Request::MetricsSnapshot, WAIT)
        .expect("metrics snapshot over the wire")
        .into_metrics_report()
        .expect("a MetricsReport reply");

    println!("\n=== server wire (per connection) ===");
    for conn in &snapshot.connections {
        println!(
            "connection {}: {} frames / {} bytes in, {} frames / {} bytes out",
            conn.connection, conn.frames_in, conn.bytes_in, conn.frames_out, conn.bytes_out
        );
    }

    println!("\n=== batcher ===");
    let coalesced = snapshot.counter("batcher_coalesced_queries");
    let solo = snapshot.counter("batcher_solo_dispatches");
    let flushes = snapshot.counter("batcher_flush_complete")
        + snapshot.counter("batcher_flush_window")
        + snapshot.counter("batcher_flush_depth")
        + snapshot.counter("batcher_flush_barrier")
        + snapshot.counter("batcher_flush_shutdown");
    println!(
        "coalesced {coalesced} queries into {flushes} fused flushes ({} complete / {} window / {} depth / {} barrier / {} shutdown), {solo} solo dispatches",
        snapshot.counter("batcher_flush_complete"),
        snapshot.counter("batcher_flush_window"),
        snapshot.counter("batcher_flush_depth"),
        snapshot.counter("batcher_flush_barrier"),
        snapshot.counter("batcher_flush_shutdown"),
    );
    let occupancy = snapshot
        .values
        .iter()
        .find(|v| v.series == "batch_occupancy");
    if let Some(occupancy) = occupancy {
        println!(
            "batch occupancy: {} flushes, avg {} queries per fused pass",
            occupancy.count,
            occupancy.sum / occupancy.count.max(1)
        );
    }
    let waits = snapshot
        .histograms
        .iter()
        .find(|h| h.stage == "batcher_wait");
    if let Some(waits) = waits {
        println!(
            "batcher wait: {} samples, avg {} ns held in the batcher",
            waits.count,
            waits.sum_ns / waits.count.max(1)
        );
    }

    // Conservation laws (timing-independent, so CI can run this example):
    let singles = (CLIENTS * (BURST + REPEATS)) as u64;
    assert_eq!(
        coalesced + solo,
        singles,
        "every single query is dispatched exactly once"
    );
    assert_eq!(
        occupancy.map(|o| o.sum).unwrap_or(0),
        coalesced,
        "occupancy samples account for every coalesced query"
    );
    assert_eq!(
        occupancy.map(|o| o.count).unwrap_or(0),
        flushes,
        "one occupancy sample per fused flush"
    );
    // Engine-side accounting: coalesced + batch-envelope queries run fused,
    // solo ones on the single-query path.
    assert_eq!(
        snapshot.counter("queries") + snapshot.counter("batch_queries"),
        singles + (CLIENTS * BATCH) as u64,
    );
    // Every frame in was answered: clients saw all their replies, and the
    // admin's own request frame was recorded before this snapshot was taken.
    assert_eq!(snapshot.counter("wire_frames_in"), frames_sent_total + 1);
    assert_eq!(snapshot.counter("wire_frames_out"), frames_sent_total);
    let conn_frames_in: u64 = snapshot.connections.iter().map(|c| c.frames_in).sum();
    assert_eq!(conn_frames_in, frames_sent_total + 1);
    assert_eq!(snapshot.counter("connections_opened"), CLIENTS as u64 + 1);
    assert!(matches_total > 0, "the workload must find documents");
    let hits: u64 = snapshot.shard_caches.iter().map(|s| s.hits).sum();
    assert!(hits > 0, "hot repeated queries must hit the result cache");

    drop(admin);
    let report = hub.shutdown();
    assert_eq!(report.requests, frames_sent_total + 1);
    println!(
        "\nhub served {} requests over {} connections, then drained cleanly",
        report.requests, report.connections
    );
}
