//! The socket transport end to end: one hub owning a cached `CloudServer`,
//! four concurrent TCP clients each sending a pipelined burst of single
//! queries, a batch-query message, an upload and the queries again — then the
//! server's own view of that traffic, read over the same wire: the
//! per-connection wire section and the batcher section of its
//! `MetricsSnapshot`.
//!
//! `tests/net_equivalence.rs` proves every such reply byte-identical to a
//! sequential twin's and checks the accounting printed here.
//!
//! Run with: `cargo run --release --example socket_session`

use mkse::core::TelemetryLevel;
use mkse::net::{Hub, HubConfig, NetClient};
use mkse::protocol::{BatchQueryMessage, Request};
use mkse_testkit::fixture;
use std::time::Duration;

const CLIENTS: usize = 4;
const WAIT: Duration = Duration::from_secs(60);

fn main() {
    let texts = [
        "intrusion alert on the backup server",
        "quarterly revenue and invoice audit",
        "phishing alert for the finance team",
        "backup schedule and audit trail",
        "revenue forecast for next quarter",
        "intrusion detection audit findings",
    ];
    let keyword_sets: [&[&str]; 4] = [&["audit"], &["alert"], &["backup"], &["revenue"]];
    let late: Vec<(u64, &str)> = (0..CLIENTS as u64)
        .map(|k| (100 + k, "late audit notes arriving mid-session"))
        .collect();
    let fx = fixture(11, &texts, &keyword_sets, &late);

    let server = fx.server(2, true);
    server.set_telemetry_level(TelemetryLevel::Spans);
    let config = HubConfig {
        batch_window: Duration::from_millis(2),
        batch_depth: 8,
        ..HubConfig::default()
    };
    let hub = Hub::spawn(server, config);
    let addr = hub.bind_tcp("127.0.0.1:0").expect("bind");

    let workers: Vec<_> = (0..CLIENTS)
        .map(|k| {
            let mut client = NetClient::connect_tcp(addr)
                .expect("connect")
                .with_first_request_id(k as u64 * 1_000_000 + 1);
            let queries = fx.queries.clone();
            let upload = fx.extra_uploads[k].clone();
            std::thread::spawn(move || {
                // Pipelined burst: submit every query, flush once, then take
                // the replies by id.
                let ids: Vec<u64> = (queries.iter())
                    .map(|q| client.submit(&Request::Query(q.clone())))
                    .collect();
                client.flush().expect("flush burst");
                let mut matches = 0;
                for id in ids {
                    let reply = client.wait_take(id, WAIT).expect("burst reply");
                    matches += reply.into_search().expect("a Search reply").matches.len();
                }
                // One batch message, one upload (a batcher barrier), then the
                // queries again.
                let batch = BatchQueryMessage {
                    queries: queries.iter().map(|q| q.query.clone()).collect(),
                    top: Some(3),
                };
                let mut requests = vec![Request::BatchQuery(batch), Request::Upload(upload)];
                requests.extend(queries.iter().map(|q| Request::Query(q.clone())));
                for request in requests {
                    let reply = client.call(&request, WAIT).expect("a reply");
                    matches += reply.into_search().map_or(0, |r| r.matches.len());
                }
                (client.wire_stats(), matches)
            })
        })
        .collect();

    println!("=== client wire ===");
    for (k, worker) in workers.into_iter().enumerate() {
        let (stats, matches) = worker.join().expect("client thread");
        println!(
            "client {k}: {} frames / {} bytes sent, {} frames / {} bytes received, \
             {matches} single-query matches",
            stats.frames_sent, stats.bytes_sent, stats.frames_received, stats.bytes_received
        );
    }

    // The dashboard read travels the same transport, on a fifth connection.
    let mut admin = NetClient::from_memory(hub.connect_memory()).with_first_request_id(9_000_000);
    let snapshot = admin
        .call(&Request::MetricsSnapshot, WAIT)
        .expect("metrics snapshot over the wire")
        .into_metrics_report()
        .expect("a MetricsReport reply");
    println!("\n=== server wire (per connection) ===");
    for row in snapshot
        .labelled
        .iter()
        .filter(|row| row.label == "connection")
    {
        println!("{} {}: {}", row.name, row.index, row.value);
    }

    println!("\n=== batcher ===");
    let reasons = ["complete", "window", "depth", "barrier", "shutdown"];
    for reason in reasons {
        let flushes = snapshot.counter(&format!("batcher_flush_{reason}"));
        println!("{flushes:>4} flushes: {reason}");
    }
    if let Some(occupancy) = snapshot
        .values
        .iter()
        .find(|v| v.series == "batch_occupancy")
    {
        println!(
            "{} single queries in {} fused passes",
            occupancy.sum, occupancy.count
        );
    }
    if let Some(waits) = snapshot
        .histograms
        .iter()
        .find(|h| h.stage == "batcher_wait")
    {
        let mean = waits.sum_ns / waits.count.max(1);
        println!("mean wait in the batcher: {mean} ns");
    }
    let hits = snapshot.labelled_sum("shard_cache_hits");
    println!("result-cache hits: {hits}");

    drop(admin);
    let report = hub.shutdown();
    println!(
        "\nhub served {} requests over {} connections, then drained cleanly",
        report.requests, report.connections
    );
}
