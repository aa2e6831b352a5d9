//! The telemetry plane end to end: drive a Zipf-distributed query workload
//! through the envelope client, then fetch one `Request::MetricsSnapshot` over
//! the framed wire and render it as a Prometheus-style exposition and as JSON.
//!
//! The workload is deliberately skewed — a handful of hot keywords dominate,
//! like real search traffic — so with the result cache enabled the per-shard
//! hit/miss counters, the engine's stage histograms and the wire counters all
//! light up. Telemetry stays invisible to the protocol: enabling `Spans`
//! changes no reply byte, it only populates the registry this dashboard reads.
//!
//! Run with: `cargo run --release --example metrics_dashboard`

use mkse::core::{DocumentIndexer, QueryBuilder, SchemeKeys, SystemParams, TelemetryLevel};
use mkse::protocol::{
    render_json, render_prometheus, BatchQueryMessage, Client, CloudServer, QueryMessage,
    TypedCalls,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sample an index in `0..weights.len()` proportionally to `weights`.
fn weighted_sample<R: Rng>(rng: &mut R, weights: &[u64], total: u64) -> usize {
    let mut ticket = rng.gen_range(0..total);
    for (i, w) in weights.iter().enumerate() {
        if ticket < *w {
            return i;
        }
        ticket -= w;
    }
    weights.len() - 1
}

fn main() {
    let params = SystemParams::default();
    let mut rng = StdRng::seed_from_u64(7);
    let keys = SchemeKeys::generate(&params, &mut rng);
    let indexer = DocumentIndexer::new(&params, &keys);
    let pool = keys.random_pool_trapdoors(&params);

    // A corpus where every document carries a topic keyword plus some filler.
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
    let num_docs = 64u64;
    let indices = (0..num_docs)
        .map(|id| {
            let topic = topics[id as usize % topics.len()];
            indexer.index_keywords(id, &[topic, "common", "filler"])
        })
        .collect();

    let mut server = Client::new(CloudServer::with_shards(params.clone(), 4));
    server.set_telemetry_level(TelemetryLevel::Spans);
    server.upload(indices, vec![]).expect("framed upload");
    server.enable_cache(64).expect("cache admin");

    // Zipf(1) popularity over the topics: topic k is drawn with weight 1/(k+1).
    // Repeated draws of a hot topic reuse one prebuilt query index per topic —
    // exactly the repeated-query-index traffic the result cache serves (fresh
    // randomized queries would, correctly, never hit it; see §6).
    let weights: Vec<u64> = (0..topics.len())
        .map(|k| 1_000_000 / (k as u64 + 1))
        .collect();
    let total: u64 = weights.iter().sum();
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

    // 48 single queries, Zipf-drawn, pipelined in windows of 8 …
    let mut matches_seen = 0usize;
    for _window in 0..6 {
        let ids: Vec<u64> = (0..8)
            .map(|_| {
                let topic = weighted_sample(&mut rng, &weights, total);
                server.submit(&mkse::protocol::Request::Query(queries[topic].clone()))
            })
            .collect();
        server.flush().expect("pipelined flush");
        for id in ids {
            let reply = server
                .take(id)
                .expect("reply correlated by id")
                .into_search()
                .expect("search reply");
            matches_seen += reply.matches.len();
        }
    }
    // … plus one fused batch with duplicated hot keywords (the batcher dedups).
    let batch = BatchQueryMessage {
        queries: (0..12)
            .map(|_| {
                queries[weighted_sample(&mut rng, &weights, total)]
                    .query
                    .clone()
            })
            .collect(),
        top: Some(3),
    };
    let batched = server.batch_query(&batch).expect("fused batch");
    matches_seen += batched
        .replies
        .iter()
        .map(|r| r.matches.len())
        .sum::<usize>();
    println!(
        "ran 48 Zipf-distributed queries + 1 fused batch of 12 ({matches_seen} matches total)\n"
    );

    // The dashboard read: one envelope op, round-tripping the framed codec.
    let snapshot = server.metrics_snapshot().expect("MetricsSnapshot envelope");
    println!("=== Prometheus exposition ===");
    print!("{}", render_prometheus(&snapshot));
    println!("\n=== JSON ===");
    println!("{}", render_json(&snapshot));

    // Sanity: the registry saw the workload this example just drove.
    assert_eq!(snapshot.level, TelemetryLevel::Spans);
    // Every query runs as an engine batch: 48 batches of one, one of 12.
    assert_eq!(snapshot.counter("batches"), 49);
    assert_eq!(snapshot.counter("batch_queries"), 60);
    assert!(snapshot.counter("wire_frames_in") >= 49);
    assert!(snapshot.counter("wire_bytes_out") > 0);
    assert!(
        snapshot.labelled_sum("shard_cache_hits") > 0,
        "a Zipf workload must hit the result cache"
    );
    assert!(
        snapshot.histograms.iter().any(|h| h.stage == "unit_scan"),
        "span level records per-unit scan durations"
    );
}
