//! Pipelining through the envelope client: submit a window of framed requests,
//! flush them to the server in one go, and correlate the replies by request id —
//! including taking them **out of order**.
//!
//! A real deployment pays a network round trip per exchange; pipelining hides
//! that latency by keeping several requests in flight. This example drives the
//! whole lifecycle through framed `Request`/`Response` envelopes only — upload,
//! cache admin, a pipelined query window, server introspection — and prints the
//! measured framed wire bytes next to the analytic query sizes.
//!
//! Run with: `cargo run --release --example pipelined_client`

use mkse::core::{DocumentIndexer, QueryBuilder, SchemeKeys, SystemParams};
use mkse::protocol::{Client, CloudServer, QueryMessage, Request, TypedCalls};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let params = SystemParams::default();
    let mut rng = StdRng::seed_from_u64(42);
    let keys = SchemeKeys::generate(&params, &mut rng);
    let indexer = DocumentIndexer::new(&params, &keys);
    let pool = keys.random_pool_trapdoors(&params);

    // The archive: a few topical documents. Everything below — upload included —
    // travels as framed envelopes through the client.
    let topics: [&[&str]; 6] = [
        &["alert", "intrusion", "firewall"],
        &["invoice", "quarterly", "revenue"],
        &["alert", "phishing", "credentials"],
        &["maintenance", "cafeteria"],
        &["intrusion", "response", "playbook"],
        &["revenue", "forecast", "projection"],
    ];
    let mut server = Client::new(CloudServer::with_shards(params.clone(), 2));
    let stored = server
        .upload(
            topics
                .iter()
                .enumerate()
                .map(|(id, kws)| indexer.index_keywords(id as u64, kws))
                .collect(),
            vec![], // index-only: this example searches, it does not retrieve
        )
        .expect("framed upload");
    let info = server.server_info().expect("framed info round trip");
    println!(
        "uploaded {stored} documents ({} shards, r = {} bits, η = {} levels)\n",
        info.shards, info.index_bits, info.rank_levels
    );

    // A monitoring dashboard refreshes several saved searches at once. Build
    // each query once, then submit the WHOLE window before flushing: that is the
    // pipeline — one flush, many requests in flight.
    let searches: [(&str, &[&str]); 4] = [
        ("intrusions", &["intrusion"]),
        ("alerts", &["alert"]),
        ("revenue", &["revenue"]),
        ("playbooks", &["playbook"]),
    ];
    let mut ids = Vec::new();
    let before_queries = server.wire_stats();
    for (label, kws) in &searches {
        let query = QueryBuilder::new(&params)
            .add_trapdoors(&keys.trapdoors_for(&params, kws))
            .with_randomization(&pool)
            .build(&mut rng);
        let id = server.submit(&Request::Query(QueryMessage {
            query: query.bits().clone(),
            top: None,
        }));
        println!(
            "submitted {label:<12} as request #{id} ({} analytic query bits)",
            query.bits().len()
        );
        ids.push((id, *label));
    }
    assert_eq!(server.ready(), 0, "nothing executes before the flush");

    server.flush().expect("pipelined flush");
    println!(
        "\nflushed once: {} replies arrived, correlating by id out of order\n",
        server.ready()
    );

    // Take the replies in REVERSE submission order — correlation is by request
    // id, so arrival/consumption order is irrelevant.
    for (id, label) in ids.iter().rev() {
        let response = server.take(*id).expect("reply correlated by id");
        let reply = response.into_search().expect("a Search reply");
        let matched: Vec<u64> = reply.matches.iter().map(|m| m.document_id).collect();
        println!(
            "  #{id} {label:<12} -> {} match(es): {matched:?}",
            matched.len()
        );
    }

    let wire = server.wire_stats();
    let queries_only = wire.since(&before_queries);
    println!(
        "\nmeasured framed wire (whole session): {} request frames / {} bytes sent, \
         {} reply frames / {} bytes received",
        wire.frames_sent, wire.bytes_sent, wire.frames_received, wire.bytes_received
    );
    println!(
        "per pipelined query: ~{} framed request bytes vs {} analytic bits — the \
         envelope (length prefix + version + request id) costs a handful of bytes per frame",
        queries_only.bytes_sent / queries_only.frames_sent,
        params.index_bits
    );
}
