//! The server-side result cache under a realistic repeated-search workload: an
//! analyst keeps re-running a handful of saved searches (dashboards, polling,
//! "refresh the page") against an encrypted document archive.
//!
//! The user builds each query **once** and re-issues the same r-bit query index —
//! exactly what the server's result cache keys on. Replies carry a
//! `CacheReport` (shard hits/misses, saved comparisons), and the server's
//! `OperationCounters` split the Table 2 comparison count into work performed vs
//! work the cache saved.
//!
//! Search-pattern note: the cache recognizes repeated query *bytes*, which is the
//! search pattern the server already observes (§6 of the paper builds its attack
//! model on it) — caching leaks nothing new. The flip side is also shown below:
//! with query randomization enabled, fresh randomized queries for the *same
//! keywords* produce different bits and — correctly — miss the cache.
//!
//! Run with: `cargo run --release --example cached_session`

use mkse::protocol::{Client, CloudServer, DataOwner, OwnerConfig, QueryMessage, TypedCalls, User};
use mkse::textproc::{normalize_keyword, Document};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn corpus() -> Vec<Document> {
    [
        "Quarterly security audit of the encrypted storage backend",
        "Encrypted cloud archive migration plan and key rotation schedule",
        "Phishing incident report: finance department credentials rotated",
        "Searchable encryption design notes for the outsourced archive",
        "Office plant maintenance rota and cafeteria menu",
        "Access control review: encryption key management procedures",
        "Marketing launch checklist for the European product release",
        "Data protection impact assessment for the cloud archive",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| Document::from_text(i as u64, text))
    .collect()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(23);
    let config = OwnerConfig {
        rsa_modulus_bits: 512,
        ..OwnerConfig::default()
    };
    let rsa_bits = config.rsa_modulus_bits;

    // Offline phase: index + encrypt + upload, register the user, enable caching.
    let mut owner = DataOwner::new(config, &mut rng);
    let (indices, encrypted) = owner.prepare_documents(&corpus(), &mut rng);
    // The server sits behind the envelope client: upload and cache admin are
    // framed requests like everything else.
    let mut server = Client::new(CloudServer::new(owner.params().clone()));
    server.upload(indices, encrypted).expect("upload");
    server.enable_cache(128).expect("cache admin");
    let mut user = User::new(
        1,
        owner.params().clone(),
        owner.public_key().clone(),
        rsa_bits,
        &mut rng,
    );
    owner.register_user(user.id(), user.public_key().clone());
    user.set_random_pool(owner.random_pool_trapdoors());
    println!(
        "server: {} documents, {} index shards, result cache on\n",
        server.num_documents(),
        server.num_shards()
    );

    // The analyst's saved searches — overlapping multi-keyword queries, each
    // built ONCE (trapdoors fetched from the owner, randomization folded in).
    let saved_searches: Vec<(&str, Vec<String>)> = vec![
        (
            "encryption audit",
            vec!["encryption".into(), "audit".into()],
        ),
        (
            "encrypted archive",
            vec!["encrypted".into(), "archive".into()],
        ),
        ("key rotation", vec!["key".into(), "rotation".into()]),
    ];
    let mut queries: Vec<(String, QueryMessage)> = Vec::new();
    for (label, raw) in &saved_searches {
        let normalized: Vec<String> = raw.iter().map(|w| normalize_keyword(w)).collect();
        let refs: Vec<&str> = normalized.iter().map(|s| s.as_str()).collect();
        if let Some(request) = user.make_trapdoor_request(&refs) {
            let reply = owner.handle_trapdoor_request(&request).expect("trapdoors");
            user.ingest_trapdoor_reply(&reply).expect("bin keys");
        }
        let query = user.build_query(&refs, None, &mut rng).expect("query");
        queries.push((label.to_string(), query));
    }

    // The dashboard refreshes three times: each round re-issues the same bits.
    for round in 1..=3 {
        println!("== refresh round {round} ==");
        for (label, query) in &queries {
            let reply = server.query(query).expect("framed query round trip");
            let ids: Vec<u64> = reply.matches.iter().map(|m| m.document_id).collect();
            println!(
                "  {label:<18} -> {} matches {ids:?} | cache: {} hits / {} misses, \
                 {} comparisons saved{}",
                reply.matches.len(),
                reply.cache.shard_hits,
                reply.cache.shard_misses,
                reply.cache.saved_comparisons,
                if reply.cache.served_from_cache {
                    " (served from cache)"
                } else {
                    ""
                }
            );
        }
    }

    // A freshly randomized query for the same keywords misses, by design.
    let normalized: Vec<String> = ["encryption", "audit"]
        .iter()
        .map(|w| normalize_keyword(w))
        .collect();
    let refs: Vec<&str> = normalized.iter().map(|s| s.as_str()).collect();
    let fresh = user.build_query(&refs, None, &mut rng).expect("query");
    let reply = server.query(&fresh).expect("framed query round trip");
    println!(
        "\nfresh randomized query for \"encryption audit\": {} hits / {} misses \
         (randomization hides the search pattern, so the cache cannot see the repeat)",
        reply.cache.shard_hits, reply.cache.shard_misses
    );

    let stats = server
        .remote_cache_stats()
        .expect("framed stats round trip")
        .expect("cache enabled");
    let wire = server.wire_stats();
    let counters = server.counters();
    println!("\n== totals ==");
    println!(
        "wire: {} request frames / {} bytes sent, {} reply frames / {} bytes received",
        wire.frames_sent, wire.bytes_sent, wire.frames_received, wire.bytes_received
    );
    println!(
        "cache: {} hits, {} misses, {} evictions, {} invalidations",
        stats.hits, stats.misses, stats.evictions, stats.invalidations
    );
    println!(
        "server comparisons: {} performed, {} saved by cache ({} replies served \
         entirely from cache)",
        counters.binary_comparisons,
        counters.comparisons_saved_by_cache,
        counters.cache_served_replies
    );
}
