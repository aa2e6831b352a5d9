//! Quickstart: index a handful of documents, run a ranked multi-keyword query, print the hits.
//!
//! This uses only the scheme layer (`mkse::core`); see `cloud_document_search.rs` for the full
//! three-party protocol with encryption and blinded key retrieval.
//!
//! Run with: `cargo run --example quickstart`

use mkse::core::{
    CloudIndex, DocumentIndexer, QueryBuilder, SchemeKeys, SearchEngine, SystemParams,
};
use mkse::protocol::{Client, CloudServer, QueryMessage, TypedCalls};
use mkse::textproc::{extract_keywords, normalize_keyword};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let params = SystemParams::default(); // r = 448, d = 6, U = 60, V = 30, η = 3
    let mut rng = StdRng::seed_from_u64(1);

    // --- Data owner: generate secret keys and index the corpus -------------------------------
    let keys = SchemeKeys::generate(&params, &mut rng);
    let indexer = DocumentIndexer::new(&params, &keys);

    let corpus = [
        (
            0u64,
            "Privacy preserving ranked keyword search over encrypted cloud data",
        ),
        (
            1u64,
            "Weather forecast: heavy rain and strong winds expected tomorrow",
        ),
        (
            2u64,
            "Cloud storage pricing comparison for enterprise customers",
        ),
        (
            3u64,
            "Encrypted backups and searchable encryption for cloud archives",
        ),
    ];

    let mut cloud = CloudIndex::new(params.clone());
    for (id, text) in &corpus {
        let terms = extract_keywords(text);
        cloud
            .insert(indexer.index_terms(*id, &terms))
            .expect("parameters match");
        println!(
            "indexed document {id}: {} distinct keywords",
            terms.distinct_terms()
        );
    }

    // --- User: obtain trapdoors and query for "encrypted cloud" ------------------------------
    let query_words = ["encrypted", "cloud"];
    let normalized: Vec<String> = query_words.iter().map(|w| normalize_keyword(w)).collect();
    let keyword_refs: Vec<&str> = normalized.iter().map(|s| s.as_str()).collect();
    let trapdoors = keys.trapdoors_for(&params, &keyword_refs);
    let pool = keys.random_pool_trapdoors(&params);
    let query = QueryBuilder::new(&params)
        .add_trapdoors(&trapdoors)
        .with_randomization(&pool)
        .build(&mut rng);

    // --- Server: oblivious ranked search ------------------------------------------------------
    let hits = cloud.search(&query);
    println!(
        "\nquery {:?} (normalized {:?}) matched {} document(s):",
        query_words,
        normalized,
        hits.len()
    );
    for hit in &hits {
        let text = corpus
            .iter()
            .find(|(id, _)| *id == hit.document_id)
            .unwrap()
            .1;
        println!(
            "  doc {:>2}  rank {}  \"{}\"",
            hit.document_id, hit.rank, text
        );
    }

    // --- Same search, production read path: shard-parallel engine ----------------------------
    // The engine partitions the store across shards and scans them on separate
    // threads; results are guaranteed identical to the sequential scan above.
    let mut engine = SearchEngine::sharded(params.clone(), 2);
    for (id, text) in &corpus {
        engine
            .insert(indexer.index_terms(*id, &extract_keywords(text)))
            .expect("parameters match");
    }
    assert_eq!(engine.search(&query), hits);
    println!(
        "\nsharded engine ({} shards) returned identical hits",
        engine.store().num_shards()
    );

    // --- Same search through the service front door: the envelope Client ---------------------
    // A deployment talks to the server exclusively in framed Request/Response
    // envelopes; the Client is that front door (upload and query alike), and it
    // measures the real framed wire bytes every exchange costs.
    let mut server = Client::new(CloudServer::with_shards(params.clone(), 2));
    server
        .upload(
            corpus
                .iter()
                .map(|(id, text)| indexer.index_terms(*id, &extract_keywords(text)))
                .collect(),
            vec![], // index-only upload: this quickstart never retrieves documents
        )
        .expect("framed upload");
    let reply = server
        .query(&QueryMessage {
            query: query.bits().clone(),
            top: None,
        })
        .expect("framed query round trip");
    let client_hits: Vec<(u64, u32)> = reply
        .matches
        .iter()
        .map(|m| (m.document_id, m.rank))
        .collect();
    assert_eq!(
        client_hits,
        hits.iter()
            .map(|h| (h.document_id, h.rank))
            .collect::<Vec<_>>()
    );
    let wire = server.wire_stats();
    println!(
        "envelope client returned identical hits over the framed wire \
         ({} frames / {} bytes sent, {} frames / {} bytes received)",
        wire.frames_sent, wire.bytes_sent, wire.frames_received, wire.bytes_received
    );
}
