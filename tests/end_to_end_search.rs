//! Integration: the full pipeline from raw text through indexing, querying, ranked search and
//! document retrieval, spanning `mkse-textproc`, `mkse-core`, `mkse-crypto` and
//! `mkse-protocol` through the public facade.

use mkse::core::{CloudIndex, DocumentIndexer, QueryBuilder, SchemeKeys, SystemParams};
use mkse::protocol::{OwnerConfig, SearchSession};
use mkse::textproc::corpus::{CorpusSpec, FrequencyModel, SyntheticCorpus};
use mkse::textproc::{normalize_keyword, Document};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn text_corpus() -> Vec<Document> {
    [
        "Encrypted cloud storage with privacy preserving ranked keyword search",
        "Recipe collection: pasta, pizza and seasonal vegetables",
        "Ranked retrieval of encrypted medical records in the cloud",
        "Travel itinerary for the summer holidays in the mountains",
        "Privacy impact assessment for cloud hosted medical data",
        "Annual financial report with revenue and expense tables",
    ]
    .iter()
    .enumerate()
    .map(|(i, t)| Document::from_text(i as u64, t))
    .collect()
}

#[test]
fn scheme_layer_end_to_end_over_real_text() {
    let params = SystemParams::default();
    let mut rng = StdRng::seed_from_u64(1);
    let keys = SchemeKeys::generate(&params, &mut rng);
    let indexer = DocumentIndexer::new(&params, &keys);
    let corpus = text_corpus();

    let mut cloud = CloudIndex::new(params.clone());
    cloud
        .insert_all(corpus.iter().map(|d| indexer.index_document(d)))
        .expect("upload");

    // Query "encrypted cloud": documents 0, 2 and 4 contain the stem "cloud"; 0 and 2 contain
    // "encrypt" as well.
    let keywords: Vec<String> = ["encrypted", "cloud"]
        .iter()
        .map(|w| normalize_keyword(w))
        .collect();
    let refs: Vec<&str> = keywords.iter().map(|s| s.as_str()).collect();
    let trapdoors = keys.trapdoors_for(&params, &refs);
    let pool = keys.random_pool_trapdoors(&params);
    let query = QueryBuilder::new(&params)
        .add_trapdoors(&trapdoors)
        .with_randomization(&pool)
        .build(&mut rng);

    let hits = cloud.search_unranked(&query);
    // Completeness: no false negatives, ever.
    assert!(hits.contains(&0));
    assert!(hits.contains(&2));
    // Soundness at these parameters and seed: the recipe/travel/financial documents stay out.
    assert!(!hits.contains(&1));
    assert!(!hits.contains(&3));
    assert!(!hits.contains(&5));
}

#[test]
fn completeness_holds_over_a_synthetic_corpus() {
    // The scheme never misses a true match, regardless of corpus shape: every document that
    // contains all query keywords is returned (Eq. 3 zeros are a superset).
    let params = SystemParams::default();
    let mut rng = StdRng::seed_from_u64(5);
    let keys = SchemeKeys::generate(&params, &mut rng);
    let indexer = DocumentIndexer::new(&params, &keys);
    let corpus = SyntheticCorpus::generate(
        &CorpusSpec {
            num_documents: 120,
            vocabulary_size: 800,
            keywords_per_document: 25,
            frequency_model: FrequencyModel::Uniform { lo: 1, hi: 15 },
        },
        &mut rng,
    );
    let mut cloud = CloudIndex::new(params.clone());
    cloud
        .insert_all(indexer.index_documents(&corpus.documents))
        .expect("upload");
    let pool = keys.random_pool_trapdoors(&params);

    for probe in 0..10usize {
        let source = &corpus.documents[probe * 11];
        let kws: Vec<&str> = source.keywords().into_iter().take(3).collect();
        let truth = corpus.documents_containing_all(&kws);
        let trapdoors = keys.trapdoors_for(&params, &kws);
        let query = QueryBuilder::new(&params)
            .add_trapdoors(&trapdoors)
            .with_randomization(&pool)
            .build(&mut rng);
        let hits = cloud.search_unranked(&query);
        for id in &truth {
            assert!(
                hits.contains(id),
                "missing true match {id} for probe {probe}"
            );
        }
    }
}

#[test]
fn ranked_results_follow_term_frequency() {
    let params = SystemParams::with_five_levels();
    let mut rng = StdRng::seed_from_u64(9);
    let keys = SchemeKeys::generate(&params, &mut rng);
    let indexer = DocumentIndexer::new(&params, &keys);
    let mut cloud = CloudIndex::new(params.clone());

    // Five documents mentioning "protocol" with increasing frequency.
    for (id, tf) in [(0u64, 1u32), (1, 3), (2, 5), (3, 9), (4, 14)] {
        let text = (0..tf).map(|_| "protocol").collect::<Vec<_>>().join(" ");
        cloud
            .insert(indexer.index_document(&Document::from_text(id, &text)))
            .expect("upload");
    }
    let trapdoors = keys.trapdoors_for(&params, &["protocol"]);
    let query = QueryBuilder::new(&params)
        .add_trapdoors(&trapdoors)
        .build(&mut rng);
    let hits = cloud.search(&query);
    assert_eq!(hits.len(), 5);
    // Ranks are non-increasing and the most frequent document comes first.
    assert_eq!(hits[0].document_id, 4);
    for pair in hits.windows(2) {
        assert!(pair[0].rank >= pair[1].rank);
    }
    // The most frequent mention reaches the top level, the single mention stays at level 1.
    assert_eq!(hits[0].rank, params.rank_levels() as u32);
    assert_eq!(hits.last().unwrap().rank, 1);
}

#[test]
fn protocol_layer_end_to_end_retrieval_round_trip() {
    let mut rng = StdRng::seed_from_u64(31);
    let config = OwnerConfig {
        rsa_modulus_bits: 256, // keep the integration test fast in debug builds
        ..OwnerConfig::default()
    };
    let mut session = SearchSession::setup(config, &text_corpus(), &mut rng).expect("setup");

    let keywords: Vec<String> = ["medical", "cloud"]
        .iter()
        .map(|w| normalize_keyword(w))
        .collect();
    let refs: Vec<&str> = keywords.iter().map(|s| s.as_str()).collect();
    let report = session
        .run_query(&refs, 2, &mut rng)
        .expect("round completes");

    // Documents 2 and 4 both contain "medical" and "cloud".
    let matched: Vec<u64> = report.matches.iter().map(|(id, _)| *id).collect();
    assert!(matched.contains(&2));
    assert!(matched.contains(&4));
    assert_eq!(report.retrieved.len(), 2);
    for (id, plaintext) in &report.retrieved {
        let original = text_corpus()
            .iter()
            .find(|d| d.id == *id)
            .unwrap()
            .body
            .clone();
        assert_eq!(
            plaintext, &original,
            "decrypted body mismatch for document {id}"
        );
    }
}

#[test]
fn multiple_users_share_the_same_encrypted_index() {
    use mkse::protocol::{Client, CloudServer, DataOwner, QueryMessage, TypedCalls, User};

    let mut rng = StdRng::seed_from_u64(77);
    let config = OwnerConfig {
        rsa_modulus_bits: 256,
        ..OwnerConfig::default()
    };
    let mut owner = DataOwner::new(config, &mut rng);
    let (indices, encrypted) = owner.prepare_documents(&text_corpus(), &mut rng);
    // Queries go through the envelope client — the front door every caller uses.
    let mut server = Client::new(CloudServer::new(owner.params().clone()));
    server.upload(indices, encrypted).expect("upload");

    let mut users: Vec<User> = (1..=2)
        .map(|id| {
            User::new(
                id,
                owner.params().clone(),
                owner.public_key().clone(),
                256,
                &mut rng,
            )
        })
        .collect();
    for user in &users {
        owner.register_user(user.id(), user.public_key().clone());
    }

    let keyword = normalize_keyword("privacy");
    let mut results = Vec::new();
    for user in users.iter_mut() {
        user.set_random_pool(owner.random_pool_trapdoors());
        if let Some(req) = user.make_trapdoor_request(&[keyword.as_str()]) {
            let reply = owner.handle_trapdoor_request(&req).unwrap();
            user.ingest_trapdoor_reply(&reply).unwrap();
        }
        let query = user
            .build_query(&[keyword.as_str()], None, &mut rng)
            .unwrap();
        let reply = server
            .query(&QueryMessage {
                query: query.query,
                top: None,
            })
            .expect("framed query round trip");
        let mut ids: Vec<u64> = reply.matches.iter().map(|m| m.document_id).collect();
        ids.sort_unstable();
        results.push(ids);
    }
    // Both authorized users see exactly the same matches despite their queries being
    // differently randomized.
    assert_eq!(results[0], results[1]);
    assert!(results[0].contains(&0));
}
