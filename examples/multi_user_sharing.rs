//! Multi-user search: the property that distinguishes this scheme from data-owner-only
//! designs (§1: "a group of users can query the database provided that they possess trapdoors
//! for search terms").
//!
//! Two analysts are authorized by the data owner. Each one requests only the bins covering the
//! keywords they care about, so neither can build trapdoors for keywords outside their bins,
//! and the data owner learns only bin ids — never the actual keywords.
//!
//! Run with: `cargo run --release --example multi_user_sharing`

use mkse::core::bins_for_keywords;
use mkse::protocol::{Client, CloudServer, DataOwner, OwnerConfig, QueryMessage, TypedCalls, User};
use mkse::textproc::{normalize_keyword, Document};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let config = OwnerConfig {
        rsa_modulus_bits: 512,
        ..OwnerConfig::default()
    };

    // Offline: the owner indexes and encrypts the shared corpus.
    let corpus = vec![
        Document::from_text(0, "merger negotiation strategy and legal review"),
        Document::from_text(1, "network intrusion detection and firewall logs"),
        Document::from_text(2, "legal contract templates for supplier agreements"),
        Document::from_text(3, "intrusion response playbook for the security team"),
    ];
    let mut owner = DataOwner::new(config, &mut rng);
    let (indices, encrypted) = owner.prepare_documents(&corpus, &mut rng);
    // The server sits behind the envelope client: even the offline upload is a
    // framed Request::Upload, and every query below travels the same way.
    let mut server = Client::new(CloudServer::new(owner.params().clone()));
    server.upload(indices, encrypted).expect("upload");

    // Two users with different interests register with the owner.
    let mut legal_analyst = User::new(
        1,
        owner.params().clone(),
        owner.public_key().clone(),
        512,
        &mut rng,
    );
    let mut security_analyst = User::new(
        2,
        owner.params().clone(),
        owner.public_key().clone(),
        512,
        &mut rng,
    );
    owner.register_user(legal_analyst.id(), legal_analyst.public_key().clone());
    owner.register_user(security_analyst.id(), security_analyst.public_key().clone());
    legal_analyst.set_random_pool(owner.random_pool_trapdoors());
    security_analyst.set_random_pool(owner.random_pool_trapdoors());

    let run = |user: &mut User,
               owner: &mut DataOwner,
               server: &mut Client<CloudServer>,
               raw: &[&str],
               rng: &mut StdRng| {
        let normalized: Vec<String> = raw.iter().map(|w| normalize_keyword(w)).collect();
        let refs: Vec<&str> = normalized.iter().map(|s| s.as_str()).collect();
        let bins = bins_for_keywords(owner.params(), &refs);
        println!(
            "user {} searches {raw:?}; the owner only learns bin ids {bins:?}",
            user.id()
        );
        if let Some(req) = user.make_trapdoor_request(&refs) {
            let reply = owner
                .handle_trapdoor_request(&req)
                .expect("authorized user");
            user.ingest_trapdoor_reply(&reply).unwrap();
        }
        let query = user.build_query(&refs, None, rng).unwrap();
        let results = server
            .query(&QueryMessage {
                query: query.query,
                top: None,
            })
            .expect("framed query round trip");
        let ids: Vec<u64> = results.matches.iter().map(|m| m.document_id).collect();
        println!("  matching documents: {ids:?}\n");
        ids
    };

    let legal_hits = run(
        &mut legal_analyst,
        &mut owner,
        &mut server,
        &["legal", "contract"],
        &mut rng,
    );
    let security_hits = run(
        &mut security_analyst,
        &mut owner,
        &mut server,
        &["intrusion"],
        &mut rng,
    );

    assert!(legal_hits.contains(&2));
    assert!(security_hits.contains(&1) && security_hits.contains(&3));

    // The security analyst never received the bins for the legal keywords, so they cannot even
    // form a valid trapdoor for "contract" locally.
    let contract = normalize_keyword("contract");
    match security_analyst.build_query(&[contract.as_str()], None, &mut rng) {
        Err(e) => println!("security analyst cannot query legal keywords without those bins: {e}"),
        Ok(_) => println!(
            "(bin collision: the keyword happened to share a bin the analyst already holds)"
        ),
    }
}
