//! Integration: the communication and computation cost model (Tables 1 and 2) measured over
//! the real protocol actors, and its key qualitative properties.

use mkse::protocol::{OwnerConfig, Party, Phase, SearchSession};
use mkse::textproc::corpus::{CorpusSpec, FrequencyModel, SyntheticCorpus};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn session(num_docs: usize, seed: u64) -> (SearchSession, StdRng, SyntheticCorpus) {
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus = SyntheticCorpus::generate(
        &CorpusSpec {
            num_documents: num_docs,
            vocabulary_size: 1_000,
            keywords_per_document: 15,
            frequency_model: FrequencyModel::Uniform { lo: 1, hi: 15 },
        },
        &mut rng,
    );
    let config = OwnerConfig {
        rsa_modulus_bits: 256,
        ..OwnerConfig::default()
    };
    let session = SearchSession::setup(config, &corpus.documents, &mut rng).expect("setup");
    (session, rng, corpus)
}

#[test]
fn query_size_is_independent_of_the_number_of_search_terms() {
    // Table 1: the user sends r bits for the query, "independent from γ".
    let (mut s, mut rng, corpus) = session(40, 1);
    let few: Vec<&str> = corpus.documents[0].keywords().into_iter().take(1).collect();
    let many: Vec<&str> = corpus.documents[0].keywords().into_iter().take(6).collect();

    // θ = 0 retrieves nothing, so the query is the user's only Search-phase message.
    for keywords in [&few, &many] {
        let report = s.run_query(keywords, 0, &mut rng).unwrap();
        assert_eq!(
            report.communication.bits_sent(Party::User, Phase::Search),
            448
        );
    }
}

#[test]
fn trapdoor_traffic_scales_with_bins_not_with_queries() {
    let (mut s, mut rng, corpus) = session(40, 2);
    let kws: Vec<&str> = corpus.documents[1].keywords().into_iter().take(3).collect();

    let first = s.run_query(&kws, 0, &mut rng).unwrap();
    let second = s.run_query(&kws, 0, &mut rng).unwrap();
    assert!(first.communication.bits_sent(Party::User, Phase::Trapdoor) > 0);
    // Cached bin keys: the second identical query costs no trapdoor traffic at all.
    assert_eq!(
        second.communication.bits_sent(Party::User, Phase::Trapdoor),
        0
    );
    assert_eq!(
        second
            .communication
            .bits_sent(Party::DataOwner, Phase::Trapdoor),
        0
    );
}

#[test]
fn decrypt_phase_traffic_is_linear_in_retrieved_documents() {
    let (mut s, mut rng, corpus) = session(60, 3);
    let modulus_bits = s.owner.public_key().modulus_bits() as u64;
    // A single very common keyword ensures several matches.
    let kws: Vec<&str> = corpus.documents[2].keywords().into_iter().take(1).collect();

    let theta1 = s.run_query(&kws, 1, &mut rng).unwrap();
    let theta2 = s.run_query(&kws, 2, &mut rng).unwrap();
    assert_eq!(
        theta1
            .communication
            .bits_sent(Party::DataOwner, Phase::Decrypt),
        modulus_bits * theta1.retrieved.len() as u64
    );
    assert_eq!(
        theta2
            .communication
            .bits_sent(Party::DataOwner, Phase::Decrypt),
        modulus_bits * theta2.retrieved.len() as u64
    );
    assert!(theta2.retrieved.len() >= theta1.retrieved.len());
}

#[test]
fn server_work_is_binary_comparisons_only_and_linear_in_corpus_size() {
    let (mut s_small, mut rng_small, corpus_small) = session(30, 4);
    let (mut s_large, mut rng_large, corpus_large) = session(90, 4);

    let kws_small: Vec<&str> = corpus_small.documents[0]
        .keywords()
        .into_iter()
        .take(2)
        .collect();
    let kws_large: Vec<&str> = corpus_large.documents[0]
        .keywords()
        .into_iter()
        .take(2)
        .collect();
    let report_small = s_small.run_query(&kws_small, 0, &mut rng_small).unwrap();
    let report_large = s_large.run_query(&kws_large, 0, &mut rng_large).unwrap();

    // No cryptography on the server, ever.
    for report in [&report_small, &report_large] {
        assert_eq!(report.server_ops.public_key_operations(), 0);
        assert_eq!(report.server_ops.hashes, 0);
        assert_eq!(report.server_ops.symmetric_decryptions, 0);
    }
    // At least σ comparisons, at most σ·η.
    let eta = s_small.owner.params().rank_levels() as u64;
    assert!(report_small.server_ops.binary_comparisons >= 30);
    assert!(report_small.server_ops.binary_comparisons <= 30 * eta);
    assert!(report_large.server_ops.binary_comparisons >= 90);
    assert!(report_large.server_ops.binary_comparisons <= 90 * eta);
    // Linear growth: three times the corpus, at least twice the comparisons.
    assert!(
        report_large.server_ops.binary_comparisons
            >= 2 * report_small.server_ops.binary_comparisons
    );
}

#[test]
fn measured_wire_costs_track_the_analytic_table1() {
    // The envelope redesign measures what each exchange actually costs as
    // framed bytes; framing only ever adds to the analytic Table 1 bits.
    let (mut s, mut rng, corpus) = session(40, 6);
    let kws: Vec<&str> = corpus.documents[0].keywords().into_iter().take(2).collect();
    let report = s.run_query(&kws, 1, &mut rng).unwrap();
    let ledger = &report.communication;

    for party in [Party::User, Party::DataOwner, Party::Server] {
        for phase in [Phase::Trapdoor, Phase::Search, Phase::Decrypt] {
            let analytic = ledger.bits_sent(party, phase);
            let measured = ledger.wire_bits_sent(party, phase);
            assert!(
                measured >= analytic,
                "{party}/{phase}: measured {measured} < analytic {analytic}"
            );
            if analytic > 0 {
                assert!(measured > 0, "{party}/{phase}: analytic bits but no wire");
            }
        }
    }

    // Frame accounting: trapdoor + query + document request + one blind
    // decryption per retrieved document, every request answered.
    assert_eq!(report.wire.frames_sent, report.wire.frames_received);
    assert_eq!(report.wire.frames_sent, 3 + report.retrieved.len() as u64);
    // Request ids are reported per connection and line up with the frames.
    let ids = &report.wire.server_request_ids;
    assert_eq!(ids.end - ids.start, 2);
    let ids = &report.wire.owner_request_ids;
    assert_eq!(ids.end - ids.start, 1 + report.retrieved.len() as u64);
    assert!(report.shards >= 1);
}

#[test]
fn user_side_public_key_operations_stay_constant_per_document() {
    // Table 2: the user performs a constant number of modular exponentiations and
    // multiplications per retrieved document, independent of the corpus size.
    let (mut s, mut rng, corpus) = session(80, 5);
    let kws: Vec<&str> = corpus.documents[7].keywords().into_iter().take(1).collect();
    let report = s.run_query(&kws, 1, &mut rng).unwrap();
    assert!(report.user_ops.modular_exponentiations <= 6);
    assert!(report.user_ops.modular_multiplications <= 4);
    assert_eq!(
        report.user_ops.symmetric_decryptions,
        report.retrieved.len() as u64
    );
}
