//! Search-pattern privacy (§6): query randomization makes repeated queries for the same
//! keywords look like unrelated queries.
//!
//! The example issues the same two-keyword query many times (fresh random V-subsets each
//! time), issues unrelated queries as a control group, and compares the Hamming-distance
//! distributions — the server-side view an adversary would use for linking. It also prints the
//! analytic expectations F(x), Δ(x, x̄) and EO from §6 next to the measurements, and verifies
//! that randomization never changes the search results.
//!
//! Run with: `cargo run --release --example search_pattern_privacy`

use mkse::core::{
    expected_hamming_distance, expected_random_overlap, expected_zeros, DocumentIndexer, Histogram,
    QueryBuilder, SchemeKeys, SystemParams,
};
use mkse::protocol::{Client, CloudServer, QueryMessage, TypedCalls};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let params = SystemParams::default();
    let mut rng = StdRng::seed_from_u64(99);
    let keys = SchemeKeys::generate(&params, &mut rng);
    let pool = keys.random_pool_trapdoors(&params);
    let trials = 400usize;

    // Analytic expectations for a 2-genuine-keyword query with V = 30 random keywords.
    let x = 2 + params.query_random_keywords;
    println!(
        "analytic model (r = {}, d = {}):",
        params.index_bits, params.digit_bits
    );
    println!(
        "  expected zero bits in a query index, F({x}) = {:.1}",
        expected_zeros(&params, x)
    );
    println!(
        "  expected distance, same genuine keywords,      Δ = {:.1}",
        expected_hamming_distance(
            &params,
            x,
            2 + expected_random_overlap(params.query_random_keywords) as usize
        )
    );
    println!(
        "  expected distance, different genuine keywords, Δ = {:.1}\n",
        expected_hamming_distance(
            &params,
            x,
            expected_random_overlap(params.query_random_keywords) as usize
        )
    );

    // Measured distributions.
    let genuine = ["invoice", "fraud"];
    let trapdoors = keys.trapdoors_for(&params, &genuine);
    let mut same_hist = Histogram::new(100.0, 200.0, 10);
    let mut diff_hist = Histogram::new(100.0, 200.0, 10);
    for t in 0..trials {
        let q1 = QueryBuilder::new(&params)
            .add_trapdoors(&trapdoors)
            .with_randomization(&pool)
            .build(&mut rng);
        let q2 = QueryBuilder::new(&params)
            .add_trapdoors(&trapdoors)
            .with_randomization(&pool)
            .build(&mut rng);
        same_hist.record(q1.bits().hamming_distance(q2.bits()) as f64);

        let other = [format!("topic-{t}"), format!("term-{t}")];
        let other_refs: Vec<&str> = other.iter().map(|s| s.as_str()).collect();
        let other_td = keys.trapdoors_for(&params, &other_refs);
        let q3 = QueryBuilder::new(&params)
            .add_trapdoors(&other_td)
            .with_randomization(&pool)
            .build(&mut rng);
        diff_hist.record(q1.bits().hamming_distance(q3.bits()) as f64);
    }

    println!("measured Hamming distances over {trials} query pairs:");
    println!("  bucket      same-keywords   different-keywords");
    for i in 0..same_hist.counts().len() {
        println!(
            "  [{:>3.0},{:>3.0})   {:>13}   {:>18}",
            same_hist.bucket_start(i),
            same_hist.bucket_start(i) + 10.0,
            same_hist.counts()[i],
            diff_hist.counts()[i]
        );
    }
    println!(
        "\n  distribution overlap coefficient: {:.3} (1.0 = an adversary watching queries cannot \
         tell repeated searches from unrelated ones)",
        same_hist.overlap_coefficient(&diff_hist)
    );

    // Randomization must not change what the server returns — verified through
    // the production front door: a CloudServer behind the envelope Client, so
    // both queries travel as framed Request::Query envelopes.
    let indexer = DocumentIndexer::new(&params, &keys);
    let mut server = Client::new(CloudServer::new(params.clone()));
    server
        .upload(
            vec![
                indexer.index_keywords(0, &["invoice", "fraud", "report"]),
                indexer.index_keywords(1, &["holiday", "photos"]),
            ],
            vec![], // index-only upload: this example never retrieves documents
        )
        .expect("upload");
    let plain = QueryBuilder::new(&params)
        .add_trapdoors(&trapdoors)
        .build(&mut rng);
    let randomized = QueryBuilder::new(&params)
        .add_trapdoors(&trapdoors)
        .with_randomization(&pool)
        .build(&mut rng);
    let reply_for = |server: &mut Client<CloudServer>, bits| {
        server
            .query(&QueryMessage {
                query: bits,
                top: None,
            })
            .expect("framed query round trip")
    };
    let plain_reply = reply_for(&mut server, plain.bits().clone());
    let randomized_reply = reply_for(&mut server, randomized.bits().clone());
    assert_eq!(plain_reply.matches, randomized_reply.matches);
    println!("\nrandomized and plain queries return identical result sets — randomization is free in terms of correctness.");
}
