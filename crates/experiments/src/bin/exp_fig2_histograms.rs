//! E2/E3 — Figure 2: query-distance histograms demonstrating search-pattern hiding.
//!
//! Figure 2(a): distances between query pairs built from *different* genuine keywords versus
//! pairs built from the *same* genuine keywords (different random keywords each time), with
//! the number of genuine keywords unknown to the adversary (2–6 per query). 1250 distances per
//! histogram, V = 30, U = 60, r = 448, d = 6.
//!
//! Figure 2(b): the same comparison when the adversary knows the query has exactly 5 genuine
//! keywords (1000 distances per histogram). The paper reports ≈ 20% of distances in the
//! indistinguishable middle bucket, ≈ 45% below it (adversary guesses "same" with 0.6
//! confidence) and ≈ 35% above it (guesses "different" with 0.7 confidence).

use mkse_core::{Histogram, QueryBuilder, SchemeKeys, SystemParams, Trapdoor};
use mkse_experiments::{header, ExpArgs};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Build one randomized query index from `keywords` under `keys`.
fn build_query(
    params: &SystemParams,
    keys: &SchemeKeys,
    pool: &[Trapdoor],
    keywords: &[String],
    rng: &mut StdRng,
) -> mkse_core::QueryIndex {
    let refs: Vec<&str> = keywords.iter().map(|s| s.as_str()).collect();
    let trapdoors = keys.trapdoors_for(params, &refs);
    QueryBuilder::new(params)
        .add_trapdoors(&trapdoors)
        .with_randomization(pool)
        .build(rng)
}

fn keyword_set(tag: &str, count: usize, rng: &mut StdRng) -> Vec<String> {
    (0..count)
        .map(|i| format!("{tag}-{i}-{}", rng.gen::<u32>()))
        .collect()
}

fn print_histogram(label: &str, hist: &Histogram) {
    println!("\n  {label}");
    println!("  distance bucket | frequency");
    for (i, &count) in hist.counts().iter().enumerate() {
        println!(
            "  [{:>3.0}, {:>3.0})      | {}",
            hist.bucket_start(i),
            hist.bucket_start(i) + 10.0,
            count
        );
    }
}

fn main() {
    let args = ExpArgs::from_env();
    let params = SystemParams::default(); // r=448, d=6, U=60, V=30
    let mut rng = StdRng::seed_from_u64(args.seed);
    let keys = SchemeKeys::generate(&params, &mut rng);
    let pool = keys.random_pool_trapdoors(&params);

    // ---------------- Figure 2(a): unknown number of genuine keywords ----------------
    let per_group = args.scaled(50, 5);
    header(&format!(
        "E2  Figure 2(a): {} indices per keyword-count group (2..=6 genuine keywords), V=30, U=60",
        per_group
    ));

    // Former set: per_group indices per genuine-keyword count 2..=6.
    let mut former: Vec<(usize, Vec<String>)> = Vec::new();
    for count in 2..=6usize {
        for _ in 0..per_group {
            former.push((count, keyword_set("former", count, &mut rng)));
        }
    }
    // Latter set: one index per keyword count 2..=6 (fresh keywords → "different query").
    let latter: Vec<(usize, Vec<String>)> = (2..=6usize)
        .map(|c| (c, keyword_set("latter", c, &mut rng)))
        .collect();

    let mut different_hist = Histogram::new(100.0, 200.0, 10);
    for (_, kws_a) in &former {
        for (_, kws_b) in &latter {
            let qa = build_query(&params, &keys, &pool, kws_a, &mut rng);
            let qb = build_query(&params, &keys, &pool, kws_b, &mut rng);
            different_hist.record(qa.bits().hamming_distance(qb.bits()) as f64);
        }
    }

    let mut same_hist = Histogram::new(100.0, 200.0, 10);
    let same_pairs = former.len() * latter.len();
    for i in 0..same_pairs {
        let (count, kws) = &former[i % former.len()];
        let _ = count;
        let qa = build_query(&params, &keys, &pool, kws, &mut rng);
        let qb = build_query(&params, &keys, &pool, kws, &mut rng);
        same_hist.record(qa.bits().hamming_distance(qb.bits()) as f64);
    }

    print_histogram(
        &format!("different queries ({} distances)", different_hist.total()),
        &different_hist,
    );
    print_histogram(
        &format!(
            "same genuine keywords, fresh randomization ({} distances)",
            same_hist.total()
        ),
        &same_hist,
    );
    println!(
        "\n  histogram overlap coefficient: {:.3}  (1.0 = indistinguishable; the paper's point \
         is that the two histograms overlap almost completely)",
        different_hist.overlap_coefficient(&same_hist)
    );

    // ---------------- Figure 2(b): the adversary knows there are 5 genuine keywords ----------
    let group = args.scaled(200, 20);
    header(&format!(
        "E3  Figure 2(b): known keyword count; {} indices per group, reference query has 5 keywords",
        group
    ));
    let reference_keywords = keyword_set("reference", 5, &mut rng);

    let mut different_hist_b = Histogram::new(100.0, 200.0, 10);
    for count in 2..=6usize {
        for _ in 0..group {
            let other = keyword_set("other", count, &mut rng);
            let qa = build_query(&params, &keys, &pool, &reference_keywords, &mut rng);
            let qb = build_query(&params, &keys, &pool, &other, &mut rng);
            different_hist_b.record(qa.bits().hamming_distance(qb.bits()) as f64);
        }
    }
    let mut same_hist_b = Histogram::new(100.0, 200.0, 10);
    for _ in 0..(5 * group) {
        let qa = build_query(&params, &keys, &pool, &reference_keywords, &mut rng);
        let qb = build_query(&params, &keys, &pool, &reference_keywords, &mut rng);
        same_hist_b.record(qa.bits().hamming_distance(qb.bits()) as f64);
    }
    print_histogram(
        &format!("different queries ({} distances)", different_hist_b.total()),
        &different_hist_b,
    );
    print_histogram(
        &format!("same query keywords ({} distances)", same_hist_b.total()),
        &same_hist_b,
    );

    let below = same_hist_b.fraction_below(150.0);
    let mid = same_hist_b.fraction_below(160.0) - below;
    let above = 1.0 - below - mid;
    println!("\n  same-query distance bands (paper: ~45% below 150, ~20% at 150, ~35% above):");
    println!("    below 150 : {:>5.1}%", 100.0 * below);
    println!("    [150,160) : {:>5.1}%", 100.0 * mid);
    println!("    >= 160    : {:>5.1}%", 100.0 * above);
    println!(
        "  overlap coefficient with known keyword count: {:.3} (smaller than Figure 2(a), as \
         the paper observes — keeping the keyword count secret matters)",
        different_hist_b.overlap_coefficient(&same_hist_b)
    );

    // Eq. (5)'s predictions for these pairs: the mean distance of each histogram above.
    let x = 5 + params.query_random_keywords;
    let shared_same = 5 + (params.query_random_keywords / 2);
    let shared_diff = params.query_random_keywords / 2;
    println!(
        "\n  Eq. (5) predictions: same-keyword pairs Δ({x},{shared_same}) = {:.1}, \
         different-keyword pairs Δ({x},{shared_diff}) = {:.1}",
        mkse_core::expected_hamming_distance(&params, x, shared_same),
        mkse_core::expected_hamming_distance(&params, x, shared_diff),
    );
}
