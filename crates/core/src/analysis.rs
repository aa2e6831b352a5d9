//! The analytic model of §6 (query randomization) and §6.1 (error rates).
//!
//! * [`expected_zeros`] — `F(x)`: expected number of zero bits in an index built from `x`
//!   keywords.
//! * [`expected_common_zeros`] — `C(x)`: expected number of zero positions an `x`-keyword
//!   index shares with a single-keyword index.
//! * [`expected_hamming_distance`] — `Δ(Q₁, Q₂)` of Eq. (5) for two `x`-keyword queries with
//!   `x̄` keywords in common.
//! * [`expected_random_overlap`] — `EO` of Eq. (6): the expected number of common fake
//!   keywords between two queries drawing `V` out of `U = 2V`.
//! * [`Histogram`] — fixed-width histogram used to regenerate Figure 2.
//! * [`false_accept_rate`] — the FAR statistic of §6.1 / Figure 3.
//!
//! ## Deviation: Eq. (5)
//!
//! This module once evaluated Eq. (5) as
//! `Δ = (F(x) − F(x̄))(r − F(x))/r + F(x)(r − F(x))/r`. That form gives two identical queries
//! (`x̄ = x`) a distance of `F(x)(r − F(x))/r` — 108 bits at `x = 33` — where they are 0
//! apart, and it overstates every partial overlap (177 / 160 / 144 / 116 bits at
//! `x̄ = 10 / 15 / 20 / 30` against a measured 161 / 131 / 98 / 24). [`expected_hamming_distance`]
//! instead counts the shared zeros directly: the `x̄` shared keywords own `F(x̄)` zeros, and
//! each query adds `F(x) − F(x̄)` more among the other `r − F(x̄)` positions, independently of
//! the other query, so `Δ = 2(F(x) − F(x̄))(r − F(x))/(r − F(x̄))` — the exact expectation when
//! a keyword index's bits are independent, and within a bit of `exp_analytic_validation`'s
//! measurement at every `x̄` it prints. Whether the paper prints the old form cannot be checked
//! here (only its title is on file), so the old form is recorded as a deviation, not kept as a
//! second function.

use crate::params::SystemParams;
use serde::{Deserialize, Serialize};

/// `F(x)`: expected number of 0 bits in an index with `x` keywords.
///
/// The paper defines it by the recurrence `F(1) = r/2^d`, `F(x) = F(x−1) + F(1) − C(x−1)`,
/// with `C(x) = F(x)/2^d`. The closed form is `F(x) = r·(1 − (1 − 2^−d)^x)`, which this
/// function evaluates directly (the recurrence is exercised against it in the tests).
pub fn expected_zeros(params: &SystemParams, num_keywords: usize) -> f64 {
    let r = params.index_bits as f64;
    let p = params.zero_bit_probability();
    r * (1.0 - (1.0 - p).powi(num_keywords as i32))
}

/// `F(x)` computed by the paper's recurrence (§6). Nothing calls it but the tests: it is the
/// paper's own formula, kept as the reference the closed form [`expected_zeros`] is checked
/// against.
pub fn expected_zeros_recurrence(params: &SystemParams, num_keywords: usize) -> f64 {
    if num_keywords == 0 {
        return 0.0;
    }
    let f1 = params.index_bits as f64 * params.zero_bit_probability();
    let mut f = f1;
    for _ in 1..num_keywords {
        let c = f * params.zero_bit_probability();
        f = f + f1 - c;
    }
    f
}

/// `C(x)`: expected number of zero positions shared between an `x`-keyword index and an
/// independent single-keyword index.
pub fn expected_common_zeros(params: &SystemParams, num_keywords: usize) -> f64 {
    expected_zeros(params, num_keywords) * params.zero_bit_probability()
}

/// `Δ(Q₁, Q₂)` of Eq. (5): expected Hamming distance between two query indices with `x`
/// keywords each, `x_common` of which are shared:
/// `Δ = 2(F(x) − F(x̄))(r − F(x))/(r − F(x̄))` (the module docs derive it and record the
/// deviation from the form this module used before).
pub fn expected_hamming_distance(params: &SystemParams, x: usize, x_common: usize) -> f64 {
    assert!(
        x_common <= x,
        "common keywords cannot exceed total keywords"
    );
    let r = params.index_bits as f64;
    let fx = expected_zeros(params, x);
    let fbar = expected_zeros(params, x_common);
    2.0 * (fx - fbar) * (r - fx) / (r - fbar)
}

/// `EO` of Eq. (6): expected number of fake keywords shared by two queries that each draw `V`
/// keywords out of a pool of `U = 2V`; equals `V/2`.
pub fn expected_random_overlap(v: usize) -> f64 {
    v as f64 / 2.0
}

/// A fixed-width histogram over `[min, max)`, used to regenerate the Figure 2 distance
/// histograms.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    min: f64,
    max: f64,
    bucket_width: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create a histogram spanning `[min, max)` with `buckets` equal-width buckets.
    pub fn new(min: f64, max: f64, buckets: usize) -> Self {
        assert!(max > min && buckets > 0);
        Histogram {
            min,
            max,
            bucket_width: (max - min) / buckets as f64,
            counts: vec![0; buckets],
            total: 0,
        }
    }

    /// Record one observation (values outside the range are clamped into the end buckets).
    pub fn record(&mut self, value: f64) {
        let idx = ((value - self.min) / self.bucket_width).floor();
        let idx = idx.clamp(0.0, (self.counts.len() - 1) as f64) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The lower edge of bucket `i`.
    pub fn bucket_start(&self, i: usize) -> f64 {
        self.min + i as f64 * self.bucket_width
    }

    /// Fraction of observations strictly below `value`.
    pub fn fraction_below(&self, value: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if self.bucket_start(i) + self.bucket_width <= value {
                below += c;
            }
        }
        below as f64 / self.total as f64
    }

    /// Histogram overlap coefficient with another histogram over the same buckets:
    /// `Σ_i min(p_i, q_i)` where `p`, `q` are the normalized bucket probabilities. 1.0 means
    /// the two distributions are indistinguishable from these samples; values near 1 are what
    /// Figure 2(a) demonstrates for same-keyword vs different-keyword query pairs.
    pub fn overlap_coefficient(&self, other: &Histogram) -> f64 {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "bucket count mismatch"
        );
        if self.total == 0 || other.total == 0 {
            return 0.0;
        }
        self.counts
            .iter()
            .zip(other.counts.iter())
            .map(|(&a, &b)| (a as f64 / self.total as f64).min(b as f64 / other.total as f64))
            .sum()
    }
}

/// False-accept-rate statistic of §6.1: `FAR = incorrect matches / all matches`.
///
/// `matched` is the set of documents the scheme returned; `ground_truth` is the set that
/// actually contains every queried keyword. Returns `None` when there were no matches at all
/// (FAR is undefined in that case).
pub fn false_accept_rate(matched: &[u64], ground_truth: &[u64]) -> Option<f64> {
    if matched.is_empty() {
        return None;
    }
    let truth: std::collections::HashSet<u64> = ground_truth.iter().copied().collect();
    let incorrect = matched.iter().filter(|id| !truth.contains(id)).count();
    Some(incorrect as f64 / matched.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitindex::BitIndex;
    use crate::keys::SchemeKeys;
    use crate::keyword::keyword_index;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> SystemParams {
        SystemParams::default()
    }

    #[test]
    fn f1_is_r_over_2d() {
        let p = params();
        assert!((expected_zeros(&p, 1) - 7.0).abs() < 1e-9);
        assert_eq!(expected_zeros(&p, 0), 0.0);
    }

    #[test]
    fn closed_form_matches_recurrence() {
        let p = params();
        for x in 1..=80 {
            let closed = expected_zeros(&p, x);
            let rec = expected_zeros_recurrence(&p, x);
            assert!((closed - rec).abs() < 1e-6, "x={x}: {closed} vs {rec}");
        }
    }

    #[test]
    fn expected_zeros_is_monotone_and_bounded() {
        let p = params();
        let mut prev = 0.0;
        for x in 1..200 {
            let f = expected_zeros(&p, x);
            assert!(f > prev);
            assert!(f < p.index_bits as f64);
            prev = f;
        }
    }

    #[test]
    fn common_zeros_is_f_over_2d() {
        let p = params();
        let f30 = expected_zeros(&p, 30);
        assert!((expected_common_zeros(&p, 30) - f30 / 64.0).abs() < 1e-9);
    }

    #[test]
    fn hamming_distance_zero_for_fully_shared_queries() {
        // Two queries with exactly the same keywords (x̄ = x) build the same index.
        let p = params();
        for x in [1, 31, 33] {
            assert_eq!(expected_hamming_distance(&p, x, x), 0.0, "x = {x}");
        }
    }

    #[test]
    fn hamming_distance_grows_as_overlap_shrinks() {
        let p = params();
        let x = 33; // e.g. 3 genuine + 30 random keywords
        let mut prev = f64::MAX;
        for common in 0..=x {
            // More shared keywords → smaller expected distance.
            let d = expected_hamming_distance(&p, x, common);
            assert!(d <= prev + 1e-9, "common={common}");
            prev = d;
        }
    }

    #[test]
    #[should_panic(expected = "common keywords cannot exceed")]
    fn hamming_distance_rejects_invalid_overlap() {
        let _ = expected_hamming_distance(&params(), 3, 4);
    }

    #[test]
    fn random_overlap_expectations() {
        assert_eq!(expected_random_overlap(30), 15.0);
        assert_eq!(expected_random_overlap(0), 0.0);
    }

    #[test]
    fn analytic_f_matches_empirical_zero_counts() {
        // Build indices from x real keywords and compare the measured zero count with F(x).
        let p = params();
        let keys = SchemeKeys::generate(&p, &mut StdRng::seed_from_u64(3));
        for &x in &[1usize, 5, 20, 40] {
            let trials = 40;
            let mut total_zeros = 0usize;
            for t in 0..trials {
                let mut idx = BitIndex::all_ones(p.index_bits);
                for i in 0..x {
                    let kw = format!("kw-{t}-{i}");
                    idx.bitwise_product_assign(keys.trapdoor_for(&p, &kw).index());
                }
                total_zeros += idx.count_zeros();
            }
            let measured = total_zeros as f64 / trials as f64;
            let predicted = expected_zeros(&p, x);
            let tolerance = 3.0 + 0.15 * predicted;
            assert!(
                (measured - predicted).abs() < tolerance,
                "x={x}: measured {measured}, predicted {predicted}"
            );
        }
    }

    #[test]
    fn analytic_hamming_matches_empirical_distance() {
        // Two queries with x keywords each sharing x̄, built from real keyword indices, at every
        // x̄: the mean Hamming distance is within five standard errors of Eq. (5), the standard
        // error taken from the trials' own spread (so the identical queries at x̄ = x, always 0
        // apart, must read exactly 0).
        let p = params();
        let keys = SchemeKeys::generate(&p, &mut StdRng::seed_from_u64(4));
        let x = 10usize;
        let trials = 60;
        for x_bar in 0..=x {
            let distances: Vec<f64> = (0..trials)
                .map(|t| {
                    let build = |tag: &str| {
                        let mut idx = BitIndex::all_ones(p.index_bits);
                        for i in 0..x_bar {
                            let kw = format!("shared-{t}-{i}");
                            idx.bitwise_product_assign(keys.trapdoor_for(&p, &kw).index());
                        }
                        for i in 0..(x - x_bar) {
                            let kw = format!("{tag}-{t}-{i}");
                            idx.bitwise_product_assign(keys.trapdoor_for(&p, &kw).index());
                        }
                        idx
                    };
                    build("left").hamming_distance(&build("right")) as f64
                })
                .collect();
            let n = trials as f64;
            let measured = distances.iter().sum::<f64>() / n;
            let variance = distances
                .iter()
                .map(|d| (d - measured).powi(2))
                .sum::<f64>()
                / (n - 1.0);
            let standard_error = (variance / n).sqrt();
            let predicted = expected_hamming_distance(&p, x, x_bar);
            assert!(
                (measured - predicted).abs() <= 5.0 * standard_error,
                "x̄ = {x_bar}: measured {measured} ± {standard_error}, predicted {predicted}"
            );
        }
    }

    #[test]
    fn keyword_index_zero_count_concentrates_near_f1() {
        let p = params();
        let total: usize = (0..100)
            .map(|i| keyword_index(&p, b"key", &format!("w{i}")).count_zeros())
            .sum();
        let avg = total as f64 / 100.0;
        assert!((avg - expected_zeros(&p, 1)).abs() < 2.0, "avg = {avg}");
    }

    #[test]
    fn histogram_records_and_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for v in [0.5, 1.5, 1.7, 9.9, 100.0, -5.0] {
            h.record(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts()[0], 2); // 0.5 and the clamped -5.0
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 2); // 9.9 and the clamped 100.0
        assert_eq!(h.bucket_start(3), 3.0);
        assert!((h.fraction_below(2.0) - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_overlap_coefficient_bounds() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        for (x, y) in [(1.0, 1.0), (1.0, 3.0), (3.0, 3.0), (7.0, 9.0)] {
            a.record(x);
            b.record(y);
        }
        let o = a.overlap_coefficient(&b);
        assert!(o > 0.0 && o < 1.0);
        assert!((a.overlap_coefficient(&a) - 1.0).abs() < 1e-9);
        let empty = Histogram::new(0.0, 10.0, 5);
        assert_eq!(a.overlap_coefficient(&empty), 0.0);
    }

    #[test]
    fn far_statistic() {
        assert_eq!(false_accept_rate(&[], &[1, 2]), None);
        assert_eq!(false_accept_rate(&[1, 2], &[1, 2]), Some(0.0));
        assert_eq!(false_accept_rate(&[1, 2, 3, 4], &[1, 2]), Some(0.5));
        assert_eq!(false_accept_rate(&[5], &[]), Some(1.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_expected_zeros_never_exceeds_r(x in 0usize..500) {
            let p = params();
            let f = expected_zeros(&p, x);
            prop_assert!(f >= 0.0);
            prop_assert!(f <= p.index_bits as f64);
        }

        #[test]
        fn prop_hamming_distance_nonnegative(x in 1usize..100, frac in 0.0f64..1.0) {
            let p = params();
            let common = (x as f64 * frac) as usize;
            let d = expected_hamming_distance(&p, x, common);
            prop_assert!(d >= -1e-9);
            prop_assert!(d <= p.index_bits as f64);
        }

        #[test]
        fn prop_far_is_a_fraction(
            matched in proptest::collection::vec(0u64..50, 1..30),
            truth in proptest::collection::vec(0u64..50, 0..30),
        ) {
            let far = false_accept_rate(&matched, &truth).unwrap();
            prop_assert!((0.0..=1.0).contains(&far));
        }
    }
}
