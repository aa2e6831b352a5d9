//! # mkse-bench — Criterion benchmarks
//!
//! Shared fixtures for the Criterion benches that regenerate the paper's timing results:
//!
//! * `fig4a_index_construction` — Figure 4(a): per-corpus index-construction time at several
//!   corpus sizes and ranking depths, plus cached/parallel ablations.
//! * `fig4b_search` — Figure 4(b): server-side search time at several corpus sizes and
//!   ranking depths.
//! * `cao_comparison` — §8.1: per-document index construction and per-query search, MKSE vs
//!   the Cao et al. MRSE baseline.
//! * `crypto_primitives` — the substrate: long-output PRF, keyword-index derivation, AES-CTR
//!   document encryption, RSA blind decryption.
//! * `query_generation` — trapdoor computation and query building with and without
//!   randomization.
//!
//! The benches are intentionally smaller than the experiment binaries (Criterion repeats each
//! measurement many times); the full-scale sweeps live in `mkse-experiments`.

#![forbid(unsafe_code)]

use mkse_core::{DocumentIndexer, SchemeKeys, SystemParams};
use mkse_textproc::corpus::{CorpusSpec, FrequencyModel, SyntheticCorpus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A ready-to-bench deployment: parameters, keys, a corpus and its indexer.
pub struct BenchFixture {
    /// Scheme parameters.
    pub params: SystemParams,
    /// Owner key material.
    pub keys: SchemeKeys,
    /// The synthetic corpus (20 genuine keywords per document, paper workload).
    pub corpus: SyntheticCorpus,
}

impl BenchFixture {
    /// Build a fixture with `num_docs` documents and the given ranking depth.
    pub fn new(num_docs: usize, levels: usize, seed: u64) -> Self {
        let params = match levels {
            1 => SystemParams::without_ranking(),
            5 => SystemParams::with_five_levels(),
            _ => SystemParams::default(),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = SchemeKeys::generate(&params, &mut rng);
        let corpus = SyntheticCorpus::generate(
            &CorpusSpec {
                num_documents: num_docs,
                vocabulary_size: 25_000,
                keywords_per_document: 20,
                frequency_model: FrequencyModel::Uniform { lo: 1, hi: 15 },
            },
            &mut rng,
        );
        BenchFixture {
            params,
            keys,
            corpus,
        }
    }

    /// An indexer borrowing this fixture's parameters and keys.
    pub fn indexer(&self) -> DocumentIndexer<'_> {
        DocumentIndexer::new(&self.params, &self.keys)
    }

    /// Query keyword pairs drawn from `count` **distinct** documents (capped at
    /// the corpus size), spread evenly across the corpus, so every query has at
    /// least one genuine match. Used as the query *pool* a skewed workload
    /// samples from.
    pub fn query_keyword_pool(&self, count: usize) -> Vec<Vec<String>> {
        assert!(!self.corpus.documents.is_empty(), "corpus is empty");
        let count = count.min(self.corpus.len()).max(1);
        let stride = self.corpus.len() / count;
        (0..count)
            .map(|i| {
                self.corpus.documents[i * stride]
                    .keywords()
                    .into_iter()
                    .take(2)
                    .map(|s| s.to_string())
                    .collect()
            })
            .collect()
    }

    /// Two query keywords guaranteed to co-occur in at least one document.
    pub fn query_keywords(&self) -> Vec<String> {
        self.corpus.documents[self.corpus.len() / 2]
            .keywords()
            .into_iter()
            .take(2)
            .map(|s| s.to_string())
            .collect()
    }
}

/// A deterministic Zipf-like sampler over a pool of `pool_size` items: item `i`
/// is drawn with probability proportional to `1 / (i + 1)^exponent`.
///
/// Real query traffic is heavily skewed — a few hot queries dominate — and this is
/// exactly the workload a result cache exists for. The sampler is driven by the
/// workspace's compat [`StdRng`] (xoshiro256++), so a fixed seed reproduces the
/// same request sequence on every host; note the stream differs from upstream
/// `rand`, so cross-check numbers against this repository only.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    /// Cumulative distribution over the pool, `cdf[last] == 1.0`.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build the sampler for a pool of `pool_size` items (must be non-zero) with
    /// skew `exponent` (1.0 is the classic Zipf; 0.0 degenerates to uniform).
    pub fn new(pool_size: usize, exponent: f64) -> Self {
        assert!(pool_size > 0, "pool must be non-empty");
        assert!(exponent >= 0.0, "negative skew is not meaningful");
        let mut cdf = Vec::with_capacity(pool_size);
        let mut total = 0.0;
        for i in 0..pool_size {
            total += 1.0 / ((i + 1) as f64).powf(exponent);
            cdf.push(total);
        }
        for weight in &mut cdf {
            *weight /= total;
        }
        ZipfSampler { cdf }
    }

    /// Number of items in the pool.
    pub fn pool_size(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one pool index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        // First index whose cumulative weight covers u.
        match self.cdf.binary_search_by(|w| w.partial_cmp(&u).unwrap()) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i,
        }
    }

    /// Draw a whole workload of `count` pool indices.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<usize> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_consistent_state() {
        let fx = BenchFixture::new(10, 3, 1);
        assert_eq!(fx.corpus.len(), 10);
        assert_eq!(fx.params.rank_levels(), 3);
        assert_eq!(fx.query_keywords().len(), 2);
        let indexer = fx.indexer();
        let idx = indexer.index_document(&fx.corpus.documents[0]);
        assert_eq!(idx.num_levels(), 3);
    }

    #[test]
    fn fixture_levels_presets() {
        assert_eq!(BenchFixture::new(2, 1, 1).params.rank_levels(), 1);
        assert_eq!(BenchFixture::new(2, 5, 1).params.rank_levels(), 5);
    }

    #[test]
    fn keyword_pool_yields_distinct_count() {
        let fx = BenchFixture::new(40, 3, 1);
        let pool = fx.query_keyword_pool(8);
        assert_eq!(pool.len(), 8);
        for kws in &pool {
            assert!(!kws.is_empty() && kws.len() <= 2);
        }
        // Requesting more pools than documents caps at one per document.
        assert_eq!(fx.query_keyword_pool(100).len(), 40);
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_in_bounds() {
        let sampler = ZipfSampler::new(16, 1.0);
        assert_eq!(sampler.pool_size(), 16);
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let a = sampler.sample_many(&mut rng1, 500);
        let b = sampler.sample_many(&mut rng2, 500);
        assert_eq!(a, b, "same seed, same workload");
        assert!(a.iter().all(|&i| i < 16));
    }

    #[test]
    fn zipf_sampler_is_head_heavy() {
        let sampler = ZipfSampler::new(32, 1.1);
        let mut rng = StdRng::seed_from_u64(3);
        let draws = sampler.sample_many(&mut rng, 4_000);
        let head: usize = draws.iter().filter(|&&i| i < 4).count();
        let tail: usize = draws.iter().filter(|&&i| i >= 16).count();
        assert!(
            head > draws.len() / 3,
            "head of the distribution must dominate: {head}"
        );
        assert!(head > tail, "skew must favor early items: {head} vs {tail}");
        // Exponent 0 degenerates to uniform: the head takes roughly its share.
        let uniform = ZipfSampler::new(32, 0.0);
        let draws = uniform.sample_many(&mut rng, 4_000);
        let head: usize = draws.iter().filter(|&&i| i < 4).count();
        assert!((250..=750).contains(&head), "uniform head share: {head}");
    }
}
