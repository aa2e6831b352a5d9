//! Synthetic corpora.
//!
//! §8.1: "a synthetic database is created by assigning random keywords with random term
//! frequencies for each document". This module reproduces that methodology — plus the §5
//! ranking-quality workload, which needs controlled keyword overlap (a fixed number of
//! documents containing each queried keyword and a fixed number containing *all* of them).

use crate::dictionary::Dictionary;
use crate::document::{Document, TermFrequencies};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How term frequencies are drawn for each assigned keyword.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FrequencyModel {
    /// Every keyword occurs exactly once.
    Constant,
    /// Uniform in `[lo, hi]` (inclusive). The §5 experiment uses `[1, 15]`.
    Uniform { lo: u32, hi: u32 },
    /// Zipf-like: frequency `~ round(scale / rank^exponent)`, clamped to at least 1. Gives the
    /// realistic heavy-tailed distribution of natural-language text for the examples.
    Zipf { scale: f64, exponent: f64 },
}

impl FrequencyModel {
    fn sample<R: Rng + ?Sized>(&self, rank_in_doc: usize, rng: &mut R) -> u32 {
        match *self {
            FrequencyModel::Constant => 1,
            FrequencyModel::Uniform { lo, hi } => rng.gen_range(lo..=hi.max(lo)),
            FrequencyModel::Zipf { scale, exponent } => {
                let f = scale / ((rank_in_doc + 1) as f64).powf(exponent);
                f.round().max(1.0) as u32
            }
        }
    }
}

/// Specification of a synthetic corpus.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CorpusSpec {
    /// Number of documents to generate.
    pub num_documents: usize,
    /// Size of the genuine-keyword universe documents draw from.
    pub vocabulary_size: usize,
    /// Number of distinct genuine keywords per document (the paper's experiments use 10–40,
    /// with 20 as the reference point).
    pub keywords_per_document: usize,
    /// Term-frequency model for the assigned keywords.
    pub frequency_model: FrequencyModel,
}

impl Default for CorpusSpec {
    /// The reference workload of Figure 4: 20 genuine keywords per document drawn from a
    /// 25 000-word vocabulary (the paper's "commonly used keywords in English" figure), with
    /// uniform term frequencies in `[1, 15]`.
    fn default() -> Self {
        CorpusSpec {
            num_documents: 1000,
            vocabulary_size: 25_000,
            keywords_per_document: 20,
            frequency_model: FrequencyModel::Uniform { lo: 1, hi: 15 },
        }
    }
}

/// A generated corpus: documents plus the vocabulary they were drawn from.
#[derive(Clone, Debug)]
pub struct SyntheticCorpus {
    /// The generated documents.
    pub documents: Vec<Document>,
    /// The keyword universe (vocabulary) documents draw from.
    pub vocabulary: Dictionary,
}

impl SyntheticCorpus {
    /// Generate a corpus according to `spec`, deterministically under the supplied RNG.
    pub fn generate<R: Rng + ?Sized>(spec: &CorpusSpec, rng: &mut R) -> Self {
        assert!(
            spec.keywords_per_document <= spec.vocabulary_size,
            "cannot draw {} distinct keywords from a vocabulary of {}",
            spec.keywords_per_document,
            spec.vocabulary_size
        );
        let vocabulary = Dictionary::generate(spec.vocabulary_size);
        let all_positions: Vec<usize> = (0..spec.vocabulary_size).collect();
        let mut documents = Vec::with_capacity(spec.num_documents);
        for id in 0..spec.num_documents {
            let chosen: Vec<usize> = all_positions
                .choose_multiple(rng, spec.keywords_per_document)
                .copied()
                .collect();
            let mut tf = TermFrequencies::new();
            for (rank, pos) in chosen.iter().enumerate() {
                let word = vocabulary.word(*pos).expect("position is in range");
                tf.add_count(word, spec.frequency_model.sample(rank, rng));
            }
            documents.push(Document::from_terms(id as u64, tf));
        }
        SyntheticCorpus {
            documents,
            vocabulary,
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// True if the corpus has no documents.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// The documents that contain *all* of `keywords` (ground truth for false-accept and
    /// precision experiments).
    pub fn documents_containing_all(&self, keywords: &[&str]) -> Vec<u64> {
        self.documents
            .iter()
            .filter(|d| keywords.iter().all(|k| d.terms.contains(k)))
            .map(|d| d.id)
            .collect()
    }
}

/// The §5 ranking-quality workload.
///
/// 1000 equal-length files; 3 searched keywords; each searched keyword appears in `f_t = 200`
/// documents; exactly 20 documents contain all three; term frequencies of the searched
/// keywords in those 20 documents are uniform in `[1, 15]`.
#[derive(Clone, Debug)]
pub struct RankingWorkload {
    /// The corpus (1000 documents by default).
    pub corpus: SyntheticCorpus,
    /// The three searched keywords.
    pub query_keywords: Vec<String>,
    /// The ids of the documents containing all searched keywords.
    pub full_match_ids: Vec<u64>,
    /// Document length |R| used by the Eq. 4 relevance score (equal for all files).
    pub document_length: u64,
}

impl RankingWorkload {
    /// Generate the workload with the paper's parameters.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::generate_with(rng, 1000, 3, 200, 20, (1, 15))
    }

    /// Generate a parameterized variant (the paper's values are
    /// `num_docs = 1000`, `num_query_keywords = 3`, `ft = 200`, `full_matches = 20`,
    /// `tf_range = (1, 15)`).
    pub fn generate_with<R: Rng + ?Sized>(
        rng: &mut R,
        num_docs: usize,
        num_query_keywords: usize,
        ft: usize,
        full_matches: usize,
        tf_range: (u32, u32),
    ) -> Self {
        assert!(full_matches <= ft && ft <= num_docs);
        let spec = CorpusSpec {
            num_documents: num_docs,
            vocabulary_size: 25_000,
            keywords_per_document: 20,
            frequency_model: FrequencyModel::Uniform { lo: 1, hi: 5 },
        };
        let mut corpus = SyntheticCorpus::generate(&spec, rng);

        // Reserve dedicated query keywords outside the random vocabulary draw.
        let query_keywords: Vec<String> = (0..num_query_keywords)
            .map(|i| format!("query-term-{i}"))
            .collect();

        // The first `full_matches` documents receive all query keywords; the remaining
        // `ft - full_matches` receive each keyword individually (disjointly across keywords
        // where possible) so every keyword ends up in exactly `ft` documents.
        let mut doc_ids: Vec<usize> = (0..num_docs).collect();
        doc_ids.shuffle(rng);
        let full_ids: Vec<usize> = doc_ids[..full_matches].to_vec();

        for &doc in &full_ids {
            for kw in &query_keywords {
                let tf = rng.gen_range(tf_range.0..=tf_range.1);
                corpus.documents[doc].terms.add_count(kw, tf);
            }
        }

        let mut cursor = full_matches;
        for kw in &query_keywords {
            let mut assigned = full_matches;
            while assigned < ft {
                let doc = doc_ids[cursor % num_docs];
                cursor += 1;
                // Skip documents that already contain every query keyword so the
                // full-match set stays exactly `full_matches`.
                if full_ids.contains(&doc) {
                    continue;
                }
                if corpus.documents[doc].terms.contains(kw) {
                    continue;
                }
                let tf = rng.gen_range(tf_range.0..=tf_range.1);
                corpus.documents[doc].terms.add_count(kw, tf);
                assigned += 1;
            }
        }

        // Equal document lengths, as the paper assumes ("1000 files of equal lengths").
        let document_length = 1000;

        let full_match_ids = full_ids.iter().map(|&d| d as u64).collect();
        RankingWorkload {
            corpus,
            query_keywords,
            full_match_ids,
            document_length,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generate_respects_spec() {
        let spec = CorpusSpec {
            num_documents: 50,
            vocabulary_size: 500,
            keywords_per_document: 10,
            frequency_model: FrequencyModel::Uniform { lo: 1, hi: 15 },
        };
        let mut rng = StdRng::seed_from_u64(1);
        let corpus = SyntheticCorpus::generate(&spec, &mut rng);
        assert_eq!(corpus.len(), 50);
        assert!(!corpus.is_empty());
        assert_eq!(corpus.vocabulary.len(), 500);
        for doc in &corpus.documents {
            assert_eq!(doc.terms.distinct_terms(), 10);
            for (_, count) in doc.terms.iter() {
                assert!((1..=15).contains(&count));
            }
        }
    }

    #[test]
    fn generation_is_deterministic_under_a_seed() {
        let spec = CorpusSpec {
            num_documents: 20,
            vocabulary_size: 100,
            keywords_per_document: 5,
            frequency_model: FrequencyModel::Constant,
        };
        let a = SyntheticCorpus::generate(&spec, &mut StdRng::seed_from_u64(9));
        let b = SyntheticCorpus::generate(&spec, &mut StdRng::seed_from_u64(9));
        for (da, db) in a.documents.iter().zip(b.documents.iter()) {
            assert_eq!(da.terms, db.terms);
        }
    }

    #[test]
    fn constant_model_gives_unit_frequencies() {
        let spec = CorpusSpec {
            num_documents: 5,
            vocabulary_size: 50,
            keywords_per_document: 8,
            frequency_model: FrequencyModel::Constant,
        };
        let corpus = SyntheticCorpus::generate(&spec, &mut StdRng::seed_from_u64(2));
        for doc in &corpus.documents {
            for (_, c) in doc.terms.iter() {
                assert_eq!(c, 1);
            }
        }
    }

    #[test]
    fn zipf_model_is_heavy_tailed() {
        let model = FrequencyModel::Zipf {
            scale: 50.0,
            exponent: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let first = model.sample(0, &mut rng);
        let tenth = model.sample(9, &mut rng);
        assert!(first > tenth);
        assert!(tenth >= 1);
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn spec_with_too_many_keywords_panics() {
        let spec = CorpusSpec {
            num_documents: 1,
            vocabulary_size: 3,
            keywords_per_document: 10,
            frequency_model: FrequencyModel::Constant,
        };
        let _ = SyntheticCorpus::generate(&spec, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn documents_containing_all_is_exact() {
        let mut corpus = SyntheticCorpus::generate(
            &CorpusSpec {
                num_documents: 4,
                vocabulary_size: 10,
                keywords_per_document: 2,
                frequency_model: FrequencyModel::Constant,
            },
            &mut StdRng::seed_from_u64(6),
        );
        corpus.documents[1].terms.add("special");
        corpus.documents[1].terms.add("other");
        corpus.documents[3].terms.add("special");
        assert_eq!(
            corpus.documents_containing_all(&["special", "other"]),
            vec![1]
        );
        assert_eq!(corpus.documents_containing_all(&["special"]), vec![1, 3]);
        assert!(corpus.documents_containing_all(&["missing"]).is_empty());
    }

    #[test]
    fn ranking_workload_matches_paper_parameters() {
        let mut rng = StdRng::seed_from_u64(7);
        let wl = RankingWorkload::generate(&mut rng);
        assert_eq!(wl.corpus.len(), 1000);
        assert_eq!(wl.query_keywords.len(), 3);
        assert_eq!(wl.full_match_ids.len(), 20);

        // Each query keyword occurs in exactly ft = 200 documents.
        for kw in &wl.query_keywords {
            let count = wl
                .corpus
                .documents
                .iter()
                .filter(|d| d.terms.contains(kw))
                .count();
            assert_eq!(count, 200, "keyword {kw}");
        }
        // Exactly the designated documents contain all three.
        let kws: Vec<&str> = wl.query_keywords.iter().map(|s| s.as_str()).collect();
        let mut all = wl.corpus.documents_containing_all(&kws);
        all.sort_unstable();
        let mut expected = wl.full_match_ids.clone();
        expected.sort_unstable();
        assert_eq!(all, expected);
        // Term frequencies of query keywords in full matches are within [1, 15].
        for &id in &wl.full_match_ids {
            let doc = &wl.corpus.documents[id as usize];
            for kw in &wl.query_keywords {
                let tf = doc.terms.frequency(kw);
                assert!((1..=15).contains(&tf));
            }
        }
    }

    #[test]
    fn ranking_workload_small_variant() {
        let mut rng = StdRng::seed_from_u64(8);
        let wl = RankingWorkload::generate_with(&mut rng, 100, 2, 30, 5, (1, 10));
        assert_eq!(wl.corpus.len(), 100);
        assert_eq!(wl.full_match_ids.len(), 5);
        for kw in &wl.query_keywords {
            let count = wl
                .corpus
                .documents
                .iter()
                .filter(|d| d.terms.contains(kw))
                .count();
            assert_eq!(count, 30);
        }
    }
}
