//! The plaintext relevance score of Eq. (4) (Zobel & Moffat style), used in §5 as the
//! reference ranking the level-based MKSE ranking is compared against:
//!
//! ```text
//! Score(W, R) = Σ_{t ∈ W}  (1/|R|) · (1 + ln f_{R,t}) · ln(1 + M/f_t)
//! ```
//!
//! where `W` is the set of searched keywords, `f_{R,t}` the term frequency of `t` in file `R`,
//! `f_t` the number of files containing `t`, `M` the number of files in the database, and
//! `|R|` the length of the file.

use mkse_textproc::document::{Document, TermFrequencies};
use std::collections::HashMap;

/// Compute Eq. (4) for a single document.
///
/// Terms with `f_{R,t} = 0` contribute nothing; a term absent from the whole collection
/// (`f_t = 0`) also contributes nothing (its IDF factor is undefined — there is nothing to
/// rank).
pub fn relevance_score(
    query: &[&str],
    doc_terms: &TermFrequencies,
    doc_length: u64,
    collection_frequency: &HashMap<String, usize>,
    num_documents: usize,
) -> f64 {
    if doc_length == 0 {
        return 0.0;
    }
    let m = num_documents as f64;
    query
        .iter()
        .map(|t| {
            let f_rt = doc_terms.frequency(t) as f64;
            let f_t = collection_frequency.get(*t).copied().unwrap_or(0) as f64;
            if f_rt == 0.0 || f_t == 0.0 {
                return 0.0;
            }
            (1.0 / doc_length as f64) * (1.0 + f_rt.ln()) * (1.0 + m / f_t).ln()
        })
        .sum()
}

/// Ranks a document collection by Eq. (4).
pub struct RelevanceRanker {
    /// `f_t`: number of documents containing each term.
    collection_frequency: HashMap<String, usize>,
    /// `M`: collection size.
    num_documents: usize,
    /// `|R|` per document id (the §5 experiment uses equal lengths for all files).
    lengths: HashMap<u64, u64>,
}

impl RelevanceRanker {
    /// Build the collection statistics, overriding every document's length with
    /// `uniform_length` when provided (the paper's §5 workload assumes equal-length files).
    pub fn from_documents_with_length(documents: &[Document], uniform_length: Option<u64>) -> Self {
        let mut collection_frequency: HashMap<String, usize> = HashMap::new();
        let mut lengths = HashMap::new();
        for doc in documents {
            for (term, _) in doc.terms.iter() {
                *collection_frequency.entry(term.to_string()).or_insert(0) += 1;
            }
            let len = uniform_length.unwrap_or_else(|| doc.terms.total_terms().max(1));
            lengths.insert(doc.id, len);
        }
        RelevanceRanker {
            collection_frequency,
            num_documents: documents.len(),
            lengths,
        }
    }

    /// Score one document against a query.
    pub fn score(&self, query: &[&str], doc: &Document) -> f64 {
        let length = self.lengths.get(&doc.id).copied().unwrap_or(1);
        relevance_score(
            query,
            &doc.terms,
            length,
            &self.collection_frequency,
            self.num_documents,
        )
    }

    /// Rank the given documents by descending score; ties broken by document id for
    /// determinism. Returns `(document_id, score)` pairs.
    pub fn rank(&self, query: &[&str], documents: &[Document]) -> Vec<(u64, f64)> {
        let mut scored: Vec<(u64, f64)> = documents
            .iter()
            .map(|d| (d.id, self.score(query, d)))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkse_textproc::document::TermFrequencies;

    fn doc(id: u64, pairs: &[(&str, u32)]) -> Document {
        Document::from_terms(
            id,
            TermFrequencies::from_pairs(pairs.iter().map(|(t, c)| (t.to_string(), *c))),
        )
    }

    #[test]
    fn higher_term_frequency_scores_higher() {
        let docs = vec![
            doc(0, &[("cloud", 10)]),
            doc(1, &[("cloud", 1)]),
            doc(2, &[("other", 5)]),
        ];
        let ranker = RelevanceRanker::from_documents_with_length(&docs, Some(100));
        let ranking = ranker.rank(&["cloud"], &docs);
        assert_eq!(ranking[0].0, 0);
        assert_eq!(ranking[1].0, 1);
        assert_eq!(ranking[2].0, 2);
        assert_eq!(ranking[2].1, 0.0);
    }

    #[test]
    fn rarer_terms_carry_more_weight() {
        // "rare" appears in 1 of 3 documents, "common" in all 3; with equal term frequencies
        // the document matching the rare term outranks the one matching the common term.
        let docs = vec![
            doc(0, &[("rare", 2), ("filler", 1)]),
            doc(1, &[("common", 2)]),
            doc(2, &[("common", 1), ("filler", 3)]),
        ];
        let extra = doc(3, &[("common", 1)]);
        let mut all = docs.clone();
        all.push(extra);
        let ranker = RelevanceRanker::from_documents_with_length(&all, Some(50));
        let s_rare = ranker.score(&["rare"], &all[0]);
        let s_common = ranker.score(&["common"], &all[1]);
        assert!(s_rare > s_common);
        assert_eq!(ranker.collection_frequency.get("rare"), Some(&1));
        assert_eq!(ranker.collection_frequency.get("common"), Some(&3));
        assert_eq!(ranker.collection_frequency.get("absent"), None);
    }

    #[test]
    fn multi_keyword_scores_accumulate() {
        let docs = vec![doc(0, &[("a", 3), ("b", 3)]), doc(1, &[("a", 3)])];
        let ranker = RelevanceRanker::from_documents_with_length(&docs, Some(10));
        let both = ranker.score(&["a", "b"], &docs[0]);
        let single = ranker.score(&["a", "b"], &docs[1]);
        assert!(both > single);
        // Score over one keyword plus score over the other equals the combined score.
        let sum = ranker.score(&["a"], &docs[0]) + ranker.score(&["b"], &docs[0]);
        assert!((both - sum).abs() < 1e-12);
    }

    #[test]
    fn absent_query_terms_contribute_zero() {
        let docs = vec![doc(0, &[("x", 5)])];
        let ranker = RelevanceRanker::from_documents_with_length(&docs, None);
        assert_eq!(ranker.score(&["not-there"], &docs[0]), 0.0);
    }

    #[test]
    fn zero_length_document_scores_zero() {
        let tf = TermFrequencies::from_pairs([("a", 1u32)]);
        let score = relevance_score(&["a"], &tf, 0, &HashMap::new(), 10);
        assert_eq!(score, 0.0);
    }

    #[test]
    fn top_k_returns_k_ids_in_order() {
        let docs: Vec<Document> = (0..10).map(|i| doc(i, &[("kw", (i + 1) as u32)])).collect();
        let ranker = RelevanceRanker::from_documents_with_length(&docs, Some(20));
        let top3: Vec<u64> = ranker.rank(&["kw"], &docs)[..3]
            .iter()
            .map(|&(id, _)| id)
            .collect();
        assert_eq!(top3, vec![9, 8, 7]);
    }

    #[test]
    fn eq4_matches_hand_computed_value() {
        // Single doc, single term: (1/|R|)(1 + ln f_Rt) ln(1 + M/f_t)
        // with |R| = 4, f_Rt = 3, M = 8, f_t = 2: (0.25)(1 + ln 3)(ln 5).
        let tf = TermFrequencies::from_pairs([("t", 3u32)]);
        let mut cf = HashMap::new();
        cf.insert("t".to_string(), 2usize);
        let got = relevance_score(&["t"], &tf, 4, &cf, 8);
        let expected = 0.25 * (1.0 + 3f64.ln()) * 5f64.ln();
        assert!((got - expected).abs() < 1e-12);
    }
}
