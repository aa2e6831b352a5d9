//! # mkse-textproc — text processing and synthetic corpora
//!
//! The MKSE paper evaluates its scheme on a **synthetic database**: "a synthetic database is
//! created by assigning random keywords with random term frequencies for each document"
//! (§8.1). The paper also lists real-text evaluation as future work and keeps "analyzing a
//! document for finding the keywords in it" out of scope.
//!
//! This crate provides both sides:
//!
//! * [`corpus`] — the synthetic corpus generators used by every experiment binary (random
//!   keyword assignment with controlled overlaps, uniform or Zipf-distributed term
//!   frequencies, the §5 ranking-quality workload, and the §8.1 timing workloads).
//! * [`mod@tokenize`], [`stopwords`], [`stem`], [`document`], [`dictionary`] — a conventional
//!   keyword-extraction pipeline (tokenizer → stop-word filter → Porter stemmer → term
//!   frequencies) so the example applications can index real text through exactly the same
//!   public API that the synthetic experiments use.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod dictionary;
pub mod document;
pub mod stem;
pub mod stopwords;
pub mod tokenize;

pub use corpus::{CorpusSpec, SyntheticCorpus};
pub use dictionary::Dictionary;
pub use document::{Document, TermFrequencies};
pub use stem::porter_stem;
pub use stopwords::is_stopword;
pub use tokenize::tokenize;

/// Extract ranked keywords from raw text: tokenize, drop stop words, stem, count term
/// frequencies. This is the convenience entry point used by the examples.
///
/// ```
/// use mkse_textproc::extract_keywords;
/// let tf = extract_keywords("The cloud stores encrypted documents in the cloud.");
/// assert_eq!(tf.frequency("cloud"), 2);
/// assert_eq!(tf.frequency("the"), 0); // stop word
/// ```
pub fn extract_keywords(text: &str) -> TermFrequencies {
    let mut tf = TermFrequencies::new();
    for token in tokenize(text) {
        if is_stopword(&token) {
            continue;
        }
        let stemmed = porter_stem(&token);
        if stemmed.len() > 1 {
            tf.add(&stemmed);
        }
    }
    tf
}

/// Normalize a single query keyword the same way [`extract_keywords`] normalizes document
/// terms (lower-case, stemmed), so user queries and document indices agree on the keyword
/// vocabulary.
///
/// ```
/// use mkse_textproc::normalize_keyword;
/// assert_eq!(normalize_keyword("Privacy"), "privaci");
/// assert_eq!(normalize_keyword("searching"), "search");
/// ```
pub fn normalize_keyword(word: &str) -> String {
    let lowered = word.to_ascii_lowercase();
    porter_stem(&lowered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_keywords_filters_stopwords_and_counts() {
        let tf = extract_keywords("Privacy preserving search; the search is private.");
        assert!(tf.frequency("search") >= 2);
        assert_eq!(tf.frequency("the"), 0);
        assert_eq!(tf.frequency("is"), 0);
    }

    #[test]
    fn extract_keywords_empty_text() {
        let tf = extract_keywords("");
        assert_eq!(tf.total_terms(), 0);
    }

    #[test]
    fn extract_keywords_drops_single_letters() {
        let tf = extract_keywords("a b c keyword");
        assert_eq!(tf.distinct_terms(), 1);
    }

    #[test]
    fn normalize_keyword_matches_document_terms() {
        let tf = extract_keywords("Privacy preserving searches on encrypted clouds");
        for query_word in ["privacy", "Searching", "encrypted", "cloud"] {
            let normalized = normalize_keyword(query_word);
            assert!(
                tf.contains(&normalized),
                "query word {query_word} (normalized {normalized}) should hit an indexed term"
            );
        }
    }
}
