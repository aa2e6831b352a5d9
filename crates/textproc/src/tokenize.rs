//! Tokenization: lower-casing, punctuation stripping, ASCII-alphanumeric word extraction.

/// Split raw text into lower-case alphanumeric tokens.
///
/// A token is a maximal run of ASCII letters or digits; everything else separates tokens.
/// Unicode letters outside ASCII are treated as separators — the paper's corpora are English
/// keyword sets, and keeping the rule simple makes the behaviour easy to reason about in the
/// index-generation pipeline.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() {
            current.push(ch.to_ascii_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Tokenize and keep only tokens of at least `min_len` characters.
#[cfg(test)]
fn tokenize_min_len(text: &str, min_len: usize) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter(|t| t.len() >= min_len)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        assert_eq!(
            tokenize("Hello, cloud-server! 42 times."),
            vec!["hello", "cloud", "server", "42", "times"]
        );
    }

    #[test]
    fn lowercases_everything() {
        assert_eq!(tokenize("PIR Protocol"), vec!["pir", "protocol"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("... !!! ---").is_empty());
    }

    #[test]
    fn non_ascii_is_a_separator() {
        assert_eq!(tokenize("naïve approach"), vec!["na", "ve", "approach"]);
    }

    #[test]
    fn numbers_are_tokens() {
        assert_eq!(tokenize("RSA-1024 modulus"), vec!["rsa", "1024", "modulus"]);
    }

    #[test]
    fn min_len_filter() {
        assert_eq!(
            tokenize_min_len("a an the keyword", 3),
            vec!["the", "keyword"]
        );
    }

    #[test]
    fn no_trailing_empty_token() {
        assert_eq!(tokenize("word"), vec!["word"]);
        assert_eq!(tokenize("word "), vec!["word"]);
    }
}
