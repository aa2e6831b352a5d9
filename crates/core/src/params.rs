//! System parameters of the MKSE scheme.
//!
//! The reference values follow §8.1 of the paper: the HMAC produces `l = 2688` bits
//! (336 bytes), the reduction parameter is `d = 6`, so the index size is `r = l/d = 448` bits;
//! query randomization uses `U = 60` fake keywords per document and `V = 30` per query
//! (`U = 2V` maximizes the number of query variants, §6); ranking uses `η = 3` or `η = 5`
//! levels.

use serde::{Deserialize, Serialize};

/// Parameters shared by the data owner, the users and the server.
///
/// All of them are public; the security of the scheme rests on the secrecy of the per-bin
/// HMAC keys held by the data owner (see [`crate::keys::SchemeKeys`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemParams {
    /// Index size `r` in bits (448 in the paper).
    pub index_bits: usize,
    /// Reduction parameter `d`: each base-`2^d` digit of the HMAC output collapses to one
    /// index bit (6 in the paper).
    pub digit_bits: usize,
    /// Number of trapdoor bins `δ` the keyword space is partitioned into (§4.2).
    pub num_bins: usize,
    /// Number of random (fake) keywords `U` inserted into every document index (§6).
    pub doc_random_keywords: usize,
    /// Number of random keywords `V ≤ U` added to every query index (§6).
    pub query_random_keywords: usize,
    /// Term-frequency thresholds of the ranking levels (§5), in ascending order. The first
    /// entry must be 1 (level 1 indexes every keyword); the number of entries is `η`.
    pub level_thresholds: Vec<u32>,
}

impl Default for SystemParams {
    /// The paper's reference configuration with 3 ranking levels (thresholds 1, 5, 10 as in
    /// the §5 example).
    fn default() -> Self {
        SystemParams {
            index_bits: 448,
            digit_bits: 6,
            num_bins: 100,
            doc_random_keywords: 60,
            query_random_keywords: 30,
            level_thresholds: vec![1, 5, 10],
        }
    }
}

impl SystemParams {
    /// Build a parameter set, validating the invariants.
    pub fn new(
        index_bits: usize,
        digit_bits: usize,
        num_bins: usize,
        doc_random_keywords: usize,
        query_random_keywords: usize,
        level_thresholds: Vec<u32>,
    ) -> Result<Self, ParamError> {
        let p = SystemParams {
            index_bits,
            digit_bits,
            num_bins,
            doc_random_keywords,
            query_random_keywords,
            level_thresholds,
        };
        p.validate()?;
        Ok(p)
    }

    /// The paper's configuration without ranking (a single level).
    pub fn without_ranking() -> Self {
        SystemParams {
            level_thresholds: vec![1],
            ..Self::default()
        }
    }

    /// The paper's configuration with `η = 5` ranking levels.
    pub fn with_five_levels() -> Self {
        SystemParams {
            level_thresholds: vec![1, 3, 5, 8, 10],
            ..Self::default()
        }
    }

    /// Disable query randomization (used by a few analytic experiments).
    pub fn without_randomization(mut self) -> Self {
        self.doc_random_keywords = 0;
        self.query_random_keywords = 0;
        self
    }

    /// HMAC output length `l = r·d` in bits (§4.1).
    fn prf_output_bits(&self) -> usize {
        self.index_bits * self.digit_bits
    }

    /// HMAC output length in bytes (336 for the reference parameters).
    pub fn prf_output_bytes(&self) -> usize {
        self.prf_output_bits().div_ceil(8)
    }

    /// Number of ranking levels `η`.
    pub fn rank_levels(&self) -> usize {
        self.level_thresholds.len()
    }

    /// Probability that a single index bit is 0 for one keyword: `1 / 2^d`.
    pub fn zero_bit_probability(&self) -> f64 {
        1.0 / (1u64 << self.digit_bits) as f64
    }

    /// Check the structural invariants.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.index_bits == 0 {
            return Err(ParamError::ZeroIndexBits);
        }
        if self.digit_bits == 0 || self.digit_bits > 32 {
            return Err(ParamError::InvalidDigitBits(self.digit_bits));
        }
        if self.num_bins == 0 {
            return Err(ParamError::ZeroBins);
        }
        if self.query_random_keywords > self.doc_random_keywords {
            return Err(ParamError::QueryRandomExceedsPool {
                query: self.query_random_keywords,
                pool: self.doc_random_keywords,
            });
        }
        if self.level_thresholds.is_empty() {
            return Err(ParamError::NoLevels);
        }
        if self.level_thresholds[0] != 1 {
            return Err(ParamError::FirstLevelMustBeOne(self.level_thresholds[0]));
        }
        if self.level_thresholds.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ParamError::LevelsNotIncreasing);
        }
        Ok(())
    }
}

/// Parameter-validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// `r` must be positive.
    ZeroIndexBits,
    /// `d` must be in `1..=32`.
    InvalidDigitBits(usize),
    /// `δ` must be positive.
    ZeroBins,
    /// `V` must not exceed `U`.
    QueryRandomExceedsPool { query: usize, pool: usize },
    /// At least one ranking level is required.
    NoLevels,
    /// Level 1 must index every keyword (threshold 1).
    FirstLevelMustBeOne(u32),
    /// Level thresholds must be strictly increasing.
    LevelsNotIncreasing,
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::ZeroIndexBits => write!(f, "index size r must be positive"),
            ParamError::InvalidDigitBits(d) => write!(f, "digit size d={d} must be in 1..=32"),
            ParamError::ZeroBins => write!(f, "number of bins must be positive"),
            ParamError::QueryRandomExceedsPool { query, pool } => {
                write!(
                    f,
                    "V={query} random query keywords exceed the pool U={pool}"
                )
            }
            ParamError::NoLevels => write!(f, "at least one ranking level is required"),
            ParamError::FirstLevelMustBeOne(t) => {
                write!(f, "level 1 threshold must be 1, got {t}")
            }
            ParamError::LevelsNotIncreasing => {
                write!(f, "level thresholds must be strictly increasing")
            }
        }
    }
}

impl std::error::Error for ParamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_reference_values() {
        let p = SystemParams::default();
        assert_eq!(p.index_bits, 448);
        assert_eq!(p.digit_bits, 6);
        assert_eq!(p.prf_output_bits(), 2688);
        assert_eq!(p.prf_output_bytes(), 336);
        assert_eq!(p.doc_random_keywords, 60);
        assert_eq!(p.query_random_keywords, 30);
        assert_eq!(p.rank_levels(), 3);
        assert!(p.validate().is_ok());
        assert!((p.zero_bit_probability() - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn preset_variants_validate() {
        assert!(SystemParams::without_ranking().validate().is_ok());
        assert_eq!(SystemParams::without_ranking().rank_levels(), 1);
        assert!(SystemParams::with_five_levels().validate().is_ok());
        assert_eq!(SystemParams::with_five_levels().rank_levels(), 5);
        let nr = SystemParams::default().without_randomization();
        assert!(nr.validate().is_ok());
        assert_eq!(nr.doc_random_keywords, 0);
    }

    #[test]
    fn new_rejects_invalid_parameters() {
        assert_eq!(
            SystemParams::new(0, 6, 10, 0, 0, vec![1]).unwrap_err(),
            ParamError::ZeroIndexBits
        );
        assert_eq!(
            SystemParams::new(448, 0, 10, 0, 0, vec![1]).unwrap_err(),
            ParamError::InvalidDigitBits(0)
        );
        assert_eq!(
            SystemParams::new(448, 40, 10, 0, 0, vec![1]).unwrap_err(),
            ParamError::InvalidDigitBits(40)
        );
        assert_eq!(
            SystemParams::new(448, 6, 0, 0, 0, vec![1]).unwrap_err(),
            ParamError::ZeroBins
        );
        assert_eq!(
            SystemParams::new(448, 6, 10, 10, 20, vec![1]).unwrap_err(),
            ParamError::QueryRandomExceedsPool {
                query: 20,
                pool: 10
            }
        );
        assert_eq!(
            SystemParams::new(448, 6, 10, 0, 0, vec![]).unwrap_err(),
            ParamError::NoLevels
        );
        assert_eq!(
            SystemParams::new(448, 6, 10, 0, 0, vec![2, 5]).unwrap_err(),
            ParamError::FirstLevelMustBeOne(2)
        );
        assert_eq!(
            SystemParams::new(448, 6, 10, 0, 0, vec![1, 5, 5]).unwrap_err(),
            ParamError::LevelsNotIncreasing
        );
    }

    #[test]
    fn valid_custom_parameters_are_accepted() {
        let p = SystemParams::new(128, 4, 16, 10, 5, vec![1, 2, 4]).unwrap();
        assert_eq!(p.prf_output_bits(), 512);
        assert_eq!(p.rank_levels(), 3);
    }

    #[test]
    fn error_display_is_informative() {
        for e in [
            ParamError::ZeroIndexBits,
            ParamError::InvalidDigitBits(99),
            ParamError::ZeroBins,
            ParamError::QueryRandomExceedsPool { query: 9, pool: 3 },
            ParamError::NoLevels,
            ParamError::FirstLevelMustBeOne(7),
            ParamError::LevelsNotIncreasing,
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
