//! # mkse-baselines — the systems the paper compares against
//!
//! §2 and §8.1 of the paper position the MKSE scheme against three reference points, all of
//! which are implemented here so the comparison experiments can be regenerated:
//!
//! * [`cao`] — **Cao et al., "Privacy-preserving multi-keyword ranked search over encrypted
//!   cloud data" (INFOCOM 2011)**, the MRSE scheme built on the secure kNN technique:
//!   dictionary-sized binary index vectors, split by a secret bit string and encrypted with two
//!   secret invertible `(n+2)×(n+2)` matrices. Its per-document matrix products are what make
//!   it "not efficient" (§2) — reproducing that cost profile is the point of experiment E9.
//! * [`wang`] — **Wang et al., "An efficient scheme of common secure indices for conjunctive
//!   keyword-based retrieval on encrypted data" (WISA 2009)**, the bit-index scheme MKSE builds
//!   on, but keyed with a single hash shared by all users. §4.1 argues this is brute-forceable
//!   once the hash leaks; [`wang::BruteForceAttack`] implements that attack.
//! * [`relevance`] — the classical plaintext relevance score of Eq. (4) (Zobel & Moffat), used
//!   in §5 to validate the quality of the level-based ranking.
//! * [`metrics`] — top-k agreement metrics used to compare the two rankings the way §5 reports
//!   them (top-1 agreement, top-3 containment, 4-of-top-5 agreement).

#![forbid(unsafe_code)]

pub mod cao;
pub mod metrics;
pub mod relevance;
pub mod wang;

pub use cao::{MrseIndex, MrseKey, MrseScheme, MrseTrapdoor};
pub use metrics::{top_k_containment, top_k_overlap, RankingComparison};
pub use relevance::{relevance_score, RelevanceRanker};
pub use wang::{BruteForceAttack, SharedHashScheme};
