//! Keyword bins and the public `GetBin` function (§4.2).
//!
//! Keywords are partitioned into `δ` bins by a *public* uniform hash. The data owner keeps one
//! secret HMAC key per bin; when a user asks for the trapdoor of a keyword, he only reveals the
//! keyword's **bin id**, and receives that bin's key — from which he can compute the trapdoors
//! of *every* keyword in the bin, which is exactly the obfuscation the scheme wants (the data
//! owner learns the bin, not the keyword). The parameter `ϖ` (`min_bin_occupancy` here) is the
//! smallest acceptable number of keywords per bin.

use crate::params::SystemParams;
use mkse_crypto::sha256::Sha256;
use serde::{Deserialize, Serialize};

/// Identifier of a trapdoor bin, in `0..δ`.
pub type BinId = u32;

/// The public `GetBin` function: a uniform hash of the keyword reduced modulo the number of
/// bins. Everyone (data owner, users, even the server) can evaluate it; it carries no secret.
pub fn get_bin(params: &SystemParams, keyword: &str) -> BinId {
    let digest = Sha256::digest(keyword.as_bytes());
    let value = u32::from_be_bytes([digest[0], digest[1], digest[2], digest[3]]);
    value % params.num_bins as u32
}

/// The bin ids a user must request to cover the given keywords (deduplicated, sorted).
///
/// §8: "if two query keywords happen to map to the same bin, then sending only one of them
/// will be sufficient" — deduplication is part of the protocol's communication cost model.
pub fn bins_for_keywords(params: &SystemParams, keywords: &[&str]) -> Vec<BinId> {
    let mut bins: Vec<BinId> = keywords.iter().map(|k| get_bin(params, k)).collect();
    bins.sort_unstable();
    bins.dedup();
    bins
}

/// Statistics about how a keyword population distributes over the bins; used to check the
/// `ϖ` security parameter ("δ must be chosen deliberately such that there are at least ϖ
/// items in each bin").
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinOccupancy {
    /// Number of keywords assigned to each bin.
    pub counts: Vec<usize>,
}

impl BinOccupancy {
    /// Compute the occupancy of every bin for a keyword universe.
    pub fn measure<'a, I>(params: &SystemParams, keywords: I) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut counts = vec![0usize; params.num_bins];
        for kw in keywords {
            counts[get_bin(params, kw) as usize] += 1;
        }
        BinOccupancy { counts }
    }

    /// The least-populated bin's size (must be ≥ ϖ for the configuration to be acceptable).
    pub fn min_occupancy(&self) -> usize {
        self.counts.iter().copied().min().unwrap_or(0)
    }

    /// True if every bin holds at least `min_required` (ϖ) keywords.
    pub fn satisfies_security_parameter(&self, min_required: usize) -> bool {
        self.min_occupancy() >= min_required
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SystemParams {
        SystemParams::default()
    }

    #[test]
    fn get_bin_is_in_range_and_deterministic() {
        let p = params();
        for kw in ["cloud", "privacy", "search", "keyword", "a", ""] {
            let bin = get_bin(&p, kw);
            assert!(bin < p.num_bins as u32, "{kw} -> {bin}");
            assert_eq!(bin, get_bin(&p, kw));
        }
    }

    #[test]
    fn different_bin_counts_change_assignment_range() {
        let mut p = params();
        p.num_bins = 7;
        for i in 0..100 {
            assert!(get_bin(&p, &format!("kw{i}")) < 7);
        }
    }

    #[test]
    fn bins_for_keywords_dedups_and_sorts() {
        let p = params();
        let kws = ["alpha", "beta", "alpha", "gamma"];
        let bins = bins_for_keywords(&p, &kws);
        let mut sorted = bins.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(bins, sorted);
        assert!(bins.len() <= 3);
    }

    #[test]
    fn occupancy_is_roughly_uniform() {
        // 10 000 keywords over 100 bins: expected 100 per bin; the public hash should keep
        // every bin within a loose band (GetBin "has uniform distribution", §4.2).
        let p = params();
        let keywords: Vec<String> = (0..10_000).map(|i| format!("keyword-{i}")).collect();
        let occ = BinOccupancy::measure(&p, keywords.iter().map(|s| s.as_str()));
        assert_eq!(occ.counts.len(), 100);
        assert_eq!(occ.counts.iter().sum::<usize>(), 10_000);
        assert!(occ.min_occupancy() > 50, "min = {}", occ.min_occupancy());
        let max = occ.counts.iter().max().copied();
        assert!(max < Some(160), "max = {max:?}");
        assert!(occ.satisfies_security_parameter(50));
        assert!(!occ.satisfies_security_parameter(1000));
    }

    #[test]
    fn occupancy_of_empty_universe() {
        let occ = BinOccupancy::measure(&params(), std::iter::empty());
        assert_eq!(occ.min_occupancy(), 0);
        assert!(occ.counts.iter().all(|&c| c == 0));
    }
}
