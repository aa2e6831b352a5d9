//! The data owner's secret key material and trapdoor issuance (§4.2).
//!
//! * One secret HMAC key per bin ([`SchemeKeys::bin_key`]); the same key is used for every
//!   keyword that `GetBin` maps to that bin.
//! * The pool of `U` random (fake) keywords used for query randomization (§6). The fake
//!   keywords are random strings outside the dictionary; their trapdoors are shared with
//!   authorized users so that each query can blend in a fresh random `V`-subset.
//! * Trapdoor issuance: given a keyword (data-owner side) or a bin key (user side), compute
//!   the keyword's trapdoor, which is simply its keyword index `I_w` (footnote 3).
//!
//! Each bin key is held as its keyed [`LongPrf`]: both HMAC key schedules are computed once,
//! when the key is drawn, and every trapdoor of the bin clones them. Those HMAC midstates are
//! **key material** just like the key bytes — whoever holds them can compute every trapdoor
//! of the bin — so [`SchemeKeys`]' `Debug` prints counts only.

use crate::bins::{get_bin, BinId};
use crate::bitindex::BitIndex;
use crate::keyword::{keyword_index, keyword_index_with_prf};
use crate::params::SystemParams;
use mkse_crypto::prf::LongPrf;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Length of each bin's HMAC key in bytes. The paper's Theorem 2 proof assumes "a randomly
/// chosen 128 bit key", so 16 bytes.
pub const BIN_KEY_LEN: usize = 16;

/// A trapdoor: the `r`-bit keyword index of one keyword, usable directly as a query factor.
///
/// The trapdoor deliberately does **not** carry the keyword string: once issued, it reveals
/// nothing about which keyword it encodes (Theorem 3).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trapdoor {
    index: BitIndex,
}

impl Trapdoor {
    /// Wrap a keyword index as a trapdoor.
    pub fn new(index: BitIndex) -> Self {
        Trapdoor { index }
    }

    /// The underlying `r`-bit index.
    pub fn index(&self) -> &BitIndex {
        &self.index
    }
}

/// The pool of `U` random keywords the data owner mixes into every document index (§6).
///
/// The pool is derived deterministically from a secret seed so the data owner can regenerate
/// it, but the strings themselves are "simply random strings" that no genuine dictionary
/// contains.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RandomKeywordPool {
    keywords: Vec<String>,
}

impl RandomKeywordPool {
    /// Generate a pool of `size` random keywords.
    pub fn generate<R: Rng + ?Sized>(size: usize, rng: &mut R) -> Self {
        let keywords = (0..size)
            .map(|i| {
                let tag: u128 = rng.gen();
                format!("~random~{i}~{tag:032x}")
            })
            .collect();
        RandomKeywordPool { keywords }
    }

    /// Number of random keywords (`U`).
    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    /// True if the pool is empty (randomization disabled).
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }

    /// Iterate over the pool's keyword strings.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.keywords.iter().map(|s| s.as_str())
    }

    /// Choose a random `V`-subset of pool positions (used by the query builder).
    pub fn choose_subset<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<usize> {
        assert!(count <= self.len(), "subset larger than pool");
        rand::seq::index::sample(rng, self.len(), count).into_vec()
    }
}

/// The data owner's complete secret key material.
#[derive(Clone, Serialize, Deserialize)]
pub struct SchemeKeys {
    /// One keyed PRF per bin; [`LongPrf::key`] is the bin key itself.
    bin_keys: Vec<LongPrf>,
    random_pool: RandomKeywordPool,
}

impl SchemeKeys {
    /// Generate fresh key material for the given parameters.
    pub fn generate<R: Rng + ?Sized>(params: &SystemParams, rng: &mut R) -> Self {
        let bin_keys = (0..params.num_bins)
            .map(|_| {
                let mut key = [0u8; BIN_KEY_LEN];
                rng.fill(&mut key[..]);
                LongPrf::new(&key)
            })
            .collect();
        let random_pool = RandomKeywordPool::generate(params.doc_random_keywords, rng);
        SchemeKeys {
            bin_keys,
            random_pool,
        }
    }

    /// The secret HMAC key of bin `bin`.
    ///
    /// Panics if the bin id is out of range for the parameters the keys were generated with.
    pub fn bin_key(&self, bin: BinId) -> &[u8] {
        self.bin_keys[bin as usize].key()
    }

    /// Number of bins this key set covers.
    pub fn num_bins(&self) -> usize {
        self.bin_keys.len()
    }

    /// The random-keyword pool used for query randomization.
    pub fn random_pool(&self) -> &RandomKeywordPool {
        &self.random_pool
    }

    /// Compute the trapdoor (keyword index) of a single keyword. Data-owner-side operation:
    /// it looks up the keyword's bin key internally.
    pub fn trapdoor_for(&self, params: &SystemParams, keyword: &str) -> Trapdoor {
        let bin = get_bin(params, keyword);
        let prf = &self.bin_keys[bin as usize];
        Trapdoor::new(keyword_index_with_prf(params, prf, keyword))
    }

    /// Compute trapdoors for several keywords (preserving order).
    pub fn trapdoors_for(&self, params: &SystemParams, keywords: &[&str]) -> Vec<Trapdoor> {
        keywords
            .iter()
            .map(|kw| self.trapdoor_for(params, kw))
            .collect()
    }

    /// Trapdoors of the whole random-keyword pool, in pool order. The data owner hands these
    /// to authorized users so they can randomize their queries (§6).
    pub fn random_pool_trapdoors(&self, params: &SystemParams) -> Vec<Trapdoor> {
        self.random_pool
            .iter()
            .map(|kw| self.trapdoor_for(params, kw))
            .collect()
    }

    /// The bin keys for a set of requested bins — the data owner's reply to a trapdoor
    /// request (§4.2: "The data owner then returns the secret keys of the bins requested
    /// for").
    pub fn keys_for_bins(&self, bins: &[BinId]) -> Vec<(BinId, Vec<u8>)> {
        bins.iter()
            .map(|&b| (b, self.bin_key(b).to_vec()))
            .collect()
    }
}

impl std::fmt::Debug for SchemeKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(
            f,
            "SchemeKeys({} bins, {} random keywords)",
            self.bin_keys.len(),
            self.random_pool.len()
        )
    }
}

/// User-side trapdoor computation from a received bin key (§4.2: "the secret keys of the
/// bins … can be used by the user to generate the trapdoors for all keywords in these bins").
pub fn trapdoor_from_bin_key(params: &SystemParams, bin_key: &[u8], keyword: &str) -> Trapdoor {
    Trapdoor::new(keyword_index(params, bin_key, keyword))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SystemParams, SchemeKeys) {
        let params = SystemParams::default();
        let keys = SchemeKeys::generate(&params, &mut StdRng::seed_from_u64(42));
        (params, keys)
    }

    #[test]
    fn generate_creates_one_key_per_bin() {
        let (params, keys) = setup();
        assert_eq!(keys.num_bins(), params.num_bins);
        assert_eq!(keys.random_pool().len(), params.doc_random_keywords);
        // Keys are distinct (overwhelmingly likely; equality would indicate a broken RNG path).
        assert_ne!(keys.bin_key(0), keys.bin_key(1));
    }

    #[test]
    fn trapdoor_is_deterministic_and_key_dependent() {
        let (params, keys) = setup();
        let t1 = keys.trapdoor_for(&params, "cloud");
        let t2 = keys.trapdoor_for(&params, "cloud");
        assert_eq!(t1, t2);
        let other_keys = SchemeKeys::generate(&params, &mut StdRng::seed_from_u64(43));
        assert_ne!(t1, other_keys.trapdoor_for(&params, "cloud"));
    }

    #[test]
    fn user_side_trapdoor_matches_owner_side() {
        // The §4.2 flow: the user learns the bin key and computes the same trapdoor the data
        // owner would have used in the document indices.
        let (params, keys) = setup();
        let keyword = "privacy";
        let bin = get_bin(&params, keyword);
        let reply = keys.keys_for_bins(&[bin]);
        assert_eq!(reply.len(), 1);
        let user_td = trapdoor_from_bin_key(&params, &reply[0].1, keyword);
        assert_eq!(user_td, keys.trapdoor_for(&params, keyword));
    }

    #[test]
    fn trapdoors_for_preserves_order() {
        let (params, keys) = setup();
        let tds = keys.trapdoors_for(&params, &["alpha", "beta"]);
        assert_eq!(tds.len(), 2);
        assert_eq!(tds[0], keys.trapdoor_for(&params, "alpha"));
        assert_eq!(tds[1], keys.trapdoor_for(&params, "beta"));
    }

    #[test]
    fn random_pool_trapdoors_cover_the_pool() {
        let (params, keys) = setup();
        let tds = keys.random_pool_trapdoors(&params);
        assert_eq!(tds.len(), params.doc_random_keywords);
        // Each pool trapdoor should be reproducible from the pool keyword itself.
        let first_kw = keys.random_pool().iter().next().unwrap();
        assert_eq!(tds[0], keys.trapdoor_for(&params, first_kw));
    }

    #[test]
    fn random_pool_subset_selection() {
        let (_, keys) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let subset = keys.random_pool().choose_subset(30, &mut rng);
        assert_eq!(subset.len(), 30);
        let mut sorted = subset.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30, "subset indices must be distinct");
        assert!(sorted.iter().all(|&i| i < 60));
    }

    #[test]
    #[should_panic(expected = "subset larger than pool")]
    fn subset_larger_than_pool_panics() {
        let (_, keys) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let _ = keys.random_pool().choose_subset(61, &mut rng);
    }

    #[test]
    fn pool_keywords_are_outside_any_plausible_dictionary() {
        let (_, keys) = setup();
        for kw in keys.random_pool().iter() {
            assert!(kw.starts_with("~random~"));
        }
    }

    #[test]
    fn debug_does_not_leak_key_bytes() {
        let (_, keys) = setup();
        let rendered = format!("{keys:?}");
        assert!(rendered.contains("100 bins"));
        // No hex dump of key material.
        assert!(rendered.len() < 100);
    }

    #[test]
    fn trapdoor_zero_bits_is_small() {
        let (params, keys) = setup();
        let td = keys.trapdoor_for(&params, "network");
        // Expected r/2^d = 7 zeros; allow a generous band for a single sample.
        let zeros = td.index().count_zeros();
        assert!(zeros < 30, "zeros = {zeros}");
        assert_eq!(td.index().len(), 448);
    }

    #[test]
    fn empty_random_pool_when_randomization_disabled() {
        let params = SystemParams::default().without_randomization();
        let keys = SchemeKeys::generate(&params, &mut StdRng::seed_from_u64(1));
        assert!(keys.random_pool().is_empty());
        assert!(keys.random_pool_trapdoors(&params).is_empty());
    }
}
