//! Query-index generation on the user side (§4.2 and §6).
//!
//! A user holding trapdoors `I_{j1} … I_{jn}` for his search terms computes the query index
//! `Q = ∏ I_{ji}` (bitwise product) and sends the `r`-bit result to the server. With query
//! randomization enabled, a fresh random `V`-subset of the fake-keyword trapdoors is folded in
//! as well, so two queries for the same search terms have different indices (search-pattern
//! hiding, §6).

use crate::bitindex::BitIndex;
use crate::keys::Trapdoor;
use crate::params::SystemParams;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An `r`-bit query index, ready to send to the server.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryIndex {
    bits: BitIndex,
    /// Number of genuine search terms folded into the query. Kept **client-side only** for
    /// analysis; it is *not* serialized to the server (the §6 experiments show that knowing it
    /// helps the adversary link queries, which is why "this information should be kept
    /// secret").
    #[serde(skip)]
    genuine_terms: usize,
}

impl QueryIndex {
    /// The query bits that travel to the server.
    pub fn bits(&self) -> &BitIndex {
        &self.bits
    }

    /// The number of genuine search terms (client-side bookkeeping; not transmitted).
    pub fn genuine_terms(&self) -> usize {
        self.genuine_terms
    }

    /// Build a query index directly from raw bits (used when deserializing on the server).
    pub fn from_bits(bits: BitIndex) -> Self {
        QueryIndex {
            bits,
            genuine_terms: 0,
        }
    }
}

/// Builder for query indices.
///
/// ```
/// use mkse_core::{SystemParams, SchemeKeys, QueryBuilder};
/// use rand::SeedableRng;
///
/// let params = SystemParams::default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let keys = SchemeKeys::generate(&params, &mut rng);
/// let trapdoors = keys.trapdoors_for(&params, &["cloud", "privacy"]);
/// let pool = keys.random_pool_trapdoors(&params);
///
/// let query = QueryBuilder::new(&params)
///     .add_trapdoors(&trapdoors)
///     .with_randomization(&pool)
///     .build(&mut rng);
/// assert_eq!(query.bits().len(), 448);
/// assert_eq!(query.genuine_terms(), 2);
/// ```
pub struct QueryBuilder<'a> {
    params: &'a SystemParams,
    trapdoors: Vec<Trapdoor>,
    random_pool: Option<&'a [Trapdoor]>,
}

impl<'a> QueryBuilder<'a> {
    /// Start building a query under the given system parameters.
    pub fn new(params: &'a SystemParams) -> Self {
        QueryBuilder {
            params,
            trapdoors: Vec::new(),
            random_pool: None,
        }
    }

    /// Add one genuine search-term trapdoor.
    pub fn add_trapdoor(mut self, trapdoor: &Trapdoor) -> Self {
        self.trapdoors.push(trapdoor.clone());
        self
    }

    /// Add several genuine search-term trapdoors.
    pub fn add_trapdoors(mut self, trapdoors: &[Trapdoor]) -> Self {
        self.trapdoors.extend_from_slice(trapdoors);
        self
    }

    /// Enable query randomization with the data owner's fake-keyword trapdoor pool; `V` of
    /// them (from [`SystemParams::query_random_keywords`]) are chosen at build time.
    pub fn with_randomization(mut self, pool: &'a [Trapdoor]) -> Self {
        self.random_pool = Some(pool);
        self
    }

    /// Build the query index. `rng` drives the random `V`-subset selection; it is unused when
    /// randomization is disabled.
    ///
    /// Panics if no genuine trapdoor was added (an empty query would match every document and
    /// is never meaningful) or if the randomization pool is smaller than `V`.
    pub fn build<R: Rng + ?Sized>(self, rng: &mut R) -> QueryIndex {
        assert!(
            !self.trapdoors.is_empty(),
            "a query needs at least one search term"
        );
        let mut bits = BitIndex::all_ones(self.params.index_bits);
        for td in &self.trapdoors {
            bits.bitwise_product_assign(td.index());
        }
        if let Some(pool) = self.random_pool {
            let v = self.params.query_random_keywords;
            assert!(
                pool.len() >= v,
                "randomization pool has {} trapdoors, V = {v} required",
                pool.len()
            );
            if v > 0 {
                for idx in rand::seq::index::sample(rng, pool.len(), v).into_iter() {
                    bits.bitwise_product_assign(pool[idx].index());
                }
            }
        }
        QueryIndex {
            bits,
            genuine_terms: self.trapdoors.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SchemeKeys;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SystemParams, SchemeKeys, StdRng) {
        let params = SystemParams::default();
        let mut rng = StdRng::seed_from_u64(11);
        let keys = SchemeKeys::generate(&params, &mut rng);
        (params, keys, rng)
    }

    #[test]
    fn unrandomized_query_is_product_of_trapdoors() {
        let (params, keys, mut rng) = setup();
        let tds = keys.trapdoors_for(&params, &["alpha", "beta"]);
        let q = QueryBuilder::new(&params)
            .add_trapdoors(&tds)
            .build(&mut rng);
        let expected = tds[0].index().bitwise_product(tds[1].index());
        assert_eq!(q.bits(), &expected);
        assert_eq!(q.genuine_terms(), 2);
        assert_eq!(q.bits().serialized_bits(), 448);
    }

    #[test]
    fn add_trapdoor_individually_matches_bulk_add() {
        let (params, keys, mut rng) = setup();
        let tds = keys.trapdoors_for(&params, &["alpha", "beta"]);
        let q1 = QueryBuilder::new(&params)
            .add_trapdoor(&tds[0])
            .add_trapdoor(&tds[1])
            .build(&mut rng);
        let q2 = QueryBuilder::new(&params)
            .add_trapdoors(&tds)
            .build(&mut rng);
        assert_eq!(q1.bits(), q2.bits());
    }

    #[test]
    fn randomized_queries_for_same_terms_differ() {
        // The §6 goal: identical search terms produce different query indices.
        let (params, keys, mut rng) = setup();
        let tds = keys.trapdoors_for(&params, &["cloud"]);
        let pool = keys.random_pool_trapdoors(&params);
        let q1 = QueryBuilder::new(&params)
            .add_trapdoors(&tds)
            .with_randomization(&pool)
            .build(&mut rng);
        let q2 = QueryBuilder::new(&params)
            .add_trapdoors(&tds)
            .with_randomization(&pool)
            .build(&mut rng);
        assert_ne!(q1.bits(), q2.bits());
        assert_eq!(q1.genuine_terms(), 1);
    }

    #[test]
    fn randomized_query_has_more_zeros_than_unrandomized() {
        let (params, keys, mut rng) = setup();
        let tds = keys.trapdoors_for(&params, &["cloud"]);
        let pool = keys.random_pool_trapdoors(&params);
        let plain = QueryBuilder::new(&params)
            .add_trapdoors(&tds)
            .build(&mut rng);
        let randomized = QueryBuilder::new(&params)
            .add_trapdoors(&tds)
            .with_randomization(&pool)
            .build(&mut rng);
        assert!(randomized.bits().count_zeros() > plain.bits().count_zeros());
    }

    #[test]
    fn number_of_terms_does_not_change_size_on_wire() {
        // Table 1: the user transmits r bits "independent from γ".
        let (params, keys, mut rng) = setup();
        let q1 = QueryBuilder::new(&params)
            .add_trapdoors(&keys.trapdoors_for(&params, &["one"]))
            .build(&mut rng);
        let q5 = QueryBuilder::new(&params)
            .add_trapdoors(&keys.trapdoors_for(&params, &["a", "b", "c", "d", "e"]))
            .build(&mut rng);
        assert_eq!(q1.bits().serialized_bits(), q5.bits().serialized_bits());
    }

    #[test]
    #[should_panic(expected = "at least one search term")]
    fn empty_query_panics() {
        let (params, _, mut rng) = setup();
        let _ = QueryBuilder::new(&params).build(&mut rng);
    }

    #[test]
    #[should_panic(expected = "randomization pool")]
    fn undersized_pool_panics() {
        let (params, keys, mut rng) = setup();
        let tds = keys.trapdoors_for(&params, &["kw"]);
        let small_pool = keys.random_pool_trapdoors(&params)[..10].to_vec();
        let _ = QueryBuilder::new(&params)
            .add_trapdoors(&tds)
            .with_randomization(&small_pool)
            .build(&mut rng);
    }

    #[test]
    fn num_terms_reports_builder_state() {
        let (params, keys, mut rng) = setup();
        let tds = keys.trapdoors_for(&params, &["x", "y", "z"]);
        let builder = QueryBuilder::new(&params).add_trapdoors(&tds);
        assert_eq!(builder.build(&mut rng).genuine_terms(), 3);
    }

    #[test]
    fn from_bits_round_trip() {
        let (params, keys, mut rng) = setup();
        let q = QueryBuilder::new(&params)
            .add_trapdoors(&keys.trapdoors_for(&params, &["kw"]))
            .build(&mut rng);
        let server_side = QueryIndex::from_bits(q.bits().clone());
        assert_eq!(server_side.bits(), q.bits());
        assert_eq!(server_side.genuine_terms(), 0); // not transmitted
    }
}
