//! The `r`-bit index type underlying every keyword index, document index and query index.
//!
//! §4.1: a keyword index is an `r`-bit string; a document's searchable index is the *bitwise
//! product* (AND) of its keyword indices; §4.3: a query matches a document iff every zero bit
//! of the query is also zero in the document index.

use serde::{Deserialize, Serialize};

/// A fixed-length bit string of `len` bits stored in 64-bit blocks.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitIndex {
    len: usize,
    blocks: Vec<u64>,
}

impl BitIndex {
    /// An index of `len` bits, all set to 1 (the identity of the bitwise product: AND-ing it
    /// with any keyword index leaves the keyword index unchanged).
    pub fn all_ones(len: usize) -> Self {
        assert!(len > 0, "index length must be positive");
        let blocks = len.div_ceil(64);
        let mut idx = BitIndex {
            len,
            blocks: vec![u64::MAX; blocks],
        };
        idx.mask_tail();
        idx
    }

    /// An index of `len` bits, all set to 0.
    pub fn all_zeros(len: usize) -> Self {
        assert!(len > 0, "index length must be positive");
        BitIndex {
            len,
            blocks: vec![0u64; len.div_ceil(64)],
        }
    }

    /// Build from a boolean slice (bit `i` of the index = `bits[i]`).
    ///
    /// Assembles each 64-bit block directly instead of issuing one `set()` per
    /// bit; the tail block is built from fewer than 64 bits and therefore
    /// satisfies the masked-tail invariant by construction.
    pub fn from_bits(bits: &[bool]) -> Self {
        assert!(!bits.is_empty(), "index length must be positive");
        let blocks = bits
            .chunks(64)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |block, (i, &b)| block | ((b as u64) << i))
            })
            .collect();
        BitIndex {
            len: bits.len(),
            blocks,
        }
    }

    /// The raw 64-bit blocks backing the index, little-endian bit order within a
    /// block. Bits beyond [`BitIndex::len`] in the last block are guaranteed zero
    /// (the masked-tail invariant) — the scan plane relies on this to compare
    /// whole blocks without re-masking documents.
    pub fn as_blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Rebuild an index from raw blocks produced by [`BitIndex::as_blocks`] (or
    /// any block source) and the bit length. Stray bits beyond `len` in the last
    /// block are masked off, re-establishing the tail invariant.
    pub fn from_blocks(blocks: Vec<u64>, len: usize) -> Self {
        assert!(len > 0, "index length must be positive");
        assert_eq!(blocks.len(), len.div_ceil(64), "block count mismatch");
        let mut idx = BitIndex { len, blocks };
        idx.mask_tail();
        idx
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the index has length zero (never constructible; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        (self.blocks[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        if value {
            self.blocks[i / 64] |= 1 << (i % 64);
        } else {
            self.blocks[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Bitwise product (AND) with another index of the same length — Eq. (2) of the paper.
    pub fn bitwise_product(&self, other: &BitIndex) -> BitIndex {
        assert_eq!(self.len, other.len, "length mismatch");
        BitIndex {
            len: self.len,
            blocks: self
                .blocks
                .iter()
                .zip(other.blocks.iter())
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// In-place bitwise product.
    pub fn bitwise_product_assign(&mut self, other: &BitIndex) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *a &= b;
        }
    }

    /// The matching predicate of Eq. (3): `self` (a document index) matches `query` iff every
    /// zero bit of `query` is also zero in `self`, i.e. `self AND NOT query == 0`.
    ///
    /// This is the innermost loop of every server-side scan. The explicit loop makes
    /// the block-level short-circuit visible: evaluation stops at the first 64-bit
    /// block that violates the predicate, so on random non-matching indices the
    /// expected number of block comparisons is barely above one.
    pub fn matches_query(&self, query: &BitIndex) -> bool {
        assert_eq!(self.len, query.len, "length mismatch");
        for (doc, q) in self.blocks.iter().zip(query.blocks.iter()) {
            if doc & !q != 0 {
                return false; // block-level early exit
            }
        }
        true
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Number of zero bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Hamming distance to another index of the same length (§6 uses this to quantify query
    /// unlinkability).
    pub fn hamming_distance(&self, other: &BitIndex) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        self.blocks
            .iter()
            .zip(other.blocks.iter())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Serialize to bytes (little-endian blocks, exactly `ceil(len/8)` bytes). Used for
    /// message size accounting: a 448-bit index serializes to 56 bytes, as Table 1 expects.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len.div_ceil(8));
        for block in &self.blocks {
            out.extend_from_slice(&block.to_le_bytes());
        }
        out.truncate(self.len.div_ceil(8));
        out
    }

    /// Deserialize from bytes produced by [`BitIndex::to_bytes`] with the original length.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(len > 0 && bytes.len() == len.div_ceil(8), "length mismatch");
        let mut idx = BitIndex::all_zeros(len);
        for (i, chunk) in bytes.chunks(8).enumerate() {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            idx.blocks[i] = u64::from_le_bytes(buf);
        }
        idx.mask_tail();
        idx
    }

    /// Size of the serialized index in bits (`r`, rounded up to whole bytes for transport).
    pub fn serialized_bits(&self) -> usize {
        self.len.div_ceil(8) * 8
    }

    /// Clear any bits beyond `len` in the last block.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            let mask = (1u64 << tail) - 1;
            if let Some(last) = self.blocks.last_mut() {
                *last &= mask;
            }
        }
    }
}

impl std::fmt::Debug for BitIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BitIndex({} bits, {} zeros)",
            self.len,
            self.count_zeros()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_ones_and_all_zeros() {
        let ones = BitIndex::all_ones(448);
        assert_eq!(ones.len(), 448);
        assert_eq!(ones.count_ones(), 448);
        assert_eq!(ones.count_zeros(), 0);
        let zeros = BitIndex::all_zeros(448);
        assert_eq!(zeros.count_zeros(), 448);
        assert!(!ones.is_empty());
    }

    #[test]
    fn tail_bits_are_masked() {
        // 70 bits: the second block has only 6 valid bits.
        let ones = BitIndex::all_ones(70);
        assert_eq!(ones.count_ones(), 70);
        let round = BitIndex::from_bytes(&ones.to_bytes(), 70);
        assert_eq!(round.count_ones(), 70);
    }

    #[test]
    fn get_set_round_trip() {
        let mut idx = BitIndex::all_zeros(100);
        idx.set(0, true);
        idx.set(63, true);
        idx.set(64, true);
        idx.set(99, true);
        assert!(idx.get(0) && idx.get(63) && idx.get(64) && idx.get(99));
        assert!(!idx.get(1));
        assert_eq!(idx.count_ones(), 4);
        idx.set(63, false);
        assert!(!idx.get(63));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let idx = BitIndex::all_zeros(10);
        let _ = idx.get(10);
    }

    /// For every length that is not a multiple of 64, the bits beyond `len` in the
    /// last block must stay zero — `count_ones`, `common_zeros` and serialization
    /// all rely on it.
    fn assert_tail_is_masked(idx: &BitIndex) {
        let tail = idx.len() % 64;
        if tail != 0 {
            let last = *idx.blocks.last().unwrap();
            assert_eq!(last >> tail, 0, "tail bits set beyond len {}", idx.len());
        }
    }

    #[test]
    fn non_multiple_of_64_lengths_keep_tail_invariants() {
        for len in [1usize, 63, 64, 65, 127, 129, 448, 449] {
            let ones = BitIndex::all_ones(len);
            assert_eq!(ones.count_ones(), len, "all_ones({len})");
            assert_tail_is_masked(&ones);

            let from_bits = BitIndex::from_bits(&vec![true; len]);
            assert_eq!(from_bits, ones, "from_bits({len})");
            assert_tail_is_masked(&from_bits);

            // Setting the last valid bit must not touch the tail.
            let mut idx = BitIndex::all_zeros(len);
            idx.set(len - 1, true);
            assert_tail_is_masked(&idx);
            assert_eq!(idx.count_ones(), 1);
            idx.set(len - 1, false);
            assert_eq!(idx.count_ones(), 0);

            // Byte round-trips preserve the masked tail.
            let round = BitIndex::from_bytes(&ones.to_bytes(), len);
            assert_eq!(round, ones);
            assert_tail_is_masked(&round);

            // count_zeros and the distance must not count phantom tail positions.
            let zeros = BitIndex::all_zeros(len);
            assert_eq!(zeros.count_zeros(), len);
            assert_eq!(ones.hamming_distance(&zeros), len);
        }
    }

    #[test]
    fn block_accessors_round_trip_and_keep_tail_invariants() {
        for len in [1usize, 63, 64, 65, 127, 129, 448, 449] {
            let ones = BitIndex::all_ones(len);
            assert_eq!(ones.as_blocks().len(), len.div_ceil(64));
            // as_blocks → from_blocks is the identity.
            let round = BitIndex::from_blocks(ones.as_blocks().to_vec(), len);
            assert_eq!(round, ones, "round trip at len {len}");
            assert_tail_is_masked(&round);
            // from_blocks must mask stray tail bits (e.g. blocks sourced from a
            // raw arena or an adversarial buffer).
            let dirty = vec![u64::MAX; len.div_ceil(64)];
            let cleaned = BitIndex::from_blocks(dirty, len);
            assert_eq!(cleaned, ones, "stray tail bits masked at len {len}");
            assert_tail_is_masked(&cleaned);
            assert_eq!(cleaned.count_ones(), len);
        }
    }

    #[test]
    #[should_panic(expected = "block count mismatch")]
    fn from_blocks_wrong_block_count_panics() {
        let _ = BitIndex::from_blocks(vec![0u64; 1], 70); // 70 bits need 2 blocks
    }

    #[test]
    fn from_bits_builds_blocks_directly() {
        // A pattern spanning a block boundary with a non-multiple-of-64 tail.
        let mut bits = vec![false; 70];
        for i in [0usize, 1, 63, 64, 69] {
            bits[i] = true;
        }
        let idx = BitIndex::from_bits(&bits);
        assert_eq!(idx.len(), 70);
        assert_eq!(idx.count_ones(), 5);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(idx.get(i), b, "bit {i}");
        }
        assert_tail_is_masked(&idx);
        assert_eq!(idx.as_blocks()[0], (1 << 0) | (1 << 1) | (1 << 63));
        assert_eq!(idx.as_blocks()[1], (1 << 0) | (1 << 5));
    }

    #[test]
    fn from_bytes_masks_stray_tail_bits() {
        // A corrupt (or adversarial) byte buffer with bits beyond `len` set must be
        // normalized on load, or equality and zero-counts would diverge.
        let bytes = vec![0xffu8; 9]; // 72 bits of ones
        let idx = BitIndex::from_bytes(&bytes, 70);
        assert_eq!(idx.count_ones(), 70);
        assert_eq!(idx, BitIndex::all_ones(70));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bitwise_product_length_mismatch_panics() {
        let a = BitIndex::all_ones(64);
        let b = BitIndex::all_ones(65);
        let _ = a.bitwise_product(&b);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bitwise_product_assign_length_mismatch_panics() {
        let mut a = BitIndex::all_ones(448);
        let b = BitIndex::all_ones(447);
        a.bitwise_product_assign(&b);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn matches_query_length_mismatch_panics() {
        let doc = BitIndex::all_ones(128);
        let query = BitIndex::all_ones(64);
        let _ = doc.matches_query(&query);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_bytes_wrong_buffer_size_panics() {
        let _ = BitIndex::from_bytes(&[0u8; 8], 70); // 70 bits need 9 bytes
    }

    #[test]
    fn bitwise_product_is_and() {
        let a = BitIndex::from_bits(&[true, true, false, false]);
        let b = BitIndex::from_bits(&[true, false, true, false]);
        let p = a.bitwise_product(&b);
        assert_eq!(
            (0..4).map(|i| p.get(i)).collect::<Vec<_>>(),
            vec![true, false, false, false]
        );
        let mut c = a.clone();
        c.bitwise_product_assign(&b);
        assert_eq!(c, p);
    }

    #[test]
    fn matching_predicate_follows_eq3() {
        // Query zeros must be a subset of document zeros.
        let doc = BitIndex::from_bits(&[false, false, true, true]);
        let query_subset = BitIndex::from_bits(&[false, true, true, true]);
        let query_equal = BitIndex::from_bits(&[false, false, true, true]);
        let query_extra_zero = BitIndex::from_bits(&[false, false, false, true]);
        assert!(doc.matches_query(&query_subset));
        assert!(doc.matches_query(&query_equal));
        assert!(!doc.matches_query(&query_extra_zero));
        // The all-ones query matches everything.
        assert!(doc.matches_query(&BitIndex::all_ones(4)));
        // The all-zeros query only matches the all-zeros document.
        assert!(!doc.matches_query(&BitIndex::all_zeros(4)));
        assert!(BitIndex::all_zeros(4).matches_query(&BitIndex::all_zeros(4)));
    }

    #[test]
    fn hamming_distance_and_common_zeros() {
        let a = BitIndex::from_bits(&[true, false, true, false]);
        let b = BitIndex::from_bits(&[true, true, false, false]);
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
        // §6's common zeros C follow from the zeros and the distance:
        // H(a, b) = z(a) + z(b) − 2C.
        let common = |x: &BitIndex, y: &BitIndex| {
            (x.count_zeros() + y.count_zeros() - x.hamming_distance(y)) / 2
        };
        assert_eq!(common(&a, &b), 1);
        assert_eq!(common(&a, &a), 2);
    }

    #[test]
    fn serialization_sizes_match_table1() {
        // The paper's r = 448-bit index is 56 bytes on the wire.
        let idx = BitIndex::all_ones(448);
        assert_eq!(idx.to_bytes().len(), 56);
        assert_eq!(idx.serialized_bits(), 448);
    }

    #[test]
    fn debug_format_mentions_zero_count() {
        let idx = BitIndex::all_zeros(16);
        assert!(format!("{idx:?}").contains("16 zeros"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_product_commutative_associative_idempotent(
            a in proptest::collection::vec(any::<bool>(), 96),
            b in proptest::collection::vec(any::<bool>(), 96),
            c in proptest::collection::vec(any::<bool>(), 96),
        ) {
            let x = BitIndex::from_bits(&a);
            let y = BitIndex::from_bits(&b);
            let z = BitIndex::from_bits(&c);
            prop_assert_eq!(x.bitwise_product(&y), y.bitwise_product(&x));
            prop_assert_eq!(
                x.bitwise_product(&y).bitwise_product(&z),
                x.bitwise_product(&y.bitwise_product(&z))
            );
            prop_assert_eq!(x.bitwise_product(&x), x.clone());
            prop_assert_eq!(x.bitwise_product(&BitIndex::all_ones(96)), x);
        }

        #[test]
        fn prop_product_matches_both_factors(
            a in proptest::collection::vec(any::<bool>(), 80),
            b in proptest::collection::vec(any::<bool>(), 80),
        ) {
            // A document whose index is the AND of two keyword indices matches each keyword's
            // single-keyword query — the core soundness property of the scheme.
            let ka = BitIndex::from_bits(&a);
            let kb = BitIndex::from_bits(&b);
            let doc = ka.bitwise_product(&kb);
            prop_assert!(doc.matches_query(&ka));
            prop_assert!(doc.matches_query(&kb));
            prop_assert!(doc.matches_query(&ka.bitwise_product(&kb)));
        }

        #[test]
        fn prop_adding_keywords_to_query_only_shrinks_matches(
            doc_bits in proptest::collection::vec(any::<bool>(), 64),
            q1_bits in proptest::collection::vec(any::<bool>(), 64),
            q2_bits in proptest::collection::vec(any::<bool>(), 64),
        ) {
            // Conjunction monotonicity: failing one conjunct implies failing the conjunction,
            // so adding keywords to a query can only shrink the match set.
            let doc = BitIndex::from_bits(&doc_bits);
            let q1 = BitIndex::from_bits(&q1_bits);
            let q2 = BitIndex::from_bits(&q2_bits);
            let conj = q1.bitwise_product(&q2);
            if !doc.matches_query(&q1) {
                prop_assert!(!doc.matches_query(&conj));
            }
        }

        #[test]
        fn prop_bytes_round_trip(bits in proptest::collection::vec(any::<bool>(), 1..300)) {
            let idx = BitIndex::from_bits(&bits);
            let round = BitIndex::from_bytes(&idx.to_bytes(), bits.len());
            prop_assert_eq!(idx, round);
        }

        #[test]
        fn prop_hamming_distance_is_a_metric(
            a in proptest::collection::vec(any::<bool>(), 64),
            b in proptest::collection::vec(any::<bool>(), 64),
            c in proptest::collection::vec(any::<bool>(), 64),
        ) {
            let x = BitIndex::from_bits(&a);
            let y = BitIndex::from_bits(&b);
            let z = BitIndex::from_bits(&c);
            prop_assert_eq!(x.hamming_distance(&y), y.hamming_distance(&x));
            prop_assert_eq!(x.hamming_distance(&x), 0);
            prop_assert!(x.hamming_distance(&z) <= x.hamming_distance(&y) + y.hamming_distance(&z));
        }
    }
}
