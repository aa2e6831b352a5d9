//! Keyword index generation (§4.1).
//!
//! Each keyword `w` is mapped, under a secret bin key, to an `l = r·d`-bit PRF output
//! `x = HMAC_k(w)`, viewed as `r` digits of `d` bits each. Digit `j` collapses to index bit
//! `j` by Eq. (1): the bit is 0 iff the digit is all-zero (probability `2^-d` per digit),
//! 1 otherwise. The result is the keyword's `r`-bit index `I_w`, which doubles as the
//! keyword's *trapdoor* (footnote 3 of the paper).
//!
//! The PRF output is read most-significant bit first: bit `i` is bit `7 − i % 8` of byte
//! `i / 8`. [`keyword_index_with_prf`] applies Eq. (1) to those bytes directly; the tests hold
//! it to `reduce_digits`, the same reduction over one `bool` per bit.

use crate::bitindex::BitIndex;
use crate::params::SystemParams;
use mkse_crypto::prf::LongPrf;

/// Compute the keyword index `I_w` for `keyword` under the secret `bin_key` (Eq. 1).
///
/// The data owner calls this during index generation; an authorized user calls it after
/// receiving the bin key to build trapdoors locally (§4.2).
pub fn keyword_index(params: &SystemParams, bin_key: &[u8], keyword: &str) -> BitIndex {
    let prf = LongPrf::new(bin_key);
    keyword_index_with_prf(params, &prf, keyword)
}

/// Same as [`keyword_index`] but reuses an already-keyed PRF: indexing many keywords under
/// one bin key computes the bin's HMAC key schedules once instead of once per keyword.
pub fn keyword_index_with_prf(params: &SystemParams, prf: &LongPrf, keyword: &str) -> BitIndex {
    let bytes = prf.evaluate(keyword.as_bytes(), params.prf_output_bytes());
    reduce_digit_bytes(params, &bytes)
}

/// Eq. (1) over the PRF's bytes: bit `j` of the index is 0 iff digit `j` (bits
/// `j·d .. (j+1)·d`, most-significant bit of each byte first) is all-zero. Equal to
/// the tests' bit-wise `reduce_digits` over the same bits.
///
/// For `d ≤ 8`, eight digits fill exactly `d` bytes, so each run of eight index bits is
/// one big-endian load of those bytes and one SWAR all-zero test of its eight `d`-bit
/// fields ([`nonzero_fields`]). Any remaining digits — all of them for `d > 8` — are read
/// through a big-endian window: bytes enter at the bottom of a 64-bit accumulator until it
/// holds a whole digit, which is then the top `d` of its unread bits (`d ≤ 32`, so at most
/// 39 bits are ever pending). Each index bit lands in its 64-bit word directly.
fn reduce_digit_bytes(params: &SystemParams, prf_bytes: &[u8]) -> BitIndex {
    let r = params.index_bits;
    let d = params.digit_bits;
    assert!(
        (1..=32).contains(&d),
        "digit_bits must be 1..=32 (see SystemParams::validate), got {d}"
    );
    assert!(
        prf_bytes.len() * 8 >= r * d,
        "PRF output too short: {} bits for r*d = {}",
        prf_bytes.len() * 8,
        r * d
    );
    let mut blocks = vec![0u64; r.div_ceil(64)];
    // Runs of eight digits, d bytes each: run g is index bits 8g..8g+8, which
    // share one word.
    let runs = if d <= 8 { r / 8 } else { 0 };
    if runs > 0 {
        let fields = FieldMasks::new(d);
        for g in 0..runs {
            // The run's d bytes at the bottom of a big-endian word: one 8-byte
            // load shifted down where 8 bytes remain, a padded copy where not.
            let word = match prf_bytes.get(g * d..g * d + 8) {
                Some(eight) => {
                    u64::from_be_bytes(eight.try_into().expect("8 bytes")) >> (64 - 8 * d)
                }
                None => {
                    let mut word = [0u8; 8];
                    word[8 - d..].copy_from_slice(&prf_bytes[g * d..][..d]);
                    u64::from_be_bytes(word)
                }
            };
            blocks[g / 8] |= u64::from(fields.nonzero(word)) << (8 * (g % 8));
        }
    }
    let digit_mask = (1u64 << d) - 1;
    let mut window = 0u64;
    let mut pending = 0;
    let mut next = prf_bytes[runs * d..].iter();
    for j in runs * 8..r {
        while pending < d {
            window = (window << 8) | u64::from(*next.next().expect("length checked above"));
            pending += 8;
        }
        pending -= d;
        let digit = (window >> pending) & digit_mask;
        blocks[j / 64] |= u64::from(digit != 0) << (j % 64);
    }
    BitIndex::from_blocks(blocks, r)
}

/// The masks of eight `d`-bit fields packed at the bottom of a word (`d ≤ 8`).
struct FieldMasks {
    d: usize,
    /// The top bit of every field.
    high: u64,
    /// The `d − 1` low bits of every field.
    low: u64,
}

impl FieldMasks {
    fn new(d: usize) -> Self {
        let ones = (0..8).fold(0u64, |acc, f| acc | 1 << (f * d));
        let high = ones << (d - 1);
        FieldMasks {
            d,
            high,
            low: high.wrapping_sub(ones),
        }
    }

    /// Which of the eight fields of `word` are nonzero, the field holding the
    /// first digit (the top one) as bit 0. Adding `low` to a field's low bits
    /// carries into its top bit exactly when they are not all zero, and never
    /// out of the field; OR-ing the field's own top bit finishes the test.
    fn nonzero(&self, word: u64) -> u8 {
        let tops = (((word & self.low) + self.low) | word) & self.high;
        if tops == self.high {
            return u8::MAX;
        }
        (0..8).fold(0, |bits, k| {
            bits | (((tops >> ((7 - k) * self.d + self.d - 1)) & 1) as u8) << k
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The GF(2^d) → GF(2) reduction of Eq. (1) over one `bool` per PRF output bit: bit `j` of
    /// the index is 0 iff digit `j` (bits `j·d .. (j+1)·d` of the PRF output) is all-zero.
    ///
    /// The reference the tests hold the keyword path's byte-wise reduction to.
    fn reduce_digits(params: &SystemParams, prf_bits: &[bool]) -> BitIndex {
        let r = params.index_bits;
        let d = params.digit_bits;
        assert!(
            prf_bits.len() >= r * d,
            "PRF output too short: {} bits for r*d = {}",
            prf_bits.len(),
            r * d
        );
        let mut idx = BitIndex::all_zeros(r);
        for j in 0..r {
            let digit = &prf_bits[j * d..(j + 1) * d];
            if digit.iter().any(|&b| b) {
                idx.set(j, true);
            }
        }
        idx
    }

    /// The PRF's bytes as one `bool` per bit, most-significant bit of each byte first.
    fn msb_first_bits(bytes: &[u8]) -> Vec<bool> {
        (0..bytes.len() * 8)
            .map(|i| (bytes[i / 8] >> (7 - i % 8)) & 1 == 1)
            .collect()
    }

    fn params() -> SystemParams {
        SystemParams::default()
    }

    #[test]
    fn index_has_r_bits() {
        let idx = keyword_index(&params(), b"bin-key", "network");
        assert_eq!(idx.len(), 448);
    }

    #[test]
    fn deterministic_for_same_key_and_keyword() {
        let p = params();
        assert_eq!(
            keyword_index(&p, b"key", "cloud"),
            keyword_index(&p, b"key", "cloud")
        );
    }

    #[test]
    fn different_keywords_give_different_indices() {
        let p = params();
        assert_ne!(
            keyword_index(&p, b"key", "cloud"),
            keyword_index(&p, b"key", "server")
        );
    }

    #[test]
    fn different_keys_give_different_indices() {
        // This is what makes the scheme trapdoor-based: without the bin key the index cannot
        // be reproduced (contrast with the Wang et al. shared-hash baseline).
        let p = params();
        assert_ne!(
            keyword_index(&p, b"key-1", "cloud"),
            keyword_index(&p, b"key-2", "cloud")
        );
    }

    #[test]
    fn zero_fraction_is_roughly_one_over_2d() {
        // Each bit is 0 with probability 2^-d = 1/64, so a keyword index should have about
        // r/64 = 7 zero bits. Averaged over many keywords this must be close to 7.
        let p = params();
        let total_zeros: usize = (0..200)
            .map(|i| keyword_index(&p, b"bin", &format!("word{i}")).count_zeros())
            .sum();
        let avg = total_zeros as f64 / 200.0;
        assert!((avg - 7.0).abs() < 1.5, "average zeros = {avg}");
    }

    #[test]
    fn reduce_digits_known_pattern() {
        let p = SystemParams::new(4, 2, 1, 0, 0, vec![1]).unwrap();
        // Digits: 00 | 01 | 10 | 11 → bits 0,1,1,1
        let bits = [false, false, false, true, true, false, true, true];
        let idx = reduce_digits(&p, &bits);
        assert!(!idx.get(0));
        assert!(idx.get(1));
        assert!(idx.get(2));
        assert!(idx.get(3));
    }

    #[test]
    #[should_panic(expected = "PRF output too short")]
    fn reduce_digits_rejects_short_input() {
        let p = SystemParams::new(4, 2, 1, 0, 0, vec![1]).unwrap();
        let _ = reduce_digits(&p, &[false; 7]);
    }

    #[test]
    fn reduce_digit_bytes_known_pattern() {
        // The same digits as `reduce_digits_known_pattern`, 00 | 01 | 10 | 11, in one byte.
        let p = SystemParams::new(4, 2, 1, 0, 0, vec![1]).unwrap();
        let idx = reduce_digit_bytes(&p, &[0b0001_1011]);
        assert_eq!(idx, reduce_digits(&p, &msb_first_bits(&[0b0001_1011])));
        assert_eq!(idx.as_blocks(), &[0b1110]);
    }

    #[test]
    #[should_panic(expected = "PRF output too short")]
    fn reduce_digit_bytes_rejects_short_input() {
        let p = SystemParams::new(3, 3, 1, 0, 0, vec![1]).unwrap();
        let _ = reduce_digit_bytes(&p, &[0xff]);
    }

    #[test]
    fn prf_reuse_matches_fresh_computation() {
        let p = params();
        let prf = LongPrf::new(b"bin-key-42");
        assert_eq!(
            keyword_index_with_prf(&p, &prf, "privacy"),
            keyword_index(&p, b"bin-key-42", "privacy")
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_byte_reduction_equals_the_bool_reference(
            r in 1usize..=512,
            d in 1usize..=32,
            sparsity in 0u32..4,
            extra in 0usize..3,
            seed in any::<u64>(),
        ) {
            // Ragged r, digits that straddle bytes, and (through `sparsity`, which ANDs
            // further random bytes in) outputs dense enough in all-zero digits that both
            // outcomes of Eq. (1) are common even at d = 8. `extra` trailing bytes are ignored.
            let p = SystemParams::new(r, d, 1, 0, 0, vec![1]).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes: Vec<u8> = (0..(r * d).div_ceil(8) + extra)
                .map(|_| (0..sparsity).fold(rng.gen::<u8>(), |b, _| b & rng.gen::<u8>()))
                .collect();
            prop_assert_eq!(
                reduce_digit_bytes(&p, &bytes),
                reduce_digits(&p, &msb_first_bits(&bytes))
            );
        }
    }

    #[test]
    fn swar_runs_equal_the_bool_reference_for_every_small_digit() {
        // Every d the eight-digit runs handle, with r leaving no tail, a tail of
        // every length, and random bytes from dense to mostly zero digits.
        let mut rng = StdRng::seed_from_u64(8);
        for d in 1..=8 {
            for r in [1, 7, 8, 9, 63, 64, 65, 448, 455] {
                let p = SystemParams::new(r, d, 1, 0, 0, vec![1]).unwrap();
                for sparsity in 0..4 {
                    let bytes: Vec<u8> = (0..(r * d).div_ceil(8))
                        .map(|_| (0..sparsity).fold(rng.gen::<u8>(), |b, _| b & rng.gen::<u8>()))
                        .collect();
                    assert_eq!(
                        reduce_digit_bytes(&p, &bytes),
                        reduce_digits(&p, &msb_first_bits(&bytes)),
                        "d={d} r={r} sparsity={sparsity}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_all_zero_digits_iff_zero_bit(seed in 0u64..1000) {
            // Explicitly check Eq. (1) on small random parameters.
            let p = SystemParams::new(32, 3, 1, 0, 0, vec![1]).unwrap();
            let keyword = format!("kw{seed}");
            let prf = LongPrf::new(b"k");
            let bits = msb_first_bits(&prf.evaluate(keyword.as_bytes(), p.prf_output_bytes()));
            let idx = keyword_index_with_prf(&p, &prf, &keyword);
            prop_assert_eq!(&idx, &reduce_digits(&p, &bits));
            for j in 0..p.index_bits {
                let digit_is_zero = bits[j * 3..(j + 1) * 3].iter().all(|b| !b);
                prop_assert_eq!(idx.get(j), !digit_is_zero);
            }
        }
    }
}
