//! Long-output PRF used for keyword-index generation.
//!
//! §4.1 of the paper needs `HMAC : {0,1}* → {0,1}^l` with `l = r·d` bits (2688 bits / 336
//! bytes for the reference parameters `r = 448`, `d = 6`). The authors obtain it "by
//! concatenating different SHA2-based HMAC functions". [`LongPrf`] reproduces that idea as a
//! counter-mode expansion that alternates HMAC-SHA-256 and HMAC-SHA-512 blocks, which keeps the
//! construction a PRF (each block is an independent HMAC invocation over a domain-separated
//! input) while producing any requested output length.
//!
//! A [`LongPrf`] is keyed once: it holds one keyed [`HmacSha512`] and one keyed
//! [`HmacSha256`], each two hash midstates (see [`crate::hmac`]), and every output block clones
//! one of them. The 336-byte output then costs 14 compressions for a short input instead of 28.
//! Like the key bytes beside them, the midstates are **key material**, so `LongPrf` implements
//! no `Debug`.

use crate::hmac::{HmacSha256, HmacSha512};
use crate::sha512;

/// A deterministic, keyed pseudo-random function with arbitrary output length.
///
/// ```
/// use mkse_crypto::prf::LongPrf;
/// let prf = LongPrf::new(b"bin key 3");
/// let a = prf.evaluate(b"cloud", 336);
/// let b = prf.evaluate(b"cloud", 336);
/// let c = prf.evaluate(b"privacy", 336);
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
#[derive(Clone)]
pub struct LongPrf {
    key: Vec<u8>,
    sha512: HmacSha512,
    sha256: HmacSha256,
}

impl LongPrf {
    /// Create a PRF instance keyed with `key` (four compressions: both HMAC key schedules).
    pub fn new(key: &[u8]) -> Self {
        LongPrf {
            key: key.to_vec(),
            sha512: HmacSha512::new(key),
            sha256: HmacSha256::new(key),
        }
    }

    /// The key this PRF was constructed with.
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// Evaluate the PRF on `input`, producing exactly `out_len` bytes.
    ///
    /// Output blocks alternate between HMAC-SHA-512 and HMAC-SHA-256 of
    /// `counter || input`, mirroring the paper's "concatenation of different SHA2-based
    /// HMACs". The counter provides domain separation between blocks.
    pub fn evaluate(&self, input: &[u8], out_len: usize) -> Vec<u8> {
        // Room for the last block's whole tag, which is then truncated.
        let mut out = Vec::with_capacity(out_len + sha512::DIGEST_LEN);
        let mut counter: u32 = 0;
        while out.len() < out_len {
            if counter.is_multiple_of(2) {
                let mut mac = self.sha512.clone();
                mac.update(&counter.to_be_bytes());
                mac.update(input);
                out.extend_from_slice(&mac.finalize());
            } else {
                let mut mac = self.sha256.clone();
                mac.update(&counter.to_be_bytes());
                mac.update(input);
                out.extend_from_slice(&mac.finalize());
            }
            counter += 1;
        }
        out.truncate(out_len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The construction spelled out: a fresh one-shot MAC per block over a `counter || input`
    /// message, concatenated and truncated.
    fn naive_evaluate(key: &[u8], input: &[u8], out_len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut counter = 0u32;
        while out.len() < out_len {
            let mut msg = counter.to_be_bytes().to_vec();
            msg.extend_from_slice(input);
            if counter.is_multiple_of(2) {
                out.extend_from_slice(&HmacSha512::mac(key, &msg));
            } else {
                out.extend_from_slice(&HmacSha256::mac(key, &msg));
            }
            counter += 1;
        }
        out.truncate(out_len);
        out
    }

    #[test]
    fn output_has_requested_length() {
        let prf = LongPrf::new(b"k");
        for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 96, 336, 1000] {
            assert_eq!(prf.evaluate(b"x", len).len(), len, "len {len}");
        }
    }

    #[test]
    fn deterministic_per_key_and_input() {
        let prf = LongPrf::new(b"key");
        assert_eq!(prf.evaluate(b"alpha", 100), prf.evaluate(b"alpha", 100));
    }

    #[test]
    fn different_inputs_differ() {
        let prf = LongPrf::new(b"key");
        assert_ne!(prf.evaluate(b"alpha", 64), prf.evaluate(b"beta", 64));
    }

    #[test]
    fn different_keys_differ() {
        let a = LongPrf::new(b"key-a").evaluate(b"alpha", 64);
        let b = LongPrf::new(b"key-b").evaluate(b"alpha", 64);
        assert_ne!(a, b);
    }

    #[test]
    fn prefix_property() {
        // Shorter outputs are prefixes of longer ones: the expansion is counter-mode.
        let prf = LongPrf::new(b"key");
        let long = prf.evaluate(b"doc", 336);
        let short = prf.evaluate(b"doc", 100);
        assert_eq!(&long[..100], &short[..]);
    }

    #[test]
    fn paper_parameters_output_is_uniform_looking() {
        // 2688-bit output: roughly half the bits should be set (loose sanity bound).
        let prf = LongPrf::new(b"paper-params");
        let ones: u32 = prf
            .evaluate(b"keyword", 336)
            .iter()
            .map(|b| b.count_ones())
            .sum();
        assert!(ones > 1100 && ones < 1600, "ones = {ones}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_evaluate_equals_the_naive_construction(
            key in proptest::collection::vec(any::<u8>(), 0..200),
            input in proptest::collection::vec(any::<u8>(), 0..300),
            out_len in 0usize..=400,
        ) {
            let prf = LongPrf::new(&key);
            prop_assert_eq!(prf.evaluate(&input, out_len), naive_evaluate(&key, &input, out_len));
            // Every keyed block is a clone: a second evaluation sees the same midstates.
            prop_assert_eq!(prf.evaluate(&input, out_len), naive_evaluate(&key, &input, out_len));
        }
    }
}
