//! HMAC (RFC 2104) over the SHA-2 family.
//!
//! The MKSE scheme derives every keyword index from `HMAC_k(keyword)` where `k` is the secret
//! key of the keyword's bin (§4.1–4.2). [`HmacSha256`] and [`HmacSha512`] are the two
//! instantiations; [`crate::prf::LongPrf`] expands them to the `l`-bit output the scheme needs.
//!
//! ## Keyed once, cloned per message
//!
//! `new` absorbs the `ipad` block into the inner hash and the `opad` block into the outer hash
//! (two compressions), so a keyed instance holds two hash *midstates*. `finalize` completes
//! the inner hash and feeds its digest to the stored outer state; it never compresses a pad
//! block again. A caller that MACs many messages under one key — every keyword of a bin —
//! keys one instance and clones it per message: a short message then costs two compressions
//! instead of four.
//!
//! The midstates are **key material**: anyone holding them can compute the MAC under the key
//! without knowing it. That is why neither type implements `Debug`.

use crate::sha256::{self, Sha256};
use crate::sha512::{self, Sha512};

const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

macro_rules! define_hmac {
    ($name:ident, $hash:ident, $hash_mod:ident, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone)]
        pub struct $name {
            /// The hash after the `key ⊕ ipad` block, plus whatever message was fed since.
            inner: $hash,
            /// The hash after the `key ⊕ opad` block, waiting for the inner digest.
            outer: $hash,
        }

        impl $name {
            /// Create a MAC instance keyed with `key` (any length; longer keys are hashed
            /// first, as required by RFC 2104).
            pub fn new(key: &[u8]) -> Self {
                let mut block_key = [0u8; $hash_mod::BLOCK_LEN];
                if key.len() > $hash_mod::BLOCK_LEN {
                    let digest = $hash::digest(key);
                    block_key[..digest.len()].copy_from_slice(&digest);
                } else {
                    block_key[..key.len()].copy_from_slice(key);
                }
                let mut ipad_key = [0u8; $hash_mod::BLOCK_LEN];
                let mut opad_key = [0u8; $hash_mod::BLOCK_LEN];
                for i in 0..$hash_mod::BLOCK_LEN {
                    ipad_key[i] = block_key[i] ^ IPAD;
                    opad_key[i] = block_key[i] ^ OPAD;
                }
                let mut inner = $hash::new();
                inner.update(&ipad_key);
                let mut outer = $hash::new();
                outer.update(&opad_key);
                $name { inner, outer }
            }

            /// Feed message bytes into the MAC.
            pub fn update(&mut self, data: &[u8]) {
                self.inner.update(data);
            }

            /// Finish and return the authentication tag.
            pub fn finalize(self) -> [u8; $hash_mod::DIGEST_LEN] {
                let inner_digest = self.inner.finalize();
                let mut outer = self.outer;
                outer.update(&inner_digest);
                outer.finalize()
            }

            /// One-shot convenience.
            pub fn mac(key: &[u8], data: &[u8]) -> [u8; $hash_mod::DIGEST_LEN] {
                let mut h = Self::new(key);
                h.update(data);
                h.finalize()
            }

            /// Verify a tag in constant time.
            pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> bool {
                crate::ct_eq(&Self::mac(key, data), tag)
            }
        }
    };
}

define_hmac!(
    HmacSha256,
    Sha256,
    sha256,
    "HMAC-SHA-256 (RFC 2104 / RFC 4231)."
);
define_hmac!(
    HmacSha512,
    Sha512,
    sha512,
    "HMAC-SHA-512 (RFC 2104 / RFC 4231)."
);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            hex(&HmacSha256::mac(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex(&HmacSha512::mac(&key, data)),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let key = b"Jefe";
        let data = b"what do ya want for nothing?";
        assert_eq!(
            hex(&HmacSha256::mac(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        assert_eq!(
            hex(&HmacSha512::mac(key, data)),
            "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea250554\
             9758bf75c05a994a6d034f65f8f0e6fdcaeab1a34d4a6b4b636e070a38bce737"
        );
    }

    // RFC 4231 test case 3: 20-byte 0xaa key, 50 bytes of 0xdd data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&HmacSha256::mac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex(&HmacSha256::mac(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
        assert_eq!(
            hex(&HmacSha512::mac(&key, data)),
            "80b24263c7c1a3ebb71493c1dd7be8b49b46d1f41b4aeec1121b013783f8f352\
             6b56d037e05f2598bd0fd2215d6a1e5295e64f73f63f0aec8b915a985d786598"
        );
    }

    const CASE7_DATA: &[u8] = b"This is a test using a larger than block-size key and a larger \
        than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";

    // RFC 4231 test case 7: key and data both longer than the block size.
    #[test]
    fn rfc4231_case7_long_key_long_data() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&HmacSha256::mac(&key, CASE7_DATA)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
        assert_eq!(
            hex(&HmacSha512::mac(&key, CASE7_DATA)),
            "e37b6a775dc87dbaa4dfa9f96e5e3ffddebd71f8867289865df5a32d20cdc944\
             b6022cac3c4982b10d5eeb55c3e4de15134676fb6de0446065c97440fa8c6a58"
        );
    }

    /// Key once, clone twice, and finish the original last: all three tags equal `mac`.
    fn check_keyed_reuse(key: &[u8], first: &[u8], second: &[u8]) {
        let keyed = HmacSha256::new(key);
        for data in [first, second] {
            let mut h = keyed.clone();
            h.update(data);
            assert_eq!(h.finalize(), HmacSha256::mac(key, data));
        }
        let mut h = keyed;
        h.update(first);
        assert_eq!(h.finalize(), HmacSha256::mac(key, first));

        let keyed = HmacSha512::new(key);
        for data in [first, second] {
            let mut h = keyed.clone();
            h.update(data);
            assert_eq!(h.finalize(), HmacSha512::mac(key, data));
        }
        let mut h = keyed;
        h.update(second);
        assert_eq!(h.finalize(), HmacSha512::mac(key, second));
    }

    #[test]
    fn keyed_clones_reproduce_the_rfc4231_long_key_cases() {
        let key = [0xaau8; 131];
        check_keyed_reuse(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            CASE7_DATA,
        );
        let mut h = HmacSha512::new(&key);
        h.update(CASE7_DATA);
        let cloned = h.clone();
        assert_eq!(cloned.finalize(), h.finalize());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_keyed_clones_equal_one_shot_mac(
            key in proptest::collection::vec(any::<u8>(), 0..300),
            first in proptest::collection::vec(any::<u8>(), 0..300),
            second in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            check_keyed_reuse(&key, &first, &second);
        }
    }

    #[test]
    fn verify_accepts_correct_tag_and_rejects_wrong() {
        let key = b"bin-key-17";
        let tag = HmacSha256::mac(key, b"keyword");
        assert!(HmacSha256::verify(key, b"keyword", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!HmacSha256::verify(key, b"keyword", &bad));
        assert!(!HmacSha256::verify(b"other-key", b"keyword", &tag));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"k";
        let data = b"splitting a message into pieces must not change the MAC";
        let mut h = HmacSha256::new(key);
        for chunk in data.chunks(5) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), HmacSha256::mac(key, data));
    }

    #[test]
    fn different_keys_give_different_macs() {
        let a = HmacSha256::mac(b"key-a", b"payload");
        let b = HmacSha256::mac(b"key-b", b"payload");
        assert_ne!(a, b);
    }
}
