//! # mkse-crypto — cryptographic substrate for the MKSE reproduction
//!
//! The paper (Örencik & Savaş, EDBT/PAIS 2012) relies on four cryptographic building blocks:
//!
//! 1. An HMAC with a long output (`HMAC : {0,1}* → {0,1}^l`, `l = 2688` bits in the paper,
//!    obtained by concatenating SHA-2 based HMAC outputs) used for keyword-index generation
//!    (§4.1). Provided by [`sha256`], [`sha512`], [`hmac`] and [`prf`].
//! 2. A symmetric cipher for encrypting the documents themselves (§3). Provided by [`aes`]
//!    (AES-128 in CTR mode).
//! 3. RSA with *blinding* so a user can have the data owner decrypt a per-document key
//!    without revealing which key it is (§4.4), and RSA signatures for non-impersonation
//!    (§7, Theorem 4). Provided by [`rsa`] on top of the arbitrary-precision arithmetic in
//!    [`bigint`] and the primality machinery in [`prime`].
//! 4. Randomness, taken from the caller through [`rand::Rng`] so every protocol run is
//!    reproducible under a seeded RNG.
//!
//! Everything in this crate is implemented from scratch on top of `std` (plus `rand` for
//! entropy); no external cryptography crates are used. The implementations favour clarity and
//! reviewability over raw speed, but are efficient enough that the paper's timing experiments
//! (tens of thousands of HMAC invocations, a handful of RSA operations per retrieval) run in
//! milliseconds-to-seconds on a laptop.
//!
//! ## Example: the long-output PRF used for keyword indices
//!
//! ```
//! use mkse_crypto::prf::LongPrf;
//!
//! let key = [7u8; 16];
//! let prf = LongPrf::new(&key);
//! let out = prf.evaluate(b"network", 336); // 336 bytes = 2688 bits, as in the paper
//! assert_eq!(out.len(), 336);
//! // Deterministic for the same key and input:
//! assert_eq!(out, prf.evaluate(b"network", 336));
//! ```

#![forbid(unsafe_code)]

pub mod aes;
pub mod bigint;
pub mod hmac;
pub mod prf;
pub mod prime;
pub mod rsa;
pub mod sha256;
pub mod sha512;

pub use aes::{Aes128, AesCtr};
pub use bigint::BigUint;
pub use hmac::{HmacSha256, HmacSha512};
pub use prf::LongPrf;
pub use rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
pub use sha256::Sha256;
pub use sha512::Sha512;

/// Errors produced by the cryptographic substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// The message is too large for the RSA modulus.
    MessageTooLarge,
    /// A modular inverse does not exist (operands not coprime).
    NotInvertible,
    /// Signature verification failed.
    InvalidSignature,
    /// Key material has an unexpected length.
    InvalidKeyLength { expected: usize, actual: usize },
    /// Ciphertext is malformed (e.g. shorter than the nonce).
    MalformedCiphertext,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::MessageTooLarge => write!(f, "message does not fit under the RSA modulus"),
            CryptoError::NotInvertible => write!(f, "modular inverse does not exist"),
            CryptoError::InvalidSignature => write!(f, "signature verification failed"),
            CryptoError::InvalidKeyLength { expected, actual } => {
                write!(
                    f,
                    "invalid key length: expected {expected} bytes, got {actual}"
                )
            }
            CryptoError::MalformedCiphertext => write!(f, "malformed ciphertext"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Constant-time byte-slice equality.
///
/// Used wherever secret-dependent comparisons occur (MAC verification, signature checks) so
/// that the comparison itself does not leak how many leading bytes matched.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_equal_slices() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn ct_eq_unequal_slices() {
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(!ct_eq(b"abc", b""));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CryptoError::InvalidKeyLength {
            expected: 16,
            actual: 3,
        };
        let s = format!("{e}");
        assert!(s.contains("16"));
        assert!(s.contains("3"));
        assert!(!format!("{}", CryptoError::MessageTooLarge).is_empty());
        assert!(!format!("{}", CryptoError::NotInvertible).is_empty());
        assert!(!format!("{}", CryptoError::InvalidSignature).is_empty());
        assert!(!format!("{}", CryptoError::MalformedCiphertext).is_empty());
    }
}
