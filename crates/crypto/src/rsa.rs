//! RSA with blinding and hash-and-sign signatures.
//!
//! §4.4 of the paper: every document is encrypted with its own symmetric key `sk`; the data
//! owner stores `RSA_e(sk)` next to the ciphertext. To decrypt, the user *blinds* the
//! ciphertext with a random factor `c` as `z = cᵉ·y mod N`, sends `z` to the data owner, who
//! returns `z̄ = z^d mod N`, and the user un-blinds with `sk = z̄·c⁻¹ mod N`. The data owner
//! therefore decrypts without learning which key it decrypted.
//!
//! §7 (Theorem 4): user→owner messages are signed; we provide a hash-and-sign scheme
//! (SHA-256 digest, deterministic padding, exponentiation with the private key).
//!
//! The paper uses a 1024-bit modulus built from two 512-bit primes. Key generation for that
//! size takes a few seconds in debug builds, so tests use smaller keys; the experiment
//! binaries use the paper's parameters.

use crate::bigint::BigUint;
use crate::prime::generate_prime;
use crate::sha256::Sha256;
use crate::CryptoError;
use rand::Rng;

/// Public RSA exponent used throughout (F4).
pub const PUBLIC_EXPONENT: u64 = 65537;

/// An RSA public key `(n, e)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// An RSA key pair (public modulus/exponent plus the private exponent).
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
    bits: usize,
}

/// A detached RSA signature over a message digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaSignature {
    value: BigUint,
}

impl RsaPublicKey {
    /// The modulus `N`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Size of the modulus in bits.
    pub fn modulus_bits(&self) -> usize {
        self.n.bit_len()
    }

    /// Size of the modulus in bytes (rounded up).
    fn modulus_bytes(&self) -> usize {
        self.modulus_bits().div_ceil(8)
    }

    /// Raw ("textbook") RSA encryption of a message already encoded as an integer `< N`.
    fn encrypt_value(&self, m: &BigUint) -> Result<BigUint, CryptoError> {
        if m >= &self.n {
            return Err(CryptoError::MessageTooLarge);
        }
        Ok(m.modpow(&self.e, &self.n))
    }

    /// Encrypt a byte string (must be shorter than the modulus).
    pub fn encrypt_bytes(&self, msg: &[u8]) -> Result<BigUint, CryptoError> {
        let m = BigUint::from_bytes_be(msg);
        self.encrypt_value(&m)
    }

    /// Blind a ciphertext with the blinding factor `c`: returns `cᵉ·y mod N`.
    ///
    /// This is the first half of the oblivious-decryption protocol of §4.4.
    pub fn blind(&self, ciphertext: &BigUint, blinding: &BigUint) -> Result<BigUint, CryptoError> {
        let ce = self.encrypt_value(&blinding.rem(&self.n))?;
        Ok(ce.mulmod(ciphertext, &self.n))
    }

    /// Remove the blinding factor from a blinded decryption: returns `z̄·c⁻¹ mod N`.
    pub fn unblind(
        &self,
        blinded_plain: &BigUint,
        blinding: &BigUint,
    ) -> Result<BigUint, CryptoError> {
        let inv = blinding
            .rem(&self.n)
            .modinv(&self.n)
            .ok_or(CryptoError::NotInvertible)?;
        Ok(blinded_plain.mulmod(&inv, &self.n))
    }

    /// Sample a blinding factor uniformly from `[2, N)` that is invertible mod `N`.
    pub fn random_blinding<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let c = BigUint::random_below(rng, &self.n);
            if !c.is_one() && c.gcd(&self.n).is_one() {
                return c;
            }
        }
    }

    /// Verify a signature over `message`.
    pub fn verify(&self, message: &[u8], signature: &RsaSignature) -> Result<(), CryptoError> {
        if signature.value >= self.n {
            return Err(CryptoError::InvalidSignature);
        }
        let recovered = signature.value.modpow(&self.e, &self.n);
        let expected = encode_digest(message, self.modulus_bytes());
        if recovered == expected {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }
}

impl RsaKeyPair {
    /// Generate a fresh key pair with a modulus of (about) `modulus_bits` bits.
    ///
    /// The paper uses `modulus_bits = 1024` (two 512-bit primes).
    pub fn generate<R: Rng + ?Sized>(modulus_bits: usize, rng: &mut R) -> Self {
        assert!(modulus_bits >= 64, "modulus too small");
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = generate_prime(modulus_bits / 2, rng);
            let q = generate_prime(modulus_bits - modulus_bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
            let Some(d) = e.modinv(&phi) else { continue };
            return RsaKeyPair {
                public: RsaPublicKey { n, e: e.clone() },
                d,
                bits: modulus_bits,
            };
        }
    }

    /// The public half of this key pair.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The modulus size requested at generation time.
    pub fn modulus_bits(&self) -> usize {
        self.bits
    }

    /// Raw RSA decryption: `c^d mod N`.
    pub fn decrypt_value(&self, c: &BigUint) -> Result<BigUint, CryptoError> {
        if c >= &self.public.n {
            return Err(CryptoError::MessageTooLarge);
        }
        Ok(c.modpow(&self.d, &self.public.n))
    }

    /// Decrypt to the original byte string (length recovered from the integer encoding).
    pub fn decrypt_bytes(&self, c: &BigUint) -> Result<Vec<u8>, CryptoError> {
        Ok(self.decrypt_value(c)?.to_bytes_be())
    }

    /// Sign a message: `encode(SHA-256(message))^d mod N`.
    pub fn sign(&self, message: &[u8]) -> RsaSignature {
        let encoded = encode_digest(message, self.public.modulus_bytes());
        RsaSignature {
            value: encoded.modpow(&self.d, &self.public.n),
        }
    }
}

impl RsaSignature {
    /// The signature as an integer (for serialization / cost accounting).
    pub fn value(&self) -> &BigUint {
        &self.value
    }

    /// The signature as big-endian bytes padded to `len` bytes.
    pub fn to_bytes(&self, len: usize) -> Vec<u8> {
        self.value.to_bytes_be_padded(len)
    }

    /// Rebuild a signature from its integer value (e.g. after transport).
    pub fn from_value(value: BigUint) -> Self {
        RsaSignature { value }
    }
}

/// Deterministic full-domain-style encoding of a message digest for signing:
/// `0x01 || 0xFF.. || 0x00 || SHA-256(msg)` truncated/padded to one byte less than the modulus.
fn encode_digest(message: &[u8], modulus_len: usize) -> BigUint {
    let digest = Sha256::digest(message);
    // One byte of headroom guarantees the encoded integer stays below the modulus; the digest
    // is truncated if the modulus is too small to hold it in full (test-sized keys only).
    let target = modulus_len.saturating_sub(1).max(3);
    let digest_len = digest.len().min(target - 2);
    let mut out = Vec::with_capacity(target);
    out.push(0x01);
    while out.len() < target - digest_len - 1 {
        out.push(0xff);
    }
    out.push(0x00);
    out.extend_from_slice(&digest[..digest_len]);
    BigUint::from_bytes_be(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_keypair(seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(256, &mut rng)
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let kp = test_keypair(1);
        let msg = b"doc-key-0123456789";
        let c = kp.public_key().encrypt_bytes(msg).unwrap();
        assert_eq!(kp.decrypt_bytes(&c).unwrap(), msg);
    }

    #[test]
    fn decryption_with_wrong_key_fails() {
        let kp1 = test_keypair(2);
        let kp2 = test_keypair(3);
        let msg = b"secret";
        let c = kp1.public_key().encrypt_bytes(msg).unwrap();
        // Either decryption "succeeds" with garbage, or the ciphertext falls outside
        // the wrong key's modulus range and is rejected — never the plaintext.
        match kp2.decrypt_bytes(&c) {
            Ok(recovered) => assert_ne!(recovered, msg.to_vec()),
            Err(e) => assert!(matches!(e, CryptoError::MessageTooLarge)),
        }
    }

    #[test]
    fn message_larger_than_modulus_is_rejected() {
        let kp = test_keypair(4);
        let too_big = vec![0xffu8; kp.public_key().modulus_bytes() + 1];
        assert_eq!(
            kp.public_key().encrypt_bytes(&too_big),
            Err(CryptoError::MessageTooLarge)
        );
    }

    #[test]
    fn blind_decryption_recovers_plaintext() {
        // The §4.4 flow: user blinds, owner decrypts, user unblinds.
        let mut rng = StdRng::seed_from_u64(5);
        let owner = RsaKeyPair::generate(256, &mut rng);
        let sk = b"per-document-key";
        let y = owner.public_key().encrypt_bytes(sk).unwrap();

        // User side.
        let c = owner.public_key().random_blinding(&mut rng);
        let z = owner.public_key().blind(&y, &c).unwrap();

        // Data owner side: plain decryption of the blinded value.
        let z_bar = owner.decrypt_value(&z).unwrap();

        // User side: unblind.
        let recovered = owner.public_key().unblind(&z_bar, &c).unwrap();
        assert_eq!(recovered.to_bytes_be(), sk.to_vec());
    }

    #[test]
    fn blinded_ciphertext_differs_from_original() {
        // The owner must not see the original ciphertext (unlinkability).
        let mut rng = StdRng::seed_from_u64(6);
        let owner = RsaKeyPair::generate(256, &mut rng);
        let y = owner.public_key().encrypt_bytes(b"key").unwrap();
        let c = owner.public_key().random_blinding(&mut rng);
        let z = owner.public_key().blind(&y, &c).unwrap();
        assert_ne!(y, z);
    }

    #[test]
    fn different_blindings_give_different_blinded_values() {
        let mut rng = StdRng::seed_from_u64(7);
        let owner = RsaKeyPair::generate(256, &mut rng);
        let y = owner.public_key().encrypt_bytes(b"key").unwrap();
        let c1 = owner.public_key().random_blinding(&mut rng);
        let c2 = owner.public_key().random_blinding(&mut rng);
        assert_ne!(
            owner.public_key().blind(&y, &c1).unwrap(),
            owner.public_key().blind(&y, &c2).unwrap()
        );
    }

    #[test]
    fn signature_verifies_and_tampering_is_detected() {
        let kp = test_keypair(8);
        let msg = b"trapdoor request: bins 3, 7, 11";
        let sig = kp.sign(msg);
        assert!(kp.public_key().verify(msg, &sig).is_ok());
        assert_eq!(
            kp.public_key()
                .verify(b"trapdoor request: bins 3, 7, 12", &sig),
            Err(CryptoError::InvalidSignature)
        );
        let forged = RsaSignature::from_value(sig.value().add(&BigUint::one()));
        assert_eq!(
            kp.public_key().verify(msg, &forged),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn signature_from_other_key_is_rejected() {
        let kp1 = test_keypair(9);
        let kp2 = test_keypair(10);
        let msg = b"hello";
        let sig = kp1.sign(msg);
        assert!(kp2.public_key().verify(msg, &sig).is_err());
    }

    #[test]
    fn signature_round_trips_through_bytes() {
        let kp = test_keypair(11);
        let msg = b"serialize me";
        let sig = kp.sign(msg);
        let len = kp.public_key().modulus_bytes();
        let bytes = sig.to_bytes(len);
        assert_eq!(bytes.len(), len);
        let sig2 = RsaSignature::from_value(BigUint::from_bytes_be(&bytes));
        assert!(kp.public_key().verify(msg, &sig2).is_ok());
    }

    #[test]
    fn keypair_has_requested_modulus_size() {
        let kp = test_keypair(12);
        let bits = kp.public_key().modulus_bits();
        assert!((255..=256).contains(&bits), "got {bits}");
        assert_eq!(kp.modulus_bits(), 256);
    }

    #[test]
    fn public_exponent_is_f4() {
        let kp = test_keypair(13);
        assert_eq!(kp.public_key().exponent().to_u64(), Some(65537));
    }
}
