//! The data owner (§3): key generation, index generation, document encryption, trapdoor
//! issuance and blind decryption.

use crate::counters::OperationCounters;
use crate::envelope::{Request, Response, Service};
use crate::messages::{
    BlindDecryptReply, BlindDecryptRequest, EncryptedDocumentTransfer, TrapdoorReply,
    TrapdoorRequest,
};
use crate::ProtocolError;
use mkse_core::document_index::{DocumentIndexer, RankedDocumentIndex};
use mkse_core::keys::{SchemeKeys, Trapdoor};
use mkse_core::params::SystemParams;
use mkse_crypto::aes::{AesCtr, KEY_SIZE, NONCE_SIZE};
use mkse_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use rand::Rng;
use std::collections::BTreeMap;

/// Configuration of a data owner.
#[derive(Clone, Debug)]
pub struct OwnerConfig {
    /// The scheme parameters shared with users and the server.
    pub params: SystemParams,
    /// RSA modulus size. The paper uses 1024 bits; tests use smaller keys to stay fast in
    /// debug builds.
    pub rsa_modulus_bits: usize,
}

impl Default for OwnerConfig {
    fn default() -> Self {
        OwnerConfig {
            params: SystemParams::default(),
            rsa_modulus_bits: 1024,
        }
    }
}

impl OwnerConfig {
    /// A configuration with a small RSA modulus, for unit tests (cryptographically weak, but
    /// the protocol logic is identical).
    pub fn fast_for_tests() -> Self {
        OwnerConfig {
            params: SystemParams::default(),
            rsa_modulus_bits: 256,
        }
    }
}

/// The data owner actor.
pub struct DataOwner {
    config: OwnerConfig,
    scheme_keys: SchemeKeys,
    rsa: RsaKeyPair,
    /// Verification keys of registered (authorized) users.
    users: BTreeMap<u64, RsaPublicKey>,
    counters: OperationCounters,
}

impl DataOwner {
    /// Create a data owner: generates the scheme keys and the RSA key pair.
    pub fn new<R: Rng + ?Sized>(config: OwnerConfig, rng: &mut R) -> Self {
        let scheme_keys = SchemeKeys::generate(&config.params, rng);
        let rsa = RsaKeyPair::generate(config.rsa_modulus_bits, rng);
        DataOwner {
            config,
            scheme_keys,
            rsa,
            users: BTreeMap::new(),
            counters: OperationCounters::new(),
        }
    }

    /// The public scheme parameters.
    pub fn params(&self) -> &SystemParams {
        &self.config.params
    }

    /// The owner's RSA public key (users need it for blinding).
    pub fn public_key(&self) -> &RsaPublicKey {
        self.rsa.public_key()
    }

    /// The owner's secret scheme keys (exposed for experiments that need direct access to
    /// trapdoors; a deployment would keep this private).
    pub fn scheme_keys(&self) -> &SchemeKeys {
        &self.scheme_keys
    }

    /// Register an authorized user's verification key.
    pub fn register_user(&mut self, user_id: u64, verification_key: RsaPublicKey) {
        self.users.insert(user_id, verification_key);
    }

    /// The random-keyword-pool trapdoors shared with every authorized user (§6).
    pub fn random_pool_trapdoors(&self) -> Vec<Trapdoor> {
        self.scheme_keys.random_pool_trapdoors(&self.config.params)
    }

    /// Offline phase (§3, Figure 1): index every document and encrypt it under a fresh
    /// symmetric key; the symmetric key itself is RSA-encrypted for storage at the server.
    ///
    /// Returns the searchable indices and the encrypted documents, both destined for the
    /// cloud server.
    pub fn prepare_documents<R: Rng + ?Sized>(
        &mut self,
        documents: &[mkse_textproc::document::Document],
        rng: &mut R,
    ) -> (Vec<RankedDocumentIndex>, Vec<EncryptedDocumentTransfer>) {
        let indexer = DocumentIndexer::new(&self.config.params, &self.scheme_keys);
        let mut indices = Vec::with_capacity(documents.len());
        let mut encrypted = Vec::with_capacity(documents.len());
        for doc in documents {
            // Searchable index: one keyword-index PRF evaluation per (level, keyword) pair.
            let index = indexer.index_document(doc);
            for &threshold in &self.config.params.level_thresholds {
                let keywords_at_level =
                    doc.terms.terms_with_frequency_at_least(threshold).len() as u64;
                self.counters.hashes += keywords_at_level;
                self.counters.bitwise_products +=
                    keywords_at_level + self.config.params.doc_random_keywords as u64;
            }
            indices.push(index);

            // Document encryption.
            let mut key = [0u8; KEY_SIZE];
            rng.fill(&mut key[..]);
            let mut nonce = [0u8; NONCE_SIZE];
            rng.fill(&mut nonce[..]);
            let ciphertext = AesCtr::new(&key).encrypt(&nonce, &doc.body);
            self.counters.symmetric_encryptions += 1;
            // The key is the 16 random bytes drawn above, never peer input; only an
            // owner configured with a modulus under 129 bits (presets: 256, 1024) fails.
            let encrypted_key = self
                .rsa
                .public_key()
                .encrypt_bytes(&key)
                .expect("a 128-bit key always fits under the modulus");
            self.counters.modular_exponentiations += 1;
            encrypted.push(EncryptedDocumentTransfer {
                document_id: doc.id,
                ciphertext,
                encrypted_key,
            });
        }
        (indices, encrypted)
    }

    /// Handle a signed trapdoor request (§4.2): verify the signature, then return each
    /// requested bin's HMAC key encrypted under the requesting user's public key.
    pub fn handle_trapdoor_request(
        &mut self,
        request: &TrapdoorRequest,
    ) -> Result<TrapdoorReply, ProtocolError> {
        let user_key = self
            .users
            .get(&request.user_id)
            .ok_or(ProtocolError::BadSignature)?;
        let payload = TrapdoorRequest::signed_payload(request.user_id, &request.bin_ids);
        self.counters.modular_exponentiations += 1; // signature verification
        user_key
            .verify(&payload, &request.signature)
            .map_err(|_| ProtocolError::BadSignature)?;

        let mut encrypted_bin_keys = Vec::with_capacity(request.bin_ids.len());
        for &bin in &request.bin_ids {
            let key = self.scheme_keys.bin_key(bin);
            let ciphertext = user_key.encrypt_bytes(key)?;
            self.counters.modular_exponentiations += 1;
            encrypted_bin_keys.push((bin, ciphertext));
        }
        Ok(TrapdoorReply { encrypted_bin_keys })
    }

    /// Handle a signed blind-decryption request (§4.4): verify the signature and return
    /// `z̄ = z^d mod N`. The owner never sees the unblinded ciphertext, so it cannot tell which
    /// document's key it is decrypting.
    pub fn handle_blind_decrypt(
        &mut self,
        request: &BlindDecryptRequest,
    ) -> Result<BlindDecryptReply, ProtocolError> {
        let user_key = self
            .users
            .get(&request.user_id)
            .ok_or(ProtocolError::BadSignature)?;
        let payload =
            BlindDecryptRequest::signed_payload(request.user_id, &request.blinded_ciphertext);
        self.counters.modular_exponentiations += 1; // signature verification
        user_key
            .verify(&payload, &request.signature)
            .map_err(|_| ProtocolError::BadSignature)?;

        let blinded_plaintext = self.rsa.decrypt_value(&request.blinded_ciphertext)?;
        self.counters.modular_exponentiations += 1;
        Ok(BlindDecryptReply { blinded_plaintext })
    }

    /// Direct (non-blinded) decryption of an RSA value — used only by tests and experiments
    /// that need ground truth; the protocol itself always goes through blinding.
    #[cfg(test)]
    fn decrypt_for_test(
        &self,
        value: &mkse_crypto::bigint::BigUint,
    ) -> Result<Vec<u8>, ProtocolError> {
        Ok(self.rsa.decrypt_bytes(value)?)
    }

    /// Operation counters accumulated so far.
    pub fn counters(&self) -> &OperationCounters {
        &self.counters
    }

    /// Reset the operation counters (e.g. after the offline setup phase, so a per-query
    /// measurement starts from zero).
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }
}

impl Service for DataOwner {
    /// The owner's envelope entry point: serves trapdoor issuance and blinded
    /// decryption (plus counter introspection), and answers server-side
    /// operations with [`ProtocolError::Unsupported`]. One [`Request`]
    /// vocabulary, two parties, disjoint duties.
    fn call(&mut self, request: Request) -> Response {
        self.counters.requests_served += 1;
        match request {
            Request::Trapdoor(request) => match self.handle_trapdoor_request(&request) {
                Ok(reply) => Response::Trapdoor(reply),
                Err(e) => Response::Error(e),
            },
            Request::BlindDecrypt(request) => match self.handle_blind_decrypt(&request) {
                Ok(reply) => Response::BlindDecrypt(reply),
                Err(e) => Response::Error(e),
            },
            Request::Counters => Response::Counters(self.counters),
            Request::ResetCounters => {
                self.counters.reset();
                Response::Ack
            }
            other => Response::Error(ProtocolError::Unsupported(format!(
                "{} is served by the cloud server, not the data owner",
                other.name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkse_crypto::bigint::BigUint;
    use mkse_textproc::document::Document;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn owner() -> (DataOwner, StdRng) {
        let mut rng = StdRng::seed_from_u64(21);
        let owner = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
        (owner, rng)
    }

    #[test]
    fn prepare_documents_indexes_and_encrypts() {
        let (mut owner, mut rng) = owner();
        let docs = vec![
            Document::from_text(0, "cloud privacy search"),
            Document::from_text(1, "weather forecast"),
        ];
        let (indices, encrypted) = owner.prepare_documents(&docs, &mut rng);
        assert_eq!(indices.len(), 2);
        assert_eq!(encrypted.len(), 2);
        assert_eq!(indices[0].num_levels(), owner.params().rank_levels());
        // Ciphertext differs from plaintext and is nonce-prefixed.
        assert_ne!(&encrypted[0].ciphertext[NONCE_SIZE..], &docs[0].body[..]);
        // The owner can recover each key from its own RSA encryption, and the
        // recovered key decrypts the document.
        for (doc, transfer) in docs.iter().zip(&encrypted) {
            let bytes = owner.decrypt_for_test(&transfer.encrypted_key).unwrap();
            // The RSA integer drops leading zero bytes; the key is their tail.
            let mut key = [0u8; KEY_SIZE];
            key[KEY_SIZE - bytes.len()..].copy_from_slice(&bytes);
            let body = AesCtr::new(&key).decrypt(&transfer.ciphertext).unwrap();
            assert_eq!(body, doc.body);
        }
        assert!(owner.counters().symmetric_encryptions == 2);
        assert!(owner.counters().modular_exponentiations >= 2);
        assert!(owner.counters().hashes > 0);
    }

    #[test]
    fn trapdoor_request_requires_valid_signature() {
        let (mut owner, mut rng) = owner();
        let user_rsa = RsaKeyPair::generate(256, &mut rng);
        owner.register_user(7, user_rsa.public_key().clone());

        let bins = vec![1u32, 5];
        let payload = TrapdoorRequest::signed_payload(7, &bins);
        let good = TrapdoorRequest {
            user_id: 7,
            bin_ids: bins.clone(),
            signature: user_rsa.sign(&payload),
        };
        let reply = owner.handle_trapdoor_request(&good).unwrap();
        assert_eq!(reply.encrypted_bin_keys.len(), 2);
        // The user can decrypt each bin key and it matches the owner's key.
        let key0 = user_rsa
            .decrypt_value(&reply.encrypted_bin_keys[0].1)
            .unwrap()
            .to_bytes_be_padded(mkse_core::keys::BIN_KEY_LEN);
        assert_eq!(&key0[..], owner.scheme_keys().bin_key(1));

        // Tampered bins ⇒ signature fails.
        let bad = TrapdoorRequest {
            user_id: 7,
            bin_ids: vec![1, 6],
            signature: good.signature.clone(),
        };
        assert_eq!(
            owner.handle_trapdoor_request(&bad),
            Err(ProtocolError::BadSignature)
        );

        // Unknown user ⇒ rejected.
        let unknown = TrapdoorRequest {
            user_id: 99,
            bin_ids: bins,
            signature: good.signature.clone(),
        };
        assert_eq!(
            owner.handle_trapdoor_request(&unknown),
            Err(ProtocolError::BadSignature)
        );
    }

    #[test]
    fn blind_decrypt_round_trip() {
        let (mut owner, mut rng) = owner();
        let user_rsa = RsaKeyPair::generate(256, &mut rng);
        owner.register_user(3, user_rsa.public_key().clone());

        // Owner-side ciphertext of some symmetric key.
        let sk = [9u8; 16];
        let y = owner.public_key().encrypt_bytes(&sk).unwrap();

        // User blinds.
        let c = owner.public_key().random_blinding(&mut rng);
        let z = owner.public_key().blind(&y, &c).unwrap();
        let payload = BlindDecryptRequest::signed_payload(3, &z);
        let request = BlindDecryptRequest {
            user_id: 3,
            blinded_ciphertext: z,
            signature: user_rsa.sign(&payload),
        };
        let reply = owner.handle_blind_decrypt(&request).unwrap();
        let recovered = owner
            .public_key()
            .unblind(&reply.blinded_plaintext, &c)
            .unwrap()
            .to_bytes_be_padded(16);
        assert_eq!(recovered, sk);
    }

    #[test]
    fn blind_decrypt_rejects_bad_signature() {
        let (mut owner, mut rng) = owner();
        let user_rsa = RsaKeyPair::generate(256, &mut rng);
        let other_rsa = RsaKeyPair::generate(256, &mut rng);
        owner.register_user(3, user_rsa.public_key().clone());
        let z = BigUint::from_u64(12345);
        let payload = BlindDecryptRequest::signed_payload(3, &z);
        let request = BlindDecryptRequest {
            user_id: 3,
            blinded_ciphertext: z,
            signature: other_rsa.sign(&payload), // signed by the wrong key
        };
        assert_eq!(
            owner.handle_blind_decrypt(&request),
            Err(ProtocolError::BadSignature)
        );
    }

    /// A query sent to the owner by mistake, through the framed client, comes
    /// back a typed refusal naming the party that serves it.
    #[test]
    fn search_requests_are_refused_with_a_typed_error() {
        let (owner, _) = owner();
        let query = mkse_core::bitindex::BitIndex::all_ones(owner.params().index_bits);
        let message = crate::QueryMessage { query, top: None };
        let refusal = crate::TypedCalls::query(&mut crate::Client::new(owner), &message);
        let refusal = refusal.unwrap_err();
        assert!(
            matches!(&refusal, ProtocolError::Unsupported(what) if what.contains("cloud server"))
        );
    }

    #[test]
    fn counters_reset() {
        let (mut owner, mut rng) = owner();
        let docs = vec![Document::from_text(0, "a b c")];
        let _ = owner.prepare_documents(&docs, &mut rng);
        assert!(owner.counters().symmetric_encryptions > 0);
        owner.reset_counters();
        assert_eq!(owner.counters(), &OperationCounters::new());
    }
}
