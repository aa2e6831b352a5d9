//! The user actor (§3): obtains trapdoors, builds randomized queries, analyses results, and
//! retrieves documents through blinded key decryption.

use crate::counters::OperationCounters;
use crate::messages::{
    BatchQueryMessage, BlindDecryptReply, BlindDecryptRequest, DocumentRequest,
    EncryptedDocumentTransfer, QueryMessage, SearchReply, TrapdoorReply, TrapdoorRequest,
};
use crate::ProtocolError;
use mkse_core::bins::{bins_for_keywords, get_bin, BinId};
use mkse_core::keys::{Trapdoor, BIN_KEY_LEN};
use mkse_core::keyword::keyword_index_with_prf;
use mkse_core::params::SystemParams;
use mkse_core::query::QueryBuilder;
use mkse_crypto::aes::{AesCtr, KEY_SIZE};
use mkse_crypto::bigint::BigUint;
use mkse_crypto::prf::LongPrf;
use mkse_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use rand::Rng;
use std::collections::BTreeMap;

/// Client-side state needed to finish a blinded decryption: the blinding factor `c`.
pub struct BlindingState {
    blinding: BigUint,
}

/// The user actor.
pub struct User {
    id: u64,
    params: SystemParams,
    /// The user's own RSA key pair, used to sign requests and to receive encrypted bin keys.
    rsa: RsaKeyPair,
    /// The data owner's public key, used for blinding.
    owner_public: RsaPublicKey,
    /// Bin keys learned so far (the user caches them — §3 notes the trapdoor exchange "does
    /// not need to be performed every time"), each keyed once as its PRF so every trapdoor of
    /// the bin reuses the HMAC key schedules (§4.2: the user "generate[s] the trapdoors for
    /// all keywords in these bins").
    bin_keys: BTreeMap<BinId, LongPrf>,
    /// Trapdoors of the random-keyword pool, shared by the data owner with authorized users.
    pool_trapdoors: Vec<Trapdoor>,
    counters: OperationCounters,
}

impl User {
    /// Create a user with a fresh signature key pair.
    pub fn new<R: Rng + ?Sized>(
        id: u64,
        params: SystemParams,
        owner_public: RsaPublicKey,
        rsa_modulus_bits: usize,
        rng: &mut R,
    ) -> Self {
        User {
            id,
            params,
            rsa: RsaKeyPair::generate(rsa_modulus_bits, rng),
            owner_public,
            bin_keys: BTreeMap::new(),
            pool_trapdoors: Vec::new(),
            counters: OperationCounters::new(),
        }
    }

    /// This user's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The user's public (verification/encryption) key, to be registered with the data owner.
    pub fn public_key(&self) -> &RsaPublicKey {
        self.rsa.public_key()
    }

    /// Receive the random-keyword-pool trapdoors from the data owner (authorization step).
    pub fn set_random_pool(&mut self, pool: Vec<Trapdoor>) {
        self.pool_trapdoors = pool;
    }

    /// Bins whose keys this user still needs for the given keywords.
    fn missing_bins(&self, keywords: &[&str]) -> Vec<BinId> {
        bins_for_keywords(&self.params, keywords)
            .into_iter()
            .filter(|b| !self.bin_keys.contains_key(b))
            .collect()
    }

    /// Build a signed trapdoor request for the given keywords (§4.2, step 1 of Figure 1).
    /// Returns `None` if every needed bin key is already cached.
    pub fn make_trapdoor_request(&mut self, keywords: &[&str]) -> Option<TrapdoorRequest> {
        let bins = self.missing_bins(keywords);
        if bins.is_empty() {
            return None;
        }
        let payload = TrapdoorRequest::signed_payload(self.id, &bins);
        self.counters.modular_exponentiations += 1; // signing
        Some(TrapdoorRequest {
            user_id: self.id,
            bin_ids: bins,
            signature: self.rsa.sign(&payload),
        })
    }

    /// Ingest the data owner's reply: decrypt each bin key with the user's private key and
    /// cache it, keyed as its PRF.
    pub fn ingest_trapdoor_reply(&mut self, reply: &TrapdoorReply) -> Result<(), ProtocolError> {
        for (bin, ciphertext) in &reply.encrypted_bin_keys {
            let key = self.rsa.decrypt_value(ciphertext)?;
            self.counters.modular_exponentiations += 1;
            let key = key.to_bytes_be_padded(BIN_KEY_LEN);
            self.bin_keys.insert(*bin, LongPrf::new(&key));
        }
        Ok(())
    }

    /// Compute the trapdoor of one keyword from a cached bin key.
    pub fn trapdoor_for(&mut self, keyword: &str) -> Result<Trapdoor, ProtocolError> {
        let bin = get_bin(&self.params, keyword);
        let prf = self.bin_keys.get(&bin).ok_or_else(|| {
            ProtocolError::Crypto(format!("missing bin key {bin} for keyword trapdoor"))
        })?;
        self.counters.hashes += 1;
        Ok(Trapdoor::new(keyword_index_with_prf(
            &self.params,
            prf,
            keyword,
        )))
    }

    /// Build the r-bit query index (with randomization when the pool is available) for the
    /// given keywords, requesting at most `top` matches.
    pub fn build_query<R: Rng + ?Sized>(
        &mut self,
        keywords: &[&str],
        top: Option<usize>,
        rng: &mut R,
    ) -> Result<QueryMessage, ProtocolError> {
        let mut trapdoors = Vec::with_capacity(keywords.len());
        for kw in keywords {
            trapdoors.push(self.trapdoor_for(kw)?);
        }
        self.counters.bitwise_products += keywords.len() as u64;
        let mut builder = QueryBuilder::new(&self.params).add_trapdoors(&trapdoors);
        if self.pool_trapdoors.len() >= self.params.query_random_keywords
            && self.params.query_random_keywords > 0
        {
            builder = builder.with_randomization(&self.pool_trapdoors);
            self.counters.bitwise_products += self.params.query_random_keywords as u64;
        }
        let query = builder.build(rng);
        Ok(QueryMessage {
            query: query.bits().clone(),
            top,
        })
    }

    /// Build one batched message carrying a query index per keyword set, so several
    /// logical searches travel in a single round trip. Every member query is built
    /// exactly like [`User::build_query`] builds it (randomization included), so the
    /// server's per-query answers are indistinguishable from individually sent ones.
    pub fn build_batch_query<R: Rng + ?Sized>(
        &mut self,
        keyword_sets: &[Vec<&str>],
        top: Option<usize>,
        rng: &mut R,
    ) -> Result<BatchQueryMessage, ProtocolError> {
        let mut queries = Vec::with_capacity(keyword_sets.len());
        for keywords in keyword_sets {
            queries.push(self.build_query(keywords, top, rng)?.query);
        }
        Ok(BatchQueryMessage { queries, top })
    }

    /// Pick the `theta` best-ranked documents out of a search reply.
    pub fn choose_documents(
        &self,
        reply: &SearchReply,
        theta: usize,
    ) -> Result<DocumentRequest, ProtocolError> {
        if reply.matches.len() < theta {
            return Err(ProtocolError::NotEnoughMatches {
                requested: theta,
                available: reply.matches.len(),
            });
        }
        Ok(DocumentRequest {
            document_ids: reply
                .matches
                .iter()
                .take(theta)
                .map(|m| m.document_id)
                .collect(),
        })
    }

    /// Start a blinded decryption of one RSA-encrypted document key (§4.4): blind, sign, and
    /// keep the blinding factor for [`User::finish_blind_decrypt`].
    pub fn begin_blind_decrypt<R: Rng + ?Sized>(
        &mut self,
        encrypted_key: &BigUint,
        rng: &mut R,
    ) -> Result<(BlindDecryptRequest, BlindingState), ProtocolError> {
        let blinding = self.owner_public.random_blinding(rng);
        let blinded = self.owner_public.blind(encrypted_key, &blinding)?;
        // Blinding costs one modular exponentiation (cᵉ) and one multiplication (·y).
        self.counters.modular_exponentiations += 1;
        self.counters.modular_multiplications += 1;
        let payload = BlindDecryptRequest::signed_payload(self.id, &blinded);
        self.counters.modular_exponentiations += 1; // signing
        Ok((
            BlindDecryptRequest {
                user_id: self.id,
                blinded_ciphertext: blinded,
                signature: self.rsa.sign(&payload),
            },
            BlindingState { blinding },
        ))
    }

    /// Finish a blinded decryption: unblind the owner's reply into the 128-bit document key.
    pub fn finish_blind_decrypt(
        &mut self,
        reply: &BlindDecryptReply,
        state: BlindingState,
    ) -> Result<[u8; KEY_SIZE], ProtocolError> {
        let recovered = self
            .owner_public
            .unblind(&reply.blinded_plaintext, &state.blinding)?;
        self.counters.modular_multiplications += 1; // multiplication by c⁻¹
        let bytes = recovered.to_bytes_be();
        if bytes.len() > KEY_SIZE {
            return Err(ProtocolError::Crypto(
                "recovered key longer than the symmetric key size".into(),
            ));
        }
        let mut key = [0u8; KEY_SIZE];
        key[KEY_SIZE - bytes.len()..].copy_from_slice(&bytes);
        Ok(key)
    }

    /// Decrypt a retrieved document with its recovered symmetric key.
    pub fn decrypt_document(
        &mut self,
        transfer: &EncryptedDocumentTransfer,
        key: &[u8; KEY_SIZE],
    ) -> Result<Vec<u8>, ProtocolError> {
        self.counters.symmetric_decryptions += 1;
        Ok(AesCtr::new(key).decrypt(&transfer.ciphertext)?)
    }

    /// Operation counters accumulated so far.
    pub fn counters(&self) -> &OperationCounters {
        &self.counters
    }

    /// Reset the counters.
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// Number of bin keys cached so far.
    #[cfg(test)]
    fn cached_bins(&self) -> usize {
        self.bin_keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_owner::{DataOwner, OwnerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (DataOwner, User, StdRng) {
        let mut rng = StdRng::seed_from_u64(33);
        let mut owner = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
        let user = User::new(
            1,
            owner.params().clone(),
            owner.public_key().clone(),
            256,
            &mut rng,
        );
        owner.register_user(user.id(), user.public_key().clone());
        (owner, user, rng)
    }

    #[test]
    fn trapdoor_exchange_lets_user_reproduce_owner_trapdoors() {
        let (mut owner, mut user, _) = setup();
        let keywords = ["privacy", "cloud"];
        let request = user.make_trapdoor_request(&keywords).expect("bins missing");
        let reply = owner.handle_trapdoor_request(&request).unwrap();
        user.ingest_trapdoor_reply(&reply).unwrap();
        assert!(user.cached_bins() >= 1);

        for kw in keywords {
            let user_td = user.trapdoor_for(kw).unwrap();
            let owner_td = owner.scheme_keys().trapdoor_for(owner.params(), kw);
            assert_eq!(user_td, owner_td, "trapdoor mismatch for {kw}");
        }
    }

    #[test]
    fn cached_bins_suppress_repeat_requests() {
        let (mut owner, mut user, _) = setup();
        let request = user.make_trapdoor_request(&["privacy"]).unwrap();
        let reply = owner.handle_trapdoor_request(&request).unwrap();
        user.ingest_trapdoor_reply(&reply).unwrap();
        // Asking for the same keyword again needs no new request.
        assert!(user.make_trapdoor_request(&["privacy"]).is_none());
        assert!(user.missing_bins(&["privacy"]).is_empty());
    }

    #[test]
    fn query_without_bin_key_fails() {
        let (_, mut user, mut rng) = setup();
        assert!(user.build_query(&["unknown"], None, &mut rng).is_err());
        assert!(user.trapdoor_for("unknown").is_err());
    }

    #[test]
    fn query_uses_randomization_when_pool_is_available() {
        let (mut owner, mut user, mut rng) = setup();
        let request = user.make_trapdoor_request(&["privacy"]).unwrap();
        let reply = owner.handle_trapdoor_request(&request).unwrap();
        user.ingest_trapdoor_reply(&reply).unwrap();

        let plain = user.build_query(&["privacy"], None, &mut rng).unwrap();
        user.set_random_pool(owner.random_pool_trapdoors());
        let randomized = user.build_query(&["privacy"], None, &mut rng).unwrap();
        assert!(randomized.query.count_zeros() > plain.query.count_zeros());
    }

    #[test]
    fn batch_query_carries_one_index_per_keyword_set() {
        let (mut owner, mut user, mut rng) = setup();
        let request = user.make_trapdoor_request(&["privacy", "cloud"]).unwrap();
        let reply = owner.handle_trapdoor_request(&request).unwrap();
        user.ingest_trapdoor_reply(&reply).unwrap();

        let sets = vec![vec!["privacy"], vec!["cloud"], vec!["privacy", "cloud"]];
        let batch = user.build_batch_query(&sets, Some(5), &mut rng).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.top, Some(5));
        // Each member query is r bits; the batch costs their sum.
        assert_eq!(
            batch.bits(),
            3 * u64::from(batch.queries[0].serialized_bits() as u32)
        );
        // A set with no obtainable trapdoor fails the whole batch.
        assert!(user
            .build_batch_query(&[vec!["privacy"], vec!["unknown"]], None, &mut rng)
            .is_err());
    }

    #[test]
    fn blind_decryption_recovers_document_key() {
        let (mut owner, mut user, mut rng) = setup();
        let sk = [0xabu8; KEY_SIZE];
        let encrypted = owner.public_key().encrypt_bytes(&sk).unwrap();
        let (request, state) = user.begin_blind_decrypt(&encrypted, &mut rng).unwrap();
        // The owner sees only the blinded value, never `encrypted` itself.
        assert_ne!(request.blinded_ciphertext, encrypted);
        let reply = owner.handle_blind_decrypt(&request).unwrap();
        let key = user.finish_blind_decrypt(&reply, state).unwrap();
        assert_eq!(key, sk);
    }

    #[test]
    fn blind_decryption_handles_keys_with_leading_zero_bytes() {
        let (mut owner, mut user, mut rng) = setup();
        let mut sk = [0x55u8; KEY_SIZE];
        sk[0] = 0; // leading zero must survive the integer round trip
        let encrypted = owner.public_key().encrypt_bytes(&sk).unwrap();
        let (request, state) = user.begin_blind_decrypt(&encrypted, &mut rng).unwrap();
        let reply = owner.handle_blind_decrypt(&request).unwrap();
        assert_eq!(user.finish_blind_decrypt(&reply, state).unwrap(), sk);
    }

    #[test]
    fn document_decryption_round_trip() {
        let (_, mut user, _) = setup();
        let key = [7u8; KEY_SIZE];
        let body = b"the secret report".to_vec();
        let ciphertext = AesCtr::new(&key).encrypt(&[1u8; 8], &body);
        let transfer = EncryptedDocumentTransfer {
            document_id: 0,
            ciphertext,
            encrypted_key: BigUint::from_u64(0),
        };
        assert_eq!(user.decrypt_document(&transfer, &key).unwrap(), body);
        assert_eq!(user.counters().symmetric_decryptions, 1);
    }

    #[test]
    fn choose_documents_respects_theta() {
        let (_, user, _) = setup();
        let reply = SearchReply {
            matches: vec![
                crate::messages::SearchResultEntry {
                    document_id: 5,
                    rank: 3,
                    metadata: vec![],
                },
                crate::messages::SearchResultEntry {
                    document_id: 9,
                    rank: 1,
                    metadata: vec![],
                },
            ],
            cache: crate::messages::CacheReport::default(),
        };
        let req = user.choose_documents(&reply, 1).unwrap();
        assert_eq!(req.document_ids, vec![5]);
        assert!(matches!(
            user.choose_documents(&reply, 3),
            Err(ProtocolError::NotEnoughMatches {
                requested: 3,
                available: 2
            })
        ));
    }

    #[test]
    fn user_counters_track_operations() {
        let (mut owner, mut user, mut rng) = setup();
        let request = user.make_trapdoor_request(&["kw"]).unwrap();
        let reply = owner.handle_trapdoor_request(&request).unwrap();
        user.ingest_trapdoor_reply(&reply).unwrap();
        let _ = user.build_query(&["kw"], None, &mut rng).unwrap();
        assert!(user.counters().hashes >= 1);
        assert!(user.counters().modular_exponentiations >= 2);
        user.reset_counters();
        assert_eq!(user.counters(), &OperationCounters::new());
    }
}
