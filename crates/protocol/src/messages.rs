//! Protocol messages and their wire sizes.
//!
//! Every message knows its size in bits so the [`crate::CostLedger`] can be fed exactly what
//! Table 1 accounts for: bin ids are 32-bit integers, indices are `r` bits, RSA values are
//! `log N` bits, signatures are `log N` bits, and ciphertexts are as long as the documents.

use crate::ProtocolError;
use mkse_core::bins::BinId;
use mkse_core::bitindex::BitIndex;
use mkse_core::document_index::RankedDocumentIndex;
use mkse_core::storage::StoreError;
use mkse_crypto::bigint::BigUint;
use mkse_crypto::rsa::RsaSignature;

/// User → data owner: "send me the keys of these bins" (§4.2), signed by the user.
#[derive(Clone, Debug, PartialEq)]
pub struct TrapdoorRequest {
    /// Requesting user (so the owner can look up the verification key).
    pub user_id: u64,
    /// The bins covering the user's keywords (deduplicated).
    pub bin_ids: Vec<BinId>,
    /// Signature over the bin list (non-impersonation).
    pub signature: RsaSignature,
}

impl TrapdoorRequest {
    /// The canonical byte encoding the signature covers.
    pub fn signed_payload(user_id: u64, bin_ids: &[BinId]) -> Vec<u8> {
        let mut payload = user_id.to_be_bytes().to_vec();
        for b in bin_ids {
            payload.extend_from_slice(&b.to_be_bytes());
        }
        payload
    }

    /// Size on the wire: 32 bits per bin id plus a `log N`-bit signature (Table 1's
    /// `32·γ + log N`).
    pub fn bits(&self, modulus_bits: usize) -> u64 {
        32 * self.bin_ids.len() as u64 + modulus_bits as u64
    }
}

/// Data owner → user: the requested bin keys, encrypted under the user's public key.
///
/// Each bin key travels as one RSA ciphertext of `log N` bits (the paper's reply is "encrypted
/// with the user's public-key, so the size of the result is log N" for a single-bin request).
#[derive(Clone, Debug, PartialEq)]
pub struct TrapdoorReply {
    /// `(bin id, RSA encryption of that bin's HMAC key)` pairs.
    pub encrypted_bin_keys: Vec<(BinId, BigUint)>,
}

impl TrapdoorReply {
    /// Size on the wire: `log N` bits per returned bin key.
    pub fn bits(&self, modulus_bits: usize) -> u64 {
        self.encrypted_bin_keys.len() as u64 * modulus_bits as u64
    }
}

/// User → server: the r-bit query index (§4.2). No identity, no signature — the server does
/// not need to know who is asking (§7, Theorem 4 discussion).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryMessage {
    /// The query index.
    pub query: BitIndex,
    /// How many top matches the user wants back (τ of §5); `None` means all matches.
    pub top: Option<usize>,
}

impl QueryMessage {
    /// Size on the wire: `r` bits (independent of the number of search terms).
    pub fn bits(&self) -> u64 {
        self.query.serialized_bits() as u64
    }

    /// The front-door check every serving party runs before a query reaches
    /// an engine or a forward: the index must be exactly `index_bits` (the
    /// party's `SystemParams::index_bits`, r) long. The sender is not trusted
    /// and the scan kernels *assert* the length, so a query of any other
    /// length is answered — to its sender alone — the same
    /// [`StoreError::IndexSizeMismatch`] an upload of the wrong geometry gets.
    ///
    /// §6: the check reads only the length of bytes the server already
    /// received and compares it with public geometry — no new channel.
    pub fn check(&self, index_bits: usize) -> Result<(), ProtocolError> {
        check_query_bits(&self.query, index_bits)
    }
}

fn check_query_bits(query: &BitIndex, index_bits: usize) -> Result<(), ProtocolError> {
    if query.len() == index_bits {
        return Ok(());
    }
    Err(ProtocolError::Store(StoreError::IndexSizeMismatch {
        expected: index_bits,
        found: query.len(),
    }))
}

/// User → server: **many** query indices in one round trip.
///
/// The paper's protocol sends one `r`-bit query per round trip; under heavy
/// multi-query traffic (one user searching several keyword sets, or a gateway
/// multiplexing users) batching amortizes the transport round trip and lets the
/// server evaluate the whole batch in a single pass over each index shard. The
/// on-wire cost is exactly the sum of the individual queries — `b·r` bits for a
/// batch of `b` — so a batch of one costs the same as a [`QueryMessage`].
#[derive(Clone, Debug, PartialEq)]
pub struct BatchQueryMessage {
    /// The query indices, one per logical search.
    pub queries: Vec<BitIndex>,
    /// How many top matches the user wants back *per query*; `None` means all.
    pub top: Option<usize>,
}

impl BatchQueryMessage {
    /// Size on the wire: `r` bits per query, independent of term counts (Table 1).
    pub fn bits(&self) -> u64 {
        self.queries
            .iter()
            .map(|q| q.serialized_bits() as u64)
            .sum()
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the batch carries no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// [`QueryMessage::check`] for every member; the first member of the
    /// wrong length fails the whole batch (one request, one error envelope).
    pub fn check(&self, index_bits: usize) -> Result<(), ProtocolError> {
        self.queries
            .iter()
            .try_for_each(|query| check_query_bits(query, index_bits))
    }
}

/// Server → user: one [`SearchReply`] per query of a [`BatchQueryMessage`], in the
/// batch's order.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchSearchReply {
    /// Per-query replies, aligned with the request's `queries`.
    pub replies: Vec<SearchReply>,
}

impl BatchSearchReply {
    /// Size on the wire: the sum of the per-query reply sizes.
    pub fn bits(&self) -> u64 {
        self.replies.iter().map(|r| r.bits()).sum()
    }
}

/// How the server's result cache contributed to one reply (all zeros when the
/// cache is disabled). Diagnostics the server reports alongside the matches —
/// it reveals nothing beyond the server's own observation that the same query
/// bytes arrived before, which is the search pattern of §6.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Index shards answered from the result cache.
    pub shard_hits: u64,
    /// Index shards that were scanned.
    pub shard_misses: u64,
    /// r-bit comparisons the cache hits made unnecessary.
    pub saved_comparisons: u64,
    /// True if every shard hit — the reply was produced without any scan.
    pub served_from_cache: bool,
}

impl From<mkse_core::cache::CacheEffect> for CacheReport {
    fn from(effect: mkse_core::cache::CacheEffect) -> Self {
        CacheReport {
            shard_hits: effect.shard_hits,
            shard_misses: effect.shard_misses,
            saved_comparisons: effect.saved_comparisons,
            served_from_cache: effect.fully_cached(),
        }
    }
}

/// Server → user: ids and index metadata of the matching documents (§4.3: "the server sends
/// metadata of the matching documents to the user").
#[derive(Clone, Debug, PartialEq)]
pub struct SearchReply {
    /// `(document id, rank, per-level metadata)` for each match, best rank first.
    pub matches: Vec<SearchResultEntry>,
    /// Result-cache diagnostics for this reply (zeros when caching is off).
    pub cache: CacheReport,
}

/// One entry of a [`SearchReply`].
#[derive(Clone, Debug, PartialEq)]
pub struct SearchResultEntry {
    /// The matching document.
    pub document_id: u64,
    /// Its rank (highest matching level).
    pub rank: u32,
    /// The document's per-level search indices (the "metadata" the user analyses locally).
    pub metadata: Vec<BitIndex>,
}

impl SearchReply {
    /// Size on the wire: the metadata dominates — `α·η·r` bits plus 64 bits of id and 32 bits
    /// of rank per match (Table 1 counts the dominant `α·r` term). The [`CacheReport`]
    /// is constant-size server diagnostics and is not part of the Table 1 accounting.
    pub fn bits(&self) -> u64 {
        self.matches
            .iter()
            .map(|m| {
                96 + m
                    .metadata
                    .iter()
                    .map(|idx| idx.serialized_bits() as u64)
                    .sum::<u64>()
            })
            .sum()
    }
}

/// User → server: retrieve these documents (the θ chosen after analyzing the metadata).
#[derive(Clone, Debug, PartialEq)]
pub struct DocumentRequest {
    /// Ids of the documents to fetch.
    pub document_ids: Vec<u64>,
}

impl DocumentRequest {
    /// Size on the wire: 64 bits per requested id.
    pub fn bits(&self) -> u64 {
        64 * self.document_ids.len() as u64
    }
}

/// Server → user: the encrypted documents and their RSA-encrypted symmetric keys
/// (`θ·(doc_size + log N)` bits in Table 1).
#[derive(Clone, Debug, PartialEq)]
pub struct DocumentReply {
    /// One entry per requested document.
    pub documents: Vec<EncryptedDocumentTransfer>,
}

/// One encrypted document in transit.
#[derive(Clone, Debug, PartialEq)]
pub struct EncryptedDocumentTransfer {
    /// Document id.
    pub document_id: u64,
    /// Symmetric-key ciphertext of the document body.
    pub ciphertext: Vec<u8>,
    /// RSA encryption of the per-document symmetric key.
    pub encrypted_key: BigUint,
}

impl DocumentReply {
    /// Size on the wire.
    pub fn bits(&self, modulus_bits: usize) -> u64 {
        self.documents
            .iter()
            .map(|d| 64 + 8 * d.ciphertext.len() as u64 + modulus_bits as u64)
            .sum()
    }
}

/// Data owner → server: the offline-phase upload (§3, Figure 1) — searchable
/// indices plus the encrypted documents and their RSA-encrypted symmetric keys.
///
/// As a message this makes the upload expressible through the
/// [`crate::envelope::Request`] envelope like every online operation, so a
/// deployment can drive the whole server lifecycle over one framed transport.
#[derive(Clone, Debug, PartialEq)]
pub struct UploadMessage {
    /// One ranked searchable index per document.
    pub indices: Vec<RankedDocumentIndex>,
    /// The encrypted document bodies and their encrypted per-document keys.
    pub documents: Vec<EncryptedDocumentTransfer>,
}

impl UploadMessage {
    /// Size on the wire: `η·r` bits of index levels plus a 64-bit id per index,
    /// and `64 + 8·|ciphertext| + log N` bits per encrypted document (the §5
    /// storage analysis, counted as transfer).
    pub fn bits(&self, modulus_bits: usize) -> u64 {
        let index_bits: u64 = self
            .indices
            .iter()
            .map(|idx| {
                64 + idx
                    .levels
                    .iter()
                    .map(|l| l.serialized_bits() as u64)
                    .sum::<u64>()
            })
            .sum();
        let document_bits: u64 = self
            .documents
            .iter()
            .map(|d| 64 + 8 * d.ciphertext.len() as u64 + modulus_bits as u64)
            .sum();
        index_bits + document_bits
    }
}

/// User → data owner: a blinded RSA ciphertext to decrypt (§4.4), signed by the user.
#[derive(Clone, Debug, PartialEq)]
pub struct BlindDecryptRequest {
    /// Requesting user.
    pub user_id: u64,
    /// `z = cᵉ·y mod N`.
    pub blinded_ciphertext: BigUint,
    /// Signature over the blinded ciphertext.
    pub signature: RsaSignature,
}

impl BlindDecryptRequest {
    /// The canonical byte encoding the signature covers.
    pub fn signed_payload(user_id: u64, blinded: &BigUint) -> Vec<u8> {
        let mut payload = user_id.to_be_bytes().to_vec();
        payload.extend_from_slice(&blinded.to_bytes_be());
        payload
    }

    /// Size on the wire: `log N` bits of ciphertext plus a `log N`-bit signature.
    pub fn bits(&self, modulus_bits: usize) -> u64 {
        2 * modulus_bits as u64
    }
}

/// Data owner → user: the blinded decryption `z̄ = z^d mod N` (`log N` bits).
#[derive(Clone, Debug, PartialEq)]
pub struct BlindDecryptReply {
    /// The blinded plaintext.
    pub blinded_plaintext: BigUint,
}

impl BlindDecryptReply {
    /// Size on the wire.
    pub fn bits(&self, modulus_bits: usize) -> u64 {
        modulus_bits as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkse_crypto::bigint::BigUint;

    #[test]
    fn trapdoor_request_bits_match_table1() {
        let req = TrapdoorRequest {
            user_id: 1,
            bin_ids: vec![3, 7, 11],
            signature: RsaSignature::from_value(BigUint::from_u64(1)),
        };
        // 32·γ + log N with γ = 3 bins and a 1024-bit modulus.
        assert_eq!(req.bits(1024), 32 * 3 + 1024);
    }

    #[test]
    fn signed_payload_is_deterministic_and_order_sensitive() {
        let a = TrapdoorRequest::signed_payload(1, &[1, 2]);
        let b = TrapdoorRequest::signed_payload(1, &[1, 2]);
        let c = TrapdoorRequest::signed_payload(1, &[2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn trapdoor_reply_bits_scale_with_bins() {
        let reply = TrapdoorReply {
            encrypted_bin_keys: vec![(1, BigUint::from_u64(9)), (2, BigUint::from_u64(8))],
        };
        assert_eq!(reply.bits(1024), 2048);
    }

    #[test]
    fn query_message_is_r_bits() {
        let q = QueryMessage {
            query: BitIndex::all_ones(448),
            top: Some(5),
        };
        assert_eq!(q.bits(), 448);
    }

    #[test]
    fn batch_query_bits_are_the_sum_of_member_queries() {
        let single = QueryMessage {
            query: BitIndex::all_ones(448),
            top: None,
        };
        let batch = BatchQueryMessage {
            queries: vec![BitIndex::all_ones(448); 5],
            top: None,
        };
        assert_eq!(batch.len(), 5);
        assert!(!batch.is_empty());
        assert_eq!(batch.bits(), 5 * single.bits());
        // A batch of one costs exactly one QueryMessage.
        let batch1 = BatchQueryMessage {
            queries: vec![BitIndex::all_ones(448)],
            top: Some(3),
        };
        assert_eq!(batch1.bits(), single.bits());
    }

    #[test]
    fn batch_reply_bits_sum_member_replies() {
        let entry = SearchResultEntry {
            document_id: 1,
            rank: 2,
            metadata: vec![BitIndex::all_ones(448); 3],
        };
        let reply = SearchReply {
            matches: vec![entry],
            cache: CacheReport::default(),
        };
        let batch = BatchSearchReply {
            replies: vec![reply.clone(), reply.clone(), reply.clone()],
        };
        assert_eq!(batch.bits(), 3 * reply.bits());
    }

    #[test]
    fn search_reply_bits_scale_with_matches_and_levels() {
        let entry = SearchResultEntry {
            document_id: 1,
            rank: 2,
            metadata: vec![BitIndex::all_ones(448); 3],
        };
        let reply = SearchReply {
            matches: vec![entry.clone(), entry],
            cache: CacheReport::default(),
        };
        assert_eq!(reply.bits(), 2 * (96 + 3 * 448));
    }

    #[test]
    fn document_messages_bits() {
        let req = DocumentRequest {
            document_ids: vec![5, 9],
        };
        assert_eq!(req.bits(), 128);
        let reply = DocumentReply {
            documents: vec![EncryptedDocumentTransfer {
                document_id: 5,
                ciphertext: vec![0u8; 100],
                encrypted_key: BigUint::from_u64(3),
            }],
        };
        assert_eq!(reply.bits(1024), 64 + 800 + 1024);
    }

    #[test]
    fn upload_message_bits_follow_the_storage_analysis() {
        use mkse_core::document_index::RankedDocumentIndex;
        let upload = UploadMessage {
            indices: vec![RankedDocumentIndex {
                document_id: 1,
                levels: vec![BitIndex::all_ones(448); 3],
            }],
            documents: vec![EncryptedDocumentTransfer {
                document_id: 1,
                ciphertext: vec![0u8; 100],
                encrypted_key: BigUint::from_u64(3),
            }],
        };
        // Index part: 64-bit id + η·r level bits; document part matches
        // DocumentReply's per-transfer accounting.
        assert_eq!(upload.bits(1024), (64 + 3 * 448) + (64 + 800 + 1024));
        let empty = UploadMessage {
            indices: vec![],
            documents: vec![],
        };
        assert_eq!(empty.bits(1024), 0);
    }

    #[test]
    fn blind_decrypt_messages_bits() {
        let req = BlindDecryptRequest {
            user_id: 7,
            blinded_ciphertext: BigUint::from_u64(123),
            signature: RsaSignature::from_value(BigUint::from_u64(1)),
        };
        assert_eq!(req.bits(1024), 2048);
        let reply = BlindDecryptReply {
            blinded_plaintext: BigUint::from_u64(5),
        };
        assert_eq!(reply.bits(1024), 1024);
        let payload = BlindDecryptRequest::signed_payload(7, &BigUint::from_u64(123));
        assert!(payload.len() > 8);
    }
}
