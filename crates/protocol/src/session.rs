//! End-to-end protocol sessions (Figure 1) with full cost accounting.
//!
//! [`SearchSession::setup`] plays the offline phase: the data owner generates keys, indexes
//! and encrypts the corpus, and uploads everything to the cloud server; a user is registered
//! and receives the randomization pool. [`SearchSession::run_query`] then plays the four
//! online steps of Figure 1 — trapdoor exchange, query, retrieval, blinded key decryption —
//! recording every transmission in a [`CostLedger`] and every operation in the per-party
//! counters, which is exactly the data Tables 1 and 2 present.
//!
//! Since the envelope redesign the session speaks to **both** remote parties
//! exclusively through [`Client`]s: every exchange is a framed
//! [`crate::Request`] / [`crate::Response`] envelope crossing the
//! [`crate::wire`] codec, so next to the analytic Table 1 bits the session also
//! measures the real framed wire traffic ([`WireReport`]). The per-document
//! blinded key decryptions of step 4 are **pipelined**: all requests are
//! submitted to the owner in one flush and the replies correlated back by
//! request id.

use crate::channel::{CostLedger, Party, Phase};
use crate::client::{Client, Transport, TypedCalls, WireStats};
use crate::counters::OperationCounters;
use crate::data_owner::{DataOwner, OwnerConfig};
use crate::envelope::{Request, Response};
use crate::messages::CacheReport;
use crate::server::CloudServer;
use crate::user::User;
use crate::ProtocolError;
use mkse_core::telemetry::{MetricsSnapshot, TelemetryLevel};
use mkse_textproc::document::Document;
use rand::Rng;

/// A complete three-party deployment plus the communication ledger.
///
/// Both remote parties sit behind a [`Client`]; local admin/introspection
/// (`session.server.num_shards()`, `session.owner.params()`, …) keeps working
/// through the client's `Deref` to the wrapped actor.
pub struct SearchSession {
    /// The data owner actor, behind its envelope client.
    pub owner: Client<DataOwner>,
    /// The cloud server actor, behind its envelope client.
    pub server: Client<CloudServer>,
    /// The (single) user actor; multi-user scenarios construct extra users by hand.
    pub user: User,
    /// Ledger of every transmission.
    pub ledger: CostLedger,
}

/// Measured framed wire traffic of one round: what the exchanges actually cost
/// on the byte level (the analytic Table 1 bits live in the [`CostLedger`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireReport {
    /// Request frames the user shipped (to the server and the data owner).
    pub frames_sent: u64,
    /// Response frames the user received.
    pub frames_received: u64,
    /// Framed request bytes shipped (length prefix + version + request id + body).
    pub bytes_sent: u64,
    /// Framed response bytes received.
    pub bytes_received: u64,
    /// Request ids this round used on the server connection (half-open range —
    /// the client assigns ids consecutively per connection).
    pub server_request_ids: std::ops::Range<u64>,
    /// Request ids this round used on the data-owner connection (half-open range).
    pub owner_request_ids: std::ops::Range<u64>,
}

/// What one full query round produced.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// `(document id, rank)` of every match the server returned, best first.
    pub matches: Vec<(u64, u32)>,
    /// Decrypted plaintexts of the retrieved documents.
    pub retrieved: Vec<(u64, Vec<u8>)>,
    /// Communication costs of this round (Table 1).
    pub communication: CostLedger,
    /// The user's operation counts (Table 2, user row).
    pub user_ops: OperationCounters,
    /// The data owner's operation counts (Table 2, data-owner row).
    pub owner_ops: OperationCounters,
    /// The server's operation counts (Table 2, server row).
    pub server_ops: OperationCounters,
    /// What the server's result cache contributed to this round's search reply
    /// (all zeros when caching is off — the default).
    pub cache: CacheReport,
    /// Index shards the server scanned in parallel for this round.
    pub shards: usize,
    /// Measured framed wire traffic of this round.
    pub wire: WireReport,
    /// The server's telemetry registry at the end of the round, when its
    /// recording level is not `Off` (cumulative, not per-round: the registry
    /// is monotonic by design).
    pub server_metrics: Option<MetricsSnapshot>,
}

impl SessionReport {
    /// Render a compact human-readable summary (used by the examples and experiments).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "matches: {} (top rank {})\n",
            self.matches.len(),
            self.matches.first().map(|m| m.1).unwrap_or(0)
        ));
        out.push_str(&format!("retrieved documents: {}\n", self.retrieved.len()));
        out.push_str(&format!("server shards: {}\n", self.shards));
        out.push_str(&format!(
            "wire: {} frames / {} bytes sent, {} frames / {} bytes received{}\n",
            self.wire.frames_sent,
            self.wire.bytes_sent,
            self.wire.frames_received,
            self.wire.bytes_received,
            render_id_ranges(&self.wire.server_request_ids, &self.wire.owner_request_ids),
        ));
        if self.cache.shard_hits > 0 || self.cache.served_from_cache {
            out.push_str(&format!(
                "result cache: {} shard hits / {} misses, {} comparisons saved{}\n",
                self.cache.shard_hits,
                self.cache.shard_misses,
                self.cache.saved_comparisons,
                if self.cache.served_from_cache {
                    " (reply served entirely from cache)"
                } else {
                    ""
                }
            ));
        }
        out.push_str("\ncommunication (bits sent, per party and phase):\n");
        out.push_str(&self.communication.render_table());
        out.push_str("\nuser operations:\n");
        out.push_str(&self.user_ops.render());
        out.push_str("data owner operations:\n");
        out.push_str(&self.owner_ops.render());
        out.push_str("server operations:\n");
        out.push_str(&self.server_ops.render());
        if let Some(metrics) = &self.server_metrics {
            out.push_str(&format!(
                "\nserver telemetry (level {}, cumulative):\n",
                metrics.level.name()
            ));
            out.push_str(&crate::metrics::render_text(metrics));
        }
        out
    }
}

fn render_id_ranges(server_ids: &std::ops::Range<u64>, owner_ids: &std::ops::Range<u64>) -> String {
    let range = |ids: &std::ops::Range<u64>, party: &str| {
        if ids.is_empty() {
            String::new()
        } else if ids.end - ids.start == 1 {
            format!("#{} {party}", ids.start)
        } else {
            format!("#{}–#{} {party}", ids.start, ids.end - 1)
        }
    };
    let parts: Vec<String> = [range(server_ids, "server"), range(owner_ids, "owner")]
        .into_iter()
        .filter(|s| !s.is_empty())
        .collect();
    if parts.is_empty() {
        String::new()
    } else {
        format!(" (request ids {})", parts.join(", "))
    }
}

/// Snapshot of both clients' wire counters + next request ids, for per-round deltas.
struct WireMark {
    server: WireStats,
    owner: WireStats,
    server_next_id: u64,
    owner_next_id: u64,
}

/// Record one request/reply exchange: analytic Table 1 `(request, reply)` bits
/// both ways, plus the measured framed wire delta `moved` observed at the
/// requester's client. Frame counts come from the measured delta itself — not
/// a caller-maintained literal — so the ledger's Table 1 frame totals read the
/// same source as everything else the codec observed and cannot drift from the
/// registry-backed served-request count.
fn record_exchange(
    ledger: &CostLedger,
    requester: Party,
    responder: Party,
    phase: Phase,
    (request_bits, reply_bits): (u64, u64),
    moved: WireStats,
) {
    ledger.record(requester, responder, phase, request_bits);
    ledger.record_wire(
        requester,
        responder,
        phase,
        moved.frames_sent,
        moved.bytes_sent,
    );
    ledger.record(responder, requester, phase, reply_bits);
    ledger.record_wire(
        responder,
        requester,
        phase,
        moved.frames_received,
        moved.bytes_received,
    );
}

impl SearchSession {
    /// Maximum documents per [`Request::Upload`] frame during
    /// [`SearchSession::setup`].
    pub const UPLOAD_CHUNK_DOCUMENTS: usize = 256;

    /// Approximate payload-byte budget per upload frame: a chunk closes as soon
    /// as its estimated encoded size passes this, so a frame stays far from the
    /// codec's `u32::MAX` cap even when individual documents are huge.
    pub const UPLOAD_CHUNK_BYTES: usize = 64 << 20;

    fn wire_mark(&self) -> WireMark {
        WireMark {
            server: self.server.wire_stats(),
            owner: self.owner.wire_stats(),
            server_next_id: self.server.next_request_id(),
            owner_next_id: self.owner.next_request_id(),
        }
    }

    fn wire_report_since(&self, mark: &WireMark) -> WireReport {
        let delta = self
            .server
            .wire_stats()
            .since(&mark.server)
            .plus(&self.owner.wire_stats().since(&mark.owner));
        WireReport {
            frames_sent: delta.frames_sent,
            frames_received: delta.frames_received,
            bytes_sent: delta.bytes_sent,
            bytes_received: delta.bytes_received,
            server_request_ids: mark.server_next_id..self.server.next_request_id(),
            owner_request_ids: mark.owner_next_id..self.owner.next_request_id(),
        }
    }

    /// Offline phase: create the three actors, index and encrypt `documents`, upload to the
    /// server (through the envelope client — the upload travels as framed
    /// [`Request::Upload`] envelopes like any online operation), register the
    /// user and hand it the randomization pool.
    ///
    /// The upload is **chunked**: a chunk closes at
    /// [`SearchSession::UPLOAD_CHUNK_DOCUMENTS`] documents or when its
    /// estimated encoded size passes [`SearchSession::UPLOAD_CHUNK_BYTES`],
    /// whichever comes first, and each chunk is shipped and answered before the
    /// next is encoded — so no frame approaches the codec's `u32` payload cap
    /// and peak encoding memory is one chunk's frame, not the whole corpus.
    pub fn setup<R: Rng + ?Sized>(
        config: OwnerConfig,
        documents: &[Document],
        rng: &mut R,
    ) -> Result<Self, ProtocolError> {
        let rsa_bits = config.rsa_modulus_bits;
        let mut owner = DataOwner::new(config, rng);
        let (indices, encrypted) = owner.prepare_documents(documents, rng);
        let server = CloudServer::new(owner.params().clone());
        let mut server = Client::new(server);

        let mut chunk_indices = Vec::new();
        let mut chunk_documents = Vec::new();
        let mut chunk_bytes = 0usize;
        let mut pairs = indices.into_iter().zip(encrypted).peekable();
        while let Some((index, document)) = pairs.next() {
            // Estimated encoded size; the ciphertext dominates, the rest is a
            // conservative allowance for the index levels, key and framing.
            chunk_bytes += document.ciphertext.len()
                + index.levels.iter().map(|l| l.len() / 8 + 8).sum::<usize>()
                + 512;
            chunk_indices.push(index);
            chunk_documents.push(document);
            let chunk_full = chunk_indices.len() >= Self::UPLOAD_CHUNK_DOCUMENTS
                || chunk_bytes >= Self::UPLOAD_CHUNK_BYTES;
            if chunk_full || pairs.peek().is_none() {
                if let Err(e) = server.upload(
                    std::mem::take(&mut chunk_indices),
                    std::mem::take(&mut chunk_documents),
                ) {
                    server.abandon();
                    return Err(e);
                }
                chunk_bytes = 0;
            }
        }

        let mut user = User::new(
            1,
            owner.params().clone(),
            owner.public_key().clone(),
            rsa_bits,
            rng,
        );
        owner.register_user(user.id(), user.public_key().clone());
        user.set_random_pool(owner.random_pool_trapdoors());

        Ok(SearchSession {
            owner: Client::new(owner),
            server,
            user,
            ledger: CostLedger::new(),
        })
    }

    /// Step 1 (Figure 1): the trapdoor exchange for `keywords`, skipped when
    /// every needed bin key is already cached. Records analytic and measured
    /// costs in `ledger`.
    fn trapdoor_exchange(
        &mut self,
        ledger: &CostLedger,
        keywords: &[&str],
    ) -> Result<(), ProtocolError> {
        let modulus_bits = self.owner.public_key().modulus_bits();
        if let Some(request) = self.user.make_trapdoor_request(keywords) {
            let request_bits = request.bits(modulus_bits);
            let before = self.owner.wire_stats();
            let reply = self.owner.request_trapdoors(&request)?;
            let moved = self.owner.wire_stats().since(&before);
            record_exchange(
                ledger,
                Party::User,
                Party::DataOwner,
                Phase::Trapdoor,
                (request_bits, reply.bits(modulus_bits)),
                moved,
            );
            self.user.ingest_trapdoor_reply(&reply)?;
        }
        Ok(())
    }

    /// Online phase: run one complete query for `keywords`, retrieving and decrypting the top
    /// `theta` matching documents. Counters are reset at the start so the report reflects this
    /// round only.
    ///
    /// Every exchange travels as a framed envelope; the per-document blinded key
    /// decryptions of step 4 are pipelined through the owner client (submit all,
    /// flush once, correlate by request id).
    pub fn run_query<R: Rng + ?Sized>(
        &mut self,
        keywords: &[&str],
        theta: usize,
        rng: &mut R,
    ) -> Result<SessionReport, ProtocolError> {
        self.owner.reset_counters();
        self.server.reset_counters();
        self.user.reset_counters();
        let ledger = CostLedger::new();
        let modulus_bits = self.owner.public_key().modulus_bits();
        let mark = self.wire_mark();

        // Step 1 (Figure 1): trapdoor exchange.
        self.trapdoor_exchange(&ledger, keywords)?;

        // Step 2: query the server.
        let query = self.user.build_query(keywords, None, rng)?;
        let before = self.server.wire_stats();
        let search_reply = self.server.query(&query)?;
        record_exchange(
            &ledger,
            Party::User,
            Party::Server,
            Phase::Search,
            (query.bits(), search_reply.bits()),
            self.server.wire_stats().since(&before),
        );

        // Step 3: retrieve the top θ documents.
        let theta = theta.min(search_reply.matches.len());
        let mut retrieved = Vec::with_capacity(theta);
        if theta > 0 {
            let doc_request = self.user.choose_documents(&search_reply, theta)?;
            let before = self.server.wire_stats();
            let doc_reply = self.server.fetch_documents(&doc_request)?;
            record_exchange(
                &ledger,
                Party::User,
                Party::Server,
                Phase::Search,
                (doc_request.bits(), doc_reply.bits(modulus_bits)),
                self.server.wire_stats().since(&before),
            );

            // Step 4: blinded key decryption — one request per retrieved
            // document, pipelined: submit all, flush once, correlate by id.
            // Every request is built BEFORE anything is queued, so a failure
            // while preparing the window leaves no stale frames behind.
            let mut prepared = Vec::with_capacity(doc_reply.documents.len());
            for transfer in &doc_reply.documents {
                let (blind_request, state) = self
                    .user
                    .begin_blind_decrypt(&transfer.encrypted_key, rng)?;
                prepared.push((blind_request, state, transfer));
            }
            let before = self.owner.wire_stats();
            let mut pending = Vec::with_capacity(prepared.len());
            for (blind_request, state, transfer) in prepared {
                ledger.record(
                    Party::User,
                    Party::DataOwner,
                    Phase::Decrypt,
                    blind_request.bits(modulus_bits),
                );
                let id = self.owner.submit(&Request::BlindDecrypt(blind_request));
                pending.push((id, state, transfer));
            }
            if let Err(e) = self.owner.flush() {
                self.owner.abandon();
                return Err(e);
            }
            let moved = self.owner.wire_stats().since(&before);
            ledger.record_wire(
                Party::User,
                Party::DataOwner,
                Phase::Decrypt,
                moved.frames_sent,
                moved.bytes_sent,
            );
            ledger.record_wire(
                Party::DataOwner,
                Party::User,
                Phase::Decrypt,
                moved.frames_received,
                moved.bytes_received,
            );
            // Take EVERY reply, even after a failure, so no orphaned reply
            // survives in the inbox; the first error is surfaced at the end.
            let mut first_error: Option<ProtocolError> = None;
            for (id, state, transfer) in pending {
                let response = self.owner.take(id);
                if first_error.is_some() {
                    continue;
                }
                let blind_reply = match response
                    .ok_or_else(|| <DataOwner as Transport>::lost(id, false))
                    .and_then(Response::into_blind_decrypt)
                {
                    Ok(reply) => reply,
                    Err(e) => {
                        first_error = Some(e);
                        continue;
                    }
                };
                ledger.record(
                    Party::DataOwner,
                    Party::User,
                    Phase::Decrypt,
                    blind_reply.bits(modulus_bits),
                );
                match self
                    .user
                    .finish_blind_decrypt(&blind_reply, state)
                    .and_then(|key| self.user.decrypt_document(transfer, &key))
                {
                    Ok(plaintext) => retrieved.push((transfer.document_id, plaintext)),
                    Err(e) => first_error = Some(e),
                }
            }
            if let Some(e) = first_error {
                return Err(e);
            }
        }

        self.ledger.merge_from(&ledger);
        let wire = self.wire_report_since(&mark);
        // Local introspection through the client's Deref — no extra envelope,
        // so the metrics read never perturbs the round's wire or counter view.
        let server: &CloudServer = &self.server;
        let server_metrics =
            (server.telemetry_level() != TelemetryLevel::Off).then(|| server.metrics_snapshot());

        Ok(SessionReport {
            matches: search_reply
                .matches
                .iter()
                .map(|m| (m.document_id, m.rank))
                .collect(),
            retrieved,
            communication: ledger,
            user_ops: *self.user.counters(),
            owner_ops: *self.owner.counters(),
            server_ops: *self.server.counters(),
            cache: search_reply.cache,
            shards: self.server.num_shards(),
            wire,
            server_metrics,
        })
    }

    /// Run many searches in **one round trip** (the batched-query message): the
    /// trapdoor exchange covers the union of all keyword sets, then a single
    /// [`crate::messages::BatchQueryMessage`] carries every query and a single
    /// [`crate::messages::BatchSearchReply`] carries every answer. Returns the
    /// `(document id, rank)` matches per keyword set, in request order.
    ///
    /// Compared to calling [`SearchSession::run_query`] per set, the results and
    /// the ledger's Table 1 bit counts are identical — batching changes round
    /// trips, not bits — while the server evaluates the whole batch in one pass
    /// over each index shard.
    pub fn run_batch<R: Rng + ?Sized>(
        &mut self,
        keyword_sets: &[Vec<&str>],
        rng: &mut R,
    ) -> Result<Vec<Vec<(u64, u32)>>, ProtocolError> {
        // Step 1 (Figure 1): one trapdoor exchange for the union of all keywords.
        let union: Vec<&str> = keyword_sets.iter().flatten().copied().collect();
        let ledger = self.ledger.clone(); // shared handle, not a copy
        self.trapdoor_exchange(&ledger, &union)?;

        // Step 2: every query in one batched round trip.
        let batch = self.user.build_batch_query(keyword_sets, None, rng)?;
        let before = self.server.wire_stats();
        let reply = self.server.batch_query(&batch)?;
        record_exchange(
            &ledger,
            Party::User,
            Party::Server,
            Phase::Search,
            (batch.bits(), reply.bits()),
            self.server.wire_stats().since(&before),
        );

        Ok(reply
            .replies
            .iter()
            .map(|r| r.matches.iter().map(|m| (m.document_id, m.rank)).collect())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn corpus() -> Vec<Document> {
        vec![
            Document::from_text(0, "cloud privacy search over encrypted cloud data"),
            Document::from_text(1, "weather forecast for tomorrow"),
            Document::from_text(2, "private cloud storage encryption pricing"),
            Document::from_text(3, "holiday photos from the beach"),
        ]
    }

    fn session() -> (SearchSession, StdRng) {
        let mut rng = StdRng::seed_from_u64(2718);
        let session = SearchSession::setup(OwnerConfig::fast_for_tests(), &corpus(), &mut rng)
            .expect("setup succeeds");
        (session, rng)
    }

    #[test]
    fn full_round_retrieves_and_decrypts_matching_documents() {
        let (mut session, mut rng) = session();
        // Query keywords must be normalized (stemmed) the same way document terms were.
        let cloud = mkse_textproc::normalize_keyword("cloud");
        let privacy = mkse_textproc::normalize_keyword("privacy");
        let report = session
            .run_query(&[cloud.as_str(), privacy.as_str()], 1, &mut rng)
            .unwrap();

        // Document 0 contains both stems; the retrieved top document decrypts to its
        // original text.
        assert!(!report.matches.is_empty());
        assert_eq!(report.retrieved.len(), 1);
        let (id, plaintext) = &report.retrieved[0];
        let original = corpus().iter().find(|d| d.id == *id).unwrap().body.clone();
        assert_eq!(plaintext, &original);
    }

    #[test]
    fn communication_costs_follow_table1_shapes() {
        let (mut session, mut rng) = session();
        let report = session.run_query(&["cloud"], 1, &mut rng).unwrap();
        let ledger = &report.communication;
        let modulus_bits = session.owner.public_key().modulus_bits();

        // User → server search traffic includes the r-bit query (plus the 64-bit doc request).
        let user_search = ledger.bits_sent(Party::User, Phase::Search);
        assert!((448..=448 + 64).contains(&user_search));
        // User → owner trapdoor request is 32·γ + log N bits.
        let user_trapdoor = ledger.bits_sent(Party::User, Phase::Trapdoor);
        assert_eq!(user_trapdoor, 32 + modulus_bits as u64);
        // Decrypt phase: user sends 2·log N per retrieved document, owner replies with log N.
        assert_eq!(
            ledger.bits_sent(Party::User, Phase::Decrypt),
            2 * modulus_bits as u64
        );
        assert_eq!(
            ledger.bits_sent(Party::DataOwner, Phase::Decrypt),
            modulus_bits as u64
        );
        // The server never talks to the data owner.
        assert_eq!(ledger.bits_sent(Party::Server, Phase::Trapdoor), 0);
        assert_eq!(ledger.bits_sent(Party::Server, Phase::Decrypt), 0);
    }

    #[test]
    fn measured_wire_traffic_bounds_the_analytic_bits() {
        let (mut session, mut rng) = session();
        let report = session.run_query(&["cloud"], 1, &mut rng).unwrap();
        let ledger = &report.communication;

        // Framing adds overhead, never removes payload: every measured cell
        // dominates its analytic counterpart.
        for party in [Party::User, Party::DataOwner, Party::Server] {
            for phase in [Phase::Trapdoor, Phase::Search, Phase::Decrypt] {
                let analytic = ledger.bits_sent(party, phase);
                let measured = ledger.wire_bits_sent(party, phase);
                assert!(
                    measured >= analytic,
                    "{party} {phase}: measured {measured} < analytic {analytic}"
                );
                // Per-frame overhead is small and bounded: 14 bytes of framing
                // plus byte-alignment and length prefixes inside the body.
                if analytic > 0 {
                    assert!(measured < analytic + 8 * 512, "{party} {phase} overhead");
                }
            }
        }

        // The wire report aggregates both connections and names the ids used.
        assert!(report.wire.frames_sent >= 3); // trapdoor + query + doc request + decrypts
        assert_eq!(report.wire.frames_sent, report.wire.frames_received);
        assert!(report.wire.bytes_sent > 0);
        assert!(report.wire.bytes_received > report.wire.bytes_sent); // metadata-heavy replies
        assert!(!report.wire.server_request_ids.is_empty());
        assert!(!report.wire.owner_request_ids.is_empty());
    }

    #[test]
    fn computation_costs_follow_table2_shapes() {
        let (mut session, mut rng) = session();
        let report = session.run_query(&["cloud"], 1, &mut rng).unwrap();

        // Server: only binary comparisons, no cryptography at all.
        assert!(report.server_ops.binary_comparisons >= 4);
        assert_eq!(report.server_ops.public_key_operations(), 0);
        assert_eq!(report.server_ops.hashes, 0);
        // The server answered one envelope per exchange: query + document fetch.
        assert_eq!(report.server_ops.requests_served, 2);

        // User: hash for the trapdoor, a handful of modular exponentiations (sign, decrypt
        // bin key, blind, sign) and multiplications (blind/unblind), one symmetric decryption.
        assert!(report.user_ops.hashes >= 1);
        assert!(report.user_ops.modular_exponentiations >= 3);
        assert!(report.user_ops.modular_multiplications >= 2);
        assert_eq!(report.user_ops.symmetric_decryptions, 1);

        // Data owner: about 4 modular exponentiations per search (2 for the trapdoor step,
        // 2 for the decryption step), as Table 2 states.
        assert!(report.owner_ops.modular_exponentiations >= 4);
        assert_eq!(report.owner_ops.symmetric_encryptions, 0);
    }

    #[test]
    fn repeated_queries_reuse_cached_trapdoors() {
        let (mut session, mut rng) = session();
        let first = session.run_query(&["cloud"], 0, &mut rng).unwrap();
        assert!(first.communication.bits_sent(Party::User, Phase::Trapdoor) > 0);
        // Second query for the same keyword: no trapdoor traffic at all (§3: the same trapdoor
        // serves many queries) — neither analytic nor on the measured wire.
        let second = session.run_query(&["cloud"], 0, &mut rng).unwrap();
        assert_eq!(
            second.communication.bits_sent(Party::User, Phase::Trapdoor),
            0
        );
        assert_eq!(
            second
                .communication
                .wire_bits_sent(Party::User, Phase::Trapdoor),
            0
        );
        assert!(second.wire.owner_request_ids.is_empty());
        // The global ledger accumulated both rounds.
        assert!(session.ledger.total_bits() > second.communication.total_bits());
    }

    #[test]
    fn theta_is_clamped_to_available_matches() {
        let (mut session, mut rng) = session();
        let report = session.run_query(&["weather"], 10, &mut rng).unwrap();
        assert!(report.retrieved.len() <= report.matches.len());
        for (id, body) in &report.retrieved {
            let original = corpus().iter().find(|d| d.id == *id).unwrap().body.clone();
            assert_eq!(body, &original);
        }
    }

    #[test]
    fn nonexistent_keyword_matches_nothing_or_only_false_accepts() {
        let (mut session, mut rng) = session();
        let report = session
            .run_query(&["zzzznonexistent", "qqqqalsonot"], 0, &mut rng)
            .unwrap();
        // With two absent keywords the probability of a false accept is ≈ (279/448)^14 < 0.2%,
        // so under this fixed seed nothing matches.
        assert!(report.matches.is_empty());
        assert!(report.retrieved.is_empty());
    }

    #[test]
    fn batched_round_matches_individual_rounds() {
        let cloud = mkse_textproc::normalize_keyword("cloud");
        let weather = mkse_textproc::normalize_keyword("weather");
        let sets: Vec<Vec<&str>> = vec![vec![cloud.as_str()], vec![weather.as_str()]];

        let (mut batched_session, mut rng1) = session();
        let batched = batched_session.run_batch(&sets, &mut rng1).unwrap();

        let (mut single_session, mut rng2) = session();
        let individual: Vec<Vec<(u64, u32)>> = sets
            .iter()
            .map(|kws| single_session.run_query(kws, 0, &mut rng2).unwrap().matches)
            .collect();

        // Same matches per keyword set (randomization never changes results), and
        // the same search-phase bit totals — batching saves round trips, not bits.
        assert_eq!(batched, individual);
        assert!(batched[0].iter().any(|(id, _)| *id == 0 || *id == 2));
        assert_eq!(
            batched_session.ledger.bits_sent(Party::User, Phase::Search),
            single_session.ledger.bits_sent(Party::User, Phase::Search),
        );
        // One trapdoor exchange covered both keyword sets.
        assert!(
            batched_session
                .ledger
                .bits_sent(Party::User, Phase::Trapdoor)
                > 0
        );
        // On the measured wire batching IS cheaper: one frame instead of two.
        assert_eq!(
            batched_session
                .ledger
                .wire_frames_sent(Party::User, Phase::Search),
            1
        );
        assert_eq!(
            single_session
                .ledger
                .wire_frames_sent(Party::User, Phase::Search),
            2
        );
        assert!(
            batched_session
                .ledger
                .wire_bits_sent(Party::User, Phase::Search)
                < single_session
                    .ledger
                    .wire_bits_sent(Party::User, Phase::Search)
        );
    }

    #[test]
    fn session_reports_cache_effects_when_enabled() {
        let (mut session, mut rng) = session();
        session.server.enable_cache(32).unwrap();
        let shards = session.server.num_shards() as u64;

        // run_query builds a fresh randomized query each round (§6), so repeated
        // *keyword* searches produce different query indices and — correctly —
        // miss the cache: randomization hides the search pattern from the server,
        // and the cache key is only what the server sees.
        let first = session.run_query(&["cloud"], 0, &mut rng).unwrap();
        assert_eq!(first.cache.shard_misses, shards);
        assert!(!first.cache.served_from_cache);
        let second = session.run_query(&["cloud"], 0, &mut rng).unwrap();
        assert_eq!(second.matches, first.matches);
        assert!(!second.cache.served_from_cache);

        // A render with hits mentions the cache line.
        let mut report = second;
        report.cache.shard_hits = shards;
        report.cache.served_from_cache = true;
        assert!(report.render().contains("result cache"));
    }

    #[test]
    fn session_report_includes_server_telemetry_when_enabled() {
        let (mut session, mut rng) = session();
        let off = session.run_query(&["cloud"], 0, &mut rng).unwrap();
        assert!(off.server_metrics.is_none(), "telemetry defaults to Off");
        assert!(!off.render().contains("server telemetry"));

        session.server.set_telemetry_level(TelemetryLevel::Spans);
        let on = session.run_query(&["cloud"], 0, &mut rng).unwrap();
        // Telemetry is invisible: the reply and the Table 2 accounting are
        // unchanged by recording at the most detailed level.
        assert_eq!(on.matches, off.matches);
        assert_eq!(
            on.server_ops.requests_served,
            off.server_ops.requests_served
        );

        let metrics = on.server_metrics.as_ref().expect("registry snapshot");
        assert_eq!(metrics.level, TelemetryLevel::Spans);
        assert!(metrics.counter("batch_queries") >= 1);
        assert!(metrics.counter("wire_frames_in") >= 1);
        assert!(metrics.counter("wire_bytes_out") > 0);
        assert!(metrics.histograms.iter().any(|h| h.stage == "service_call"));
        let text = on.render();
        assert!(text.contains("server telemetry (level spans"));
        assert!(text.contains("service_call"));
    }

    #[test]
    fn report_renders_summary() {
        let (mut session, mut rng) = session();
        let report = session.run_query(&["cloud"], 1, &mut rng).unwrap();
        let text = report.render();
        assert!(text.contains("matches:"));
        assert!(text.contains("communication"));
        assert!(text.contains("server operations"));
        // The redesigned report names the shard count and the measured wire.
        assert!(text.contains(&format!("server shards: {}", session.server.num_shards())));
        assert!(text.contains("wire:"));
        assert!(text.contains("request ids"));
        assert!(text.contains("measured framed wire"));
    }
}
