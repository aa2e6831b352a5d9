//! The cloud server (§3): stores encrypted documents plus searchable indices and answers
//! queries with pure bit comparisons.
//!
//! The server runs on the layered read path of `mkse-core`: a
//! [`mkse_core::storage::ShardedStore`] partitions the indices round-robin across
//! shards, and a [`SearchEngine`] scans the shards in parallel. Results are bit-for-bit identical to the paper's sequential
//! scan (deterministic rank-then-id order); only the wall-clock time changes.
//!
//! An optional **result cache** ([`mkse_core::cache`]) sits in front of the shard
//! scans: [`CloudServer::enable_result_cache`] turns it on with a per-shard
//! capacity, repeated query indices are then answered without scanning, and the
//! [`OperationCounters`] split the Table 2 comparison count into work actually
//! performed (`binary_comparisons`) and work the cache saved
//! (`comparisons_saved_by_cache`). Replies carry a [`crate::messages::CacheReport`]
//! so users (and the benches) can observe hit rates end to end.
//!
//! Since the envelope redesign the server has exactly **one** entry point:
//! [`Service::call`], which executes any [`Request`] variant it serves (query,
//! batch query, document retrieval, upload, cache admin, snapshot/restore,
//! counters, info) and answers owner-side operations with
//! [`ProtocolError::Unsupported`]; its group form, [`Service::call_query_group`],
//! is what a cross-client batcher hands a coalesced group to. Every query
//! envelope — a `Query`, a `BatchQuery`, a group — is answered through the
//! engine's one batch entry (a `Query` as a batch of one) and the same reply
//! builder, so all three record one telemetry family. The cache toggles are
//! thin shims over `call`; an upload is `call` itself (or a client's typed
//! `upload`, which crosses the codec). The framed codec carries the same
//! envelope, so replies are byte-identical no matter which surface a caller
//! uses (`tests/envelope_equivalence.rs` asserts
//! `call` == framed [`crate::Client`] across shard counts and cache
//! configurations).

use crate::counters::OperationCounters;
use crate::envelope::{answer_query_group, Request, Response, ServerInfo, Service};
use crate::messages::{
    BatchSearchReply, CacheReport, DocumentReply, DocumentRequest, EncryptedDocumentTransfer,
    QueryMessage, SearchReply, SearchResultEntry, UploadMessage,
};
use crate::ProtocolError;
use mkse_core::bitindex::BitIndex;
use mkse_core::cache::{CacheConfig, CacheEffect, CacheStats};
use mkse_core::engine::SearchEngine;
use mkse_core::params::SystemParams;
use mkse_core::query::QueryIndex;
use mkse_core::search::{SearchMatch, SearchStats};
use mkse_core::telemetry::{Counter, MetricsSnapshot, Stage, Telemetry, TelemetryLevel};
use std::collections::BTreeMap;

/// The cloud-server actor.
pub struct CloudServer {
    engine: SearchEngine,
    documents: BTreeMap<u64, EncryptedDocumentTransfer>,
    counters: OperationCounters,
    /// Registry value of [`Counter::RequestsServed`] at the last counter reset.
    /// `counters.requests_served` is a mirror of `registry − baseline`: the
    /// telemetry registry is the single source of the served-request count
    /// (Table 1 wire frames and Table 2 request totals read the same atoms),
    /// while the resettable Table 2 view subtracts this baseline.
    served_baseline: u64,
}

impl CloudServer {
    /// Create an empty server for the given public parameters, sharding the index
    /// across the host's available cores (capped at 8 — beyond that the per-query
    /// merge overhead outweighs extra scan threads for realistic store sizes).
    pub fn new(params: SystemParams) -> Self {
        let shards = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        Self::with_shards(params, shards)
    }

    /// Create an empty server with an explicit shard count (e.g. 1 to reproduce the
    /// paper's sequential timings).
    pub fn with_shards(params: SystemParams, shards: usize) -> Self {
        CloudServer {
            engine: SearchEngine::sharded(params, shards),
            documents: BTreeMap::new(),
            counters: OperationCounters::new(),
            served_baseline: 0,
        }
    }

    /// Record one served request. The telemetry registry is the single source
    /// of truth ([`Telemetry::tally`] counts even at `Off`); the Table 2
    /// mirror is re-derived from it so `OperationCounters` and the registry
    /// can never drift apart.
    fn note_served(&mut self) {
        let telemetry = self.engine.telemetry();
        telemetry.tally(Counter::RequestsServed, 1);
        self.counters.requests_served =
            telemetry.counter(Counter::RequestsServed) - self.served_baseline;
    }

    /// Number of index shards this server scans in parallel.
    pub fn num_shards(&self) -> usize {
        self.engine.store().num_shards()
    }

    /// Enable the per-shard result cache with the given per-shard entry capacity.
    /// Off by default: turning it on never changes reply bytes (matches, ranks,
    /// order), only the work performed for repeated query indices — see the
    /// search-pattern note in [`mkse_core::cache`]. Shim over
    /// [`Request::EnableCache`].
    pub fn enable_result_cache(&mut self, capacity_per_shard: usize) {
        let _ = self.call(Request::EnableCache {
            capacity_per_shard: capacity_per_shard as u64,
        });
    }

    /// Disable the result cache, dropping every entry. Shim over
    /// [`Request::DisableCache`].
    pub fn disable_result_cache(&mut self) {
        let _ = self.call(Request::DisableCache);
    }

    /// True if the result cache is enabled.
    pub fn result_cache_enabled(&self) -> bool {
        self.engine.cache_enabled()
    }

    /// Cumulative cache effectiveness counters, or `None` when caching is off.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.engine.cache_stats()
    }

    /// Snapshot the searchable index into the versioned binary format of
    /// [`mkse_core::persistence`]. The result cache is never part of a snapshot.
    ///
    /// Semantically [`Request::SnapshotIndex`]; like [`CloudServer::restore_index`]
    /// the accounting (`requests_served`) matches the envelope path exactly, so
    /// counter parity holds no matter which surface a caller uses.
    pub fn snapshot_index(&mut self) -> Vec<u8> {
        self.note_served();
        self.engine.snapshot()
    }

    /// Restore an index snapshot, appending its documents. Every cache generation
    /// is bumped, so entries cached before the restore can never be served after.
    ///
    /// Semantically [`Request::RestoreIndex`], but executed on the borrowed
    /// slice: copying a whole-index snapshot into an owned envelope would
    /// double peak memory for a request that never crosses a wire here. The
    /// accounting (`requests_served`) matches the envelope path exactly.
    pub fn restore_index(&mut self, bytes: &[u8]) -> Result<usize, ProtocolError> {
        self.note_served();
        Ok(self.engine.restore_snapshot(bytes)?)
    }

    /// Accept the data owner's upload ([`Request::Upload`]): searchable indices
    /// and encrypted documents. Rejects (without partial effect on the document
    /// bodies) uploads whose indices do not match the server's parameters or
    /// collide with stored document ids.
    fn exec_upload(&mut self, upload: UploadMessage) -> Result<u64, ProtocolError> {
        self.engine.insert_all(upload.indices)?;
        for doc in upload.documents {
            self.documents.insert(doc.document_id, doc);
        }
        Ok(self.engine.len() as u64)
    }

    /// Number of stored documents (σ).
    pub fn num_documents(&self) -> usize {
        self.engine.len()
    }

    /// The one reply builder of every query envelope (§4.3 + Algorithm 1): account
    /// the execution — `binary_comparisons` counts the r-bit comparisons actually
    /// performed, `comparisons_saved_by_cache` the ones the result cache skipped
    /// (their sum is the cache-off Table 2 count), `cache_served_replies` the
    /// replies produced without any scan — and answer the matches with their
    /// ranks, index metadata and the [`CacheReport`] of what the cache did. The
    /// engine has already cut the matches to the message's `top`, so this
    /// keeps every one it is handed.
    fn reply(
        &mut self,
        (matches, stats, effect): (Vec<SearchMatch>, SearchStats, CacheEffect),
    ) -> SearchReply {
        self.counters.binary_comparisons += stats.comparisons - effect.saved_comparisons;
        self.counters.comparisons_saved_by_cache += effect.saved_comparisons;
        if effect.fully_cached() {
            self.counters.cache_served_replies += 1;
        }
        let entries = matches
            .into_iter()
            .map(|m| SearchResultEntry {
                document_id: m.document_id,
                rank: m.rank,
                metadata: (self.engine.document_index(m.document_id))
                    .map(|idx| idx.levels)
                    .unwrap_or_default(),
            })
            .collect();
        SearchReply {
            matches: entries,
            cache: CacheReport::from(effect),
        }
    }

    /// Answer checked queries as **one** fused pass: the engine's batch
    /// guarantees make every reply, its [`CacheReport`] and the
    /// [`OperationCounters`] deltas byte-identical to answering the queries one
    /// at a time, in order. `tops[i]` limits reply `i`, in the engine's merge.
    fn answer_batch(&mut self, queries: Vec<BitIndex>, tops: &[Option<usize>]) -> Vec<SearchReply> {
        let queries: Vec<QueryIndex> = queries.into_iter().map(QueryIndex::from_bits).collect();
        let results = self.engine.search_batch_with_effects(&queries, tops);
        results
            .into_iter()
            .map(|result| self.reply(result))
            .collect()
    }

    /// Answer a document-retrieval request: the ciphertexts and RSA-encrypted
    /// keys of the requested documents.
    fn exec_document_request(
        &mut self,
        request: &DocumentRequest,
    ) -> Result<DocumentReply, ProtocolError> {
        let mut documents = Vec::with_capacity(request.document_ids.len());
        for &id in &request.document_ids {
            let doc = self
                .documents
                .get(&id)
                .ok_or(ProtocolError::UnknownDocument(id))?;
            documents.push(doc.clone());
        }
        Ok(DocumentReply { documents })
    }

    /// Operation counters accumulated so far (binary comparisons only — the server does no
    /// cryptography, which is the point of the scheme). `requests_served` is a
    /// mirror of the telemetry registry's [`Counter::RequestsServed`] minus the
    /// last reset's baseline — one source backs both views.
    pub fn counters(&self) -> &OperationCounters {
        &self.counters
    }

    /// Reset the counters. The registry itself stays monotonic (snapshots never
    /// regress); the Table 2 view rebases on its current value instead.
    pub fn reset_counters(&mut self) {
        self.counters.reset();
        self.served_baseline = self.engine.telemetry().counter(Counter::RequestsServed);
    }

    /// Current telemetry recording level ([`TelemetryLevel::Off`] by default).
    pub fn telemetry_level(&self) -> TelemetryLevel {
        self.engine.telemetry_level()
    }

    /// Change the telemetry recording level at runtime. `&self`: the knob is a
    /// relaxed atomic on the shared registry.
    pub fn set_telemetry_level(&self, level: TelemetryLevel) {
        self.engine.set_telemetry_level(level);
    }

    /// Point-in-time copy of the telemetry registry (what
    /// [`Request::MetricsSnapshot`] answers). Read-only: taking a snapshot
    /// changes nothing the search path can observe.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.engine.metrics_snapshot()
    }

    /// The public parameters this server runs with.
    pub fn params(&self) -> &SystemParams {
        self.engine.params()
    }
}

impl Service for CloudServer {
    /// The server's single entry point: every operation it serves, behind one
    /// seam. Owner-side operations (trapdoor issuance, blinded decryption) are
    /// answered with [`ProtocolError::Unsupported`] — the request vocabulary is
    /// shared across parties, the serving duties are not.
    ///
    /// `requests_served` is bumped for every call, *before* execution, so a
    /// [`Request::Counters`] reply includes the request that fetched it. The
    /// count is tallied into the telemetry registry and mirrored back into
    /// [`OperationCounters`] — one registry-backed source for both.
    fn call(&mut self, request: Request) -> Response {
        let telemetry = self.engine.telemetry().clone();
        let _call_span = telemetry.span(Stage::ServiceCall);
        self.note_served();
        // The front door: a query is `r` bits or it is answered an error — the
        // engine below asserts the length, and that assert is for this
        // program's own bugs, not for what a peer chose to send.
        let index_bits = self.engine.params().index_bits;
        match request {
            Request::Query(message) => match message.check(index_bits) {
                Ok(()) => {
                    let mut replies = self.answer_batch(vec![message.query], &[message.top]);
                    Response::Search(replies.pop().expect("one reply per query"))
                }
                Err(e) => Response::Error(e),
            },
            Request::BatchQuery(message) => match message.check(index_bits) {
                Ok(()) => {
                    let tops = vec![message.top; message.queries.len()];
                    let replies = self.answer_batch(message.queries, &tops);
                    Response::BatchSearch(BatchSearchReply { replies })
                }
                Err(e) => Response::Error(e),
            },
            Request::Documents(request) => match self.exec_document_request(&request) {
                Ok(reply) => Response::Documents(reply),
                Err(e) => Response::Error(e),
            },
            Request::Upload(upload) => match self.exec_upload(upload) {
                Ok(documents) => Response::Uploaded { documents },
                Err(e) => Response::Error(e),
            },
            Request::EnableCache { capacity_per_shard } => {
                self.engine.enable_cache(CacheConfig {
                    capacity_per_shard: usize::try_from(capacity_per_shard).unwrap_or(usize::MAX),
                });
                Response::Ack
            }
            Request::DisableCache => {
                self.engine.disable_cache();
                Response::Ack
            }
            Request::CacheStats => Response::CacheStats(self.engine.cache_stats()),
            Request::SnapshotIndex => Response::Snapshot(self.engine.snapshot()),
            Request::RestoreIndex(bytes) => match self.engine.restore_snapshot(&bytes) {
                Ok(count) => Response::Restored {
                    documents: count as u64,
                },
                Err(e) => Response::Error(e.into()),
            },
            Request::Counters => Response::Counters(self.counters),
            Request::ResetCounters => {
                self.reset_counters();
                Response::Ack
            }
            Request::MetricsSnapshot => Response::MetricsReport(self.metrics_snapshot()),
            Request::ServerInfo => Response::Info(ServerInfo {
                shards: self.num_shards() as u64,
                documents: self.engine.len() as u64,
                index_bits: self.engine.params().index_bits as u64,
                rank_levels: self.engine.params().rank_levels() as u64,
                cache_enabled: self.engine.cache_enabled(),
            }),
            Request::Trapdoor(_) | Request::BlindDecrypt(_) => {
                Response::Error(ProtocolError::Unsupported(format!(
                    "{} is served by the data owner, not the cloud server",
                    request.name()
                )))
            }
            Request::RegisterNode(_) | Request::NodeHeartbeat(_) => {
                Response::Error(ProtocolError::Unsupported(format!(
                    "{} is served by the fleet coordinator, not the cloud server",
                    request.name()
                )))
            }
        }
    }

    /// A coalesced group — the cross-client batcher's entry point in `mkse-net`
    /// — runs as **one** fused scan-plane pass under the trait's contract:
    /// `requests_served` is bumped once per message, each reply honours its
    /// own message's `top`, and a member whose query is not `r` bits long is
    /// answered its own [`Response::Error`] while the rest run as the pass
    /// ([`answer_query_group`]) — exactly what `call` per message does.
    fn call_query_group(&mut self, messages: &[QueryMessage]) -> Vec<Response> {
        let telemetry = self.engine.telemetry().clone();
        let _call_span = telemetry.span(Stage::ServiceCall);
        for _ in messages {
            self.note_served();
        }
        let index_bits = self.engine.params().index_bits;
        answer_query_group(index_bits, messages, |sound| {
            let tops: Vec<Option<usize>> = sound.iter().map(|m| m.top).collect();
            let queries = sound.iter().map(|m| m.query.clone()).collect();
            let replies = self.answer_batch(queries, &tops);
            replies.into_iter().map(Response::Search).collect()
        })
    }

    /// The engine's registry: transports record framed wire traffic and
    /// encode/decode durations here, so one [`Request::MetricsSnapshot`]
    /// covers engine, scheduler, cache and wire together.
    fn telemetry(&self) -> Option<&Telemetry> {
        Some(self.engine.telemetry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_owner::{DataOwner, OwnerConfig};
    use crate::messages::BatchQueryMessage;
    use mkse_core::persistence::PersistenceError;
    use mkse_core::query::QueryBuilder;
    use mkse_textproc::document::Document;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The data owner's upload, as every client sends it.
    fn upload(
        server: &mut CloudServer,
        indices: Vec<mkse_core::RankedDocumentIndex>,
        documents: Vec<EncryptedDocumentTransfer>,
    ) -> Result<u64, ProtocolError> {
        server
            .call(Request::Upload(UploadMessage { indices, documents }))
            .into_uploaded()
    }

    fn populated_server() -> (DataOwner, CloudServer, StdRng) {
        let mut rng = StdRng::seed_from_u64(17);
        let mut owner = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
        let docs = vec![
            Document::from_text(0, "cloud privacy search encryption"),
            Document::from_text(1, "weather forecast rain"),
            Document::from_text(2, "cloud storage pricing"),
        ];
        let (indices, encrypted) = owner.prepare_documents(&docs, &mut rng);
        let mut server = CloudServer::new(owner.params().clone());
        upload(&mut server, indices, encrypted).unwrap();
        (owner, server, rng)
    }

    fn query_for(owner: &DataOwner, keywords: &[&str], rng: &mut StdRng) -> QueryMessage {
        let trapdoors = owner.scheme_keys().trapdoors_for(owner.params(), keywords);
        let pool = owner.random_pool_trapdoors();
        let q = QueryBuilder::new(owner.params())
            .add_trapdoors(&trapdoors)
            .with_randomization(&pool)
            .build(rng);
        QueryMessage {
            query: q.bits().clone(),
            top: None,
        }
    }

    /// `Service::call` on a query, narrowed to the search reply it must be.
    fn search(server: &mut CloudServer, message: &QueryMessage) -> SearchReply {
        match server.call(Request::Query(message.clone())) {
            Response::Search(reply) => reply,
            other => unreachable!("Query answered with {}", other.name()),
        }
    }

    /// [`search`] for a batch.
    fn batch_search(server: &mut CloudServer, message: &BatchQueryMessage) -> BatchSearchReply {
        match server.call(Request::BatchQuery(message.clone())) {
            Response::BatchSearch(reply) => reply,
            other => unreachable!("BatchQuery answered with {}", other.name()),
        }
    }

    #[test]
    fn query_returns_matching_documents_with_metadata() {
        let (owner, mut server, mut rng) = populated_server();
        assert_eq!(server.num_documents(), 3);
        // "cloud" is stemmed to "cloud"; documents 0 and 2 contain it.
        let reply = search(&mut server, &query_for(&owner, &["cloud"], &mut rng));
        let ids: Vec<u64> = reply.matches.iter().map(|m| m.document_id).collect();
        assert!(ids.contains(&0));
        assert!(ids.contains(&2));
        assert!(!ids.contains(&1));
        for m in &reply.matches {
            assert_eq!(m.metadata.len(), owner.params().rank_levels());
            assert!(m.rank >= 1);
        }
        assert!(server.counters().binary_comparisons >= 3);
    }

    #[test]
    fn top_limit_truncates_results() {
        let (owner, mut server, mut rng) = populated_server();
        let mut msg = query_for(&owner, &["cloud"], &mut rng);
        msg.top = Some(1);
        let reply = search(&mut server, &msg);
        assert_eq!(reply.matches.len(), 1);
    }

    #[test]
    fn document_request_returns_ciphertexts() {
        let (_, mut server, _) = populated_server();
        let Response::Documents(reply) = server.call(Request::Documents(DocumentRequest {
            document_ids: vec![0, 2],
        })) else {
            panic!("stored documents must be returned");
        };
        assert_eq!(reply.documents.len(), 2);
        assert_eq!(reply.documents[0].document_id, 0);
        assert!(!reply.documents[0].ciphertext.is_empty());
    }

    #[test]
    fn unknown_document_is_an_error() {
        let (_, mut server, _) = populated_server();
        assert_eq!(
            server.call(Request::Documents(DocumentRequest {
                document_ids: vec![99]
            })),
            Response::Error(ProtocolError::UnknownDocument(99))
        );
    }

    #[test]
    fn batched_queries_match_individual_queries() {
        let (owner, mut server, mut rng) = populated_server();
        let q1 = query_for(&owner, &["cloud"], &mut rng);
        let q2 = query_for(&owner, &["weather"], &mut rng);
        let individual = vec![search(&mut server, &q1), search(&mut server, &q2)];
        let singles_comparisons = server.counters().binary_comparisons;
        server.reset_counters();

        let batch = BatchQueryMessage {
            queries: vec![q1.query.clone(), q2.query.clone()],
            top: None,
        };
        let batched = batch_search(&mut server, &batch);
        assert_eq!(batched.replies, individual);
        // Comparison accounting is identical to sending the queries one by one.
        assert_eq!(server.counters().binary_comparisons, singles_comparisons);
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut owner = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
        let docs: Vec<Document> = (0..9u64)
            .map(|id| Document::from_text(id, "cloud storage privacy search"))
            .collect();
        let (indices, encrypted) = owner.prepare_documents(&docs, &mut rng);
        let mut sequential = CloudServer::with_shards(owner.params().clone(), 1);
        upload(&mut sequential, indices.clone(), encrypted.clone()).unwrap();
        let mut sharded = CloudServer::with_shards(owner.params().clone(), 4);
        upload(&mut sharded, indices, encrypted).unwrap();
        assert_eq!(sequential.num_shards(), 1);
        assert_eq!(sharded.num_shards(), 4);

        let msg = query_for(&owner, &["privacy"], &mut rng);
        assert_eq!(search(&mut sequential, &msg), search(&mut sharded, &msg));
    }

    #[test]
    fn duplicate_upload_is_rejected() {
        let (_, mut server, mut rng) = populated_server();
        let mut owner2 = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
        let docs = vec![Document::from_text(0, "colliding document id")];
        let (indices, encrypted) = owner2.prepare_documents(&docs, &mut rng);
        assert!(matches!(
            upload(&mut server, indices, encrypted),
            Err(ProtocolError::Store(_))
        ));
        assert_eq!(server.num_documents(), 3);
    }

    #[test]
    fn cached_replies_are_identical_and_accounted() {
        let (owner, mut server, mut rng) = populated_server();
        server.enable_result_cache(64);
        assert!(server.result_cache_enabled());
        let msg = query_for(&owner, &["cloud"], &mut rng);

        let first = search(&mut server, &msg);
        assert!(!first.cache.served_from_cache, "cold cache must scan");
        assert_eq!(first.cache.shard_hits, 0);
        let scanned = server.counters().binary_comparisons;
        assert!(scanned > 0);
        assert_eq!(server.counters().comparisons_saved_by_cache, 0);

        let second = search(&mut server, &msg);
        // Identical reply bytes; only the cache diagnostics differ.
        assert_eq!(second.matches, first.matches);
        assert!(second.cache.served_from_cache);
        assert_eq!(second.cache.saved_comparisons, scanned);
        // Work accounting: no new comparisons performed, all saved.
        assert_eq!(server.counters().binary_comparisons, scanned);
        assert_eq!(server.counters().comparisons_saved_by_cache, scanned);
        assert_eq!(server.counters().cache_served_replies, 1);
        let stats = server.cache_stats().unwrap();
        assert_eq!(stats.hits, server.num_shards() as u64);

        // An upload invalidates; the next query rescans and still matches.
        server.disable_result_cache();
        assert!(server.cache_stats().is_none());
        let uncached = search(&mut server, &msg);
        assert_eq!(uncached.matches, first.matches);
        assert_eq!(uncached.cache, CacheReport::default());
    }

    #[test]
    fn enable_cache_takes_any_u64_capacity() {
        let (_, mut server, _) = populated_server();
        let capacity_per_shard = u64::MAX; // saturates where usize is narrower
        let reply = server.call(Request::EnableCache { capacity_per_shard });
        assert!(matches!(reply, Response::Ack) && server.result_cache_enabled());
    }

    #[test]
    fn batch_queries_hit_the_cache_with_identical_replies() {
        let (owner, mut server, mut rng) = populated_server();
        let q1 = query_for(&owner, &["cloud"], &mut rng);
        let q2 = query_for(&owner, &["weather"], &mut rng);
        let batch = BatchQueryMessage {
            queries: vec![q1.query.clone(), q2.query.clone()],
            top: None,
        };
        let uncached = batch_search(&mut server, &batch);
        server.reset_counters();
        server.enable_result_cache(64);

        let cold = batch_search(&mut server, &batch);
        let logical = server.counters().binary_comparisons;
        let warm = batch_search(&mut server, &batch);
        for ((u, c), w) in uncached
            .replies
            .iter()
            .zip(cold.replies.iter())
            .zip(warm.replies.iter())
        {
            assert_eq!(u.matches, c.matches);
            assert_eq!(u.matches, w.matches);
            assert!(w.cache.served_from_cache);
        }
        assert_eq!(server.counters().binary_comparisons, logical);
        assert_eq!(server.counters().comparisons_saved_by_cache, logical);
        assert_eq!(server.counters().cache_served_replies, 2);
    }

    #[test]
    fn duplicate_queries_in_one_batch_dedup_and_account_like_sequential() {
        let (owner, mut server, mut rng) = populated_server();
        let q1 = query_for(&owner, &["cloud"], &mut rng);
        let q2 = query_for(&owner, &["weather"], &mut rng);
        // The batch repeats q1: a Zipf-style hot-keyword round trip.
        let batch = BatchQueryMessage {
            queries: vec![q1.query.clone(), q2.query.clone(), q1.query.clone()],
            top: None,
        };

        // Reference: the same three queries issued one at a time on an
        // identically configured server.
        let mut sequential = CloudServer::with_shards(owner.params().clone(), server.num_shards());
        let snapshot = server.snapshot_index();
        sequential.restore_index(&snapshot).unwrap();
        sequential.enable_result_cache(64);
        sequential.reset_counters();
        let individual = vec![
            search(&mut sequential, &q1),
            search(&mut sequential, &q2),
            search(&mut sequential, &q1),
        ];
        let sequential_counters = *sequential.counters();

        server.enable_result_cache(64);
        server.reset_counters();
        let batched = batch_search(&mut server, &batch);
        // Byte-identical replies, including each reply's CacheReport: the
        // duplicate is served as the cache hit sequential execution produces.
        assert_eq!(batched.replies, individual);
        assert!(batched.replies[2].cache.served_from_cache);
        assert!(batched.replies[2].cache.saved_comparisons > 0);
        // And the work accounting matches: the duplicate's comparisons are
        // counted as saved, not performed.
        let counters = server.counters();
        assert_eq!(
            counters.binary_comparisons,
            sequential_counters.binary_comparisons
        );
        assert_eq!(
            counters.comparisons_saved_by_cache,
            sequential_counters.comparisons_saved_by_cache
        );
        assert_eq!(counters.cache_served_replies, 1);
    }

    #[test]
    fn query_group_is_indistinguishable_from_sequential_calls() {
        // The group repeats "cloud" — as if clients share a hot keyword — at
        // four positions with four different `top`s (the widest, `None`,
        // neither first nor last), and "storage" at two: the fused group
        // merges each distinct query once and must still answer every member —
        // matches, `CacheReport` — and count every comparison exactly as one
        // `Service::call` per message on an identically configured twin does,
        // cold and then warm from the cache.
        let (owner, mut server, mut rng) = cloud_heavy_server();
        let [cloud, storage] = ["cloud", "storage"].map(|kw| query_for(&owner, &[kw], &mut rng));
        let at = |message: &QueryMessage, top| QueryMessage {
            top,
            ..message.clone()
        };
        let group = vec![
            at(&cloud, Some(2)),
            at(&storage, None),
            at(&cloud, Some(0)),
            at(&cloud, None),
            at(&storage, Some(1)),
            at(&cloud, Some(5)),
        ];
        let (mut sequential, mut grouped) = (cached_twin(&mut server), cached_twin(&mut server));
        for pass in ["cold", "warm"] {
            let individual: Vec<Response> = (group.iter())
                .map(|m| sequential.call(Request::Query(m.clone())))
                .collect();
            let Response::Search(widest) = &individual[3] else {
                panic!("query refused");
            };
            assert!(widest.matches.len() > 5, "the cuts must bite");
            assert_eq!(grouped.call_query_group(&group), individual, "{pass}");
            assert_eq!(grouped.counters(), sequential.counters(), "{pass}");
            assert_eq!(grouped.cache_stats(), sequential.cache_stats(), "{pass}");
        }
        // An empty group is a no-op that serves no requests.
        let served = grouped.counters().requests_served;
        assert!(grouped.call_query_group(&[]).is_empty());
        assert_eq!(grouped.counters().requests_served, served);
    }

    /// [`populated_server`] plus twelve documents that all mention "cloud",
    /// one to four times — enough matches, over several ranks, for a `top`
    /// to cut.
    fn cloud_heavy_server() -> (DataOwner, CloudServer, StdRng) {
        let (mut owner, mut server, mut rng) = populated_server();
        let docs: Vec<Document> = (10..22u64)
            .map(|id| {
                let text = format!("{} storage", "cloud ".repeat(1 + id as usize % 4));
                Document::from_text(id, &text)
            })
            .collect();
        let (indices, encrypted) = owner.prepare_documents(&docs, &mut rng);
        upload(&mut server, indices, encrypted).unwrap();
        (owner, server, rng)
    }

    /// A server holding `server`'s index under the same shard count, with a
    /// 64-entry cache and zeroed counters.
    fn cached_twin(server: &mut CloudServer) -> CloudServer {
        let mut twin = CloudServer::with_shards(server.params().clone(), server.num_shards());
        twin.restore_index(&server.snapshot_index()).unwrap();
        twin.enable_result_cache(64);
        twin.reset_counters();
        twin
    }

    /// `response` with every search reply's matches cut to `top`.
    fn cut(response: Response, top: Option<usize>) -> Response {
        let keep = |mut reply: SearchReply| {
            reply.matches.truncate(top.unwrap_or(usize::MAX));
            reply
        };
        match response {
            Response::Search(reply) => Response::Search(keep(reply)),
            Response::BatchSearch(batch) => Response::BatchSearch(BatchSearchReply {
                replies: batch.replies.into_iter().map(keep).collect(),
            }),
            other => other,
        }
    }

    #[test]
    fn top_zero_and_top_max_cost_what_an_uncut_query_costs() {
        // For a `Query`, a `BatchQuery` and a group alike: `Some(0)` answers
        // no match and `Some(usize::MAX)` every match, each with the
        // `CacheReport`s and `OperationCounters` of the same envelope sent
        // with `top: None` — cold and warm.
        let (owner, mut server, mut rng) = cloud_heavy_server();
        let [cloud, storage] = ["cloud", "storage"].map(|kw| query_for(&owner, &[kw], &mut rng));
        let with_top = |top: Option<usize>| {
            let (cloud, storage) = (
                QueryMessage {
                    top,
                    ..cloud.clone()
                },
                QueryMessage {
                    top,
                    ..storage.clone()
                },
            );
            let batch = BatchQueryMessage {
                queries: vec![
                    storage.query.clone(),
                    cloud.query.clone(),
                    storage.query.clone(),
                ],
                top,
            };
            (cloud.clone(), batch, vec![cloud, storage.clone(), storage])
        };
        let (query, batch, group) = with_top(None);
        for top in [Some(0), Some(usize::MAX)] {
            let (mut uncut, mut cut_twin) = (cached_twin(&mut server), cached_twin(&mut server));
            let (cut_query, cut_batch, cut_group) = with_top(top);
            for pass in ["cold", "warm"] {
                let ctx = format!("top={top:?}, {pass}");
                let want = [
                    uncut.call(Request::Query(query.clone())),
                    uncut.call(Request::BatchQuery(batch.clone())),
                ];
                let got = [
                    cut_twin.call(Request::Query(cut_query.clone())),
                    cut_twin.call(Request::BatchQuery(cut_batch.clone())),
                ];
                let want_group = uncut.call_query_group(&group);
                let got_group = cut_twin.call_query_group(&cut_group);
                for (want, got) in want
                    .into_iter()
                    .zip(got)
                    .chain(want_group.into_iter().zip(got_group))
                {
                    assert_eq!(got, cut(want, top), "{ctx}");
                }
                assert_eq!(cut_twin.counters(), uncut.counters(), "{ctx}");
                assert_eq!(cut_twin.cache_stats(), uncut.cache_stats(), "{ctx}");
            }
            let Response::Search(full) = uncut.call(Request::Query(query.clone())) else {
                panic!("query refused");
            };
            assert!(
                full.matches.len() > 3,
                "the cut must have something to drop"
            );
        }
    }

    /// What one envelope adds to the registry, in the order
    /// `[batches, batch_queries, engine_batch, cache_admit]` — two counters,
    /// then two stages' sample counts.
    fn telemetry_family(server: &mut CloudServer, send: impl FnOnce(&mut CloudServer)) -> [u64; 4] {
        let read = |server: &CloudServer| -> [u64; 4] {
            let snapshot = server.metrics_snapshot();
            let samples = |stage: &str| {
                let found = snapshot.histograms.iter().find(|h| h.stage == stage);
                found.map_or(0, |h| h.count)
            };
            [
                snapshot.counter("batches"),
                snapshot.counter("batch_queries"),
                samples("engine_batch"),
                samples("cache_admit"),
            ]
        };
        let before = read(server);
        send(server);
        let after = read(server);
        std::array::from_fn(|i| after[i] - before[i])
    }

    /// A `Query`, a `BatchQuery` and a group record one family: a k-member
    /// envelope is one engine batch of k — a `Query` a batch of one — and
    /// only an execution that admitted something records an admit.
    #[test]
    fn queries_batches_and_groups_record_one_family() {
        let (owner, mut server, mut rng) = populated_server();
        server.enable_result_cache(64);
        server.set_telemetry_level(TelemetryLevel::Spans);
        let [cloud, weather, storage, rain] =
            ["cloud", "weather", "storage", "rain"].map(|kw| query_for(&owner, &[kw], &mut rng));
        let batch = BatchQueryMessage {
            queries: vec![weather.query.clone(), storage.query.clone()],
            top: None,
        };
        let group = [cloud.clone(), weather.clone(), storage.clone()];

        // A cold query admits; the same query again is served from the cache.
        let single = |s: &mut CloudServer| drop(search(s, &cloud));
        assert_eq!(telemetry_family(&mut server, single), [1, 1, 1, 1]);
        assert_eq!(telemetry_family(&mut server, single), [1, 1, 1, 0]);
        // A k-member batch is one batch of k, cold or cached.
        let batched = |s: &mut CloudServer| drop(batch_search(s, &batch));
        assert_eq!(telemetry_family(&mut server, batched), [1, 2, 1, 1]);
        assert_eq!(telemetry_family(&mut server, batched), [1, 2, 1, 0]);
        // So is a group of k, whether every member is cached or one is cold.
        let grouped = |s: &mut CloudServer| drop(s.call_query_group(&group));
        assert_eq!(telemetry_family(&mut server, grouped), [1, 3, 1, 0]);
        let cold_member = |s: &mut CloudServer| drop(s.call_query_group(&[rain, cloud]));
        assert_eq!(telemetry_family(&mut server, cold_member), [1, 2, 1, 1]);
    }

    #[test]
    fn upload_invalidates_and_restore_starts_cold() {
        let (owner, mut server, mut rng) = populated_server();
        server.enable_result_cache(64);
        let msg = query_for(&owner, &["cloud"], &mut rng);
        let _ = search(&mut server, &msg);
        assert!(search(&mut server, &msg).cache.served_from_cache);

        // New upload: at least the written shards rescan, and results include
        // nothing stale.
        let mut owner2 = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
        let docs = vec![Document::from_text(77, "unrelated content entirely")];
        let (indices, encrypted) = owner2.prepare_documents(&docs, &mut rng);
        upload(&mut server, indices, encrypted).unwrap();
        let after_upload = search(&mut server, &msg);
        assert!(!after_upload.cache.served_from_cache);

        // Snapshot → restore into a fresh cached server: identical matches, cold cache.
        let bytes = server.snapshot_index();
        let mut restored = CloudServer::with_shards(owner.params().clone(), 2);
        restored.enable_result_cache(64);
        assert_eq!(restored.restore_index(&bytes).unwrap(), 4);
        let replayed = search(&mut restored, &msg);
        assert_eq!(replayed.matches, after_upload.matches);
        assert_eq!(replayed.cache.shard_hits, 0, "restored cache must be cold");
        assert!(matches!(
            restored.restore_index(&bytes[..3]),
            Err(ProtocolError::Persistence(_))
        ));
    }

    /// The 20-byte frame that used to panic whoever decoded it: a valid
    /// snapshot header claiming 2^59 entries must come back as a typed error,
    /// with the server untouched and still serving.
    #[test]
    fn restore_with_a_hostile_count_is_a_typed_error() {
        let (owner, mut server, mut rng) = populated_server();
        let Response::Snapshot(snapshot) = server.call(Request::SnapshotIndex) else {
            panic!("snapshot refused");
        };
        let mut hostile = snapshot[..20].to_vec();
        hostile[12..20].copy_from_slice(&(1u64 << 59).to_le_bytes());
        assert_eq!(
            server.call(Request::RestoreIndex(hostile)),
            Response::Error(ProtocolError::Persistence(PersistenceError::Truncated))
        );
        let Response::Info(info) = server.call(Request::ServerInfo) else {
            panic!("info refused");
        };
        assert_eq!(info.documents, 3, "nothing was restored");
        let msg = query_for(&owner, &["cloud"], &mut rng);
        assert!(!search(&mut server, &msg).matches.is_empty());
    }

    #[test]
    fn metrics_snapshot_is_served_and_requests_served_reads_the_registry() {
        let (owner, mut server, mut rng) = populated_server();
        server.set_telemetry_level(TelemetryLevel::Counters);
        let _ = search(&mut server, &query_for(&owner, &["cloud"], &mut rng));
        let report = match server.call(Request::MetricsSnapshot) {
            Response::MetricsReport(snapshot) => snapshot,
            other => unreachable!("MetricsSnapshot answered with {}", other.name()),
        };
        assert_eq!(report.level, TelemetryLevel::Counters);
        assert!(report.counter("batch_queries") >= 1);
        assert!(report.counter("shard_scans") >= server.num_shards() as u64);
        // One registry-backed source: the Table 2 mirror equals the registry.
        assert_eq!(
            report.counter("requests_served"),
            server.counters().requests_served
        );
        // Reset rebases the Table 2 view; the registry itself stays monotonic.
        server.reset_counters();
        assert_eq!(server.counters().requests_served, 0);
        let after = server.metrics_snapshot();
        assert!(after.counter("requests_served") >= report.counter("requests_served"));
        // Served-request accounting exists independently of the observability
        // plane: it keeps counting even at Off.
        server.set_telemetry_level(TelemetryLevel::Off);
        let _ = server.call(Request::ServerInfo);
        assert_eq!(server.counters().requests_served, 1);
    }

    #[test]
    fn server_counters_reset() {
        let (owner, mut server, mut rng) = populated_server();
        let _ = search(&mut server, &query_for(&owner, &["cloud"], &mut rng));
        assert!(server.counters().binary_comparisons > 0);
        server.reset_counters();
        assert_eq!(server.counters().binary_comparisons, 0);
    }
}
