//! The cloud server (§3): stores encrypted documents plus searchable indices and answers
//! queries with pure bit comparisons.
//!
//! The server runs on the layered read path of `mkse-core`: a
//! [`mkse_core::storage::ShardedStore`] partitions the indices round-robin across
//! shards, and a [`SearchEngine`] scans the shards in parallel. Results are bit-for-bit identical to the paper's sequential
//! scan (deterministic rank-then-id order); only the wall-clock time changes.
//!
//! An optional **result cache** ([`mkse_core::cache`]) sits in front of the shard
//! scans: a [`Request::EnableCache`] turns it on with a per-shard capacity,
//! repeated query indices are then answered without scanning, and the
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
//! builder, so all three record one telemetry family. The framed codec
//! carries the same envelope, so replies are byte-identical no matter which
//! surface a caller uses (`tests/oracle_matrix.rs` holds `call`, a group, the
//! framed [`crate::Client`] and the hubs to one reference — replies, counters,
//! cache stats and reports — across shard counts and cache configurations).

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
    /// Create an empty server for the given public parameters with one shard per
    /// host core, capped at 8. The shard count partitions the scan planes, the
    /// result cache and the merge — every shard adds a cache lookup and a merge
    /// input to each query — and not the scan lanes, which follow the host's
    /// cores at any shard count.
    pub fn new(params: SystemParams) -> Self {
        let shards = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        Self::with_shards(params, shards)
    }

    /// Create an empty server with an explicit shard count: how the scan planes,
    /// the result cache and the merge are partitioned. A one-shard server still
    /// scans on every core — lanes follow the host, not the shard count.
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

    /// Cumulative cache effectiveness counters, or `None` when caching is off.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.engine.cache_stats()
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

    fn populated_server() -> (DataOwner, CloudServer, StdRng) {
        let mut rng = StdRng::seed_from_u64(17);
        let mut owner = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
        let docs = vec![
            Document::from_text(0, "cloud privacy search encryption"),
            Document::from_text(1, "weather forecast rain"),
            Document::from_text(2, "cloud storage pricing"),
        ];
        let (indices, documents) = owner.prepare_documents(&docs, &mut rng);
        let mut server = CloudServer::new(owner.params().clone());
        let upload = Request::Upload(UploadMessage { indices, documents });
        server.call(upload).into_uploaded().unwrap();
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
    fn enable_cache_takes_any_u64_capacity() {
        let (_, mut server, _) = populated_server();
        let capacity_per_shard = u64::MAX; // saturates where usize is narrower
        let reply = server.call(Request::EnableCache { capacity_per_shard });
        let info = server.call(Request::ServerInfo).into_info().unwrap();
        assert!(matches!(reply, Response::Ack) && info.cache_enabled);
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
        let enable = Request::EnableCache {
            capacity_per_shard: 64,
        };
        assert_eq!(server.call(enable), Response::Ack);
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
}
