//! The versioned service envelope: one [`Request`] / [`Response`] pair covering
//! **every** operation a party can ask of another, and the [`Service`] trait that
//! turns an actor into a uniform `Request → Response` endpoint.
//!
//! The paper defines the protocol as messages exchanged between user, data owner
//! and cloud server; this module gives those messages a single seam. Instead of a
//! dozen unrelated Rust methods (one per query shape, document retrieval,
//! trapdoor serving, cache/snapshot admin, …) there is exactly one entry point —
//! [`Service::call`] — so transports, async serving, multi-tenant dispatch and
//! measurement can all be layered *around* an actor without knowing which
//! operation travels inside the envelope.
//!
//! * [`crate::CloudServer`] serves the search-side requests (query, batch query,
//!   document retrieval, upload, cache admin, snapshot/restore, counters, info)
//!   and rejects owner-side ones with [`crate::ProtocolError::Unsupported`].
//! * [`crate::DataOwner`] serves the owner-side requests (trapdoor issuance,
//!   blinded decryption) and rejects the rest symmetrically.
//!
//! The [`crate::wire`] module gives every envelope a length-prefixed framed byte
//! encoding (version byte + request id for correlation), and [`crate::Client`]
//! speaks envelopes exclusively — including pipelined, out-of-order-correlated
//! exchanges.

use crate::counters::OperationCounters;
use crate::messages::{
    BatchQueryMessage, BatchSearchReply, BlindDecryptReply, BlindDecryptRequest, DocumentReply,
    DocumentRequest, QueryMessage, SearchReply, TrapdoorReply, TrapdoorRequest, UploadMessage,
};
use crate::ProtocolError;
use mkse_core::cache::CacheStats;
use mkse_core::telemetry::{MetricsSnapshot, Telemetry};

/// Version of the envelope vocabulary (and of the wire encoding in
/// [`crate::wire`]). Frames carrying any other version are rejected with a typed
/// [`crate::wire::CodecError::UnknownVersion`].
pub const PROTOCOL_VERSION: u8 = 1;

/// Every operation a party can request from a [`Service`], as one closed enum.
///
/// The first five variants are the paper's online protocol (Figure 1); the rest
/// are the operational surface a long-lived deployment needs (upload, cache
/// admin, persistence, measurement). Every variant has a framed wire encoding in
/// [`crate::wire`].
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// User → data owner: signed request for bin keys (§4.2, step 1 of Figure 1).
    Trapdoor(TrapdoorRequest),
    /// User → server: one r-bit query index (§4.3).
    Query(QueryMessage),
    /// User → server: many query indices in one round trip.
    BatchQuery(BatchQueryMessage),
    /// User → server: retrieve these documents (step 3 of Figure 1).
    Documents(DocumentRequest),
    /// User → data owner: blinded key decryption (§4.4, step 4 of Figure 1).
    BlindDecrypt(BlindDecryptRequest),
    /// Data owner → server: the offline-phase upload of indices + ciphertexts.
    Upload(UploadMessage),
    /// Admin → server: enable the per-shard result cache.
    EnableCache {
        /// LRU entries kept per index shard.
        capacity_per_shard: u64,
    },
    /// Admin → server: disable the result cache, dropping every entry.
    DisableCache,
    /// Admin → server: read the cumulative cache effectiveness counters.
    CacheStats,
    /// Admin → server: snapshot the searchable index (versioned binary format).
    SnapshotIndex,
    /// Admin → server: restore an index snapshot, appending its documents.
    RestoreIndex(Vec<u8>),
    /// Admin → any party: read the Table 2 operation counters.
    Counters,
    /// Admin → any party: reset the operation counters.
    ResetCounters,
    /// Admin → server: static deployment facts (shards, documents, geometry).
    ServerInfo,
    /// Admin → server: snapshot the telemetry registry (counters, gauges,
    /// stage-latency histograms, per-lane scheduler stats, per-shard cache
    /// stats). Read-only and side-effect-free: serving it changes nothing the
    /// search path can observe.
    MetricsSnapshot,
    /// Shard node → coordinator: join the fleet, advertising capabilities.
    /// Answered with a [`Response::ShardAssignment`] naming the shards the
    /// node now serves.
    RegisterNode(NodeRegistration),
    /// Shard node → coordinator: periodic liveness refresh carrying the
    /// node's [`MetricsSnapshot`] (the heartbeat *is* the metrics envelope —
    /// no new observable channel). Answered with the node's current
    /// [`Response::ShardAssignment`], so re-assignments propagate on the
    /// next beat.
    NodeHeartbeat(NodeHeartbeat),
}

impl Request {
    /// Stable human-readable name of the operation (diagnostics, error messages).
    pub fn name(&self) -> &'static str {
        match self {
            Request::Trapdoor(_) => "Trapdoor",
            Request::Query(_) => "Query",
            Request::BatchQuery(_) => "BatchQuery",
            Request::Documents(_) => "Documents",
            Request::BlindDecrypt(_) => "BlindDecrypt",
            Request::Upload(_) => "Upload",
            Request::EnableCache { .. } => "EnableCache",
            Request::DisableCache => "DisableCache",
            Request::CacheStats => "CacheStats",
            Request::SnapshotIndex => "SnapshotIndex",
            Request::RestoreIndex(_) => "RestoreIndex",
            Request::Counters => "Counters",
            Request::ResetCounters => "ResetCounters",
            Request::ServerInfo => "ServerInfo",
            Request::MetricsSnapshot => "MetricsSnapshot",
            Request::RegisterNode(_) => "RegisterNode",
            Request::NodeHeartbeat(_) => "NodeHeartbeat",
        }
    }
}

/// Capabilities a shard-server node advertises when registering with the
/// fleet coordinator. The coordinator uses them to bound how many shards it
/// assigns; they are static facts about the node process, not query state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCapabilities {
    /// Maximum number of index shards the node is willing to serve.
    pub shard_slots: u32,
    /// Scan lanes one query on the node's engine may use (the lane workers
    /// themselves belong to the node's process, not to its engine).
    pub scan_lanes: u32,
    /// Result-cache entries per shard the node can hold (0 = cache off).
    pub cache_capacity: u64,
}

/// Body of [`Request::RegisterNode`]: a node joining the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeRegistration {
    /// The node's stable identity (survives reconnects).
    pub node_id: u64,
    /// What the node can serve.
    pub capabilities: NodeCapabilities,
}

/// Body of [`Request::NodeHeartbeat`]: a periodic liveness refresh. The
/// payload is the node's existing telemetry snapshot — heartbeat traffic is
/// server-side topology maintenance and carries nothing query-dependent.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeHeartbeat {
    /// The beating node's identity.
    pub node_id: u64,
    /// Point-in-time copy of the node's telemetry registry.
    pub metrics: MetricsSnapshot,
}

/// Body of [`Response::ShardAssignment`]: the coordinator's answer to both
/// [`Request::RegisterNode`] and [`Request::NodeHeartbeat`] — which global
/// shards the node serves, under which failover epoch, and the health
/// contract (beat every `heartbeat_interval_ms`, declared dead after
/// `failure_deadline_ms` of silence).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardAssignment {
    /// The node this assignment addresses.
    pub node_id: u64,
    /// Global shard indices the node now serves.
    pub shards: Vec<u32>,
    /// Failover epoch: bumped every time the fleet layout changes.
    pub epoch: u64,
    /// How often the node must refresh its registration.
    pub heartbeat_interval_ms: u64,
    /// Silence longer than this marks the node dead.
    pub failure_deadline_ms: u64,
}

/// The reply to a [`Request`]. Success variants mirror the request vocabulary;
/// every fallible operation answers errors uniformly as [`Response::Error`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Matches + cache diagnostics for a [`Request::Query`].
    Search(SearchReply),
    /// Per-query replies for a [`Request::BatchQuery`], in request order.
    BatchSearch(BatchSearchReply),
    /// Ciphertexts + encrypted keys for a [`Request::Documents`].
    Documents(DocumentReply),
    /// Encrypted bin keys for a [`Request::Trapdoor`].
    Trapdoor(TrapdoorReply),
    /// The blinded plaintext for a [`Request::BlindDecrypt`].
    BlindDecrypt(BlindDecryptReply),
    /// Upload accepted; number of documents now stored.
    Uploaded {
        /// Documents stored after the upload.
        documents: u64,
    },
    /// Generic acknowledgement (cache admin, counter reset).
    Ack,
    /// Cumulative cache counters; `None` when the cache is disabled.
    CacheStats(Option<CacheStats>),
    /// A versioned binary index snapshot.
    Snapshot(Vec<u8>),
    /// Restore accepted; number of documents appended.
    Restored {
        /// Documents appended by the restore.
        documents: u64,
    },
    /// The party's Table 2 operation counters.
    Counters(OperationCounters),
    /// Static deployment facts.
    Info(ServerInfo),
    /// The telemetry registry's point-in-time state, answered to
    /// [`Request::MetricsSnapshot`].
    MetricsReport(MetricsSnapshot),
    /// The node's current shard assignment, answered to
    /// [`Request::RegisterNode`] and [`Request::NodeHeartbeat`].
    ShardAssignment(ShardAssignment),
    /// The operation failed; the exact [`ProtocolError`] travels in the envelope.
    Error(ProtocolError),
}

impl Response {
    /// Stable human-readable name of the reply kind (diagnostics, mismatch errors).
    pub fn name(&self) -> &'static str {
        match self {
            Response::Search(_) => "Search",
            Response::BatchSearch(_) => "BatchSearch",
            Response::Documents(_) => "Documents",
            Response::Trapdoor(_) => "Trapdoor",
            Response::BlindDecrypt(_) => "BlindDecrypt",
            Response::Uploaded { .. } => "Uploaded",
            Response::Ack => "Ack",
            Response::CacheStats(_) => "CacheStats",
            Response::Snapshot(_) => "Snapshot",
            Response::Restored { .. } => "Restored",
            Response::Counters(_) => "Counters",
            Response::Info(_) => "Info",
            Response::MetricsReport(_) => "MetricsReport",
            Response::ShardAssignment(_) => "ShardAssignment",
            Response::Error(_) => "Error",
        }
    }
}

/// Static facts about a serving deployment, answered to [`Request::ServerInfo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerInfo {
    /// Index shards scanned in parallel.
    pub shards: u64,
    /// Documents currently stored (σ).
    pub documents: u64,
    /// Index size in bits (r).
    pub index_bits: u64,
    /// Ranking levels (η).
    pub rank_levels: u64,
    /// Whether the result cache is currently enabled.
    pub cache_enabled: bool,
}

/// A party reachable through the uniform envelope: exactly one entry point for
/// every operation it serves.
///
/// Implementations must answer *every* request — operations outside a party's
/// role are answered with `Response::Error(ProtocolError::Unsupported(_))`, never
/// ignored. This totality is what lets transports and dispatchers stay oblivious
/// to the operation inside the envelope.
pub trait Service {
    /// Execute one request and produce its reply.
    fn call(&mut self, request: Request) -> Response;

    /// Execute a *group* of independent single-query envelopes — typically one
    /// [`Request::Query`] from each of several connections, coalesced by a
    /// cross-client batcher — one [`Response`] per message, in order. The
    /// contract is strict: replies, their cache reports and every operation
    /// counter must be byte-identical to calling [`Service::call`] once per
    /// message in group order, which is what this default does and what the
    /// batcher relies on to stay invisible. A service overrides it to run the
    /// group as one pass (see [`answer_query_group`] for the front door).
    fn call_query_group(&mut self, messages: &[QueryMessage]) -> Vec<Response> {
        messages
            .iter()
            .map(|m| self.call(Request::Query(m.clone())))
            .collect()
    }

    /// The service's telemetry registry, when it keeps one. Transports (see
    /// [`crate::serve`]) use this to record framed wire traffic and
    /// encode/decode durations against the same registry the engine writes,
    /// so one [`Request::MetricsSnapshot`] covers the whole stack. The
    /// default — for parties without a registry — opts out.
    fn telemetry(&self) -> Option<&Telemetry> {
        None
    }
}

/// Answer a coalesced group of single-query envelopes at the front door:
/// members that fail [`QueryMessage::check`] get their own
/// [`Response::Error`], and `run` executes the rest as one group (one
/// [`Response`] per member it is handed, in order). The result therefore
/// equals calling [`Service::call`] once per message in order — the contract
/// a cross-client batcher relies on — and one malformed member costs its
/// sender an error and the rest of the group nothing. A group with no such
/// member, which is every group well-behaved clients send, goes to `run` as
/// it stands.
pub fn answer_query_group(
    index_bits: usize,
    group: &[QueryMessage],
    run: impl FnOnce(&[QueryMessage]) -> Vec<Response>,
) -> Vec<Response> {
    let sound = |message: &QueryMessage| message.check(index_bits).is_ok();
    if group.iter().all(sound) {
        return run(group);
    }
    let rest: Vec<QueryMessage> = group.iter().filter(|m| sound(m)).cloned().collect();
    let answers = if rest.is_empty() { vec![] } else { run(&rest) };
    let mut answers = answers.into_iter();
    group
        .iter()
        .map(|message| match message.check(index_bits) {
            Err(error) => Response::Error(error),
            // `run` answers every member it was handed: the group contract.
            Ok(()) => answers.next().expect("one answer per sound member"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkse_core::bitindex::BitIndex;

    #[test]
    fn names_are_stable_and_distinct() {
        let requests = [
            Request::Query(QueryMessage {
                query: BitIndex::all_ones(8),
                top: None,
            }),
            Request::DisableCache,
            Request::CacheStats,
            Request::SnapshotIndex,
            Request::Counters,
            Request::ResetCounters,
            Request::ServerInfo,
            Request::EnableCache {
                capacity_per_shard: 4,
            },
            Request::RestoreIndex(vec![1, 2]),
            Request::MetricsSnapshot,
            Request::RegisterNode(NodeRegistration {
                node_id: 7,
                capabilities: NodeCapabilities::default(),
            }),
            Request::NodeHeartbeat(NodeHeartbeat {
                node_id: 7,
                metrics: MetricsSnapshot::default(),
            }),
        ];
        let mut names: Vec<&str> = requests.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), requests.len());

        assert_eq!(Response::Ack.name(), "Ack");
        assert_eq!(Response::Error(ProtocolError::BadSignature).name(), "Error");
        assert_eq!(
            Response::ShardAssignment(ShardAssignment::default()).name(),
            "ShardAssignment"
        );
    }
}
